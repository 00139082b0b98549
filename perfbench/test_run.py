"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PROG = run.load_program()
TINY = {name: replace(wl, rounds=1024 if wl.attacks else 10, trace_passes=1)
        for name, wl in run.WORKLOADS.items()}


@pytest.fixture(autouse=True)
def two_chunks(monkeypatch):
    # 1024 rounds then run as two harness chunks, so parallel-mix uses its pool
    monkeypatch.setattr(PROG.harness, "CHUNK_ROUNDS", 512)


def tiny_run(name, trace=False, golden=None, setup_reps=1):
    return run.run_workload(TINY[name], run.DEFAULT_SEED, 0.0, trace,
                            setup_reps=setup_reps, golden=golden, prog=PROG)


def test_benchmark_json_names_the_run_py_tables():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    # parallel-mix is run by hand only: too unsteady on a shared 2-CPU machine to gate on
    assert [w["name"] for w in BENCH["workloads"]] + ["parallel-mix"] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(name):
    result, metrics, lines = tiny_run(name, setup_reps=2 if name == "keygen-csv" else 1)
    assert result["correct"] and result["failed"] == 0, lines
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # the per-kind costs of the kinds this workload runs, and failed_frac, are printed too
    labels = [op.label for op in run.build_ops(PROG, run.Checker(PROG, {}), TINY[name], 1)[0]]
    printed = [f"kround_s.{lb}" for lb in labels if f"kround_s.{lb}" in dict(run.PER_LAYER)]
    assert printed
    for metric in printed + ["failed_frac"]:
        unit = dict(run.PER_LAYER)[metric]
        assert any(line.startswith(f"metric {metric} ") and line.endswith(f" {unit}")
                   for line in lines), metric
    assert metrics["failed_frac"] == 0.0


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_per_layer_metrics_emitted_with_units(name):
    result, _, lines = tiny_run(name, trace=True)
    assert result["correct"], lines
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_costs_are_scaled_by_the_calibration():
    # the same operation on a host running at 2/3 speed costs the same
    ref = run.CAL_REF_S
    fast = [(0.2, 0.1, ref, ref)] * 3
    slow = [(0.3, 0.15, 1.5 * ref, 1.5 * ref), (0.3, 0.15, 1.5 * ref, 1.5 * ref)]
    assert run.op_cost(fast) == pytest.approx((0.2, 0.1))
    assert run.op_cost(slow) == pytest.approx((0.2, 0.1))


def test_wrong_golden_hash_fails():
    cfg = SimpleNamespace(rounds=1024, test_bits=run.TEST_BITS, output_path="x.csv",
                          master_seed=run.derive_seed(run.DEFAULT_SEED, "keygen-csv", "none"))
    golden = {run.golden_key("none", cfg): "0" * 64}
    result, metrics, lines = tiny_run("keygen-csv", golden=golden)
    assert not result["correct"] and metrics["failed_frac"] > 0
    assert any("golden hash differs" in line for line in lines)


def test_forced_exception_fails(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("forced")
    monkeypatch.setattr(PROG.protocol, "run_round", broken)
    result, metrics, lines = tiny_run("reference-check")
    assert not result["correct"] and result["failed"] > 0 and metrics["failed_frac"] > 0
    assert any("RuntimeError: forced" in line for line in lines)


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    for path in run.HERE.glob("*.*"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "keygen-csv",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
