"""Harness: attack parsing, config files, CSV, determinism, CLI, and the
scalar-versus-vectorized engine equivalence."""
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import faraday_qkd.protocol as proto
from faraday_qkd import (
    AttackChoice,
    EquatorAngle,
    EveDiscriminator,
    ExperimentConfig,
    GeneralAttackSpec,
    batch,
    emit_curves,
    eve_infer_keys,
    general_attack_hooks,
    harness,
    intercept_resend_hooks,
    parse_attack,
    run_experiment,
    solve_report,
)
from faraday_qkd.harness import CliError, read_csv, round_uniforms, write_csv


def keyed_rng(seed, r):
    return np.random.Generator(np.random.Philox(key=np.array([seed, r], dtype=np.uint64)))


class TestAttackParsing:
    def test_all_forms(self):
        assert parse_attack("none") == AttackChoice("none")
        assert parse_attack("general:0.5,0.25,1.5") == AttackChoice("general", 0.5, 0.25, 1.5)
        assert parse_attack("intercept:0.9") == AttackChoice("intercept", gamma=0.9)
        for kind in ("impersonate:one", "impersonate:two", "pns:3", "pns:4home"):
            assert parse_attack(kind).kind == kind

    def test_bad_specs_rejected(self):
        for bad in ("?", "general:0.5", "general:2,0,0", "intercept:x", "pns:5",
                    "intercept:nan", "intercept:inf", "general:0.5,0.5,inf"):
            with pytest.raises(CliError):
                parse_attack(bad)


class TestConfig:
    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# demo\nrounds = 100\ntest_bits = 10\nseed = 5\n"
                       "attack = intercept:0.25\nworkers = 2\n", encoding="utf-8")
        values = harness.parse_config_file(str(cfg))
        assert values == {"rounds": "100", "test_bits": "10", "seed": "5",
                          "attack": "intercept:0.25", "workers": "2"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        with pytest.raises(CliError):
            harness.parse_config_file(str(cfg))

    def test_validation(self):
        with pytest.raises(CliError):
            ExperimentConfig(rounds=0, test_bits=0, master_seed=1)
        with pytest.raises(CliError):
            ExperimentConfig(rounds=10, test_bits=11, master_seed=1)


class TestScalarBatchEquivalence:
    """The vectorized kernels replay the exact per-round uniform streams, so
    they must reproduce the scalar engine bit for bit."""

    def test_plain_protocol(self):
        u = round_uniforms(900, 0, 200, 6)
        cols = batch.protocol_rounds(u)
        for r in range(200):
            t = proto.run_round(r + 1, keyed_rng(900, r))
            assert (t.alice_bits[0], t.alice_bits[1]) == (
                cols["k_alice_odd"][r], cols["k_alice_even"][r])
            assert (t.bob_bits[0], t.bob_bits[1]) == (
                cols["k_bob_odd"][r], cols["k_bob_even"][r])

    def test_intercept(self):
        u = round_uniforms(901, 0, 200, 10)
        cols = batch.protocol_rounds(u, {"kind": "intercept", "gamma": 0.45})
        hooks = intercept_resend_hooks(0.45)
        for r in range(200):
            t = proto.run_round(r + 1, keyed_rng(901, r), hooks=hooks)
            assert t.alice_bits[0] == cols["k_alice_odd"][r]
            assert t.bob_bits[0] == cols["k_bob_odd"][r]
            assert t.alice_bits[1] == cols["k_alice_even"][r]
            assert t.bob_bits[1] == cols["k_bob_even"][r]

    def test_general_attack_with_eve(self):
        spec = GeneralAttackSpec(EquatorAngle(0.8), 0.45, 0.45)
        disc = EveDiscriminator(spec)
        u = round_uniforms(902, 0, 150, 8)
        cols = batch.protocol_rounds(u, {"kind": "general", "gamma": 0.8,
                                         "cx": 0.45, "cy": 0.45,
                                         "povm_up": disc.m_up})
        hooks = general_attack_hooks(spec)
        for r in range(150):
            rng = keyed_rng(902, r)
            t, state = proto.run_round(r + 1, rng, hooks=hooks, return_state=True)
            ga, gb = eve_infer_keys(state, spec, rng, discriminator=disc)
            assert t.alice_bits[0] == cols["k_alice_odd"][r]
            assert t.alice_bits[1] == cols["k_alice_even"][r]
            assert (ga, gb) == (cols["eve_guess_alice"][r], cols["eve_guess_bob"][r])


class TestRunExperiment:
    def test_no_attack_report(self, tmp_path):
        cfg = ExperimentConfig(rounds=2000, test_bits=200, master_seed=77,
                               output_path=str(tmp_path / "run.csv"))
        rep = run_experiment(cfg)
        assert rep.detection_freq == 0.0
        assert not rep.detected
        assert rep.final_key_length == 2 * (2000 - 200)
        assert rep.empirical_i_ab == pytest.approx(1.0, abs=2e-3)
        assert (tmp_path / "run.csv").exists()

    def test_intercept_detected(self):
        cfg = ExperimentConfig(rounds=3000, test_bits=300, master_seed=78,
                               attack=AttackChoice("intercept", gamma=0.2))
        rep = run_experiment(cfg)
        assert rep.detected
        assert rep.final_key_length == 0
        assert abs(rep.detection_freq - 0.375) < 0.03

    def test_pns_report_extras(self):
        cfg = ExperimentConfig(rounds=400, test_bits=40, master_seed=79,
                               attack=AttackChoice("pns:3"))
        rep = run_experiment(cfg)
        assert rep.eve_accuracy == 1.0
        assert not rep.detected
        assert "trace dist min" in rep.extras


class TestCsv:
    def test_round_trip_is_byte_stable(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        cfg = ExperimentConfig(rounds=500, test_bits=50, master_seed=80,
                               output_path=p1)
        run_experiment(cfg)
        cols = read_csv(p1)
        write_csv(p2, cols)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_same_seed_same_bytes(self, tmp_path):
        outs = []
        for name in ("x.csv", "y.csv"):
            cfg = ExperimentConfig(rounds=1200, test_bits=100, master_seed=81,
                                   attack=AttackChoice("intercept", gamma=1.0),
                                   output_path=str(tmp_path / name))
            run_experiment(cfg)
            outs.append(open(tmp_path / name, "rb").read())
        assert outs[0] == outs[1]

    def test_lf_line_endings(self, tmp_path):
        p = str(tmp_path / "lf.csv")
        cfg = ExperimentConfig(rounds=50, test_bits=0, master_seed=82, output_path=p)
        run_experiment(cfg)
        data = open(p, "rb").read()
        assert b"\r" not in data
        assert data.count(b"\n") == 51


# SHA-256 of the CSV of a 3000-round run with 100 test bits and seed 2026
CSV_SHA256 = {
    "none": "9a794d158d492d18b261a4b98e3e928c352860c2fd95434f7cbb3747f06e58eb",
    "general:0.5,0.5,0.3": "51ce4528365c9d762fcf8b21a9abd86884884e5b5a1348d4c73f1298024f8d43",
    "intercept:0.3": "be5eb539ff7043efcba4180daab5a0ed972faba52a6a95d485651eb21f103ca4",
    "impersonate:one": "c7e3c6f03b6fe905de3301641f588af74e35ada16ec6f481668ea3017549d05c",
    "impersonate:two": "6f62ffbb181b73f0dab66b5327486a79c7649a67cf5606a1bb0be180cea3c328",
    "pns:3": "27390acdb3273c1c1278e81da48c362f51d68725ba51fbe01b3a5fb515110b3d",
    "pns:4home": "3c5176d69a37df86d0c4bcb77751193bac33be0c1629c42936135f0afa388131",
}


@pytest.mark.parametrize("spec", list(CSV_SHA256))
def test_csv_bytes_pinned(spec, tmp_path):
    path = tmp_path / "run.csv"
    run_experiment(ExperimentConfig(rounds=3000, test_bits=100, master_seed=2026,
                                    attack=parse_attack(spec), output_path=str(path)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_SHA256[spec]


def test_every_attack_kind_is_one_scenario():
    assert set(batch.SCENARIOS) == set(harness.ATTACK_KINDS)


def test_executor_rejects_wrong_draw_count():
    for kind, scenario in batch.SCENARIOS.items():
        for width in (scenario.draws - 1, scenario.draws + 1):
            with pytest.raises(ValueError):
                batch.protocol_rounds(np.full((4, width), 0.5), {"kind": kind})


class TestCurvesAndSolve:
    def test_emit_curves_endpoints(self, tmp_path):
        p = str(tmp_path / "curves.csv")
        cols = emit_curves(0.001, p)
        assert cols["p_d"][0] == 0.0
        assert cols["i_ab"][0] == pytest.approx(1.0)
        assert cols["i_ae"][0] == pytest.approx(0.0)
        assert cols["p_e"][0] == pytest.approx(0.5)
        assert cols["sum"][0] == pytest.approx(1.0)
        again = read_csv(p)
        assert np.allclose(again["p_d"], cols["p_d"])

    def test_threshold_bracketed_by_rows(self, tmp_path):
        cols = emit_curves(0.001, str(tmp_path / "c.csv"))
        diff = cols["i_ab"] - cols["i_ae"]
        sign_flips = np.where(np.diff(np.sign(diff)) != 0)[0]
        assert len(sign_flips) == 1
        lo, hi = cols["p_d"][sign_flips[0]], cols["p_d"][sign_flips[0] + 1]
        assert lo < 0.266188 < hi

    def test_i_ab_monotone_decreasing(self, tmp_path):
        cols = emit_curves(0.005, str(tmp_path / "c.csv"))
        assert np.all(np.diff(cols["i_ab"]) < 0)

    def test_bad_step(self, tmp_path):
        with pytest.raises(CliError):
            emit_curves(0.5, str(tmp_path / "c.csv"))

    def test_solve_report_format(self):
        text = solve_report()
        lines = text.splitlines()
        assert len(lines) == 3
        assert "0.266188" in lines[0]
        assert "0.110028" in lines[2]


class TestCli:
    def test_solve_exit_zero(self, capsys):
        assert harness.main(["solve"]) == 0
        assert "0.266188" in capsys.readouterr().out

    def test_simulate_via_cli(self, tmp_path, capsys):
        out = str(tmp_path / "sim.csv")
        rc = harness.main(["simulate", "--rounds", "300", "--test-bits", "30",
                           "--seed", "9", "--attack", "none", "--out", out])
        assert rc == 0
        assert os.path.exists(out)
        assert "detection freq" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rounds = 200\ntest_bits = 20\nseed = 3\nattack = none\n")
        rc = harness.main(["simulate", "--config", str(cfg), "--seed", "4"])
        assert rc == 0

    def test_bad_config_workers_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rounds = 200\nseed = 3\nworkers = two\n")
        assert harness.main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_argument_error_exit_one(self, capsys):
        assert harness.main(["simulate", "--rounds", "10"]) == 1          # no seed
        assert harness.main(["simulate", "--rounds", "10", "--seed", "1",
                             "--attack", "bogus"]) == 1
        assert harness.main(["nonsense"]) == 1

    def test_io_error_exit_two(self, capsys):
        rc = harness.main(["simulate", "--rounds", "10", "--seed", "1",
                           "--out", "/nonexistent-dir/x.csv"])
        assert rc == 2
        rc = harness.main(["curves", "--step", "0.01",
                           "--out", "/nonexistent-dir/c.csv"])
        assert rc == 2

    def test_env_var_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FARADAY_QKD_WORKERS", "2")
        cfg = harness._config_from_args(
            harness._build_parser().parse_args(
                ["simulate", "--rounds", "10", "--seed", "1"]))
        assert cfg.workers == 2

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "faraday_qkd", "solve"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "0.266188" in proc.stdout
