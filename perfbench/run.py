#!/usr/bin/env python3
"""Closed-loop benchmark of the faraday_qkd simulator.

    python3 perfbench/run.py --workload keygen-csv --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``.  One
client runs the workload's operations back to back, each one starting after
the previous one has finished, and checks every operation's output.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
``perfbench/README.md`` explains the workloads and the metrics.
"""
import os
import sys
import time

T_START = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"          # must precede the first numpy import

import argparse
import hashlib
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN_PATH = HERE / "golden.json"

DEFAULT_SEED = 1
WARMUP_SEED = 612208
WARMUP_ROUNDS = 2048        # a single harness chunk and a single batch chunk
WARMUP_TEST_BITS = 100
TEST_BITS = 1000
SETUP_REPS = 3
# The host this runs on changes speed by 10-30 % over tens of seconds, for
# every process alike.  A fixed calibration, timed after every operation,
# measures that speed; timings are divided by it and multiplied by its time
# on the reference host: a 2-CPU x86-64 Linux VM at 2.1 GHz, Python 3.11.7,
# numpy 2.4.6 with scipy-openblas 0.3.31, where its median is CAL_REF_S.
CAL_REF_S = 0.044
HEADLINE = ("0.266188", "0.345230", "0.110028")
PNS_ANGLES = (0.7, 2.1)
PNS_EVE_QUBITS = {"three-photon": (4, 5, 6, 7), "four-home-qubit": (6, 7, 8, 9)}
# reference-check blocks: label, draws per round, attack spec.  A pass runs
# REF_BLOCKS_PER_PASS blocks of each, with distinct inputs, because the
# scalar engine's cost per round depends on the round's outcomes.
REF_BLOCKS_PER_PASS = 5
REF_BLOCKS = (("ref-none", 6, "none"), ("ref-intercept", 10, "intercept:0.45"),
              ("ref-general", 8, "general:0.45,0.45,0.8"))


@dataclass(frozen=True)
class Workload:
    name: str
    attacks: tuple = ()         # one simulate experiment per spec per pass;
    rounds: int = 0             # none: reference-check blocks of `rounds` rounds
    csv: bool = False
    workers: int = 1            # 0 means one worker per CPU
    trace_passes: int = 1


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    # Experiments are short (one harness chunk) so that the calibration runs
    # every 0.1-1 s and follows the host's speed closely.
    Workload("keygen-csv", ("none", "intercept:0.3", "impersonate:one", "impersonate:two"),
             rounds=8192, csv=True, trace_passes=4),
    Workload("attack-kernels", ("general:0.5,0.5,0.3", "pns:3", "pns:4home"), rounds=2048,
             trace_passes=4),
    Workload("reference-check", rounds=200),
    Workload("parallel-mix", ("none", "general:0.5,0.5,0.3"), rounds=65536, csv=True, workers=0),
)}

KIND_LABELS = {"none": "none", "general": "general", "intercept": "intercept",
               "impersonate:one": "impersonate-one", "impersonate:two": "impersonate-two",
               "pns:3": "pns-3", "pns:4home": "pns-4home"}
KROUND_LABELS = tuple(KIND_LABELS.values()) + tuple(label for label, _, _ in REF_BLOCKS)

END_TO_END = (("rounds_per_s", "rounds/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("cpu_us_per_round", "us/round"))

_QSTATE_FNS = ("product_state", "apply_qfr", "measure_equator", "measure_z", "apply_pauli_x",
               "reduced_density", "append_qubit", "apply_1q_unitary", "apply_controlled_unitary")
PER_LAYER = (
    ("harness.round_uniforms.self_s", "s"), ("harness.round_uniforms.calls", "count"),
    ("harness.round_uniforms.ns_per_draw", "ns"),
    ("harness.write_csv.self_s", "s"), ("harness.write_csv.bytes", "B"),
    ("harness.write_csv.ns_per_byte", "ns/B"),
    ("harness.run_experiment.self_s", "s"), ("harness.pool.cpu_util", "ratio"),
    *((f"batch.{fn}.{m}", u) for fn in ("protocol_rounds", "one_home_rounds", "pns_rounds")
      for m, u in (("self_s", "s"), ("rounds", "count"), ("us_per_round", "us"),
                   ("state_bytes", "B"))),
    ("adversary.EveDiscriminator.self_s", "s"), ("adversary.EveDiscriminator.calls", "count"),
    ("adversary.EveDiscriminator.calls_per_spec", "ratio"),
    *((f"adversary.{fn}.{m}", u) for fn in ("eve_infer_keys", "hooks", "pns_build")
      for m, u in (("self_s", "s"), ("calls", "count"))),
    ("protocol.run_round.self_s", "s"), ("protocol.run_round.calls", "count"),
    ("protocol.run_round.us_per_round", "us"), ("protocol.sample_test_rounds.self_s", "s"),
    *((f"qstate.{fn}.{m}", u) for fn in _QSTATE_FNS for m, u in (("self_s", "s"), ("calls", "count"))),
    ("analysis.empirical_mutual_information.self_s", "s"), ("analysis.solvers.self_s", "s"),
    ("analysis.security_curve.self_s", "s"),
    *((f"{layer}.errors", "count") for layer in
      ("harness", "batch", "adversary", "protocol", "qstate", "analysis")),
    ("trace.overhead_frac", "ratio"), ("trace.unattributed_frac", "ratio"),
    *((f"kround_s.{label}", "s/kround") for label in KROUND_LABELS),
    ("failed_frac", "ratio"),
)


class ProgramMissing(Exception):
    """The package sources are not next to the benchmark."""


def load_program() -> SimpleNamespace:
    """Import numpy and the six faraday_qkd modules from ``src/``."""
    if not (SRC / "faraday_qkd" / "__init__.py").is_file():
        raise ProgramMissing(f"no faraday_qkd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy as np
    mods = {m: importlib.import_module(f"faraday_qkd.{m}") for m in
            ("harness", "batch", "adversary", "protocol", "qstate", "analysis")}
    if Path(mods["harness"].__file__).resolve().parent != SRC / "faraday_qkd":
        raise ProgramMissing(f"faraday_qkd was imported from {mods['harness'].__file__}")
    return SimpleNamespace(np=np, **mods)


class Calibration:
    """Fixed work that uses no faraday_qkd code: batched complex einsum,
    small Hermitian eigenvalue problems, per-round Philox generators and
    float formatting, the kinds of work the simulator does."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        mats = rng.standard_normal((1024, 16, 16)) + 1j * rng.standard_normal((1024, 16, 16))
        self.np = np
        self.mats = mats
        self.herm = (mats + np.conj(np.swapaxes(mats, 1, 2)))[:128]
        self.vecs = rng.standard_normal((1024, 16)) + 0j

    def work(self) -> float:
        np = self.np
        total = float(np.abs(np.einsum("bij,bj->bi", self.mats, self.vecs)).sum())
        total += float(np.linalg.eigvalsh(self.herm).sum())
        rows = []
        for k in range(1600):
            g = np.random.Generator(np.random.Philox(key=np.array([k, 7], dtype=np.uint64)))
            rows.append(",".join(f"{x:.11e}" for x in g.random(3)))
        return total + len("\n".join(rows))

    def run(self) -> tuple:
        """(wall_s, cpu_s) of one pass of the fixed work."""
        c0, t0 = time.process_time(), time.perf_counter()
        self.work()
        return time.perf_counter() - t0, time.process_time() - c0


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------

@dataclass
class Op:
    label: str          # metric label, e.g. "pns-3" or "ref-general"
    rounds: int         # protocol rounds the operation completes
    run: object         # () -> output; the timed part
    check: object       # output -> list of failure messages
    spec: str = ""      # simulate operations: attack spec and config
    cfg: object = None


def derive_seed(seed: int, *parts) -> int:
    text = "/".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def report_digest(report) -> str:
    """SHA-256 of the report text without its wall-time line."""
    lines = [ln for ln in report.to_text().splitlines() if not ln.startswith("wall time")]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def golden_key(spec: str, cfg) -> str:
    out = "csv" if cfg.output_path else "report"
    return f"{spec}|rounds={cfg.rounds}|test_bits={cfg.test_bits}|seed={cfg.master_seed}|{out}"


def predicted_detection(prog, attack) -> float:
    if attack.kind == "intercept":
        return 3.0 / 8.0
    if attack.kind.startswith("impersonate"):
        return 0.5
    if attack.kind == "general":
        return prog.analysis.detection_probability(attack.c_x, attack.c_y)
    return 0.0


def detection_failures(observed: float, predicted: float, n: int) -> list:
    """Empty when the detection frequency lies within 5 sigma of the prediction."""
    sigma = math.sqrt(predicted * (1.0 - predicted) / n)
    if abs(observed - predicted) > 5.0 * sigma:
        return [f"detection {observed:.6f} is more than 5 sigma from {predicted:.6f}"]
    return []


class Checker:
    """Output checks shared by every operation of one benchmark process."""

    def __init__(self, prog, golden: dict):
        self.prog = prog
        self.golden = golden
        self.seen = {}          # golden key -> digest of the first run of that config

    def simulate(self, spec: str, cfg, report) -> list:
        fails = detection_failures(report.detection_freq,
                                   predicted_detection(self.prog, cfg.attack), report.rounds)
        if report.rounds != cfg.rounds:
            fails.append(f"report has {report.rounds} rounds, expected {cfg.rounds}")
        if cfg.attack.kind.startswith("pns"):
            if report.eve_accuracy != 1.0:
                fails.append(f"PNS Eve accuracy {report.eve_accuracy} is not 1")
            if float(report.extras["trace dist min"]) < 1.0 - 1e-9:
                fails.append(f"PNS trace distance {report.extras['trace dist min']} below 1 - 1e-9")
        digest = file_digest(cfg.output_path) if cfg.output_path else report_digest(report)
        key = golden_key(spec, cfg)
        if key in self.golden and self.golden[key] != digest:
            fails.append(f"golden hash differs for {key}")
        if self.seen.setdefault(key, digest) != digest:
            fails.append(f"output differs from an earlier run of {key} (workers={cfg.workers})")
        return fails

    def reference_block(self, draws: int, attack, out) -> list:
        scalar, cols = out
        bad = 0
        for r, (alice, bob, eve, used) in enumerate(scalar):
            want = ((cols["k_alice_odd"][r], cols["k_alice_even"][r]),
                    (cols["k_bob_odd"][r], cols["k_bob_even"][r]),
                    (cols["eve_guess_alice"][r], cols["eve_guess_bob"][r]))
            if (alice, bob, eve) != want or used != draws:
                bad += 1
        fails = [f"{bad} of {len(scalar)} rounds differ between scalar and batch"] if bad else []
        freq = float(self.prog.np.mean(cols["k_alice_odd"] != cols["k_bob_odd"]))
        return fails + detection_failures(freq, predicted_detection(self.prog, attack), len(scalar))

    @staticmethod
    def pns(out) -> list:
        fails = []
        for variant, norm, rho in out:
            if abs(norm - 1.0) > 1e-9 or rho.dim != 16 or not 0.0 < rho.purity() <= 1.0 + 1e-9:
                fails.append(f"pns_build {variant}: norm {norm}, dim {rho.dim}")
        return fails

    @staticmethod
    def analysis(out) -> list:
        *solved, curve = out
        fails = [f"headline {got:.6f} != {want}" for got, want in zip(solved, HEADLINE)
                 if f"{got:.6f}" != want]
        if len(curve.points) != 376:
            fails.append(f"security_curve(0.001) has {len(curve.points)} points, expected 376")
        return fails


class Replay:
    """Hands one row of ``harness.round_uniforms`` to the scalar engine, which
    draws through ``rng.random()``; ``used`` counts the draws taken."""

    __slots__ = ("row", "used")

    def __init__(self, row):
        self.row = row
        self.used = 0

    def random(self):
        value = self.row[self.used]
        self.used += 1
        return value


def run_reference_block(prog, rows, u, attack):
    """The scalar engine round by round, then the batch kernel, on the same
    uniform streams."""
    adv, proto = prog.adversary, prog.protocol
    hooks, spec, disc, params = (), None, None, None
    if attack.kind == "intercept":
        hooks = adv.intercept_resend_hooks(attack.gamma)
        params = {"kind": "intercept", "gamma": attack.gamma}
    elif attack.kind == "general":
        spec = adv.GeneralAttackSpec(prog.qstate.EquatorAngle(attack.gamma), attack.c_x, attack.c_y)
        disc = adv.EveDiscriminator(spec)
        hooks = adv.general_attack_hooks(spec)
        params = {"kind": "general", "gamma": attack.gamma, "cx": attack.c_x, "cy": attack.c_y,
                  "povm_up": disc.m_up}
    scalar = []
    for r, row in enumerate(rows):
        rng = Replay(row)
        eve = (-1, -1)
        if spec is None:
            t = proto.run_round(r + 1, rng, hooks=hooks)
        else:
            t, state = proto.run_round(r + 1, rng, hooks=hooks, return_state=True)
            eve = adv.eve_infer_keys(state, spec, rng, discriminator=disc)
        scalar.append((t.alice_bits, t.bob_bits, eve, rng.used))
    return scalar, prog.batch.protocol_rounds(u, params)


def run_pns_builds(prog):
    out = []
    for variant, eve_qubits in PNS_EVE_QUBITS.items():
        scenario = prog.adversary.pns_build(variant, *PNS_ANGLES)
        out.append((variant, scenario.state.norm(),
                    prog.qstate.reduced_density(scenario.state, eve_qubits)))
    return out


def run_solvers(prog):
    a = prog.analysis
    return (a.find_security_threshold(), a.find_eve_optimum(), a.collective_bound(),
            a.security_curve(0.001))


def simulate_op(prog, checker, label, spec, cfg) -> Op:
    return Op(label, cfg.rounds, lambda: prog.harness.run_experiment(cfg),
              lambda report: checker.simulate(spec, cfg, report), spec, cfg)


def simulate_ops(prog, checker, wl: Workload, seed_of, rounds, test_bits, workers, tag):
    harness = prog.harness
    ops = []
    for spec in wl.attacks:
        attack = harness.parse_attack(spec)
        label = KIND_LABELS[attack.kind]
        cfg = harness.ExperimentConfig(
            rounds=rounds, test_bits=test_bits, master_seed=seed_of(label), attack=attack,
            workers=workers, output_path=str(OUT / f"{tag}-{label}.csv") if wl.csv else None)
        ops.append(simulate_op(prog, checker, label, spec, cfg))
    return ops


def reference_ops(prog, checker, seed_of, rounds, blocks):
    ops = []
    for k, (label, draws, spec) in ((k, b) for k in range(blocks) for b in REF_BLOCKS):
        attack = prog.harness.parse_attack(spec)
        u = prog.harness.round_uniforms(seed_of(label), k * rounds, rounds, draws)
        rows = u.tolist()
        ops.append(Op(label, rounds,
                      lambda rows=rows, u=u, a=attack: run_reference_block(prog, rows, u, a),
                      lambda out, d=draws, a=attack: checker.reference_block(d, a, out)))
    ops.append(Op("ref-pns-build", 0, lambda: run_pns_builds(prog), checker.pns))
    ops.append(Op("ref-analysis", 0, lambda: run_solvers(prog), checker.analysis))
    return ops


def build_ops(prog, checker, wl: Workload, seed: int):
    """The workload's timed operations and its warm-up operations."""
    def seed_of(label):
        return derive_seed(seed, wl.name, label)

    if not wl.attacks:
        return (reference_ops(prog, checker, seed_of, wl.rounds, REF_BLOCKS_PER_PASS),
                reference_ops(prog, checker, lambda label: WARMUP_SEED, 20, 1))
    timed = simulate_ops(prog, checker, wl, seed_of, wl.rounds, TEST_BITS,
                         wl.workers or os.cpu_count(), wl.name)
    warm = simulate_ops(prog, checker, replace(wl, csv=True), lambda label: WARMUP_SEED,
                        WARMUP_ROUNDS, WARMUP_TEST_BITS, 1, "warmup")
    return timed, warm


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def cpu_s() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


class Ledger:
    """Operation samples and failures of one benchmark process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, label: str, messages):
        self.failed += 1
        self.failures.extend(f"{label}: {m}" for m in messages)

    def run(self, op: Op):
        """Run and check one operation; returns (wall_s, cpu_s), or None if it
        raised.  An operation whose check fails is counted as failed but still
        timed."""
        self.attempted += 1
        c0, t0 = cpu_s(), time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:          # a failed operation is counted, not fatal
            self.fail(op.label, [f"{type(exc).__name__}: {exc}"])
            return None
        wall, cpu = time.perf_counter() - t0, cpu_s() - c0
        try:
            fails = op.check(out)
        except Exception as exc:
            fails = [f"check raised {type(exc).__name__}: {exc}"]
        if fails:
            self.fail(op.label, fails)
        return wall, cpu


def measure(ledger: Ledger, ops, cal: Calibration, seconds: float, passes: int = 0) -> dict:
    """Closed loop over ``ops``, each followed by the calibration, until
    ``seconds`` have passed and every op ran once, or for exactly ``passes``
    passes; returns label -> [(wall, cpu, cal_wall, cal_cpu)]."""
    samples = {op.label: [] for op in ops}
    t0 = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        sample = ledger.run(op)
        cal_sample = cal.run()
        if sample is not None:
            samples[op.label].append(sample + cal_sample)
        i += 1
        if passes and i == passes * len(ops):
            break
        if not passes and i >= len(ops) and time.perf_counter() - t0 >= seconds:
            break
    return samples


def op_cost(op_samples) -> tuple:
    """Wall and CPU seconds of one run of an operation on the reference host:
    its time summed over the run over the calibration's time after each run,
    times ``CAL_REF_S``."""
    wall, cpu, cal_wall, cal_cpu = (sum(col) for col in zip(*op_samples))
    return wall / cal_wall * CAL_REF_S, cpu / cal_cpu * CAL_REF_S


def pass_cost(ops, samples):
    """Wall and CPU seconds of one pass on the reference host."""
    costs = [op_cost(samples[op.label]) for op in ops]
    return sum(w for w, _ in costs), sum(c for _, c in costs)


def kround_metrics(ops, samples) -> dict:
    return {f"kround_s.{op.label}": op_cost(samples[op.label])[0] / op.rounds * 1000.0
            for op in ops if op.rounds and samples[op.label]}


def setup_probe_times(wl: Workload, seed: int, reps: int, ledger: Ledger) -> list:
    """Set-up time of ``reps`` fresh processes, run one after another."""
    times = []
    for _ in range(reps):
        ledger.attempted += 1
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               wl.name, "--seed", str(seed), "--setup-only"],
                              cwd=ROOT, capture_output=True, text=True, timeout=150)
        try:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            probe = {"failures": [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]}
        if probe["failures"]:
            ledger.fail("setup probe", probe["failures"])
        else:
            times.append(probe["setup_s"])
    return times


def layer_metrics(tracer, wall_s: float) -> dict:
    summ = tracer.summary(wall_s)
    self_s, calls, total = summ["self_s"], summ["calls"], summ["total_s"]
    k = tracer.counters
    m = {name: 0.0 for name, _ in PER_LAYER}

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    for name in set(self_s) | set(calls):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m[f"{name}.calls"] = float(calls.get(name, 0))
    m["harness.round_uniforms.ns_per_draw"] = per(
        self_s.get("harness.round_uniforms", 0.0), k["harness.round_uniforms.draws"], 1e9)
    m["harness.write_csv.bytes"] = k["harness.write_csv.bytes"]
    m["harness.write_csv.ns_per_byte"] = per(
        self_s.get("harness.write_csv", 0.0), k["harness.write_csv.bytes"], 1e9)
    for fn in ("protocol_rounds", "one_home_rounds", "pns_rounds"):
        rounds = k[f"batch.{fn}.rounds"]
        m[f"batch.{fn}.rounds"] = rounds
        m[f"batch.{fn}.us_per_round"] = per(self_s.get(f"batch.{fn}", 0.0), rounds, 1e6)
        m[f"batch.{fn}.state_bytes"] = k[f"batch.{fn}.state_bytes"]
    specs = len(tracer.specs["adversary.EveDiscriminator"])
    m["adversary.EveDiscriminator.calls_per_spec"] = per(
        calls.get("adversary.EveDiscriminator", 0), specs, 1.0)
    # inclusive of the qstate and hook spans inside the round
    m["protocol.run_round.us_per_round"] = per(
        total.get("protocol.run_round", 0.0), calls.get("protocol.run_round", 0), 1e6)
    for layer, count in tracer.errors.items():
        m[f"{layer}.errors"] = float(count)
    m["trace.unattributed_frac"] = summ["unattributed_frac"]
    return {name: m[name] for name, _ in PER_LAYER}


def set_up(prog, checker: Checker, wl: Workload, seed: int, ledger: Ledger) -> tuple:
    """Build the workload's operations, run its warm-up and warm the
    calibration; returns the timed operations and the calibration."""
    timed, warm = build_ops(prog, checker, wl, seed)
    for op in warm:
        ledger.run(op)
    cal = Calibration(prog.np)
    cal.run()
    return timed, cal


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 setup_reps: int = SETUP_REPS, golden: dict | None = None,
                 prog=None) -> tuple:
    """Set up, measure and check one workload; returns the result line, every
    metric computed (end-to-end or per-layer, plus failed_frac and the
    per-kind kround_s) and the report lines that precede the result."""
    prog = prog or load_program()
    if golden is None:
        golden = json.loads(GOLDEN_PATH.read_text())["entries"]
    OUT.mkdir(exist_ok=True)
    checker = Checker(prog, golden)
    ledger = Ledger()
    timed, cal = set_up(prog, checker, wl, seed, ledger)
    setup_s = time.perf_counter() - T_START
    lines = [json.dumps({"provenance": provenance(prog, wl, seed)})]

    samples = measure(ledger, timed, cal, seconds / 2 if trace else seconds)
    every = [s for per_label in samples.values() for s in per_label]
    busy_wall = sum(s[0] for s in every)
    cpu_util = sum(s[1] for s in every) / (os.cpu_count() * busy_wall) if busy_wall else 0.0
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    complete = all(samples[op.label] for op in timed)
    metrics = {}
    if trace:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer, prog.harness, prog.batch, prog.adversary, prog.protocol,
                prog.qstate, prog.analysis)
        t0 = time.perf_counter()
        try:
            traced = measure(ledger, timed, cal, 0.0, passes=wl.trace_passes)
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        cal_wall = sum(s[2] for per_label in traced.values() for s in per_label)
        metrics = layer_metrics(tracer, wall - cal_wall)
        metrics["harness.pool.cpu_util"] = cpu_util
        if complete and all(traced[op.label] for op in timed):
            metrics["trace.overhead_frac"] = (pass_cost(timed, traced)[0]
                                              / pass_cost(timed, samples)[0] - 1.0)
    elif complete:
        wall, cpu = pass_cost(timed, samples)
        rounds = sum(op.rounds for op in timed)
        metrics = {"rounds_per_s": rounds / wall, "cpu_us_per_round": cpu / rounds * 1e6,
                   "peak_rss_mb": peak_kib / 1024.0}
        measured = sum(statistics.mean(s[0] for s in samples[op.label]) for op in timed)
        cal_mean = statistics.mean(s[2] for s in every)
        lines.append(f"host speed {CAL_REF_S / cal_mean:.4f} of the reference "
                     f"(calibration {cal_mean:.4f} s, mean of {len(every)}); "
                     f"rounds/s as measured {rounds / measured:.6g}")
    if wl.workers != 1:
        # the same experiments at one worker must give byte-identical CSV
        for op in timed:
            ledger.run(simulate_op(prog, checker, op.label, op.spec,
                                   replace(op.cfg, workers=1)))
    if not trace:
        setup_times = [setup_s] + setup_probe_times(wl, seed, setup_reps - 1, ledger)
        metrics["setup_s"] = statistics.median(setup_times)
        lines.append(f"setup samples {' '.join(f'{t:.4f}' for t in setup_times)}")
    metrics.update(kround_metrics(timed, samples))
    failed = ledger.failed
    metrics["failed_frac"] = failed / ledger.attempted
    lines.extend(f"FAILED {f}" for f in ledger.failures)
    for label, walls in samples.items():
        lines.append(f"samples {label} n={len(walls)} wall_s "
                     + " ".join(f"{s[0]:.4f}" for s in walls))
    units = dict(END_TO_END + PER_LAYER)
    emitted = [n for n, _ in (PER_LAYER if trace else END_TO_END)]
    for name in sorted(metrics):
        lines.append(f"metric {name} {metrics[name]:.6g} {units[name]}")
    result = {"correct": failed == 0, "attempted": ledger.attempted, "failed": failed,
              "metrics": {n: {"value": float(metrics[n]), "unit": units[n]}
                          for n in emitted if n in metrics}}
    return result, metrics, lines


def provenance(prog, wl: Workload, seed: int) -> dict:
    np = prog.np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "faraday_qkd").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    task_dir = Path("/proc/self/task")
    return {
        "workload": wl.name, "seed": seed, "nproc": os.cpu_count(),
        "workers": wl.workers or os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit, "src_sha256": src.hexdigest(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "threads_after_setup": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
    }


def write_golden(prog) -> dict:
    """Digests of every workload experiment at the default seed, one worker."""
    checker = Checker(prog, {})
    entries = {}
    OUT.mkdir(exist_ok=True)
    for wl in WORKLOADS.values():
        if not wl.attacks:
            continue
        timed, warm = build_ops(prog, checker, wl, DEFAULT_SEED)
        for op in warm + timed:
            cfg = replace(op.cfg, workers=1)
            report = prog.harness.run_experiment(cfg)
            entries[golden_key(op.spec, cfg)] = (file_digest(cfg.output_path) if cfg.output_path
                                                 else report_digest(report))
    return {"default_seed": DEFAULT_SEED, "entries": dict(sorted(entries.items()))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time (used for setup_s)")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"recompute {GOLDEN_PATH.name} at the default seed")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    try:
        prog = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.write_golden:
            GOLDEN_PATH.write_text(json.dumps(write_golden(prog), indent=1) + "\n")
            return 0
        wl = WORKLOADS[args.workload]
        if args.setup_only:
            ledger = Ledger()
            golden = json.loads(GOLDEN_PATH.read_text())["entries"]
            set_up(prog, Checker(prog, golden), wl, args.seed, ledger)
            print(json.dumps({"setup_s": time.perf_counter() - T_START,
                              "failures": ledger.failures}))
            return 0
        result, _, lines = run_workload(wl, args.seed, args.seconds, bool(args.trace), prog=prog)
        print("\n".join(lines))
        print(json.dumps(result))
        return 0
    finally:
        for csv in OUT.glob("*.csv"):
            csv.unlink()


if __name__ == "__main__":
    sys.exit(main())
