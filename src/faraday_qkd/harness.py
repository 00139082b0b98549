"""CLI, configuration, seeded Monte Carlo orchestration, and CSV emission.

Randomness contract: round r of an experiment draws from the counter-based
stream ``Philox(key=(master_seed, r))`` the number of uniforms its scenario in
``batch.SCENARIOS`` declares, taken by the scenario's operations in order;
the verification sampler owns the reserved stream
``Philox(key=(master_seed, 2**64 - 1))``.  Results are therefore
independent of chunking and worker count, and CSV output is byte-identical
for any ``--workers`` value.

CSV format: header row, comma delimiter, LF line endings, floats at 12
significant digits (re-parsing a file and re-writing it is byte-stable).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis, batch
from .adversary import EveDiscriminator, GeneralAttackSpec
from .protocol import sample_test_rounds

CHUNK_ROUNDS = 8192
VERIFY_STREAM_KEY = 2 ** 64 - 1

ATTACK_KINDS = ("none", "general", "intercept", "impersonate:one",
                "impersonate:two", "pns:3", "pns:4home")

CSV_COLUMNS = ("round", "alpha", "beta", "out_c", "out_d", "out_a", "out_b",
               "k_alice_odd", "k_alice_even", "k_bob_odd", "k_bob_even",
               "tested", "eve_bit_alice", "eve_bit_bob")


class CliError(Exception):
    """Argument or configuration problem (exit code 1)."""


@dataclass(frozen=True)
class AttackChoice:
    kind: str
    c_x: float = 0.0
    c_y: float = 0.0
    gamma: float = 0.0


def _finite(texts, what: str) -> list:
    try:
        values = [float(t) for t in texts]
    except ValueError as exc:
        raise CliError(f"bad {what}: {exc}") from exc
    if not all(np.isfinite(values)):
        raise CliError(f"{what} must be finite")
    return values


def parse_attack(text: str) -> AttackChoice:
    """Parse an attack spec string, e.g. 'general:0.5,0.5,0.7' or 'pns:3'."""
    text = text.strip()
    if text == "none":
        return AttackChoice("none")
    if text.startswith("general:"):
        parts = text[len("general:"):].split(",")
        if len(parts) != 3:
            raise CliError("general attack needs cx,cy,gamma")
        cx, cy, g = _finite(parts, "general attack parameters")
        if not (0 <= cx <= 1 and 0 <= cy <= 1):
            raise CliError("attack overlaps must lie in [0, 1]")
        return AttackChoice("general", cx, cy, g)
    if text.startswith("intercept:"):
        (g,) = _finite([text[len("intercept:"):]], "intercept angle")
        return AttackChoice("intercept", gamma=g)
    if text in ("impersonate:one", "impersonate:two", "pns:3", "pns:4home"):
        return AttackChoice(text)
    raise CliError(f"unknown attack spec {text!r}")


@dataclass
class ExperimentConfig:
    rounds: int
    test_bits: int
    master_seed: int
    attack: AttackChoice = AttackChoice("none")
    output_path: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.rounds < 1:
            raise CliError("rounds must be >= 1")
        if not (0 <= self.test_bits <= self.rounds):
            raise CliError("test bits must satisfy 0 <= M <= N")
        if not (0 <= self.master_seed < 2 ** 64):
            raise CliError("seed must fit in 64 bits")
        if self.workers < 1:
            raise CliError("workers must be >= 1")


@dataclass
class RunReport:
    config: ExperimentConfig
    rounds: int
    detection_freq: float
    detection_sigma: float
    detected: bool
    mismatches: int
    tested: int
    eve_accuracy: float | None
    empirical_i_ab: float | None
    empirical_i_ae: float | None
    final_key_length: int
    wall_time_s: float
    extras: dict = field(default_factory=dict)

    def to_text(self) -> str:
        cfg = self.config
        lines = [
            f"rounds          {self.rounds}",
            f"test bits       {self.tested}",
            f"seed            {cfg.master_seed}",
            f"attack          {cfg.attack.kind}",
            f"detection freq  {self.detection_freq:.6f} +- {self.detection_sigma:.6f}",
            f"detected        {self.detected}",
        ]
        if self.eve_accuracy is not None:
            lines.append(f"eve accuracy    {self.eve_accuracy:.6f}")
        if self.empirical_i_ab is not None:
            lines.append(f"I(A,B) empir.   {self.empirical_i_ab:.6f}")
        if self.empirical_i_ae is not None:
            lines.append(f"I(A,E) empir.   {self.empirical_i_ae:.6f}")
        for k, v in self.extras.items():
            lines.append(f"{k:<15} {v}")
        lines.append(f"final key bits  {self.final_key_length}")
        lines.append(f"wall time       {self.wall_time_s:.2f} s")
        return "\n".join(lines)


def round_uniforms(master_seed: int, start: int, count: int, draws: int) -> np.ndarray:
    """Uniform draws for rounds start..start+count-1, one Philox stream each."""
    out = np.empty((count, draws), dtype=np.float64)
    for i in range(count):
        key = np.array([master_seed, start + i], dtype=np.uint64)
        out[i] = np.random.Generator(np.random.Philox(key=key)).random(draws)
    return out


def _run_chunk(args):
    attack, master_seed, start, count = args
    u = round_uniforms(master_seed, start, count, batch.SCENARIOS[attack.kind].draws)
    params = {"kind": attack.kind, "gamma": attack.gamma, "cx": attack.c_x, "cy": attack.c_y}
    if attack.kind == "general":
        spec = GeneralAttackSpec(attack.gamma, attack.c_x, attack.c_y)
        params["povm_up"] = EveDiscriminator(spec).m_up
    cols = batch.protocol_rounds(u, params)
    core = {k: cols[k] for k in CSV_COLUMNS[1:11] + ("trace_dist",) if k in cols}
    core.update(eve_bit_alice=cols["eve_guess_alice"], eve_bit_bob=cols["eve_guess_bob"])
    return start, core


def _merge_chunks(results, total):
    merged = {}
    for start, core in sorted(results, key=lambda r: r[0]):
        for k, arr in core.items():
            if k not in merged:
                merged[k] = np.empty(total, dtype=arr.dtype)
            merged[k][start:start + len(arr)] = arr
    return merged


def _format_float(x: float) -> str:
    return f"{x:.11e}"


def write_csv(path: str, columns: dict, order=CSV_COLUMNS):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(order) + "\n")
        n = len(columns[order[0]])
        for i in range(n):
            cells = []
            for name in order:
                v = columns[name][i]
                if isinstance(v, (float, np.floating)):
                    cells.append(_format_float(float(v)))
                else:
                    cells.append(str(int(v)))
            fh.write(",".join(cells) + "\n")


def read_csv(path: str) -> dict:
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    out = {}
    for j, name in enumerate(header):
        raw = [r[j] for r in rows]
        if any(("e" in c or "." in c) for c in raw):
            out[name] = np.array([float(c) for c in raw])
        else:
            out[name] = np.array([int(c) for c in raw])
    return out


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run N protocol rounds under the configured attack, verify M test bits,
    aggregate the report, and (optionally) write per-round CSV."""
    t0 = time.time()
    n = cfg.rounds
    chunks = [(cfg.attack, cfg.master_seed, lo, min(CHUNK_ROUNDS, n - lo))
              for lo in range(0, n, CHUNK_ROUNDS)]
    if cfg.workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_chunk, chunks))
    else:
        results = [_run_chunk(c) for c in chunks]
    cols = _merge_chunks(results, n)
    cols["round"] = np.arange(1, n + 1, dtype=np.int64)

    # step 12: compare M odd bits drawn from a reserved verification stream
    vrng = np.random.Generator(np.random.Philox(
        key=np.array([cfg.master_seed, VERIFY_STREAM_KEY], dtype=np.uint64)))
    test_rounds = sample_test_rounds(vrng, n, cfg.test_bits)
    tested = np.zeros(n, dtype=np.int64)
    tested[test_rounds] = 1
    cols["tested"] = tested
    mismatch_all = cols["k_alice_odd"] != cols["k_bob_odd"]
    mismatches = int(np.sum(mismatch_all[test_rounds])) if cfg.test_bits else 0
    detected = mismatches > 0

    det_freq = float(np.mean(mismatch_all))
    sigma = float(np.sqrt(max(det_freq * (1 - det_freq), 1e-12) / n))

    eve_acc = i_ae = None
    kind = cfg.attack.kind
    if kind == "general":
        valid = cols["eve_bit_alice"] >= 0
        eve_acc = float(np.mean(cols["eve_bit_alice"][valid] == cols["k_alice_even"][valid]))
        table = np.zeros((2, 2))
        for a in (0, 1):
            for e in (0, 1):
                table[a, e] = np.sum((cols["k_alice_even"] == a) & (cols["eve_bit_alice"] == e))
        i_ae = analysis.empirical_mutual_information(table)
    elif kind.startswith(("impersonate", "pns")):
        eve_acc = float(np.mean(cols["eve_bit_alice"] == cols["k_alice_odd"]))

    table_ab = np.zeros((2, 2))
    for a in (0, 1):
        for b in (0, 1):
            table_ab[a, b] = np.sum((cols["k_alice_odd"] == a) & (cols["k_bob_odd"] == b))
    i_ab = analysis.empirical_mutual_information(table_ab)

    key_len = 0 if detected else 2 * (n - cfg.test_bits)
    extras = {}
    if "trace_dist" in cols:
        extras["trace dist min"] = f"{float(np.min(cols['trace_dist'])):.9f}"

    if cfg.output_path:
        try:
            write_csv(cfg.output_path, cols)
        except OSError as exc:
            raise IOError(f"cannot write {cfg.output_path}: {exc}") from exc

    return RunReport(
        config=cfg,
        rounds=n,
        detection_freq=det_freq,
        detection_sigma=sigma,
        detected=detected,
        mismatches=mismatches,
        tested=cfg.test_bits,
        eve_accuracy=eve_acc,
        empirical_i_ab=i_ab,
        empirical_i_ae=i_ae,
        final_key_length=key_len,
        wall_time_s=time.time() - t0,
        extras=extras,
    )


def emit_curves(grid_step: float, output_path: str):
    """Write the analytic security curves as CSV columns p_d, i_ab, i_ae, p_e, sum."""
    if not (0.0 < grid_step < analysis.PD_MAX):
        raise CliError("grid step must lie in (0, 3/8)")
    curve = analysis.security_curve(grid_step)
    cols = {
        "p_d": np.array([p.p_d for p in curve.points]),
        "i_ab": np.array([p.i_ab for p in curve.points]),
        "i_ae": np.array([p.i_ae for p in curve.points]),
        "p_e": np.array([p.p_e for p in curve.points]),
        "sum": np.array([p.i_ab + p.i_ae for p in curve.points]),
    }
    try:
        write_csv(output_path, cols, order=("p_d", "i_ab", "i_ae", "p_e", "sum"))
    except OSError as exc:
        raise IOError(f"cannot write {output_path}: {exc}") from exc
    return cols


def solve_report() -> str:
    """The three headline numbers, six decimals each."""
    rows = [
        ("security threshold p_d", analysis.find_security_threshold()),
        ("eve optimum p_d", analysis.find_eve_optimum()),
        ("collective bound p_d", analysis.collective_bound()),
    ]
    return "\n".join(f"{name:<24} {value:.6f}" for name, value in rows)


# ---------------------------------------------------------------------------
# configuration files and CLI
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"rounds", "test_bits", "seed", "attack", "out", "workers"}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` UTF-8 file; '#' starts a comment."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in _CONFIG_KEYS:
                    raise CliError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val
    except OSError as exc:
        raise IOError(f"cannot read {path}: {exc}") from exc
    return values


def _resolve_workers(cli_value) -> int:
    if cli_value is not None:
        return int(cli_value)
    env = os.environ.get("FARADAY_QKD_WORKERS")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise CliError(f"bad FARADAY_QKD_WORKERS value {env!r}") from exc
    return 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="faraday-qkd",
                     description="Two-way conditional-phase QKD simulator and "
                                 "security analysis toolkit")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker process count (or FARADAY_QKD_WORKERS)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded Monte Carlo experiment")
    sim.add_argument("--rounds", type=int, default=None)
    sim.add_argument("--test-bits", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--attack", type=str, default=None,
                     help="none|general:cx,cy,gamma|intercept:gamma|"
                          "impersonate:one|impersonate:two|pns:3|pns:4home")
    sim.add_argument("--out", type=str, default=None, help="per-round CSV path")
    sim.add_argument("--config", type=str, default=None,
                     help="key = value config file; flags override it")

    cur = sub.add_parser("curves", help="emit the analytic security curves")
    cur.add_argument("--step", type=float, default=0.001)
    cur.add_argument("--out", type=str, required=True)

    sub.add_parser("solve", help="print the solver headline numbers")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    base = {}
    if args.config:
        base = parse_config_file(args.config)
    def pick(flag, key, cast, default=None):
        if flag is not None:
            return flag
        if key in base:
            try:
                return cast(base[key])
            except ValueError as exc:
                raise CliError(f"bad config value for {key}: {exc}") from exc
        return default
    rounds = pick(args.rounds, "rounds", int)
    if rounds is None:
        raise CliError("rounds not given (flag --rounds or config)")
    test_bits = pick(args.test_bits, "test_bits", int, 0)
    seed = pick(args.seed, "seed", int)
    if seed is None:
        raise CliError("seed not given (flag --seed or config)")
    attack = parse_attack(pick(args.attack, "attack", str, "none"))
    out = pick(args.out, "out", str, None)
    workers = _resolve_workers(pick(args.workers, "workers", int))
    return ExperimentConfig(rounds=rounds, test_bits=test_bits, master_seed=seed,
                            attack=attack, output_path=out, workers=workers)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "simulate":
            cfg = _config_from_args(args)
            report = run_experiment(cfg)
            print(report.to_text())
        elif args.command == "curves":
            emit_curves(args.step, args.out)
            print(f"curves written to {args.out}")
        elif args.command == "solve":
            print(solve_report())
        return 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
