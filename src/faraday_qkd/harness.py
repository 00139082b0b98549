"""CLI, configuration, seeded Monte Carlo orchestration, and CSV emission.

Randomness contract: round r of an experiment draws from the counter-based
stream ``Philox(key=(master_seed, r))`` the number of uniforms its scenario in
``batch.SCENARIOS`` declares, taken by the scenario's operations in order;
the verification sampler owns the reserved stream
``Philox(key=(master_seed, 2**64 - 1))``.  ``round_uniforms`` runs a chunk's
round streams as one numpy Philox4x64-10 pass (block k = 1, 2, ... ciphers
the counter (k, 0, 0, 0), words in block order, word x gives
``(x >> 11) * 2**-53``), pinned by the tier-1 tests byte for byte against
numpy's ``Philox``.  Its words are (blocks, rounds) arrays, rounds contiguous,
and its (rounds, draws) result is draw-major, each draw's column contiguous.
Results are therefore independent of chunking and worker count, and CSV
output is byte-identical for any ``--workers`` value.  The pass's numpy
operands are read-only 0-d uint64 arrays, and the two products that never
meet the round key (round 1's and round 2's lane 0) are Python ints.

CSV format: header row, comma delimiter, LF line endings; float cells are
byte for byte ``%.11e`` and integer cells ``%d`` (re-parsing a file and
re-writing it is byte-stable).  ``write_csv`` formats CHUNK_ROUNDS (8,192)
rows at a time as one ASCII byte matrix built with numpy, so its memory is
bounded by that block: an integer column spanning at most 256 values is
gathered from a per-block table of their text, other digits four at a time as
words of a ``%04d`` table, and every cell column is copied into the block as
8-, 4-, 2- and 1-byte word columns.  The tier-1 tests check its bytes against
a '%' row writer.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import adversary, analysis, batch
from .protocol import sample_test_rounds

CHUNK_ROUNDS = 8192
VERIFY_STREAM_KEY = 2 ** 64 - 1

# the spec's parameter names, as the executor reads them, to AttackChoice fields
_CHOICE_FIELDS = {"cx": "c_x", "cy": "c_y", "gamma": "gamma"}
# Eve's guesses aimed at the home key are scored by I(A,E)
_HOME_KEY = "k_alice_even"
# kept only because perfbench/spans.py wraps it by name
EveDiscriminator = adversary.EveDiscriminator

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


def parse_attack(text: str) -> AttackChoice:
    """Parse an attack spec string, e.g. 'general:0.5,0.5,0.7' or 'pns:3'."""
    text = text.strip()
    if text in batch.SCENARIOS and not batch.SCENARIOS[text].params:
        return AttackChoice(text)
    kind, _, args = text.partition(":")
    names = batch.SCENARIOS[kind].params if kind in batch.SCENARIOS else ()
    if not names:
        raise CliError(f"unknown attack spec {text!r}")
    parts = args.split(",")
    if len(parts) != len(names):
        raise CliError(f"{kind} attack needs {','.join(names)}")
    try:
        values = dict(zip(names, map(float, parts)))
    except ValueError as exc:
        raise CliError(f"bad {kind} attack parameters: {exc}") from exc
    if not all(np.isfinite(list(values.values()))):
        raise CliError(f"{kind} attack parameters must be finite")
    if not all(0 <= values.get(c, 0) <= 1 for c in ("cx", "cy")):
        raise CliError("attack overlaps must lie in [0, 1]")
    return AttackChoice(kind, **{_CHOICE_FIELDS[name]: v for name, v in values.items()})


@dataclass
class ExperimentConfig:
    rounds: int
    test_bits: int
    master_seed: int
    attack: AttackChoice = AttackChoice("none")
    output_path: str | None = None
    workers: int = 1

    def __post_init__(self):
        if not (1 <= self.rounds < 2 ** 64):
            raise CliError("rounds must satisfy 1 <= N < 2**64")
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
            f"test bits       {cfg.test_bits}",
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


def _u64(value: int) -> np.ndarray:
    """``value`` mod 2**64 as a read-only 0-d uint64 array: numpy turns a
    scalar operand into an array on every call, a 0-d array it takes as is."""
    word = np.array(value % 2 ** 64, dtype=np.uint64)
    word.flags.writeable = False
    return word


# Philox4x64 multipliers and key bumps (Salmon et al., SC'11), each
# multiplier's 32-bit limbs, limb mask and shifts, all 0-d operands
_PHILOX_M = (_u64(0xD2E7470EE14C6C93), _u64(0xCA5A826395121157))
_PHILOX_W = (_u64(0x9E3779B97F4A7C15), _u64(0xBB67AE8584CAA73B))
_LIMBS = {int(m): (_u64(int(m) & 0xFFFFFFFF), _u64(int(m) >> 32)) for m in _PHILOX_M}
_LO32, _S32, _S11 = _u64(0xFFFFFFFF), _u64(32), _u64(11)


def _mulhilo(a: np.ndarray, m: np.ndarray):
    """High and low words of the 128-bit products a * m, from 32-bit limbs;
    the limb arrays and ``t`` are fresh, so the shifts, masks and sums build
    up in them in place."""
    m_lo, m_hi = _LIMBS[int(m)]
    a_lo, a_hi = a & _LO32, a >> _S32
    mid, t = a_hi * m_lo, a_lo * m_lo
    t >>= _S32
    mid += t
    a_lo *= m_hi
    a_lo += np.bitwise_and(mid, _LO32, t)
    a_hi *= m_hi
    mid >>= _S32
    a_hi += mid
    a_lo >>= _S32
    a_hi += a_lo
    return a_hi, a * m


def round_uniforms(master_seed: int, start: int, count: int, draws: int) -> np.ndarray:
    """Uniform draws for rounds start..start+count-1, one Philox stream each.

    Row i is numpy's ``Philox(key=(master_seed, start + i)).random(draws)``,
    all rows in one pass: block k = 1, 2, ... is Philox4x64-10 of the counter
    (k, 0, 0, 0), its words in order, each word x giving ``(x >> 11) * 2**-53``.
    The tier-1 tests pin it byte for byte against numpy's ``Philox``.

    Words are (blocks, rounds), rounds contiguous (the round key broadcasts
    along the slow axis).  Two products never meet the round key: round 1's
    (block number k times m0; lane 2 is 0) and round 2's lane 0 (the seed
    times m0).  Both are exact Python ints, reduced mod 2**64 where they meet
    a key; every other operand is a read-only 0-d uint64 array.  Word lane j
    fills draws j, j + 4, ... of one (draws, rounds) array in place; the
    result is its transpose, each draw's column contiguous.
    """
    master_seed, start = int(master_seed), int(start)  # numpy ints would wrap
    m0, w0 = int(_PHILOX_M[0]), int(_PHILOX_W[0])
    k1 = np.arange(count, dtype=np.uint64)[None, :]
    k1 += _u64(start)
    # round 1 ciphers (k, 0, 0, 0) into (seed, 0, hi(k m0) ^ k1, lo(k m0))
    products = [divmod(k * m0, 2 ** 64) for k in range(1, -(-draws // 4) + 1)]
    x2 = np.array([[hi] for hi, _ in products], dtype=np.uint64) ^ k1
    # round 2: lane 0 is the seed, so lane 2 becomes hi(seed m0) ^ lo(k m0) ^ k1
    k1 += _PHILOX_W[1]
    hi, lo = divmod(master_seed * m0, 2 ** 64)
    hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
    hi1 ^= _u64(master_seed + w0)
    x2 = np.array([[hi ^ low] for _, low in products], dtype=np.uint64) ^ k1
    x = [hi1, lo1, x2, _u64(lo)]
    for r in range(2, 10):
        k1 += _PHILOX_W[1]
        hi0, lo0 = _mulhilo(x[0], _PHILOX_M[0])
        hi1, lo1 = _mulhilo(x[2], _PHILOX_M[1])
        hi1 ^= x[1]
        hi1 ^= _u64(master_seed + r * w0)
        hi0 ^= x[3]
        hi0 ^= k1
        x = [hi1, lo1, hi0, lo0]
    u = np.empty((draws, count))
    for j, word in enumerate(x):
        lane = word[:len(range(j, draws, 4))]
        np.multiply(np.right_shift(lane, _S11, out=lane), 2.0 ** -53, out=u[j::4])
    return u.T


def _run_chunk(args):
    params, master_seed, start, count = args
    u = round_uniforms(master_seed, start, count, batch.SCENARIOS[params["kind"]].draws)
    cols = batch.protocol_rounds(u, params)
    core = {k: cols[k] for k in CSV_COLUMNS[1:11] + ("trace_dist",) if k in cols}
    return {**core, "eve_bit_alice": cols["eve_guess_alice"], "eve_bit_bob": cols["eve_guess_bob"]}


# ASCII ``%04d`` of 0..9999 as uint32 words (the digits of i are the indices
# of cell i of a 10 x 10 x 10 x 10 grid), and ``e%+03d`` of -11..11; NUL marks
# a cell position to drop
_WORDS = np.ascontiguousarray((np.indices((10,) * 4, dtype=np.uint8) + ord("0"))
                              .reshape(4, -1).T).view(np.uint32).ravel()
_EXP_WORDS = np.frombuffer(b"".join(b"e%+03d" % k for k in range(-11, 12)), dtype=np.uint32)
# exact doubles 10**0 .. 10**22, and the uint64 powers 10**0 .. 10**19
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_INT = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_WORDS.flags.writeable = _POW10.flags.writeable = _POW10_INT.flags.writeable = False


def _digits(mag: np.ndarray, width: int) -> np.ndarray:
    """(rows, width) ASCII digits of uint64 magnitudes below 10**width, four at
    a time: one ``take`` of ``_WORDS`` words on an intp index, viewed as bytes."""
    groups = []
    for _ in range((width - 1) // 4):
        mag, low = np.divmod(mag, 10000)
        groups.append(low)
    idx = np.stack([mag, *groups[::-1]], axis=1, dtype=np.intp)
    return _WORDS.take(idx).view(np.uint8)[:, -width:]


def _put(out: np.ndarray, pos: int, cells: np.ndarray):
    """``out[:, pos:pos + width] = cells`` for uint8 matrices, as 1-D copies of
    8-, 4-, 2- and 1-byte word columns: numpy copies a 2-D slice row by row."""
    done, width = 0, cells.shape[1]
    while done < width:
        size = min(8, 1 << ((width - done).bit_length() - 1))
        word = np.dtype(f"u{size}")
        out[:, pos + done:pos + done + size].view(word)[:, 0] = \
            cells[:, done:done + size].view(word)[:, 0]
        done += size


def _int_cells(x: np.ndarray) -> np.ndarray:
    """``%d`` of each value as a NUL-padded (rows, width) ASCII matrix: a column
    spanning at most 256 integers is gathered from the text of min..max by
    ``x - lo`` (exact in x's type; int64 for bool), a wider one from digits."""
    lo, hi = int(x.min()), int(x.max())
    if hi - lo < 256:
        table = np.array([b"%d" % v for v in range(lo, hi + 1)])
        return table.view(np.uint8).reshape(len(table), -1).take(x - lo, axis=0)
    neg = x < 0
    mag = x.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # two's complement: |-2**63| fits
    width = len(str(mag.max()))
    cells = _digits(mag, width)
    if mag.min() < _POW10_INT[width - 1]:
        # row l of the triangle keeps bytes l.. of a cell with width - l digits (0 has one)
        digits = np.maximum(np.searchsorted(_POW10_INT, mag, side="right"), 1)
        cells *= np.triu(np.ones((width, width), dtype=np.uint8)).take(width - digits, axis=0)
    if neg.any():
        cells = np.hstack([np.where(neg, ord("-"), 0).astype(np.uint8)[:, None], cells])
    return cells


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``%.11e`` of each value as a NUL-padded (rows, width) ASCII matrix.

    For 1e-11 <= x < 1e12, e = floor(log10 x) and m = x * 10**(11 - e) takes
    one rounding (10**(11 - e) is an exact double), so m is within 6.1e-5 of
    the exact product; rint(m) is then the printf rounding of x to 12
    digits unless m sits within 1e-3 of a tie.  Such near-ties, values whose
    m or rint(m) leaves [1e11, 1e12) (log10 missed e by one, or the digits
    round up to 10**12), and 0, negatives, nan and inf go through '%' cell
    by cell.
    """
    x = x.astype(np.float64, copy=False)
    pos = x > 0
    e = np.floor(np.log10(np.where(pos, x, 1.0)))
    ok = pos & (e >= -11) & (e <= 11)
    e = np.where(ok, e, 0).astype(np.int64)
    m = np.where(ok, x, 1.0) * _POW10[11 - e]
    r = np.rint(m)
    ok &= (np.abs(m - np.floor(m) - 0.5) > 1e-3) & (m >= 1e11) & (r < 1e12)
    slow = np.flatnonzero(~ok)
    text = [b"%.11e" % v for v in x[slow].tolist()]
    cells = np.zeros((len(x), max([17, *map(len, text)])), dtype=np.uint8)
    digits = _digits(np.where(ok, r, 1e11).astype(np.uint64), 12)
    cells[:, 0] = digits[:, 0]
    cells[:, 1] = ord(".")
    _put(cells, 2, digits[:, 1:])
    _put(cells, 13, _EXP_WORDS.take(e + 11).view(np.uint8).reshape(-1, 4))
    if text:
        cells[slow] = np.frombuffer(b"".join(t.ljust(cells.shape[1], b"\0") for t in text),
                                    dtype=np.uint8).reshape(len(text), -1)
    return cells


def _csv_block(cols) -> bytes:
    """CSV rows of equal-length columns: one ASCII matrix, NULs dropped."""
    cells = [_float_cells(c) if c.dtype.kind == "f" else _int_cells(c) for c in cols]
    out = np.full((len(cols[0]), sum(c.shape[1] + 1 for c in cells)), ord(","), dtype=np.uint8)
    pos = 0
    for c in cells:
        _put(out, pos, c)
        pos += c.shape[1] + 1
    out[:, -1] = ord("\n")
    return out.tobytes().replace(b"\0", b"")


def write_csv(path: str, columns: dict, order=CSV_COLUMNS):
    """Write CSV to a sibling temp file renamed onto path: never a partial file.

    Cells are byte for byte ``%.11e`` (float columns) and ``%d`` (others),
    formatted CHUNK_ROUNDS rows at a time.
    """
    cols = [np.asarray(columns[name]) for name in order]
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write((",".join(order) + "\n").encode())
            for lo in range(0, len(cols[0]), CHUNK_ROUNDS):
                fh.write(_csv_block([c[lo:lo + CHUNK_ROUNDS] for c in cols]))
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IOError(f"cannot write {path}: {exc}") from exc
        raise


def _information(x, y) -> float:
    """Empirical mutual information of two bit columns, which must hold only
    0 and 1: the 2 x 2 table counts the codes 2x + y in one pass."""
    table = np.bincount(2 * x + y, minlength=4).reshape(2, 2)
    return analysis.empirical_mutual_information(table)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run N protocol rounds under the configured attack, verify M test bits,
    aggregate the report, and (optionally) write per-round CSV."""
    t0 = time.perf_counter()
    n = cfg.rounds
    attack = cfg.attack
    eve_key = batch.SCENARIOS[attack.kind].eve_key
    params = {"kind": attack.kind, "gamma": attack.gamma, "cx": attack.c_x, "cy": attack.c_y}
    chunks = [(params, cfg.master_seed, lo, min(CHUNK_ROUNDS, n - lo))
              for lo in range(0, n, CHUNK_ROUNDS)]
    # the fork start method launches every worker up front
    workers = min(cfg.workers, len(chunks))
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, chunks))
    else:
        results = [_run_chunk(c) for c in chunks]
    cols = results[0] if len(results) == 1 else {
        k: np.concatenate([r[k] for r in results]) for k in results[0]}
    cols["round"] = np.arange(1, n + 1, dtype=np.int64)

    # step 12: compare M odd bits drawn from a reserved verification stream
    vrng = np.random.Generator(np.random.Philox(
        key=np.array([cfg.master_seed, VERIFY_STREAM_KEY], dtype=np.uint64)))
    test_rounds = sample_test_rounds(vrng, n, cfg.test_bits)
    tested = np.zeros(n, dtype=np.int64)
    tested[test_rounds] = 1
    cols["tested"] = tested
    mismatch_all = cols["k_alice_odd"] != cols["k_bob_odd"]
    detected = bool(np.any(mismatch_all[test_rounds]))

    det_freq = float(np.mean(mismatch_all))
    sigma = float(np.sqrt(max(det_freq * (1 - det_freq), 1e-12) / n))

    eve_acc = i_ae = None
    if eve_key:
        eve_acc = float(np.mean(cols["eve_bit_alice"] == cols[eve_key]))
    if eve_key == _HOME_KEY:
        i_ae = _information(cols[eve_key], cols["eve_bit_alice"])
    i_ab = _information(cols["k_alice_odd"], cols["k_bob_odd"])

    key_len = 0 if detected else 2 * (n - cfg.test_bits)
    extras = {}
    if "trace_dist" in cols:
        extras["trace dist min"] = f"{float(np.min(cols['trace_dist'])):.9f}"

    if cfg.output_path:
        write_csv(cfg.output_path, cols)

    return RunReport(
        config=cfg,
        rounds=n,
        detection_freq=det_freq,
        detection_sigma=sigma,
        detected=detected,
        eve_accuracy=eve_acc,
        empirical_i_ab=i_ab,
        empirical_i_ae=i_ae,
        final_key_length=key_len,
        wall_time_s=time.perf_counter() - t0,
        extras=extras,
    )


def emit_curves(grid_step: float, output_path: str):
    """Write the analytic security curves as CSV columns p_d, i_ab, i_ae, p_e, sum."""
    try:
        curve = analysis.security_curve(grid_step)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    cols = {
        "p_d": np.array([p.p_d for p in curve.points]),
        "i_ab": np.array([p.i_ab for p in curve.points]),
        "i_ae": np.array([p.i_ae for p in curve.points]),
        "p_e": np.array([p.p_e for p in curve.points]),
        "sum": np.array([p.i_ab + p.i_ae for p in curve.points]),
    }
    write_csv(output_path, cols, order=("p_d", "i_ab", "i_ae", "p_e", "sum"))
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
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    return values


def _resolve_workers(cli_value) -> int:
    if cli_value is not None:
        return cli_value
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

    sim = sub.add_parser("simulate", help="run a seeded Monte Carlo experiment",
                         description="Run a seeded Monte Carlo experiment; an attack's "
                                     "basis angle gamma is taken mod 2 pi.")
    sim.add_argument("--rounds", type=int, default=None)
    sim.add_argument("--test-bits", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--attack", type=str, default=None,
                     help="|".join(f"{kind}:{','.join(sc.params)}" if sc.params else kind
                                   for kind, sc in batch.SCENARIOS.items()))
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
    except BrokenProcessPool as exc:
        print(f"error: a worker process died ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
