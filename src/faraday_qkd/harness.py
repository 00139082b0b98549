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
bounded by that block: a template row of the commas and the LF copied to
every row, then each cell column copied into its slot as void items.
Integer digits are taken four at a time as words of a ``%04d`` table, and a
float's digits and exponent are written straight into its slot.  ``--out``
runs draw the tested set first and write each chunk's rows as the chunk
arrives; the eleven columns a round's code and tested bit fix are one
gather from a per-spec table of their text (``_row_text``).  The tier-1
tests check the bytes against a '%' row writer.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from collections.abc import Mapping
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

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
    """A chunk's round codes and code table, and with ``tested`` (the tested
    rounds among its own) its CSV rows: the round, the angles, and the text
    that each round's code and tested bit fix (``_row_text``)."""
    params, master_seed, start, count, tested = args
    u = round_uniforms(master_seed, start, count, batch.SCENARIOS[params["kind"]].draws)
    rounds = batch.protocol_rounds(u, params)
    rows = None
    if tested is not None:
        text = _row_text(rounds.tree)
        key = rounds.code.copy()
        key[tested - start] += len(text) // 2
        rows = _csv_block([np.arange(start + 1, start + count + 1), rounds["alpha"],
                           rounds["beta"], text.take(key)])
    return rounds.code, rounds.table, rows


# ASCII ``%04d`` of 0..9999 as uint32 words (the digits of i are the indices
# of cell i of a 10 x 10 x 10 x 10 grid), the same four digits as 5-byte
# ``d.ddd`` items (a float cell's head), and ``e%+03d`` of -11..11; NUL marks
# a cell position to drop
_WORDS = np.ascontiguousarray((np.indices((10,) * 4, dtype=np.uint8) + ord("0"))
                              .reshape(4, -1).T).view(np.uint32).ravel()
_HEADS = np.insert(_WORDS.view(np.uint8).reshape(-1, 4), 1, ord("."), axis=1).view("V5").ravel()
_EXP_WORDS = np.frombuffer(b"".join(b"e%+03d" % k for k in range(-11, 12)), dtype=np.uint32)
# exact doubles 10**0 .. 10**22, and the uint64 powers 10**0 .. 10**19
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_INT = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_WORDS.flags.writeable = _HEADS.flags.writeable = False
_POW10.flags.writeable = _POW10_INT.flags.writeable = False


def _text(items: np.ndarray) -> np.ndarray:
    """A 1-D array of text items as a (rows, itemsize) uint8 matrix."""
    return items.view(np.uint8).reshape(len(items), items.itemsize)


def _digits(mag: np.ndarray, width: int) -> np.ndarray:
    """(rows, width) ASCII digits of uint64 magnitudes below 10**width, four at
    a time: one ``take`` of ``_WORDS`` words on an intp index, viewed as bytes."""
    groups = []
    for _ in range((width - 1) // 4):
        high = mag // 10000
        groups.append(mag - high * 10000)
        mag = high
    idx = np.stack([mag, *groups[::-1]], axis=1, dtype=np.intp)
    return _WORDS.take(idx).view(np.uint8)[:, -width:]


def _put(out: np.ndarray, pos: int, cells: np.ndarray):
    """``out[:, pos:pos + width] = cells`` for uint8 matrices whose rows are
    contiguous, as one copy of width-byte void items: numpy copies a 2-D
    slice row by row."""
    item = f"V{cells.shape[1]}"
    out[:, pos:pos + cells.shape[1]].view(item)[:, 0] = cells.view(item)[:, 0]


def _int_cells(x: np.ndarray) -> np.ndarray:
    """``%d`` of each value as a NUL-padded (rows, width) ASCII matrix, from
    the digits of its magnitude (exact in uint64; int64 for bool)."""
    neg = x < 0
    mag = x.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # two's complement: |-2**63| fits
    width = len(str(mag.max()))
    cells = _digits(mag, width)
    # byte l of a cell is a leading zero, made NUL, below 10**(width - 1 - l)
    low = int(mag.min())
    for l, power in enumerate(_POW10_INT[width - 1:0:-1].tolist()):
        if low < power:
            cells[:, l] *= (mag >= power).view(np.uint8)
    if neg.any():
        cells = np.hstack([np.where(neg, ord("-"), 0).astype(np.uint8)[:, None], cells])
    return cells


def _float_cells(x: np.ndarray):
    """``%.11e`` of each value as (width, pieces, fix): the 17-byte cell as
    the pieces ``d.ddd``, ``dddd``, ``dddd`` and ``e+dd`` at their offsets,
    and the rows that '%' formats, with their NUL-padded text.

    For 1e-11 <= x < 1e12, e = floor(log10 x) and m = x * 10**(11 - e) takes
    one rounding (10**(11 - e) is an exact double), so m is within 6.1e-5 of
    the exact product; rint(m) is then the printf rounding of x to 12
    digits unless m sits within 1e-3 of a tie.  Such near-ties, values whose
    m or rint(m) leaves [1e11, 1e12) (log10 missed e by one, or the digits
    round up to 10**12), and 0, negatives, nan and inf go through '%' cell
    by cell.  The 12 digits split in int64, exactly, as they are below 10**12.
    """
    x = x.astype(np.float64, copy=False)
    with np.errstate(all="ignore"):     # 0, negatives, nan and inf leave e nan or inf
        e = np.floor(np.log10(x))
        ok = (e >= -11) & (e <= 11)
        e = e.astype(np.int64)
        m = x * _POW10.take(11 - e, mode="clip")
        r = np.rint(m)
        ok &= (np.abs(m - np.floor(m) - 0.5) > 1e-3) & (m >= 1e11) & (r < 1e12)
    slow = np.flatnonzero(~ok)
    text = [b"%.11e" % v for v in x[slow].tolist()]
    width = max([17, *map(len, text)])
    r[slow] = 1e11
    low = r.astype(np.int64)
    head = low // 10 ** 8
    low -= head * 10 ** 8
    mid = low // 10 ** 4
    low -= mid * 10 ** 4
    pieces = [(0, _text(_HEADS.take(head))), (5, _text(_WORDS.take(mid))),
              (9, _text(_WORDS.take(low))), (13, _text(_EXP_WORDS.take(e + 11, mode="clip")))]
    fix = (slow, np.frombuffer(b"".join(t.ljust(width, b"\0") for t in text),
                               dtype=np.uint8).reshape(len(text), width)) if text else None
    return width, pieces, fix


def _cells(col: np.ndarray):
    """A column's cells as (width, pieces, fix): each piece (offset, matrix)
    the text of every cell from that offset, and fix None or (rows, matrix),
    whole cells that replace those rows'.  A void column is its cells' text."""
    if col.dtype.kind == "f":
        return _float_cells(col)
    cells = _text(col) if col.dtype.kind == "V" else _int_cells(col)
    return cells.shape[1], [(0, cells)], None


def _csv_block(cols) -> bytes:
    """CSV rows of equal-length columns: a template row of the commas and the
    LF copied to every row as one void item, then each piece of each cell
    column copied into its slot (``_put``), NULs dropped."""
    cells = [_cells(c) for c in cols]
    ends = np.cumsum([w + 1 for w, _, _ in cells])
    row = np.zeros(ends[-1], dtype=np.uint8)
    row[ends - 1] = ord(",")
    row[-1] = ord("\n")
    out = np.empty((len(cols[0]), len(row)), dtype=np.uint8)
    out.view(f"V{len(row)}")[:, 0] = row.view(f"V{len(row)}")[0]
    pos = 0
    for width, pieces, fix in cells:
        for off, piece in pieces:
            _put(out, pos + off, piece)
        if fix is not None:
            out[fix[0], pos:pos + width] = fix[1]
        pos += width + 1
    return out.tobytes().replace(b"\0", b"")


@lru_cache(maxsize=16)
def _row_text(tree) -> np.ndarray:
    """The CSV text that a round's code and tested bit fix, ``out_c`` through
    ``eve_bit_bob`` less the LF, for the compiled spec ``tree`` of
    ``batch._table``: item code + K tested of a read-only NUL-padded void
    array, K the codes; built by ``_csv_block`` once per compiled spec."""
    codes = tree.codes
    k = len(codes["out_c"])
    cols = [np.tile(codes[name], 2) for name in CSV_COLUMNS[3:11]]
    cols += [np.repeat([0, 1], k), *(np.tile(codes[f"eve_guess_{p}"], 2) for p in ("alice", "bob"))]
    text = np.array(_csv_block(cols).split(b"\n")[:-1])
    text = text.view(f"V{text.itemsize}")
    text.flags.writeable = False
    return text


def write_csv(path: str, columns, order=CSV_COLUMNS):
    """Write CSV to a sibling temp file renamed onto path: never a partial file.

    ``columns`` maps each name in ``order`` to a column, whose cells are byte
    for byte ``%.11e`` (float columns) and ``%d`` (others), formatted
    CHUNK_ROUNDS rows at a time; or it is an iterable of blocks of ready
    rows, each written as it arrives.
    """
    if isinstance(columns, Mapping):
        cols = [np.asarray(columns[name]) for name in order]
        columns = (_csv_block([c[lo:lo + CHUNK_ROUNDS] for c in cols])
                   for lo in range(0, len(cols[0]), CHUNK_ROUNDS))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write((",".join(order) + "\n").encode())
            for block in columns:
                fh.write(block)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IOError(f"cannot write {path}: {exc}") from exc
        raise


def _counted_information(count, x, y) -> float:
    """Empirical mutual information of the 0/1 code-table columns x and y
    over rounds counted per code by ``count``: the 2 x 2 table sums the
    counts of the codes 2x + y."""
    table = np.bincount(2 * x + y, count, minlength=4).reshape(2, 2)
    return analysis.empirical_mutual_information(table)


def _blocks(results, kept):
    """Each chunk's CSV rows, as the chunk arrives; its codes and code table
    go to ``kept``."""
    for code, table, rows in results:
        kept.append((code, table))
        yield rows


def _test_rounds(cfg: ExperimentConfig) -> np.ndarray:
    """Step 12's M tested rounds, sorted, from the reserved verification stream."""
    vrng = np.random.Generator(np.random.Philox(
        key=np.array([cfg.master_seed, VERIFY_STREAM_KEY], dtype=np.uint64)))
    return sample_test_rounds(vrng, cfg.rounds, cfg.test_bits)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run N protocol rounds under the configured attack, verify M test bits,
    aggregate the report, and (optionally) write per-round CSV.  Statistics
    count the round codes against the code table.  For the CSV the tested
    set is drawn first and each chunk's rows are written as they arrive;
    without it, the set is drawn only when some odd keys differ, as none can
    detect else.  A run keeps its round codes and no other whole-run column."""
    t0 = time.perf_counter()
    n = cfg.rounds
    attack = cfg.attack
    eve_key = batch.SCENARIOS[attack.kind].eve_key
    params = {"kind": attack.kind, "gamma": attack.gamma, "cx": attack.c_x, "cy": attack.c_y}
    starts = range(0, n, CHUNK_ROUNDS)
    tested, test_rounds = [None] * len(starts), None
    if cfg.output_path:
        test_rounds = _test_rounds(cfg)
        cuts = np.searchsorted(test_rounds, [*starts, n])
        tested = [test_rounds[i:j] for i, j in zip(cuts, cuts[1:])]
    chunks = [(params, cfg.master_seed, lo, min(CHUNK_ROUNDS, n - lo), t)
              for lo, t in zip(starts, tested)]
    # the fork start method launches every worker up front
    workers = min(cfg.workers, len(chunks))
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        results = pool.map(_run_chunk, chunks) if pool else map(_run_chunk, chunks)
        if cfg.output_path:
            kept = []
            write_csv(cfg.output_path, _blocks(results, kept))
        else:
            kept = list(results)
    table = kept[0][1]
    code = np.concatenate([r[0] for r in kept])
    count = np.bincount(code, minlength=len(table["k_alice_odd"]))

    mismatch = table["k_alice_odd"] != table["k_bob_odd"]
    misses = count[mismatch].sum()
    det_freq = float(misses / n)
    sigma = float(np.sqrt(max(det_freq * (1 - det_freq), 1e-12) / n))

    # step 12: compare M odd bits drawn from a reserved verification stream
    if misses and test_rounds is None:
        test_rounds = _test_rounds(cfg)
    detected = bool(misses) and bool(mismatch[code[test_rounds]].any())

    eve_acc = i_ae = None
    if eve_key:
        eve_acc = float(count[table["eve_guess_alice"] == table[eve_key]].sum() / n)
    if eve_key == _HOME_KEY:
        i_ae = _counted_information(count, table[eve_key], table["eve_guess_alice"])
    i_ab = _counted_information(count, table["k_alice_odd"], table["k_bob_odd"])

    key_len = 0 if detected else 2 * (n - cfg.test_bits)
    extras = {}
    if "trace_dist" in table:
        extras["trace dist min"] = f"{float(np.min(table['trace_dist'][count > 0])):.9f}"

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
