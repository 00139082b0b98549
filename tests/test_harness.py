"""Harness: attack parsing, config files, CSV, determinism, CLI, and the
scalar-versus-vectorized engine equivalence."""
import hashlib
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

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
from faraday_qkd.harness import CliError, round_uniforms, write_csv

from oracles import keyed_rng, masked_table, percent_csv, read_csv, report_fields


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
        with pytest.raises(CliError):
            ExperimentConfig(rounds=2**64, test_bits=0, master_seed=1)
        for seed in (-1, 2**64):
            with pytest.raises(CliError, match="seed must fit in 64 bits"):
                ExperimentConfig(rounds=10, test_bits=0, master_seed=seed)

    def test_line_without_equals_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("rounds = 10\nseed 5\n", encoding="utf-8")
        with pytest.raises(CliError, match=r":2: expected 'key = value'"):
            harness.parse_config_file(str(cfg))


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1, 2**64 - 0x9E3779B97F4A7C15])
def test_round_uniforms_is_numpy_philox(seed):
    """Round r's draws are numpy's Philox(key=(seed, r)) stream, byte for byte."""
    for start, count in ((0, 3), (harness.CHUNK_ROUNDS - 1, 3), (2**40, 3), (2**64 - 3, 2),
                         (7, 1), (2**32 - 20, 64)):
        for draws in range(1, 13):
            u = round_uniforms(seed, start, count, draws)
            ref = np.stack([keyed_rng(seed, start + i).random(draws) for i in range(count)])
            assert u.shape == ref.shape and u.dtype == np.float64
            assert u.tobytes() == ref.tobytes(), (start, draws)
    for draws in (1, 6, 12):
        assert round_uniforms(seed, 0, 0, draws).shape == (0, draws)


@pytest.mark.parametrize("seed, start", [(2**64 - 1, 2**63 + 7), (5, 0)])
def test_round_uniforms_takes_numpy_integers(seed, start):
    """A numpy integer seed or start gives the draws of the same Python int:
    the Python-int rounds must not multiply or add in a wrapping dtype."""
    want = round_uniforms(seed, start, 3, 8).tobytes()
    for cast in (np.uint64, np.int64) if seed < 2**63 else (np.uint64,):
        with np.errstate(all="raise"):
            assert round_uniforms(cast(seed), cast(start), 3, 8).tobytes() == want


@pytest.mark.parametrize("m", harness._PHILOX_M)
def test_mulhilo_matches_python_ints(m):
    """``_mulhilo``'s 32-bit limbs give the high and low words of a * m,
    checked against Python ints at the limb edges and on random words."""
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    words = np.concatenate([np.array(edges, dtype=np.uint64),
                            np.random.default_rng(11).integers(0, 2**64, 10**5, dtype=np.uint64,
                                                               endpoint=False)])
    hi, lo = harness._mulhilo(words, m)
    assert hi.dtype == lo.dtype == np.uint64
    products = [int(a) * int(m) for a in words.tolist()]
    assert hi.tolist() == [p >> 64 for p in products]
    assert lo.tolist() == [p & (2**64 - 1) for p in products]


@pytest.mark.parametrize("rows", [harness.CHUNK_ROUNDS, batch.CHUNK])
@pytest.mark.parametrize("kind", batch.SCENARIOS)
def test_round_uniforms_at_harness_sizes(kind, rows):
    """At the chunk sizes the harness and the sampler run, with each kind's
    draw count, the first, middle and last rows are numpy's Philox streams,
    also for a start whose last round is 2**64 - 1; the result is draw-major,
    each draw's column contiguous."""
    draws = batch.SCENARIOS[kind].draws
    for seed, start in ((3, 5 * harness.CHUNK_ROUNDS), (2**64 - 9, 2**64 - rows)):
        u = round_uniforms(seed, start, rows, draws)
        assert u.shape == (rows, draws) and u.T.flags.c_contiguous
        for i in (0, rows // 2, rows - 1):
            assert u[i].tobytes() == keyed_rng(seed, start + i).random(draws).tobytes(), i


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
        # both engines take gamma mod 2 pi, also where gamma + pi/2 == gamma
        for seed, gamma in ((901, 0.45), (904, 2.0), (907, 1e17), (908, 1e300)):
            u = round_uniforms(seed, 0, 200, 10)
            cols = batch.protocol_rounds(u, {"kind": "intercept", "gamma": gamma})
            hooks = intercept_resend_hooks(gamma)
            for r in range(200):
                t = proto.run_round(r + 1, keyed_rng(seed, r), hooks=hooks)
                assert t.alice_bits[0] == cols["k_alice_odd"][r], (gamma, r)
                assert t.bob_bits[0] == cols["k_bob_odd"][r], (gamma, r)
                assert t.alice_bits[1] == cols["k_alice_even"][r], (gamma, r)
                assert t.bob_bits[1] == cols["k_bob_even"][r], (gamma, r)

    def test_general_attack_with_eve(self):
        # the balanced spec, two unbalanced ones, then gamma far beyond 2 pi
        for seed, rounds, gamma, cx, cy in ((902, 150, 0.8, 0.45, 0.45),
                                            (905, 200, 0.0, 0.2, 0.8),
                                            (906, 200, 2.5, 0.9, 0.5),
                                            (907, 100, 1e17, 0.5, 0.5),
                                            (909, 100, 1e308, 0.5, 0.5)):
            spec = GeneralAttackSpec(EquatorAngle(gamma), cx, cy)
            disc = EveDiscriminator(spec)
            u = round_uniforms(seed, 0, rounds, 8)
            cols = batch.protocol_rounds(u, {"kind": "general", "gamma": gamma,
                                             "cx": cx, "cy": cy})
            hooks = general_attack_hooks(spec)
            for r in range(rounds):
                rng = keyed_rng(seed, r)
                t, state = proto.run_round(r + 1, rng, hooks=hooks, return_state=True)
                ga, gb = eve_infer_keys(state, spec, rng, discriminator=disc)
                where = (cx, cy, gamma, r)
                assert t.alice_bits[0] == cols["k_alice_odd"][r], where
                assert t.alice_bits[1] == cols["k_alice_even"][r], where
                assert t.bob_bits[0] == cols["k_bob_odd"][r], where
                assert t.bob_bits[1] == cols["k_bob_even"][r], where
                assert (ga, gb) == (cols["eve_guess_alice"][r], cols["eve_guess_bob"][r]), where


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

    def test_one_compile_per_spec_and_process(self, tmp_path, monkeypatch):
        """A general run of four chunks compiles its branch table once; a
        second run on the spec does not compile, a run on another spec does,
        and a run after the cache is cleared writes the same CSV bytes."""
        counts = {"compile": 0}

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(batch, "_compile", counted("compile", batch._compile))

        def run(attack, name):
            path = tmp_path / name
            run_experiment(ExperimentConfig(
                rounds=3 * harness.CHUNK_ROUNDS + 5, test_bits=10, master_seed=83,
                attack=attack, output_path=str(path)))
            return path.read_bytes(), dict(counts)

        spec = AttackChoice("general", 0.5, 0.5, 0.3)
        batch._table.cache_clear()
        first, after = run(spec, "a.csv")
        assert after == {"compile": 1}
        assert run(spec, "b.csv") == (first, {"compile": 1})
        assert run(AttackChoice("general", 0.5, 0.5, 0.4), "c.csv")[1] == {"compile": 2}
        batch._table.cache_clear()
        assert run(spec, "d.csv") == (first, {"compile": 3})


class TestCsv:
    def test_round_trip_is_byte_stable(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        cfg = ExperimentConfig(rounds=500, test_bits=50, master_seed=80,
                               output_path=p1)
        run_experiment(cfg)
        cols = read_csv(p1)
        write_csv(p2, cols)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_same_seed_same_bytes(self, tmp_path):
        outs = []
        for name in ("x.csv", "y.csv"):
            cfg = ExperimentConfig(rounds=1200, test_bits=100, master_seed=81,
                                   attack=AttackChoice("intercept", gamma=1.0),
                                   output_path=str(tmp_path / name))
            run_experiment(cfg)
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_lf_line_endings(self, tmp_path):
        p = str(tmp_path / "lf.csv")
        cfg = ExperimentConfig(rounds=50, test_bits=0, master_seed=82, output_path=p)
        run_experiment(cfg)
        data = Path(p).read_bytes()
        assert b"\r" not in data
        assert data.count(b"\n") == 51

    @pytest.mark.parametrize("rows", [0, 1, 8191, 8192, 8193, 20000, 100000])
    def test_bytes_equal_percent_oracle(self, rows, tmp_path):
        rng = np.random.default_rng(rows)
        cols = {
            "round": np.arange(1, rows + 1),
            "special": np.resize(np.array(SPECIAL_FLOATS), rows),
            "angle": 2 * np.pi * rng.random(rows),
            "log_uniform": 10.0 ** rng.uniform(-14, 14, rows),
            "int": np.resize(np.array(SPECIAL_INTS), rows),
            "outcome": rng.choice(np.array([-1, 1]), rows),
            "flag": rng.random(rows) < 0.5,
            "uint": np.resize(np.array([0, 7, 2 ** 64 - 1], dtype=np.uint64), rows),
            "pow10": np.resize(np.array(POW10_INTS), rows),
            "upow10": np.resize(np.array([10 ** k + d for k in range(20) for d in (-1, 0)],
                                         dtype=np.uint64), rows),
            # integer columns spanning at most 256 values are gathered from a table
            "pm1": rng.integers(-1, 2, rows),
            "negative": rng.integers(-3, 0, rows),
            "mixed_width": rng.integers(-10, 10, rows),
            "zero": np.zeros(rows, dtype=np.int64),
            "minus_one": np.full(rows, -1),
            "span_256": np.resize(np.arange(-100, 156), rows),
            "span_257": np.resize(np.arange(-100, 157), rows),
            "all_true": np.ones(rows, dtype=bool),
            "int64_min": np.resize(np.arange(-2 ** 63, -2 ** 63 + 6), rows),
            "uint64_max": np.resize(np.arange(2 ** 64 - 6, 2 ** 64, dtype=np.uint64), rows),
            # small in the first block, as wide as int64 in the next
            "blocks": np.where(np.arange(rows) < harness.CHUNK_ROUNDS, rng.integers(0, 2, rows),
                               np.resize(np.array(SPECIAL_INTS), rows)),
        }
        path = tmp_path / "o.csv"
        write_csv(str(path), cols, order=tuple(cols))
        assert path.read_bytes() == percent_csv(cols, tuple(cols))

    def test_successful_write_removes_nothing(self, tmp_path, monkeypatch):
        removed = []
        monkeypatch.setattr(harness.os, "remove", removed.append)
        write_csv(str(tmp_path / "ok.csv"), {"x": np.arange(3)}, order=("x",))
        assert removed == []
        assert os.listdir(tmp_path) == ["ok.csv"]

    def test_failed_block_keeps_the_old_file(self, tmp_path, monkeypatch):
        # an error that is not an OSError; TestCli covers the OSError case
        p = tmp_path / "run.csv"
        p.write_bytes(b"old contents\n")
        calls = []
        block = harness._csv_block

        def fail_after_the_first(cols):
            calls.append(len(cols[0]))
            if len(calls) > 1:
                raise RuntimeError("formatter bug")
            return block(cols)

        monkeypatch.setattr(harness, "_csv_block", fail_after_the_first)
        with pytest.raises(RuntimeError, match="formatter bug"):
            write_csv(str(p), {"x": np.arange(3 * harness.CHUNK_ROUNDS)}, order=("x",))
        assert calls == [harness.CHUNK_ROUNDS] * 2
        assert p.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["run.csv"]

    def test_writer_memory_does_not_grow_with_rows(self, tmp_path):
        rows = 200_000
        rng = np.random.default_rng(3)
        cols = {name: rng.integers(0, 2, rows) for name in harness.CSV_COLUMNS}
        cols["round"] = np.arange(1, rows + 1)
        cols["alpha"], cols["beta"] = 2 * np.pi * rng.random((2, rows))
        for name in ("out_c", "out_d", "out_a", "out_b"):
            cols[name] = 2 * cols[name] - 1
        tracemalloc.start()
        try:
            write_csv(str(tmp_path / "m.csv"), cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


class TestCsvWords:
    def test_word_tables_hold_their_text(self):
        assert harness._WORDS.tobytes() == b"".join(b"%04d" % i for i in range(10000))
        assert harness._EXP_WORDS.tobytes() == b"".join(b"e%+03d" % k for k in range(-11, 12))

    # the number of four-digit groups changes at widths 5, 9, 13 and 17
    @pytest.mark.parametrize("width", range(1, 21))
    def test_digits_match_zero_padded_percent(self, width):
        values = {0, 1, 2 ** 64 - 1 if width == 20 else 10 ** width - 1}
        values |= {10 ** k + d for k in range(1, width) for d in (-1, 0, 1)}
        mag = np.array(sorted(values), dtype=np.uint64)
        got = harness._digits(mag, width)
        assert got.shape == (len(mag), width)
        assert got.tobytes() == b"".join(b"%0*d" % (width, v) for v in mag.tolist())

    # a row of odd width, so every 8-, 4-, 2- and 1-byte word column is unaligned
    @pytest.mark.parametrize("width", range(1, 25))
    def test_put_matches_slice_assignment(self, width):
        rng = np.random.default_rng(width)
        cells = rng.integers(0, 256, (37, width), dtype=np.uint8)
        for pos in range(9):
            out = np.full((37, 41), ord(","), dtype=np.uint8)
            want = out.copy()
            want[:, pos:pos + width] = cells
            harness._put(out, pos, cells)
            assert np.array_equal(out, want)
        # a column of a wider matrix, as _digits returns
        wide = rng.integers(0, 256, (37, width + 3), dtype=np.uint8)
        out = np.zeros((37, width + 5), dtype=np.uint8)
        harness._put(out, 5, wide[:, 3:])
        assert np.array_equal(out[:, 5:], wide[:, 3:]) and not out[:, :5].any()

    @pytest.mark.parametrize("name", ["_WORDS", "_EXP_WORDS", "_POW10", "_POW10_INT"])
    def test_tables_are_read_only(self, name):
        table = getattr(harness, name)
        before = table.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            table += 1
        assert table.tobytes() == before


# cells the block writer's digit paths must get exactly right or hand to '%':
# zero, signs, non-finite values, subnormal and out-of-range exponents, the
# ends of [1e11, 1e12), near-ties of the 12th digit, and int64's extremes
SPECIAL_FLOATS = [0.0, -0.0, -1.5, -2 * np.pi, np.nan, np.inf, -np.inf, 5e-324, 1e-300,
                  1e300, 1e-11, 1e11, 1e12, 1.000000000005, 9.9999999999995,
                  999999999999.5, 0.1234567890125]
SPECIAL_INTS = [0, 1, -1, 9, 10, 99, 100, 2 ** 63 - 1, -2 ** 63 + 1, -2 ** 63]
# both sides of every power-of-ten boundary that int64 holds, at both signs
POW10_INTS = [s * (10 ** k + d) for k in range(19) for d in (-1, 0) for s in (1, -1)]


# SHA-256 of the CSV, then of the report text without its wall-time line, of
# a 3000-round run with 100 test bits and seed 2026
CSV_SHA256 = {
    "none": "9a794d158d492d18b261a4b98e3e928c352860c2fd95434f7cbb3747f06e58eb",
    "general:0.5,0.5,0.3": "51ce4528365c9d762fcf8b21a9abd86884884e5b5a1348d4c73f1298024f8d43",
    "intercept:0.3": "be5eb539ff7043efcba4180daab5a0ed972faba52a6a95d485651eb21f103ca4",
    "impersonate:one": "c7e3c6f03b6fe905de3301641f588af74e35ada16ec6f481668ea3017549d05c",
    "impersonate:two": "6f62ffbb181b73f0dab66b5327486a79c7649a67cf5606a1bb0be180cea3c328",
    "pns:3": "27390acdb3273c1c1278e81da48c362f51d68725ba51fbe01b3a5fb515110b3d",
    "pns:4home": "3c5176d69a37df86d0c4bcb77751193bac33be0c1629c42936135f0afa388131",
}
REPORT_SHA256 = {
    "none": "6b89637a764bcabd87b323d2456718e9c0ed3f3726789bf3563171fc94520f3d",
    "general:0.5,0.5,0.3": "0e1c6e6729d56b2ade6679b85ae33f5fe1b9fb338af513db679475ff1c3375f1",
    "intercept:0.3": "a317769b306c207be2d6d849fc9ce681ced369206e0991e46593ef6915262173",
    "impersonate:one": "8b3129c7b81c0e786dc3e9dc52b1399362db3193ce7fb391f1ecdc5955964bd9",
    "impersonate:two": "8306615fb2d11c0aa63f5a9af590de14407f7da2e0a6c4cab0ddcc78eb27e0d2",
    "pns:3": "a58e8b1f46c308d236718621afcc847c92cb7cc6e536ad0a59bbd1f04946b9ed",
    "pns:4home": "9a7c69e10ec6bd7aaa41dc585cc1799aee759a33e464994aafa43d654599ba07",
}


@pytest.mark.parametrize("spec", list(CSV_SHA256))
def test_csv_bytes_pinned(spec, tmp_path):
    path = tmp_path / "run.csv"
    report = run_experiment(ExperimentConfig(rounds=3000, test_bits=100, master_seed=2026,
                                             attack=parse_attack(spec), output_path=str(path)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_SHA256[spec]
    text = "\n".join(line for line in report.to_text().splitlines()
                     if not line.startswith("wall time"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[spec]


def test_harness_reads_attack_kinds_from_the_scenario_table():
    for kind, scenario in batch.SCENARIOS.items():
        spec = f"{kind}:{','.join('0.5' for _ in scenario.params)}" if scenario.params else kind
        assert parse_attack(spec).kind == kind
    commands = next(a for a in harness._build_parser()._actions if a.dest == "command")
    attack = next(a for a in commands.choices["simulate"]._actions if a.dest == "attack")
    assert attack.help == ("none|general:cx,cy,gamma|intercept:gamma|impersonate:one|"
                         "impersonate:two|pns:3|pns:4home")
    for kind, scenario in batch.SCENARIOS.items():
        rep = run_experiment(ExperimentConfig(rounds=20, test_bits=2, master_seed=5,
                                              attack=AttackChoice(kind, 0.5, 0.5, 0.3)))
        assert (rep.eve_accuracy is not None) == (scenario.eve_key is not None), kind


@pytest.mark.parametrize("columns", ["random", "correlated", (0, 0), (0, 1), (1, 0), (1, 1)])
def test_information_counts_the_four_sum_table(columns, monkeypatch):
    """``_counted_information`` hands ``empirical_mutual_information`` the
    2 x 2 table of the four masked sums, sum((x == a) & (y == b)), over the
    rounds, and returns its value, on random, correlated and constant 0/1
    columns: code-table columns x and y of 5,000 codes, each drawn by one
    round, and of 300 codes that 5,000 rounds drew at random."""
    rng = np.random.default_rng(9)
    x, y = rng.integers(0, 2, (2, 5000))
    if columns == "correlated":
        y = x ^ (rng.random(5000) < 0.1)
    elif columns != "random":
        x[:], y[:] = columns
    info, seen = harness.analysis.empirical_mutual_information, []
    monkeypatch.setattr(harness.analysis, "empirical_mutual_information",
                        lambda table: seen.append(table) or info(table))
    for code in (np.arange(5000), rng.integers(0, 300, 5000)):
        count = np.bincount(code, minlength=5000)
        want = masked_table(x[code], y[code])
        assert harness._counted_information(count, x, y) == info(want)
        assert len(seen) == 1 and np.array_equal(seen.pop(), want)


def _report_fields(rep):
    """A report's fields, without its configuration and wall time."""
    return {name: getattr(rep, name) for name in harness.RunReport.__dataclass_fields__
            if name not in ("config", "wall_time_s")}


@pytest.mark.parametrize("kind", list(batch.SCENARIOS))
def test_report_equals_the_column_formulas(kind):
    """Every report field of a run, taken from the counts of its round codes,
    equals bit for bit ``oracles.report_fields`` of its whole-run columns,
    for every kind, on three seeds, one run of more than one chunk, and
    with M = 0, a few test bits and M = n."""
    sc = batch.SCENARIOS[kind]
    attack = AttackChoice(kind, 0.45, 0.7, 0.3)
    params = {"kind": kind, "gamma": 0.3, "cx": 0.45, "cy": 0.7}
    for seed, n in ((11, 300), (12, 301), (13, harness.CHUNK_ROUNDS + 7)):
        cols = batch.protocol_rounds(round_uniforms(seed, 0, n, sc.draws), params)
        for m in (0, 3, n):
            rep = run_experiment(ExperimentConfig(rounds=n, test_bits=m, master_seed=seed,
                                                  attack=attack))
            want = report_fields(cols, sc.eve_key, seed, m)
            got = _report_fields(rep)
            assert got.keys() == want.keys()
            for name, value in want.items():
                assert repr(got[name]) == repr(value), (seed, m, name)


@pytest.mark.parametrize("kind, out", [("none", False), ("none", True), ("pns:3", False),
                                       ("intercept", False), ("general", False),
                                       ("impersonate:two", True)])
def test_run_reads_each_chunk_once_and_draws_tests_only_when_read(kind, out, tmp_path,
                                                                  monkeypatch):
    """``run_experiment`` calls ``batch.protocol_rounds`` once per chunk, and
    ``sample_test_rounds`` once if the CSV is written or some round's odd
    keys differ, and never otherwise: without a mismatch no test round can
    detect."""
    calls = {"rounds": 0, "tests": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(batch, "protocol_rounds", counted("rounds", batch.protocol_rounds))
    monkeypatch.setattr(harness, "sample_test_rounds", counted("tests", harness.sample_test_rounds))
    rep = run_experiment(ExperimentConfig(
        rounds=2 * harness.CHUNK_ROUNDS + 5, test_bits=50, master_seed=19,
        attack=AttackChoice(kind, 0.5, 0.5, 0.3),
        output_path=str(tmp_path / "run.csv") if out else None))
    assert calls["rounds"] == 3
    assert calls["tests"] == int(out or rep.detection_freq > 0)
    assert (rep.detection_freq > 0) == (kind not in ("none", "pns:3"))


@pytest.mark.parametrize("kind", list(batch.SCENARIOS))
def test_run_memory_grows_by_at_most_32_bytes_a_round(kind):
    """Without ``--out`` a run keeps no whole-run column but its round codes:
    its tracemalloc peak grows by at most 32 B per round from 4 to 16 x
    ``CHUNK_ROUNDS`` rounds, with a tenth of the rounds tested."""
    attack = AttackChoice(kind, 0.5, 0.5, 0.3)

    def peak(rounds):
        cfg = ExperimentConfig(rounds=rounds, test_bits=rounds // 10, master_seed=23,
                               attack=attack)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_experiment(ExperimentConfig(rounds=10, test_bits=1, master_seed=23, attack=attack))
    small, large = (peak(k * harness.CHUNK_ROUNDS) for k in (4, 16))
    assert (large - small) / (12 * harness.CHUNK_ROUNDS) <= 32


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

    @pytest.mark.parametrize("step,digest", [
        (0.001, "a90205f3e9991a8322647f364047ae601ed2117e46c8b3fcd5ad98513a14b0cb"),
        (0.0001, "508e59c3c0beb8ef583f9b942f61935bb438d8334280b14f68f8b50cac98c5c8"),
    ])
    def test_curves_bytes_pinned(self, step, digest, tmp_path):
        path = tmp_path / "c.csv"
        emit_curves(step, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_bad_step(self, tmp_path):
        with pytest.raises(CliError):
            emit_curves(0.5, str(tmp_path / "c.csv"))

    @pytest.mark.parametrize("step", ["1e-300", "1e-9"])
    def test_tiny_step_exits_one(self, step, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert harness.main(["curves", "--step", step, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

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

    def test_config_not_utf8_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"rounds = 200\nseed = 3\nattack = \xff\xfe\n")
        assert harness.main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: not UTF-8")

    def test_argument_error_exit_one(self, capsys):
        assert harness.main(["simulate", "--rounds", "10"]) == 1          # no seed
        assert harness.main(["simulate", "--rounds", "10", "--seed", "1",
                             "--attack", "bogus"]) == 1
        assert harness.main(["nonsense"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--seed", "1"], "error: rounds not given"),
        (["simulate", "--rounds", "10", "--seed", str(2**64)], "error: seed must fit in 64 bits"),
        (["simulate", "--rounds", "10", "--seed", "-1"], "error: seed must fit in 64 bits"),
        (["--workers", "0", "simulate", "--rounds", "10", "--seed", "1"],
         "error: workers must be >= 1")])
    def test_bad_run_arguments_exit_one(self, argv, message, capsys):
        assert harness.main(argv) == 1
        assert capsys.readouterr().err.startswith(message)

    def test_bad_env_workers_exit_one(self, monkeypatch, capsys):
        monkeypatch.setenv("FARADAY_QKD_WORKERS", "many")
        assert harness.main(["simulate", "--rounds", "10", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: bad FARADAY_QKD_WORKERS value 'many'")

    def test_unreadable_config_exit_two(self, tmp_path, capsys):
        assert harness.main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2
        assert capsys.readouterr().err.startswith("i/o error: cannot read")

    def test_curves_via_cli(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert harness.main(["curves", "--step", "0.01", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"curves written to {out}\n"
        assert out.read_bytes().startswith(b"p_d,")

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

    @pytest.mark.parametrize("workers, cpus, rounds, expected", [
        (100_000, 64, harness.CHUNK_ROUNDS + 1, 2), (4, 64, 3 * harness.CHUNK_ROUNDS, 3),
        (100_000, 2, 3 * harness.CHUNK_ROUNDS, 2), (1, 64, 100, None)])
    def test_pool_never_exceeds_the_chunks_or_cpus(self, workers, cpus, rounds, expected,
                                                   monkeypatch):
        made = []

        class Pool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        run_experiment(ExperimentConfig(rounds=rounds, test_bits=0, master_seed=6,
                                        workers=workers))
        assert made == ([expected] if expected else [])

    def test_failed_csv_write_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "run.csv"
        p.write_bytes(b"old contents\n")

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(harness.os, "replace", replace)
        rc = harness.main(["simulate", "--rounds", "50", "--seed", "3", "--out", str(p)])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err
        assert p.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["run.csv"]

    def test_failed_block_exits_two_and_keeps_the_old_file(self, tmp_path, monkeypatch,
                                                           capsys):
        p = tmp_path / "run.csv"
        p.write_bytes(b"old contents\n")
        calls = []

        def fail_after_the_first(cols):
            calls.append(len(cols[0]))
            if len(calls) > 1:
                raise OSError("disk full")
            return b""

        monkeypatch.setattr(harness, "_csv_block", fail_after_the_first)
        rc = harness.main(["simulate", "--rounds", str(2 * harness.CHUNK_ROUNDS), "--seed", "3",
                           "--out", str(p)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("i/o error: cannot write")
        assert calls == [harness.CHUNK_ROUNDS] * 2
        assert p.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["run.csv"]

    def test_dead_worker_exits_two(self, monkeypatch, capsys):
        class Pool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        rc = harness.main(["--workers", "2", "simulate", "--rounds", str(2 * harness.CHUNK_ROUNDS),
                           "--seed", "3"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: a worker process died (")

    def test_module_entry_point(self):
        # the child imports the package this process imported
        src = os.path.dirname(os.path.dirname(proto.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "faraday_qkd", "solve"],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "0.266188" in proc.stdout
