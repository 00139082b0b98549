"""Round mechanics, state oracles, determinism, and step 12: the test-round
sampler, and the harness's detection flag and final key length checked
against the ledger that ``oracles.step12_ledger`` rebuilds from the CSV."""
import numpy as np
import pytest

import faraday_qkd.protocol as proto
from faraday_qkd import ExperimentConfig, batch, harness, parse_attack, qstate as qs, run_experiment

from oracles import fid, keyed_rng, read_csv, state_eq4, state_eq5, state_eq6, step12_ledger


def capture_hook(leg, box):
    return proto.ChannelHook(leg, lambda s, rng: (box.append(s.copy()), s)[1])


class TestRunRound:
    def test_no_attack_keys_agree(self):
        for r in range(300):
            t = proto.run_round(r + 1, keyed_rng(101, r))
            assert t.alice_bits == t.bob_bits
            assert t.alice_bits[0] == proto.ODD_BIT[t.outcome_alice_C]

    def test_no_attack_keys_agree_large_batch(self):
        u = harness.round_uniforms(202, 0, 10_000, 6)
        cols = batch.protocol_rounds(u)
        assert np.all(cols["k_alice_odd"] == cols["k_bob_odd"])
        assert np.all(cols["k_alice_even"] == cols["k_bob_even"])

    def test_transcript_determinism(self):
        a = [proto.run_round(r + 1, keyed_rng(7, r)) for r in range(50)]
        b = [proto.run_round(r + 1, keyed_rng(7, r)) for r in range(50)]
        for ta, tb in zip(a, b):
            assert ta == tb

    def test_angle_streams_look_uniform(self):
        u = harness.round_uniforms(55, 0, 10_000, 6)
        for col in (0, 1):
            ang = 2 * np.pi * u[:, col]
            assert abs(ang.mean() - np.pi) < 4 * (2 * np.pi / np.sqrt(12)) / 100.0
            assert abs(np.mean(np.exp(1j * ang))) < 0.05

    def test_hook_norm_guard(self):
        bad = proto.ChannelHook(
            proto.LEG_C_TO_BOB,
            lambda s, rng: qs.StateVector(s.num_qubits, 0.5 * s.amplitudes))
        with pytest.raises(ValueError):
            proto.run_round(1, keyed_rng(1, 0), hooks=[bad])

    @pytest.mark.parametrize("leg", proto.LEGS)
    def test_hook_norm_guard_tolerance(self, leg):
        """The guard allows |norm - 1| up to 1e-9 after a hook, and no more."""
        def scaling(factor):
            return proto.ChannelHook(
                leg, lambda s, rng: qs.StateVector(s.num_qubits, factor * s.amplitudes))

        with pytest.raises(ValueError, match=f"hook on {leg} broke normalization"):
            proto.run_round(1, keyed_rng(1, 0), hooks=[scaling(1 + 2e-9)])
        t = proto.run_round(1, keyed_rng(1, 0), hooks=[scaling(1 + 5e-10)])
        assert t.alice_bits == t.bob_bits

    def test_unknown_leg_rejected(self):
        with pytest.raises(ValueError):
            proto.ChannelHook("C:nowhere", lambda s, rng: s)


def step3(alpha):
    """(A, C) once C is in flight to Bob: Alice's quarter-turn on |0>|alpha>."""
    return qs.apply_qfr(qs.product_state([qs.equator_ket(0.0), qs.equator_ket(alpha)]), 0, 1)


class TestStateOracles:
    def test_step3_state_matches_internal(self):
        for r in range(25):
            box = []
            proto.run_round(r + 1, keyed_rng(303, r), hooks=[capture_hook(proto.LEG_C_TO_BOB, box)])
            alpha = float(2 * np.pi * keyed_rng(303, r).random())
            expected = state_eq5(alpha)
            # at the step-3 hook B and D are untouched, so (A, C) is pure
            rho = qs.reduced_density(box[0], [proto.QUBIT_A, proto.QUBIT_C])
            overlap = expected.conj() @ rho.entries @ expected
            assert overlap.real == pytest.approx(1.0, abs=1e-10)

    def test_step3_equals_direct_construction(self):
        for alpha in np.random.default_rng(1).uniform(0, 2 * np.pi, 50):
            got = step3(alpha)
            assert fid(got.amplitudes, state_eq5(alpha)) >= 1 - 1e-10

    def test_step3_explicit_amplitudes_at_zero(self):
        # hand expansion of the two-branch form at alpha = 0 in (A, C) order:
        # (e^{-i pi/4}/2) * (1, i, i, 1)
        want = np.exp(-1j * np.pi / 4) / 2 * np.array([1, 1j, 1j, 1])
        assert np.allclose(step3(0.0).amplitudes, want, atol=1e-12)
        assert np.allclose(state_eq5(0.0), want, atol=1e-12)

    def test_step4_state_matches_direct_eq4(self):
        rng = np.random.default_rng(2)
        for r in range(50):
            box = []
            proto.run_round(r + 1, keyed_rng(404, r),
                            hooks=[capture_hook(proto.LEG_C_TO_ALICE, box)])
            alpha = float(2 * np.pi * keyed_rng(404, r).random())
            # D is still in a product state at step 4: check the (A,B,C) marginal
            rho = qs.reduced_density(box[0], [0, 1, 2])
            want = state_eq4(alpha)
            overlap = want.conj() @ rho.entries @ want
            assert overlap.real == pytest.approx(1.0, abs=1e-9)

    def test_step7_state_matches_direct_eq6(self):
        for r in range(50):
            box = []
            proto.run_round(r + 1, keyed_rng(505, r),
                            hooks=[capture_hook(proto.LEG_D_TO_BOB, box)])
            g = keyed_rng(505, r)
            alpha, beta = 2 * np.pi * g.random(), 2 * np.pi * g.random()
            assert fid(box[0].amplitudes, state_eq6(alpha, beta)) >= 1 - 1e-10


def ledger_run(tmp_path, spec, rounds, m, seed):
    """A run with its CSV, and the step-12 ledger the oracle rebuilds from it."""
    path = tmp_path / "run.csv"
    rep = run_experiment(ExperimentConfig(rounds=rounds, test_bits=m, master_seed=seed,
                                          attack=parse_attack(spec), output_path=str(path)))
    cols = read_csv(path)
    return rep, cols, step12_ledger(cols, seed, m)


class TestVerificationAndKey:
    def _transcripts(self, n, seed=7):
        return [proto.run_round(r + 1, keyed_rng(seed, r)) for r in range(n)]

    def test_identity_channel_never_detected(self):
        ts = self._transcripts(60)
        for m in (0, 10, 60):
            rounds = proto.sample_test_rounds(np.random.default_rng(0), len(ts), m)
            assert len(set(rounds.tolist())) == m
            assert all(ts[r].alice_bits[0] == ts[r].bob_bits[0] for r in rounds)

    def test_m_zero_degenerate_pass(self):
        rounds = proto.sample_test_rounds(np.random.default_rng(0), 5, 0)
        assert rounds.dtype == np.int64 and rounds.size == 0

    def test_m_too_large_rejected(self):
        with pytest.raises(ValueError):
            proto.sample_test_rounds(np.random.default_rng(0), 3, 4)

    def test_intercept_mismatch_frequency(self):
        # per-tested-bit mismatch at the intercept-and-resend rate 3/8
        u = harness.round_uniforms(606, 0, 10_000, 10)
        cols = batch.protocol_rounds(u, {"kind": "intercept", "gamma": 1.1})
        rng = np.random.default_rng(9)
        rounds = proto.sample_test_rounds(rng, 10_000, 1_000)
        freq = float(np.mean(cols["k_alice_odd"][rounds] != cols["k_bob_odd"][rounds]))
        assert abs(freq - 0.375) < 0.02

    def test_final_key_drops_tested_pairs(self, tmp_path):
        # a tested round gives up its odd bit and the paired even bit
        rep, cols, (_, detected, alice, _) = ledger_run(tmp_path, "none", 4, 1, 7)
        assert cols["tested"].sum() == 1 and not detected
        assert rep.final_key_length == len(alice) == 6

    def test_final_key_full_length_without_tests(self, tmp_path):
        rep, _, (_, _, alice, _) = ledger_run(tmp_path, "none", 5, 0, 7)
        assert rep.final_key_length == len(alice) == 10

    def test_final_key_refuses_after_detection(self, tmp_path):
        rep, _, (_, detected, alice, bob) = ledger_run(tmp_path, "intercept:0.3", 200, 50, 7)
        assert detected and rep.detected
        assert rep.final_key_length == len(alice) == len(bob) == 0

    def test_one_test_bit_decides_detection(self, tmp_path):
        # with M = 1 the run is detected exactly when its one tested pair differs
        outcomes = set()
        for seed in range(16):
            rep, _, (_, detected, _, _) = ledger_run(tmp_path, "intercept:0.3", 64, 1, seed)
            assert rep.detected == detected
            outcomes.add(detected)
        assert outcomes == {False, True}

    def test_end_to_end_keys_identical(self, tmp_path):
        rep, _, (_, detected, alice, bob) = ledger_run(tmp_path, "none", 1000, 100, 11)
        assert not detected and not rep.detected
        assert np.array_equal(alice, bob)
        assert rep.final_key_length == len(alice) == 2 * (1000 - 100)


# the kinds whose keys no attack disturbs: Eve reads them, or is absent
UNDISTURBED = ("none", "pns:3", "pns:4home")
PNS4_OVERCOUNT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="pns:4home has no even key (its even cells are -1), yet run_experiment "
           "reports 2(n - M) final key bits, twice the defined cells")


@pytest.mark.parametrize("m", [0, 100])
@pytest.mark.parametrize("spec", [
    "none", "general:0.5,0.5,0.3", "intercept:0.3", "impersonate:one", "impersonate:two",
    "pns:3", pytest.param("pns:4home", marks=PNS4_OVERCOUNT)])
def test_run_matches_step12_ledger(spec, m, tmp_path):
    """The harness's tested column, detection flag and final key length equal
    the ledger's, with and without detection."""
    rep, cols, (tested, detected, alice, bob) = ledger_run(tmp_path, spec, 3000, m, 2026)
    assert np.array_equal(cols["tested"], tested)
    assert rep.detected == detected == (m > 0 and spec not in UNDISTURBED)
    if spec in UNDISTURBED:
        assert np.array_equal(alice, bob)
    assert rep.final_key_length == len(alice) == len(bob)
