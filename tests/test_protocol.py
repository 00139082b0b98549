"""Round mechanics, state oracles, key ledger, and determinism."""
import numpy as np
import pytest

import faraday_qkd.protocol as proto
from faraday_qkd import batch, harness, qstate as qs

from oracles import fid, keyed_rng, state_eq4, state_eq5, state_eq6


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

    def test_unknown_leg_rejected(self):
        with pytest.raises(ValueError):
            proto.ChannelHook("C:nowhere", lambda s, rng: s)


class TestStateOracles:
    def test_step3_state_matches_internal(self):
        for r in range(25):
            box = []
            proto.run_round(r + 1, keyed_rng(303, r), hooks=[capture_hook(proto.LEG_C_TO_BOB, box)])
            alpha = float(2 * np.pi * keyed_rng(303, r).random())
            expected = proto.state_after_step3(alpha)
            # at the step-3 hook B and D are untouched, so (A, C) is pure
            rho = qs.reduced_density(box[0], [proto.QUBIT_A, proto.QUBIT_C])
            overlap = expected.amplitudes.conj() @ rho.entries @ expected.amplitudes
            assert overlap.real == pytest.approx(1.0, abs=1e-10)

    def test_step3_equals_direct_construction(self):
        for alpha in np.random.default_rng(1).uniform(0, 2 * np.pi, 50):
            got = proto.state_after_step3(alpha)
            assert fid(got.amplitudes, state_eq5(alpha)) >= 1 - 1e-10

    def test_step3_explicit_amplitudes_at_zero(self):
        # hand expansion of the two-branch form at alpha = 0 in (A, C) order:
        # (e^{-i pi/4}/2) * (1, i, i, 1)
        got = proto.state_after_step3(0.0).amplitudes
        want = np.exp(-1j * np.pi / 4) / 2 * np.array([1, 1j, 1j, 1])
        assert np.allclose(got, want, atol=1e-12)

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


class TestVerificationAndKey:
    def _transcripts(self, n, seed=7):
        return [proto.run_round(r + 1, keyed_rng(seed, r)) for r in range(n)]

    def test_identity_channel_never_detected(self):
        ts = self._transcripts(60)
        for m in (0, 10, 60):
            for t in ts:
                t.used_for_test = False
            detected, mism, tested = proto.verify_keys(ts, m, np.random.default_rng(0))
            assert not detected and mism == 0 and len(tested) == m

    def test_m_zero_degenerate_pass(self):
        ts = self._transcripts(5)
        detected, mism, tested = proto.verify_keys(ts, 0, np.random.default_rng(0))
        assert (detected, mism, tested) == (False, 0, frozenset())

    def test_m_too_large_rejected(self):
        ts = self._transcripts(3)
        with pytest.raises(ValueError):
            proto.verify_keys(ts, 4, np.random.default_rng(0))

    def test_intercept_mismatch_frequency(self):
        # per-tested-bit mismatch at the intercept-and-resend rate 3/8
        u = harness.round_uniforms(606, 0, 10_000, 10)
        cols = batch.protocol_rounds(u, {"kind": "intercept", "gamma": 1.1})
        rng = np.random.default_rng(9)
        rounds = proto.sample_test_rounds(rng, 10_000, 1_000)
        freq = float(np.mean(cols["k_alice_odd"][rounds] != cols["k_bob_odd"][rounds]))
        assert abs(freq - 0.375) < 0.02

    def test_final_key_drops_tested_pairs(self):
        ts = self._transcripts(4)
        ts[0].used_for_test = True  # consumes K_1, so K_2 goes too
        ledger = proto.build_ledger(ts, detected=False)
        assert ledger.test_indices == frozenset({1})
        key = proto.final_key(ledger)
        assert len(key) == 6
        assert key == ledger.alice_key[2:]

    def test_final_key_full_length_without_tests(self):
        ts = self._transcripts(5)
        ledger = proto.build_ledger(ts, detected=False)
        assert len(proto.final_key(ledger)) == 10

    def test_final_key_refuses_after_detection(self):
        ts = self._transcripts(2)
        ledger = proto.build_ledger(ts, detected=True)
        with pytest.raises(RuntimeError):
            proto.final_key(ledger)

    def test_end_to_end_keys_identical(self):
        ts = self._transcripts(1000, seed=11)
        detected, _, _ = proto.verify_keys(ts, 100, np.random.default_rng(3))
        assert not detected
        ledger = proto.build_ledger(ts, detected=detected)
        assert proto.final_key(ledger, "alice") == proto.final_key(ledger, "bob")
        assert len(proto.final_key(ledger)) == 2 * (1000 - 100)
