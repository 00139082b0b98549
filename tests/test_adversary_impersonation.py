"""Impersonation attacks: detection statistics and the one-home state."""
import numpy as np

from faraday_qkd import adversary, batch, harness

from oracles import fid, one_home_state as oracle_one_home
from oracles import one_home_state_without_phases


def rounds(kind, seed, n):
    """n rounds of ``kind`` on the per-round Philox streams of ``seed``."""
    u = harness.round_uniforms(seed, 0, n, batch.SCENARIOS[kind].draws)
    return batch.protocol_rounds(u, {"kind": kind})


def detection(cols):
    return np.mean(cols["k_alice_odd"] != cols["k_bob_odd"])


class TestTwoHomes:
    def test_detection_near_half(self):
        assert abs(detection(rounds("impersonate:two", 71, 20_000)) - 0.5) < 0.01

    def test_eve_shares_perfect_key_with_alice(self):
        cols = rounds("impersonate:two", 72, 5_000)
        assert np.all(cols["eve_guess_alice"] == cols["k_alice_odd"])

    def test_alice_bob_streams_independent(self):
        n = 20_000
        cols = rounds("impersonate:two", 73, n)
        corr = np.corrcoef(cols["k_alice_odd"], cols["k_bob_odd"])[0, 1]
        assert abs(corr) < 4 / np.sqrt(n)


class TestOneHome:
    def test_detection_near_half(self):
        assert abs(detection(rounds("impersonate:one", 81, 20_000)) - 0.5) < 0.011

    def test_state_matches_direct_construction(self):
        rng = np.random.default_rng(82)
        for _ in range(20):
            a, b, e = rng.uniform(0, 2 * np.pi, 3)
            got = adversary._prepared_state("impersonate:one", alpha=a, beta=b, epsilon=e)
            assert abs(got.norm() - 1.0) < 1e-10
            assert fid(got.amplitudes, oracle_one_home(a, b, e)) >= 1 - 1e-9

    def test_branch_phases_are_essential(self):
        # dropping the conditional branch phases yields a state orthogonal to
        # the faithful one, though all detection statistics are phase-blind
        rng = np.random.default_rng(83)
        a, b, e = rng.uniform(0, 2 * np.pi, 3)
        got = adversary._prepared_state("impersonate:one", alpha=a, beta=b, epsilon=e)
        assert fid(got.amplitudes, one_home_state_without_phases(a, b, e)) < 1e-12

    def test_eve_bits_track_branch_parity(self):
        # Eve's travel outcome is pinned by the (E, A) branch parity
        cols = rounds("impersonate:one", 84, 5_000)
        assert np.all(cols["E'"] == cols["E"] ^ cols["A"])

    def test_eve_odd_bits_match_alice(self):
        # C and E' are both rotated by the (A, E) pair, so Eve's travel
        # outcome always mirrors Alice's
        cols = rounds("impersonate:one", 85, 5_000)
        assert np.all(cols["eve_guess_alice"] == cols["k_alice_odd"])
