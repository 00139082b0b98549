"""Closed-form security quantities and solvers."""
import numpy as np
import pytest

from faraday_qkd import analysis as an

H_QUARTER = 0.8112781244591328  # h(1/4), frozen from -p log2 p - (1-p) log2 (1-p)
BB84_PD = 0.15                  # the paper's comparison protocols' thresholds
PING_PONG_PD = 0.18


class TestDetectionProbability:
    def test_intercept_limit(self):
        assert an.detection_probability(0.0, 0.0) == pytest.approx(0.375)

    def test_no_disturbance(self):
        assert an.detection_probability(1.0, 1.0) == pytest.approx(0.0)

    def test_single_leg_value(self):
        assert an.detection_probability(1.0, 0.0) == pytest.approx(0.25)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            an.detection_probability(-0.1, 0.5)
        with pytest.raises(ValueError):
            an.detection_probability(0.5, 1.1)

    def test_monotone_non_increasing(self):
        grid = np.linspace(0, 1, 21)
        for fixed in (0.0, 0.4, 1.0):
            vals = [an.detection_probability(c, fixed) for c in grid]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
            vals = [an.detection_probability(fixed, c) for c in grid]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_simulated_rate_matches_balanced(self):
        for c in (0.0, 0.3, 0.7, 1.0):
            assert an.simulated_detection_probability(c, c) == pytest.approx(
                an.detection_probability(c, c), abs=1e-12)


class TestEntropyAndInformation:
    def test_binary_entropy_edges(self):
        assert an.binary_entropy(0.0) == 0.0
        assert an.binary_entropy(1.0) == 0.0
        assert an.binary_entropy(0.5) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            an.binary_entropy(-0.01)

    def test_perfect_channel_leaks_nothing(self):
        assert an.mutual_info_ab(0.0) == pytest.approx(1.0)
        assert an.eve_error(0.0) == pytest.approx(0.5)
        assert an.mutual_info_ae(0.0) == pytest.approx(0.0)

    def test_intercept_point_values(self):
        # 1 - 2 p_d = 1/4 substituted by hand gives p_e = 1/4
        assert an.eve_error(0.375) == pytest.approx(0.25, abs=1e-12)
        assert an.mutual_info_ae(0.375) == pytest.approx(1 - H_QUARTER, abs=1e-12)

    def test_crossing_is_a_fixed_point(self):
        assert an.eve_error(0.266188) == pytest.approx(0.266188, abs=1e-4)
        assert an.mutual_info_ab(0.266188) == pytest.approx(
            an.mutual_info_ae(0.266188), abs=1e-5)

    def test_eve_error_domain(self):
        with pytest.raises(ValueError):
            an.eve_error(0.51)
        with pytest.raises(ValueError):
            an.eve_error(-0.01)

    def test_ae_consistent_with_eve_error(self):
        for p in np.linspace(0.0, 0.375, 16):
            assert an.mutual_info_ae(p) == pytest.approx(
                1 - an.binary_entropy(an.eve_error(p)), abs=1e-12)


class TestSolvers:
    def test_threshold_value(self):
        root = an.find_security_threshold()
        assert root == pytest.approx(0.266188, abs=1e-5)
        assert root > PING_PONG_PD > BB84_PD
        assert abs(an.mutual_info_ab(root) - an.mutual_info_ae(root)) < 1e-8

    def test_eve_optimum(self):
        opt = an.find_eve_optimum()
        assert opt == pytest.approx(0.345, abs=0.005)
        assert an.mutual_info_ae(opt) > an.mutual_info_ae(0.375)
        assert an.mutual_info_ae(opt) == pytest.approx(0.194, abs=2e-3)

    def test_collective_bound(self):
        p = an.collective_bound()
        assert p == pytest.approx(0.110028, abs=1e-5)
        assert an.binary_entropy(p) == pytest.approx(0.5, abs=1e-8)

    def test_entropy_inverse_full_budget(self):
        assert an.entropy_inverse(1.0) == pytest.approx(0.5, abs=1e-6)

    def test_solvers_are_deterministic(self):
        assert an.find_security_threshold() == an.find_security_threshold()
        assert an.find_eve_optimum() == an.find_eve_optimum()


class TestCurves:
    def test_curve_grid_strictly_increasing(self):
        curve = an.security_curve(0.01)
        pds = [p.p_d for p in curve.points]
        assert all(b > a for a, b in zip(pds, pds[1:]))
        assert pds[0] == 0.0 and pds[-1] == pytest.approx(0.375)

    def test_sum_at_threshold(self):
        root = an.find_security_threshold()
        s = an.mutual_info_ab(root) + an.mutual_info_ae(root)
        assert s == pytest.approx(2 * an.mutual_info_ab(root), abs=1e-8)
        assert s == pytest.approx(0.328, abs=1e-3)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            an.security_curve(0.0)
        with pytest.raises(ValueError):
            an.security_curve(0.4)


class TestEmpiricalMutualInformation:
    def test_perfectly_correlated(self):
        assert an.empirical_mutual_information([[500, 0], [0, 500]]) == pytest.approx(1.0)

    def test_independent_uniform(self):
        assert an.empirical_mutual_information([[250, 250], [250, 250]]) == pytest.approx(0.0)

    def test_bsc_consistency(self):
        rng = np.random.default_rng(23)
        n = 1_000_000
        x = rng.integers(0, 2, n)
        y = x ^ (rng.random(n) < 0.25).astype(int)
        table = [[np.sum((x == a) & (y == b)) for b in (0, 1)] for a in (0, 1)]
        want = 1 - an.binary_entropy(0.25)
        assert an.empirical_mutual_information(table) == pytest.approx(want, abs=0.01)

    def test_rejects_empty_and_bad_shape(self):
        with pytest.raises(ValueError):
            an.empirical_mutual_information([[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            an.empirical_mutual_information([[1, 2, 3], [4, 5, 6]])

    def test_security_point_invariants(self):
        for p_d in (0.0, 0.1, 0.266188, 0.375):
            pt = an.SecurityPoint.at(p_d)
            assert pt.i_ab == pytest.approx(1 - an.binary_entropy(p_d), abs=1e-12)
            assert pt.i_ae == pytest.approx(1 - an.binary_entropy(pt.p_e), abs=1e-12)
            assert 0.0 <= pt.i_ab <= 1.0 and 0.0 <= pt.i_ae <= 1.0
