"""The entangling attack: state closed form, subspace structure, detection
statistics, and Eve's two-stage inference."""
import numpy as np
import pytest

import faraday_qkd.protocol as proto
from faraday_qkd import (
    EquatorAngle,
    EveDiscriminator,
    GeneralAttackSpec,
    analysis,
    batch,
    build_subspace_decomposition,
    eve_infer_keys,
    general_attack_hooks,
    harness,
    intercept_resend_hooks,
    make_ancilla_pair,
)
from faraday_qkd import qstate as qs

from oracles import (
    attack_final_state,
    discriminator_m_up,
    eq_ket,
    fid,
    keyed_rng,
    kron_le,
    sextet,
)

RNG = np.random.default_rng(424242)


def spec_of(gamma, cx, cy):
    return GeneralAttackSpec(EquatorAngle(gamma), cx, cy)


def mc_detection(seed, n, attack_params):
    u = harness.round_uniforms(seed, 0, n, 8 if attack_params["kind"] == "general" else 10)
    cols = batch.protocol_rounds(u, attack_params)
    return float(np.mean(cols["k_alice_odd"] != cols["k_bob_odd"])), cols


def general_params(gamma, cx, cy):
    disc = EveDiscriminator(spec_of(gamma, cx, cy))
    return {"kind": "general", "gamma": gamma, "cx": cx, "cy": cy, "povm_up": disc.m_up}


class TestAncillaPair:
    def test_overlap_one_is_identity(self):
        v0, v1 = make_ancilla_pair(1.0)
        assert np.allclose(v0, v1)

    def test_overlap_zero_is_orthogonal(self):
        v0, v1 = make_ancilla_pair(0.0)
        assert abs(np.vdot(v0, v1)) < 1e-15

    def test_overlap_exact(self):
        v0, v1 = make_ancilla_pair(0.6)
        assert np.vdot(v0, v1) == pytest.approx(0.6, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_ancilla_pair(1.2)


class TestHooks:
    def test_hooks_are_isometries(self):
        hooks = general_attack_hooks(spec_of(0.8, 0.37, 0.62))
        t, state = proto.run_round(1, keyed_rng(1, 0), hooks=hooks, return_state=True)
        assert state.num_qubits == 8
        assert abs(state.norm() - 1.0) < 1e-10

    def test_overlap_one_factors_out(self):
        # ancillae stay in |0> and the travel qubits are untouched
        box = []
        hooks = general_attack_hooks(spec_of(0.5, 1.0, 1.0))
        hooks.append(proto.ChannelHook(proto.LEG_D_TO_BOB,
                                       lambda s, rng: (box.append(s.copy()), s)[1]))
        proto.run_round(1, keyed_rng(2, 0), hooks=hooks)
        g = keyed_rng(2, 0)
        alpha, beta = 2 * np.pi * g.random(), 2 * np.pi * g.random()
        from oracles import state_eq6
        want = kron_le([state_eq6(alpha, beta), [1, 0], [1, 0], [1, 0], [1, 0]])
        assert fid(box[-1].amplitudes, want) >= 1 - 1e-10

    def test_final_state_matches_closed_form(self):
        # the sextet expansion is exact, unbalanced overlaps included
        for _ in range(10):
            alpha, beta, gamma = RNG.uniform(0, 2 * np.pi, 3)
            cx, cy = RNG.uniform(0, 1, 2)
            box = []
            hooks = general_attack_hooks(spec_of(gamma, cx, cy))
            hooks.append(proto.ChannelHook(proto.LEG_D_TO_BOB,
                                           lambda s, rng: (box.append(s.copy()), s)[1]))

            class _FixedAngles:
                def __init__(self, a, b):
                    self.vals = [a / (2 * np.pi), b / (2 * np.pi)]
                def random(self):
                    return self.vals.pop(0) if self.vals else 0.5

            proto.run_round(1, _FixedAngles(alpha, beta), hooks=hooks)
            want = attack_final_state(alpha, beta, gamma, cx, cy)
            assert fid(box[-1].amplitudes, want) >= 1 - 1e-9


class TestSubspaceDecomposition:
    def test_orthogonality_balanced(self):
        for _ in range(50):
            at = RNG.uniform(0, 2 * np.pi)
            c = RNG.uniform(0, 1)
            dec = build_subspace_decomposition(at, RNG.uniform(0, 2 * np.pi), spec_of(0.0, c, c))
            for vs in (False, True):
                for i, j in ((1, 4), (1, 5), (1, 6), (4, 1), (4, 2), (4, 3)):
                    assert abs(dec.overlap(i, j, primed=vs)) < 1e-10

    def test_orthogonality_defect_unbalanced(self):
        # with distinct overlaps the cross-block inner products are the
        # closed forms 2(cy - cx) and +-cos(angle)(cy - cx)
        for _ in range(20):
            at = RNG.uniform(0, 2 * np.pi)
            cx, cy = RNG.uniform(0, 1, 2)
            dec = build_subspace_decomposition(at, at, spec_of(0.0, cx, cy))
            assert dec.overlap(1, 4) == pytest.approx(2 * (cy - cx), abs=1e-10)
            assert dec.overlap(1, 5) == pytest.approx(np.cos(at) * (cy - cx), abs=1e-10)
            assert dec.overlap(1, 6) == pytest.approx(-np.cos(at) * (cy - cx), abs=1e-10)
            assert dec.overlap(4, 2) == pytest.approx(-np.cos(at) * (cy - cx), abs=1e-10)
            assert dec.overlap(4, 3) == pytest.approx(np.cos(at) * (cy - cx), abs=1e-10)

    def test_normalized_overlap_floor(self):
        # <2|5> = <3|6> and <2|6> = <3|5>, all at least min(cx, cy)
        for _ in range(50):
            at = RNG.uniform(0, 2 * np.pi)
            cx, cy = RNG.uniform(0, 1, 2)
            dec = build_subspace_decomposition(at, at, spec_of(0.0, cx, cy))
            floor = min(cx, cy) - 1e-10
            o25 = dec.normalized_overlap(2, 5).real
            o36 = dec.normalized_overlap(3, 6).real
            o26 = dec.normalized_overlap(2, 6).real
            o35 = dec.normalized_overlap(3, 5).real
            assert o25 == pytest.approx(o36, abs=1e-12)
            assert o26 == pytest.approx(o35, abs=1e-12)
            assert min(o25, o26) >= floor

    def test_orthogonal_case_reduces_to_products(self):
        dec = build_subspace_decomposition(np.pi / 2, np.pi / 2, spec_of(0.0, 0.0, 0.0))
        e0, e1 = make_ancilla_pair(0.0)
        h0, h1 = make_ancilla_pair(0.0)
        t = lambda a, b: np.kron(b, a)
        assert np.allclose(dec.vectors[2], 0.5 * (t(e0, h0) + t(e1, h1)), atol=1e-12)
        assert np.allclose(dec.vectors[3], dec.vectors[2], atol=1e-12)
        assert np.allclose(dec.vectors[5], 0.5 * (t(e0, h1) + t(e1, h0)), atol=1e-12)
        assert np.allclose(dec.vectors[6], dec.vectors[5], atol=1e-12)
        # the four building blocks are mutually orthogonal with weight 1/2
        blocks = [t(e0, h0), t(e1, h1), t(e0, h1), t(e1, h0)]
        gram = np.array([[np.vdot(x, y) for y in blocks] for x in blocks])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_matches_oracle_sextet(self):
        at, cx, cy = 1.234, 0.4, 0.9
        dec = build_subspace_decomposition(at, 0.5, spec_of(0.0, cx, cy))
        want = sextet(at, cx, cy)
        for i in range(1, 7):
            assert np.allclose(dec.vectors[i], want[i], atol=1e-12)


class TestDetectionStatistics:
    def test_no_attack_limit(self):
        pd, _ = mc_detection(11, 10_000, general_params(0.3, 1.0, 1.0))
        assert pd == 0.0

    def test_intercept_limit(self):
        pd, _ = mc_detection(12, 30_000, general_params(0.3, 0.0, 0.0))
        sigma = np.sqrt(0.375 * 0.625 / 30_000)
        assert abs(pd - 0.375) < 3 * sigma

    @pytest.mark.parametrize("c", [0.25, 0.5, 0.75])
    def test_balanced_grid_small(self, c):
        want = analysis.detection_probability(c, c)
        pd, _ = mc_detection(13 + int(100 * c), 20_000, general_params(0.7, c, c))
        sigma = np.sqrt(want * (1 - want) / 20_000)
        assert abs(pd - want) < 4 * sigma

    @pytest.mark.slow
    @pytest.mark.parametrize("c", list(np.round(np.linspace(0, 1, 11), 2)))
    def test_balanced_grid_full(self, c):
        want = analysis.detection_probability(c, c)
        pd, _ = mc_detection(17 + int(100 * c), 100_000, general_params(0.7, c, c))
        sigma = np.sqrt(max(want * (1 - want), 1e-9) / 100_000)
        assert abs(pd - want) < max(3 * sigma, 1e-4)

    def test_unbalanced_attack_exceeds_balanced_formula(self):
        # the balanced-case closed form underestimates an unbalanced attack;
        # the simulated rate is (3 - 2q - q^2)/8 with q = cx * cy
        cx, cy = 0.5, 0.8
        want = analysis.simulated_detection_probability(cx, cy)
        pd, _ = mc_detection(19, 50_000, general_params(0.4, cx, cy))
        sigma = np.sqrt(want * (1 - want) / 50_000)
        assert abs(pd - want) < 3 * sigma
        assert pd - analysis.detection_probability(cx, cy) > 3 * sigma

    def test_gamma_independence(self):
        pds = []
        for i, g in enumerate((0.0, np.pi / 3, 1.1 * np.pi)):
            pd, _ = mc_detection(23 + i, 30_000, general_params(g, 0.5, 0.5))
            pds.append(pd)
        sigma = np.sqrt(0.3047 * (1 - 0.3047) / 30_000)
        for a in pds:
            for b in pds:
                assert abs(a - b) < 3 * np.sqrt(2) * sigma

    def test_intercept_equals_general_overlap_zero(self):
        pd_i, _ = mc_detection(29, 30_000, {"kind": "intercept", "gamma": 0.9})
        pd_g, _ = mc_detection(31, 30_000, general_params(0.9, 0.0, 0.0))
        sigma = np.sqrt(0.375 * 0.625 / 30_000)
        assert abs(pd_i - pd_g) < 3 * np.sqrt(2) * sigma

    def test_intercept_aligned_basis_is_transparent(self):
        # with the travel qubit already in |gamma>, the outbound-leg
        # measurement is in its eigenbasis and leaves the state unchanged
        gamma = 1.37
        hooks = intercept_resend_hooks(gamma)
        for ket_angle in (gamma, gamma + np.pi):
            state = qs.product_state([eq_ket(0.2), eq_ket(1.1),
                                      eq_ket(ket_angle), eq_ket(2.2)])
            out = hooks[0].transform(state.copy(), np.random.default_rng(0))
            assert fid(out.amplitudes, state.amplitudes) >= 1 - 1e-12


class TestEveInference:
    def test_povm_is_valid(self):
        for cx, cy in ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.3, 0.8)):
            disc = EveDiscriminator(spec_of(0.1, cx, cy))
            for m in (disc.m_up, disc.m_dn):
                assert np.allclose(m, m.conj().T, atol=1e-10)
                assert np.linalg.eigvalsh(m).min() > -1e-9
            assert np.allclose(disc.m_up + disc.m_dn, np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("cx, cy", [(0.5, 0.5), (0.45, 0.45), (0.2, 0.8), (0.4, 0.7),
                                        (0.0, 0.0), (1.0, 1.0)])
    def test_m_up_matches_quadrature_loop(self, cx, cy):
        """The one-shot quadrature (every angle in one ``_sextet`` call and one
        einsum) gives the angle-by-angle loop's M_up to 1e-15."""
        m_up = EveDiscriminator(spec_of(0.3, cx, cy)).m_up
        assert np.max(np.abs(m_up - discriminator_m_up(cx, cy))) <= 1e-15

    def test_orthogonal_attack_reads_keys_perfectly(self):
        spec = spec_of(0.6, 0.0, 0.0)
        disc = EveDiscriminator(spec)
        hooks = general_attack_hooks(spec)
        for r in range(100):
            rng = keyed_rng(37, r)
            t, state = proto.run_round(r + 1, rng, hooks=hooks, return_state=True)
            ga, gb = eve_infer_keys(state, spec, rng, discriminator=disc)
            assert ga == t.alice_bits[1]

    def test_trivial_attack_learns_nothing(self):
        pd, cols = mc_detection(41, 10_000, general_params(0.2, 1.0, 1.0))
        acc = np.mean(cols["eve_guess_alice"] == cols["k_alice_even"])
        assert abs(acc - 0.5) < 3 * 0.5 / np.sqrt(10_000)

    @pytest.mark.parametrize("c,emp_floor", [(0.2, 0.85), (0.5, 0.40), (0.8, 0.09)])
    def test_empirical_information_exceeds_analytic_curve(self, c, emp_floor):
        """The two-stage strategy extracts far more about the home bits than
        the analytic I(A,E) curve allows: the stage-one projections are
        certainties, and at small overlap even one ancilla pair is nearly
        perfectly distinguishable (at overlap c a single-pair measurement
        errs at (1 - sqrt(1 - c^2))/2).  The analytic curve is therefore not
        an upper envelope for this simulation; acceptance criterion 7 records
        the discrepancy."""
        _, cols = mc_detection(43 + int(10 * c), 10_000, general_params(0.5, c, c))
        table = np.zeros((2, 2))
        for a in (0, 1):
            for e in (0, 1):
                table[a, e] = np.sum((cols["k_alice_even"] == a)
                                     & (cols["eve_guess_alice"] == e))
        i_emp = analysis.empirical_mutual_information(table)
        i_bound = analysis.mutual_info_ae(analysis.detection_probability(c, c))
        assert i_emp > i_bound        # exceeds the curve at every sampled c
        assert i_emp >= emp_floor     # pinned from the seeded runs

    def test_requires_full_register(self):
        with pytest.raises(ValueError):
            eve_infer_keys(qs.make_equator_state(0.1), spec_of(0, 0.5, 0.5),
                           np.random.default_rng(0))
