"""Unit and property tests for the state-vector engine."""
import numpy as np
import pytest

from faraday_qkd import qstate as qs

from oracles import eq_ket, fid

RNG = np.random.default_rng(20240811)


def rand_state(n, rng=RNG):
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return qs.StateVector(n, v / np.linalg.norm(v))


class TestEquatorAngle:
    def test_reduced_mod_2pi(self):
        a = qs.EquatorAngle(7.0 * np.pi)
        assert abs(a.value - np.pi) < 1e-12

    def test_bar_is_antipodal(self):
        a = qs.EquatorAngle(0.3)
        assert abs(a.bar().value - (0.3 + np.pi)) < 1e-12

    def test_float_coercion(self):
        assert float(qs.EquatorAngle(1.25)) == pytest.approx(1.25)


class TestMakeEquatorState:
    def test_phi_zero(self):
        s = qs.make_equator_state(0.0)
        assert np.allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_phi_pi(self):
        s = qs.make_equator_state(np.pi)
        assert np.allclose(s.amplitudes, [1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_antipodal_states_orthogonal(self):
        for phi in RNG.uniform(0, 2 * np.pi, 20):
            a = qs.make_equator_state(phi)
            b = qs.make_equator_state(phi + np.pi)
            assert abs(qs.inner_product(a, b)) < 1e-12


class TestQfr:
    def test_action_on_home_zero_times_equator(self):
        # conditional quarter-turn: e^{-ipi/4}|up>|phi+pi/2> + e^{+ipi/4}|dn>|phi-pi/2>
        for phi in RNG.uniform(0, 2 * np.pi, 10):
            s = qs.tensor(qs.make_equator_state(0.0), qs.make_equator_state(phi))
            got = qs.apply_qfr(s, 0, 1)
            want = (np.exp(-1j * np.pi / 4) * np.kron(eq_ket(phi + np.pi / 2), [1, 0])
                    + np.exp(1j * np.pi / 4) * np.kron(eq_ket(phi - np.pi / 2), [0, 1])) / np.sqrt(2)
            assert np.allclose(got.amplitudes, want, atol=1e-12)

    def test_aligned_basis_state_gets_global_phase(self):
        s = qs.StateVector(2, [1, 0, 0, 0])
        got = qs.apply_qfr(s, 0, 1)
        assert np.allclose(got.amplitudes, [np.exp(-1j * np.pi / 4), 0, 0, 0])

    def test_twice_matches_direct_diagonal(self):
        # independent oracle: elementwise exponential of the kron'd z diagonal
        zz = np.kron(np.array([1, -1]), np.array([1, -1]))
        direct = np.diag(np.exp(-1j * np.pi / 2 * zz))
        for _ in range(5):
            s = rand_state(2)
            got = qs.apply_qfr(qs.apply_qfr(s, 0, 1), 0, 1)
            assert np.allclose(got.amplitudes, direct @ s.amplitudes, atol=1e-12)

    def test_rejects_bad_indices(self):
        s = rand_state(2)
        with pytest.raises(ValueError):
            qs.apply_qfr(s, 0, 0)
        with pytest.raises(ValueError):
            qs.apply_qfr(s, 0, 5)

    def test_commutes_on_disjoint_pairs(self):
        s = rand_state(4)
        ab = qs.apply_qfr(qs.apply_qfr(s, 0, 1), 2, 3)
        ba = qs.apply_qfr(qs.apply_qfr(s, 2, 3), 0, 1)
        assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) < 1e-12


class TestPauliX:
    def test_flip(self):
        s = qs.StateVector(1, [1, 0])
        assert np.allclose(qs.apply_pauli_x(s, 0).amplitudes, [0, 1])

    def test_involution(self):
        s = rand_state(3)
        back = qs.apply_pauli_x(qs.apply_pauli_x(s, 1), 1)
        assert np.allclose(back.amplitudes, s.amplitudes)

    def test_on_equator_state_matches_matrix(self):
        x = np.array([[0, 1], [1, 0]])
        for phi in RNG.uniform(0, 2 * np.pi, 10):
            s = qs.make_equator_state(phi)
            got = qs.apply_pauli_x(s, 0)
            assert np.allclose(got.amplitudes, x @ s.amplitudes)
            # up to the phase e^{i phi} this is the mirrored equator state
            assert fid(got.amplitudes, eq_ket(-phi)) == pytest.approx(1.0, abs=1e-12)


class TestMeasurement:
    def test_equator_eigenstates_are_deterministic(self):
        rng = np.random.default_rng(5)
        for phi in RNG.uniform(0, 2 * np.pi, 8):
            plus = qs.make_equator_state(phi)
            minus = qs.make_equator_state(phi + np.pi)
            out, _ = qs.measure_equator(plus, 0, phi, rng)
            assert out == +1
            out, _ = qs.measure_equator(minus, 0, phi, rng)
            assert out == -1

    def test_equator_born_frequency_on_up(self):
        rng = np.random.default_rng(7)
        n = 10_000
        hits = sum(qs.measure_equator(qs.StateVector(1, [1, 0]), 0, 0.37, rng)[0] == 1
                   for _ in range(n))
        # |<phi|up>|^2 = 1/2; allow 3 sigma
        assert abs(hits / n - 0.5) < 3 * 0.5 / np.sqrt(n)

    def test_z_deterministic(self):
        rng = np.random.default_rng(11)
        assert qs.measure_z(qs.StateVector(1, [1, 0]), 0, rng)[0] == +1
        assert qs.measure_z(qs.StateVector(1, [0, 1]), 0, rng)[0] == -1

    def test_z_born_frequency(self):
        rng = np.random.default_rng(13)
        n = 10_000
        hits = sum(qs.measure_z(qs.make_equator_state(0.0), 0, rng)[0] == 1
                   for _ in range(n))
        assert abs(hits / n - 0.5) < 3 * 0.5 / np.sqrt(n)

    def test_collapse_is_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            s = rand_state(3)
            phi = rng.uniform(0, 2 * np.pi)
            out1, collapsed = qs.measure_equator(s, 1, phi, rng)
            out2, again = qs.measure_equator(collapsed, 1, phi, rng)
            assert out2 == out1
            assert fid(again.amplitudes, collapsed.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_outcome_probabilities_sum_to_one(self):
        s = rand_state(2)
        a = s.amplitudes.reshape(2, 2)
        p0 = np.sum(np.abs(a[:, 0]) ** 2)
        p1 = np.sum(np.abs(a[:, 1]) ** 2)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


class TestTensorAndOverlaps:
    def test_tensor_ordering(self):
        a = qs.StateVector(1, [0.6, 0.8])
        b = qs.StateVector(1, [1.0, 0.0])
        t = qs.tensor(a, b)
        assert t.num_qubits == 2
        # amplitude of |i_a, i_b> sits at index i_a + 2*i_b
        for ia in (0, 1):
            for ib in (0, 1):
                assert t.amplitudes[ia + 2 * ib] == pytest.approx(
                    a.amplitudes[ia] * b.amplitudes[ib])

    def test_fidelity_global_phase_invariant(self):
        for theta in RNG.uniform(0, 2 * np.pi, 10):
            s = rand_state(2)
            rotated = qs.StateVector(2, np.exp(1j * theta) * s.amplitudes)
            assert qs.fidelity_up_to_global_phase(s, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_equator_inner_product_closed_form(self):
        for _ in range(50):
            a, b = RNG.uniform(0, 2 * np.pi, 2)
            got = qs.inner_product(qs.make_equator_state(a), qs.make_equator_state(b))
            assert got == pytest.approx((1 + np.exp(1j * (b - a))) / 2, abs=1e-12)


class TestReducedDensity:
    def test_product_state_is_pure(self):
        s = qs.tensor(rand_state(1), rand_state(2))
        rho = qs.reduced_density(s, [0])
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_bell_marginal_is_maximally_mixed(self):
        bell = qs.StateVector(2, np.array([0, 1, 1, 0]) / np.sqrt(2))  # ud + du
        for q in (0, 1):
            rho = qs.reduced_density(bell, [q])
            assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)
            assert rho.purity() == pytest.approx(0.5, abs=1e-12)

    def test_travel_qubit_maximally_entangled_after_step3(self):
        from faraday_qkd.protocol import state_after_step3
        for alpha in RNG.uniform(0, 2 * np.pi, 10):
            rho = qs.reduced_density(state_after_step3(alpha), [1])
            assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-10)

    def test_single_qubit_marginal_purity_bounds(self):
        for _ in range(20):
            s = rand_state(3)
            for q in range(3):
                p = qs.reduced_density(s, [q]).purity()
                assert 0.5 - 1e-10 <= p <= 1.0 + 1e-10

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            qs.reduced_density(rand_state(2), [])


class TestTraceDistance:
    def test_identical_states(self):
        rho = qs.reduced_density(rand_state(2), [0])
        assert qs.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        r0 = qs.reduced_density(qs.StateVector(1, [1, 0]), [0])
        r1 = qs.reduced_density(qs.StateVector(1, [0, 1]), [0])
        assert qs.trace_distance(r0, r1) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_identity(self):
        # for pure states T = sqrt(1 - |<a|b>|^2)
        for _ in range(20):
            a, b = RNG.uniform(0, 2 * np.pi, 2)
            sa, sb = qs.make_equator_state(a), qs.make_equator_state(b)
            ra = qs.reduced_density(sa, [0])
            rb = qs.reduced_density(sb, [0])
            want = np.sqrt(1 - abs(qs.inner_product(sa, sb)) ** 2)
            assert qs.trace_distance(ra, rb) == pytest.approx(want, abs=1e-10)

    def test_symmetry_and_triangle(self):
        rhos = [qs.reduced_density(rand_state(2), [0, 1]) for _ in range(3)]
        t01 = qs.trace_distance(rhos[0], rhos[1])
        t12 = qs.trace_distance(rhos[1], rhos[2])
        t02 = qs.trace_distance(rhos[0], rhos[2])
        assert t01 == pytest.approx(qs.trace_distance(rhos[1], rhos[0]), abs=1e-12)
        assert t02 <= t01 + t12 + 1e-9

    def test_rejects_non_hermitian(self):
        rho = qs.reduced_density(rand_state(1), [0])
        bad = qs.DensityMatrix(2, np.eye(2) / 2)
        bad.entries = np.array([[0.5, 0.3], [0.1, 0.5]])
        with pytest.raises(ValueError):
            qs.trace_distance(rho, bad)


class TestDensityMatrixValidation:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            qs.DensityMatrix(2, np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            qs.DensityMatrix(2, np.diag([1.5, -0.5]))


class TestNormPreservation:
    def test_gates_preserve_norm(self):
        s = rand_state(4)
        for op in (lambda t: qs.apply_qfr(t, 0, 3),
                   lambda t: qs.apply_pauli_x(t, 2),
                   lambda t: qs.apply_1q_unitary(t, 1, qs.basis_rotation(0.9))):
            assert abs(op(s).norm() - 1.0) < 1e-10

    def test_register_size_guard(self):
        with pytest.raises(ValueError):
            qs.StateVector(13, np.zeros(2 ** 13))
