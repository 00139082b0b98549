"""Unit and property tests for the state-vector engine."""
import numpy as np
import pytest

from faraday_qkd import qstate as qs

from oracles import eq_ket, fid, kron_le, partial_trace

RNG = np.random.default_rng(20240811)


def rand_state(n, rng=RNG):
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return qs.StateVector(n, v / np.linalg.norm(v))


class TestEquatorAngle:
    def test_reduced_mod_2pi(self):
        a = qs.EquatorAngle(7.0 * np.pi)
        assert abs(a.value - np.pi) < 1e-12

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
            assert abs(np.vdot(a.amplitudes, b.amplitudes)) < 1e-12


class TestQfr:
    def test_action_on_home_zero_times_equator(self):
        # conditional quarter-turn: e^{-ipi/4}|up>|phi+pi/2> + e^{+ipi/4}|dn>|phi-pi/2>
        for phi in RNG.uniform(0, 2 * np.pi, 10):
            s = qs.product_state([qs.make_equator_state(0.0), qs.make_equator_state(phi)])
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
        t = qs.product_state([a, b])
        assert t.num_qubits == 2
        # amplitude of |i_a, i_b> sits at index i_a + 2*i_b
        for ia in (0, 1):
            for ib in (0, 1):
                assert t.amplitudes[ia + 2 * ib] == pytest.approx(
                    a.amplitudes[ia] * b.amplitudes[ib])

    def test_equator_inner_product_closed_form(self):
        for _ in range(50):
            a, b = RNG.uniform(0, 2 * np.pi, 2)
            got = np.vdot(qs.make_equator_state(a).amplitudes, qs.make_equator_state(b).amplitudes)
            assert got == pytest.approx((1 + np.exp(1j * (b - a))) / 2, abs=1e-12)


class TestReducedDensity:
    def test_product_state_is_pure(self):
        s = qs.product_state([rand_state(1), rand_state(2)])
        rho = qs.reduced_density(s, [0])
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_bell_marginal_is_maximally_mixed(self):
        bell = qs.StateVector(2, np.array([0, 1, 1, 0]) / np.sqrt(2))  # ud + du
        for q in (0, 1):
            rho = qs.reduced_density(bell, [q])
            assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)
            assert rho.purity() == pytest.approx(0.5, abs=1e-12)

    def test_travel_qubit_maximally_entangled_after_step3(self):
        for alpha in RNG.uniform(0, 2 * np.pi, 10):
            s = qs.product_state([qs.equator_ket(0.0), qs.equator_ket(alpha)])
            rho = qs.reduced_density(qs.apply_qfr(s, 0, 1), [1])
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

    @pytest.mark.parametrize("n, keep", [
        *((n, tuple(q for q in range(n) if mask >> q & 1))
          for n in range(1, 6) for mask in range(1, 2 ** n)),
        (8, (4, 5)), (8, (6, 7)), (8, (4, 5, 6, 7)), (10, (6, 7, 8, 9)),
    ])
    def test_matches_dense_partial_trace(self, n, keep):
        """Every keep subset up to 5 qubits, Eve's ancilla pairs and the PNS
        kinds' Eve photons, against the kron_le partial trace."""
        s = rand_state(n)
        got = qs.reduced_density(s, keep).entries
        assert np.max(np.abs(got - partial_trace(s.amplitudes, n, keep))) < 1e-14


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
            want = np.sqrt(1 - abs(np.vdot(sa.amplitudes, sb.amplitudes)) ** 2)
            assert qs.trace_distance(ra, rb) == pytest.approx(want, abs=1e-10)

    def test_symmetry_and_triangle(self):
        rhos = [qs.reduced_density(rand_state(2), [0, 1]) for _ in range(3)]
        t01 = qs.trace_distance(rhos[0], rhos[1])
        t12 = qs.trace_distance(rhos[1], rhos[2])
        t02 = qs.trace_distance(rhos[0], rhos[2])
        assert t01 == pytest.approx(qs.trace_distance(rhos[1], rhos[0]), abs=1e-12)
        assert t02 <= t01 + t12 + 1e-9

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            qs.trace_distance(qs.reduced_density(rand_state(1), [0]),
                              qs.reduced_density(rand_state(2), [0, 1]))

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

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            qs.DensityMatrix(4, np.eye(2) / 2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            qs.DensityMatrix(2, np.array([[0.5, 0.3], [0.1, 0.5]]))


def decided_register(n, q, ket):
    """n-qubit register with qubit q exactly in the 2-vector ket (in exact
    arithmetic) and a random state on the other qubits."""
    rest = rand_state(n - 1).amplitudes if n > 1 else np.ones(1, dtype=complex)
    amps = rest.reshape(-1, 1, 1 << q) * np.asarray(ket)[:, None]
    return qs.StateVector(n, amps.reshape(-1))


class TestBornRuleEdges:
    """A qubit whose outcome is certain (p0 exactly 0 or 1) collapses to a
    finite, unit-norm ket even at the extreme draws 0.0 and 1 - 2**-53, and
    gives the certain outcome wherever the other branch's computed weight is
    exactly 0.  In the equator basis that weight is a rounding residue
    (below 1e-30), which only the draw 0.0 can select."""

    DRAWS = (0.0, 1.0 - 2.0 ** -53)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_measure_z(self, n):
        for q in range(n):
            for outcome, ket in ((+1, [1.0, 0.0]), (-1, [0.0, 1.0])):
                s = decided_register(n, q, ket)
                for draw in self.DRAWS:
                    got_outcome, got = qs.measure_z(s, q, Draw(draw))
                    assert got_outcome == outcome
                    assert np.all(np.isfinite(got.amplitudes))
                    assert abs(np.linalg.norm(got.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_measure_equator(self, n):
        for q in range(n):
            phi = RNG.uniform(0, 2 * np.pi)
            for outcome, ket in ((+1, eq_ket(phi)), (-1, eq_ket(phi + np.pi))):
                s = decided_register(n, q, ket)
                for draw in self.DRAWS:
                    got_outcome, got = qs.measure_equator(s, q, phi, Draw(draw))
                    assert got_outcome == outcome or draw == 0.0
                    assert np.all(np.isfinite(got.amplitudes))
                    assert abs(np.linalg.norm(got.amplitudes) - 1.0) < 1e-12


def read_only(v):
    v.flags.writeable = False
    return v


class TestStateVectorCast:
    """Any array-like input ends up as 1-D complex128 amplitudes; both guards
    fire whatever the input's form."""

    FORMS = {
        "list": lambda v: v.tolist(),
        "float64": lambda v: v.real.copy(),
        "complex 2-D": lambda v: v[None, :],
        "complex64": lambda v: v.astype(np.complex64),
        "read-only complex128": lambda v: read_only(v.copy()),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_cast_to_flat_complex128(self, form):
        v = np.array([0.5, -0.5, 0.5, 0.5], dtype=complex)    # exact in every form
        s = qs.StateVector(2, self.FORMS[form](v))
        assert type(s.amplitudes) is np.ndarray
        assert s.amplitudes.dtype == np.complex128 and s.amplitudes.shape == (4,)
        assert np.array_equal(s.amplitudes, v)

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_guards_fire(self, form):
        with pytest.raises(ValueError, match="amplitude length"):
            qs.StateVector(2, self.FORMS[form](np.zeros(8, dtype=complex)))
        with pytest.raises(ValueError, match="register size"):
            qs.StateVector(0, self.FORMS[form](np.ones(1, dtype=complex)))
        with pytest.raises(ValueError, match="register size"):
            qs.StateVector(13, self.FORMS[form](np.zeros(2 ** 13, dtype=complex)))

    @pytest.mark.parametrize("writeable", (True, False))
    def test_flat_complex128_is_shared(self, writeable):
        v = np.array([0.6, 0.0, 0.0, 0.8j])
        v.flags.writeable = writeable
        s = qs.StateVector(2, v)
        assert np.shares_memory(s.amplitudes, v)
        assert s.amplitudes.flags.writeable == writeable


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

    def test_amplitude_length_guard(self):
        with pytest.raises(ValueError, match="amplitude length"):
            qs.StateVector(2, np.zeros(8))

    def test_controlled_gate_needs_two_qubits(self):
        with pytest.raises(ValueError, match="must differ"):
            qs.apply_controlled_unitary(rand_state(2), 1, 1, qs.basis_rotation(0.4))


SIZES = (1, 2, 3, 4, 5, 6, 8)
P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])
Z = np.diag([1.0, -1.0])


def dense(n, q, op):
    """2^n matrix of the 2x2 operator op on qubit q, little-endian."""
    return np.kron(np.kron(np.eye(2 ** (n - 1 - q)), op), np.eye(2 ** q))


def rand_unitary(rng=RNG):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return np.linalg.qr(m)[0]


class Draw:
    """Stub generator: random() returns a fixed value, forcing the outcome
    (0.0 keeps outcome +1 on a state with p0 > 0, 1.0 forces -1)."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def pairs(n):
    return [(c, t) for c in range(n) for t in range(n) if c != t]


class TestDenseOracle:
    """Every primitive against its full 2^n matrix (or ket), to 1e-12."""

    @pytest.mark.parametrize("n", SIZES)
    def test_single_qubit_gates(self, n):
        for q in range(n):
            s, u = rand_state(n), rand_unitary()
            got = qs.apply_1q_unitary(s, q, u).amplitudes
            assert np.max(np.abs(got - dense(n, q, u) @ s.amplitudes)) < 1e-12
            got = qs.apply_pauli_x(s, q).amplitudes
            x = np.array([[0, 1], [1, 0]])
            assert np.max(np.abs(got - dense(n, q, x) @ s.amplitudes)) < 1e-12

    @pytest.mark.parametrize("n", SIZES[1:])
    def test_two_qubit_gates(self, n):
        for c, t in pairs(n):
            s, u = rand_state(n), rand_unitary()
            want = (dense(n, c, P0) + dense(n, c, P1) @ dense(n, t, u)) @ s.amplitudes
            got = qs.apply_controlled_unitary(s, c, t, u).amplitudes
            assert np.max(np.abs(got - want)) < 1e-12
            zz = dense(n, c, Z) @ dense(n, t, Z)
            want = (np.eye(2 ** n) - 1j * zz) / np.sqrt(2) @ s.amplitudes
            assert np.max(np.abs(qs.apply_qfr(s, c, t).amplitudes - want)) < 1e-12

    @pytest.mark.parametrize("n", SIZES)
    def test_append_and_product(self, n):
        s, ket = rand_state(n), rand_state(1)
        got = qs.append_qubit(s, ket)
        assert got.num_qubits == n + 1
        assert np.max(np.abs(got.amplitudes - np.kron(ket.amplitudes, s.amplitudes))) < 1e-12
        up = qs.append_qubit(s).amplitudes
        assert np.max(np.abs(up - np.kron([1, 0], s.amplitudes))) < 1e-12
        factors = [rand_state(1).amplitudes for _ in range(n)]
        assert np.max(np.abs(qs.product_state(factors).amplitudes - kron_le(factors))) < 1e-12
        if n > 1:
            mixed = [rand_state(1), rand_state(n - 1)]
            want = np.kron(mixed[1].amplitudes, mixed[0].amplitudes)
            got = qs.product_state(mixed)
            assert got.num_qubits == n
            assert np.max(np.abs(got.amplitudes - want)) < 1e-12

    @pytest.mark.parametrize("n", SIZES)
    def test_measurements_collapse_onto_projector(self, n):
        for q in range(n):
            s = rand_state(n)
            phi = RNG.uniform(0, 2 * np.pi)
            plus, minus = eq_ket(phi), eq_ket(phi + np.pi)
            cases = [
                (lambda rng: qs.measure_z(s, q, rng), P0, P1),
                (lambda rng: qs.measure_equator(s, q, phi, rng),
                 np.outer(plus, plus.conj()), np.outer(minus, minus.conj())),
            ]
            for measure, proj_plus, proj_minus in cases:
                for draw, outcome, proj in ((0.0, +1, proj_plus), (1.0, -1, proj_minus)):
                    got_outcome, got = measure(Draw(draw))
                    assert got_outcome == outcome
                    kept = dense(n, q, proj) @ s.amplitudes
                    want = kept / np.linalg.norm(kept)
                    assert np.max(np.abs(got.amplitudes - want)) < 1e-12


class TestFreshResult:
    """Every public operation returns a fresh StateVector and leaves its
    input untouched, even when the input's amplitudes are read-only."""

    OPS = {
        "apply_1q_unitary": lambda s: qs.apply_1q_unitary(s, 1, qs.basis_rotation(0.7)),
        "apply_pauli_x": lambda s: qs.apply_pauli_x(s, 2),
        "apply_controlled_unitary": lambda s: qs.apply_controlled_unitary(
            s, 2, 0, qs.basis_rotation(1.1)),
        "apply_qfr": lambda s: qs.apply_qfr(s, 0, 2),
        "append_qubit": lambda s: qs.append_qubit(s, qs.make_equator_state(0.4)),
        "product_state": lambda s: qs.product_state([s]),
        "product_state_pair": lambda s: qs.product_state([qs.make_equator_state(0.2), s]),
        "measure_z+": lambda s: qs.measure_z(s, 1, Draw(0.0))[1],
        "measure_z-": lambda s: qs.measure_z(s, 1, Draw(1.0))[1],
        "measure_equator+": lambda s: qs.measure_equator(s, 0, 0.9, Draw(0.0))[1],
        "measure_equator-": lambda s: qs.measure_equator(s, 0, 0.9, Draw(1.0))[1],
        "copy": lambda s: s.copy(),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_input_untouched(self, name):
        s = rand_state(3)
        before = s.amplitudes.copy()
        s.amplitudes.flags.writeable = False
        out = self.OPS[name](s)
        assert isinstance(out, qs.StateVector)
        assert np.array_equal(s.amplitudes, before)
        assert not np.shares_memory(out.amplitudes, s.amplitudes)
        out.amplitudes[0] = 5.0     # the result is the caller's to write

    def test_reduced_density_input_untouched(self):
        s = rand_state(3)
        before = s.amplitudes.copy()
        s.amplitudes.flags.writeable = False
        rho = qs.reduced_density(s, [0, 2])
        assert np.array_equal(s.amplitudes, before)
        assert not np.shares_memory(rho.entries, s.amplitudes)

    def test_cached_qfr_diagonal_is_read_only(self):
        s = rand_state(3)
        first = qs.apply_qfr(s, 0, 2)
        phases = qs._qfr_phases(3, 0, 2)
        assert phases is qs._qfr_phases(3, 0, 2)
        assert not phases.flags.writeable
        with pytest.raises(ValueError):
            phases[0] = 1.0
        assert not np.shares_memory(first.amplitudes, phases)
        first.amplitudes[:] = 0.0
        assert np.array_equal(qs.apply_qfr(s, 0, 2).amplitudes, s.amplitudes * phases)

    def test_cached_control_mask_is_read_only(self):
        mask = qs._control_mask(3, 1)
        assert mask is qs._control_mask(3, 1)
        assert not mask.flags.writeable
        assert mask.tolist() == [(i >> 1) & 1 == 1 for i in range(8)]
        out = qs.apply_controlled_unitary(rand_state(3), 1, 0, qs.basis_rotation(0.3))
        assert not np.shares_memory(out.amplitudes, mask)
