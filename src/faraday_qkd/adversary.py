"""Adversary models: entangling channel attacks, impersonation, photon splitting.

Layouts, gates and draw counts live in ``batch.SCENARIOS``.  The general
attack entangles each travel qubit with a fresh single-qubit ancilla twice
per trip.  The first-pass entangler distinguishes the basis
{|gamma>, |gamma+pi>}; the return-pass entangler uses the quarter-turn
shifted basis {|gamma+pi/2>, |gamma+3pi/2>}.  The shift co-rotates Eve's
analyzer with the conditional quarter-turn the travel qubit picked up at the
far station, so an overlap-1 (do-nothing) attack leaves every leg exactly
invariant and the ancilla bookkeeping stays aligned leg to leg.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import batch as _batch
from .batch import make_ancilla_pair
from .protocol import (
    LEG_C_TO_ALICE,
    LEG_C_TO_BOB,
    LEG_D_TO_ALICE,
    LEG_D_TO_BOB,
    ChannelHook,
)
from .qstate import (
    DensityMatrix,
    EquatorAngle,
    StateVector,
    append_qubit,
    apply_controlled_unitary,
    apply_1q_unitary,
    apply_qfr,
    basis_rotation,
    equator_ket,
    measure_equator,
    product_state,
    reduced_density,
)


@dataclass(frozen=True)
class GeneralAttackSpec:
    """Parameters of the two-ancillas-per-travel-qubit entangling attack.

    The non-disturbance condition pins the direct amplitudes (|e|=1, |f|=0),
    leaving Eve the basis angle gamma and the two ancilla overlaps
    cos x = <eps00|eps11> (first pass) and cos y = <eta00|eta11> (return
    pass).  The primed ancillae reuse the same overlaps.
    """

    gamma: EquatorAngle
    overlap_c_x: float
    overlap_c_y: float

    def __post_init__(self):
        if not isinstance(self.gamma, EquatorAngle):
            object.__setattr__(self, "gamma", EquatorAngle(self.gamma))
        for c in (self.overlap_c_x, self.overlap_c_y):
            if not (0.0 <= c <= 1.0):
                raise ValueError("ancilla overlaps must lie in [0, 1]")


def _attack_hook(leg: str, travel: int, basis_angle: float, c: float) -> ChannelHook:
    v = basis_rotation(basis_angle)
    # R_y rotates the fresh ancilla |0> onto the pair's second ket
    _, (c0, s0) = make_ancilla_pair(c)
    ry = np.array([[c0, -s0], [s0, c0]])

    def transform(state: StateVector, rng) -> StateVector:
        state = append_qubit(state)
        anc = state.num_qubits - 1
        state = apply_1q_unitary(state, travel, v.conj().T)
        state = apply_controlled_unitary(state, travel, anc, ry)
        return apply_1q_unitary(state, travel, v)

    return ChannelHook(leg, transform)


def general_attack_hooks(spec: GeneralAttackSpec):
    """Four channel hooks appending ancillae E, F, E', F' in firing order."""
    g = float(spec.gamma)
    return [
        _attack_hook(LEG_C_TO_BOB, 2, g, spec.overlap_c_x),
        _attack_hook(LEG_C_TO_ALICE, 2, g + np.pi / 2, spec.overlap_c_y),
        _attack_hook(LEG_D_TO_ALICE, 3, g, spec.overlap_c_x),
        _attack_hook(LEG_D_TO_BOB, 3, g + np.pi / 2, spec.overlap_c_y),
    ]


def intercept_resend_hooks(gamma):
    """Measure each leg's travel qubit in Eve's basis and forward the
    collapsed state; the overlap-0 limit of the general attack.

    Outbound legs are measured in {|gamma>, |gamma+pi>}.  The far station's
    conditional quarter-turn moves a collapsed qubit into the
    {gamma+-pi/2} family, so the return legs co-rotate to
    {|gamma+pi/2>, |gamma+3pi/2>}; a fixed-basis analyzer on all four legs
    would fully randomize the keys instead (detection 1/2, not 3/8).
    """
    g = float(gamma)

    def make(leg, travel, angle):
        def transform(state: StateVector, rng) -> StateVector:
            _, collapsed = measure_equator(state, travel, angle, rng)
            return collapsed
        return ChannelHook(leg, transform)

    return [make(LEG_C_TO_BOB, 2, g), make(LEG_C_TO_ALICE, 2, g + np.pi / 2),
            make(LEG_D_TO_ALICE, 3, g), make(LEG_D_TO_BOB, 3, g + np.pi / 2)]


# ---------------------------------------------------------------------------
# Eve's ancilla-space structure and inference
# ---------------------------------------------------------------------------

def _kron_ef(e_vec, f_vec):
    # E is the lower index bit of the 4-dim ancilla pair space
    return np.kron(f_vec, e_vec)


def _sextet(rel_angle: float, c_first: float, c_second: float):
    """The six (unnormalized) ancilla-pair vectors for one travel qubit."""
    e0, e1 = make_ancilla_pair(c_first)
    h0, h1 = make_ancilla_pair(c_second)
    c2 = np.cos(rel_angle / 2) ** 2
    s2 = np.sin(rel_angle / 2) ** 2
    return {
        1: _kron_ef(e0, h0) - _kron_ef(e1, h1),
        2: s2 * _kron_ef(e0, h0) + c2 * _kron_ef(e1, h1),
        3: c2 * _kron_ef(e0, h0) + s2 * _kron_ef(e1, h1),
        4: _kron_ef(e0, h1) - _kron_ef(e1, h0),
        5: c2 * _kron_ef(e0, h1) + s2 * _kron_ef(e1, h0),
        6: s2 * _kron_ef(e0, h1) + c2 * _kron_ef(e1, h0),
    }


@dataclass
class EveSubspaceDecomposition:
    """The two sextets of ancilla-pair vectors, unnormalized, as 4-dim arrays.

    ``vectors[i]`` lives on (E, F) and is parameterized by the relative angle
    alpha_tilde = alpha - gamma + pi/2; ``primed[i]`` lives on (E', F') with
    beta_tilde.  Vectors 1..3 accompany an "up" home qubit, 4..6 a "down"
    one.  The cross-block orthogonality <1|4> = <1|5> = <1|6> = 0 (and the
    4-against-1,2,3 block) holds exactly when the two overlaps coincide.
    """

    alpha_tilde: float
    beta_tilde: float
    spec: GeneralAttackSpec
    vectors: dict = field(repr=False)
    primed: dict = field(repr=False)

    def overlap(self, i: int, j: int, primed: bool = False) -> complex:
        vs = self.primed if primed else self.vectors
        return complex(np.vdot(vs[i], vs[j]))

    def normalized_overlap(self, i: int, j: int, primed: bool = False) -> complex:
        vs = self.primed if primed else self.vectors
        ni = np.vdot(vs[i], vs[i]).real
        nj = np.vdot(vs[j], vs[j]).real
        return complex(np.vdot(vs[i], vs[j]) / np.sqrt(ni * nj))

    def validate(self, tol: float = 1e-10):
        """Check the cross-block orthogonality (balanced attacks only)."""
        if abs(self.spec.overlap_c_x - self.spec.overlap_c_y) > 1e-12:
            return
        for vs in (self.vectors, self.primed):
            for i, j in ((1, 4), (1, 5), (1, 6), (4, 1), (4, 2), (4, 3)):
                if abs(np.vdot(vs[i], vs[j])) > tol:
                    raise ValueError(f"orthogonality <{i}|{j}> violated")


def build_subspace_decomposition(alpha_tilde: float, beta_tilde: float,
                                 spec: GeneralAttackSpec) -> EveSubspaceDecomposition:
    dec = EveSubspaceDecomposition(
        alpha_tilde=float(alpha_tilde),
        beta_tilde=float(beta_tilde),
        spec=spec,
        vectors=_sextet(float(alpha_tilde), spec.overlap_c_x, spec.overlap_c_y),
        primed=_sextet(float(beta_tilde), spec.overlap_c_x, spec.overlap_c_y),
    )
    dec.validate()
    return dec


class EveDiscriminator:
    """Two-stage minimum-error measurement on one ancilla pair.

    Stage one projects onto the rays of the angle-independent vectors
    |1> = eps00 eta00 - eps11 eta11 and |4> = eps00 eta11 - eps11 eta00;
    each is orthogonal to every vector of the opposite home-qubit value
    (balanced attack), so those outcomes are certain.  The residual subspace
    is split by the Helstrom measurement between Eve's states averaged
    exactly over the angle.  The net effect is one two-outcome POVM
    {M_up, M_dn}, built by ``batch._eve_povm``, reused for the primed pair.
    """

    def __init__(self, spec: GeneralAttackSpec):
        self.spec = spec
        self.m_up = _batch._eve_povm(spec.overlap_c_x, spec.overlap_c_y)
        self.m_dn = np.eye(4) - self.m_up

    def prob_up(self, vec4) -> float:
        v = np.asarray(vec4, dtype=np.complex128)
        nrm = np.vdot(v, v).real
        return float(np.clip((v.conj() @ self.m_up @ v).real / nrm, 0.0, 1.0))

    def guess_home_bit(self, vec4, u: float) -> int:
        """Return the guessed home key bit (z = +1 maps to bit 0)."""
        return 0 if u < self.prob_up(vec4) else 1


def _pure_vector_from_density(rho: DensityMatrix) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho.entries)
    return vecs[:, -1]


def eve_infer_keys(post_attack_state: StateVector, spec: GeneralAttackSpec, rng,
                   discriminator: EveDiscriminator | None = None):
    """Collective measurement on Eve's four ancillae after the parties finish.

    The (E, F) pair identifies Bob's home value, (E', F') Alice's.  Consumes
    two draws: the (E, F) outcome first, then (E', F').  Returns
    (guess_alice_home, guess_bob_home) as key bits (z = +1 maps to 0).
    """
    if post_attack_state.num_qubits != 8:
        raise ValueError("expected the 8-qubit post-attack register")
    disc = discriminator or EveDiscriminator(spec)
    v_ef = _pure_vector_from_density(reduced_density(post_attack_state, (4, 5)))
    v_pp = _pure_vector_from_density(reduced_density(post_attack_state, (6, 7)))
    guess_bob = disc.guess_home_bit(v_ef, rng.random())
    guess_alice = disc.guess_home_bit(v_pp, rng.random())
    return guess_alice, guess_bob


# ---------------------------------------------------------------------------
# Impersonation attacks
# ---------------------------------------------------------------------------

def _prepared_state(kind: str, **angles) -> StateVector:
    """The scenario's register after its QFR gates, from the one definition in
    ``batch.SCENARIOS``, built with the scalar engine."""
    sc = _batch.SCENARIOS[kind]
    state = product_state([equator_ket(0.0 if k == "home" else angles[k]) for k in sc.kets])
    for control, target in sc.gates:
        state = apply_qfr(state, control, target)
    return state


def one_home_state(alpha, beta, epsilon) -> StateVector:
    """Pre-measurement 6-qubit state of the single-home impersonation.

    Eve's lone home qubit E brokers all three travel qubits: Alice's C picks
    up rotations from (A, E), Bob's D from (B, E), and Eve's own travel E'
    from (E, A)."""
    return _prepared_state("impersonate:one", alpha=alpha, beta=beta, epsilon=epsilon)


# ---------------------------------------------------------------------------
# Photon-number-splitting attacks
# ---------------------------------------------------------------------------

def _pns_kind(variant: str) -> str:
    if variant not in _batch.PNS_KINDS:
        raise ValueError(f"unknown PNS variant {variant!r}")
    return _batch.PNS_KINDS[variant]


@dataclass
class PnsScenario:
    """One fully built photon-splitting scenario at fixed angles."""

    variant: str
    layout: tuple                # qubit labels in register order
    state: StateVector


def pns_build(variant: str, alpha, beta) -> PnsScenario:
    """Run the protocol unitaries on triple-photon pulses, with Eve's photons
    peeled off at the interception points.

    Alice's pulse carries C, E1, E2 all prepared at alpha; E1 is taken on the
    outbound channel (one station's rotations only), E2 on the return channel
    (both stations).  Bob's pulse mirrors this with D, E1', E2' at beta.
    """
    kind = _pns_kind(variant)
    return PnsScenario(variant, _batch.SCENARIOS[kind].layout,
                       _prepared_state(kind, alpha=alpha, beta=beta))
