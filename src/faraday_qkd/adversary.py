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

import math
from dataclasses import dataclass

import numpy as np

from . import batch as _batch
from . import qstate as _qstate
from .protocol import (
    LEG_C_TO_ALICE,
    LEG_C_TO_BOB,
    LEG_D_TO_ALICE,
    LEG_D_TO_BOB,
    QUBIT_C,
    QUBIT_D,
    ChannelHook,
)
from .qstate import (
    EquatorAngle,
    StateVector,
    append_controlled,
    apply_qfr,
    basis_rotation,
    equator_ket,
    measure_equator,
    product_state,
    reduced_density,
)

# kept only because perfbench/spans.py wraps them by name
append_qubit = _qstate.append_qubit
apply_1q_unitary = _qstate.apply_1q_unitary
apply_controlled_unitary = _qstate.apply_controlled_unitary


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


# Eve's four legs in firing order as (leg, travel qubit, pass): pass 0 is
# the first pass, in Eve's basis, and pass 1 the return pass, whose basis
# turns a quarter turn with the far station's QFR
_EVE_LEGS = ((LEG_C_TO_BOB, QUBIT_C, 0), (LEG_C_TO_ALICE, QUBIT_C, 1),
             (LEG_D_TO_ALICE, QUBIT_D, 0), (LEG_D_TO_BOB, QUBIT_D, 1))


def _attack_hook(leg: str, travel: int, basis_angle: float, c: float) -> ChannelHook:
    """The entangler on one leg: a fresh ancilla stays |0> where the travel
    qubit is |basis_angle> and becomes (c, sqrt(1 - c^2)), the column of R_y
    that makes overlap c with |0>, where it is |basis_angle + pi>."""
    v = basis_rotation(basis_angle)
    ket = (c, math.sqrt(max(0.0, 1.0 - c * c)))

    def transform(state: StateVector, rng) -> StateVector:
        return append_controlled(state, travel, v, ket)

    return ChannelHook(leg, transform)


def general_attack_hooks(spec: GeneralAttackSpec):
    """Four channel hooks appending ancillae E, F, E', F' in firing order."""
    g = float(spec.gamma)
    overlaps = (spec.overlap_c_x, spec.overlap_c_y)
    return [_attack_hook(leg, travel, g + p * np.pi / 2, overlaps[p])
            for leg, travel, p in _EVE_LEGS]


def intercept_resend_hooks(gamma):
    """Measure each leg's travel qubit in Eve's basis and forward the
    collapsed state; the overlap-0 limit of the general attack.

    Outbound legs are measured in {|gamma>, |gamma+pi>}.  The far station's
    conditional quarter-turn moves a collapsed qubit into the
    {gamma+-pi/2} family, so the return legs co-rotate to
    {|gamma+pi/2>, |gamma+3pi/2>}; a fixed-basis analyzer on all four legs
    would fully randomize the keys instead (detection 1/2, not 3/8).
    gamma is taken mod 2 pi, as in ``GeneralAttackSpec``.
    """
    g = float(EquatorAngle(gamma))

    def make(leg, travel, angle):
        def transform(state: StateVector, rng) -> StateVector:
            _, collapsed = measure_equator(state, travel, angle, rng)
            return collapsed
        return ChannelHook(leg, transform)

    return [make(leg, travel, g + p * np.pi / 2) for leg, travel, p in _EVE_LEGS]


# ---------------------------------------------------------------------------
# Eve's inference
# ---------------------------------------------------------------------------

class EveDiscriminator:
    """Two-stage minimum-error measurement on one ancilla pair.

    Stage one projects onto the rays of the angle-independent vectors
    |1> = eps00 eta00 - eps11 eta11 and |4> = eps00 eta11 - eps11 eta00;
    each is orthogonal to every vector of the opposite home-qubit value
    (balanced attack), so those outcomes are certain.  The residual subspace
    is split by the Helstrom measurement between Eve's states averaged
    exactly over the angle.  The net effect is one two-outcome POVM whose
    "up" element ``m_up`` is built by ``batch._eve_povm`` (the "down" element
    is I - m_up), reused for the primed pair.
    """

    def __init__(self, spec: GeneralAttackSpec):
        self.m_up = _batch._eve_povm(spec.overlap_c_x, spec.overlap_c_y)


def eve_infer_keys(post_attack_state: StateVector, spec: GeneralAttackSpec, rng,
                   discriminator: EveDiscriminator | None = None):
    """Collective measurement on Eve's four ancillae after the parties finish.

    The (E, F) pair identifies Bob's home value, (E', F') Alice's; each pair
    reads "up" with probability tr(M_up rho) of its reduced state.  Consumes
    two draws: the (E, F) outcome first, then (E', F').  Returns
    (guess_alice_home, guess_bob_home) as key bits (z = +1 maps to 0).
    """
    if post_attack_state.num_qubits != 8:
        raise ValueError("expected the 8-qubit post-attack register")
    m_up = (discriminator or EveDiscriminator(spec)).m_up
    # vdot conjugates m_up, which is Hermitian, so it sums to tr(M_up rho)
    p_up = (np.vdot(m_up, reduced_density(post_attack_state, pair).entries).real
            for pair in ((4, 5), (6, 7)))
    guess_bob, guess_alice = (0 if rng.random() < p else 1 for p in p_up)
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


# ---------------------------------------------------------------------------
# Photon-number-splitting attacks
# ---------------------------------------------------------------------------

@dataclass
class PnsScenario:
    """One fully built photon-splitting scenario at fixed angles."""

    layout: tuple                # qubit labels in register order
    state: StateVector


def pns_build(variant: str, alpha, beta) -> PnsScenario:
    """Run the protocol unitaries on triple-photon pulses, with Eve's photons
    peeled off at the interception points.

    Alice's pulse carries C, E1, E2 all prepared at alpha; E1 is taken on the
    outbound channel (one station's rotations only), E2 on the return channel
    (both stations).  Bob's pulse mirrors this with D, E1', E2' at beta.
    """
    kind = _batch._pns_kind(variant)
    return PnsScenario(_batch.SCENARIOS[kind].layout,
                       _prepared_state(kind, alpha=alpha, beta=beta))
