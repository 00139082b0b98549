"""The 12-step two-way key distribution protocol as an executable state machine.

Register layout for the baseline protocol (little-endian, see qstate):

    qubit 0  A   Alice's home qubit
    qubit 1  B   Bob's home qubit
    qubit 2  C   Alice's travel qubit
    qubit 3  D   Bob's travel qubit

Channel hooks may enlarge the register with adversary ancillae; ancillae are
always appended above qubit 3, so A, B, C, D keep their indices for the whole
round (the general attack appends E=4, F=5, E'=6, F'=7).

Per-round randomness contract: a round consumes draws from its generator via
``rng.random()`` only, in this fixed order:

    [alpha, beta, <one draw per stochastic hook, in leg firing order>,
     u_C, u_D, u_A, u_B]

Leg firing order is C:A->B, C:B->A, D:B->A, D:A->B.  Both angle draws happen
at the top of the round; the commuting gate algebra makes this equivalent to
drawing beta just before D is prepared.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qstate import (
    EquatorAngle,
    StateVector,
    apply_pauli_x,
    apply_qfr,
    equator_ket,
    measure_equator,
    measure_z,
    product_state,
)

QUBIT_A = 0
QUBIT_B = 1
QUBIT_C = 2
QUBIT_D = 3

LEG_C_TO_BOB = "C:A->B"
LEG_C_TO_ALICE = "C:B->A"
LEG_D_TO_ALICE = "D:B->A"
LEG_D_TO_BOB = "D:A->B"
LEGS = (LEG_C_TO_BOB, LEG_C_TO_ALICE, LEG_D_TO_ALICE, LEG_D_TO_BOB)

# outcome-to-bit maps: travel measurement +1 -> K=1; home sigma^z +1 -> K=0
ODD_BIT = {+1: 1, -1: 0}
EVEN_BIT = {+1: 0, -1: 1}


@dataclass
class ChannelHook:
    """A state transformer attached to one channel leg.

    ``transform(state, rng) -> state`` must preserve the norm of the full
    register (it is an isometry; it may append ancilla qubits).
    """

    leg: str
    transform: Callable[[StateVector, object], StateVector]

    def __post_init__(self):
        if self.leg not in LEGS:
            raise ValueError(f"unknown channel leg {self.leg!r}")


@dataclass
class RoundTranscript:
    """Record of one protocol iteration."""

    round_index: int
    outcome_alice_C: int
    alice_bits: tuple
    bob_bits: tuple


def _apply_hooks(state, hooks, leg, rng):
    for hook in hooks:
        if hook.leg == leg:
            state = hook.transform(state, rng)
            if abs(state.norm() - 1.0) > 1e-9:
                raise ValueError(f"hook on {leg} broke normalization")
    return state


def run_round(n: int, rng, hooks: Sequence[ChannelHook] = (), return_state: bool = False):
    """Execute one full iteration; returns the transcript.

    With ``return_state=True`` also returns the post-measurement register
    (ancillae included), for adversary post-processing.
    """
    alpha = EquatorAngle(2.0 * np.pi * rng.random())
    beta = EquatorAngle(2.0 * np.pi * rng.random())

    # steps 1-2: homes at phi=0, travel qubits at the drawn angles
    state = product_state([equator_ket(0.0), equator_ket(0.0),
                           equator_ket(alpha), equator_ket(beta)])
    # step 3: Alice rotates C and sends it
    state = apply_qfr(state, QUBIT_A, QUBIT_C)
    state = _apply_hooks(state, hooks, LEG_C_TO_BOB, rng)
    # step 4: Bob rotates C and returns it
    state = apply_qfr(state, QUBIT_B, QUBIT_C)
    state = _apply_hooks(state, hooks, LEG_C_TO_ALICE, rng)
    # step 6: Bob rotates D and sends it
    state = apply_qfr(state, QUBIT_B, QUBIT_D)
    state = _apply_hooks(state, hooks, LEG_D_TO_ALICE, rng)
    # step 7: Alice rotates D and returns it
    state = apply_qfr(state, QUBIT_A, QUBIT_D)
    state = _apply_hooks(state, hooks, LEG_D_TO_BOB, rng)

    # step 8: equator measurements fix the odd key bits
    out_c, state = measure_equator(state, QUBIT_C, alpha, rng)
    out_d, state = measure_equator(state, QUBIT_D, beta, rng)
    k_odd_alice = ODD_BIT[out_c]
    k_odd_bob = ODD_BIT[out_d]
    # step 9: Bob's conditional NOT on his home qubit
    if k_odd_bob == 1:
        state = apply_pauli_x(state, QUBIT_B)
    # step 10: home measurements fix the even key bits
    out_a, state = measure_z(state, QUBIT_A, rng)
    out_b, state = measure_z(state, QUBIT_B, rng)

    transcript = RoundTranscript(
        round_index=n,
        outcome_alice_C=out_c,
        alice_bits=(k_odd_alice, EVEN_BIT[out_a]),
        bob_bits=(k_odd_bob, EVEN_BIT[out_b]),
    )
    if return_state:
        return transcript, state
    return transcript


def sample_test_rounds(rng, n_rounds: int, m: int) -> np.ndarray:
    """Choose m distinct round indices (0-based) for verification."""
    if m > n_rounds:
        raise ValueError("cannot test more bits than rounds available")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(n_rounds, size=m, replace=False))
