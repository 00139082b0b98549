"""Exact dense state-vector engine for small qubit registers.

Conventions (fixed repo-wide):
  * little-endian registers: amplitude index bit k addresses register qubit k,
    so ``amplitudes.reshape([2]*n)`` has qubit ``n-1`` on axis 0 and qubit 0
    on the last axis;
  * computational basis: ``|0> = |up>``, ``|1> = |down>``;
  * equator ket ``|phi> = (|up> + e^{i phi}|down>)/sqrt(2)``.

A gate or measurement on qubit q works on the view
``amplitudes.reshape(-1, 2, 1 << q)``: axis 1 is qubit q, axis 0 the qubits
above it and axis 2 those below.  A general 2x2 gate is one batched
``matmul`` (hi products of 2 x 2 by 2 x lo, one tiny product per leading
index), so the two operations an attacked round runs most are elementwise:
``append_controlled`` (Eve's probe) writes psi (x) |0> + (P1 psi) (x)
(ket - |0>) as one new register from the row r1 = <b1|psi>, and
``measure_equator`` forms its rows a0 +- e^{-i phi} a1.  One collapse helper,
shared with ``measure_z``, weighs both rows with one ``vdot`` each and draws
against their sum, so an outcome of weight 0 is never drawn.  The QFR phase
diagonal of each (register size, control, target) and the control-bit mask
of each (register size, control) are built once and cached read-only.

The protocol's registers hold 16 to 1,024 amplitudes, so a primitive's cost
is its count of numpy calls, not its arithmetic: ``StateVector``
keeps a 1-D complex128 array as it is given (sharing it, as ``np.asarray``
would), ``norm`` is one ``vdot``, and kets and rotations are built from
``cmath.exp`` in one array call.

State vectors are single-owner values; every public operation returns a fresh
StateVector and leaves its input untouched.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_COMPLEX = np.dtype(np.complex128)


@dataclass(frozen=True)
class EquatorAngle:
    """Azimuthal angle on the equator of the Bloch sphere, reduced mod 2*pi."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value) % (2.0 * np.pi))

    def __float__(self) -> float:
        return self.value


@dataclass
class StateVector:
    """Dense complex amplitude vector over an ordered register of qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not (1 <= self.num_qubits <= MAX_QUBITS):
            raise ValueError(f"register size {self.num_qubits} outside 1..{MAX_QUBITS}")
        a = self.amplitudes
        if not (type(a) is np.ndarray and a.dtype is _COMPLEX and a.ndim == 1):
            self.amplitudes = np.asarray(a, dtype=np.complex128).reshape(-1)
        if self.amplitudes.size != 2 ** self.num_qubits:
            raise ValueError("amplitude length does not match register size")

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def _check_qubit(self, q: int):
        if not (0 <= q < self.num_qubits):
            raise ValueError(f"qubit index {q} out of range for {self.num_qubits}-qubit register")


def equator_ket(phi) -> np.ndarray:
    """2-vector (|up> + e^{i phi}|down>)/sqrt(2)."""
    return np.array([_INV_SQRT2, cmath.exp(1j * float(phi)) * _INV_SQRT2])


def basis_rotation(phi) -> np.ndarray:
    """Unitary sending |0> -> |phi>, |1> -> |phi+pi>."""
    e = cmath.exp(1j * float(phi)) * _INV_SQRT2
    return np.array([[_INV_SQRT2, _INV_SQRT2], [e, -e]])


def make_equator_state(phi) -> StateVector:
    """Single-qubit state on the equator at azimuthal angle phi."""
    return StateVector(1, equator_ket(phi))


def product_state(factors) -> StateVector:
    """Tensor product of kets in register order: qubit 0 first, each factor's
    qubits above those of the factors before it."""
    amp = np.array([1.0 + 0j])
    for f in factors:
        vec = f.amplitudes if isinstance(f, StateVector) else np.asarray(f, dtype=np.complex128)
        amp = np.multiply.outer(vec, amp).ravel()
    return StateVector(amp.size.bit_length() - 1, amp)


def _view(s: StateVector, q: int) -> np.ndarray:
    """(hi, 2, lo) view of the amplitudes with qubit q on axis 1."""
    s._check_qubit(q)
    return s.amplitudes.reshape(-1, 2, 1 << q)


def apply_1q_unitary(s: StateVector, q: int, u: np.ndarray) -> StateVector:
    return StateVector(s.num_qubits, (u @ _view(s, q)).reshape(-1))


_IDENTITY = np.eye(2, dtype=np.complex128)
_IDENTITY.flags.writeable = False


def apply_pauli_x(s: StateVector, q: int) -> StateVector:
    """Bit flip (NOT gate) on qubit q: a copy of the (hi, 2, lo) view with its
    two rows swapped, exact as X only permutes amplitudes."""
    return StateVector(s.num_qubits, _view(s, q)[:, ::-1].copy().reshape(-1))


@functools.lru_cache(maxsize=None)
def _qfr_phases(n: int, control: int, target: int) -> np.ndarray:
    """Read-only diagonal of apply_qfr on an n-qubit register."""
    idx = np.arange(1 << n)
    phases = np.exp(-0.25j * np.pi * (1 - 2 * (((idx >> control) ^ (idx >> target)) & 1)))
    phases.flags.writeable = False
    return phases


def apply_qfr(s: StateVector, control: int, target: int) -> StateVector:
    """Conditional quarter-turn exp[-i(pi/4) sigma^z_control sigma^z_target].

    Phase e^{-i pi/4} on the aligned components |00>, |11> and e^{+i pi/4} on
    |01>, |10>; on an equator target this rotates the azimuthal angle by
    +pi/2 (control up) or -pi/2 (control down).
    """
    s._check_qubit(control)
    s._check_qubit(target)
    if control == target:
        raise ValueError("control and target must differ")
    return StateVector(s.num_qubits, s.amplitudes * _qfr_phases(s.num_qubits, control, target))


_KET_0 = np.array([1.0, 0.0], dtype=np.complex128)
_KET_0.flags.writeable = False


def append_qubit(s: StateVector, ket=_KET_0) -> StateVector:
    """Enlarge the register with one qubit (index num_qubits) in state ket."""
    vec = ket.amplitudes if isinstance(ket, StateVector) else np.asarray(ket, dtype=np.complex128)
    return StateVector(s.num_qubits + 1, np.multiply.outer(vec, s.amplitudes).ravel())


def append_controlled(s: StateVector, control: int, basis: np.ndarray, ket) -> StateVector:
    """Enlarge the register with one qubit (index num_qubits) that is |0> where
    qubit ``control`` is in ``basis``'s column 0 and ``ket`` where it is in
    column 1: psi (x) |0> + (P1 psi) (x) (ket - |0>), P1 the projector onto
    column 1.  ``basis`` is a 2 x 2 unitary, ``ket`` a normalized 2-vector."""
    a = _view(s, control)
    b0, b1 = basis[:, 1].tolist()
    k0, k1 = ket
    r1 = b0.conjugate() * a[:, 0] + b1.conjugate() * a[:, 1]     # <b1|psi>, (hi, lo)
    # (new qubit, hi, control, lo): (ket - |0>) (x) b1 times r1, then psi on |0>
    coef = np.array([[(k0 - 1) * b0, (k0 - 1) * b1], [k1 * b0, k1 * b1]])
    out = coef.reshape(2, 1, 2, 1) * r1[:, None, :]
    out[0] += a
    return StateVector(s.num_qubits + 1, out.reshape(-1))


@functools.lru_cache(maxsize=None)
def _control_mask(n: int, control: int) -> np.ndarray:
    """Read-only mask of the n-qubit amplitudes whose qubit `control` is |1>."""
    on = (np.arange(1 << n) >> control) & 1 == 1
    on.flags.writeable = False
    return on


def apply_controlled_unitary(s: StateVector, control: int, target: int,
                             u: np.ndarray) -> StateVector:
    """Apply u on target when qubit control is in |1>."""
    s._check_qubit(control)
    if control == target:
        raise ValueError("control and target must differ")
    return StateVector(s.num_qubits, np.where(_control_mask(s.num_qubits, control),
                                              (u @ _view(s, target)).ravel(), s.amplitudes))


def _collapse(s: StateVector, r0: np.ndarray, r1: np.ndarray, v: np.ndarray, rng):
    """Measure in the orthonormal basis of v's columns (outcome +1 is column 0),
    given the rows r_k = f <v_k|psi> along the measured qubit, (hi, lo), with
    one factor f > 0 for both: draw a bit, then put the kept row back on its
    column.

    Both rows' weights are summed, so an outcome of weight 0 is never drawn
    (even at a draw of 1 - 2**-53) and the kept row is scaled by its own norm."""
    w0, w1 = np.vdot(r0, r0).real, np.vdot(r1, r1).real
    bit = 0 if rng.random() * (w0 + w1) < w0 else 1
    kept = (r1 if bit else r0) / math.sqrt(w1 if bit else w0)
    return 1 - 2 * bit, StateVector(s.num_qubits, (v[:, bit, None] * kept[:, None]).ravel())


def measure_z(s: StateVector, q: int, rng):
    """Projective sigma^z measurement; returns (outcome in {+1,-1}, collapsed)."""
    a = _view(s, q)
    return _collapse(s, a[:, 0], a[:, 1], _IDENTITY, rng)


def measure_equator(s: StateVector, q: int, phi, rng):
    """Projective measurement in the basis {|phi>, |phi+pi>}.

    Outcome +1 collapses qubit q onto |phi>, -1 onto |phi+pi> (the eigenstates
    of cos(phi) sigma^x + sin(phi) sigma^y).
    """
    a = _view(s, q)
    t = a[:, 1] * cmath.exp(-1j * float(phi))
    return _collapse(s, a[:, 0] + t, a[:, 0] - t, basis_rotation(phi), rng)


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError("entries shape does not match dim")
        if np.abs(self.entries - self.entries.conj().T).max() > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(self.entries).real - 1.0) > 1e-10:
            raise ValueError("density matrix trace differs from 1")
        if np.linalg.eigvalsh(self.entries).min() < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


def reduced_density(s: StateVector, keep) -> DensityMatrix:
    """Partial trace onto the qubits in `keep` (result ordered by ascending index)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must be a non-empty qubit subset")
    for q in keep:
        s._check_qubit(q)
    n = s.num_qubits
    a = s.amplitudes.reshape([2] * n)
    # axis of qubit q is n-1-q; order the kept block highest-qubit-first so a
    # C-order reshape leaves keep[0] as bit 0 of the reduced index
    keep_hi_to_lo = [n - 1 - q for q in reversed(keep)]
    other_axes = [ax for ax in range(n) if ax not in keep_hi_to_lo]
    a = np.transpose(a, other_axes + keep_hi_to_lo)
    dk = 2 ** len(keep)
    m = a.reshape(-1, dk)
    rho = m.T @ m.conj()
    return DensityMatrix(dk, rho)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) * trace |rho - sigma| via a dense Hermitian eigensolver."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    delta = rho.entries - sigma.entries
    if np.max(np.abs(delta - delta.conj().T)) > 1e-10:
        raise ValueError("trace_distance requires Hermitian inputs")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(delta))))
