"""Exact dense state-vector engine for small qubit registers.

Conventions (fixed repo-wide):
  * little-endian registers: amplitude index bit k addresses register qubit k,
    so ``amplitudes.reshape([2]*n)`` has qubit ``n-1`` on axis 0 and qubit 0
    on the last axis;
  * computational basis: ``|0> = |up>``, ``|1> = |down>``;
  * equator ket ``|phi> = (|up> + e^{i phi}|down>)/sqrt(2)``.

State vectors are single-owner values; every public operation returns a fresh
StateVector and leaves its input untouched.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 12

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class EquatorAngle:
    """Azimuthal angle on the equator of the Bloch sphere, reduced mod 2*pi."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value) % (2.0 * np.pi))

    def bar(self) -> "EquatorAngle":
        """Antipodal angle: phi + pi."""
        return EquatorAngle(self.value + np.pi)

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
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if self.amplitudes.size != 2 ** self.num_qubits:
            raise ValueError("amplitude length does not match register size")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def _check_qubit(self, q: int):
        if not (0 <= q < self.num_qubits):
            raise ValueError(f"qubit index {q} out of range for {self.num_qubits}-qubit register")


def equator_ket(phi) -> np.ndarray:
    """2-vector (|up> + e^{i phi}|down>)/sqrt(2)."""
    return np.array([1.0, np.exp(1j * float(phi))]) / _SQRT2


def basis_rotation(phi) -> np.ndarray:
    """Unitary sending |0> -> |phi>, |1> -> |phi+pi>."""
    e = np.exp(1j * float(phi))
    return np.array([[1.0, 1.0], [e, -e]]) / _SQRT2


def make_equator_state(phi) -> StateVector:
    """Single-qubit state on the equator at azimuthal angle phi."""
    return StateVector(1, equator_ket(phi))


def product_state(factors) -> StateVector:
    """Tensor product of kets in register order: qubit 0 first, each factor's
    qubits above those of the factors before it."""
    amp = np.array([1.0 + 0j])
    for f in factors:
        vec = f.amplitudes if isinstance(f, StateVector) else np.asarray(f, dtype=np.complex128)
        amp = np.kron(vec, amp)
    return StateVector(int(round(np.log2(amp.size))), amp)


def _axis(n: int, q: int) -> int:
    return n - 1 - q


def apply_1q_unitary(s: StateVector, q: int, u: np.ndarray) -> StateVector:
    s._check_qubit(q)
    n = s.num_qubits
    a = s.amplitudes.reshape([2] * n)
    ax = _axis(n, q)
    a = np.moveaxis(np.tensordot(u, np.moveaxis(a, ax, 0), axes=([1], [0])), 0, ax)
    return StateVector(n, a.reshape(-1))


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def apply_pauli_x(s: StateVector, q: int) -> StateVector:
    """Bit flip (NOT gate) on qubit q."""
    return apply_1q_unitary(s, q, _PAULI_X)


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
    idx = np.arange(s.amplitudes.size)
    zc = 1 - 2 * ((idx >> control) & 1)
    zt = 1 - 2 * ((idx >> target) & 1)
    return StateVector(s.num_qubits, s.amplitudes * np.exp(-0.25j * np.pi * zc * zt))


def append_qubit(s: StateVector, ket=None) -> StateVector:
    """Enlarge the register with one qubit (index num_qubits) in state ket."""
    if ket is None:
        ket = np.array([1.0, 0.0])
    vec = ket.amplitudes if isinstance(ket, StateVector) else np.asarray(ket, dtype=np.complex128)
    return StateVector(s.num_qubits + 1, np.kron(vec, s.amplitudes))


def apply_controlled_unitary(s: StateVector, control: int, target: int,
                             u: np.ndarray) -> StateVector:
    """Apply u on target when qubit control is in |1>."""
    s._check_qubit(control)
    s._check_qubit(target)
    if control == target:
        raise ValueError("control and target must differ")
    n = s.num_qubits
    a = s.amplitudes.reshape([2] * n).copy()
    a = np.moveaxis(a, [_axis(n, control), _axis(n, target)], [0, 1])
    a[1] = np.tensordot(u, a[1], axes=([1], [0]))
    a = np.moveaxis(a, [0, 1], [_axis(n, control), _axis(n, target)])
    return StateVector(n, a.reshape(-1))


def measure_z(s: StateVector, q: int, rng):
    """Projective sigma^z measurement; returns (outcome in {+1,-1}, collapsed)."""
    s._check_qubit(q)
    n = s.num_qubits
    a = s.amplitudes.reshape(-1, 2, 2 ** q)
    p0 = float(np.sum(np.abs(a[:, 0, :]) ** 2))
    bit = 0 if rng.random() < p0 else 1
    out = np.zeros_like(a)
    out[:, bit, :] = a[:, bit, :]
    p = p0 if bit == 0 else 1.0 - p0
    out /= np.sqrt(p)
    return (1 - 2 * bit), StateVector(n, out.reshape(-1))


def measure_equator(s: StateVector, q: int, phi, rng):
    """Projective measurement in the basis {|phi>, |phi+pi>}.

    Outcome +1 collapses qubit q onto |phi>, -1 onto |phi+pi> (the eigenstates
    of cos(phi) sigma^x + sin(phi) sigma^y).
    """
    v = basis_rotation(phi)
    rotated = apply_1q_unitary(s, q, v.conj().T)
    outcome, collapsed = measure_z(rotated, q, rng)
    return outcome, apply_1q_unitary(collapsed, q, v)


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError("entries shape does not match dim")
        if np.max(np.abs(self.entries - self.entries.conj().T)) > 1e-10:
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
    keep_hi_to_lo = [_axis(n, q) for q in reversed(keep)]
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
