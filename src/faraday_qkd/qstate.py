"""Exact dense state-vector engine for small qubit registers.

Conventions (fixed repo-wide):
  * little-endian registers: amplitude index bit k addresses register qubit k,
    so ``amplitudes.reshape([2]*n)`` has qubit ``n-1`` on axis 0 and qubit 0
    on the last axis;
  * computational basis: ``|0> = |up>``, ``|1> = |down>``;
  * equator ket ``|phi> = (|up> + e^{i phi}|down>)/sqrt(2)``.

A gate or measurement on qubit q works on the view
``amplitudes.reshape(-1, 2, 1 << q)``: axis 1 is qubit q, axis 0 the qubits
above it and axis 2 those below, so a 2x2 operator acts with one ``matmul``.
The QFR phase diagonal of each (register size, control, target) is built
once and cached read-only.

State vectors are single-owner values; every public operation returns a fresh
StateVector and leaves its input untouched.
"""
from __future__ import annotations

import functools
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
        amp = np.multiply.outer(vec, amp).ravel()
    return StateVector(amp.size.bit_length() - 1, amp)


def _view(s: StateVector, q: int) -> np.ndarray:
    """(hi, 2, lo) view of the amplitudes with qubit q on axis 1."""
    s._check_qubit(q)
    return s.amplitudes.reshape(-1, 2, 1 << q)


def apply_1q_unitary(s: StateVector, q: int, u: np.ndarray) -> StateVector:
    return StateVector(s.num_qubits, (u @ _view(s, q)).reshape(-1))


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_IDENTITY = np.eye(2, dtype=np.complex128)


def apply_pauli_x(s: StateVector, q: int) -> StateVector:
    """Bit flip (NOT gate) on qubit q."""
    return apply_1q_unitary(s, q, _PAULI_X)


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


def append_qubit(s: StateVector, ket=None) -> StateVector:
    """Enlarge the register with one qubit (index num_qubits) in state ket."""
    if ket is None:
        ket = np.array([1.0, 0.0])
    vec = ket.amplitudes if isinstance(ket, StateVector) else np.asarray(ket, dtype=np.complex128)
    return StateVector(s.num_qubits + 1, np.multiply.outer(vec, s.amplitudes).ravel())


def apply_controlled_unitary(s: StateVector, control: int, target: int,
                             u: np.ndarray) -> StateVector:
    """Apply u on target when qubit control is in |1>."""
    s._check_qubit(control)
    if control == target:
        raise ValueError("control and target must differ")
    on = (np.arange(s.amplitudes.size) >> control) & 1 == 1
    return StateVector(s.num_qubits, np.where(on, (u @ _view(s, target)).ravel(), s.amplitudes))


def _measure(s: StateVector, r: np.ndarray, v: np.ndarray, rng):
    """Measure in the orthonormal basis of v's columns (outcome +1 is column 0),
    given r = v^dagger @ view: collapse r, then put the kept row back on its column."""
    p0 = float(np.sum(np.abs(r[:, 0, :]) ** 2))
    bit = 0 if rng.random() < p0 else 1
    kept = r[:, bit, :] / np.sqrt(p0 if bit == 0 else 1.0 - p0)
    return 1 - 2 * bit, StateVector(s.num_qubits, (v[:, bit, None] * kept[:, None]).ravel())


def measure_z(s: StateVector, q: int, rng):
    """Projective sigma^z measurement; returns (outcome in {+1,-1}, collapsed)."""
    return _measure(s, _view(s, q), _IDENTITY, rng)


def measure_equator(s: StateVector, q: int, phi, rng):
    """Projective measurement in the basis {|phi>, |phi+pi>}.

    Outcome +1 collapses qubit q onto |phi>, -1 onto |phi+pi> (the eigenstates
    of cos(phi) sigma^x + sin(phi) sigma^y).
    """
    v = basis_rotation(phi)
    return _measure(s, v.conj().T @ _view(s, q), v, rng)


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
