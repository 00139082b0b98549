"""Closed-form security quantities, headline-number solvers, and empirical
mutual-information estimation.

All logarithms are base 2 with the convention 0*log(0) = 0.  The detection
probability of the symmetric entangling attack lives on [0, 3/8]; Eve's
error formula is mathematically defined up to p_d = 1/2 and rejected beyond.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BB84_PD = 0.15                 # comparison protocols, carried as constants
PING_PONG_PD = 0.18

PD_MAX = 0.375
MAX_CURVE_POINTS = 10 ** 6


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit with bias p, in bits."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("probability outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def detection_probability(c_x: float, c_y: float) -> float:
    """Per-compared-bit detection probability of the balanced entangling
    attack with ancilla overlaps (cos x, cos y):

        p_d = 3/8 - (cos^2 x + cos^2 y + cos^2 x cos^2 y)/8

    Exact for the balanced case cos x = cos y the analysis is built on; an
    unbalanced simulated attack is detected at the higher rate
    (3 - 2 q - q^2)/8 with q = cos x cos y.
    """
    for c in (c_x, c_y):
        if not (0.0 <= c <= 1.0):
            raise ValueError("overlaps must lie in [0, 1]")
    return 3.0 / 8.0 - (c_x ** 2 + c_y ** 2 + (c_x * c_y) ** 2) / 8.0


def simulated_detection_probability(c_x: float, c_y: float) -> float:
    """Detection rate of the simulated attack for arbitrary overlaps;
    coincides with detection_probability when c_x == c_y."""
    for c in (c_x, c_y):
        if not (0.0 <= c <= 1.0):
            raise ValueError("overlaps must lie in [0, 1]")
    q = c_x * c_y
    return (3.0 - 2.0 * q - q * q) / 8.0


def _check_pd(p_d: float):
    if not (0.0 <= p_d <= 0.5):
        raise ValueError("detection probability outside [0, 1/2]")


def eve_error(p_d: float) -> float:
    """Eve's minimum guessing error for the balanced attack detected at p_d."""
    _check_pd(p_d)
    s = np.sqrt(1.0 - 2.0 * p_d)
    return float(0.5 - 0.5 * s * (1.0 - s) * (2.0 * s + np.sqrt(2.0 * (1.0 - s))))


def mutual_info_ab(p_d: float) -> float:
    """I(A,B) per compared bit: the key channel is binary symmetric."""
    if not (0.0 <= p_d <= 1.0):
        raise ValueError("detection probability outside [0, 1]")
    return 1.0 - binary_entropy(p_d)


def mutual_info_ae(p_d: float) -> float:
    """I(A,E) per bit for the optimal balanced attack detected at p_d."""
    return 1.0 - binary_entropy(eve_error(p_d))


@dataclass(frozen=True)
class SecurityPoint:
    p_d: float
    p_e: float
    i_ab: float
    i_ae: float

    @classmethod
    def at(cls, p_d: float) -> "SecurityPoint":
        return cls(p_d, eve_error(p_d), mutual_info_ab(p_d), mutual_info_ae(p_d))


@dataclass
class SecurityCurve:
    points: list[SecurityPoint]


def security_curve(grid_step: float) -> SecurityCurve:
    """Sample the analytic curves on [0, 3/8], endpoint included, at a step
    of at least 3/8 / ``MAX_CURVE_POINTS``."""
    if not (PD_MAX / MAX_CURVE_POINTS <= grid_step < PD_MAX):
        raise ValueError(f"grid step outside [{PD_MAX / MAX_CURVE_POINTS:g}, 3/8)")
    grid = list(np.arange(0.0, PD_MAX, grid_step))
    if PD_MAX - grid[-1] > 1e-12:
        grid.append(PD_MAX)
    return SecurityCurve([SecurityPoint.at(p) for p in grid])


def _bisect(f, lo: float, hi: float, tol: float = 1e-9) -> float:
    flo = f(lo)
    if flo * f(hi) > 0:
        raise ValueError("root not bracketed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def find_security_threshold() -> float:
    """Detection probability at which Eve's information catches Bob's.

    Root of I(A,B) - I(A,E) on (0, 3/8), by bisection; the entropy
    derivatives blow up at the endpoints, so the bracket stays inside.
    """
    return _bisect(lambda p: mutual_info_ab(p) - mutual_info_ae(p),
                   1e-9, PD_MAX - 1e-9)


def find_eve_optimum() -> float:
    """Detection probability maximizing I(A,E) on [0, 3/8]."""
    return _golden_max(mutual_info_ae, 0.0, PD_MAX)


def entropy_inverse(budget: float) -> float:
    """Inverse of the binary entropy on [0, 1/2] by monotone bisection."""
    if not (0.0 <= budget <= 1.0):
        raise ValueError("entropy budget outside [0, 1]")
    return _bisect(lambda p: binary_entropy(p) - budget, 0.0, 0.5, tol=1e-12)


def collective_bound() -> float:
    """Solve h(p) = 1/2: the tolerable detection rate against collective
    attacks (I(A,B) >= half the raw key)."""
    return entropy_inverse(0.5)


def empirical_mutual_information(joint_counts) -> float:
    """Plug-in mutual information (bits) of an empirical 2x2 joint table."""
    t = np.asarray(joint_counts, dtype=np.float64)
    if t.shape != (2, 2) or (t < 0).any():
        raise ValueError("expected a 2x2 table of non-negative counts")
    total = t.sum()
    if total == 0:
        raise ValueError("empty table")
    p = t / total
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / (px @ py)[mask])))
