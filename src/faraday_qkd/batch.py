"""Vectorized Monte Carlo kernels: the scenario table, each kind compiled once
into a branch table, and the sampler that runs every round from it.

Rounds are simulated in batches with the same little-endian register
conventions and the same per-round draw order as the scalar engine in
:mod:`protocol`, so a batch run and a loop of ``protocol.run_round`` calls
fed the identical uniform streams produce identical transcripts.

Each attack kind is one record of :data:`SCENARIOS`.  Draws follow the order
of operations: a row of ``u`` gives the angles (2*pi times the uniform, in
order of first use by the kets), then one uniform to each stochastic channel
operation and readout step in turn, copy after copy.

The physics runs once per spec, on a branch tree in the angle frame.  Every
ket is an equator ket and every gate a diagonal QFR, so a round's register
is R psi, with R = (x)_q diag(1, e^{i theta_q}) over the qubits' ket angles
(0 for a home) and psi the frame register, at preparation the kind's
register at all-zero angles.  An operation on qubit q in the basis at angle
phi acts on psi in the basis at phi - theta_q; a z readout, a NOT and a QFR
commute with R.  A measurement splits branch b into its unnormalised
projections 2b and 2b + 1 and draws nothing; each draw is a step whose
numerator is P(branch, outcome 0).  Without a channel operation psi does not
depend on the angles, so the tree runs at one point; with one, each numerator
is a real trig polynomial of degree 2 in alpha and beta, 25 coefficients on
phi(alpha) (x) phi(beta), phi = [1, cos, sin, cos 2, sin 2], fixed by a 5 x 5
grid (``_compile``).  A round takes outcome 1 where its draw >= p / w, p the
numerator at its angles and branch and w the branch's weight.  With a
channel, the sampler carries w from 1 per round (``_sample``); without one,
p / w is a constant of the branch, which ``_table`` computes once per step
and branch, so a step is one gather and one comparison.  ``_table`` keeps
the tables of the 16 most recently used specs, so later calls on a spec only
sample.

A round is sampled to one integer code, its steps' outcomes in order, and
every guess follows every split, so the code less its guesses' bits is the
branch.  ``_codes`` tabulates every column on the codes: a column is one
``take``, formed only when read, and a run's statistics one ``bincount``.

A channel kind's step reads only its harmonic support (``_terms``), 9 of
the 25 columns in general and 1 to 25 by step in intercept, and drops its
coefficients beyond it, each at most ``_TOL``.  ``_basis`` forms only the
harmonics those columns read: 1, cos 2 and sin 2 of each angle in general,
all five in intercept.  A step on column 0 alone (the constant 1) is a take,
one of at most ``_MATMUL_BRANCHES`` branches one small product and a take,
and a wider one gathers each round's
coefficients as (columns, rounds), the basis's own layout, and dots them
with it over the columns.  So p moves by the dropped terms (at most 6e-16
each where measured) and rounding: only a draw within ~1e-14 / w of p / w
flips.

Gates and channel operations address the register by position, in the order
of ``Scenario.layout``, Eve's ancillas on top; readout steps name qubits by
label.  A measured qubit stays in the register, in the outcome's ket, so an
intercepting Eve resends the state she found.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

# rows per sampler pass of a channel kind, whose steps hold (branches, rows)
# or (rows, columns) arrays; a channel-free kind samples a call in one pass
CHUNK = 2048

# off a step's support the grid inversion leaves <= 5.9e-16 (60 random specs
# per kind); a real coefficient is this small only ~3e-6 from gamma = m pi/4
_TOL = 1e-13

# 2,048 rows, one CPU, gather/product us: 26/13 at (8 branches, 9 columns),
# 26/20 at (16, 9), 26/31 at (32, 9), 59/316 at (128, 25); one BLAS thread
_MATMUL_BRANCHES = 16


def _qfr_phases(n, gates):
    """The diagonal of the QFR gates ``gates``, (control, target) pairs, on an
    n-qubit register: exp(-i pi/4 sum z_control z_target)."""
    z = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    return np.exp(-0.25j * np.pi * sum(z[:, c] * z[:, t] for c, t in gates))


def _flipped(amps, q):
    """``amps`` with qubit q's bit flipped in every index."""
    return np.take(amps, np.arange(amps.shape[-1]) ^ (1 << q), axis=-1)


def _weight(amps, other=None):
    """Each branch's probability ||psi_b||**2 at each point, or with
    ``other``, Re <psi_b|other_b>."""
    other = amps if other is None else other
    return np.einsum("...i,...i->...", amps.view(np.float64), other.view(np.float64))


class _Tree:
    """A kind's branches at angle points: ``amps`` (points, branches,
    2**qubits); each branch's recorded ``bits``; ``steps``, one (record,
    invert, splits, numerator) per draw after the angles, the numerator per
    (point, branch), over the branch's weight; ``fixed``, the constant
    records; from ``_table``, ``thresholds`` (each step's p / w per branch)
    without a channel operation, ``cols`` and ``terms`` (``_terms``) with one,
    and ``codes`` (``_codes``)."""

    def __init__(self, sc, attack, angles):
        self.sc, self.attack, self.angles = sc, attack, angles
        self.amps, self.bits, self.steps, self.fixed = None, {}, [], {}
        self.thresholds = self.cols = self.terms = self.codes = None


def _project(amps, q, theta=None):
    """Each branch's projections onto the outcomes 0 and 1 of qubit q,
    (points, branches, outcome, 2**qubits): in z, the amplitudes whose bit q
    is the outcome; in the equator basis at theta (one angle, or one per
    point), (psi +- O psi) / 2 with O = e^{-i theta}|0><1| + e^{i theta}|1><0|,
    whose outcome 1 is |theta + pi>."""
    bit = (np.arange(amps.shape[-1]) >> q) & 1
    if theta is None:
        return amps[:, :, None] * (bit == np.arange(2)[:, None])
    phase = np.exp(1j * np.asarray(theta)[..., None] * (2 * bit - 1))[..., None, :]
    o_psi = phase * _flipped(amps, q)
    kids = np.stack([o_psi, -o_psi], axis=2)
    kids += amps[:, :, None]
    kids *= 0.5
    return kids


def _measure(tree, q, theta=None, record=None, invert=False):
    """Measure qubit q (as ``_project``): branch b splits into 2b and 2b + 1,
    and the step gives outcome 1 at draw >= P(0), recorded as ``record`` (its
    complement with ``invert``); no guess may precede it (``_sample``)."""
    if not all(step[2] for step in tree.steps):
        raise ValueError("a measurement follows a guess step")
    kids = _project(tree.amps, q, theta)
    tree.steps.append((record, invert, True, _weight(kids[:, :, 0])))
    tree.amps = kids.reshape(len(kids), -1, kids.shape[3])
    tree.bits = {k: np.repeat(v, 2) for k, v in tree.bits.items()}
    if record:
        tree.bits[record] = np.tile([1, 0] if invert else [0, 1], kids.shape[1])


# -- channel operations: Eve on one leg, after the gate that sent the qubit --

# basis shift and entangler overlap on the legs C:A->B, C:B->A, D:B->A, D:A->B;
# a return leg co-rotates Eve's basis with the far station's quarter-turn
_LEGS = ((0.0, "cx"), (np.pi / 2, "cy"), (0.0, "cx"), (np.pi / 2, "cy"))


def _eve_angle(tree, travel, shift):
    """Eve's basis angle on a leg, gamma + shift, in the frame of the travel
    qubit: one angle per point.  gamma is taken mod 2 pi first, so a large
    one keeps the shift and the frame's angle."""
    return tree.attack["gamma"] % (2 * np.pi) + shift - tree.angles[tree.sc.kets[travel]]


def _intercept(tree, travel, shift, overlap):
    """Measure the travel qubit in Eve's basis; it stays in the state she
    found, which she resends."""
    _measure(tree, travel, _eve_angle(tree, travel, shift))


def _entangle(tree, travel, shift, overlap):
    """Append Eve's ancilla, fresh in |0>, on top: psi|0> becomes
    psi|0> + (P psi)((c - 1)|0> + sqrt(1 - c^2)|1>), with P = |v><v| the
    projector onto v = |theta + pi> on the travel qubit, theta Eve's basis
    angle and c the leg's overlap.  Only the |theta + pi> branch moves the
    ancilla."""
    c = tree.attack[overlap]
    p_psi = _project(tree.amps, travel, _eve_angle(tree, travel, shift))[:, :, 1]
    tree.amps = np.concatenate([tree.amps + (c - 1.0) * p_psi,
                                np.sqrt(max(0.0, 1.0 - c * c)) * p_psi], axis=2)


# -- readout steps -----------------------------------------------------------

def _eq(tree, label):
    """Measure travel qubit ``label`` in its own basis, at angle 0 in the
    frame; record its odd key bit (+1 is 1)."""
    _measure(tree, tree.sc.layout.index(label), 0.0, label, invert=True)


def _z(tree, label):
    """Measure home qubit ``label``; record its even key bit (up is key 0)."""
    _measure(tree, tree.sc.layout.index(label), record=label)


def _flip(tree, label, cond):
    """Bob's step 9: NOT on his home qubit ``label`` in each branch whose odd
    key bit ``cond`` is 1."""
    flip = (tree.bits[cond] == 1)[:, None]
    tree.amps = np.where(flip, _flipped(tree.amps, tree.sc.layout.index(label)), tree.amps)


def make_ancilla_pair(c: float):
    """Two normalized single-qubit kets with real inner product c."""
    if not (0.0 <= c <= 1.0):
        raise ValueError("overlap must lie in [0, 1]")
    return np.array([1.0, 0.0]), np.array([c, np.sqrt(max(0.0, 1.0 - c * c))])


def _eve_states(cx, cy):
    """Eve's pair states given an up and a down home qubit, averaged over the
    angle: (|e0h0><e0h0| + |e1h1><e1h1|) / 2 and (|e0h1><e0h1| + |e1h0><e1h0|)
    / 2, e and h the pairs of overlaps cx and cy, E the lower bit."""
    (e0, e1), (h0, h1) = make_ancilla_pair(cx), make_ancilla_pair(cy)
    kets = np.array([[np.kron(h0, e0), np.kron(h1, e1)], [np.kron(h1, e0), np.kron(h0, e1)]])
    return 0.5 * np.einsum("uki,ukj->uij", kets, kets).astype(np.complex128)


def _eve_povm(cx, cy):
    """Eve's M_up on one ancilla pair: the rays of |1> = e0h0 - e1h1 and of
    |4> = e0h1 - e1h0 less its |1> part, each certain on a balanced attack,
    and on the rest the Helstrom projector of sigma_up - sigma_dn
    (``_eve_states``); complex (4, 4)."""
    def ray(v):
        n = np.linalg.norm(v)
        return np.outer(v / n, v / n) if n >= 1e-9 else np.zeros((4, 4))

    (e0, e1), (h0, h1) = make_ancilla_pair(cx), make_ancilla_pair(cy)
    v4 = np.kron(h1, e0) - np.kron(h0, e1)
    p1 = ray(np.kron(h0, e0) - np.kron(h1, e1))
    p4 = ray(v4 - p1 @ v4)
    residual = np.eye(4) - p1 - p4
    sigma_up, sigma_dn = _eve_states(cx, cy)
    vals, vecs = np.linalg.eigh(residual @ (sigma_up - sigma_dn) @ residual)
    up = vecs[:, vals > 1e-12]
    return p1 + residual @ (up @ up.conj().T) @ residual


def _povm(tree, record, label):
    """Eve's two-outcome POVM (``_eve_povm``) on her ancilla pair of qubit
    ``label`` and the one above it: P(up) is tr((M_up (x) 1) rho_b), the
    identity on her other qubits, over tr(rho_b), recorded as ``record``."""
    m_up = _eve_povm(tree.attack["cx"], tree.attack["cy"])
    psi = tree.amps
    pair = psi.reshape(*psi.shape[:2], -1, len(m_up), 1 << tree.sc.layout.index(label))
    tree.steps.append((record, False, False, _weight(psi, (m_up @ pair).reshape(psi.shape))))


def _helstrom(tree):
    """Eve's Helstrom measurement on her stolen photons, every qubit above C
    and D, between her states given the shared odd key bit.

    Her states given C = D = bit are R_E rho_bit R_E^+, with R_E the rotation
    by her photons' angles and rho_bit from the frame register
    2**(-n/2) * ``_qfr_phases``, C and D read at angle 0; bit 0 is key 1.  So
    the trace distance between them and the positive eigenspace of
    rho_0 - rho_1 in the frame, one eigh in her dimensions, are constants of
    the kind, solved in its compile.  Her P(guess key 1) is the weight of
    each branch's projection onto that eigenspace, over the branch's
    weight."""
    sc, n = tree.sc, len(tree.sc.layout)
    lo, hi = sorted(sc.layout.index(k) for k in ("C", "D"))
    # (Eve's photons, the upper of C and D, between, the lower, below)
    prep = _qfr_phases(n, sc.gates).reshape(1 << (n - hi - 1), 2, -1, 2, 1 << lo)
    rho = []
    for s in (1, -1):                                    # <0| or <pi| on both C and D
        m = prep[:, 0, :, 0] + s * (prep[:, 0, :, 1] + prep[:, 1, :, 0]) + prep[:, 1, :, 1]
        m = m.reshape(len(m), -1)
        r = m @ m.conj().T
        rho.append(r / np.trace(r).real)
    vals, vecs = np.linalg.eigh(rho[0] - rho[1])
    up = vecs[:, vals > 1e-9].conj()
    a = tree.amps.reshape(*tree.amps.shape[:2], len(up), -1)      # Eve's photons on top
    p1 = np.sum(np.abs(np.einsum("pbeh,ek->pbkh", a, up)) ** 2, axis=(2, 3))
    tree.fixed["trace_dist"] = 0.5 * float(np.sum(np.abs(vals)))
    tree.steps.append(("guess", True, False, p1))


# -- the scenario table --------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One attack kind as data.

    ``layout``: the qubit labels in register order, lowest qubit first.
    ``kets``: each qubit's equator ket, ``"home"`` (angle 0) or a drawn
    angle.  ``gates``: QFR (control, target) pairs, by register position;
    with a ``channel`` operation, gate i sends its target down leg i of
    ``_LEGS``.
    ``readout``: ``(step, *args)`` steps, which record key bits and guesses.
    ``roles``: the records behind the public alpha, beta, C, D, A, B columns;
    ``eve``: those of Eve's guesses of Alice's and Bob's keys, and
    ``eve_key``: the public key column her guesses of Alice's key aim at.  A
    round runs ``copies`` instances; copy i's records get the suffix i.
    ``params``: the names of the attack spec's parameters, in spec order.
    """

    draws: int
    layout: tuple
    kets: tuple
    gates: tuple
    readout: tuple
    channel: object = None
    roles: tuple = ("alpha", "beta", "C", "D", "A", "B")
    eve: tuple = (None, None)
    even_key: bool = True
    copies: int = 1
    params: tuple = ()
    eve_key: str | None = None


_NONE = Scenario(
    draws=6, layout=("A", "B", "C", "D"), kets=("home", "home", "alpha", "beta"),
    gates=((0, 2), (1, 2), (1, 3), (0, 3)),                 # steps 3, 4, 6, 7
    readout=((_eq, "C"), (_eq, "D"), (_flip, "B", "D"),
             (_z, "A"), (_z, "B")))

# PNS pulses carry two extra photons: Eve takes E1 on the outbound and E2 on
# the return channel, so E1 misses the far station's rotations
_PULSE_KETS = ("alpha", "beta", "alpha", "alpha", "beta", "beta")

SCENARIOS = {
    "none": _NONE,
    "general": replace(_NONE, draws=8, layout=("A", "B", "C", "D", "E", "F", "E'", "F'"),
                       readout=_NONE.readout + ((_povm, "guess_bob", "E"),
                                                (_povm, "guess_alice", "E'")),
                       channel=_entangle, eve=("guess_alice", "guess_bob"),
                       params=("cx", "cy", "gamma"), eve_key="k_alice_even"),
    "intercept": replace(_NONE, draws=10, channel=_intercept, params=("gamma",)),
    # Eve's lone home E brokers all three travel qubits: C picks up rotations
    # from (A, E), D from (B, E) and her own travel E' from (E, A)
    "impersonate:one": Scenario(
        draws=9, layout=("A", "B", "E", "C", "D", "E'"),
        kets=("home", "home", "home", "alpha", "beta", "epsilon"),
        gates=((0, 3), (2, 3), (1, 4), (2, 4), (2, 5), (0, 5)),
        readout=((_eq, "C"), (_eq, "D"), (_eq, "E'"),
                 (_flip, "B", "D"), (_z, "A"), (_z, "B"), (_z, "E")),
        eve=("E'", "E'"), eve_key="k_alice_odd"),
    # Eve runs a full protocol with each party (copy 0 with Alice, 1 with Bob)
    "impersonate:two": replace(_NONE, draws=12, copies=2,
                               roles=("alpha0", "beta1", "C0", "D1", "A0", "B1"),
                               eve=("D0", "C1"), eve_key="k_alice_odd"),
    "pns:3": Scenario(
        draws=7, layout=("A", "B", "C", "D", "E1", "E2", "E1'", "E2'"),
        kets=("home", "home") + _PULSE_KETS,
        gates=((0, 2), (0, 4), (0, 5), (1, 2), (1, 5),
               (1, 3), (1, 6), (1, 7), (0, 3), (0, 7)),
        readout=((_eq, "C"), (_eq, "D"), (_flip, "B", "D"),
                 (_z, "A"), (_z, "B"), (_helstrom,)),
        eve=("guess", "guess"), eve_key="k_alice_odd"),
    "pns:4home": Scenario(
        draws=9, layout=("A1", "A2", "B1", "B2", "C", "D", "E1", "E2", "E1'", "E2'"),
        kets=("home",) * 4 + _PULSE_KETS,
        gates=((0, 4), (1, 4), (0, 6), (1, 6), (0, 7), (1, 7),
               (2, 4), (3, 4), (2, 7), (3, 7),
               (2, 5), (3, 5), (2, 8), (3, 8), (2, 9), (3, 9),
               (0, 5), (1, 5), (0, 9), (1, 9)),
        readout=((_eq, "C"), (_eq, "D"), (_z, "A1"),
                 (_z, "A2"), (_z, "B1"), (_z, "B2"), (_helstrom,)),
        roles=("alpha", "beta", "C", "D", "A1", "B1"), eve=("guess", "guess"),
        even_key=False, eve_key="k_alice_odd"),
}


def _angles(sc):
    """The drawn ket angles, in order of first use."""
    return tuple(dict.fromkeys(k for k in sc.kets if k != "home"))


def _branches(sc, attack, angles):
    """Kind ``sc``'s branch tree at the points ``angles`` (each drawn angle,
    one value per point; none for one point): the frame register
    2**(-n/2) times each gate's QFR diagonal, gate i followed by the
    ``channel`` operation on leg i, then the readout."""
    tree = _Tree(sc, attack, angles)
    n = len(sc.kets)
    points = max(map(len, angles.values()), default=1)
    tree.amps = np.full((points, 1, 1 << n), 2.0 ** (-n / 2), dtype=np.complex128)
    for leg, gate in enumerate(sc.gates):
        tree.amps = tree.amps * _qfr_phases(tree.amps.shape[2].bit_length() - 1, (gate,))
        if sc.channel:
            sc.channel(tree, gate[1], *_LEGS[leg])
    for step, *args in sc.readout:
        step(tree, *args)
    return tree


def _harmonics(theta, orders):
    """phi_i(theta) of each angle for i = 1, 2 and each of 3 and 4 in
    ``orders``, as {i: row}: cos, sin, and cos 2 and sin 2 from them."""
    c, s = np.cos(theta), np.sin(theta)
    rows = {1: c, 2: s}
    if 3 in orders:
        rows[3] = 2 * c * c - 1
    if 4 in orders:
        rows[4] = 2 * s * c
    return rows


def _phi(theta):
    """phi(theta) = [1, cos, sin, cos 2, sin 2] of each angle, (5, angles): a
    trig polynomial of degree 2 is phi . its coefficients."""
    return np.stack([np.ones_like(theta), *_harmonics(theta, (3, 4)).values()])


def _compile(sc, attack):
    """Kind ``sc``'s branch table: its tree on the n x n grid 2 pi m / n of
    (alpha, beta), n = 5 with a ``channel`` and 1 without (psi is constant),
    each step's numerator as (branches, n**2) real coefficients on phi(alpha)
    (x) phi(beta): phi's inverse on the grid, phi^T diag(1, 2, 2, 2, 2) / n."""
    n = 5 if sc.channel else 1
    theta = 2.0 * np.pi * np.arange(n) / n
    inv = (_phi(theta) * np.array([1.0, 2, 2, 2, 2])[:, None] / n)[:n]
    grid = np.meshgrid(theta, theta, indexing="ij")
    tree = _branches(sc, attack, {k: g.ravel() for k, g in zip(("alpha", "beta"), grid)})
    tree.steps = [(*step[:3], np.einsum("jm,kl,mlb->bjk", inv, inv, step[3].reshape(n, n, -1))
                   .reshape(-1, n * n)) for step in tree.steps]
    return tree


def _terms(steps):
    """``cols``, column 0 and the basis columns with a coefficient above
    ``_TOL``, in order of first use, and each step's (branches, k)
    coefficients on the fewest first k of them that hold all of its own."""
    used = [np.flatnonzero(np.abs(num).max(axis=0) > _TOL) for *_, num in steps]
    cols = np.array(list(dict.fromkeys([0, *np.concatenate(used).tolist()])), dtype=np.intp)
    k = [np.flatnonzero(np.isin(cols, u)).max(initial=-1) + 1 for u in used]
    return cols, tuple(num[:, cols[:j]] for (*_, num), j in zip(steps, k))


def _thresholds(steps):
    """Each step's threshold p / w per branch, for a kind without a channel
    operation, by the sampler's own float operations: w starts at 1, p is
    the branch's constant numerator (what a dot with a basis of ones gives),
    and a split gives branch 2b the weight p and branch 2b + 1 the weight
    w - p.  A branch of weight 0 gets 0/0, nan, silently: no draw reaches it
    but by a rounding event."""
    w, out = np.ones(1), []
    with np.errstate(invalid="ignore", divide="ignore"):
        for _, _, splits, num in steps:
            p = num[:, 0]
            out.append(p / w)
            if splits:
                w = np.stack([p, w - p], axis=1).ravel()
    return tuple(out)


def _codes(sc, steps, fixed):
    """Every record and public column on the round codes, whose bits are the
    steps' outcomes, copy after copy, the first the highest: a record is its
    step's bit (complement with ``invert``), copy i's with suffix i, and a
    ``fixed`` value constant; the public columns follow ``roles`` and
    ``eve``, -1 for a key or guess the kind does not have."""
    s, copies = len(steps), sc.copies
    code, rec = np.arange(1 << s * copies), {}
    for i in range(copies):
        tag = str(i) if copies > 1 else ""
        for j, (record, invert, _, _) in enumerate(steps):
            if record:
                rec[record + tag] = ((code >> (s * (copies - i) - 1 - j)) & 1) ^ invert
        rec.update((name + tag, np.full(len(code), v)) for name, v in fixed.items())
    c, d, a, b = (rec[k] for k in sc.roles[2:])
    absent = -np.ones_like(c)
    eve_a, eve_b = (rec[k] if k else absent for k in sc.eve)
    return {**rec, "out_c": 2 * c - 1, "out_d": 2 * d - 1, "out_a": 1 - 2 * a, "out_b": 1 - 2 * b,
            "k_alice_odd": c, "k_bob_odd": d,
            "k_alice_even": a if sc.even_key else absent,
            "k_bob_even": b if sc.even_key else absent,
            "eve_guess_alice": eve_a, "eve_guess_bob": eve_b}


@lru_cache(maxsize=16)
def _table(sc, values):
    """Kind ``sc``'s branch table for the attack whose ``params`` take
    ``values``, compiled on first use and kept for the process; a kind
    without parameters has one table, with its ``codes`` and ``thresholds``
    or, with a channel operation, ``cols`` and ``terms``; ``steps`` keep
    every coefficient.  The amplitudes are dropped; every array is
    read-only."""
    attack = dict(zip(sc.params, values))
    tree = _compile(sc, attack)
    tree.amps = tree.attack = None
    if sc.channel:
        tree.cols, tree.terms = _terms(tree.steps)
    else:
        tree.thresholds = _thresholds(tree.steps)
    tree.codes = _codes(sc, tree.steps, tree.fixed)
    for arr in [*(step[3] for step in tree.steps), *tree.codes.values(),
                *(tree.thresholds or (tree.cols, *tree.terms))]:
        arr.flags.writeable = False
    return tree


def _basis(angles, cols):
    """Columns ``cols`` of each round's phi(alpha) (x) phi(beta), column
    5 i + j being phi_i(alpha) phi_j(beta), as (columns, rounds): a step
    on the first k of ``cols`` reads the contiguous rows ``[:k]``.  Only the
    harmonics ``cols`` read are formed, and each row is written in place: a
    product of two harmonics, or a copy where the other factor is phi_0 = 1,
    since 1.0 x == x."""
    pairs = [divmod(col, 5) for col in cols.tolist()]
    pa = _harmonics(angles["alpha"], {i for i, _ in pairs})
    pb = _harmonics(angles["beta"], {j for _, j in pairs})
    out = np.empty((len(pairs), len(angles["alpha"])))
    for row, (i, j) in zip(out, pairs):
        if i and j:
            np.multiply(pa[i], pb[j], out=row)
        else:
            row[...] = pa[i] if i else pb[j] if j else 1.0
    return out


def _sample(tbl, u):
    """Each round's code from the branch table ``tbl``: a step's outcome is 1
    where the draw >= p / w, p its numerator at the round's angles and branch
    b (the code less the guesses' bits), w the branch's weight (1 at first);
    a split moves the round to 2b + outcome, of weight p or w - p.  Without a
    channel p / w is the table's threshold of the branch; with one, each
    round carries its weight and p is the step's ``terms`` of branch b, or
    their dot with the round's first k ``_basis`` rows.  Only a rounding
    event reaches weight 0, so its 0/0 is silent."""
    draws = iter(u.T)
    angles = dict(zip(_angles(tbl.sc), draws))           # the angles' draws
    n, cuts = len(u), tbl.thresholds
    if not cuts:
        basis = _basis({k: 2.0 * np.pi * v for k, v in angles.items()}, tbl.cols)
        w, at = np.ones(n), np.arange(n)
    code, guesses = np.zeros(n, dtype=np.intp), 0
    with np.errstate(invalid="ignore", divide="ignore"):
        for i, (_, _, splits, _) in enumerate(tbl.steps):
            branch = code >> guesses if guesses else code
            if cuts:
                bit = next(draws) >= cuts[i].take(branch)
            else:
                terms = tbl.terms[i]
                k = terms.shape[1]
                if k == 1:
                    p = terms.take(branch)
                elif len(terms) <= _MATMUL_BRANCHES:
                    p = (terms @ basis[:k]).take(branch * n + at)
                else:
                    p = np.einsum("kr,kr->r", terms.T.take(branch, axis=1), basis[:k])
                bit = next(draws) >= p / w
                if splits:
                    w = np.where(bit, w - p, p)
            code <<= 1
            code |= bit
            guesses += not splits
    if next(draws, None) is not None:
        raise RuntimeError("the scenario's operations left draws unused")
    return code


class Rounds(Mapping):
    """The read-only columns of rounds, from each round's ``code`` and the
    compiled spec ``tree`` (``_table``), whose ``codes`` are the code
    ``table``: an angle is 2 pi times its draw, any other column a take of
    the table's, formed on its first read and kept."""

    def __init__(self, code, tree, draws):
        self.code, self.tree, self.table, self._draws = code, tree, tree.codes, draws
        self._cols = {}

    def __getitem__(self, name):
        col = self._cols.get(name)
        if col is None:
            col = (2.0 * np.pi * self._draws[name] if name in self._draws
                   else self.table[name].take(self.code))
            col.flags.writeable = False
            self._cols[name] = col
        return col

    def __iter__(self):
        return iter([*self._draws, *self.table])

    def __len__(self):
        return len(self._draws) + len(self.table)


def protocol_rounds(u, attack=None):
    """Run rounds of the scenario ``attack["kind"]`` (default ``"none"``), one
    row of ``u`` each; the attack's parameters come from the same dict
    (``gamma``; ``cx``, ``cy`` and ``gamma`` for ``general``, from which the
    compile builds Eve's POVM).  Returns the public columns and every readout
    record, ``Rounds`` read from the codes.

    The kind is compiled into its branch and code tables once per process
    for each distinct spec (``_table``), and the rows are sampled from it
    (``_sample``), a channel kind's in chunks of at most ``CHUNK``.  Every
    row is sampled on its own, so the chunk size changes no column.  Copy i
    of a kind with ``copies`` instances samples ``u[:, i*d:(i+1)*d]``,
    d = draws / copies, each draw a row of ``u.T`` (contiguous from
    ``harness.round_uniforms``), into the code bits after copy i - 1's."""
    attack = attack or {"kind": "none"}
    sc = SCENARIOS[attack["kind"]]
    if u.ndim != 2 or u.shape[1] != sc.draws or not len(u):
        raise ValueError(f"{attack['kind']} needs rounds of {sc.draws} draws, got shape {u.shape}")
    tbl = _table(sc, tuple(float(attack[p]) for p in sc.params))
    d, code, draws = sc.draws // sc.copies, 0, {}
    for i in range(sc.copies):
        rows = u[:, i * d:(i + 1) * d]
        step = CHUNK if sc.channel else len(rows)
        parts = [_sample(tbl, rows[lo:lo + step]) for lo in range(0, len(rows), step)]
        code = code << len(tbl.steps) | (parts[0] if len(parts) == 1 else np.concatenate(parts))
        tag = str(i) if sc.copies > 1 else ""
        draws.update((name + tag, rows[:, j]) for j, name in enumerate(_angles(sc)))
    draws["alpha"], draws["beta"] = draws[sc.roles[0]], draws[sc.roles[1]]
    return Rounds(code, tbl, draws)


# kept only because perfbench/spans.py wraps them by name
def one_home_rounds(u):
    """Single-home impersonation rounds."""
    return protocol_rounds(u, {"kind": "impersonate:one"})


def pns_rounds(variant, u):
    """Photon-splitting rounds of ``PNS_KINDS[variant]``."""
    return protocol_rounds(u, {"kind": PNS_KINDS[variant]})


PNS_KINDS = {"three-photon": "pns:3", "four-home-qubit": "pns:4home"}
