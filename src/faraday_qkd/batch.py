"""Vectorized Monte Carlo kernels: the scenario table and its one executor.

Rounds are simulated in batches of shape (rounds, 2**n) with the same
little-endian register conventions and the same per-round draw order as the
scalar engine in :mod:`protocol`, so a batch run and a loop of
``protocol.run_round`` calls fed the identical uniform streams produce
identical transcripts.

Each attack kind is one record of :data:`SCENARIOS`.  Draws follow the order
of operations: a row of ``u`` gives the angles (2*pi times the uniform, in
order of first use by the kets), then one uniform to each stochastic channel
operation and readout step in turn, copy after copy.

Gates and channel operations address the prepared register by position, in
the order of ``Scenario.layout``; readout steps name qubits by their layout
label.  A measured qubit leaves the register (an intercepting Eve puts back
the state she found), so once the parties have read out, only Eve's own
qubits are left.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

CHUNK = 2048
# a chunk's full register is at most this many bytes (or CHUNK rows): every
# kernel step streams through the register, so it is kept about cache-sized
_CHUNK_BYTES = 2 << 20

_SQRT2 = np.sqrt(2.0)


def _nq(amps):
    return int(round(np.log2(amps.shape[1])))


@lru_cache(maxsize=None)
def _qfr_phases(n, gates):
    """The diagonal of the QFR gates ``gates``, (control, target) pairs, on an
    n-qubit register: exp(-i pi/4 sum z_control z_target), read-only."""
    z = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    phases = np.exp(-0.25j * np.pi * sum(z[:, c] * z[:, t] for c, t in gates))
    phases.flags.writeable = False
    return phases


@lru_cache(maxsize=None)
def _home_table(n, homes, gates):
    """The factor (2**(n - homes), 2**homes) that turns the product of the
    drawn-angle qubits into the prepared n-qubit register with one broadcast
    multiply, read-only: the constant product of the ``homes`` lowest qubits,
    all in the home ket, times the diagonal of the QFR gates ``gates``."""
    home = np.ones((1, 1), dtype=np.complex128)
    for q in range(homes):
        home = _insert(home, q, _basis_rot(0.0)[..., 0])
    table = home * _qfr_phases(n, gates).reshape(-1, 1 << homes) if gates else home
    table.flags.writeable = False
    return table


def _split(amps, q):
    dim = amps.shape[1]
    post = 1 << q
    pre = dim >> (q + 1)
    return amps.reshape(amps.shape[0], pre, 2, post)


def _basis_rot(theta):
    """Columns |theta> and |theta + pi>; column 0 is the equator ket."""
    theta = np.asarray(theta, dtype=np.float64)
    e = np.exp(1j * theta)
    v = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    v[..., 0, 0] = 1.0 / _SQRT2
    v[..., 0, 1] = 1.0 / _SQRT2
    v[..., 1, 0] = e / _SQRT2
    v[..., 1, 1] = -e / _SQRT2
    return v


def _measure(amps, q, u):
    """Measure qubit q in z, with outcome 1 where u >= P(0); return the bits
    and the renormalised register without qubit q."""
    a = _split(amps, q)
    p0 = np.einsum("bpiq->bi", np.abs(a) ** 2)[:, 0]
    bits = (u >= p0).astype(np.int64)
    p = np.where(bits == 0, p0, 1.0 - p0)
    kept = a[np.arange(len(bits)), :, bits, :]
    return bits, kept.reshape(len(bits), -1) / np.sqrt(p)[:, None]


def _measure_eq(amps, q, theta, u):
    """Measure qubit q in the equator basis at theta, with outcome 1 (|theta +
    pi>) where u >= P(0); return the bits and the renormalised register
    without qubit q.  Only basis column 0, for P(0), and each round's chosen
    column are contracted with the register."""
    a = _split(amps, q)
    b = len(a)
    v = np.broadcast_to(np.conj(_basis_rot(theta)), (b, 2, 2))
    c0 = np.matmul(v[:, None, None, :, 0], a).view(np.float64).reshape(b, -1)
    p0 = np.einsum("bi,bi->b", c0, c0)
    bits = (u >= p0).astype(np.int64)
    p = np.where(bits == 0, p0, 1.0 - p0)
    w = v[np.arange(b), :, bits] / np.sqrt(p)[:, None]
    return bits, np.matmul(w[:, None, None, :], a).reshape(b, -1)


def _insert(amps, q, kets):
    """The register with a new qubit q in ``kets``: one ket, or one per round."""
    a = amps.reshape(len(amps), -1, 1, 1 << q)
    return (np.reshape(kets, (-1, 1, 2, 1)) * a).reshape(len(amps), -1)


class _Rounds:
    """A chunk of rounds in flight: the register ``amps``, the records
    (angles, key bits, Eve's guesses), and the unused draws.  ``layout`` holds
    the labels of the prepared register, lowest qubit first, and ``qubits``
    those of the qubits not yet measured."""

    def __init__(self, u, attack, layout):
        self.draws, self.attack, self.rec = iter(u.T), attack, {}
        self.layout, self.qubits = layout, list(layout)
        # prepared: the register after the gates, kept for the Helstrom step
        self.amps = self.prepared = None

    def draw(self):
        return next(self.draws)

    def drop(self, label):
        """The position of qubit ``label``, which leaves the labels."""
        q = self.qubits.index(label)
        del self.qubits[q]
        return q


# -- channel operations: Eve on one leg, after the gate that sent the qubit --

# basis shift and entangler overlap on the legs C:A->B, C:B->A, D:B->A, D:A->B;
# a return leg co-rotates Eve's basis with the far station's quarter-turn
_LEGS = ((0.0, "cx"), (np.pi / 2, "cy"), (0.0, "cx"), (np.pi / 2, "cy"))


def _intercept(run, travel, shift, overlap):
    """Measure the travel qubit in Eve's basis and resend the state she found."""
    theta = run.attack["gamma"] + shift
    bits, rest = _measure_eq(run.amps, travel, theta, run.draw())
    run.amps = _insert(rest, travel, _basis_rot(theta)[:, bits].T)


def _entangle(run, travel, shift, overlap):
    """Append Eve's ancilla, fresh in |0>, on top: psi|0> becomes
    psi|0> + (P psi)((c - 1)|0> + sqrt(1 - c^2)|1>), with P = |v><v| the
    projector onto v = |theta + pi> on the travel qubit, theta = gamma + shift
    and c the leg's overlap.  Only the |theta + pi> branch moves the ancilla.
    P is applied as a rank-one operator: the travel qubit is contracted with
    v^+ once, and both ancilla halves are written into one new register."""
    c = run.attack[overlap]
    v = _basis_rot(run.attack["gamma"] + shift)[:, 1]
    a = _split(run.amps, travel)
    b, pre, _, post = a.shape
    w = np.einsum("i,bpiq->bpq", v.conj(), a)[:, :, None, :]     # v^+ psi
    out = np.empty((b, 2, pre, 2, post), dtype=np.complex128)
    np.multiply(w, ((c - 1.0) * v)[:, None], out=out[:, 0])
    out[:, 0] += a
    np.multiply(w, (np.sqrt(max(0.0, 1.0 - c * c)) * v)[:, None], out=out[:, 1])
    run.amps = out.reshape(b, -1)


# -- readout steps -----------------------------------------------------------

def _eq(run, label, angle):
    """Measure travel qubit ``label`` in its own basis; record its odd key bit
    (+1 is 1)."""
    q = run.drop(label)
    bits, run.amps = _measure_eq(run.amps, q, run.rec[angle], run.draw())
    run.rec[label] = 1 - bits


def _z(run, label):
    """Measure home qubit ``label``; record its even key bit (up is key 0)."""
    q = run.drop(label)
    run.rec[label], run.amps = _measure(run.amps, q, run.draw())


def _flip(run, label, cond):
    """Bob's step 9: NOT on his home qubit ``label`` when his odd key bit
    ``cond`` is 1."""
    a = _split(run.amps, run.qubits.index(label))
    run.amps = np.where((run.rec[cond] == 1)[:, None, None, None],
                        a[:, :, ::-1, :], a).reshape(run.amps.shape)


def _povm(run):
    """Eve's two-outcome POVM, on her (E, F) pair to guess Bob's home bit,
    then on (E', F') to guess Alice's."""
    b = run.amps.shape[0]
    m = run.amps.reshape(b, 4, 4)                      # axes: (E'F', EF)
    # the two pairs are in a product state: take the largest row and column
    p = np.abs(m) ** 2
    v_ef = m[np.arange(b), np.argmax(np.sum(p, axis=2), axis=1), :]
    v_pp = m[np.arange(b), :, np.argmax(np.sum(p, axis=1), axis=1)]
    m_up = np.asarray(run.attack["povm_up"], dtype=np.complex128)
    for v, label in ((v_ef, "guess_bob"), (v_pp, "guess_alice")):
        nrm = np.einsum("bi,bi->b", v.conj(), v).real
        p_up = np.clip(np.einsum("bi,ij,bj->b", v.conj(), m_up, v).real / nrm, 0.0, 1.0)
        run.rec[label] = (run.draw() >= p_up).astype(np.int64)


# a pivot of rho_0 + rho_1 with less weight than this is roundoff: the states
# have trace 1, and the real kinds leave about 1e-16 once their rank is spent
_RANK_TOL = 1e-12


def _range_basis(g):
    """An orthonormal basis (rounds, n, r) of the range of each round's PSD
    matrix g, from a Cholesky factorisation with diagonal pivoting run over
    the whole chunk.  It stops once every round's largest remaining diagonal
    entry is below _RANK_TOL, so r is the chunk's largest rank; a round of
    lower rank gets zero columns, which the QR completes orthonormally."""
    rows = np.arange(len(g))
    d = np.einsum("bii->bi", g).real
    cols = []
    for _ in range(g.shape[1]):
        p = np.argmax(d, axis=1)
        top = d[rows, p]
        live = top > _RANK_TOL
        if not live.any():
            break
        col = g[rows, :, p]                            # column p of the residual
        for c in cols:
            col = col - c * c[rows, p, None].conj()
        col = col * (live / np.sqrt(np.where(live, top, 1.0)))[:, None]
        d = d - (col.real ** 2 + col.imag ** 2)
        cols.append(col)
    return np.linalg.qr(np.stack(cols, axis=2))[0]


def _helstrom(run):
    """Eve's Helstrom measurement on her four stolen photons between her
    states given the shared odd key bit.  In the prepared register D sits just
    above C, the homes below C, and Eve's photons on top.

    Eve's state given C = D = bit is rho_bit = M_bit M_bit^+ over its trace,
    with M_bit the block (Eve, homes) contracted from the prepared register
    with the conjugated alpha and beta basis columns; bit 0 is key 1.  The
    Helstrom operator rho_{K=1} - rho_{K=0} = rho_0 - rho_1 is solved on the
    rank of Eve's states: eigh of Q^+ (rho_0 - rho_1) Q, with Q an orthonormal
    basis of the range of rho_0 + rho_1 (``_range_basis``; r = 4 of her 16
    dimensions in both real kinds), and the eigenvectors mapped back through
    Q.  There is no solve in her full 16 dimensions."""
    rec, (b, dim) = run.rec, run.amps.shape
    h = 1 << run.layout.index("C")
    # (bit, eve, homes): one contraction of the DC axis for both bits
    prep = run.prepared.reshape(b, dim, 4, h).swapaxes(1, 2).reshape(b, 4, dim * h)
    va, vb = (np.conj(_basis_rot(rec[k])) for k in ("alpha", "beta"))
    coef = (vb[:, :, None, :] * va[:, None, :, :]).reshape(b, 4, 2)
    blocks = (coef.swapaxes(1, 2) @ prep).reshape(b, 2, dim, h)
    grams = blocks @ blocks.conj().swapaxes(2, 3)      # (b, bit, dim, dim); bit 0 <=> key 1
    grams /= np.einsum("bkii->bk", grams).real[:, :, None, None]
    q = _range_basis(grams[:, 0] + grams[:, 1])
    vals, w = np.linalg.eigh(q.conj().swapaxes(1, 2) @ (grams[:, 0] - grams[:, 1]) @ q)
    vecs = q @ w
    rec["trace_dist"] = 0.5 * np.sum(np.abs(vals), axis=1)
    proj = np.einsum("bjk,bj->bk", vecs.conj(), run.amps)
    p1 = np.clip(np.sum((vals > 1e-9) * np.abs(proj) ** 2, axis=1), 0.0, 1.0)
    rec["guess"] = (run.draw() < p1).astype(np.int64)


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
    readout=((_eq, "C", "alpha"), (_eq, "D", "beta"), (_flip, "B", "D"),
             (_z, "A"), (_z, "B")))

# PNS pulses carry two extra photons: Eve takes E1 on the outbound and E2 on
# the return channel, so E1 misses the far station's rotations
_PULSE_KETS = ("alpha", "beta", "alpha", "alpha", "beta", "beta")

SCENARIOS = {
    "none": _NONE,
    "general": replace(_NONE, draws=8, layout=("A", "B", "C", "D", "E", "F", "E'", "F'"),
                       readout=_NONE.readout + ((_povm,),), channel=_entangle,
                       eve=("guess_alice", "guess_bob"), params=("cx", "cy", "gamma"),
                       eve_key="k_alice_even"),
    "intercept": replace(_NONE, draws=10, channel=_intercept, params=("gamma",)),
    # Eve's lone home E brokers all three travel qubits: C picks up rotations
    # from (A, E), D from (B, E) and her own travel E' from (E, A)
    "impersonate:one": Scenario(
        draws=9, layout=("A", "B", "E", "C", "D", "E'"),
        kets=("home", "home", "home", "alpha", "beta", "epsilon"),
        gates=((0, 3), (2, 3), (1, 4), (2, 4), (2, 5), (0, 5)),
        readout=((_eq, "C", "alpha"), (_eq, "D", "beta"), (_eq, "E'", "epsilon"),
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
        readout=((_eq, "C", "alpha"), (_eq, "D", "beta"), (_flip, "B", "D"),
                 (_z, "A"), (_z, "B"), (_helstrom,)),
        eve=("guess", "guess"), eve_key="k_alice_odd"),
    "pns:4home": Scenario(
        draws=9, layout=("A1", "A2", "B1", "B2", "C", "D", "E1", "E2", "E1'", "E2'"),
        kets=("home",) * 4 + _PULSE_KETS,
        gates=((0, 4), (1, 4), (0, 6), (1, 6), (0, 7), (1, 7),
               (2, 4), (3, 4), (2, 7), (3, 7),
               (2, 5), (3, 5), (2, 8), (3, 8), (2, 9), (3, 9),
               (0, 5), (1, 5), (0, 9), (1, 9)),
        readout=((_eq, "C", "alpha"), (_eq, "D", "beta"), (_z, "A1"),
                 (_z, "A2"), (_z, "B1"), (_z, "B2"), (_helstrom,)),
        roles=("alpha", "beta", "C", "D", "A1", "B1"), eve=("guess", "guess"),
        even_key=False, eve_key="k_alice_odd"),
}


def _run(sc, u, attack):
    """One chunk of rounds: draw the angles, build the product state, apply
    the gates and run the readout.  Only the drawn-angle qubits are built per
    round, on a register of 2**(n - homes) amplitudes; one broadcast multiply
    by the cached ``_home_table`` adds the homes (the lowest qubits) and,
    without a ``channel``, the whole gate list's QFR diagonal.  With one, each
    leg's gate is a multiply by its own diagonal (``_qfr_phases``) before the
    channel operation.  An equator readout contracts the register with one
    basis column per round (``_measure_eq``), never rotating the whole
    register."""
    run = _Rounds(u, attack, sc.layout)
    for name in dict.fromkeys(k for k in sc.kets if k != "home"):
        run.rec[name] = 2.0 * np.pi * run.draw()
    homes = sc.kets.count("home")
    drawn = np.ones((len(u), 1), dtype=np.complex128)
    for q, k in enumerate(sc.kets[homes:]):             # lowest index bit first
        drawn = _insert(drawn, q, _basis_rot(run.rec[k])[..., 0])
    table = _home_table(len(sc.kets), homes, () if sc.channel else sc.gates)
    run.amps = (drawn[:, :, None] * table).reshape(len(u), -1)
    for leg, gate in enumerate(sc.gates if sc.channel else ()):
        run.amps *= _qfr_phases(_nq(run.amps), (gate,))
        sc.channel(run, gate[1], *_LEGS[leg])
    run.prepared = run.amps
    for step, *args in sc.readout:
        step(run, *args)
    if next(run.draws, None) is not None:
        raise RuntimeError("the scenario's operations left draws unused")
    return run.rec


def _public(sc, rec):
    """Measured key bits and guesses to the public columns."""
    alpha, beta, c, d, a, b = (rec[k] for k in sc.roles)
    eve_a, eve_b = (rec[k] if k else -np.ones_like(c) for k in sc.eve)
    return {**rec, "alpha": alpha, "beta": beta,
            "out_c": 2 * c - 1, "out_d": 2 * d - 1, "out_a": 1 - 2 * a, "out_b": 1 - 2 * b,
            "k_alice_odd": c, "k_bob_odd": d,
            "k_alice_even": a if sc.even_key else -np.ones_like(a),
            "k_bob_even": b if sc.even_key else -np.ones_like(b),
            "eve_guess_alice": eve_a, "eve_guess_bob": eve_b}


def protocol_rounds(u, attack=None):
    """Run rounds of the scenario ``attack["kind"]`` (default ``"none"``), one
    row of ``u`` each; the attack's parameters come from the same dict
    (``gamma``; ``cx``, ``cy`` and ``povm_up`` for ``general``).  Returns the
    public columns and every readout record.

    Rows run in chunks of at most ``CHUNK``, and at most ``_CHUNK_BYTES`` of
    the scenario's full register: 128 rows for pns:4home (10 qubits), 512 for
    pns:3 and general (8), ``CHUNK`` for the rest.  Every row is computed on
    its own, so the chunk size changes no public column."""
    attack = attack or {"kind": "none"}
    sc = SCENARIOS[attack["kind"]]
    if u.ndim != 2 or u.shape[1] != sc.draws or not len(u):
        raise ValueError(f"{attack['kind']} needs rounds of {sc.draws} draws, got shape {u.shape}")
    rows = u.reshape(-1, sc.draws // sc.copies)          # copies run as consecutive rows
    size = min(CHUNK, _CHUNK_BYTES // (16 << len(sc.layout)))
    chunks = [_run(sc, rows[lo:lo + size], attack) for lo in range(0, len(rows), size)]
    rec = {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}
    if sc.copies > 1:
        rec = {f"{name}{i}": arr.reshape(-1, sc.copies)[:, i]
               for name, arr in rec.items() for i in range(sc.copies)}
    return _public(sc, rec)


# kept only because perfbench/spans.py wraps them by name
def one_home_rounds(u):
    """Single-home impersonation rounds."""
    return protocol_rounds(u, {"kind": "impersonate:one"})


def pns_rounds(variant, u):
    """Photon-splitting rounds of ``PNS_KINDS[variant]``."""
    return protocol_rounds(u, {"kind": PNS_KINDS[variant]})


PNS_KINDS = {"three-photon": "pns:3", "four-home-qubit": "pns:4home"}
