"""Vectorized Monte Carlo kernels: the scenario table and its one executor.

Rounds are simulated in batches with the same little-endian register
conventions and the same per-round draw order as the scalar engine in
:mod:`protocol`, so a batch run and a loop of ``protocol.run_round`` calls
fed the identical uniform streams produce identical transcripts.

Each attack kind is one record of :data:`SCENARIOS`.  Draws follow the order
of operations: a row of ``u`` gives the angles (2*pi times the uniform, in
order of first use by the kets), then one uniform to each stochastic channel
operation and readout step in turn, copy after copy.

The executor works in the angle frame.  Every ket is an equator ket and
every gate a diagonal QFR, so a round's register is R psi, with
R = (x)_q diag(1, e^{i theta_q}) over the qubits' ket angles (0 for a home)
and psi the frame register: at preparation, the kind's register at all-zero
angles, the same for every round.  An operation on qubit q in the basis at
angle phi acts on psi in the basis at phi - theta_q; a z readout, a NOT and
a QFR commute with R.  The frame register holds distinct states, one row of
``amps`` each, and ``idx`` gives each round's state.  A readout splits each
state by the bits its rounds drew, so a kind without a channel operation
holds at most 2**(readouts so far) states; a channel operation, whose angle
is per round, gives every round its own.

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
# a channel kind holds one register per round, so its chunk is also capped at
# this many bytes of register: every kernel step streams through the
# register, so it is kept about cache-sized
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


def _regroup(run, bits):
    """Split the states by the rounds' ``bits``: point each round at its
    (state, bit) pair, the pairs some round took numbered in order, and
    return those pairs' states and bits."""
    # every state has a round, so as many states as rounds means one round
    # each: every state keeps its place
    if len(run.amps) == len(run.idx):
        b = np.empty_like(bits)
        b[run.idx] = bits
        return np.arange(len(b)), b
    key = 2 * run.idx + bits
    taken = np.zeros(2 * len(run.amps), dtype=bool)
    taken[key] = True
    run.idx = (np.cumsum(taken) - 1)[key]
    pairs = np.flatnonzero(taken)
    return pairs >> 1, pairs & 1


def _outcome(run, p0, u):
    """Each round takes outcome 1 where its draw u >= its state's P(0), which
    is computed once per state.  Returns the rounds' outcomes and the
    (state, outcome) pairs some round took, with their probabilities."""
    bits = (u >= p0[run.idx]).astype(np.int64)
    s, b = _regroup(run, bits)
    return bits, s, b, np.where(b == 0, p0[s], 1.0 - p0[s])


def _measure(run, q, u):
    """Measure qubit q in z; keep one renormalised register without qubit q
    per (state, outcome) pair, and return the rounds' outcomes."""
    a = _split(run.amps, q)
    p0 = np.einsum("bpiq->bi", np.abs(a) ** 2)[:, 0]
    bits, s, b, p = _outcome(run, p0, u)
    run.amps = a[s, :, b, :].reshape(len(s), -1) / np.sqrt(p)[:, None]
    return bits


def _measure_eq(run, q, theta, u):
    """Measure qubit q in the equator basis at theta (one angle, or one per
    state), outcome 1 being |theta + pi>; keep one renormalised register
    without qubit q per (state, outcome) pair, and return the rounds'
    outcomes.  Only basis column 0, for P(0), and each pair's column are
    contracted with the register."""
    a = _split(run.amps, q)
    v = np.broadcast_to(np.conj(_basis_rot(theta)), (len(a), 2, 2))
    c0 = np.matmul(v[:, None, None, :, 0], a).view(np.float64).reshape(len(a), -1)
    bits, s, b, p = _outcome(run, np.einsum("bi,bi->b", c0, c0), u)
    w = v[s, :, b] / np.sqrt(p)[:, None]
    # as many pairs as states means each state kept its place: no gathered
    # copy of the register
    run.amps = np.matmul(w[:, None, None, :], a if len(s) == len(a) else a[s]).reshape(len(s), -1)
    return bits


def _insert(amps, q, kets):
    """The register with a new qubit q in ``kets``: one ket, or one per round."""
    a = amps.reshape(len(amps), -1, 1, 1 << q)
    return (np.reshape(kets, (-1, 1, 2, 1)) * a).reshape(len(amps), -1)


class _Rounds:
    """A chunk of rounds of scenario ``sc`` in flight: the frame register
    ``amps``, one row per distinct state, each round's state ``idx``, the
    records (angles, key bits, Eve's guesses), and the unused draws.
    ``qubits`` holds the labels of the qubits not yet measured, lowest
    first."""

    def __init__(self, u, sc, attack):
        self.draws, self.sc, self.attack, self.rec = iter(u.T), sc, attack, {}
        self.qubits = list(sc.layout)
        self.amps, self.idx = None, np.zeros(len(u), dtype=np.int64)

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


def _eve_angle(run, travel, shift):
    """Eve's basis angle on a leg, gamma + shift, in the frame of the travel
    qubit: one angle per round, as a channel kind holds one state per round."""
    return run.attack["gamma"] + shift - run.rec[run.sc.kets[travel]]


def _intercept(run, travel, shift, overlap):
    """Measure the travel qubit in Eve's basis and resend the state she found."""
    theta = _eve_angle(run, travel, shift)
    bits = _measure_eq(run, travel, theta, run.draw())
    run.amps = _insert(run.amps, travel, _basis_rot(theta)[np.arange(len(bits)), :, bits])


def _entangle(run, travel, shift, overlap):
    """Append Eve's ancilla, fresh in |0>, on top: psi|0> becomes
    psi|0> + (P psi)((c - 1)|0> + sqrt(1 - c^2)|1>), with P = |v><v| the
    projector onto v = |theta + pi> on the travel qubit, theta Eve's basis
    angle and c the leg's overlap.  Only the |theta + pi> branch moves the
    ancilla.  P is applied as a rank-one operator: the travel qubit is
    contracted with v^+ once, and both ancilla halves are written into one
    new register."""
    c = run.attack[overlap]
    v = _basis_rot(_eve_angle(run, travel, shift))[:, :, 1]
    a = _split(run.amps, travel)
    b, pre, _, post = a.shape
    w = np.matmul(v.conj()[:, None, None, :], a)                 # v^+ psi
    v = v[:, None, :, None]
    out = np.empty((b, 2, pre, 2, post), dtype=np.complex128)
    np.multiply(w, (c - 1.0) * v, out=out[:, 0])
    out[:, 0] += a
    np.multiply(w, np.sqrt(max(0.0, 1.0 - c * c)) * v, out=out[:, 1])
    run.amps = out.reshape(b, -1)


# -- readout steps -----------------------------------------------------------

def _eq(run, label):
    """Measure travel qubit ``label`` in its own basis, at angle 0 in the
    frame; record its odd key bit (+1 is 1)."""
    q = run.drop(label)
    run.rec[label] = 1 - _measure_eq(run, q, 0.0, run.draw())


def _z(run, label):
    """Measure home qubit ``label``; record its even key bit (up is key 0)."""
    q = run.drop(label)
    run.rec[label] = _measure(run, q, run.draw())


def _flip(run, label, cond):
    """Bob's step 9: NOT on his home qubit ``label`` when his odd key bit
    ``cond`` is 1."""
    s, flip = _regroup(run, run.rec[cond])
    a = _split(run.amps, run.qubits.index(label))[s]
    run.amps = np.where(flip[:, None, None, None] == 1, a[:, :, ::-1], a).reshape(len(s), -1)


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
        run.rec[label] = (run.draw() >= p_up[run.idx]).astype(np.int64)


@lru_cache(maxsize=None)
def _eve_helstrom(n, gates, c):
    """Eve's Helstrom measurement in the frame, for an n-qubit kind with QFR
    gates ``gates``, the homes below position c, C at c, D just above C and
    her four photons on top.

    Her states given C = D = bit are R_E rho_bit R_E^+, with R_E the rotation
    by her photons' angles and rho_bit from the frame register
    2**(-n/2) * ``_qfr_phases(n, gates)``, C and D read at angle 0; bit 0 is
    key 1.  So the trace distance between them and the positive eigenspace of
    rho_0 - rho_1 in the frame, one eigh in her 16 dimensions, are constants
    of the kind.  Returns the trace distance and that eigenspace's basis,
    conjugated, (16, k), read-only."""
    prep = _qfr_phases(n, gates).reshape(-1, 2, 2, 1 << c)    # (eve, D, C, homes)
    rho = []
    for s in (1, -1):                                    # <0| or <pi| on both C and D
        m = prep[:, 0, 0] + s * (prep[:, 0, 1] + prep[:, 1, 0]) + prep[:, 1, 1]
        r = m @ m.conj().T
        rho.append(r / np.trace(r).real)
    vals, vecs = np.linalg.eigh(rho[0] - rho[1])
    up = vecs[:, vals > 1e-9].conj()
    up.flags.writeable = False
    return 0.5 * float(np.sum(np.abs(vals))), up


def _helstrom(run):
    """Eve's Helstrom measurement on her four stolen photons between her
    states given the shared odd key bit, solved once per kind
    (``_eve_helstrom``): her P(guess key 1) is one projection of each state
    of her frame register."""
    sc = run.sc
    t, up = _eve_helstrom(len(sc.layout), sc.gates, sc.layout.index("C"))
    p1 = np.clip(np.sum(np.abs(run.amps @ up) ** 2, axis=1), 0.0, 1.0)
    run.rec["trace_dist"] = np.full(len(run.idx), t)
    run.rec["guess"] = (run.draw() < p1[run.idx]).astype(np.int64)


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


def _run(sc, u, attack):
    """One chunk of rounds: draw the angles, prepare the frame register, apply
    the gates and run the readout.  Without a ``channel`` the prepared frame
    register is one state: the whole gate list's cached QFR diagonal times
    2**(-n/2).  With one, every round gets its own state, and each leg's gate
    is a multiply by its own diagonal (``_qfr_phases``) before the channel
    operation."""
    run = _Rounds(u, sc, attack)
    for name in dict.fromkeys(k for k in sc.kets if k != "home"):
        run.rec[name] = 2.0 * np.pi * run.draw()
    n = len(sc.kets)
    run.amps = np.full((1, 1 << n), 2.0 ** (-n / 2), dtype=np.complex128)
    if sc.channel:
        # a channel operation's angle is per round
        run.amps, run.idx = run.amps[run.idx], np.arange(len(u))
        for leg, gate in enumerate(sc.gates):
            run.amps *= _qfr_phases(_nq(run.amps), (gate,))
            sc.channel(run, gate[1], *_LEGS[leg])
    else:
        run.amps *= _qfr_phases(n, sc.gates)
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

    Rows run in chunks of at most ``CHUNK``.  A kind with a channel operation
    holds a register per row, so its chunk also holds at most ``_CHUNK_BYTES``
    of register: 512 rows for general (8 qubits); a kind without one holds at
    most 2**n amplitudes over all its states.  Every row is computed on its
    own, so the chunk size changes no public column."""
    attack = attack or {"kind": "none"}
    sc = SCENARIOS[attack["kind"]]
    if u.ndim != 2 or u.shape[1] != sc.draws or not len(u):
        raise ValueError(f"{attack['kind']} needs rounds of {sc.draws} draws, got shape {u.shape}")
    rows = u.reshape(-1, sc.draws // sc.copies)          # copies run as consecutive rows
    size = min(CHUNK, _CHUNK_BYTES // (16 << len(sc.layout))) if sc.channel else CHUNK
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
