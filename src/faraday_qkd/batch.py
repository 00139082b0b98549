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
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

CHUNK = 2048

_SQRT2 = np.sqrt(2.0)


def _eq_kets(theta):
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty(theta.shape + (2,), dtype=np.complex128)
    out[..., 0] = 1.0 / _SQRT2
    out[..., 1] = np.exp(1j * theta) / _SQRT2
    return out


def _nq(amps):
    return int(round(np.log2(amps.shape[1])))


def _apply_qfr(amps, q1, q2):
    idx = np.arange(amps.shape[1])
    z1 = 1 - 2 * ((idx >> q1) & 1)
    z2 = 1 - 2 * ((idx >> q2) & 1)
    amps *= np.exp(-0.25j * np.pi * z1 * z2)[None, :]
    return amps


def _split(amps, q):
    dim = amps.shape[1]
    post = 1 << q
    pre = dim >> (q + 1)
    return amps.reshape(amps.shape[0], pre, 2, post)


def _apply_1q(amps, q, u):
    a = _split(amps, q)
    if u.ndim == 2:
        out = np.einsum("ij,bpjq->bpiq", u, a)
    else:
        out = np.einsum("bij,bpjq->bpiq", u, a)
    return out.reshape(amps.shape)


def _apply_2q(amps, q_hi, q_lo, w):
    """Fixed 4x4 unitary; w is indexed with q_hi as the most significant bit."""
    b = amps.shape[0]
    n = _nq(amps)
    a = amps.reshape([b] + [2] * n)
    ax_hi, ax_lo = 1 + (n - 1 - q_hi), 1 + (n - 1 - q_lo)
    a = np.moveaxis(a, [ax_hi, ax_lo], [n - 1, n])
    shape = a.shape
    a = np.einsum("ij,bdj->bdi", w, a.reshape(b, -1, 4)).reshape(shape)
    a = np.moveaxis(a, [n - 1, n], [ax_hi, ax_lo])
    return a.reshape(b, -1)


def _basis_rot(theta):
    theta = np.asarray(theta, dtype=np.float64)
    e = np.exp(1j * theta)
    v = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    v[..., 0, 0] = 1.0 / _SQRT2
    v[..., 0, 1] = 1.0 / _SQRT2
    v[..., 1, 0] = e / _SQRT2
    v[..., 1, 1] = -e / _SQRT2
    return v


def _measure_z(amps, q, u):
    a = _split(amps, q)
    p0 = np.einsum("bpiq->bi", np.abs(a) ** 2)[:, 0]
    bits = (u >= p0).astype(np.int64)
    keep0 = (bits == 0)[:, None, None]
    a[:, :, 0, :] *= keep0
    a[:, :, 1, :] *= ~keep0
    p = np.where(bits == 0, p0, 1.0 - p0)
    amps = a.reshape(amps.shape[0], -1) / np.sqrt(p)[:, None]
    return bits, amps


def _measure_equator(amps, q, theta, u):
    v = _basis_rot(theta)
    vd = np.conj(np.swapaxes(v, -1, -2))
    amps = _apply_1q(amps, q, vd)
    bits, amps = _measure_z(amps, q, u)
    amps = _apply_1q(amps, q, v)
    return bits, amps


def _attack_unitary(basis_angle, c):
    v = np.array([[1, 1], [np.exp(1j * basis_angle), -np.exp(1j * basis_angle)]]) / _SQRT2
    th = 2.0 * np.arccos(np.clip(c, 0.0, 1.0))
    ry = np.array([[np.cos(th / 2), -np.sin(th / 2)], [np.sin(th / 2), np.cos(th / 2)]])
    ctrl = np.eye(4, dtype=np.complex128)
    ctrl[2:, 2:] = ry
    vi = np.kron(v, np.eye(2))
    return vi @ ctrl @ vi.conj().T


class _Rounds:
    """A chunk of rounds in flight: the register ``amps``, the records
    (angles, key bits, Eve's guesses), and the unused draws."""

    def __init__(self, u, attack):
        self.draws, self.attack, self.rec = iter(u.T), attack, {}
        # prepared: the register after the gates; every readout starts with
        # _eq, which leaves it intact (_measure_z writes into its input)
        self.amps = self.prepared = None

    def draw(self):
        return next(self.draws)

    def eve_register(self):
        """The register once the measured C and D, then its lowest qubits, are
        projected onto the kets they collapsed to: Eve's qubits alone."""
        amps = self.amps
        for travel, angle in (("C", "alpha"), ("D", "beta")):
            kets = _eq_kets(self.rec[angle] + np.pi * (1 - self.rec[travel]))
            amps = np.einsum("bdi,bi->bd", amps.reshape(len(amps), -1, 2), kets.conj())
        return amps / np.linalg.norm(amps, axis=1, keepdims=True)


# -- channel operations: Eve on one leg, after the gate that sent the qubit --

# basis shift and entangler overlap on the legs C:A->B, C:B->A, D:B->A, D:A->B;
# a return leg co-rotates Eve's basis with the far station's quarter-turn
_LEGS = ((0.0, "cx"), (np.pi / 2, "cy"), (0.0, "cx"), (np.pi / 2, "cy"))


def _intercept(run, travel, shift, overlap):
    _, run.amps = _measure_equator(run.amps, travel, run.attack["gamma"] + shift, run.draw())


def _entangle(run, travel, shift, overlap):
    """Append a fresh ancilla and entangle it with the travel qubit."""
    w = _attack_unitary(run.attack["gamma"] + shift, run.attack[overlap])
    grown = np.concatenate([run.amps, np.zeros_like(run.amps)], axis=1)
    run.amps = _apply_2q(grown, travel, _nq(run.amps), w)


# -- readout steps -----------------------------------------------------------

def _eq(run, q, label, angle):
    """Measure travel qubit q in its own basis; record its odd key bit (+1 is 1)."""
    bits, run.amps = _measure_equator(run.amps, q, run.rec[angle], run.draw())
    run.rec[label] = 1 - bits


def _z(run, label):
    """Measure the lowest qubit, a home qubit, and remove it from the register;
    record the even key bit (up is key 0)."""
    bits, amps = _measure_z(run.amps, 0, run.draw())
    run.rec[label] = bits
    run.amps = amps.reshape(len(bits), -1, 2)[np.arange(len(bits)), :, bits]


def _flip(run, q, label):
    """Bob's step 9: NOT on his home qubit q when his odd key bit is 1."""
    a = _split(run.amps, q)
    run.amps = np.where((run.rec[label] == 1)[:, None, None, None],
                        a[:, :, ::-1, :], a).reshape(run.amps.shape)


def _povm(run):
    """Eve's two-outcome POVM, on her (E, F) pair to guess Bob's home bit,
    then on (E', F') to guess Alice's."""
    b = run.amps.shape[0]
    m = run.eve_register().reshape(b, 4, 4)           # axes: (E'F', EF)
    # the two pairs are in a product state: take the largest row and column
    p = np.abs(m) ** 2
    v_ef = m[np.arange(b), np.argmax(np.sum(p, axis=2), axis=1), :]
    v_pp = m[np.arange(b), :, np.argmax(np.sum(p, axis=1), axis=1)]
    m_up = np.asarray(run.attack["povm_up"], dtype=np.complex128)
    for v, label in ((v_ef, "guess_bob"), (v_pp, "guess_alice")):
        nrm = np.einsum("bi,bi->b", v.conj(), v).real
        p_up = np.clip(np.einsum("bi,ij,bj->b", v.conj(), m_up, v).real / nrm, 0.0, 1.0)
        run.rec[label] = (run.draw() >= p_up).astype(np.int64)


def _helstrom(run, q_c):
    """Eve's Helstrom measurement on her four stolen photons (the top qubits)
    between her states given the shared odd key bit.  C is qubit q_c of the
    prepared register and D is q_c + 1, above the homes, which are dropped."""
    rec, b = run.rec, run.amps.shape[0]
    # the conditional states: rotate C and D of the prepared register into
    # their measurement frames and slice the sectors
    va, vb = _basis_rot(rec["alpha"]), _basis_rot(rec["beta"])
    rot = _apply_1q(run.prepared, q_c, np.conj(np.swapaxes(va, -1, -2)))
    rot = _apply_1q(rot, q_c + 1, np.conj(np.swapaxes(vb, -1, -2)))
    view = rot.reshape(b, 16, 2, 2, 1 << q_c)         # (eve, D, C, homes)
    rho = []
    for bit in (0, 1):                                 # bit 0 <=> key 1
        blk = view[:, :, bit, bit, :]
        r = np.einsum("beh,bfh->bef", blk, blk.conj())
        tr = np.einsum("bee->b", r).real
        rho.append(r / tr[:, None, None])
    vals, vecs = np.linalg.eigh(rho[0] - rho[1])       # rho_{K=1} - rho_{K=0}
    rec["trace_dist"] = 0.5 * np.sum(np.abs(vals), axis=1)

    if run.attack.get("blind"):
        p1 = np.full(b, 0.5)
    else:
        proj = np.einsum("bjk,bj->bk", vecs.conj(), run.eve_register())
        p1 = np.clip(np.sum((vals > 1e-9) * np.abs(proj) ** 2, axis=1), 0.0, 1.0)
    rec["guess"] = (run.draw() < p1).astype(np.int64)


# -- the scenario table --------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One attack kind as data.

    ``layout``: the register.  ``kets``: each qubit's equator ket, ``"home"``
    (angle 0) or a drawn angle.  ``gates``: QFR (control, target) pairs; with
    a ``channel`` operation, gate i sends its target down leg i of ``_LEGS``.
    ``readout``: ``(step, *args)`` steps, which record key bits and guesses.
    ``roles``: the records behind the public alpha, beta, C, D, A, B columns;
    ``eve``: those of Eve's guesses of Alice's and Bob's keys.  A round runs
    ``copies`` instances; copy i's records get the suffix i.
    """

    draws: int
    layout: str
    kets: tuple
    gates: tuple
    readout: tuple
    channel: object = None
    roles: tuple = ("alpha", "beta", "C", "D", "A", "B")
    eve: tuple = (None, None)
    even_key: bool = True
    copies: int = 1


_NONE = Scenario(
    draws=6, layout="A=0 B=1 C=2 D=3", kets=("home", "home", "alpha", "beta"),
    gates=((0, 2), (1, 2), (1, 3), (0, 3)),                 # steps 3, 4, 6, 7
    readout=((_eq, 2, "C", "alpha"), (_eq, 3, "D", "beta"), (_flip, 1, "D"),
             (_z, "A"), (_z, "B")))

# PNS pulses carry two extra photons: Eve takes E1 on the outbound and E2 on
# the return channel, so E1 misses the far station's rotations
_PULSE_KETS = ("alpha", "beta", "alpha", "alpha", "beta", "beta")

SCENARIOS = {
    "none": _NONE,
    "general": replace(_NONE, draws=8, layout="A=0 B=1 C=2 D=3 E=4 F=5 E'=6 F'=7",
                       readout=_NONE.readout + ((_povm,),), channel=_entangle,
                       eve=("guess_alice", "guess_bob")),
    "intercept": replace(_NONE, draws=10, channel=_intercept),
    # Eve's lone home E brokers all three travel qubits: C picks up rotations
    # from (A, E), D from (B, E) and her own travel E' from (E, A)
    "impersonate:one": Scenario(
        draws=9, layout="A=0 B=1 E=2 C=3 D=4 E'=5",
        kets=("home", "home", "home", "alpha", "beta", "epsilon"),
        gates=((0, 3), (2, 3), (1, 4), (2, 4), (2, 5), (0, 5)),
        readout=((_eq, 3, "C", "alpha"), (_eq, 4, "D", "beta"), (_eq, 5, "E'", "epsilon"),
                 (_flip, 1, "D"), (_z, "A"), (_z, "B"), (_z, "E")),
        eve=("E'", "E'")),
    # Eve runs a full protocol with each party (copy 0 with Alice, 1 with Bob)
    "impersonate:two": replace(_NONE, draws=12, copies=2,
                               roles=("alpha0", "beta1", "C0", "D1", "A0", "B1"),
                               eve=("D0", "C1")),
    "pns:3": Scenario(
        draws=7, layout="A=0 B=1 C=2 D=3 E1=4 E2=5 E1'=6 E2'=7",
        kets=("home", "home") + _PULSE_KETS,
        gates=((0, 2), (0, 4), (0, 5), (1, 2), (1, 5),
               (1, 3), (1, 6), (1, 7), (0, 3), (0, 7)),
        readout=((_eq, 2, "C", "alpha"), (_eq, 3, "D", "beta"), (_flip, 1, "D"),
                 (_z, "A"), (_z, "B"), (_helstrom, 2)),
        eve=("guess", "guess")),
    "pns:4home": Scenario(
        draws=9, layout="A1=0 A2=1 B1=2 B2=3 C=4 D=5 E1=6 E2=7 E1'=8 E2'=9",
        kets=("home",) * 4 + _PULSE_KETS,
        gates=((0, 4), (1, 4), (0, 6), (1, 6), (0, 7), (1, 7),
               (2, 4), (3, 4), (2, 7), (3, 7),
               (2, 5), (3, 5), (2, 8), (3, 8), (2, 9), (3, 9),
               (0, 5), (1, 5), (0, 9), (1, 9)),
        readout=((_eq, 4, "C", "alpha"), (_eq, 5, "D", "beta"), (_z, "A1"),
                 (_z, "A2"), (_z, "B1"), (_z, "B2"), (_helstrom, 4)),
        roles=("alpha", "beta", "C", "D", "A1", "B1"), eve=("guess", "guess"),
        even_key=False),
}


def _run(sc, u, attack):
    run = _Rounds(u, attack)
    for name in dict.fromkeys(k for k in sc.kets if k != "home"):
        run.rec[name] = 2.0 * np.pi * run.draw()
    b = u.shape[0]
    run.amps = np.ones((b, 1), dtype=np.complex128)
    for k in sc.kets:                                   # qubit 0 first, the lowest index bit
        f = _eq_kets(np.zeros(b) if k == "home" else run.rec[k])
        run.amps = (f[:, :, None] * run.amps[:, None, :]).reshape(b, -1)
    for leg, (c, t) in enumerate(sc.gates):
        run.amps = _apply_qfr(run.amps, c, t)
        if sc.channel:
            sc.channel(run, t, *_LEGS[leg])
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
    (``gamma``; ``cx``, ``cy`` and ``povm_up`` for ``general``; ``blind`` for
    PNS).  Returns the public columns and every readout record."""
    attack = attack or {"kind": "none"}
    sc = SCENARIOS[attack["kind"]]
    if u.ndim != 2 or u.shape[1] != sc.draws or not len(u):
        raise ValueError(f"{attack['kind']} needs rounds of {sc.draws} draws, got shape {u.shape}")
    rows = u.reshape(-1, sc.draws // sc.copies)          # copies run as consecutive rows
    chunks = [_run(sc, rows[lo:lo + CHUNK], attack) for lo in range(0, len(rows), CHUNK)]
    rec = {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}
    if sc.copies > 1:
        rec = {f"{name}{i}": arr.reshape(-1, sc.copies)[:, i]
               for name, arr in rec.items() for i in range(sc.copies)}
    return _public(sc, rec)


def one_home_rounds(u):
    """Single-home impersonation rounds."""
    return protocol_rounds(u, {"kind": "impersonate:one"})


def pns_rounds(variant, u, blind=False):
    """Photon-splitting rounds; ``blind=True`` makes Eve's guess a coin flip."""
    return protocol_rounds(u, {"kind": PNS_KINDS[variant], "blind": blind})


PNS_KINDS = {"three-photon": "pns:3", "four-home-qubit": "pns:4home"}
