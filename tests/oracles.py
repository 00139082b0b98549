"""Independent state constructions used as test oracles.

Everything here is built from raw numpy with closed-form branch enumeration,
deliberately avoiding the package's gate machinery, so agreement between an
oracle and the simulator checks two genuinely different computation paths.
The one exception, ``eve_pair_states``, runs the scalar engine's gates and
attack hooks, which share nothing with the batch compile it checks.
``carried_weight_sample`` is the batch sampler's earlier loop, on every
coefficient column, kept to pin the per-branch thresholds and the pruned
channel-kind terms that replaced it, and ``basis_product`` is
``batch._basis``'s earlier full product of phi's five rows, kept to pin the
basis that forms only the harmonics its columns read.  ``public_columns``
and ``report_fields`` are the earlier per-column rules of the public
columns and of the run statistics, kept to pin the code table and the
counts that replaced them.  ``sextet`` is the
repo's one copy of the six ancilla-pair vectors: ``attack_final_state`` and
``discriminator_m_up`` are built from it, and acceptance criterion 6 checks
its subspace structure.
Register conventions match the package: little-endian, |0> = up.
"""
import numpy as np

from faraday_qkd import adversary, analysis, batch, qstate

SQ2 = np.sqrt(2.0)
UP = np.array([1.0, 0.0])
DN = np.array([0.0, 1.0])


def eq_ket(phi):
    return np.array([1.0, np.exp(1j * phi)]) / SQ2


def kron_le(factors):
    """Assemble a register from per-qubit kets, qubit 0 first."""
    out = np.array([1.0 + 0j])
    for f in factors:
        out = np.kron(np.asarray(f, dtype=complex), out)
    return out


def controlled_append(psi, n, control, basis, ket):
    """The n-qubit ket psi with one qubit appended above it, as the dense sum
    over k of P_k (x) |a_k>: P_k the projector onto column k of ``basis`` on
    qubit ``control``, a_0 = |0> and a_1 = ``ket``.  Each term is a kron_le of
    2x2 identities, the projector and the 2x1 column a_k."""
    out = np.zeros(2 ** (n + 1), dtype=complex)
    for k, anc in ((0, UP), (1, np.asarray(ket, dtype=complex))):
        col = np.asarray(basis, dtype=complex)[:, k]
        proj = np.outer(col, col.conj())
        ops = [proj if q == control else np.eye(2) for q in range(n)] + [anc[:, None]]
        out += kron_le(ops) @ np.asarray(psi, dtype=complex)
    return out


def partial_trace(psi, n, keep):
    """Reduced density matrix of the n-qubit ket psi on the qubits in keep.

    Sums |v><v| over every basis assignment of the traced qubits, where
    v = (<traced bits| (x) I_keep) psi and each such operator is a kron_le of
    per-qubit 2x2 identities (kept) and basis bras (traced), so the result is
    indexed by the kept qubits in ascending order, the lowest as bit 0.
    """
    keep = sorted(keep)
    traced = [q for q in range(n) if q not in keep]
    rho = np.zeros((2 ** len(keep), 2 ** len(keep)), dtype=complex)
    for bits in range(2 ** len(traced)):
        value = {q: (bits >> j) & 1 for j, q in enumerate(traced)}
        ops = [np.eye(2) if q in keep else np.eye(2)[[value[q]]] for q in range(n)]
        v = kron_le(ops) @ np.asarray(psi, dtype=complex)
        rho += np.outer(v, v.conj())
    return rho


def fid(a, b):
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    return abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real)


def keyed_rng(seed, r):
    """numpy's own generator for round r's stream Philox(key=(seed, r))."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, r], dtype=np.uint64)))


def read_csv(path):
    """Columns of a CSV written by the harness: int where every cell is an
    integer, float otherwise."""
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    out = {}
    for j, name in enumerate(header):
        raw = [r[j] for r in rows]
        if any(("e" in c or "." in c) for c in raw):
            out[name] = np.array([float(c) for c in raw])
        else:
            out[name] = np.array([int(c) for c in raw])
    return out


def percent_csv(columns, order):
    """CSV bytes by one '%' format per row (``%.11e`` for float columns,
    ``%d`` otherwise): the reference the harness's block writer must match."""
    cols = [np.asarray(columns[name]) for name in order]
    row = ",".join("%.11e" if col.dtype.kind == "f" else "%d" for col in cols) + "\n"
    text = ",".join(order) + "\n"
    text += "".join(row % cells for cells in zip(*(col.tolist() for col in cols)))
    return text.encode()


def step12_ledger(columns, seed, m):
    """Step 12 rebuilt from a run's CSV columns and its seed.

    Returns (tested, detected, alice_key, bob_key): the 0/1 flags of the m
    rounds drawn from the reserved stream ``Philox(key=(seed, 2**64 - 1))``;
    whether any round the CSV marks tested has differing odd key bits; and
    each party's final key, the defined cells (not -1) of the untested rounds'
    odd and even key columns in round order, empty after a detection.
    """
    n = len(columns["round"])
    tested = np.zeros(n, dtype=np.int64)
    tested[np.sort(keyed_rng(seed, 2 ** 64 - 1).choice(n, m, replace=False))] = 1
    check = columns["tested"] == 1
    detected = bool(np.any(columns["k_alice_odd"][check] != columns["k_bob_odd"][check]))
    keys = []
    for party in ("alice", "bob"):
        cells = np.stack([columns[f"k_{party}_odd"], columns[f"k_{party}_even"]], axis=1)
        cells = cells[~check].reshape(-1)
        keys.append(cells[:0] if detected else cells[cells != -1])
    return tested, detected, *keys


def public_columns(sc, rec):
    """The public columns of ``rec``, a kind's records by name (one value per
    round or per code), by the rules of ``Scenario``: out_c = 2c - 1,
    out_d = 2d - 1, out_a = 1 - 2a, out_b = 1 - 2b, the odd and even keys
    c, d, a and b, and Eve's guesses, -1 for a key or guess the kind does
    not have; ``rec`` itself is kept."""
    _, _, c, d, a, b = (rec.get(k) for k in sc.roles)
    none = -np.ones_like(c)
    eve_a, eve_b = (rec[k] if k else none for k in sc.eve)
    return {**rec, "out_c": 2 * c - 1, "out_d": 2 * d - 1, "out_a": 1 - 2 * a, "out_b": 1 - 2 * b,
            "k_alice_odd": c, "k_bob_odd": d,
            "k_alice_even": a if sc.even_key else none,
            "k_bob_even": b if sc.even_key else none,
            "eve_guess_alice": eve_a, "eve_guess_bob": eve_b}


def masked_table(x, y):
    """The 2 x 2 table of the four masked sums sum((x == a) & (y == b))."""
    return np.array([[np.sum((x == a) & (y == b)) for b in (0, 1)] for a in (0, 1)])


def report_fields(cols, eve_key, seed, m):
    """A run's report statistics from its whole-run columns ``cols``, by the
    column formulas: the detection frequency, the mean of the odd keys'
    mismatch, and its sigma; ``detected``, any mismatch over the m rounds
    drawn from the reserved stream ``Philox(key=(seed, 2**64 - 1))``; Eve's
    accuracy, the mean of her guess of Alice's key matching ``eve_key``;
    I(A,B) of the odd keys' and I(A,E) (home-key kinds only) of the masked
    2 x 2 tables; the final key length; the minimum trace distance."""
    n = len(cols["k_alice_odd"])
    mismatch = cols["k_alice_odd"] != cols["k_bob_odd"]
    freq = float(np.mean(mismatch))
    tested = keyed_rng(seed, 2 ** 64 - 1).choice(n, m, replace=False)
    detected = bool(np.any(mismatch[tested]))
    guess = cols["eve_guess_alice"]
    out = {
        "rounds": n,
        "detection_freq": freq,
        "detection_sigma": float(np.sqrt(max(freq * (1 - freq), 1e-12) / n)),
        "detected": detected,
        "eve_accuracy": float(np.mean(guess == cols[eve_key])) if eve_key else None,
        "empirical_i_ab": analysis.empirical_mutual_information(
            masked_table(cols["k_alice_odd"], cols["k_bob_odd"])),
        "empirical_i_ae": analysis.empirical_mutual_information(
            masked_table(cols[eve_key], guess)) if eve_key == "k_alice_even" else None,
        "final_key_length": 0 if detected else 2 * (n - m),
        "extras": {},
    }
    if "trace_dist" in cols:
        out["extras"]["trace dist min"] = f"{float(np.min(cols['trace_dist'])):.9f}"
    return out


def normalized(v):
    return v / np.linalg.norm(v)


# -- travel-qubit factors: one conditional quarter-turn -----------------------

def single_turn(home_bit, phi):
    """(phase, new angle) for one conditional rotation by a home in z-state."""
    if home_bit == 0:
        return np.exp(-1j * np.pi / 4), phi + np.pi / 2
    return np.exp(1j * np.pi / 4), phi - np.pi / 2


def double_turn(bit1, bit2, phi):
    """Two conditional rotations: aligned homes flip the angle by pi."""
    p1, a1 = single_turn(bit1, phi)
    p2, a2 = single_turn(bit2, a1)
    return p1 * p2, a2


# -- protocol states ----------------------------------------------------------

def state_eq5(alpha):
    """(A, C) after Alice's rotation: e^{-i pi/4}|up>|a+> + e^{i pi/4}|dn>|a->."""
    out = np.zeros(4, dtype=complex)
    for a in (0, 1):
        ph, ang = single_turn(a, alpha)
        out += ph * kron_le([UP if a == 0 else DN, eq_ket(ang)]) / SQ2
    return out


def state_eq4(alpha):
    """(A, B, C) after both stations: (ud+du)|a> - i(uu-dd)|a+pi>, /2."""
    z = (UP, DN)
    out = np.zeros(8, dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            ph, ang = double_turn(a, b, alpha)
            out += 0.5 * ph * kron_le([z[a], z[b], eq_ket(ang)])
    return out


def state_eq6(alpha, beta):
    """(A, B, C, D) before step 8: (ud+du)|ab> - (uu+dd)|abar bbar>, /2."""
    z = (UP, DN)
    out = np.zeros(16, dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            pc, ac = double_turn(a, b, alpha)
            pd, ad = double_turn(b, a, beta)
            out += 0.5 * pc * pd * kron_le([z[a], z[b], eq_ket(ac), eq_ket(ad)])
    return out


# -- the attacked final state, assembled from its closed-form expansion -------

def ancilla_pair(c):
    return np.array([1.0, 0.0]), np.array([c, np.sqrt(1.0 - c * c)])


def sextet(rel_angle, cx, cy):
    """The six unnormalized ancilla-pair vectors, first-pass ancilla on the
    low index bit."""
    e0, e1 = ancilla_pair(cx)
    h0, h1 = ancilla_pair(cy)
    c2 = np.cos(rel_angle / 2) ** 2
    s2 = np.sin(rel_angle / 2) ** 2
    t = lambda x, y: np.kron(y, x)
    return {
        1: t(e0, h0) - t(e1, h1),
        2: s2 * t(e0, h0) + c2 * t(e1, h1),
        3: c2 * t(e0, h0) + s2 * t(e1, h1),
        4: t(e0, h1) - t(e1, h0),
        5: c2 * t(e0, h1) + s2 * t(e1, h0),
        6: s2 * t(e0, h1) + c2 * t(e1, h0),
    }


def attack_final_state(alpha, beta, gamma, cx, cy):
    """Closed-form expansion of the post-attack 8-qubit state, assembled term
    by term from the ancilla-pair sextets (registers A B C D E F E' F')."""
    at = alpha - gamma + np.pi / 2
    bt = beta - gamma + np.pi / 2
    v = sextet(at, cx, cy)
    vp = sextet(bt, cx, cy)
    sa, sb = np.sin(at), np.sin(bt)
    ab = {"uu": (UP, UP), "ud": (UP, DN), "du": (DN, UP), "dd": (DN, DN)}
    abar, bbar = alpha + np.pi, beta + np.pi
    terms = [
        (alpha, beta, "uu", 0.25 * sa * sb, 1, 1),
        (alpha, beta, "ud", 1.0, 5, 2),
        (alpha, beta, "du", 1.0, 2, 5),
        (alpha, beta, "dd", 0.25 * sa * sb, 4, 4),
        (alpha, bbar, "uu", -0.5j * sa, 1, 3),
        (alpha, bbar, "ud", -0.5j * sb, 5, 1),
        (alpha, bbar, "du", 0.5j * sb, 2, 4),
        (alpha, bbar, "dd", 0.5j * sa, 4, 6),
        (abar, beta, "uu", -0.5j * sb, 3, 1),
        (abar, beta, "ud", 0.5j * sa, 4, 2),
        (abar, beta, "du", -0.5j * sa, 1, 5),
        (abar, beta, "dd", 0.5j * sb, 6, 4),
        (abar, bbar, "uu", -1.0, 3, 3),
        (abar, bbar, "ud", 0.25 * sa * sb, 4, 1),
        (abar, bbar, "du", 0.25 * sa * sb, 1, 4),
        (abar, bbar, "dd", -1.0, 6, 6),
    ]
    out = np.zeros(256, dtype=complex)
    for ca, da, key, coeff, i, j in terms:
        ka, kb = ab[key]
        out += 0.5 * coeff * kron_le([ka, kb, eq_ket(ca), eq_ket(da), v[i], vp[j]])
    return out


def discriminator_m_up(cx, cy):
    """The discriminator's M_up by a loop over the midpoint quadrature, one
    angle at a time: the ray projectors of |1> and |4> (the latter
    orthogonalised against the former), plus the projector onto the positive
    eigenspace of the residual-restricted, angle-averaged sigma_up -
    sigma_dn.  The reference the package's exact angle average must match."""
    def ray(v):
        n = np.linalg.norm(v)
        if n < 1e-9:
            return np.zeros((v.size, v.size), dtype=complex)
        return np.outer(v / n, (v / n).conj())

    sex0 = sextet(0.0, cx, cy)
    p1 = ray(sex0[1])
    p4 = ray(sex0[4] - p1 @ sex0[4])
    residual = np.eye(4) - p1 - p4
    points = 64
    sigma_up = np.zeros((4, 4), dtype=complex)
    sigma_dn = np.zeros((4, 4), dtype=complex)
    for k in range(points):
        at = 2.0 * np.pi * (k + 0.5) / points
        sex = sextet(at, cx, cy)
        sc2 = (np.sin(at / 2) * np.cos(at / 2)) ** 2
        sigma_up += 0.5 * (2 * sc2 * np.outer(sex[1], sex[1].conj())
                           + np.outer(sex[2], sex[2].conj())
                           + np.outer(sex[3], sex[3].conj()))
        sigma_dn += 0.5 * (2 * sc2 * np.outer(sex[4], sex[4].conj())
                           + np.outer(sex[5], sex[5].conj())
                           + np.outer(sex[6], sex[6].conj()))
    vals, vecs = np.linalg.eigh(residual @ (sigma_up / points - sigma_dn / points) @ residual)
    up = vecs[:, vals > 1e-12]
    return p1 + residual @ (up @ up.conj().T) @ residual


def eve_pair_states(cx, cy, gamma=0.3, points=16):
    """Eve's states of her (E, F) and (E', F') pairs given an up and a down
    home qubit, from the scalar engine's register after the four attacked
    legs, before any measurement: (E, F) conditioned on B's z bit (before
    Bob's flip), (E', F') on A's, averaged over alpha and beta on the
    points x points midpoint grid.  Returns (pair, up/down, 4, 4)."""
    hooks = adversary.general_attack_hooks(adversary.GeneralAttackSpec(gamma, cx, cy))
    grid = 2.0 * np.pi * (np.arange(points) + 0.5) / points
    out = np.zeros((2, 2, 4, 4), dtype=complex)
    for alpha in grid:
        for beta in grid:
            state = qstate.product_state([eq_ket(0.0), eq_ket(0.0), eq_ket(alpha), eq_ket(beta)])
            # steps 3, 4, 6 and 7, each followed by Eve on its leg
            for (control, target), hook in zip(((0, 2), (1, 2), (1, 3), (0, 3)), hooks):
                state = hook.transform(qstate.apply_qfr(state, control, target), None)
            psi = state.amplitudes.reshape([2] * 8)        # qubit q on axis 7 - q
            for pair, (home, f, e) in enumerate(((1, 5, 4), (0, 7, 6))):
                a = np.moveaxis(psi, [7 - home, 7 - f, 7 - e], [0, 1, 2]).reshape(2, 4, -1)
                out[pair] += a @ a.conj().transpose(0, 2, 1)
    return out / (points ** 2 / 2)                         # P(home bit) = 1/2


# -- impersonation with a single home qubit -----------------------------------

def one_home_state(alpha, beta, epsilon):
    """(A, B, E, C, D, E'): C rotated by (A, E), D by (B, E), E' by (E, A),
    with the conditional branch phases kept."""
    z = (UP, DN)
    out = np.zeros(64, dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            for e in (0, 1):
                pc, ac = double_turn(a, e, alpha)
                pd, ad = double_turn(b, e, beta)
                pe, ae = double_turn(e, a, epsilon)
                out += (pc * pd * pe / np.sqrt(8.0)) * kron_le(
                    [z[a], z[b], z[e], eq_ket(ac), eq_ket(ad), eq_ket(ae)])
    return out


def one_home_state_without_phases(alpha, beta, epsilon):
    """The same eight branches with every conditional phase replaced by +1;
    orthogonal to the faithful state, demonstrating the phases matter."""
    z = (UP, DN)
    out = np.zeros(64, dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            for e in (0, 1):
                _, ac = double_turn(a, e, alpha)
                _, ad = double_turn(b, e, beta)
                _, ae = double_turn(e, a, epsilon)
                out += kron_le([z[a], z[b], z[e], eq_ket(ac), eq_ket(ad), eq_ket(ae)])
    return out / np.sqrt(8.0)


# -- photon-number-splitting scenarios ----------------------------------------

def pns3_state(alpha, beta):
    """(A, B, C, D, E1, E2, E1', E2'): E1/E1' see one station, the rest two."""
    z = (UP, DN)
    out = np.zeros(256, dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            pc, ac = double_turn(a, b, alpha)
            pd, ad = double_turn(b, a, beta)
            p1, a1 = single_turn(a, alpha)
            p2, a2 = double_turn(a, b, alpha)
            q1, b1 = single_turn(b, beta)
            q2, b2 = double_turn(b, a, beta)
            coeff = 0.5 * pc * pd * p1 * p2 * q1 * q2
            out += coeff * kron_le([z[a], z[b], eq_ket(ac), eq_ket(ad),
                                    eq_ket(a1), eq_ket(a2), eq_ket(b1), eq_ket(b2)])
    return out


def pns4_state(alpha, beta):
    """(A1 A2 B1 B2 C D E1 E2 E1' E2'): every pulse photon is rotated by both
    home qubits of each station it passes."""
    z = (UP, DN)
    out = np.zeros(1024, dtype=complex)
    for a1 in (0, 1):
        for a2 in (0, 1):
            for b1 in (0, 1):
                for b2 in (0, 1):
                    pe1, ae1 = double_turn(a1, a2, alpha)
                    pc_a, ac_a = double_turn(a1, a2, alpha)
                    pc_b, ac = double_turn(b1, b2, ac_a)
                    pc = pc_a * pc_b
                    pe2, ae2 = pc, ac
                    qe1, be1 = double_turn(b1, b2, beta)
                    qd_b, ad_b = double_turn(b1, b2, beta)
                    qd_a, ad = double_turn(a1, a2, ad_b)
                    qd = qd_b * qd_a
                    qe2, be2 = qd, ad
                    coeff = 0.25 * pe1 * pc * pe2 * qe1 * qd * qe2
                    out += coeff * kron_le(
                        [z[a1], z[a2], z[b1], z[b2], eq_ket(ac), eq_ket(ad),
                         eq_ket(ae1), eq_ket(ae2), eq_ket(be1), eq_ket(be2)])
    return out


# -- Eve's PNS Helstrom step, solved per round in the lab frame ----------------

# a pivot of rho_0 + rho_1 with less weight than this is roundoff: the states
# have trace 1, and the real kinds leave about 1e-16 once their rank is spent
RANK_TOL = 1e-12


def range_basis(g):
    """An orthonormal basis (rounds, n, r) of the range of each round's PSD
    matrix g, from a Cholesky factorisation with diagonal pivoting run over
    the whole chunk.  It stops once every round's largest remaining diagonal
    entry is below RANK_TOL, so r is the chunk's largest rank; a round of
    lower rank gets zero columns, which the QR completes orthonormally."""
    rows = np.arange(len(g))
    d = np.einsum("bii->bi", g).real
    cols = []
    for _ in range(g.shape[1]):
        p = np.argmax(d, axis=1)
        top = d[rows, p]
        live = top > RANK_TOL
        if not live.any():
            break
        col = g[rows, :, p]                            # column p of the residual
        for c in cols:
            col = col - c * c[rows, p, None].conj()
        col = col * (live / np.sqrt(np.where(live, top, 1.0)))[:, None]
        d = d - (col.real ** 2 + col.imag ** 2)
        cols.append(col)
    return np.linalg.qr(np.stack(cols, axis=2))[0]


def eq_columns(theta):
    """(rounds, 2, 2): columns |theta> and |theta + pi> for each angle."""
    e = np.exp(1j * np.asarray(theta, dtype=float))
    v = np.empty(e.shape + (2, 2), dtype=complex)
    v[..., 0, :] = 1.0 / SQ2
    v[..., 1, 0] = e / SQ2
    v[..., 1, 1] = -e / SQ2
    return v


def helstrom_lab(prepared, eve, alpha, beta, c):
    """Eve's PNS Helstrom step solved per round in the lab frame, from each
    round's own angles: the trace distance between her states given C = D = bit
    and her P(guess key 1) on ``eve``, her register at readout.

    ``prepared`` (rounds, 2**n) is the register after the gates, with the
    homes below position c, C at c, D just above it and Eve's 16 dimensions
    on top.  Her state given C = D = bit is rho_bit = M_bit M_bit^+ over its
    trace, with M_bit the block (Eve, homes) contracted with the conjugated
    alpha and beta basis columns; bit 0 is key 1.  rho_0 - rho_1 is solved on
    the rank of her states: eigh of Q^+ (rho_0 - rho_1) Q, with Q a basis of
    the range of rho_0 + rho_1 (``range_basis``)."""
    b, dim = eve.shape
    h = 1 << c
    prep = prepared.reshape(b, dim, 4, h).swapaxes(1, 2).reshape(b, 4, dim * h)
    va, vb = np.conj(eq_columns(alpha)), np.conj(eq_columns(beta))
    coef = (vb[:, :, None, :] * va[:, None, :, :]).reshape(b, 4, 2)
    blocks = (coef.swapaxes(1, 2) @ prep).reshape(b, 2, dim, h)
    grams = blocks @ blocks.conj().swapaxes(2, 3)      # (b, bit, dim, dim)
    grams /= np.einsum("bkii->bk", grams).real[:, :, None, None]
    q = range_basis(grams[:, 0] + grams[:, 1])
    vals, w = np.linalg.eigh(q.conj().swapaxes(1, 2) @ (grams[:, 0] - grams[:, 1]) @ q)
    proj = np.einsum("bjk,bj->bk", (q @ w).conj(), eve)
    p1 = np.clip(np.sum((vals > 1e-9) * np.abs(proj) ** 2, axis=1), 0.0, 1.0)
    return 0.5 * np.sum(np.abs(vals), axis=1), p1


def basis_product(angles, cols):
    """Columns ``cols`` of each round's phi(alpha) (x) phi(beta) as the full
    product of two gathers of phi's five rows, (columns, rounds)."""
    pa, pb = (batch._phi(angles[k]) for k in ("alpha", "beta"))
    return pa[cols // 5] * pb[cols % 5]


def full_basis(tbl, angles):
    """Each round's basis on every coefficient column of ``tbl``'s steps,
    (rounds, columns): all 25 of phi(alpha) (x) phi(beta) with a channel
    operation, and without one its column 0, which is 1."""
    return batch._basis(angles, np.arange(tbl.steps[0][3].shape[1])).T


def carried_weight_sample(tbl, u):
    """One chunk of rounds from the batch branch table ``tbl`` by the
    carried-weight loop, for every kind: each step's p is a dot of the
    round's branch coefficients, all of the step's columns, with its basis
    (``full_basis``), outcome 1 where the draw >= p / w, and the round
    carries its weight w from 1, set to p or w - p at a split."""
    draws = iter(u.T)
    rec = {name: 2.0 * np.pi * next(draws) for name in batch._angles(tbl.sc)}
    basis = full_basis(tbl, rec)
    branch = np.zeros(len(u), dtype=np.int64)
    w = np.ones(len(u))
    with np.errstate(invalid="ignore", divide="ignore"):
        for record, invert, splits, num in tbl.steps:
            p = np.einsum("rk,rk->r", num.take(branch, axis=0), basis)
            bit = (next(draws) >= p / w).astype(np.int64)
            if record:
                rec[record] = bit ^ invert
            if splits:
                branch, w = 2 * branch + bit, np.where(bit, w - p, p)
    assert next(draws, None) is None
    rec.update((name, np.full(len(u), v)) for name, v in tbl.fixed.items())
    return rec
