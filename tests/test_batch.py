"""Kernel-level checks of the batch compile and sampler against independent
references: the fused QFR diagonal against the scalar gates; the prepared
register, in the angle frame and rotated back, against the scalar product
state and gates; the general attack's entangler against the scalar channel
hook; the lab-frame Helstrom oracle against a full eigendecomposition of
Eve's 16x16 rho_1 - rho_0, and the frame's Helstrom step against that
oracle; the branch table's real trig coefficients against the branch run at
random angles, its numerators chained from weight 1 against the branch run's
leaf weights, and its angle averages against closed forms; the cached
table against a fresh compile, and the cache's key; Eve's POVM against a
stale ``povm_up`` and the scalar discriminator; the sampler's
outputs against its own chunk size; the code table and the sampled columns
against the public-column rules; and the named wrappers against the
executor."""
from dataclasses import replace

import numpy as np
import pytest

from faraday_qkd import adversary, analysis, batch, harness, qstate as qs

from oracles import (basis_product, carried_weight_sample, full_basis, helstrom_lab,
                     public_columns)


@pytest.mark.parametrize("kind", [k for k, sc in batch.SCENARIOS.items() if sc.channel is None])
def test_fused_qfr_diagonal_matches_gate_by_gate(kind):
    sc = batch.SCENARIOS[kind]
    n = len(sc.kets)
    rng = np.random.default_rng(len(kind))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    ref = qs.StateVector(n, amps)
    for c, t in sc.gates:
        ref = qs.apply_qfr(ref, c, t)
    fused = amps * batch._qfr_phases(n, sc.gates)
    np.testing.assert_allclose(fused, ref.amplitudes, rtol=0, atol=1e-15)


def _frame_rotation(kets, angles, n):
    """The diagonal of R = (x)_q diag(1, e^{i theta_q}) on n qubits, one row
    per round: theta_q is the angle of ket q of ``kets`` (0 for a home),
    ``angles`` maps a ket's name to one angle per round, and qubits above
    ``kets`` are not rotated."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(len(kets))) & 1
    return np.exp(1j * sum(np.outer(angles[k], bits[:, q])
                           for q, k in enumerate(kets) if k != "home"))


@pytest.mark.parametrize("kind", [k for k, sc in batch.SCENARIOS.items() if sc.channel is None])
def test_prepared_register_matches_scalar_build(kind):
    """The prepared register is one state in the angle frame, and R(angles)
    times it equals the scalar engine's product state and gates
    (``adversary._prepared_state``) at random angles."""
    sc = batch.SCENARIOS[kind]
    tree = batch._branches(replace(sc, readout=()), {}, {})
    assert tree.amps.shape == (1, 1, 1 << len(sc.kets))
    names = batch._angles(sc)
    rng = np.random.default_rng(len(kind) + 3)
    angles = dict(zip(names, 2 * np.pi * rng.random((len(names), 6))))
    lab = _frame_rotation(sc.kets, angles, len(sc.kets)) * tree.amps[0, 0]
    for r, amps in enumerate(lab):
        ref = adversary._prepared_state(kind, **{k: angles[k][r] for k in names})
        np.testing.assert_allclose(amps, ref.amplitudes, rtol=0, atol=1e-14)


def test_scenarios_list_home_kets_first():
    """Eve's Helstrom step (``_helstrom``) takes every qubit above C and D as
    hers and traces out those below, the homes, and every kind keeps that
    order, so a kind that lists a home ket after a drawn one must fail here."""
    for kind, sc in batch.SCENARIOS.items():
        homes = sc.kets.count("home")
        assert sc.kets[:homes] == ("home",) * homes, kind


@pytest.mark.parametrize("c", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("leg", range(len(batch._LEGS)))
def test_entangler_matches_scalar_hook(leg, c):
    """Leg i of the general attack acts on a register of 4 + i qubits: the
    batch entangler, run in the angle frame on a tree whose points are random
    (alpha, beta) pairs, must give the scalar hook's amplitudes once rotated
    back, ancilla on top."""
    sc = batch.SCENARIOS["general"]
    n, travel = 4 + leg, sc.gates[leg][1]
    gamma = 0.83
    rng = np.random.default_rng(100 * leg + int(100 * c))
    amps = rng.normal(size=(5, 1 << n)) + 1j * rng.normal(size=(5, 1 << n))
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    angles = dict(alpha=rng.uniform(0, 2 * np.pi, 5), beta=rng.uniform(0, 2 * np.pi, 5))
    tree = batch._Tree(sc, {"gamma": gamma, "cx": c, "cy": c}, angles)
    tree.amps = (amps / _frame_rotation(sc.kets, angles, n))[:, None]
    batch._entangle(tree, travel, *batch._LEGS[leg])
    hook = adversary.general_attack_hooks(adversary.GeneralAttackSpec(gamma, c, c))[leg]
    ref = [hook.transform(qs.StateVector(n, a), None).amplitudes for a in amps]
    lab = tree.amps[:, 0] * _frame_rotation(sc.kets, angles, n + 1)
    np.testing.assert_allclose(lab, np.array(ref), rtol=0, atol=1e-14)


def _random_chunk(rng, layout, ranks):
    """A hand-built chunk at the Helstrom step, not covariant: one round per
    (rank of the C = D = 0 block, rank of the C = D = 1 block), random angles,
    a random prepared register and Eve's register at readout.  Returns the
    lab-frame oracle's arguments, the blocks in the measurement frame and
    Eve's register."""
    b = len(ranks)
    c = layout.index("C")

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    rot = cplx(b, 16, 2, 2, 1 << c)                     # (eve, D, C, homes), rotated
    for i, rk in enumerate(ranks):
        for bit, r in enumerate(rk):
            rot[i, :, bit, bit, :] = cplx(16, r) @ cplx(r, 1 << c)
    alpha, beta = rng.uniform(0, 2 * np.pi, (2, b))
    prepared = np.stack([np.einsum("dD,cC,eDCh->edch", qs.basis_rotation(be),
                                   qs.basis_rotation(al), r)
                         for al, be, r in zip(alpha, beta, rot)])
    eve = cplx(b, 16)
    eve /= np.linalg.norm(eve, axis=1)[:, None]
    return (prepared.reshape(b, -1), eve, alpha, beta, c), rot, eve


def _full_solve(rot, eve):
    """Trace distance and P(guess 1) from eigh of the 16x16 rho_1 - rho_0."""
    rho = []
    for bit in (0, 1):                                  # bit 0 <=> key 1
        blk = rot[:, bit, bit, :]
        r = blk @ blk.conj().T
        rho.append(r / np.trace(r).real)
    vals, vecs = np.linalg.eigh(rho[0] - rho[1])
    p1 = np.sum((vals > 1e-9) * np.abs(vecs.conj().T @ eve) ** 2)
    return 0.5 * np.sum(np.abs(vals)), p1


@pytest.mark.parametrize("kind, ranks", [
    ("pns:3", [(4, 4), (2, 2), (2, 4), (1, 3), (4, 4)]),
    ("pns:4home", [(16, 16), (2, 2), (2, 16), (4, 1), (8, 8)]),   # a full basis for the chunk
    # every round of low rank, so a reduced basis is checked on its own
    ("pns:4home", [(2, 2), (1, 3), (4, 4), (2, 1)]),
    ("pns:3", [(1, 1), (2, 2), (1, 2)]),
])
def test_helstrom_matches_full_eigh(kind, ranks):
    """The lab-frame oracle's solve on the rank of Eve's states gives a full
    16x16 eigendecomposition's trace distance and P(guess 1) to 1e-12."""
    args, rot, eve = _random_chunk(np.random.default_rng(7), batch.SCENARIOS[kind].layout, ranks)
    t_ref, p_ref = zip(*(_full_solve(rot[i], eve[i]) for i in range(len(ranks))))
    t_ref, p_ref = np.array(t_ref), np.array(p_ref)
    assert np.all(t_ref < 1 - 1e-3) and np.all((p_ref > 1e-6) & (p_ref < 1 - 1e-6))
    t, p1 = helstrom_lab(*args)
    np.testing.assert_allclose(t, t_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(p1, p_ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["pns:3", "pns:4home"])
def test_frame_helstrom_matches_lab_oracle(kind):
    """At random alpha and beta, the Helstrom step solved once per kind in the
    angle frame gives each round the lab-frame oracle's trace distance and
    P(guess key 1), its numerator over the branch's weight, to 1e-12.  Each
    branch's Eve register is replaced by a random unnormalised one, so that
    P(guess key 1) is neither 0 nor 1."""
    sc = batch.SCENARIOS[kind]
    rng = np.random.default_rng(len(kind))
    tree = batch._branches(replace(sc, readout=sc.readout[:-1]), {}, {})
    _, branches, dim = tree.amps.shape
    eve, rest = (rng.normal(size=(branches, d)) + 1j * rng.normal(size=(branches, d))
                 for d in (16, dim // 16))
    tree.amps = (eve[:, :, None] * rest[:, None, :]).reshape(tree.amps.shape)   # Eve on top
    batch._helstrom(tree)
    record, invert, splits, num = tree.steps[-1]
    weight = batch._weight(tree.amps)
    # the guess is key 1 at draw < P(guess key 1)
    assert (record, invert, splits) == ("guess", True, False)
    rounds = rng.integers(branches, size=40)
    angles = dict(zip(("alpha", "beta"), rng.uniform(0, 2 * np.pi, (2, 40))))
    prepared = np.array([adversary._prepared_state(kind, alpha=a, beta=b).amplitudes
                         for a, b in zip(angles["alpha"], angles["beta"])])
    lab = eve[rounds] / np.linalg.norm(eve[rounds], axis=1)[:, None]
    lab = lab * _frame_rotation(sc.kets[-4:], angles, 4)
    t_ref, p_ref = helstrom_lab(prepared, lab, angles["alpha"], angles["beta"],
                                sc.layout.index("C"))
    assert np.all((p_ref > 1e-6) & (p_ref < 1 - 1e-6))
    np.testing.assert_allclose(num[0, rounds] / weight[0, rounds], p_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tree.fixed["trace_dist"], t_ref, rtol=0, atol=1e-12)


def test_pns_4home_holds_few_states():
    """pns:4home's table has one point and 2**6 branches at its Helstrom step,
    one per outcome string of its six readouts: a fall back to a grid or to
    per-round work would show here."""
    tbl = batch._compile(batch.SCENARIOS["pns:4home"], {})
    record, _, _, num = tbl.steps[-1]
    assert record == "guess" and tbl.amps.shape[:2] == (1, 64)
    assert num.shape == (64, 1)


def _attack(kind, gamma=0.83, cx=0.4, cy=0.7):
    attack = {"kind": kind, "gamma": gamma}
    if kind == "general":
        attack.update(cx=cx, cy=cy)
    return attack


@pytest.mark.parametrize("kind, cx, cy", [("general", 0.5, 0.5), ("general", 0.2, 0.8),
                                          ("general", 0.9, 0.35), ("intercept", None, None)])
def test_table_is_exact_at_random_angles(kind, cx, cy):
    """Every step's numerator, evaluated from the table's 5 x 5 real trig
    coefficients at random alpha and beta, equals the branch run at those
    angles to 1e-12, at a random gamma: the degree-2 bound the table rests
    on, which a kind of higher degree breaks."""
    rng = np.random.default_rng(len(kind) + int(10 * (cx or 0)))
    sc = batch.SCENARIOS[kind]
    attack = _attack(kind, rng.uniform(0, 2 * np.pi), cx, cy)
    tbl = batch._compile(sc, attack)
    angles = dict(zip(("alpha", "beta"), rng.uniform(0, 2 * np.pi, (2, 30))))
    run = batch._branches(sc, attack, angles)
    basis = full_basis(tbl, angles)
    assert len(tbl.steps) == len(run.steps) == sc.draws - 2
    for compiled, direct in zip(tbl.steps, run.steps):
        assert compiled[:3] == direct[:3]
        num, values = compiled[3], direct[3]
        assert num.dtype == np.float64 and num.shape == (values.shape[1], 25)
        np.testing.assert_allclose(np.einsum("bk,rk->rb", num, basis), values,
                                   rtol=0, atol=1e-12)


def _chained(weight, steps, p):
    """Each step with its P(branch, outcome), (..., branches, 2), from the
    numerators ``p(num)`` and the (..., 1) weight before the first step,
    chained as the sampler does: a split's outcomes become the branches of
    the next step."""
    for step in steps:
        p0 = p(step[3])
        out = np.stack([p0, weight - p0], axis=-1)
        yield step, out
        if step[2]:
            weight = out.reshape(*out.shape[:-2], -1)


def _outcomes(tbl):
    """Each step with its angle-averaged P(branch, outcome), (branches, 2):
    the weights chained from 1 through each step's constant term."""
    return _chained(np.ones(1), tbl.steps, lambda num: num[:, 0])


def _leaves(tbl):
    """Angle-averaged P(leaf) over the leaves of the last splitting step."""
    return [out for step, out in _outcomes(tbl) if step[2]][-1].ravel()


def _detection(tbl):
    """Angle-averaged P(C != D), over the leaves of the last splitting step."""
    return np.sum(_leaves(tbl)[tbl.bits["C"] != tbl.bits["D"]])


def _accuracy(tbl, record, key):
    """Angle-averaged P(record == key) for Eve's guess ``record``, a step
    after the last split, and ``key``, one bit per leaf."""
    step, out = next((step, out) for step, out in _outcomes(tbl) if step[0] == record)
    return np.sum(out[np.arange(len(out)), key ^ step[1]])


@pytest.mark.parametrize("kind", batch.SCENARIOS)
def test_carried_weights_are_the_leaf_weights(kind):
    """The sampler's carried weight, for every kind: chained from 1 through
    the compiled numerators at random alpha and beta, the weights after the
    last split equal the branch run's leaf weights ||psi_leaf||**2 at those
    angles, to 1e-12."""
    rng = np.random.default_rng(len(kind) + 11)
    sc = batch.SCENARIOS[kind]
    attack = _attack(kind, rng.uniform(0, 2 * np.pi))
    tbl = batch._compile(sc, attack)
    angles = dict(zip(batch._angles(sc), rng.uniform(0, 2 * np.pi, (3, 30))))
    basis = full_basis(tbl, angles)
    chain = _chained(np.ones((30, 1)), tbl.steps, lambda num: np.einsum("bk,rk->rb", num, basis))
    leaves = [out for step, out in chain if step[2]][-1].reshape(30, -1)
    run = batch._branches(sc, attack, angles)
    want = batch._weight(run.amps)
    assert leaves.shape == want.shape == (30, tbl.amps.shape[1])
    np.testing.assert_allclose(leaves, want, rtol=0, atol=1e-12)


def _within_3_sigma(rate, p, n):
    """A rate measured over n rounds lies within 3 sigma of p."""
    return abs(rate - p) <= 3 * np.sqrt(p * (1 - p) / n)


# Eve's exact accuracy on Alice's home key at the unbalanced general specs
_UNBALANCED_ACCURACY = {(0.2, 0.8): 0.7498265274241334, (0.5, 0.9): 0.6591456577136114}


@pytest.mark.parametrize("cx, cy", [(0.5, 0.5), (0.2, 0.2), (0.8, 0.8), (0.2, 0.8), (0.5, 0.9)])
def test_general_table_gives_exact_expectations(cx, cy):
    """The table's constant terms are angle averages: the general attack's
    detection rate is the closed form (3 - 2q - q^2)/8, q = cx cy, to 1e-12;
    Eve's accuracy on Alice's home key is 1 - c^2/2 on balanced specs and
    pinned on unbalanced ones, and ``run_experiment``'s Monte Carlo accuracy
    lies within 3 sigma of it."""
    tbl = batch._compile(batch.SCENARIOS["general"], _attack("general", 1.3 * cx, cx, cy))
    assert _detection(tbl) == pytest.approx(
        analysis.simulated_detection_probability(cx, cy), rel=0, abs=1e-12)
    exact = _accuracy(tbl, "guess_alice", tbl.bits["A"])
    want = 1 - cx * cx / 2 if cx == cy else _UNBALANCED_ACCURACY[cx, cy]
    assert exact == pytest.approx(want, rel=0, abs=1e-12)
    n = 20000
    report = harness.run_experiment(harness.ExperimentConfig(
        rounds=n, test_bits=0, master_seed=61,
        attack=harness.AttackChoice("general", cx, cy, 1.3 * cx)))
    assert _within_3_sigma(report.eve_accuracy, exact, n)


@pytest.mark.parametrize("cx, cy", [(0.5, 0.5), (0.2, 0.8)])
def test_eve_bob_guess_aims_at_his_home_bit_before_the_flip(cx, cy):
    """Eve's (E, F) guess (``eve_guess_bob``, the CSV's ``eve_bit_bob``)
    predicts Bob's home bit before step 9's flip, k_bob_even XOR k_bob_odd,
    exactly as well as her (E', F') guess predicts Alice's home bit (0.875 at
    c = 0.5); against ``k_bob_even`` it is right half the time.  Both exact
    to 1e-12 from the table, and the sampled columns within 3 sigma."""
    attack = _attack("general", 1.3 * cx, cx, cy)
    tbl = batch._compile(batch.SCENARIOS["general"], attack)
    bits = tbl.bits
    alice = _accuracy(tbl, "guess_alice", bits["A"])
    if cx == cy == 0.5:
        assert alice == pytest.approx(0.875, rel=0, abs=1e-12)
    assert _accuracy(tbl, "guess_bob", bits["B"] ^ bits["D"]) == pytest.approx(
        alice, rel=0, abs=1e-12)
    assert _accuracy(tbl, "guess_bob", bits["B"]) == pytest.approx(0.5, rel=0, abs=1e-12)
    n = 20000
    cols = batch.protocol_rounds(harness.round_uniforms(62, 0, n, 8), attack)
    guess, even = cols["eve_guess_bob"], cols["k_bob_even"]
    assert _within_3_sigma(np.mean(guess == even ^ cols["k_bob_odd"]), alice, n)
    assert _within_3_sigma(np.mean(guess == even), 0.5, n)


@pytest.mark.parametrize("kind, gamma, rate", [("intercept", 0.3, 3 / 8), ("intercept", 1.7, 3 / 8),
                                               ("impersonate:one", 0, 1 / 2), ("none", 0, 0),
                                               ("pns:3", 0, 0), ("pns:4home", 0, 0)])
def test_table_gives_exact_detection_rates(kind, gamma, rate):
    """The angle-averaged P(C != D) of each kind's table against its closed
    form, to 1e-12; for the PNS kinds, Eve's accuracy on Alice's odd key is
    1."""
    tbl = batch._compile(batch.SCENARIOS[kind], _attack(kind, gamma))
    assert _detection(tbl) == pytest.approx(rate, rel=0, abs=1e-12)
    if kind.startswith("pns"):
        assert _accuracy(tbl, "guess", tbl.bits["C"]) == pytest.approx(1.0, rel=0, abs=1e-12)


def test_two_home_detection_rate_from_marginals():
    """Eve's two copies are independent runs of the baseline, so
    P(C0 != D1) = 1/2 follows from the copies' marginals of C and D."""
    tbl = batch._compile(batch.SCENARIOS["impersonate:two"], {})
    leaves = _leaves(tbl)
    c1, d1 = (np.sum(leaves[tbl.bits[k] == 1]) for k in ("C", "D"))
    assert c1 * (1 - d1) + (1 - c1) * d1 == pytest.approx(0.5, rel=0, abs=1e-12)


@pytest.mark.parametrize("kind", batch.SCENARIOS)
def test_chunk_size_changes_no_output(kind, monkeypatch):
    """Rows are independent: chunks of 1, 7 and 2,048 rows give the same bytes
    in every column, and trace_dist to 1e-14."""
    u = harness.round_uniforms(31, 0, 300, batch.SCENARIOS[kind].draws)
    runs = []
    for chunk in (1, 7, 2048):
        monkeypatch.setattr(batch, "CHUNK", chunk)
        runs.append(batch.protocol_rounds(u, _attack(kind)))
    ref = runs[0]
    for cols in runs[1:]:
        assert cols.keys() == ref.keys()
        for name, col in cols.items():
            if name == "trace_dist":
                np.testing.assert_allclose(col, ref[name], rtol=0, atol=1e-14)
            else:
                assert col.dtype == ref[name].dtype and col.tobytes() == ref[name].tobytes(), name


def test_basis_is_the_broadcast_product():
    """``_basis(angles, cols)`` gives, bit for bit, columns ``cols`` of the
    (rounds, 5, 1) x (rounds, 1, 5) broadcast product of phi(alpha) and
    phi(beta), as C-ordered (columns, rounds): for all 25 columns, for the
    general table's pruned ``cols`` and for a shuffled few, at random angles
    and at angles of exactly 0, where a zero sine meets negative cosines."""
    rng = np.random.default_rng(17)
    angles = dict(zip(("alpha", "beta"), rng.uniform(0, 2 * np.pi, (2, 300))))
    angles["alpha"][:20] = 0.0
    angles["beta"][10:30] = 0.0
    pa, pb = (batch._phi(angles[k]).T for k in ("alpha", "beta"))
    want = (pa[:, :, None] * pb[:, None, :]).reshape(300, 25)
    pruned = batch._table(batch.SCENARIOS["general"], (0.5, 0.5, 0.3)).cols
    for cols in (np.arange(25), pruned, rng.permutation(25)[:7]):
        got = batch._basis(angles, cols)
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert got.shape == (len(cols), 300)
        assert got.tobytes() == np.ascontiguousarray(want[:, cols].T).tobytes()


@pytest.mark.parametrize("rows", [1, batch.CHUNK])
@pytest.mark.parametrize("kind", [k for k, sc in batch.SCENARIOS.items() if sc.channel])
def test_basis_is_the_full_product(kind, rows):
    """``_basis``, which forms only the harmonics its columns read, equals the
    full product of phi's rows (``oracles.basis_product``) byte for byte: on
    the channel kind's ``cols`` at random specs, on all 25 columns and on a
    random subset, at 1 row and at ``CHUNK`` rows."""
    rng = np.random.default_rng(rows)
    sc = batch.SCENARIOS[kind]
    specs = [tuple(float(rng.uniform(0, 2 * np.pi if name == "gamma" else 1))
                   for name in sc.params) for _ in range(3)]
    col_sets = [batch._table(sc, spec).cols for spec in specs]
    col_sets += [np.arange(25), rng.permutation(25)[:rng.integers(1, 25)]]
    for cols in col_sets:
        angles = dict(zip(("alpha", "beta"), rng.uniform(0, 2 * np.pi, (2, rows))))
        got = batch._basis(angles, cols)
        assert got.shape == (len(cols), rows) and got.flags.c_contiguous
        assert got.tobytes() == basis_product(angles, cols).tobytes(), cols


_CHANNEL_FREE = [kind for kind, sc in batch.SCENARIOS.items() if not sc.channel]


def _edge_draws(tbl, rows, rng):
    """Draws for ``rows`` rows of ``tbl``'s kind whose step draws are, a fifth
    each, random, exactly 0.0, exactly 1 - 2**-53, exactly the threshold of
    the branch the row is at where that lies in [0, 1), and exactly 1.0,
    which no stream gives but which drives rows onto branches of weight 0;
    with the number of ties and of draws at a 0/0 (nan) threshold."""
    sc = tbl.sc
    u = rng.random((rows, sc.draws // sc.copies))
    branch, ties, nans = np.zeros(rows, dtype=np.int64), 0, 0
    steps = zip(u.T[len(batch._angles(sc)):], tbl.steps, tbl.thresholds)
    for col, (_, _, splits, _), cut in steps:
        at = cut[branch]
        pick = rng.integers(5, size=rows)
        col[pick == 1] = 0.0
        col[pick == 2] = 1 - 2.0 ** -53
        tie = (pick == 3) & (at >= 0) & (at < 1)
        col[tie] = at[tie]
        col[pick == 4] = 1.0
        ties += np.count_nonzero(tie)
        nans += np.count_nonzero(np.isnan(at))
        if splits:
            branch = 2 * branch + (col >= at)
    return u, ties, nans


def _decoded(tbl, u):
    """``_sample``'s records of the rows ``u``, decoded from its codes: each
    angle, 2 pi times its draw; each step's record, the step's bit of the
    code, the first step's the highest (its complement with ``invert``);
    and each fixed value, a constant column."""
    code = batch._sample(tbl, u)
    assert code.dtype == np.intp and code.shape == (len(u),)
    rec = {name: 2.0 * np.pi * col for name, col in zip(batch._angles(tbl.sc), u.T)}
    last = len(tbl.steps) - 1
    for j, (record, invert, _, _) in enumerate(tbl.steps):
        if record:
            rec[record] = ((code >> (last - j)) & 1) ^ invert
    rec.update((name, np.full(len(u), v)) for name, v in tbl.fixed.items())
    return rec


@pytest.mark.parametrize("kind", _CHANNEL_FREE)
def test_thresholds_match_the_carried_weight_loop(kind):
    """A kind without a channel operation is sampled from its per-branch
    thresholds byte for byte as the carried-weight loop samples it
    (``oracles.carried_weight_sample``), on random draws and on draws of
    exactly 0.0, 1 - 2**-53, 1.0 and each branch's threshold (``>=`` ties),
    which reach the 0/0 branches of the kinds that have them; its records
    are decoded from the codes."""
    tbl = batch._table(batch.SCENARIOS[kind], ())
    rng = np.random.default_rng(len(kind))
    edge, ties, nans = _edge_draws(tbl, 4000, rng)
    assert ties > 0
    assert (nans > 0) == any(np.isnan(cut).any() for cut in tbl.thresholds)
    for u in (edge, rng.random(edge.shape)):
        got, want = _decoded(tbl, u), carried_weight_sample(tbl, u)
        assert got.keys() == want.keys()
        for name, col in want.items():
            assert got[name].dtype == col.dtype and got[name].tobytes() == col.tobytes(), name


def _values(attack):
    """The ``_table`` key values of an attack dict."""
    return tuple(float(attack[p]) for p in batch.SCENARIOS[attack["kind"]].params)


# each channel kind's columns per step on its harmonic support at a random
# spec (the overlaps 0 and 1, and gamma = 0 in intercept, need fewer)
_SUPPORT = {"general": (1, 9, 9, 9, 9, 9), "intercept": (1, 1, 3, 9, 15, 25, 25, 25)}


@pytest.mark.parametrize("kind", batch.SCENARIOS)
def test_pruned_terms_drop_only_rounding(kind, tables):
    """``_terms`` keeps each step's coefficients on a prefix of ``cols``,
    bit for bit, and every coefficient it drops is at most 1e-15, a
    hundredth of ``_TOL``, for every kind at 12 random specs (gamma, and cx
    and cy for general; a kind without parameters has one table); a channel
    kind's table holds that ``cols`` and those ``terms``, with the support
    sizes of ``_SUPPORT``."""
    rng = np.random.default_rng(len(kind) + 29)
    sc = batch.SCENARIOS[kind]
    for _ in range(12):
        gamma, cx, cy = rng.uniform(0, 2 * np.pi), *rng.uniform(0, 1, 2)
        tbl = batch._table(sc, _values(_attack(kind, gamma, cx, cy)))
        cols, terms = batch._terms(tbl.steps)
        assert len(set(cols.tolist())) == len(cols) and len(terms) == len(tbl.steps)
        for (*_, num), kept in zip(tbl.steps, terms):
            k = kept.shape[1]
            assert kept.tobytes() == np.ascontiguousarray(num[:, cols[:k]]).tobytes()
            assert np.abs(np.delete(num, cols[:k], axis=1)).max(initial=0.0) <= 1e-15
        if sc.channel:
            assert tbl.cols.tobytes() == cols.tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(tbl.terms, terms))
            assert tuple(t.shape[1] for t in terms) == _SUPPORT[kind]


# every general spec whose bytes the suite pins, the overlaps' edges and
# unbalanced specs, and intercept at two angles: all of general's steps and
# intercept's first five are products, intercept's last three gathers
_SAMPLED_SPECS = [
    ("general", 0.3, 0.5, 0.5), ("general", 0.8, 0.45, 0.45), ("general", 1.1, 0.2, 0.8),
    ("general", 0.83, 0.4, 0.7), ("general", 0.7, 0.5, 0.5), ("general", 0.0, 0.5, 0.5),
    ("general", 0.3, 0.0, 0.0), ("general", 0.0, 1.0, 1.0), ("general", 0.65, 0.5, 0.9),
    ("general", 3.56204355244, 0.9, 0.35), ("general", 1.04, 0.8, 0.8),
    ("intercept", 0.3, None, None), ("intercept", 1.7, None, None)]


@pytest.mark.parametrize("kind, gamma, cx, cy", _SAMPLED_SPECS)
def test_sampler_matches_the_25_column_loop(kind, gamma, cx, cy, tables):
    """A channel kind sampled from its pruned ``terms`` gives, byte for byte
    in every column, what the carried-weight loop gives on all 25
    coefficients of every step (``oracles.carried_weight_sample``), over
    2 x 10**5 rows from two seeds, in ``CHUNK`` rows a call; its records are
    decoded from the codes."""
    tbl = batch._table(batch.SCENARIOS[kind], _values(_attack(kind, gamma, cx, cy)))
    wide = [len(t) > batch._MATMUL_BRANCHES for t in tbl.terms]
    assert sum(wide) == (3 if kind == "intercept" else 0)
    for seed in (3, 4):
        u = harness.round_uniforms(seed, 0, 100_000, tbl.sc.draws)
        for lo in range(0, len(u), batch.CHUNK):
            rows = u[lo:lo + batch.CHUNK]
            got, want = _decoded(tbl, rows), carried_weight_sample(tbl, rows)
            assert got.keys() == want.keys()
            for name, col in want.items():
                assert got[name].dtype == col.dtype and got[name].tobytes() == col.tobytes(), name


@pytest.mark.parametrize("kind", batch.SCENARIOS)
def test_code_table_follows_the_public_column_rules(kind, tables):
    """Each kind's code table holds, for every code, the records its bits
    give (the code written out in binary, one digit per step, copy after
    copy, the first step's first; a record is its step's digit, its
    complement with ``invert``, copy i's with the suffix i) with the
    constant records, and the public columns of those records by
    ``oracles.public_columns``: the same names, dtypes and bytes."""
    sc = batch.SCENARIOS[kind]
    tbl = batch._table(sc, _values(_attack(kind)))
    s = len(tbl.steps)
    digits = [f"{code:0{s * sc.copies}b}" for code in range(1 << s * sc.copies)]
    rec = {}
    for i in range(sc.copies):
        tag = str(i) if sc.copies > 1 else ""
        for j, (record, invert, _, _) in enumerate(tbl.steps):
            if record:
                rec[record + tag] = np.array([int(d[i * s + j]) ^ invert for d in digits])
        rec.update((name + tag, np.full(len(digits), v)) for name, v in tbl.fixed.items())
    want = public_columns(sc, rec)
    assert tbl.codes.keys() == want.keys()
    for name, col in want.items():
        got = tbl.codes[name]
        assert got.dtype == col.dtype and got.tobytes() == col.tobytes(), name


@pytest.mark.parametrize("kind", batch.SCENARIOS)
def test_rounds_are_the_public_columns_of_the_sampled_records(kind):
    """``protocol_rounds`` gives every column of ``oracles.public_columns``
    of the carried-weight loop's records, copy i's with the suffix i, with
    the public alpha and beta of the ``roles``: the same names, dtypes and
    bytes, each column one read of the ``Rounds`` mapping, over more than
    one ``CHUNK``; its ``code`` holds one integer per round."""
    sc = batch.SCENARIOS[kind]
    attack = _attack(kind)
    u = harness.round_uniforms(53, 0, batch.CHUNK + 9, sc.draws)
    got = batch.protocol_rounds(u, attack)
    tbl = batch._table(sc, _values(attack))
    d, rec = sc.draws // sc.copies, {}
    for i in range(sc.copies):
        tag = str(i) if sc.copies > 1 else ""
        rows = u[:, i * d:(i + 1) * d]
        rec.update((name + tag, col) for name, col in carried_weight_sample(tbl, rows).items())
    rec["alpha"], rec["beta"] = rec[sc.roles[0]], rec[sc.roles[1]]
    want = public_columns(sc, rec)
    assert got.code.shape == (len(u),) and set(got) == want.keys() and len(got) == len(want)
    for name, col in want.items():
        assert name in got and got[name].dtype == col.dtype, name
        assert got[name].tobytes() == col.tobytes(), name
    assert "nothing" not in got and got.get("nothing") is None


def test_a_measurement_after_a_guess_is_rejected():
    """A kind whose readout measures after a guess step cannot be compiled:
    its codes would not give the branch the sampler reads."""
    sc = batch.SCENARIOS["pns:3"]
    late = replace(sc, readout=sc.readout[:1] + ((batch._helstrom,), *sc.readout[1:-1]))
    with pytest.raises(ValueError, match="follows a guess"):
        batch._compile(late, {})


@pytest.fixture
def tables():
    """An empty table cache for the test, and emptied again after it."""
    batch._table.cache_clear()
    yield batch._table
    batch._table.cache_clear()


def _sampled_tables(monkeypatch, *attacks):
    """The table ``protocol_rounds`` samples from for each attack; every
    copy of a multi-copy kind samples the same table object."""
    sampled, got = [], []
    sample = batch._sample
    monkeypatch.setattr(batch, "_sample", lambda tbl, u: sampled.append(tbl) or sample(tbl, u))
    for attack in attacks:
        sc = batch.SCENARIOS[attack["kind"]]
        batch.protocol_rounds(harness.round_uniforms(5, 0, 10, sc.draws), attack)
        assert len(sampled) == sc.copies and all(t is sampled[0] for t in sampled)
        got.append(sampled[0])
        sampled.clear()
    return got


def _same_steps(a, b):
    """Two tables' steps are equal, coefficient arrays exactly."""
    return len(a) == len(b) and all(
        x[:3] == y[:3] and all(np.array_equal(u, v) for u, v in zip(x[3:], y[3:]))
        for x, y in zip(a, b))


@pytest.mark.parametrize("kind, gamma, cx, cy", [
    *((kind, 0.83, 0.4, 0.7) for kind in batch.SCENARIOS),
    ("general", 1.1, 0.2, 0.8), ("general", 0.0, 1.0, 1.0), ("intercept", 1.7, None, None)])
def test_sampled_table_equals_a_fresh_compile(kind, gamma, cx, cy, tables, monkeypatch):
    """The table ``protocol_rounds`` samples from is compiled once and reused
    by the next call on the spec, and its steps and constant records equal a
    fresh ``_compile`` exactly."""
    attack = _attack(kind, gamma, cx, cy)
    first, again = _sampled_tables(monkeypatch, attack, dict(attack))
    assert first is again
    assert tables.cache_info()[:2] == (1, 1)                 # one hit, one miss
    fresh = batch._compile(batch.SCENARIOS[kind], attack)
    assert _same_steps(first.steps, fresh.steps)
    assert first.fixed == fresh.fixed


def test_specs_that_differ_share_no_table(tables, monkeypatch):
    """Specs that differ only in gamma, cx or cy get tables of their own; a
    kind without parameters gets one table whatever the dict carries."""
    base = _attack("general", 0.83, 0.4, 0.7)
    variants = [base, {**base, "gamma": 0.84}, {**base, "cx": 0.41}, {**base, "cy": 0.71}]
    got = _sampled_tables(monkeypatch, *variants, dict(base))
    assert len({id(t) for t in got}) == len(variants) and got[-1] is got[0]
    for a, t in zip(variants[1:], got[1:]):
        assert _same_steps(t.steps, batch._compile(batch.SCENARIOS["general"], a).steps)
    none = _sampled_tables(monkeypatch, {"kind": "none"}, {**base, "kind": "none"},
                           {"kind": "none", "gamma": 2.0})
    assert none[0] is none[1] is none[2]


def test_stale_povm_up_changes_nothing(tables):
    """Eve's POVM comes from the spec's overlaps alone: a ``povm_up`` left in
    the attack dict, zeros here, changes no column of a fresh compile, and
    the scalar engine's ``EveDiscriminator`` holds the bytes of
    ``_eve_povm``."""
    attack = _attack("general", 0.83, 0.4, 0.7)
    u = harness.round_uniforms(43, 0, 300, 8)
    want = batch.protocol_rounds(u, attack)
    tables.cache_clear()
    got = batch.protocol_rounds(u, {**attack, "povm_up": np.zeros((4, 4))})
    assert tables.cache_info().misses == 1
    for name, col in want.items():
        assert got[name].tobytes() == col.tobytes(), name
    m_up = adversary.EveDiscriminator(adversary.GeneralAttackSpec(0.83, 0.4, 0.7)).m_up
    assert m_up.dtype == np.complex128
    assert m_up.tobytes() == batch._eve_povm(0.4, 0.7).tobytes()


def test_cached_tables_are_read_only_without_amplitudes(tables, monkeypatch):
    """A cached table keeps no amplitudes and no attack dict, every code
    table column is read-only and holds one value per code, and every
    numerator array is read-only and (branches, 25) with a channel, (branches,
    1) without; a kind without a channel also holds one read-only
    (branches,) threshold array per step and no pruned terms, and a kind with
    one no thresholds, a read-only ``cols`` and one read-only (branches, k)
    ``terms`` array per step."""
    got = _sampled_tables(monkeypatch, *(_attack(kind) for kind in batch.SCENARIOS))
    assert tables.cache_info().currsize == len(batch.SCENARIOS)
    for tbl in got:
        assert tbl.amps is None and tbl.attack is None
        for col in tbl.codes.values():
            assert not col.flags.writeable and col.shape == (1 << len(tbl.steps) * tbl.sc.copies,)
            with pytest.raises(ValueError):
                col[0] = 0
        terms = 25 if tbl.sc.channel else 1
        for *_, num in tbl.steps:
            assert not num.flags.writeable and num.shape[1:] == (terms,)
            with pytest.raises(ValueError):
                num[0, 0] = 0
        if tbl.sc.channel:
            assert tbl.thresholds is None and len(tbl.terms) == len(tbl.steps)
            assert not tbl.cols.flags.writeable
            for (*_, num), kept in zip(tbl.steps, tbl.terms):
                assert not kept.flags.writeable and kept.shape[0] == len(num)
                assert kept.shape[1] <= len(tbl.cols)
                with pytest.raises(ValueError):
                    kept[0, 0] = 0
            with pytest.raises(ValueError):
                tbl.cols[0] = 1
            continue
        assert tbl.cols is None and tbl.terms is None
        assert len(tbl.thresholds) == len(tbl.steps)
        for (*_, num), cut in zip(tbl.steps, tbl.thresholds):
            assert not cut.flags.writeable and cut.shape == (len(num),)
            with pytest.raises(ValueError):
                cut[0] = 0


@pytest.mark.parametrize("kind", ["none", "general"])
def test_sampler_rejects_unused_draws(kind):
    """A chunk with one column more than the kind's steps use is an error,
    not a silently dropped draw."""
    sc = batch.SCENARIOS[kind]
    attack = _attack(kind)
    tbl = batch._table(sc, tuple(float(attack[p]) for p in sc.params))
    with pytest.raises(RuntimeError, match="left draws unused"):
        batch._sample(tbl, harness.round_uniforms(43, 0, 8, sc.draws + 1))


@pytest.mark.parametrize("kind", batch.SCENARIOS)
def test_columns_do_not_depend_on_layout(kind):
    """``protocol_rounds`` gives the same bytes on ``round_uniforms``'
    draw-major result and on a C-ordered copy of it, column for column, over
    more than one ``CHUNK``."""
    u = harness.round_uniforms(47, 0, batch.CHUNK + 5, batch.SCENARIOS[kind].draws)
    want = batch.protocol_rounds(u, _attack(kind))
    got = batch.protocol_rounds(np.ascontiguousarray(u), _attack(kind))
    assert got.keys() == want.keys()
    for name, col in want.items():
        assert got[name].dtype == col.dtype and got[name].tobytes() == col.tobytes(), name


@pytest.mark.parametrize("kind, variant", [("impersonate:one", None),
                                           ("pns:3", "three-photon"),
                                           ("pns:4home", "four-home-qubit")])
def test_wrappers_match_protocol_rounds(kind, variant):
    """``one_home_rounds`` and ``pns_rounds`` give the bytes of
    ``protocol_rounds`` on the same draws, column for column."""
    u = harness.round_uniforms(41, 0, 200, batch.SCENARIOS[kind].draws)
    got = batch.pns_rounds(variant, u) if variant else batch.one_home_rounds(u)
    want = batch.protocol_rounds(u, {"kind": kind})
    assert got.keys() == want.keys()
    for name, col in want.items():
        assert got[name].dtype == col.dtype and got[name].tobytes() == col.tobytes(), name
