"""Kernel-level checks of the batch executor against independent references:
the fused QFR diagonal against the scalar gates, the general attack's
entangler against the scalar channel hook, the Helstrom solve against a
full eigendecomposition of Eve's 16x16 rho_1 - rho_0, the executor's
outputs against its own chunk size, and the named wrappers against the
executor."""
import numpy as np
import pytest

from faraday_qkd import adversary, batch, harness, qstate as qs


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


@pytest.mark.parametrize("c", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("leg", range(len(batch._LEGS)))
def test_entangler_matches_scalar_hook(leg, c):
    """Leg i of the general attack acts on a register of 4 + i qubits: the
    batch entangler must give the scalar hook's amplitudes, ancilla on top."""
    sc = batch.SCENARIOS["general"]
    n, travel = 4 + leg, sc.gates[leg][1]
    gamma = 0.83
    rng = np.random.default_rng(100 * leg + int(100 * c))
    amps = rng.normal(size=(5, 1 << n)) + 1j * rng.normal(size=(5, 1 << n))
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    run = batch._Rounds(np.zeros((5, 0)), {"gamma": gamma, "cx": c, "cy": c}, sc.layout)
    run.amps = amps
    batch._entangle(run, travel, *batch._LEGS[leg])
    hook = adversary.general_attack_hooks(adversary.GeneralAttackSpec(gamma, c, c))[leg]
    ref = [hook.transform(qs.StateVector(n, a), None).amplitudes for a in amps]
    np.testing.assert_allclose(run.amps, np.array(ref), rtol=0, atol=1e-14)


def _random_chunk(rng, layout, ranks):
    """A hand-built chunk at the Helstrom step: one round per (rank of the
    C = D = 0 block, rank of the C = D = 1 block), random angles, a random
    prepared register and Eve's register at readout.  Returns the chunk, the
    blocks in the measurement frame and Eve's register."""
    b = len(ranks)
    run = batch._Rounds(np.zeros((b, 1)), {}, layout)
    h = 1 << run.layout.index("C")

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    rot = cplx(b, 16, 2, 2, h)                          # (eve, D, C, homes), rotated
    for i, rk in enumerate(ranks):
        for bit, r in enumerate(rk):
            rot[i, :, bit, bit, :] = cplx(16, r) @ cplx(r, h)
    alpha, beta = rng.uniform(0, 2 * np.pi, (2, b))
    prepared = np.stack([np.einsum("dD,cC,eDCh->edch", qs.basis_rotation(be),
                                   qs.basis_rotation(al), r)
                         for al, be, r in zip(alpha, beta, rot)])
    eve = cplx(b, 16)
    eve /= np.linalg.norm(eve, axis=1)[:, None]
    run.rec.update(alpha=alpha, beta=beta)
    run.prepared, run.amps = prepared.reshape(b, -1), eve
    return run, rot, eve


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
    run, rot, eve = _random_chunk(np.random.default_rng(7), batch.SCENARIOS[kind].layout, ranks)
    t_ref, p_ref = zip(*(_full_solve(rot[i], eve[i]) for i in range(len(ranks))))
    t_ref, p_ref = np.array(t_ref), np.array(p_ref)
    assert np.all(t_ref < 1 - 1e-3) and np.all((p_ref > 1e-6) & (p_ref < 1 - 1e-6))
    batch._helstrom(run)
    np.testing.assert_allclose(run.rec["trace_dist"], t_ref, rtol=0, atol=1e-12)
    # the guess is draw < p1: draws just either side of p1 pin it to 1e-12
    for shift, guess in ((-1e-12, 1), (1e-12, 0)):
        run.draws = iter([p_ref + shift])
        batch._helstrom(run)
        assert np.all(run.rec["guess"] == guess)


def _attack(kind):
    attack = {"kind": kind, "gamma": 0.83}
    if kind == "general":
        spec = adversary.GeneralAttackSpec(0.83, 0.4, 0.7)
        attack.update(cx=0.4, cy=0.7, povm_up=adversary.EveDiscriminator(spec).m_up)
    return attack


@pytest.mark.parametrize("kind", batch.SCENARIOS)
def test_chunk_size_changes_no_output(kind, monkeypatch):
    """Rows are independent: chunks of 1, 7 and 2,048 rows (the last capped by
    the register size) give the same bytes in every column, and trace_dist to
    1e-14."""
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
