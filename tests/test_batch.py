"""Kernel-level checks of the batch executor against independent references:
the fused QFR diagonal against the scalar gates; the prepared register, in
the angle frame and rotated back, against the scalar product state and
gates; the general attack's entangler against the scalar channel hook; the
lab-frame Helstrom oracle against a full eigendecomposition of Eve's 16x16
rho_1 - rho_0, and the frame's Helstrom step against that oracle; the
executor's outputs against its own chunk size; and the named wrappers
against the executor."""
from dataclasses import replace

import numpy as np
import pytest

from faraday_qkd import adversary, batch, harness, qstate as qs

from oracles import helstrom_lab


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


def _capture(sc, steps):
    """``sc`` with the readout ``steps``, then a step that records the chunk
    in flight and takes the draws left."""
    captured = []

    def capture(run):
        captured.append(run)
        list(run.draws)
    return replace(sc, readout=tuple(steps) + ((capture,),)), captured


@pytest.mark.parametrize("kind", [k for k, sc in batch.SCENARIOS.items() if sc.channel is None])
def test_prepared_register_matches_scalar_build(kind):
    """The prepared register is one state in the angle frame, and R(angles)
    times it equals the scalar engine's product state and gates
    (``adversary._prepared_state``) at random angles."""
    sc = batch.SCENARIOS[kind]
    names = list(dict.fromkeys(k for k in sc.kets if k != "home"))
    capture, captured = _capture(sc, ())
    batch._run(capture, np.random.default_rng(len(kind) + 3).random((6, len(names))), {})
    run = captured[0]
    assert len(run.amps) == 1
    lab = _frame_rotation(sc.kets, run.rec, len(sc.kets)) * run.amps[run.idx]
    for r, amps in enumerate(lab):
        ref = adversary._prepared_state(kind, **{k: run.rec[k][r] for k in names})
        np.testing.assert_allclose(amps, ref.amplitudes, rtol=0, atol=1e-14)


def test_scenarios_list_home_kets_first():
    """Eve's Helstrom step reads the homes below C (``_eve_helstrom``), and
    every kind keeps that order, so a kind that lists a home ket after a
    drawn one must fail here."""
    for kind, sc in batch.SCENARIOS.items():
        homes = sc.kets.count("home")
        assert sc.kets[:homes] == ("home",) * homes, kind


@pytest.mark.parametrize("c", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("leg", range(len(batch._LEGS)))
def test_entangler_matches_scalar_hook(leg, c):
    """Leg i of the general attack acts on a register of 4 + i qubits: the
    batch entangler, run in the angle frame at random alpha and beta, must
    give the scalar hook's amplitudes once rotated back, ancilla on top."""
    sc = batch.SCENARIOS["general"]
    n, travel = 4 + leg, sc.gates[leg][1]
    gamma = 0.83
    rng = np.random.default_rng(100 * leg + int(100 * c))
    amps = rng.normal(size=(5, 1 << n)) + 1j * rng.normal(size=(5, 1 << n))
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    run = batch._Rounds(np.zeros((5, 0)), sc, {"gamma": gamma, "cx": c, "cy": c})
    run.rec.update(alpha=rng.uniform(0, 2 * np.pi, 5), beta=rng.uniform(0, 2 * np.pi, 5))
    run.amps, run.idx = amps / _frame_rotation(sc.kets, run.rec, n), np.arange(5)
    batch._entangle(run, travel, *batch._LEGS[leg])
    hook = adversary.general_attack_hooks(adversary.GeneralAttackSpec(gamma, c, c))[leg]
    ref = [hook.transform(qs.StateVector(n, a), None).amplitudes for a in amps]
    lab = run.amps * _frame_rotation(sc.kets, run.rec, n + 1)
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
    P(guess key 1), to 1e-12.  Eve's frame states are replaced by random
    ones, so that P(guess key 1) is neither 0 nor 1."""
    sc = batch.SCENARIOS[kind]
    rng = np.random.default_rng(len(kind))
    capture, captured = _capture(sc, sc.readout[:-1])
    batch._run(capture, rng.random((40, sc.draws)), {})
    run = captured[0]
    run.amps = rng.normal(size=(len(run.amps), 16)) + 1j * rng.normal(size=(len(run.amps), 16))
    run.amps /= np.linalg.norm(run.amps, axis=1)[:, None]
    alpha, beta = run.rec["alpha"], run.rec["beta"]
    prepared = np.array([adversary._prepared_state(kind, alpha=a, beta=b).amplitudes
                         for a, b in zip(alpha, beta)])
    eve = run.amps[run.idx] * _frame_rotation(sc.kets[-4:], run.rec, 4)
    t_ref, p_ref = helstrom_lab(prepared, eve, alpha, beta, sc.layout.index("C"))
    assert np.all((p_ref > 1e-6) & (p_ref < 1 - 1e-6))
    # the guess is draw < p1: draws just either side of p1 pin it to 1e-12
    for shift, guess in ((-1e-12, 1), (1e-12, 0)):
        run.draws = iter([p_ref + shift])
        batch._helstrom(run)
        np.testing.assert_allclose(run.rec["trace_dist"], t_ref, rtol=0, atol=1e-12)
        assert np.all(run.rec["guess"] == guess)


def test_pns_4home_holds_few_states():
    """On a 2,048-round chunk, pns:4home reaches its Helstrom step with at
    most 2**6 distinct states, one per outcome string of its six readouts: a
    fall back to one state per round would show here."""
    sc = batch.SCENARIOS["pns:4home"]
    capture, captured = _capture(sc, sc.readout[:-1])
    batch._run(capture, harness.round_uniforms(3, 0, 2048, sc.draws), {})
    assert len(captured[0].idx) == 2048 and len(captured[0].amps) <= 64


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
