"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 7 asserts that the simulated eavesdropper's information
stays below the analytic worst-case curve; the faithful simulation refutes
that premise (her stage-one projections are certainties and the analytic
curve undercounts what nearly-orthogonal ancillae reveal), so that test
fails by design; its docstring and failure message carry the analysis.
"""
import time

import numpy as np

import faraday_qkd.protocol as proto
from faraday_qkd import (
    AttackChoice,
    EquatorAngle,
    EveDiscriminator,
    ExperimentConfig,
    GeneralAttackSpec,
    analysis,
    batch,
    build_subspace_decomposition,
    emit_curves,
    harness,
    one_home_state,
    pns_build,
    run_experiment,
)

from oracles import (
    fid,
    keyed_rng,
    one_home_state as oracle_one_home,
    pns3_state,
    pns4_state,
    state_eq4,
    state_eq5,
    state_eq6,
)


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_protocol_correctness():
    """No-attack run, N = 10^4: full key agreement, zero detection, < 5 s."""
    t0 = time.time()
    cfg = ExperimentConfig(rounds=10_000, test_bits=1_000, master_seed=1001)
    rep = run_experiment(cfg)
    u = harness.round_uniforms(1001, 0, 10_000, 6)
    cols = batch.protocol_rounds(u)
    elapsed = time.time() - t0
    assert np.all(cols["k_alice_odd"] == cols["k_bob_odd"])
    assert np.all(cols["k_alice_even"] == cols["k_bob_even"])
    assert rep.detection_freq == 0.0 and not rep.detected
    assert elapsed < 5.0
    report(1, f"10^4 no-attack rounds agree everywhere, detection 0, {elapsed:.2f} s")


def test_criterion_2_state_oracles():
    """Simulated states at steps 3, 4, 7 match the direct constructions."""
    worst = 1.0
    for r in range(50):
        boxes = {leg: [] for leg in (proto.LEG_C_TO_BOB, proto.LEG_C_TO_ALICE,
                                     proto.LEG_D_TO_BOB)}
        hooks = [proto.ChannelHook(leg, lambda s, rng, b=box: (b.append(s.copy()), s)[1])
                 for leg, box in boxes.items()]
        proto.run_round(r + 1, keyed_rng(1002, r), hooks=hooks)
        g = keyed_rng(1002, r)
        alpha, beta = 2 * np.pi * g.random(), 2 * np.pi * g.random()

        from faraday_qkd import qstate as qs
        s3 = boxes[proto.LEG_C_TO_BOB][0]
        rho = qs.reduced_density(s3, [proto.QUBIT_A, proto.QUBIT_C]).entries
        want = state_eq5(alpha)
        worst = min(worst, float((want.conj() @ rho @ want).real))

        s4 = boxes[proto.LEG_C_TO_ALICE][0]
        rho = qs.reduced_density(s4, [0, 1, 2]).entries
        want = state_eq4(alpha)
        worst = min(worst, float((want.conj() @ rho @ want).real))

        s7 = boxes[proto.LEG_D_TO_BOB][0]
        worst = min(worst, fid(s7.amplitudes, state_eq6(alpha, beta)))
    assert worst >= 1 - 1e-9
    report(2, f"steps 3/4/7 match the closed forms, worst fidelity 1 - {1 - worst:.2e}")


def test_criterion_3_detection_formula():
    """Balanced Monte Carlo matches the closed form at 10^5 rounds/point."""
    t0 = time.time()
    lines = []
    for i, c in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
        spec = GeneralAttackSpec(EquatorAngle(0.7), c, c)
        disc = EveDiscriminator(spec)
        u = harness.round_uniforms(1003 + i, 0, 100_000, 8)
        cols = batch.protocol_rounds(u, {"kind": "general", "gamma": 0.7,
                                         "cx": c, "cy": c, "povm_up": disc.m_up})
        pd = float(np.mean(cols["k_alice_odd"] != cols["k_bob_odd"]))
        want = analysis.detection_probability(c, c)
        sigma = np.sqrt(max(want * (1 - want), 1e-9) / 100_000)
        assert abs(pd - want) < max(3 * sigma, 1e-4), (c, pd, want)
        lines.append(f"c={c}: {pd:.4f}~{want:.4f}")
    u = harness.round_uniforms(1013, 0, 100_000, 10)
    cols = batch.protocol_rounds(u, {"kind": "intercept", "gamma": 0.3})
    pd = float(np.mean(cols["k_alice_odd"] != cols["k_bob_odd"]))
    assert abs(pd - 0.375) < 0.01
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(3, f"{'; '.join(lines)}; intercept {pd:.4f}; {elapsed:.0f} s")


def test_criterion_4_headline_numbers():
    """Solver outputs match the quoted six-figure values."""
    thr = analysis.find_security_threshold()
    opt = analysis.find_eve_optimum()
    bound = analysis.collective_bound()
    assert abs(thr - 0.266188) < 1e-5
    assert abs(opt - 0.345) < 0.005
    assert abs(bound - 0.110028) < 1e-5
    assert thr > 0.18 and thr > 0.15
    report(4, f"threshold {thr:.6f}, optimum {opt:.6f}, collective bound {bound:.6f}")


def test_criterion_5_curve_reproduction(tmp_path):
    """Emitted information curves satisfy the endpoint and sum conditions."""
    cols = emit_curves(0.001, str(tmp_path / "curves.csv"))
    assert cols["i_ab"][0] == 1.0 and cols["i_ae"][0] == 0.0
    h_quarter = 0.8112781244591328
    assert abs(cols["i_ae"][-1] - (1 - h_quarter)) < 1e-9
    assert np.all(cols["sum"] <= 1.0 + 1e-12)
    assert np.all(cols["sum"][1:] < 1.0)
    report(5, f"I_AB(0)=1, I_AE(0)=0, I_AE(3/8)={cols['i_ae'][-1]:.6f}, sum<=1 on the grid")


def test_criterion_6_subspace_structure():
    """Cross-block orthogonality (balanced draws) and the normalized-overlap
    floor (independent draws) across 100 random parameter sets each."""
    rng = np.random.default_rng(1006)
    worst_orth = 0.0
    for _ in range(100):
        at, bt = rng.uniform(0, 2 * np.pi, 2)
        c = rng.uniform(0, 1)
        dec = build_subspace_decomposition(at, bt, GeneralAttackSpec(EquatorAngle(0), c, c))
        for primed in (False, True):
            for i, j in ((1, 4), (1, 5), (1, 6), (4, 1), (4, 2), (4, 3)):
                worst_orth = max(worst_orth, abs(dec.overlap(i, j, primed=primed)))
    assert worst_orth < 1e-10
    worst_margin = 1.0
    for _ in range(100):
        at = rng.uniform(0, 2 * np.pi)
        cx, cy = rng.uniform(0, 1, 2)
        dec = build_subspace_decomposition(at, at, GeneralAttackSpec(EquatorAngle(0), cx, cy))
        floor = min(cx, cy)
        for i, j in ((2, 5), (3, 6), (2, 6), (3, 5)):
            worst_margin = min(worst_margin, dec.normalized_overlap(i, j).real - floor)
    assert worst_margin > -1e-10
    report(6, f"orthogonality to {worst_orth:.1e}; overlap floor margin {worst_margin:+.3f}")


def test_criterion_7_eve_information_bound():
    """Simulated I(A,E) <= analytic I(A,E) + 0.01 at matched p_d.

    This is asserted exactly as specified and FAILS: the two-stage strategy's
    first stage yields certainty outcomes, so the simulated eavesdropper
    extracts far more information about the home bits than the analytic
    worst-case curve concedes (at overlap 0.2 her ancilla pairs are nearly
    orthogonal, giving ~0.98 accuracy against the curve's 0.75).  The
    analytic curve is not an upper envelope of this simulation.
    """
    failures = []
    for i, c in enumerate((0.2, 0.5, 0.8)):
        spec = GeneralAttackSpec(EquatorAngle(0.5), c, c)
        disc = EveDiscriminator(spec)
        u = harness.round_uniforms(1007 + i, 0, 10_000, 8)
        cols = batch.protocol_rounds(u, {"kind": "general", "gamma": 0.5,
                                         "cx": c, "cy": c, "povm_up": disc.m_up})
        table = np.zeros((2, 2))
        for a in (0, 1):
            for e in (0, 1):
                table[a, e] = np.sum((cols["k_alice_even"] == a)
                                     & (cols["eve_guess_alice"] == e))
        i_emp = analysis.empirical_mutual_information(table)
        i_bound = analysis.mutual_info_ae(analysis.detection_probability(c, c))
        if i_emp > i_bound + 0.01:
            failures.append(f"c={c}: empirical {i_emp:.3f} > analytic {i_bound:.3f} + 0.01")
    assert not failures, ("the simulated strategy exceeds the analytic curve, "
                          "which is not an upper envelope of this simulation: "
                          + "; ".join(failures))
    report(7, "empirical I(A,E) within the analytic envelope")


def test_criterion_8_impersonation():
    """Both impersonation variants detected at 1/2 per compared bit, Eve
    holding Alice's odd key; the one-home register matches its direct
    construction."""
    det = {}
    for kind, seed in (("impersonate:two", 1008), ("impersonate:one", 1009)):
        u = harness.round_uniforms(seed, 0, 100_000, batch.SCENARIOS[kind].draws)
        cols = batch.protocol_rounds(u, {"kind": kind})
        det[kind] = np.mean(cols["k_alice_odd"] != cols["k_bob_odd"])
        assert abs(det[kind] - 0.5) < 0.01
        assert np.all(cols["eve_guess_alice"] == cols["k_alice_odd"])
    rng = np.random.default_rng(1010)
    worst = 1.0
    for _ in range(10):
        a, b, e = rng.uniform(0, 2 * np.pi, 3)
        worst = min(worst, fid(one_home_state(a, b, e).amplitudes,
                               oracle_one_home(a, b, e)))
    assert worst >= 1 - 1e-9
    report(8, f"two-home {det['impersonate:two']:.4f}, one-home {det['impersonate:one']:.4f}, "
              f"state fidelity 1 - {1 - worst:.1e}")


def test_criterion_9_pns_insecurity():
    """Photon splitting reads the key perfectly, invisibly, with orthogonal
    conditional states; the closed-form state cross-checks hold."""
    msgs = []
    for kind, seed in (("pns:3", 1011), ("pns:4home", 1012)):
        u = harness.round_uniforms(seed, 0, 10_000, batch.SCENARIOS[kind].draws)
        cols = batch.protocol_rounds(u, {"kind": kind})
        assert np.all(cols["eve_guess_alice"] == cols["k_alice_odd"])
        assert np.all(cols["k_alice_odd"] == cols["k_bob_odd"])
        t_min = np.min(cols["trace_dist"])
        assert abs(t_min - 1.0) < 1e-9
        msgs.append(f"{kind}: acc 1.0, det 0, T {t_min:.12f}")
    rng = np.random.default_rng(1013)
    worst = 1.0
    for _ in range(10):
        a, b = rng.uniform(0, 2 * np.pi, 2)
        worst = min(worst, fid(pns_build("three-photon", a, b).state.amplitudes,
                               pns3_state(a, b)))
        worst = min(worst, fid(pns_build("four-home-qubit", a, b).state.amplitudes,
                               pns4_state(a, b)))
    assert worst >= 1 - 1e-9
    report(9, "; ".join(msgs) + f"; state fidelity 1 - {1 - worst:.1e}")


def test_criterion_10_determinism(tmp_path):
    """Identical seed with 1 and 8 workers produces byte-identical CSV."""
    blobs = []
    for workers, name in ((1, "w1.csv"), (8, "w8.csv")):
        cfg = ExperimentConfig(rounds=20_000, test_bits=500, master_seed=1014,
                               attack=AttackChoice("intercept", gamma=0.6),
                               output_path=str(tmp_path / name), workers=workers)
        run_experiment(cfg)
        blobs.append(open(tmp_path / name, "rb").read())
    assert blobs[0] == blobs[1]
    report(10, f"1 vs 8 workers: byte-identical CSV ({len(blobs[0])} bytes)")
