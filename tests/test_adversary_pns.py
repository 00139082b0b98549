"""Photon-number-splitting attacks: state construction, collapsed branches,
Bell-pairing structure, and what Eve's stolen photons reveal, measured by
``batch.protocol_rounds`` on the per-round Philox streams."""
import numpy as np
import pytest

from faraday_qkd import batch, harness, pns_build
from faraday_qkd import qstate as qs

from oracles import UP, DN, eq_ket, fid, kron_le, pns3_state, pns4_state


def rng_of(seed):
    return np.random.default_rng(seed)


class TestStateConstruction:
    def test_three_photon_matches_direct_build(self):
        rng = rng_of(1)
        for _ in range(20):
            a, b = rng.uniform(0, 2 * np.pi, 2)
            sc = pns_build("three-photon", a, b)
            assert abs(sc.state.norm() - 1.0) < 1e-10
            assert fid(sc.state.amplitudes, pns3_state(a, b)) >= 1 - 1e-9

    def test_four_home_matches_direct_build(self):
        rng = rng_of(2)
        for _ in range(20):
            a, b = rng.uniform(0, 2 * np.pi, 2)
            sc = pns_build("four-home-qubit", a, b)
            assert abs(sc.state.norm() - 1.0) < 1e-10
            assert fid(sc.state.amplitudes, pns4_state(a, b)) >= 1 - 1e-9

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            pns_build("five-photon", 0.1, 0.2)

    def test_layout_documented(self):
        sc = pns_build("three-photon", 0.5, 1.5)
        assert "E1" in sc.layout and sc.state.num_qubits == 8


def _sector_projected(state, q_c, q_d, alpha, beta, c_bit, d_bit):
    """Project C and D onto their measurement-basis kets and renormalize."""
    v = qs.basis_rotation(alpha).conj().T
    w = qs.basis_rotation(beta).conj().T
    rotated = qs.apply_1q_unitary(qs.apply_1q_unitary(state, q_c, v), q_d, w)
    n = rotated.num_qubits
    a = rotated.amplitudes.reshape([2] * n)
    idx = [slice(None)] * n
    idx[n - 1 - q_c] = c_bit
    idx[n - 1 - q_d] = d_bit
    block = a[tuple(idx)].reshape(-1)
    return block / np.linalg.norm(block)


class TestCollapsedBranches:
    def test_three_photon_branch_structure(self):
        # conditioning on the step-8 outcomes leaves the two displayed
        # branches: matched key bits, E2/E2' pinned to the same sector
        a, b = 1.234, 4.567
        sc = pns_build("three-photon", a, b)
        for bit, e2_ang, e2p_ang in ((0, a, b), (1, a + np.pi, b + np.pi)):
            block = _sector_projected(sc.state, 2, 3, a, b, bit, bit)
            # remaining register order: A, B, E1, E2, E1', E2';
            # E2 must sit exactly at e2_ang and E2' at e2p_ang
            sv = qs.StateVector(6, block)
            for q, ang in ((3, e2_ang), (5, e2p_ang)):
                rho = qs.reduced_density(sv, [q])
                ket = eq_ket(ang)
                overlap = ket.conj() @ rho.entries @ ket
                assert overlap.real == pytest.approx(1.0, abs=1e-10)
            # home register stays in the matching parity subspace
            rho_ab = qs.reduced_density(sv, [0, 1])
            pops = np.real(np.diag(rho_ab.entries))
            if bit == 0:  # key 1: anti-aligned homes (indices 1 = du, 2 = ud)
                assert pops[1] + pops[2] == pytest.approx(1.0, abs=1e-10)
            else:         # key 0: aligned homes
                assert pops[0] + pops[3] == pytest.approx(1.0, abs=1e-10)

    def test_opposite_sectors_are_empty(self):
        a, b = 0.7, 2.9
        sc = pns_build("three-photon", a, b)
        v = qs.basis_rotation(a).conj().T
        w = qs.basis_rotation(b).conj().T
        rotated = qs.apply_1q_unitary(qs.apply_1q_unitary(sc.state, 2, v), 3, w)
        arr = rotated.amplitudes.reshape([2] * 8)
        # axes: (E2', E1', E2, E1, D, C, B, A); mixed sectors carry no weight
        p_mixed = np.sum(np.abs(arr[:, :, :, :, 0, 1]) ** 2
                         + np.abs(arr[:, :, :, :, 1, 0]) ** 2)
        assert p_mixed < 1e-20


class TestBellPairingStructure:
    def test_four_home_bell_types_track_the_key(self):
        # in the Bell-basis expansion, matched Bell types on Eve's two
        # pairs accompany the key-1 sector and mixed types the key-0 sector
        a, b = 2.13, 0.64
        sc = pns_build("four-home-qubit", a, b)

        def bell_basis(phi):
            k0, k1 = eq_ket(phi), eq_ket(phi + np.pi)
            phi_p = (kron_le([k0, k0]) + kron_le([k1, k1])) / np.sqrt(2)
            phi_m = (kron_le([k0, k0]) - kron_le([k1, k1])) / np.sqrt(2)
            psi_p = (kron_le([k0, k1]) + kron_le([k1, k0])) / np.sqrt(2)
            psi_m = (kron_le([k0, k1]) - kron_le([k1, k0])) / np.sqrt(2)
            return {"phi+": phi_p, "phi-": phi_m, "psi+": psi_p, "psi-": psi_m}

        for c_bit, want_same in ((0, True), (1, False)):
            block = _sector_projected(sc.state, 4, 5, a, b, c_bit, c_bit)
            sv = qs.StateVector(8, block)   # A1 A2 B1 B2 E1 E2 E1' E2'
            bell_a = bell_basis(a)
            bell_b = bell_basis(b)
            for na, va in bell_a.items():
                for nb, vb in bell_b.items():
                    # project Eve's (E1,E2) onto va and (E1',E2') onto vb
                    arr = sv.amplitudes.reshape(4, 4, 16)  # axes (primed pair, pair, homes)
                    amp = np.einsum("p,u,puh->h", vb.conj(), va.conj(), arr)
                    weight = float(np.sum(np.abs(amp) ** 2))
                    same_type = na[:3] == nb[:3]
                    if same_type != want_same:
                        assert weight < 1e-20
            # and the total over the allowed combinations is 1
            total = 0.0
            for na, va in bell_a.items():
                for nb, vb in bell_b.items():
                    if (na[:3] == nb[:3]) == want_same:
                        arr = sv.amplitudes.reshape(4, 4, 16)
                        amp = np.einsum("p,u,puh->h", vb.conj(), va.conj(), arr)
                        total += float(np.sum(np.abs(amp) ** 2))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestLeakage:
    @pytest.mark.parametrize("variant", ["three-photon", "four-home-qubit"])
    def test_undetectable_and_fully_readable(self, variant):
        kind = batch.PNS_KINDS[variant]
        u = harness.round_uniforms(11, 0, 2_000, batch.SCENARIOS[kind].draws)
        cols = batch.protocol_rounds(u, {"kind": kind})
        assert np.all(cols["eve_guess_alice"] == cols["k_alice_odd"])
        assert np.all(cols["k_alice_odd"] == cols["k_bob_odd"])
        assert np.min(cols["trace_dist"]) == pytest.approx(1.0, abs=1e-9)
        assert np.mean(cols["trace_dist"]) == pytest.approx(1.0, abs=1e-9)
