from dataclasses import replace

import numpy as np
import pytest

import bmradar as b
from bmradar import extender
from conftest import build_waveform, clean_cube, make_tiny_scenario


def project_manifold(blockers, h, tx_count, rx_count, fast_time_bins):
    """Apply the stacked per-antenna complement projectors to a manifold."""
    h4 = h.reshape(tx_count, rx_count, fast_time_bins)
    return np.stack(
        [blockers.project(m, h4[m]) for m in range(tx_count)]
    ).reshape(-1)


def raw_blocker(codes, estimates, system, m):
    """Antenna m's blocking matrix: every estimate's transformation-matrix
    columns of the other antennas."""
    others = [mm for mm in range(codes.tx_count) if mm != m]
    return np.concatenate([b.transformation_matrix(codes, d, f, system)[:, others]
                           for d, f in estimates], axis=1)


class TestBuildBlockers:
    def test_single_tx_antenna_projector_is_identity(self):
        s = make_tiny_scenario()
        from dataclasses import replace
        system = replace(s.system, tx_count=1)
        codes = b.extend_codes(b.generate_pn_codes(1, 7, "mseq", seed=0), 14)
        blockers = b.build_blockers(codes, [(3, 100.0)], system)
        assert blockers.bases[0].shape == (14, 0)
        rng = np.random.default_rng(0)
        v = rng.normal(size=(4, 14)) + 1j * rng.normal(size=(4, 14))
        assert np.array_equal(blockers.project(0, v), v)

    def test_projector_nulls_own_columns(self, tiny_scenario):
        codes, _ = build_waveform(tiny_scenario)
        blockers = b.build_blockers(codes, [(0, 0.0)], tiny_scenario.system)
        for m in range(2):
            bm = raw_blocker(codes, [(0, 0.0)], tiny_scenario.system, m)
            assert np.max(np.abs(blockers.project(m, bm.T))) < 1e-10

    def test_paper_default_rank(self, paper_scenario):
        codes, _ = build_waveform(paper_scenario)
        estimates = [(152, -429.37), (189, 150.84), (228, 475.94)]
        blockers = b.build_blockers(codes, estimates, paper_scenario.system)
        for m in range(5):
            # numerical rank via singular values, threshold 1e-8 * largest
            raw = raw_blocker(codes, estimates, paper_scenario.system, m)
            svals = np.linalg.svd(raw, compute_uv=False)
            assert np.sum(svals > 1e-8 * svals[0]) == 3 * 4
            assert blockers.bases[m].shape == (524, 12)

    @pytest.mark.parametrize("tx_count", [1, 2, 5])
    def test_equals_the_per_target_construction(self, paper_scenario, tx_count):
        # blocker m: every estimate's delayed codes of the other antennas,
        # each with that estimate's Doppler phase, at the edge delays too
        system = paper_scenario.system
        L, nc = system.fast_time_bins, system.code_length
        system = replace(system, tx_count=tx_count)
        codes = b.extend_codes(b.generate_pn_codes(tx_count, nc, "mseq", seed=3), L)
        estimates = [(0, -431.5), (L - nc, 212.25), (150, 0.0)]
        got = b.build_blockers(codes, estimates, system)
        for m in range(tx_count):
            others = [mm for mm in range(tx_count) if mm != m]
            blocks = []
            for d, f in estimates:
                shifted = np.zeros((L, len(others)), dtype=complex)
                shifted[d:d + nc] = codes.chips[:, others]
                blocks.append(shifted * b.doppler_phase_vector(f, system)[:, None])
            want = np.concatenate(blocks, axis=1)
            assert got.bases[m].tobytes() == extender._orthonormal_basis(want).tobytes()

    @pytest.mark.parametrize("past_the_edge", [False, True])
    def test_out_of_range_delay_rejected_before_any_svd(self, paper_scenario,
                                                         past_the_edge, monkeypatch):
        codes, _ = build_waveform(paper_scenario)
        system = paper_scenario.system
        delay = system.fast_time_bins - codes.code_length + 1 if past_the_edge else -1
        svds = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a))
        with pytest.raises(ValueError, match="range-ambiguous"):
            b.build_blockers(codes, [(152, -429.37), (delay, 150.84)],
                             paper_scenario.system)
        assert svds == []

    def test_empty_estimates_rejected(self, paper_scenario):
        codes, _ = build_waveform(paper_scenario)
        with pytest.raises(ValueError, match="non-empty"):
            b.build_blockers(codes, [], paper_scenario.system)

    def test_projector_idempotent_and_hermitian(self, paper_scenario):
        codes, _ = build_waveform(paper_scenario)
        blockers = b.build_blockers(codes, [(152, -429.37), (228, 475.94)],
                                    paper_scenario.system)
        rng = np.random.default_rng(2)
        for m in range(5):
            u = rng.normal(size=524) + 1j * rng.normal(size=524)
            v = rng.normal(size=524) + 1j * rng.normal(size=524)
            pv = blockers.project(m, v)
            ppv = blockers.project(m, pv)
            assert np.linalg.norm(ppv - pv) <= 1e-10 * np.linalg.norm(v)
            # Hermitian: <u, P v> == <P u, v>
            pu = blockers.project(m, u)
            assert np.vdot(u, pv) == pytest.approx(np.vdot(pu, v), abs=1e-10)

    def test_nulls_other_antennas_delayed_codes(self, paper_scenario):
        codes, _ = build_waveform(paper_scenario)
        estimates = [(152, -429.37), (189, 150.84)]
        blockers = b.build_blockers(codes, estimates, paper_scenario.system)
        system = paper_scenario.system
        for d_hat, f_hat in estimates:
            phase = b.doppler_phase_vector(f_hat, system)
            for m in range(5):
                for m_other in range(5):
                    if m_other == m:
                        continue
                    sig = np.zeros(524, dtype=complex)
                    sig[d_hat:d_hat + 15] = codes.chips[:, m_other]
                    sig = sig * phase
                    res = blockers.project(m, sig)
                    assert np.linalg.norm(res) < 1e-8 * np.linalg.norm(sig)


class TestApplyVirtualExtension:
    def test_zero_cube_gives_zeros(self, tiny_scenario):
        cube, codes, _, _ = clean_cube(tiny_scenario)
        from dataclasses import replace as dreplace
        zero = dreplace(cube, samples=np.zeros_like(cube.samples))
        blockers = b.build_blockers(codes, [(5, 0.0)], tiny_scenario.system)
        virtual = b.apply_virtual_extension(zero, blockers)
        assert np.all(virtual.matrix == 0.0)
        assert virtual.matrix.shape == (2 * 2 * 14, 16)

    def test_view_gram_and_combinations_match_the_matrix(self):
        s = make_tiny_scenario(snr_db=10.0, scr_db=float("inf"))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(3))
        blockers = b.build_blockers(codes, [(5, 800.0), (1, -300.0)], s.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        matrix = virtual.matrix
        assert virtual.shape == matrix.shape == (2 * 2 * 14, 16)
        gram = matrix.conj().T @ matrix
        assert np.allclose(virtual.gram(), gram, rtol=0, atol=1e-13 * np.abs(gram).max())
        rng = np.random.default_rng(4)
        coeffs = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        want = matrix @ coeffs
        assert np.allclose(virtual.combine(coeffs), want, rtol=0,
                           atol=1e-13 * np.abs(want).max())

    def test_noiseless_collinearity_with_projected_manifold(self, paper_scenario):
        """Central oracle: every clean single-target virtual snapshot is
        collinear with the projected combined manifold at truth."""
        from dataclasses import replace as dreplace
        s = dreplace(
            paper_scenario.with_system(snr_db=float("inf"), scr_db=float("inf")),
            targets=paper_scenario.targets[:1],
        )
        cube, codes, _, _ = clean_cube(s)
        truth = cube.truth[0]
        blockers = b.build_blockers(codes, [(truth.delay_bins, truth.doppler_hz)],
                                    s.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        h = b.extended_manifold(truth.doa_deg, truth.dod_deg, truth.delay_bins,
                                truth.doppler_hz, s, codes)
        ph = project_manifold(blockers, h, 5, 5, 524)
        ph_norm = np.linalg.norm(ph)
        for n in range(0, 256, 17):
            v = virtual.matrix[:, n]
            cosang = abs(np.vdot(ph, v)) / (ph_norm * np.linalg.norm(v))
            assert cosang > 1 - 1e-8

    def test_two_target_span(self):
        s = make_tiny_scenario(targets=(
            b.TargetSpec(2, 3, 120.0, 60.0, 40.0, velocity_mps=100.0),
            b.TargetSpec(2, 4, 80.0, 30.0, 70.0, velocity_mps=-50.0),
        ))
        cube, codes, _, _ = clean_cube(s)
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        blockers = b.build_blockers(codes, estimates, s.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        basis_vecs = []
        for t in cube.truth:
            h = b.extended_manifold(t.doa_deg, t.dod_deg, t.delay_bins,
                                    t.doppler_hz, s, codes)
            basis_vecs.append(project_manifold(blockers, h, 2, 2, 14))
        q, _ = np.linalg.qr(np.stack(basis_vecs, axis=1))
        for n in range(virtual.snapshot_count):
            v = virtual.matrix[:, n]
            resid = v - q @ (q.conj().T @ v)
            assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(v)

    def test_energy_never_amplified(self, tiny_scenario):
        cube, codes, _, _ = clean_cube(tiny_scenario)
        blockers = b.build_blockers(codes, [(5, 800.0)], tiny_scenario.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        n_bar = tiny_scenario.system.tx_count
        for n in range(cube.samples.shape[0]):
            x_st = cube.samples[n].T.reshape(-1)
            bound = np.sqrt(n_bar) * np.linalg.norm(x_st)
            assert np.linalg.norm(virtual.matrix[:, n]) <= bound + 1e-12
