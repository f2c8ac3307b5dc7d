import itertools
import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmradar as b
from bmradar import estimation as est
from bmradar import harness
from bmradar.harness import _trial_seed
from conftest import build_waveform, clean_cube, make_tiny_scenario


def noiseless_single_target(paper_scenario):
    s = replace(
        paper_scenario.with_system(snr_db=float("inf"), scr_db=float("inf")),
        targets=paper_scenario.targets[:1],
    )
    return clean_cube(s) + (s,)


def _greedy_peaks_2d(surface, delays, radius, k):
    """Brute-force stage-1 picker: greedy over every (delay, Doppler) cell
    in stable descending order; an accepted peak suppresses every Doppler
    within radius in delay."""
    peaks = []
    for flat in np.argsort(-surface, axis=None, kind="stable"):
        i, j = np.unravel_index(flat, surface.shape)
        if any(abs(delays[i] - delays[pi]) <= radius for pi, _ in peaks):
            continue
        peaks.append((int(i), int(j)))
        if len(peaks) == k:
            break
    return peaks


@st.composite
def stage1_surfaces(draw):
    """Small xi1-like surfaces: integer values (many ties) and +inf hits,
    on a random sorted delay axis."""
    n_d = draw(st.integers(min_value=1, max_value=8))
    n_f = draw(st.integers(min_value=1, max_value=5))
    cells = st.one_of(st.integers(min_value=0, max_value=3).map(float), st.just(math.inf))
    values = draw(st.lists(cells, min_size=n_d * n_f, max_size=n_d * n_f))
    delays = sorted(draw(st.lists(st.integers(min_value=0, max_value=30),
                                  min_size=n_d, max_size=n_d, unique=True)))
    return (np.array(values).reshape(n_d, n_f), np.array(delays),
            draw(st.integers(min_value=0, max_value=6)),
            draw(st.integers(min_value=1, max_value=4)))


class TestGridSpec:
    @pytest.mark.parametrize("name", ["angle_step_deg", "angle_refine_step_deg"])
    @pytest.mark.parametrize("step", [0.0, -0.5, math.nan, math.inf, -math.inf])
    def test_bad_angle_step_names_the_field(self, name, step):
        with pytest.raises(ValueError, match=rf"^{name}: must be finite and > 0"):
            est.GridSpec(**{name: step})

    @pytest.mark.parametrize("name", ["angle_step_deg", "angle_refine_step_deg"])
    @pytest.mark.parametrize("step", [1e-300, 1e-15])
    def test_step_too_fine_for_the_angle_axis_names_the_field(self, name, step):
        # 180 + step rounds back to 180: np.arange could not advance
        with pytest.raises(ValueError, match=rf"^{name}: .* too fine"):
            est.GridSpec(**{name: step})

    def test_finest_resolvable_step_is_accepted(self):
        step = np.spacing(180.0)
        assert est.GridSpec(angle_refine_step_deg=step).angle_refine_step_deg == step

    @pytest.mark.parametrize("name", ["range_bins", "doppler_hz"])
    def test_empty_axis_names_the_field(self, name):
        with pytest.raises(ValueError, match=rf"^{name}: grid axis is empty"):
            est.GridSpec(**{name: np.array([])})


class TestTemporalCovariance:
    def test_zero_cube(self, tiny_scenario):
        cube, *_ = clean_cube(tiny_scenario)
        zero = replace(cube, samples=np.zeros_like(cube.samples))
        assert np.all(est.temporal_covariance(zero) == 0.0)

    def test_noiseless_single_target_rank_one(self, paper_scenario):
        cube, *_ , s = noiseless_single_target(paper_scenario)
        cov = est.temporal_covariance(cube)
        vals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert vals[1] < 1e-10 * vals[0]

    def test_hermitian_and_trace(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(0))
        cov = est.temporal_covariance(cube)
        assert np.max(np.abs(cov - cov.conj().T)) < 1e-12 * np.abs(cov).max()
        mean_power = np.mean(np.abs(cube.samples) ** 2)
        assert np.trace(cov).real == pytest.approx(mean_power * 524, rel=1e-9)


def _complex_normal(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestHermitianGram:
    """hermitian_gram, one real syrk, against the complex product it replaces,
    at the shapes of its call sites: the fast-time snapshot rows, the
    whole-cube and the despread-gate spatial snapshots."""

    SHAPES = [(1280, 524), (134080, 5), (256, 5), (300, 1)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_the_complex_product(self, shape):
        x = _complex_normal(shape, sum(shape))
        want = x.T @ x.conj()
        got = est.hermitian_gram(x)
        assert got.shape == want.shape and got.dtype == complex
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_exactly_hermitian_with_a_real_diagonal(self, shape):
        c = est.hermitian_gram(_complex_normal(shape, sum(shape) + 1))
        assert np.array_equal(c, c.conj().T)
        assert np.all(c.diagonal().imag == 0.0)

    def test_non_contiguous_input_equals_its_contiguous_copy(self):
        wide = _complex_normal((256, 10), 3)
        for view in (wide[:, ::2], wide[::2], _complex_normal((5, 256), 4).T):
            assert not view.flags.c_contiguous
            got = est.hermitian_gram(view)
            assert got.tobytes() == est.hermitian_gram(np.ascontiguousarray(view)).tobytes()

    def test_covariances_use_it(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols, np.random.default_rng(2))
        n_s, L, n_rx = cube.samples.shape
        rows = cube.samples.transpose(0, 2, 1).reshape(n_s * n_rx, L)
        assert est.temporal_covariance(cube).tobytes() == \
            (est.hermitian_gram(rows) / (n_s * n_rx)).tobytes()
        flat = cube.samples.reshape(n_s * L, n_rx)
        assert b.baseline.spatial_covariance(cube).tobytes() == \
            (est.hermitian_gram(flat) / (n_s * L)).tobytes()


def _psd_with_spectrum(vals, seed=0):
    """Hermitian PSD matrix with eigenvalues vals in a seeded random basis."""
    rng = np.random.default_rng(seed)
    n = len(vals)
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    cov = (q * np.asarray(vals, dtype=float)) @ q.conj().T
    return (cov + cov.conj().T) / 2


def _gapped_spectrum(n, p, gap):
    """p signal eigenvalues over a 1.0 .. 0.1 tail with lambda_p / lambda_p+1
    equal to gap."""
    return np.concatenate([gap * np.geomspace(4.0, 1.0, p) if p > 1 else [gap],
                           np.linspace(1.0, 0.1, n - p)])


def _eigh_top(cov, p):
    vals, vecs = np.linalg.eigh(cov)
    return vals[::-1], vecs[:, ::-1][:, :p]


def _projector_distance(u, v):
    return np.max(np.abs(u @ u.conj().T - v @ v.conj().T))


class TestSubspaceSplit:
    def test_rank_one_recovers_direction(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        v /= np.linalg.norm(v)
        basis = est.subspace_split(np.outer(v, v.conj()), 1)
        assert abs(np.vdot(basis.basis[:, 0], v)) == pytest.approx(1.0, abs=1e-10)

    def test_identity_covariance_isotropic_projection(self):
        dim = 64
        basis = est.subspace_split(np.eye(dim, dtype=complex), 1)
        rng = np.random.default_rng(1)
        ratios = []
        for _ in range(2000):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            residual = v - basis.basis @ (basis.basis.conj().T @ v)
            ratios.append(np.linalg.norm(residual) ** 2 / np.linalg.norm(v) ** 2)
        assert np.mean(ratios) == pytest.approx(1 - 1 / dim, abs=0.01)

    def test_signal_dim_bounds(self):
        cov = _psd_with_spectrum([4.0, 3.0, 2.0, 1.0], seed=7)
        with pytest.raises(ValueError):
            est.subspace_split(cov, 5)
        with pytest.raises(ValueError):
            est.subspace_split(cov, 0)
        # signal_dim == ambient: one exact Rayleigh-Ritz solve
        got = est.subspace_split(cov, 4)
        vals, vecs = _eigh_top(cov, 4)
        assert got.converged and got.restarts == 1
        assert np.allclose(got.eigenvalues, vals, rtol=1e-13)
        assert np.allclose(np.abs(got.basis.conj().T @ vecs), np.eye(4), atol=1e-12)

    def test_three_clean_targets_rank(self, paper_scenario):
        s = paper_scenario.with_system(snr_db=float("inf"), scr_db=float("inf"))
        cube, *_ = clean_cube(s)
        cov = est.temporal_covariance(cube)
        basis = est.subspace_split(cov, 3)
        vals = basis.eigenvalues
        assert vals[3] < 1e-8 * vals[0]

    @pytest.mark.parametrize("case", ["tiny", "paper_0db", "paper_clutter"])
    def test_stage2_basis_matches_the_snapshot_svd(self, case, paper_scenario):
        # the stage-2 basis spans the top right singular vectors of the
        # materialised virtual-snapshot matrix, and its eigenvalues are
        # their squared singular values over the PRI count
        if case == "tiny":
            s = make_tiny_scenario(snr_db=20.0, scr_db=float("inf"))
        elif case == "paper_0db":
            s = paper_scenario.with_system(snr_db=0.0, scr_db=float("inf"))
        else:
            s = paper_scenario  # 20 dB SNR, -5 dB SCR
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(26))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        blockers = b.build_blockers(codes, estimates, s.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        _, sv, vh = np.linalg.svd(virtual.matrix, full_matrices=False)
        for dim in (1, 3, 12):
            ctx = b.prepare_xi2_context(virtual, blockers, estimates, codes, s,
                                        signal_dim=dim)
            v = ctx.basis.basis
            ref = vh[:dim].conj().T
            # ||P_v - P_ref||_2 = ||v - ref ref^H v||_2 for equal ranks
            assert np.linalg.norm(v - ref @ (ref.conj().T @ v), 2) < 1e-9
            assert np.allclose(ctx.basis.eigenvalues[:dim],
                               sv[:dim] ** 2 / virtual.shape[1], rtol=1e-12)

    def test_orthonormal_columns(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(1))
        basis = est.subspace_split(est.temporal_covariance(cube), 3)
        gram = basis.basis.conj().T @ basis.basis
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10

    # the block Krylov solver against numpy's full eigh as the reference

    @pytest.mark.parametrize("gap", [1.02, 2.0, 100.0])
    def test_matches_eigh_at_every_gap(self, gap):
        cov = _psd_with_spectrum(_gapped_spectrum(200, 3, gap), seed=1)
        got = est.subspace_split(cov, 3)
        vals, vecs = _eigh_top(cov, 3)
        assert got.converged and got.residual <= 1e-13
        assert got.eigenvalues.shape == (6,)
        assert np.allclose(got.eigenvalues[:3], vals[:3], rtol=1e-12)
        # the Ritz values interlace: never above the true eigenvalues
        assert np.all(got.eigenvalues <= vals[:6] * (1 + 1e-12))
        # residual 1e-13 * theta_1 over an absolute gap >= 0.02
        assert _projector_distance(got.basis, vecs) < 1e-9

    @pytest.mark.parametrize("signal_dim", range(1, 13))
    def test_matches_eigh_at_every_signal_dim(self, signal_dim):
        cov = _psd_with_spectrum(_gapped_spectrum(120, signal_dim, 2.0), seed=signal_dim)
        got = est.subspace_split(cov, signal_dim)
        vals, vecs = _eigh_top(cov, signal_dim)
        assert got.converged
        assert got.basis.shape == (120, signal_dim)
        assert got.eigenvalues.shape == (2 * signal_dim,)
        assert np.allclose(got.eigenvalues[:signal_dim], vals[:signal_dim], rtol=1e-12)
        assert _projector_distance(got.basis, vecs) < 1e-10
        gram = got.basis.conj().T @ got.basis
        assert np.max(np.abs(gram - np.eye(signal_dim))) < 1e-12

    def test_identity_is_solved_at_once(self):
        got = est.subspace_split(np.eye(64, dtype=complex), 3)
        assert got.converged and got.restarts == 1
        assert np.allclose(got.eigenvalues, 1.0, atol=1e-14)
        gram = got.basis.conj().T @ got.basis
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    @pytest.mark.parametrize("signal_dim", [1, 2, 4, 6])
    def test_rank_deficient_matrix(self, signal_dim):
        # rank 4: the Krylov blocks break down into rounding noise, and
        # a signal_dim above the rank must still span the whole range
        rng = np.random.default_rng(3)
        x = rng.normal(size=(90, 4)) + 1j * rng.normal(size=(90, 4))
        cov = x @ np.diag([8.0, 4.0, 2.0, 1.0]) @ x.conj().T / 90
        got = est.subspace_split(cov, signal_dim)
        top = min(signal_dim, 4)
        vals, vecs = _eigh_top(cov, top)
        assert got.converged
        assert np.allclose(got.eigenvalues[:top], vals[:top], rtol=1e-12)
        assert np.all(got.eigenvalues[4:] <= 1e-12 * vals[0])
        overlap = got.basis.conj().T @ vecs
        assert np.allclose(np.linalg.svd(overlap, compute_uv=False), 1.0, atol=1e-10)
        gram = got.basis.conj().T @ got.basis
        assert np.max(np.abs(gram - np.eye(signal_dim))) < 1e-12

    @pytest.mark.parametrize("signal_dim", [1, 2, 3, 4])
    def test_ambient_at_or_below_the_block_width(self, signal_dim):
        # 5 x 5, as the baseline's spatial covariances: the Krylov space
        # spans the whole matrix and Rayleigh-Ritz is an exact eigensolve
        cov = _psd_with_spectrum([5.0, 3.0, 2.0, 1.0, 0.5], seed=4)
        got = est.subspace_split(cov, signal_dim)
        vals, vecs = _eigh_top(cov, signal_dim)
        assert got.converged and got.restarts == 1
        assert np.allclose(got.eigenvalues, vals[:len(got.eigenvalues)], rtol=1e-13)
        assert _projector_distance(got.basis, vecs) < 1e-13

    def test_repeat_calls_are_bit_equal_and_ignore_the_global_state(self):
        cov = _psd_with_spectrum(_gapped_spectrum(150, 3, 1.5), seed=5)
        np.random.seed(0)
        first = est.subspace_split(cov, 3)
        np.random.seed(1)
        np.random.random(1000)
        second = est.subspace_split(cov, 3)
        assert first.basis.tobytes() == second.basis.tobytes()
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert (first.restarts, first.residual) == (second.restarts, second.residual)

    def test_noise_only_covariance(self, paper_scenario):
        # no gap at lambda_3 / lambda_4, yet the top-3 pairs converge
        # (19 restarts on this cube), as eigh's
        s = replace(paper_scenario, targets=()).with_system(snr_db=0.0, scr_db=float("inf"))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(0))
        cov = est.temporal_covariance(cube)
        got = est.subspace_split(cov, 3)
        vals, vecs = _eigh_top(cov, 3)
        assert vals[2] / vals[3] < 1.05
        assert got.converged and 1 < got.restarts < est._KRYLOV_MAX_RESTARTS
        assert np.allclose(got.eigenvalues[:3], vals[:3], rtol=1e-12)
        assert _projector_distance(got.basis, vecs) < 1e-9

    def test_near_degenerate_cluster_ends_at_the_cap(self):
        # twenty eigenvalues 1e-8 apart: the Ritz pairs cannot separate to
        # the tolerance, so the solve stops at the cap, reports it and
        # returns the same orthonormal basis every time
        cov = _psd_with_spectrum(np.concatenate([1.0 - 1e-8 * np.arange(20),
                                                 np.linspace(0.5, 0.0, 100)]), seed=6)
        first = est.subspace_split(cov, 3)
        second = est.subspace_split(cov, 3)
        assert not first.converged
        assert first.restarts == est._KRYLOV_MAX_RESTARTS
        assert first.residual > est._KRYLOV_TOL
        assert first.basis.tobytes() == second.basis.tobytes()
        assert np.allclose(first.eigenvalues[:3], 1.0, atol=1e-6)
        gram = first.basis.conj().T @ first.basis
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_stage1_delays_equal_the_eigh_basis_at_0_db(self, paper_scenario, monkeypatch):
        # the criterion-5 sweep's 0 dB CPIs, where the solver converges
        # slowest: stage 1 picks the delays that the full
        # eigendecomposition's basis picks
        scenario = paper_scenario.with_system(snr_db=0.0, scr_db=float("inf"))
        picks, covs = [], []

        def kept_covariance(cube):
            covs.append(est.temporal_covariance(cube))
            return covs[-1]

        def both_bases(codes, k, grid, system, basis):
            vals, vecs = _eigh_top(covs[-1], k)
            reference = est.SubspaceBasis(vecs, vals)
            got, want = (est.range_doppler_search(codes, k, grid, system, u)
                         for u in (basis, reference))
            picks.append((got, want))
            return got

        monkeypatch.setattr(harness, "temporal_covariance", kept_covariance)
        monkeypatch.setattr(harness, "range_doppler_search", both_bases)
        for trial in range(8):
            b.run_scenario(scenario, method="baseline", seed=_trial_seed(20260808, 0, trial))
        assert len(picks) == 8
        assert all(got == want for got, want in picks)


class TestEstimateSignalDim:
    def test_clear_gap(self):
        vals = np.array([100.0, 50.0, 20.0, 1.0, 0.9, 0.8])
        assert est.estimate_signal_dim(vals) == 3

    def test_max_dim_limits_search(self):
        vals = np.array([100.0, 50.0, 20.0, 1.0, 0.9, 1e-12])
        assert est.estimate_signal_dim(vals[:5]) == 3

    def test_on_clean_cube(self, paper_scenario):
        s = paper_scenario.with_system(snr_db=40.0, scr_db=float("inf"))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(3))
        cov = est.temporal_covariance(cube)
        vals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert est.estimate_signal_dim(vals[:11]) == 3
        ritz = est.subspace_split(cov, 12).eigenvalues
        assert est.estimate_signal_dim(ritz[:13]) == 3

    @pytest.mark.parametrize("snr_db", [0.0, 5.0, 10.0, 15.0, 20.0])
    def test_ritz_values_pick_the_full_spectrum_order(self, paper_scenario, snr_db):
        # the order run_scenario(estimate_k=True) takes from the Ritz values
        # equals the one from the whole spectrum on seeded CPIs
        for scr_db, seed in ((float("inf"), 0), (float("inf"), 1), (-5.0, 2)):
            s = paper_scenario.with_system(snr_db=snr_db, scr_db=scr_db)
            codes, symbols = build_waveform(s)
            cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(seed))
            cov = est.temporal_covariance(cube)
            full = np.sort(np.linalg.eigvalsh(cov))[::-1]
            ritz = est.subspace_split(cov, 12).eigenvalues
            assert est.estimate_signal_dim(ritz[:13]) == est.estimate_signal_dim(full[:13])


class TestXi1:
    def test_exact_hit_is_infinite_and_off_target_floor(self, paper_scenario):
        cube, codes, _, _, s = noiseless_single_target(paper_scenario)
        basis = est.subspace_split(est.temporal_covariance(cube), 1)
        t = cube.truth[0]
        at_truth = est.xi1_cost(t.delay_bins, t.doppler_hz, codes, basis, s.system)
        off = est.xi1_cost(t.delay_bins + 40, t.doppler_hz, codes, basis, s.system)
        # disjoint code support: numerator equals denominator
        assert off == pytest.approx(1.0, abs=1e-9)
        assert at_truth > off * 1e4  # far beyond the 40 dB requirement

    def test_noise_only_cost_near_unity(self, paper_scenario):
        s = replace(paper_scenario, targets=()).with_system(
            snr_db=0.0, scr_db=float("inf")
        )
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(0))
        basis = est.subspace_split(est.temporal_covariance(cube), 3)
        rng = np.random.default_rng(1)
        for _ in range(12):
            d = int(rng.integers(0, 510))
            f = float(rng.uniform(-900, 900))
            cost = est.xi1_cost(d, f, codes, basis, s.system)
            assert 0.8 < cost < 1.3

    def test_scale_invariance(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(5))
        scaled = replace(cube, samples=cube.samples * (3 + 4j))
        grid = est.default_grid(paper_scenario)
        b1 = est.subspace_split(est.temporal_covariance(cube), 3)
        b2 = est.subspace_split(est.temporal_covariance(scaled), 3)
        s1 = est.xi1_surface(codes, b1, paper_scenario.system,
                             grid.range_bins[::10], grid.doppler_hz[::16])
        s2 = est.xi1_surface(codes, b2, paper_scenario.system,
                             grid.range_bins[::10], grid.doppler_hz[::16])
        assert np.unravel_index(np.argmax(s1), s1.shape) == \
            np.unravel_index(np.argmax(s2), s2.shape)
        assert np.allclose(s1, s2, rtol=1e-9)

    def test_surface_matches_single_point_cost(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(6))
        basis = est.subspace_split(est.temporal_covariance(cube), 3)
        d_grid = np.array([10, 152, 367])
        f_grid = np.array([-429.37, 0.0, 475.94])
        surf = est.xi1_surface(codes, basis, paper_scenario.system, d_grid, f_grid)
        for i, d in enumerate(d_grid):
            for j, f in enumerate(f_grid):
                direct = est.xi1_cost(int(d), float(f), codes, basis,
                                      paper_scenario.system)
                assert surf[i, j] == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("signal_dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("which", ["paper", "tiny"])
    def test_surface_matches_cost_at_every_signal_dim(self, which, signal_dim,
                                                      paper_scenario):
        scenario = paper_scenario if which == "paper" else make_tiny_scenario(snr_db=10.0)
        system = scenario.system
        codes, symbols = build_waveform(scenario)
        cube = b.synthesize_cube(scenario, codes, symbols, np.random.default_rng(8))
        basis = est.subspace_split(est.temporal_covariance(cube), signal_dim)
        last = system.fast_time_bins - system.code_length
        # both edge delays, descending, more than one delay block on paper
        delays = np.unique(np.linspace(0, last, 40).astype(int))[::-1]
        prf = scenario.system.prf_hz
        dopplers = prf * np.array([-0.5, -0.31, -0.02, 0.0, 0.11, 0.5])
        surf = est.xi1_surface(codes, basis, system, delays, dopplers)
        single = est.xi1_surface(codes, basis, system, delays, dopplers[4:5])
        assert surf.shape == (len(delays), len(dopplers))
        assert single.shape == (len(delays), 1)
        for i, d in enumerate(delays):
            for j, f in enumerate(dopplers):
                direct = est.xi1_cost(int(d), float(f), codes, basis, system)
                assert surf[i, j] == pytest.approx(direct, rel=1e-9)
            assert single[i, 0] == pytest.approx(surf[i, 4], rel=1e-9)

    def test_factorized_equals_materialized_projector(self, tiny_scenario):
        codes, symbols = build_waveform(tiny_scenario)
        noisy = b.synthesize_cube(tiny_scenario.with_system(snr_db=10.0), codes, symbols,
                                  np.random.default_rng(7))
        basis = est.subspace_split(est.temporal_covariance(noisy), 1)
        u = basis.basis
        p_n = np.eye(14) - u @ u.conj().T
        for d in range(0, 8, 3):
            for f in (0.0, 5000.0, -12000.0):
                t_mat = b.transformation_matrix(codes, d, f, tiny_scenario.system)
                num = np.linalg.det(t_mat.conj().T @ t_mat).real
                den = np.linalg.det(t_mat.conj().T @ p_n @ t_mat).real
                direct = est.xi1_cost(d, f, codes, basis, tiny_scenario.system)
                assert direct == pytest.approx(num / den, rel=1e-9)


def _xi1_surface_den_matrix(codes, basis, system, range_bins, doppler_hz):
    """xi1_surface with the elimination on a zeroed (P, P, delay, Doppler)
    matrix written through fancy indexing, as it was before the packed
    upper triangle: the reference for the bit-for-bit check."""
    from numpy.lib.stride_tricks import sliding_window_view

    nc = codes.code_length
    range_bins = np.asarray(range_bins, dtype=int)
    doppler_hz = np.asarray(doppler_hz, dtype=float)
    p_dim = basis.basis.shape[1]
    upper_p, upper_q = np.triu_indices(p_dim)
    chol = np.linalg.cholesky(codes.chips.T @ codes.chips)
    white = np.linalg.solve(chol, codes.chips.T).T
    lags = np.arange(1 - nc, nc)
    q, r = np.indices((nc, nc))
    lag_sum = (q - r == lags[:, None, None]).reshape(len(lags), nc * nc).astype(float)
    phases = np.exp(2j * np.pi * system.chip_period_s * np.outer(lags, doppler_hz))
    windows = sliding_window_view(basis.basis.conj(), nc, axis=0)
    surface = np.empty((len(range_bins), len(doppler_hz)), dtype=float)
    for start in range(0, len(range_bins), est._XI1_DELAY_BLOCK):
        block = range_bins[start:start + est._XI1_DELAY_BLOCK]
        n_b = len(block)
        x = windows[block].transpose(0, 2, 1)[..., None] * white[:, None, :]
        x = x.reshape(n_b, nc * p_dim, codes.tx_count)
        gram = (x @ x.conj().transpose(0, 2, 1)).reshape(n_b, nc, p_dim, nc, p_dim)
        pairs = np.ascontiguousarray(gram.transpose(1, 3, 2, 4, 0)[:, :, upper_p, upper_q])
        lagged = (lag_sum @ pairs.reshape(nc * nc, -1).view(float)).view(complex)
        m_upper = (lagged.T @ phases).reshape(len(upper_p), n_b, len(doppler_hz))
        den = np.zeros((p_dim, p_dim, n_b, len(doppler_hz)), dtype=complex)
        den[upper_p, upper_q] = -m_upper
        den[np.arange(p_dim), np.arange(p_dim)] += 1.0
        det = np.ones((n_b, len(doppler_hz)))
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(p_dim):
                pivot = den[k, k].real
                det *= pivot
                for i in range(k + 1, p_dim):
                    den[i, i:] -= (den[k, i].conj() / pivot) * den[k, i:]
            surface[start:start + n_b] = np.where(
                det > 0.0, 1.0 / np.maximum(det, 1e-300), np.inf
            )
    return surface


class TestXi1PackedElimination:
    @pytest.mark.parametrize("signal_dim", [1, 3, 6])
    def test_bit_equal_to_the_den_matrix_elimination(self, paper_scenario, signal_dim):
        system = paper_scenario.system
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols, np.random.default_rng(9))
        basis = est.subspace_split(est.temporal_covariance(cube), signal_dim)
        grid = est.default_grid(paper_scenario)
        # more than one delay block, a partial last block and both edges
        delays = np.concatenate([grid.range_bins[:70], grid.range_bins[140:160],
                                 grid.range_bins[-5:]])
        dopplers = grid.doppler_hz[::4]
        got = est.xi1_surface(codes, basis, system, delays, dopplers)
        want = _xi1_surface_den_matrix(codes, basis, system, delays, dopplers)
        assert got.tobytes() == want.tobytes()


def _stage1(cube, codes, k, grid, system):
    """Stage 1 on the cube's top-k fast-time subspace, as run_scenario runs it."""
    basis = est.subspace_split(est.temporal_covariance(cube), k)
    return est.range_doppler_search(codes, k, grid, system, basis)


class TestRangeDopplerSearch:
    def test_noiseless_argmax_at_exact_node(self, paper_scenario):
        cube, codes, _, _, s = noiseless_single_target(paper_scenario)
        t = cube.truth[0]
        grid = est.default_grid(s, est.GridSpec(
            doppler_hz=np.array([t.doppler_hz - 30, t.doppler_hz - 15,
                                 t.doppler_hz, t.doppler_hz + 15])
        ))
        basis = est.subspace_split(est.temporal_covariance(cube), 1)
        delays = est.range_doppler_search(codes, 1, grid, s.system, basis)
        assert delays == [t.delay_bins]
        # the picked delay's row of the surface peaks at the true Doppler
        row = est.xi1_surface(codes, basis, s.system, np.array(delays), grid.doppler_hz)[0]
        assert grid.doppler_hz[row.argmax()] == pytest.approx(t.doppler_hz)

    def test_paper_default_ranges(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(11))
        grid = est.default_grid(paper_scenario)
        delays = _stage1(cube, codes, 3, grid, paper_scenario.system)
        assert sorted(delays) == [152, 189, 228]

    @settings(max_examples=300, deadline=None)
    @given(stage1_surfaces())
    def test_picks_match_the_brute_force_2d_greedy(self, case):
        surface, delays, radius, k = case
        dopplers = np.linspace(-500.0, 500.0, surface.shape[1])
        grid = est.GridSpec(range_bins=delays, doppler_hz=dopplers)
        codes = SimpleNamespace(code_length=radius)
        want = [int(delays[i]) for i, _ in _greedy_peaks_2d(surface, delays, radius, k)]
        with mock.patch.object(est, "xi1_surface", lambda *args: surface):
            if len(want) < k:
                with pytest.raises(est.PeakError, match=f"found only {len(want)} of {k}"):
                    est.range_doppler_search(codes, k, grid, None, object())
            else:
                got = est.range_doppler_search(codes, k, grid, None, object())
                assert got == want

    def test_greedy_peaks_skips_nan_and_suppresses_inclusively(self):
        values = np.array([5.0, math.nan, 4.0, 4.0, 3.0])
        positions = np.array([0.0, 1.0, 2.0, 4.0, 6.0])
        assert est.greedy_peaks(values, positions, 2.0, 3) == [0, 3]
        assert est.greedy_peaks(values, positions, 1.9, 3) == [0, 2, 3]

    def test_too_few_peaks_error(self, paper_scenario):
        cube, codes, _, _, s = noiseless_single_target(paper_scenario)
        grid = est.default_grid(s, est.GridSpec(
            range_bins=np.arange(145, 160),
            doppler_hz=np.array([-429.37, 0.0]),
        ))
        with pytest.raises(est.PeakError, match="found only 1"):
            _stage1(cube, codes, 2, grid, s.system)


def _assignment_costs(kind, rng, shape):
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "integer_ties":
        return rng.integers(0, 4, size=shape).astype(float)
    if kind == "one_decimal":  # ties that depend on the rounding order
        return np.round(rng.uniform(0.0, 3.0, size=shape), 1)
    # align_to_truth: |ddoa| + |ddod| where an estimate has angles, else
    # 360 + |ddelay| + |ddoppler|
    n = max(shape)
    truth = rng.uniform(0.0, 180.0, size=(n, 2))
    near = truth[rng.permutation(n)[:shape[1]]]
    est_angles = np.round(near + rng.normal(0.0, 0.5, size=near.shape), 2)
    angle_cost = np.abs(truth[:shape[0], None] - est_angles[None]).sum(axis=-1)
    fallback = (360.0 + rng.integers(0, 3, size=shape)
                + np.abs(np.round(rng.normal(0.0, 50.0, size=shape), 1)))
    return np.where(rng.random(shape[1]) < 0.4, fallback, angle_cost)


class TestLinearAssignment:
    SHAPES = [(n, n) for n in range(1, 9)] + [(2, 5), (3, 7), (5, 2), (7, 3), (1, 6),
                                              (6, 1), (0, 4), (4, 0), (0, 0)]

    KINDS = ["normal", "integer_ties", "one_decimal", "align_to_truth"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_pairs_as_scipy(self, kind):
        # scipy is a test-only dependency: the reference, never the runtime
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(self.KINDS.index(kind))
        for shape in self.SHAPES:
            for _ in range(60):
                cost = _assignment_costs(kind, rng, shape)
                rows, cols = optimize.linear_sum_assignment(cost)
                assert est.linear_assignment(cost) == (rows.tolist(), cols.tolist())
                # a maximisation, as associate_doa_to_range runs it
                rows, cols = optimize.linear_sum_assignment(-cost)
                assert est.linear_assignment(-cost) == (rows.tolist(), cols.tolist())

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (2, 4), (4, 2), (5, 3)])
    def test_total_cost_is_the_brute_force_minimum(self, shape):
        rng = np.random.default_rng(shape)
        for _ in range(50):
            cost = rng.integers(0, 5, size=shape).astype(float)
            rows, cols = est.linear_assignment(cost)
            assert len(set(rows)) == len(set(cols)) == min(shape)
            assert rows == sorted(rows)
            wide = cost if shape[0] <= shape[1] else cost.T
            best = min(sum(wide[i, j] for i, j in enumerate(perm))
                       for perm in itertools.permutations(range(wide.shape[1]), wide.shape[0]))
            assert cost[rows, cols].sum() == best

    def test_constant_costs_pair_the_diagonal(self):
        assert est.linear_assignment(np.ones((3, 5))) == ([0, 1, 2], [0, 1, 2])
        assert est.linear_assignment(np.ones((5, 3))) == ([0, 1, 2], [0, 1, 2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_costs_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            est.linear_assignment(np.array([[1.0, bad], [2.0, 3.0]]))


class TestDopplerRefine:
    def test_noiseless_accuracy(self, paper_scenario):
        cube, codes, symbols, _, s = noiseless_single_target(paper_scenario)
        t = cube.truth[0]
        f_hat = b.doppler_refine(est.despread_gate(cube, codes, t.delay_bins), symbols, s.system)
        assert abs(f_hat - t.doppler_hz) < 0.1

    def test_zero_doppler(self, paper_scenario):
        targets = (replace(paper_scenario.targets[0], velocity_mps=0.0),)
        s = replace(
            paper_scenario.with_system(snr_db=float("inf"), scr_db=float("inf")),
            targets=targets,
        )
        cube, codes, symbols, _ = clean_cube(s)
        f_hat = b.doppler_refine(est.despread_gate(cube, codes, 152), symbols, s.system)
        assert abs(f_hat) < 0.1

    def test_noisy_within_two_hz(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(13))
        for t in cube.truth:
            f_hat = b.doppler_refine(est.despread_gate(cube, codes, t.delay_bins), symbols,
                                     paper_scenario.system)
            assert abs(f_hat - t.doppler_hz) <= 2.0

    def test_unrefined_error_bounded_by_half_bin(self, paper_scenario):
        d_par = paper_scenario.system
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(14))
        for t in cube.truth:
            f_hat = b.doppler_refine(est.despread_gate(cube, codes, t.delay_bins), symbols,
                                     paper_scenario.system, refine=False)
            assert abs(f_hat - t.doppler_hz) <= d_par.prf_hz / (2 * 256)

    def test_range_ambiguous_gate_rejected(self):
        # the despread gate shares the code signatures' range check
        s = make_tiny_scenario()
        cube, codes, _, _ = clean_cube(s)
        last = s.system.fast_time_bins - s.system.code_length
        assert est.despread_gate(cube, codes, last).shape == (s.system.pris_per_cpi,
                                                               s.system.rx_count)
        for d in (-1, last + 1):
            with pytest.raises(ValueError, match=rf"range-ambiguous.*0 <= d <= {last}"):
                est.despread_gate(cube, codes, d)


class TestXi2:
    def test_exact_subspace_hit(self, paper_scenario):
        cube, codes, _, _, s = noiseless_single_target(paper_scenario)
        t = cube.truth[0]
        blockers = b.build_blockers(codes, [(t.delay_bins, t.doppler_hz)], s.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        ctx = b.prepare_xi2_context(virtual, blockers,
                                    [(t.delay_bins, t.doppler_hz)], codes, s)
        cost = b.xi2_surface(ctx, [t.doa_deg], [t.dod_deg])[0, 0]
        # denominator below 1e-12 of the numerator
        assert cost > 1e12

    def test_swapped_angles_far_below_truth(self, paper_scenario):
        cube, codes, _, _, s = noiseless_single_target(paper_scenario)
        t = cube.truth[0]
        blockers = b.build_blockers(codes, [(t.delay_bins, t.doppler_hz)], s.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        ctx = b.prepare_xi2_context(virtual, blockers,
                                    [(t.delay_bins, t.doppler_hz)], codes, s)
        at_truth = b.xi2_surface(ctx, [t.doa_deg], [t.dod_deg])[0, 0]
        swapped = b.xi2_surface(ctx, [t.dod_deg], [t.doa_deg])[0, 0]
        assert at_truth > swapped * 100.0  # > 20 dB

    def test_global_phase_invariance(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(15))
        rotated = replace(cube, samples=cube.samples * np.exp(0.7j))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        grids = np.arange(95.0, 155.0, 0.5), np.arange(45.0, 90.0, 0.5)
        surfaces = []
        for c in (cube, rotated):
            blockers = b.build_blockers(codes, estimates, paper_scenario.system)
            virtual = b.apply_virtual_extension(c, blockers)
            ctx = b.prepare_xi2_context(virtual, blockers, estimates, codes,
                                        paper_scenario)
            surfaces.append(b.xi2_surface(ctx, *grids))
        assert np.allclose(surfaces[0], surfaces[1], rtol=1e-9)

    def test_context_index_scores_one_context_exactly(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(15))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        blockers = b.build_blockers(codes, estimates, paper_scenario.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        ctx = b.prepare_xi2_context(virtual, blockers, estimates, codes, paper_scenario)
        grids = np.arange(95.0, 155.0, 0.5), np.arange(45.0, 90.0, 0.5)
        stack = b.xi2_surface(ctx, *grids, contexts=range(len(estimates)))
        for ki in range(len(estimates)):
            one = b.xi2_surface(ctx, *grids, contexts=[ki])
            np.testing.assert_array_equal(one, stack[ki:ki + 1])

    def test_factorized_equals_materialized_projector(self):
        # 56-dimensional virtual space: compare against explicit P matrices
        s = make_tiny_scenario(snr_db=20.0, scr_db=float("inf"))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(16))
        t = cube.truth[0]
        estimates = [(t.delay_bins, t.doppler_hz)]
        blockers = b.build_blockers(codes, estimates, s.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        ctx = b.prepare_xi2_context(virtual, blockers, estimates, codes, s)

        u = np.linalg.svd(virtual.matrix, full_matrices=False)[0][:, :ctx.basis.signal_dim]
        p_nv = np.eye(u.shape[0]) - u @ u.conj().T
        n_bar, n_rx, L = 2, 2, 14
        p_blocks = []
        for m in range(n_bar):
            q = blockers.bases[m]
            p_blocks.append(np.eye(L) - q @ q.conj().T)
        rng = np.random.default_rng(17)
        for _ in range(10):
            th = float(rng.uniform(0, 180))
            tb = float(rng.uniform(0, 180))
            h = b.extended_manifold(th, tb, t.delay_bins, t.doppler_hz, s, codes)
            ph = np.concatenate([
                np.kron(np.eye(n_rx), p_blocks[m]) @ h[m * n_rx * L:(m + 1) * n_rx * L]
                for m in range(n_bar)
            ])
            num = np.linalg.norm(ph) ** 2
            den = (ph.conj() @ p_nv @ ph).real
            direct = b.xi2_surface(ctx, [th], [tb])[0, 0]
            assert direct == pytest.approx(num / den, rel=1e-9)


def _explicit_signal_power(basis_phi, s_rx, s_tx):
    """sum_p |sum_m half[p, m] conj(s_tx[m])|^2 with every coefficient formed."""
    half = np.einsum("pmi,ia->pma", basis_phi, s_rx)
    coeff = np.einsum("pma,mb->pab", half, s_tx.conj())
    return np.sum(np.abs(coeff) ** 2, axis=0)


class TestXi2HermitianForm:
    """The signal power of each context as one real GEMM of the per-DOA
    Hermitian H against the Tx pair matrix equals the explicit sum over the
    basis columns of |coeff|^2."""

    @pytest.mark.parametrize("which", ["paper", "tiny"])
    def test_equals_the_explicit_sum(self, which, paper_scenario):
        s = paper_scenario if which == "paper" else make_tiny_scenario(snr_db=20.0)
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(26))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        blockers = b.build_blockers(codes, estimates, s.system)
        ctx = b.prepare_xi2_context(b.VirtualSnapshots(cube.samples, blockers), blockers,
                                    estimates, codes, s)
        theta = np.arange(0.0, 180.0 + 1e-9, 0.5)
        theta_bar = np.arange(20.0, 160.0, 0.37)
        s_rx = b.spatial_manifold(s, "rx", theta)
        s_tx = b.spatial_manifold(s, "tx", theta_bar)
        pairs = est._tx_pairs(s_tx)
        for ki in range(len(estimates)):
            got = est._signal_power(ctx.basis_phi[ki], s_rx, pairs)
            want = _explicit_signal_power(ctx.basis_phi[ki], s_rx, s_tx)
            assert got.shape == (len(theta), len(theta_bar))
            assert np.abs(got - want).max() <= 1e-12 * want.max()
            # sig_power never exceeds the numerator beyond rounding
            assert got.max() <= ctx.numerators[ki] * (1 + 1e-12)

    def test_search_returns_the_coarse_stack_it_scored(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols, np.random.default_rng(27))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        blockers = b.build_blockers(codes, estimates, paper_scenario.system)
        ctx = b.prepare_xi2_context(b.VirtualSnapshots(cube.samples, blockers), blockers,
                                    estimates, codes, paper_scenario)
        grid = est.default_grid(paper_scenario)
        results, stack = b.doa_dod_search(ctx, grid)
        assert len(results) == len(estimates)  # one triple per context
        want = b.xi2_surface(ctx, grid.angle_deg, grid.angle_deg,
                             contexts=range(len(estimates)))
        assert stack.tobytes() == want.tobytes()
        summed = b.xi2_surface(ctx, grid.angle_deg, grid.angle_deg)
        assert np.sum(stack, axis=0).tobytes() == summed.tobytes()


class MaterialisedSnapshots:
    """The reference route: the gram taken from the materialised
    virtual-snapshot matrix."""

    def __init__(self, virtual):
        self.samples = virtual.samples
        self.matrix = virtual.matrix
        self.shape = self.matrix.shape
        self.tx_count = virtual.tx_count

    def gram(self):
        return self.matrix.conj().T @ self.matrix


class TestFactoredXi2Context:
    """The context built from the cube matches the one built from the
    materialised 13100 x 256 (paper) virtual-snapshot matrix."""

    @staticmethod
    def assert_matches_reference(scenario, cube, codes, estimates, dims):
        blockers = b.build_blockers(codes, estimates, scenario.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        reference = MaterialisedSnapshots(virtual)
        theta = np.arange(0.0, 180.1, 2.5)
        for dim in dims:
            ctx = b.prepare_xi2_context(virtual, blockers, estimates, codes,
                                        scenario, signal_dim=dim)
            ref = b.prepare_xi2_context(reference, blockers, estimates, codes,
                                        scenario, signal_dim=dim)
            got = b.xi2_surface(ctx, theta, theta, contexts=range(len(estimates)))
            want = b.xi2_surface(ref, theta, theta, contexts=range(len(estimates)))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            # the basis the contractions stand for, U = X V / sqrt(theta)
            theta = ctx.basis.eigenvalues[:dim] * reference.shape[1]
            u = reference.matrix @ ctx.basis.basis / np.sqrt(theta)
            assert u.shape == (reference.shape[0], dim)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)
        return blockers

    def test_tiny_scenario(self):
        s = make_tiny_scenario(snr_db=20.0, scr_db=float("inf"))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(21))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        self.assert_matches_reference(s, cube, codes, estimates, [1, 2, 3, 4, 12])

    def test_paper_scenario(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(22))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        self.assert_matches_reference(paper_scenario, cube, codes, estimates,
                                      [1, 2, 3, 4, 12])

    def test_near_coincident_estimates_truncate_the_blocker(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(23))
        t = cube.truth[0]
        estimates = [(t.delay_bins, t.doppler_hz), (t.delay_bins, t.doppler_hz + 1e-7)]
        blockers = self.assert_matches_reference(paper_scenario, cube, codes,
                                                 estimates, [2])
        for m in range(paper_scenario.system.tx_count):
            # each blocker has K * (n_bar - 1) columns
            assert blockers.bases[m].shape[1] < len(estimates) * (paper_scenario.system.tx_count - 1)

    def test_single_tx_antenna_has_empty_blockers(self):
        s = make_tiny_scenario(snr_db=20.0, scr_db=float("inf"))
        s = replace(s, system=replace(s.system, tx_count=1),
                    tx_array=b.ArrayGeometry(((0.0,), (0.0,), (0.0,))))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(24))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        blockers = self.assert_matches_reference(s, cube, codes, estimates, [1, 3])
        assert blockers.bases[0].shape == (s.system.fast_time_bins, 0)

    def test_zero_samples_raise_the_rank_message(self, tiny_scenario):
        # an all-zero gram: every Ritz value is zero
        cube, codes, _, _ = clean_cube(tiny_scenario)
        zero = replace(cube, samples=np.zeros_like(cube.samples))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        blockers = b.build_blockers(codes, estimates, tiny_scenario.system)
        with pytest.raises(ValueError, match="snapshot matrix rank is below signal_dim"):
            b.prepare_xi2_context(b.apply_virtual_extension(zero, blockers), blockers,
                                  estimates, codes, tiny_scenario)

    def test_context_never_holds_the_snapshot_matrix(self, paper_scenario):
        import tracemalloc

        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(25))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        blockers = b.build_blockers(codes, estimates, paper_scenario.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        tracemalloc.start()
        try:
            b.prepare_xi2_context(virtual, blockers, estimates, codes, paper_scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the materialised matrix alone is 13100 x 256 complex, 54 MB
        assert peak < 32e6

    def test_zero_signal_dim_is_rejected(self, tiny_scenario):
        # an explicit 0 is out of range, not a request for the default K
        cube, codes, _, _ = clean_cube(tiny_scenario)
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        blockers = b.build_blockers(codes, estimates, tiny_scenario.system)
        with pytest.raises(ValueError, match=r"signal_dim must be in \(0, 56\)"):
            b.prepare_xi2_context(b.apply_virtual_extension(cube, blockers), blockers,
                                  estimates, codes, tiny_scenario, signal_dim=0)


def _xi2_case(case, paper_scenario):
    """(scenario, cube, codes, estimates) of the paper scenario, of a
    near-coincident estimate pair on it, or of a one-antenna Tx array."""
    s = paper_scenario
    if case == "tx_count_1":
        s = make_tiny_scenario(snr_db=20.0, scr_db=float("inf"))
        s = replace(s, system=replace(s.system, tx_count=1),
                    tx_array=b.ArrayGeometry(((0.0,), (0.0,), (0.0,))))
    codes, symbols = build_waveform(s)
    cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(28))
    estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
    if case == "near_coincident":
        d, f = estimates[0]
        estimates = [(d, f), (d, f + 1e-7)]
    return s, cube, codes, estimates


class TestXi2ContextFacts:
    """The two facts prepare_xi2_context rests on: Rayleigh-Ritz vectors
    diagonalise the PRI gram, and U^H P h needs only the code-window rows
    of the cube."""

    @pytest.mark.parametrize("case", ["paper", "near_coincident", "tx_count_1"])
    def test_contractions_equal_the_full_length_product(self, case, paper_scenario):
        s, cube, codes, estimates = _xi2_case(case, paper_scenario)
        blockers = b.build_blockers(codes, estimates, s.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        ctx = b.prepare_xi2_context(virtual, blockers, estimates, codes, s)
        n_s, L, n_rx = cube.samples.shape
        n_bar = s.system.tx_count
        # phi over all L fast-time rows, through explicit projectors
        phi = np.array([[(np.eye(L) - q @ q.conj().T)
                         @ b.temporal_signature(codes, d, f, s.system)
                         for q in blockers.bases] for d, f in estimates])
        x4 = virtual.matrix.reshape(n_bar, n_rx, L, n_s)
        x_phi = np.einsum("miln,kml->nkmi", x4.conj(), phi)
        dim = ctx.basis.signal_dim
        theta = ctx.basis.eigenvalues[:dim] * n_s
        want = (np.einsum("np,nkmi->kpmi", ctx.basis.basis.conj(), x_phi)
                / np.sqrt(theta)[:, None, None])
        assert ctx.basis_phi.shape == want.shape
        assert np.abs(ctx.basis_phi - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("cap", [None, 1])
    def test_ritz_vectors_diagonalise_the_pri_gram(self, cap, paper_scenario, monkeypatch):
        # the criterion-5 0 dB point, where the stage-2 solve restarts most;
        # the property holds also for a solve stopped at the restart cap
        if cap is not None:
            monkeypatch.setattr(est, "_KRYLOV_MAX_RESTARTS", cap)
        s = paper_scenario.with_system(snr_db=0.0, scr_db=float("inf"))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(0))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        blockers = b.build_blockers(codes, estimates, s.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        ctx = b.prepare_xi2_context(virtual, blockers, estimates, codes, s)
        if cap is None:
            assert ctx.basis.converged and ctx.basis.restarts > 1
        else:
            assert not ctx.basis.converged and ctx.basis.restarts == cap
        v = ctx.basis.basis
        theta = ctx.basis.eigenvalues[:ctx.basis.signal_dim] * virtual.shape[1]
        off = v.conj().T @ virtual.gram() @ v - np.diag(theta)
        assert np.linalg.norm(off, 2) <= 1e-12 * theta[0]


class TestDoaDodSearch:
    def test_single_target_noiseless_within_refine_step(self, paper_scenario):
        cube, codes, _, _, s = noiseless_single_target(paper_scenario)
        t = cube.truth[0]
        blockers = b.build_blockers(codes, [(t.delay_bins, t.doppler_hz)], s.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        ctx = b.prepare_xi2_context(virtual, blockers,
                                    [(t.delay_bins, t.doppler_hz)], codes, s)
        grid = est.default_grid(s)
        results, _ = b.doa_dod_search(ctx, grid)
        (th, tb, _), = results  # one result for the one context
        assert abs(th - t.doa_deg) <= grid.angle_refine_step_deg + 1e-9
        assert abs(tb - t.dod_deg) <= grid.angle_refine_step_deg + 1e-9

    def test_grid_excluding_truth_returns_nearest_node(self, paper_scenario):
        cube, codes, _, _, s = noiseless_single_target(paper_scenario)
        t = cube.truth[0]
        blockers = b.build_blockers(codes, [(t.delay_bins, t.doppler_hz)], s.system)
        virtual = b.apply_virtual_extension(cube, blockers)
        ctx = b.prepare_xi2_context(virtual, blockers,
                                    [(t.delay_bins, t.doppler_hz)], codes, s)
        theta, theta_bar = np.arange(140.0, 148.1, 0.5), np.arange(70.0, 78.1, 0.5)
        surface = b.xi2_surface(ctx, theta, theta_bar)
        i, j = np.unravel_index(int(np.argmax(surface)), surface.shape)
        assert theta[i] == pytest.approx(148.0)     # truth 150 is off-grid
        assert theta_bar[j] == pytest.approx(78.0)  # truth 81.2 is off-grid

    def test_peak_to_floor_monotone_in_snr(self):
        # small-scale Monte Carlo: median peak-to-floor ratio of the
        # direction cost must not decrease with SNR
        system = b.SystemConfig(
            code_length=15, pris_per_cpi=32, tx_count=3, rx_count=3,
            baseline_bins=30.0, pulses_per_pri=4, unambiguous_range_bins=None,
            snr_db=0.0, scr_db=float("inf"),
        )
        half_wl = 0.5 * b.SPEED_OF_LIGHT / system.carrier_frequency_hz
        geom = b.ArrayGeometry((
            (0.0, half_wl, 2 * half_wl), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
        ))
        target = b.TargetSpec(20, 25, 110.0, 55.0, 60.0, velocity_mps=50.0)
        grid_th = np.arange(0.0, 180.1, 2.0)
        medians = []
        for snr in (0.0, 10.0, 20.0):
            ratios = []
            for trial in range(50):
                s = b.Scenario(system=replace(system, snr_db=snr),
                               tx_array=geom, rx_array=geom,
                               targets=(target,), rng_seed=trial)
                codes, symbols = build_waveform(s, code_seed=trial)
                cube = b.synthesize_cube(s, codes, symbols,
                                         np.random.default_rng(trial + 100))
                t = cube.truth[0]
                blockers = b.build_blockers(
                    codes, [(t.delay_bins, t.doppler_hz)], s.system)
                virtual = b.apply_virtual_extension(cube, blockers)
                ctx = b.prepare_xi2_context(
                    virtual, blockers, [(t.delay_bins, t.doppler_hz)], codes, s)
                surf = b.xi2_surface(ctx, grid_th, grid_th)
                ratios.append(surf.max() / np.median(surf))
            medians.append(np.median(ratios))
        assert medians[0] <= medians[1] <= medians[2]
