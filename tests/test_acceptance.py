"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The Monte Carlo fixtures run several hundred full estimation pipelines and
dominate the runtime (about 2 minutes on two cores).  Run with -s to
see the per-criterion lines as they complete.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import bmradar as b
from bmradar import baseline as bl
from bmradar import channel, estimation as est
from bmradar.harness import _trial_seed
from conftest import build_waveform, clean_cube, make_tiny_scenario

ACCEPT_SEED = 20260808
CLUTTER_SEED = ACCEPT_SEED + 1
SNR_SWEEP = [0.0, 5.0, 10.0, 15.0, 20.0]
TRIALS = 100

TRUE_RANGES = [152, 189, 228]
TRUE_DOPPLERS = [-429.37, 150.84, 475.94]


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def paper():
    return b.default_scenario()


@pytest.fixture(scope="module")
def sweep_report(paper):
    """Criterion-5 sweep; clutter folded into the white interference axis."""
    return b.monte_carlo_rmse(paper, SNR_SWEEP, TRIALS, method="both",
                              seed=ACCEPT_SEED, clutter_mode="off")


@pytest.fixture(scope="module")
def clutter_report(paper):
    """Criteria 2-4 operating point: 20 dB SNR with the -5 dB clutter kept."""
    return b.monte_carlo_rmse(paper, [20.0], TRIALS, method="vst",
                              seed=CLUTTER_SEED, clutter_mode="scenario")


def _aligned_full(record, method="vst"):
    aligned = record.aligned.get(method, ())
    if len(aligned) != 3 or any(e is None for e in aligned):
        return None
    return aligned


class TestCriterion1GeometryOracle:
    def test_truth_tables(self, paper):
        t0 = time.perf_counter()
        ok = True
        details = []
        for target, d_exp, f_exp in zip(paper.targets, TRUE_RANGES, TRUE_DOPPLERS):
            d, f = b.truth_from_geometry(target, paper.system)
            details.append(f"d={d} f={f:.3f}")
            ok = ok and d == d_exp and abs(f - f_exp) <= 0.05
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 1.0
        _line("criterion 1 (geometry oracle)",
              ok, f"{'; '.join(details)}; runtime {elapsed * 1e3:.1f} ms")
        assert ok


class TestCriterion2RangeEstimation:
    def test_exact_ranges_with_clutter(self, clutter_report):
        hits = 0
        for rec in clutter_report.records:
            aligned = _aligned_full(rec)
            if aligned is None:
                continue
            if sorted(e.delay_bins for e in aligned) == TRUE_RANGES:
                hits += 1
        _line("criterion 2 (range bins exact, 20 dB SNR / -5 dB SCR)",
              hits >= 95, f"{hits}/{TRIALS} trials exact (need >= 95)")
        assert hits >= 95


class TestCriterion3DopplerEstimation:
    def test_refined_within_two_hz(self, clutter_report, paper):
        truths = [b.truth_from_geometry(t, paper.system) for t in paper.targets]
        hits = 0
        for rec in clutter_report.records:
            aligned = _aligned_full(rec)
            if aligned is None:
                continue
            if all(abs(e.doppler_hz - tf[1]) <= 2.0
                   for e, tf in zip(aligned, truths)):
                hits += 1
        _line("criterion 3a (refined Doppler within 2 Hz)",
              hits >= 90, f"{hits}/{TRIALS} trials (need >= 90)")
        assert hits >= 90

    def test_unrefined_within_half_doppler_bin(self, paper):
        # same seeded cubes as the clutter fixture, Doppler left unrefined
        bound = paper.system.prf_hz / (2 * paper.system.pris_per_cpi)
        truths = {d: f for d, f in
                  (b.truth_from_geometry(t, paper.system) for t in paper.targets)}
        grid = est.default_grid(paper)
        hits = 0
        for trial in range(TRIALS):
            seed = _trial_seed(CLUTTER_SEED, 0, trial)
            # baseline method shares stage 1 bit-for-bit and skips stage 2
            result = b.run_scenario(paper, method="baseline", seed=seed,
                                    grid=grid, refine_doppler=False)
            entries = result.reports["baseline"].entries
            if sorted(e.delay_bins for e in entries) != TRUE_RANGES:
                continue
            if all(abs(e.doppler_hz - truths[e.delay_bins]) <= bound
                   for e in entries):
                hits += 1
        _line("criterion 3b (unrefined Doppler within PRF/(2*Ns))",
              hits >= 90, f"{hits}/{TRIALS} trials within {bound:.2f} Hz (need >= 90)")
        assert hits >= 90


class TestCriterion4Directions:
    @staticmethod
    def _angle_hits(records, targets):
        hits = 0
        for rec in records:
            aligned = _aligned_full(rec)
            if aligned is None:
                continue
            if all(abs(e.doa_deg - t.doa_deg) <= 0.1
                   and abs(e.dod_deg - t.dod_deg) <= 0.1
                   for e, t in zip(aligned, targets)):
                hits += 1
        return hits

    def test_directions_with_clutter(self, clutter_report, paper):
        """As stated: 20 dB SNR with the -5 dB clutter channel active.

        White clutter at this level degrades the virtual-snapshot signal
        subspace beyond the 0.1-degree bar (see the supplementary check for
        the clutter-free operating point); the criterion is evaluated
        faithfully and reports its true rate.
        """
        hits = self._angle_hits(clutter_report.records, paper.targets)
        _line("criterion 4 (angles within 0.1 deg, 20 dB SNR / -5 dB SCR)",
              hits >= 90, f"{hits}/{TRIALS} trials (need >= 90)")
        assert hits >= 90

    def test_directions_supplementary_clutter_free(self, sweep_report, paper):
        """Supplementary (not a criterion substitute): the same protocol at
        the sweep's clutter-free 20 dB point."""
        recs = [r for r in sweep_report.records if r.snr_db == 20.0]
        hits = self._angle_hits(recs, paper.targets)
        _line("criterion 4 supplementary (clutter-free 20 dB)",
              hits >= 90, f"{hits}/{len(recs)} trials (need >= 90)")
        assert hits >= 90


class TestCriterion5RmseComparison:
    def test_vst_dominates_at_every_point(self, sweep_report):
        dominance = True
        details = []
        for p in sweep_report.points:
            dom = (p.rmse["doa_vst"] < p.rmse["doa_baseline"]
                   and p.rmse["dod_vst"] < p.rmse["dod_baseline"])
            dominance = dominance and dom
            details.append(
                f"{p.snr_db:g}dB vst({p.rmse['doa_vst']:.3f}/{p.rmse['dod_vst']:.3f})"
                f" m({p.rmse['doa_baseline']:.3f}/{p.rmse['dod_baseline']:.3f})"
            )
        _line("criterion 5a (v-ST strictly below the geometric method)",
              dominance, "; ".join(details))
        assert dominance

    def test_geometric_dod_flattens(self, sweep_report):
        """The whole-cube MUSIC baseline keeps improving 2x per 5 dB at the
        top of the sweep: its RMSE there is dominated by fluctuation-fade
        peak losses, not yet by the range-quantisation floor.  Evaluated
        faithfully; the gate-MUSIC supplementary below shows the
        floor-limited flattening."""
        by_snr = {p.snr_db: p.rmse["dod_baseline"] for p in sweep_report.points}
        r_15 = by_snr[10.0] / by_snr[15.0]
        r_20 = by_snr[15.0] / by_snr[20.0]
        flat = r_15 <= 1.5 and r_20 <= 1.5
        _line("criterion 5b (geometric DOD improvement ratio -> 1 above 10 dB)",
              flat,
              f"dod_m improvements 10->15: {r_15:.2f}x, 15->20: {r_20:.2f}x "
              f"(need <= 1.5x)")
        assert flat

    def test_geometric_dod_flattens_supplementary_gate_music(self, paper):
        """Supplementary: the per-gate MUSIC variant of the baseline reaches
        the range-quantisation floor within the sweep, flattening instead of
        tracking the fade-failure rate."""
        report = b.monte_carlo_rmse(paper, [10.0, 15.0, 20.0], TRIALS,
                                    method="baseline", seed=ACCEPT_SEED,
                                    clutter_mode="off",
                                    baseline_gate_music=True)
        by_snr = {p.snr_db: p.rmse["dod_baseline"] for p in report.points}
        r_15 = by_snr[10.0] / by_snr[15.0]
        r_20 = by_snr[15.0] / by_snr[20.0]
        # systematic bin-quantisation floor for the three default targets
        floor = 0.138
        flat = r_20 <= 1.5 and by_snr[20.0] >= floor * 0.8
        _line("criterion 5 supplementary (gate-MUSIC DOD floor)",
              flat,
              f"improvements 10->15: {r_15:.2f}x, 15->20: {r_20:.2f}x; "
              f"dod_m(20 dB) = {by_snr[20.0]:.3f} deg vs quantisation floor "
              f"{floor:.3f} deg")
        assert flat


class TestCriterion6PropertySuites:
    def test_property_bundle_under_one_minute(self, paper):
        t0 = time.perf_counter()
        tiny = make_tiny_scenario()

        # projector idempotency and Hermitian symmetry to 1e-10
        codes_t, _ = build_waveform(tiny)
        blockers = b.build_blockers(codes_t, [(3, 1000.0)], tiny.system)
        rng = np.random.default_rng(0)
        for m in range(tiny.system.tx_count):
            v = rng.normal(size=14) + 1j * rng.normal(size=14)
            u = rng.normal(size=14) + 1j * rng.normal(size=14)
            pv = blockers.project(m, v)
            assert np.linalg.norm(blockers.project(m, pv) - pv) <= 1e-10
            assert abs(np.vdot(u, pv) - np.vdot(blockers.project(m, u), v)) <= 1e-10

        # noiseless collinearity of virtual snapshots with the projected
        # combined manifold, full scale, to 1 - 1e-8
        s1 = replace(
            paper.with_system(snr_db=float("inf"), scr_db=float("inf")),
            targets=paper.targets[:1],
        )
        cube, codes, _, _ = clean_cube(s1)
        t = cube.truth[0]
        blk = b.build_blockers(codes, [(t.delay_bins, t.doppler_hz)], s1.system)
        virtual = b.apply_virtual_extension(cube, blk)
        h = b.extended_manifold(t.doa_deg, t.dod_deg, t.delay_bins,
                                t.doppler_hz, s1, codes)
        h4 = h.reshape(5, 5, 524)
        ph = np.stack([blk.project(m, h4[m]) for m in range(5)]).reshape(-1)
        for n in range(0, 256, 15):
            v = virtual.matrix[:, n]
            cosang = abs(np.vdot(ph, v)) / (np.linalg.norm(ph) * np.linalg.norm(v))
            assert cosang >= 1 - 1e-8

        # combined response equals the explicit triple loop exactly
        h_t = b.extended_manifold(120.0, 60.0, 5, 800.0, tiny, codes_t)
        s_rx = b.spatial_manifold(tiny, "rx", 120.0)
        s_tx = b.spatial_manifold(tiny, "tx", 60.0)
        sig = b.temporal_signature(codes_t, 5, 800.0, tiny.system)
        for m in range(2):
            for i in range(2):
                for tt in range(14):
                    assert h_t[(m * 2 + i) * 14 + tt] == np.conj(s_tx[m]) * (s_rx[i] * sig[tt])

        # factorized vs materialized projectors, ambient dims <= 64
        tiny_noisy = make_tiny_scenario(snr_db=15.0)
        codes_n, symbols_n = build_waveform(tiny_noisy)
        cube_n = b.synthesize_cube(tiny_noisy, codes_n, symbols_n, np.random.default_rng(8))
        basis = est.subspace_split(est.temporal_covariance(cube_n), 1)
        p_n = np.eye(14) - basis.basis @ basis.basis.conj().T
        delays = [0, 4, 7]
        surface = b.xi1_surface(codes_n, basis, tiny_noisy.system, delays, [3000.0])
        for d, direct in zip(delays, surface[:, 0]):
            t_mat = b.transformation_matrix(codes_n, d, 3000.0, tiny_noisy.system)
            num = np.linalg.det(t_mat.conj().T @ t_mat).real
            den = np.linalg.det(t_mat.conj().T @ p_n @ t_mat).real
            assert abs(direct - num / den) <= 1e-9 * abs(num / den)
        tn = cube_n.truth[0]
        blk_n = b.build_blockers(codes_n, [(tn.delay_bins, tn.doppler_hz)],
                                 tiny_noisy.system)
        virt_n = b.apply_virtual_extension(cube_n, blk_n)
        ctx = b.prepare_xi2_context(virt_n, blk_n,
                                    [(tn.delay_bins, tn.doppler_hz)],
                                    codes_n, tiny_noisy)
        u = np.linalg.svd(virt_n.matrix, full_matrices=False)[0][:, :ctx.basis.signal_dim]
        p_nv = np.eye(u.shape[0]) - u @ u.conj().T
        p_blocks = [np.eye(14) - q @ q.conj().T for q in blk_n.bases]
        for th, tb in ((30.0, 140.0), (120.0, 60.0), (77.0, 12.0)):
            h_c = b.extended_manifold(th, tb, tn.delay_bins, tn.doppler_hz,
                                      tiny_noisy, codes_n)
            ph_c = np.concatenate([
                np.kron(np.eye(2), p_blocks[m]) @ h_c[m * 28:(m + 1) * 28]
                for m in range(2)
            ])
            num = np.linalg.norm(ph_c) ** 2
            den = (ph_c.conj() @ p_nv @ ph_c).real
            direct = b.xi2_surface(ctx, [th], [tb])[0, 0]
            assert abs(direct - num / den) <= 1e-9 * abs(num / den)

        # ellipse round trip and law-of-cosines oracle on 1e4 triangles
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            l_bi = rng.uniform(1.0, 100.0)
            r_tx = rng.uniform(0.1, 200.0)
            lo = max(1e-3, r_tx - l_bi, l_bi - r_tx) + 1e-6
            hi = r_tx + l_bi - 1e-6
            r_rx = rng.uniform(lo + (hi - lo) * 1e-6, hi)
            cos_rx = (l_bi**2 + r_rx**2 - r_tx**2) / (2 * l_bi * r_rx)
            doa = 180.0 - math.degrees(math.acos(max(-1.0, min(1.0, cos_rx))))
            got_rx, got_tx = bl.split_bistatic_range(r_tx + r_rx, l_bi, doa)
            assert abs(got_rx - r_rx) <= 1e-9 * max(1.0, r_rx)
            cos_tx = (l_bi**2 + r_tx**2 - r_rx**2) / (2 * l_bi * r_tx)
            oracle = math.degrees(math.acos(max(-1.0, min(1.0, cos_tx))))
            dod = bl.dod_from_geometry(r_tx + r_rx, l_bi, r_tx)
            assert abs(dod - oracle) <= 1e-9 * max(1.0, oracle)

        # code gram bound for both families
        for kind in ("mseq", "gold"):
            codes_k = b.generate_pn_codes(5, 15, kind, seed=1)
            gram = codes_k.chips.T @ codes_k.chips / 15
            off = np.abs(gram - np.diag(np.diag(gram)))
            assert np.all(np.abs(np.diag(gram) - 1.0) < 1e-12)
            assert off.max() <= 2.0 / 15

        elapsed = time.perf_counter() - t0
        ok = elapsed < 60.0
        _line("criterion 6 (property suites)", ok,
              f"all bounds held; runtime {elapsed:.1f} s (need < 60 s)")
        assert ok


class TestCriterion7Determinism:
    def test_byte_identical_outputs(self, paper, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}"
            result = b.run_scenario(paper, method="both", seed=11)
            b.emit_outputs(out, run=result)
            outs.append((out / "estimates.csv").read_bytes())
        runs_equal = outs[0] == outs[1]

        mcs = []
        for jobs in (1, 2):
            out = tmp_path / f"mc_{jobs}"
            report = b.monte_carlo_rmse(paper, [20.0], trials=2, method="both",
                                        seed=12, jobs=jobs)
            b.emit_outputs(out, rmse=report)
            mcs.append((out / "rmse.csv").read_bytes())
        jobs_equal = mcs[0] == mcs[1]

        ok = runs_equal and jobs_equal
        _line("criterion 7 (determinism)", ok,
              f"repeat runs identical={runs_equal}; jobs 1 vs 2 identical={jobs_equal}")
        assert ok
