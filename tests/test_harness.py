import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bmradar as b
from bmradar import cli, estimation, harness
from bmradar.cli import main as cli_main
from bmradar.harness import TargetEstimate, align_to_truth
from conftest import make_tiny_scenario


@pytest.fixture(scope="module")
def tiny_noisy():
    return make_tiny_scenario(snr_db=20.0, scr_db=float("inf"), n_s=32)


class TestRunScenario:
    def test_deterministic_repeat(self, tiny_noisy):
        r1 = b.run_scenario(tiny_noisy, method="both", seed=5)
        r2 = b.run_scenario(tiny_noisy, method="both", seed=5)
        assert r1.truth == r2.truth
        for m in r1.reports:
            assert r1.reports[m].entries == r2.reports[m].entries

    def test_distinct_seeds_differ(self, tiny_noisy):
        r1 = b.run_scenario(tiny_noisy, method="vst", seed=1)
        r2 = b.run_scenario(tiny_noisy, method="vst", seed=2)
        e1 = r1.reports["vst"].entries[0]
        e2 = r2.reports["vst"].entries[0]
        assert (e1.doppler_hz, e1.doa_deg) != (e2.doppler_hz, e2.doa_deg)

    def test_no_targets_clean_exit(self):
        # noise alone, and no noise either: estimate_k then has an all-zero
        # cube and no order to estimate
        for s, options in ((make_tiny_scenario(targets=(), snr_db=20.0), {}),
                           (make_tiny_scenario(targets=()), {"estimate_k": True})):
            result = b.run_scenario(s, method="both", seed=0, **options)
            for m in ("vst", "baseline"):
                assert result.reports[m].entries == ()

    def test_tiny_estimates_near_truth(self, tiny_noisy):
        result = b.run_scenario(tiny_noisy, method="vst", seed=3)
        t = result.truth[0]
        e = result.reports["vst"].entries[0]
        assert e.delay_bins == t.delay_bins
        assert abs(e.doppler_hz - t.doppler_hz) < 200.0  # tiny CPI, coarse bins
        assert e.doa_deg is not None and e.dod_deg is not None

    def test_method_validation(self, tiny_noisy):
        with pytest.raises(ValueError, match="method"):
            b.run_scenario(tiny_noisy, method="bogus", seed=0)

    def test_store_surfaces_shapes(self, tiny_noisy):
        result = b.run_scenario(tiny_noisy, method="vst", seed=0,
                                store_surfaces=True)
        d_grid, f_grid, surf1 = result.xi1_grid
        assert surf1.shape == (len(d_grid), len(f_grid))
        th, tb, surf2 = result.xi2_grid
        assert surf2.shape == (len(th), len(tb))

    def test_xi2_grid_sums_the_stack_the_search_scored(self, tiny_noisy, monkeypatch):
        scored = []
        xi2_surface = estimation.xi2_surface

        def spy(context, theta, theta_bar, contexts=None):
            out = xi2_surface(context, theta, theta_bar, contexts)
            scored.append((contexts, out))
            return out

        monkeypatch.setattr(estimation, "xi2_surface", spy)
        result = b.run_scenario(tiny_noisy, method="vst", seed=0, store_surfaces=True)
        # one coarse scoring, the search's per-context stack, then one
        # refine per context
        k = len(result.reports["vst"].entries)
        assert [contexts for contexts, _ in scored] == [range(k)] + [[ki] for ki in range(k)]
        assert result.xi2_grid[2].tobytes() == np.sum(scored[0][1], axis=0).tobytes()

    def test_dump_cube_flag(self, tiny_noisy, tmp_path):
        path = tmp_path / "cube.bin"
        b.run_scenario(tiny_noisy, method="vst", seed=0, dump_cube_path=path)
        loaded = b.load_cube(path)
        assert loaded.samples.shape == (32, 14, 2)

    def test_estimate_k_mode(self, tiny_noisy, monkeypatch):
        covs = []

        def capture(cube):
            covs.append(estimation.temporal_covariance(cube))
            return covs[-1]

        monkeypatch.setattr(harness, "temporal_covariance", capture)
        result = b.run_scenario(tiny_noisy, method="vst", seed=4, estimate_k=True)
        assert len(result.reports["vst"].entries) == 1
        # the Ritz values pick the order that the whole spectrum picks
        full = np.sort(np.linalg.eigvalsh(covs[0]))[::-1]
        assert estimation.estimate_signal_dim(full[:13]) == 1

    def test_baseline_failure_keeps_the_vst_report(self, paper_scenario):
        # five sources cannot be resolved by MUSIC on five Rx antennas
        both = b.run_scenario(paper_scenario, method="both", seed=1, k=5)
        alone = b.run_scenario(paper_scenario, method="vst", seed=1, k=5)
        assert both.reports["vst"].entries == alone.reports["vst"].entries
        assert all(e.doa_deg is not None for e in both.reports["vst"].entries)
        baseline = both.reports["baseline"]
        message = "ValueError: cannot resolve 5 sources with 5 antennas"
        assert baseline.metadata["error"] == message
        assert len(baseline.entries) == 5
        for e, v in zip(baseline.entries, both.reports["vst"].entries):
            assert (e.delay_bins, e.doppler_hz) == (v.delay_bins, v.doppler_hz)
            assert (e.doa_deg, e.dod_deg, e.error) == (None, None, message)

    def test_vst_failure_keeps_the_baseline_report(self, paper_scenario):
        # two PRIs give two virtual snapshots, too few for three sources
        short = paper_scenario.with_system(pris_per_cpi=2)
        both = b.run_scenario(short, method="both", seed=1)
        alone = b.run_scenario(short, method="baseline", seed=1)
        assert both.reports["baseline"].entries == alone.reports["baseline"].entries
        assert all(e.doa_deg is not None for e in both.reports["baseline"].entries)
        vst = both.reports["vst"]
        message = "ValueError: signal_dim exceeds the number of snapshots"
        assert vst.metadata["error"] == message
        assert len(vst.entries) == 3
        for e, v in zip(vst.entries, both.reports["baseline"].entries):
            assert (e.delay_bins, e.doppler_hz) == (v.delay_bins, v.doppler_hz)
            assert (e.doa_deg, e.dod_deg, e.error) == (None, None, message)

    def test_as_many_sources_as_snapshots(self, paper_scenario):
        # three PRIs, three sources: the stage-2 solve spans the whole PRI
        # gram, one exact Rayleigh-Ritz step
        result = b.run_scenario(paper_scenario.with_system(pris_per_cpi=3),
                                method="vst", seed=1)
        vst = result.reports["vst"]
        assert "error" not in vst.metadata
        got = [(round(e.doa_deg, 2), round(e.dod_deg, 2)) for e in vst.entries]
        assert got == [(149.15, 81.14), (131.83, 70.25), (98.90, 51.65)]
        assert vst.metadata["stage2"]["converged"]
        assert vst.metadata["stage2"]["restarts"] == 1

    def test_signal_dim_at_the_pri_length_fails_before_stage_1(self, tiny_noisy,
                                                               monkeypatch):
        # before synthesis, too, and with no target to look for
        calls = []
        monkeypatch.setattr(harness, "range_doppler_search",
                            lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(harness, "synthesize_cube", _no_synthesis)
        L = tiny_noisy.system.fast_time_bins
        for scenario, k in [(tiny_noisy, k) for k in (0, -1, L, L + 1)] + [
                (replace(tiny_noisy, targets=()), 0)]:
            with pytest.raises(ValueError,
                               match=rf"^k: must be in \(0, {L}\) for this scenario \(got {k}\)$"):
                b.run_scenario(scenario, method="both", seed=1, k=k)
        assert calls == []

    def test_k_with_estimate_k_is_rejected_before_synthesis(self, paper_scenario,
                                                            monkeypatch):
        monkeypatch.setattr(harness, "synthesize_cube", _no_synthesis)
        with pytest.raises(ValueError, match="k=2 and estimate_k exclude each other"):
            b.run_scenario(paper_scenario, method="both", seed=1, k=2, estimate_k=True)

    def test_negative_seed_is_rejected_before_synthesis(self, tiny_noisy, monkeypatch):
        monkeypatch.setattr(harness, "synthesize_cube", _no_synthesis)
        with pytest.raises(ValueError, match=r"^seed: must be >= 0 \(got -1\)$"):
            b.run_scenario(tiny_noisy, method="both", seed=-1)
        with pytest.raises(ValueError, match=r"^seed: must be >= 0 \(got -1\)$"):
            b.monte_carlo_rmse(tiny_noisy, [20.0], 2, seed=-1)

    @pytest.mark.parametrize("level", ["snr_db", "scr_db"])
    @pytest.mark.parametrize("value", [-1000.0, 1000.0])
    def test_levels_at_the_bound_stay_in_float_range(self, tiny_noisy, level, value):
        # the suite turns a RuntimeWarning (overflow, invalid value) into an error
        result = b.run_scenario(tiny_noisy.with_system(**{level: value}), method="both",
                                seed=1)
        assert sorted(result.reports) == ["baseline", "vst"]

    @pytest.mark.parametrize("side, kept, missing", [("rx", "dod_deg", "doa_deg"),
                                                     ("tx", "doa_deg", "dod_deg")])
    def test_one_element_array_reports_its_angle_missing(self, tiny_noisy, side, kept,
                                                         missing):
        # xi2 is flat along the angle of a one-element array, whose search
        # would return the first grid node, 0.0 degrees
        s = replace(tiny_noisy, system=replace(tiny_noisy.system, **{f"{side}_count": 1}),
                    **{f"{side}_array": b.ArrayGeometry(((0.0,), (0.0,), (0.0,)))})
        result = b.run_scenario(s, method="vst", seed=0)
        t, e = result.truth[0], result.reports["vst"].entries[0]
        assert getattr(e, missing) is None
        assert e.error == f"{missing[:3].upper()} not observable with a one-element array"
        assert abs(getattr(e, kept) - getattr(t, kept)) < 0.1
        assert e.delay_bins == t.delay_bins
        assert abs(e.doppler_hz - t.doppler_hz) < 200.0
        assert e.peak > 1.0
        assert "error" not in result.reports["vst"].metadata


def _tiny_run(nc, pulses, n_tx, n_rx, n_s, snr_db, scr_db, targets, rng_seed,
              estimate_k=False, gate_music=False, seed=0):
    """A tiny scenario and the run_scenario options to run it with.

    targets are (bistatic range as a fraction of the span from just past
    the baseline to the last delay whose code fits the PRI, range
    difference as a fraction of the baseline, DOA, DOD, velocity)."""
    last = (pulses - 1) * nc
    baseline = 0.5 * last
    specs = []
    for frac, diff, doa, dod, velocity in targets:
        r_bi = baseline + 0.01 + frac * (last - baseline - 0.01)
        delta = 0.99 * diff * baseline
        specs.append(b.TargetSpec((r_bi + delta) / 2, (r_bi - delta) / 2, doa, dod,
                                  abs(doa - dod), velocity_mps=velocity))
    system = b.SystemConfig(code_length=nc, pris_per_cpi=n_s, tx_count=n_tx,
                            rx_count=n_rx, snr_db=snr_db, scr_db=scr_db,
                            baseline_bins=baseline, pulses_per_pri=pulses,
                            unambiguous_range_bins=None)
    half_wl = 0.5 * b.SPEED_OF_LIGHT / system.carrier_frequency_hz

    def line(m):
        return b.ArrayGeometry((tuple(half_wl * np.arange(m)), (0.0,) * m, (0.0,) * m))

    scenario = b.Scenario(system=system, tx_array=line(n_tx), rx_array=line(n_rx),
                          targets=tuple(specs), rng_seed=rng_seed)
    return scenario, dict(seed=seed, estimate_k=estimate_k, baseline_gate_music=gate_music)


_FRACTION = st.floats(min_value=0.0, max_value=1.0)
_ANGLE = st.floats(min_value=0.0, max_value=180.0)


@st.composite
def tiny_runs(draw, min_targets=0):
    targets = draw(st.lists(st.tuples(_FRACTION, st.floats(min_value=-1.0, max_value=1.0),
                                      _ANGLE, _ANGLE, st.floats(min_value=-60.0,
                                                                max_value=60.0)),
                            min_size=min_targets, max_size=2))
    return _tiny_run(
        nc=draw(st.sampled_from([3, 7])), pulses=draw(st.integers(2, 4)),
        n_tx=draw(st.integers(1, 3)), n_rx=draw(st.integers(1, 3)),
        n_s=draw(st.integers(2, 16)), snr_db=draw(st.sampled_from([0.0, 20.0, math.inf])),
        scr_db=draw(st.sampled_from([-5.0, math.inf])), targets=targets,
        rng_seed=draw(st.integers(0, 2**16)), estimate_k=draw(st.booleans()),
        gate_music=draw(st.booleans()), seed=draw(st.integers(0, 2**16)))


class TestRunScenarioFuzz:
    """Tiny valid scenarios: run_scenario returns, finds too few stage-1
    peaks, or rejects the code set as a code_kind error with the code
    generator's reason, and a repeat gives the same entries."""

    @settings(max_examples=50, deadline=None)
    @given(tiny_runs())
    # an infeasible code set: two 3-chip m-sequence shifts of stride 3 coincide
    @example(_tiny_run(3, 3, 2, 2, 4, 20.0, math.inf, [(0.5, 0.0, 90.0, 60.0, 10.0)], 0))
    # no target and no noise: estimate_k on an all-zero cube
    @example(_tiny_run(7, 2, 2, 2, 8, math.inf, math.inf, [], 0, estimate_k=True))
    def test_returns_or_fails_within_contract(self, case):
        scenario, options = case
        system = scenario.system
        try:
            b.generate_pn_codes(system.tx_count, system.code_length, seed=0)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                b.run_scenario(scenario, method="both", **options)
            assert str(raised.value) == f"code_kind: {exc}"
            return
        outcomes = []
        for _ in range(2):
            try:
                result = b.run_scenario(scenario, method="both", **options)
            except estimation.PeakError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append({m: r.entries for m, r in result.reports.items()})
        assert outcomes[0] == outcomes[1]


class TestMonteCarloFuzz:
    """Tiny valid scenarios with a target: a sweep gives the same records
    and rmse.csv at jobs 1 and 2, or both raise the same error."""

    @settings(max_examples=10, deadline=None)
    @given(tiny_runs(min_targets=1))
    def test_jobs_do_not_change_the_sweep(self, case):
        scenario, options = case
        outcomes = []
        for jobs in (1, 2):
            try:
                report = b.monte_carlo_rmse(
                    scenario, [scenario.system.snr_db, 10.0], 2, seed=options["seed"],
                    jobs=jobs, clutter_mode="scenario",
                    baseline_gate_music=options["baseline_gate_music"])
            except ValueError as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
                continue
            with tempfile.TemporaryDirectory() as out:
                b.emit_outputs(out, rmse=report)
                outcomes.append((repr(report.records), (Path(out) / "rmse.csv").read_bytes()))
        assert outcomes[0] == outcomes[1]


class TestAlignToTruth:
    def test_reorders_by_angles(self):
        truth = (
            b.TargetTruth(100, 0.0, 150.0, 81.2),
            b.TargetTruth(120, 0.0, 130.0, 70.8),
        )
        entries = (
            TargetEstimate(120, 0.0, 130.1, 70.7, 1.0),
            TargetEstimate(100, 0.0, 149.9, 81.3, 2.0),
        )
        aligned = align_to_truth(truth, entries)
        assert aligned[0].doa_deg == pytest.approx(149.9)
        assert aligned[1].doa_deg == pytest.approx(130.1)

    def test_missing_entries_give_none(self):
        truth = (b.TargetTruth(100, 0.0, 150.0, 81.2),)
        assert align_to_truth(truth, ()) == [None]

    def test_angleless_entries_fall_back_to_delay(self):
        truth = (
            b.TargetTruth(100, 0.0, 150.0, 81.2),
            b.TargetTruth(200, 0.0, 130.0, 70.8),
        )
        entries = (
            TargetEstimate(199, 0.0, None, None, 0.0, error="x"),
            TargetEstimate(101, 0.0, None, None, 0.0, error="x"),
        )
        aligned = align_to_truth(truth, entries)
        assert aligned[0].delay_bins == 101
        assert aligned[1].delay_bins == 199


def _plain_rmse(report, targets, snr_idx, method, field, drop=False):
    """One RMSE of a report recomputed from its records in plain Python:
    a missing angle costs max(truth, 180 - truth), or is skipped under drop."""
    per_target = []
    for k, target in enumerate(targets):
        truth = getattr(target, field)
        sq = []
        for rec in report.records:
            if rec.snr_idx != snr_idx:
                continue
            value = getattr(rec.aligned[method][k], field, None)
            if value is None and drop:
                continue
            err = max(truth, 180.0 - truth) if value is None else value - truth
            sq.append(err * err)
        per_target.append(math.sqrt(sum(sq) / len(sq)))
    return sum(per_target) / len(per_target)


class TestMonteCarlo:
    def test_single_trial_rmse_is_absolute_error(self, tiny_noisy):
        report = b.monte_carlo_rmse(tiny_noisy, [20.0], trials=1, method="vst",
                                    seed=9)
        rec = report.records[0]
        est = rec.aligned["vst"][0]
        truth = tiny_noisy.targets[0]
        point = report.points[0]
        assert point.rmse["doa_vst"] == pytest.approx(abs(est.doa_deg - truth.doa_deg))
        assert point.rmse["dod_vst"] == pytest.approx(abs(est.dod_deg - truth.dod_deg))

    def test_jobs_do_not_change_results(self, tiny_noisy):
        r1 = b.monte_carlo_rmse(tiny_noisy, [15.0], trials=4, method="vst",
                                seed=2, jobs=1)
        r2 = b.monte_carlo_rmse(tiny_noisy, [15.0], trials=4, method="vst",
                                seed=2, jobs=2)
        assert r1.points[0].rmse == r2.points[0].rmse
        assert [r.seed for r in r1.records] == [r.seed for r in r2.records]

    @pytest.mark.parametrize("jobs, snr, trials, cores, want", [
        (8, [15.0], 3, 64, [3]),       # capped by the trial count
        (8, [10.0, 15.0], 4, 3, [3]),  # capped by the usable cores
        (2, [15.0], 1, 64, []),        # one trial: runs in this process
        (2, [15.0], 4, 1, []),         # one core: runs in this process
    ])
    def test_pool_size_is_capped(self, tiny_noisy, monkeypatch, jobs, snr, trials, cores,
                                 want):
        sizes = []

        class InProcessPool:
            """Records the pool size and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
        pooled = b.monte_carlo_rmse(tiny_noisy, snr, trials=trials, method="vst", seed=2,
                                    jobs=jobs)
        assert sizes == want
        serial = b.monte_carlo_rmse(tiny_noisy, snr, trials=trials, method="vst", seed=2)
        assert pooled.records == serial.records

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_rejected_before_any_trial(self, tiny_noisy, monkeypatch,
                                                          jobs):
        calls = []
        monkeypatch.setattr(harness, "run_scenario", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="^jobs: must be >= 1"):
            b.monte_carlo_rmse(tiny_noisy, [20.0], 2, jobs=jobs)
        assert calls == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_infeasible_code_set_raises_once(self, jobs):
        # two Tx elements, 3-chip codes: no trial can run, so none is charged
        s = make_tiny_scenario(snr_db=20.0)
        s = replace(s, system=replace(s.system, code_length=3, pulses_per_pri=3))
        with pytest.raises(ValueError, match="^code_kind: cannot derive 2 distinct cyclic"):
            b.monte_carlo_rmse(s, [10.0, 20.0], 3, method="both", jobs=jobs)

    def test_error_other_than_a_stage_1_miss_is_raised(self, tiny_noisy, monkeypatch):
        # a bug in a stage is not a missed target
        def broken(*args, **kwargs):
            raise TypeError("broken stage")

        monkeypatch.setattr(harness, "range_doppler_search", broken)
        with pytest.raises(TypeError, match="broken stage"):
            b.monte_carlo_rmse(tiny_noisy, [20.0], 2, method="both")

    def test_trial_seeds_unique_and_deterministic(self, tiny_noisy):
        r = b.monte_carlo_rmse(tiny_noisy, [10.0, 20.0], trials=3, method="vst",
                               seed=4)
        seeds = [rec.seed for rec in r.records]
        assert len(set(seeds)) == len(seeds)
        r2 = b.monte_carlo_rmse(tiny_noisy, [10.0, 20.0], trials=3, method="vst",
                                seed=4)
        assert seeds == [rec.seed for rec in r2.records]

    def test_sweep_without_targets_is_rejected_before_any_trial(
            self, paper_scenario, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_scenario", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="targets"):
            b.monte_carlo_rmse(replace(paper_scenario, targets=()), [20.0], 2)
        assert calls == []

    def test_sweep_without_snr_points_is_rejected_before_any_trial(
            self, paper_scenario, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_scenario", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="^snr_db: needs at least one SNR point"):
            b.monte_carlo_rmse(paper_scenario, [], 2)
        assert calls == []

    def test_clutter_mode_scenario_keeps_level(self):
        s = make_tiny_scenario(snr_db=20.0, scr_db=0.0, n_s=32)
        r = b.monte_carlo_rmse(s, [20.0], trials=1, method="vst", seed=1,
                               clutter_mode="scenario")
        assert r.clutter_mode == "scenario"
        assert r.points[0].rmse["doa_vst"] >= 0.0

    def test_worst_case_failure_convention(self):
        # a scenario that cannot yield two range peaks: failures get the
        # grid-extent error unless dropped
        s = make_tiny_scenario(snr_db=20.0, scr_db=float("inf"), n_s=32)
        two = replace(s, targets=(s.targets[0], s.targets[0]))
        r = b.monte_carlo_rmse(two, [20.0], trials=1, method="vst", seed=0)
        assert r.points[0].failures["vst"] > 0
        worst_doa = max(120.0, 180.0 - 120.0)
        assert r.points[0].rmse["doa_vst"] >= worst_doa / 2  # averaged over 2 targets
        # a mix of charged misses and estimates: one Rx antenna fails the
        # baseline, the v-ST estimates still count
        one_rx = replace(s, system=replace(s.system, rx_count=1),
                         rx_array=b.ArrayGeometry(((0.0,), (0.0,), (0.0,))))
        for scen in (two, one_rx):
            report = b.monte_carlo_rmse(scen, [20.0, 10.0], trials=3, method="both",
                                        seed=0)
            for idx, point in enumerate(report.points):
                for m in ("vst", "baseline"):
                    for p in ("doa", "dod"):
                        want = _plain_rmse(report, scen.targets, idx, m, f"{p}_deg")
                        assert point.rmse[f"{p}_{m}"] == pytest.approx(want, rel=1e-12)
        r_drop = b.monte_carlo_rmse(two, [20.0], trials=1, method="vst", seed=0,
                                    drop_failures=True)
        assert math.isnan(r_drop.points[0].rmse["doa_vst"])

    def test_bootstrap_matches_the_plain_loop(self, paper_scenario):
        # 24 trials: past numpy's 8-way unrolled block, so summing over
        # trials in another order shows in the last bits; the 0 dB point
        # charges one baseline miss
        scen = paper_scenario.with_system(pris_per_cpi=16, unambiguous_range_bins=130)
        trials = 24
        r = b.monte_carlo_rmse(scen, [20.0, 0.0], trials=trials, method="both", seed=3)
        rng = np.random.default_rng(np.random.SeedSequence([harness._MC_DOMAIN, 3, 0xB007]))
        for idx, point in enumerate(r.points):
            recs = r.records[idx * trials:(idx + 1) * trials]
            for m in ("vst", "baseline"):
                for p in ("doa", "dod"):
                    sq = []
                    for k, target in enumerate(scen.targets):
                        truth = getattr(target, f"{p}_deg")
                        ests = [getattr(rec.aligned[m][k], f"{p}_deg", None) for rec in recs]
                        errs = [max(truth, 180.0 - truth) if e is None else e - truth
                                for e in ests]
                        sq.append(np.array([err * err for err in errs]))
                    draws = rng.integers(0, trials, size=(200, trials))
                    samples = [np.mean([math.sqrt(v[d].mean()) for v in sq]) for d in draws]
                    assert point.bootstrap_std[f"{p}_{m}"] == float(np.std(samples))
                    assert point.rmse[f"{p}_{m}"] == float(
                        np.mean([math.sqrt(v.mean()) for v in sq]))

    def test_drop_failures_with_one_target_missed(self, paper_scenario, monkeypatch):
        # target 1 of the first trial loses its angles, targets 0 and 2 keep
        # theirs: the kept trial counts differ between targets
        calls = []

        def drop_first_target_1(truth, entries):
            aligned = align_to_truth(truth, entries)
            if not calls:
                aligned[1] = replace(aligned[1], doa_deg=None, dod_deg=None)
            calls.append(1)
            return aligned

        monkeypatch.setattr("bmradar.harness.align_to_truth", drop_first_target_1)
        r = b.monte_carlo_rmse(paper_scenario, [20.0], trials=3, method="vst", seed=0,
                               drop_failures=True)
        point = r.points[0]
        assert point.failures == {"vst": 2}
        for p in ("doa", "dod"):
            assert math.isfinite(point.rmse[f"{p}_vst"])
            assert math.isfinite(point.bootstrap_std[f"{p}_vst"])
            want = _plain_rmse(r, paper_scenario.targets, 0, "vst", f"{p}_deg", drop=True)
            assert point.rmse[f"{p}_vst"] == pytest.approx(want, rel=1e-12)

    def test_baseline_failure_is_recorded_per_method(self, tmp_path, tiny_noisy):
        # one Rx antenna: the baseline's MUSIC cannot resolve even one
        # source, from the whole cube or from one despread gate (whose 1 x 1
        # covariance would put +inf at the first grid node); the v-ST
        # estimate still counts
        s = replace(tiny_noisy, system=replace(tiny_noisy.system, rx_count=1),
                    rx_array=b.ArrayGeometry(((0.0,), (0.0,), (0.0,))))
        for gate_music in (False, True):
            r = b.monte_carlo_rmse(s, [20.0], trials=1, method="both", seed=0,
                                   baseline_gate_music=gate_music)
            rec = r.records[0]
            assert rec.failed == {
                "baseline": "ValueError: cannot resolve 1 sources with 1 antennas"}
            assert rec.aligned["vst"][0].dod_deg is not None
            # v-ST cannot observe the DOA with one Rx antenna; its DOD counts
            assert rec.aligned["vst"][0].doa_deg is None
            assert r.points[0].failures == {"vst": 1, "baseline": 2}
            b.emit_outputs(tmp_path, rmse=r)
            with (tmp_path / "failures.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            assert [row["method"] for row in rows] == ["baseline"]

    def test_vst_failure_is_recorded_per_method(self, tmp_path, paper_scenario):
        short = paper_scenario.with_system(pris_per_cpi=2)
        r = b.monte_carlo_rmse(short, [20.0], trials=1, method="both", seed=0)
        rec = r.records[0]
        assert rec.failed == {
            "vst": "ValueError: signal_dim exceeds the number of snapshots"}
        assert all(e.dod_deg is not None for e in rec.aligned["baseline"])
        assert r.points[0].failures == {"vst": 6, "baseline": 0}
        b.emit_outputs(tmp_path, rmse=r)
        with (tmp_path / "failures.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["method"] for row in rows] == ["vst"]


class TestEmitOutputs:
    def test_estimates_csv_shape(self, tiny_noisy, tmp_path):
        result = b.run_scenario(tiny_noisy, method="both", seed=1)
        written = b.emit_outputs(tmp_path, run=result)
        est_csv = tmp_path / "estimates.csv"
        assert est_csv in written
        lines = est_csv.read_text().splitlines()
        assert lines[0].startswith("method,target,delay_true_bins")
        assert len(lines) == 1 + 2 * len(tiny_noisy.targets)

    def test_empty_report_headers_only(self, tmp_path):
        s = make_tiny_scenario(targets=(), snr_db=20.0)
        result = b.run_scenario(s, method="vst", seed=0)
        b.emit_outputs(tmp_path, run=result)
        lines = (tmp_path / "estimates.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_rmse_csv_columns(self, tiny_noisy, tmp_path):
        report = b.monte_carlo_rmse(tiny_noisy, [10.0, 20.0], trials=2,
                                    method="both", seed=3)
        b.emit_outputs(tmp_path, rmse=report)
        lines = (tmp_path / "rmse.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert "rmse_doa_vst_deg" in header
        assert "rmse_dod_baseline_deg" in header
        assert "failures_vst" in header
        assert len(lines) == 3

    def test_byte_identical_reruns(self, tiny_noisy, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            result = b.run_scenario(tiny_noisy, method="both", seed=7)
            report = b.monte_carlo_rmse(tiny_noisy, [12.0], trials=2,
                                        method="both", seed=7)
            b.emit_outputs(out, run=result, rmse=report)
        for name in ("estimates.csv", "rmse.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_failures_csv_lists_failed_trials(self, tiny_noisy, tmp_path):
        # the two-peak scenario of test_worst_case_failure_convention
        two = replace(tiny_noisy, targets=(tiny_noisy.targets[0],) * 2)
        report = b.monte_carlo_rmse(two, [20.0], trials=1, method="both", seed=0)
        written = b.emit_outputs(tmp_path / "failed", rmse=report)
        path = tmp_path / "failed" / "failures.csv"
        assert path in written
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["snr_db", "trial", "seed", "method", "message"]
        rec = report.records[0]
        assert [row[:4] for row in rows[1:]] == [
            ["20", "0", str(rec.seed), "baseline"], ["20", "0", str(rec.seed), "vst"],
        ]
        assert [row[4] for row in rows[1:]] == [rec.failed["baseline"], rec.failed["vst"]]
        assert rows[1][4].startswith("PeakError: found only 1 of 2")

        clean = b.monte_carlo_rmse(tiny_noisy, [20.0], trials=1, method="vst", seed=0)
        written = b.emit_outputs(tmp_path / "clean", rmse=clean)
        assert not (tmp_path / "clean" / "failures.csv").exists()
        assert all(p.name != "failures.csv" for p in written)

    def test_run_json_carries_config(self, tiny_noisy, tmp_path):
        result = b.run_scenario(tiny_noisy, method="vst", seed=1)
        b.emit_outputs(tmp_path, run=result, extra_config={"note": 1})
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["run"]["seed"] == 1
        assert doc["config"]["note"] == 1
        # scipy runs no code of a run, so its version cannot affect an output
        assert sorted(doc["versions"]) == ["bmradar", "numpy"]

    def test_run_json_records_the_thread_context(self, tiny_noisy, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        b.emit_outputs(tmp_path, run=b.run_scenario(tiny_noisy, method="vst", seed=1))
        threads = json.loads((tmp_path / "run.json").read_text())["threads"]
        assert set(threads) == {"usable_cores", "OPENBLAS_NUM_THREADS",
                                "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert isinstance(threads["usable_cores"], int) and threads["usable_cores"] >= 1
        assert threads["OMP_NUM_THREADS"] == "1"
        assert threads["OPENBLAS_NUM_THREADS"] is None
        assert threads["MKL_NUM_THREADS"] is None

    def test_crlf_line_endings(self, tiny_noisy, tmp_path):
        result = b.run_scenario(tiny_noisy, method="vst", seed=1)
        b.emit_outputs(tmp_path, run=result)
        raw = (tmp_path / "estimates.csv").read_bytes()
        assert b"\r\n" in raw


def _long_column_grid_csv(path, header, axis0, axis1, cost):
    """Reference surface writer: meshgrid columns, one csv.writer row each."""
    columns = [*np.meshgrid(axis0, axis1, indexing="ij"), cost]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*(c.ravel().tolist() for c in columns)):
            writer.writerow([harness._fmt(v) for v in row])


# costs that spell differently under careless formatting: specials, the
# extremes, and values that round at the 12th significant digit
_AWKWARD_COSTS = np.array([
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1234567890125,
    1.0000000000005, 9.9999999999995, 123456789012.5, 999999999999.5,
    2.5e-5, -1 / 3, 0.0, 1e16,
])


class TestRuntimeDependencies:
    def test_runs_sweeps_and_outputs_never_import_scipy(self, tiny_noisy, tmp_path):
        # scipy is a test-only dependency; a fresh interpreter sees whether
        # any module of the package, or a lazy import inside a function,
        # loads it
        scenario_path = tmp_path / "tiny.json"
        b.save_scenario(tiny_noisy, scenario_path)
        script = f"""
import sys
import bmradar as b
import bmradar.cli
s = b.load_scenario({str(scenario_path)!r})
run = b.run_scenario(s, method="both", seed=0)
rmse = b.monte_carlo_rmse(s, [20.0], trials=1, method="both", seed=0)
b.emit_outputs({str(tmp_path / "out")!r}, run=run, rmse=rmse)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert (tmp_path / "out" / "rmse.csv").exists()


class TestStage1Diagnostics:
    KEYS = {"ritz_values", "signal_dim", "gap", "restarts", "residual", "converged"}

    def test_reports_and_run_json_carry_the_solve(self, tiny_noisy, tmp_path):
        result = b.run_scenario(tiny_noisy, method="both", seed=1)
        meta = result.reports["vst"].metadata["stage1"]
        assert result.reports["baseline"].metadata["stage1"] == meta
        assert set(meta) == self.KEYS
        ritz = meta["ritz_values"]
        assert len(ritz) == 2 and ritz[0] >= ritz[1] > 0
        assert meta["gap"] == ritz[0] / ritz[1]
        assert meta["converged"] and meta["restarts"] >= 1
        assert meta["residual"] <= 1e-13
        b.emit_outputs(tmp_path, run=result)
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["run"]["stage1"] == meta

    def test_diagnostics_stay_out_of_the_csvs(self, tiny_noisy, tmp_path):
        result = b.run_scenario(tiny_noisy, method="both", seed=2, store_surfaces=True)
        bare = replace(result, reports={m: replace(r, metadata={})
                                        for m, r in result.reports.items()})
        written = b.emit_outputs(tmp_path / "with", run=result)
        b.emit_outputs(tmp_path / "bare", run=bare)
        csvs = [p.name for p in written if p.suffix == ".csv"]
        assert csvs
        for name in csvs:
            assert (tmp_path / "with" / name).read_bytes() == \
                (tmp_path / "bare" / name).read_bytes()

    def test_unconverged_solve_is_reported_not_raised(self, paper_scenario, monkeypatch):
        # a noise-only CPI has no gap; with the cap cut to 2 restarts the
        # solve stops short, and the run reports it and goes on, the same
        # way every time
        monkeypatch.setattr(estimation, "_KRYLOV_MAX_RESTARTS", 2)
        scenario = replace(paper_scenario, targets=()).with_system(
            snr_db=0.0, scr_db=float("inf"))
        metas = [b.run_scenario(scenario, method="baseline", seed=5, k=3)
                 .reports["baseline"].metadata["stage1"] for _ in range(2)]
        assert metas[0] == metas[1]
        assert metas[0]["converged"] is False and metas[0]["restarts"] == 2
        assert metas[0]["residual"] > 1e-13
        assert 1.0 <= metas[0]["gap"] < 1.1


class TestStage2Diagnostics:
    def test_vst_report_and_run_json_carry_the_solve(self, tiny_noisy, tmp_path):
        result = b.run_scenario(tiny_noisy, method="both", seed=1)
        meta = result.reports["vst"].metadata["stage2"]
        assert "stage2" not in result.reports["baseline"].metadata
        assert set(meta) == TestStage1Diagnostics.KEYS
        ritz = meta["ritz_values"]
        assert meta["signal_dim"] == 1 and len(ritz) == 2 and ritz[0] >= ritz[1] > 0
        assert meta["gap"] == ritz[0] / ritz[1]
        assert meta["converged"] and meta["restarts"] >= 1
        assert meta["residual"] <= 1e-13
        b.emit_outputs(tmp_path, run=result)
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["run"]["stage2"] == meta
        assert doc["run"]["stage1"] == result.reports["vst"].metadata["stage1"]

    def test_unconverged_solve_is_reported_not_raised(self, paper_scenario, monkeypatch):
        # at 0 dB the PRI-gram solve needs more than two restarts: with
        # the cap cut to 2 it stops short, and the run reports it and goes on
        monkeypatch.setattr(estimation, "_KRYLOV_MAX_RESTARTS", 2)
        scenario = paper_scenario.with_system(snr_db=0.0, scr_db=float("inf"))
        reports = [b.run_scenario(scenario, method="vst", seed=5).reports["vst"]
                   for _ in range(2)]
        assert reports[0].metadata == reports[1].metadata
        assert reports[0].entries == reports[1].entries
        meta = reports[0].metadata["stage2"]
        assert meta["converged"] is False and meta["restarts"] == 2
        assert meta["residual"] > 1e-13
        assert all(e.doa_deg is not None for e in reports[0].entries)


class TestNoFullEigendecomposition:
    def test_no_fast_time_covariance_reaches_eigh(self, paper_scenario, monkeypatch):
        # stage 1, estimate_k, the baseline's MUSIC and the stage-2 PRI gram
        # take their subspaces from the block Krylov solver; only its small
        # Rayleigh-Ritz matrices are ever fully decomposed
        shapes = []
        real_eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        b.run_scenario(paper_scenario, method="both", seed=3)
        b.run_scenario(paper_scenario, method="both", seed=3, estimate_k=True)
        L = paper_scenario.system.fast_time_bins
        assert shapes  # the spy sees the package's calls
        assert all(shape[-1] < L for shape in shapes), shapes

    def test_no_pri_gram_reaches_eigh(self, paper_scenario, monkeypatch):
        # the stage-2 basis comes from the same solver: the 256 x 256 PRI
        # gram is never fully decomposed
        shapes = []
        real_eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        result = b.run_scenario(paper_scenario, method="vst", seed=3)
        assert "error" not in result.reports["vst"].metadata
        n_s = paper_scenario.system.pris_per_cpi
        assert shapes
        assert all(shape[-1] < n_s for shape in shapes), shapes


class TestGridCsv:
    HEADER = ["delay_bins", "doppler_hz", "cost"]

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (0, 4), (4, 0), (0, 0),
                                       (5, 9)])
    @pytest.mark.parametrize("axis0_kind", ["int", "float"])
    def test_bytes_equal_the_long_column_writer(self, tmp_path, shape, axis0_kind):
        n0, n1 = shape
        axis0 = (np.arange(n0) * 3 + 2 if axis0_kind == "int"
                 else np.linspace(-0.0, 180.0, n0) / 7)
        axis1 = np.linspace(-250.0, 250.0, n1) / 3
        cost = np.resize(_AWKWARD_COSTS, shape)
        harness._write_grid_csv(tmp_path / "new.csv", self.HEADER, axis0, axis1, cost)
        _long_column_grid_csv(tmp_path / "ref.csv", self.HEADER, axis0, axis1, cost)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_full_grid_memory_is_bounded(self, tmp_path):
        import tracemalloc

        rng = np.random.default_rng(0)
        axis0, axis1 = np.arange(510), np.linspace(-500.0, 500.0, 257)
        cost = rng.random((510, 257)) * 10.0 ** rng.integers(-8, 8, (510, 257))
        tracemalloc.start()
        try:
            harness._write_grid_csv(tmp_path / "g.csv", self.HEADER, axis0, axis1, cost)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6  # the long-column writer needs about 15 MB here
        _long_column_grid_csv(tmp_path / "ref.csv", self.HEADER, axis0, axis1, cost)
        assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _no_synthesis(*args, **kwargs):
    raise AssertionError("a usage error must stop the command before synthesis")


class TestCli:
    def _write_tiny(self, tmp_path):
        s = make_tiny_scenario(snr_db=20.0, scr_db=float("inf"), n_s=32)
        path = tmp_path / "tiny.json"
        b.save_scenario(s, path)
        return path

    def test_run_subcommand(self, tmp_path, capsys):
        scen = self._write_tiny(tmp_path)
        out = tmp_path / "out"
        rc = cli_main(["run", "--scenario", str(scen), "--seed", "1",
                       "--out", str(out), "--method", "vst"])
        assert rc == 0
        assert (out / "estimates.csv").exists()
        assert (out / "run.json").exists()

    def test_run_dump_cube(self, tmp_path):
        scen = self._write_tiny(tmp_path)
        out = tmp_path / "out"
        cube_path = tmp_path / "cube.bin"
        cli_main(["run", "--scenario", str(scen), "--out", str(out),
                  "--dump-cube", str(cube_path)])
        assert cube_path.exists()
        assert cube_path.with_suffix(".bin.json").exists()

    def test_mc_subcommand_jobs_identical(self, tmp_path):
        scen = self._write_tiny(tmp_path)
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"mc{jobs}"
            rc = cli_main(["mc", "--scenario", str(scen), "--snr", "10,20",
                           "--trials", "2", "--seed", "3", "--jobs", jobs,
                           "--out", str(out), "--method", "vst"])
            assert rc == 0
            outs.append((out / "rmse.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag", [["--known-k", "2"], ["--estimate-k"]])
    def test_mc_rejects_target_count_flags(self, tmp_path, capsys, flag):
        scen = self._write_tiny(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["mc", "--scenario", str(scen), "--trials", "1",
                      "--out", str(tmp_path / "mc"), *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()

    @pytest.mark.parametrize("flag", [["--method", "vst"], ["--gate-music"]])
    def test_grids_rejects_estimator_flags(self, tmp_path, capsys, monkeypatch, flag):
        # grids always runs v-ST: an estimator flag would be silently ignored
        monkeypatch.setattr(harness, "synthesize_cube", _no_synthesis)
        scen = self._write_tiny(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["grids", "--scenario", str(scen), "--out", str(tmp_path / "out"),
                      *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "grids"])
    def test_too_few_stage1_peaks_is_one_error_line(self, tmp_path, capsys, command):
        # every delay of the tiny scenario lies within one code length of
        # every other, so stage 1 fits one peak
        scen = self._write_tiny(tmp_path)
        rc = cli_main([command, "--scenario", str(scen), "--out", str(tmp_path / "out"),
                       "--known-k", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("radar: error: found only 1 of 2")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "mc", "grids"])
    @pytest.mark.parametrize("flag, value, field", [
        ("--angle-refine-step", "0", "angle_refine_step_deg"),
        ("--angle-step", "0", "angle_step_deg"),
        ("--angle-step", "-0.5", "angle_step_deg"),
        ("--angle-step", "nan", "angle_step_deg"),
        ("--doppler-step", "-1", "doppler_hz"),
        ("--doppler-step", "0", "doppler_hz"),
        ("--doppler-step", "inf", "doppler_hz"),
        # too fine to advance the axis: np.arange's node count would overflow
        ("--angle-step", "1e-300", "angle_step_deg"),
        ("--angle-refine-step", "1e-300", "angle_refine_step_deg"),
        ("--doppler-step", "1e-300", "doppler_hz"),
    ])
    def test_bad_grid_step_is_a_usage_error(self, tmp_path, capsys, command, flag, value,
                                            field):
        scen = self._write_tiny(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--scenario", str(scen), "--out", str(tmp_path / "out"),
                      flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {field}:" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "grids"])
    @pytest.mark.parametrize("value", ["0", "-1", "14"])
    def test_known_k_outside_the_fast_time_span_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, command, value):
        # the tiny scenario has 14 fast-time bins: k must lie in (0, 14)
        monkeypatch.setattr(harness, "synthesize_cube", _no_synthesis)
        scen = self._write_tiny(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--scenario", str(scen), "--out", str(tmp_path / "out"),
                      "--known-k", value])
        assert exc.value.code == 2
        assert "argument --known-k: k: must be in (0, 14)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, message", [
        (["--trials", "0"], "argument --trials: must be >= 1"),
        (["--trials", "-3"], "argument --trials: must be >= 1"),
        (["--snr", "abc"], "argument --snr: not a comma-separated list of numbers"),
        (["--snr", "10,x"], "argument --snr: not a comma-separated list of numbers"),
        (["--snr", ","], "argument --snr: needs at least one SNR point"),
        (["--snr", ""], "argument --snr: needs at least one SNR point"),
        (["--snr", "10,nan"], "argument --snr: must be within [-1000, 1000] dB or +inf"),
        (["--snr=-inf"], "argument --snr: must be within [-1000, 1000] dB or +inf"),
        (["--jobs", "0"], "argument --jobs: must be >= 1"),
        (["--jobs", "-1"], "argument --jobs: must be >= 1"),
        # past the level bound, synthesis would overflow
        (["--snr", "10,4000"], "argument --snr: must be within [-1000, 1000] dB or +inf"),
        (["--snr", "1e308"], "argument --snr: must be within [-1000, 1000] dB or +inf"),
    ])
    def test_bad_sweep_flag_is_a_usage_error(self, tmp_path, capsys, monkeypatch, args,
                                             message):
        monkeypatch.setattr(harness, "synthesize_cube", _no_synthesis)
        scen = self._write_tiny(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["mc", "--scenario", str(scen), "--out", str(tmp_path / "out"), *args])
        assert exc.value.code == 2
        # a library rule's message, led by its field, follows the flag;
        # the list parse is radar's own and names no field
        flag, rule = message.split(": ", 1)
        if not rule.startswith("not a comma-separated"):
            field = {"--trials": "trials", "--jobs": "jobs", "--snr": "snr_db"}[flag.split()[1]]
            rule = f"{field}: {rule}"
        assert f"{flag}: {rule}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grids_subcommand(self, tmp_path, monkeypatch):
        runs = []

        def keep_run(out_dir, run=None, **kwargs):
            runs.append(run)
            return harness.emit_outputs(out_dir, run=run, **kwargs)

        monkeypatch.setattr(cli, "emit_outputs", keep_run)
        scen = self._write_tiny(tmp_path)
        out = tmp_path / "grids"
        rc = cli_main(["grids", "--scenario", str(scen), "--out", str(out),
                       "--angle-step", "5.0"])
        assert rc == 0
        for name, header, surface in (
            ("xi1_grid.csv", ["delay_bins", "doppler_hz", "cost"], runs[0].xi1_grid),
            ("xi2_grid.csv", ["doa_deg", "dod_deg", "cost"], runs[0].xi2_grid),
        ):
            lines = (out / name).read_text().splitlines()
            assert len(lines) > 10
            _long_column_grid_csv(tmp_path / name, header, *surface)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("command", ["run", "mc", "grids"])
    def test_bad_scenario_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(harness, "synthesize_cube", _no_synthesis)
        doc = json.loads(self._write_tiny(tmp_path).read_text())
        doc["system"]["code_length"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        missing = tmp_path / "missing.json"
        for path, message in ((bad, "code_length: must be >= 1"),
                              (missing, f"{missing}: ")):
            with pytest.raises(SystemExit) as exc:
                cli_main([command, "--scenario", str(path), "--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            last = capsys.readouterr().err.splitlines()[-1]
            assert last.startswith(f"radar: error: argument --scenario: {message}")
            assert not (tmp_path / "out").exists()

    def test_mc_without_targets_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "synthesize_cube", _no_synthesis)
        scen = tmp_path / "no-targets.json"
        b.save_scenario(make_tiny_scenario(targets=()), scen)
        with pytest.raises(SystemExit) as exc:
            cli_main(["mc", "--scenario", str(scen), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "radar: error: argument --scenario: targets: angle RMSE needs at least "
            "one target")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "mc", "grids"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(harness, "synthesize_cube", _no_synthesis)
        scen = self._write_tiny(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--scenario", str(scen), "--out", str(tmp_path / "out"),
                      "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: seed: must be >= 0 (got -1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "mc", "grids"])
    @pytest.mark.parametrize("kind, message", [
        ("mseq", "cannot derive 2 distinct cyclic shifts with stride 3 from a length-3"),
        ("gold", "no second polynomial available for degree 2"),
    ], ids=["mseq", "gold"])
    def test_infeasible_code_set_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                  command, kind, message):
        # two Tx elements, 3-chip codes: the code set does not exist
        monkeypatch.setattr(harness, "synthesize_cube", _no_synthesis)
        s = make_tiny_scenario()
        s = replace(s, system=replace(s.system, code_length=3, pulses_per_pri=3))
        scen = tmp_path / "short-codes.json"
        b.save_scenario(s, scen)
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--scenario", str(scen), "--out", str(tmp_path / "out"),
                      "--code-kind", kind])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"radar: error: argument --code-kind: code_kind: {message}")
        assert not (tmp_path / "out").exists()

    def test_default_scenario_is_bundled(self, tmp_path):
        # no --scenario: the bundled configuration loads (smoke, k=0 runs fast)
        from bmradar.cli import _load

        class _Args:
            scenario = None

        assert _load(_Args()) == b.default_scenario()
