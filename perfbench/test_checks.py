"""Self-tests of the benchmark's checks and tracer.

Each check must pass on the program's real output and reject the same
output with one small corruption: a delay off by one bin, an RMSE
nudged by 1e-6, a surface value scaled by 1 + 1e-6.  Uses a tiny
scenario so the whole file runs in a few seconds:

    PYTHONPATH=src python -m pytest perfbench/test_checks.py -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bmradar as b  # noqa: E402
from bmradar import estimation, harness, scenario as scenario_mod  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NUDGE = 1e-6


def tiny_scenario(snr_db=20.0):
    """Two antennas per side, 7-chip codes, 14-bin PRI, one target."""
    system = b.SystemConfig(code_length=7, pris_per_cpi=16, tx_count=2, rx_count=2,
                            snr_db=snr_db, scr_db=float("inf"), baseline_bins=3.0,
                            pulses_per_pri=2, unambiguous_range_bins=None)
    half_wl = 0.5 * b.SPEED_OF_LIGHT / system.carrier_frequency_hz
    geom = b.ArrayGeometry(((0.0, half_wl), (0.0, 0.0), (0.0, 0.0)))
    target = b.TargetSpec(2, 3, doa_deg=120.0, dod_deg=60.0, bistatic_angle_deg=40.0,
                          velocity_mps=100.0)
    return b.Scenario(system=system, tx_array=geom, rx_array=geom, targets=(target,))


@pytest.fixture(scope="module")
def tiny():
    scen = tiny_scenario()
    return scen, checks.truth_from_json(scenario_mod.scenario_to_dict(scen))


@pytest.fixture(scope="module")
def tiny_run(tiny):
    scen, _ = tiny
    return b.run_scenario(scen, method="both", seed=3, store_surfaces=True)


def test_truth_oracle_matches_acceptance_table():
    doc = scenario_mod.scenario_to_dict(b.default_scenario())
    truth = checks.truth_from_json(doc)
    assert [t[0] for t in truth] == [152, 189, 228]
    assert np.allclose([t[1] for t in truth], [-429.37, 150.84, 475.94], atol=0.05)


def test_truth_check_rejects_delay_off_by_one(tiny, tiny_run):
    _, truth = tiny
    assert checks.check_truth(truth, tiny_run.truth) == []
    bad = [replace(tiny_run.truth[0], delay_bins=tiny_run.truth[0].delay_bins + 1)]
    assert checks.check_truth(truth, bad)


def test_criteria_rates_reject_delay_off_by_one():
    truth = [(152, -429.37, 150.0, 81.2), (189, 150.84, 130.0, 70.83)]
    good = [[(d, f) for d, f, _, _ in truth] for _ in range(8)]
    assert checks.check_criteria_rates(good, truth) == []
    bad = [list(cpi) for cpi in good]
    bad[3][0] = (truth[0][0] + 1, truth[0][1])
    assert any("criterion 2" in p for p in checks.check_criteria_rates(bad, truth))
    slow = [list(cpi) for cpi in good]
    slow[0][1] = (truth[1][0], truth[1][1] + 2.5)
    assert any("criterion 3a" in p for p in checks.check_criteria_rates(slow, truth))


def test_estimates_csv_check_rejects_delay_off_by_one(tiny, tiny_run, tmp_path):
    _, truth = tiny
    b.emit_outputs(tmp_path, run=tiny_run)
    data = (tmp_path / "estimates.csv").read_bytes()
    run = {m: workloads.aligned_tuples(tiny_run, m) for m in tiny_run.reports}
    assert checks.check_estimates_csv(data, run, truth) == []
    d = run["vst"][0][0]
    bad = {**run, "vst": [(d + 1,) + run["vst"][0][1:]]}
    assert checks.check_estimates_csv(data, bad, truth)


@pytest.fixture(scope="module")
def tiny_report(tiny):
    scen, _ = tiny
    return b.monte_carlo_rmse(scen, [0.0, 20.0], trials=3, method="both", seed=5)


def _nudged(report, key):
    point = report.points[0]
    rmse = {**point.rmse, key: point.rmse[key] * (1 + NUDGE)}
    return replace(report, points=(replace(point, rmse=rmse),) + report.points[1:])


@pytest.mark.parametrize("key", ["doa_vst", "dod_vst", "doa_baseline", "dod_baseline"])
def test_rmse_recomputation_rejects_nudge(tiny, tiny_report, key):
    scen, _ = tiny
    assert checks.check_rmse_points(tiny_report, scen.targets) == []
    assert checks.check_rmse_points(_nudged(tiny_report, key), scen.targets)


def test_rmse_csv_check_rejects_nudge(tiny_report, tmp_path):
    b.emit_outputs(tmp_path, rmse=tiny_report)
    data = (tmp_path / "rmse.csv").read_bytes()
    assert checks.check_rmse_csv(data, tiny_report) == []
    assert checks.check_rmse_csv(data, _nudged(tiny_report, "dod_vst"))


def test_sweep_order_rejects_baseline_win():
    def point(snr, vst, base):
        rmse = {"doa_vst": vst, "dod_vst": vst, "doa_baseline": base, "dod_baseline": base}
        return harness.RmsePoint(snr, rmse, {}, {})

    good = [point(0.0, 1.0, 5.0), point(20.0, 0.1, 0.5)]
    assert checks.check_sweep_order(good) == []
    assert checks.check_sweep_order([point(0.0, 1.0, 5.0), point(20.0, 0.5, 0.5 * (1 - NUDGE))])
    assert checks.check_sweep_order([point(0.0, 1.0, 5.0), point(20.0, 1.0, 5.0)])


def _tiny_cube(scen):
    codes = b.extend_codes(b.generate_pn_codes(2, 7, "mseq", seed=1), scen.system.fast_time_bins)
    symbols = b.generate_symbols(scen.system.pris_per_cpi, seed=2)
    cube = b.synthesize_cube(scen, codes, symbols, np.random.default_rng(4))
    return codes, cube


def _scaled(values: dict) -> dict:
    key = next(iter(values))
    return {**values, key: values[key] * (1 + NUDGE)}


def test_xi1_oracle_and_rejection(tiny):
    scen, _ = tiny
    codes, cube = _tiny_cube(scen)
    grid = estimation.default_grid(scen)
    basis = estimation.subspace_split(estimation.temporal_covariance(cube), 1)
    surface = estimation.xi1_surface(codes, basis, scen.system, grid.range_bins,
                                     grid.doppler_hz)
    own_basis = checks.fast_time_signal_basis(cube.samples, 1)
    points = [(i, j) for i in range(surface.shape[0]) for j in range(0, surface.shape[1], 4)]
    got = {p: surface[p] for p in points}
    want = {(i, j): checks.xi1_direct(codes.chips, own_basis, int(grid.range_bins[i]),
                                      float(grid.doppler_hz[j]), scen.system.chip_period_s)
            for i, j in points}
    assert checks.check_surface_values("xi1", got, want) == []
    assert checks.check_surface_values("xi1", _scaled(got), want)


def test_xi2_oracle_and_rejection(tiny):
    scen, _ = tiny
    codes, cube = _tiny_cube(scen)
    t = cube.truth[0]
    estimates = [(t.delay_bins, t.doppler_hz)]
    blockers = b.build_blockers(codes, estimates, scen.system)
    virtual = b.apply_virtual_extension(cube, blockers)
    context = b.prepare_xi2_context(virtual, blockers, estimates, codes, scen)
    theta = np.array([30.0, 120.0, 77.5])
    theta_bar = np.array([60.0, 140.0])
    surface = b.xi2_surface(context, theta, theta_bar)
    u = checks.snapshot_signal_basis(virtual.matrix, 1)
    got, want = {}, {}
    for i, th in enumerate(theta):
        for j, tb in enumerate(theta_bar):
            h = b.extended_manifold(th, tb, t.delay_bins, t.doppler_hz, scen, codes)
            want[(i, j)] = checks.xi2_direct([h], list(blockers.bases), 2, u)
            got[(i, j)] = surface[i, j]
    assert checks.check_surface_values("xi2", got, want) == []
    assert checks.check_surface_values("xi2", _scaled(got), want)


def test_surface_csv_round_trip_and_rejection(tiny_run, tmp_path):
    b.emit_outputs(tmp_path, run=tiny_run)
    delays, dopplers, surface = tiny_run.xi1_grid
    data = (tmp_path / "xi1_grid.csv").read_bytes()
    values, problems = checks.parse_surface_csv(data, delays, dopplers)
    assert problems == []
    assert np.allclose(values, surface, rtol=checks.CSV_RTOL, atol=0)
    shifted = delays.copy()
    shifted[0] += 1
    assert checks.parse_surface_csv(data, shifted, dopplers)[1]
    assert checks.parse_surface_csv(data, delays[:-1], dopplers)[1]


def test_panel_seeds_match_the_acceptance_derivation():
    assert workloads.trial_seed(workloads.CLUTTER_SEED, 0, 7) == \
        harness._trial_seed(workloads.CLUTTER_SEED, 0, 7)


def test_tracer_records_nested_spans_and_restores(tiny):
    scen, _ = tiny
    originals = (harness.run_scenario, estimation.xi1_surface, harness.xi1_surface)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.installed_wrappers()
        harness.run_scenario(scen, method="vst", seed=1, store_surfaces=True)
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == []
    assert (harness.run_scenario, estimation.xi1_surface, harness.xi1_surface) == originals

    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["trace.cpis"][0] == 1
    assert metrics["estimation.xi1_surface_calls"][0] == 2  # stage 1 + stored surface
    grid = estimation.default_grid(scen)
    assert metrics["estimation.stage1_points"][0] == grid.range_bins.size * grid.doppler_hz.size
    assert metrics["baseline.estimate_ms"][0] == 0.0
    top = [s for s in tracer.spans if s.name == "harness.run_scenario"][0]
    kids = spans.children(tracer.spans)
    assert 0.0 <= spans.self_ms(top, kids) <= top.ms
