import math
from dataclasses import replace

import numpy as np
import pytest

import bmradar as b
from bmradar import baseline as bl
from bmradar.estimation import default_grid
from conftest import build_waveform, clean_cube


def random_valid_triangle(rng):
    """(baseline, tx range, rx range) satisfying both triangle constraints."""
    l_bi = rng.uniform(1.0, 100.0)
    r_tx = rng.uniform(0.1, 200.0)
    lo = max(1e-3, r_tx - l_bi, l_bi - r_tx) + 1e-6
    hi = r_tx + l_bi - 1e-6
    r_rx = rng.uniform(lo + (hi - lo) * 1e-6, hi)
    return l_bi, r_tx, r_rx


def law_of_cosines_angles(l_bi, r_tx, r_rx):
    """Interior angles at the Rx and Tx sites; DOA = 180 - rx interior."""
    cos_rx = (l_bi**2 + r_rx**2 - r_tx**2) / (2 * l_bi * r_rx)
    cos_tx = (l_bi**2 + r_tx**2 - r_rx**2) / (2 * l_bi * r_tx)
    interior_rx = math.degrees(math.acos(max(-1.0, min(1.0, cos_rx))))
    interior_tx = math.degrees(math.acos(max(-1.0, min(1.0, cos_tx))))
    return 180.0 - interior_rx, interior_tx


class TestEllipseParams:
    def test_target_one(self):
        e = bl.ellipse_params(152.0, 95.0)
        assert e.semi_major == pytest.approx(76.0)
        assert e.eccentricity == pytest.approx(0.625)

    def test_target_two(self):
        e = bl.ellipse_params(189.0, 95.0)
        assert e.semi_major == pytest.approx(94.5)
        assert e.eccentricity == pytest.approx(47.5 / 94.5, rel=1e-12)

    def test_zero_baseline_circle(self):
        e = bl.ellipse_params(100.0, 0.0)
        assert e.eccentricity == 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(bl.GeometryError, match="degenerate"):
            bl.ellipse_params(95.0, 95.0)

    def test_eccentricity_below_one(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            l_bi, r_tx, r_rx = random_valid_triangle(rng)
            e = bl.ellipse_params(r_tx + r_rx, l_bi)
            assert 0.0 <= e.eccentricity < 1.0


class TestSplitBistaticRange:
    def test_target_one(self):
        # frozen from the focal polar form a(1-e^2)/(1+e*cos(theta))
        e = bl.ellipse_params(152.0, 95.0)
        r_rx, r_tx = bl.split_bistatic_range(e, 150.0, 152.0)
        assert r_rx == pytest.approx(100.957, abs=0.001)
        assert r_tx == pytest.approx(51.043, abs=0.001)

    def test_target_three(self):
        e = bl.ellipse_params(228.0, 95.0)
        assert e.semi_major == pytest.approx(114.0)
        assert e.eccentricity == pytest.approx(0.41667, abs=1e-5)
        r_rx, _ = bl.split_bistatic_range(e, 100.0, 228.0)
        assert r_rx == pytest.approx(101.556, abs=0.001)

    def test_semi_latus_rectum_at_90(self):
        e = bl.ellipse_params(152.0, 95.0)
        r_rx, _ = bl.split_bistatic_range(e, 90.0, 152.0)
        assert r_rx == pytest.approx(
            e.semi_major * (1 - e.eccentricity**2), rel=1e-12
        )


class TestDodFromGeometry:
    def test_target_one_value(self):
        e = bl.ellipse_params(152.0, 95.0)
        r_rx, r_tx = bl.split_bistatic_range(e, 150.0, 152.0)
        dod = bl.dod_from_geometry(e, r_tx)
        # law-of-cosines oracle on the recovered triangle
        _, interior_tx = law_of_cosines_angles(95.0, r_tx, r_rx)
        assert dod == pytest.approx(interior_tx, abs=1e-9)
        assert dod == pytest.approx(81.473, abs=0.001)

    def test_circle_limit(self):
        e = bl.EllipseParams(semi_major=100.0, eccentricity=0.0)
        assert bl.dod_from_geometry(e, 100.0) == pytest.approx(90.0)

    def test_inconsistent_split_rejected(self):
        e = bl.ellipse_params(152.0, 95.0)
        with pytest.raises(bl.GeometryError, match="arccos"):
            bl.dod_from_geometry(e, 200.0)

    def test_law_of_cosines_oracle_bulk(self):
        # 10^4 random valid triangles: formula equals the triangle angle
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            l_bi, r_tx, r_rx = random_valid_triangle(rng)
            e = bl.ellipse_params(r_tx + r_rx, l_bi)
            _, interior_tx = law_of_cosines_angles(l_bi, r_tx, r_rx)
            dod = bl.dod_from_geometry(e, r_tx)
            assert abs(dod - interior_tx) < 1e-9 * max(1.0, interior_tx)


class TestRoundTrip:
    def test_split_recovers_rx_range(self):
        # ellipse + split at the triangle's DOA reproduces the rx range
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            l_bi, r_tx, r_rx = random_valid_triangle(rng)
            doa, _ = law_of_cosines_angles(l_bi, r_tx, r_rx)
            e = bl.ellipse_params(r_tx + r_rx, l_bi)
            got_rx, got_tx = bl.split_bistatic_range(e, doa, r_tx + r_rx)
            assert abs(got_rx - r_rx) < 1e-9 * max(1.0, r_rx)
            assert abs(got_tx - r_tx) < 1e-9 * max(1.0, r_tx)


class TestMusicDoaSpectrum:
    def test_single_target_noiseless(self, paper_scenario):
        s = replace(
            paper_scenario.with_system(snr_db=float("inf"), scr_db=float("inf")),
            targets=paper_scenario.targets[:1],
        )
        cube, *_ = clean_cube(s)
        _, peaks = bl.music_doa_spectrum(cube, s, 1, np.arange(0, 180.01, 0.5), 0.01)
        assert peaks[0] == pytest.approx(150.0, abs=0.5)

    def test_three_targets_at_20db(self, paper_scenario):
        s = paper_scenario.with_system(scr_db=float("inf"))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(21))
        _, peaks = bl.music_doa_spectrum(cube, s, 3, np.arange(0, 180.01, 0.5), 0.01)
        assert sorted(round(p) for p in peaks) == [100, 130, 150]
        for truth in (150.0, 130.0, 100.0):
            assert min(abs(p - truth) for p in peaks) <= 0.5

    def test_noise_only_flat(self, paper_scenario):
        s = replace(paper_scenario, targets=()).with_system(
            snr_db=0.0, scr_db=float("inf")
        )
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(1))
        spec, _ = bl.music_doa_spectrum(cube, s, 1, np.arange(0, 180.01, 0.5), 0.01)
        assert spec.max() / spec.min() < 2.0

    def test_too_many_sources(self, paper_scenario):
        cube, *_ = clean_cube(paper_scenario)
        with pytest.raises(ValueError, match="resolve"):
            bl.music_doa_spectrum(cube, paper_scenario, 5, np.arange(0, 180.01, 0.5), 0.01)


class TestBaselineEstimate:
    def test_noiseless_single_target_chain(self, paper_scenario):
        s = replace(
            paper_scenario.with_system(snr_db=float("inf"), scr_db=float("inf")),
            targets=paper_scenario.targets[:1],
        )
        cube, codes, _, _ = clean_cube(s)
        t = cube.truth[0]
        grid = default_grid(s)
        out = bl.baseline_estimate(cube, s, codes,
                                   [(t.delay_bins, t.doppler_hz)], grid)
        assert len(out) == 1
        (doa, dod, error), = out
        assert error is None
        assert doa == pytest.approx(150.0, abs=0.05)
        # quantisation-limited: the integer-bin ellipse implies 81.47 deg,
        # 0.27 deg off the configured truth
        assert dod == pytest.approx(81.47, abs=0.1)
        assert abs(dod - t.dod_deg) < 1.0

    def test_high_snr_three_targets_dod_within_one_degree(self, paper_scenario):
        s = paper_scenario.with_system(snr_db=30.0, scr_db=float("inf"))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(31))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        grid = default_grid(s)
        out = bl.baseline_estimate(cube, s, codes, estimates, grid)
        for (doa, dod, error), t in zip(out, cube.truth):
            assert error is None
            assert abs(doa - t.doa_deg) < 0.5
            assert abs(dod - t.dod_deg) < 1.0

    def test_gate_music_variant(self, paper_scenario):
        # per-gate MUSIC survives a fluctuation fade that sinks the
        # whole-cube spectrum's weakest peak
        s = paper_scenario.with_system(snr_db=20.0, scr_db=float("inf"))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(35))
        estimates = [(t.delay_bins, t.doppler_hz) for t in cube.truth]
        grid = default_grid(s)
        out = bl.baseline_estimate(cube, s, codes, estimates, grid,
                                   gate_music=True)
        for (doa, dod, _), t in zip(out, cube.truth):
            assert abs(doa - t.doa_deg) < 0.5
            assert abs(dod - t.dod_deg) < 1.0

    def test_association_pairs_gates_with_directions(self, paper_scenario):
        s = paper_scenario.with_system(snr_db=30.0, scr_db=float("inf"))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(33))
        delays = [t.delay_bins for t in cube.truth]
        doas = [100.0, 150.0, 130.0]  # deliberately scrambled
        pairing = bl.associate_doa_to_range(cube, codes, s, delays, doas)
        assert [doas[i] for i in pairing] == [150.0, 130.0, 100.0]
