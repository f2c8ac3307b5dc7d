import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import bmradar as b
from bmradar import baseline as bl
from bmradar.estimation import default_grid, despread_gate
from conftest import build_waveform, clean_cube


def despread(cube, codes, delays):
    return [despread_gate(cube, codes, d) for d in delays]


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
    """The bistatic ellipse, a = r_bi / 2 and e = l_bi / r_bi, read off the
    split at its apsides: a (1 - e) towards Tx and a (1 + e) away from it."""

    def test_target_one(self):
        # a = 76, e = 0.625
        assert bl.split_bistatic_range(152.0, 95.0, 0.0)[0] == pytest.approx(28.5)
        assert bl.split_bistatic_range(152.0, 95.0, 180.0)[0] == pytest.approx(123.5)

    def test_target_two(self):
        # a = 94.5, e = 47.5 / 94.5
        assert bl.split_bistatic_range(189.0, 95.0, 0.0)[0] == pytest.approx(47.0, rel=1e-12)
        assert bl.split_bistatic_range(189.0, 95.0, 180.0)[0] == pytest.approx(142.0,
                                                                               rel=1e-12)

    def test_zero_baseline_circle(self):
        # the circle needs a zero baseline, which no scenario can hold
        for l_bi in (0.0, -1.0):
            with pytest.raises(bl.GeometryError, match="baseline must be positive"):
                bl.split_bistatic_range(100.0, l_bi, 90.0)

    def test_degenerate_rejected(self):
        with pytest.raises(bl.GeometryError, match="degenerate"):
            bl.split_bistatic_range(95.0, 95.0, 90.0)
        with pytest.raises(bl.GeometryError, match="degenerate"):
            bl.dod_from_geometry(95.0, 95.0, 40.0)

    def test_eccentricity_below_one(self):
        # e < 1 exactly when both apsides split the range into two positive legs
        rng = np.random.default_rng(0)
        for _ in range(1000):
            l_bi, r_tx, r_rx = random_valid_triangle(rng)
            for doa in (0.0, 180.0):
                got_rx, got_tx = bl.split_bistatic_range(r_tx + r_rx, l_bi, doa)
                assert got_rx > 0.0 and got_tx > 0.0


class TestSplitBistaticRange:
    def test_target_one(self):
        # frozen from the focal polar form a(1-e^2)/(1+e*cos(theta))
        r_rx, r_tx = bl.split_bistatic_range(152.0, 95.0, 150.0)
        assert r_rx == pytest.approx(100.957, abs=0.001)
        assert r_tx == pytest.approx(51.043, abs=0.001)

    def test_target_three(self):
        # a = 114, e = 0.41667: apsides 66.5 and 161.5
        assert bl.split_bistatic_range(228.0, 95.0, 0.0)[0] == pytest.approx(66.5)
        assert bl.split_bistatic_range(228.0, 95.0, 180.0)[0] == pytest.approx(161.5)
        r_rx, _ = bl.split_bistatic_range(228.0, 95.0, 100.0)
        assert r_rx == pytest.approx(101.556, abs=0.001)

    def test_semi_latus_rectum_at_90(self):
        r_rx, _ = bl.split_bistatic_range(152.0, 95.0, 90.0)
        assert r_rx == pytest.approx(76.0 * (1 - 0.625**2), rel=1e-12)


class TestDodFromGeometry:
    def test_target_one_value(self):
        r_rx, r_tx = bl.split_bistatic_range(152.0, 95.0, 150.0)
        dod = bl.dod_from_geometry(152.0, 95.0, r_tx)
        # law-of-cosines oracle on the recovered triangle
        _, interior_tx = law_of_cosines_angles(95.0, r_tx, r_rx)
        assert dod == pytest.approx(interior_tx, abs=1e-9)
        assert dod == pytest.approx(81.473, abs=0.001)

    def test_circle_limit(self):
        # no zero-baseline circle: it has no departure angle to read
        with pytest.raises(bl.GeometryError, match="baseline must be positive"):
            bl.dod_from_geometry(200.0, 0.0, 100.0)

    def test_inconsistent_split_rejected(self):
        with pytest.raises(bl.GeometryError, match="arccos"):
            bl.dod_from_geometry(152.0, 95.0, 200.0)

    def test_law_of_cosines_oracle_bulk(self):
        # 10^4 random valid triangles: formula equals the triangle angle
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            l_bi, r_tx, r_rx = random_valid_triangle(rng)
            _, interior_tx = law_of_cosines_angles(l_bi, r_tx, r_rx)
            dod = bl.dod_from_geometry(r_tx + r_rx, l_bi, r_tx)
            assert abs(dod - interior_tx) < 1e-9 * max(1.0, interior_tx)


def _focal_form_reference(r_bi, l_bi, doa_deg):
    """(r_tx, DOD) in the focal form's operation order: a = r_bi / 2,
    e = (l_bi / 2) / a and the semi-latus rectum a * (1 - e * e)."""
    a = r_bi / 2.0
    e = (l_bi / 2.0) / a
    r_rx = a * (1.0 - e * e) / (1.0 + e * math.cos(math.radians(doa_deg)))
    r_tx = r_bi - r_rx
    arg = (1.0 - a * (1.0 - e * e) / r_tx) / e
    return r_tx, math.degrees(math.acos(min(1.0, max(-1.0, arg))))


class TestRoundTrip:
    def test_split_recovers_rx_range(self):
        # ellipse + split at the triangle's DOA reproduces the rx range
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            l_bi, r_tx, r_rx = random_valid_triangle(rng)
            doa, _ = law_of_cosines_angles(l_bi, r_tx, r_rx)
            got_rx, got_tx = bl.split_bistatic_range(r_tx + r_rx, l_bi, doa)
            assert abs(got_rx - r_rx) < 1e-9 * max(1.0, r_rx)
            assert abs(got_tx - r_tx) < 1e-9 * max(1.0, r_tx)

    def test_bits_follow_the_focal_form(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            l_bi, r_tx, r_rx = random_valid_triangle(rng)
            r_bi, doa = r_tx + r_rx, rng.uniform(0.0, 180.0)
            want_tx, want_dod = _focal_form_reference(r_bi, l_bi, doa)
            _, got_tx = bl.split_bistatic_range(r_bi, l_bi, doa)
            assert got_tx == want_tx
            assert bl.dod_from_geometry(r_bi, l_bi, got_tx) == want_dod


DOA_GRID = np.arange(0, 180.01, 0.5)


class TestMusicDoaSpectrum:
    def test_single_target_noiseless(self, paper_scenario):
        s = replace(
            paper_scenario.with_system(snr_db=float("inf"), scr_db=float("inf")),
            targets=paper_scenario.targets[:1],
        )
        cube, *_ = clean_cube(s)
        _, peaks = bl.music_doa_spectrum(bl.spatial_covariance(cube), s, 1, DOA_GRID, 0.01)
        assert peaks[0] == pytest.approx(150.0, abs=0.5)

    def test_three_targets_at_20db(self, paper_scenario):
        s = paper_scenario.with_system(scr_db=float("inf"))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(21))
        _, peaks = bl.music_doa_spectrum(bl.spatial_covariance(cube), s, 3, DOA_GRID, 0.01)
        assert sorted(round(p) for p in peaks) == [100, 130, 150]
        for truth in (150.0, 130.0, 100.0):
            assert min(abs(p - truth) for p in peaks) <= 0.5

    def test_noise_only_flat(self, paper_scenario):
        s = replace(paper_scenario, targets=()).with_system(
            snr_db=0.0, scr_db=float("inf")
        )
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(1))
        spec, _ = bl.music_doa_spectrum(bl.spatial_covariance(cube), s, 1, DOA_GRID, 0.01)
        assert spec.max() / spec.min() < 2.0

    def test_too_many_sources(self, paper_scenario):
        cube, *_ = clean_cube(paper_scenario)
        # a single-antenna gate's 1 x 1 covariance leaves no noise subspace
        for k, cov in ((5, bl.spatial_covariance(cube)), (1, np.ones((1, 1), dtype=complex))):
            n = len(cov)
            with pytest.raises(ValueError, match=f"^cannot resolve {k} sources with {n} antennas$"):
                bl.music_doa_spectrum(cov, paper_scenario, k, DOA_GRID, 0.01)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
    def test_single_source_gate_peak_is_the_argmax(self, paper_scenario, snr_db):
        # at k = 1 the greedy pick is the spectrum's argmax, on truth and
        # off-target gates alike
        s = paper_scenario.with_system(snr_db=snr_db)
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(5))
        grid = default_grid(s)
        for d in [t.delay_bins for t in cube.truth] + [0, 40, 300, 509]:
            cov = bl._gate_covariance(despread_gate(cube, codes, d))
            spectrum, (peak,) = bl.music_doa_spectrum(cov, s, 1, grid.angle_deg,
                                                      grid.angle_refine_step_deg)
            assert not np.isnan(spectrum).any()
            pseudo = partial(bl._music_pseudo, b.subspace_split(cov, 1), s)
            coarse = float(grid.angle_deg[int(np.argmax(spectrum))])
            assert peak == bl._refine_doa(pseudo, coarse, grid.angle_refine_step_deg)


class TestBaselineEstimate:
    def test_noiseless_single_target_chain(self, paper_scenario):
        s = replace(
            paper_scenario.with_system(snr_db=float("inf"), scr_db=float("inf")),
            targets=paper_scenario.targets[:1],
        )
        cube, codes, _, _ = clean_cube(s)
        t = cube.truth[0]
        grid = default_grid(s)
        out = bl.baseline_estimate(cube, s, [t.delay_bins],
                                   despread(cube, codes, [t.delay_bins]), grid)
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
        delays = [t.delay_bins for t in cube.truth]
        grid = default_grid(s)
        out = bl.baseline_estimate(cube, s, delays, despread(cube, codes, delays), grid)
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
        delays = [t.delay_bins for t in cube.truth]
        grid = default_grid(s)
        out = bl.baseline_estimate(cube, s, delays, despread(cube, codes, delays), grid,
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
        pairing = bl.associate_doa_to_range(despread(cube, codes, delays), s, doas)
        assert [doas[i] for i in pairing] == [150.0, 130.0, 100.0]
