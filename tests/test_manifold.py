import math
from dataclasses import replace

import numpy as np
import pytest

import bmradar as b
from conftest import build_waveform, make_tiny_scenario


def _shifted(v, d):
    """Delay a fast-time vector by d bins, zero-filling (no wrap-around)."""
    out = np.zeros_like(v)
    if d == 0:
        return v.copy()
    out[d:] = v[:-d]
    return out


def _reference_signature(codes, d, f_hz, system):
    """The composite code zero-padded to the PRI, shifted by d bins, times
    the Doppler phase."""
    padded = np.zeros(system.fast_time_bins, dtype=complex)
    padded[:codes.code_length] = codes.composite
    return _shifted(padded, d) * b.doppler_phase_vector(f_hz, system)


def _reference_transformation(codes, d, f_hz, system):
    """The chips placed at rows d..d+nc-1, times the Doppler phase."""
    shifted = np.zeros((system.fast_time_bins, codes.tx_count), dtype=complex)
    shifted[d:d + codes.code_length, :] = codes.chips
    return shifted * b.doppler_phase_vector(f_hz, system)[:, None]


def _reference_direction(theta_deg, phi_deg=0.0):
    """Reference: the general azimuth/elevation unit vector, whose
    elevation-0 case the in-plane vector must equal bit for bit."""
    th = np.radians(theta_deg)
    ph = np.radians(phi_deg)
    th, ph = np.broadcast_arrays(th, ph)
    return np.stack(
        [np.cos(th) * np.cos(ph), np.sin(th) * np.cos(ph), np.sin(ph)]
    )


def _reference_manifold(geometry, theta_deg, wavelength_m, side):
    """Reference: the steering vector of an explicit geometry and
    wavelength, built from the general unit vector at elevation 0."""
    k = (2.0 * np.pi / wavelength_m) * _reference_direction(theta_deg, 0.0)
    sign = 1.0 if side == "tx" else -1.0
    return np.exp(1j * sign * np.tensordot(geometry.matrix.T, k, axes=(1, 0)))


class TestDirectionUnitVector:
    def test_boresight(self):
        assert b.direction_unit_vector(0.0) == pytest.approx((1.0, 0.0, 0.0))

    def test_broadside(self):
        assert b.direction_unit_vector(90.0) == pytest.approx((0.0, 1.0, 0.0))

    def test_150_degrees(self):
        # direct trigonometric evaluation
        v = b.direction_unit_vector(150.0)
        assert v == pytest.approx((-0.8660254, 0.5, 0.0), abs=1e-6)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            th = rng.uniform(-180, 180)
            assert np.linalg.norm(b.direction_unit_vector(th)) == pytest.approx(1.0)

    def test_bit_equal_to_zero_elevation_reference(self):
        grid = np.arange(0.0, 180.0 + 1e-9, 0.37)
        for theta in (0.0, 37.5, 150.0, grid):
            v = b.direction_unit_vector(theta)
            ref = _reference_direction(theta)
            assert v.shape == ref.shape
            assert v.tobytes() == ref.tobytes()


class TestSpatialManifold:
    def test_single_element_at_origin(self, tiny_scenario):
        origin = b.ArrayGeometry(((0.0,), (0.0,), (0.0,)))
        s = replace(tiny_scenario, system=replace(tiny_scenario.system, rx_count=1),
                    rx_array=origin)
        v = b.spatial_manifold(s, "rx", 123.0)
        assert v == pytest.approx(np.array([1.0 + 0.0j]))

    def test_rx_phase_at_150_degrees(self, paper_scenario):
        # scalar evaluation: -(2*pi/lambda) * 0.092 * cos(150 deg) = +2.1709 rad
        d = paper_scenario.system
        expected_phase = -(2 * math.pi / d.wavelength_m) * 0.092 * math.cos(math.radians(150.0))
        assert expected_phase == pytest.approx(2.1709, abs=2e-4)
        v = b.spatial_manifold(paper_scenario, "rx", 150.0)
        assert np.angle(v[0]) == pytest.approx(expected_phase, abs=1e-9)

    def test_tx_rx_exponent_signs_conjugate(self, tiny_scenario):
        # the tiny scenario's two arrays share one geometry
        assert tiny_scenario.tx_array == tiny_scenario.rx_array
        tx = b.spatial_manifold(tiny_scenario, "tx", 30.0)
        rx = b.spatial_manifold(tiny_scenario, "rx", 30.0)
        assert tx == pytest.approx(np.conj(rx))

    def test_side_picks_the_array(self, paper_scenario):
        tx = b.spatial_manifold(paper_scenario, "tx", 30.0)
        rx = b.spatial_manifold(paper_scenario, "rx", 30.0)
        assert not np.allclose(tx, np.conj(rx))
        assert tx.shape == (paper_scenario.system.tx_count,)
        assert rx.shape == (paper_scenario.system.rx_count,)

    def test_unit_modulus(self, paper_scenario):
        rng = np.random.default_rng(1)
        for _ in range(50):
            th = rng.uniform(0, 180)
            side = "tx" if rng.random() < 0.5 else "rx"
            v = b.spatial_manifold(paper_scenario, side, th)
            assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12

    def test_vectorised_angles(self, paper_scenario):
        grid = np.array([10.0, 20.0, 30.0])
        v = b.spatial_manifold(paper_scenario, "rx", grid)
        assert v.shape == (5, 3)
        single = b.spatial_manifold(paper_scenario, "rx", 20.0)
        assert v[:, 1] == pytest.approx(single)

    def test_bad_side(self, paper_scenario):
        with pytest.raises(ValueError, match="side"):
            b.spatial_manifold(paper_scenario, "up", 30.0)

    @pytest.mark.parametrize("name", ["paper", "tiny"])
    @pytest.mark.parametrize("side", ["tx", "rx"])
    def test_bit_equal_to_explicit_geometry_reference(self, paper_scenario, name, side):
        s = paper_scenario if name == "paper" else make_tiny_scenario()
        geometry = s.tx_array if side == "tx" else s.rx_array
        wavelength_m = b.SPEED_OF_LIGHT / s.system.carrier_frequency_hz
        grid = np.arange(0.0, 180.0 + 1e-9, 0.5)
        for theta in (0.0, 81.2, 150.0, grid):
            v = b.spatial_manifold(s, side, theta)
            ref = _reference_manifold(geometry, theta, wavelength_m, side)
            assert v.shape == ref.shape
            assert v.tobytes() == ref.tobytes()


class TestDopplerPhaseVector:
    def test_zero_frequency(self, paper_scenario):
        v = b.doppler_phase_vector(0.0, paper_scenario.system)
        assert v == pytest.approx(np.ones(524))

    def test_prf_full_cycle_per_pri(self, paper_scenario):
        d = paper_scenario.system
        v = b.doppler_phase_vector(d.prf_hz, paper_scenario.system)
        ell = np.arange(1, 525)
        assert v == pytest.approx(np.exp(2j * np.pi * ell / 524))

    def test_conjugate_symmetry(self, paper_scenario):
        f = 321.5
        assert b.doppler_phase_vector(-f, paper_scenario.system) == pytest.approx(
            np.conj(b.doppler_phase_vector(f, paper_scenario.system))
        )


class TestTemporalSignature:
    @pytest.mark.parametrize("which", ["paper", "tiny"])
    def test_bytes_equal_the_shifted_composite(self, which, paper_scenario):
        s = paper_scenario if which == "paper" else make_tiny_scenario()
        codes, _ = build_waveform(s)
        last = s.system.fast_time_bins - s.system.code_length
        for d in (0, last // 2, last):
            for f in (0.0, -429.37, 1234.5):
                sig = b.temporal_signature(codes, d, f, s.system)
                want = _reference_signature(codes, d, f, s.system)
                assert sig.dtype == want.dtype and sig.shape == want.shape
                assert sig.tobytes() == want.tobytes()
                t_mat = b.transformation_matrix(codes, d, f, s.system)
                t_want = _reference_transformation(codes, d, f, s.system)
                assert t_mat.shape == t_want.shape
                assert t_mat.tobytes() == t_want.tobytes()

    def test_zero_delay_zero_doppler(self, paper_scenario):
        codes, _ = build_waveform(paper_scenario)
        sig = b.temporal_signature(codes, 0, 0.0, paper_scenario.system)
        nc = codes.code_length
        assert sig[:nc] == pytest.approx(codes.composite.astype(complex))
        assert np.all(sig[nc:] == 0.0)

    def test_support_rows(self, paper_scenario):
        codes, _ = build_waveform(paper_scenario)
        sig = b.temporal_signature(codes, 152, -429.37, paper_scenario.system)
        support = np.nonzero(sig)[0]
        assert support.min() == 152
        assert support.max() == 166

    def test_disjoint_delays_orthogonal(self, paper_scenario):
        codes, _ = build_waveform(paper_scenario)
        a = b.temporal_signature(codes, 10, 100.0, paper_scenario.system)
        c = b.temporal_signature(codes, 25, -50.0, paper_scenario.system)
        assert abs(np.vdot(a, c)) == 0.0

    def test_range_ambiguous_delay_rejected(self, paper_scenario):
        codes, _ = build_waveform(paper_scenario)
        with pytest.raises(ValueError, match="ambiguous"):
            b.temporal_signature(codes, 510, 0.0, paper_scenario.system)
        for build in (b.temporal_signature, b.transformation_matrix):
            for d in (-1, 510):
                with pytest.raises(ValueError, match=r"range-ambiguous.*0 <= d <= 509"):
                    build(codes, d, 0.0, paper_scenario.system)


class TestExtendedManifold:
    def test_degenerate_single_antennas(self):
        s = make_tiny_scenario()
        from dataclasses import replace
        system = replace(s.system, tx_count=1, rx_count=1)
        geom = b.ArrayGeometry(((0.0,), (0.0,), (0.0,)))
        s1 = b.Scenario(system=system, tx_array=geom, rx_array=geom,
                        targets=(), rng_seed=0)
        codes, _ = build_waveform(s1)
        h = b.extended_manifold(40.0, 30.0, 2, 500.0, s1, codes)
        sig = b.temporal_signature(codes, 2, 500.0, s1.system)
        assert h == pytest.approx(sig)

    def test_norm_scales_with_antenna_count(self, paper_scenario):
        codes, _ = build_waveform(paper_scenario)
        h = b.extended_manifold(150.0, 81.2, 152, -429.37, paper_scenario, codes)
        sig = b.temporal_signature(codes, 152, -429.37, paper_scenario.system)
        assert np.linalg.norm(h) ** 2 == pytest.approx(25 * np.linalg.norm(sig) ** 2)

    def test_triple_loop_oracle(self):
        # brute-force (m, i, t) construction, exact equality
        s = make_tiny_scenario()
        codes, _ = build_waveform(s)
        theta, theta_bar, delay, dopp = 120.0, 60.0, 5, 800.0
        h = b.extended_manifold(theta, theta_bar, delay, dopp, s, codes)
        s_rx = b.spatial_manifold(s, "rx", theta)
        s_tx = b.spatial_manifold(s, "tx", theta_bar)
        sig = b.temporal_signature(codes, delay, dopp, s.system)
        n_bar, n_rx, L = 2, 2, s.system.fast_time_bins
        expected = np.zeros(n_bar * n_rx * L, dtype=complex)
        for m in range(n_bar):
            for i in range(n_rx):
                for t in range(L):
                    # grouping matches the Kronecker evaluation order so the
                    # comparison is bit-exact (index bookkeeping oracle)
                    expected[(m * n_rx + i) * L + t] = (
                        np.conj(s_tx[m]) * (s_rx[i] * sig[t])
                    )
        assert np.array_equal(h, expected)


class TestTransformationMatrix:
    def test_zero_point_equals_extended_codes(self, paper_scenario):
        codes, _ = build_waveform(paper_scenario)
        t = b.transformation_matrix(codes, 0, 0.0, paper_scenario.system)
        assert t == pytest.approx(codes.extended.astype(complex))

    def test_gram_doppler_invariant(self, paper_scenario):
        codes, _ = build_waveform(paper_scenario)
        ref = b.transformation_matrix(codes, 100, 0.0, paper_scenario.system)
        ref_gram = ref.conj().T @ ref
        for d, f in [(100, 333.0), (100, -901.0), (37, 550.0)]:
            t = b.transformation_matrix(codes, d, f, paper_scenario.system)
            assert t.conj().T @ t == pytest.approx(ref_gram, abs=1e-9)

    def test_row_sum_is_temporal_signature(self, paper_scenario):
        codes, _ = build_waveform(paper_scenario)
        t = b.transformation_matrix(codes, 152, -429.37, paper_scenario.system)
        sig = b.temporal_signature(codes, 152, -429.37, paper_scenario.system)
        assert t @ np.ones(5) == pytest.approx(sig)
