import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

import bmradar as b
from bmradar import channel
from conftest import build_waveform, clean_cube, make_tiny_scenario


def _target1_magnitude(system):
    """Two-way gain magnitude of the paper's target 1 (51 and 101 bins,
    unit RCS)."""
    bin_m = b.SPEED_OF_LIGHT * 1e-6
    return math.sqrt(1 / (4 * math.pi) ** 3) * (
        system.wavelength_m / (51 * bin_m * 101 * bin_m)
    )


class TestPathGain:
    def test_rcs_proportionality(self, paper_scenario):
        d = paper_scenario.system
        rng = np.random.default_rng(0)
        t1 = paper_scenario.targets[0]
        t4 = replace(t1, rcs_mean_m2=4.0 * t1.rcs_mean_m2)
        g1 = b.path_gain(t1, d, rng)
        g4 = b.path_gain(t4, d, rng)
        assert abs(g4) == pytest.approx(2.0 * abs(g1))

    def test_range_proportionality(self, paper_scenario):
        d = paper_scenario.system
        rng = np.random.default_rng(0)
        t1 = paper_scenario.targets[0]
        t2 = replace(t1, tx_range_bins=2 * t1.tx_range_bins,
                     rx_range_bins=2 * t1.rx_range_bins)
        g1 = b.path_gain(t1, d, rng)
        g2 = b.path_gain(t2, d, rng)
        assert abs(g2) == pytest.approx(abs(g1) / 4.0)

    def test_absolute_magnitude(self, paper_scenario):
        # frozen evaluation of the two-way gain formula for target 1
        d = paper_scenario.system
        rng = np.random.default_rng(0)
        g = b.path_gain(paper_scenario.targets[0], d, rng)
        expected = _target1_magnitude(d)
        assert expected == pytest.approx(1.118e-11, rel=1e-3)
        assert abs(g) == pytest.approx(expected, rel=1e-12)

    def test_carrier_phase_term(self, paper_scenario):
        d = paper_scenario.system

        class _FixedRng:
            def uniform(self, lo, hi):
                return 0.0

        g = b.path_gain(paper_scenario.targets[0], d, _FixedRng())
        phase = -2 * math.pi * (152 * d.range_bin_m) / d.wavelength_m
        expected = _target1_magnitude(d) * cmath.exp(1j * phase)
        assert g == pytest.approx(expected, rel=1e-9)

    def test_zero_range_rejected(self, paper_scenario):
        # a valid chip period and a valid positive range whose product
        # underflows to 0.0 m
        d0 = replace(paper_scenario.system, chip_period_s=1e-30)
        t = replace(paper_scenario.targets[0], tx_range_bins=5e-324)
        assert t.tx_range_bins * d0.range_bin_m == 0.0
        with pytest.raises(ValueError, match="target ranges must be positive"):
            b.path_gain(t, d0, np.random.default_rng(0))


class TestSwerling:
    def test_model1_constant_over_cpi(self):
        draws = b.swerling_amplitude(1, 2.0, 256, np.random.default_rng(0))
        assert len(draws) == 256
        assert np.all(draws == draws[0])

    def test_model2_mean(self):
        draws = b.swerling_amplitude(2, 3.0, 100_000, np.random.default_rng(1))
        assert draws.mean() == pytest.approx(3.0, rel=0.02)

    def test_model3_moments(self):
        vals = np.array([
            b.swerling_amplitude(3, 2.0, 1, np.random.default_rng(s))[0]
            for s in range(100_000)
        ])
        assert vals.mean() == pytest.approx(2.0, rel=0.02)
        # chi-square with 4 dof: variance / mean^2 = 1/2
        assert vals.var() / vals.mean() ** 2 == pytest.approx(0.5, rel=0.05)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            b.swerling_amplitude(4, 1.0, 10, np.random.default_rng(0))


class TestSynthesizeCube:
    def test_noise_only_variance(self, paper_scenario):
        s = replace(paper_scenario, targets=())
        s = s.with_system(snr_db=20.0, scr_db=float("inf"))
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s, codes, symbols, np.random.default_rng(0))
        # with no targets the noise reference power defaults to 1
        var = np.mean(np.abs(cube.samples) ** 2)
        assert var == pytest.approx(10 ** (-20 / 10), rel=0.03)

    def test_single_target_rank_one_spatial(self, tiny_scenario):
        cube, *_ = clean_cube(tiny_scenario)
        flat = cube.samples.reshape(-1, tiny_scenario.system.rx_count)
        cov = flat.T @ flat.conj()
        vals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert vals[1] < 1e-10 * vals[0]

    def test_matched_filter_peaks_at_true_ranges(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        cube = b.synthesize_cube(paper_scenario, codes, symbols,
                                 np.random.default_rng(7))
        nc = paper_scenario.system.code_length
        L = paper_scenario.system.fast_time_bins
        profile = np.zeros(L - nc + 1)
        for d in range(L - nc + 1):
            # pulse compression against every antenna's code, powers summed
            gate = np.einsum("qm,nqi->nmi", codes.chips, cube.samples[:, d:d + nc, :])
            profile[d] = np.sum(np.abs(gate) ** 2)
        # suppress one code length around each accepted peak
        peaks = []
        order = np.argsort(-profile)
        for idx in order:
            if all(abs(idx - p) > nc for p in peaks):
                peaks.append(int(idx))
            if len(peaks) == 3:
                break
        assert sorted(peaks) == [152, 189, 228]

    def test_superposition(self):
        s_all = make_tiny_scenario(targets=(
            b.TargetSpec(2, 3, 120.0, 60.0, 40.0, velocity_mps=100.0),
            b.TargetSpec(2, 4, 80.0, 30.0, 70.0, velocity_mps=-50.0),
        ))
        codes, symbols = build_waveform(s_all)
        rng = np.random.default_rng(5)
        states = channel.draw_target_states(s_all, rng)
        cube_all = channel.synthesize_targets(s_all, codes, symbols, states)
        partials = []
        for idx in range(2):
            s_one = replace(s_all, targets=(s_all.targets[idx],))
            partials.append(channel.synthesize_targets(
                s_one, codes, symbols, [states[idx]]
            ))
        total = partials[0].samples + partials[1].samples
        assert np.allclose(cube_all.samples, total, rtol=0, atol=1e-18)

    def test_doppler_phase_progression(self, tiny_scenario):
        # despread per-PRI scalars advance by 2*pi*F*PRI per PRI
        cube, codes, symbols, states = clean_cube(tiny_scenario)
        truth = cube.truth[0]
        nc = tiny_scenario.system.code_length
        d = truth.delay_bins
        cs = codes.composite
        z = np.einsum("q,nqi->ni", cs, cube.samples[:, d:d + nc, :])[:, 0]
        z = z * np.asarray(symbols.symbols, float)
        increments = np.angle(z[1:] * np.conj(z[:-1]))
        expected = 2 * np.pi * truth.doppler_hz * tiny_scenario.system.pri_s
        expected = (expected + np.pi) % (2 * np.pi) - np.pi
        assert np.max(np.abs(increments - expected)) < 1e-9


class TestImpulseResponseOracle:
    def test_cube_equals_brute_force_convolution(self):
        """Synthesized samples must match a sample-by-sample evaluation of
        the transmit matrix convolved with the channel response."""
        s = make_tiny_scenario()
        cube, codes, symbols, states = clean_cube(s)
        system = s.system
        state = states[0]
        target = s.targets[0]
        n_s, L = system.pris_per_cpi, system.fast_time_bins

        m_matrix = b.symbol_matrix(symbols, codes)  # (n_bar, n_s * L)
        s_rx = b.spatial_manifold(s, "rx", target.doa_deg)
        s_tx = b.spatial_manifold(s, "tx", target.dod_deg)
        beta = state.gain
        amp = np.sqrt(state.rcs_draws / target.rcs_mean_m2)
        f = state.truth.doppler_hz
        d = state.truth.delay_bins

        expected = np.zeros((n_s, L, system.rx_count), dtype=complex)
        for n in range(n_s):
            for ell in range(1, L + 1):
                g = ell - 1 + n * L  # global sample index of column g+1
                src = g - d
                if src < 0:
                    continue
                tx_col = m_matrix[:, src]
                doppler = np.exp(2j * np.pi * f * (g + 1) * system.chip_period_s)
                scalar = (
                    math.sqrt(system.tx_power_w) * beta * amp[n] * doppler
                    * (np.conj(s_tx) @ tx_col)
                )
                expected[n, ell - 1, :] = scalar * s_rx
        assert np.allclose(cube.samples, expected, rtol=1e-12, atol=1e-30)


def _interference(scenario, seed):
    """(echo-only cube, clutter plus noise) of one synthesize_cube call."""
    codes, symbols = build_waveform(scenario)
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    cube = b.synthesize_cube(scenario, codes, symbols, rngs[0])
    states = channel.draw_target_states(scenario, rngs[1])
    echoes = channel.synthesize_targets(scenario, codes, symbols, states)
    return echoes, cube.samples - echoes.samples


class TestNoiseAndClutter:
    def test_disabled_levels_leave_cube_unchanged(self, tiny_scenario):
        # no draw past the target states, so the generator is where
        # synthesize_targets' states left it
        codes, symbols = build_waveform(tiny_scenario)
        rngs = np.random.default_rng(0), np.random.default_rng(0)
        cube = b.synthesize_cube(tiny_scenario, codes, symbols, rngs[0])
        states = channel.draw_target_states(tiny_scenario, rngs[1])
        echoes = channel.synthesize_targets(tiny_scenario, codes, symbols, states)
        assert cube.samples.tobytes() == echoes.samples.tobytes()
        assert rngs[0].random() == rngs[1].random()

    def test_snr_measured_ratio(self, paper_scenario):
        cube, noise = _interference(paper_scenario.with_system(scr_db=float("inf")), 3)
        measured = 10 * np.log10(cube.echo_power / np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(20.0, abs=0.3)

    def test_scr_measured_energy_ratio(self, paper_scenario):
        cube, clutter = _interference(paper_scenario.with_system(snr_db=float("inf")), 4)
        echo_energy = np.sum(np.abs(cube.samples) ** 2)
        clutter_energy = np.sum(np.abs(clutter) ** 2)
        measured = 10 * np.log10(echo_energy / clutter_energy)
        assert measured == pytest.approx(-5.0, abs=0.3)

    def test_clutter_zero_mean(self, paper_scenario):
        _, clutter = _interference(paper_scenario.with_system(snr_db=float("inf")), 5)
        clutter = clutter.ravel()
        sigma = np.std(clutter) / math.sqrt(clutter.size)
        assert abs(clutter.mean()) < 4 * sigma

    def test_noise_real_imag_uncorrelated(self, paper_scenario):
        s = replace(paper_scenario, targets=())
        codes, symbols = build_waveform(s)
        cube = b.synthesize_cube(s.with_system(snr_db=0.0, scr_db=float("inf")),
                                 codes, symbols, np.random.default_rng(6))
        flat = cube.samples.ravel()
        corr = np.corrcoef(flat.real, flat.imag)[0, 1]
        assert abs(corr) < 0.01


def _whole_cube_reference(scenario, codes, symbols, states, rng):
    """The synthesis formula over the whole cube, with complex temporaries:
    every target added over all bins, then clutter and noise as a + 1j*b.

    Target k adds coef[n] * w[l] * s_rx[i]: coef the slow-time
    coefficients, w the delayed padded codes with the fast-time Doppler
    phase, weighted by conj(s_tx).  Clutter is referenced to the echo
    energy per sample, noise to the strongest target's mean sample power
    over the bins it occupies (1 without targets)."""
    system = scenario.system
    shape = n_s, _, n_rx = (system.pris_per_cpi, system.fast_time_bins, system.rx_count)
    a = np.asarray(symbols.symbols, dtype=float)
    samples = np.zeros(shape, dtype=complex)
    powers, energy = [], 0.0
    for target, state in zip(scenario.targets, states):
        d, f = state.truth.delay_bins, state.truth.doppler_hz
        delayed = np.roll(codes.extended, d, axis=0).astype(complex)
        w = ((delayed * b.doppler_phase_vector(f, system)[:, None])
             @ np.conj(b.spatial_manifold(scenario, "tx", target.dod_deg)))
        coef = (math.sqrt(system.tx_power_w) * state.gain
                * np.sqrt(state.rcs_draws / target.rcs_mean_m2) * a
                * np.exp(2j * np.pi * f * np.arange(n_s) * system.pri_s))
        s_rx = b.spatial_manifold(scenario, "rx", target.doa_deg)
        samples += coef[:, None, None] * w[None, :, None] * s_rx[None, None, :]
        occupied = np.abs(w) ** 2
        occupied = occupied[occupied > 1e-30]
        powers.append(float(np.mean(np.abs(coef) ** 2) * np.mean(occupied)))
        energy += float(np.sum(np.abs(coef) ** 2) * np.sum(np.abs(w) ** 2) * n_rx)
    levels = []
    if scenario.targets and not math.isinf(system.scr_db):
        levels.append(energy / samples.size / 10.0 ** (system.scr_db / 10.0))
    if not math.isinf(system.snr_db):
        levels.append((max(powers, default=0.0) or 1.0) / 10.0 ** (system.snr_db / 10.0))
    for var in levels:
        sigma = math.sqrt(var / 2.0)
        samples = samples + (rng.normal(0.0, sigma, shape)
                             + 1j * rng.normal(0.0, sigma, shape))
    return samples


def _at_delays(states, delays):
    """Edit the drawn states: the first targets moved to the given delays."""
    return [replace(st, truth=replace(st.truth, delay_bins=d))
            for st, d in zip(states, delays)] + states[len(delays):]


def _tiny_two_targets(**kw):
    return make_tiny_scenario(targets=(
        b.TargetSpec(2, 3, 120.0, 60.0, 40.0, velocity_mps=100.0),
        b.TargetSpec(2, 4, 80.0, 30.0, 70.0, swerling_model=2, velocity_mps=-50.0),
    ), **kw)


class TestSynthesisMatchesWholeCubeFormula:
    """Support-sliced echoes and in-place Gaussian draws give the cube of the
    whole-cube formula bit for bit, and leave the generator where it was."""

    @pytest.mark.parametrize("case", [
        "paper", "paper-no-clutter", "tiny", "tiny-swerling2", "no-targets",
        "paper-edge-delays", "tiny-edge-delays",
    ])
    def test_cube_and_next_draw_unchanged(self, paper_scenario, case):
        tiny_two = _tiny_two_targets(snr_db=15.0, scr_db=-3.0, n_s=24)
        scenario, delays = {
            "paper": (paper_scenario, ()),
            "paper-no-clutter": (paper_scenario.with_system(scr_db=float("inf")), ()),
            "tiny": (make_tiny_scenario(snr_db=10.0, scr_db=0.0), ()),
            "tiny-swerling2": (tiny_two, ()),
            # SCR -5 dB but no echo to reference: no clutter is drawn
            "no-targets": (replace(paper_scenario, targets=()), ()),
            # delay 0 and the last unambiguous delay L - nc
            "paper-edge-delays": (paper_scenario, (0, 524 - 15)),
            "tiny-edge-delays": (tiny_two, (14 - 7, 0)),
        }[case]
        codes, symbols = build_waveform(scenario)
        rngs = np.random.default_rng(21), np.random.default_rng(21)
        states = _at_delays(channel.draw_target_states(scenario, rngs[1]), delays)
        if not delays:
            got = b.synthesize_cube(scenario, codes, symbols, rngs[0]).samples
        else:
            # synthesize_cube draws its own states: the edited delays go
            # through synthesize_targets, against the interference-free formula
            channel.draw_target_states(scenario, rngs[0])
            got = channel.synthesize_targets(scenario, codes, symbols, states).samples
            scenario = scenario.with_system(snr_db=float("inf"), scr_db=float("inf"))
        want = _whole_cube_reference(scenario, codes, symbols, states, rngs[1])
        assert got.tobytes() == want.tobytes()
        assert rngs[0].random() == rngs[1].random()

    def test_synthesize_cube_is_the_chain(self, paper_scenario):
        codes, symbols = build_waveform(paper_scenario)
        rng = np.random.default_rng(8)
        states = channel.draw_target_states(paper_scenario, rng)
        expected = _whole_cube_reference(paper_scenario, codes, symbols, states, rng)
        cube = b.synthesize_cube(paper_scenario, codes, symbols, np.random.default_rng(8))
        assert cube.samples.tobytes() == expected.tobytes()


class TestAddGaussianDrawsIntoOneBuffer:
    """_add_gaussian draws standard normals into a float buffer and scales
    them in place: the bytes and the generator's next draw are those of
    adding rng.normal(0, sigma, shape) to the real, then the imaginary part."""

    @staticmethod
    def _reference(samples, var, rng):
        sigma = math.sqrt(var / 2.0)
        samples.real += rng.normal(0.0, sigma, samples.shape)
        samples.imag += rng.normal(0.0, sigma, samples.shape)

    @pytest.mark.parametrize("case", ["paper", "tiny"])
    @pytest.mark.parametrize("shared_buffer", [False, True])
    def test_bytes_and_next_draw_equal_normal(self, paper_scenario, case, shared_buffer):
        scenario = paper_scenario if case == "paper" else make_tiny_scenario()
        cube, *_ = clean_cube(scenario)
        got, want = cube.samples.copy(), cube.samples.copy()
        rngs = np.random.default_rng(41), np.random.default_rng(41)
        shared = np.empty(got.shape)
        # a clutter-like then a noise-like level, as synthesize_cube draws them
        for var in (cube.echo_energy_per_sample * 10 ** 0.5, cube.echo_power * 1e-2):
            buf = shared if shared_buffer else np.empty(got.shape)
            channel._add_gaussian(got, var, rngs[0], buf)
            self._reference(want, var, rngs[1])
        assert got.tobytes() == want.tobytes()
        assert rngs[0].random() == rngs[1].random()

    def test_buffer_is_scratch_only(self):
        samples = np.zeros((3, 4, 2), dtype=complex)
        buf = np.full(samples.shape, 7.0)
        rngs = np.random.default_rng(42), np.random.default_rng(42)
        channel._add_gaussian(samples, 2.0, rngs[0], buf)
        want = rngs[1].standard_normal((2,) + samples.shape)
        assert samples.real.tobytes() == want[0].tobytes()
        assert samples.imag.tobytes() == want[1].tobytes()


class TestCubeIO:
    def test_round_trip(self, tiny_scenario, tmp_path):
        cube, *_ = clean_cube(tiny_scenario)
        path = tmp_path / "cube.c64"
        b.dump_cube(cube, path)
        assert path.exists()
        assert path.with_suffix(".c64.json").exists()
        loaded = b.load_cube(path)
        assert loaded.samples.shape == cube.samples.shape
        # complex64 quantisation applies
        assert np.allclose(loaded.samples, cube.samples, rtol=1e-6, atol=1e-30)
        assert loaded.truth == cube.truth
        assert loaded.echo_power == pytest.approx(cube.echo_power)
