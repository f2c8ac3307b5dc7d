"""Received data-cube synthesis for one CPI.

The cube holds complex baseband snapshots indexed (PRI n, fast-time bin l,
Rx antenna i).  Each target contributes a rank-one outer product per PRI:
its Rx steering vector times the Tx-weighted delayed-Doppler code row,
scaled by the symbol, the path gain and the slow-time Doppler phase
exp(j*2*pi*F*(n-1)*PRI).  The slow-time phase keeps the echo coherent
across the CPI, which is what makes sub-bin Doppler estimation possible.

Noise is referenced to the strongest target's per-element echo power over
its occupied bins; clutter uses the same reference.  Both accept +inf as a
"disabled" level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .manifold import spatial_manifold, transformation_matrix
from .scenario import Scenario, SystemConfig, TargetSpec, truth_from_geometry
from .waveform import CodeMatrix, SymbolSequence

__all__ = [
    "TargetTruth",
    "TargetState",
    "DataCube",
    "path_gain",
    "swerling_amplitude",
    "draw_target_states",
    "synthesize_targets",
    "synthesize_cube",
    "dump_cube",
    "load_cube",
]


@dataclass(frozen=True)
class TargetTruth:
    """Parameters actually used to synthesize one target."""

    delay_bins: int
    doppler_hz: float
    doa_deg: float
    dod_deg: float


@dataclass(frozen=True)
class TargetState:
    """Frozen random draws for one target over one CPI; gain is
    path_gain's complex two-way gain."""

    truth: TargetTruth
    gain: complex
    rcs_draws: np.ndarray  # per-PRI RCS sample(s), length n_s


@dataclass(frozen=True)
class DataCube:
    """One CPI of Rx snapshots, shape (PRIs, fast-time bins, Rx antennas).

    echo_power is the strongest target's per-element echo sample power over
    its occupied bins (the SNR reference); echo_energy_per_sample is the
    total echo energy divided by the total sample count (the SCR
    reference).
    """

    samples: np.ndarray
    truth: tuple[TargetTruth, ...]
    echo_power: float
    echo_energy_per_sample: float = 0.0
    seed_trail: tuple[str, ...] = ()

    @property
    def fast_time_bins(self) -> int:
        return self.samples.shape[1]


def path_gain(target: TargetSpec, system: SystemConfig, rng: np.random.Generator) -> complex:
    """Complex two-way gain for unit antenna gains.

    Magnitude: sqrt(1/(4*pi)**3) * wavelength / (R_tx * R_rx) * sqrt(rcs),
    ranges in metres.  Phase: carrier round-trip delay plus a uniform
    random term drawn once per CPI.
    """
    r_tx_m = target.tx_range_bins * system.range_bin_m
    r_rx_m = target.rx_range_bins * system.range_bin_m
    if r_tx_m <= 0 or r_rx_m <= 0:
        raise ValueError("target ranges must be positive")
    magnitude = (
        math.sqrt(1.0 / (4.0 * math.pi) ** 3)
        * (system.wavelength_m / (r_tx_m * r_rx_m))
        * math.sqrt(target.rcs_mean_m2)
    )
    carrier_phase = -2.0 * math.pi * (r_tx_m + r_rx_m) / system.wavelength_m
    psi = rng.uniform(0.0, 2.0 * math.pi)
    return magnitude * np.exp(1j * (carrier_phase + psi))


def swerling_amplitude(
    model: int, mean_rcs: float, n_s: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-PRI RCS draws for the three classic fluctuation models.

    1: one exponential draw held for the CPI (scan-to-scan).
    2: independent exponential draws per PRI (pulse-to-pulse).
    3: one chi-square-with-4-dof draw (gamma shape 2) held for the CPI.
    """
    if mean_rcs <= 0:
        raise ValueError("mean_rcs must be > 0")
    if model == 1:
        return np.full(n_s, rng.exponential(mean_rcs))
    if model == 2:
        return rng.exponential(mean_rcs, size=n_s)
    if model == 3:
        return np.full(n_s, rng.gamma(2.0, mean_rcs / 2.0))
    raise ValueError(f"unknown Swerling model {model}")


def draw_target_states(
    scenario: Scenario, rng: np.random.Generator
) -> list[TargetState]:
    """Draw all per-CPI randomness (path phase, RCS fluctuation) up front.

    Synthesis is a pure function of these states, which keeps parallel and
    sequential runs bit-identical.
    """
    states = []
    for target in scenario.targets:
        d_true, f_true = truth_from_geometry(target, scenario.system)
        gain = path_gain(target, scenario.system, rng)
        draws = swerling_amplitude(
            target.swerling_model, target.rcs_mean_m2, scenario.system.pris_per_cpi, rng
        )
        states.append(
            TargetState(
                truth=TargetTruth(d_true, f_true, target.doa_deg, target.dod_deg),
                gain=gain,
                rcs_draws=draws,
            )
        )
    return states


def synthesize_targets(
    scenario: Scenario,
    codes: CodeMatrix,
    symbols: SymbolSequence,
    states: list[TargetState],
) -> DataCube:
    """Noise- and clutter-free echo cube for the given target states.

    Each target adds, in PRI n, fast-time bin l and Rx antenna i,
    coef[n] * w[l] * s_rx[i]: coef[n] = sqrt(P_tx) * beta(n) * a[n] *
    exp(j*2*pi*F*(n-1)*PRI), and w the Tx-weighted delayed code, which
    already carries the intra-PRI Doppler ramp.  Its mean per-element
    sample power over the occupied bins (|w|^2 > 1e-30) is the SNR
    reference candidate; the strongest target's becomes echo_power.
    """
    system = scenario.system
    n_s, L = system.pris_per_cpi, system.fast_time_bins
    n_rx = scenario.rx_array.element_count
    pri = system.pri_s
    a = np.asarray(symbols.symbols, dtype=float)
    samples = np.zeros((n_s, L, n_rx), dtype=complex)
    powers = []
    energy = 0.0
    for target, state in zip(scenario.targets, states):
        d, f = state.truth.delay_bins, state.truth.doppler_hz
        s_rx = spatial_manifold(scenario, "rx", target.doa_deg)
        s_tx = spatial_manifold(scenario, "tx", target.dod_deg)
        # Tx-weighted fast-time signature: sum over antennas of the delayed
        # per-antenna code, weighted by conj(tx steering).
        w = transformation_matrix(codes, d, f, system) @ np.conj(s_tx)
        # fluctuation scales the amplitude by sqrt(drawn rcs / mean rcs)
        amp = np.sqrt(state.rcs_draws / target.rcs_mean_m2)
        slow_phase = np.exp(2j * np.pi * f * np.arange(n_s) * pri)
        coef = math.sqrt(system.tx_power_w) * state.gain * amp * a * slow_phase
        # outer product per PRI, added over the code support alone since w
        # is zero outside it
        support = slice(d, d + codes.code_length)
        samples[:, support] += coef[:, None, None] * w[None, support, None] * s_rx
        occupied = np.abs(w) ** 2
        occupied = occupied[occupied > 1e-30]
        powers.append(float(np.mean(np.abs(coef) ** 2) * np.mean(occupied))
                      if occupied.size else 0.0)
        energy += float(np.sum(np.abs(coef) ** 2) * np.sum(np.abs(w) ** 2) * n_rx)
    echo_power = max(powers) if powers else 0.0
    truth = tuple(s.truth for s in states)
    return DataCube(
        samples=samples,
        truth=truth,
        echo_power=echo_power,
        echo_energy_per_sample=energy / samples.size if powers else 0.0,
    )


def _clutter_variance(cube: DataCube, scr_db: float) -> float | None:
    """Clutter variance for scr_db, or None when clutter is disabled.

    The clutter is white: total echo energy over total clutter energy in
    the CPI equals scr_db.
    """
    if math.isinf(scr_db) and scr_db > 0:
        return None
    if cube.echo_energy_per_sample <= 0:
        raise ValueError("clutter level needs a target echo power reference")
    return cube.echo_energy_per_sample / 10.0 ** (scr_db / 10.0)


def _noise_variance(cube: DataCube, snr_db: float) -> float | None:
    """Noise variance for snr_db, or None when noise is disabled.

    With no targets present the reference power is 1, so the variance is
    10**(-snr_db/10).
    """
    if math.isinf(snr_db) and snr_db > 0:
        return None
    reference = cube.echo_power if cube.echo_power > 0 else 1.0
    return reference / 10.0 ** (snr_db / 10.0)


def _add_gaussian(
    samples: np.ndarray, var: float, rng: np.random.Generator, buf: np.ndarray
) -> None:
    """Add circular complex Gaussian samples of variance var in place.

    The real parts are drawn first, then the imaginary parts, each as one
    standard-normal draw of the array's shape into the float scratch
    buffer buf, scaled by sigma in place and added.  numpy's
    normal(0, sigma) is 0 + sigma * z, so these are the same draws and
    sums as adding ``a + 1j*b``, without any temporaries.
    """
    sigma = math.sqrt(var / 2.0)
    for part in (samples.real, samples.imag):
        rng.standard_normal(out=buf)
        buf *= sigma
        part += buf


def synthesize_cube(
    scenario: Scenario,
    codes: CodeMatrix,
    symbols: SymbolSequence,
    rng: np.random.Generator,
) -> DataCube:
    """Full received cube: target echoes plus clutter plus noise at the
    scenario's configured levels.

    Clutter models the return after a whitening transform: zero-mean
    complex Gaussian, isotropic and in every range bin.  The echo cube is
    a fresh array, so clutter (only when targets are present) and then
    receiver noise are added into it in place; all four real draws share
    one float buffer.  This is the only place interference enters a cube.
    """
    states = draw_target_states(scenario, rng)
    cube = synthesize_targets(scenario, codes, symbols, states)
    clutter = _clutter_variance(cube, scenario.system.scr_db) if scenario.targets else None
    buf = np.empty(cube.samples.shape)
    for var in (clutter, _noise_variance(cube, scenario.system.snr_db)):
        if var is not None:
            _add_gaussian(cube.samples, var, rng, buf)
    return cube


def dump_cube(cube: DataCube, path: str | Path) -> None:
    """Write samples as little-endian complex64 with a JSON sidecar."""
    path = Path(path)
    cube.samples.astype("<c8").tofile(path)
    sidecar = {
        "shape": list(cube.samples.shape),
        "dtype": "<c8",
        "order": "C",
        "axes": ["pri", "fast_time", "rx_antenna"],
        "echo_power": cube.echo_power,
        "echo_energy_per_sample": cube.echo_energy_per_sample,
        "seed_trail": list(cube.seed_trail),
        "truth": [
            {
                "delay_bins": t.delay_bins,
                "doppler_hz": t.doppler_hz,
                "doa_deg": t.doa_deg,
                "dod_deg": t.dod_deg,
            }
            for t in cube.truth
        ],
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_cube(path: str | Path) -> DataCube:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    samples = np.fromfile(path, dtype="<c8").reshape(sidecar["shape"]).astype(complex)
    truth = tuple(
        TargetTruth(t["delay_bins"], t["doppler_hz"], t["doa_deg"], t["dod_deg"])
        for t in sidecar["truth"]
    )
    return DataCube(
        samples=samples,
        truth=truth,
        echo_power=float(sidecar["echo_power"]),
        echo_energy_per_sample=float(sidecar.get("echo_energy_per_sample", 0.0)),
        seed_trail=tuple(sidecar.get("seed_trail", ())),
    )
