"""Geometric comparison method: spatial MUSIC plus bistatic ellipse.

The chain estimates bistatic range with the stage-1 search, places each
target on the ellipse whose foci are the two sites, splits the bistatic
range at the MUSIC direction of arrival using the focal polar form
r = a (1 - e^2) / (1 + e cos(theta)), and reads the direction of departure
off the triangle.  DOA is measured at the Rx site from the baseline
direction towards Tx (so a target at 150 degrees subtends a 30 degree
interior angle); DOD is the interior angle at the Tx site.

The departure angle inherits the integer-bin quantisation of the range
estimate, which is what produces this method's error floor at high SNR.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import partial

import numpy as np

from .channel import DataCube
from .estimation import (GridSpec, SubspaceBasis, greedy_peaks, hermitian_gram,
                         linear_assignment, _local_angle_axis, subspace_split)
from .manifold import spatial_manifold
from .scenario import Scenario

__all__ = [
    "GeometryError",
    "split_bistatic_range",
    "dod_from_geometry",
    "music_doa_spectrum",
    "associate_doa_to_range",
    "baseline_estimate",
]


class GeometryError(ValueError):
    """Raised for degenerate bistatic geometry."""


def _ellipse(r_bi: float, l_bi: float) -> tuple[float, float]:
    """(semi-major axis, eccentricity) of the bistatic ellipse for a
    bistatic range r_bi and site separation l_bi (bins)."""
    if l_bi <= 0:
        raise GeometryError("baseline must be positive")
    if r_bi <= l_bi:
        raise GeometryError(
            f"bistatic range {r_bi} does not exceed baseline {l_bi}: degenerate ellipse"
        )
    a = r_bi / 2.0
    return a, (l_bi / 2.0) / a


def split_bistatic_range(r_bi: float, l_bi: float, doa_deg: float) -> tuple[float, float]:
    """Split a bistatic range into (rx range, tx range) at a given DOA.

    Focal polar form about the Rx focus with the angle measured from the
    baseline direction towards Tx.
    """
    a, e = _ellipse(r_bi, l_bi)
    denom = 1.0 + e * math.cos(math.radians(doa_deg))
    if abs(denom) < 1e-9:
        raise GeometryError("direction lies along the ellipse asymptote")
    r_rx = a * (1.0 - e * e) / denom
    return r_rx, r_bi - r_rx


def dod_from_geometry(r_bi: float, l_bi: float, r_tx: float) -> float:
    """Departure angle (degrees) at the Tx focus for a split range.

    Inverts the focal polar form about the Tx focus; equals the
    law-of-cosines interior angle of the site/target triangle.
    """
    a, e = _ellipse(r_bi, l_bi)
    if r_tx <= 0:
        raise GeometryError(f"tx range {r_tx} must be positive")
    arg = (1.0 - a * (1.0 - e * e) / r_tx) / e
    if abs(arg) > 1.0 + 1e-6:
        raise GeometryError(f"inconsistent split: arccos argument {arg:.6f}")
    return math.degrees(math.acos(min(1.0, max(-1.0, arg))))


def spatial_covariance(cube: DataCube) -> np.ndarray:
    """Rx-antenna covariance averaged over all snapshots of the CPI."""
    n_s, L, n_rx = cube.samples.shape
    return hermitian_gram(cube.samples.reshape(n_s * L, n_rx)) / (n_s * L)


def _music_pseudo(basis: SubspaceBasis, scenario: Scenario, grid: np.ndarray) -> np.ndarray:
    """MUSIC pseudo-spectrum 1 / ||P_n a(theta)||^2 of an Rx signal basis
    over a DOA grid; +inf where a steering vector lies in the signal
    subspace."""
    steer = spatial_manifold(scenario, "rx", grid)
    proj = basis.basis.conj().T @ steer
    den = np.sum(np.abs(steer) ** 2, axis=0) - np.sum(np.abs(proj) ** 2, axis=0)
    with np.errstate(divide="ignore"):
        return np.where(den > 0.0, 1.0 / np.maximum(den, 1e-300), np.inf)


def _refine_doa(
    pseudo: Callable[[np.ndarray], np.ndarray], peak: float, step_deg: float
) -> float:
    """Polish a DOA peak to the pseudo-spectrum maximum on a local grid of
    step_deg within +-1 degree (clipped to [0, 180])."""
    local = _local_angle_axis(peak, 1.0, step_deg)
    return float(local[int(np.argmax(pseudo(local)))])


def music_doa_spectrum(
    cov: np.ndarray,
    scenario: Scenario,
    k: int,
    theta_grid: np.ndarray,
    refine_step_deg: float,
) -> tuple[np.ndarray, list[float]]:
    """MUSIC pseudo-spectrum over DOA of an Rx covariance, and its k
    largest peaks.

    cov is any n_rx x n_rx Rx-antenna covariance: the whole CPI's
    (spatial_covariance) or one despread range gate's (_gate_covariance).
    Peaks are picked greedily with suppression within 2 degrees of an
    accepted peak, then each is polished on a +-1 degree local grid at
    refine_step_deg.  Only n_rx - 1 sources are spatially resolvable.
    """
    n_rx = len(cov)
    if k >= n_rx:
        raise ValueError(f"cannot resolve {k} sources with {n_rx} antennas")
    pseudo = partial(_music_pseudo, subspace_split(cov, k), scenario)
    theta_grid = np.asarray(theta_grid, dtype=float)
    spectrum = pseudo(theta_grid)
    idx = greedy_peaks(spectrum, theta_grid, 2.0, k)
    if len(idx) < k:
        raise GeometryError(f"found only {len(idx)} of {k} DOA peaks")
    peaks = [_refine_doa(pseudo, float(theta_grid[i]), refine_step_deg) for i in idx]
    return spectrum, peaks


def _gate_covariance(gate: np.ndarray) -> np.ndarray:
    """Rx-antenna covariance of one despread range gate (PRI x Rx).

    Despreading with the composite code concentrates the gate's target
    energy into one spatial snapshot per PRI, recovering the pulse
    compression gain before the covariance is formed.
    """
    return hermitian_gram(gate) / gate.shape[0]


def associate_doa_to_range(
    gates: list[np.ndarray],
    scenario: Scenario,
    doas: list[float],
) -> list[int]:
    """Pair each despread range gate with a DOA peak by beam power.

    Returns, for each gate, the index of the DOA peak whose steered beam
    collects the most power from it; the pairing is one-to-one:
    estimation.linear_assignment on the negated powers maximises the total
    power.
    """
    power = np.zeros((len(gates), len(doas)))
    for di, gate in enumerate(gates):
        for ai, theta in enumerate(doas):
            steer = spatial_manifold(scenario, "rx", theta)
            power[di, ai] = float(np.sum(np.abs(gate @ np.conj(steer)) ** 2))
    pairing = dict(zip(*linear_assignment(-power)))
    return [pairing[i] for i in range(len(gates))]


def baseline_estimate(
    cube: DataCube,
    scenario: Scenario,
    delays: list[int],
    gates: list[np.ndarray],
    grid: GridSpec,
    gate_music: bool = False,
) -> list[tuple[float, float | None, str | None]]:
    """Geometric (DOA, DOD, error) for each stage-1 delay, in stage-1
    order.

    gates[i] is the range gate at delays[i] despread with the composite
    code (estimation.despread_gate), as the Doppler refine reads it.  The
    default takes the whole-cube MUSIC spectrum's peaks and pairs them
    with the gates by beam power.  gate_music=True instead runs
    single-source MUSIC on each gate, which trades multi-source
    resolution within a gate for robustness to fluctuation fades (and
    makes the gate/direction pairing intrinsic).  Where the gate's
    ellipse geometry is degenerate, DOD is None and error says why;
    otherwise error is None.
    """
    axis, step = grid.angle_deg, grid.angle_refine_step_deg
    if gate_music:
        doas = [music_doa_spectrum(_gate_covariance(gate), scenario, 1, axis, step)[1][0]
                for gate in gates]
        pairing = list(range(len(delays)))
    else:
        _, doas = music_doa_spectrum(spatial_covariance(cube), scenario, len(delays),
                                     axis, step)
        pairing = associate_doa_to_range(gates, scenario, doas)
    l_bi = scenario.system.baseline_bins
    out = []
    for d, doa_idx in zip(delays, pairing):
        theta = doas[doa_idx]
        try:
            _, r_tx = split_bistatic_range(float(d), l_bi, theta)
            out.append((theta, dod_from_geometry(float(d), l_bi, r_tx), None))
        except GeometryError as exc:
            out.append((theta, None, str(exc)))
    return out
