"""Array response vectors and delay/Doppler/code signatures.

Conventions used throughout the package:

* Tx steering uses exp(+j r.k), Rx uses exp(-j r.k), with the wavenumber
  k = (2*pi/lambda) * unit(azimuth) in the array plane, lambda the
  carrier wavelength of the scenario.
* Fast-time sample index runs 1..L inside a PRI when it appears in a
  Doppler phase.
* The combined Tx/Rx/fast-time vector is ordered (tx antenna m, rx
  antenna i, fast time t), t fastest: h = conj(tx_vec) kron rx_vec kron
  temporal.  This matches the stacked per-Tx-antenna projector layout used
  by the virtual-snapshot builder, so the projected data and the projected
  manifold line up block for block.
"""

from __future__ import annotations

import numpy as np

from .scenario import Scenario, SystemConfig

__all__ = [
    "direction_unit_vector",
    "spatial_manifold",
    "doppler_phase_vector",
    "temporal_signature",
    "extended_manifold",
    "transformation_matrix",
]


def direction_unit_vector(theta_deg) -> np.ndarray:
    """Unit vector in the array plane for azimuth theta (degrees); the z
    row is zero.

    Scalar angles give shape (3,); array angles give (3, ...).
    """
    th = np.radians(theta_deg)
    return np.stack([np.cos(th), np.sin(th), np.zeros_like(th)])


def spatial_manifold(scenario: Scenario, side: str, theta_deg) -> np.ndarray:
    """Response of the scenario's side ("tx" or "rx") array to a plane
    wave from azimuth theta_deg at the carrier wavelength.

    side="tx" uses the +j exponent, side="rx" the -j exponent.  Every entry
    has unit modulus.  theta_deg may be an array, in which case the result
    is (elements, angles).
    """
    if side not in ("tx", "rx"):
        raise ValueError("side must be 'tx' or 'rx'")
    geometry = scenario.tx_array if side == "tx" else scenario.rx_array
    k = (2.0 * np.pi / scenario.system.wavelength_m) * direction_unit_vector(theta_deg)
    sign = 1.0 if side == "tx" else -1.0
    return np.exp(1j * sign * np.tensordot(geometry.matrix.T, k, axes=(1, 0)))


def doppler_phase_vector(f_hz: float, system: SystemConfig) -> np.ndarray:
    """Fast-time Doppler progression exp(j*2*pi*f*l*Tc), l = 1..L."""
    t = np.arange(1, system.fast_time_bins + 1) * system.chip_period_s
    return np.exp(2j * np.pi * f_hz * t)


def _code_rows(d: int, code_length: int, fast_time_bins: int) -> slice:
    """Fast-time rows d .. d + nc - 1 of a code delayed by d bins.

    The delayed code must fit inside the PRI (d + nc <= L); an echo
    arriving later is range-ambiguous and rejected.
    """
    last = fast_time_bins - code_length
    if not 0 <= d <= last:
        raise ValueError(
            f"delay {d} bins is range-ambiguous: code support would leave the "
            f"PRI (need 0 <= d <= {last})"
        )
    return slice(d, d + code_length)


def _delayed_codes(
    columns: np.ndarray, d: int, f_hz: float, system: SystemConfig
) -> np.ndarray:
    """L x c matrix of the nc x c code columns delayed by d bins, with the
    fast-time Doppler phase applied."""
    L = system.fast_time_bins
    shifted = np.zeros((L, columns.shape[1]), dtype=complex)
    shifted[_code_rows(d, len(columns), L)] = columns
    return shifted * doppler_phase_vector(f_hz, system)[:, None]


def temporal_signature(
    codes, d: int, f_hz: float, system: SystemConfig
) -> np.ndarray:
    """Delayed composite code with the fast-time Doppler phase applied.

    Requires the delayed code to fit inside the PRI (d + nc <= L); an echo
    arriving later is range-ambiguous and rejected.
    """
    # the composite is one column, phased once: a sum of the phased columns
    # of transformation_matrix would round differently
    return _delayed_codes(codes.composite.reshape(-1, 1), d, f_hz, system)[:, 0]


def extended_manifold(
    theta_deg: float,
    theta_bar_deg: float,
    d: int,
    f_hz: float,
    scenario: Scenario,
    codes,
) -> np.ndarray:
    """Combined Tx/Rx/fast-time response vector of length n_bar * n * L.

    Ordering is (tx antenna, rx antenna, fast time), i.e.
    conj(tx_manifold) kron rx_manifold kron temporal_signature.
    """
    s_rx = spatial_manifold(scenario, "rx", theta_deg)
    s_tx = spatial_manifold(scenario, "tx", theta_bar_deg)
    temporal = temporal_signature(codes, d, f_hz, scenario.system)
    return np.kron(np.conj(s_tx), np.kron(s_rx, temporal))


def transformation_matrix(
    codes, d: int, f_hz: float, system: SystemConfig
) -> np.ndarray:
    """L x n_bar matrix whose column m is the delayed code of Tx antenna m
    with the Doppler phase applied.

    Tall-skinny orientation so the n_bar x n_bar gram T^H T is small and
    nonsingular; the gram is independent of both d and f because the
    unit-modulus Doppler phases cancel.
    """
    return _delayed_codes(codes.chips, d, f_hz, system)
