"""Correctness checks that do not trust the program's own arithmetic.

Every ``check_*`` function returns a list of problems; an empty list means
the check passed.  The oracles here are written from the model's
definitions (scenario JSON, determinant ratio, projected manifold) with
numpy only, so a fault in the code under test cannot hide itself.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Criterion thresholds of the acceptance suite (criteria 2 and 3a).
RANGE_EXACT_RATE = 0.95
DOPPLER_WITHIN_HZ = 2.0
DOPPLER_RATE = 0.90

RMSE_RTOL = 1e-12
SURFACE_RTOL = 1e-9
CSV_RTOL = 1e-11  # values are written with 12 significant digits


def truth_from_json(doc: dict) -> list[tuple[int, float, float, float]]:
    """(delay bins, Doppler Hz, DOA deg, DOD deg) per target of a scenario
    document: delay = tx + rx range bins, Doppler = 2v/lambda * cos(motion)
    * cos(beta / 2)."""
    wavelength = SPEED_OF_LIGHT / doc["system"]["carrier_frequency_hz"]
    out = []
    for t in doc["targets"]:
        delay = int(math.floor(t["tx_range_bins"] + t["rx_range_bins"] + 1e-12))
        doppler = (2.0 * t.get("velocity_mps", 0.0) / wavelength
                   * math.cos(math.radians(t.get("motion_angle_deg", 0.0)))
                   * math.cos(math.radians(t["bistatic_angle_deg"]) / 2.0))
        out.append((delay, doppler, float(t["doa_deg"]), float(t["dod_deg"])))
    return out


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_truth(expected, program_truth) -> list[str]:
    """The program's per-target truth must equal the oracle's."""
    if len(expected) != len(program_truth):
        return [f"truth has {len(program_truth)} targets, expected {len(expected)}"]
    problems = []
    for k, ((d, f, doa, dod), t) in enumerate(zip(expected, program_truth)):
        if (t.delay_bins != d or not _close(t.doppler_hz, f, 1e-12)
                or t.doa_deg != doa or t.dod_deg != dod):
            problems.append(f"target {k}: program truth {t} != oracle {(d, f, doa, dod)}")
    return problems


def check_criteria_rates(estimates: list[list], expected) -> list[str]:
    """Criteria 2 and 3a over a set of CPIs.

    estimates: per CPI, the v-ST (delay, Doppler) pairs aligned to the
    truth order (None for an unassigned target).
    """
    if not estimates:
        return ["no CPI to rate"]
    exact = near = 0
    for cpi in estimates:
        if any(e is None for e in cpi):
            continue
        if sorted(d for d, _ in cpi) == sorted(t[0] for t in expected):
            exact += 1
        if all(abs(f - t[1]) <= DOPPLER_WITHIN_HZ for (_, f), t in zip(cpi, expected)):
            near += 1
    problems = []
    n = len(estimates)
    if exact < RANGE_EXACT_RATE * n:
        problems.append(f"criterion 2: {exact}/{n} CPIs with exact range bins")
    if near < DOPPLER_RATE * n:
        problems.append(f"criterion 3a: {near}/{n} CPIs within {DOPPLER_WITHIN_HZ} Hz")
    return problems


def angle_rmse(errors: list[list[float]]) -> float:
    """RMSE per target, averaged over targets (the harness's definition).

    errors[k] holds target k's angle errors, one per trial.
    """
    return float(np.mean([math.sqrt(sum(e * e for e in per) / len(per))
                          for per in errors]))


def worst_case_error(truth_deg: float) -> float:
    """Error charged for a missing angle: the far end of the 0..180 grid."""
    return max(truth_deg, 180.0 - truth_deg)


def rmse_from_aligned(aligned: list, truth_angles: list[float], field: str) -> float:
    """RMSE of one angle over trials of aligned estimates (objects with
    ``doa_deg``/``dod_deg``, or None), charging misses the worst case."""
    errors = [[] for _ in truth_angles]
    for trial in aligned:
        for k, t in enumerate(truth_angles):
            est = trial[k] if k < len(trial) else None
            val = getattr(est, field, None) if est is not None else None
            errors[k].append(worst_case_error(t) if val is None else val - t)
    return angle_rmse(errors)


def check_rmse_points(report, targets) -> list[str]:
    """Recompute every RMSE of a Monte Carlo report from its records."""
    if report.drop_failures:
        return ["report drops failures; the recomputation charges them"]
    problems = []
    for idx, point in enumerate(report.points):
        recs = [r for r in report.records if r.snr_idx == idx]
        for m in report.methods:
            aligned = [r.aligned.get(m, ()) for r in recs]
            for field, key in (("doa_deg", "doa"), ("dod_deg", "dod")):
                truth = [getattr(t, field) for t in targets]
                got = point.rmse[f"{key}_{m}"]
                want = rmse_from_aligned(aligned, truth, field)
                if not _close(got, want, RMSE_RTOL):
                    problems.append(f"{point.snr_db} dB {key}_{m}: report {got!r} "
                                    f"!= recomputed {want!r}")
    return problems


def check_sweep_order(points) -> list[str]:
    """Criterion 5a (v-ST at or below the baseline at every SNR) and each
    method's RMSE at the top SNR below its RMSE at the bottom one."""
    problems = []
    for p in points:
        for key in ("doa", "dod"):
            if not p.rmse[f"{key}_vst"] <= p.rmse[f"{key}_baseline"]:
                problems.append(f"criterion 5a: {key} at {p.snr_db} dB, v-ST "
                                f"{p.rmse[f'{key}_vst']} > baseline {p.rmse[f'{key}_baseline']}")
    low, high = min(points, key=lambda p: p.snr_db), max(points, key=lambda p: p.snr_db)
    for name in low.rmse:
        if not high.rmse[name] < low.rmse[name]:
            problems.append(f"{name}: {high.rmse[name]} at {high.snr_db} dB is not below "
                            f"{low.rmse[name]} at {low.snr_db} dB")
    return problems


def parse_csv(data: bytes) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[0], rows[1:]


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


def check_estimates_csv(data: bytes, run, expected) -> list[str]:
    """estimates.csv must hold the run's aligned estimates and the truth.

    run: mapping method -> list aligned to truth of (delay, Doppler, DOA,
    DOD) tuples or None.
    """
    header, rows = parse_csv(data)
    want_rows = len(run) * len(expected)
    if len(rows) != want_rows:
        return [f"estimates.csv has {len(rows)} rows, expected {want_rows}"]
    col = {name: i for i, name in enumerate(header)}
    problems = []
    for row in rows:
        m, k = row[col["method"]], int(row[col["target"]])
        truth = expected[k]
        est = run[m][k] or (None, None, None, None)
        for j, name in enumerate(("delay", "doppler", "doa", "dod")):
            unit = "bins" if name == "delay" else ("hz" if name == "doppler" else "deg")
            for kind, want in (("true", truth[j]), ("est", est[j])):
                got = _num(row[col[f"{name}_{kind}_{unit}"]])
                if (got is None) != (want is None) or (
                        got is not None and not _close(got, want, CSV_RTOL)):
                    problems.append(f"estimates.csv {m} target {k} {name}_{kind}: "
                                    f"{got!r} != {want!r}")
    return problems


def check_rmse_csv(data: bytes, report) -> list[str]:
    header, rows = parse_csv(data)
    if len(rows) != len(report.points):
        return [f"rmse.csv has {len(rows)} rows, expected {len(report.points)}"]
    col = {name: i for i, name in enumerate(header)}
    problems = []
    for row, point in zip(rows, report.points):
        for key, want in point.rmse.items():
            got = float(row[col[f"rmse_{key}_deg"]])
            if not _close(got, want, CSV_RTOL):
                problems.append(f"rmse.csv {point.snr_db} dB {key}: {got!r} != {want!r}")
    return problems


def xi1_direct(chips: np.ndarray, signal_basis: np.ndarray, delay: int,
               doppler_hz: float, chip_period_s: float) -> float:
    """det(T^H T) / det(T^H P_n T) with the noise projector P_n built
    explicitly from the signal basis; T holds each Tx code delayed by
    ``delay`` bins with the fast-time Doppler phase exp(j 2 pi f l Tc),
    l = 1..L."""
    L = signal_basis.shape[0]
    nc, n_tx = chips.shape
    t_mat = np.zeros((L, n_tx), dtype=complex)
    t_mat[delay:delay + nc] = chips
    t_mat *= np.exp(2j * np.pi * doppler_hz * np.arange(1, L + 1) * chip_period_s)[:, None]
    p_noise = np.eye(L) - signal_basis @ signal_basis.conj().T
    num = np.linalg.det(t_mat.conj().T @ t_mat).real
    den = np.linalg.det(t_mat.conj().T @ p_noise @ t_mat).real
    return num / den


def fast_time_signal_basis(samples: np.ndarray, k: int) -> np.ndarray:
    """Top-k eigenvectors of the fast-time covariance of a
    (PRI, fast time, Rx) cube, averaged over PRIs and Rx antennas."""
    n_s, L, n_rx = samples.shape
    rows = samples.transpose(0, 2, 1).reshape(n_s * n_rx, L)
    vals, vecs = np.linalg.eigh(rows.T @ rows.conj() / (n_s * n_rx))
    return vecs[:, np.argsort(vals)[::-1][:k]]


def snapshot_signal_basis(matrix: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the top-k left singular subspace of a
    snapshot matrix (ambient x count)."""
    u, _, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, :k]


def xi2_direct(manifolds: list[np.ndarray], projector_bases: list[np.ndarray],
               rx_count: int, signal_basis: np.ndarray) -> float:
    """Sum over target contexts of ||P h||^2 / (||P h||^2 - ||U^H P h||^2).

    manifolds: per context, the combined (tx, rx, fast time) response.
    P applies I - Q_m Q_m^H to every fast-time block of Tx antenna m.
    """
    total = 0.0
    for h in manifolds:
        blocks = h.reshape(len(projector_bases), rx_count, -1)
        ph = np.concatenate([
            (blk - (blk @ q.conj()) @ q.T).reshape(-1)
            for blk, q in zip(blocks, projector_bases)
        ])
        num = np.vdot(ph, ph).real
        coeff = signal_basis.conj().T @ ph
        total += num / (num - np.vdot(coeff, coeff).real)
    return total


def check_surface_values(name: str, got: dict, want: dict) -> list[str]:
    """Surface values at probe points against their oracle values."""
    problems = []
    for point, value in want.items():
        if not _close(got[point], value, SURFACE_RTOL):
            problems.append(f"{name} at {point}: surface {got[point]!r} != "
                            f"direct {value!r}")
    return problems


def parse_surface_csv(data: bytes, axis0: np.ndarray,
                      axis1: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """A long-format surface CSV as a (len(axis0), len(axis1)) array.

    Row i * len(axis1) + j must hold (axis0[i], axis1[j], value).
    """
    lines = data.split(b"\r\n")[1:]
    if lines and lines[-1] == b"":
        lines.pop()
    shape = (len(axis0), len(axis1))
    if len(lines) != shape[0] * shape[1]:
        return np.empty((0, 0)), [f"surface CSV has {len(lines)} rows, expected "
                                  f"{shape[0] * shape[1]}"]
    table = np.array([[float(v) for v in line.split(b",")] for line in lines])
    problems = []
    for col, axis in ((0, np.repeat(axis0, shape[1])), (1, np.tile(axis1, shape[0]))):
        err = np.abs(table[:, col] - axis)
        if np.any(err > CSV_RTOL * np.maximum(np.abs(axis), 1e-300)):
            problems.append(f"surface CSV axis column {col} does not match the grid")
    return table[:, 2].reshape(shape), problems
