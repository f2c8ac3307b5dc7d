"""End-to-end pipelines, Monte Carlo RMSE evaluation and file outputs.

A run is fully determined by (scenario, seed): the seed feeds a root
sequence whose children drive code selection, symbol generation and every
random draw in synthesis.  Monte Carlo trials derive their seeds from
(master seed, SNR index, trial index), so results are identical whatever
the worker count or execution order.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from . import baseline as baseline_mod
from .channel import TargetTruth, dump_cube, synthesize_cube
from .estimation import (
    GridSpec,
    PeakError,
    SubspaceBasis,
    default_grid,
    despread_gate,
    doa_dod_search,
    doppler_refine,
    estimate_signal_dim,
    linear_assignment,
    prepare_xi2_context,
    range_doppler_search,
    subspace_split,
    temporal_covariance,
    xi1_surface,
)
from .extender import VirtualSnapshots, build_blockers
from .scenario import Scenario, scenario_to_dict
from .waveform import extend_codes, generate_pn_codes, generate_symbols

__all__ = [
    "TargetEstimate",
    "EstimateReport",
    "RunResult",
    "TrialRecord",
    "RmsePoint",
    "RmseReport",
    "run_scenario",
    "monte_carlo_rmse",
    "emit_outputs",
    "align_to_truth",
]

_RUN_DOMAIN = 0x52414441  # namespaces the root seed sequence per purpose
_MC_DOMAIN = 0x4D432D52

METHOD_VST = "vst"
METHOD_BASELINE = "baseline"
_ALL_METHODS = (METHOD_VST, METHOD_BASELINE)


@dataclass(frozen=True)
class TargetEstimate:
    """One estimated target; angle fields are None when that part failed."""

    delay_bins: int
    doppler_hz: float
    doa_deg: float | None
    dod_deg: float | None
    peak: float = 0.0
    error: str | None = None


@dataclass(frozen=True)
class EstimateReport:
    """One method's estimates; RunResult.reports keys it by method."""

    entries: tuple[TargetEstimate, ...]
    elapsed_s: float
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunResult:
    scenario: Scenario
    seed: int
    truth: tuple[TargetTruth, ...]
    reports: dict[str, EstimateReport]
    code_kind: str
    xi1_grid: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    xi2_grid: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _resolve_methods(method: str) -> tuple[str, ...]:
    if method == "both":
        return _ALL_METHODS
    if method in _ALL_METHODS:
        return (method,)
    raise ValueError(f"unknown method {method!r} (use 'vst', 'baseline' or 'both')")


def run_scenario(
    scenario: Scenario,
    method: str = METHOD_VST,
    seed: int = 0,
    *,
    grid: GridSpec | None = None,
    code_kind: str = "mseq",
    k: int | None = None,
    estimate_k: bool = False,
    refine_doppler: bool = True,
    store_surfaces: bool = False,
    dump_cube_path: str | Path | None = None,
    baseline_gate_music: bool = False,
) -> RunResult:
    """Synthesize one CPI and run the requested estimator chain(s).

    k defaults to the scenario's target count; estimate_k=True instead
    takes the largest ratio gap of the fast-time covariance spectrum, and
    excludes k.  Before synthesis, each input rule raises a ValueError
    led by its field: seed >= 0, k in (0, L), and a code_kind that gives
    the scenario's Tx elements distinct codes.  With no target, and
    either no order asked for or no noise (an all-zero cube), every
    report is empty.  Stage 1 is shared and hands on its delays alone;
    each delay's gate is despread once for the Doppler refine and the
    baseline.  Too few stage-1 peaks raise PeakError; a ValueError past
    stage 1 fails only the method that raised it, whose report then
    carries the message.
    """
    methods = _resolve_methods(method)
    grid = default_grid(scenario, grid)
    system = scenario.system
    _require_seed(seed)
    if estimate_k and k is not None:
        raise ValueError(f"k={k} and estimate_k exclude each other: give at most one")
    k_eff = scenario.target_count if k is None else k
    # nothing to look for: no target, and no order asked for or none to
    # estimate from a cube with neither echo nor noise
    idle = k is None and k_eff == 0 and (not estimate_k or system.snr_db == math.inf)
    L = system.fast_time_bins
    if not (estimate_k or idle or 0 < k_eff < L):
        # a basis of all of C^L leaves no noise subspace
        raise ValueError(f"k: must be in (0, {L}) for this scenario (got {k_eff})")

    root = np.random.SeedSequence([_RUN_DOMAIN, scenario.rng_seed & 0xFFFFFFFF, int(seed)])
    code_seq, symbol_seq, synth_seq = root.spawn(3)
    try:  # whether the code set exists does not depend on the seed
        codes = generate_pn_codes(system.tx_count, system.code_length, code_kind,
                                  seed=code_seq)
    except ValueError as exc:
        raise ValueError(f"code_kind: {exc}") from None
    codes = extend_codes(codes, system.fast_time_bins)
    symbols = generate_symbols(system.pris_per_cpi, seed=symbol_seq)
    cube = synthesize_cube(scenario, codes, symbols, np.random.default_rng(synth_seq))
    if dump_cube_path is not None:
        dump_cube(dc_replace(cube, seed_trail=(
            f"scenario_seed={scenario.rng_seed}", f"run_seed={int(seed)}",
            "children=codes,symbols,synthesis",
        )), dump_cube_path)

    reports: dict[str, EstimateReport] = {}
    xi1_grid = xi2_grid = None
    if idle:
        for m in methods:
            reports[m] = EstimateReport((), 0.0)
        return RunResult(scenario, int(seed), cube.truth, reports, code_kind)

    t0 = time.perf_counter()
    cov = temporal_covariance(cube)
    if estimate_k:
        # one solve: its Ritz values pick the order, its leading Ritz
        # vectors are the basis
        head = subspace_split(cov, min(12, cov.shape[0] - 1))
        k_eff = estimate_signal_dim(head.eigenvalues[:head.signal_dim + 1])
        basis = dc_replace(head, basis=head.basis[:, :k_eff])
    else:
        basis = subspace_split(cov, k_eff)
    stage1_meta = _subspace_diagnostics(basis)

    delays = range_doppler_search(codes, k_eff, grid, system, basis)
    gates = [despread_gate(cube, codes, d) for d in delays]
    refined = [(d, doppler_refine(gate, symbols, system, refine=refine_doppler))
               for d, gate in zip(delays, gates)]
    stage1_elapsed = time.perf_counter() - t0

    if store_surfaces:
        surf1 = xi1_surface(codes, basis, system, grid.range_bins, grid.doppler_hz)
        xi1_grid = (grid.range_bins, grid.doppler_hz, surf1)

    coarse = None

    def vst_entries(metadata: dict) -> list[TargetEstimate]:
        nonlocal coarse
        blockers = build_blockers(codes, refined, system)
        context = prepare_xi2_context(
            VirtualSnapshots(cube.samples, blockers), blockers, refined, codes, scenario
        )
        metadata["stage2"] = _subspace_diagnostics(context.basis)
        # xi2 is flat along the angle of a one-element array, whose search
        # returns the first grid node: that angle is reported missing
        keep_doa, keep_dod = system.rx_count > 1, system.tx_count > 1
        blind = " and ".join(a for a, keep in (("DOA", keep_doa), ("DOD", keep_dod))
                             if not keep)
        error = f"{blind} not observable with a one-element array" if blind else None
        peaks, stack = doa_dod_search(context, grid)
        if store_surfaces:
            coarse = stack
        return [TargetEstimate(d, f_hat, th if keep_doa else None, tb if keep_dod else None,
                               val, error)
                for (d, f_hat), (th, tb, val) in zip(refined, peaks)]

    def baseline_entries(metadata: dict) -> list[TargetEstimate]:
        angles = baseline_mod.baseline_estimate(cube, scenario, delays, gates, grid,
                                                gate_music=baseline_gate_music)
        return [TargetEstimate(d, f_hat, doa, dod, 0.0, error)
                for (d, f_hat), (doa, dod, error) in zip(refined, angles)]

    chains = {METHOD_VST: vst_entries, METHOD_BASELINE: baseline_entries}
    for m in methods:
        # past stage 1 the methods are isolated: a ValueError fails this
        # method alone, with one angle-less entry per stage-1 target
        t1 = time.perf_counter()
        metadata = {"stage1": stage1_meta}
        try:
            entries = tuple(chains[m](metadata))
        except ValueError as exc:
            metadata["error"] = f"{type(exc).__name__}: {exc}"
            entries = tuple(TargetEstimate(d, f, None, None, 0.0, metadata["error"])
                            for d, f in refined)
        reports[m] = EstimateReport(
            entries, stage1_elapsed + time.perf_counter() - t1, metadata)

    if coarse is not None:
        # the summed surface from the per-context stack the search scored
        axis = grid.angle_deg
        xi2_grid = (axis, axis, np.sum(coarse, axis=0))
    return RunResult(scenario, int(seed), cube.truth, reports, code_kind,
                     xi1_grid, xi2_grid)


def _require_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed: must be >= 0 (got {seed})")


def _subspace_diagnostics(basis: SubspaceBasis) -> dict:
    """A subspace solve (stage 1's fast-time covariance, stage 2's PRI
    gram) as plain JSON values: the Ritz spectrum head, its lambda_P /
    lambda_P+1 gap (None when lambda_P+1 is zero or not reported), and
    the solver's restarts, final relative residual and convergence
    flag."""
    vals = [float(v) for v in basis.eigenvalues]
    p = basis.signal_dim
    gap = vals[p - 1] / vals[p] if len(vals) > p and vals[p] > 0 else None
    return {"ritz_values": vals, "signal_dim": p, "gap": gap,
            "restarts": basis.restarts, "residual": basis.residual,
            "converged": basis.converged}


def align_to_truth(
    truth: tuple[TargetTruth, ...], entries: tuple[TargetEstimate, ...]
) -> list[TargetEstimate | None]:
    """Match estimates to truth targets, minimising total angular distance.

    Returns a list parallel to truth; None marks truth targets without an
    assigned estimate.  Estimates lacking angles fall back to delay/Doppler
    distance so a range-only failure still pairs sensibly.
    """
    cost = np.zeros((len(truth), len(entries)))
    for i, t in enumerate(truth):
        for j, e in enumerate(entries):
            if e.doa_deg is not None and e.dod_deg is not None:
                cost[i, j] = abs(e.doa_deg - t.doa_deg) + abs(e.dod_deg - t.dod_deg)
            else:
                cost[i, j] = (
                    360.0
                    + abs(e.delay_bins - t.delay_bins)
                    + abs(e.doppler_hz - t.doppler_hz)
                )
    rows, cols = linear_assignment(cost)
    out: list[TargetEstimate | None] = [None] * len(truth)
    for r, c in zip(rows, cols):
        out[r] = entries[c]
    return out


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial estimates aligned to the truth target order."""

    snr_db: float
    snr_idx: int
    trial_idx: int
    seed: int
    aligned: dict[str, tuple[TargetEstimate | None, ...]]
    failed: dict[str, str]  # method -> message for whole-trial failures


@dataclass(frozen=True)
class RmsePoint:
    snr_db: float
    rmse: dict[str, float]           # e.g. "doa_vst" -> degrees
    bootstrap_std: dict[str, float]
    failures: dict[str, int]         # per method: failed target-trials


@dataclass(frozen=True)
class RmseReport:
    points: tuple[RmsePoint, ...]
    trials: int
    seed: int
    methods: tuple[str, ...]
    drop_failures: bool
    clutter_mode: str
    records: tuple[TrialRecord, ...]


def _trial_seed(master_seed: int, snr_idx: int, trial_idx: int) -> int:
    seq = np.random.SeedSequence([_MC_DOMAIN, int(master_seed), snr_idx, trial_idx])
    return int(seq.generate_state(1, np.uint64)[0])


def _mc_trial(args) -> TrialRecord:
    (scenario, snr_db, snr_idx, trial_idx, seed, method, grid, code_kind,
     gate_music) = args
    aligned: dict[str, tuple] = {}
    failed: dict[str, str] = {}
    try:
        result = run_scenario(scenario, method=method, seed=seed, grid=grid,
                              code_kind=code_kind,
                              baseline_gate_music=gate_music)
    except PeakError as exc:  # a stage-1 miss is data; anything else raises
        for m in _resolve_methods(method):
            aligned[m] = tuple([None] * scenario.target_count)
            failed[m] = f"{type(exc).__name__}: {exc}"
    else:
        for m, report in result.reports.items():
            aligned[m] = tuple(align_to_truth(result.truth, report.entries))
            if "error" in report.metadata:
                failed[m] = report.metadata["error"]
    return TrialRecord(
        snr_db=snr_db, snr_idx=snr_idx, trial_idx=trial_idx, seed=seed,
        aligned=aligned, failed=failed,
    )


def _trial_mean(values: np.ndarray) -> np.ndarray:
    """Mean over the last (trial) axis skipping NaN; NaN where none is kept.

    On a C-contiguous array the sum runs along the contiguous axis in
    numpy's pairwise order, so a row without NaN gives exactly the 1-D
    ``row.mean()``.  (``a[:, idx]`` is not C-contiguous; ``a.take(idx,
    axis=-1)`` is.)
    """
    kept = ~np.isnan(values)
    with np.errstate(invalid="ignore"):
        return np.where(kept, values, 0.0).sum(axis=-1) / kept.sum(axis=-1)


def monte_carlo_rmse(
    scenario: Scenario,
    snr_db_list: list[float],
    trials: int,
    method: str = "both",
    seed: int = 0,
    jobs: int = 1,
    grid: GridSpec | None = None,
    code_kind: str = "mseq",
    drop_failures: bool = False,
    clutter_mode: str = "off",
    baseline_gate_music: bool = False,
) -> RmseReport:
    """Angle RMSE versus SNR over repeated randomised trials.

    Every trial redraws noise, clutter, fluctuation and path phases under
    a seed derived from (seed, snr index, trial index).  clutter_mode
    controls the swept points: "off" (default) disables the clutter
    channel so the x-axis is the total white interference level
    (post-whitening clutter is indistinguishable from receiver noise);
    "scenario" keeps the scenario's clutter level at every point.

    A missing angle is charged its worst-case error max(truth, 180 -
    truth) unless drop_failures is set, in which case it is excluded from
    that target's mean (and still counted in the failure tally).  The
    bootstrap spread resamples whole trials.

    jobs >= 1 caps the worker processes: at most min(jobs, total trials,
    usable cores) are started, and the sweep runs in this process when
    that is 1.

    Before any trial, each input rule raises a ValueError led by its
    field: seed >= 0, trials >= 1, jobs >= 1, at least one snr_db point
    (each within SystemConfig's level rule) and one target.  Only a
    stage-1 PeakError fails a trial as a whole; any other exception,
    such as an infeasible code_kind, raises here.
    """
    _require_seed(seed)
    if trials < 1:
        raise ValueError(f"trials: must be >= 1 (got {trials})")
    if jobs < 1:
        raise ValueError(f"jobs: must be >= 1 (got {jobs})")
    if len(snr_db_list) == 0:
        raise ValueError("snr_db: needs at least one SNR point")
    if clutter_mode not in ("off", "scenario"):
        raise ValueError("clutter_mode: must be 'off' or 'scenario'")
    if not scenario.targets:
        raise ValueError("targets: angle RMSE needs at least one target")
    methods = _resolve_methods(method)
    grid = default_grid(scenario, grid)

    tasks = []
    for snr_idx, snr in enumerate(snr_db_list):
        changes = {"snr_db": float(snr)}
        if clutter_mode == "off":
            changes["scr_db"] = math.inf
        point_scenario = scenario.with_system(**changes)
        for trial_idx in range(trials):
            tasks.append((
                point_scenario, float(snr), snr_idx, trial_idx,
                _trial_seed(seed, snr_idx, trial_idx), method, grid, code_kind,
                baseline_gate_music,
            ))

    # a fork-started pool launches every worker at its first submit
    workers = min(jobs, len(tasks), _usable_cores())
    if workers == 1:
        records = tuple(map(_mc_trial, tasks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = tuple(pool.map(_mc_trial, tasks, chunksize=1))
    boot_rng = np.random.default_rng(np.random.SeedSequence([_MC_DOMAIN, seed, 0xB007]))

    # (angle, target) truth and the error charged for a miss
    truth = np.array([[t.doa_deg for t in scenario.targets],
                      [t.dod_deg for t in scenario.targets]]).reshape(2, -1, 1)
    worst = np.maximum(truth, 180.0 - truth)
    points = []
    for snr_idx, snr in enumerate(snr_db_list):
        point_records = records[snr_idx * trials:(snr_idx + 1) * trials]
        rmse: dict[str, float] = {}
        boot: dict[str, float] = {}
        failures: dict[str, int] = {}
        for m in methods:
            # (angle, target, trial) estimates, NaN where an angle is missing
            est = np.array([[[getattr(rec.aligned[m][k], name, None)
                              for rec in point_records]
                             for k in range(scenario.target_count)]
                            for name in ("doa_deg", "dod_deg")], dtype=float)
            missed = np.isnan(est)
            failures[m] = int(missed.sum())
            err = est - truth
            if not drop_failures:
                err = np.where(missed, worst, err)
            for param, sq in zip(("doa", "dod"), err * err):
                per_target = _trial_mean(sq)
                if np.isnan(per_target).any():  # a target with no kept trial
                    rmse[f"{param}_{m}"] = boot[f"{param}_{m}"] = math.nan
                    continue
                rmse[f"{param}_{m}"] = float(np.sqrt(per_target).mean())
                # bootstrap over whole trials, 200 resamples; a resample
                # that keeps no trial of some target is skipped
                idx = boot_rng.integers(0, trials, size=(200, trials))
                samples = np.sqrt(_trial_mean(sq.take(idx, axis=-1))).mean(axis=0)
                boot[f"{param}_{m}"] = float(np.nanstd(samples))
        points.append(RmsePoint(float(snr), rmse, boot, failures))

    return RmseReport(
        points=tuple(points), trials=trials, seed=int(seed), methods=methods,
        drop_failures=drop_failures, clutter_mode=clutter_mode, records=records,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".12g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_grid_csv(path: Path, header: list[str], axis0, axis1, cost) -> None:
    """Long-format surface CSV, axis0-major: one line per (axis0, axis1) cell.

    The bytes are those of ``_write_csv`` on the long (axis0, axis1, cost)
    columns: CRLF lines, axis values through ``_fmt`` and costs as
    ``%.12g``, which spells every float, nan and inf included, as
    ``format(v, ".12g")``.  It writes one chunk per axis0 row, so memory
    stays at one row whatever the grid size.
    """
    # one "%s,<axis1>,%.12g" line per axis1 cell; %s takes the row's axis0
    template = "".join(f"%s,{_fmt(v)},%.12g\r\n" for v in axis1.tolist())
    args = [None] * (2 * len(axis1))
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for a0, row in zip(axis0.tolist(), cost):
            args[0::2] = [_fmt(a0)] * len(axis1)
            args[1::2] = row.tolist()
            fh.write(template % tuple(args))


def emit_outputs(
    out_dir: str | Path,
    run: RunResult | None = None,
    rmse: RmseReport | None = None,
    extra_config: dict | None = None,
) -> list[Path]:
    """Write estimates.csv / rmse.csv / surface grids / run.json.

    failures.csv lists the Monte Carlo trials that failed as a whole, one
    row per trial and method; it is written only when there are any.

    All CSV content is a pure function of the inputs; the timestamp lives
    only in run.json.  run.json is strict JSON: an infinite SNR point is
    null, and any other non-finite value raises a ValueError.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if run is not None:
        rows = []
        for m, report in sorted(run.reports.items()):
            aligned = align_to_truth(run.truth, report.entries)
            for k_idx, t in enumerate(run.truth):
                est = aligned[k_idx]
                rows.append([
                    m, k_idx,
                    t.delay_bins, getattr(est, "delay_bins", None),
                    t.doppler_hz, getattr(est, "doppler_hz", None),
                    t.doa_deg, getattr(est, "doa_deg", None),
                    t.dod_deg, getattr(est, "dod_deg", None),
                    getattr(est, "peak", None),
                    getattr(est, "error", None) or "",
                ])
        path = out / "estimates.csv"
        _write_csv(path, [
            "method", "target",
            "delay_true_bins", "delay_est_bins",
            "doppler_true_hz", "doppler_est_hz",
            "doa_true_deg", "doa_est_deg",
            "dod_true_deg", "dod_est_deg",
            "peak", "error",
        ], rows)
        written.append(path)

        for name, header, surface in (
            ("xi1_grid.csv", ["delay_bins", "doppler_hz", "cost"], run.xi1_grid),
            ("xi2_grid.csv", ["doa_deg", "dod_deg", "cost"], run.xi2_grid),
        ):
            if surface is not None:
                path = out / name
                _write_grid_csv(path, header, *surface)
                written.append(path)

    if rmse is not None:
        header = ["snr_db", "trials", "seed"]
        params = []
        for m in rmse.methods:
            for p in ("doa", "dod"):
                params.append(f"{p}_{m}")
        header += [f"rmse_{p}_deg" for p in params]
        header += [f"bootstrap_std_{p}_deg" for p in params]
        header += [f"failures_{m}" for m in rmse.methods]
        rows = []
        for point in rmse.points:
            row = [point.snr_db, rmse.trials, rmse.seed]
            row += [point.rmse.get(p) for p in params]
            row += [point.bootstrap_std.get(p) for p in params]
            row += [point.failures.get(m, 0) for m in rmse.methods]
            rows.append(row)
        path = out / "rmse.csv"
        _write_csv(path, header, rows)
        written.append(path)

        failures = [
            [rec.snr_db, rec.trial_idx, rec.seed, m, message]
            for rec in rmse.records for m, message in sorted(rec.failed.items())
        ]
        if failures:
            path = out / "failures.csv"
            _write_csv(path, ["snr_db", "trial", "seed", "method", "message"], failures)
            written.append(path)

    doc = {
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "versions": _versions(),
        "threads": _thread_context(),
    }
    if run is not None:
        doc["run"] = {
            "seed": run.seed,
            "code_kind": run.code_kind,
            "scenario": scenario_to_dict(run.scenario),
            "methods": sorted(run.reports),
            "elapsed_s": {m: r.elapsed_s for m, r in run.reports.items()},
        }
        # stage 1 is shared, so every report carries the same diagnostics;
        # only the v-ST report has a stage-2 solve
        for stage in ("stage1", "stage2"):
            metas = [r.metadata[stage] for r in run.reports.values() if stage in r.metadata]
            if metas:
                doc["run"][stage] = metas[0]
    if rmse is not None:
        doc["monte_carlo"] = {
            "seed": rmse.seed,
            "trials": rmse.trials,
            "methods": list(rmse.methods),
            # null for +inf, as scenario_to_dict writes levels
            "snr_db": [None if math.isinf(p.snr_db) else p.snr_db for p in rmse.points],
            "drop_failures": rmse.drop_failures,
            "clutter_mode": rmse.clutter_mode,
        }
    if extra_config:
        doc["config"] = extra_config
    path = out / "run.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    written.append(path)
    return written


def _versions() -> dict:
    from . import __version__

    return {"bmradar": __version__, "numpy": np.__version__}


def _thread_context() -> dict:
    """Usable cores and the BLAS/OpenMP thread caps set in the environment
    (None when unset): the last digits of ``peak`` in estimates.csv depend
    on the number of threads the BLAS library runs."""
    caps = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"usable_cores": _usable_cores(), **{name: os.environ.get(name) for name in caps}}


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1
