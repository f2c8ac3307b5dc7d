"""Command line front end.

Subcommands:
  run    one CPI, estimate targets, write estimates.csv (+ optional cube)
  mc     Monte Carlo RMSE over an SNR sweep, write rmse.csv (+ failures.csv)
  grids  one CPI, write the stage-1 and stage-2 cost surfaces as CSV

The library owns every input rule (load_scenario the scenario file,
GridSpec the grid steps, run_scenario the seed, target count and code
family, monte_carlo_rmse the sweep) and raises a ValueError led by the
field before any synthesis.  radar maps the field to its flag: usage
error "argument <flag>: <field>: <rule>", exit status 2, nothing
written.  A stage-1 search that finds fewer peaks than the target count
ends run and grids with one error line and exit status 1, before any
output.

The bundled default scenario is used when --scenario is omitted.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .estimation import GridSpec, PeakError
from .harness import emit_outputs, monte_carlo_rmse, run_scenario
from .scenario import ScenarioError, default_scenario_path, load_scenario

# the library field a ValueError message starts with -> the flag that sets it
_FLAGS = {"angle_step_deg": "--angle-step", "angle_refine_step_deg": "--angle-refine-step",
          "doppler_hz": "--doppler-step", "k": "--known-k", "code_kind": "--code-kind",
          "seed": "--seed", "trials": "--trials", "jobs": "--jobs", "snr_db": "--snr",
          "targets": "--scenario"}


def _snr_list(text: str) -> list[float]:
    try:
        return [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", default=None,
                   help="scenario JSON (default: bundled paper.json)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed (>= 0)")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--code-kind", choices=("mseq", "gold"), default="mseq",
                   help="spreading code family")
    p.add_argument("--angle-step", type=float, default=0.5,
                   help="coarse direction grid step, degrees")
    p.add_argument("--angle-refine-step", type=float, default=0.01,
                   help="local refinement grid step, degrees")
    p.add_argument("--doppler-step", type=float, default=None,
                   help="stage-1 Doppler grid step, Hz (default: one Doppler bin)")


def _add_methods(p: argparse.ArgumentParser) -> None:
    """Estimator choice: run and mc (grids always runs v-ST)."""
    p.add_argument("--method", choices=("vst", "baseline", "both"), default="both")
    p.add_argument("--gate-music", action="store_true",
                   help="baseline DOA from per-gate MUSIC instead of the "
                        "whole-cube spectrum")


def _add_target_count(p: argparse.ArgumentParser) -> None:
    """Target count: run and grids (mc trials use the scenario's)."""
    group = p.add_mutually_exclusive_group()
    group.add_argument("--known-k", type=int, default=None,
                       help="target count to estimate (default: scenario truth)")
    group.add_argument("--estimate-k", action="store_true",
                       help="estimate the target count from the eigen spectrum")


def _grid_from_args(args, scenario) -> GridSpec:
    doppler = None
    if args.doppler_step is not None:  # GridSpec sees the axis, not the step
        prf, step = scenario.system.prf_hz, args.doppler_step
        # prf + step == prf: too fine to advance the axis in floating point
        if not (math.isfinite(step) and step > 0 and prf + step > prf):
            raise ValueError(f"doppler_hz: step must be finite, > 0 and resolvable "
                             f"on the {prf:g} Hz axis (got {step})")
        doppler = np.arange(-prf / 2.0, prf / 2.0 + 1e-9, step)
    return GridSpec(
        doppler_hz=doppler,
        angle_step_deg=args.angle_step,
        angle_refine_step_deg=args.angle_refine_step,
    )


def _load(args):
    path = args.scenario if args.scenario is not None else default_scenario_path()
    return load_scenario(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="radar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single-CPI estimation")
    _add_common(p_run)
    _add_methods(p_run)
    _add_target_count(p_run)
    p_run.add_argument("--dump-cube", default=None,
                       help="also write the raw cube (binary + JSON sidecar)")
    p_run.add_argument("--no-refine-doppler", action="store_true",
                       help="keep the unrefined slow-time Doppler peak")

    p_mc = sub.add_parser("mc", help="Monte Carlo RMSE sweep")
    _add_common(p_mc)
    _add_methods(p_mc)
    p_mc.add_argument("--snr", type=_snr_list, default="0,5,10,15,20",
                      help="comma-separated SNR points in dB")
    p_mc.add_argument("--trials", type=int, default=100)
    p_mc.add_argument("--jobs", type=int, default=1,
                      help="parallel workers (at most one per trial and usable core)")
    p_mc.add_argument("--drop-failures", action="store_true",
                      help="exclude failed detections from the RMSE mean")
    p_mc.add_argument("--keep-clutter", action="store_true",
                      help="keep the scenario clutter level at every SNR point")

    p_grids = sub.add_parser("grids", help="emit cost surfaces as CSV")
    _add_common(p_grids)
    _add_target_count(p_grids)

    args = parser.parse_args(argv)
    try:
        scenario = _load(args)
    except ScenarioError as exc:
        parser.error(f"argument --scenario: {exc}")
    try:
        grid = _grid_from_args(args, scenario)
        if args.command == "mc":
            report = monte_carlo_rmse(
                scenario, args.snr, args.trials, method=args.method,
                seed=args.seed, jobs=args.jobs, grid=grid,
                code_kind=args.code_kind, drop_failures=args.drop_failures,
                clutter_mode="scenario" if args.keep_clutter else "off",
                baseline_gate_music=args.gate_music,
            )
        else:
            if args.command == "run":
                options = dict(method=args.method, refine_doppler=not args.no_refine_doppler,
                               dump_cube_path=args.dump_cube,
                               baseline_gate_music=args.gate_music)
            else:  # grids
                options = dict(method="vst", store_surfaces=True)
            result = run_scenario(scenario, seed=args.seed, grid=grid,
                                  code_kind=args.code_kind, k=args.known_k,
                                  estimate_k=args.estimate_k, **options)
    except PeakError as exc:  # stage 1 found fewer peaks than the target count
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a library input rule, named by its field
        flag = _FLAGS.get(str(exc).partition(":")[0])
        if flag is None:
            raise
        parser.error(f"argument {flag}: {exc}")

    if args.command == "mc":
        written = emit_outputs(args.out, rmse=report, extra_config={
            "snr_db": args.snr, "trials": args.trials, "jobs": args.jobs,
        })
    else:
        written = emit_outputs(args.out, run=result)

    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
