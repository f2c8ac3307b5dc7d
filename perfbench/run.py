"""Run one benchmark workload of bmradar and print its metrics as JSON.

    python3 perfbench/run.py --workload cpi-clutter --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones and no wrapper is
installed; with ``--trace 1`` wrappers record spans at each layer
boundary and the metrics are the per-layer ones.  No BLAS or OpenMP
thread variable is set.  See README.md for what each workload and metric
means.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, plus the process age

import os
import sys


def _process_age_s() -> float:
    """Seconds since this process started (10 ms resolution on Linux)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE0 = _process_age_s()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _peak_rss_mb() -> float:
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib * 1024 / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cpi-clutter", "mc-sweep", "grids"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bmradar" / "__init__.py").is_file():
        print(f"no bmradar sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bmradar
    import bmradar.estimation as estimation
    import bmradar.scenario as scenario_mod

    if Path(bmradar.__file__).resolve().parent != (SRC / "bmradar").resolve():
        print(f"bmradar imported from {bmradar.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans as tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    path = scenario_mod.default_scenario_path()  # what the CLI loads by default
    doc = json.loads(Path(path).read_text())
    scenario = scenario_mod.load_scenario(path)
    estimation.default_grid(scenario)  # set-up ends with the search grid built
    setup_s = _AGE0 + (time.perf_counter() - _T0)

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](scenario, doc, args.seed, out)

    times: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for key in wl.order:
            attempted += 1
            try:
                times.append(wl.run_op(key))
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
                traceback.print_exc(file=sys.stderr)
        if time.perf_counter() - start >= args.seconds:
            break
    efficiency = 0.0
    if tracer is not None:
        tracer.uninstall()
        if args.workload == "mc-sweep":
            # untraced sweeps at both worker counts; run_op also checks that
            # their rmse.csv matches the first round's byte for byte
            wl.jobs = 1
            serial = wl.run_op(workloads.ACCEPT_SEED)
            wl.jobs = 2
            efficiency = serial / (2.0 * wl.run_op(workloads.ACCEPT_SEED))
    peak_mb = _peak_rss_mb()

    problems = wl.check() if times else ["every operation failed"]
    if tracer is None and tracing.installed_wrappers():
        problems.append("an untraced run had wrappers installed")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if tracer is None:
        doa, dod = wl.vst_rmse()
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "rmse_doa_vst_deg": (doa, "deg"),
            "rmse_dod_vst_deg": (dod, "deg"),
        }
    else:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.op_s"] = (statistics.median(times), "s")
        metrics["baseline.rmse_dod_deg"] = (wl.baseline_dod_rmse(), "deg")
        metrics["harness.pool_efficiency"] = (efficiency, "ratio")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
