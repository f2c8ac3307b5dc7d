"""Span recorder that wraps bmradar's layer-boundary functions.

Only traced runs call ``install``.  A wrapper records a span (name, start,
end, id, parent id) plus a few counts taken at the boundary, and keeps
everything in memory until the run ends.  Self time of a span is its
duration minus the durations of its direct children; calls are
sequential inside one process, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    id: int
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _csv_rows(args, kwargs, written) -> dict:
    rows = 0
    for path in written:
        if path.suffix == ".csv":
            rows += path.read_bytes().count(b"\n") - 1  # minus the header
    return {"rows": rows}


def _xi2_points(args, kwargs, surface) -> dict:
    context = args[0] if args else kwargs["context"]
    rows, cols = surface.shape[-2:]
    # every call evaluates all target contexts, whatever it returns
    return {"points": len(context.estimates) * rows * cols}


# (module, function, span name, counts taken from (args, kwargs, result))
BOUNDARIES = (
    ("bmradar.scenario", "load_scenario", "scenario.load", None),
    ("bmradar.waveform", "generate_pn_codes", "waveform.codes", None),
    ("bmradar.waveform", "extend_codes", "waveform.codes", None),
    ("bmradar.waveform", "generate_symbols", "waveform.codes", None),
    ("bmradar.channel", "synthesize_cube", "channel.synthesize",
     lambda a, k, cube: {"bytes": cube.samples.nbytes}),
    ("bmradar.estimation", "temporal_covariance", "estimation.covariance", None),
    ("bmradar.estimation", "subspace_split", "estimation.subspace", None),
    ("bmradar.estimation", "range_doppler_search", "estimation.stage1", None),
    ("bmradar.estimation", "xi1_surface", "estimation.xi1_surface",
     lambda a, k, surface: {"points": surface.size}),
    ("bmradar.estimation", "doppler_refine", "estimation.doppler_refine", None),
    ("bmradar.estimation", "prepare_xi2_context", "estimation.xi2_context", None),
    ("bmradar.estimation", "doa_dod_search", "estimation.xi2_search", None),
    ("bmradar.estimation", "xi2_surface", "estimation.xi2_surface", _xi2_points),
    ("bmradar.extender", "build_blockers", "extender.blockers", None),
    ("bmradar.extender", "apply_virtual_extension", "extender.virtual",
     lambda a, k, virtual: {"bytes": virtual.matrix.nbytes}),
    ("bmradar.baseline", "baseline_estimate", "baseline.estimate", None),
    ("bmradar.harness", "run_scenario", "harness.run_scenario", None),
    ("bmradar.harness", "monte_carlo_rmse", "harness.monte_carlo_rmse",
     lambda a, k, report: {"trials": len(report.records)}),
    ("bmradar.harness", "emit_outputs", "harness.emit", _csv_rows),
)


def _bmradar_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "bmradar" or n.startswith("bmradar."))]


class Tracer:
    """Collects spans from the wrappers that ``install`` puts in place."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            self.spans.append(Span(name, start, end, sid, parent, counts))
            return result

        wrapper.perfbench_span = name
        return wrapper

    def install(self) -> None:
        """Replace each boundary function in every bmradar module that
        holds a reference to it, so calls between modules are traced too."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _bmradar_modules()
        for mod_name, fn_name, span_name, counter in BOUNDARIES:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(span_name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def installed_wrappers() -> list[str]:
    """Names of bmradar module attributes that are currently wrappers."""
    return [f"{module.__name__}.{attr}" for module in _bmradar_modules()
            for attr, value in vars(module).items() if hasattr(value, "perfbench_span")]


def children(spans: list[Span]) -> dict[int | None, list[Span]]:
    out: dict[int | None, list[Span]] = {}
    for s in spans:
        out.setdefault(s.parent, []).append(s)
    return out


def self_ms(span: Span, kids: dict[int | None, list[Span]]) -> float:
    return span.ms - sum(c.ms for c in kids.get(span.id, ()))


def descendants(span: Span, kids: dict[int | None, list[Span]]) -> list[Span]:
    out = []
    todo = list(kids.get(span.id, ()))
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids.get(s.id, ()))
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from a traced run.

    Stage figures are summed over one CPI (one ``run_scenario`` span and
    everything under it) and reported as the median over CPIs; a layer
    that a workload never reaches reads 0.
    """
    kids = children(spans)
    cpis = [s for s in spans if s.name == "harness.run_scenario"]
    under = {c.id: descendants(c, kids) for c in cpis}

    def per_cpi(value) -> float:
        return _median([value(c, under[c.id]) for c in cpis])

    def ms(name: str) -> tuple[float, str]:
        return per_cpi(lambda c, ds: sum(s.ms for s in ds if s.name == name)), "ms"

    def count(name: str, key: str, scale: float = 1.0) -> float:
        return per_cpi(lambda c, ds: sum(s.counts[key] for s in ds if s.name == name)) * scale

    def stage1_points(c, ds) -> int:
        return sum(x.counts["points"] for s in ds if s.name == "estimation.stage1"
                   for x in descendants(s, kids) if x.name == "estimation.xi1_surface")

    emits = [s for s in spans if s.name == "harness.emit"]
    sweeps = [s for s in spans if s.name == "harness.monte_carlo_rmse"]
    return {
        "scenario.load_ms": (_median([s.ms for s in spans if s.name == "scenario.load"]), "ms"),
        "waveform.codes_ms": ms("waveform.codes"),
        "channel.synthesize_ms": ms("channel.synthesize"),
        "channel.cube_mb": (count("channel.synthesize", "bytes", 1e-6), "MB"),
        "estimation.covariance_ms": ms("estimation.covariance"),
        # the fast-time split only; the snapshot and MUSIC splits sit
        # inside the xi2 context and the baseline
        "estimation.subspace_ms": (per_cpi(lambda c, ds: sum(
            s.ms for s in kids.get(c.id, ()) if s.name == "estimation.subspace")), "ms"),
        "estimation.stage1_ms": ms("estimation.stage1"),
        "estimation.stage1_points": (per_cpi(stage1_points), "count"),
        "estimation.xi1_surface_calls": (per_cpi(lambda c, ds: sum(
            1 for s in ds if s.name == "estimation.xi1_surface")), "count"),
        "estimation.doppler_refine_ms": ms("estimation.doppler_refine"),
        "estimation.xi2_context_ms": ms("estimation.xi2_context"),
        "estimation.xi2_search_ms": ms("estimation.xi2_search"),
        "estimation.xi2_points": (count("estimation.xi2_surface", "points"), "count"),
        "extender.blockers_ms": ms("extender.blockers"),
        "extender.virtual_ms": ms("extender.virtual"),
        "extender.virtual_mb": (count("extender.virtual", "bytes", 1e-6), "MB"),
        "baseline.estimate_ms": ms("baseline.estimate"),
        "harness.run_scenario_self_ms": (per_cpi(lambda c, ds: self_ms(c, kids)), "ms"),
        "harness.emit_ms": (_median([s.ms for s in emits]), "ms"),
        "harness.emit_rows": (_median([s.counts["rows"] for s in emits]), "count"),
        "harness.mc_self_ms_per_trial": (_median(
            [self_ms(s, kids) / s.counts["trials"] for s in sweeps]), "ms"),
        "trace.cpis": (len(cpis), "count"),
        "trace.emits": (len(emits), "count"),
    }
