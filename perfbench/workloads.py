"""The three workloads: what one operation is, its inputs, its checks.

Each workload runs a fixed panel of operations, one at a time from one
process (a closed loop with one client).  A run repeats the whole panel
in rounds until the measuring time is used up, so every run attempts
whole rounds of the same operations; repeated rounds must reproduce the
first round's output files byte for byte.

The panels use fixed seeds, the acceptance suite's own, so that the
accuracy metrics compare exactly between two commits: angle RMSE over a
seed-drawn panel of this size moves by more than 100% from one seed to
the next (README.md).  The run's ``--seed`` orders the operations inside
a round and draws the probe points of the surface checks.

Library calls and their arguments mirror ``bmradar.cli`` with default
flags: ``radar run --method both``, ``radar mc --method both --jobs 1``
and ``radar grids``.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path

import numpy as np

import bmradar.channel as channel
import bmradar.estimation as estimation
import bmradar.extender as extender
import bmradar.harness as harness
import bmradar.manifold as manifold
import bmradar.waveform as waveform

import checks

# The acceptance suite's trial-seed derivation, written out here so that
# the panels stay put if the program's private helpers change.
_MC_DOMAIN = 0x4D432D52
# run_scenario's root seed domain; the grids check rebuilds each CPI's
# cube with it and fails loudly if the program's seeding moves.
_RUN_DOMAIN = 0x52414441
ACCEPT_SEED = 20260808        # criterion-5 sweep
CLUTTER_SEED = ACCEPT_SEED + 1  # criteria 2-4 operating point

CPI_PANEL = 8       # CPIs per cpi-clutter round
GRIDS_PANEL = 2     # exports per grids round
MC_SNR_DB = [0.0, 5.0, 10.0, 15.0, 20.0]
MC_TRIALS = 2       # trials per SNR point in one mc-sweep operation
SURFACE_PROBES = 16  # random probe points per surface check


def trial_seed(master: int, snr_idx: int, trial_idx: int) -> int:
    seq = np.random.SeedSequence([_MC_DOMAIN, master, snr_idx, trial_idx])
    return int(seq.generate_state(1, np.uint64)[0])


def cli_common() -> dict:
    """Keyword arguments every ``radar`` subcommand passes by default."""
    return dict(
        grid=estimation.GridSpec(doppler_hz=None, angle_step_deg=0.5,
                                 angle_refine_step_deg=0.01),
        code_kind="mseq", k=None, estimate_k=False, baseline_gate_music=False,
    )


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def aligned_tuples(result, method: str) -> list:
    """Estimates of one method aligned to the truth order, as tuples."""
    aligned = harness.align_to_truth(result.truth, result.reports[method].entries)
    return [None if e is None else (e.delay_bins, e.doppler_hz, e.doa_deg, e.dod_deg)
            for e in aligned]


class _Workload:
    """Shared round bookkeeping; subclasses define ``panel`` and ``op``."""

    name = ""
    outputs: tuple[str, ...] = ()

    def __init__(self, scenario, doc: dict, seed: int, out_dir: Path) -> None:
        self.scenario = scenario
        self.truth = checks.truth_from_json(doc)
        self.out = out_dir
        order_seq, probe_seq = np.random.SeedSequence(seed).spawn(2)
        keys = self.panel()
        self.order = [keys[i] for i in np.random.default_rng(order_seq).permutation(len(keys))]
        self.probe_rng = np.random.default_rng(probe_seq)
        self.first: dict = {}      # panel key -> result of its first run
        self.digests: dict = {}    # panel key -> output file digests
        self.problems: list[str] = []

    def panel(self) -> list:
        raise NotImplementedError

    def op(self, key):
        """Run one operation and write its output files; returns its result."""
        raise NotImplementedError

    def run_op(self, key) -> float:
        t0 = time.perf_counter()
        result = self.op(key)
        elapsed = time.perf_counter() - t0
        files = {name: digest(self.out / name) for name in self.outputs}
        if key not in self.first:
            self.first[key] = result
            self.digests[key] = files
            self.record_first(key, result)
        elif files != self.digests[key]:
            self.problems.append(f"{self.name} {key}: outputs differ from the first round")
        return elapsed

    def record_first(self, key, result) -> None:
        """Keep what the checks need from an operation's first run."""

    def check(self) -> list[str]:
        return list(self.problems)

    def _aligned(self, method: str) -> list:
        return [harness.align_to_truth(r.truth, r.reports[method].entries)
                for r in self.first.values()]

    def vst_rmse(self) -> tuple[float, float]:
        """v-ST angle RMSE over the panel, misses charged the worst case."""
        aligned = self._aligned("vst")
        return (checks.rmse_from_aligned(aligned, [t[2] for t in self.truth], "doa_deg"),
                checks.rmse_from_aligned(aligned, [t[3] for t in self.truth], "dod_deg"))

    def baseline_dod_rmse(self) -> float:
        return 0.0


class CpiClutter(_Workload):
    """``radar run --method both`` on paper.json: 3 targets, 20 dB SNR,
    -5 dB SCR, one CPI per operation, estimates.csv written each time."""

    name = "cpi-clutter"
    outputs = ("estimates.csv",)

    def panel(self) -> list:
        return [trial_seed(CLUTTER_SEED, 0, t) for t in range(CPI_PANEL)]

    def op(self, seed):
        result = harness.run_scenario(self.scenario, method="both", seed=seed,
                                      refine_doppler=True, dump_cube_path=None,
                                      **cli_common())
        harness.emit_outputs(self.out, run=result)
        return result

    def record_first(self, seed, result) -> None:
        self.problems += checks.check_truth(self.truth, result.truth)
        run = {m: aligned_tuples(result, m) for m in result.reports}
        self.problems += checks.check_estimates_csv(
            (self.out / "estimates.csv").read_bytes(), run, self.truth)

    def check(self) -> list[str]:
        rated = [[None if e is None else (e[0], e[1]) for e in aligned_tuples(r, "vst")]
                 for r in self.first.values()]
        return self.problems + checks.check_criteria_rates(rated, self.truth)

    def baseline_dod_rmse(self) -> float:
        return checks.rmse_from_aligned(self._aligned("baseline"),
                                        [t[3] for t in self.truth], "dod_deg")


class McSweep(_Workload):
    """``radar mc --method both --jobs 1``: clutter off, SNR 0..20 dB,
    MC_TRIALS trials per point, rmse.csv written each time."""

    name = "mc-sweep"
    outputs = ("rmse.csv",)
    jobs = 1

    def panel(self) -> list:
        return [ACCEPT_SEED]

    def op(self, master_seed):
        common = cli_common()
        report = harness.monte_carlo_rmse(
            self.scenario, MC_SNR_DB, MC_TRIALS, method="both", seed=master_seed,
            jobs=self.jobs, grid=common["grid"], code_kind="mseq",
            drop_failures=False, clutter_mode="off", baseline_gate_music=False,
        )
        harness.emit_outputs(self.out, rmse=report, extra_config={
            "snr_db": MC_SNR_DB, "trials": MC_TRIALS, "jobs": self.jobs})
        return report

    def record_first(self, key, report) -> None:
        failed = [r for r in report.records if r.failed]
        if failed:
            self.problems.append(f"{len(failed)} trials failed: {failed[0].failed}")
        self.problems += checks.check_rmse_points(report, self.scenario.targets)
        self.problems += checks.check_sweep_order(report.points)
        self.problems += checks.check_rmse_csv((self.out / "rmse.csv").read_bytes(), report)

    def _top(self) -> dict:
        report = self.first[ACCEPT_SEED]
        return max(report.points, key=lambda p: p.snr_db).rmse

    def vst_rmse(self) -> tuple[float, float]:
        top = self._top()
        return top["doa_vst"], top["dod_vst"]

    def baseline_dod_rmse(self) -> float:
        return self._top()["dod_baseline"]


class Grids(_Workload):
    """``radar grids``: one v-ST CPI with both cost surfaces stored, then
    estimates.csv, xi1_grid.csv and xi2_grid.csv written."""

    name = "grids"
    outputs = ("estimates.csv", "xi1_grid.csv", "xi2_grid.csv")

    def panel(self) -> list:
        return [trial_seed(CLUTTER_SEED, 0, t) for t in range(GRIDS_PANEL)]

    def op(self, seed):
        result = harness.run_scenario(self.scenario, method="vst", seed=seed,
                                      store_surfaces=True, **cli_common())
        harness.emit_outputs(self.out, run=result)
        return result

    def record_first(self, seed, result) -> None:
        self.problems += checks.check_truth(self.truth, result.truth)
        run = {"vst": aligned_tuples(result, "vst")}
        self.problems += checks.check_estimates_csv(
            (self.out / "estimates.csv").read_bytes(), run, self.truth)
        # kept on disk, not in memory, so they do not count in peak_rss_mb
        for name in ("xi1_grid.csv", "xi2_grid.csv"):
            shutil.copyfile(self.out / name, self._kept(seed, name))

    def _kept(self, seed: int, name: str) -> Path:
        return self.out / f"first-{seed}-{name}"

    def check(self) -> list[str]:
        problems = list(self.problems)
        for seed, result in self.first.items():
            problems += self._check_surfaces(
                seed, result, self._kept(seed, "xi1_grid.csv").read_bytes(),
                self._kept(seed, "xi2_grid.csv").read_bytes())
        return problems

    def _rebuild(self, seed: int):
        """The CPI's codes and cube, rebuilt under run_scenario's seeding."""
        system = self.scenario.system
        root = np.random.SeedSequence([_RUN_DOMAIN, self.scenario.rng_seed & 0xFFFFFFFF, seed])
        code_seq, symbol_seq, synth_seq = root.spawn(3)
        codes = waveform.extend_codes(
            waveform.generate_pn_codes(system.tx_count, system.code_length, "mseq",
                                       seed=code_seq),
            system.fast_time_bins)
        symbols = waveform.generate_symbols(system.pris_per_cpi, seed=symbol_seq)
        cube = channel.synthesize_cube(self.scenario, codes, symbols,
                                       np.random.default_rng(synth_seq))
        return codes, cube

    def _probes(self, shape, fixed) -> list[tuple[int, int]]:
        rand = zip(self.probe_rng.integers(0, shape[0], SURFACE_PROBES),
                   self.probe_rng.integers(0, shape[1], SURFACE_PROBES))
        return list(dict.fromkeys(list(fixed) + [(int(i), int(j)) for i, j in rand]))

    def _check_surfaces(self, seed, result, xi1_csv: bytes, xi2_csv: bytes) -> list[str]:
        system = self.scenario.system
        codes, cube = self._rebuild(seed)
        problems = checks.check_truth(self.truth, cube.truth)
        entries = result.reports["vst"].entries  # stage-1 order
        k = len(entries)

        delays, dopplers, _ = result.xi1_grid
        xi1, bad = checks.parse_surface_csv(xi1_csv, delays, dopplers)
        problems += bad
        if xi1.size:
            # a stage-1 peak is the largest value in its delay row
            rows = [int(np.flatnonzero(delays == e.delay_bins)[0]) for e in entries]
            probes = self._probes(xi1.shape, [(i, int(np.argmax(xi1[i]))) for i in rows])
            basis = checks.fast_time_signal_basis(cube.samples, k)
            want = {(i, j): checks.xi1_direct(codes.chips, basis, int(delays[i]),
                                              float(dopplers[j]), system.chip_period_s)
                    for i, j in probes}
            problems += checks.check_surface_values("xi1", xi1, want)

        theta, theta_bar, _ = result.xi2_grid
        xi2, bad = checks.parse_surface_csv(xi2_csv, theta, theta_bar)
        problems += bad
        if xi2.size:
            estimates = [(e.delay_bins, e.doppler_hz) for e in entries]
            nearest = [(int(np.argmin(abs(theta - e.doa_deg))),
                        int(np.argmin(abs(theta_bar - e.dod_deg))))
                       for e in entries if e.doa_deg is not None]
            probes = self._probes(xi2.shape, nearest)
            blockers = extender.build_blockers(codes, estimates, system)
            virtual = extender.apply_virtual_extension(cube, blockers)
            u = checks.snapshot_signal_basis(virtual.matrix, k)
            want = {}
            for i, j in probes:
                hs = [manifold.extended_manifold(float(theta[i]), float(theta_bar[j]),
                                                 d, f, self.scenario, codes)
                      for d, f in estimates]
                want[(i, j)] = checks.xi2_direct(hs, list(blockers.bases),
                                                 system.rx_count, u)
            problems += checks.check_surface_values("xi2", xi2, want)
        return problems


WORKLOADS = {w.name: w for w in (CpiClutter, McSweep, Grids)}
