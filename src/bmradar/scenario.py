"""Experiment configuration: system constants, array geometries, targets.

All ranges at this interface are in compressed range bins (one bin =
c * chip_period metres); all angles are degrees.  Everything is immutable
after construction, so a Scenario can be shared freely across workers.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .waveform import _degree_for

SPEED_OF_LIGHT = 299_792_458.0  # m/s

__all__ = [
    "SPEED_OF_LIGHT",
    "ScenarioError",
    "SystemConfig",
    "ArrayGeometry",
    "TargetSpec",
    "Scenario",
    "default_scenario",
    "load_scenario",
    "save_scenario",
    "scenario_to_dict",
    "truth_from_geometry",
]


class ScenarioError(ValueError):
    """Raised when a scenario file fails parsing or validation."""


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ScenarioError(f"{field_name}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A real number that is finite as a float (an int too large for a
    float is not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require_numbers(obj, ints: tuple[str, ...], optional: tuple[str, ...] = (),
                     levels: tuple[str, ...] = ()) -> None:
    """Every field of obj is a number of its kind, checked before any
    comparison: the names in ints are integers, every other field a
    finite real, except that the levels may also be a float +-inf or NaN
    (later checks narrow them).  A bool is neither, and only the optional
    fields may be None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is None and f.name in optional:
            continue
        if f.name in ints:
            _require(_is_int(value), f.name, f"must be an integer (got {value!r})")
        else:
            _require(_is_real(value), f.name, f"must be a number (got {value!r})")
            _require(_is_finite(value) or (f.name in levels and isinstance(value, float)),
                     f.name, f"must be finite (got {value!r})")


@dataclass(frozen=True)
class SystemConfig:
    """Radar system constants for one coherent processing interval.

    The fast-time extent of a PRI can be given either as ``pulses_per_pri``
    (PRI = pulses_per_pri * code_length chips) or as
    ``unambiguous_range_bins`` (PRI = 2 * unambiguous_range_bins chips).
    Exactly one of the two must be set.  The code length must be
    2**r - 1 for a register degree the code generator supports.
    """

    carrier_frequency_hz: float = 1.3e9
    chip_period_s: float = 1e-6
    code_length: int = 15
    pris_per_cpi: int = 256
    tx_count: int = 5
    rx_count: int = 5
    tx_power_w: float = 1.0
    snr_db: float = 20.0
    scr_db: float = -5.0
    baseline_bins: float = 95.0
    pulses_per_pri: int | None = None
    unambiguous_range_bins: int | None = 262

    def __post_init__(self) -> None:
        pri_extent = ("pulses_per_pri", "unambiguous_range_bins")
        _require_numbers(self, ("code_length", "pris_per_cpi", "tx_count", "rx_count",
                                *pri_extent), optional=pri_extent, levels=("snr_db", "scr_db"))
        _require(self.carrier_frequency_hz > 0, "carrier_frequency_hz", "must be > 0")
        _require(self.chip_period_s > 0, "chip_period_s", "must be > 0")
        _require(self.code_length >= 1, "code_length", "must be >= 1")
        try:
            _degree_for(self.code_length)
        except ValueError as exc:
            raise ScenarioError(f"code_length: {exc}") from None
        _require(self.pris_per_cpi >= 1, "pris_per_cpi", "must be >= 1")
        _require(self.tx_count >= 1, "tx_count", "must be >= 1")
        _require(self.rx_count >= 1, "rx_count", "must be >= 1")
        _require(self.tx_power_w > 0, "tx_power_w", "must be > 0")
        # +inf is the documented "disabled" flag for noise/clutter
        for name in ("snr_db", "scr_db"):
            level = getattr(self, name)
            _require(not math.isnan(level), name, "must not be NaN")
            _require(level != -math.inf, name, "must not be -inf (+inf disables it)")
        _require(self.baseline_bins > 0, "baseline_bins", "must be > 0")
        if (self.pulses_per_pri is None) == (self.unambiguous_range_bins is None):
            raise ScenarioError(
                "pulses_per_pri/unambiguous_range_bins: exactly one must be set"
            )
        if self.pulses_per_pri is not None:
            _require(self.pulses_per_pri >= 1, "pulses_per_pri", "must be >= 1")
        if self.unambiguous_range_bins is not None:
            _require(self.unambiguous_range_bins >= 1, "unambiguous_range_bins", "must be >= 1")
        _require(
            self.fast_time_bins >= self.code_length,
            "fast_time_bins",
            "PRI must hold at least one full code period",
        )

    @property
    def fast_time_bins(self) -> int:
        """Compressed range bins per PRI (fast-time samples per PRI)."""
        if self.pulses_per_pri is not None:
            return self.pulses_per_pri * self.code_length
        return 2 * int(self.unambiguous_range_bins)

    @property
    def pri_s(self) -> float:
        return self.fast_time_bins * self.chip_period_s

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def prf_hz(self) -> float:
        return 1.0 / self.pri_s

    @property
    def range_bin_m(self) -> float:
        """Metres per compressed range bin: c times one chip."""
        return SPEED_OF_LIGHT * self.chip_period_s


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna element positions as a 3 x M matrix of metres (x, y, z rows).

    The coordinates must be 3 equal-length rows of at least one finite
    real number each (a bool is not one); they are stored as float tuples.
    """

    coordinates: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        rows = self.coordinates
        _require(isinstance(rows, (list, tuple)) and len(rows) == 3
                 and all(isinstance(row, (list, tuple)) and len(row) == len(rows[0])
                         for row in rows)
                 and all(_is_real(v) and _is_finite(v) for row in rows for v in row),
                 "coordinates", "must be 3 rows of M finite numbers each")
        _require(len(rows[0]) >= 1, "coordinates", "must hold at least one element")
        object.__setattr__(self, "coordinates",
                           tuple(tuple(float(v) for v in row) for row in rows))

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.coordinates, dtype=float)

    @property
    def element_count(self) -> int:
        return len(self.coordinates[0])


@dataclass(frozen=True)
class TargetSpec:
    """One target: geometry (bins/degrees), fluctuation model, motion."""

    tx_range_bins: float
    rx_range_bins: float
    doa_deg: float
    dod_deg: float
    bistatic_angle_deg: float
    rcs_mean_m2: float = 1.0
    swerling_model: int = 1
    velocity_mps: float = 0.0
    motion_angle_deg: float = 0.0

    def __post_init__(self) -> None:
        _require_numbers(self, ("swerling_model",))
        _require(self.tx_range_bins > 0, "tx_range_bins", "must be > 0")
        _require(self.rx_range_bins > 0, "rx_range_bins", "must be > 0")
        _require(math.isfinite(self.bistatic_range_bins), "tx_range_bins/rx_range_bins",
                 "sum must be finite")
        for name in ("doa_deg", "dod_deg"):
            angle = getattr(self, name)
            _require(0.0 <= angle <= 180.0, name, f"must lie in [0, 180] degrees (got {angle})")
        _require(self.rcs_mean_m2 > 0, "rcs_mean_m2", "must be > 0")
        _require(self.swerling_model in (1, 2, 3), "swerling_model", "must be 1, 2 or 3")

    @property
    def bistatic_range_bins(self) -> float:
        return self.tx_range_bins + self.rx_range_bins


@dataclass(frozen=True)
class Scenario:
    """Full experiment description; validated on construction."""

    system: SystemConfig = field(default_factory=SystemConfig)
    tx_array: ArrayGeometry = None  # type: ignore[assignment]
    rx_array: ArrayGeometry = None  # type: ignore[assignment]
    targets: tuple[TargetSpec, ...] = ()
    rng_seed: int = 0

    def __post_init__(self) -> None:
        _require(_is_int(self.rng_seed), "rng_seed", f"must be an integer (got {self.rng_seed!r})")
        _require(self.tx_array is not None, "tx_array", "is required")
        _require(self.rx_array is not None, "rx_array", "is required")
        _require(
            self.tx_array.element_count == self.system.tx_count,
            "tx_array.coordinates",
            f"must have {self.system.tx_count} columns (tx_count)",
        )
        _require(
            self.rx_array.element_count == self.system.rx_count,
            "rx_array.coordinates",
            f"must have {self.system.rx_count} columns (rx_count)",
        )
        for idx, t in enumerate(self.targets):
            name = f"targets[{idx}]"
            _require(
                t.bistatic_range_bins > self.system.baseline_bins,
                f"{name}.bistatic_range_bins",
                "target lies on or inside the baseline (bistatic range must exceed it)",
            )
            _require(
                abs(t.tx_range_bins - t.rx_range_bins) < self.system.baseline_bins,
                f"{name}.tx_range_bins/rx_range_bins",
                "triangle inequality with the baseline is violated",
            )
            delay, last = _delay_bins(t), self.system.fast_time_bins - self.system.code_length
            _require(delay <= last, f"{name}.bistatic_range_bins",
                     f"delay {delay} bins is range-ambiguous (need delay <= {last})")

    @property
    def target_count(self) -> int:
        return len(self.targets)

    def with_system(self, **changes) -> "Scenario":
        """Copy of this scenario with SystemConfig fields replaced."""
        return replace(self, system=replace(self.system, **changes))


def _delay_bins(target: TargetSpec) -> int:
    """Echo delay in whole chips: the floor of the bistatic range in bins."""
    return int(math.floor(target.tx_range_bins + target.rx_range_bins + 1e-12))


def truth_from_geometry(target: TargetSpec, system: SystemConfig) -> tuple[int, float]:
    """Ground-truth (delay bin, Doppler Hz) implied by a target's geometry.

    The delay is the floor of the echo round-trip time in chips, which for
    bin-valued ranges is simply tx_range + rx_range.  The bistatic Doppler
    uses the half-bistatic-angle projection of the velocity.
    """
    d_true = _delay_bins(target)
    f_true = (
        (2.0 * target.velocity_mps / system.wavelength_m)
        * math.cos(math.radians(target.motion_angle_deg))
        * math.cos(math.radians(target.bistatic_angle_deg) / 2.0)
    )
    prf = system.prf_hz
    if abs(f_true) > prf / 2.0:
        warnings.warn(
            f"Doppler {f_true:.2f} Hz exceeds +-PRF/2 = {prf / 2:.2f} Hz; "
            "estimates will alias",
            RuntimeWarning,
            stacklevel=2,
        )
    return d_true, f_true


def default_scenario() -> Scenario:
    """The bundled reference scenario, loaded from ``data/paper.json``.

    1.3 GHz carrier, 15-chip codes, 524 compressed bins per PRI, 256 PRIs
    per CPI, two 5-element uniform circular arrays 95 bins apart (Tx
    elements three half-wavelength units apart, Rx elements one), three
    fluctuating targets, 20 dB SNR and -5 dB SCR.
    """
    return load_scenario(default_scenario_path())


def default_scenario_path() -> Path:
    """Filesystem path of the bundled default scenario JSON."""
    return Path(str(resources.files("bmradar").joinpath("data/paper.json")))


def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-ready document of a scenario: infinite levels become null and
    only the set one of pulses_per_pri / unambiguous_range_bins is kept."""
    doc = asdict(scenario)
    system = doc["system"]
    for name in ("snr_db", "scr_db"):
        if math.isinf(system[name]):
            system[name] = None
    for name in ("pulses_per_pri", "unambiguous_range_bins"):
        if system[name] is None:
            del system[name]
    return doc


_SYSTEM_KEYS = {f.name for f in fields(SystemConfig)}
_TARGET_KEYS = {f.name for f in fields(TargetSpec)}


def scenario_from_dict(doc: dict) -> Scenario:
    """Scenario of a JSON document; every malformed field is a
    ScenarioError that names it."""
    if not isinstance(doc, dict):
        raise ScenarioError("document: top level must be a JSON object")
    _require(isinstance(doc.get("system", {}), dict), "system", "must be an object")
    sys_doc = dict(doc.get("system", {}))
    unknown = set(sys_doc) - _SYSTEM_KEYS
    _require(not unknown, "system", f"unknown keys {sorted(unknown)}")
    # null means "disabled" for the noise/clutter levels
    for k in ("snr_db", "scr_db"):
        if sys_doc.get(k, 0.0) is None:
            sys_doc[k] = math.inf
    if "pulses_per_pri" in sys_doc and "unambiguous_range_bins" not in sys_doc:
        sys_doc["unambiguous_range_bins"] = None
    system = SystemConfig(**sys_doc)

    def geometry(key: str) -> ArrayGeometry:
        g = doc.get(key)
        _require(isinstance(g, dict) and "coordinates" in g, key, "must supply coordinates")
        try:
            return ArrayGeometry(g["coordinates"])
        except ScenarioError as exc:
            raise ScenarioError(f"{key}.{exc}") from None

    _require(isinstance(doc.get("targets", []), (list, tuple)), "targets", "must be a list")
    targets = []
    for idx, tdoc in enumerate(doc.get("targets", [])):
        _require(isinstance(tdoc, dict), f"targets[{idx}]", "must be an object")
        unknown = set(tdoc) - _TARGET_KEYS
        _require(not unknown, f"targets[{idx}]", f"unknown keys {sorted(unknown)}")
        try:
            targets.append(TargetSpec(**tdoc))
        except TypeError as exc:
            raise ScenarioError(f"targets[{idx}]: {exc}") from exc
        except ScenarioError as exc:
            raise ScenarioError(f"targets[{idx}].{exc}") from exc

    return Scenario(
        system=system,
        tx_array=geometry("tx_array"),
        rx_array=geometry("rx_array"),
        targets=tuple(targets),
        rng_seed=doc.get("rng_seed", 0),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario from a JSON file.

    Raises ScenarioError with the offending field named for both parse and
    validation failures.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: malformed JSON ({exc})") from exc
    return scenario_from_dict(doc)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")
