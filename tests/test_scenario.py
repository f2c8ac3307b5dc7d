import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmradar as b
from bmradar.scenario import ScenarioError, scenario_from_dict, scenario_to_dict
from conftest import make_tiny_scenario

C = b.SPEED_OF_LIGHT


class TestDefaultScenario:
    def test_system_constants(self, paper_scenario):
        s = paper_scenario.system
        assert s.carrier_frequency_hz == 1.3e9
        assert s.code_length == 15
        assert s.unambiguous_range_bins == 262
        assert s.fast_time_bins == 524
        assert s.pris_per_cpi == 256
        assert s.tx_count == s.rx_count == 5
        assert s.snr_db == 20.0
        assert s.scr_db == -5.0
        assert s.baseline_bins == 95.0

    def test_first_target_row(self, paper_scenario):
        t = paper_scenario.targets[0]
        assert (t.tx_range_bins, t.rx_range_bins) == (51, 101)
        assert (t.doa_deg, t.dod_deg, t.bistatic_angle_deg) == (150.0, 81.20, 68.80)
        assert t.velocity_mps == -60.0
        assert t.swerling_model == 1
        assert t.rcs_mean_m2 == 1.0

    def test_rx_array_first_element(self, paper_scenario):
        col = paper_scenario.rx_array.matrix[:, 0]
        assert col == pytest.approx((0.092, 0.0, 0.0))

    def test_every_target_row(self, paper_scenario):
        rows = [(t.tx_range_bins, t.rx_range_bins, t.doa_deg, t.dod_deg,
                 t.bistatic_angle_deg, t.rcs_mean_m2, t.swerling_model, t.velocity_mps,
                 t.motion_angle_deg) for t in paper_scenario.targets]
        assert rows == [(51, 101, 150.0, 81.20, 68.80, 1.0, 1, -60.0, 0.0),
                        (85, 104, 130.0, 70.83, 59.17, 1.5, 2, 20.0, 0.0),
                        (126, 102, 100.0, 52.31, 47.69, 2.0, 3, 60.0, 0.0)]
        assert paper_scenario.rng_seed == 0

    def test_array_coordinates(self, paper_scenario):
        # uniform circular arrays: Tx elements three half-wavelength units
        # apart, Rx elements one
        assert paper_scenario.tx_array.coordinates == (
            (0.28, 0.09, -0.22, -0.22, 0.09),
            (0.0, 0.26, 0.16, -0.16, -0.26),
            (0.0, 0.0, 0.0, 0.0, 0.0),
        )
        assert paper_scenario.rx_array.coordinates == (
            (0.092, 0.028, -0.074, -0.074, 0.028),
            (0.0, 0.087, 0.054, -0.054, -0.087),
            (0.0, 0.0, 0.0, 0.0, 0.0),
        )

    def test_pulse_timing(self, paper_scenario):
        assert paper_scenario.system.pri_s == pytest.approx(524e-6)

    def test_prf_holds_fastest_target(self, paper_scenario):
        # chip period chosen so the largest Doppler stays unambiguous
        d = paper_scenario.system
        assert d.prf_hz == pytest.approx(1.0 / 524e-6)
        assert 475.94 < d.prf_hz / 2.0


class TestDerivedParams:
    def test_wavelength(self, paper_scenario):
        d = paper_scenario.system
        assert d.wavelength_m == pytest.approx(C / 1.3e9, rel=1e-12)
        assert d.wavelength_m == pytest.approx(0.230609, abs=1e-6)

    def test_range_bin_metres(self, paper_scenario):
        d = paper_scenario.system
        assert d.range_bin_m == pytest.approx(C * 1e-6, rel=1e-12)

    @pytest.mark.parametrize("name", ["paper", "tiny"])
    def test_properties_bit_equal_to_the_formulas(self, paper_scenario, name):
        # each property is exactly its closed-form expression
        system = paper_scenario.system if name == "paper" else make_tiny_scenario().system
        assert system.wavelength_m == C / system.carrier_frequency_hz
        assert system.prf_hz == 1.0 / system.pri_s
        assert system.range_bin_m == C * system.chip_period_s

    def test_zero_carrier_rejected(self):
        with pytest.raises(ScenarioError, match="carrier_frequency_hz"):
            b.SystemConfig(carrier_frequency_hz=0.0)


class TestLoadTimeValidation:
    @pytest.mark.parametrize("value", [200.0, -0.5, math.nan, math.inf])
    def test_doa_outside_search_span_rejected(self, value):
        with pytest.raises(ScenarioError, match="doa_deg"):
            b.TargetSpec(51, 101, value, 81.2, 68.8)

    @pytest.mark.parametrize("value", [180.5, -10.0, math.nan, -math.inf])
    def test_dod_outside_search_span_rejected(self, value):
        with pytest.raises(ScenarioError, match="dod_deg"):
            b.TargetSpec(51, 101, 150.0, value, 68.8)

    def test_angle_span_ends_accepted(self):
        t = b.TargetSpec(51, 101, 0.0, 180.0, 68.8)
        assert (t.doa_deg, t.dod_deg) == (0.0, 180.0)

    def test_minus_infinite_snr_rejected(self):
        with pytest.raises(ScenarioError, match="snr_db"):
            b.SystemConfig(snr_db=-math.inf)

    def test_minus_infinite_scr_rejected(self):
        with pytest.raises(ScenarioError, match="scr_db"):
            b.SystemConfig(scr_db=-math.inf)

    def test_plus_infinite_levels_still_disable(self):
        s = b.SystemConfig(snr_db=math.inf, scr_db=math.inf)
        assert s.snr_db == s.scr_db == math.inf

    def test_bad_angle_named_at_load(self, tmp_path):
        doc = scenario_to_dict(b.default_scenario())
        doc["targets"][2]["doa_deg"] = 200.0
        path = tmp_path / "bad_angle.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=r"targets\[2\]\.doa_deg"):
            b.load_scenario(path)

    def test_range_ambiguous_target_rejected(self, paper_scenario):
        # delay 550 > L - nc = 509: the code would leave the PRI
        far = replace(paper_scenario.targets[0], tx_range_bins=300, rx_range_bins=250)
        with pytest.raises(ScenarioError,
                           match=r"targets\[0\]\.bistatic_range_bins: delay 550 .*<= 509"):
            replace(paper_scenario, targets=(far,) + paper_scenario.targets[1:])

    def test_last_unambiguous_delay_accepted(self, paper_scenario):
        edge = replace(paper_scenario.targets[0], tx_range_bins=259, rx_range_bins=250)
        s = replace(paper_scenario, targets=(edge,))
        assert b.truth_from_geometry(s.targets[0], s.system)[0] == 509

    def test_range_ambiguous_target_named_at_load(self, tmp_path):
        doc = scenario_to_dict(b.default_scenario())
        doc["targets"][1].update(tx_range_bins=300.0, rx_range_bins=250.0)
        path = tmp_path / "ambiguous.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=r"targets\[1\]\.bistatic_range_bins"):
            b.load_scenario(path)


class TestTruthFromGeometry:
    # reference truth rows for the default targets: delay bins, Doppler Hz
    EXPECTED = [(152, -429.37), (189, 150.84), (228, 475.94)]

    def test_table_rows(self, paper_scenario):
        for target, (d_exp, f_exp) in zip(paper_scenario.targets, self.EXPECTED):
            d, f = b.truth_from_geometry(target, paper_scenario.system)
            assert d == d_exp
            assert f == pytest.approx(f_exp, abs=0.05)

    def test_cross_check_row3(self, paper_scenario):
        # independent evaluation of the Doppler expression
        lam = C / 1.3e9
        expected = (2 * 60.0 / lam) * math.cos(math.radians(47.69 / 2))
        _, f = b.truth_from_geometry(paper_scenario.targets[2], paper_scenario.system)
        assert f == pytest.approx(expected, abs=1e-9)

    def test_zero_velocity(self, paper_scenario):
        t = b.TargetSpec(51, 101, 150.0, 81.2, 68.8, velocity_mps=0.0)
        _, f = b.truth_from_geometry(t, paper_scenario.system)
        assert f == 0.0

    def test_ambiguous_doppler_warns(self, paper_scenario):
        t = b.TargetSpec(51, 101, 150.0, 81.2, 10.0, velocity_mps=300.0)
        with pytest.warns(RuntimeWarning, match="alias"):
            b.truth_from_geometry(t, paper_scenario.system)


class TestTriangleConsistency:
    def test_law_of_cosines_vs_doa(self, paper_scenario):
        # interior angle at the Rx site should equal 180 deg - DOA; the
        # default targets' bin-quantised ranges deviate by up to ~0.57 deg
        l_bi = paper_scenario.system.baseline_bins
        for t in paper_scenario.targets:
            cos_int = (l_bi**2 + t.rx_range_bins**2 - t.tx_range_bins**2) / (
                2 * l_bi * t.rx_range_bins
            )
            interior = math.degrees(math.acos(cos_int))
            assert abs(interior - (180.0 - t.doa_deg)) < 0.6


class TestLoadSave:
    def test_bundled_file_matches_default(self, paper_scenario):
        assert b.load_scenario(b.default_scenario_path()) == paper_scenario

    def test_round_trip(self, tmp_path, paper_scenario):
        path = tmp_path / "scenario.json"
        b.save_scenario(paper_scenario, path)
        assert b.load_scenario(path) == paper_scenario

    def test_target_on_baseline_rejected(self, tmp_path):
        doc = scenario_to_dict(b.default_scenario())
        doc["targets"][1]["tx_range_bins"] = 40
        doc["targets"][1]["rx_range_bins"] = 50
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=r"targets\[1\]"):
            b.load_scenario(path)

    def test_missing_seed_defaults_to_zero(self, tmp_path):
        doc = scenario_to_dict(b.default_scenario())
        del doc["rng_seed"]
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(doc))
        assert b.load_scenario(path).rng_seed == 0

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="malformed"):
            b.load_scenario(path)

    def test_null_levels_mean_disabled(self):
        doc = scenario_to_dict(b.default_scenario())
        doc["system"]["snr_db"] = None
        doc["system"]["scr_db"] = None
        s = scenario_from_dict(doc)
        assert math.isinf(s.system.snr_db) and s.system.snr_db > 0
        assert math.isinf(s.system.scr_db)

    def test_unknown_key_named(self):
        doc = scenario_to_dict(b.default_scenario())
        doc["system"]["bogus_field"] = 1
        with pytest.raises(ScenarioError, match="bogus_field"):
            scenario_from_dict(doc)


def _paper_doc() -> dict:
    return json.loads(b.default_scenario_path().read_text())


def _set(doc: dict, path: tuple, value) -> dict:
    """doc with the entry at path (keys and list indices) replaced."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# (entry path, value, field the error must start with): one entry of
# paper.json replaced
_BAD_FIELDS = [
    (("system",), 5, "system"),
    (("system",), [1], "system"),
    (("targets",), 5, "targets"),
    (("targets",), [5], r"targets\[0\]"),
    (("tx_array", "coordinates"), None, r"tx_array\.coordinates"),
    (("tx_array", "coordinates"), [1, 2, 3], r"tx_array\.coordinates"),
    (("rx_array", "coordinates", 0, 1), "0.028", r"rx_array\.coordinates"),
    (("rx_array", "coordinates", 2), [0.0, 0.0], r"rx_array\.coordinates"),
    (("rng_seed",), "abc", "rng_seed"),
    (("rng_seed",), 1.7, "rng_seed"),
    (("system", "pris_per_cpi"), 256.0, "pris_per_cpi"),
    (("system", "tx_count"), 5.0, "tx_count"),
    (("system", "code_length"), True, "code_length"),
    (("system", "code_length"), 1, "code_length"),
    # beyond float range: the degree rule must not take a float log
    (("system", "code_length"), 2**70, "code_length"),
    (("system", "chip_period_s"), math.inf, "chip_period_s"),
    (("system", "tx_power_w"), math.inf, "tx_power_w"),
    (("system", "baseline_bins"), "95", "baseline_bins"),
    (("targets", 0, "swerling_model"), 1.0, r"targets\[0\]\.swerling_model"),
    (("targets", 0, "rcs_mean_m2"), math.inf, r"targets\[0\]\.rcs_mean_m2"),
    (("targets", 1, "motion_angle_deg"), math.nan, r"targets\[1\]\.motion_angle_deg"),
    (("targets", 2, "bistatic_angle_deg"), math.nan,
     r"targets\[2\]\.bistatic_angle_deg"),
    (("targets", 2, "tx_range_bins"), 10**400, r"targets\[2\]\.tx_range_bins"),
]


class TestMalformedDocument:
    """One field of paper.json changed: a ScenarioError naming the field."""

    @pytest.mark.parametrize("path, value, field", _BAD_FIELDS, ids=[
        ".".join(map(str, path)) + "=" + repr(value)[:12] for path, value, _ in _BAD_FIELDS])
    def test_named_at_load(self, path, value, field):
        with pytest.raises(ScenarioError, match=rf"^{field}: "):
            scenario_from_dict(_set(_paper_doc(), path, value))

    def test_range_sum_must_be_finite(self):
        # each range is finite, their sum overflows to inf
        doc = _set(_set(_paper_doc(), ("targets", 0, "tx_range_bins"), 1e308),
                   ("targets", 0, "rx_range_bins"), 1e308)
        with pytest.raises(ScenarioError, match=r"^targets\[0\]\.tx_range_bins/rx_range_bins: "):
            scenario_from_dict(doc)

    def test_code_length_follows_the_generator(self):
        # 2**r - 1 for a register degree generate_pn_codes supports
        with pytest.raises(ScenarioError, match=r"^code_length: code length 16 is not 2\*\*r - 1"):
            scenario_from_dict(_set(_paper_doc(), ("system", "code_length"), 16))

    def test_infinite_levels_still_mean_disabled(self):
        doc = _set(_set(_paper_doc(), ("system", "snr_db"), math.inf),
                   ("system", "scr_db"), math.inf)
        s = scenario_from_dict(doc)
        assert s.system.snr_db == s.system.scr_db == math.inf

    def test_integral_and_numpy_values_still_load(self):
        doc = _set(_paper_doc(), ("system", "chip_period_s"), 1)
        assert scenario_from_dict(doc).system.chip_period_s == 1
        system = b.SystemConfig(pris_per_cpi=np.int64(16), baseline_bins=np.float64(95.0))
        assert system.pris_per_cpi == 16


class TestArrayGeometry:
    """The coordinate rule holds for Python construction, not only for a
    scenario file."""

    @pytest.mark.parametrize("coordinates", [
        ((0.0, 1.0), (0.0,), (0.0, 0.0)),
        ((0.0, "1.0"), (0.0, 0.0), (0.0, 0.0)),
        ((0.0, "x"), (0.0, 0.0), (0.0, 0.0)),
        ((0.0, True), (0.0, 0.0), (0.0, 0.0)),
        ((0.0, math.nan), (0.0, 0.0), (0.0, 0.0)),
        ((0.0, 10**400), (0.0, 0.0), (0.0, 0.0)),
        ((0.0,), (0.0,)),
        (0.0, 0.0, 0.0),
        None,
    ], ids=["ragged", "numeric-string", "string", "bool", "nan", "huge-int", "two-rows",
            "flat", "none"])
    def test_bad_coordinates_are_named(self, coordinates):
        with pytest.raises(ScenarioError,
                           match=r"^coordinates: must be 3 rows of M finite numbers each$"):
            b.ArrayGeometry(coordinates)

    def test_stored_as_float_tuples(self):
        geom = b.ArrayGeometry([[0, 1], [0, np.int64(2)], [0.5, np.float64(0.25)]])
        assert geom.coordinates == ((0.0, 1.0), (0.0, 2.0), (0.5, 0.25))
        assert all(type(v) is float for row in geom.coordinates for v in row)


def _entry_paths(node, prefix=()):
    """Key paths to every section, list and value of a scenario document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _entry_paths(child, prefix + (key,))


_PAPER_PATHS = list(_entry_paths(_paper_doc()))
_WRONG_VALUES = [None, True, False, "abc", "1.0", "", 1.7, 256.0, 0, -1, 5, 16, 2**40,
                 10**400, math.inf, -math.inf, math.nan, 1e308, [], [5], [1, 2, 3],
                 [[1.0], [2.0], [3.0]], {}, {"x": 1}]


class TestDocumentFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_PAPER_PATHS), st.sampled_from(_WRONG_VALUES))
    def test_loads_or_names_the_field(self, path, value):
        import tempfile
        from pathlib import Path

        doc = _set(_paper_doc(), path, value)
        with tempfile.TemporaryDirectory() as tmp:
            file = Path(tmp) / "s.json"
            file.write_text(json.dumps(doc))
            try:
                b.load_scenario(file)
            except ScenarioError:
                pass


@st.composite
def valid_scenarios(draw):
    l_bi = draw(st.floats(min_value=1.0, max_value=50.0))
    targets = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        r_tx = draw(st.floats(min_value=1.0, max_value=100.0))
        # keep both triangle constraints satisfied:
        # r_tx + r_rx > l_bi and |r_tx - r_rx| < l_bi
        lo = max(1e-2, r_tx - l_bi, l_bi - r_tx) + l_bi * 1e-3
        hi = r_tx + l_bi - l_bi * 1e-3
        r_rx = draw(st.floats(min_value=lo, max_value=hi))
        targets.append(b.TargetSpec(
            tx_range_bins=r_tx,
            rx_range_bins=r_rx,
            doa_deg=draw(st.floats(min_value=0.0, max_value=180.0)),
            dod_deg=draw(st.floats(min_value=0.0, max_value=180.0)),
            bistatic_angle_deg=draw(st.floats(min_value=0.0, max_value=180.0)),
            rcs_mean_m2=draw(st.floats(min_value=0.1, max_value=10.0)),
            swerling_model=draw(st.sampled_from([1, 2, 3])),
            velocity_mps=draw(st.floats(min_value=-50.0, max_value=50.0)),
        ))
    code_length = draw(st.sampled_from([7, 15]))
    # the PRI must hold every target's delayed code (no range ambiguity)
    longest = max((math.floor(t.bistatic_range_bins + 1e-12) for t in targets), default=0)
    min_pulses = math.ceil((longest + code_length) / code_length)
    system = b.SystemConfig(
        code_length=code_length,
        pris_per_cpi=draw(st.integers(min_value=1, max_value=64)),
        tx_count=2,
        rx_count=2,
        baseline_bins=l_bi,
        pulses_per_pri=draw(st.integers(min_value=min_pulses, max_value=min_pulses + 39)),
        unambiguous_range_bins=None,
    )
    geom = b.ArrayGeometry(((0.0, 0.1), (0.0, 0.0), (0.0, 0.0)))
    return b.Scenario(system=system, tx_array=geom, rx_array=geom,
                      targets=tuple(targets),
                      rng_seed=draw(st.integers(min_value=0, max_value=2**31)))


class TestRoundTripProperty:
    @settings(max_examples=50, deadline=None)
    @given(valid_scenarios())
    def test_save_load_identity(self, scenario):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.json"
            b.save_scenario(scenario, path)
            assert b.load_scenario(path) == scenario


class TestImmutability:
    def test_frozen(self, paper_scenario):
        with pytest.raises(AttributeError):
            paper_scenario.rng_seed = 5  # type: ignore[misc]

    def test_with_system_copies(self, paper_scenario):
        other = paper_scenario.with_system(snr_db=3.0)
        assert other.system.snr_db == 3.0
        assert paper_scenario.system.snr_db == 20.0
        assert np.all(other.rx_array.matrix == paper_scenario.rx_array.matrix)
