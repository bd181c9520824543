"""The scenario schema: every malformed config ends in ConfigInvalid naming
its field, every config that loads runs, and a dump re-parses to an equal
scenario.

The fuzz is deterministic: each leaf of the default dump (at a 0.1 s
horizon), and each top-level section, is replaced in turn by each value of
POOL.
"""

from __future__ import annotations

import copy
import math

import pytest
import yaml

from fablink.cli import main
from fablink.scenario import (
    ConfigInvalid,
    default_scenario,
    dump_scenario,
    scenario_from_dict,
    schema_to_dict,
)
from fablink.sim_core import NS_PER_MS
from fablink.simulation import Simulation

POOL = [None, True, -1, 0, 1.5, "x", [], {}, math.inf, math.nan, 1e300]
SECTIONS = ["radio", "traffic", "factory", "safety", "compliance", "script"]


def _base() -> dict:
    scenario = default_scenario()
    scenario.horizon_s = 0.1
    return schema_to_dict(scenario)


def _leaves(node, path=()):
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _dotted(path) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else (f".{key}" if text else key)
    return text


def _mutated(base: dict, path, value) -> dict:
    data = copy.deepcopy(base)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _names_field(message: str, path) -> bool:
    """The message names the mutated field, or a list or mapping holding it
    (a section alone is too vague, unless the section was mutated)."""
    shortest = 1 if len(path) == 1 else 2
    return any(_dotted(path[:n]) in message for n in range(len(path), shortest - 1, -1))


FUZZ_PATHS = list(_leaves(_base())) + [(s,) for s in SECTIONS]


@pytest.mark.parametrize("path", FUZZ_PATHS, ids=_dotted)
def test_fuzz_mutation_is_rejected_by_name_or_runs(path):
    base = _base()
    for value in POOL:
        data = _mutated(base, path, value)
        try:
            scenario = scenario_from_dict(data)
        except ConfigInvalid as exc:
            assert _names_field(str(exc), path), (value, str(exc))
            continue
        assert scenario.horizon_s <= 1.5
        Simulation(scenario).run()


def test_fuzz_covers_every_leaf_of_the_default_dump():
    dotted = {_dotted(p) for p in FUZZ_PATHS}
    assert {"seed", "horizon_s", "radio.snr_db", "factory.releases.count",
            "factory.transit_s.manual.island3", "compliance.service_area_m[1]",
            "script"} <= dotted
    assert len(FUZZ_PATHS) > 70


# Defects that ended in a traceback from `fablink run`, not a config error.
NEW_DEFECTS = {
    "duplicate_capability": (
        {"factory": {
            "islands": [{"id": "island1", "capabilities": ["engrave", "engrave"]}],
            "releases": {"count": 4, "interval_s": 0}}},
        "factory.islands[0].capabilities[1]",
    ),
    "island_named_manual": (
        {"factory": {"islands": [{"id": "island1"}, {"id": "manual"}]}},
        "factory.islands[1].id",
    ),
    "service_s_overflows": ({"factory": {"service_s": 1e300}}, "factory.service_s"),
}

# Configs that ran with exit 0 while two places of the plant shared one id.
CLASHING_IDS = {
    # two islands make the module `a.b.c`, and two products occupied it at once
    "module_id_clash": (
        {"factory": {"recipe": ["b.c", "c"],
                     "islands": [{"id": "a.b", "capabilities": ["c"]},
                                 {"id": "a", "capabilities": ["b.c"]}],
                     "robot_home": "a", "releases": {"island": "a"}}},
        "factory.islands[1].capabilities[0]",
    ),
    # a module whose id is its island's dock id, `island2.dock`
    "module_named_dock": (
        {"factory": {"islands": [{"id": "island1", "capabilities": ["engrave"]},
                                 {"id": "island2", "capabilities": ["weigh", "dock"]}]}},
        "factory.islands[1].capabilities[1]",
    ),
}

# The catalog's PNIO rows, which the safety channel runs when both exist
PNIO_ROWS = [
    {"name": "pnio_coupler_to_plc", "payload_bytes": 60, "rate_hz": 246.19},
    {"name": "pnio_plc_to_coupler", "payload_bytes": 64, "rate_hz": 246.19},
]


def _pnio(up=None, down=None) -> dict:
    """The PNIO rows with fields of the up and down row replaced."""
    return {"traffic": {"catalog": [dict(PNIO_ROWS[0], **(up or {})),
                                    dict(PNIO_ROWS[1], **(down or {}))]}}


# Keys, row fields and script fields that named nothing the run reads, and loaded.
IGNORED_FIELDS = {
    "service_override_of_no_capability": (
        {"factory": {"service_overrides": {"engrve": 5.0}}},
        "factory.service_overrides.engrve",
    ),
    "transit_row_of_no_island": (
        {"factory": {"transit_s": {
            a: {b: 6.0 for b in ("island1", "island2", "island3", "manual")}
            for a in ("island1", "island2", "island3", "manual", "island9")}}},
        "factory.transit_s.island9",
    ),
    "transit_column_of_no_island": (
        {"factory": {"transit_s": {"island1": {"island9": 6.0}}}},
        "factory.transit_s.island1.island9",
    ),
    "reset_with_endpoint": (
        {"script": [{"at_s": 1, "action": "reset", "endpoint": "island1.loop"}]},
        "script[0].endpoint",
    ),
    "link_down_with_endpoint": (
        {"script": [{"at_s": 1, "action": "link_down", "endpoint": "robot"}]},
        "script[0].endpoint",
    ),
    "estop_with_loop": (
        {"script": [{"at_s": 1, "action": "estop", "endpoint": "robot",
                     "loop": "island1.loop"}]},
        "script[0].loop",
    ),
    "reset_local_with_sensor": (
        {"script": [{"at_s": 1, "action": "reset_local", "sensor": "bumper"}]},
        "script[0].sensor",
    ),
    "module_fault_with_sensor": (
        {"script": [{"at_s": 1, "action": "module_fault",
                     "endpoint": "island1.engrave", "sensor": "laser"}]},
        "script[0].sensor",
    ),
    # the safety channel runs the PNIO rows at the up row's rate, periodic
    # from t = 0 and over the radio, whatever else the rows say
    "pnio_down_rate_differs": (_pnio(down={"rate_hz": 500.0}),
                               "traffic.catalog[1].rate_hz"),
    "pnio_down_poisson": (_pnio(down={"pattern": "poisson"}),
                          "traffic.catalog[1].pattern"),
    "pnio_down_phase": (_pnio(down={"phase_us": 300.0}), "traffic.catalog[1].phase_us"),
    "pnio_down_wired": (_pnio(down={"wireless": False}), "traffic.catalog[1].wireless"),
    "pnio_up_poisson": (_pnio(up={"pattern": "poisson"}), "traffic.catalog[0].pattern"),
    "pnio_up_wired": (_pnio(up={"wireless": False}), "traffic.catalog[0].wireless"),
    # one PNIO row alone was replaced by the measured pair
    "pnio_row_without_partner": (
        {"traffic": {"catalog": [
            {"name": "pnio_coupler_to_plc", "payload_bytes": 40, "rate_hz": 500}]}},
        "traffic.catalog",
    ),
    "script_action_missing": ({"script": [{"at_s": 1.0}]}, "script[0].action"),
    # the robot, its guard and its e-stop exist only with the factory
    "obstacle_without_factory": (
        {"factory": {"enabled": False},
         "script": [{"at_s": 1, "action": "obstacle", "sensor": "laser"}]},
        "script[0].action",
    ),
    "clear_without_factory": (
        {"factory": {"enabled": False},
         "script": [{"at_s": 1, "action": "clear", "sensor": "laser"}]},
        "script[0].action",
    ),
    "reset_local_without_factory": (
        {"factory": {"enabled": False},
         "script": [{"at_s": 1, "action": "reset_local"}]},
        "script[0].action",
    ),
    "robot_estop_without_factory": (
        {"factory": {"enabled": False},
         "script": [{"at_s": 1, "action": "estop", "endpoint": "robot"}]},
        "script[0].endpoint",
    ),
    # rework happens only at the manual station
    "failed_inspection_without_manual_station": (
        {"factory": {"manual_station": False, "defect_probability": 0.5,
                     "releases": {"count": 10, "interval_s": 2.0}}},
        "factory.defect_probability",
    ),
}

# One case per defect the hand-written loader let through.
DEFECTS = {
    "recipe_string": ({"factory": {"recipe": "abc"}}, "factory.recipe"),
    "seed_float": ({"seed": 1.5}, "seed"),
    "seed_bool": ({"seed": True}, "seed"),
    "snr_bool": ({"radio": {"snr_db": True}}, "radio.snr_db"),
    "islands_empty": ({"factory": {"islands": []}}, "factory.islands"),
    "islands_int": ({"factory": {"islands": 5}}, "factory.islands"),
    "duplicate_island": (
        {"factory": {"islands": [{"id": "island1"}, {"id": "island1"}]}},
        "factory.islands[1].id",
    ),
    "duplicate_stream": (
        {"traffic": {"catalog": [{"name": "a"}, {"name": "b"}, {"name": "a"}]}},
        "traffic.catalog[2].name",
    ),
    "stream_without_name": ({"traffic": {"catalog": [{}]}}, "traffic.catalog[0].name"),
    "stream_period_below_1ns": (
        {"traffic": {"catalog": [{"name": "a", "rate_hz": 2e9}]}},
        "traffic.catalog[0].rate_hz",
    ),
    "transit_not_a_number": (
        {"factory": {"transit_s": {"island1": {"island2": "far"}}}},
        "factory.transit_s.island1.island2",
    ),
    "service_override_not_a_number": (
        {"factory": {"service_overrides": {"weigh": "slow"}}},
        "factory.service_overrides.weigh",
    ),
    "negative_camera_share": (
        {"traffic": {"camera_shares": {"forward": -0.5, "threesixty": 1.5}}},
        "traffic.camera_shares.forward",
    ),
    "camera_shares_sum": (
        {"traffic": {"camera_shares": {"forward": 0.5}}}, "traffic.camera_shares",
    ),
    "horizon_inf": ({"horizon_s": math.inf}, "horizon_s"),
    "horizon_nan": ({"horizon_s": math.nan}, "horizon_s"),
    "horizon_zero": ({"horizon_s": 0}, "horizon_s"),
    "horizon_rounds_to_0_ns": ({"horizon_s": 4e-10}, "horizon_s"),
    "total_rate_inf": (
        {"traffic": {"total_rate_mbps": math.inf}}, "traffic.total_rate_mbps",
    ),
    "total_rate_below_measured_rows": (
        {"traffic": {"total_rate_mbps": 0.1}}, "traffic.total_rate_mbps",
    ),
    "camera_period_below_1ns": (
        {"traffic": {"total_rate_mbps": 1e5, "camera_packet_bytes": 1}},
        "traffic.total_rate_mbps",
    ),
    "unknown_channel": ({"radio": {"channel": "MARS9"}}, "radio.channel"),
    "waveform_without_curves": ({"radio": {"waveform": "W-OFDM"}}, "radio.channel"),
    "snr_below_throughput_floor": ({"radio": {"snr_db": 5.0}}, "radio.snr_db"),
    "bad_bler_anchors": (
        {"radio": {"bler_anchors": {"P-OFDM": {"EVA70": {
            "anchors": [[1, 0.1], [2, 0.5]]}}}}},
        "radio.bler_anchors.P-OFDM.EVA70",
    ),
    # a curve that rises past its last anchor
    "negative_tail_slope": (
        {"radio": {"bler_anchors": {"P-OFDM": {"EVA70": {
            "anchors": [[10, 1.0], [15, 1e-5]], "tail_slope": -1}}}}},
        "radio.bler_anchors.P-OFDM.EVA70.tail_slope",
    ),
    "falling_throughput_anchors": (
        {"radio": {"throughput_anchors": {"P-OFDM": [[5, 4], [10, 2]]}}},
        "radio.throughput_anchors.P-OFDM",
    ),
    # an override is checked whether or not the operating point reads it
    "unused_rising_bler_anchors": (
        {"radio": {"bler_anchors": {"CP-OFDM": {"V2V-Urban-NLOS": {
            "anchors": [[16, 1.0e-4], [22, 0.5]]}}}}},
        "radio.bler_anchors.CP-OFDM.V2V-Urban-NLOS",
    ),
    "unused_falling_throughput_anchors": (
        {"radio": {"throughput_anchors": {"CP-OFDM": [[5, 4], [10, 2]]}}},
        "radio.throughput_anchors.CP-OFDM",
    ),
    "unsupported_tti": ({"radio": {"tti_us": 200}}, "radio.tti_us"),
    "negative_processing_delay": (
        {"radio": {"processing_delay_us": -1}}, "radio.processing_delay_us",
    ),
    "estop_unknown_endpoint": (
        {"script": [{"at_s": 1, "action": "estop", "endpoint": "island9.drill"}]},
        "script[0].endpoint",
    ),
    "estop_without_plant": (
        {"factory": {"enabled": False},
         "script": [{"at_s": 1, "action": "estop", "endpoint": "island1.engrave"}]},
        "script[0].endpoint",
    ),
    "module_fault_unknown_module": (
        {"script": [
            {"at_s": 1, "action": "module_fault", "endpoint": "island1.paint"}]},
        "script[0].endpoint",
    ),
    "reset_unknown_loop": (
        {"script": [{"at_s": 1, "action": "reset", "loop": "island7.loop"}]},
        "script[0].loop",
    ),
    "unknown_sensor": (
        {"script": [{"at_s": 1, "action": "obstacle", "sensor": "radar"}]},
        "script[0].sensor",
    ),
    "obstacle_without_sensor": (
        {"script": [{"at_s": 1, "action": "obstacle"}]}, "script[0].sensor",
    ),
    "watchdog_below_catalog_cycle": (
        # the measured catalog's PNIO rows set the rate: 246.19 Hz
        {"safety": {"watchdog_ms": 2}}, "safety.watchdog_ms",
    ),
    "watchdog_below_section_cycle": (
        # without PNIO rows the channel runs at the measured 246.19 Hz
        {"traffic": {"catalog": []}, "safety": {"watchdog_ms": 2}},
        "safety.watchdog_ms",
    ),
    "script_null": ({"script": None}, "script"),
    "section_null": ({"radio": None}, "radio"),
    "removed_staleness_knob": (
        {"factory": {"registry_staleness_ticks": 3}}, "factory",
    ),
    "non_string_key": ({"factory": {"service_overrides": {1: 2.0}}},
                       "factory.service_overrides key"),
    **NEW_DEFECTS,
    **IGNORED_FIELDS,
    **CLASHING_IDS,
}


@pytest.mark.parametrize("case", sorted(DEFECTS))
def test_defect_is_config_invalid_naming_its_field(case):
    data, path = DEFECTS[case]
    with pytest.raises(ConfigInvalid) as err:
        scenario_from_dict(data)
    assert str(err.value).startswith(f"{path}:"), str(err.value)


def test_watchdog_is_checked_against_the_rate_the_channel_runs_at():
    # 5 ms covers the 4.06 ms cycle of the catalog's 246.19 Hz PNIO rows
    scenario = scenario_from_dict(
        {"horizon_s": 0.1, "safety": {"watchdog_ms": 5}})
    up, _ = Simulation(scenario).channel
    assert up.rate_hz == 246.19
    assert scenario.safety.watchdog_ns == 5 * NS_PER_MS


def test_watchdog_is_not_checked_without_the_channel():
    # no channel runs, so no cycle bounds the watchdog
    scenario = scenario_from_dict(
        {"horizon_s": 0.1, "safety": {"enabled": False, "watchdog_ms": 2}})
    sim = Simulation(scenario)
    assert sim.channel is None
    assert "safety" not in sim.run().summary.events_processed


def test_int_is_stored_as_float_and_bounds_hold_inside_containers():
    scenario = scenario_from_dict({"horizon_s": 10, "factory": {"service_s": 3}})
    assert type(scenario.horizon_s) is float and scenario.horizon_s == 10.0
    assert type(scenario.factory.service_s) is float
    with pytest.raises(ConfigInvalid) as err:
        scenario_from_dict({"compliance": {"service_area_m": [10, -1]}})
    assert str(err.value).startswith("compliance.service_area_m[1]: must be >= 0")


def test_dump_with_every_optional_part_reparses_to_an_equal_scenario():
    scenario = scenario_from_dict(
        {
            "radio": {
                "bler_anchors": {"W-OFDM": {"EVA70": {
                    "anchors": [[9, 1.0], [14, 1e-5]], "floor": 1e-9}}},
                "throughput_anchors": {"W-OFDM": [[5, 0], [11, 10]]},
                "waveform": "W-OFDM",
            },
            "traffic": {"catalog": [{"name": "a", "class": "safety", "rate_hz": 100}]},
            "compliance": {"availability_sample_floor": 10},
            "script": [{"at_s": 1, "action": "estop", "endpoint": "robot"}],
        }
    )
    assert scenario_from_dict(yaml.safe_load(dump_scenario(scenario))) == scenario


@pytest.mark.parametrize(
    "flag, value",
    [("--horizon", "inf"), ("--horizon", "nan"), ("--horizon", "-1"), ("--seed", "-1"),
     ("--horizon", "1e300"), ("--horizon", "0")],
)
def test_cli_overrides_go_through_the_schema(tmp_path, capsys, flag, value):
    code = main(["run", flag, value, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", sorted(NEW_DEFECTS | IGNORED_FIELDS | CLASHING_IDS))
def test_cli_run_defect_exits_2_with_one_line(tmp_path, capsys, case):
    data, path = DEFECTS[case]
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump(data), encoding="utf-8")
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:") and len(err.splitlines()) == 1


def test_check_honours_the_sample_floor_the_run_used(tmp_path, capsys):
    config = tmp_path / "scenario.yaml"
    config.write_text(
        "horizon_s: 3\ncompliance:\n  availability_sample_floor: 10\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    run_table = (out / "compliance.txt").read_text(encoding="utf-8").splitlines()
    for profile in ("aspect1", "aspect2"):
        capsys.readouterr()
        main(["check", str(out / "metrics.json"), "--profile", profile])
        check_table = capsys.readouterr().out.splitlines()
        rows = [line for line in run_table if f" {profile} " in line]
        assert rows and all(row in check_table for row in rows), profile
        availability = [row for row in rows if " availability " in row]
        assert availability and not any("NotAssessed" in row for row in availability)
