from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from itertools import pairwise
from pathlib import Path

import pytest
import yaml

import fablink
from fablink.artifacts import MetricsDocument
from fablink.cli import main
from fablink.compliance import PROFILES, evaluate
from fablink.radio_link import LinkRuntime
from fablink.scenario import (
    ConfigInvalid,
    default_scenario,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    schema_from_dict,
    schema_to_dict,
)


def test_default_config_round_trips_through_dump_and_load(tmp_path):
    scenario = default_scenario()
    text = dump_scenario(scenario)
    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    reloaded = load_scenario(str(path))
    assert schema_to_dict(reloaded) == schema_to_dict(scenario)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigInvalid) as err:
        scenario_from_dict({"seed": 1, "horizont": 10})
    assert "horizont" in str(err.value)


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigInvalid) as err:
        scenario_from_dict({"radio": {"snr": 15.0}})
    assert "radio" in str(err.value)


@pytest.mark.parametrize(
    "data, key",
    [
        ({"nr": {"bwp_carrier_prb": 100, "bwp_parts": []}}, "nr"),
        ({"radio": {"carrier_freq_mhz": 3500}}, "carrier_freq_mhz"),
        ({"radio": {"bandwidth_mhz": 10}}, "bandwidth_mhz"),
        ({"factory": {"registry_staleness_ticks": 3}}, "registry_staleness_ticks"),
        ({"factory": {"robot_return_home": True}}, "robot_return_home"),
        ({"safety": {"retry_at_tti": True}}, "retry_at_tti"),
        ({"safety": {"cycle_hz": 246.19}}, "cycle_hz"),
        ({"safety": {"pdu_bytes_up": 60}}, "pdu_bytes_up"),
        ({"safety": {"pdu_bytes_down": 64}}, "pdu_bytes_down"),
        ({"compliance": {"jitter_definition": "p99_minus_min"}}, "jitter_definition"),
        ({"compliance": {"survival_time_ms": 12.0}}, "survival_time_ms"),
    ],
    ids=["nr", "carrier_freq_mhz", "bandwidth_mhz", "registry_staleness_ticks",
         "robot_return_home", "retry_at_tti", "cycle_hz", "pdu_bytes_up",
         "pdu_bytes_down", "jitter_definition", "survival_time_ms"],
)
def test_removed_nr_and_radio_keys_are_unknown(data, key):
    # the simulation never read them (radio.tti_us is the one TTI setting),
    # a snapshot retaken every tick is never stale, the robot always returns
    # home, a lost safety PDU is always retried, the catalog's PNIO rows (or
    # their measured values) set the safety channel, and the scoring
    # conventions are fixed
    with pytest.raises(ConfigInvalid) as err:
        scenario_from_dict(data)
    assert "unknown key" in str(err.value) and key in str(err.value)


def test_bad_script_action_rejected():
    with pytest.raises(ConfigInvalid):
        scenario_from_dict({"script": [{"at_s": 1.0, "action": "explode"}]})


def test_bad_waveform_rejected():
    with pytest.raises(ConfigInvalid):
        scenario_from_dict({"radio": {"waveform": "QAM-OFDM"}})


def test_watchdog_must_cover_cycle():
    with pytest.raises(ConfigInvalid):
        scenario_from_dict({"safety": {"watchdog_ms": 1.0}})


def test_custom_catalog_profiles():
    scenario = scenario_from_dict(
        {
            "traffic": {
                "catalog": [
                    {
                        "name": "control",
                        "source": "plc",
                        "destination": "robot",
                        "protocol": "UDP",
                        "class": "safety",
                        "payload_bytes": 50,
                        "rate_hz": 100.0,
                        "pattern": "poisson",
                        "wireless": True,
                    }
                ]
            }
        }
    )
    profiles = scenario.traffic.profiles()
    assert len(profiles) == 1
    assert profiles[0].name == "control"
    assert profiles[0].rate_hz == 100.0


def test_transit_matrix_completeness_checked():
    with pytest.raises(ConfigInvalid) as err:
        scenario_from_dict(
            {
                "factory": {
                    "islands": [
                        {"id": "a", "capabilities": ["engrave"]},
                        {"id": "b", "capabilities": ["weigh"]},
                    ],
                    "transit_s": {"a": {"b": 5.0}},
                    "robot_home": "a",
                    "releases": {"island": "a"},
                }
            }
        )
    assert "transit_s" in str(err.value)


def test_recipe_without_capability_needs_manual_station():
    with pytest.raises(ConfigInvalid):
        scenario_from_dict(
            {
                "factory": {
                    "recipe": ["engrave", "paint"],
                    "islands": [{"id": "island1", "capabilities": ["engrave"]}],
                    "manual_station": False,
                    "robot_home": "island1",
                    "releases": {"island": "island1"},
                }
            }
        )


# -- CLI ---------------------------------------------------------------------------


def _run_cli(*argv) -> int:
    return main(list(argv))


def _cli_child(*argv, **run_args) -> subprocess.CompletedProcess:
    """`fablink *argv` in a child process, its output captured as text."""
    src = str(Path(fablink.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from fablink.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=env, timeout=60, **run_args)


def test_config_dump_reads_a_config_from_a_pipe():
    # fablink config dump --config x.yaml | fablink config dump --config /dev/stdin
    config = Path(__file__).parent / "outage_scenario.yaml"
    dump = dump_scenario(load_scenario(str(config)))
    piped = _cli_child("config", "dump", "--config", "/dev/stdin", input=dump)
    assert (piped.returncode, piped.stderr) == (0, "")
    assert piped.stdout == dump


def test_a_stream_free_run_holds_no_map_of_its_windows(tmp_path):
    # 1e9 s hold about 8.3e10 survival-time windows: the aggregate counts the
    # ones its streams hit, so with no stream the run allocates nothing per
    # window. A map of them all (some 83 GB) fails at once under the child's
    # 2 GB address space, and the host never sees the allocation
    config = tmp_path / "scenario.yaml"
    config.write_text("{horizon_s: 1000000000.0, traffic: {catalog: []}, "
                      "safety: {enabled: false}, factory: {enabled: false}}\n",
                      encoding="utf-8")
    limit = 2 << 30
    run = _cli_child("run", "--config", str(config), "--out", str(tmp_path / "out"),
                     preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                           (limit, limit)))
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads((tmp_path / "out" / "metrics.json").read_text())[
        "aggregate"]["availability"] == 0.0


def test_cli_run_and_check_flow(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = _run_cli("run", "--horizon", "3", "--out", str(out))
    assert code == 0
    run_output = capsys.readouterr().out
    assert "aggregate rate" in run_output
    for name in [
        "metrics.json", "packets.csv", "safety_log.csv", "products.csv",
        "compliance.json", "compliance.txt",
    ]:
        assert (out / name).exists(), name

    code = _run_cli("check", str(out / "metrics.json"), "--profile", "aspect1")
    assert code == 0
    table = capsys.readouterr().out
    assert "pnio_coupler_to_plc" in table and "Pass" in table

    code = _run_cli("check", str(out / "metrics.json"), "--profile", "aspect2")
    assert code == 0
    assert "service_data_rate" in capsys.readouterr().out


def test_run_and_check_score_safety_streams_in_name_order(tmp_path, capsys):
    catalog = [{"name": name, "class": "safety", "rate_hz": 100.0}
               for name in ("zeta", "alpha")]
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump({
        "horizon_s": 1.0,
        "traffic": {"catalog": catalog},
        "safety": {"enabled": False},
        "factory": {"enabled": False},
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert _run_cli("run", "--config", str(config), "--out", str(out)) == 0

    def aspect1_rows(table: str) -> list[str]:
        return [line for line in table.splitlines()
                if line.split()[1:2] == ["aspect1"]]

    run_rows = aspect1_rows((out / "compliance.txt").read_text(encoding="utf-8"))
    assert list(dict.fromkeys(row.split()[0] for row in run_rows)) == ["alpha", "zeta"]
    capsys.readouterr()
    _run_cli("check", str(out / "metrics.json"), "--profile", "aspect1")
    assert aspect1_rows(capsys.readouterr().out) == run_rows


def test_cli_run_unknown_channel_exits_2_without_traceback(tmp_path, capsys):
    config = tmp_path / "scenario.yaml"
    config.write_text("horizon_s: 1\nradio:\n  channel: MARS9\n", encoding="utf-8")
    code = _run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert "MARS9" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_cli_run_ended_by_an_action_error_exits_1_with_one_line(
        tmp_path, capsys, monkeypatch):
    # no config that loads makes a send fail, so the link's sender is made to
    # fail; the error ends the stream's loop at its first emission
    def failing_sender(self, stream, payload_bytes, rng):
        def send(now):
            raise OverflowError("int too big to convert")

        return send

    monkeypatch.setattr(LinkRuntime, "sender", failing_sender)
    config = tmp_path / "scenario.yaml"
    config.write_text("{horizon_s: 1.0, safety: {enabled: false}, factory: {enabled: "
                      "false}, traffic: {catalog: [{name: big, rate_hz: 1.0}]}}\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert _run_cli("run", "--config", str(config), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "run error: at 0 ns, traffic stream big: OverflowError: ")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


_STREAM_ONLY = "{horizon_s: %s, safety: {enabled: false}, factory: {enabled: false}, "


@pytest.mark.parametrize("text, key", [
    # a 1e20-byte payload's delivery is about 6.7e13 s after its emission
    (_STREAM_ONLY % "1.0" + "traffic: {catalog: [{name: big, payload_bytes: "
     "100000000000000000000, rate_hz: 1.0}]}}", "traffic.catalog[0].payload_bytes"),
    (_STREAM_ONLY % "1.0" + "traffic: {camera_packet_bytes: 100000000000000000000}}",
     "traffic.camera_packet_bytes"),
    # a period of 1e9 s puts its last emission at 1e19 ns, the horizon
    (_STREAM_ONLY % "1.0e+10" + "traffic: {catalog: [{name: slow, payload_bytes: "
     "100, rate_hz: 1.0e-09}]}}", "horizon_s"),
], ids=["payload", "camera_packet", "horizon"])
def test_cli_run_whose_instants_pass_int64_exits_2_naming_the_field(
        tmp_path, capsys, text, key):
    config = tmp_path / "scenario.yaml"
    config.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid, match=rf"^{re.escape(key)}: .* past int64"):
        load_scenario(str(config))
    assert _run_cli("run", "--config", str(config), "--out",
                    str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and len(err.splitlines()) == 1


def test_the_int64_bound_holds_exactly_at_the_last_instant():
    # a wired stream with no latency writes the horizon itself: 2**63 - 1024
    # ns (the float just below 2**63 ns) loads, 2**63 ns does not
    def data(horizon_ns: int, wireless: bool) -> dict:
        return {"horizon_s": horizon_ns / 1e9, "safety": {"enabled": False},
                "factory": {"enabled": False},
                "radio": {"wired_latency_us": 0.0},
                "traffic": {"catalog": [{"name": "s", "rate_hz": 1e-9,
                                         "wireless": wireless}]}}

    assert scenario_from_dict(data(2**63 - 1024, False)).horizon_ns == 2**63 - 1024
    with pytest.raises(ConfigInvalid,
                       match=f"^horizon_s: stream s would write {2**63} ns"):
        scenario_from_dict(data(2**63, False))
    # on the radio the stream also needs a TTI, air time and processing more
    with pytest.raises(ConfigInvalid, match="^horizon_s: "):
        scenario_from_dict(data(2**63 - 1024, True))
    # a wired stream writes no air time, so its payload is not bounded by it
    wired = data(10**9, False)
    wired["traffic"]["catalog"][0]["payload_bytes"] = 10**20
    scenario_from_dict(wired)


@pytest.mark.parametrize("command", ["run", "config dump"])
def test_cli_non_utf8_config_exits_2_naming_the_file(tmp_path, capsys, command):
    config = tmp_path / "latin1.yaml"
    config.write_bytes("seed: 1\n# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ConfigInvalid, match="latin1.yaml"):
        load_scenario(str(config))
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert _run_cli(*command.split(), "--config", str(config), *out) == 2
    err = capsys.readouterr().err
    assert "latin1.yaml" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "config dump"])
@pytest.mark.parametrize(
    "text, key",
    [("seed: 1\nseed: 7\n", "seed"),
     ("factory:\n  releases:\n    count: 1\n    count: 2\n",
      "factory.releases.count")],
    ids=["top_level", "nested"],
)
def test_cli_duplicate_key_exits_2_naming_it(tmp_path, capsys, command, text, key):
    # YAML loading alone would keep the last value silently
    config = tmp_path / "scenario.yaml"
    config.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigInvalid) as err:
        load_scenario(str(config))
    assert str(err.value).startswith(f"{key}: duplicate key")
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert _run_cli(*command.split(), "--config", str(config), *out) == 2
    captured = capsys.readouterr()
    assert f"{key}: duplicate key" in captured.err and "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1 and not captured.out
    assert not (tmp_path / "out").exists()


# seven levels of ten aliases: 10**7 scalars for a walk of every path
ALIAS_BOMB = "a: &a [1,1,1,1,1,1,1,1,1,1]\n" + "".join(
    f"{b}: &{b} [{','.join([f'*{a}'] * 10)}]\n" for a, b in pairwise("abcdefg"))


@pytest.mark.parametrize("command", ["run", "config dump"])
@pytest.mark.parametrize(
    "text, error",
    [("script: &x [*x]\n", "script[0]: expected a mapping, got list"),
     ("factory: {transit_s: &t {island1: *t}}\n",
      "factory.transit_s.island1.island1: expected a number, got dict"),
     (ALIAS_BOMB, "scenario: unknown key(s) ['a', 'b', 'c', 'd', 'e', 'f', 'g']")],
    ids=["recursive_list", "recursive_mapping", "alias_bomb"],
)
def test_cli_recursive_and_repeated_aliases_exit_2_at_once(tmp_path, capsys, command,
                                                           text, error):
    # the duplicate-key check visits each YAML node once, however many
    # aliases reach it, so a cycle ends and a shared node is checked once
    config = tmp_path / "scenario.yaml"
    config.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigInvalid, match=re.escape(error)):
        load_scenario(str(config))
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    start = time.perf_counter()
    assert _run_cli(*command.split(), "--config", str(config), *out) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err == f"config error: {error}\n" and not captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, profile, key",
    [
        ({}, "aspect2", "aggregate"),
        ([], "aspect1", "not a JSON object"),
        ({"streams": {"pnio": {"stream": "pnio"}}}, "aspect1", "streams.pnio.class"),
        ({"aggregate": {"class": "safety", "stream": "a", "sample_count": "many"}},
         "aspect2", "aggregate.sample_count"),
        ({"service_area_m": [200]}, "aspect1", "service_area_m"),
    ],
    ids=["empty_object", "list", "stream_without_class", "mistyped_count",
         "short_area"],
)
def test_cli_check_malformed_metrics_exits_2(tmp_path, capsys, doc, profile, key):
    # exit 1 means a checked dimension failed; a broken file is bad input
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(doc), encoding="utf-8")
    assert _run_cli("check", str(metrics), "--profile", profile) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def run_metrics(tmp_path_factory) -> dict:
    """The `metrics.json` of a 2 s default run."""
    out = tmp_path_factory.mktemp("bounds") / "out"
    assert main(["run", "--horizon", "2", "--out", str(out)]) == 0
    return json.loads((out / "metrics.json").read_text(encoding="utf-8"))


PNIO = ("pnio_coupler_to_plc", "pnio_plc_to_coupler")


@pytest.mark.parametrize(
    "changes, key, problem",
    [
        # a share above 1, a count in the millions and a negative loss on
        # both PNIO rows once scored as 170 % and passed
        ({"availability": 1.7, "sample_count": 100_000_000, "lost_count": -5},
         "lost_count", "must be >= 0, got -5"),
        ({"availability": 1.7}, "availability", "must be <= 1, got 1.7"),
        ({"availability": -0.25}, "availability", "must be >= 0, got -0.25"),
        *(({field: -1}, field, "must be >= 0, got -1") for field in (
            "sample_count", "delivered_count", "lost_count", "in_flight_count",
            "size_min", "size_max", "jitter_ns", "max_transfer_interval_ns",
            "survival_time_ns", "availability_windows")),
        ({"observed_rate_bps": -1.5}, "observed_rate_bps", "must be >= 0, got -1.5"),
        *(({"latency_ns": {stat: -1}}, f"latency_ns.{stat}", "must be >= 0, got -1")
          for stat in ("min", "p50", "p99", "p999", "max")),
    ],
)
def test_cli_check_rejects_impossible_metrics(tmp_path, capsys, run_metrics, changes,
                                              key, problem):
    doc = json.loads(json.dumps(run_metrics))
    for name in PNIO:
        for field, value in changes.items():
            entry = doc["streams"][name]
            if isinstance(value, dict):
                entry[field].update(value)
            else:
                entry[field] = value
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(doc), encoding="utf-8")
    assert _run_cli("check", str(metrics), "--profile", "aspect1") == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (
        f"invalid metrics {metrics}: streams.{PNIO[0]}.{key}: {problem}\n")


def test_loading_and_running_a_scenario_does_not_import_pyyaml():
    # only `load_scenario`, `dump_scenario` and the duplicate-key check read
    # YAML; the CLI tests above cover those paths
    src = str(Path(fablink.__file__).resolve().parent.parent)
    code = ("import sys, fablink.simulation, fablink.artifacts, fablink.scenario; "
            "sys.exit('yaml' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], timeout=60,
                          env=dict(os.environ, PYTHONPATH=src)).returncode == 0


def test_cli_check_with_nothing_to_assess_exits_2(tmp_path, capsys):
    # a check that assesses no stream says nothing about compliance
    empty = tmp_path / "empty.json"
    empty.write_text('{"streams": {}}', encoding="utf-8")
    config = tmp_path / "scenario.yaml"
    config.write_text(
        "horizon_s: 1\ntraffic: {catalog: []}\nsafety: {enabled: false}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert _run_cli("run", "--config", str(config), "--out", str(out)) == 0
    for metrics in (empty, out / "metrics.json"):
        capsys.readouterr()
        assert _run_cli("check", str(metrics), "--profile", "aspect1") == 2
        err = capsys.readouterr().err
        assert err.startswith("nothing assessed: ") and str(metrics) in err
        assert len(err.strip().splitlines()) == 1


def test_cli_check_of_a_null_availability_names_the_horizon(tmp_path, capsys,
                                                            run_metrics):
    doc = json.loads(json.dumps(run_metrics))
    doc["availability_sample_floor"] = 1
    for name in PNIO:
        doc["streams"][name].update(availability=None, availability_windows=0)
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(doc), encoding="utf-8")
    assert _run_cli("check", str(metrics), "--profile", "aspect1") == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if " availability " in line]
    assert len(rows) == len(PNIO)
    assert all(row.endswith(
        "n/a                    NotAssessed  "
        "(no whole survival-time window fits in the horizon)") for row in rows)


def test_cli_check_unknown_profile(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text("{}", encoding="utf-8")
    assert _run_cli("check", str(metrics), "--profile", "aspect9") == 2


def test_cli_check_fails_on_failed_dimension(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert _run_cli("run", "--horizon", "3", "--out", str(out)) == 0
    capsys.readouterr()
    doc = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    # corrupt the aggregate rate below the aspect-2 bound
    doc["aggregate"]["observed_rate_bps"] = 1.0e6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert _run_cli("check", str(bad), "--profile", "aspect2") == 1


def test_cli_profiles_lists_both_aspects(capsys):
    assert _run_cli("profiles") == 0
    assert capsys.readouterr().out.splitlines() == [
        "aspect1 (safety): availability >= 99.999900%; latency p99.9 < 12.000 ms; "
        "jitter < 6.000 ms; message_size [40, 250] B; transfer_interval <= 12.000 ms; "
        "service_area max 200 m x 300 m",
        "aspect2 (aggregate): availability >= 99.999900%; latency p99.9 < 30.000 ms; "
        "jitter < 15.000 ms; service_data_rate > 5.00 Mbit/s",
    ]


def test_cli_profiles_lists_the_bounds_check_applies(capsys, run_metrics):
    # each profile's line names exactly the (dimension, required) pairs of
    # the rows `evaluate` scores, on a real run's streams with and without
    # a service area
    assert _run_cli("profiles") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(PROFILES)
    doc = schema_from_dict(MetricsDocument, run_metrics)
    for line, profile in zip(lines, PROFILES.values()):
        head, _, listed = line.partition(": ")
        assert head == f"{profile.name} ({profile.streams})"
        for metrics in (*doc.streams.values(), doc.aggregate):
            for area in (doc.service_area_m, None):
                rows = evaluate(metrics, profile, area)
                assert listed == "; ".join(
                    f"{row.dimension} {row.required}" for row in rows)


def test_cli_catalog_class_filter(capsys):
    assert _run_cli("catalog", "--class", "safety") == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 2  # exactly the two cyclic PNIO rows
    assert all("PNIO" in line for line in lines)

    assert _run_cli("catalog") == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 9


def test_cli_config_dump_is_loadable(tmp_path, capsys):
    assert _run_cli("config", "dump") == 0
    text = capsys.readouterr().out
    assert scenario_from_dict(yaml.safe_load(text)) == default_scenario()


# sha256 of `fablink config dump --config tests/outage_scenario.yaml`: its
# catalog rows show every stream field, so a change of their key order, a
# default or the phase's rendering changes these bytes
OUTAGE_DUMP_SHA256 = "5f36e1d970c1f0bc6195cf0c927665895ea89eaaec37f2223262181758e7ca62"


def test_cli_config_dump_of_outage_scenario_keeps_its_bytes(capsys):
    config = Path(__file__).with_name("outage_scenario.yaml")
    assert _run_cli("config", "dump", "--config", str(config)) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == OUTAGE_DUMP_SHA256
    assert list(yaml.safe_load(text)["traffic"]["catalog"][0]) == [
        "name", "source", "destination", "protocol", "class", "payload_bytes",
        "rate_hz", "pattern", "phase_us", "wireless"]


def test_cli_run_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("radio:\n  snr: oops\n", encoding="utf-8")
    assert _run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_seed_override_changes_artifacts(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    scenario_path = tmp_path / "s.yaml"
    # low SNR makes packet losses common enough that the seed shows
    scenario_path.write_text(
        "horizon_s: 2\nradio:\n  snr_db: 12.0\n", encoding="utf-8"
    )
    assert _run_cli("run", "--config", str(scenario_path), "--seed", "1",
                    "--out", str(out1)) == 0
    assert _run_cli("run", "--config", str(scenario_path), "--seed", "2",
                    "--out", str(out2)) == 0
    capsys.readouterr()
    h1 = hashlib.sha256((out1 / "packets.csv").read_bytes()).hexdigest()
    h2 = hashlib.sha256((out2 / "packets.csv").read_bytes()).hexdigest()
    assert h1 != h2
