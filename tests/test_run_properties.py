"""Whole-run properties over generated scenarios.

Each test reads the same runs: configs drawn by `scenarios.random_scenario`
at short horizons, each either run to its horizon or `ConfigInvalid` at
load.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from dataclasses import fields

import pytest

from fablink.artifacts import MetricsDocument, build_metrics_document, write_artifacts
from fablink.compliance import PROFILES, ComplianceReport
from fablink.radio_link import RadioSection
from fablink.scenario import ConfigInvalid, scenario_from_dict, schema_from_dict
from fablink.sim_core import NS_PER_US, RngStream
from fablink.simulation import Simulation
from fablink.traffic import LOST, emission_times
from scenarios import ACTIONS, SECTIONS, random_scenario
from test_golden import artifact_digests

# short runs across every section, then longer plant-heavy ones without a
# traffic catalog, where products get far enough to complete and be reworked
DRAWS = [{"horizon_s": (2.0, 15.0)}] * 80 + [
    {"horizon_s": (10.0, 40.0), "traffic": False}] * 30

# the product events no open robot leg admits
_OFF_ROBOT = {"transfer_start", "step_done", "no_route", "manual_arrival",
              "rework_done", "completed"}


@pytest.fixture(scope="module")
def runs():
    """(config, simulation, result) per run, and the number of configs that
    were `ConfigInvalid` at load."""
    rng = random.Random(7)
    ran, invalid = [], 0
    for knobs in DRAWS:
        config = random_scenario(rng, **knobs)
        try:
            scenario = scenario_from_dict(config)
        except ConfigInvalid:
            invalid += 1
            continue
        sim = Simulation(scenario)
        ran.append((config, sim, sim.run()))
    return ran, invalid


def test_the_generator_reaches_every_section_and_every_action():
    rng = random.Random(11)
    configs = [random_scenario(rng) for _ in range(200)]
    assert {key for c in configs for key in c} == set(SECTIONS)
    # and each optional section is also left out, loading its defaults
    assert {key for key in SECTIONS if any(key not in c for c in configs)} == (
        set(SECTIONS) - {"horizon_s", "factory", "script"})
    assert {a["action"] for c in configs for a in c["script"]} == set(ACTIONS)
    assert {key for c in configs if "radio" in c for key in c["radio"]} == {
        f.name for f in fields(RadioSection)}
    factories = [c["factory"] for c in configs]
    assert {(f["manual_station"], f["defect_probability"]) for f in factories} == {
        (m, d) for m in (True, False) for d in (0.0, 0.3, 1.0)}
    assert {f["enabled"] for f in factories} == {True, False}
    catalogs = [c["traffic"]["catalog"] for c in configs if "traffic" in c]
    assert "measured" in catalogs and [] in catalogs
    assert any(isinstance(catalog, list) and catalog for catalog in catalogs)


def test_each_config_runs_or_is_invalid_at_load(runs):
    ran, invalid = runs
    assert len(ran) + invalid == len(DRAWS)
    assert invalid and len(ran) > len(DRAWS) // 2
    events = {e.event for _, _, result in ran for e in result.product_log}
    assert {"completed", "rework_done", "no_route"} <= events
    assert any(result.safety_log for _, _, result in ran)


def test_records_are_causal_and_wireless_ones_go_on_a_tti_boundary(runs):
    checked = 0
    for _, sim, result in runs[0]:
        tti = sim.scenario.radio.tti_us * NS_PER_US
        for stream, columns in zip(result.records.streams, result.records.columns):
            for seq, (created, delivered) in enumerate(zip(columns.created,
                                                           columns.delivered)):
                sent = columns.sent_at(seq)
                assert created <= sent, stream.name
                assert delivered == LOST or sent <= delivered, stream.name
                assert not stream.wireless or sent % tti == 0, stream.name
            checked += len(columns.created)
    assert checked


def test_each_streams_records_are_its_emission_times(runs):
    # the safety channel's cycles start at the up row's emission times; a
    # stream draws a Poisson gap and then, on an up and lossy link, its
    # packet's loss from one RNG stream, so its instants are replayed so
    streams = 0
    for _, sim, result in runs[0]:
        horizon = sim.horizon_ns
        sources = zip(result.records.streams, result.records.columns)
        if sim.channel:
            cycles = list(emission_times(sim.channel[0].rate_hz, horizon))
            for _ in range(2):
                assert list(next(sources)[1].created) == cycles
        for stream, columns in sources:
            rng = RngStream(sim.scenario.seed, f"traffic.{stream.name}")
            expected = []
            for t in emission_times(stream.rate_hz, horizon, stream.pattern,
                                    round(stream.phase_us * NS_PER_US), rng):
                expected.append(t)
                if stream.wireless and sim.link.bler > 0 and sim.link.up_at(t):
                    rng.random()
            assert list(columns.created) == expected, stream.name
            streams += 1
    assert streams


def test_each_products_events_come_in_a_legal_order(runs):
    products = 0
    for _, sim, result in runs[0]:
        recipe = sim.scenario.factory.recipe
        events = defaultdict(list)
        for e in result.product_log:
            events[e.product].append(e)
        for product, log in events.items():
            _check_product_events(log, recipe)
        stats = result.factory_stats
        count = {name: sum(e.event == name for e in result.product_log)
                 for name in ("released", "completed", "manual_arrival")}
        assert stats.get("released", 0) == count["released"] == len(events)
        assert stats.get("completed", 0) == count["completed"] <= count["released"]
        assert stats.get("manual_visits", 0) == count["manual_arrival"]
        products += len(events)
    assert products


def _check_product_events(log, recipe) -> None:
    """One product's events: released first; legs that open and close in turn,
    with its verdict inside one; recipe steps in order, off the robot; a
    manual-station arrival right after a leg, before any rework there; and a
    completion, last, once every step is done."""
    assert log[0].event == "released" and log[0].at <= log[-1].at
    leg_open = at_manual = False
    steps = 0
    for prev, e in zip(log, log[1:]):
        assert prev.at <= e.at
        assert prev.event != "completed", e
        if e.event in _OFF_ROBOT:
            assert not leg_open, e
        if e.event == "leg_start":
            assert not leg_open, e
            leg_open, at_manual = True, False
        elif e.event == "leg_end":
            assert leg_open, e
            leg_open = False
        elif e.event == "verdict":
            assert leg_open, e
        elif e.event == "manual_arrival":
            assert prev.event == "leg_end", e
            at_manual = True
        elif e.event == "rework_done":
            assert at_manual, e
        elif e.event == "transfer_start":
            assert not at_manual, e
        elif e.event == "step_done":
            step, station = e.detail.split("@")
            assert step == recipe[steps] and (station == "manual") == at_manual, e
            steps += 1
        elif e.event == "completed":
            assert steps == len(recipe), e
        else:
            assert e.event == "no_route", e


def test_the_safety_log_is_in_time_order(runs):
    for _, _, result in runs[0]:
        instants = [t.at for t in result.safety_log]
        assert instants == sorted(instants)


def test_scoring_the_metrics_document_gives_the_runs_report(runs):
    # what `fablink check` does with each profile's own streams, for every run
    for _, _, result in runs[0]:
        doc = json.loads(json.dumps(build_metrics_document(result)))
        metrics = schema_from_dict(MetricsDocument, doc)
        report = ComplianceReport(service_area_m=metrics.service_area_m)
        for profile in PROFILES.values():
            report.score(metrics.streams, metrics.aggregate, profile, profile.streams,
                         metrics.availability_sample_floor)
        assert report == result.compliance


def test_digests_do_not_depend_on_run_order(runs, tmp_path):
    configs = [config for config, _, _ in runs[0][:4]]

    def digests(order: list[int], tag: str) -> dict[int, dict[str, str]]:
        return {k: artifact_digests(write_artifacts(
                    Simulation(scenario_from_dict(configs[k])).run(),
                    tmp_path / f"{tag}{k}"))
                for k in order}

    forwards = digests(list(range(len(configs))), "f")
    assert digests(list(reversed(range(len(configs)))), "b") == forwards
