"""Traffic streams, the safety channel's PDUs and its watchdog's trips are
resolved off the event queue, and `packets.csv` merges their records back
into engine order. These tests hold `Simulation.run`, `safety.resolve_channel`
and `safety.watchdog_trips` to the engine-driven reference of
`tests/reference.py`: a traffic stream as an event per emission, and the
safety channel as an event per cycle, retry and delivery with its watchdog as
a chain of checks, which is how fablink ran them before.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace
from itertools import islice

import pytest

from fablink.radio_link import (
    LinkModel, LinkRuntime, RadioSection, next_tx_opportunity,
)
from fablink.safety import SafetyManager, resolve_channel, watchdog_trips
from fablink.scenario import ConfigInvalid, SafetySection, scenario_from_dict
from fablink.sim_core import (
    LANE_SAFETY, NS_PER_MS, NS_PER_S, NS_PER_US, Engine, HandlerError, RngStream)
from fablink.simulation import Simulation
from fablink.traffic import emission_times
from record_rows import PacketRecord, engine_rows, packet_rows
from reference import EngineChannel, engine_reference
from scenarios import random_scenario

# a and b share one schedule; c, d and the safety channel tie with them at
# phase 0; p is Poisson and w is wired
CATALOG = [
    {"name": "a", "payload_bytes": 200, "rate_hz": 100.0},
    {"name": "b", "payload_bytes": 200, "rate_hz": 100.0},
    {"name": "c", "payload_bytes": 1400, "rate_hz": 400.0},
    {"name": "p", "payload_bytes": 300, "rate_hz": 250.0, "pattern": "poisson"},
    {"name": "w", "payload_bytes": 60, "rate_hz": 50.0, "wireless": False},
    {"name": "d", "payload_bytes": 80, "rate_hz": 200.0},
    {"name": "e", "payload_bytes": 80, "rate_hz": 200.0, "phase_us": 2500.0},
]

# link_down and link_up each land on an emission instant of a, b, c and d;
# two pairs of link actions share an instant, and the last of each wins
LINK_SCRIPT = [
    {"at_s": 0.5, "action": "link_down"},
    {"at_s": 0.7, "action": "link_up"},
    {"at_s": 1.2, "action": "link_down"},
    {"at_s": 1.2, "action": "link_up"},
    {"at_s": 1.5, "action": "link_up"},
    {"at_s": 1.5, "action": "link_down"},
    {"at_s": 1.6, "action": "link_up"},
]

# two watchdog trips, each reset, a reset while supervising and one at the
# instant the link returns
TRIP_SCRIPT = [
    {"at_s": 0.3, "action": "reset", "loop": "island1.loop"},
    {"at_s": 0.5, "action": "link_down"},
    {"at_s": 0.55, "action": "link_up"},
    {"at_s": 0.8, "action": "reset", "loop": "island1.loop"},
    {"at_s": 1.2, "action": "link_down"},
    {"at_s": 1.25, "action": "link_up"},
    {"at_s": 1.25, "action": "reset", "loop": "island1.loop"},
    {"at_s": 1.6, "action": "reset", "loop": "island1.loop"},
]

# The catalog's PNIO rows at 1000 Hz bind the channel to cycles on TTI
# boundaries; with a 125 us processing delay a 60/64 B PDU arrives 2 TTIs
# after it is sent. The link returns 750 us into the cycle at 0.9 s, so that
# cycle's retry arrives exactly at the next cycle's start, whose first
# attempts the link, down again, loses; the trip 12 ms after that delivery
# counts the cycles missed since, that one not among them.
PNIO_1000 = [
    {"name": "pnio_coupler_to_plc", "payload_bytes": 60, "rate_hz": 1000.0,
     "class": "safety"},
    {"name": "pnio_plc_to_coupler", "payload_bytes": 64, "rate_hz": 1000.0,
     "class": "safety"},
]
TIE_SCRIPT = [
    {"at_s": 0.9, "action": "link_down"},
    {"at_s": 0.90075, "action": "link_up"},
    {"at_s": 0.901, "action": "link_down"},
    {"at_s": 0.95, "action": "link_up"},
    {"at_s": 1.0, "action": "reset", "loop": "island1.loop"},
]

# Ties of script actions with watchdog checks, at the measured pair's trip
# instants of TRIP_SCRIPT: a reset at the first check's instant (12 ms), which
# runs after that check's trip; an estop of safety_plc and a reset at the
# instant the first outage trips (0.51185 s), which run before that check, so
# the reset moves the window's start and the trip comes 12 ms later; and an
# estop at the instant the second outage trips (1.2106 s), which runs before
# the trip, so the trip logs a `watchdog_trip` row of a stopped loop.
TIE_TRIP_SCRIPT = [
    {"at_s": 0.0, "action": "link_down"},
    {"at_s": 0.012, "action": "reset", "loop": "island1.loop"},
    {"at_s": 0.03, "action": "link_up"},
    *TRIP_SCRIPT,
    {"at_s": 0.51185, "action": "estop", "endpoint": "safety_plc"},
    {"at_s": 0.51185, "action": "reset", "loop": "island1.loop"},
    {"at_s": 1.2106, "action": "estop", "endpoint": "safety_plc"},
]

CASES = {
    "catalog": {"traffic": {"catalog": CATALOG}, "safety": {"enabled": False}},
    "catalog_safety": {"traffic": {"catalog": CATALOG}},
    "jitter": {"traffic": {"catalog": CATALOG}, "radio": {"jitter_us": 50.0}},
    "lossy": {"traffic": {"catalog": CATALOG}, "radio": {"snr_db": 13.0}},
    "link_script": {"traffic": {"catalog": CATALOG}, "script": LINK_SCRIPT},
    "link_script_lossy_jitter": {
        "traffic": {"catalog": CATALOG},
        "radio": {"snr_db": 13.0, "jitter_us": 50.0},
        "script": LINK_SCRIPT,
    },
    "measured": {},
    "measured_bulk": {"traffic": {"total_rate_mbps": 60.0},
                      "safety": {"enabled": False}, "script": LINK_SCRIPT},
    "trips_and_resets": {"traffic": {"catalog": CATALOG}, "script": TRIP_SCRIPT},
    "trips_and_resets_lossy_jitter": {
        "traffic": {"catalog": CATALOG},
        "radio": {"snr_db": 11.0, "jitter_us": 50.0},
        "script": TRIP_SCRIPT,
    },
    "pnio_1000hz_ties": {
        "traffic": {"catalog": PNIO_1000 + CATALOG},
        "radio": {"processing_delay_us": 125.0},
        "script": TIE_SCRIPT + TRIP_SCRIPT,
    },
    "pnio_1000hz_lossy": {
        "traffic": {"catalog": PNIO_1000 + CATALOG},
        "radio": {"processing_delay_us": 125.0, "snr_db": 10.5},
        "script": TRIP_SCRIPT,
    },
    "trip_instant_ties": {"traffic": {"catalog": CATALOG}, "script": TIE_TRIP_SCRIPT},
}


def _run_recording_queue(data: dict):
    """`Simulation.run` of `data`, and every event it queued as (module,
    fire_at, action, lane), in queueing order."""
    sim = Simulation(scenario_from_dict(data))
    queued = []
    schedule_at = sim.engine.schedule_at

    def recording_schedule_at(fire_at, action, module="misc", lane=1):
        queued.append((module, fire_at, action, lane))
        return schedule_at(fire_at, action, module, lane)

    sim.engine.schedule_at = recording_schedule_at
    return sim.run(), queued


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_merged_records_equal_the_engine_driven_reference(case, seed):
    data = {"seed": seed, "horizon_s": 2.0, **CASES[case]}
    expected = engine_reference(data)

    result, queued = _run_recording_queue(data)

    assert "traffic" not in {module for module, *_ in queued}
    # the safety channel queues one event per watchdog trip, and nothing else
    trips = [t.at for t in result.safety_log if t.cause == "watchdog"]
    assert [(at, action.__name__, lane) for module, at, action, lane in queued
            if module == "safety"] == [(at, "watchdog_trip", LANE_SAFETY) for at in trips]
    assert result.summary.events_processed == expected.events
    assert result.safety_log == expected.safety_log
    assert expected.events["traffic"] > 0
    assert len(result.records) == len(expected.records)
    assert list(engine_rows(result.records)) == expected.records


def _on_the_grids(config: dict, rng: random.Random) -> tuple[dict, set[int]]:
    """`config` with script actions added on the run's grids, and their
    instants: a link outage from a cycle start (a TTI boundary without the
    channel) to a TTI boundary, a reset at the first watchdog check, and a
    reset or an estop at the first trip that run makes, so that it ties with
    that check whatever the actions after it do."""
    sim = Simulation(scenario_from_dict(config))
    horizon, tti = sim.horizon_ns, sim.link.tti_ns
    starts = emission_times(sim.channel[0].rate_hz, horizon) if sim.channel \
        else range(0, horizon + 1, tti)
    down = rng.choice(list(islice(starts, 20)))
    up = min(horizon // tti * tti, down + tti * rng.randrange(1, 400))
    islands = [i["id"] for i in config["factory"]["islands"]] \
        if config["factory"]["enabled"] else []
    loop = {"loop": f"{islands[0]}.loop"} if islands else {}
    script = [*config["script"],
              {"at_s": down / NS_PER_S, "action": "link_down"},
              {"at_s": up / NS_PER_S, "action": "link_up"}]
    if rng.random() < 0.5:
        script.append({"at_s": sim.scenario.safety.watchdog_ns / NS_PER_S,
                       "action": "reset", **loop})
    config = {**config, "script": script}
    trips = [t.at for t in Simulation(scenario_from_dict(config)).run().safety_log
             if t.cause == "watchdog"]
    if trips:
        tie = {"action": "reset", **loop} if not islands or rng.random() < 0.5 \
            else {"action": "estop", "endpoint": "safety_plc"}
        config["script"] = [*script, {"at_s": trips[0] / NS_PER_S, **tie}]
    instants = {round(a["at_s"] * NS_PER_S) for a in config["script"]}
    return config, instants


def test_generated_runs_equal_the_engine_driven_reference():
    # short draws of the scenario generator, every other one with script
    # instants on the run's grids, where same-instant ties decide the order
    rng = random.Random(22)
    compared, ties = 0, Counter()
    for draw in range(120):
        config = random_scenario(rng, horizon_s=(1.0, 3.0))
        try:
            if draw % 2:
                config, instants = _on_the_grids(config, rng)
            scenario = scenario_from_dict(config)
        except ConfigInvalid:
            continue
        expected = engine_reference(config)
        result = Simulation(scenario).run()
        assert list(engine_rows(result.records)) == expected.records, draw
        assert result.safety_log == expected.safety_log, draw
        assert result.product_log == expected.product_log, draw
        compared += 1
        if draw % 2:
            sim = Simulation(scenario)
            tti = sim.link.tti_ns
            cycles = set(emission_times(sim.channel[0].rate_hz, sim.horizon_ns)) \
                if sim.channel else set()
            ties["cycle"] += bool(instants & cycles)
            ties["tti"] += any(t % tti == 0 for t in instants)
            ties["check"] += bool(instants & set(expected.checks))
            ties["first check"] += scenario.safety.watchdog_ns in (
                instants & set(expected.checks[:1]))
    assert compared > 80
    assert min(ties[k] for k in ("cycle", "tti", "check", "first check")) > 0, ties


def test_two_streams_on_one_schedule_merge_in_catalog_order():
    data = {"horizon_s": 0.1, "safety": {"enabled": False},
            "traffic": {"catalog": [dict(row, name=name) for name, row in
                                    (("z", CATALOG[0]), ("y", CATALOG[0]))]}}
    result = Simulation(scenario_from_dict(data)).run()
    assert [r.stream for r in engine_rows(result.records)] == ["z", "y"] * 11


def test_no_traffic_leaves_no_traffic_count():
    data = {"horizon_s": 1.0, "traffic": {"catalog": []}}
    result = Simulation(scenario_from_dict(data)).run()
    assert "traffic" not in result.summary.events_processed
    assert result.summary.events_processed["safety"] > 0


def test_a_clean_link_default_run_queues_no_safety_event():
    result, queued = _run_recording_queue({"horizon_s": 2.0})
    assert "safety" not in {module for module, *_ in queued}
    assert not [t for t in result.safety_log if t.cause == "watchdog"]
    assert result.summary.events_processed["safety"] > 0


def test_a_raising_watchdog_trip_ends_the_run_naming_the_trip(monkeypatch):
    data = {"horizon_s": 1.0, "script": [{"at_s": 0.5, "action": "link_down"}]}
    trip_at = next(t.at for t in Simulation(scenario_from_dict(data)).run().safety_log
                   if t.cause == "watchdog")
    boom = ValueError("boom")

    def raising_trip(self, now, missed):
        raise boom

    monkeypatch.setattr(SafetyManager, "watchdog_trip", raising_trip)
    with pytest.raises(HandlerError) as err:
        Simulation(scenario_from_dict(data)).run()
    message = str(err.value)
    assert message.startswith(f"at {trip_at} ns, safety event ")
    assert "watchdog_trip: ValueError: boom" in message and "<lambda>" not in message
    assert err.value.__cause__ is boom


@pytest.mark.parametrize("stream, failing_at, source", [
    # c's third emission, at 2 periods of 2.5 ms
    ("c", 5 * NS_PER_MS, "traffic stream c"),
    # the third cycle's downlink PDU, on a link that loses none
    ("pnio_plc_to_coupler", round(2 * NS_PER_S / 246.19),
     "safety channel pnio_plc_to_coupler"),
], ids=["traffic", "safety"])
def test_a_raising_send_ends_the_run_naming_time_module_and_stream(
        monkeypatch, stream, failing_at, source):
    sender = LinkRuntime.sender
    boom = ValueError("boom")

    def failing_sender(self, name, size, rng):
        send = sender(self, name, size, rng)
        calls = [0]

        def send_or_raise(now):
            calls[0] += 1
            if name == stream and calls[0] == 3:
                raise boom
            return send(now)

        return send_or_raise

    monkeypatch.setattr(LinkRuntime, "sender", failing_sender)
    sim = Simulation(scenario_from_dict(
        {"horizon_s": 1.0, "traffic": {"catalog": CATALOG}}))
    with pytest.raises(HandlerError) as err:
        sim.run()
    assert str(err.value).startswith(f"at {failing_at} ns, {source}: ValueError: boom")
    assert err.value.__cause__ is boom


# -- the resolved channel against the engine-driven one --------------------------

MEASURED_PAIR = SafetySection().channel_streams([])


def _channel_link(seed, bler, timeline, processing_delay_us):
    """A link of constant `bler` over the given timeline, drawing jitter from
    the seed's named streams, as `Engine(seed).stream` does."""
    radio = RadioSection(snr_db=15.0, tti_us=125,
                         processing_delay_us=processing_delay_us)
    model = LinkModel(radio, bler, radio.link_model().rate_bps)
    return LinkRuntime(model, lambda name: RngStream(seed, name), timeline)


def _engine_channel_run(seed, streams, watchdog_ns, link_args, rearms, horizon):
    """The engine-driven channel, rearmed on the safety lane at each of
    `rearms` as the script does: its up and down records, its trips and its
    safety event count, and the instants of its checks."""
    engine = Engine(seed=seed)
    trips, records = [], []
    channel = EngineChannel(engine, _channel_link(seed, *link_args), streams,
                             watchdog_ns, engine.stream("link.safety"), records,
                             lambda now, missed: trips.append((now, missed)))
    channel.start(horizon)
    for at in rearms:
        engine.schedule_at(at, lambda: channel.rearm(engine.now),
                           module="script", lane=LANE_SAFETY)
    counts = engine.run_until(horizon).events_processed
    return (records[0::2], records[1::2], trips, counts["safety"]), channel.checks


def _resolved_channel_run(seed, streams, watchdog_ns, link_args, rearms, horizon):
    """The same channel through `resolve_channel` and `watchdog_trips`, with
    no engine: the same four results."""
    up, down, delivered, missed, events = resolve_channel(
        _channel_link(seed, *link_args), streams, RngStream(seed, "link.safety"),
        horizon)
    trips, checks = watchdog_trips(delivered, missed, rearms, watchdog_ns, horizon)
    return (packet_rows(streams[0], up), packet_rows(streams[1], down), trips,
            events + checks)


def _retry_ties(up, down):
    """Retried PDUs delivered exactly at the start of the next cycle, whose
    first attempts were both lost: the one delivery that comes after the
    cycle starting at its instant."""
    tti = 125 * NS_PER_US

    def retried(r: PacketRecord) -> bool:
        return r.sent_at > next_tx_opportunity(r.created_at, tti)

    first_lost = {a.created_at for a, b in zip(up, down)
                  if all(r.delivered_at is None or retried(r) for r in (a, b))}
    next_start = {a.created_at: b.created_at for a, b in zip(up, up[1:])}
    return sum(r.delivered_at in first_lost and retried(r)
               and r.delivered_at == next_start.get(r.created_at) for r in up + down)


def test_resolved_channel_equals_the_engine_driven_channel():
    # each schedule runs the reference once more with resets added at the
    # first check's instant and at instants of its own checks, drawn from a
    # second RNG so the schedules themselves stay as they were
    rng, tie_rng = random.Random(12_012), random.Random(12_013)
    mismatches, ties, first_check_ties, check_ties = [], 0, 0, 0
    for i in range(300):
        cycle_hz = rng.choice([246.19, 500.0, 1000.0, 2000.0])
        cycle_ns = NS_PER_S / cycle_hz
        horizon = rng.randrange(40, 160) * NS_PER_MS
        streams = tuple(replace(p, rate_hz=cycle_hz) for p in MEASURED_PAIR)
        watchdog_ns = math.ceil(cycle_ns * rng.uniform(1, 5))
        bler = rng.choice([0.0, 0.3, 0.7])
        timeline = sorted(
            (rng.randrange(horizon), rng.random() < 0.5)
            for _ in range(rng.randrange(0, 8)))
        rearms = sorted(rng.randrange(horizon) for _ in range(rng.randrange(0, 4)))
        link_args = (bler, timeline, 125.0 * rng.randrange(0, 9))
        args = (i, streams, watchdog_ns, link_args)
        _, checks = _engine_channel_run(*args, rearms, horizon)
        tied = tie_rng.sample(checks, min(len(checks), tie_rng.randrange(0, 3)))
        if tie_rng.random() < 0.3:
            tied.append(watchdog_ns)
        rearms = sorted(rearms + tied)
        expected, checks = _engine_channel_run(*args, rearms, horizon)
        if expected != _resolved_channel_run(*args, rearms, horizon):
            mismatches.append((i, cycle_hz, link_args, rearms))
        ties += _retry_ties(*expected[:2])
        first_check_ties += watchdog_ns in rearms and watchdog_ns <= horizon
        check_ties += len(set(checks[1:]) & set(rearms))
    assert not mismatches, mismatches[:3]
    assert ties > 0 and first_check_ties > 0 and check_ties > 0
