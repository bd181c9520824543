"""Traffic streams run off the event queue, one loop per stream, and their
records are merged back into engine order. These tests hold `Simulation.run`
to an engine-driven reference: the traffic stream as an event per emission,
each scheduling the next, which is how fablink ran traffic before.
"""

from __future__ import annotations

import pytest

from fablink.nr_frame import next_tx_opportunity
from fablink.radio_link import LinkRuntime
from fablink.scenario import scenario_from_dict
from fablink.sim_core import HandlerError, NS_PER_MS
from fablink.simulation import Simulation
from fablink.traffic import PacketRecord, emission_times

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
}


class _EngineStream:
    """One traffic stream as engine events: each emission is a `traffic`
    event that sends its packet inline and queues the next emission."""

    def __init__(self, sim: Simulation, profile, records: list, link_up: list):
        self.sim = sim
        self.profile = profile
        self.records = records
        self.link_up = link_up
        self.rng = sim.engine.stream(f"traffic.{profile.name}")
        self.seq = 0
        self.times = emission_times(profile.rate_hz, sim.horizon_ns,
                                    profile.pattern, profile.phase_ns, self.rng)

    def schedule_next(self) -> None:
        t = next(self.times, None)
        if t is not None:
            self.sim.engine.schedule_at(t, self.emit, module="traffic")

    def emit(self) -> None:
        sim, p = self.sim, self.profile
        now = sim.engine.now
        record = PacketRecord(p.name, self.seq, now, p.payload_bytes, p.stream_class)
        self.seq += 1
        self.records.append(record)
        if not p.wireless:
            record.sent_at, record.delivered_at = now, now + sim.wired_latency_ns
        else:
            link = sim.link
            record.sent_at = next_tx_opportunity(now, link.config.tti)
            lost = not self.link_up[0] or (
                link.bler > 0.0 and self.rng.random() < link.bler)
            if not lost:
                record.delivered_at = record.sent_at + link.model.air_time_ns(
                    link.config, p.payload_bytes) + link.config.processing_delay_ns
                if link.jitter_ns > 0:
                    jitter = sim.engine.stream(f"jitter.{p.name}")
                    record.delivered_at += round(jitter.uniform(0, link.jitter_ns))
        self.schedule_next()


def engine_reference(data: dict) -> tuple[list[PacketRecord], dict[str, int]]:
    """The records and event counts of a run whose traffic streams are engine
    events, started in the order fablink starts its sources: plant, safety
    channel, streams in catalog order, script. A scripted link action flips
    the streams' up switch when its event fires."""
    sim = Simulation(scenario_from_dict(data))
    records: list[PacketRecord] = []
    link_up = [True]
    run_action = sim._run_action

    def run_action_and_switch(action) -> None:
        if action.action in ("link_down", "link_up"):
            link_up[0] = action.action == "link_up"
        run_action(action)

    sim._run_action = run_action_and_switch
    if sim.plant:
        sim.plant.start()
    if sim.channel:
        sim.channel.records = records
        sim.channel.start(sim.horizon_ns)
    for profile in sim.traffic:
        _EngineStream(sim, profile, records, link_up).schedule_next()
    sim._schedule_script()
    summary = sim.engine.run_until(sim.horizon_ns)
    return records, summary.events_processed


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_merged_records_equal_the_engine_driven_reference(case, seed):
    data = {"seed": seed, "horizon_s": 2.0, **CASES[case]}
    expected, expected_events = engine_reference(data)

    sim = Simulation(scenario_from_dict(data))
    queued_modules = set()
    schedule_at = sim.engine.schedule_at

    def recording_schedule_at(fire_at, action, module="misc", lane=1):
        queued_modules.add(module)
        return schedule_at(fire_at, action, module, lane)

    sim.engine.schedule_at = recording_schedule_at
    result = sim.run()

    assert "traffic" not in queued_modules
    assert result.summary.events_processed == expected_events
    assert expected_events["traffic"] > 0
    assert len(result.records) == len(expected)
    for got, want in zip(result.records, expected):
        assert got == want


def test_two_streams_on_one_schedule_merge_in_catalog_order():
    data = {"horizon_s": 0.1, "safety": {"enabled": False},
            "traffic": {"catalog": [dict(row, name=name) for name, row in
                                    (("z", CATALOG[0]), ("y", CATALOG[0]))]}}
    result = Simulation(scenario_from_dict(data)).run()
    assert [r.stream for r in result.records] == ["z", "y"] * 11


def test_no_traffic_leaves_no_traffic_count():
    data = {"horizon_s": 1.0, "traffic": {"catalog": []}}
    result = Simulation(scenario_from_dict(data)).run()
    assert "traffic" not in result.summary.events_processed
    assert result.summary.events_processed["safety"] > 0


def test_a_raising_send_ends_the_run_naming_time_module_and_stream(monkeypatch):
    sender = LinkRuntime.sender
    boom = ValueError("boom")

    def failing_sender(self, stream, size, rng):
        send = sender(self, stream, size, rng)
        calls = [0]

        def send_or_raise(now):
            calls[0] += 1
            if stream == "c" and calls[0] == 3:
                raise boom
            return send(now)

        return send_or_raise

    monkeypatch.setattr(LinkRuntime, "sender", failing_sender)
    sim = Simulation(scenario_from_dict(
        {"horizon_s": 1.0, "traffic": {"catalog": CATALOG}}))
    with pytest.raises(HandlerError) as err:
        sim.run()
    # c's third emission, at 2 periods of 2.5 ms
    assert str(err.value).startswith(
        f"at {5 * NS_PER_MS} ns, traffic stream c: ValueError: boom")
    assert err.value.__cause__ is boom
