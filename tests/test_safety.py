from __future__ import annotations

import math
import random
import tracemalloc

import pytest

from fablink.radio_link import (
    LinkModel, LinkRuntime, RadioSection, availability,
)
from fablink.safety import (
    LocalSafetyState,
    LoopState,
    SafetyLoop,
    SafetyManager,
    SensorKind,
    UnknownEndpoint,
    resolve_channel,
    watchdog_trips,
)
from fablink.scenario import SafetySection, scenario_from_dict
from fablink.simulation import Simulation
from fablink.sim_core import NS_PER_MS, NS_PER_S, NS_PER_US, RngStream
from fablink.traffic import LOST, StreamClass, TrafficProfile, emission_times
from record_rows import channel_rows

CYCLE_HZ = 246.19
CYCLE_NS = round(NS_PER_S / CYCLE_HZ)
WATCHDOG_NS = 12 * NS_PER_MS


def make_manager(robot_member: str | None = None, on_change=None) -> SafetyManager:
    loops = [
        SafetyLoop(f"island{i}.loop", {f"island{i}.m1", f"island{i}.m2", "safety_plc"})
        for i in (1, 2, 3)
    ]
    mgr = SafetyManager(loops, on_change=on_change)
    if robot_member:
        mgr.join(robot_member)
    return mgr


# -- local guard -----------------------------------------------------------------


def local_rows(mgr: SafetyManager) -> list[tuple[int, str, str]]:
    return [(t.at, t.transition, t.cause) for t in mgr.log if t.loop == "robot_local"]


def check_obstruction_pauses_and_clears(sensor: SensorKind) -> None:
    calls = []
    mgr = make_manager(on_change=lambda: calls.append(mgr.local))
    mgr.sense(sensor, True, 10)
    assert mgr.local is LocalSafetyState.OBSTRUCTED
    mgr.sense(sensor, True, 15)  # no change, no row
    mgr.sense(sensor, False, 20)
    assert mgr.local is LocalSafetyState.CLEAR
    assert local_rows(mgr) == [
        (10, "obstructed", sensor.value), (20, "clear", sensor.value)
    ]
    # the plant hears of every reading, and the manager has set the state first
    assert calls == [LocalSafetyState.OBSTRUCTED] * 2 + [LocalSafetyState.CLEAR]


def test_laser_obstruction_pauses_and_clears():
    check_obstruction_pauses_and_clears(SensorKind.LASER_RANGE)


def test_infrared_ring_behaves_like_laser():
    check_obstruction_pauses_and_clears(SensorKind.INFRARED_RING)


def test_bumper_latches_until_reset():
    mgr = make_manager()
    mgr.sense(SensorKind.BUMPER, True, 10)
    assert mgr.local is LocalSafetyState.EMERGENCY_STOP
    # neither a bumper release nor a laser reading changes a latched stop
    mgr.sense(SensorKind.BUMPER, False, 20)
    mgr.sense(SensorKind.LASER_RANGE, True, 25)
    mgr.sense(SensorKind.LASER_RANGE, False, 30)
    assert mgr.local is LocalSafetyState.EMERGENCY_STOP
    mgr.reset_local(40)
    assert mgr.local is LocalSafetyState.CLEAR
    mgr.reset_local(50)  # already clear: no row
    assert local_rows(mgr) == [
        (10, "emergency_stop", "bumper"), (40, "clear", "manual_reset")
    ]


# -- e-stop confinement -------------------------------------------------------------


def test_estop_confined_to_source_island():
    mgr = make_manager()
    mgr.estop("island2.m1", 100)
    assert mgr.loops["island2.loop"].state is LoopState.SAFE_STOP
    assert mgr.loops["island1.loop"].state is LoopState.RUNNING
    assert mgr.loops["island3.loop"].state is LoopState.RUNNING


def test_estop_of_a_shared_endpoint_stops_every_loop_it_is_in():
    # the safety PLC is a member of every island loop
    mgr = make_manager()
    transitions = mgr.estop("safety_plc", 100)
    assert [t.loop for t in transitions] == [
        "island1.loop", "island2.loop", "island3.loop"]
    assert all(t.cause == "safety_plc" for t in transitions)
    assert all(loop.state is LoopState.SAFE_STOP for loop in mgr.loops.values())


def test_docked_robot_estop_stops_its_island():
    mgr = make_manager(robot_member="island1.loop")
    transitions = mgr.estop("robot", 100)
    assert mgr.loops["island1.loop"].state is LoopState.SAFE_STOP
    assert mgr.loops["island2.loop"].state is LoopState.RUNNING
    assert [t.loop for t in transitions] == ["robot_local", "island1.loop"]
    assert mgr.local is LocalSafetyState.EMERGENCY_STOP


def test_undocked_robot_estop_is_local_only():
    mgr = make_manager()
    transitions = mgr.estop("robot", 100)
    assert all(loop.state is LoopState.RUNNING for loop in mgr.loops.values())
    assert transitions[0].loop == "robot_local"
    assert mgr.local is LocalSafetyState.EMERGENCY_STOP
    # a repeated robot e-stop is logged again although the guard is latched
    mgr.estop("robot", 200)
    assert local_rows(mgr) == [
        (100, "emergency_stop", "robot"), (200, "emergency_stop", "robot")
    ]
    mgr.reset_local(300)
    assert mgr.local is LocalSafetyState.CLEAR


def test_estop_unknown_endpoint():
    mgr = make_manager()
    with pytest.raises(UnknownEndpoint):
        mgr.estop("mystery.device", 0)


def test_reset_restores_running():
    mgr = make_manager()
    mgr.estop("island3.m2", 50)
    entry = mgr.reset("island3.loop", 90)
    assert mgr.loops["island3.loop"].state is LoopState.RUNNING
    assert entry.transition == "running"


def test_estop_confinement_randomized_schedules():
    # 1000 random schedules of e-stops, dock/undock moves and resets; the
    # log must never show a safe stop whose cause lies outside the loop
    rng = random.Random(2024)
    island_ids = ["island1", "island2", "island3"]
    for _ in range(1000):
        mgr = make_manager()
        docked_at: str | None = None
        for step in range(rng.randrange(1, 8)):
            now = step * 1000
            roll = rng.random()
            if roll < 0.4:
                island = rng.choice(island_ids)
                mgr.estop(f"{island}.m{rng.randrange(1, 3)}", now)
            elif roll < 0.55 and docked_at is None:
                docked_at = rng.choice(island_ids)
                mgr.join(f"{docked_at}.loop")
            elif roll < 0.65 and docked_at is not None:
                mgr.leave()
                docked_at = None
            elif roll < 0.8:
                mgr.estop("robot", now)
                if docked_at is not None:
                    pass  # island safe stop from the docked robot is allowed
            else:
                mgr.reset(rng.choice(island_ids) + ".loop", now)
        for entry in mgr.log:
            if entry.transition != "safe_stop":
                continue
            loop = mgr.loops[entry.loop]
            if entry.cause == "robot":
                # robot causes a loop stop only as a docked member
                assert entry.loop in {f"{i}.loop" for i in island_ids}
            else:
                assert entry.cause in loop.members


# -- PDU channel and watchdog ----------------------------------------------------------

MEASURED_PAIR = SafetySection().channel_streams([])


def constant_bler_model(radio: RadioSection, bler: float) -> LinkModel:
    """`radio`'s link with its BLER forced to `bler` at any SNR."""
    return LinkModel(radio, bler, radio.link_model().rate_bps)


def outage_timeline(outages: list[tuple[int, int]]) -> list[tuple[int, bool]]:
    """The link timeline of outage windows: at each window edge, up iff no
    window is open after every edge at that instant."""
    open_delta: dict[int, int] = {}
    for start, end in outages:
        open_delta[start] = open_delta.get(start, 0) + 1
        open_delta[end] = open_delta.get(end, 0) - 1
    timeline, open_windows = [], 0
    for at in sorted(open_delta):
        open_windows += open_delta[at]
        timeline.append((at, open_windows == 0))
    return timeline


def resolve(
    horizon: int,
    outages: list[tuple[int, int]] | None = None,
    seed: int = 1,
):
    """The measured pair's channel up to `horizon` over an ideal link (BLER 0,
    so no draws) whose timeline takes it down inside each scripted outage
    window, as the script's link_down / link_up do; overlapping windows keep
    it down until the last one ends. Returns its records as rows, its sorted
    deliveries and its missed cycle starts."""
    link = LinkRuntime(constant_bler_model(RadioSection(
        snr_db=15.0, tti_us=125, processing_delay_us=100.0), 0.0),
        lambda name: RngStream(seed, name), outage_timeline(outages or []))
    up, down, delivered, missed, _ = resolve_channel(
        link, MEASURED_PAIR, RngStream(seed, "link.safety"), horizon)
    return channel_rows(MEASURED_PAIR, up, down), delivered, missed


def test_clean_link_delivers_every_cycle_and_never_trips():
    horizon = NS_PER_S
    rows, delivered, missed = resolve(horizon)
    trips, checks = watchdog_trips(delivered, missed, [], WATCHDOG_NS, horizon)
    assert trips == [] and checks > 0
    assert missed == []
    created = [r for r in rows if r.stream == "pnio_coupler_to_plc"]
    assert len(created) == 247  # 246.19 Hz inclusive of t=0
    assert all(r.delivered_at is not None for r in rows)
    sizes = {r.stream: r.size_bytes for r in rows}
    assert sizes == {"pnio_coupler_to_plc": 60, "pnio_plc_to_coupler": 64}


def test_watchdog_trips_at_watchdog_after_last_delivery():
    outage_start = 100 * NS_PER_MS
    rows, delivered, missed = resolve(NS_PER_S, outages=[(outage_start, 10 * NS_PER_S)])
    trips, _ = watchdog_trips(delivered, missed, [], WATCHDOG_NS, NS_PER_S)
    assert len(trips) == 1
    trip_at, missed = trips[0]
    last_delivery = max(
        r.delivered_at for r in rows if r.delivered_at is not None
        and r.delivered_at <= trip_at
    )
    assert trip_at == last_delivery + WATCHDOG_NS
    # ceil(12 ms / 4.0619 ms) = 3 cycle attempts go unanswered before expiry
    assert missed == 3 == math.ceil(WATCHDOG_NS / CYCLE_NS)


def test_delivery_resets_the_miss_counter():
    # one cycle swallowed, then the link recovers: no trip until a long
    # outage from 100 ms, whose trip counts only the cycles it swallowed
    start = round(1 * CYCLE_NS) - 100_000
    horizon = 200 * NS_PER_MS
    _, delivered, missed = resolve(
        horizon, outages=[(start, start + CYCLE_NS), (100 * NS_PER_MS, NS_PER_S)]
    )
    trips, _ = watchdog_trips(delivered, missed, [], WATCHDOG_NS, horizon)
    assert len(trips) == 1
    trip_at, missed_at_trip = trips[0]
    before_trip = [c for c in missed if c < trip_at]
    assert before_trip[0] == round(CYCLE_NS)  # the swallowed cycle
    assert len(before_trip) == 4 and missed_at_trip == 3


def test_retry_at_next_tti_recovers_within_the_cycle():
    # outage covers only the first transmission slot of cycle 5
    cycle_start = round(5 * NS_PER_S / CYCLE_HZ)
    horizon = 100 * NS_PER_MS
    rows, delivered, missed = resolve(
        horizon, outages=[(cycle_start, cycle_start + 125_000)]
    )
    assert watchdog_trips(delivered, missed, [], WATCHDOG_NS, horizon)[0] == []
    hit = [r for r in rows if r.created_at == cycle_start]
    assert hit and all(r.delivered_at is not None for r in hit)
    # the delivery used a later slot than the first-attempt slot
    assert all(r.sent_at > r.created_at for r in hit)


def test_watchdog_rearms_after_reset():
    # a trip in the first outage; after the reset at 90 ms the recovered link
    # trips nothing, and a second outage from 300 ms trips again
    _, delivered, missed = resolve(
        NS_PER_S, outages=[(50 * NS_PER_MS, 80 * NS_PER_MS), (300 * NS_PER_MS, NS_PER_S)]
    )
    trips, _ = watchdog_trips(delivered, missed, [90 * NS_PER_MS], WATCHDOG_NS, NS_PER_S)
    assert len(trips) == 2
    assert trips[0][0] < 80 * NS_PER_MS
    last_delivery = max(d for d in delivered if d <= 300 * NS_PER_MS)
    assert trips[1] == (last_delivery + WATCHDOG_NS, 3)
    # without the reset, supervision never resumes after the first trip
    assert watchdog_trips(delivered, missed, [], WATCHDOG_NS, NS_PER_S)[0] == trips[:1]


def test_a_watchdog_longer_than_the_horizon_makes_no_check():
    horizon = 10 * NS_PER_MS
    _, delivered, missed = resolve(horizon, outages=[(0, NS_PER_S)])
    assert len(delivered) == 0 and missed
    assert watchdog_trips(delivered, missed, [0], WATCHDOG_NS, horizon) == ([], 0)
    # a whole run counts only the channel's own events as safety events
    sim = Simulation(scenario_from_dict(
        {"horizon_s": 0.01, "script": [{"at_s": 0.0, "action": "link_down"}]}))
    result = sim.run()
    *_, events = resolve_channel(sim.link, sim.channel, RngStream(sim.scenario.seed,
                                 "link.safety"), sim.horizon_ns)
    assert result.summary.events_processed["safety"] == events
    assert not [t for t in result.safety_log if t.cause == "watchdog"]


def test_the_delivery_column_is_every_delivery_within_the_horizon_sorted():
    # a lossy, jittered link with two outages: retries and jitter deliver out
    # of cycle order, and the last cycle starts 1 ns before the horizon, so
    # some of its deliveries fall past it
    horizon = round(400 * NS_PER_S / CYCLE_HZ) + 1
    model = constant_bler_model(RadioSection(tti_us=125, jitter_us=3000.0), 0.5)
    link = LinkRuntime(model, lambda name: RngStream(4, name), outage_timeline(
        [(300 * NS_PER_MS, 350 * NS_PER_MS), (900 * NS_PER_MS, 903 * NS_PER_MS)]))
    up, down, delivered, _, _ = resolve_channel(
        link, MEASURED_PAIR, RngStream(4, "link.safety"), horizon)
    in_cycle_order = [d for pair in zip(up.delivered, down.delivered)
                      for d in pair if d != LOST]
    assert in_cycle_order != sorted(in_cycle_order)
    assert max(in_cycle_order) > horizon
    assert delivered.typecode == "q"
    assert list(delivered) == sorted(d for records in (up, down)
                                     for d in records.delivered
                                     if d != LOST and d <= horizon)


def test_resolving_the_channel_holds_no_python_int_per_pdu():
    # the default scenario's channel at 10 s: its two columns take 24 B per
    # PNIO record and the sorted deliveries 8 B per delivery; a list of Python
    # ints (about 36 B an entry) of the cycle starts or of the deliveries
    # exceeds this bound
    sim = Simulation(scenario_from_dict({"horizon_s": 10.0}))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        up, down, *_ = resolve_channel(sim.link, sim.channel, RngStream(
            sim.scenario.seed, "link.safety"), sim.horizon_ns)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n = len(up.created) + len(down.created)
    assert n > 4_000
    assert peak / n <= 45, f"{peak / n:.1f} B per PNIO record at the peak"


@pytest.mark.parametrize("tti_us", [125, 1000])
@pytest.mark.parametrize("p", [0.5, 0.8, 0.9])
def test_constant_bler_channel_matches_the_analytic_oracle(p, tti_us):
    # at a constant BLER p, a PDU gets one attempt per TTI boundary from its
    # cycle's start until the next cycle starts (the horizon for the last):
    # with K_c such boundaries, a direction loses cycle c with probability
    # p^K_c = 1 - availability(p, K_c), and both first attempts of a cycle
    # are lost with probability p^2; each count stays within 4 binomial sigma
    horizon = 20 * NS_PER_S
    tti = tti_us * NS_PER_US
    starts = list(emission_times(CYCLE_HZ, horizon))
    ends = starts[1:] + [horizon + 1]
    # the boundaries k * tti in [start, end); the first attempt is made even
    # if none precedes the horizon
    ks = [max(1, (end - 1) // tti - (start - 1) // tti)
          for start, end in zip(starts, ends)]
    assert set(ks[:-1]) == {math.floor(CYCLE_NS / tti), math.ceil(CYCLE_NS / tti)}
    p_lost = [1 - availability(p, k) for k in ks]
    lost_mean = sum(p_lost)
    lost_sigma = math.sqrt(sum(q * (1 - q) for q in p_lost))
    missed_mean = p * p * len(starts)
    missed_sigma = math.sqrt(missed_mean * (1 - p * p))
    for seed in range(3):
        link = LinkRuntime(constant_bler_model(RadioSection(tti_us=tti_us), p),
                           lambda name: RngStream(seed, name))
        up, down, _, missed, _ = resolve_channel(
            link, MEASURED_PAIR, RngStream(seed, "link.safety"), horizon)
        for records in (up, down):
            lost = records.delivered.count(LOST)
            assert abs(lost - lost_mean) <= 4 * lost_sigma, (seed, lost, lost_mean)
        assert abs(len(missed) - missed_mean) <= 4 * missed_sigma, (
            seed, len(missed), missed_mean)


def brute_force_first_trip(
    deliveries: list[int], watchdog: int, horizon: int
) -> int | None:
    """Oracle: first instant a delivery-free window of the watchdog length
    completes, scanning the delivery timeline from t = 0."""
    edges = [0] + sorted(d for d in deliveries if d <= horizon)
    for prev, nxt in zip(edges, edges[1:]):
        if nxt - prev >= watchdog and prev + watchdog <= horizon:
            return prev + watchdog
    if horizon - edges[-1] >= watchdog:
        return edges[-1] + watchdog
    return None


def test_watchdog_trips_iff_delivery_free_window_exists():
    # 1000 randomized outage schedules, cross-checked against a brute-force
    # window scan over the delivered-PDU timeline
    rng = random.Random(7001)
    horizon = 300 * NS_PER_MS
    mismatches = []
    for i in range(1000):
        watchdog = rng.randrange(9, 25) * NS_PER_MS
        outages = []
        for _ in range(rng.randrange(0, 3)):
            start = rng.randrange(0, horizon)
            outages.append((start, start + rng.randrange(1, 40) * NS_PER_MS))
        rows, delivered, missed = resolve(horizon, outages=outages, seed=i)
        trips, _ = watchdog_trips(delivered, missed, [], watchdog, horizon)
        deliveries = [r.delivered_at for r in rows if r.delivered_at is not None]
        expected = brute_force_first_trip(deliveries, watchdog, horizon)
        actual = trips[0][0] if trips else None
        if expected != actual:
            mismatches.append((i, outages, expected, actual))
    assert not mismatches, mismatches[:3]


def test_watchdog_trip_consequence_by_membership():
    mgr = make_manager(robot_member="island2.loop")
    entry = mgr.watchdog_trip(500, 3)
    assert mgr.loops["island2.loop"].state is LoopState.SAFE_STOP
    assert mgr.loops["island1.loop"].state is LoopState.RUNNING
    assert (entry.loop, entry.cause, entry.consecutive_missed) == (
        "island2.loop", "watchdog", 3
    )

    isolated = make_manager()
    entry = isolated.watchdog_trip(500, 3)
    # isolated robot: logged only, no loop stop and no local reaction
    assert entry.loop == "robot_isolated"
    assert all(loop.state is LoopState.RUNNING for loop in isolated.loops.values())
    assert isolated.local is LocalSafetyState.CLEAR


def test_channel_streams_are_the_pnio_rows_as_safety_class():
    rows = [TrafficProfile("pnio_coupler_to_plc", payload_bytes=40, rate_hz=500.0),
            TrafficProfile("pnio_plc_to_coupler", payload_bytes=44, rate_hz=500.0)]
    up, down = SafetySection().channel_streams(rows)
    assert [(p.name, p.payload_bytes, p.rate_hz) for p in (up, down)] == [
        ("pnio_coupler_to_plc", 40, 500.0), ("pnio_plc_to_coupler", 44, 500.0)]
    assert up.stream_class is down.stream_class is StreamClass.SAFETY_RELEVANT
    # one row alone is an error naming its partner; with neither the
    # measured pair runs
    for alone, partner in ((rows[:1], "pnio_plc_to_coupler"),
                           (rows[1:], "pnio_coupler_to_plc")):
        with pytest.raises(ValueError, match=partner):
            SafetySection().channel_streams(alone)
    measured = SafetySection().channel_streams([])
    assert [(p.payload_bytes, p.rate_hz, p.stream_class) for p in measured] == [
        (60, 246.19, StreamClass.SAFETY_RELEVANT),
        (64, 246.19, StreamClass.SAFETY_RELEVANT)]
