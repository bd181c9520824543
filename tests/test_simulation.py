from __future__ import annotations

import gc
import tracemalloc
from collections import Counter

import pytest

from fablink import compliance
from fablink.artifacts import build_metrics_document
from fablink.scenario import default_scenario, scenario_from_dict
from fablink.simulation import Simulation
from fablink.sim_core import NS_PER_S, NS_PER_US
from fablink.traffic import StreamClass
from record_rows import engine_rows


def run_scenario(data: dict):
    return Simulation(scenario_from_dict(data)).run()


def fast_plant(horizon_s: float, **factory_overrides) -> dict:
    factory = {
        "releases": {"count": 2, "interval_s": 45.0, "island": "island1"},
    }
    factory.update(factory_overrides)
    return {
        "seed": 11,
        "horizon_s": horizon_s,
        "traffic": {"catalog": []},
        "factory": factory,
    }


def legs(result, product: str):
    return [
        e for e in result.product_log
        if e.product == product and e.event in ("leg_start", "leg_end")
    ]


def test_product_flows_through_all_islands_and_completes():
    result = run_scenario(fast_plant(60.0, releases={"count": 1}))
    events = [e.event for e in result.product_log if e.product == "product1"]
    assert events[0] == "released"
    assert "completed" in events
    stations = [
        e.detail.split("@")[1]
        for e in result.product_log
        if e.product == "product1" and e.event == "step_done"
    ]
    assert stations == [
        "island1.engrave", "island1.insert_spring", "island2.mount_cover",
        "island2.weigh", "island3.optical_inspect",
    ]


def test_recipe_prefix_order_recorded_in_memory():
    result = run_scenario(fast_plant(120.0))
    recipe = default_scenario().factory.recipe
    for product in ("product1", "product2"):
        steps = [
            e.detail.split("@")[0]
            for e in result.product_log
            if e.product == product and e.event == "step_done"
        ]
        assert steps == recipe[: len(steps)]


def test_defect_one_diverts_every_inspected_product_to_manual():
    result = run_scenario(
        fast_plant(90.0, defect_probability=1.0, releases={"count": 1})
    )
    fails = [
        e for e in result.product_log
        if e.event == "verdict" and e.detail == "fail"
    ]
    assert fails, "expected at least one fail verdict"
    for fail in fails:
        nxt = next(
            (
                e for e in result.product_log
                if e.product == fail.product
                and e.event == "leg_start"
                and e.at >= fail.at
            ),
            None,
        )
        assert nxt is not None
        assert nxt.detail.endswith("->manual")
    assert result.factory_stats["manual_visits"] >= 1


def test_manual_rework_clears_fail_flag_and_flow_continues():
    result = run_scenario(
        fast_plant(120.0, defect_probability=1.0, releases={"count": 1})
    )
    events = [
        (e.event, e.detail) for e in result.product_log if e.product == "product1"
    ]
    assert ("manual_arrival", "") in events
    assert any(e == "rework_done" for e, _ in events)


def test_defect_zero_completes_within_analytic_bound():
    data = fast_plant(150.0, releases={"count": 3, "interval_s": 45.0})
    scenario = scenario_from_dict(data)
    result = Simulation(scenario).run()
    assert result.factory_stats["completed"] == 3
    f = scenario.factory
    steps = len(f.recipe)
    max_service = max(
        [f.service_s] + list(f.service_overrides.values()) + [f.manual_service_s]
    )
    max_transit = max(
        v for row in f.transit_s.values() for v in row.values()
    )
    bound_ns = round(steps * (max_service + max_transit) * NS_PER_S)
    released = {
        e.product: e.at for e in result.product_log if e.event == "released"
    }
    completed = {
        e.product: e.at for e in result.product_log if e.event == "completed"
    }
    assert set(released) == set(completed)
    for product, release_at in released.items():
        assert completed[product] - release_at <= bound_ns


def test_no_timeout_inspection_in_default_geometry():
    result = run_scenario(fast_plant(60.0, releases={"count": 1}))
    assert result.factory_stats["inspections"] >= 2
    assert result.factory_stats["inspection_timeouts"] == 0


def test_inspection_timeout_flagged_when_transit_shorter_than_cloud_rtt():
    transit = {
        "island1": {"island2": 1.0, "island3": 1.0, "manual": 1.0},
        "island2": {"island1": 1.0, "island3": 1.0, "manual": 1.0},
        "island3": {"island1": 1.0, "island2": 1.0, "manual": 1.0},
        "manual": {"island1": 1.0, "island2": 1.0, "island3": 1.0},
    }
    result = run_scenario(
        fast_plant(
            60.0,
            releases={"count": 1},
            transit_s=transit,
            defect_probability=1.0,
        )
    )
    # the upload alone takes ~1.3 s over the default link: every verdict is late
    assert result.factory_stats["inspection_timeouts"] >= 1
    assert result.factory_stats["manual_visits"] == 0  # late Fail cannot divert
    timeouts = [
        e for e in result.product_log
        if e.event == "verdict" and "timeout" in e.detail
    ]
    assert timeouts and all(e.detail == "pass(timeout)" for e in timeouts)


def test_manual_station_substitutes_for_missing_modules():
    # two recipe steps no island can perform: the operator takes both, one
    # after the other, without the product leaving the manual station
    data = fast_plant(
        120.0,
        recipe=["engrave", "polish", "varnish"],
        islands=[{"id": "island1", "capabilities": ["engrave"]}],
        transit_s={
            "island1": {"manual": 8.0},
            "manual": {"island1": 8.0},
        },
        releases={"count": 1, "island": "island1"},
    )
    result = run_scenario(data)
    assert result.factory_stats["completed"] == 1
    stations = [
        e.detail.split("@")[1]
        for e in result.product_log
        if e.event == "step_done"
    ]
    assert stations == ["island1.engrave", "manual", "manual"]
    assert result.factory_stats["manual_visits"] == 1  # one trip, two steps


def test_estop_script_halts_island_and_reset_resumes():
    data = fast_plant(90.0, releases={"count": 1})
    data["script"] = [
        {"at_s": 1.0, "action": "estop", "endpoint": "island1.engrave"},
        {"at_s": 20.0, "action": "reset", "loop": "island1.loop"},
    ]
    result = run_scenario(data)
    log = result.safety_log
    stop = next(t for t in log if t.transition == "safe_stop")
    assert stop.loop == "island1.loop"
    assert stop.cause == "island1.engrave"
    resume = next(t for t in log if t.transition == "running")
    assert resume.at == 20 * NS_PER_S
    # the halted island froze the first service; the product still completes
    assert result.factory_stats["completed"] == 1
    done = next(e for e in result.product_log if e.event == "completed")
    assert done.at > 20 * NS_PER_S


def test_estop_confinement_in_full_run():
    data = fast_plant(60.0, releases={"count": 1})
    data["script"] = [
        {"at_s": 2.0, "action": "estop", "endpoint": "island3.optical_inspect"},
        {"at_s": 50.0, "action": "reset", "loop": "island3.loop"},
    ]
    result = run_scenario(data)
    stops = [t for t in result.safety_log if t.transition == "safe_stop"]
    assert {t.loop for t in stops} == {"island3.loop"}


def test_safety_plc_estop_stops_every_island_in_full_run():
    data = fast_plant(3.0, releases={"count": 1})
    data["script"] = [{"at_s": 1.0, "action": "estop", "endpoint": "safety_plc"}]
    result = run_scenario(data)
    stops = [(t.at, t.loop, t.cause) for t in result.safety_log
             if t.transition == "safe_stop"]
    assert stops == [(NS_PER_S, f"island{i}.loop", "safety_plc") for i in (1, 2, 3)]


def test_obstruction_pauses_transit_and_extends_arrival():
    base = fast_plant(90.0, releases={"count": 1})
    plain = run_scenario(base)
    obstructed = dict(base)
    obstructed["script"] = [
        {"at_s": 7.0, "action": "obstacle", "sensor": "laser"},
        {"at_s": 12.0, "action": "clear", "sensor": "laser"},
    ]
    held = run_scenario(obstructed)

    def completion(result):
        return next(
            e.at for e in result.product_log if e.event == "completed"
        )

    # 5 s obstruction during the first transit shifts completion by 5 s
    assert completion(held) - completion(plain) == 5 * NS_PER_S
    local = [t for t in held.safety_log if t.loop == "robot_local"]
    assert [t.transition for t in local] == ["obstructed", "clear"]


def test_bumper_latch_requires_explicit_reset():
    data = fast_plant(90.0, releases={"count": 1})
    data["script"] = [
        {"at_s": 7.0, "action": "obstacle", "sensor": "bumper"},
        {"at_s": 8.0, "action": "clear", "sensor": "bumper"},  # no effect
        {"at_s": 15.0, "action": "reset_local"},
    ]
    result = run_scenario(data)
    local = [t.transition for t in result.safety_log if t.loop == "robot_local"]
    assert local == ["emergency_stop", "clear"]
    assert result.factory_stats["completed"] == 1


def test_local_safety_transitions_invariant_under_link_loss():
    # identical sensor script, lossless vs adversarial link outages: the
    # robot-local transition log must match exactly
    script = [
        {"at_s": 3.0, "action": "obstacle", "sensor": "infrared"},
        {"at_s": 4.0, "action": "clear", "sensor": "infrared"},
        {"at_s": 9.0, "action": "obstacle", "sensor": "laser"},
        {"at_s": 11.0, "action": "clear", "sensor": "laser"},
    ]
    lossless = fast_plant(40.0, releases={"count": 1})
    lossless["script"] = list(script)
    adversarial = fast_plant(40.0, releases={"count": 1})
    adversarial["script"] = list(script) + [
        {"at_s": 1.0, "action": "link_down"},
        {"at_s": 1.5, "action": "link_up"},
        {"at_s": 8.0, "action": "link_down"},
        {"at_s": 8.2, "action": "link_up"},
    ]

    def local_log(result):
        return [
            (t.at, t.transition, t.cause)
            for t in result.safety_log
            if t.loop == "robot_local"
        ]

    assert local_log(run_scenario(lossless)) == local_log(run_scenario(adversarial))


def test_conservation_per_stream():
    result = Simulation(default_scenario_with_horizon(5.0)).run()
    for metrics in result.stream_metrics.values():
        assert metrics.sample_count == (
            metrics.delivered_count + metrics.lost_count + metrics.in_flight_count
        )
    agg = result.aggregate
    assert agg.sample_count == (
        agg.delivered_count + agg.lost_count + agg.in_flight_count
    )


def test_packet_record_ordering_and_sequence_invariants():
    result = Simulation(default_scenario_with_horizon(5.0)).run()
    last_seq: dict[str, int] = {}
    for r in engine_rows(result.records):
        assert r.sent_at is not None and r.created_at <= r.sent_at
        if r.delivered_at is not None:
            assert r.sent_at <= r.delivered_at
        prev = last_seq.get(r.stream, -1)
        assert r.seq == prev + 1
        last_seq[r.stream] = r.seq


def test_a_finished_run_holds_its_records_as_integer_columns():
    # bulk-shaped: the measured catalog at ten times its rate, no safety channel
    sim = Simulation(scenario_from_dict({
        "horizon_s": 2.0, "safety": {"enabled": False},
        "traffic": {"catalog": "measured", "total_rate_mbps": 60.0}}))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = sim.run()
        peak = tracemalloc.get_traced_memory()[1] - before
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = len(result.records)
    assert n > 10_000
    # two 8-byte instants per record, its send instant derived, and no engine
    # order: `packets.csv` merges the streams as it is written; the folds'
    # sorted latencies die with the run, and one object per record would take
    # hundreds of bytes
    assert retained / n <= 24, f"{retained / n:.1f} B/record retained"
    # a stream's latencies, and the creation instants of each stream and of
    # the aggregate, are sorted a few thousand records at a time; one list of
    # a stream's latencies, or a sorted list of every record's creation
    # instant, exceeds this
    assert peak / n <= 60, f"{peak / n:.1f} B/record at the peak"


def _traced_run(horizon_s: float):
    """The default scenario's run at `horizon_s`, and the peak of the memory
    it traced above what the built simulation held."""
    sim = Simulation(scenario_from_dict({"horizon_s": horizon_s}))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = sim.run()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_a_run_grows_by_what_its_records_cannot_rederive():
    # a traffic record keeps its creation and delivery instants, 16 B, and
    # its latency run 4 B more below 2^31 ns; the safety channel's two
    # directions share one creation column. A stored send instant, or 8-byte
    # latencies, would pass the bound
    (short, short_peak), (long, long_peak) = _traced_run(20.0), _traced_run(60.0)
    per_record = (long_peak - short_peak) / (len(long.records) - len(short.records))
    assert per_record <= 26, f"{per_record:.1f} B per added record"
    up, down = long.records.columns[:2]
    assert up.created is down.created and up.sent is not down.sent


def test_latency_runs_past_32_bits_keep_64_bit_items():
    # a wired stream's latency is its wire latency, here 3e9 ns, above 2^31 - 1
    result = run_scenario({
        "horizon_s": 10.0, "safety": {"enabled": False}, "factory": {"enabled": False},
        "radio": {"wired_latency_us": 3.0e6},
        "traffic": {"catalog": [{"name": "wire", "rate_hz": 100.0, "wireless": False}]}})
    (stream,), (records,) = result.records.streams, result.records.columns
    latencies = sorted(d - c for c, d in zip(records.created, records.delivered)
                       if d <= result.scenario.horizon_ns)
    assert latencies and latencies[0] == 3 * NS_PER_S
    _, fold = compliance.collect_stream_metrics(stream, records,
                                                result.scenario.horizon_ns)
    assert {run.typecode for run in fold.latencies} == {"q"}
    latency = result.stream_metrics["wire"].latency
    assert (latency.min_ns, latency.p50_ns, latency.p99_ns, latency.p999_ns,
            latency.max_ns) == tuple(
        latencies[max(1, -(-permille * len(latencies) // 1000)) - 1]
        for permille in (0, 500, 990, 999, 1000))


def test_a_run_scores_through_the_compliance_module_names(monkeypatch):
    # the benchmark's tracer times the folds by replacing these two names on
    # `fablink.compliance`, so a run must look them up there
    calls = Counter()
    for name in ("collect_stream_metrics", "aggregate_metrics"):
        def counted(*args, _name=name, _fn=getattr(compliance, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(compliance, name, counted)
    sim = Simulation(scenario_from_dict({"horizon_s": 0.5}))
    sim.run()
    assert calls == {"collect_stream_metrics": len(sim.streams), "aggregate_metrics": 1}


def default_scenario_with_horizon(horizon_s: float):
    scenario = scenario_from_dict({"horizon_s": horizon_s})
    return scenario


def test_repeated_runs_identical_records():
    a = Simulation(default_scenario_with_horizon(3.0)).run()
    b = Simulation(default_scenario_with_horizon(3.0)).run()
    assert len(a.records) == len(b.records)
    for ra, rb in zip(engine_rows(a.records), engine_rows(b.records)):
        assert (ra.stream, ra.seq, ra.created_at, ra.sent_at, ra.delivered_at) == (
            rb.stream, rb.seq, rb.created_at, rb.sent_at, rb.delivered_at
        )
    assert a.summary.events_processed == b.summary.events_processed


def test_watchdog_trip_during_link_outage_stops_docked_island_only():
    # the robot idles docked at island1 while the link dies long enough to
    # trip the channel watchdog
    data = fast_plant(10.0, releases={"count": 0})
    data["script"] = [{"at_s": 2.0, "action": "link_down"}]
    result = run_scenario(data)
    stops = [t for t in result.safety_log if t.transition == "safe_stop"]
    assert len(stops) == 1
    assert stops[0].loop == "island1.loop"
    assert stops[0].cause == "watchdog"
    assert 2 * NS_PER_S < stops[0].at < 2 * NS_PER_S + 20_000_000


def test_watchdog_trip_on_a_stopped_docked_loop_is_logged():
    # island1.loop is already in safe stop when the outage trips the watchdog
    result = run_scenario({
        "horizon_s": 4.0,
        "factory": {"releases": {"count": 0}},
        "script": [
            {"at_s": 1.0, "action": "estop", "endpoint": "island1.engrave"},
            {"at_s": 2.0, "action": "link_down"},
            {"at_s": 2.5, "action": "link_up"},
        ],
    })
    trips = [t for t in result.safety_log if t.transition == "watchdog_trip"]
    assert len(trips) == 1
    assert (trips[0].loop, trips[0].cause) == ("island1.loop", "watchdog")
    assert trips[0].consecutive_missed > 0
    assert 2 * NS_PER_S < trips[0].at < 2 * NS_PER_S + 20_000_000
    assert result.factory_stats["safety_trips"] == 2


@pytest.mark.parametrize("clear, product2", [
    (None, ("engrave@manual", 51.0)),
    (2.0, ("engrave@island1.engrave", 22.5)),
])
def test_module_fault_during_service_outlasts_the_service(clear, product2):
    # island1.engrave serves product1 from 0.5 s to 2.5 s and faults at 1.0 s.
    # Never cleared, the fault outlasts the service, so product2's engrave
    # step goes to the manual station; cleared at 2.0 s, during the service,
    # the module takes product2 once product1 has left it
    script = [{"at_s": 1.0, "action": "module_fault", "endpoint": "island1.engrave"}]
    if clear is not None:
        script.append({"at_s": clear, "action": "module_clear",
                       "endpoint": "island1.engrave"})
    result = run_scenario({
        "horizon_s": 60.0,
        "traffic": {"catalog": []},
        "script": script,
    })
    engraved = {
        e.product: (e.detail, e.at / NS_PER_S) for e in result.product_log
        if e.event == "step_done" and e.detail.startswith("engrave@")
    }
    assert engraved["product1"] == ("engrave@island1.engrave", 2.5)
    assert engraved["product2"] == product2


def test_a_product_completed_at_the_manual_station_drops_its_robot_job():
    # product1's job to island3 is still queued when the operator completes
    # it; a job left at the head of the queue would block every later one
    sim = Simulation(scenario_from_dict({
        "seed": 42,
        "horizon_s": 600.0,
        "traffic": {"catalog": []},
        "safety": {"enabled": False},
        "factory": {"defect_probability": 0.3,
                    "releases": {"count": 10, "interval_s": 20.0}},
    }))
    sim.run()
    assert sim.plant.stats["completed"] == 10
    assert not sim.plant.jobs


def test_same_instant_resumes_fire_in_start_order():
    # both products convey from 2.5 s; the estop pauses both transfers and
    # the reset resumes them together, so both services end at 5.8 s. The
    # ballast moves where the timers are allocated.
    scenario = {
        "horizon_s": 12.0,
        "traffic": {"catalog": []},
        "safety": {"enabled": False},
        "factory": {"islands": [{"id": "island1", "capabilities": ["a", "b"]}],
                    "recipe": ["a", "b"],
                    "releases": {"count": 2, "interval_s": 2.45}},
        "script": [{"at_s": 2.7, "action": "estop", "endpoint": "island1.a"},
                   {"at_s": 3.5, "action": "reset", "loop": "island1.loop"}],
    }
    logs = []
    for padding in range(16):
        ballast = [object() for _ in range(padding)]
        logs.append(run_scenario(scenario).product_log)
        del ballast
    assert all(log == logs[0] for log in logs)
    at = round(5.8 * NS_PER_S)
    assert [e.product for e in logs[0] if e.event == "step_done" and e.at == at] == [
        "product1", "product2"
    ]


def test_no_route_is_logged_once_when_a_product_loses_its_route():
    # without a manual station product2 has no route while product1 holds
    # island1.engrave (0.5-2.5 s): one row, not one per 100 ms tick
    result = run_scenario(fast_plant(
        10.0, manual_station=False, releases={"count": 2, "interval_s": 0.0},
    ))
    events = [
        (e.event, e.at) for e in result.product_log if e.product == "product2"
    ]
    assert events[:3] == [
        ("released", 0),
        ("no_route", 0),
        ("transfer_start", round(2.5 * NS_PER_S)),
    ]


# -- one radio send path ----------------------------------------------------------


def _run_with_jitter(catalog, horizon_s: float = 1.0):
    return run_scenario({
        "horizon_s": horizon_s,
        "radio": {"jitter_us": 50.0},
        "traffic": {"catalog": catalog},
    })


def test_jitter_applies_to_safety_pdus():
    result = _run_with_jitter("measured")
    safety = {name for name, m in result.stream_metrics.items()
              if m.stream_class is StreamClass.SAFETY_RELEVANT}
    latencies = {
        r.delivered_at - r.sent_at for r in engine_rows(result.records)
        if r.stream in safety and r.delivered_at
    }
    assert len(latencies) > 1


def test_adding_a_stream_leaves_another_streams_jitter_unchanged():
    a = {"name": "a", "payload_bytes": 200, "rate_hz": 100.0}
    b = {"name": "b", "payload_bytes": 1400, "rate_hz": 300.0, "pattern": "poisson"}

    def delivered(catalog):
        return [r.delivered_at for r in engine_rows(_run_with_jitter(catalog).records)
                if r.stream == "a"]

    alone = delivered([a])
    assert alone and delivered([b, a]) == alone


def test_link_down_drops_traffic_and_safety_attempts_alike():
    down, up = NS_PER_S, 3 * NS_PER_S // 2
    sim = Simulation(scenario_from_dict({
        "horizon_s": 3.0,
        "script": [{"at_s": 1.0, "action": "link_down"},
                   {"at_s": 1.5, "action": "link_up"}],
    }))
    result = sim.run()
    tti = sim.scenario.radio.tti_us * NS_PER_US
    wireless = {p.name for p in sim.streams if p.wireless}
    lost_in_window = set()
    for r in engine_rows(result.records):
        if r.stream not in wireless:
            assert r.delivered_at is not None  # the wire is not the radio
        elif down + tti <= r.sent_at < up:
            # attempted while the link was down
            assert r.delivered_at is None, r
            lost_in_window.add(result.stream_metrics[r.stream].stream_class)
    assert {StreamClass.SAFETY_RELEVANT, StreamClass.NON_SAFETY_RELEVANT} <= (
        lost_in_window
    )


def test_a_stream_without_packets_in_the_horizon_is_scored_by_its_class():
    # the safety row's first packet is due at 2 s, after the 1 s horizon
    result = run_scenario({
        "horizon_s": 1.0,
        "safety": {"enabled": False},
        "traffic": {"catalog": [
            {"name": "late", "payload_bytes": 60, "rate_hz": 100.0,
             "class": "safety", "phase_us": 2e6},
            {"name": "a", "payload_bytes": 200, "rate_hz": 100.0},
        ]},
    })
    late = result.stream_metrics["late"]
    assert (late.stream_class, late.sample_count) == (StreamClass.SAFETY_RELEVANT, 0)
    assert build_metrics_document(result)["streams"]["late"]["class"] == "safety"
    assert [(e.stream, e.profile) for e in result.compliance.entries] == [
        ("late", "aspect1"), ("aggregate", "aspect2")]
