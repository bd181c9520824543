"""Acceptance suite: one test per release criterion, each printing a
CRITERION n PASS/FAIL line. Tolerances are pinned here, not calibrated."""

from __future__ import annotations

import functools
import hashlib
import random
import time

import pytest

from fablink.compliance import ComplianceVerdict
from fablink.artifacts import write_artifacts
from fablink.radio_link import (
    DEFAULT_BLER_CURVES,
    EVA70,
    V2V_URBAN_NLOS,
    LinkModel,
    LinkRuntime,
    RadioSection,
    WAVEFORM_GAP_DB,
    Waveform,
    availability,
    next_tx_opportunity,
)
from fablink.safety import (
    SafetyLoop,
    SafetyManager,
    resolve_channel,
    watchdog_trips,
)
from fablink.scenario import SafetySection, default_scenario, scenario_from_dict
from fablink.simulation import Simulation
from fablink.sim_core import NS_PER_MS, NS_PER_S, Engine, RngStream
from fablink.traffic import StreamClass
from record_rows import channel_rows, engine_rows

TABLE_RATES_HZ = {
    "pnio_coupler_to_plc": 246.19,
    "pn_dcp_coupler": 0.51,
    "pn_dcp_plc": 1.36,
    "pnio_plc_to_coupler": 246.19,
    "lldp_plc": 0.17,
    "pn_ptcp_plc": 4.94,
}


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {number} FAIL - {title}")
                raise
            print(f"CRITERION {number} PASS - {title}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def default_run():
    scenario = default_scenario()
    started = time.perf_counter()
    result = Simulation(scenario).run()
    elapsed = time.perf_counter() - started
    return result, elapsed


@criterion(1, "measured traffic reproduction over 60 s")
def test_criterion_1_traffic_reproduction(default_run):
    result, elapsed = default_run
    assert elapsed < 10.0, f"60 s run took {elapsed:.1f} s"
    for stream, expected_hz in TABLE_RATES_HZ.items():
        creations = sorted(
            r.created_at for r in engine_rows(result.records) if r.stream == stream
        )
        assert len(creations) >= 2, stream
        span_s = (creations[-1] - creations[0]) / NS_PER_S
        observed_hz = (len(creations) - 1) / span_s
        assert abs(observed_hz - expected_hz) / expected_hz <= 0.005, (
            stream, observed_hz
        )
    aggregate = result.aggregate.observed_rate_bps
    assert abs(aggregate - 5.97e6) / 5.97e6 <= 0.02, aggregate


@criterion(2, "link anchor pass-through, waveform gap, throughput anchor")
def test_criterion_2_link_anchors():
    assert RadioSection(snr_db=15.0).link_model().bler == 1e-5
    assert RadioSection(channel=V2V_URBAN_NLOS, snr_db=19.0).link_model().bler == 1e-5
    # the waveform gap: CP-OFDM needs 1.7 dB more SNR than P-OFDM for 1e-5,
    # and for every BLER of the sweep
    assert WAVEFORM_GAP_DB == 1.7
    for channel, s_1e5 in ((EVA70, 15.0), (V2V_URBAN_NLOS, 19.0)):
        p = DEFAULT_BLER_CURVES[Waveform.P_OFDM, channel]
        cp = DEFAULT_BLER_CURVES[Waveform.CP_OFDM, channel]
        assert cp.bler(s_1e5 + WAVEFORM_GAP_DB) == 1e-5, channel
        for s in (s_1e5 + x / 2 for x in range(-12, 9)):
            assert cp.bler(s + 1.7) == pytest.approx(p.bler(s)), (channel, s)
    assert RadioSection(snr_db=11.0).link_model().rate_bps == 10e6


@criterion(3, "sampling fidelity and survival-time availability formula")
def test_criterion_3_sampling_and_availability():
    model = LinkModel(RadioSection(), 0.5, 10e6)
    rng = RngStream(42, "acceptance.sampling")
    link = LinkRuntime(model, Engine().stream)
    send = link.sender("sampling", 60, rng)
    delivered = sum(send(0)[1] is not None for _ in range(1_000_000))
    assert abs(delivered / 1_000_000 - 0.5) <= 0.002
    # independence formula to full precision; the often-quoted seven-nines
    # equivalence for a two-slot survival time does not follow from it and
    # is deliberately not reproduced
    assert availability(1e-5, 2) == 1 - 1e-10
    assert availability(1e-5, 2) != 1 - 1e-7


@criterion(4, "slot timing, alignment idempotence, sub-ms round trip")
def test_criterion_4_timing_math():
    # the slot durations a run schedules at
    links = {us: LinkRuntime(RadioSection(
        snr_db=11.0, tti_us=us, processing_delay_us=0.0).link_model(), Engine().stream)
        for us in (1000, 500, 250, 125)}
    assert [link.tti_ns for link in links.values()] == [
        NS_PER_MS, NS_PER_MS // 2, NS_PER_MS // 4, NS_PER_MS // 8]
    rng = random.Random(4)
    for _ in range(10_000):
        tti = rng.choice(list(links.values())).tti_ns
        t = next_tx_opportunity(rng.randrange(0, 10**10), tti)
        assert next_tx_opportunity(t, tti) == t
    leg1 = links[125].latency(0, 60)
    leg2 = links[125].latency(leg1, 60)
    assert leg1 + leg2 <= NS_PER_MS


def _outage_timeline(outages):
    """The link timeline of outage windows: at each window edge, up iff no
    window is open after every edge at that instant."""
    open_delta = {}
    for start, end in outages:
        open_delta[start] = open_delta.get(start, 0) + 1
        open_delta[end] = open_delta.get(end, 0) - 1
    timeline, open_windows = [], 0
    for at in sorted(open_delta):
        open_windows += open_delta[at]
        timeline.append((at, open_windows == 0))
    return timeline


def _random_outage_trips(seed, outages, watchdog_ns, horizon):
    """The measured pair's channel over a lossless link whose timeline the
    outage windows take down, the timeline the script's link_down / link_up
    make: its records as rows, and its watchdog's trip instants."""
    radio = RadioSection(snr_db=15.0, tti_us=125)
    model = LinkModel(radio, 0.0, radio.link_model().rate_bps)
    link = LinkRuntime(model, lambda name: RngStream(seed, name),
                       _outage_timeline(outages))
    pair = SafetySection().channel_streams([])
    up, down, delivered, missed, _ = resolve_channel(
        link, pair, RngStream(seed, "link.safety"), horizon)
    trips, _ = watchdog_trips(delivered, missed, [], watchdog_ns, horizon)
    return channel_rows(pair, up, down), [at for at, _ in trips]


def _first_window_completion(deliveries, watchdog, horizon):
    edges = [0] + sorted(d for d in deliveries if d <= horizon)
    for prev, nxt in zip(edges, edges[1:]):
        if nxt - prev >= watchdog and prev + watchdog <= horizon:
            return prev + watchdog
    if horizon - edges[-1] >= watchdog:
        return edges[-1] + watchdog
    return None


@criterion(5, "safety properties over randomized schedules")
def test_criterion_5_safety_properties():
    # (a) confinement: 1000 random e-stop/membership schedules; the log must
    # never show a safe stop caused from outside the loop
    rng = random.Random(50_001)
    island_ids = ["island1", "island2", "island3"]
    for _ in range(1000):
        loops = [
            SafetyLoop(f"{i}.loop", {f"{i}.m1", f"{i}.m2", "safety_plc"})
            for i in island_ids
        ]
        mgr = SafetyManager(loops)
        docked: str | None = None
        for step in range(rng.randrange(1, 8)):
            now = step * 1_000_000
            roll = rng.random()
            if roll < 0.45:
                island = rng.choice(island_ids)
                mgr.estop(f"{island}.m{rng.randrange(1, 3)}", now)
            elif roll < 0.6 and docked is None:
                docked = rng.choice(island_ids)
                mgr.join(f"{docked}.loop")
            elif roll < 0.7 and docked is not None:
                mgr.leave()
                docked = None
            elif roll < 0.85:
                mgr.estop("robot", now)
            else:
                mgr.reset(rng.choice(island_ids) + ".loop", now)
        for entry in mgr.log:
            if entry.transition == "safe_stop":
                assert entry.cause in mgr.loops[entry.loop].members | {"robot"}
                if entry.cause == "robot":
                    continue
                cause_island = entry.cause.split(".")[0]
                assert entry.loop == f"{cause_island}.loop"

    # (b) watchdog trips iff a delivery-free window of the watchdog length
    # exists, cross-checked by a brute-force scan over the delivered trace
    rng = random.Random(50_002)
    horizon = 300 * NS_PER_MS
    for i in range(1000):
        watchdog = rng.randrange(9, 25) * NS_PER_MS
        outages = []
        for _ in range(rng.randrange(0, 3)):
            start = rng.randrange(0, horizon)
            outages.append((start, start + rng.randrange(1, 40) * NS_PER_MS))
        rows, trips = _random_outage_trips(i, outages, watchdog, horizon)
        deliveries = [r.delivered_at for r in rows if r.delivered_at is not None]
        expected = _first_window_completion(deliveries, watchdog, horizon)
        actual = trips[0] if trips else None
        assert expected == actual, (i, outages, expected, actual)

    # (c) robot-local safety transitions are identical under lossless and
    # adversarial loss schedules for the same sensor script
    rng = random.Random(50_003)
    sensors = ["laser", "infrared", "bumper"]
    for i in range(1000):
        script = []
        for _ in range(rng.randrange(1, 5)):
            at = round(rng.uniform(0.0, 0.28), 3)
            roll = rng.random()
            if roll < 0.5:
                script.append(
                    {"at_s": at, "action": "obstacle",
                     "sensor": rng.choice(sensors)}
                )
            elif roll < 0.8:
                script.append(
                    {"at_s": at, "action": "clear", "sensor": rng.choice(sensors)}
                )
            else:
                script.append({"at_s": at, "action": "reset_local"})
        script.sort(key=lambda a: a["at_s"])
        outages = []
        for _ in range(rng.randrange(1, 3)):
            at = round(rng.uniform(0.0, 0.25), 3)
            outages.append({"at_s": at, "action": "link_down"})
            outages.append(
                {"at_s": at + rng.uniform(0.01, 0.05), "action": "link_up"}
            )

        def local_log(extra):
            data = {
                "seed": i,
                "horizon_s": 0.3,
                "traffic": {"catalog": []},
                "safety": {"watchdog_ms": 9.0},
                "factory": {"releases": {"count": 0}},
                "script": script + extra,
            }
            result = Simulation(scenario_from_dict(data)).run()
            return [
                (t.at, t.transition, t.cause)
                for t in result.safety_log
                if t.loop == "robot_local"
            ]

        assert local_log([]) == local_log(outages), (i, script)


def _steps_per_product(result):
    per_product: dict[str, list[str]] = {}
    for e in result.product_log:
        if e.event == "step_done":
            per_product.setdefault(e.product, []).append(e.detail.split("@")[0])
    return per_product


@criterion(6, "routing: fail diversion, liveness bound, recipe prefix order")
def test_criterion_6_routing_properties():
    recipe = default_scenario().factory.recipe

    # defect probability 1: every inspected product's next leg ends at the
    # manual workstation
    defect_run = Simulation(
        scenario_from_dict(
            {
                "seed": 6,
                "horizon_s": 120.0,
                "traffic": {"catalog": []},
                "factory": {
                    "defect_probability": 1.0,
                    "releases": {"count": 2, "interval_s": 60.0},
                },
            }
        )
    ).run()
    fails = [
        e for e in defect_run.product_log
        if e.event == "verdict" and e.detail == "fail"
    ]
    assert fails
    for fail in fails:
        next_leg = next(
            e for e in defect_run.product_log
            if e.product == fail.product
            and e.event == "leg_start"
            and e.at >= fail.at
        )
        assert next_leg.detail.endswith("->manual"), (fail, next_leg)

    # defect probability 0, no faults: completion within the analytic bound
    data = {
        "seed": 6,
        "horizon_s": 150.0,
        "traffic": {"catalog": []},
        "factory": {"releases": {"count": 3, "interval_s": 45.0}},
    }
    scenario = scenario_from_dict(data)
    clean_run = Simulation(scenario).run()
    f = scenario.factory
    bound_ns = round(
        len(f.recipe)
        * (
            max([f.service_s] + list(f.service_overrides.values()))
            + max(v for row in f.transit_s.values() for v in row.values())
        )
        * NS_PER_S
    )
    released = {e.product: e.at for e in clean_run.product_log if e.event == "released"}
    completed = {
        e.product: e.at for e in clean_run.product_log if e.event == "completed"
    }
    assert len(completed) == 3
    for product, at in completed.items():
        assert at - released[product] <= bound_ns, product

    # recipe prefix order on every product timeline of every run here
    for result in (defect_run, clean_run):
        for product, steps in _steps_per_product(result).items():
            assert steps == recipe[: len(steps)], (product, steps)


@criterion(7, "compliance verdicts for the default run")
def test_criterion_7_compliance(default_run):
    result, _ = default_run
    report = result.compliance
    rows_by_entry = {(e.stream, e.profile): e.rows for e in report.entries}
    safety_streams = [
        name
        for name, metrics in result.stream_metrics.items()
        if metrics.stream_class is StreamClass.SAFETY_RELEVANT
    ]
    assert safety_streams
    for stream in safety_streams:
        rows = rows_by_entry[(stream, "aspect1")]
        for row in rows:
            if row.dimension == "availability":
                assert row.verdict is ComplianceVerdict.NOT_ASSESSED, row
            else:
                assert row.verdict is ComplianceVerdict.PASS, (stream, row)
        sizes = result.stream_metrics[stream]
        assert 40 <= sizes.size_min and sizes.size_max <= 250
    aggregate_rows = rows_by_entry[("aggregate", "aspect2")]
    rate_row = next(r for r in aggregate_rows if r.dimension == "service_data_rate")
    assert rate_row.verdict is ComplianceVerdict.PASS
    avail_row = next(r for r in aggregate_rows if r.dimension == "availability")
    assert avail_row.verdict is ComplianceVerdict.NOT_ASSESSED


@criterion(8, "byte-identical artifacts for identical config and seed")
def test_criterion_8_determinism(tmp_path):
    def run_and_hash(out_name: str) -> dict[str, str]:
        scenario = default_scenario()
        scenario.horizon_s = 10.0
        result = Simulation(scenario).run()
        artifacts = write_artifacts(result, tmp_path / out_name)
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in artifacts.paths()
        }

    first = run_and_hash("a")
    second = run_and_hash("b")
    assert first == second
    assert len(first) == 6
