"""The reference runs `Simulation.run` is held to.

`engine_reference`: a whole scenario with every traffic emission, safety
cycle, retry, delivery and watchdog check queued on the engine, which is how
fablink ran them before they were resolved off the event queue; it is the
suite's one slow reference run.

`polling_simulation`: a simulation whose controller tick plans every waiting
product on every tick, which is how the plant ran before waiting products
were parked until woken. It finds them in its own record of every released
product, not in the plant's due map.

`reference_plan_route`: routing as it was written before it stopped
allocating per island: a candidate list and its `min`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from fablink.factory import (
    MANUAL_STATION,
    NoRouteAvailable,
    Product,
    ProductState,
    RoutePlan,
)
from fablink.radio_link import next_tx_opportunity
from fablink.scenario import scenario_from_dict
from fablink.sim_core import LANE_NORMAL, LANE_SAFETY, NS_PER_US
from fablink.simulation import PlantRuntime, Simulation
from fablink.traffic import emission_times
from record_rows import PacketRecord


class EngineStream:
    """One traffic stream as engine events: each emission is a `traffic`
    event that sends its packet inline and queues the next emission."""

    def __init__(self, sim: Simulation, profile, records: list, link_up: list):
        self.sim = sim
        self.profile = profile
        self.records = records
        self.link_up = link_up
        self.rng = sim.engine.stream(f"traffic.{profile.name}")
        self.seq = 0
        self.times = emission_times(profile.rate_hz, sim.horizon_ns, profile.pattern,
                                    round(profile.phase_us * NS_PER_US), self.rng)

    def schedule_next(self) -> None:
        t = next(self.times, None)
        if t is not None:
            self.sim.engine.schedule_at(t, self.emit, module="traffic")

    def emit(self) -> None:
        sim, p = self.sim, self.profile
        now = sim.engine.now
        record = PacketRecord(p.name, self.seq, now, p.payload_bytes)
        self.seq += 1
        self.records.append(record)
        if not p.wireless:
            record.sent_at, record.delivered_at = now, now + sim.wired_latency_ns
        else:
            link = sim.link
            radio = sim.scenario.radio
            record.sent_at = next_tx_opportunity(now, radio.tti_us * NS_PER_US)
            lost = not self.link_up[0] or (
                link.bler > 0.0 and self.rng.random() < link.bler)
            if not lost:
                record.delivered_at = (
                    record.sent_at + link.model.air_time_ns(p.payload_bytes)
                    + round(radio.processing_delay_us * NS_PER_US))
                if link.jitter_ns > 0:
                    jitter = sim.engine.stream(f"jitter.{p.name}")
                    record.delivered_at += round(jitter.uniform(0, link.jitter_ns))
        self.schedule_next()


class EngineChannel:
    """The safety channel as engine events: each cycle is a `safety` event
    that makes both first attempts and queues the next cycle, each lost
    attempt queues its retry at the next TTI boundary, each delivery is an
    event that resets the watchdog timer and the miss counter, and the
    watchdog is a safety-lane check re-armed from the last delivery. `checks`
    holds the instants of its checks."""

    def __init__(self, engine, link, streams, watchdog_ns, rng, records, on_trip):
        self.engine = engine
        self.link = link
        self.cycle_hz = streams[0].rate_hz
        self.watchdog_ns = watchdog_ns
        self.records = records
        self.on_trip = on_trip
        self.consecutive_missed = 0
        self.last_delivery = 0
        self.supervising = True
        self.checks = []
        self._horizon = 0
        self._cycle = 0
        self._directions = [
            (p.name, p.payload_bytes, link.sender(p.name, p.payload_bytes, rng))
            for p in streams
        ]
        self._cycles = iter(())

    def start(self, horizon: int) -> None:
        self._horizon = horizon
        self.last_delivery = self.engine.now
        self._cycles = emission_times(self.cycle_hz, horizon)
        first = next(self._cycles, None)
        if first is not None:
            self.engine.schedule_at(first, self._run_cycle, module="safety")
        self._arm_watchdog()

    def _run_cycle(self) -> None:
        nxt = next(self._cycles, None)
        cycle_end = math.inf if nxt is None else nxt
        lost = []
        for stream, size, send in self._directions:
            record = PacketRecord(stream, self._cycle, self.engine.now, size)
            self.records.append(record)
            lost.append(self._attempt(record, send, cycle_end))
        self._cycle += 1
        if all(lost):
            self.consecutive_missed += 1
        if nxt is not None:
            self.engine.schedule_at(nxt, self._run_cycle, module="safety")

    def _attempt(self, record, send, cycle_end) -> bool:
        sent_at, delivered = send(self.engine.now)
        record.sent_at = sent_at
        if delivered is not None:
            record.delivered_at = delivered
            self.engine.schedule_at(
                delivered, self._on_delivered, module="safety", lane=LANE_NORMAL)
            return False
        retry_at = sent_at + self.link.tti_ns
        if retry_at < cycle_end and retry_at <= self._horizon:
            self.engine.schedule_at(
                retry_at, lambda: self._attempt(record, send, cycle_end),
                module="safety")
        return True

    def _on_delivered(self) -> None:
        self.last_delivery = self.engine.now
        self.consecutive_missed = 0

    def _arm_watchdog(self) -> None:
        check_at = self.last_delivery + self.watchdog_ns
        if check_at <= self._horizon:
            self.engine.schedule_at(
                check_at, self._check_watchdog, module="safety", lane=LANE_SAFETY)

    def _check_watchdog(self) -> None:
        if not self.supervising:
            return
        self.checks.append(self.engine.now)
        if self.engine.now - self.last_delivery >= self.watchdog_ns:
            self.supervising = False
            self.on_trip(self.engine.now, self.consecutive_missed)
            return
        self._arm_watchdog()

    def rearm(self, now: int) -> None:
        self.last_delivery = now
        self.consecutive_missed = 0
        if not self.supervising:
            self.supervising = True
            self._arm_watchdog()


class ReferenceRun(NamedTuple):
    """What `engine_reference` returns of a run."""

    records: list[PacketRecord]  # in the order the engine created them
    events: dict[str, int]
    safety_log: list
    product_log: list
    checks: list[int]  # the watchdog's check instants; none without the channel


def engine_reference(data: dict) -> ReferenceRun:
    """A run whose traffic streams and safety channel are engine events,
    started in the order fablink starts its sources: plant, safety channel,
    streams in catalog order, script. A scripted link action flips the
    streams' up switch when its event fires, and a `reset` rearms the
    channel's watchdog after it has run."""
    sim = Simulation(scenario_from_dict(data))
    records: list[PacketRecord] = []
    link_up = [True]
    run_action = sim._run_action
    channel = None

    def run_action_and_switch(action) -> None:
        if action.action in ("link_down", "link_up"):
            link_up[0] = action.action == "link_up"
        run_action(action)
        if action.action == "reset" and channel:
            channel.rearm(sim.engine.now)

    sim._run_action = run_action_and_switch
    if sim.plant:
        sim.plant.start()
    if sim.channel:
        channel = EngineChannel(sim.engine, sim.link, sim.channel,
                                sim.scenario.safety.watchdog_ns,
                                sim.engine.stream("link.safety"), records,
                                sim.safety_mgr.watchdog_trip)
        channel.start(sim.horizon_ns)
    for profile in sim.streams[len(sim.channel or ()):]:  # the channel's pair leads
        EngineStream(sim, profile, records, link_up).schedule_next()
    sim._schedule_script()
    summary = sim.engine.run_until(sim.horizon_ns)
    return ReferenceRun(records, summary.events_processed, sim.safety_mgr.log,
                        sim.product_log, channel.checks if channel else [])


class PollingPlant(PlantRuntime):
    """The plant runtime with a tick that marks every waiting product due
    before its pass, so the pass plans each one, as if all were woken.
    `released` holds every product it has released, by release rank, as
    its first `_advance` (its release's) sees it."""

    released: dict[int, Product]

    def _advance(self, product: Product) -> None:
        self.released.setdefault(product.rank, product)
        super()._advance(product)

    def _tick(self) -> None:
        for product in self.released.values():
            if product.state is ProductState.WAITING:
                self._due[product.rank] = product
        super()._tick()


def polling_simulation(data: dict) -> Simulation:
    """A simulation of `data` whose plant polls: its `PlantRuntime` becomes a
    `PollingPlant`, with no product released yet, before the run starts it."""
    sim = Simulation(scenario_from_dict(data))
    if sim.plant:
        sim.plant.__class__ = PollingPlant
        sim.plant.released = {}
    return sim


def reference_plan_route(product, islands, transit_s, current_island,
                         manual_available=True) -> RoutePlan:
    """`factory.plan_route` with every candidate island in a list."""
    nxt = product.next_step()
    if nxt is None and not product.needs_rework:
        raise ValueError(f"product {product.id} has no uncompleted step")

    to_manual = RoutePlan(
        MANUAL_STATION, MANUAL_STATION, current_island != MANUAL_STATION
    )
    if product.needs_rework:
        if not manual_available:
            raise NoRouteAvailable(
                f"product {product.id} needs rework but no manual station exists"
            )
        return to_manual

    assert nxt is not None
    _, step = nxt
    candidates: list[tuple[float, str, str]] = []
    for island in islands:
        module = next(
            (m for m in island.modules.values() if m.capability == step and m.free), None
        )
        if module is None:
            continue
        if island.id == current_island:
            cost = 0.0
        else:
            cost = transit_s[current_island][island.id]
        candidates.append((cost, island.id, module.id))

    if candidates:
        cost, island_id, module_id = min(candidates)
        return RoutePlan(module_id, island_id, island_id != current_island)

    # No idle capable module anywhere: divert to the manual workstation,
    # which can substitute for any module.
    if manual_available:
        return to_manual
    raise NoRouteAvailable(
        f"no module can perform {step!r} and no manual station is configured"
    )
