"""Run orchestration: wires the production-flow runtime (islands, robot,
handshake controller, manual workstation), the safety loops and the scenario
script onto one deterministic event loop, computes each traffic stream and
the safety PDU channel off that loop, queues the channel's watchdog trips on
it, and folds each stream's records into metrics and a compliance report;
only `packets.csv` puts the records in engine order.

The plant runtime holds no record of its own for a product or the robot: it
moves `factory.Product` (place, `ProductState`, robot destination) and
`factory.Robot` (pose). A robot job is a product with a destination.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import compliance as compliance_mod
from . import factory as factory_mod
from . import safety as safety_mod
from .compliance import ComplianceReport, StreamMetrics
from .factory import (
    AtDock,
    AtManualStation,
    DockRefused,
    Hovering,
    InTransit,
    Island,
    MANUAL_STATION,
    Product,
    ProductState,
    QualityFlag,
    Robot,
    StationModule,
    Verdict,
    dock,
    inspect_in_transit,
    plan_route,
    readiness,
)
from .radio_link import LinkRuntime
from .safety import (
    LocalSafetyState,
    LoopState,
    SafetyLoop,
    SafetyManager,
    resolve_channel,
    watchdog_trips,
)
from .scenario import Scenario
from .sim_core import (
    LANE_SAFETY,
    NS_PER_MS,
    NS_PER_S,
    NS_PER_US,
    Engine,
    PausableTimer,
    SimSummary,
    SimTime,
)
from .traffic import Records, StreamRecords, TrafficProfile, stream_records


@dataclass
class ProductEvent:
    product: str
    event: str
    at: SimTime
    detail: str = ""


@dataclass
class RunResult:
    scenario: Scenario
    summary: SimSummary
    records: Records
    safety_log: list[safety_mod.LoopTransition]
    product_log: list[ProductEvent]
    stream_metrics: dict[str, StreamMetrics]
    aggregate: StreamMetrics
    compliance: ComplianceReport
    factory_stats: dict


# -- plant runtime -------------------------------------------------------------


_ROBOT = None  # the robot's timer gate; every other gate is an island id


class PlantRuntime:
    """Event-driven production flow around a periodic controller tick.

    Each tick the controller re-takes the readiness snapshot (the modules
    free at the tick), routes its due products in release order through
    grants that read it, and dispatches the transport robot, which loads a
    product only where its pose is docked with nothing aboard. A product is
    due from each `_advance` until one parks it on the one thing it waits
    for, and again once that wakes it: its island's reset (`sync`), a module
    of the (island, capability) its queued robot job waits on freeing up
    (`_convey`, `clear_module`), or, when rework is due, its unload. A
    product woken during a pass is due at the next tick; a product at the
    manual station is never parked. Work in progress is held in pausable
    timers, each on one gate (an island, or the robot), so safe stops and
    local safety events suspend it without losing progress.
    """

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.engine = sim.engine
        self.cfg = sim.scenario.factory
        self.tick_ns = round(self.cfg.tick_ms * NS_PER_MS)
        self.free: set[str] = set()  # ids of the modules free at the last tick
        self.islands: dict[str, Island] = {}
        self.modules: dict[str, StationModule] = {}
        loops = []
        for spec in self.cfg.islands:
            loop_id = f"{spec.id}.loop"
            modules = {cap: StationModule(f"{spec.id}.{cap}", spec.id, cap)
                       for cap in spec.capabilities}
            self.islands[spec.id] = Island(spec.id, modules, loop_id)
            by_id = {m.id: m for m in modules.values()}
            self.modules |= by_id
            loops.append(SafetyLoop(loop_id, set(by_id) | {"safety_plc"}))
        self.loops = loops
        self.island_list = list(self.islands.values())  # routing and readiness read it
        self.robot = Robot(home_island=self.cfg.robot_home)
        self.manual_queue: deque[Product] = deque()
        self.manual_busy = False
        self._due: dict[int, Product] = {}  # what the next tick plans, by release rank
        self.jobs: deque[Product] = deque()  # robot jobs: products with a destination
        # parked products per wake key: an island id, or (island id, capability)
        self._parked: dict[str | tuple[str, str], list[Product]] = {}
        # running and paused timers per gate, in start order; the robot's
        # gate comes last, so a change resumes island work before motion
        self._timers: dict[str | None, dict[PausableTimer, None]] = {
            i: {} for i in self.islands
        } | {_ROBOT: {}}
        self.stats = {
            "released": 0,
            "completed": 0,
            "manual_visits": 0,
            "inspections": 0,
            "inspection_failures": 0,
            "inspection_timeouts": 0,
        }
        self.rng_inspect = self.engine.stream("inspection")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        dock(self.robot, self.islands[self.robot.home_island], self.sim.safety_mgr)
        rel = self.cfg.releases
        for k in range(rel.count):
            at = round((rel.start_s + k * rel.interval_s) * NS_PER_S)
            if at > self.sim.horizon_ns:
                break
            self.engine.schedule_at(
                at, lambda k=k: self._release(f"product{k + 1}", rel.island),
                module="factory",
            )
        self.free = readiness(self.island_list)
        self.engine.schedule_at(self.tick_ns, self._tick, module="factory")

    def _release(self, product_id: str, island: str) -> None:
        product = Product(id=product_id, order_config=list(self.cfg.recipe),
                          island=island, location=f"{island}:staging",
                          rank=self.stats["released"])
        self.stats["released"] += 1
        self._log(product, "released", island)
        self._advance(product)

    def _log(self, product: Product, event: str, detail: str = "") -> None:
        self.sim.product_log.append(
            ProductEvent(product.id, event, self.engine.now, detail)
        )

    # -- controller tick -----------------------------------------------------

    def _tick(self) -> None:
        self.free = readiness(self.island_list)
        due, self._due = self._due, {}
        for _, product in sorted(due.items()):
            # it may have moved on since it was marked, or its wake be stale
            if product.state is ProductState.WAITING:
                self._advance(product)
        self._dispatch_robot()
        self._serve_manual()
        nxt = self.engine.now + self.tick_ns
        if nxt <= self.sim.horizon_ns:
            self.engine.schedule_at(nxt, self._tick, module="factory")

    # -- product advancement ---------------------------------------------------

    def _advance(self, product: Product) -> None:
        """Plan a waiting product's next move, or park it until it can have one."""
        self._due[product.rank] = product
        nxt = product.next_step()
        step = None if nxt is None else nxt[1]
        rework = product.needs_rework
        if step is None and not rework:
            product.state = ProductState.DONE
            self.stats["completed"] += 1
            self._log(product, "completed", product.island)
            return
        island = self.islands.get(product.island)
        if island is not None:
            loop = self.sim.safety_mgr.loops[island.safety_loop_id]
            if loop.state is LoopState.SAFE_STOP:
                self._park(product, island.id)  # island halted; wait for reset
                return
            # Its robot job is queued and any plan would need the robot again
            # (a rework is due, or no module on its island is free for the
            # next step): park it. Without a manual station a failed plan
            # logs `no_route`, so it still plans every tick.
            if product.destination is not None and self.cfg.manual_station:
                if rework:
                    del self._due[product.rank]  # until its unload advances it
                    return
                module = island.modules.get(step)
                if module is None or not module.free:
                    self._park(product, (island.id, step))
                    return
        try:
            plan = plan_route(
                product,
                step,
                rework,
                self.island_list,
                self.cfg.transit_s,
                product.island,
                manual_available=self.cfg.manual_station,
            )
        except factory_mod.NoRouteAvailable:
            if not product.unroutable:
                product.unroutable = True
                self._log(product, "no_route", "")
            return
        product.unroutable = False
        if plan.needs_robot:
            if product.destination is None:
                product.destination = plan.target_island
                self.jobs.append(product)
            return
        if plan.target == MANUAL_STATION:
            # already at the station and nothing else can take the next
            # step: the operator substitutes for the missing module
            product.state = ProductState.BUSY
            self.manual_queue.append(product)
            self._serve_manual()
            return
        if plan.target not in self.free:
            return  # retry next tick
        module = self.modules[plan.target]
        assert module.carrier is None, "single-occupancy violated"
        module.carrier = product.id
        self._convey(
            product, module.id, module.island_id,
            lambda: self._begin_service(product, module),
        )

    def _convey(self, product: Product, target: str, island_id: str, arrived) -> None:
        """Move `product` on `island_id`'s conveyor from its location to
        `target` (a module or the dock), then run `arrived`."""
        origin = self.modules.get(product.location)
        if origin is not None:
            origin.carrier = None
            if origin.free:
                self._wake((origin.island_id, origin.capability))
        product.state = ProductState.BUSY
        self._log(product, "transfer_start", f"{product.location}->{target}")

        def done() -> None:
            product.location = target
            arrived()

        self._timer(island_id, round(self.cfg.conveyor_s * NS_PER_S), done)

    def _park(self, product: Product, key: str | tuple[str, str]) -> None:
        """Skip `product` in the tick until `key` wakes it or an `_advance`."""
        del self._due[product.rank]
        self._parked.setdefault(key, []).append(product)

    def _wake(self, key: str | tuple[str, str] | None) -> None:
        for product in self._parked.pop(key, ()):
            self._due[product.rank] = product

    def clear_module(self, module_id: str) -> None:
        """A scripted `module_clear`: the module is no longer faulted."""
        module = self.modules[module_id]
        module.faulted = False
        if module.free:
            self._wake((module.island_id, module.capability))

    def _begin_service(self, product: Product, module: StationModule) -> None:
        nxt = product.next_step()
        assert nxt is not None
        step_index, step = nxt

        def done() -> None:
            product.memory.record_completion(
                step_index, step, module.id, self.engine.now
            )
            product.state = ProductState.WAITING
            self._log(product, "step_done", f"{step}@{module.id}")
            self._advance(product)

        self._timer(
            module.island_id,
            round(self.cfg.service_time_s(module.capability) * NS_PER_S),
            done,
        )

    # -- manual workstation ------------------------------------------------------
    # The workstation belongs to no safety loop, so its work is never paused.

    def _serve_manual(self) -> None:
        if self.manual_busy or not self.manual_queue:
            return
        # a product queues here only with a rework or a step due
        product = self.manual_queue.popleft()
        self.manual_busy = True
        if product.needs_rework:
            flag = product.memory.latest_flag()
            delay_s = self.cfg.manual_rework_s

            def work() -> None:
                product.memory.record_quality(
                    QualityFlag(
                        flag.step_index, flag.step, Verdict.PASS, self.engine.now
                    )
                )
                self._log(product, "rework_done", flag.step or "")
        else:
            step_index, step = product.next_step()
            delay_s = self.cfg.manual_service_s

            def work() -> None:
                product.memory.record_completion(
                    step_index, step, MANUAL_STATION, self.engine.now
                )
                self._log(product, "step_done", f"{step}@{MANUAL_STATION}")

        def operator_done() -> None:
            work()
            self.manual_busy = False
            product.state = ProductState.WAITING
            self._advance(product)

        self.engine.schedule_after(round(delay_s * NS_PER_S), operator_done, "factory")

    # -- robot -------------------------------------------------------------------

    def _dispatch_robot(self) -> None:
        # the robot is busy while it holds a timer, running or paused
        if self._timers[_ROBOT] or self._stopped(_ROBOT):
            return
        # a product completed since its job was queued (at the manual
        # station) no longer waits for the robot
        while self.jobs and self.jobs[0].state is ProductState.DONE:
            self.jobs.popleft()
        if not self.jobs:
            # Reposition to the home dock only once the line has drained, so
            # the robot stays with an in-progress product's island otherwise.
            if 0 < self.stats["completed"] == self.stats["released"]:
                home = self.robot.home_island
                if self.robot.pose == Hovering(home):
                    self._try_dock(home)
                elif self.robot.pose != AtDock(home):
                    self._goto(home)
            return
        product = self.jobs[0]
        if product.location == "robot":
            # docking at the destination was refused earlier
            if self.robot.pose == Hovering(product.destination):
                self._try_dock(product.destination, then=lambda: self._unload(product))
            return
        src, pose = product.island, self.robot.pose
        if pose == Hovering(src):
            self._try_dock(src)
        elif pose != (AtManualStation() if src == MANUAL_STATION else AtDock(src)):
            self._goto(src)
        elif product.state is ProductState.BUSY:
            pass  # on a conveyor or with the operator: loaded once it waits
        elif src == MANUAL_STATION:
            self._load(product)
        else:
            # the robot waits on no timer while the product rides to the dock;
            # dispatch then finds the product busy and leaves it alone
            dock_id = self.islands[src].dock_id
            self._convey(product, dock_id, src, lambda: self._load(product))

    def _leg(self, dest: str, start) -> None:
        """Drive the robot from where it is to `dest`, undocking first when
        docked. At departure `start(origin, duration)` returns the action to
        run on arrival, after the robot is at the manual station or hovers
        at the island `dest`."""
        origin = self.robot.pose.island_id  # a leg never starts in transit

        def depart() -> None:
            self.robot.pose = InTransit(origin, dest)
            duration = round(self.cfg.transit_s[origin][dest] * NS_PER_S)
            arrived = start(origin, duration)

            def arrive() -> None:
                self.robot.pose = (
                    AtManualStation() if dest == MANUAL_STATION else Hovering(dest)
                )
                arrived()

            self._timer(_ROBOT, duration, arrive)

        if isinstance(self.robot.pose, AtDock):
            def undock_and_depart() -> None:
                self.sim.safety_mgr.leave()
                depart()

            self._timer(_ROBOT, round(self.cfg.dock_s * NS_PER_S), undock_and_depart)
        else:
            depart()

    def _goto(self, dest: str) -> None:
        """An empty leg: dock at an island, or stand idle at the manual station."""

        def arrived() -> None:
            if dest != MANUAL_STATION:
                self._try_dock(dest)

        self._leg(dest, lambda origin, duration: arrived)

    def _carry(self, product: Product) -> None:
        """A leg with the product aboard to its destination. A leg to an
        island inspects the product at departure; a Fail verdict known on
        arrival diverts it to the manual station instead of unloading."""
        dest = product.destination

        def start(origin: str, duration: SimTime):
            self._log(product, "leg_start", f"{origin}->{dest}")
            timed_out_verdict = None
            if dest != MANUAL_STATION:
                timed_out_verdict = self._inspect(product, duration)

            def arrived() -> None:
                if timed_out_verdict is not None:
                    timed_out_verdict()
                self._log(product, "leg_end", dest)
                if dest == MANUAL_STATION:
                    self._unload(product)
                elif product.needs_rework:
                    product.destination = MANUAL_STATION
                    self._carry(product)
                else:
                    self._try_dock(dest, then=lambda: self._unload(product))

            return arrived

        self._leg(dest, start)

    def _inspect(self, product: Product, duration: SimTime):
        """Photograph the carried product at departure and schedule its
        verdict after the cloud round trip. A round trip longer than the leg
        passes by default: the returned action records that verdict on
        arrival (None otherwise)."""
        outcome = inspect_in_transit(
            self.robot,
            product,
            self.sim.link,
            self.rng_inspect,
            self.engine.now,
            duration,
            self.cfg.image_bytes,
            round(self.cfg.inference_ms * NS_PER_MS),
            self.cfg.defect_probability,
        )
        self.stats["inspections"] += 1
        if outcome.timed_out:
            self.stats["inspection_timeouts"] += 1
        elif outcome.verdict is Verdict.FAIL:
            self.stats["inspection_failures"] += 1
        nxt = product.next_step()
        index = (nxt[0] - 1) if nxt else len(product.order_config) - 1

        def record() -> None:
            product.memory.record_quality(
                QualityFlag(
                    index if index >= 0 else None,
                    product.order_config[index] if index >= 0 else None,
                    outcome.verdict,
                    self.engine.now,
                    timed_out=outcome.timed_out,
                )
            )
            detail = "pass(timeout)" if outcome.timed_out else outcome.verdict.value
            self._log(product, "verdict", detail)

        if outcome.timed_out:
            return record
        self.engine.schedule_after(outcome.cloud_rtt_ns, record, module="factory")
        return None

    def _try_dock(self, island_id: str, then=None) -> None:
        def attempt() -> None:
            try:
                dock(self.robot, self.islands[island_id], self.sim.safety_mgr)
            except DockRefused:
                return  # retry on a later tick
            if then is not None:
                then()

        self._timer(_ROBOT, round(self.cfg.dock_s * NS_PER_S), attempt)

    def _load(self, product: Product) -> None:
        product.state = ProductState.BUSY

        def loaded() -> None:
            product.location = "robot"
            self._carry(product)

        self._timer(_ROBOT, round(self.cfg.load_s * NS_PER_S), loaded)

    def _unload(self, product: Product) -> None:
        def unloaded() -> None:
            dest = product.destination
            product.island = dest
            product.destination = None
            self.jobs.popleft()
            if dest == MANUAL_STATION:
                product.location = MANUAL_STATION
                self.manual_queue.append(product)
                self.stats["manual_visits"] += 1
                self._log(product, "manual_arrival", "")
                self._serve_manual()
            else:
                product.location = self.islands[dest].dock_id
                product.state = ProductState.WAITING
                self._advance(product)

        self._timer(_ROBOT, round(self.cfg.load_s * NS_PER_S), unloaded)

    # -- timers and safety coupling ------------------------------------------------

    def _stopped(self, gate: str | None) -> bool:
        """An island is stopped while its loop is in safe stop; the robot
        while its local guard is not clear or the island it is docked at is
        stopped. The manual workstation belongs to no gate."""
        if gate is _ROBOT:
            pose = self.robot.pose
            return self.sim.safety_mgr.local is not LocalSafetyState.CLEAR or (
                isinstance(pose, AtDock) and self._stopped(pose.island_id)
            )
        loop_id = self.islands[gate].safety_loop_id
        return self.sim.safety_mgr.loops[loop_id].state is LoopState.SAFE_STOP

    def _timer(self, gate: str | None, delay: SimTime, action) -> None:
        """Start a factory timer on `gate` (an island id, or `_ROBOT`), held
        there until it fires and started paused while the gate is stopped."""
        timers = self._timers[gate]

        def fire() -> None:
            del timers[timer]
            action()

        timer = PausableTimer(self.engine, delay, fire, module="factory")
        timers[timer] = None
        if self._stopped(gate):
            timer.pause()

    def sync(self) -> None:
        """Pause every timer whose gate is stopped, resume the rest and wake
        the products parked on a running island; the safety manager's change
        callback."""
        for gate, timers in self._timers.items():
            if self._stopped(gate):
                for timer in timers:
                    timer.pause()
            else:
                for timer in timers:
                    timer.resume()
                self._wake(gate)


# -- simulation assembly ---------------------------------------------------------


class Simulation:
    """Builds every runtime from a scenario and runs it to the horizon."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.engine = Engine(seed=scenario.seed)
        self.horizon_ns = scenario.horizon_ns
        self.link_model = scenario.radio.link_model()
        self.wired_latency_ns = round(scenario.radio.wired_latency_us * NS_PER_US)
        timeline = [(round(a.at_s * NS_PER_S), a.action == "link_up")
                    for a in scenario.script if a.action in ("link_down", "link_up")]
        self.link = LinkRuntime(self.link_model, self.engine.stream, timeline)
        self.product_log: list[ProductEvent] = []
        # the run's streams: the safety channel's pair, when it runs, leads
        # the catalog's other rows in catalog order, the merge's source order
        self.streams = scenario.traffic.profiles()

        self.plant: PlantRuntime | None = None
        if scenario.factory.enabled:
            self.plant = plant = PlantRuntime(self)
            self.safety_mgr = SafetyManager(
                loops=plant.loops, on_change=plant.sync
            )
        else:
            self.safety_mgr = SafetyManager(loops=[])

        # the safety channel's up and down rows, when it runs
        self.channel: tuple[TrafficProfile, TrafficProfile] | None = None
        if scenario.safety.enabled:
            # the channel runs the catalog's PNIO rows when both exist
            self.channel = pair = scenario.safety.channel_streams(self.streams)
            names = {p.name for p in pair}
            self.streams = [*pair, *(p for p in self.streams if p.name not in names)]

    # -- scenario script -----------------------------------------------------------

    def _schedule_script(self) -> None:
        for action in self.scenario.script:
            at = round(action.at_s * NS_PER_S)
            self.engine.schedule_at(
                at,
                lambda a=action: self._run_action(a),
                module="script",
                lane=LANE_SAFETY,
            )

    def _run_action(self, action) -> None:
        now = self.engine.now
        if action.action == "estop":
            self.safety_mgr.estop(action.endpoint, now)
        elif action.action == "reset":
            if action.loop is not None:
                self.safety_mgr.reset(action.loop, now)
        # the scenario admits the robot-local and module actions only with
        # the factory, and a module or loop only of its islands
        elif action.action in ("obstacle", "clear"):
            self.safety_mgr.sense(action.sensor, action.action == "obstacle", now)
        elif action.action == "reset_local":
            self.safety_mgr.reset_local(now)
        # link_down / link_up already act through the link's timeline
        elif action.action == "module_fault":
            self.plant.modules[action.endpoint].faulted = True
        elif action.action == "module_clear":
            self.plant.clear_module(action.endpoint)

    # -- run --------------------------------------------------------------------------

    def run(self) -> RunResult:
        """Compute each traffic stream's records, the safety channel's and its
        watchdog's trips, run the engine to the horizon with one safety-lane
        event per trip, then fold each stream's records; only `packets.csv`
        puts them in engine order."""
        traffic = [
            stream_records(p, self.engine.stream(f"traffic.{p.name}"),
                           self.link, self.horizon_ns, self.wired_latency_ns)
            for p in self.streams[2 if self.channel else 0:]
        ]
        if self.plant:
            self.plant.start()
        channel, trips, checks = [], [], 0
        watchdog_ns = self.scenario.safety.watchdog_ns
        if self.channel:
            up, down, delivered, missed, events = resolve_channel(
                self.link, self.channel, self.engine.stream("link.safety"),
                self.horizon_ns)
            channel = [up, down]
            resets = sorted(round(a.at_s * NS_PER_S)
                            for a in self.scenario.script if a.action == "reset")
            trips, checks = watchdog_trips(delivered, missed, resets, watchdog_ns,
                                           self.horizon_ns)
            del delivered  # the trips are all the run reads of it
        # a trip at the first check's instant comes before the script's
        # actions there, every other trip after them
        first = 1 if trips and trips[0][0] == watchdog_ns else 0
        self._queue_trips(trips[:first])
        self._schedule_script()
        self._queue_trips(trips[first:])
        summary = self.engine.run_until(self.horizon_ns)
        # as if each emission, cycle, retry, delivery and check had been
        # queued; a check that trips is its trip's event
        counts = summary.events_processed
        if self.channel:
            counts["safety"] = counts.get("safety", 0) + events + checks - len(trips)
        emissions = sum(len(records.created) for records in traffic)
        if emissions:
            counts["traffic"] = emissions
        return self._collect(summary, channel + traffic)

    def _queue_trips(self, trips: list[tuple[SimTime, int]]) -> None:
        """One safety-lane event per trip, whose action is named for the
        handler it calls, so an error names it."""
        for at, missed in trips:
            def watchdog_trip(missed: int = missed) -> None:
                self.safety_mgr.watchdog_trip(self.engine.now, missed)

            self.engine.schedule_at(at, watchdog_trip, module="safety", lane=LANE_SAFETY)

    def _collect(self, summary: SimSummary, sources: list[StreamRecords]) -> RunResult:
        """Fold the run; `sources` holds each stream's records, in the order
        of `self.streams`."""
        comp = self.scenario.compliance
        scored = [compliance_mod.collect_stream_metrics(p, recs, self.horizon_ns)
                  for p, recs in zip(self.streams, sources)]
        aggregate = compliance_mod.aggregate_metrics([f for _, f in scored],
                                                     self.horizon_ns)
        stream_metrics = {m.stream: m for m, _ in scored}
        report = ComplianceReport(service_area_m=comp.service_area_m)
        for profile in compliance_mod.PROFILES.values():
            report.score(stream_metrics, aggregate, profile, profile.streams,
                         comp.availability_sample_floor)

        factory_stats = dict(self.plant.stats) if self.plant else {}
        factory_stats["safety_trips"] = sum(
            1
            for t in self.safety_mgr.log
            if t.transition in ("safe_stop", "watchdog_trip")
        )
        return RunResult(
            scenario=self.scenario,
            summary=summary,
            records=Records(self.streams, sources),
            safety_log=self.safety_mgr.log,
            product_log=self.product_log,
            stream_metrics=stream_metrics,
            aggregate=aggregate,
            compliance=report,
            factory_stats=factory_stats,
        )
