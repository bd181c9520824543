from __future__ import annotations

import random
from collections import Counter

import pytest

from fablink.factory import (
    AtDock,
    AtManualStation,
    DockRefused,
    Hovering,
    InTransit,
    Island,
    MANUAL_STATION,
    ModuleState,
    NoRouteAvailable,
    PrefixOrderViolation,
    Product,
    ProductMemory,
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
from fablink.radio_link import LinkRuntime, RadioSection
from fablink.safety import LoopState, SafetyLoop, SafetyManager
from fablink.scenario import scenario_from_dict
from fablink.sim_core import Engine, RngStream
from fablink.simulation import Simulation
from reference import reference_plan_route, reference_readiness
from test_golden import CASES

RECIPE = ["engrave", "insert_spring", "mount_cover", "weigh", "optical_inspect"]

TRANSIT = {
    "island1": {"island2": 6.0, "island3": 9.0, MANUAL_STATION: 8.0},
    "island2": {"island1": 6.0, "island3": 6.0, MANUAL_STATION: 8.0},
    "island3": {"island1": 9.0, "island2": 6.0, MANUAL_STATION: 8.0},
    MANUAL_STATION: {"island1": 8.0, "island2": 8.0, "island3": 8.0},
}


def make_islands() -> list[Island]:
    islands = []
    layout = {
        "island1": ["engrave", "insert_spring"],
        "island2": ["mount_cover", "weigh"],
        "island3": ["optical_inspect"],
    }
    for island_id, caps in layout.items():
        modules = [
            StationModule(f"{island_id}.{c}", island_id, c) for c in caps
        ]
        islands.append(Island(island_id, modules, f"{island_id}.loop"))
    return islands


def make_product(completed: int = 0) -> Product:
    product = Product(id="p1", order_config=list(RECIPE))
    for i in range(completed):
        product.memory.record_completion(i, RECIPE[i], f"m{i}", at=i)
    return product


# -- product memory -------------------------------------------------------------


def test_completions_must_follow_recipe_order():
    memory = ProductMemory()
    memory.record_completion(0, "engrave", "m1", 10)
    memory.record_completion(1, "insert_spring", "m2", 20)
    with pytest.raises(PrefixOrderViolation):
        memory.record_completion(3, "weigh", "m4", 30)
    with pytest.raises(PrefixOrderViolation):
        memory.record_completion(1, "insert_spring", "m2", 40)  # repeat


def test_next_step_walks_the_recipe():
    product = make_product(completed=2)
    assert product.next_step() == (2, "mount_cover")
    product = make_product(completed=5)
    assert product.next_step() is None


def test_fail_flag_sets_rework():
    product = make_product(completed=2)
    assert not product.needs_rework
    product.memory.record_quality(QualityFlag(1, "insert_spring", Verdict.FAIL, 5))
    assert product.needs_rework
    product.memory.record_quality(QualityFlag(1, "insert_spring", Verdict.PASS, 9))
    assert not product.needs_rework


# -- handshake ---------------------------------------------------------------------
# Grants read the readiness snapshot: a module must be free, a dock must have
# the robot docked there with an empty tray.


def snapshot(islands, robot=None) -> dict[str, bool]:
    return readiness(islands, robot or Robot())


def test_handshake_grants_idle_capable_module():
    assert snapshot(make_islands())["island1.engrave"] is True


def test_handshake_denies_busy_module():
    islands = make_islands()
    islands[0].modules[0].state = ModuleState.BUSY
    assert snapshot(islands)["island1.engrave"] is False
    islands[0].modules[0].state = ModuleState.FAULT
    assert snapshot(islands)["island1.engrave"] is False


def test_handshake_denies_occupied_module():
    islands = make_islands()
    islands[0].modules[0].carrier = "p9"
    assert snapshot(islands)["island1.engrave"] is False


def test_handshake_dock_needs_docked_robot_with_free_tray():
    islands = make_islands()
    robot = Robot()
    assert snapshot(islands, robot)["island1.dock"] is False  # no robot docked
    robot.pose = Hovering("island1")
    assert snapshot(islands, robot)["island1.dock"] is False  # arrived, not docked
    robot.pose = AtDock("island1")
    ready = snapshot(islands, robot)
    assert ready["island1.dock"] is True and ready["island2.dock"] is False
    robot.carrier = make_product()
    assert snapshot(islands, robot)["island1.dock"] is False


def random_islands(rng: random.Random, caps: list[str]) -> list[Island]:
    """1-4 islands, listed out of id order, each with a random subset of `caps`
    and each module idle, busy or faulted, with or without a carrier."""
    ids = [f"island{k}" for k in range(1, rng.randint(1, 4) + 1)]
    rng.shuffle(ids)
    return [
        Island(island_id, [
            StationModule(f"{island_id}.{cap}", island_id, cap,
                          state=rng.choices(list(ModuleState), weights=(5, 1, 1))[0],
                          carrier=rng.choice((None, None, None, "p9")))
            for cap in rng.sample(caps, rng.randint(0, len(caps)))
        ], f"{island_id}.loop")
        for island_id in ids
    ]


def test_readiness_equals_an_atdock_compared_per_island():
    # oracle: the snapshot as it was written, an `AtDock` built and compared
    # for every island; same keys in the same order, same values
    rng = random.Random(28)
    ready_docks = 0
    for _ in range(300):
        islands = random_islands(rng, RECIPE)
        ids = [i.id for i in islands]
        poses = [AtDock(i) for i in ids + ["island9"]] + [Hovering(i) for i in ids] + [
            InTransit(rng.choice(ids), rng.choice(ids + [MANUAL_STATION])),
            InTransit("depot", "depot"), AtManualStation(),
        ]
        for pose in poses:
            for carrier in (None, make_product()):
                robot = Robot(pose=pose, carrier=carrier)
                got = readiness(islands, robot)
                assert list(got.items()) == list(
                    reference_readiness(islands, robot).items()), (pose, carrier)
                ready_docks += sum(got[f"{i}.dock"] for i in ids)
    assert ready_docks


def test_handshake_waits_for_the_tick_after_a_module_is_freed():
    # island1.engrave faults at 0 s, so the 0.1 s tick snapshots it busy; it
    # clears at 0.15 s and product1 arrives at 0.16 s. The routing plan reads
    # the live plant and targets the module, but the grant reads the
    # snapshot: the transfer starts at the 0.2 s tick, not on arrival.
    result = Simulation(scenario_from_dict({
        "horizon_s": 1.0,
        "traffic": {"catalog": []},
        "safety": {"enabled": False},
        "factory": {"releases": {"count": 1, "start_s": 0.16}},
        "script": [
            {"at_s": 0.0, "action": "module_fault", "endpoint": "island1.engrave"},
            {"at_s": 0.15, "action": "module_clear", "endpoint": "island1.engrave"},
        ],
    })).run()
    transfer = next(e for e in result.product_log if e.event == "transfer_start")
    assert transfer.detail.endswith("->island1.engrave")
    assert transfer.at == 200_000_000


# -- routing -----------------------------------------------------------------------


def test_route_on_current_island_has_no_robot_legs():
    islands = make_islands()
    plan = plan_route(make_product(), islands, TRANSIT, "island1")
    assert plan.target == "island1.engrave"
    assert plan.target_island == "island1"
    assert not plan.needs_robot


def test_route_to_other_island_uses_dock_transit_dock():
    islands = make_islands()
    product = make_product(completed=4)  # next: optical_inspect on island3
    plan = plan_route(product, islands, TRANSIT, "island1")
    assert plan.needs_robot
    assert plan.target == "island3.optical_inspect"
    assert plan.target_island == "island3"


def test_route_picks_nearest_capable_island_exhaustively():
    # oracle: enumerate all islands holding an idle capable module and take
    # the transit-time minimum; compare against plan_route's choice
    islands = make_islands()
    extra = StationModule("island3.mount_cover", "island3", "mount_cover")
    islands[2].modules.append(extra)
    product = make_product(completed=2)  # next: mount_cover (islands 2 and 3)
    for start in ("island1", "island2", "island3"):
        plan = plan_route(product, islands, TRANSIT, start)
        candidates = {
            island.id: (0.0 if island.id == start else TRANSIT[start][island.id])
            for island in islands
            if any(
                m.capability == "mount_cover" and m.state is ModuleState.IDLE
                for m in island.modules
            )
        }
        best = min(candidates.items(), key=lambda kv: (kv[1], kv[0]))[0]
        assert plan.target_island == best


def test_route_diverts_to_manual_on_fail_flag():
    islands = make_islands()
    product = make_product(completed=2)
    product.memory.record_quality(QualityFlag(1, "insert_spring", Verdict.FAIL, 5))
    plan = plan_route(product, islands, TRANSIT, "island2")
    assert plan.target == MANUAL_STATION
    assert plan.needs_robot


def test_route_diverts_to_manual_when_everything_busy():
    islands = make_islands()
    for island in islands:
        for module in island.modules:
            module.state = ModuleState.BUSY
    plan = plan_route(make_product(), islands, TRANSIT, "island1")
    assert plan.target == MANUAL_STATION


def test_route_raises_without_capability_or_manual():
    islands = make_islands()
    product = Product(id="p", order_config=["polish"])
    with pytest.raises(NoRouteAvailable):
        plan_route(product, islands, TRANSIT, "island1",
                   manual_available=False)


def test_route_to_manual_requires_manual_station():
    islands = make_islands()
    product = make_product(completed=2)
    product.memory.record_quality(QualityFlag(1, "insert_spring", Verdict.FAIL, 5))
    with pytest.raises(NoRouteAvailable):
        plan_route(product, islands, TRANSIT, "island2",
                   manual_available=False)


def _route_outcome(route, *args):
    try:
        return route(*args)
    except (ValueError, NoRouteAvailable) as exc:
        return type(exc), str(exc)


def test_plan_route_equals_the_candidate_list_reference():
    # oracle: routing as it was written, with every candidate island in a list
    # and its `min`; states cover 1-4 islands listed out of id order, idle,
    # busy and faulted modules with and without a carrier, transit matrices
    # with tied costs, products at an island or at the manual station with 0
    # to all steps done and a latest flag of Pass, Fail or none, and
    # `manual_available` both ways
    rng = random.Random(2028)
    caps = RECIPE[:2]  # few capabilities, so islands often offer the same step
    kinds: Counter[str] = Counter()
    for _ in range(4000):
        islands = random_islands(rng, caps)
        nodes = [i.id for i in islands] + [MANUAL_STATION]
        costs = (0.0, 2.0, 2.0, 2.0, 6.0)
        transit = {a: {b: rng.choice(costs) for b in nodes if b != a} for a in nodes}
        product = Product(id="p1", order_config=rng.choices(caps, k=rng.randint(1, 4)))
        for k in range(rng.randint(0, len(product.order_config))):
            product.memory.record_completion(k, product.order_config[k], "m", k)
        for verdict in rng.sample((Verdict.PASS, Verdict.FAIL), rng.randint(0, 2)):
            product.memory.record_quality(QualityFlag(None, None, verdict, 0))
        current = rng.choice(nodes)
        manual = rng.random() < 0.5
        args = (product, islands, transit, current, manual)
        got = _route_outcome(plan_route, *args)
        assert got == _route_outcome(reference_plan_route, *args), args
        nxt = product.next_step()
        offers = [0.0 if i.id == current else transit[current][i.id]
                  for i in islands if nxt and not product.needs_rework
                  and any(m.capability == nxt[1] and m.free for m in i.modules)]
        if isinstance(got, tuple):
            kinds[got[0].__name__] += 1
        else:
            kinds["manual" if got.target == MANUAL_STATION else
                  "robot" if got.needs_robot else "local"] += 1
        kinds["tie"] += len(offers) > 1 and offers.count(min(offers)) > 1
    assert min(kinds.values()) >= 50, kinds
    assert set(kinds) == {"ValueError", "NoRouteAvailable", "manual", "robot",
                          "local", "tie"}


# -- docking -----------------------------------------------------------------------


def make_safety(islands) -> SafetyManager:
    loops = [
        SafetyLoop(island.safety_loop_id, {m.id for m in island.modules})
        for island in islands
    ]
    return SafetyManager(loops)


def test_dock_joins_loop_and_leave_isolates_the_robot():
    islands = make_islands()
    mgr = make_safety(islands)
    robot = Robot(pose=Hovering("island2"))
    dock(robot, islands[1], mgr)
    assert robot.pose == AtDock("island2")
    assert mgr.robot_membership == "island2.loop"
    assert snapshot(islands, robot)["island2.dock"] is True

    mgr.leave()
    assert mgr.robot_membership is None
    robot.pose = InTransit("island2", "island3")  # departure follows undocking
    assert snapshot(islands, robot)["island2.dock"] is False
    # membership is the manager's record; no loop lists the robot
    assert all("robot" not in loop.members for loop in mgr.loops.values())


def test_dock_refused_when_island_safe_stopped():
    islands = make_islands()
    mgr = make_safety(islands)
    mgr.estop("island1.engrave", 50)
    assert mgr.loops["island1.loop"].state is LoopState.SAFE_STOP
    robot = Robot(pose=Hovering("island1"))
    with pytest.raises(DockRefused):
        dock(robot, islands[0], mgr)
    assert robot.pose == Hovering("island1")
    assert mgr.robot_membership is None


@pytest.mark.parametrize("case", ["plant", "fault_script", "short_transit"])
def test_membership_and_dock_readiness_follow_the_pose_at_every_tick(case):
    # the pose is the record of where the robot is: the safety manager's
    # membership and the tick's dock readiness must agree with it
    sim = Simulation(scenario_from_dict(CASES[case]))
    plant, mgr = sim.plant, sim.safety_mgr
    tick = plant._tick
    poses: set[type] = set()
    ready_docks = 0

    def checked_tick() -> None:
        nonlocal ready_docks
        tick()
        pose = plant.robot.pose
        poses.add(type(pose))
        for island_id in plant.islands:
            docked = pose == AtDock(island_id)
            assert (mgr.robot_membership == f"{island_id}.loop") == docked, pose
            if plant.ready[f"{island_id}.dock"]:
                assert docked, (sim.engine.now, pose)
                ready_docks += 1

    plant._tick = checked_tick
    sim.run()
    assert ready_docks
    assert poses == {AtDock, Hovering, InTransit, AtManualStation}


@pytest.mark.parametrize("case", ["plant", "fault_script", "short_transit",
                                  "all_defective"])
def test_a_products_job_place_and_state_agree_at_every_tick(case):
    # the product is the one record of a product: a robot job is a product
    # with a destination, the robot carries exactly the product whose place
    # is the robot, and a product is done exactly when its completion is logged
    sim = Simulation(scenario_from_dict(CASES[case]))
    plant = sim.plant
    tick, advance = plant._tick, plant._advance
    products: dict[str, Product] = {}  # every product released so far
    completed: Counter[str] = Counter()
    logged = 0
    states: set[ProductState] = set()

    def checked_tick() -> None:
        nonlocal logged
        tick()
        completed.update(e.product for e in sim.product_log[logged:]
                         if e.event == "completed")
        logged = len(sim.product_log)
        queued = {id(p) for p in plant.jobs}
        assert len(queued) == len(plant.jobs)  # one job per product
        for product in products.values():
            states.add(product.state)
            done = product.state is ProductState.DONE
            assert completed[product.id] == done, (sim.engine.now, product.id)
            if done:
                continue
            assert (id(product) in queued) == (product.destination is not None)
            on_robot = product.location == "robot"
            assert (plant.robot.carrier is product) == on_robot, product.id

    def recording_advance(product: Product) -> None:
        products.setdefault(product.id, product)  # its release's advance first
        advance(product)

    plant._tick, plant._advance = checked_tick, recording_advance
    sim.run()
    assert products and {ProductState.WAITING, ProductState.BUSY} <= states
    assert (ProductState.DONE in states) == (plant.stats["completed"] > 0)


# -- in-transit inspection ------------------------------------------------------------


def _transit_robot(product) -> Robot:
    return Robot(pose=InTransit("island1", "island2"), carrier=product)


def _link() -> LinkRuntime:
    """10 Mbit/s at a 125 us TTI with no processing delay."""
    radio = RadioSection(snr_db=11.0, tti_us=125, processing_delay_us=0.0)
    return LinkRuntime(radio.link_model(), Engine().stream)


def test_inspection_defect_probability_extremes():
    link = _link()
    product = make_product(completed=2)
    transit = 6_000_000_000
    passes = inspect_in_transit(
        _transit_robot(product), product, link, RngStream(1, "i"),
        0, transit, 2_000_000, 200_000_000, defect_probability=0.0,
    )
    assert passes.verdict is Verdict.PASS and not passes.timed_out
    fails = inspect_in_transit(
        _transit_robot(product), product, link, RngStream(1, "i"),
        0, transit, 2_000_000, 200_000_000, defect_probability=1.0,
    )
    assert fails.verdict is Verdict.FAIL


def test_inspection_cloud_rtt_arithmetic():
    # oracle: 2 MB at 10 Mbit/s uploads in 1.6 s, plus 200 ms inference,
    # plus the one-slot verdict return
    product = make_product(completed=2)
    outcome = inspect_in_transit(
        _transit_robot(product), product, _link(), RngStream(1, "i"),
        0, 6_000_000_000, 2_000_000, 200_000_000, defect_probability=0.0,
    )
    assert outcome.cloud_rtt_ns == 1_600_000_000 + 200_000_000 + 125_000


def test_inspection_timeout_passes_by_default_with_flag():
    product = make_product(completed=2)
    outcome = inspect_in_transit(
        _transit_robot(product), product, _link(), RngStream(1, "i"),
        0, 1_000_000_000, 2_000_000, 200_000_000, defect_probability=1.0,
    )
    assert outcome.timed_out
    assert outcome.verdict is Verdict.PASS  # a late verdict must not halt transport
    assert outcome.cloud_rtt_ns > 1_000_000_000


def test_inspection_requires_transit_with_carrier():
    product = make_product()
    with pytest.raises(ValueError):
        inspect_in_transit(
            Robot(pose=AtDock("island1"), carrier=product), product, _link(),
            RngStream(1, "i"), 0, 10**9, 100, 0, 0.0,
        )

