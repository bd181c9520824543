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
    NoRouteAvailable,
    PrefixOrderViolation,
    Product,
    ProductMemory,
    ProductState,
    QualityFlag,
    Robot,
    RoutePlan,
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
from reference import reference_plan_route
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
        modules = {c: StationModule(f"{island_id}.{c}", island_id, c) for c in caps}
        islands.append(Island(island_id, modules, f"{island_id}.loop"))
    return islands


def route(product: Product, *args, **kwargs) -> RoutePlan:
    """`plan_route` given the step and rework flag read off `product`."""
    nxt = product.next_step()
    return plan_route(product, nxt and nxt[1], product.needs_rework, *args, **kwargs)


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
# Grants read the readiness snapshot: the ids of the modules that are free.


def test_handshake_grants_idle_capable_module():
    assert "island1.engrave" in readiness(make_islands())


def test_handshake_denies_busy_module():
    # busy is holding a product, or faulted until the fault clears
    islands = make_islands()
    module = islands[0].modules["engrave"]
    module.carrier = "p9"
    assert "island1.engrave" not in readiness(islands)
    module.carrier, module.faulted = None, True
    assert "island1.engrave" not in readiness(islands)
    module.faulted = False
    assert "island1.engrave" in readiness(islands)


def test_handshake_denies_occupied_module():
    islands = make_islands()
    islands[0].modules["engrave"].carrier = "p9"
    assert "island1.engrave" not in readiness(islands)


def random_islands(rng: random.Random, caps: list[str]) -> list[Island]:
    """1-4 islands, listed out of id order, each with a random subset of `caps`
    and each module faulted or not, with or without a carrier."""
    ids = [f"island{k}" for k in range(1, rng.randint(1, 4) + 1)]
    rng.shuffle(ids)
    return [
        Island(island_id, {
            cap: StationModule(f"{island_id}.{cap}", island_id, cap,
                               faulted=rng.choice((False, False, False, True)),
                               carrier=rng.choice((None, None, None, "p9")))
            for cap in rng.sample(caps, rng.randint(0, len(caps)))
        }, f"{island_id}.loop")
        for island_id in ids
    ]


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
    plan = route(make_product(), islands, TRANSIT, "island1")
    assert plan.target == "island1.engrave"
    assert plan.target_island == "island1"
    assert not plan.needs_robot


def test_route_to_other_island_uses_dock_transit_dock():
    islands = make_islands()
    product = make_product(completed=4)  # next: optical_inspect on island3
    plan = route(product, islands, TRANSIT, "island1")
    assert plan.needs_robot
    assert plan.target == "island3.optical_inspect"
    assert plan.target_island == "island3"


def test_route_picks_nearest_capable_island_exhaustively():
    # oracle: enumerate all islands holding a free capable module and take
    # the transit-time minimum; compare against plan_route's choice
    islands = make_islands()
    extra = StationModule("island3.mount_cover", "island3", "mount_cover")
    islands[2].modules["mount_cover"] = extra
    product = make_product(completed=2)  # next: mount_cover (islands 2 and 3)
    for start in ("island1", "island2", "island3"):
        plan = route(product, islands, TRANSIT, start)
        candidates = {
            island.id: (0.0 if island.id == start else TRANSIT[start][island.id])
            for island in islands
            if any(
                m.capability == "mount_cover" and m.free
                for m in island.modules.values()
            )
        }
        best = min(candidates.items(), key=lambda kv: (kv[1], kv[0]))[0]
        assert plan.target_island == best


def test_route_diverts_to_manual_on_fail_flag():
    islands = make_islands()
    product = make_product(completed=2)
    product.memory.record_quality(QualityFlag(1, "insert_spring", Verdict.FAIL, 5))
    plan = route(product, islands, TRANSIT, "island2")
    assert plan.target == MANUAL_STATION
    assert plan.needs_robot


def test_route_diverts_to_manual_when_everything_busy():
    islands = make_islands()
    for island in islands:
        for module in island.modules.values():
            module.carrier = "p9"
    plan = route(make_product(), islands, TRANSIT, "island1")
    assert plan.target == MANUAL_STATION


def test_route_raises_without_capability_or_manual():
    islands = make_islands()
    product = Product(id="p", order_config=["polish"])
    with pytest.raises(NoRouteAvailable):
        route(product, islands, TRANSIT, "island1",
              manual_available=False)


def test_route_to_manual_requires_manual_station():
    islands = make_islands()
    product = make_product(completed=2)
    product.memory.record_quality(QualityFlag(1, "insert_spring", Verdict.FAIL, 5))
    with pytest.raises(NoRouteAvailable):
        route(product, islands, TRANSIT, "island2",
              manual_available=False)


def _route_outcome(route, *args):
    try:
        return route(*args)
    except (ValueError, NoRouteAvailable) as exc:
        return type(exc), str(exc)


def test_plan_route_equals_the_candidate_list_reference():
    # oracle: routing as it was written, with every candidate island in a list
    # and its `min`; states cover 1-4 islands listed out of id order,
    # faulted and unfaulted modules with and without a carrier, transit matrices
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
        got = _route_outcome(route, *args)
        assert got == _route_outcome(reference_plan_route, *args), args
        nxt = product.next_step()
        offers = [0.0 if i.id == current else transit[current][i.id]
                  for i in islands if nxt and not product.needs_rework
                  and any(m.capability == nxt[1] and m.free for m in i.modules.values())]
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
        SafetyLoop(island.safety_loop_id, {m.id for m in island.modules.values()})
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

    mgr.leave()
    assert mgr.robot_membership is None
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


# product1 waits at island1 for a robot that is docked at island2; island1 is
# safe-stopped before the robot arrives, so it hovers there, refused, until
# the reset at 20 s
REFUSED_PICKUP = {
    "horizon_s": 60.0,
    "traffic": {"catalog": []},
    "safety": {"enabled": False},
    "factory": {"recipe": ["weigh"], "robot_home": "island2",
                "releases": {"count": 2, "interval_s": 5.0}},
    "script": [{"at_s": 1.0, "action": "estop", "endpoint": "island1.engrave"},
               {"at_s": 20.0, "action": "reset", "loop": "island1.loop"}],
}


@pytest.mark.parametrize("case", ["plant", "fault_script", "short_transit",
                                  "refused_pickup"])
def test_membership_follows_the_pose_and_a_dock_transfer_starts_docked_and_empty(case):
    # the pose is the record of where the robot is: the safety manager's
    # membership must agree with it at every tick, and a product rides its
    # island's conveyor to the dock only while the robot is docked there with
    # no product aboard
    sim = Simulation(scenario_from_dict(CASES.get(case, REFUSED_PICKUP)))
    plant, mgr = sim.plant, sim.safety_mgr
    tick, advance, convey = plant._tick, plant._advance, plant._convey
    products: dict[str, Product] = {}  # every product released so far
    poses: set[type] = set()
    dock_transfers = 0

    def checked_tick() -> None:
        tick()
        pose = plant.robot.pose
        poses.add(type(pose))
        for island_id in plant.islands:
            docked = pose == AtDock(island_id)
            assert (mgr.robot_membership == f"{island_id}.loop") == docked, pose

    def recording_advance(product: Product) -> None:
        products.setdefault(product.id, product)
        advance(product)

    def checked_convey(product: Product, target: str, island_id: str, arrived) -> None:
        nonlocal dock_transfers
        if target == plant.islands[island_id].dock_id:
            now, pose = sim.engine.now, plant.robot.pose
            assert pose == AtDock(island_id), (now, product.id, pose)
            assert all(p.location != "robot" for p in products.values()), now
            dock_transfers += 1
        convey(product, target, island_id, arrived)

    plant._tick, plant._advance, plant._convey = (
        checked_tick, recording_advance, checked_convey)
    sim.run()
    assert dock_transfers
    assert poses == {AtDock, Hovering, InTransit, AtManualStation}


@pytest.mark.parametrize("case", ["plant", "fault_script", "short_transit",
                                  "all_defective"])
def test_a_products_job_place_and_state_agree_at_every_tick(case):
    # the product is the one record of a product: a robot job is a product
    # with a destination, a product whose place is the robot is the front
    # job, and a product is done exactly when its completion is logged
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
            if product.location == "robot":
                assert plant.jobs[0] is product, (sim.engine.now, product.id)

    def recording_advance(product: Product) -> None:
        products.setdefault(product.id, product)  # its release's advance first
        advance(product)

    plant._tick, plant._advance = checked_tick, recording_advance
    sim.run()
    assert products and {ProductState.WAITING, ProductState.BUSY} <= states
    assert (ProductState.DONE in states) == (plant.stats["completed"] > 0)


# -- in-transit inspection ------------------------------------------------------------


def _transit_robot(product) -> Robot:
    product.location = "robot"
    return Robot(pose=InTransit("island1", "island2"))


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


def test_inspection_requires_transit_with_the_product_aboard():
    product = make_product()
    with pytest.raises(ValueError):  # in transit, the product not aboard
        inspect_in_transit(
            Robot(pose=InTransit("island1", "island2")), product, _link(),
            RngStream(1, "i"), 0, 10**9, 100, 0, 0.0,
        )
    product.location = "robot"
    with pytest.raises(ValueError):  # aboard, the robot docked
        inspect_in_transit(
            Robot(pose=AtDock("island1")), product, _link(),
            RngStream(1, "i"), 0, 10**9, 100, 0, 0.0,
        )

