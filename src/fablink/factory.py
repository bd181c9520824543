"""Production-flow domain model.

Islands of single-task modules on conveyors, one module per capability,
each island with a docking station; the transport robot; the product digital
twin carried on its RFID tag; the readiness snapshot of free modules that the
central controller takes each tick and grants transfers from; dynamic routing
with manual-workstation diversion; and in-transit quality inspection with a
cloud round trip over the radio link.

The robot's pose is the one record of where it is: docked at an island,
hovering at one (arrived, not docked), in transit, or at the manual
workstation. Its safety-loop membership and its local guard belong to
`safety.SafetyManager`.

The product is the one record of a product: its recipe and memory, where it
is (the robot included), its `ProductState`, and the destination of its robot
job. A robot job is a product with a destination.

The event-driven plant runtime lives in `simulation`; this module holds the
state types and the decision functions they operate on.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field
from enum import Enum

from .radio_link import LinkRuntime
from .sim_core import RngStream, SimTime

MANUAL_STATION = "manual"


class PrefixOrderViolation(RuntimeError):
    """A completion was recorded out of recipe order."""


class NoRouteAvailable(RuntimeError):
    """No capable module anywhere and no manual workstation configured."""


class DockRefused(RuntimeError):
    """Docking attempt at a safe-stopped island."""


# -- product digital twin ----------------------------------------------------


@dataclass
class CompletedStep:
    step_index: int
    step: str
    station: str
    at: SimTime


class Verdict(Enum):
    PASS = "pass"
    FAIL = "fail"


@dataclass
class QualityFlag:
    step_index: int | None
    step: str | None
    verdict: Verdict
    at: SimTime
    timed_out: bool = False


@dataclass
class ProductMemory:
    """Append-only progress record carried on the product's tag."""

    completed_steps: list[CompletedStep] = field(default_factory=list)
    quality_flags: list[QualityFlag] = field(default_factory=list)

    def record_completion(
        self, step_index: int, step: str, station: str, at: SimTime
    ) -> CompletedStep:
        if step_index != len(self.completed_steps):
            raise PrefixOrderViolation(
                f"step {step_index} ({step}) recorded while "
                f"{len(self.completed_steps)} steps are complete"
            )
        entry = CompletedStep(step_index, step, station, at)
        self.completed_steps.append(entry)
        return entry

    def record_quality(self, flag: QualityFlag) -> None:
        self.quality_flags.append(flag)

    def latest_flag(self) -> QualityFlag | None:
        return self.quality_flags[-1] if self.quality_flags else None


class ProductState(Enum):
    """A product's place in the flow, as `simulation.PlantRuntime` moves it.

    WAITING: the controller tick plans it (`_advance`) while it is due: from
    each plan until one parks it, and again once what it waits for wakes it.
    Set at release, when a module or the operator finishes its step, and when
    the robot unloads it at an island; each of those plans it at once.
    BUSY: on a conveyor, in service, on the robot or at the manual station;
    the robot loads it once it waits. Set when a conveyor transfer starts
    (`_convey`), when the robot starts loading it (`_load`), and when it
    queues at the station where it stands (`_advance`).
    DONE: its recipe is complete with no rework due; set by `_advance`, final.
    """

    WAITING = "waiting"
    BUSY = "busy"
    DONE = "done"


@dataclass
class Product:
    """Product instance; `order_config` is its individual recipe."""

    id: str
    order_config: list[str]
    memory: ProductMemory = field(default_factory=ProductMemory)
    island: str = ""  # island id or MANUAL_STATION
    location: str = ""  # staging area, module, dock, "robot" or MANUAL_STATION
    state: ProductState = ProductState.WAITING
    destination: str | None = None  # its robot job's target, None without a job
    unroutable: bool = False  # `no_route` logged since its last plan
    rank: int = 0  # its place in release order, the order the controller tick plans in

    def next_step(self) -> tuple[int, str] | None:
        index = len(self.memory.completed_steps)
        if index >= len(self.order_config):
            return None
        return index, self.order_config[index]

    @property
    def needs_rework(self) -> bool:
        flag = self.memory.latest_flag()
        return flag is not None and flag.verdict is Verdict.FAIL


# -- plant layout -------------------------------------------------------------


@dataclass
class StationModule:
    """Single-task assembly module on an island conveyor. It is busy while it
    holds a product, from the transfer onto it until the product leaves."""

    id: str
    island_id: str
    capability: str
    faulted: bool = False  # a scripted `module_fault` not yet cleared
    carrier: str | None = None  # product id physically on the module

    @property
    def free(self) -> bool:
        """Not faulted and empty: routing may send a product here."""
        return not self.faulted and self.carrier is None


@dataclass
class Island:
    id: str
    modules: dict[str, StationModule]  # by capability, one module each
    safety_loop_id: str

    @property
    def dock_id(self) -> str:
        return f"{self.id}.dock"


# -- robot --------------------------------------------------------------------


@dataclass(frozen=True)
class AtDock:
    island_id: str


@dataclass(frozen=True)
class Hovering:
    """Arrived at the island, not docked."""

    island_id: str


@dataclass(frozen=True)
class InTransit:
    origin: str
    destination: str


@dataclass(frozen=True)
class AtManualStation:
    island_id: str = MANUAL_STATION


RobotPose = AtDock | Hovering | InTransit | AtManualStation


@dataclass
class Robot:
    pose: RobotPose = InTransit("depot", "depot")
    home_island: str = ""


def dock(robot: Robot, island: Island, safety_mgr) -> None:
    """Dock the robot: it joins the island's safety loop. Undocking is
    `safety_mgr.leave`; the pose changes when the robot departs."""
    from .safety import LoopState

    if safety_mgr.loops[island.safety_loop_id].state is LoopState.SAFE_STOP:
        raise DockRefused(f"island {island.id} is in safe stop")
    robot.pose = AtDock(island.id)
    safety_mgr.join(island.safety_loop_id)


# -- readiness snapshot -----------------------------------------------------------


def readiness(islands: Collection[Island]) -> set[str]:
    """The plant state that transfer grants read until the next controller
    tick: the ids of the modules that are free."""
    return {m.id for i in islands for m in i.modules.values() if m.free}


# -- routing -------------------------------------------------------------------


@dataclass
class RoutePlan:
    target: str  # module id or MANUAL_STATION
    target_island: str  # island id or MANUAL_STATION
    needs_robot: bool  # a dock, transit, dock leg precedes the target


def plan_route(
    product: Product,
    step: str | None,
    rework: bool,
    islands: list[Island],
    transit_s: dict[str, dict[str, float]],
    current_island: str,
    manual_available: bool = True,
) -> RoutePlan:
    """Choose the product's next destination, given its next `step` (None
    when its recipe is complete) and whether a `rework` is due.

    A pending Fail quality flag diverts to the manual workstation. Otherwise
    the target is the cheapest island's module for the next step. An island
    offers its one module of that capability only while it is not faulted and
    empty (`StationModule.free`); the product's own island costs 0, any other its
    `transit_s[current_island]` time, and equal costs go to the lower island
    id. With no offer, the manual workstation substitutes for the module.
    """
    if rework:
        if not manual_available:
            raise NoRouteAvailable(
                f"product {product.id} needs rework but no manual station exists"
            )
    elif step is None:
        raise ValueError(f"product {product.id} has no uncompleted step")
    else:
        target = None  # the cheapest offer so far: its module, island id and cost
        for island in islands:
            module = island.modules.get(step)
            if module is None or not module.free:
                continue
            if island.id == current_island:
                cost = 0.0
            else:
                cost = transit_s[current_island][island.id]
            if target is None or cost < least or (
                cost == least and island.id < target_island
            ):
                target, target_island, least = module, island.id, cost
        if target is not None:
            return RoutePlan(target.id, target_island, target_island != current_island)
        if not manual_available:
            raise NoRouteAvailable(
                f"no module can perform {step!r} and no manual station is configured"
            )
    return RoutePlan(MANUAL_STATION, MANUAL_STATION, current_island != MANUAL_STATION)


# -- in-transit inspection -------------------------------------------------------


@dataclass
class InspectionOutcome:
    verdict: Verdict
    cloud_rtt_ns: SimTime
    timed_out: bool


def inspect_in_transit(
    robot: Robot,
    product: Product,
    link: LinkRuntime,
    rng: RngStream,
    now: SimTime,
    transit_duration_ns: SimTime,
    image_bytes: int,
    inference_ns: SimTime,
    defect_probability: float,
    verdict_bytes: int = 100,
) -> InspectionOutcome:
    """Photograph the carried product, upload, infer in the cloud, return a
    verdict.

    The round trip is image upload + inference + verdict return over the
    link, each leg the link's lossless `latency`. When it exceeds the transit
    duration the verdict cannot influence this leg: the product passes by
    default, flagged as timed out. The
    defect draw is consumed either way so draw sequences stay stable.
    """
    if not isinstance(robot.pose, InTransit) or product.location != "robot":
        raise ValueError("inspection runs only in transit with the product aboard")
    upload = link.latency(now, image_bytes)
    verdict_return = link.latency(now + upload + inference_ns, verdict_bytes)
    cloud_rtt = upload + inference_ns + verdict_return
    failed = rng.random() < defect_probability
    if cloud_rtt > transit_duration_ns:
        return InspectionOutcome(Verdict.PASS, cloud_rtt, timed_out=True)
    return InspectionOutcome(
        Verdict.FAIL if failed else Verdict.PASS, cloud_rtt, timed_out=False
    )
