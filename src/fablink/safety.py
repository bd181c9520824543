"""Distributed safety model.

Per-island safety loops with island-confined safe stops, a cyclic safety PDU
channel between the robot's bus coupler and the central safety PLC riding
the radio link, watchdog supervision of PDU receipt, and robot-local guard
sensors that work regardless of network state.

`SafetyManager` is the one owner of the robot's safety state: the loop it
belongs to while docked (`robot_membership`) and its local guard (`local`).
Every change of either goes through the manager, which logs it.

The watchdog is a timer reset by every PDU delivery on the channel: it trips
exactly when a delivery-free window of the watchdog length completes. The
per-cycle miss counter is kept alongside for diagnostics and logging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator

from .radio_link import LinkRuntime, Sender
from .sim_core import (
    LANE_NORMAL,
    LANE_SAFETY,
    NS_PER_MS,
    NS_PER_S,
    Engine,
    RngStream,
    SimTime,
)
from .traffic import PacketRecord, StreamClass, emission_times


class LoopState(Enum):
    RUNNING = "running"
    SAFE_STOP = "safe_stop"


class LocalSafetyState(Enum):
    CLEAR = "clear"
    OBSTRUCTED = "obstructed"
    EMERGENCY_STOP = "emergency_stop"


class SensorKind(Enum):
    LASER_RANGE = "laser"
    INFRARED_RING = "infrared"
    BUMPER = "bumper"


class UnknownEndpoint(KeyError):
    """An e-stop source that belongs to no loop and is not the robot."""


@dataclass
class SafetyLoop:
    id: str
    members: set[str] = field(default_factory=set)  # the island's endpoints
    state: LoopState = LoopState.RUNNING


@dataclass
class LoopTransition:
    """One safety log entry."""

    at: SimTime
    loop: str
    transition: str  # "safe_stop" | "running" | local safety state values
    cause: str
    consecutive_missed: int = 0


class SafetyManager:
    """Owns the island loops, the robot's loop membership and local guard,
    and the safety event log.

    `on_change()` runs after every loop transition (safe stop, reset) and
    every local-guard reading or reset, so the plant runtime can re-derive
    which of its work is paused from the state it reads here.
    """

    def __init__(
        self,
        loops: list[SafetyLoop],
        on_change: Callable[[], None] | None = None,
    ):
        self.loops = {loop.id: loop for loop in loops}
        self.robot_membership: str | None = None
        self.local = LocalSafetyState.CLEAR
        self.log: list[LoopTransition] = []
        self._endpoint_loop: dict[str, str] = {}
        for loop in loops:
            for member in loop.members:
                self._endpoint_loop[member] = loop.id
        self._on_change = on_change or (lambda: None)

    def join(self, island_loop_id: str) -> None:
        """Insert the robot into an island's loop (on docking)."""
        self.robot_membership = island_loop_id

    def leave(self) -> None:
        """Isolate the robot's safety behaviour again (on undocking)."""
        self.robot_membership = None

    def safe_stop(
        self, loop: SafetyLoop, cause: str, now: SimTime, missed: int = 0
    ) -> LoopTransition | None:
        if loop.state is LoopState.SAFE_STOP:
            return None
        loop.state = LoopState.SAFE_STOP
        entry = LoopTransition(now, loop.id, "safe_stop", cause, missed)
        self.log.append(entry)
        self._on_change()
        return entry

    def estop(self, source: str, now: SimTime) -> list[LoopTransition]:
        """Emergency stop from `source`: confined to the source's own loop.

        The robot's e-stop (source "robot") latches its local guard, logged
        even when already latched; a docked robot also stops its loop.
        """
        if source == "robot":
            transitions = [self._set_local(LocalSafetyState.EMERGENCY_STOP,
                                           source, now, log_unchanged=True)]
            loop_id = self.robot_membership
        else:
            transitions = []
            loop_id = self._endpoint_loop.get(source)
            if loop_id is None:
                raise UnknownEndpoint(f"{source} belongs to no safety loop")
        if loop_id is not None:
            t = self.safe_stop(self.loops[loop_id], source, now)
            if t:
                transitions.append(t)
        return transitions

    def reset(self, loop_id: str, now: SimTime) -> LoopTransition:
        loop = self.loops[loop_id]
        loop.state = LoopState.RUNNING
        entry = LoopTransition(now, loop.id, "running", "manual_reset")
        self.log.append(entry)
        self._on_change()
        return entry

    def watchdog_trip(self, now: SimTime, missed: int) -> LoopTransition | None:
        """Apply the consequence of a watchdog expiry.

        Docked robot: the island loop it is a member of safe-stops, or logs a
        `watchdog_trip` when it already is in safe stop. Undocked, the robot's
        safety behaviour is isolated: the expiry is logged but the local guard
        never reacts to link state.
        """
        loop_id = self.robot_membership
        if loop_id is not None:
            entry = self.safe_stop(self.loops[loop_id], "watchdog", now, missed)
            if entry:
                return entry
        entry = LoopTransition(
            now, loop_id or "robot_isolated", "watchdog_trip", "watchdog", missed
        )
        self.log.append(entry)
        return entry

    # -- robot-local guard: active in every pose, independent of the link ----

    def sense(self, sensor: SensorKind, detected: bool, now: SimTime) -> None:
        """Apply one guard sensor reading.

        Laser/infrared detections pause motion (Obstructed) and clear again
        when the reading clears; a bumper contact latches EmergencyStop until
        `reset_local`. Link state never enters into these transitions.
        """
        state = self.local
        if state is not LocalSafetyState.EMERGENCY_STOP:
            if sensor is SensorKind.BUMPER:
                if detected:
                    state = LocalSafetyState.EMERGENCY_STOP
            elif detected:
                state = LocalSafetyState.OBSTRUCTED
            elif state is LocalSafetyState.OBSTRUCTED:
                state = LocalSafetyState.CLEAR
        self._set_local(state, sensor.value, now)

    def reset_local(self, now: SimTime) -> None:
        """Clear the local guard, a latched EmergencyStop included."""
        self._set_local(LocalSafetyState.CLEAR, "manual_reset", now)

    def _set_local(
        self, state: LocalSafetyState, cause: str, now: SimTime,
        log_unchanged: bool = False,
    ) -> LoopTransition | None:
        """Set the local guard, log a `robot_local` row when it changes (or
        always, with `log_unchanged`), then tell the plant."""
        entry = None
        if state is not self.local or log_unchanged:
            self.local = state
            entry = LoopTransition(now, "robot_local", state.value, cause)
            self.log.append(entry)
        self._on_change()
        return entry


@dataclass
class SafetyChannelConfig:
    """Cyclic PDU exchange parameters for the coupler <-> PLC channel."""

    cycle_hz: float = 246.19
    watchdog_ns: SimTime = 12_000_000
    pdu_bytes_up: int = 60  # coupler -> PLC
    pdu_bytes_down: int = 64  # PLC -> coupler
    stream_up: str = "pnio_coupler_to_plc"
    stream_down: str = "pnio_plc_to_coupler"

    def __post_init__(self):
        if self.watchdog_ns < NS_PER_S / self.cycle_hz:
            raise ValueError(
                f"watchdog {self.watchdog_ns / NS_PER_MS:g} ms is shorter than one "
                f"cycle ({1e3 / self.cycle_hz:.4g} ms at {self.cycle_hz:g} Hz)"
            )


class SafetyChannel:
    """Runs the cyclic PDU exchange on the engine and supervises receipt.

    Both directions traverse the radio link (the coupler end is wireless)
    and are sent through the same `LinkRuntime.sender` path as the traffic
    streams, one sender per direction.
    Cycles start at the `emission_times` of the cycle rate. A lost
    transmission is retried at subsequent TTI boundaries until the next
    cycle's PDU supersedes it. The exchange itself keeps running after a
    watchdog trip; only supervision pauses until `rearm` is called.
    """

    def __init__(
        self,
        engine: Engine,
        link: LinkRuntime,
        config: SafetyChannelConfig,
        rng: RngStream,
        records: list[PacketRecord],
        on_trip: Callable[[SimTime, int], None],
    ):
        self.engine = engine
        self.link = link
        self.config = config
        self.records = records
        self.on_trip = on_trip
        self.consecutive_missed = 0
        self.last_delivery: SimTime = 0
        self.supervising = True
        self._horizon: SimTime = 0
        self._cycle = 0  # the seq of the next cycle's records, both ways
        # (stream, PDU size, its sender) per direction, up first
        self._directions = [
            (name, size, link.sender(name, size, rng))
            for name, size in ((config.stream_up, config.pdu_bytes_up),
                               (config.stream_down, config.pdu_bytes_down))
        ]
        self._cycles: Iterator[SimTime] = iter(())

    def start(self, horizon: SimTime) -> None:
        self._horizon = horizon
        self.last_delivery = self.engine.now
        self._cycles = emission_times(self.config.cycle_hz, horizon)
        first = next(self._cycles, None)
        if first is not None:
            self.engine.schedule_at(first, self._run_cycle, module="safety")
        self._arm_watchdog()

    # -- cyclic exchange ---------------------------------------------------

    def _run_cycle(self) -> None:
        nxt = next(self._cycles, None)
        # without a next cycle in the horizon, retries stop at the horizon
        cycle_end = math.inf if nxt is None else nxt
        lost = []
        for stream, size, send in self._directions:
            record = PacketRecord(stream, self._cycle, self.engine.now, size,
                                  StreamClass.SAFETY_RELEVANT)
            self.records.append(record)
            lost.append(self._attempt(record, send, cycle_end))
        self._cycle += 1
        if all(lost):
            # cycle currently unanswered in both directions; any delivery,
            # including one from a retry, resets the counter
            self.consecutive_missed += 1
        if nxt is not None:
            self.engine.schedule_at(nxt, self._run_cycle, module="safety")

    def _attempt(self, record: PacketRecord, send: Sender, cycle_end: float) -> bool:
        sent_at, delivered = send(self.engine.now)
        record.sent_at = sent_at
        if delivered is not None:
            record.delivered_at = delivered
            self.engine.schedule_at(
                delivered, self._on_delivered, module="safety", lane=LANE_NORMAL
            )
            return False
        retry_at = sent_at + self.link.config.tti.duration_ns
        if retry_at < cycle_end and retry_at <= self._horizon:
            self.engine.schedule_at(
                retry_at, lambda: self._attempt(record, send, cycle_end),
                module="safety",
            )
        return True

    def _on_delivered(self) -> None:
        self.last_delivery = self.engine.now
        self.consecutive_missed = 0

    # -- watchdog supervision ----------------------------------------------

    def _arm_watchdog(self) -> None:
        check_at = self.last_delivery + self.config.watchdog_ns
        if check_at > self._horizon:
            return
        self.engine.schedule_at(
            check_at, self._check_watchdog, module="safety", lane=LANE_SAFETY
        )

    def _check_watchdog(self) -> None:
        if not self.supervising:
            return
        if self.engine.now - self.last_delivery >= self.config.watchdog_ns:
            self.supervising = False
            self.on_trip(self.engine.now, self.consecutive_missed)
            return
        self._arm_watchdog()

    def rearm(self, now: SimTime) -> None:
        """Resume supervision after a manual reset."""
        self.last_delivery = now
        self.consecutive_missed = 0
        if not self.supervising:
            self.supervising = True
            self._arm_watchdog()

