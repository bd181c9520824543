"""Distributed safety model.

Per-island safety loops with island-confined safe stops, a cyclic safety PDU
channel between the robot's bus coupler and the central safety PLC riding
the radio link, watchdog supervision of PDU receipt, and robot-local guard
sensors that work regardless of network state.

`SafetyManager` is the one owner of the robot's safety state: the loop it
belongs to while docked (`robot_membership`) and its local guard (`local`).
Every change of either goes through the manager, which logs it.

The channel runs on two traffic profiles, the catalog's PNIO rows or else
the measured pair (see `SafetySection.channel_streams` in `scenario`). It
reads their names and PDU sizes and the up row's rate; a scenario that sets
another field of those rows away from what the channel does is rejected at
load. Its PDUs (`resolve_channel`) and its watchdog's trips
(`watchdog_trips`) are both resolved before the run, since nothing in a run
feeds back into either; the engine queues only the trips. The watchdog trips
exactly when a delivery-free window of the watchdog length completes, and
logs the cycles missed both ways since the last delivery.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, pairwise
from typing import Callable, Sequence

from .radio_link import LinkRuntime
from .sim_core import HandlerError, RngStream, SimTime
from .traffic import LOST, StreamRecords, TrafficProfile, emission_times


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
        self._endpoint_loops: dict[str, list[SafetyLoop]] = {}
        for loop in loops:
            for member in loop.members:
                self._endpoint_loops.setdefault(member, []).append(loop)
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
        """Emergency stop from `source`: confined to the loops the source is
        a member of, in loop order. The safety PLC is a member of every loop.

        The robot's e-stop (source "robot") latches its local guard, logged
        even when already latched; a docked robot also stops its loop.
        """
        if source == "robot":
            transitions = [self._set_local(LocalSafetyState.EMERGENCY_STOP,
                                           source, now, log_unchanged=True)]
            membership = self.robot_membership
            loops = [self.loops[membership]] if membership is not None else []
        else:
            transitions = []
            loops = self._endpoint_loops.get(source)
            if loops is None:
                raise UnknownEndpoint(f"{source} belongs to no safety loop")
        for loop in loops:
            t = self.safe_stop(loop, source, now)
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


def resolve_channel(
    link: LinkRuntime,
    streams: tuple[TrafficProfile, TrafficProfile],
    rng: RngStream,
    horizon: SimTime,
) -> tuple[StreamRecords, StreamRecords, array, list[SimTime], int]:
    """The cyclic PDU exchange up to `horizon`, in one loop like a traffic
    stream. `streams` are its two catalog rows, coupler -> PLC (`up`) then
    PLC -> coupler (`down`): their names and PDU sizes, and the cycle rate of
    `up`. Both directions traverse the radio link (the coupler end is
    wireless) through one `LinkRuntime.sender` each. Cycles start at the
    `emission_times` of the cycle rate; a lost PDU is retried at following
    TTI boundaries, up before down, until the next cycle's PDU supersedes it.

    Returns the `up` and `down` columns, which share one `created` column of
    the cycle starts and keep a `sent` column each, where a retry rewrites
    its cycle's slot; the deliveries within the horizon, one `array('q')`
    kept sorted as it grows (a retry lands near its cycle, so nearly every
    delivery appends); `missed`, the cycle starts where both first attempts
    were lost, but not one at which a retried PDU of the previous cycle is
    delivered (that delivery comes after the cycle began); and the count of
    cycles, retries and deliveries, as if each were queued.
    """
    tti = link.tti_ns
    up, down = StreamRecords(tti, array("q")), StreamRecords(tti, array("q"))
    down.created = created = up.created
    # (stream, its sender, its records) per direction, up first
    directions = [(p.name, link.sender(p.name, p.payload_bytes, rng), records)
                  for p, records in zip(streams, (up, down))]
    delivered, missed = array("q"), []  # deliveries kept sorted as they come
    at, stream, retried_to, retries, seq = 0, "", None, 0, -1
    try:
        # retries end at the next cycle, or for the last one at the horizon
        bounds = pairwise(chain(emission_times(streams[0].rate_hz, horizon), [horizon + 1]))
        for seq, (at, end) in enumerate(bounds):
            pending = []
            created.append(at)
            for stream, send, records in directions:
                sent, d = send(at)
                records.sent.append(sent)
                records.delivered.append(LOST if d is None else d)
                if d is None:
                    pending.append((stream, send, records))
                elif delivered and d < delivered[-1]:
                    insort(delivered, d)
                else:
                    delivered.append(d)
            if len(pending) == 2 and at != retried_to:
                missed.append(at)
            while pending and (at := pending[0][2].sent[seq] + tti) < end:
                retries += len(pending)
                for stream, send, records in pending:
                    records.sent[seq], d = send(at)
                    if d is not None:
                        records.delivered[seq] = d
                        if delivered and d < delivered[-1]:
                            insort(delivered, d)
                        else:
                            delivered.append(d)
                        if d == end:
                            retried_to = end
                pending = [p for p in pending if p[2].delivered[seq] == LOST]
    except Exception as exc:
        raise HandlerError(f"at {at} ns, safety channel {stream}: "
                           f"{type(exc).__name__}: {exc}") from exc
    del delivered[bisect_right(delivered, horizon):]  # those past the horizon
    return up, down, delivered, missed, seq + 1 + retries + len(delivered)


def watchdog_trips(
    delivered: Sequence[SimTime],
    missed: list[SimTime],
    resets: list[SimTime],
    watchdog_ns: SimTime,
    horizon: SimTime,
) -> tuple[list[tuple[SimTime, int]], int]:
    """The watchdog's trips up to `horizon`, each `(at, consecutive_missed)`,
    and the number of checks it makes, from the sorted delivery instants,
    `missed` cycle starts and `reset` instants.

    The first check is at `watchdog_ns`. A check trips once `watchdog_ns` has
    passed since the last delivery strictly before it (a check runs before
    its instant's deliveries) or the last reset, whichever is later, and
    counts the cycles missed since; otherwise the next check comes
    `watchdog_ns` after that instant. After a trip the next reset starts the
    window again. A reset at a check's instant runs before the check, except
    at the first check, which runs first.
    """
    trips: list[tuple[SimTime, int]] = []
    checks, at = 0, watchdog_ns
    while at <= horizon:
        # the resets that run before this check: those at its instant too,
        # except at the first check
        r = (bisect_left if checks == 0 else bisect_right)(resets, at)
        checks += 1
        i = bisect_left(delivered, at)
        last = max(resets[r - 1] if r else 0, delivered[i - 1] if i else 0)
        if at - last < watchdog_ns:
            at = last + watchdog_ns
            continue
        trips.append((at, bisect_left(missed, at) - bisect_left(missed, last)))
        if r == len(resets):
            break
        at = resets[r] + watchdog_ns
    return trips, checks
