"""Deterministic discrete-event engine.

Integer-nanosecond virtual clock, a cancellable event queue with a safety
lane (safety events run before normal events at the same instant), named RNG
sub-streams, and per-module event counters for the run summary.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from typing import Callable

SimTime = int  # nanoseconds since simulation start

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

LANE_SAFETY = 0
LANE_NORMAL = 1


class SchedulingInPast(ValueError):
    """An event was scheduled before the current virtual clock."""


class HandlerError(RuntimeError):
    """An event's action raised; says when (ns), in which module and where."""


@dataclass
class Event:
    """A queued callback. `module` only tags the summary counters."""

    fire_at: SimTime
    action: Callable[[], None]
    module: str = "misc"
    lane: int = LANE_NORMAL


class EventHandle:
    """Allows cancelling a scheduled event before it fires."""

    __slots__ = ("event", "_cancelled", "_fired")

    def __init__(self, event: Event):
        self.event = event
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def pending(self) -> bool:
        return not self._cancelled and not self._fired


class RngStream:
    """Named random sub-stream.

    Identical (seed, stream_id) pairs yield identical draw sequences on any
    platform, and distinct stream ids are independent, so adding a stream
    never perturbs the draws of existing ones.
    """

    def __init__(self, seed: int, stream_id: str):
        self.seed = seed
        self.stream_id = stream_id
        digest = hashlib.sha256(f"{seed}/{stream_id}".encode("utf-8")).digest()
        self._rng = random.Random(int.from_bytes(digest[:16], "big"))

    def random(self) -> float:
        return self._rng.random()

    def uniform(self, a: float, b: float) -> float:
        return self._rng.uniform(a, b)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id!r})"


@dataclass
class SimSummary:
    end_time: SimTime
    events_processed: dict[str, int] = field(default_factory=dict)

    @property
    def total_events(self) -> int:
        return sum(self.events_processed.values())


class Engine:
    """Single-threaded event loop over an integer-nanosecond clock.

    Events with equal fire time are ordered by lane (safety first), then by
    scheduling order (FIFO). Cancellation is lazy: cancelled entries are
    skipped when popped.
    """

    def __init__(self, seed: int = 0):
        self.now: SimTime = 0
        self.seed = seed
        self._heap: list[tuple[SimTime, int, int, EventHandle]] = []
        self._seq = 0
        self._streams: dict[str, RngStream] = {}
        self._counts: dict[str, int] = {}

    def stream(self, stream_id: str) -> RngStream:
        """Return the named RNG sub-stream, creating it on first use."""
        st = self._streams.get(stream_id)
        if st is None:
            st = self._streams[stream_id] = RngStream(self.seed, stream_id)
        return st

    def schedule(self, event: Event) -> EventHandle:
        if event.fire_at < self.now:
            raise SchedulingInPast(
                f"fire_at {event.fire_at} is before current clock {self.now}"
            )
        handle = EventHandle(event)
        heapq.heappush(self._heap, (event.fire_at, event.lane, self._seq, handle))
        self._seq += 1
        return handle

    def schedule_at(
        self,
        fire_at: SimTime,
        action: Callable[[], None],
        module: str = "misc",
        lane: int = LANE_NORMAL,
    ) -> EventHandle:
        return self.schedule(Event(fire_at, action, module, lane))

    def schedule_after(
        self,
        delay: SimTime,
        action: Callable[[], None],
        module: str = "misc",
        lane: int = LANE_NORMAL,
    ) -> EventHandle:
        return self.schedule_at(self.now + delay, action, module, lane)

    def run_until(self, deadline: SimTime) -> SimSummary:
        """Process every event with fire_at <= deadline, leave clock at deadline.
        An exception from an event's action is re-raised as `HandlerError`."""
        heap = self._heap
        try:
            while heap and heap[0][0] <= deadline:
                fire_at, _lane, _seq, handle = heapq.heappop(heap)
                if handle.cancelled:
                    continue
                ev = handle.event
                assert fire_at >= self.now, "event queue ordering violated"
                self.now = fire_at
                handle._fired = True
                self._counts[ev.module] = self._counts.get(ev.module, 0) + 1
                ev.action()
        except Exception as exc:
            action = getattr(ev.action, "__qualname__", repr(ev.action))
            raise HandlerError(
                f"at {self.now} ns, {ev.module} event {action}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if deadline > self.now:
            self.now = deadline
        return SimSummary(end_time=self.now, events_processed=dict(self._counts))


class PausableTimer:
    """One-shot timer whose remaining delay can be paused and resumed.

    Used for service, conveyor and robot-motion durations that a safe stop
    or an obstruction must suspend without losing progress.
    """

    def __init__(
        self,
        engine: Engine,
        delay: SimTime,
        action: Callable[[], None],
        module: str = "misc",
        lane: int = LANE_NORMAL,
    ):
        self._engine = engine
        self._action = action
        self._module = module
        self._lane = lane
        self._remaining: SimTime | None = None
        self._done = False
        self._handle = engine.schedule_after(delay, self._fire, module, lane)

    def _fire(self) -> None:
        self._done = True
        self._handle = None
        self._action()

    def pause(self) -> None:
        if self._done or self._handle is None:
            return
        self._remaining = self._handle.event.fire_at - self._engine.now
        self._handle.cancel()
        self._handle = None

    def resume(self) -> None:
        if self._done or self._remaining is None:
            return
        self._handle = self._engine.schedule_after(
            self._remaining, self._fire, self._module, self._lane
        )
        self._remaining = None

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._done = True
