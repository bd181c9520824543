"""Deterministic discrete-event engine.

Integer-nanosecond virtual clock, a cancellable event queue with a safety
lane (safety events run before normal events at the same instant), named RNG
sub-streams, and per-module event counters for the run summary. Traffic
streams and the safety channel's PDUs never enter the queue, and of its
watchdog only the trips do; `packets.csv` is written in its order, through
`traffic.merge_records`.

A queued event is one list, `[fire_at, lane, seq, action, module]`, ordered
by `(fire_at, lane, seq)`. `schedule_at` returns that list as the event's
handle: `Engine.cancel(entry)` clears its action, and the loop skips such an
entry when it pops it.
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
    """A callback to queue through `Engine.schedule`. `module` only tags the
    summary counters."""

    fire_at: SimTime
    action: Callable[[], None]
    module: str = "misc"
    lane: int = LANE_NORMAL


# [fire_at, lane, seq, action, module]; `seq` is unique, so heap comparisons
# never reach the action, which is None once the entry is cancelled
QueueEntry = list


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
        rng = random.Random(int.from_bytes(digest[:16], "big"))
        # the generator's own bound methods, so a draw makes no wrapper call
        self.random: Callable[[], float] = rng.random
        self.uniform: Callable[[float, float], float] = rng.uniform
        self.expovariate: Callable[[float], float] = rng.expovariate

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id!r})"


@dataclass
class SimSummary:
    events_processed: dict[str, int] = field(default_factory=dict)


class Engine:
    """Single-threaded event loop over an integer-nanosecond clock.

    Events with equal fire time are ordered by lane (safety first), then by
    scheduling order (FIFO). Cancellation is lazy: a cancelled entry stays
    queued and is skipped when popped.
    """

    def __init__(self, seed: int = 0):
        self.now: SimTime = 0
        self.seed = seed
        self._heap: list[QueueEntry] = []
        self._seq = 0
        self._streams: dict[str, RngStream] = {}
        self._counts: dict[str, int] = {}

    def stream(self, stream_id: str) -> RngStream:
        """Return the named RNG sub-stream, creating it on first use."""
        st = self._streams.get(stream_id)
        if st is None:
            st = self._streams[stream_id] = RngStream(self.seed, stream_id)
        return st

    def schedule(self, event: Event) -> QueueEntry:
        """Queue an `Event`; the same queue and order as `schedule_at`."""
        return self.schedule_at(event.fire_at, event.action, event.module, event.lane)

    def schedule_at(
        self,
        fire_at: SimTime,
        action: Callable[[], None],
        module: str = "misc",
        lane: int = LANE_NORMAL,
    ) -> QueueEntry:
        """Queue `action` at `fire_at`; the returned entry is its handle."""
        if fire_at < self.now:
            raise SchedulingInPast(
                f"fire_at {fire_at} is before current clock {self.now}"
            )
        entry = [fire_at, lane, self._seq, action, module]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_after(
        self,
        delay: SimTime,
        action: Callable[[], None],
        module: str = "misc",
    ) -> QueueEntry:
        return self.schedule_at(self.now + delay, action, module)

    @staticmethod
    def cancel(entry: QueueEntry) -> None:
        """Keep a queued entry from firing; a no-op once it has fired."""
        entry[3] = None

    def run_until(self, deadline: SimTime) -> SimSummary:
        """Process every event with fire_at <= deadline, leave clock at deadline.
        An exception from an event's action is re-raised as `HandlerError`."""
        heap = self._heap
        counts = self._counts
        pop = heapq.heappop
        try:
            while heap and heap[0][0] <= deadline:
                fire_at, _lane, _seq, action, module = pop(heap)
                if action is None:
                    continue
                assert fire_at >= self.now, "event queue ordering violated"
                self.now = fire_at
                counts[module] = counts.get(module, 0) + 1
                action()
        except Exception as exc:
            name = getattr(action, "__qualname__", repr(action))
            raise HandlerError(
                f"at {self.now} ns, {module} event {name}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if deadline > self.now:
            self.now = deadline
        return SimSummary(events_processed=dict(counts))


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
    ):
        self._engine = engine
        self._action = action
        self._module = module
        self._remaining: SimTime | None = None  # set while paused
        self._entry: QueueEntry | None = engine.schedule_after(
            delay, self._fire, module
        )

    def _fire(self) -> None:
        self._entry = None
        self._action()

    def pause(self) -> None:
        if self._entry is None:  # fired or already paused
            return
        self._remaining = self._entry[0] - self._engine.now
        self._engine.cancel(self._entry)
        self._entry = None

    def resume(self) -> None:
        if self._remaining is None:  # running or fired
            return
        self._entry = self._engine.schedule_after(
            self._remaining, self._fire, self._module
        )
        self._remaining = None
