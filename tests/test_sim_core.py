from __future__ import annotations

import pytest

from fablink.sim_core import (
    LANE_NORMAL,
    LANE_SAFETY,
    NS_PER_S,
    Engine,
    Event,
    HandlerError,
    PausableTimer,
    RngStream,
    SchedulingInPast,
)


def test_schedule_accepts_event_objects():
    engine = Engine()
    fired = []

    def action():
        fired.append(1)

    entry = engine.schedule(Event(fire_at=7, action=action, module="demo"))
    assert entry == [7, LANE_NORMAL, 0, action, "demo"]
    summary = engine.run_until(10)
    assert fired == [1]
    assert summary.events_processed == {"demo": 1}


def test_event_objects_share_the_queue_and_its_order():
    engine = Engine()
    order = []
    engine.schedule_at(5, lambda: order.append("at"))
    engine.schedule(Event(5, lambda: order.append("event")))
    engine.schedule(Event(5, lambda: order.append("safety"), lane=LANE_SAFETY))
    engine.schedule_at(3, lambda: order.append("early"))
    engine.run_until(5)
    assert order == ["early", "safety", "at", "event"]
    with pytest.raises(SchedulingInPast):
        engine.schedule(Event(4, lambda: None))


def test_schedule_in_past_raises():
    engine = Engine()
    engine.schedule_at(100, lambda: None)
    engine.run_until(100)
    with pytest.raises(SchedulingInPast):
        engine.schedule_at(50, lambda: None)


def test_handler_error_names_time_module_and_callback():
    engine = Engine()

    def explode():
        raise KeyError("robot")

    engine.schedule_at(10, lambda: None, module="traffic")
    engine.schedule_at(2_500, explode, module="factory")
    with pytest.raises(HandlerError) as err:
        engine.run_until(10_000)
    message = str(err.value)
    assert message.startswith("at 2500 ns, factory event ")
    assert explode.__qualname__ in message and "KeyError" in message
    assert isinstance(err.value.__cause__, KeyError)


def test_zero_delay_event_fires_in_same_processing_step():
    engine = Engine()
    order = []

    def outer():
        order.append("outer")
        engine.schedule_at(engine.now, lambda: order.append("inner"))

    engine.schedule_at(10, outer)
    engine.run_until(10)
    assert order == ["outer", "inner"]


def test_equal_fire_times_processed_in_scheduling_order():
    engine = Engine()
    order = []
    engine.schedule_at(5_000_000, lambda: order.append(1))
    engine.schedule_at(5_000_000, lambda: order.append(2))
    engine.run_until(5_000_000)
    assert order == [1, 2]


def test_safety_lane_preempts_normal_events_at_same_instant():
    engine = Engine()
    order = []
    engine.schedule_at(100, lambda: order.append("normal"))
    engine.schedule_at(100, lambda: order.append("safety"), lane=LANE_SAFETY)
    engine.run_until(100)
    assert order == ["safety", "normal"]


def test_cancelled_event_never_fires():
    engine = Engine()
    fired = []
    entry = engine.schedule_at(100, lambda: fired.append(1))
    engine.cancel(entry)
    assert entry[3] is None
    engine.run_until(200)
    assert fired == []


def test_cancelled_entry_is_not_counted():
    engine = Engine()
    engine.schedule_at(1, lambda: None, module="a")
    engine.cancel(engine.schedule_at(2, lambda: None, module="a"))
    engine.cancel(engine.schedule_at(3, lambda: None, module="b"))
    summary = engine.run_until(10)
    assert summary.events_processed == {"a": 1}
    assert engine.now == 10


def test_run_until_empty_queue_advances_clock():
    engine = Engine()
    summary = engine.run_until(NS_PER_S)
    assert engine.now == NS_PER_S
    assert summary.events_processed == {}


def test_module_counts_in_summary():
    engine = Engine()
    engine.schedule_at(1, lambda: None, module="a")
    engine.schedule_at(2, lambda: None, module="a")
    engine.schedule_at(3, lambda: None, module="b")
    summary = engine.run_until(10)
    assert summary.events_processed == {"a": 2, "b": 1}


def _count_firings(rate_hz: float, deadline_ns: int, phase_ns: int) -> int:
    """Self-rescheduling periodic source on the engine."""
    engine = Engine()
    count = [0]

    def fire(k: int) -> None:
        count[0] += 1
        t = phase_ns + round((k + 1) * NS_PER_S / rate_hz)
        if t <= deadline_ns:
            engine.schedule_at(t, lambda: fire(k + 1))

    if phase_ns <= deadline_ns:
        engine.schedule_at(phase_ns, lambda: fire(0))
    engine.run_until(deadline_ns)
    return count[0]


def _closed_form_count(rate_hz: float, deadline_ns: int, phase_ns: int) -> int:
    # oracle: number of k >= 0 with phase + round(k/rate) <= deadline
    count = 0
    k = 0
    while phase_ns + round(k * NS_PER_S / rate_hz) <= deadline_ns:
        count += 1
        k += 1
    return count


def test_periodic_source_firing_count_over_ten_seconds():
    # 10 s x 246.19 Hz = 2461.9 periods: 2462 firings from phase 0 (k=0
    # included), 2461 once the phase pushes the last one past the deadline.
    deadline = 10 * NS_PER_S
    assert _count_firings(246.19, deadline, 0) == 2462
    assert _closed_form_count(246.19, deadline, 0) == 2462
    late_phase = round(0.99 * NS_PER_S / 246.19)
    assert _count_firings(246.19, deadline, late_phase) == 2461
    assert _closed_form_count(246.19, deadline, late_phase) == 2461


def test_clock_monotone_across_events():
    engine = Engine()
    seen = []
    for t in [5, 3, 9, 3, 7]:
        engine.schedule_at(t, lambda: seen.append(engine.now))
    engine.run_until(10)
    assert seen == sorted(seen)


def test_rng_stream_determinism_and_independence():
    a1 = RngStream(42, "link")
    a2 = RngStream(42, "link")
    b = RngStream(42, "inspection")
    seq_a1 = [a1.random() for _ in range(100)]
    seq_a2 = [a2.random() for _ in range(100)]
    seq_b = [b.random() for _ in range(100)]
    assert seq_a1 == seq_a2
    assert seq_a1 != seq_b


def test_engine_streams_are_memoized_and_seeded():
    e1 = Engine(seed=7)
    e2 = Engine(seed=7)
    assert e1.stream("x") is e1.stream("x")
    assert [e1.stream("x").random() for _ in range(10)] == [
        e2.stream("x").random() for _ in range(10)
    ]


def test_pausable_timer_keeps_remaining_time():
    engine = Engine()
    fired = []
    timer = PausableTimer(engine, 100, lambda: fired.append(engine.now))
    engine.run_until(40)
    timer.pause()
    engine.run_until(500)
    assert fired == []
    timer.resume()
    engine.run_until(600)
    assert fired == [560]  # 40 elapsed + 60 remaining after resume at 500
