"""Tests for the discrete-event scheduler."""

import pytest

from repro.sim.engine import EventScheduler


class TestScheduling:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(30, order.append, "c")
        scheduler.schedule_at(10, order.append, "a")
        scheduler.schedule_at(20, order.append, "b")
        scheduler.run_until(100)
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(10, order.append, 1)
        scheduler.schedule_at(10, order.append, 2)
        scheduler.schedule_at(10, order.append, 3)
        scheduler.run_until(10)
        assert order == [1, 2, 3]

    def test_schedule_in_is_relative_to_now(self):
        scheduler = EventScheduler()
        times = []
        scheduler.schedule_at(100, lambda: scheduler.schedule_in(50, lambda: times.append(scheduler.now_ns)))
        scheduler.run_until(200)
        assert times == [150]

    def test_clock_advances_to_run_until_limit(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(10, lambda: None)
        scheduler.run_until(500)
        assert scheduler.now_ns == 500
        assert scheduler.now == pytest.approx(5e-7)

    def test_events_after_limit_not_run(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(100, fired.append, "late")
        scheduler.run_until(50)
        assert fired == []
        scheduler.run_until(150)
        assert fired == ["late"]

    def test_cannot_schedule_in_the_past(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(100, lambda: None)
        scheduler.run_until(100)
        with pytest.raises(ValueError):
            scheduler.schedule_at(50, lambda: None)
        with pytest.raises(ValueError):
            scheduler.schedule_in(-1, lambda: None)

    def test_cannot_run_into_the_past(self):
        scheduler = EventScheduler()
        scheduler.run_until(100)
        with pytest.raises(ValueError):
            scheduler.run_until(50)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.schedule_at(10, fired.append, "x")
        scheduler.cancel(event)
        scheduler.run_until(100)
        assert fired == []

    def test_cancel_none_is_noop(self):
        EventScheduler().cancel(None)

    def test_cancelled_events_do_not_count_as_processed(self):
        scheduler = EventScheduler()
        event = scheduler.schedule_at(10, lambda: None)
        scheduler.schedule_at(20, lambda: None)
        scheduler.cancel(event)
        scheduler.run_until(100)
        assert scheduler.processed_events == 1


class TestStepAndDrain:
    def test_step_runs_single_event(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(5, fired.append, 1)
        scheduler.schedule_at(10, fired.append, 2)
        assert scheduler.step()
        assert fired == [1]
        assert scheduler.step()
        assert not scheduler.step()

    def test_run_until_empty_guard(self):
        scheduler = EventScheduler()

        def reschedule():
            scheduler.schedule_in(1, reschedule)

        scheduler.schedule_at(0, reschedule)
        with pytest.raises(RuntimeError):
            scheduler.run_until_empty(max_events=100)

    def test_clock_handle_reflects_scheduler_time(self):
        scheduler = EventScheduler()
        clock = scheduler.clock()
        scheduler.run_until(2_000_000_000)
        assert clock.now_ns == 2_000_000_000
        assert clock.now == pytest.approx(2.0)


class TestHeapCompaction:
    def test_cancelled_counter_tracks_live_cancellations(self):
        scheduler = EventScheduler()
        events = [scheduler.schedule_at(10 * i, lambda: None)
                  for i in range(10)]
        scheduler.cancel(events[0])
        scheduler.cancel(events[1])
        assert scheduler.cancelled_events == 2
        # Cancelling twice (or cancelling an already-run event) must not
        # inflate the counter.
        scheduler.cancel(events[0])
        assert scheduler.cancelled_events == 2
        scheduler.run_until(1000)
        assert scheduler.cancelled_events == 0
        scheduler.cancel(events[5])  # already executed: no-op
        assert scheduler.cancelled_events == 0

    def test_popping_cancelled_events_decrements_counter(self):
        scheduler = EventScheduler()
        keep = scheduler.schedule_at(50, lambda: None)
        dead = [scheduler.schedule_at(i, lambda: None) for i in range(10)]
        for event in dead:
            scheduler.cancel(event)
        assert scheduler.cancelled_events == len(dead)
        scheduler.run_until(100)
        assert scheduler.cancelled_events == 0
        assert scheduler.processed_events == 1
        assert not keep.cancelled

    def test_compaction_triggers_when_cancelled_exceed_half(self):
        scheduler = EventScheduler()
        floor = EventScheduler.COMPACTION_FLOOR
        live = [scheduler.schedule_at(10_000 + i, lambda: None)
                for i in range(floor)]
        doomed = [scheduler.schedule_at(i, lambda: None)
                  for i in range(floor + 1)]
        for event in doomed:
            scheduler.cancel(event)
        # More than half the heap was cancelled: it must have been compacted
        # down to the live events only.
        assert scheduler.heap_compactions >= 1
        assert scheduler.cancelled_events == 0
        assert scheduler.pending_events == len(live)
        order = scheduler.processed_events
        scheduler.run_until(20_000)
        assert scheduler.processed_events - order == len(live)

    def test_small_heaps_are_never_compacted(self):
        scheduler = EventScheduler()
        events = [scheduler.schedule_at(i, lambda: None) for i in range(10)]
        for event in events:
            scheduler.cancel(event)
        assert scheduler.heap_compactions == 0
        assert scheduler.pending_events == 10  # lazy deletion still in place
        scheduler.run_until(100)
        assert scheduler.pending_events == 0

    def test_compacted_events_stay_cancelled(self):
        scheduler = EventScheduler()
        floor = EventScheduler.COMPACTION_FLOOR
        fired = []
        for i in range(floor):
            scheduler.schedule_at(10_000 + i, fired.append, i)
        doomed = [scheduler.schedule_at(i, fired.append, -1)
                  for i in range(floor + 1)]
        for event in doomed:
            scheduler.cancel(event)
        # Late cancels of compacted-away events must not corrupt accounting.
        for event in doomed:
            scheduler.cancel(event)
        assert scheduler.cancelled_events == 0
        scheduler.run_until(20_000)
        assert -1 not in fired
        assert len(fired) == floor

    def test_compaction_inside_run_until_keeps_later_events(self):
        """A callback that compacts the heap mid-run must not strand the
        events run_until has still to pop, nor ones scheduled after it."""
        scheduler = EventScheduler()
        floor = EventScheduler.COMPACTION_FLOOR
        fired = []
        doomed = [scheduler.schedule_at(5_000 + i, fired.append, -1)
                  for i in range(floor + 1)]

        def cancel_all():
            for event in doomed:
                scheduler.cancel(event)

        def fire_and_reschedule():
            fired.append("live")
            scheduler.schedule_in(5_000, fired.append, "rescheduled")

        scheduler.schedule_at(1, cancel_all)
        scheduler.schedule_at(10_000, fire_and_reschedule)
        scheduler.run_until(20_000)
        assert scheduler.heap_compactions == 1
        assert fired == ["live", "rescheduled"]
        assert scheduler.cancelled_events == 0
        assert scheduler.pending_events == 0
