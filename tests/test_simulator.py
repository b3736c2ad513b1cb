"""Discrete-event kernel semantics."""

import pytest

from repro.simnet.simulator import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_fifo(self, sim):
        order = []
        for name in "abc":
            sim.schedule(1.0, lambda name=name: order.append(name))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_schedule_at_past_time_runs_now(self, sim):
        sim.schedule(2.0, lambda: None)
        sim.run()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(sim.now))  # already past
        sim.run()
        assert seen == [2.0]


class TestCancellation:
    def test_cancelled_event_does_not_run(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_pending_events_skips_cancelled(self, sim):
        events = [sim.schedule(float(delay), lambda: None) for delay in (3, 1, 2)]
        events[1].cancel()
        assert sim.pending_events == 2
        assert sim.step()
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.run() == 0


class TestHeapEntryKinds:
    """Posted callbacks (deliveries) and scheduled events share one FIFO clock."""

    def test_posted_and_scheduled_entries_due_together_run_fifo(self, sim):
        order = []
        sim.post(1.0, lambda: order.append("delivery-1"))
        sim.schedule(1.0, lambda: order.append("timer"))
        sim.post(1.0, lambda: order.append("delivery-2"))
        sim.run()
        assert order == ["delivery-1", "timer", "delivery-2"]

    def test_post_rejects_negative_delay(self, sim):
        with pytest.raises(ValueError):
            sim.post(-0.1, lambda: None)

    def test_pending_events_counts_both_kinds_and_skips_cancelled(self, sim):
        sim.post(1.0, lambda: None)
        kept = sim.schedule(2.0, lambda: None)
        dropped = sim.schedule(3.0, lambda: None)
        sim.post(4.0, lambda: None)
        dropped.cancel()
        assert sim.pending_events == 3
        kept.cancel()
        assert sim.pending_events == 2

    def test_run_counts_both_kinds_and_skips_cancelled(self, sim):
        fired = []
        sim.post(1.0, lambda: fired.append("post@1"))
        sim.schedule(1.5, lambda: fired.append("cancelled")).cancel()
        sim.schedule(2.0, lambda: fired.append("timer@2"))
        sim.post(3.0, lambda: fired.append("post@3"))
        assert sim.run(max_events=2) == 2
        assert fired == ["post@1", "timer@2"]
        assert sim.now == 2.0
        assert sim.run(until=2.5) == 0
        assert sim.now == 2.5
        assert sim.run() == 1
        assert fired == ["post@1", "timer@2", "post@3"]
        assert sim.executed_events == 3

    def test_cancelled_entry_beyond_horizon_still_advances_clock(self, sim):
        sim.schedule(9.0, lambda: None).cancel()
        assert sim.run(until=5.0) == 0
        assert sim.now == 5.0
        assert sim.pending_events == 0

    def test_step_skips_cancelled_and_runs_either_kind(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("cancelled")).cancel()
        sim.post(2.0, lambda: fired.append("post"))
        sim.schedule(3.0, lambda: fired.append("timer"))
        assert sim.step()
        assert (fired, sim.now) == (["post"], 2.0)
        assert sim.step()
        assert (fired, sim.now) == (["post", "timer"], 3.0)
        assert not sim.step()
        assert sim.executed_events == 2


class TestRun:
    def test_run_until_horizon_leaves_future_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(10.0, lambda: fired.append("late"))
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["early", "late"]

    def test_run_advances_clock_to_horizon_when_idle(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_bounds_work(self, sim):
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        executed = sim.run(max_events=3)
        assert executed == 3
        assert sim.pending_events == 7

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, lambda: chain(n + 1))

        sim.schedule(1.0, lambda: chain(1))
        sim.run()
        assert fired == [1, 2, 3]

    def test_horizon_behind_the_clock_does_not_rewind_it(self, sim):
        sim.post(1.0, lambda: None)
        sim.post(5.0, lambda: None)
        sim.run(until=2.0)
        sim.run(until=0.5)
        assert sim.now == 2.0

    def test_horizon_behind_the_clock_on_an_empty_queue_keeps_it(self, sim):
        sim.post(3.0, lambda: None)
        sim.run()
        assert sim.run(until=1.0) == 0
        assert sim.now == 3.0

    def test_stale_horizon_leaves_queued_events_at_their_times(self, sim):
        fired = []
        sim.post(1.0, lambda: None)
        sim.post(5.0, lambda: fired.append(sim.now))
        sim.run(until=2.0)
        assert sim.run(until=0.5) == 0
        sim.run()
        assert fired == [5.0]

    def test_event_exactly_at_the_horizon_runs(self, sim):
        fired = []
        sim.post(2.0, lambda: fired.append(sim.now))
        assert sim.run(until=2.0) == 1
        assert fired == [2.0]

    def test_exhausted_budget_keeps_the_clock_at_the_last_event(self, sim):
        sim.post(1.0, lambda: None)
        sim.post(2.0, lambda: None)
        assert sim.run(until=10.0, max_events=1) == 1
        assert sim.now == 1.0
        assert sim.pending_events == 1

    def test_run_returns_the_events_of_this_call_only(self, sim):
        for delay in (1.0, 2.0, 3.0):
            sim.post(delay, lambda: None)
        assert sim.run(until=1.5) == 1
        assert sim.run() == 2
        assert sim.executed_events == 3


class TestPeriodic:
    def test_every_fires_repeatedly(self, sim):
        fired = []
        sim.every(1.0, lambda: fired.append(sim.now))
        sim.run(until=5.5)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_every_stop(self, sim):
        fired = []
        stop = sim.every(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.5, stop)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_every_rejects_nonpositive_interval(self, sim):
        with pytest.raises(ValueError):
            sim.every(0, lambda: None)

    def test_every_with_jitter(self, sim):
        fired = []
        sim.every(1.0, lambda: fired.append(sim.now), jitter=lambda: 0.25)
        sim.run(until=4.0)
        assert fired == [1.25, 2.5, 3.75]


class TestIds:
    def test_new_ids_are_unique(self, sim):
        assert len({sim.new_id("x") for _ in range(1000)}) == 1000

    def test_new_id_uses_prefix(self, sim):
        assert sim.new_id("pep") == "pep-1"

    def test_two_simulators_count_independently(self):
        first, second = Simulator(), Simulator()
        assert [first.new_id("tx"), first.new_id("msg")] == ["tx-1", "msg-2"]
        assert [second.new_id("tx"), first.new_id("tx")] == ["tx-1", "tx-3"]
