"""Event-queue kernel.

A minimal but complete discrete-event simulator: the heap holds ``(time,
seq, event)`` tuples; the unique ``seq`` breaks ties FIFO so runs are fully
deterministic.  Components never sleep or poll — they schedule follow-up
events — which makes thousand-node experiments cheap and reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled callback; the kernel orders events by (time, seq)."""

    time: float
    seq: int
    callback: Callable[[], None]
    label: str = ""
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True


class Simulator:
    """Deterministic discrete-event scheduler.

    Time is a float in seconds.  ``run()`` drains the queue (optionally up
    to a horizon); ``step()`` executes exactly one event, which the tests
    use to interleave assertions with progress.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._executed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (diagnostics/metrics)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of queued events not cancelled."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        event = Event(time=self._now + delay, seq=next(self._seq), callback=callback, label=label)
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        return self.schedule(max(0.0, time - self._now), callback, label)

    def step(self) -> bool:
        """Execute the next non-cancelled event.  Returns False when idle."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                continue
            self._now = event.time
            self._executed += 1
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        ``until`` bounds simulated time (events beyond it stay queued);
        ``max_events`` bounds work, guarding against runaway feedback loops.
        Returns the number of events executed by this call.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            head = self._queue[0][2]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head.time > until:
                self._now = until
                break
            if not self.step():
                break
            executed += 1
        if until is not None and not self._queue and self._now < until:
            self._now = until
        return executed

    def run_until(self, predicate: Callable[[], bool], *, max_events: int = 1_000_000) -> bool:
        """Run until ``predicate()`` is true.  Returns whether it became true."""
        if predicate():
            return True
        for _ in range(max_events):
            if not self.step():
                return predicate()
            if predicate():
                return True
        return False

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        label: str = "",
        jitter: Callable[[], float] | None = None,
    ) -> Callable[[], None]:
        """Install a periodic callback; returns a function that stops it."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        state: dict[str, Any] = {"stopped": False, "event": None}

        def fire() -> None:
            if state["stopped"]:
                return
            callback()
            delay = interval + (jitter() if jitter else 0.0)
            state["event"] = self.schedule(max(1e-9, delay), fire, label)

        state["event"] = self.schedule(interval + (jitter() if jitter else 0.0), fire, label)

        def stop() -> None:
            state["stopped"] = True
            if state["event"] is not None:
                state["event"].cancel()

        return stop
