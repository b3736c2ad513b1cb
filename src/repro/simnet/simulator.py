"""Event-queue kernel.

A minimal but complete discrete-event simulator: the heap holds ``(time,
seq, callback)`` tuples; the unique ``seq`` breaks ties FIFO so runs are
fully deterministic.  Components never sleep or poll — they schedule
follow-up events — which makes thousand-node experiments cheap and
reproducible.

A heap entry's callback is one of two kinds.  :meth:`Simulator.post` queues
a bare callable that nothing can cancel; it is what a message delivery costs
(one tuple, no handle).  :meth:`Simulator.schedule` wraps the callable in an
:class:`Event`, a handle the caller keeps to cancel it (request timeouts,
mining, :meth:`Simulator.every`); a cancelled event is skipped when popped
and counts as neither pending nor executed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled callback the caller may cancel before it runs."""

    callback: Callable[[], None]
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
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._executed = 0
        self._ids = itertools.count(1)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (diagnostics/metrics)."""
        return self._executed

    def new_id(self, prefix: str) -> str:
        """Mint this run's next id, like ``"tx-17"``.

        Minted ids (transaction ids in particular) are hashed into the
        chain, so they belong to the run: one counter per simulator, from
        1, makes the same spec and seed mint the same ids however many
        other runs share the process.
        """
        return f"{prefix}-{next(self._ids)}"

    @property
    def pending_events(self) -> int:
        """Number of queued events not cancelled."""
        return sum(
            1 for _, _, entry in self._queue if type(entry) is not Event or not entry.cancelled
        )

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """Queue ``callback`` to run ``delay`` seconds from now; it cannot be cancelled."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), callback))

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now; returns its handle."""
        event = Event(callback)
        self.post(delay, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        return self.schedule(max(0.0, time - self._now), callback)

    def step(self) -> bool:
        """Execute the next non-cancelled event.  Returns False when idle."""
        return self.run(max_events=1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        ``until`` bounds simulated time (events beyond it stay queued);
        ``max_events`` bounds work, guarding against runaway feedback loops.
        Returns the number of events executed by this call.
        """
        queue = self._queue
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        executed = 0
        while queue and executed < budget:
            time, _, callback = queue[0]
            if time > horizon:
                if until > self._now:
                    self._now = until
                break
            pop(queue)
            if type(callback) is Event:
                if callback.cancelled:
                    continue
                callback = callback.callback
            self._now = time
            self._executed += 1
            executed += 1
            callback()
        if until is not None and not queue and self._now < until:
            self._now = until
        return executed

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
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
            state["event"] = self.schedule(max(1e-9, delay), fire)

        state["event"] = self.schedule(interval + (jitter() if jitter else 0.0), fire)

        def stop() -> None:
            state["stopped"] = True
            if state["event"] is not None:
                state["event"].cancel()

        return stop
