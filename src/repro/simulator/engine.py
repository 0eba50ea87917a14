"""The discrete-event simulation engine (clock + future-event list)."""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.simulator.events import EventQueue

__all__ = ["Simulator"]


class Simulator:
    """A minimal, deterministic discrete-event engine.

    Components schedule callbacks with :meth:`schedule` (relative delay) or
    :meth:`schedule_at` (absolute time); :meth:`run` processes events in
    chronological order until the horizon or until the event list drains.

    Scheduling pushes a ``(time, sequence, callback)`` tuple straight onto
    the :class:`EventQueue` heap, so one event costs a few tuple compares in
    ``heapq`` plus the callback itself (normally a bound method).

    ``packet_ids`` numbers the packets of this simulation from 0; every
    traffic source draws from it.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._heap = self._queue._heap
        self._cancelled = self._queue._cancelled
        self._sequence = self._queue._counter
        self._now = 0.0
        self._processed = 0
        self._running = False
        self.packet_ids = itertools.count()

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (updated when :meth:`run` returns)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        heappush(self._heap, (self._now + delay, next(self._sequence), callback))

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self._now:
            raise ValueError("cannot schedule an event in the past")
        heappush(self._heap, (time, next(self._sequence), callback))

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until ``until`` seconds, ``max_events`` events, or drain.

        Returns the simulation time when the run stopped.  Events scheduled
        exactly at ``until`` are *not* executed (the horizon is exclusive),
        but the clock is advanced to ``until`` when a horizon is given and
        no live event remains before it.
        """
        if self._running:
            raise RuntimeError("run() is not re-entrant")
        self._running = True
        heap = self._heap
        cancelled = self._cancelled
        budget = float("inf") if max_events is None else max_events
        executed = 0
        try:
            while heap and executed < budget:
                if until is not None and heap[0][0] >= until:
                    break
                time, sequence, callback = heappop(heap)
                if cancelled and sequence in cancelled:
                    cancelled.discard(sequence)
                    continue
                self._now = time
                callback()
                executed += 1
            if until is not None:
                next_time = self._queue.peek_time()
                if next_time is None or next_time >= until:
                    self._now = max(self._now, until)
        finally:
            self._processed += executed
            self._running = False
        return self._now

    def reset(self) -> None:
        """Clear all pending events, rewind the clock and the packet ids."""
        self._queue.clear()
        self._now = 0.0
        self._processed = 0
        self.packet_ids = itertools.count()
