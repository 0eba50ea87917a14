"""Event handles and the future-event list of the discrete-event engine."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

__all__ = ["Event", "EventQueue"]


class Event:
    """Handle of one scheduled callback.

    The heap itself holds plain ``(time, sequence, callback)`` tuples, so
    events compare by ``(time, sequence)`` without a Python-level
    ``__lt__``: simultaneous events run in the order they were scheduled,
    which keeps runs deterministic.  A handle is only built for
    :meth:`EventQueue.push` and :meth:`EventQueue.pop` callers.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "_queue")

    def __init__(self, time: float, sequence: int, callback: Callable[[], Any],
                 queue: "EventQueue") -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped."""
        if not self.cancelled:
            self.cancelled = True
            self._queue._cancel(self.sequence)


class EventQueue:
    """A binary-heap future-event list with lazy cancellation.

    ``_heap`` holds ``(time, sequence, callback)`` tuples; ``_cancelled``
    holds the sequence numbers of cancelled entries still on the heap.
    Cancelled entries are skipped when they reach the top, and the set is
    only consulted while it is non-empty.  :class:`Simulator` pushes into
    and pops from the same heap directly.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], Any]]] = []
        self._cancelled: set[int] = set()
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap) - len(self._cancelled)

    def push(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return its handle."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        sequence = next(self._counter)
        heapq.heappush(self._heap, (time, sequence, callback))
        return Event(time, sequence, callback, self)

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        time, sequence, callback = heapq.heappop(self._heap)
        return Event(time, sequence, callback, self)

    def peek_time(self) -> Optional[float]:
        """Time of the earliest non-cancelled event, or ``None`` when empty."""
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._cancelled.clear()

    def _drop_cancelled_head(self) -> None:
        heap, cancelled = self._heap, self._cancelled
        while cancelled and heap and heap[0][1] in cancelled:
            cancelled.discard(heapq.heappop(heap)[1])

    def _cancel(self, sequence: int) -> None:
        # Cancelling is rare, so a linear scan keeps the set limited to
        # entries still on the heap (an event that already ran is ignored).
        if any(entry[1] == sequence for entry in self._heap):
            self._cancelled.add(sequence)
