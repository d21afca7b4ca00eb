"""Core discrete-event engine.

The engine is a priority queue of heap entries ordered by
``(time, priority, sequence)``.  The sequence number makes the ordering of
simultaneous events deterministic, which in turn makes every simulation run
reproducible for a fixed seed.

Two scheduling paths share one queue:

* :meth:`Simulator.schedule` returns a cancellable :class:`Event` handle —
  the path used by timers and anything else that may be cancelled; its
  label is what ``repr(event)`` shows in a debugger.
* :meth:`Simulator.schedule_call` pushes a bare ``(callback, args)`` pair —
  the delivery path: fire-and-forget deliveries allocate no :class:`Event`.
  :meth:`repro.sim.network.Network.broadcast` pushes the same entries onto
  ``_queue`` itself (advancing ``_seq`` and ``_live`` as this method does),
  one frame fewer per receiver of a fan-out.

The heap stores ``(time, priority, seq, item)`` tuples so ordering is
resolved by native tuple comparison on the three leading numbers; ``item``
(an :class:`Event` or a ``(callback, args)`` pair) is never compared because
``seq`` is unique.

A cancelled event stays in the heap until it reaches the head, unless
cancelled entries come to outnumber live ones: then they are swept out in one
pass (see :data:`_SWEEP_FLOOR`), so a timer re-armed on every message does
not keep thousands of dead entries, each holding its callback, queued behind
a deadline seconds away.  ``(time, priority, seq)`` is a total order, so the
pop order depends on the live entries alone and a sweep never changes a
schedule.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


class Event:
    """A single scheduled callback with a cancellable handle.

    Events fire in ``(time, priority, seq)`` order so that ties at the same
    simulated instant are broken first by explicit priority and then by
    insertion order.  Ordering lives in the heap entry tuple, not on the
    event itself.
    """

    __slots__ = ("time", "priority", "seq", "callback", "label", "cancelled", "executed", "owner")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        label: str = "",
        owner: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.executed = False
        self.owner = owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, seq={self.seq!r}, "
            f"label={self.label!r}, cancelled={self.cancelled!r}, executed={self.executed!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped.

        Cancelling an event that already fired (or was already cancelled) is
        a no-op, so stale timer handles are safe to cancel.
        """
        if self.cancelled or self.executed:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled()


#: A heap entry: ``(time, priority, seq, item)`` where ``item`` is either an
#: :class:`Event` or a bare ``(callback, args)`` fast-path pair.
_Entry = Tuple[float, int, int, Any]

#: Cancelled entries are swept out of the heap once there are more than this
#: many of them *and* more of them than live entries (the majority rule of
#: ``asyncio``'s timer-handle sweep, whose floor is 100 too).  At or below
#: the floor the heap stays lazy: a sweep costs a pass over the heap, and is
#: only worth it when it at least halves it.
_SWEEP_FLOOR = 100


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial simulated time in seconds.
    max_events:
        Safety valve: the run aborts with :class:`SimulationError` if more
        than this many events are processed, which catches accidental
        infinite message loops in protocol code.
    """

    def __init__(self, start_time: float = 0.0, max_events: int = 50_000_000) -> None:
        self._now = start_time
        self._queue: list[_Entry] = []
        self._seq = 0
        self._processed = 0
        self._live = 0
        self._max_events = max_events

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of live (not executed, not cancelled) scheduled events."""
        return self._live

    @property
    def scheduled_events(self) -> int:
        """Raw queue length, including cancelled events not yet removed."""
        return len(self._queue)

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._sweep_if_mostly_cancelled()

    def _sweep_if_mostly_cancelled(self) -> None:
        """Drop every cancelled entry when they outnumber the live ones.

        The queue is filtered in place because :meth:`run` holds an alias of
        it while callbacks cancel timers.
        """
        queue = self._queue
        cancelled = len(queue) - self._live
        if cancelled > _SWEEP_FLOOR and cancelled > self._live:
            event_cls = Event
            queue[:] = [
                entry for entry in queue
                if not (entry[3].__class__ is event_cls and entry[3].cancelled)
            ]
            heapq.heapify(queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        time = self._now + delay
        event = Event(time, priority, seq, callback, label, self)
        heapq.heappush(self._queue, (time, priority, seq, event))
        self._live += 1
        return event

    def schedule_call(
        self,
        delay: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        *,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` with no Event allocation.

        The entry cannot be cancelled and carries no label; use
        :meth:`schedule` when a handle is needed.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, priority, seq, (callback, args)))
        self._live += 1

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the simulated time at which the run ended.  When ``until`` is
        given, the clock is advanced to ``until`` even if the queue drained
        earlier, so repeated calls to ``run`` observe a monotone clock.
        The head of the heap is peeked before popping, so an event beyond the
        window is left in place rather than popped and re-pushed on every
        :meth:`run_for` tick.
        """
        queue = self._queue
        heappop = heapq.heappop
        event_cls = Event
        max_events = self._max_events
        while True:
            # Drop cancelled heads lazily so the window check below peeks at
            # a live entry.
            while queue:
                head_item = queue[0][3]
                if head_item.__class__ is event_cls and head_item.cancelled:
                    heappop(queue)
                else:
                    break
            if not queue:
                break
            time = queue[0][0]
            if until is not None and time > until:
                break
            item = heappop(queue)[3]
            self._live -= 1
            if time < self._now:
                raise SimulationError("event queue went backwards in time")
            self._now = time
            self._processed += 1
            if self._processed > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; "
                    "likely an unbounded message loop"
                )
            if item.__class__ is event_cls:
                item.executed = True
                item.callback()
            else:
                callback, args = item
                callback(*args)
        # Executing events shrinks the live set without a cancel to notice it.
        self._sweep_if_mostly_cancelled()
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_for(self, duration: float) -> float:
        """Run for ``duration`` simulated seconds from the current time."""
        return self.run(until=self._now + duration)

    def drain(self, events: Iterable[Event]) -> None:
        """Cancel a collection of previously scheduled events."""
        for event in events:
            event.cancel()


__all__ = ["Event", "SimulationError", "Simulator"]
