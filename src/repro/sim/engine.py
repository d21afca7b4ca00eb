"""Core discrete-event engine.

The engine is a priority queue of heap entries ordered by
``(time, sequence)``.  The sequence number makes the ordering of
simultaneous events deterministic (insertion order), which in turn makes
every simulation run reproducible for a fixed seed.

Two scheduling paths share one queue:

* :meth:`Simulator.schedule` returns a cancellable :class:`Event` handle —
  the path used by timers and anything else that may be cancelled; its
  label is what ``repr(event)`` shows in a debugger.
* :meth:`Simulator.schedule_call` pushes a bare callback and its argument
  tuple — the delivery path: fire-and-forget deliveries allocate no
  :class:`Event`.  :meth:`repro.sim.network.Network.broadcast` pushes the
  same entries onto ``_queue`` itself (advancing ``_seq`` as this method
  does), one frame fewer per receiver.

The heap stores ``(time, seq, callback, args)`` tuples so ordering is
resolved by native tuple comparison on the two leading numbers;
``callback`` and ``args`` are never compared because ``seq`` is unique.  An
:class:`Event` entry holds the event in the ``callback`` slot and ``None``
in the ``args`` slot, so the run loop tells the two paths apart by that one
slot; any other entry fires ``callback(*args)``.

A cancelled event stays in the heap until it reaches the head, unless
cancelled entries come to outnumber live ones: then they are swept out in one
pass (see :data:`_SWEEP_FLOOR`), so a timer re-armed on every message does
not keep thousands of dead entries, each holding its callback, queued behind
a deadline seconds away.  ``(time, seq)`` is a total order, so the
pop order depends on the live entries alone and a sweep never changes a
schedule.  The simulator counts the dead entries still in the heap, not the
live ones: a cancel raises the count, popping or sweeping a dead entry
lowers it, and a push — by far the commonest operation — touches no counter.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


class Event:
    """A single scheduled callback with a cancellable handle.

    Events fire in ``(time, seq)`` order, so ties at the same simulated
    instant fire in insertion order.  Ordering lives in the heap entry tuple,
    not on the event itself.
    """

    __slots__ = ("callback", "label", "cancelled", "executed", "owner")

    def __init__(
        self,
        callback: Callable[[], None],
        label: str = "",
        owner: Optional["Simulator"] = None,
    ) -> None:
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.executed = False
        self.owner = owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(label={self.label!r}, cancelled={self.cancelled!r}, executed={self.executed!r})"

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped.

        Cancelling an event that already fired (or was already cancelled) is
        a no-op, so stale timer handles are safe to cancel.  The owner's dead
        count and its sweep test are done here, in this frame: a timer
        re-armed on every message cancels once per message.
        """
        if self.cancelled or self.executed:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            dead = owner._dead = owner._dead + 1
            if dead > _SWEEP_FLOOR and dead + dead > len(owner._queue):
                owner._sweep_if_mostly_cancelled()


#: A heap entry: ``(time, seq, callback, args)``.  A cancellable entry holds
#: its :class:`Event` as ``callback`` and ``None`` as ``args``; every other
#: entry fires ``callback(*args)``.
_Entry = Tuple[float, int, Any, Optional[Tuple[Any, ...]]]

#: Cancelled entries are swept out of the heap once there are more than this
#: many of them *and* more of them than live entries (the majority rule of
#: ``asyncio``'s timer-handle sweep, whose floor is 100 too).  At or below
#: the floor the heap stays lazy: a sweep costs a pass over the heap, and is
#: only worth it when it at least halves it.
_SWEEP_FLOOR = 100


class Simulator:
    """Deterministic discrete-event simulator.

    Simulated time starts at 0 s.

    Parameters
    ----------
    max_events:
        Safety valve: the run aborts with :class:`SimulationError` if more
        than this many events are processed, which catches accidental
        infinite message loops in protocol code.
    """

    def __init__(self, max_events: int = 50_000_000) -> None:
        self._now = 0.0
        self._queue: list[_Entry] = []
        self._seq = 0
        self._processed = 0
        # Cancelled entries still in the heap; every other entry is live.
        self._dead = 0
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
        """Number of live (not executed, not cancelled) scheduled events:
        the heap's length less the cancelled entries still in it."""
        return len(self._queue) - self._dead

    @property
    def scheduled_events(self) -> int:
        """Raw queue length, including cancelled events not yet removed."""
        return len(self._queue)

    def _sweep_if_mostly_cancelled(self) -> None:
        """Drop every cancelled entry when there are more than
        :data:`_SWEEP_FLOOR` of them and they outnumber the live ones; the
        dead count is then zero.

        The queue is filtered in place because :meth:`run` holds an alias of
        it while callbacks cancel timers.
        """
        queue = self._queue
        dead = self._dead
        if dead > _SWEEP_FLOOR and dead + dead > len(queue):
            queue[:] = [entry for entry in queue if not (entry[3] is None and entry[2].cancelled)]
            heapq.heapify(queue)
            self._dead = 0

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        event = Event(callback, label, self)
        heapq.heappush(self._queue, (self._now + delay, seq, event, None))
        return event

    def schedule_call(
        self,
        delay: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        """Schedule ``callback(*args)`` with no Event allocation.

        The entry cannot be cancelled and carries no label; use
        :meth:`schedule` when a handle is needed.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, callback, args))

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the simulated time at which the run ended.  When ``until`` is
        given, the clock is advanced to ``until`` even if the queue drained
        earlier, so repeated calls to ``run`` observe a monotone clock.
        The head of the heap is peeked before popping, so an entry beyond the
        window is left in place rather than popped and re-pushed on every
        :meth:`run_for` tick; a cancelled entry is popped like any other and
        skipped after the pop.
        """
        queue = self._queue
        heappop = heapq.heappop
        max_events = self._max_events
        while queue:
            time = queue[0][0]
            if until is not None and time > until:
                break
            _, _, callback, args = heappop(queue)
            if args is None:
                if callback.cancelled:
                    self._dead -= 1
                    continue
                callback.executed = True
                callback = callback.callback
                args = ()
            if time < self._now:
                raise SimulationError("event queue went backwards in time")
            self._now = time
            self._processed += 1
            if self._processed > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; "
                    "likely an unbounded message loop"
                )
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
