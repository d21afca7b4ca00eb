"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.actor import Timer
from repro.sim.engine import _SWEEP_FLOOR, Event, SimulationError, Simulator
from repro.sim.network import Network, NetworkConfig


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(0.5, lambda: order.append("b"))
    sim.schedule(0.1, lambda: order.append("a"))
    sim.schedule(0.9, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_break_ties_by_insertion():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("first"))
    sim.schedule(1.0, lambda: order.append("second"))
    sim.schedule(1.0, lambda: order.append("third"))
    sim.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 5]


def test_run_for_advances_relative_to_current_time():
    sim = Simulator()
    sim.run_for(3.0)
    assert sim.now == 3.0
    sim.run_for(2.0)
    assert sim.now == 5.0


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append("x"))
    event.cancel()
    sim.run()
    assert fired == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer")
        sim.schedule(0.5, lambda: order.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 1.5


def test_max_events_guard_detects_runaway_loops():
    sim = Simulator(max_events=100)

    def rearm():
        sim.schedule(0.001, rearm)

    sim.schedule(0.001, rearm)
    with pytest.raises(SimulationError):
        sim.run(until=100.0)


def test_processed_and_pending_event_counters():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.run(until=1.5)
    assert sim.processed_events == 1


def test_drain_cancels_a_batch_of_events():
    sim = Simulator()
    fired = []
    events = [sim.schedule(1.0, lambda: fired.append("x")) for _ in range(5)]
    sim.drain(events)
    sim.run()
    assert fired == []


def test_pending_events_excludes_cancelled_events():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    victim = sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    victim.cancel()
    assert sim.pending_events == 1
    # Cancelled events stay queued until lazily removed...
    assert sim.scheduled_events == 2
    # ...and double-cancel does not corrupt the live count.
    victim.cancel()
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0
    # Cancelling an event that already fired is a harmless no-op.
    keep.cancel()
    assert sim.pending_events == 0


def test_pending_events_tracks_window_pushback():
    sim = Simulator()
    # A cancelled event heads the queue: the run loop must drop it lazily
    # before the window check, then leave the 5.0 event in place (peeked,
    # not popped) because it lies beyond the window.
    head = sim.schedule(1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    head.cancel()
    sim.run(until=2.0)
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0


# ----------------------------------------------------------------------
# cancelled entries leave the heap; the schedule does not notice
# ----------------------------------------------------------------------


def test_cancelled_entries_are_swept_once_they_outnumber_the_live_ones():
    sim = Simulator()
    keep = [sim.schedule(5.0, lambda: None) for _ in range(10)]
    doomed = [sim.schedule(2.0, lambda: None) for _ in range(_SWEEP_FLOOR + 1)]
    sim.drain(doomed[:-1])
    # At the floor the heap stays lazy...
    assert sim.scheduled_events == len(keep) + len(doomed)
    assert sim.pending_events == len(keep) + 1
    # ...one more cancel and every cancelled entry goes in a single pass.
    doomed[-1].cancel()
    assert sim.scheduled_events == sim.pending_events == len(keep)
    sim.run()
    assert sim.processed_events == len(keep)


def test_an_event_entry_holds_no_args_and_a_sweep_keeps_exactly_the_live_entries():
    sim = Simulator()
    fired = []
    calls = [(1.0 + index, fired.append, (index,)) for index in range(5)]
    for delay, callback, args in calls:
        sim.schedule_call(delay, callback, args)
    kept = [sim.schedule(3.0, lambda: None) for _ in range(5)]
    doomed = [sim.schedule(2.0, lambda: None) for _ in range(_SWEEP_FLOOR + 1)]
    # One entry shape: an Event sits in the callback slot over None args.
    events = {id(entry[2]): entry for entry in sim._queue if entry[3] is None}
    assert len(events) == len(kept) + len(doomed)
    assert all(entry[2].__class__ is Event for entry in events.values())
    live = sorted(
        [entry for entry in sim._queue if entry[3] is not None] + [events[id(event)] for event in kept]
    )
    # The last cancel crosses the floor with a dead majority: one sweep.
    sim.drain(doomed)
    assert sorted(sim._queue) == live
    assert [(time, callback, args) for time, _, callback, args in live if args is not None] == calls


def test_a_majority_of_live_entries_keeps_the_heap_lazy():
    sim = Simulator()
    for _ in range(3 * _SWEEP_FLOOR):
        sim.schedule_call(1.0, lambda: None)
    sim.drain([sim.schedule(2.0, lambda: None) for _ in range(2 * _SWEEP_FLOOR)])
    assert sim.scheduled_events == 5 * _SWEEP_FLOOR
    # Executing the live entries tips the balance; run() sweeps as it returns.
    sim.run(until=1.5)
    assert sim.scheduled_events == sim.pending_events == 0


class _ReferenceSimulator:
    """The engine's contract without a heap: the live entries, sorted by
    ``(time, seq)`` whenever one is wanted.  A cancelled entry is
    removed on the spot, so there is nothing to sweep and nothing to skip.
    ``_now``, ``_seq`` and ``_queue`` are what ``Network.broadcast`` reads and
    writes; an entry it appends is ``(time, seq, callback, args)``, the shape
    every entry here has."""

    class _Handle:
        def __init__(self, owner, entry):
            self._owner, self._entry, self.cancelled = owner, entry, False

        def cancel(self):
            if not self.cancelled and self._entry in self._owner._live:
                self._owner._live.remove(self._entry)
            self.cancelled = True

    def __init__(self):
        self.now = 0.0
        self.processed_events = 0
        self._seq = 0
        self._live = []

    @property
    def pending_events(self):
        return len(self._live)

    @property
    def _now(self):
        return self.now

    @property
    def _queue(self):
        return self._live

    def schedule(self, delay, callback, *, label=""):
        return self._push(delay, callback, ())

    def schedule_call(self, delay, callback, args=()):
        self._push(delay, callback, args)

    def _push(self, delay, callback, args):
        entry = (self.now + delay, self._seq, callback, args)
        self._seq += 1
        self._live.append(entry)
        return self._Handle(self, entry)

    def drain(self, handles):
        for handle in handles:
            handle.cancel()

    def run_for(self, duration):
        until = self.now + duration
        while self._live:
            entry = min(self._live, key=lambda e: e[:2])
            if entry[0] > until:
                break
            self._live.remove(entry)
            self.now = entry[0]
            self.processed_events += 1
            entry[2](*entry[3])
        self.now = until


#: More re-arms than the sweep floor, so a burst crosses it inside run().
_BURST = _SWEEP_FLOOR + 20


class _Sink:
    """A network node that logs what is delivered to it."""

    def __init__(self, node_id, fired):
        self.node_id, self._fired = node_id, fired

    def on_message(self, sender, payload):
        self._fired.append((payload, sender, self.node_id))


def _drive(sim, operations):
    """Apply ``operations`` to ``sim``; the observable trace of the run."""
    fired = []
    handles = []
    timers = [Timer(sim, f"t{index}", lambda index=index: fired.append(("timer", index))) for index in range(3)]
    trace = []
    # A fan-out pushes its deliveries onto the heap itself, not through
    # schedule_call; a slow NIC spreads them over the window.
    network = Network(sim, NetworkConfig(base_delay=0.1, jitter=0.0, bandwidth_bytes_per_sec=1000.0))
    for node in range(4):
        network.register(_Sink(node, fired))

    def burst(tag):
        # What a replica does on every message: re-arm a deadline.  Each
        # re-arm cancels the entry of the one before.
        fired.append(("burst", tag))
        for step in range(_BURST):
            timers[tag % 3].start(1.0 + step * 1e-3)

    for number, (kind, index, delay) in enumerate(operations):
        if kind == "schedule":
            handles.append(sim.schedule(delay, lambda number=number: fired.append(("event", number))))
        elif kind == "call":
            sim.schedule_call(delay, fired.append, (("call", number),))
        elif kind == "burst":
            sim.schedule_call(delay, burst, (number,))
        elif kind == "fanout":
            network.broadcast(index % 4, range(4), ("fanout", number), 10 * (index + 1))
        elif kind == "start":
            timers[index % 3].start(delay)
        elif kind == "stop":
            timers[index % 3].cancel()
        elif kind == "cancel" and handles:
            handles[index % len(handles)].cancel()
        elif kind == "drain":
            sim.drain(handles[index % (len(handles) + 1):])
        elif kind == "run":
            sim.run_for(delay)
            trace.append((len(fired), sim.now, sim.processed_events, sim.pending_events))
            if isinstance(sim, Simulator):
                assert sim.scheduled_events <= 2 * sim.pending_events + _SWEEP_FLOOR
    sim.run_for(10.0)
    return fired, trace, sim.processed_events, sim.pending_events


_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["schedule", "call", "burst", "fanout", "start", "stop", "cancel", "drain", "run"]),
        st.integers(min_value=0, max_value=50),
        st.sampled_from([0.0, 0.1, 0.25, 0.25, 0.5, 1.0, 2.5]),
    ),
    max_size=40,
)


@given(_OPERATIONS)
@example([("start", 0, 2.5), ("burst", 0, 0.1), ("call", 0, 0.5), ("run", 0, 0.25), ("run", 0, 1.0)])
@example([("schedule", 0, 0.5)] * 150 + [("schedule", 0, 2.5), ("drain", 1, 0.0), ("run", 0, 1.0)])
@example([("start", 1, 0.25), ("burst", 1, 0.1), ("fanout", 7, 0.0), ("run", 0, 0.25), ("fanout", 2, 0.0)])
@settings(max_examples=150, deadline=None)
def test_any_interleaving_fires_what_a_sorted_list_of_live_entries_would(operations):
    assert _drive(Simulator(), operations) == _drive(_ReferenceSimulator(), operations)
