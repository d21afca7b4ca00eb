"""Actor base class binding protocol logic to the simulator.

Protocol replicas and clients subclass :class:`Actor` and implement
``on_message``.  The base class provides deterministic timers and the
network's ``send`` / ``broadcast`` with the actor bound as the sender.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

from repro.sim.engine import Event, Simulator
from repro.sim.network import Network


class Timer:
    """A cancellable, restartable timer owned by an actor."""

    __slots__ = ("_simulator", "name", "_callback", "_event", "_label")

    def __init__(self, simulator: Simulator, name: str, callback: Callable[[], None]) -> None:
        self._simulator = simulator
        self.name = name
        self._callback = callback
        self._event: Optional[Event] = None
        self._label = f"timer:{name}"

    @property
    def running(self) -> bool:
        """True while the timer is armed and not yet fired or cancelled."""
        return self._event is not None and not self._event.cancelled

    def start(self, interval: float) -> None:
        """Arm (or re-arm) the timer to fire ``interval`` seconds from now."""
        event = self._event
        if event is not None:
            event.cancel()
        self._event = self._simulator.schedule(interval, self._fire, label=self._label)

    def cancel(self) -> None:
        """Disarm the timer if it is running."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class Actor:
    """A node participating in the simulation.

    Subclasses implement :meth:`on_message`; faults are injected either by
    the network (drops/partitions) or by wrapping the actor with a behaviour
    from :mod:`repro.faults`.
    """

    __slots__ = (
        "node_id",
        "simulator",
        "network",
        "_timers",
        "_default_label",
        "tracer",
        "send",
        "broadcast",
    )

    def __init__(self, node_id: int, simulator: Simulator, network: Network) -> None:
        self.node_id = node_id
        self.simulator = simulator
        self.network = network
        self._timers: Dict[str, Timer] = {}
        self._default_label = f"actor:{node_id}"
        # Observability hook (repro.obs.Tracer).  None means tracing is
        # disabled: every instrumentation point guards on exactly this one
        # attribute so the disabled hot path costs a single load + is-check.
        self.tracer = None
        # ``send(receiver, payload, size_bytes)`` and ``broadcast(receivers,
        # payload, size_bytes)``: the network's own, with this actor as the
        # sender; bound once, so a message pays no forwarding frame.
        self.send = partial(network.send, node_id)
        self.broadcast = partial(network.broadcast, node_id)
        network.register(self)

    # -- messaging -------------------------------------------------------

    def on_message(self, sender: int, payload: object) -> None:
        """Handle a delivered message; overridden by protocol classes.

        ``Network`` calls it straight from the event heap; the
        ``network.messages_*`` counters of the metrics registry count what
        is sent and delivered.
        """
        raise NotImplementedError

    # -- timers ----------------------------------------------------------

    def timer(self, name: str, callback: Optional[Callable[[], None]] = None) -> Timer:
        """Get or create the named timer.

        The callback is bound the first time the timer is created; later
        calls may omit it.
        """
        if name not in self._timers:
            if callback is None:
                raise KeyError(f"timer {name!r} does not exist and no callback was given")
            self._timers[name] = Timer(self.simulator, f"{self.node_id}:{name}", callback)
        return self._timers[name]

    # -- scheduling ------------------------------------------------------

    def call_later(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule a local callback ``delay`` seconds from now."""
        return self.simulator.schedule(delay, callback, label=label or self._default_label)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.simulator.now


__all__ = ["Actor", "Timer"]
