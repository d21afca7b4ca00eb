"""Deterministic discrete-event simulation substrate.

The simulator replaces the cloud testbed used by the paper.  It charges a
message two things and nothing else:

* NIC serialisation at the sender — ``size / bandwidth`` on a FIFO per node,
  so a large fan-out queues behind itself — and
* link delay plus jitter (multi-region topologies give intra- and
  inter-region links different delays),

and may lose it to a crashed end or to a partition's or an attack's
drop rule.  It models **no CPU**: handling, hashing and the paper's MACs and
signatures take zero simulated time.  Those costs exist only in the
analytical model; see EXPERIMENTS.md, "What the simulator charges".

Protocol replicas are written as :class:`~repro.sim.actor.Actor` subclasses
that exchange messages through a :class:`~repro.sim.network.Network`.  The
engine itself (:class:`~repro.sim.engine.Simulator`) is a classic calendar
queue of timestamped events and is fully deterministic for a given seed.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.actor import Actor, Timer
from repro.sim.network import LinkSpec, Network, NetworkConfig, Partition, RegionTopology
from repro.sim.metrics import Counter, Histogram, MetricsRegistry, TimeSeries
from repro.sim.rng import DeterministicRng

__all__ = [
    "Actor",
    "Counter",
    "DeterministicRng",
    "Event",
    "Histogram",
    "LinkSpec",
    "MetricsRegistry",
    "Network",
    "NetworkConfig",
    "Partition",
    "RegionTopology",
    "Simulator",
    "TimeSeries",
    "Timer",
]
