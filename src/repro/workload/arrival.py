"""Client load models and the time-varying load DSL.

The throughput-latency experiments (Figures 7(c), 9 and 10) vary "the speed
by which each primary receives client requests" — an open-loop offered rate —
while the remaining experiments saturate the system with a closed loop of
clients that always have the next request ready.

One arrival schedule lives here (:meth:`LoadProfile.constant` is plain Poisson):

* **The load DSL** — :class:`LoadPhase` schedules (``ramp``/``hold``/
  ``spike``) composed into a :class:`LoadProfile`, the declarative
  time-varying offered-rate curve the open-loop client pool
  (:class:`repro.core.client.OpenLoopClientPool`) drives.  Profiles are
  plain frozen data with a stable JSON form, so scenario specs embedding
  them stay replayable byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.codec import JsonRecord

#: Phase shapes understood by :class:`LoadProfile`.
PHASE_SHAPES = ("ramp", "hold", "spike")


@dataclass(frozen=True)
class LoadPhase(JsonRecord):
    """One schedule segment of a time-varying load profile.

    ``shape`` is one of :data:`PHASE_SHAPES`:

    * ``ramp`` — the offered rate moves linearly from the previous phase's
      ending rate (0 at the start of the profile) to ``rate`` over
      ``duration`` seconds — the BRAD-style scale-up sweep;
    * ``hold`` — the rate stays at ``rate`` for ``duration`` seconds;
    * ``spike`` — like ``hold`` (the rate jumps immediately to ``rate``)
      but labelled as a deliberate overload window, which the offered-load
      experiment and the SLO oracle report per phase.
    """

    shape: str
    rate: float
    duration: float

    def __post_init__(self) -> None:
        if self.shape not in PHASE_SHAPES:
            raise ValueError(f"unknown phase shape {self.shape!r}; choose one of {PHASE_SHAPES}")
        if self.rate < 0:
            raise ValueError("phase rate cannot be negative")
        if self.duration <= 0:
            raise ValueError("phase duration must be positive")

    def label(self) -> str:
        """Compact description, e.g. ``ramp->2000/s over 0.5s``."""
        return f"{self.shape}->{self.rate:g}/s over {self.duration:g}s"


@dataclass(frozen=True)
class LoadProfile(JsonRecord):
    """A composable time-varying offered-rate curve: a sequence of phases.

    ``rate_at(t)`` is the piecewise curve the open-loop client pool samples
    arrivals from; beyond the last phase the rate is 0 (the profile
    quiesces, which is what lets an overload run end with a drained,
    recovered system).
    """

    phases: Tuple[LoadPhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a load profile needs at least one phase")
        if all(phase.rate == 0 for phase in self.phases):
            raise ValueError("a load profile must offer load in at least one phase")

    @classmethod
    def constant(cls, rate: float, duration: float) -> "LoadProfile":
        """A single hold phase: the fixed-rate open-loop workload."""
        return cls(phases=(LoadPhase(shape="hold", rate=rate, duration=duration),))

    def duration(self) -> float:
        """Total length of the schedule in seconds."""
        return sum(phase.duration for phase in self.phases)

    def peak_rate(self) -> float:
        """Largest instantaneous rate anywhere in the schedule."""
        return max(phase.rate for phase in self.phases)

    def rate_at(self, time: float) -> float:
        """Instantaneous offered rate at ``time`` seconds into the schedule."""
        if time < 0:
            return 0.0
        start = 0.0
        previous_rate = 0.0
        for phase in self.phases:
            end = start + phase.duration
            if time < end:
                if phase.shape == "ramp":
                    fraction = (time - start) / phase.duration
                    return previous_rate + (phase.rate - previous_rate) * fraction
                return phase.rate
            start = end
            previous_rate = phase.rate
        return 0.0

    def phase_windows(self) -> Tuple[Tuple[float, float, LoadPhase], ...]:
        """``(start, end, phase)`` for every phase, in schedule order."""
        windows = []
        start = 0.0
        for phase in self.phases:
            end = start + phase.duration
            windows.append((start, end, phase))
            start = end
        return tuple(windows)

    def label(self) -> str:
        """Compact description of the whole schedule."""
        return " + ".join(phase.label() for phase in self.phases)


def overload_profile(
    base_rate: float,
    spike_rate: float,
    ramp: float,
    hold: float,
    spike: float,
    drain: float,
    recovery: float,
) -> LoadProfile:
    """The canonical overload-and-recover schedule.

    Ramp to ``base_rate``, hold, spike to ``spike_rate`` (past saturation),
    ramp back down, then two more holds at the base rate: a ``drain`` window
    in which the spike's backlog clears, and a ``recovery`` window that must
    look steady-state again — measuring them separately is what lets the
    offered-load sweep (and the SLO oracle) show recovery as a clean
    operating point instead of averaging it into the drain.
    """
    if spike_rate <= base_rate:
        raise ValueError("spike_rate must exceed base_rate")
    return LoadProfile(
        phases=(
            LoadPhase(shape="ramp", rate=base_rate, duration=ramp),
            LoadPhase(shape="hold", rate=base_rate, duration=hold),
            LoadPhase(shape="spike", rate=spike_rate, duration=spike),
            LoadPhase(shape="ramp", rate=base_rate, duration=ramp),
            LoadPhase(shape="hold", rate=base_rate, duration=drain),
            LoadPhase(shape="hold", rate=base_rate, duration=recovery),
        )
    )


__all__ = [
    "LoadPhase",
    "LoadProfile",
    "PHASE_SHAPES",
    "overload_profile",
]
