"""Adaptive timeout policy (Section 3.5).

SpotLess does not use the traditional exponential back-off: consecutive
timeouts of the same timer in consecutive views increase the interval by a
constant ε, and receiving the awaited message within half the interval
halves it.  This keeps the timeout close to the true message delay, which is
what gives SpotLess its stable post-failure throughput (Figure 12) compared
to RCC's exponential penalty mechanism.  The back-off it is measured against
exists only as the timeout ablation's timer (:mod:`repro.bench.ablations`).

A view has two timers.  t_R awaits the primary's proposal.  t_A awaits the
view's n − f same-claim Sync quorum, and claim(∅) counts as a claim: under
a crashed primary, the live replicas' failure claims are that quorum.  Every
view that ends on its quorum credits t_A, whether the quorum completes
while the view is still Syncing (before t_A is armed, as in every healthy
view) or in Certifying.  t_A therefore expires, and grows by ε, only in a
view whose claims are split so that no claim reaches n − f (some replicas
claim the proposal, the rest claim ∅).
"""

from __future__ import annotations

#: The constant ε (seconds) a SpotLess timer grows by after a timeout.
TIMEOUT_INCREMENT = 0.01
#: The awaited message arriving within this fraction of the interval halves it.
FAST_FRACTION = 0.5
#: Bounds of the interval (seconds); the upper one guards against unbounded
#: growth during long partitions.
MINIMUM_TIMEOUT = 0.001
MAXIMUM_TIMEOUT = 60.0
#: Halving never takes the interval below this multiple of the observed
#: waiting time, so the timeout stays a safe margin above the actual message
#: delay instead of collapsing onto it.
FLOOR_FACTOR = 4.0
#: Per-wait decay of the observed waiting time (a decayed maximum).
OBSERVATION_DECAY = 0.9


class AdaptiveTimeout:
    """One adaptively adjusted timeout interval, starting at ``initial`` seconds."""

    def __init__(self, initial: float) -> None:
        if initial <= 0:
            raise ValueError("initial timeout must be positive")
        self._interval = min(max(initial, MINIMUM_TIMEOUT), MAXIMUM_TIMEOUT)
        self._observed_delay = 0.0

    @property
    def interval(self) -> float:
        """Current timeout interval in seconds."""
        return self._interval

    def on_timeout(self) -> float:
        """Record a timer expiry; the interval grows by the constant ε."""
        self._interval = min(MAXIMUM_TIMEOUT, self._interval + TIMEOUT_INCREMENT)
        return self._interval

    def on_progress(self, waited: float) -> float:
        """Record that the awaited message arrived after ``waited`` seconds.

        If the message arrived within ``FAST_FRACTION`` of the interval the
        interval is halved, but never below ``FLOOR_FACTOR`` times the
        recently observed message delay (a decayed maximum over past waits),
        so one unusually fast view cannot collapse the timeout onto the
        network delay.
        """
        self._observed_delay = max(waited, self._observed_delay * OBSERVATION_DECAY)
        if waited <= self._interval * FAST_FRACTION:
            halved = self._interval / 2.0
            floor = max(MINIMUM_TIMEOUT, self._observed_delay * FLOOR_FACTOR)
            self._interval = min(MAXIMUM_TIMEOUT, max(floor, halved))
        return self._interval


__all__ = ["AdaptiveTimeout"]
