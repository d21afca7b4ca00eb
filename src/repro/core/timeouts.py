"""Adaptive timeout policy (Section 3.5).

SpotLess does not use the traditional exponential back-off: consecutive
timeouts of the same timer in consecutive views increase the interval by a
constant ε, and receiving the awaited message within half the interval
halves it.  This keeps the timeout close to the true message delay, which is
what gives SpotLess its stable post-failure throughput (Figure 12) compared
to RCC's exponential penalty mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The constant ε (seconds) a SpotLess timer grows by after a timeout.
TIMEOUT_INCREMENT = 0.01


@dataclass
class AdaptiveTimeout:
    """One adaptively adjusted timeout interval.

    Parameters
    ----------
    initial:
        Starting interval in seconds.
    increment:
        The constant ε added after each consecutive timeout.
    fast_fraction:
        If the awaited message arrives within ``fast_fraction * interval``,
        the interval is halved.
    minimum:
        Lower bound of the interval.
    maximum:
        Upper bound (guards against unbounded growth during long partitions).
    floor_factor:
        Halving never takes the interval below ``floor_factor`` times the
        observed waiting time, so the timeout stays a safe margin above the
        actual message delay instead of collapsing onto it.
    """

    initial: float
    increment: float = TIMEOUT_INCREMENT
    fast_fraction: float = 0.5
    minimum: float = 0.001
    maximum: float = 60.0
    floor_factor: float = 4.0
    observation_decay: float = 0.9
    _interval: float = field(init=False)
    _observed_delay: float = field(init=False, default=0.0)
    consecutive_timeouts: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.initial <= 0:
            raise ValueError("initial timeout must be positive")
        if self.increment < 0:
            raise ValueError("increment cannot be negative")
        if not 0 < self.fast_fraction <= 1:
            raise ValueError("fast_fraction must be within (0, 1]")
        self._interval = min(max(self.initial, self.minimum), self.maximum)

    @property
    def interval(self) -> float:
        """Current timeout interval in seconds."""
        return self._interval

    def on_timeout(self) -> float:
        """Record a timer expiry; the interval grows by the constant ε."""
        self.consecutive_timeouts += 1
        self._interval = min(self.maximum, self._interval + self.increment)
        return self._interval

    def on_progress(self, waited: float) -> float:
        """Record that the awaited message arrived after ``waited`` seconds.

        Resets the consecutive-timeout streak; if the message arrived within
        ``fast_fraction`` of the interval the interval is halved, but never
        below ``floor_factor`` times the recently observed message delay (a
        decayed maximum over past waits), so one unusually fast view cannot
        collapse the timeout onto the network delay.
        """
        self.consecutive_timeouts = 0
        self._observed_delay = max(waited, self._observed_delay * self.observation_decay)
        if waited <= self._interval * self.fast_fraction:
            halved = self._interval / 2.0
            floor = max(self.minimum, self._observed_delay * self.floor_factor)
            self._interval = min(self.maximum, max(floor, halved))
        return self._interval

    def reset(self) -> None:
        """Restore the initial interval and forget the observed delay."""
        self._interval = min(max(self.initial, self.minimum), self.maximum)
        self._observed_delay = 0.0
        self.consecutive_timeouts = 0


@dataclass
class ExponentialBackoff:
    """Classic exponential back-off, used by the PBFT/RCC baselines.

    Provided here so ablation benchmarks can swap the policies and measure
    the stability difference the paper attributes to the constant-ε rule.
    """

    initial: float
    factor: float = 2.0
    maximum: float = 60.0
    _interval: float = field(init=False)
    consecutive_timeouts: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.initial <= 0:
            raise ValueError("initial timeout must be positive")
        if self.factor < 1.0:
            raise ValueError("factor must be at least 1")
        self._interval = self.initial

    @property
    def interval(self) -> float:
        """Current timeout interval in seconds."""
        return self._interval

    def on_timeout(self) -> float:
        """Double (by ``factor``) the interval after an expiry."""
        self.consecutive_timeouts += 1
        self._interval = min(self.maximum, self._interval * self.factor)
        return self._interval

    def on_progress(self, waited: float) -> float:
        """Reset the interval once progress is observed."""
        self.consecutive_timeouts = 0
        self._interval = self.initial
        return self._interval

    def reset(self) -> None:
        """Restore the initial interval."""
        self._interval = self.initial
        self.consecutive_timeouts = 0


__all__ = ["AdaptiveTimeout", "ExponentialBackoff"]
