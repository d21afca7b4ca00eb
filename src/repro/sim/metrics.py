"""Measurement probes used by experiments.

The registry mirrors the measurements reported in the paper: throughput is
the number of executed transactions per second of simulated time and latency
is the client-observed time between submitting a transaction and receiving
f + 1 matching Inform responses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest rank: sample ``ceil(fraction * n) - 1`` of ascending samples, 0.0 of none."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))]


class Counter:
    """Monotone event counter.

    Counters track discrete events, so accumulation starts as an exact
    ``int`` and stays integral as long as only integral amounts are added.
    Recording a fractional amount (e.g. fractional byte estimates) promotes
    the value to ``float`` through ordinary numeric widening — callers that
    only ever count events get exact integer totals with no float drift.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def increment(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` to the counter."""
        self.value += amount

    def reset(self) -> None:
        """Reset the counter to zero."""
        self.value = 0


class Histogram:
    """Collects scalar samples and reports summary statistics."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        self._samples.append(value)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def samples(self) -> Tuple[float, ...]:
        """All recorded samples in insertion order."""
        return tuple(self._samples)

    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile, ``fraction`` in [0, 1]."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        return percentile(sorted(self._samples), fraction)

    def maximum(self) -> float:
        """Largest sample (0.0 when empty)."""
        return max(self._samples) if self._samples else 0.0

    def reset(self) -> None:
        """Discard all samples."""
        self._samples.clear()


@dataclass
class TimeSeries:
    """Samples bucketed by simulated time, e.g. the Figure 12 timeline."""

    name: str
    bucket_width: float
    _buckets: Dict[int, float] = field(default_factory=dict)

    def record(self, time: float, amount: float = 1.0) -> None:
        """Add ``amount`` to the bucket containing ``time``."""
        self.record_in_bucket(int(time // self.bucket_width), amount)

    def record_in_bucket(self, index: int, amount: float = 1.0) -> None:
        """Add ``amount`` to bucket ``index``, the one starting at
        ``index * bucket_width``: a sampler that counts its ticks names the
        bucket exactly, where ``time // width`` can round a tick down."""
        self._buckets[index] = self._buckets.get(index, 0.0) + amount

    def buckets(self) -> List[Tuple[float, float]]:
        """Return ``(bucket_start_time, total)`` pairs sorted by time."""
        return [(index * self.bucket_width, total) for index, total in sorted(self._buckets.items())]

    def total(self) -> float:
        """Sum of every recorded amount across all buckets."""
        return sum(self._buckets.values())

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation: name, bucket width, buckets."""
        return {
            "name": self.name,
            "bucket_width": self.bucket_width,
            "total": self.total(),
            "buckets": [[start, total] for start, total in self.buckets()],
        }


class MetricsRegistry:
    """Container of named counters, histograms and time series."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name``."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def time_series(self, name: str, bucket_width: float = 5.0) -> TimeSeries:
        """Get or create the time series called ``name``."""
        if name not in self._series:
            self._series[name] = TimeSeries(name=name, bucket_width=bucket_width)
        return self._series[name]

    def counters(self) -> Iterable[Counter]:
        """All registered counters."""
        return self._counters.values()

    def snapshot(self) -> Dict[str, float]:
        """Flat dictionary of every probe's summary statistics.

        Counters export their (exact) value; histograms export mean, count,
        nearest-rank p50/p99 and the max; time series export their summed
        total.  Trace summaries and scenario rows share this one export
        path, so the keys are stable API.
        """
        values: Dict[str, float] = {}
        for name, counter in self._counters.items():
            values[name] = counter.value
        for name, histogram in self._histograms.items():
            values[f"{name}.mean"] = histogram.mean()
            values[f"{name}.count"] = float(histogram.count)
            values[f"{name}.p50"] = histogram.percentile(0.50)
            values[f"{name}.p99"] = histogram.percentile(0.99)
            values[f"{name}.max"] = histogram.maximum()
        for name, series in self._series.items():
            values[f"{name}.total"] = series.total()
        return values

    def series(self) -> Iterable[TimeSeries]:
        """All registered time series."""
        return self._series.values()

    def reset(self) -> None:
        """Reset every registered probe."""
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()
        self._series.clear()


__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "percentile",
]
