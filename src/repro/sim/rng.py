"""Deterministic random number generation helpers.

Every stochastic decision in the simulator (latency jitter, workload key
choice, client arrival times, fault timing) draws from a
:class:`DeterministicRng` that is derived from a single experiment seed, so a
run is reproducible bit-for-bit and independent sub-streams do not interfere
with each other.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Optional, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A named, seedable random stream.

    Sub-streams created through :meth:`fork` are independent of each other
    and of the parent: forking derives a new seed from the parent seed and
    the child name, so adding a new consumer of randomness does not perturb
    the draws seen by existing consumers.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self._seed = seed
        self._name = name
        self._random = random.Random(self._derive(seed, name))
        # Bind the two hot draws straight to the underlying stream: the
        # network samples jitter (and loss) per message, and the instance
        # attribute shadows the delegating method below, skipping a frame.
        self.uniform = self._random.uniform
        self.random = self._random.random

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        value = seed & 0xFFFFFFFFFFFFFFFF
        for char in name:
            value = (value * 1099511628211 + ord(char)) & 0xFFFFFFFFFFFFFFFF
        return value

    @property
    def seed(self) -> int:
        """Seed of this stream (before name derivation)."""
        return self._seed

    @property
    def name(self) -> str:
        """Name identifying this stream."""
        return self._name

    def fork(self, name: str) -> "DeterministicRng":
        """Create an independent child stream identified by ``name``."""
        return DeterministicRng(self._derive(self._seed, self._name), name)

    def uniform(self, low: float, high: float) -> float:  # pragma: no cover - shadowed
        """Uniform float in ``[low, high)`` (shadowed by the bound draw)."""
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival sample with the given rate (1/mean)."""
        return self._random.expovariate(rate)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:  # pragma: no cover - shadowed
        """Uniform float in ``[0, 1)`` (shadowed by the bound draw)."""
        return self._random.random()

    def choice(self, items: Sequence[T]) -> T:
        """Pick one item uniformly at random."""
        return self._random.choice(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """Sample ``count`` distinct items."""
        return self._random.sample(list(items), count)

    def zipf_index(self, population: int, theta: float = 0.99, table: Optional[list[float]] = None) -> int:
        """Sample an index in ``[0, population)`` with a zipfian skew.

        A small rejection-free approximation using the classic YCSB zipfian
        generator constant ``theta``.  Passing a precomputed cumulative table
        (see :func:`zipf_cdf`) avoids recomputing the harmonic sums.
        """
        if table is None:
            table = zipf_cdf(population, theta)
        # The first entry >= the draw, capped at the last index.
        return bisect_left(table, self._random.random(), 0, population - 1)


def derive_seed(seed: int, *names: object) -> int:
    """Derive an independent sub-seed from ``seed`` and a path of names.

    The dispatch layer uses this to give every cell of a sharded workload
    (a fuzz index, a matrix coordinate) its own deterministic seed: the
    derivation only depends on ``(seed, names)``, never on which worker
    process picks the cell up or in what order, so serial and parallel runs
    of the same grid draw identical randomness per cell.

    Each component is folded with a length prefix so the component
    *boundaries* are part of the derivation — ``("fuzz", 11)`` and
    ``("fuzz1", 1)`` concatenate identically but must not collide.
    """
    value = seed
    for name in names:
        text = str(name)
        value = DeterministicRng._derive(value, f"{len(text)}:{text}")
    return value


def zipf_cdf(population: int, theta: float = 0.99) -> list[float]:
    """Cumulative distribution table for a zipfian distribution.

    Exact for small populations; for the 500k-record YCSB table used in the
    paper the table is built once per workload and reused for every draw.
    """
    if population <= 0:
        raise ValueError("population must be positive")
    weights = [1.0 / ((i + 1) ** theta) for i in range(population)]
    total = sum(weights)
    cdf: list[float] = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    cdf[-1] = 1.0
    return cdf


__all__ = ["DeterministicRng", "derive_seed", "zipf_cdf"]
