"""Per-replica CPU model.

The paper's evaluation shows that protocols relying on digital-signature
verification (HotStuff, Narwhal-HS) are compute bound while MAC-based
protocols (PBFT, RCC, SpotLess) are network bound, and that reducing core
counts (Figure 14(a)) hurts every protocol.  The CPU model captures this by
charging simulated processing time for crypto and message handling on a
bounded pool of cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.engine import Simulator


@dataclass(frozen=True)
class CpuTask:
    """A unit of CPU work, expressed in seconds of single-core time."""

    name: str
    seconds: float


class CpuModel:
    """A small multi-core processor shared by one replica.

    Work items are served by ``cores`` identical cores.  Each core is a FIFO
    queue; an incoming task is placed on the earliest-free core.  Callbacks
    fire when the task completes, which is how protocol handlers model the
    time spent verifying signatures or assembling batches.
    """

    def __init__(self, simulator: Simulator, cores: int = 16, speed_factor: float = 1.0) -> None:
        if cores < 1:
            raise ValueError("a CPU needs at least one core")
        self.simulator = simulator
        self.cores = cores
        self.speed_factor = speed_factor
        self._core_free_at = [0.0] * cores
        self.busy_seconds = 0.0
        self.tasks_executed = 0

    def execute(self, task: CpuTask, callback: Optional[Callable[[], None]] = None) -> float:
        """Schedule ``task`` and return its completion (absolute) time.

        ``callback`` is invoked at the completion time.  Zero-cost tasks are
        still routed through the simulator so event ordering stays
        deterministic.
        """
        duration = max(0.0, task.seconds / self.speed_factor)
        now = self.simulator.now
        free = self._core_free_at
        core_index = free.index(min(free))
        start = max(now, free[core_index])
        finish = start + duration
        free[core_index] = finish
        self.busy_seconds += duration
        self.tasks_executed += 1
        if callback is not None:
            simulator = self.simulator
            if simulator.tracing:
                simulator.schedule(finish - now, callback, label=f"cpu:{task.name}")
            else:
                simulator.schedule_call(finish - now, callback)
        return finish

    def utilization(self, elapsed: float) -> float:
        """Average core utilisation over ``elapsed`` seconds of wall time."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (elapsed * self.cores))


__all__ = ["CpuModel", "CpuTask"]
