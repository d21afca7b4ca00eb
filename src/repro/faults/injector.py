"""Fault scheduling against a simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.codec import JsonRecord
from repro.faults.attacks import attack_by_name
from repro.sim.network import Network, Partition

ATTACK_KINDS = ("A1", "A2", "A3", "A4")
FAULT_KINDS = ATTACK_KINDS + ("crash", "partition", "latency")


@dataclass(frozen=True)
class FaultEvent(JsonRecord):
    """One timed entry of a fault script.

    ``kind`` is one of :data:`FAULT_KINDS`.  ``at`` and ``until`` are
    simulated times (``until=None`` means the fault persists to the end of
    the run).  ``replicas`` are the crash targets or attackers, ``victims``
    the A2/A3 victim group, ``groups`` the partition classes, and ``factor``
    the latency multiplier.
    """

    kind: str
    at: float
    until: Optional[float] = None
    replicas: Tuple[int, ...] = ()
    victims: Tuple[int, ...] = ()
    groups: Tuple[Tuple[int, ...], ...] = ()
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose one of {FAULT_KINDS}")
        if self.until is not None and self.until <= self.at:
            # A reversed window would heal before it applies and then stick
            # forever (the apply's refcount is never balanced).
            raise ValueError(f"fault heals at {self.until} before it starts at {self.at}")
        if self.factor <= 0:
            raise ValueError("latency factor must be positive")

    def label(self) -> str:
        """Compact human-readable description of the event."""
        window = f"@{self.at:g}" + (f"-{self.until:g}" if self.until is not None else "-")
        if self.kind == "partition":
            return f"partition{self.groups}{window}"
        if self.kind == "latency":
            return f"latency x{self.factor:g}{window}"
        return f"{self.kind}{self.replicas}{window}"


class FaultInjector:
    """Applies fault events to a cluster's network.

    The injector only schedules simulator callbacks; it performs no fault
    action by itself at construction time, so the same cluster can be reused
    across experiments with different schedules.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.network: Network = cluster.network
        self._latency_factor = 1.0
        # Overlapping windows must compose: down-marks are refcounted and
        # rules removed one by one, so healing one window removes only its
        # own contribution.
        self._down_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def schedule(self, fault: FaultEvent) -> None:
        """Install one fault event: its apply at ``at``, its heal at ``until``."""
        apply, heal = self._actions(fault)
        kind = "attack" if fault.kind in ATTACK_KINDS else fault.kind
        self.cluster.simulator.schedule(
            max(0.0, fault.at - self.cluster.simulator.now),
            apply,
            label=f"fault:{kind}@{fault.at}",
        )
        if fault.until is not None:
            self.cluster.simulator.schedule(
                max(0.0, fault.until - self.cluster.simulator.now),
                heal,
                label=f"heal:{kind}@{fault.until}",
            )

    def _actions(self, fault: FaultEvent) -> Tuple[Callable[[], None], Callable[[], None]]:
        """A window's apply and heal, built once so the heal undoes exactly its apply."""
        network = self.network
        if fault.kind in ("crash", "A1"):
            return partial(self._mark, fault.replicas, 1), partial(self._mark, fault.replicas, -1)
        if fault.kind == "latency":
            # The heal divides by the factor: multiplying by 1/f rounds differently.
            return (
                lambda: self._set_latency(self._latency_factor * fault.factor),
                lambda: self._set_latency(self._latency_factor / fault.factor),
            )
        if fault.kind == "partition":
            rule = Partition(groups=tuple(frozenset(group) for group in fault.groups)).blocks
        else:
            scenario = attack_by_name(fault.kind, attackers=fault.replicas, victims=fault.victims)
            if scenario.rewrites:
                rule = scenario.rewrite
                return partial(network.add_rewrite_rule, rule), partial(network.remove_rewrite_rule, rule)
            rule = scenario.should_drop
        return partial(network.add_drop_rule, rule), partial(network.remove_drop_rule, rule)

    def _mark(self, replicas: Tuple[int, ...], windows: int) -> None:
        """Refcounted down-marks: a node is down while one of its windows is open."""
        for replica in replicas:
            count = self._down_counts.pop(replica, 0) + windows
            if count > 0:
                self._down_counts[replica] = count
            self.network.set_node_down(replica, count > 0)

    def _set_latency(self, factor: float) -> None:
        self._latency_factor = factor
        self.network.set_latency_factor(factor)


__all__ = ["ATTACK_KINDS", "FAULT_KINDS", "FaultEvent", "FaultInjector"]
