"""Infrastructure shared by every baseline protocol replica.

The baselines differ from SpotLess (and from each other) only in their
consensus logic.  Request pools, batching, the execution engine, the ledger
and client Informs are identical across protocols, mirroring how all of them
are implemented inside the same ResilientDB fabric in the paper; that shared
machinery lives in :mod:`repro.runtime` and :class:`BftReplicaBase` is the
thin baseline-facing veneer over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.net.sizes import MessageSizeModel
from repro.runtime.quorum import QuorumParams
from repro.runtime.replica import ReplicaRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network


@dataclass(frozen=True)
class BftConfig:
    """Deployment parameters shared by the baseline protocols."""

    num_replicas: int
    batch_size: int = 100
    request_timeout: float = 0.25
    view_change_timeout: float = 0.5
    pipeline_depth: int = 16
    num_instances: int = 1
    # Checkpoint interval K of the recovery subsystem: the execution frontier
    # is checkpointed (and per-slot protocol state garbage-collected) every K
    # executed positions.  0 disables checkpointing and state transfer.
    checkpoint_interval: int = 16

    def __post_init__(self) -> None:
        if self.num_replicas < 4:
            raise ValueError("BFT requires at least 4 replicas")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be positive")
        if not 1 <= self.num_instances <= self.num_replicas:
            raise ValueError("num_instances must satisfy 1 <= m <= n")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative (0 disables)")
        object.__setattr__(self, "_quorum_params", QuorumParams.bft(self.num_replicas))

    @property
    def n(self) -> int:
        """Number of replicas."""
        return self._quorum_params.n

    @property
    def f(self) -> int:
        """Tolerated faults: ⌊(n − 1)/3⌋."""
        return self._quorum_params.f

    @property
    def quorum(self) -> int:
        """2f + 1 agreement quorum (equals n − f when n = 3f + 1)."""
        return self._quorum_params.quorum

    @property
    def weak_quorum(self) -> int:
        """f + 1."""
        return self._quorum_params.weak_quorum

    def replica_ids(self) -> range:
        """All replica identifiers."""
        return self._quorum_params.replica_ids()


class BftReplicaBase(ReplicaRuntime):
    """Shared replica machinery: request pool, batching, execution, Informs.

    Protocol subclasses implement
    :meth:`~repro.runtime.replica.ReplicaRuntime.on_protocol_message` and
    call :meth:`~repro.runtime.replica.ReplicaRuntime.deliver_batch` once a
    batch of transaction digests is decided at a given position in the
    global order.  Execution happens strictly in position order; gaps stall
    the execution frontier.
    """

    def __init__(
        self,
        node_id: int,
        config: BftConfig,
        simulator: Simulator,
        network: Network,
        size_model: Optional[MessageSizeModel] = None,
        protocol_name: str = "bft",
        client_node_offset: Optional[int] = None,
    ) -> None:
        super().__init__(
            node_id,
            config,
            simulator,
            network,
            protocol_name=protocol_name,
            size_model=size_model,
            client_node_offset=client_node_offset,
        )

    # ------------------------------------------------------------------
    # batching (single-instance protocols use mempool shard 0)
    # ------------------------------------------------------------------

    def take_batch(self, allow_empty: bool = False) -> Optional[Tuple[bytes, ...]]:
        """Pop up to ``batch_size`` pending digests for a new proposal."""
        return self.mempool.take_batch(self.config.batch_size, shard=0, allow_empty=allow_empty)


__all__ = ["BftConfig", "BftReplicaBase"]
