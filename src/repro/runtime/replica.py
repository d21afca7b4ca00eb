"""The replica runtime shared by SpotLess and every baseline protocol.

The paper implements SpotLess and its baselines inside one fabric: they
differ only in consensus logic while sharing request pools, batching, the
execution engine, the ledger, and client Informs.  :class:`ReplicaRuntime`
is that shared fabric — a simulator actor owning a :class:`Mempool`, an
:class:`ExecutionPipeline`, the key-value table and the ledger.  Protocol
classes subclass it and implement the consensus machinery on top.

Protocol hooks
--------------
``_routes``
    The handler of each message class a replica receives; a protocol adds
    its consensus messages to the runtime's own entries (see
    :meth:`ReplicaRuntime.on_message`).
``on_request_arrival``
    Called with its shard when a genuinely new request is queued (primaries
    may propose).
``_apply_state_entries``
    Replay verified transferred entries; a protocol whose consensus state
    must learn of them (SpotLess's execution floor, HotStuff's committed
    chain anchor) updates it first and then calls the runtime's replay.  The
    replayed entries land in the pipeline and the checkpoint archive, the
    one record of the decided order.
``_assign_shard``
    Mempool shard (consensus instance) responsible for a transaction.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.ledger.execution import ExecutionEngine
from repro.ledger.kvtable import KeyValueTable
from repro.ledger.ledger import Ledger
from repro.net.message import InformMessage
from repro.net.sizes import MessageSizeModel
from repro.recovery import (
    CheckpointCertificate,
    CheckpointManager,
    CheckpointVote,
    SlotEntry,
    SlotRecord,
    StateRequest,
    StateResponse,
    StateTransferEngine,
)
from repro.runtime.mempool import AdmitResult, Mempool
from repro.runtime.pipeline import ExecutionPipeline
from repro.runtime.quorum import DeploymentConfig
from repro.runtime.retry import RetryingPull
from repro.sim.actor import Actor
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.workload.requests import Transaction

# Enum members bound once: a ``Class.MEMBER`` load in a function costs about
# 100 ns on CPython 3.10/3.11, and no call count shows it.
_NEW = AdmitResult.NEW


class ReplicaRuntime(Actor):
    """Shared replica machinery: request pool, batching, execution, Informs.

    Parameters
    ----------
    node_id:
        The replica identifier (0 .. n − 1); also its network address.
    config:
        The deployment; every replica class takes these five arguments only.
    simulator / network:
        The simulation substrate.
    size_model:
        Wire-size model used to charge bandwidth for each message type.
    """

    #: Stamped into block proofs and used by reports.
    protocol_name = "replica"

    def __init__(
        self,
        node_id: int,
        config: DeploymentConfig,
        simulator: Simulator,
        network: Network,
        size_model: Optional[MessageSizeModel] = None,
    ) -> None:
        super().__init__(node_id, simulator, network)
        self.config = config
        self.size_model = size_model or MessageSizeModel(batch_size=config.batch_size)

        # The fan-out peer set is fixed by the config; every protocol's
        # broadcast reuses this tuple instead of rebuilding a list.
        self._broadcast_peers = tuple(
            r for r in config.replica_ids() if r != node_id
        )
        # Clients register after the replicas, so keep the network's live
        # view of its members rather than a snapshot.
        self._registered_nodes = network.node_ids()
        self._reply_bytes = self.size_model.reply_bytes()

        self.table = KeyValueTable()
        self.ledger = Ledger()
        self.execution = ExecutionEngine(table=self.table, ledger=self.ledger)

        self.mempool = Mempool(num_shards=config.num_instances)
        self.pipeline = ExecutionPipeline(
            mempool=self.mempool,
            engine=self.execution,
            protocol_name=self.protocol_name,
            quorum=config.quorum,
            inform=self._inform_client,
            fold=self._record_executed_entry,
        )

        # Recovery layer: checkpoint the execution frontier every K order
        # units and pull certified content when the cluster runs ahead.
        self.checkpoints = CheckpointManager(
            node_id=node_id,
            num_replicas=config.num_replicas,
            quorum=config.quorum,
            interval=config.checkpoint_interval,
        )
        self.state_transfer = StateTransferEngine(
            self.checkpoints,
            make_pull=partial(
                RetryingPull,
                node_id,
                fanout=config.weak_quorum,
                timer=self.timer("state-transfer-retry", lambda: self.state_transfer.pull.retry()),
                interval=config.request_timeout,
                category="state-transfer",
            ),
            send_request=self._send_state_request,
            apply_entries=self._apply_state_entries,
        )
        # The handler of each message class, by exact class (message types
        # are final).  ``(handler, None)`` is called as ``handler(sender,
        # payload)``; ``(handler, instances)`` as ``handler(instance, sender,
        # payload)`` with the consensus instance the payload names, looked
        # up in the dict ``instances``.  A Transaction is admitted before
        # the table is read: its handler takes no sender.
        self._routes: Dict[type, Tuple[Callable[..., None], Optional[Dict[int, object]]]] = {
            CheckpointVote: (self._on_checkpoint_vote, None),
            StateRequest: (self._serve_state_request, None),
            StateResponse: (self._on_state_response, None),
        }

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_tracer(self, tracer: object) -> None:
        """Attach a :class:`repro.obs.Tracer` to this replica.

        Sets the single guard attribute every instrumentation point checks
        and gives protocol subclasses a hook (:meth:`_on_tracer_attached`)
        to propagate the tracer into non-actor state machines (the PBFT
        instance cores).
        """
        self.tracer = tracer
        self.state_transfer.pull.tracer = tracer
        self._on_tracer_attached()

    def _on_tracer_attached(self) -> None:
        """Hook: propagate ``self.tracer`` into protocol sub-components."""

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    def submit_transaction(self, transaction: Transaction) -> None:
        """Accept a client transaction into the request pool."""
        shard = self._assign_shard(transaction)
        if self.mempool.admit(transaction, shard) is _NEW:
            self.on_request_arrival(shard)

    def _assign_shard(self, transaction: Transaction) -> int:
        """Mempool shard responsible for ``transaction`` (default: shard 0)."""
        return 0

    def on_request_arrival(self, shard: int) -> None:
        """Hook: a new request was queued in ``shard`` (primaries may propose)."""

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Hook: start the protocol (arm timers, propose if primary)."""

    def on_message(self, sender: int, payload: object) -> None:
        """Route a delivery to its handler in :attr:`_routes`; a message of
        a class with no route, or naming no instance of this replica, is
        dropped."""
        cls = payload.__class__
        if cls is Transaction:
            self.submit_transaction(payload)
            return
        route = self._routes.get(cls)
        if route is None:
            return
        handler, instances = route
        if instances is None:
            handler(sender, payload)
        else:
            instance = instances.get(payload.instance)
            if instance is not None:
                handler(instance, sender, payload)

    # ------------------------------------------------------------------
    # recovery: checkpoints and state transfer
    # ------------------------------------------------------------------

    def _record_executed_entry(self, entry: SlotEntry) -> None:
        """Fold one executed order unit; broadcast a vote at K crossings."""
        vote = self.checkpoints.record_execution(entry)
        if vote is not None:
            if self.tracer is not None:
                self.tracer.instant(
                    self.node_id, "checkpoint", "checkpoint-vote", position=vote.position
                )
            self.broadcast(
                self._broadcast_peers, vote, self.size_model.control_bytes(signatures=1)
            )
            self._on_checkpoint_vote(self.node_id, vote)

    def _on_checkpoint_vote(self, sender: int, vote: CheckpointVote) -> None:
        certificate = self.checkpoints.on_vote(sender, vote)
        if certificate is not None:
            self._on_new_stable_checkpoint(certificate)
        # A stable floor ahead of the local frontier means the cluster
        # executed past us: pull the certified content we are missing.
        self.state_transfer.maybe_request()

    def adopt_checkpoint_gap_signal(self, certificate: Optional[CheckpointCertificate]) -> None:
        """Adopt a peer-carried certificate and pull missing state immediately.

        A healed replica may first learn how far behind it is from a
        checkpoint certificate embedded in a protocol message (e.g. a
        ViewChange vote); waiting for the cluster's next K-interval vote
        round would leave it wedged if the workload drains first.
        ``adopt_certificate`` validates the quorum before anything is
        trusted.
        """
        if certificate is not None and self.checkpoints.adopt_certificate(certificate):
            self.state_transfer.maybe_request()

    def _on_new_stable_checkpoint(self, certificate: CheckpointCertificate) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                self.node_id, "checkpoint", "stable-checkpoint", position=certificate.position
            )
        self.on_stable_checkpoint(certificate)

    def _send_state_request(self, target: int, request: StateRequest) -> None:
        self.send(target, request, self.size_model.control_bytes(signatures=1))

    def _serve_state_request(self, sender: int, request: StateRequest) -> None:
        """Answer a pull request with the certified slot content, priced by
        the transactions its records carry."""
        served = self.checkpoints.serve(request.from_position)
        if served is None:
            return
        entries, certificate = served
        response = StateResponse(
            from_position=request.from_position, entries=entries, certificate=certificate
        )
        proposal_bytes = self.size_model.proposal_bytes
        size = self.size_model.control_bytes(signatures=self.config.quorum) + sum(
            proposal_bytes(len(record.transactions)) for entry in entries for record in entry.records
        )
        self.send(sender, response, size)

    def _on_state_response(self, sender: int, response: StateResponse) -> None:
        if self.state_transfer.on_response(sender, response):
            if response.certificate is not None:
                self._on_new_stable_checkpoint(response.certificate)
            self.on_state_transferred(response.certificate)

    def _apply_state_entries(
        self, entries: Tuple[SlotEntry, ...], certificate: CheckpointCertificate
    ) -> None:
        """Replay verified entries through the shared execution pipeline;
        ``deliver_entry`` skips positions this replica already decided."""
        for entry in entries:
            self.pipeline.deliver_entry(entry)

    def on_stable_checkpoint(self, certificate: CheckpointCertificate) -> None:
        """Hook: a new stable checkpoint formed (protocols GC their state)."""

    def on_state_transferred(self, certificate: Optional[CheckpointCertificate]) -> None:
        """Hook: a verified state transfer advanced the execution frontier."""

    def _inform_client(self, transaction: Transaction) -> None:
        client_id = transaction.client_id
        if self.tracer is not None:
            self.tracer.instant(self.node_id, "lifecycle", "inform", client=client_id)
        client_node = self.config.num_replicas + client_id
        if client_node in self._registered_nodes:
            inform = InformMessage(
                replica=self.node_id, client_id=client_id, transaction_digest=transaction.digest()
            )
            self.send(client_node, inform, self._reply_bytes)

    # ------------------------------------------------------------------
    # decisions and execution
    # ------------------------------------------------------------------

    def deliver_batch(
        self,
        position: int,
        transactions: Tuple[Transaction, ...],
        view: int = 0,
        instance: int = 0,
        slot_digest: bytes = b"",
    ) -> None:
        """Record that the batch at ``position`` in the global order is decided."""
        if self.tracer is not None:
            self.tracer.instant(
                self.node_id,
                "lifecycle",
                "commit",
                position=position,
                view=view,
                instance=instance,
                batch=len(transactions),
            )
        record = SlotRecord(
            view=view, instance=instance, transactions=transactions, slot_digest=slot_digest
        )
        self.pipeline.deliver_entry(SlotEntry(position=position, records=(record,)))

    def instance_views(self) -> Dict[int, int]:
        """Hook: the current view of each consensus instance, by instance id."""
        raise NotImplementedError

    def liveness_counters(self) -> Dict[str, int]:
        """Hook: liveness-machinery counters surfaced in scenario results.

        Protocols report deadline extensions, timeout fires, chain-sync
        retries and the like here so a wedge in this family of bugs shows
        up as an observable counter instead of a silent stall.
        """
        return {}

    @property
    def executed_transactions(self) -> int:
        """Executed client transactions."""
        return self.pipeline.executed_transactions

    # ------------------------------------------------------------------
    # introspection used by tests and the cluster harness
    # ------------------------------------------------------------------

    def _decided_entries(self) -> Iterator[SlotEntry]:
        """The decided entries from the stable floor up.

        Executed ones are read from the checkpoint archive (those below the
        floor are quorum-attested), pending ones from the pipeline; with
        checkpointing off that is every decided position.
        """
        checkpoints = self.checkpoints
        executed = checkpoints.archive[checkpoints.stable_position() :]
        return chain(executed, self.pipeline.pending.values())

    def committed_map(self) -> Dict[Tuple[int, int], bytes]:
        """Mapping of decided position to a digest of the decided batches,
        from the stable floor up (see :meth:`_decided_entries`)."""
        return {
            (entry.position, 0): b"".join(
                t.digest() for record in entry.records for t in record.transactions
            )
            for entry in self._decided_entries()
        }

    def executed_transaction_digests(self) -> List[bytes]:
        """Executed transaction digests in ledger order."""
        return self.ledger.transaction_digests()

    def state_digest(self) -> bytes:
        """Digest of the executed state."""
        return self.execution.state_digest()


__all__ = ["ReplicaRuntime"]
