"""The concurrent consensus architecture of SpotLess (Section 4 and 5).

A :class:`SpotLessReplica` hosts ``m`` chained consensus instances, rotates
their primaries (``id(P_{i,v}) = (i + v) mod n``), assigns incoming client
requests to instances by digest, totally orders committed proposals by
``(view, instance)``, executes them against the replica's YCSB table and
ledger, and informs clients of the outcome.

The request pool, execution engine and client Informs come from the shared
:mod:`repro.runtime` layer (the same fabric the baseline replicas run on);
this module adds only what is SpotLess-specific: the chained instances, the
cross-instance total order and its contiguity-aware execution frontier.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.chain import Proposal
from repro.core.config import SpotLessConfig
from repro.core.instance import InstanceEnvironment, SpotLessInstance
from repro.core.messages import AskMessage, ProposalForward, ProposeMessage, SyncMessage
from repro.ledger.execution import make_noop_transaction
from repro.net.message import Message
from repro.net.record import record
from repro.net.sizes import MessageSizeModel
from repro.recovery.messages import CheckpointCertificate, SlotEntry, SlotRecord
from repro.runtime.mempool import AdmitResult
from repro.runtime.replica import ReplicaRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.workload.requests import Transaction


@record(slots=True)
class CommitRecord:
    """A committed proposal placed into the global total order.

    ``parent_view`` and ``has_payload`` support the execution frontier: a
    replica only executes a view once its committed chain is known
    contiguously up to that view and the proposal payloads are available
    (Section 3.4 — replicas must recover full proposals via Ask before
    executing them).
    """

    view: int
    instance: int
    proposal_digest: bytes
    transaction_digests: Tuple[bytes, ...]
    parent_view: Optional[int] = None
    has_payload: bool = True


#: Handler of each consensus message, by exact class (the types are final),
#: called with the instance the message names; see ``ReplicaRuntime._routes``.
_HANDLERS = {
    ProposeMessage: SpotLessInstance.on_propose,
    SyncMessage: SpotLessInstance.on_sync,
    AskMessage: SpotLessInstance.on_ask,
    ProposalForward: SpotLessInstance.on_forward,
}


class SpotLessReplica(ReplicaRuntime):
    """A SpotLess replica running inside the discrete-event simulator.

    Parameters
    ----------
    node_id:
        The replica identifier (0 .. n − 1); also its network address.
    config:
        Shared deployment configuration.
    simulator / network:
        The simulation substrate.
    size_model:
        Wire-size model used to charge bandwidth for each message type.
    """

    protocol_name = "spotless"

    def __init__(
        self,
        node_id: int,
        config: SpotLessConfig,
        simulator: Simulator,
        network: Network,
        size_model: Optional[MessageSizeModel] = None,
    ) -> None:
        super().__init__(node_id, config, simulator, network, size_model)

        # Commit tracking for the cross-instance total order.
        self._committed_by_view: Dict[int, Dict[int, CommitRecord]] = {
            i: {} for i in range(config.num_instances)
        }
        self._max_committed_view: Dict[int, int] = {i: -1 for i in range(config.num_instances)}
        self._next_execution_view = 0
        self.commit_log: List[CommitRecord] = []
        # Views strictly below this floor are settled — either executed here
        # in contiguous order, or covered by a verified state transfer whose
        # records were ingested — so execution below the floor needs no
        # per-instance contiguity proof and records below it may be GC'd.
        self._execution_floor_view = 0
        # Frontier memo per instance: (frontier, record_count, floor,
        # store_version).  The walk in _walk_execution_frontier depends
        # only on the instance's committed records, the execution floor, and
        # the proposal store's content — all captured by this key, so a hit
        # returns the cached frontier without re-walking the history.
        self._frontier_cache: Dict[int, Tuple[int, int, int, int]] = {}
        # SpotLess orders by (view, instance) itself; the per-view fold into
        # the checkpoint manager happens in _advance_execution, not in the
        # shared pipeline's per-position path.
        self.pipeline.on_executed = None
        # Wire size of each consensus message class (a certificate adds its
        # signatures to a Propose); the size model is fixed per deployment.
        control = self.size_model.control_bytes
        self._wire_bytes = {
            ProposeMessage: self.size_model.proposal_bytes(),
            ProposalForward: self.size_model.proposal_bytes(),
            SyncMessage: control(signatures=1),
            AskMessage: control(),
        }

        self.instances: Dict[int, SpotLessInstance] = {}
        for instance_id in range(config.num_instances):
            self.instances[instance_id] = SpotLessInstance(
                instance_id=instance_id,
                config=config,
                environment=self._make_environment(),
            )
        for cls, handler in _HANDLERS.items():
            self._routes[cls] = (handler, self.instances)

    # ------------------------------------------------------------------
    # environment wiring
    # ------------------------------------------------------------------

    def _make_environment(self) -> InstanceEnvironment:
        return InstanceEnvironment(
            replica_id=self.node_id,
            broadcast=self._broadcast_protocol,
            send=self._send_protocol,
            make_timer=self.timer,
            next_batch=self._next_batch,
            on_commit=self._on_instance_commit,
            now=lambda: self.simulator.now,
            has_pending=self.mempool.has_pending,
        )

    def _message_size(self, message: Message) -> int:
        size = self._wire_bytes[message.__class__]
        if message.__class__ is ProposeMessage and message.parent_certificate:
            size += self.config.quorum * self.size_model.constants.signature_bytes
        return size

    def _deliver_to_self(self, message: Message) -> None:
        # Remark 3.1: replicas logically send to themselves as well; locally
        # this is a zero-delay delivery that consumes no network resources.
        # Scheduling (rather than calling directly) keeps handler call stacks
        # flat when many catch-up messages are emitted in one step.
        self.simulator.schedule_call(0.0, self.on_message, (self.node_id, message))

    def _broadcast_protocol(self, message: Message) -> None:
        self.broadcast(self._broadcast_peers, message, self._message_size(message))
        self._deliver_to_self(message)

    def _send_protocol(self, receiver: int, message: Message) -> None:
        if receiver == self.node_id:
            self._deliver_to_self(message)
            return
        self.send(receiver, message, self._message_size(message))

    # ------------------------------------------------------------------
    # client requests and batching
    # ------------------------------------------------------------------

    def _after_submit(self, outcome: AdmitResult) -> None:
        """A newly arrived payload may unblock a stalled execution frontier.

        ResilientDB broadcasts request payloads ahead of consensus, so every
        replica holds the payload and the instance responsible for the digest
        queues it for proposal (Section 5/6.1); admission itself is handled
        by the shared mempool.
        """
        if outcome is AdmitResult.NEW:
            self._advance_execution()

    def _assign_shard(self, transaction: Transaction) -> int:
        """Instance responsible for proposing ``transaction``.

        The paper assigns requests to instances by digest (Section 5), which
        load-balances requests from the same client across instances.  The
        ``"client"`` ablation policy instead binds every client to one
        instance, RCC-style, so the load-balance ablation can compare the
        two.  No-op transactions always use the digest rule.
        """
        if self.config.assignment_policy == "client" and transaction.client_id >= 0:
            return transaction.client_id % self.config.num_instances
        return transaction.instance_assignment(self.config.num_instances)

    def _next_batch(self, instance_id: int, view: int) -> Tuple[bytes, ...]:
        return self.take_batch_or_noop(
            instance_id, lambda: make_noop_transaction(instance_id, view)
        )

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start every consensus instance."""
        for instance in self.instances.values():
            instance.start()

    # ------------------------------------------------------------------
    # commits, total order and execution
    # ------------------------------------------------------------------

    def _on_instance_commit(self, instance_id: int, proposal: Proposal) -> None:
        transactions: Tuple[bytes, ...] = ()
        if proposal.message is not None:
            transactions = proposal.message.transaction_digests
        record = CommitRecord(
            view=proposal.view,
            instance=instance_id,
            proposal_digest=proposal.digest,
            transaction_digests=transactions,
            parent_view=proposal.parent_view,
            has_payload=proposal.message is not None,
        )
        self._committed_by_view[instance_id][proposal.view] = record
        # A re-commit can replace a record without changing the record count,
        # which the cache key would not see — drop the entry outright.
        self._frontier_cache.pop(instance_id, None)
        self._max_committed_view[instance_id] = max(self._max_committed_view[instance_id], proposal.view)
        self.commit_log.append(record)
        if self.tracer is not None:
            self.tracer.instant(
                self.node_id,
                "consensus",
                "decide",
                view=proposal.view,
                instance=instance_id,
                batch=len(transactions),
            )
        self._advance_execution()

    def _walk_execution_frontier(self, instance_id: int) -> int:
        """Highest view up to which this instance's committed chain is contiguous.

        The committed records of an instance are walked in ascending view
        order; a record extends the contiguous prefix only when its parent is
        the genesis proposal or lies inside the prefix (a committed record at
        a lower or equal view).  Views inside the prefix that have no record
        provably carry no committed proposal (the chain jumps over them), so
        execution may skip them; views beyond the prefix must wait until
        Ask-recovery fills the gap, otherwise a recovering replica could
        execute a subsequence of the order its peers executed.

        Views below the execution floor are settled (executed or covered by
        a verified state transfer), so the walk starts there and parent
        links pointing below the floor count as inside the prefix.  The
        result is memoised in ``_frontier_cache``, which
        :meth:`_advance_execution` reads before it calls the walk.
        """
        records = self._committed_by_view[instance_id]
        store = self.instances[instance_id].store
        floor = self._execution_floor_view
        frontier = floor - 1
        store_dependent = False
        for view in sorted(records):
            if view < floor:
                continue
            record = records[view]
            parent_view = record.parent_view
            if parent_view is None:
                # Committed by reference before the parent link was known;
                # Ask-recovery may have attached it to the store since then.
                proposal = store.get(record.proposal_digest)
                if proposal is not None:
                    parent_view = proposal.parent_view
                if parent_view is None:
                    # Unresolved: the result changes as soon as the store
                    # learns this proposal, so the cache must track it.
                    store_dependent = True
            if parent_view is None or parent_view > frontier:
                break
            if parent_view >= floor and parent_view not in records:
                break
            frontier = view
        # The store version guards only walks that actually depended on the
        # store (broke on a parent link the store could not resolve yet); a
        # walk whose every parent was known caches with -1 and stays valid
        # however many messages the store records afterwards.
        self._frontier_cache[instance_id] = (
            frontier,
            len(records),
            floor,
            store.version if store_dependent else -1,
        )
        return frontier

    def _advance_execution(self) -> None:
        """Execute committed proposals in (view, instance) order (Figure 6).

        A view's proposals are executed once (a) every instance's committed
        chain is contiguously known up to that view, so the total order for
        the view is complete and gaps are provably empty, and (b) the payload
        of every transaction in the view is locally available (payloads are
        pre-disseminated by clients; no-ops are reconstructed
        deterministically; everything else is fetched via Ask-recovery).
        Missing chain segments or payloads stall the execution frontier until
        they arrive, exactly as the paper requires replicas to recover full
        proposals before executing them.  Views below the execution floor
        are covered by a verified state transfer: their ingested records
        execute without a per-instance contiguity proof, because the
        checkpoint certificate already attests the exact content.
        """
        committed = self._committed_by_view
        frontier_cache = self._frontier_cache
        instance_ids = range(self.config.num_instances)
        while True:
            view = self._next_execution_view
            floor = self._execution_floor_view
            if view >= floor:
                # The view waits for the slowest instance; the first one
                # found short decides.  A memo entry is current while its
                # record count and floor match and, for a walk that depended
                # on the store, the store version too.
                for instance_id in instance_ids:
                    cached = frontier_cache.get(instance_id)
                    if (
                        cached is not None
                        and cached[1] == len(committed[instance_id])
                        and cached[2] == floor
                        and (cached[3] == -1 or cached[3] == self.instances[instance_id].store.version)
                    ):
                        frontier = cached[0]
                    else:
                        frontier = self._walk_execution_frontier(instance_id)
                    if frontier < view:
                        return
            resolved: List[Tuple[CommitRecord, Tuple[bytes, ...], List[Transaction]]] = []
            for instance_id in instance_ids:
                record = committed[instance_id].get(view)
                if record is None:
                    continue
                payload = self._resolve_transactions(record)
                if payload is None:
                    return
                resolved.append((record, *payload))
            for record, _digests, transactions in resolved:
                self.pipeline.execute(transactions, view=record.view, instance=record.instance)
            if self.tracer is not None:
                self.tracer.instant(
                    self.node_id,
                    "lifecycle",
                    "execute-view",
                    view=view,
                    records=len(resolved),
                )
            self._next_execution_view += 1
            if self.checkpoints.enabled:
                self._fold_executed_view(view, resolved)

    def _fold_executed_view(
        self, view: int, resolved: List[Tuple[CommitRecord, Tuple[bytes, ...], List[Transaction]]]
    ) -> None:
        """Fold one executed view into the checkpoint manager's digest chain.

        The fold covers the agreement-fixed content of the view: the records
        executed across instances (ascending instance order), each with its
        proposal digest and the transaction digests its payloads resolved
        from.  Views with no committed record fold as empty, so every
        replica folds the same sequence.
        """
        records = tuple(
            SlotRecord(
                view=record.view,
                instance=record.instance,
                transaction_digests=digests,
                slot_digest=record.proposal_digest,
            )
            for record, digests, _transactions in resolved
        )
        self._record_executed_entry(SlotEntry(position=view, records=records))

    def _resolve_transactions(
        self, record: CommitRecord
    ) -> Optional[Tuple[Tuple[bytes, ...], List[Transaction]]]:
        """Look up the payloads of a committed record: its transaction
        digests and, in the same order, the transactions they name.

        Returns ``None`` when a non-reconstructible payload is missing, which
        stalls execution until the payload arrives (via client dissemination
        or retransmission).
        """
        digests = record.transaction_digests
        if not record.has_payload:
            # The proposal was committed by reference; Ask-recovery may have
            # attached its payload to the instance store since then.
            proposal = self.instances[record.instance].store.get(record.proposal_digest)
            if proposal is None or proposal.message is None:
                return None
            digests = proposal.message.transaction_digests
        transactions: List[Transaction] = []
        for digest in digests:
            transaction = self.mempool.get(digest)
            if transaction is None:
                noop = make_noop_transaction(record.instance, record.view)
                if noop.digest() == digest:
                    transaction = noop
                    self.mempool.register_payload(noop)
                else:
                    return None
            transactions.append(transaction)
        return digests, transactions

    # ------------------------------------------------------------------
    # recovery: state transfer, checkpoint GC and Ask rewiring
    # ------------------------------------------------------------------

    def _apply_state_entries(
        self, entries: Tuple[SlotEntry, ...], certificate: CheckpointCertificate
    ) -> None:
        """Ingest verified transferred views into the cross-instance order.

        Each entry is one view of the global order with the records the
        cluster committed across instances.  Records this replica already
        holds are upgraded in place (a commit known only by reference gains
        its certified digests); missing ones are created.  The certificate's
        position then becomes the execution floor, and the stalled frontier
        replays straight through the transferred range.
        """
        for entry in entries:
            for record in entry.records:
                by_view = self._committed_by_view.get(record.instance)
                if by_view is None:
                    continue  # instance id outside this deployment
                existing = by_view.get(entry.position)
                if existing is None:
                    commit = CommitRecord(
                        view=entry.position,
                        instance=record.instance,
                        proposal_digest=record.slot_digest,
                        transaction_digests=record.transaction_digests,
                        parent_view=None,
                        has_payload=True,
                    )
                    by_view[entry.position] = commit
                    self._max_committed_view[record.instance] = max(
                        self._max_committed_view[record.instance], entry.position
                    )
                    self.commit_log.append(commit)
                elif not existing.has_payload:
                    by_view[entry.position] = replace(
                        existing,
                        transaction_digests=record.transaction_digests,
                        has_payload=True,
                    )
                    self._frontier_cache.pop(record.instance, None)
        self._execution_floor_view = max(self._execution_floor_view, certificate.position)
        self._advance_execution()

    def on_stable_checkpoint(self, certificate: CheckpointCertificate) -> None:
        """GC per-view state below the stable floor (executed views only)."""
        self._execution_floor_view = max(
            self._execution_floor_view, min(certificate.position, self._next_execution_view)
        )
        gc_floor = min(self._execution_floor_view, self._next_execution_view)
        for records in self._committed_by_view.values():
            for view in [v for v in records if v < gc_floor]:
                del records[view]
        for instance in self.instances.values():
            instance.compact_below_view(gc_floor)

    def on_state_transferred(self, certificate: Optional[CheckpointCertificate]) -> None:
        """Ask-recovery wiring for healed replicas (Section 3.3/3.5).

        A state transfer proves this replica fell behind; above the floor,
        commits recovered through Syncs may still reference proposals whose
        payloads never arrived (the original Ask was swallowed while the
        replica or its peer was down).  Re-issuing the Asks un-wedges the
        per-instance chains so normal execution resumes past the floor.
        """
        for instance in self.instances.values():
            instance.retry_missing_payloads()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def committed_client_transactions_per_instance(self) -> Dict[int, int]:
        """Committed non-no-op transaction count per instance.

        Used by the assignment-policy ablation: no-op filler proposals are
        excluded so the count reflects how much useful work each instance
        carried.
        """
        counts: Dict[int, int] = {i: 0 for i in range(self.config.num_instances)}
        for record in self.commit_log:
            for digest in record.transaction_digests:
                transaction = self.mempool.get(digest)
                if transaction is not None and not transaction.is_noop():
                    counts[record.instance] += 1
        return counts

    def committed_map(self) -> Dict[Tuple[int, int], bytes]:
        """Mapping ``(view, instance) -> proposal digest`` of committed slots.

        Non-divergence requires that any slot committed by two non-faulty
        replicas holds the same proposal.
        """
        mapping: Dict[Tuple[int, int], bytes] = {}
        for record in self.commit_log:
            mapping[(record.view, record.instance)] = record.proposal_digest
        return mapping

    def executed_transaction_digests(self) -> List[bytes]:
        """Digests of executed transactions in ledger order (a true prefix order)."""
        return self.ledger.transaction_digests()


__all__ = ["CommitRecord", "SpotLessReplica"]
