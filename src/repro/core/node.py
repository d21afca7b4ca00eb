"""The concurrent consensus architecture of SpotLess (Section 4 and 5).

A :class:`SpotLessReplica` hosts ``m`` chained consensus instances, rotates
their primaries (``id(P_{i,v}) = (i + v) mod n``), assigns incoming client
requests to instances by digest, and totally orders committed proposals by
``(view, instance)``.

Everything after the order is the shared :mod:`repro.runtime` fabric the
baseline replicas run on: once a view is complete across instances, the
replica delivers it to the :class:`~repro.runtime.pipeline.ExecutionPipeline`
as one :class:`~repro.recovery.SlotEntry` at position ``view``, and the
pipeline executes the transactions its proposals carry, informs clients and
folds it into the checkpoint digest.  A no-op is a proposal with an empty
batch.
This module keeps only what is SpotLess-specific: the chained instances and
one execution frontier per instance that decides when a view is complete;
the stores, the pipeline and the checkpoint archive keep the decided order
itself.

Commits live in each instance's proposal store alone: the store's
``committed`` list holds the committed proposals in commit order, and the
replica reads them live through one cursor per instance, so a proposal or
parent link that Ask-recovery attaches later is seen without a copy to
refresh.  A frontier is the highest view up to which an instance's committed
chain is contiguous, and it only moves up: the store commits one chain,
oldest first, and refuses a commit that is not anchored at its committed
tip, so no commit ever lands inside a prefix already found contiguous.  A
frontier therefore resumes from where it stopped, and its cursor from the
first commit it could not absorb, instead of being re-derived from the
execution floor.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.chain import Proposal, ProposalStatus
from repro.core.config import SpotLessConfig
from repro.core.instance import InstanceEnvironment, SpotLessInstance
from repro.core.messages import AskMessage, ProposalForward, ProposeMessage, SyncMessage
from repro.net.message import Message
from repro.net.sizes import SIGNATURE_BYTES, MessageSizeModel
from repro.recovery.messages import CheckpointCertificate, SlotEntry, SlotRecord
from repro.runtime.replica import ReplicaRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.workload.requests import Transaction

# Enum members bound once: a ``Class.MEMBER`` load in a function costs about
# 100 ns on CPython 3.10/3.11, and no call count shows it.
_COMMITTED = ProposalStatus.COMMITTED


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
    #: The class of each hosted consensus instance.
    instance_class = SpotLessInstance

    def __init__(
        self,
        node_id: int,
        config: SpotLessConfig,
        simulator: Simulator,
        network: Network,
        size_model: Optional[MessageSizeModel] = None,
    ) -> None:
        super().__init__(node_id, config, simulator, network, size_model)

        # Views strictly below this floor are settled — either executed here
        # in contiguous order, or covered by a verified state transfer — so
        # delivery below the floor needs no per-instance contiguity proof.
        self._execution_floor_view = 0
        # Execution frontier of each instance, and the index of the first
        # commit in its store's commit order the frontier has not passed;
        # only _extend_frontier moves them.
        self._frontiers: List[int] = [-1] * config.num_instances
        self._cursors: List[int] = [0] * config.num_instances
        # The proposals each instance accepted that its frontier has not
        # passed, in view order: their requests count as proposed here, and
        # go back to the queue if the frontier passes one uncommitted.
        self._accepted: List[Deque[Proposal]] = [deque() for _ in range(config.num_instances)]
        # Wire size of the control messages; a Propose and a forward are
        # priced by the batch they carry.  The size model is fixed per
        # deployment.
        control = self.size_model.control_bytes
        self._sync_bytes = control(signatures=1)
        self._ask_bytes = control()
        self._certificate_bytes = config.quorum * SIGNATURE_BYTES

        # How many instances are in each view, the slowest instance's view,
        # and each held instance's target view (see _admit).
        self._instances_in_view: Dict[int, int] = {0: config.num_instances}
        self._slowest_view = 0
        self._held: Dict[int, int] = {}

        self.instances: Dict[int, SpotLessInstance] = {}
        for instance_id in range(config.num_instances):
            self.instances[instance_id] = self.instance_class(
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
            on_accept=self._on_instance_accept,
            now=lambda: self.simulator.now,
            has_pending=self.mempool.has_unproposed,
            admit=self._admit,
        )

    def _message_size(self, message: Message) -> int:
        """Wire size of ``message``: a Propose, forwarded or not, pays for
        the transactions it carries and for a parent certificate's
        signatures."""
        cls = message.__class__
        if cls is SyncMessage:
            return self._sync_bytes
        if cls is AskMessage:
            return self._ask_bytes
        propose = message.propose if cls is ProposalForward else message
        size = self.size_model.proposal_bytes(len(propose.transactions))
        if cls is ProposeMessage and propose.parent_certificate:
            size += self._certificate_bytes
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

    def _assign_shard(self, transaction: Transaction) -> int:
        """Instance responsible for proposing ``transaction``.

        The paper assigns requests to instances by digest (Section 5), which
        load-balances requests from the same client across instances.
        """
        return transaction.instance_assignment(self.config.num_instances)

    def _next_batch(self, instance_id: int) -> Tuple[Transaction, ...]:
        """Up to a batch of the instance's requests; with none, the empty
        batch of a no-op, so the view's other proposals can execute
        (Section 5)."""
        return self.mempool.take_batch(self.config.batch_size, shard=instance_id, allow_empty=True)

    def _on_instance_accept(self, instance_id: int, proposal: Proposal) -> None:
        """An instance accepted ``proposal``: its requests are in flight.

        Each request goes to exactly one instance (Section 5), and every
        replica holds it (Section 6.1), so a primary must not propose again
        what an earlier primary's accepted proposal carries.  The proposal
        waits in view order until the instance's frontier passes its view;
        if it was not committed by then, ``_extend_frontier`` queues its
        unexecuted requests again.
        """
        self.mempool.mark_proposed(proposal.message.transactions)
        self._accepted[instance_id].append(proposal)

    # ------------------------------------------------------------------
    # keeping the instances in step
    # ------------------------------------------------------------------

    def _admit(self, instance_id: int, view: int, skip: bool) -> bool:
        """An instance enters view v + 1 only once every instance here has
        entered view v.

        View v executes only once every instance has committed through v
        (§4–5), so an instance running further ahead only makes its own
        transactions wait longer.  A held instance enters its target view
        when the slowest instance's view reaches the one below it.  The f + 1
        higher-view skip is never held, so a replica behind its peers still
        catches up; and the lowest view of any instance at any replica is
        never held, while every Sync it needs was sent by replicas at or past
        it, so the rule costs no liveness.
        """
        slowest = self._slowest_view
        if view > slowest + 1 and not skip:
            self._held[instance_id] = view
            return False
        if skip:
            self._held.pop(instance_id, None)
        counts = self._instances_in_view
        old = self.instances[instance_id].current_view
        counts[view] = counts.get(view, 0) + 1
        left = counts[old] - 1
        if left:
            counts[old] = left
        else:
            del counts[old]
            if old == slowest:
                self._raise_slowest_view(old + 1)
        return True

    def _raise_slowest_view(self, view: int) -> None:
        """The last instance in the slowest view left it: find the next one up,
        and release the held instances it lets in.

        Views only move up, so the search steps up from the last slowest
        view: O(1) amortised per view entered.
        """
        counts = self._instances_in_view
        while view not in counts:
            view += 1
        self._slowest_view = view
        held = self._held
        for instance_id in [i for i, target in held.items() if target <= view + 1]:
            # A release below may already have released it, by raising the
            # slowest view again.
            target = held.pop(instance_id, None)
            if target is not None:
                # Counted in its target view the way a skip is: never held.
                self._admit(instance_id, target, True)
                self.instances[instance_id].release()

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
        if self.tracer is not None:
            message = proposal.message
            self.tracer.instant(
                self.node_id,
                "consensus",
                "decide",
                view=proposal.view,
                instance=instance_id,
                batch=len(message.transactions) if message is not None else 0,
            )
        self._advance_execution()

    def _extend_frontier(self, instance_id: int) -> int:
        """Move this instance's execution frontier up as far as it goes.

        The frontier is the highest view up to which the instance's committed
        chain is contiguous.  Commits above it are taken in ascending view
        order; a commit extends the prefix only when its parent is the
        genesis proposal or lies inside the prefix (below the execution
        floor, or a committed proposal at a lower or equal view).  Views
        inside the prefix that hold no commit provably carry no committed
        proposal (the chain jumps over them), so execution may skip them;
        views beyond it must wait until Ask-recovery fills the gap, otherwise
        a recovering replica could execute a subsequence of the order its
        peers executed.

        The walk resumes from the last frontier (or from just below the
        floor, when the floor has passed it) because a contiguous prefix
        stays contiguous: the store commits one chain, oldest first, and
        refuses a commit not anchored at its committed tip, so a new commit
        always lands above every committed view; and a higher floor only
        weakens the conditions the prefix already met.

        For the same reason the store's commit order is ascending view order,
        and the walk is a cursor into it: it steps over the commits the
        frontier (or the floor) has already passed and each commit the
        prefix absorbs, and stops at the first commit it cannot absorb.  A
        commit is read once when it joins the prefix, plus once per call
        that finds it still blocked.  Its parent link is read live, so a
        link Ask-recovery attached since the last call counts.

        Once the frontier passes an accepted proposal's view, that proposal
        is committed or never will be: the requests of one that was not go
        back to the mempool.
        """
        floor = self._execution_floor_view
        start = frontier = self._frontiers[instance_id]
        if frontier < floor - 1:
            frontier = floor - 1
        store = self.instances[instance_id].store
        committed = store.committed
        cursor = self._cursors[instance_id]
        while cursor < len(committed):
            proposal = committed[cursor]
            view = proposal.view
            if view > frontier:
                parent_view = proposal.parent_view
                if parent_view is None or parent_view > frontier:
                    break
                if parent_view >= floor and store.committed_in_view(parent_view) is None:
                    break
                frontier = view
            cursor += 1
        self._cursors[instance_id] = cursor
        self._frontiers[instance_id] = frontier
        if frontier > start:
            accepted = self._accepted[instance_id]
            while accepted and accepted[0].view <= frontier:
                proposal = accepted.popleft()
                if proposal.status is not _COMMITTED:
                    self.mempool.requeue(proposal.message.transactions, instance_id)
        return frontier

    def _advance_execution(self) -> None:
        """Deliver complete views to the pipeline in order (Figure 6).

        The cursor is the pipeline's execution frontier.  A view is complete
        once (a) every instance's execution frontier has reached it, so the
        total order for the view is fixed and gaps are provably empty, and
        (b) every proposal committed in it is held in full (a proposal
        committed by reference waits for Ask-recovery to attach it, exactly
        as the paper requires replicas to recover full proposals before
        executing them).  Execution thus moves at the slowest instance's
        clock; an instance's frontier only moves up, so it is extended only
        when it is below the view to execute.  A delivered view executes at
        once: its records carry their transactions.
        Views below the execution floor are covered by a verified state
        transfer and need no per-instance contiguity proof, because the
        checkpoint certificate already attests the exact content.
        """
        pipeline = self.pipeline
        instances = self.instances
        frontiers = self._frontiers
        instance_ids = range(self.config.num_instances)
        while True:
            view = pipeline.next_execution_position
            if view >= self._execution_floor_view:
                # The view waits for the slowest instance; the first one
                # found short decides.
                for instance_id in instance_ids:
                    if frontiers[instance_id] < view and self._extend_frontier(instance_id) < view:
                        return
            records: List[SlotRecord] = []
            for instance_id in instance_ids:
                proposal = instances[instance_id].store.committed_in_view(view)
                if proposal is None:
                    continue
                message = proposal.message
                if message is None:
                    return  # committed by reference: waits for Ask-recovery
                records.append(
                    SlotRecord(
                        view=view,
                        instance=instance_id,
                        transactions=message.transactions,
                        slot_digest=proposal.digest,
                    )
                )
            pipeline.deliver_entry(SlotEntry(position=view, records=tuple(records)))

    def _record_executed_entry(self, entry: SlotEntry) -> None:
        """Trace the executed view, then fold it like any order unit."""
        if self.tracer is not None:
            self.tracer.instant(
                self.node_id,
                "lifecycle",
                "execute-view",
                view=entry.position,
                records=len(entry.records),
            )
        super()._record_executed_entry(entry)

    # ------------------------------------------------------------------
    # recovery: state transfer, checkpoint GC and Ask rewiring
    # ------------------------------------------------------------------

    def _apply_state_entries(
        self, entries: Tuple[SlotEntry, ...], certificate: CheckpointCertificate
    ) -> None:
        """Replay the verified transferred views, then resume delivery.

        Each entry is one view of the global order with the records the
        cluster committed across instances.  The certificate's position
        becomes the execution floor, the runtime replays the entries through
        the pipeline, and delivery resumes above the floor.
        """
        self._execution_floor_view = max(self._execution_floor_view, certificate.position)
        super()._apply_state_entries(entries, certificate)
        self._advance_execution()

    def on_stable_checkpoint(self, certificate: CheckpointCertificate) -> None:
        """GC per-view state below the stable floor (executed views only)."""
        executed = self.pipeline.next_execution_position
        self._execution_floor_view = max(
            self._execution_floor_view, min(certificate.position, executed)
        )
        gc_floor = min(self._execution_floor_view, executed)
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

    def instance_views(self) -> Dict[int, int]:
        """Current view of each instance."""
        return {
            instance_id: instance.current_view for instance_id, instance in self.instances.items()
        }

    def committed_map(self) -> Dict[Tuple[int, int], bytes]:
        """Mapping ``(view, instance) -> proposal digest`` of committed slots.

        Non-divergence requires that any slot committed by two non-faulty
        replicas holds the same proposal.  The decided views are read from
        the stable floor up (see :meth:`_decided_entries`), and the commits not
        yet executed from the tail of each instance's store, whose commit
        order is ascending view order.
        """
        mapping = {
            (entry.position, record.instance): record.slot_digest
            for entry in self._decided_entries()
            for record in entry.records
        }
        frontier = self.pipeline.next_execution_position
        for instance_id, instance in self.instances.items():
            for proposal in reversed(instance.store.committed):
                if proposal.view < frontier:
                    break
                mapping[(proposal.view, instance_id)] = proposal.digest
        return mapping


__all__ = ["SpotLessReplica"]
