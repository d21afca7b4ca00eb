"""The PBFT consensus state machine for one instance.

The core is a pure state machine (no I/O), shared by the standalone PBFT
replica and by RCC, which runs one core per concurrent instance.  It
implements the three normal-case phases (PrePrepare, Prepare, Commit) with
out-of-order processing — the primary keeps up to ``pipeline_depth`` slots in
flight — and the view-change protocol for replacing an unresponsive primary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.protocols.common import BftConfig
from repro.protocols.pbft.messages import (
    CommitMessage,
    NewViewMessage,
    PrepareMessage,
    PrePrepareMessage,
    ViewChangeMessage,
)
from repro.recovery.messages import CheckpointCertificate

NOOP_BATCH: Tuple[bytes, ...] = ()


@dataclass
class PbftEnvironment:
    """Callbacks connecting a :class:`PbftInstanceCore` to its replica."""

    replica_id: int
    broadcast: Callable[[object], None]
    # ``make_timer(name, callback)`` hands out one restartable timer shaped
    # like :class:`repro.sim.actor.Timer` (``start`` / ``cancel`` / ``running``).
    make_timer: Callable[[str, Callable[[], None]], object]
    next_batch: Callable[[int], Optional[Tuple[bytes, ...]]]
    on_decide: Callable[[int, int, int, Tuple[bytes, ...]], None]
    now: Callable[[], float] = lambda: 0.0
    # Work the primary owes this replica beyond the slots in flight (zero
    # when none): the progress deadline only stays armed while it is owed.
    owed_work: Callable[[], int] = lambda: 0
    # ``on_content(instance, sequence, digests)``: the core accepted content
    # for a slot (a PrePrepare or a NewView re-proposal).  RCC uses it to
    # fill rounds; None where no other instance needs to know.
    on_content: Optional[Callable[[int, int, Tuple[bytes, ...]], None]] = None


@dataclass
class SlotState:
    """Consensus state of one sequence slot.

    ``prepares``/``commits`` map each voter to the batch digest it voted
    for: quorums are counted per digest, so an equivocating vote for a
    conflicting value (the A3 attack) can never be credited toward the
    honest batch — even when it arrives before the PrePrepare fixes the
    slot's digest.  :meth:`PbftInstanceCore.on_prepare` and ``on_commit``
    keep the per-digest tallies exact as they record each vote.
    """

    sequence: int
    view: int
    digests: Optional[Tuple[bytes, ...]] = None
    batch_digest: Optional[bytes] = None
    prepares: Dict[int, bytes] = field(default_factory=dict)
    commits: Dict[int, bytes] = field(default_factory=dict)
    # Per-digest tallies of the vote maps above, maintained on every vote
    # (re-)registration so quorum checks are keyed lookups, not scans.
    prepare_counts: Dict[bytes, int] = field(default_factory=dict)
    commit_counts: Dict[bytes, int] = field(default_factory=dict)
    prepared: bool = False
    committed: bool = False
    commit_sent: bool = False


class PbftInstanceCore:
    """One PBFT instance: primary-backup three-phase commit with view changes.

    The primary of view ``v`` is replica ``(instance_id + v) mod n`` so that
    a standalone PBFT deployment (instance 0) starts with replica 0 as the
    primary and RCC instances start with distinct primaries.
    """

    def __init__(self, instance_id: int, config: BftConfig, environment: PbftEnvironment) -> None:
        self.instance_id = instance_id
        self.config = config
        self.env = environment

        self.view = 0
        self.next_sequence = 0
        self.last_decided_sequence = -1
        self.decided_frontier = -1  # highest sequence with a contiguous decided prefix
        self._on_content = environment.on_content
        self.slots: Dict[int, SlotState] = {}
        # Sequences whose slot holds content but is not yet committed,
        # maintained incrementally at every digests/committed transition so
        # the pipeline-window check is O(1) instead of a full slot scan.
        self._inflight: Set[int] = set()
        self.active = True
        self.started = False

        self._view_change_votes: Dict[int, Dict[int, ViewChangeMessage]] = {}
        self._future_messages: List[Tuple[int, object]] = []
        self._progress_timer = environment.make_timer(
            f"pbft-{instance_id}-progress", self._on_progress_timeout
        )
        # Decided frontier at the moment the progress deadline was armed:
        # the timer only escalates when the frontier has not moved since.
        self._deadline_frontier = -1
        self._view_change_timer = environment.make_timer(
            f"pbft-{instance_id}-viewchange", self._on_view_change_timeout
        )
        # View whose NewView the escalation timer is waiting for.
        self._awaited_view = 0

        # Observability (repro.obs.Tracer); the owning replica propagates its
        # tracer here.  The two episode spans a core can have open at once:
        # the armed progress deadline and an in-flight view-change attempt.
        self.tracer = None
        self._progress_span: Optional[int] = None
        self._vc_span: Optional[int] = None

        # Stable checkpoint floor: every sequence below it is quorum-attested
        # executed (recoverable via state transfer), so its per-slot state is
        # garbage-collected and view-change votes reference the floor instead
        # of carrying the full since-genesis history.
        self.checkpoint_floor = 0
        self.stable_checkpoint: Optional[CheckpointCertificate] = None
        # Highest view seen per sender among future-view messages; f + 1
        # distinct senders ahead of us prove a legitimate NewView we missed.
        self._future_view_seen: Dict[int, int] = {}

        self.view_changes = 0
        self.decided_batches = 0
        self.preprepares_sent = 0
        self.views_adopted = 0
        # Liveness-machinery trace counters: deadline re-arms granted to a
        # frontier that kept advancing (partial progress that would have
        # silently suppressed a view change under cancel-on-any-PrePrepare),
        # and deadlines that expired with a genuinely stalled frontier.
        self.progress_deadline_extensions = 0
        self.progress_timeout_fires = 0

        # Quorum threshold as a plain int: the per-vote checks compare
        # against it on every Prepare/Commit, and the property chain through
        # the config costs more than the comparison itself.
        self._quorum = config.quorum

    # ------------------------------------------------------------------

    @property
    def quorum(self) -> int:
        """2f + 1."""
        return self.config.quorum

    def primary_of(self, view: Optional[int] = None) -> int:
        """Primary replica of ``view`` (default: current view)."""
        view = self.view if view is None else view
        return (self.instance_id + view) % self.config.num_replicas

    def is_primary(self) -> bool:
        """True when this replica leads the current view."""
        return self.primary_of() == self.env.replica_id

    def start(self) -> None:
        """Begin participating; the primary starts proposing immediately."""
        if self.started:
            return
        self.started = True
        self.try_propose()

    # ------------------------------------------------------------------
    # primary role with out-of-order processing
    # ------------------------------------------------------------------

    def outstanding_slots(self) -> int:
        """Slots proposed but not yet decided."""
        return len(self._inflight)

    def try_propose(self) -> None:
        """Propose new slots while the pipeline window has room (out-of-order)."""
        if not self.active or not self.started or not self.is_primary():
            return
        while self.outstanding_slots() < self.config.pipeline_depth:
            batch = self.env.next_batch(self.instance_id)
            if batch is None:
                return
            message = PrePrepareMessage(
                instance=self.instance_id,
                view=self.view,
                sequence=self.next_sequence,
                transaction_digests=tuple(batch),
            )
            self.next_sequence += 1
            self.preprepares_sent += 1
            if self.tracer is not None:
                self.tracer.instant(
                    self.env.replica_id,
                    "consensus",
                    "propose",
                    instance=self.instance_id,
                    sequence=message.sequence,
                    view=self.view,
                    batch=len(batch),
                )
            self.env.broadcast(message)

    # ------------------------------------------------------------------
    # normal-case message handling
    # ------------------------------------------------------------------

    def _slot(self, sequence: int, view: int) -> SlotState:
        slot = self.slots.get(sequence)
        # A committed slot is immutable: a later-view message for it must not
        # wipe the decided state (it could then be re-decided differently).
        if slot is None or (slot.view < view and not slot.committed):
            if slot is not None and slot.digests is not None:
                # The rebuilt slot starts with no content.
                self._inflight.discard(sequence)
            slot = SlotState(sequence=sequence, view=view)
            self.slots[sequence] = slot
        return slot

    def _buffer_future(self, sender: int, message: object) -> bool:
        """Hold messages from views we have not entered yet.

        A new primary pipelines PrePrepares right behind its NewView, and
        per-link jitter can deliver them first; dropping them would leave
        permanent holes in the slot space, so they are replayed once the
        view advances.
        """
        view = message.view  # normal-case messages all carry a view
        if view <= self.view:
            return False
        self._future_messages.append((sender, message))
        self._future_view_seen[sender] = max(self._future_view_seen.get(sender, -1), view)
        self._maybe_adopt_future_view()
        return True

    def _maybe_adopt_future_view(self) -> None:
        """Adopt a view that f + 1 distinct replicas are provably operating in.

        A replica that was down or partitioned through a view change never
        received the NewView message and would buffer the new view's traffic
        forever.  f + 1 senders emitting messages in views above ours include
        at least one non-faulty replica, and a non-faulty replica only enters
        a view through a NewView with 2f + 1 support — so the view is
        legitimate and we can join it (missed re-proposals below the floor
        are recovered through state transfer).
        """
        higher = sorted(
            (view for view in self._future_view_seen.values() if view > self.view),
            reverse=True,
        )
        if len(higher) < self.config.weak_quorum:
            return
        target = higher[self.config.weak_quorum - 1]
        if target <= self.view:
            return
        self.view = target
        self.views_adopted += 1
        self._cancel_progress_timer()
        self._view_change_timer.cancel()
        if self.tracer is not None:
            self.tracer.end(self._vc_span, entered_view=target, adopted=True)
            self._vc_span = None
            self.tracer.instant(
                self.env.replica_id,
                "view-change",
                f"view-adopted i{self.instance_id} v{target}",
                view=target,
            )
        self._view_change_votes = {
            v: votes for v, votes in self._view_change_votes.items() if v > self.view
        }
        self._replay_future_messages()
        # Re-arm under the adopted view: the new primary gets a fresh full
        # deadline, and the timer label never outlives the view it names.
        if self._awaiting_progress():
            self.arm_progress_timer()

    def _replay_future_messages(self) -> None:
        ready = [(s, m) for s, m in self._future_messages if m.view <= self.view]
        self._future_messages = [(s, m) for s, m in self._future_messages if m.view > self.view]
        for sender, message in ready:
            self.on_message(sender, message)

    def on_preprepare(self, sender: int, message: PrePrepareMessage) -> None:
        """Handle the primary's proposal for a slot."""
        if not self.active or message.instance != self.instance_id:
            return
        if message.view > self.view:
            self._buffer_future(sender, message)
            return
        if message.view != self.view or sender != self.primary_of(message.view):
            return
        slot = self._slot(message.sequence, message.view)
        batch_digest = message.batch_digest()
        if slot.digests is not None and slot.batch_digest != batch_digest:
            # Equivocating primary: ignore the second proposal for the slot.
            return
        if slot.digests is None and not slot.committed:
            self._inflight.add(slot.sequence)
        slot.digests = message.transaction_digests
        slot.batch_digest = batch_digest
        # A PrePrepare is a commit *obligation*, not commit *progress*: a
        # partially-responsive primary that drip-feeds proposals must not be
        # able to reset the deadline forever (fuzz-1-42-min wedged every
        # replica exactly that way).  The deadline is armed here if idle and
        # only moves when the decided frontier does (_note_frontier_progress).
        self.arm_progress_timer()
        prepare = PrepareMessage(
            instance=self.instance_id,
            view=message.view,
            sequence=message.sequence,
            batch_digest=slot.batch_digest,
        )
        self.env.broadcast(prepare)
        self._check_prepared(slot)
        if self._on_content is not None:
            self._on_content(self.instance_id, message.sequence, message.transaction_digests)

    def on_prepare(self, sender: int, message: PrepareMessage) -> None:
        """Handle a Prepare vote."""
        if not self.active or message.instance != self.instance_id:
            return
        if message.view > self.view:
            self._buffer_future(sender, message)
            return
        if message.view != self.view:
            return
        slot = self.slots.get(message.sequence)
        if slot is None or slot.view != message.view:  # else _slot returns it as is
            slot = self._slot(message.sequence, message.view)
        # Register (or re-register) the vote, keeping the tally exact.
        digest = message.batch_digest
        previous = slot.prepares.get(sender)
        if previous != digest:
            counts = slot.prepare_counts
            if previous is not None:
                counts[previous] -= 1
            slot.prepares[sender] = digest
            counts[digest] = counts.get(digest, 0) + 1
        # Straggler votes on an already-prepared slot are the common case at
        # n > quorum; the guard here skips a call _check_prepared would
        # no-op anyway.
        if not slot.prepared and slot.digests is not None:
            self._check_prepared(slot)

    def _check_prepared(self, slot: SlotState) -> None:
        if slot.prepared or slot.digests is None:
            return
        # The PrePrepare counts as the primary's Prepare; only votes for this
        # slot's digest count toward the quorum.
        votes = slot.prepare_counts.get(slot.batch_digest, 0)
        if slot.prepares.get(self.primary_of(slot.view)) != slot.batch_digest:
            votes += 1
        if votes < self._quorum:
            return
        slot.prepared = True
        commit = CommitMessage(
            instance=self.instance_id,
            view=slot.view,
            sequence=slot.sequence,
            batch_digest=slot.batch_digest or b"",
        )
        slot.commit_sent = True
        self.env.broadcast(commit)

    def on_commit(self, sender: int, message: CommitMessage) -> None:
        """Handle a Commit vote; decide the slot at 2f + 1 votes."""
        if not self.active or message.instance != self.instance_id:
            return
        if message.view > self.view:
            self._buffer_future(sender, message)
            return
        slot = self.slots.get(message.sequence)
        if slot is None or slot.view != message.view:  # else _slot returns it as is
            slot = self._slot(message.sequence, message.view)
        digest = message.batch_digest
        previous = slot.commits.get(sender)
        if previous != digest:
            counts = slot.commit_counts
            if previous is not None:
                counts[previous] -= 1
            slot.commits[sender] = digest
            counts[digest] = counts.get(digest, 0) + 1
        if not slot.committed and slot.prepared and slot.digests is not None:
            self._check_committed(slot)

    def _check_committed(self, slot: SlotState) -> None:
        if slot.committed or not slot.prepared or slot.digests is None:
            return
        if slot.commit_counts.get(slot.batch_digest, 0) < self._quorum:
            return
        slot.committed = True
        self._inflight.discard(slot.sequence)
        self.decided_batches += 1
        self.last_decided_sequence = max(self.last_decided_sequence, slot.sequence)
        frontier_before = self.decided_frontier
        while True:
            following = self.slots.get(self.decided_frontier + 1)
            if following is None or not following.committed:
                break
            self.decided_frontier += 1
        if self.decided_frontier > frontier_before:
            self._note_frontier_progress()
        if self.tracer is not None:
            self.tracer.instant(
                self.env.replica_id,
                "consensus",
                "decide",
                instance=self.instance_id,
                sequence=slot.sequence,
                view=slot.view,
            )
        self.env.on_decide(self.instance_id, slot.sequence, slot.view, slot.digests)
        self.try_propose()

    # ------------------------------------------------------------------
    # failure detection and view change
    # ------------------------------------------------------------------

    def arm_progress_timer(self) -> None:
        """Arm the progress deadline used to detect a stalled primary.

        Backups arm it whenever there is outstanding work — pending requests
        the primary should propose, or proposed slots that have not committed.
        The deadline binds to the decided frontier at arm time: it re-arms
        when the frontier advances with work still outstanding, disarms when
        the work drains, and escalates to a view change when it expires with
        the frontier unmoved.  Crucially, *receiving* a PrePrepare neither
        cancels nor resets it — only committed progress does.

        The timer never survives a view adoption (adoption paths cancel and
        re-arm), so a timeout always escalates from the view it was armed in.
        """
        if self._progress_timer.running or self.is_primary() or not self.active:
            return
        self._deadline_frontier = self.decided_frontier
        self._progress_timer.start(self.config.request_timeout)
        if self.tracer is not None:
            self._progress_span = self.tracer.begin(
                self.env.replica_id,
                "progress-deadline",
                f"progress i{self.instance_id} v{self.view}",
                frontier=self.decided_frontier,
            )

    def _cancel_progress_timer(self) -> None:
        self._progress_timer.cancel()
        if self.tracer is not None and self._progress_span is not None:
            self.tracer.end(self._progress_span, fired=False)
            self._progress_span = None

    def _awaiting_progress(self) -> bool:
        """True while the primary owes this replica commits.

        Covers both halves of the obligation: slots proposed but not yet
        committed (content in flight) and whatever else the replica says
        this instance owes (``owed_work``): the requests queued in its shard
        that no proposal has covered and, under RCC, the no-ops its round
        rule asks of it.
        """
        return bool(self._inflight) or self.env.owed_work() > 0

    def _note_frontier_progress(self) -> None:
        """The decided frontier advanced: extend or disarm the deadline.

        With work still outstanding the deadline re-arms from *now* against
        the new frontier (partial progress buys the primary a full timeout,
        never an indefinite reprieve); with nothing outstanding it disarms.
        """
        if not self._progress_timer.running:
            return
        self._cancel_progress_timer()
        if self._awaiting_progress():
            self.progress_deadline_extensions += 1
            self.arm_progress_timer()

    def _on_progress_timeout(self) -> None:
        if self.tracer is not None and self._progress_span is not None:
            self.tracer.end(self._progress_span, fired=True)
            self._progress_span = None
        if not self.active:
            return
        if not self._awaiting_progress():
            return  # workload drained while the deadline was pending
        if self.decided_frontier > self._deadline_frontier:
            # Progress since arm that did not route through
            # _note_frontier_progress (e.g. a floor installed while this
            # fire was already scheduled): extend rather than escalate.
            self.progress_deadline_extensions += 1
            self.arm_progress_timer()
            return
        self.progress_timeout_fires += 1
        if self.tracer is not None:
            self.tracer.instant(
                self.env.replica_id,
                "progress-deadline",
                f"progress-timeout i{self.instance_id} v{self.view}",
                frontier=self.decided_frontier,
            )
        self.request_view_change(self.view + 1)

    def request_view_change(self, new_view: int) -> None:
        """Broadcast a ViewChange message for ``new_view``.

        The vote reports the *contiguous* decided prefix (a decided ``max``
        would hide holes) and carries the content of every slot **above the
        stable checkpoint floor** this replica knows content for — committed,
        prepared, or merely received.  Below the floor the content is quorum
        attested and recoverable via state transfer, so the vote references
        the floor (plus its certificate) instead of carrying the slots: that
        bounds the vote to O(K) slots rather than O(history).  Above the
        floor, merely-received content must still travel, because
        ``on_new_view`` rebuilds re-proposed slots with ``prepared=False``:
        restricting votes to currently-prepared slots would forget the old
        certificate between two rapid view changes, and a slot committed
        somewhere could then be filled with a no-op (committing anywhere
        needs 2f + 1 commit-senders, each of which held the content — so a
        content-bearing vote always survives into any later quorum).
        """
        if new_view <= self.view and self.started:
            new_view = self.view + 1
        prepared_slots = tuple(
            (slot.sequence, slot.view, slot.digests)
            for slot in self.slots.values()
            if slot.digests is not None and slot.sequence >= self.checkpoint_floor
        )
        message = ViewChangeMessage(
            instance=self.instance_id,
            new_view=new_view,
            last_executed=self.decided_frontier,
            prepared_slots=prepared_slots,
            checkpoint_floor=self.checkpoint_floor,
            checkpoint=self.stable_checkpoint,
        )
        if self.tracer is not None:
            # A re-request for a higher view supersedes the open episode.
            if self._vc_span is not None:
                self.tracer.end(self._vc_span, superseded=True)
            self._vc_span = self.tracer.begin(
                self.env.replica_id,
                "view-change",
                f"view-change i{self.instance_id} v{self.view}->v{new_view}",
                from_view=self.view,
                to_view=new_view,
            )
        self.env.broadcast(message)
        self._arm_view_change_escalation(new_view)

    def _arm_view_change_escalation(self, awaited_view: int) -> None:
        """Escalate to the next view if the awaited NewView never arrives.

        The primary of the awaited view can itself be faulty (two crashed
        replicas can be consecutive in the rotation); without escalation
        every replica would wait forever for a NewView that nobody can send
        and the instance would wedge permanently.
        """
        self._awaited_view = awaited_view
        self._view_change_timer.start(self.config.view_change_timeout)

    def _on_view_change_timeout(self) -> None:
        if not self.active or self.view >= self._awaited_view:
            return
        self.request_view_change(self._awaited_view + 1)

    def floor_of_position(self, position: int) -> int:
        """Sequence floor implied by a checkpoint at global-order ``position``.

        Global positions interleave the instances (``seq * m + instance``),
        so positions [0, P) cover every sequence strictly below ``P // m``
        in every instance; standalone PBFT (m = 1) maps one-to-one.  The
        single source of this arithmetic: the replicas installing floors and
        the view-change validation below must agree on it.
        """
        return position // max(1, self.config.num_instances)

    def note_stable_checkpoint(
        self, floor_sequence: int, certificate: Optional[CheckpointCertificate] = None
    ) -> None:
        """Install a stable checkpoint floor and GC per-slot state below it.

        Every sequence below ``floor_sequence`` is quorum-attested executed:
        its votes and batch content will never be needed again (a lagging
        replica recovers them through state transfer), so the slot state is
        dropped and the decided frontier advances to the floor.  Only
        certified floors reach this method — uncertified slots are never
        garbage-collected.
        """
        if floor_sequence <= self.checkpoint_floor:
            return
        self.checkpoint_floor = floor_sequence
        if certificate is not None:
            self.stable_checkpoint = certificate
        frontier_before = self.decided_frontier
        self.decided_frontier = max(self.decided_frontier, floor_sequence - 1)
        self.last_decided_sequence = max(self.last_decided_sequence, floor_sequence - 1)
        self.next_sequence = max(self.next_sequence, floor_sequence)
        for sequence in [s for s in self.slots if s < floor_sequence]:
            del self.slots[sequence]
            self._inflight.discard(sequence)
        if self.decided_frontier > frontier_before:
            # A certified floor proves cluster-wide execution progress: it
            # extends the deadline exactly like locally-decided progress (a
            # backup kept dark by an A2 primary but caught up through state
            # transfer has no grounds to demand a view change).
            self._note_frontier_progress()

    def on_view_change(self, sender: int, message: ViewChangeMessage) -> None:
        """Collect ViewChange votes; the new primary announces NewView at 2f + 1."""
        if message.instance != self.instance_id or message.new_view <= self.view:
            return
        votes = self._view_change_votes.setdefault(message.new_view, {})
        votes[sender] = message
        if len(votes) < self.quorum:
            return
        if self.primary_of(message.new_view) != self.env.replica_id:
            return
        # The new view starts at the highest *certified* checkpoint floor any
        # quorum member reports: everything below it is quorum-attested
        # executed and recoverable via state transfer, so it is neither
        # re-proposed nor re-affirmed (this is what keeps NewView bounded by
        # K instead of the full history).  The claimed floor must be bound
        # to the certificate's position — a bare integer in the vote would
        # let one Byzantine voter fabricate an arbitrarily high floor and
        # wedge the instance by suppressing every re-proposal.
        certified_floor = self.checkpoint_floor
        for vote in votes.values():
            if vote.checkpoint is None or vote.checkpoint_floor <= certified_floor:
                continue
            if vote.checkpoint_floor != self.floor_of_position(vote.checkpoint.position):
                continue
            if vote.checkpoint.has_quorum(self.quorum, self.config.num_replicas):
                certified_floor = vote.checkpoint_floor
        # Re-propose every slot prepared by any member of the quorum, taking
        # the highest-view certificate per slot (PBFT's selection rule): an
        # older-view preparation may have been superseded by content that
        # some replica already committed.
        best: Dict[int, Tuple[int, Tuple[bytes, ...]]] = {}
        for vote in votes.values():
            for sequence, view, digests in vote.prepared_slots:
                current = best.get(sequence)
                if current is None or view > current[0]:
                    best[sequence] = (view, digests)
        # Merge the primary's own slot store: it may have learned or decided
        # content after broadcasting its vote, and that content must not
        # vanish from the new view's re-proposals.
        for slot in self.slots.values():
            if slot.digests is not None:
                current = best.get(slot.sequence)
                if current is None or slot.view > current[0]:
                    best[slot.sequence] = (slot.view, slot.digests)
        reproposals: Dict[int, Tuple[bytes, ...]] = {
            sequence: digests
            for sequence, (_view, digests) in best.items()
            if sequence >= certified_floor
        }
        # Fill the remaining holes with no-ops (PBFT's null requests): slots
        # nobody has content for would otherwise clog the pipeline window
        # forever and stall the global order.  The no-op fill is safe
        # because votes carry their full content history above the certified
        # floor: a slot committed anywhere had its content at 2f + 1
        # replicas, so every view-change quorum contains at least one vote
        # carrying it — only slots whose content no quorum member ever
        # received are filled with a no-op.
        # The no-op fill floor takes the highest `last_executed` that f + 1
        # voters support: a bare maximum would let one Byzantine voter claim
        # an astronomically deep frontier, suppress the fill entirely, and
        # wedge the pipeline on the unfilled holes.  An f+1-supported value
        # includes at least one honest voter, so it is genuinely executed.
        claimed = sorted((vote.last_executed for vote in votes.values()), reverse=True)
        supported_executed = claimed[min(self.config.f, len(claimed) - 1)]
        floor = max(self.decided_frontier, certified_floor - 1, supported_executed)
        known = [s.sequence for s in self.slots.values() if s.digests is not None]
        top = max([floor] + list(reproposals) + known)
        for sequence in range(max(floor + 1, certified_floor), top + 1):
            reproposals.setdefault(sequence, NOOP_BATCH)
        new_view_message = NewViewMessage(
            instance=self.instance_id,
            new_view=message.new_view,
            reproposals=tuple(sorted(reproposals.items())),
            supporters=tuple(sorted(votes.keys())),
        )
        self.env.broadcast(new_view_message)

    def on_new_view(self, sender: int, message: NewViewMessage) -> None:
        """Enter the announced view and reprocess the re-proposed slots."""
        if message.instance != self.instance_id or message.new_view <= self.view:
            return
        if sender != self.primary_of(message.new_view):
            return
        if len(message.supporters) < self.quorum:
            return
        self.view = message.new_view
        self.view_changes += 1
        self._cancel_progress_timer()
        self._view_change_timer.cancel()
        if self.tracer is not None:
            self.tracer.end(self._vc_span, entered_view=self.view)
            self._vc_span = None
            self.tracer.instant(
                self.env.replica_id,
                "view-change",
                f"new-view i{self.instance_id} v{self.view}",
                view=self.view,
                primary=sender,
            )
        self._view_change_votes = {v: votes for v, votes in self._view_change_votes.items() if v > self.view}
        for sequence, digests in message.reproposals:
            slot = self._slot(sequence, self.view)
            if slot.committed:
                # Already decided here, but some quorum members may not be:
                # re-affirm with a Prepare and a Commit in the new view so a
                # lagging replica can still assemble both quorums.
                self.env.broadcast(
                    PrepareMessage(
                        instance=self.instance_id,
                        view=self.view,
                        sequence=sequence,
                        batch_digest=slot.batch_digest or b"",
                    )
                )
                self.env.broadcast(
                    CommitMessage(
                        instance=self.instance_id,
                        view=self.view,
                        sequence=sequence,
                        batch_digest=slot.batch_digest or b"",
                    )
                )
                continue
            # _slot() returned a freshly rebuilt SlotState for this view (only
            # committed slots survive a view bump), so votes start empty.
            if slot.digests is None:
                self._inflight.add(slot.sequence)
            slot.digests = digests
            slot.batch_digest = b"".join(digests)
            prepare = PrepareMessage(
                instance=self.instance_id,
                view=self.view,
                sequence=sequence,
                batch_digest=slot.batch_digest,
            )
            self.env.broadcast(prepare)
            if self._on_content is not None:
                self._on_content(self.instance_id, sequence, digests)
        if self.is_primary():
            self.next_sequence = max(self.next_sequence, self.last_decided_sequence + 1)
            existing = max(self.slots.keys(), default=-1)
            self.next_sequence = max(self.next_sequence, existing + 1)
            self.try_propose()
        self._replay_future_messages()
        # Fresh deadline for the new primary (see _maybe_adopt_future_view).
        if self._awaiting_progress():
            self.arm_progress_timer()

    # ------------------------------------------------------------------
    # dispatch helper
    # ------------------------------------------------------------------

    def on_message(self, sender: int, message: object) -> None:
        """Dispatch any PBFT message to the right handler."""
        handler = HANDLERS.get(message.__class__)
        if handler is not None:
            handler(self, sender, message)


#: Handler of each PBFT message, by exact class (the message types are
#: final), called as ``handler(core, sender, message)``.
HANDLERS = {
    PrePrepareMessage: PbftInstanceCore.on_preprepare,
    PrepareMessage: PbftInstanceCore.on_prepare,
    CommitMessage: PbftInstanceCore.on_commit,
    ViewChangeMessage: PbftInstanceCore.on_view_change,
    NewViewMessage: PbftInstanceCore.on_new_view,
}


__all__ = ["HANDLERS", "NOOP_BATCH", "PbftEnvironment", "PbftInstanceCore", "SlotState"]
