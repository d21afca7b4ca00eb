"""A single chained consensus instance of SpotLess.

This module implements the per-instance protocol of Section 3 as a pure
state machine:

* the two per-view steps (Propose and Sync primitives, Section 3.1);
* the normal-case replication protocol and its quorum events (Figure 3);
* the acceptance rules A1–A3 and the extendability rules E1–E2
  (Section 3.3);
* Rapid View Synchronization with its three per-view states Recording,
  Syncing and Certifying, the f + 1 view-skip rule and the Υ retransmission
  flag (Figure 4, Section 3.4);
* the Ask-recovery mechanism (Section 3.3/3.5).

The instance does not perform I/O.  All interaction with the outside world
goes through an :class:`InstanceEnvironment` supplied by the hosting replica
(`repro.core.node` in the simulator, or a plain test harness), which makes
the state machine directly unit-testable.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.core.chain import (
    GENESIS_PROPOSAL_ID,
    Proposal,
    ProposalStatus,
    ProposalStore,
)
from repro.core.config import SpotLessConfig
from repro.core.messages import (
    AskMessage,
    Claim,
    CpEntry,
    ProposalForward,
    ProposeMessage,
    SyncMessage,
)
from repro.core.timeouts import AdaptiveTimeout
from repro.crypto.certificates import QuorumCert
from repro.runtime.quorum import view_reached_by
from repro.runtime.retry import RetryingPull
from repro.workload.requests import Transaction


class ViewState(enum.Enum):
    """The three per-view states of Rapid View Synchronization (ST1-ST3)."""

    RECORDING = "recording"
    SYNCING = "syncing"
    CERTIFYING = "certifying"


# Enum members bound once: a ``Class.MEMBER`` load in a function costs about
# 100 ns on CPython 3.10/3.11, and no call count shows it.
# ``test_no_enum_member_load_in_a_hot_function`` checks core/ and runtime/.
_RECORDING = ViewState.RECORDING
_SYNCING = ViewState.SYNCING
_CERTIFYING = ViewState.CERTIFYING
_PREPARED = ProposalStatus.CONDITIONALLY_PREPARED

#: Where a re-issued Ask goes once the f + 1 claim holders did not deliver:
#: not one peer but every replica at once (``InstanceEnvironment.broadcast``).
_EVERYONE = -1


@dataclass
class InstanceEnvironment:
    """Callbacks through which an instance interacts with its replica.

    Attributes
    ----------
    replica_id:
        Identifier of the hosting replica.
    broadcast:
        Send a message to every replica (including, per Remark 3.1, a local
        self-delivery performed by the hosting replica).
    send:
        Send a message to one replica.
    make_timer:
        ``make_timer(name, callback)`` hands out one restartable timer shaped
        like :class:`repro.sim.actor.Timer` (``start`` / ``cancel`` /
        ``running``); the instance never blocks.
    next_batch:
        ``next_batch(instance)`` is called when this replica is the primary
        and needs a batch of client transactions to propose.  Returning an
        empty tuple makes the primary propose a no-op (Section 5).
    on_commit:
        Called once per newly committed proposal, in commit order.
    on_accept:
        Called once per proposal this replica accepts (the proposal it claims
        in its Sync), before a fast-path proposal of the next view is built.
    now:
        Current time, used only for adaptive timeout bookkeeping.
    admit:
        ``admit(instance, view, skip)`` is asked before the instance leaves
        its current view for ``view``.  True: the host counts it in ``view``
        and it enters.  False: the host holds it, and calls :meth:`release`
        once it may enter.  A ``skip`` (the f + 1 higher-view skip) is always
        admitted.
    """

    replica_id: int
    broadcast: Callable[[object], None]
    send: Callable[[int, object], None]
    make_timer: Callable[[str, Callable[[], None]], object]
    next_batch: Callable[[int], Tuple[Transaction, ...]]
    on_commit: Callable[[int, Proposal], None]
    now: Callable[[], float] = lambda: 0.0
    on_accept: Callable[[int, Proposal], None] = lambda instance_id, proposal: None
    # True when the hosting replica has client work queued for this instance
    # that no accepted proposal covers; the fast path only proposes early
    # when there is something useful to propose (an early no-op would waste
    # the optimisation).
    has_pending: Callable[[int], bool] = lambda instance_id: True
    admit: Callable[[int, int, bool], bool] = lambda instance_id, view, skip: True


class _ViewTally:
    """What this replica recorded about one view; a sender's first Sync counts.

    ``votes`` and ``endorsements`` keep their holders in arrival order: the
    first f + 1 of them are whom Ask-recovery turns to.
    """

    __slots__ = ("senders", "own", "votes", "failure_claims", "endorsements", "served")

    def __init__(self) -> None:
        # Replicas whose Sync for this view arrived.
        self.senders: Set[int] = set()
        # This replica's own Sync for this view, once self-delivered.
        self.own: Optional[SyncMessage] = None
        # Claimed digest -> its senders, in arrival order (a dict used as an
        # ordered set: counting a vote is a store, not a call).
        self.votes: Dict[bytes, Dict[int, None]] = {}
        # Number of claim(∅) Syncs: f + 1 poison the fast path, n − f end
        # the view.
        self.failure_claims = 0
        # Digest of a proposal *of this view* -> sender -> view of the Sync
        # whose CP set carried it.
        self.endorsements: Dict[bytes, Dict[int, int]] = {}
        # Requesters already served by _retransmit_own_sync, so a repeated Υ
        # request does not trigger a second identical retransmission; created
        # on the first request, which most views never see.
        self.served: Optional[Set[int]] = None


class SpotLessInstance:
    """One chained rotational consensus instance.

    Drive the instance by calling :meth:`start`, then feed it messages via
    :meth:`on_propose`, :meth:`on_sync`, :meth:`on_ask` and
    :meth:`on_forward`.  The instance reports committed proposals through
    ``environment.on_commit`` and sends messages through
    ``environment.broadcast`` / ``environment.send``.
    """

    def __init__(
        self,
        instance_id: int,
        config: SpotLessConfig,
        environment: InstanceEnvironment,
    ) -> None:
        self.instance_id = instance_id
        self.config = config
        self.env = environment
        self._replica_id = environment.replica_id
        # n − f and f + 1.
        self._quorum = config.quorum
        self._weak_quorum = config.weak_quorum
        self.store = ProposalStore(instance=instance_id)

        self.current_view = 0
        # The view the host holds this instance out of (``env.admit``); the
        # instance is held while it is above the current view.
        self._held_view = 0
        # A replica leaves a view only after broadcasting its Sync for it, and
        # views only move up: it has synced view v exactly when v is below the
        # current view, or is the current view and the state is past Recording.
        self.state = _RECORDING
        self.started = False

        # Per-view Sync bookkeeping; compact_below_view drops whole views.
        self._views: Dict[int, _ViewTally] = defaultdict(_ViewTally)
        # Highest view observed per sender (for the f+1 view-skip rule).
        self._highest_view_seen: Dict[int, int] = {}
        # Max over _highest_view_seen.values(); lets _maybe_skip_views bail
        # in O(1) when nobody is ahead of us.
        self._max_view_seen = -1
        # Ask-recovery, keyed by (view, proposal digest): each missing
        # proposal is asked for once, from f + 1 claim holders.
        self._asks = RetryingPull(
            environment.replica_id,
            send=self._send_ask_to,
            satisfied=self._has_payload,
            candidates=lambda key: (_EVERYONE,),
            fanout=config.weak_quorum,
        )
        # The highest view this replica proposed in as primary.  It proposes
        # only in the entered view or, through the fast path, the next one, so
        # a view at or below this one already has its proposal.
        self._last_proposed_view = -1

        self._recording_timeout = AdaptiveTimeout(config.recording_timeout)
        self._certifying_timeout = AdaptiveTimeout(config.certifying_timeout)
        self._recording_timer = environment.make_timer(
            f"i{instance_id}:recording", self._on_recording_timeout
        )
        self._certifying_timer = environment.make_timer(
            f"i{instance_id}:certifying", self._on_certifying_timeout
        )
        self._view_entered_at = 0.0

        # Fast-path state (Section 6.1 geo optimisation): active until this
        # replica observes evidence of failures or Byzantine behaviour.
        self._fast_path_active = config.enable_fast_path

        # Statistics used by experiments and tests.
        self.views_entered = 0
        self.proposals_made = 0
        self.fast_path_proposals = 0
        self.syncs_sent = 0
        self.view_skips = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Enter view 0 and begin participating."""
        if self.started:
            return
        self.started = True
        self._enter_view(0)

    def primary_of_view(self, view: int) -> int:
        """Primary replica of this instance in ``view``."""
        return self.config.primary_of(self.instance_id, view)

    def is_primary(self, view: Optional[int] = None) -> bool:
        """True when this replica is the primary of ``view`` (default: current)."""
        view = self.current_view if view is None else view
        return self.primary_of_view(view) == self._replica_id

    # ------------------------------------------------------------------
    # view entry and the primary role
    # ------------------------------------------------------------------

    @property
    def asks_sent(self) -> int:
        """Ask messages sent (a re-issue broadcast counts once)."""
        return self._asks.requested

    def _enter_view(self, view: int) -> None:
        """Enter ``view`` in the Recording state (Figure 4, line 1-3)."""
        self._recording_timer.cancel()
        self._certifying_timer.cancel()
        self.current_view = view
        self.state = _RECORDING
        self.views_entered += 1
        self._view_entered_at = self.env.now()

        if self.is_primary(view):
            self._run_primary_role(view)

        # Backups (and the primary acting as its own backup) arm t_R.
        self._recording_timer.start(self._recording_timeout.interval)
        # A proposal (or enough Syncs) may already have arrived for this view;
        # each callee's first test is made here, before the call.
        if view in self.store._by_view:
            self._maybe_accept_pending()
        if self.state is _SYNCING:
            self._check_sync_quorum()

    def _run_primary_role(self, view: int) -> None:
        """Primary role of Figure 3 (lines 12-14).

        With the fast path enabled (Section 6.1), the primary optimistically
        extends the proposal it recorded in view v − 1 even before gathering
        the n − f votes that conditionally prepare it; backups still only
        accept once rule A1 holds for them, so safety is untouched and the
        benefit is purely the earlier proposal broadcast.  The fast path is
        abandoned as soon as this replica observes failure evidence.
        """
        if view <= self._last_proposed_view:
            # Already proposed optimistically through the fast path.
            return
        parent, certificate, claim_quorum = self._highest_extendable(view)
        message = ProposeMessage(
            instance=self.instance_id,
            view=view,
            transactions=self.env.next_batch(self.instance_id),
            parent_digest=parent.digest,
            parent_view=parent.view,
            parent_certificate=certificate,
            parent_claim_quorum=claim_quorum,
        )
        self.proposals_made += 1
        self._last_proposed_view = view
        self.env.broadcast(message)

    def _highest_extendable(self, view: int) -> Tuple[Proposal, Optional[QuorumCert], Tuple[int, ...]]:
        """HighestExtendable() of Figure 3 (lines 5-11).

        Walks views downward looking for a conditionally prepared proposal
        the primary can justify, either with a certificate built from n − f
        signed Sync messages (E1) or with n − f CP endorsements (E2).
        Falls back to the highest conditionally prepared proposal, and
        ultimately the genesis proposal.
        """
        for candidate_view in range(view - 1, -1, -1):
            proposal = self.store.conditionally_prepared_in_view(candidate_view)
            if proposal is None:
                continue
            certificate = self._build_certificate(proposal)
            if certificate is not None:
                return proposal, certificate, ()
            endorsers = self._cp_endorsers(proposal, below_view=view)
            if len(endorsers) >= self._quorum:
                return proposal, None, tuple(sorted(endorsers))
        fallback = self.store.highest_conditionally_prepared()
        certificate = self._build_certificate(fallback)
        endorsers = self._cp_endorsers(fallback, below_view=view)
        return fallback, certificate, tuple(sorted(endorsers))

    def _maybe_fast_path_propose(self, accepted: Proposal) -> None:
        """Section 6.1 fast path: propose for the next view before the quorum.

        Called right after this replica accepted (voted for) ``accepted`` in
        the current view.  If this replica is the primary of the next view
        and the fast path is still active, it broadcasts its proposal for the
        next view immediately — before the n − f Sync quorum for the current
        view completes — extending the proposal it just voted for.  Backups
        only accept the early proposal once rule A1 holds for them, so the
        optimisation changes when the proposal is on the wire, not what can
        commit.
        """
        if not self._fast_path_active:
            return
        next_view = accepted.view + 1
        if accepted.view != self.current_view or not self.is_primary(next_view):
            return
        if next_view <= self._last_proposed_view:
            return
        if not self.env.has_pending(self.instance_id):
            return
        message = ProposeMessage(
            instance=self.instance_id,
            view=next_view,
            transactions=self.env.next_batch(self.instance_id),
            parent_digest=accepted.digest,
            parent_view=accepted.view,
            parent_certificate=None,
            parent_claim_quorum=(),
        )
        self.proposals_made += 1
        self.fast_path_proposals += 1
        self._last_proposed_view = next_view
        self.env.broadcast(message)

    def _poison_fast_path(self) -> None:
        """Fall back to the slow path after observing failure evidence."""
        self._fast_path_active = False

    def _build_certificate(self, proposal: Proposal) -> Optional[QuorumCert]:
        """Build cert(P) from the n − f lowest-id senders of same-claim Syncs (E1)."""
        if proposal.is_genesis:
            return QuorumCert(view=proposal.view, digest=proposal.digest, signers=())
        votes = self._votes(proposal.view, proposal.digest)
        if len(votes) < self._quorum:
            return None
        return QuorumCert(view=proposal.view, digest=proposal.digest, signers=tuple(sorted(votes)[: self._quorum]))

    def _votes(self, view: int, digest: bytes) -> Dict[int, None]:
        """Senders whose first Sync of ``view`` claimed ``digest``, in arrival order."""
        tally = self._views.get(view)
        return tally.votes.get(digest, {}) if tally is not None else {}

    def _cp_endorsers(self, proposal: Proposal, below_view: int) -> Set[int]:
        """Replicas whose Syncs of a view below ``below_view`` carried
        ``proposal`` in their CP set."""
        if proposal.is_genesis:
            return set(self.config.replica_ids())
        tally = self._views.get(proposal.view)
        endorsements = tally.endorsements.get(proposal.digest, {}) if tally is not None else {}
        return {sender for sender, sync_view in endorsements.items() if sync_view < below_view}

    # ------------------------------------------------------------------
    # handling Propose
    # ------------------------------------------------------------------

    def on_propose(self, sender: int, message: ProposeMessage) -> None:
        """Handle a Propose message (checks S3-S4, then the backup role).

        S1, the primary's signature, is not checked: the simulator computes
        none, and the sender is whoever the network delivered from.
        """
        if message.instance != self.instance_id:
            return
        # (S3) the proposal must name its primary correctly; stale or future
        # proposals are recorded so they can be recovered later, but only the
        # current view's proposal triggers a Sync now.
        expected_primary = self.primary_of_view(message.view)
        if sender != expected_primary:
            return
        # (S4) certificate check: a valid certificate lets the replica
        # conditionally prepare the parent even if it missed the Sync quorum.
        if message.parent_certificate is not None:
            if self._certificate_valid(message.parent_certificate, message.parent_digest, message.parent_view):
                self._conditionally_prepare_reference(message.parent_digest, message.parent_view)
            else:
                return

        proposal = self.store.record_message(message)
        self._maybe_accept(proposal, message)

    def _certificate_valid(self, certificate: QuorumCert, digest: bytes, view: int) -> bool:
        """Validity check for cert(P′): right statement and an n − f quorum."""
        if digest == GENESIS_PROPOSAL_ID:
            return True
        if certificate.view != view or certificate.digest != digest:
            return False
        return certificate.has_quorum(self._quorum, self.config.num_replicas)

    def _conditionally_prepare_reference(self, digest: bytes, view: int) -> None:
        """Conditionally prepare a proposal known (at least) by reference."""
        proposal = self.store.get(digest)
        if proposal is None:
            proposal = self.store.record_reference(digest, view)
        self._conditionally_prepare(proposal)

    def _maybe_accept(self, proposal: Proposal, message: ProposeMessage) -> None:
        """Accept the proposal if it is for the current view and passes A1-A3."""
        if message.view != self.current_view:
            return
        if self.state is not _RECORDING:
            return
        if not self.store.is_acceptable(message):
            return
        claim = Claim(view=message.view, digest=proposal.digest)
        self._note_recording_progress()
        self.env.on_accept(self.instance_id, proposal)
        self._broadcast_sync(claim)
        self._maybe_fast_path_propose(proposal)

    def _maybe_accept_pending(self) -> None:
        """Accept a proposal of the current view that arrived before it could
        be; each caller first tests that the view is Recording and has one."""
        for proposal in self.store.proposals_in_view(self.current_view):
            if proposal.message is not None:
                self._maybe_accept(proposal, proposal.message)
                if self.state is not _RECORDING:
                    return

    def _note_recording_progress(self) -> None:
        waited = self.env.now() - self._view_entered_at
        self._recording_timeout.on_progress(waited)
        self._recording_timer.cancel()

    # ------------------------------------------------------------------
    # Sync broadcasting
    # ------------------------------------------------------------------

    def _broadcast_sync(self, claim: Claim, retransmit_flag: bool = False, view: Optional[int] = None) -> None:
        """Broadcast this replica's Sync message for ``view``; every caller
        first tests that it has not synced ``view`` yet (once per view)."""
        view = self.current_view if view is None else view
        message = SyncMessage(
            instance=self.instance_id,
            view=view,
            claim=claim,
            cp_set=self.store.cp_set(),
            retransmit_flag=retransmit_flag,
        )
        if view == self.current_view and self.state is _RECORDING:
            self.state = _SYNCING
        self.syncs_sent += 1
        self.env.broadcast(message)

    def _on_recording_timeout(self) -> None:
        """t_R expired: claim a failure for the view (Figure 3 line 18-19).

        Both view timers are cancelled on every view entry, so an expiry
        always belongs to the current view.
        """
        if self.state is not _RECORDING:
            return
        self.timeouts += 1
        self._recording_timeout.on_timeout()
        self._poison_fast_path()
        self._broadcast_sync(Claim.failure(self.current_view))

    # ------------------------------------------------------------------
    # handling Sync
    # ------------------------------------------------------------------

    def on_sync(self, sender: int, message: SyncMessage) -> None:
        """Handle a Sync message: quorum counting, CP bookkeeping, RVS rules."""
        if message.instance != self.instance_id:
            return
        view = message.view
        digest = message.claim.digest
        tally = self._views[view]
        # The claimed digest's votes, once it has any.
        votes = None
        if sender not in tally.senders:
            tally.senders.add(sender)
            if sender == self._replica_id:
                tally.own = message
            if view > self._highest_view_seen.get(sender, -1):
                self._highest_view_seen[sender] = view
                if view > self._max_view_seen:
                    self._max_view_seen = view
            if digest is None:
                # f + 1 failure claims for one view are evidence that a primary
                # misbehaved or crashed: stop using the optimistic fast path.
                tally.failure_claims += 1
                if tally.failure_claims >= self._weak_quorum:
                    self._poison_fast_path()
            else:
                votes = tally.votes.get(digest)
                if votes is None:
                    votes = tally.votes[digest] = {}
                votes[sender] = None
            # Every entry of the CP set endorses that proposal.
            views = self._views
            for entry in message.cp_set:
                endorsements = views[entry.view].endorsements
                endorsers = endorsements.get(entry.digest)
                if endorsers is None:
                    endorsers = endorsements[entry.digest] = {}
                endorsers[sender] = view
        elif digest is not None:
            votes = tally.votes.get(digest)

        # Υ flag: retransmit the Sync we broadcast in this view to the sender.
        if message.retransmit_flag and (
            view < self.current_view or (view == self.current_view and self.state is not _RECORDING)
        ):
            self._retransmit_own_sync(tally, view, sender)

        # Re-evaluate every rule the Sync's statements take part in.  The
        # rules are level-triggered — a duplicate Sync re-runs them — so each
        # one's "nothing to do" condition is tested here, where the vote was
        # counted, and only a rule with something left to decide is called.
        quorum = self._quorum
        store = self.store
        proposals = store._proposals
        if votes is not None:
            count = len(votes)
            # Rule: f+1 same-claim Syncs in our current view let us echo the
            # claim even without the primary's proposal (Figure 3, lines 24-28).
            if count >= self._weak_quorum and view == self.current_view and self.state is _RECORDING:
                self._echo_claim(view, digest, votes)
            # Rule: n−f same-claim Syncs conditionally prepare the proposal
            # (Figure 3, lines 20-21): in full at the crossing; a later vote
            # finds it prepared and can only let an un-synced current view
            # accept what it has recorded.
            if count >= quorum:
                proposal = proposals.get(digest)
                if proposal is None or proposal.status < _PREPARED:
                    if proposal is None:
                        proposal = store.record_reference(digest, view)
                        self._send_ask(view, digest, list(votes))
                    self._conditionally_prepare(proposal)
                else:
                    # _maybe_accept_pending's first test, made before the call.
                    if self.state is _RECORDING and self.current_view in store._by_view:
                        self._maybe_accept_pending()
                # The n−f same-claim quorum for the current view completes
                # the Certifying state and advances to the next view.
                if view == self.current_view:
                    self._advance_view(view + 1, fast=True)
        elif (
            digest is None
            and tally.failure_claims >= quorum
            and view == self.current_view
            and self.state is not _RECORDING
        ):
            # n − f claim(∅) Syncs are a same-claim quorum too: with at most f
            # replicas left, no proposal of the view can still gather n − f
            # claims, so a synced current view ends here, not on t_A's expiry
            # (Figure 4, line 10).
            self._advance_view(view + 1, fast=True)

        # Rule: f+1 CP endorsements with higher views conditionally prepare
        # an older proposal (Figure 3, lines 22-23).  An entry already
        # prepared here is settled unless the current view is un-synced with
        # a proposal recorded, which a repeat could still let it accept.
        # Nothing in the loop moves the current view; it can only sync it or
        # record payload-less references in it, after which a prepared entry
        # has nothing left to accept, so the condition is decided once, and
        # picks the loop.
        if self.state is not _RECORDING or self.current_view not in store._by_view:
            for entry in message.cp_set:
                proposal = proposals.get(entry.digest)
                if proposal is None or proposal.status < _PREPARED:
                    self._prepare_from_cp(entry, proposal)
        else:
            for entry in message.cp_set:
                self._prepare_from_cp(entry, proposals.get(entry.digest))

        # RVS: f+1 Syncs with views >= w > current view -> skip ahead (Figure 4,
        # lines 12-15); nobody is ahead of us unless _max_view_seen says so.
        if self._max_view_seen > self.current_view:
            self._maybe_skip_views()

        # State progress for the current view (Figure 4, lines 7-11):
        # _check_sync_quorum's tests, made before the call, so only the Sync
        # that completes the quorum calls it.  The current view's tally is
        # looked up again: the rules above may have moved the view, or a
        # checkpoint they completed may have compacted the tally away.
        if self.state is _SYNCING:
            current_tally = self._views.get(self.current_view)
            if current_tally is not None and len(current_tally.senders) >= quorum:
                self._check_sync_quorum()

    def _retransmit_own_sync(self, tally: _ViewTally, view: int, requester: int) -> None:
        """Resend our own Sync of ``view`` to a replica that asked via Υ.

        The retransmitted copy never carries the Υ flag itself: it answers a
        catch-up request, it is not one.  Stripping the flag (and ignoring
        requests from ourselves) prevents two catching-up replicas from
        bouncing Υ-flagged Syncs back and forth forever.
        """
        if requester == self._replica_id:
            return
        served = tally.served
        if served is None:
            served = tally.served = set()
        elif requester in served:
            return
        served.add(requester)
        source = tally.own
        if source is not None:
            reply = SyncMessage(
                instance=source.instance,
                view=source.view,
                claim=source.claim,
                cp_set=source.cp_set,
                retransmit_flag=False,
            )
            self.env.send(requester, reply)
            return
        # We synced the view but hold no copy of our Sync: compact_below_view
        # dropped the view's tally once a stable checkpoint passed it, and this
        # request made a fresh one (or our self-delivery is still queued).
        # Rebuild a failure-claim Sync for the view.
        rebuilt = SyncMessage(
            instance=self.instance_id,
            view=view,
            claim=Claim.failure(view),
            cp_set=self.store.cp_set(),
        )
        self.env.send(requester, rebuilt)

    def _echo_claim(self, view: int, digest: bytes, votes: Dict[int, None]) -> None:
        """Echo an f+1 claim of the un-synced current view; Ask for its payload."""
        self._note_recording_progress()
        self._broadcast_sync(Claim(view=view, digest=digest))
        proposal = self.store.get(digest)
        if proposal is None or not proposal.has_payload():
            self._send_ask(view, digest, list(votes))

    def _send_ask(self, view: int, digest: bytes, holders: Sequence[int]) -> None:
        """Ask the f+1 claim holders for the full proposal (Section 3.3)."""
        self._asks.request((view, digest), prefer=holders[: self._weak_quorum])

    def _send_ask_to(self, holder: int, key: Tuple[int, bytes]) -> None:
        view, digest = key
        ask = AskMessage(
            instance=self.instance_id, view=view, claim=Claim(view=view, digest=digest)
        )
        if holder == _EVERYONE:
            self.env.broadcast(ask)
        else:
            self.env.send(holder, ask)

    def _has_payload(self, key: Tuple[int, bytes]) -> bool:
        proposal = self.store.get(key[1])
        return proposal is not None and proposal.has_payload()

    def _prepare_from_cp(self, entry: CpEntry, proposal: Optional[Proposal]) -> None:
        """CP rule for one entry not yet settled here (``proposal`` is the
        store's record of it, or None)."""
        tally = self._views.get(entry.view)
        endorsements = tally.endorsements.get(entry.digest) if tally is not None else None
        if endorsements is None:
            return
        higher_view_endorsers = [s for s, sync_view in endorsements.items() if sync_view > entry.view]
        if len(higher_view_endorsers) < self._weak_quorum:
            return
        if proposal is None:
            proposal = self.store.record_reference(entry.digest, entry.view)
        if proposal.status < _PREPARED and not proposal.has_payload():
            self._send_ask(entry.view, entry.digest, higher_view_endorsers)
        self._conditionally_prepare(proposal)

    def _conditionally_prepare(self, proposal: Proposal) -> None:
        if proposal.status < _PREPARED:
            for committed in self.store.mark_conditionally_prepared(proposal):
                self.env.on_commit(self.instance_id, committed)
        # A proposal of the current view may have been recorded before its
        # parent was conditionally prepared; rule A1 can now be satisfied, so
        # re-evaluate acceptance (otherwise t_R would expire spuriously).
        if self.state is _RECORDING and self.current_view in self.store._by_view:
            self._maybe_accept_pending()

    def _maybe_skip_views(self) -> None:
        """The f+1 higher-view skip of Rapid View Synchronization.

        Called only when some sender's Sync is ahead of the current view.
        """
        current = self.current_view
        target_view = view_reached_by(self._highest_view_seen.values(), current, self._weak_quorum)
        if target_view is None:
            return
        self.view_skips += 1
        # Broadcast catch-up Syncs with the Υ flag for every skipped view not
        # yet synced: the current one while still Recording, and each above.
        first = current if self.state is _RECORDING else current + 1
        for view in range(first, target_view):
            self._broadcast_sync(Claim.failure(view), retransmit_flag=True, view=view)
        self._advance_view(target_view, fast=False, skip=True)

    def _check_sync_quorum(self) -> None:
        """Figure 4 lines 7-11: Syncing -> Certifying -> next view."""
        if self.state is not _SYNCING:
            return
        tally = self._views.get(self.current_view)
        if tally is not None and len(tally.senders) >= self._quorum:
            self.state = _CERTIFYING
            # A held view has reached its quorum already: nothing is awaited.
            if self._held_view <= self.current_view:
                self._certifying_timer.start(self._certifying_timeout.interval)

    def _on_certifying_timeout(self) -> None:
        """t_A expired without an n−f same-claim quorum: move on (Figure 4 line 10).

        A quorum of either kind ends the view before this can fire: n − f
        claims of one proposal, or n − f claim(∅) Syncs (``on_sync``).  So t_A
        expires only when the view's claims are split, none reaching n − f.
        """
        if self.state is not _CERTIFYING:
            return
        self.timeouts += 1
        self._certifying_timeout.on_timeout()
        self._advance_view(self.current_view + 1, fast=False)

    def _advance_view(self, new_view: int, fast: bool, skip: bool = False) -> None:
        """Leave the current view for ``new_view`` once the host admits it.

        ``fast``: the view ended on its quorum, which credits t_A once.  A
        held instance keeps its current view with both timers stopped, so a
        held view neither expires t_R or t_A nor grows t_A; only the host's
        :meth:`release` or an f + 1 ``skip``, which is never held, moves it.
        """
        if new_view <= self.current_view or (new_view <= self._held_view and not skip):
            return
        if fast:
            waited = self.env.now() - self._view_entered_at
            self._certifying_timeout.on_progress(waited)
        if self.env.admit(self.instance_id, new_view, skip):
            self._enter_view(new_view)
            return
        self._held_view = new_view
        self._recording_timer.cancel()
        self._certifying_timer.cancel()

    def release(self) -> None:
        """Enter the view the host held this instance out of."""
        self._enter_view(self._held_view)

    # ------------------------------------------------------------------
    # Ask-recovery
    # ------------------------------------------------------------------

    def on_ask(self, sender: int, message: AskMessage) -> None:
        """Reply to an Ask by forwarding the recorded proposal (Figure 3, 29-30)."""
        if message.instance != self.instance_id or message.claim.digest is None:
            return
        proposal = self.store.get(message.claim.digest)
        if proposal is None or proposal.message is None:
            return
        self.env.send(sender, ProposalForward(instance=self.instance_id, propose=proposal.message))

    def on_forward(self, sender: int, message: ProposalForward) -> None:
        """Handle a forwarded proposal obtained through Ask-recovery.

        Besides recording the proposal, the handler walks the recovery one
        step further back: if the forwarded proposal's parent is unknown (or
        known only by reference), it asks the forwarder for that parent too,
        so a replica that missed a stretch of views back-fills the whole
        chain.  Filling in a parent link can also complete a previously
        broken commit cascade, so the commit conditions are re-checked.
        """
        if message.instance != self.instance_id:
            return
        propose = message.propose
        proposal = self.store.record_message(propose)
        # If the proposal already has enough claim votes, conditionally prepare it.
        if len(self._votes(propose.view, proposal.digest)) >= self._quorum:
            self._conditionally_prepare(proposal)
        self._maybe_accept(proposal, propose)

        # Recursive back-fill: fetch the preceding proposal if it is missing.
        parent = self.store.get(propose.parent_digest)
        if (
            propose.parent_digest != GENESIS_PROPOSAL_ID
            and (parent is None or not parent.has_payload())
        ):
            self._send_ask(propose.parent_view, propose.parent_digest, [sender])

        # The attached payload may have completed a chain whose descendants
        # were already conditionally prepared: re-run the commit cascade.
        for committed in self.store.recheck_commits():
            self.env.on_commit(self.instance_id, committed)

    # ------------------------------------------------------------------
    # recovery hooks used by the checkpoint / state-transfer subsystem
    # ------------------------------------------------------------------

    def retry_missing_payloads(self) -> None:
        """Re-issue Ask-recovery for prepared proposals still missing payloads.

        Each proposal is asked for once, so an Ask swallowed while this
        replica (or the asked holder) was crashed would never be retried and
        the chain would stay wedged on the missing payload forever.  Called
        after a verified state transfer proves this replica fell behind: the
        gaps are re-derived from the proposal store and each Ask is broadcast
        to every replica — at least n − f of which are non-faulty and at
        least one of which holds any conditionally prepared proposal's
        payload.
        """
        self._asks.retry(
            (proposal.view, proposal.digest)
            for proposal in self.store.proposals()
            if proposal.status >= _PREPARED
        )

    def compact_below_view(self, floor_view: int) -> None:
        """GC per-view protocol state below a stable checkpoint floor.

        Sync logs, claim votes, CP endorsements and failure claims for views
        below the floor can never influence a future quorum: the floor is
        quorum-attested executed, so any view change or certificate built
        from here on references views at or above it.
        """
        for view in [view for view in self._views if view < floor_view]:
            del self._views[view]
        # The Ask latch forgets answered keys: a recorded payload never goes
        # away, and every request or retry tests it before the latch.
        self._asks.missing()

    # ------------------------------------------------------------------
    # introspection helpers used by the node, tests and experiments
    # ------------------------------------------------------------------

    def committed_count(self) -> int:
        """Number of committed proposals in this instance."""
        return len(self.store.committed)

    def locked_view(self) -> int:
        """View of the current lock P_lock."""
        return self.store.lock.view


__all__ = ["InstanceEnvironment", "SpotLessInstance", "ViewState"]
