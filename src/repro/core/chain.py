"""Proposals, the chained proposal store, and the relations of Definition 3.3.

Every chained consensus instance maintains a :class:`ProposalStore`: a tree
of proposals rooted at the genesis proposal, with per-proposal status
(recorded, conditionally prepared, conditionally committed, committed), the
replica's current lock ``P_lock``, and the CP set included in outgoing Sync
messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.messages import CpEntry, ProposeMessage
from repro.crypto.digest import digest_bytes


GENESIS_VIEW = -1
GENESIS_PROPOSAL_ID: bytes = digest_bytes(("spotless-genesis",))


class ProposalStatus(enum.IntEnum):
    """Lifecycle of a proposal at one replica, ordered by strength."""

    RECORDED = 1
    CONDITIONALLY_PREPARED = 2
    CONDITIONALLY_COMMITTED = 3
    COMMITTED = 4


# Enum members bound once: a ``Class.MEMBER`` load in a function costs about
# 100 ns on CPython 3.10/3.11, and no call count shows it.
_PREPARED = ProposalStatus.CONDITIONALLY_PREPARED
_CONDITIONALLY_COMMITTED = ProposalStatus.CONDITIONALLY_COMMITTED
_COMMITTED = ProposalStatus.COMMITTED


@dataclass(slots=True)
class Proposal:
    """One node in the proposal tree.

    ``digest`` identifies the proposal; ``parent_digest`` points at the
    preceding proposal P′.  ``message`` is the full Propose message when the
    replica has recorded it; a proposal known only through claims (e.g. via
    CP sets) has ``message is None`` until Ask-recovery fetches it.
    """

    digest: bytes
    view: int
    instance: int
    parent_digest: Optional[bytes]
    parent_view: Optional[int]
    message: Optional[ProposeMessage] = None
    status: ProposalStatus = ProposalStatus.RECORDED

    @property
    def is_genesis(self) -> bool:
        """True only for the shared genesis proposal.

        Identified by digest (not by a missing parent), because proposals
        known only by reference also lack parent links until Ask-recovery
        fills them in.
        """
        return self.digest == GENESIS_PROPOSAL_ID

    def has_payload(self) -> bool:
        """True when the full Propose message is locally available."""
        return self.message is not None or self.is_genesis


class ProposalStore:
    """Tree of proposals with the status transitions of Definition 3.3.

    The store is purely local state: it never talks to the network.  The
    instance drives it by recording proposals and reporting quorum events;
    the store answers questions such as "what is my lock?", "is this
    proposal acceptable?", and "which proposals are newly committed?".
    """

    def __init__(self, instance: int = 0) -> None:
        self.instance = instance
        genesis = Proposal(
            digest=GENESIS_PROPOSAL_ID,
            view=GENESIS_VIEW,
            instance=instance,
            parent_digest=None,
            parent_view=None,
            message=None,
            status=_COMMITTED,
        )
        self._proposals: Dict[bytes, Proposal] = {GENESIS_PROPOSAL_ID: genesis}
        # Each view's digests in arrival order, as a tuple: a tuple of bytes
        # is not tracked by the cyclic collector, a list is.  A view rarely
        # holds more than one proposal, so rebuilding it on a second costs
        # nothing measurable.
        self._by_view: Dict[int, Tuple[bytes, ...]] = {GENESIS_VIEW: (GENESIS_PROPOSAL_ID,)}
        # P_lock itself: a proposal object is never replaced once recorded.
        self._lock: Proposal = genesis
        # Every committed proposal, in commit order (oldest first); only
        # appended to.  Genesis is not in it.
        self.committed: List[Proposal] = []
        # The CP entry of every non-genesis proposal that reached
        # CONDITIONALLY_PREPARED at or above the lock, keyed by view, each
        # bucket in digest order: the CP set query concatenates the buckets
        # from the lock upward instead of scanning the full (never GC'd)
        # proposal history.  The lock only moves up, so a bucket it passes is
        # never read again and is dropped.
        self._prepared_by_view: Dict[int, List[CpEntry]] = {}
        self._max_prepared_view = GENESIS_VIEW

    # -- basic access ----------------------------------------------------

    def get(self, digest: bytes) -> Optional[Proposal]:
        """Proposal with this digest, or None when unknown."""
        return self._proposals.get(digest)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._proposals

    def proposals(self) -> Iterable[Proposal]:
        """All known proposals (including genesis)."""
        return self._proposals.values()

    def proposals_in_view(self, view: int) -> Sequence[Proposal]:
        """Proposals known for a given view."""
        digests = self._by_view.get(view)
        if digests is None:
            return ()
        return [self._proposals[d] for d in digests]

    @property
    def genesis(self) -> Proposal:
        """The genesis proposal."""
        return self._proposals[GENESIS_PROPOSAL_ID]

    @property
    def lock(self) -> Proposal:
        """``P_lock``: the highest conditionally committed proposal."""
        return self._lock

    # -- recording -------------------------------------------------------

    def record_message(self, message: ProposeMessage) -> Proposal:
        """Record a well-formed Propose message (Line 17 of Figure 3).

        If the proposal was previously known only by digest (via claims), the
        payload is attached to the existing entry.
        """
        digest = message.digest()
        existing = self._proposals.get(digest)
        if existing is not None:
            if existing.message is None:
                existing.message = message
                existing.parent_digest = message.parent_digest
                existing.parent_view = message.parent_view
            return existing
        proposal = Proposal(
            digest=digest,
            view=message.view,
            instance=message.instance,
            parent_digest=message.parent_digest,
            parent_view=message.parent_view,
            message=message,
        )
        self._proposals[digest] = proposal
        by_view = self._by_view
        by_view[message.view] = by_view.get(message.view, ()) + (digest,)
        return proposal

    def record_reference(self, digest: bytes, view: int) -> Proposal:
        """Record a proposal known only by (view, digest) — e.g. from a CP entry."""
        existing = self._proposals.get(digest)
        if existing is not None:
            return existing
        proposal = Proposal(
            digest=digest,
            view=view,
            instance=self.instance,
            parent_digest=None,
            parent_view=None,
            message=None,
        )
        self._proposals[digest] = proposal
        by_view = self._by_view
        by_view[view] = by_view.get(view, ()) + (digest,)
        return proposal

    # -- relations of Definition 3.3 ---------------------------------------

    def parent_of(self, proposal: Proposal) -> Optional[Proposal]:
        """The preceding proposal P′ of ``proposal`` (None when unknown)."""
        if proposal.parent_digest is None:
            return None
        return self._proposals.get(proposal.parent_digest)

    def precedes_chain(self, proposal: Proposal) -> List[Proposal]:
        """``precedes(P)``: all known ancestors of P, nearest first."""
        ancestors: List[Proposal] = []
        current = self.parent_of(proposal)
        seen: Set[bytes] = {proposal.digest}
        while current is not None and current.digest not in seen:
            ancestors.append(current)
            seen.add(current.digest)
            current = self.parent_of(current)
        return ancestors

    def depth(self, proposal: Proposal) -> int:
        """``depth(P) = |precedes(P)|`` over locally known ancestors."""
        return len(self.precedes_chain(proposal))

    def extends(self, proposal: Proposal, ancestor: Proposal) -> bool:
        """True when ``ancestor`` is ``proposal`` itself or precedes it."""
        if proposal.digest == ancestor.digest:
            return True
        seen: Set[bytes] = {proposal.digest}
        current = self.parent_of(proposal)
        while current is not None and current.digest not in seen:
            if current.digest == ancestor.digest:
                return True
            seen.add(current.digest)
            current = self.parent_of(current)
        return False

    def conflicts(self, first: Proposal, second: Proposal) -> bool:
        """True when neither proposal extends the other (conflicting chains)."""
        return not self.extends(first, second) and not self.extends(second, first)

    # -- acceptance rules (A1-A3) -----------------------------------------

    def is_acceptable(self, message: ProposeMessage) -> bool:
        """The Acceptable() check of Figure 3 (rules A1 + (A2 or A3)).

        A1 (validity): the replica conditionally prepared the parent P′.
        A2 (safety): P′ extends the lock.
        A3 (liveness): P′ is from a higher view than the lock.

        A3 is one view comparison and A2 a walk up the chain, and the two are
        a pure disjunction, so A3 is tested first.
        """
        parent = self._proposals.get(message.parent_digest)
        if parent is None:
            return False
        if parent.status < _PREPARED:
            return False
        lock = self._lock
        return parent.view > lock.view or self.extends(parent, lock)

    # -- status transitions ------------------------------------------------

    def _promote(self, proposal: Proposal, status: ProposalStatus) -> bool:
        if proposal.status >= status:
            return False
        if (
            proposal.status < _PREPARED
            and status >= _PREPARED
        ):
            self._note_prepared(proposal)
        proposal.status = status
        return True

    def _note_prepared(self, proposal: Proposal) -> None:
        """Index a proposal crossing into CONDITIONALLY_PREPARED (once; the
        status lattice is monotone, so the crossing happens at most once)."""
        if proposal.view < self._lock.view:
            return  # below every CP set this store will build
        bucket = self._prepared_by_view.setdefault(proposal.view, [])
        bucket.append(CpEntry(view=proposal.view, digest=proposal.digest))
        if len(bucket) > 1:
            bucket.sort(key=attrgetter("digest"))
        if proposal.view > self._max_prepared_view:
            self._max_prepared_view = proposal.view

    def mark_conditionally_prepared(self, proposal: Proposal) -> List[Proposal]:
        """Mark ``proposal`` conditionally prepared and cascade the consequences.

        Returns the list of proposals that became *committed* as a result
        (oldest first), which the caller hands to the execution layer.  The
        cascade implements Definition 3.3:

        * the parent becomes conditionally committed (child in a later view
          extends it), which may advance the lock;
        * the grandparent becomes committed when the three views are
          consecutive (v, v+1, v+2), and committing a proposal commits its
          entire ancestor chain.
        """
        if not self._promote(proposal, _PREPARED):
            return []
        return self._apply_prepare_consequences(proposal)

    def _apply_prepare_consequences(self, proposal: Proposal) -> List[Proposal]:
        """Lock/commit consequences of ``proposal`` being conditionally prepared.

        Parent and grandparent are read by digest (a missing link is None,
        which no proposal is keyed by).
        """
        proposals = self._proposals
        parent = proposals.get(proposal.parent_digest)
        if parent is None or parent.digest == GENESIS_PROPOSAL_ID:
            return []

        if proposal.view > parent.view:
            self._promote(parent, _CONDITIONALLY_COMMITTED)
            lock_view = self._lock.view
            if parent.view > lock_view:
                self._lock = parent
                for view in range(max(lock_view, 0), parent.view):
                    self._prepared_by_view.pop(view, None)

        grandparent = proposals.get(parent.parent_digest)
        if (
            grandparent is not None
            and grandparent.digest != GENESIS_PROPOSAL_ID
            and proposal.view == parent.view + 1
            and parent.view == grandparent.view + 1
        ):
            return self._commit_chain(grandparent)
        return []

    def _commit_chain(self, proposal: Proposal) -> List[Proposal]:
        """Commit ``proposal`` and every not-yet-committed ancestor, oldest first.

        The store enforces its own safety invariant: a proposal conflicting
        with the committed chain is refused.  Honest quorum evidence can never
        produce such a commit (two same-view n − f quorums intersect in f + 1
        replicas, so one would need > f Byzantine voters), which makes the
        refusal a guard against being driven with Byzantine evidence rather
        than a reachable honest code path.  All committed proposals lie on one
        chain, so conflict with the *newest* committed proposal implies
        conflict with the chain.

        In the common case the parent is the committed tip (genesis before
        the first commit): the walk below would stop at it at once and commit
        ``proposal`` alone, so that is done without the walk.
        """
        if proposal.status >= _COMMITTED:
            return []
        committed = self.committed
        if proposal.parent_digest == (committed[-1].digest if committed else GENESIS_PROPOSAL_ID):
            if proposal.status < _PREPARED:
                self._note_prepared(proposal)
            proposal.status = _COMMITTED
            committed.append(proposal)
            return [proposal]
        # Walk only the uncommitted suffix: committing a proposal always
        # commits its entire ancestor chain, so everything below the first
        # committed ancestor (the *anchor*) is already committed and the
        # anchor itself answers the conflict question — anchoring at the
        # committed tip means ``proposal`` extends the chain; anchoring at
        # genesis or an older committed node means it forked below the tip.
        chain: List[Proposal] = [proposal]
        seen: Set[bytes] = {proposal.digest}
        anchor: Optional[Proposal] = None
        current = self.parent_of(proposal)
        while current is not None and current.digest not in seen:
            if current.status >= _COMMITTED:
                anchor = current
                break
            chain.append(current)
            seen.add(current.digest)
            current = self.parent_of(current)
        if committed and anchor is not committed[-1]:
            return []
        newly: List[Proposal] = []
        for node in reversed(chain):
            if node.is_genesis:
                continue
            if node.status < _COMMITTED:
                if node.status < _PREPARED:
                    self._note_prepared(node)
                node.status = _COMMITTED
                committed.append(node)
                newly.append(node)
        return newly

    def recheck_commits(self) -> List[Proposal]:
        """Re-run the commit cascade over already-prepared proposals.

        Ask-recovery can fill in a parent link *after* the child was
        conditionally prepared; at that point the original cascade stopped at
        the unknown link.  Re-applying the prepare consequences in view order
        commits whatever the newly completed chain justifies.  Returns the
        newly committed proposals, oldest first.
        """
        newly: List[Proposal] = []
        prepared = sorted(
            (
                proposal
                for proposal in self._proposals.values()
                if proposal.status >= _PREPARED and not proposal.is_genesis
            ),
            key=lambda proposal: proposal.view,
        )
        for proposal in prepared:
            newly.extend(self._apply_prepare_consequences(proposal))
        return newly

    def committed_in_view(self, view: int) -> Optional[Proposal]:
        """The committed proposal of ``view``, or None.

        The committed proposals form one chain, so a view holds at most one
        of them.
        """
        proposals = self._proposals
        for digest in self._by_view.get(view, ()):
            proposal = proposals[digest]
            if proposal.status >= _COMMITTED:
                return proposal
        return None

    # -- queries used by the instance --------------------------------------

    def conditionally_prepared_in_view(self, view: int) -> Optional[Proposal]:
        """A conditionally prepared (or stronger) proposal of ``view``, if any."""
        for proposal in self.proposals_in_view(view):
            if proposal.status >= _PREPARED:
                return proposal
        return None

    def highest_conditionally_prepared(self) -> Proposal:
        """The conditionally prepared proposal with the highest view (genesis fallback)."""
        best = self.genesis
        for proposal in self._proposals.values():
            if proposal.status >= _PREPARED and proposal.view > best.view:
                best = proposal
        return best

    def cp_set(self) -> Tuple[CpEntry, ...]:
        """The CP set carried in Sync messages (Section 3.3).

        ``CP = {(v_P, digest(P)) | P conditionally prepared ∧ v_lock ≤ v_P}``
        — the lock itself plus every conditionally prepared proposal with a
        view at or above the lock's view.
        """
        lock = self._lock
        prepared_by_view = self._prepared_by_view
        entries: List[CpEntry] = []
        for view in range(max(lock.view, 0), self._max_prepared_view + 1):
            bucket = prepared_by_view.get(view)
            if bucket is not None:
                entries += bucket
        if not entries and not lock.is_genesis:
            return (CpEntry(view=lock.view, digest=lock.digest),)
        return tuple(entries)


__all__ = [
    "GENESIS_PROPOSAL_ID",
    "GENESIS_VIEW",
    "Proposal",
    "ProposalStatus",
    "ProposalStore",
]
