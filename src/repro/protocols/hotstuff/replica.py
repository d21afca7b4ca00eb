"""Chained HotStuff replica."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.certificates import QuorumCert
from repro.crypto.digest import digest_bytes
from repro.net.message import Message
from repro.net.sizes import MessageSizeModel
from repro.protocols.common import BftConfig
from repro.protocols.hotstuff.messages import (
    HsChainRequest,
    HsChainResponse,
    HsNewView,
    HsNodeData,
    HsProposal,
    HsVote,
)
from repro.recovery.messages import CheckpointCertificate, SlotEntry
from repro.runtime.replica import ReplicaRuntime
from repro.runtime.retry import RetryingPull
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.workload.requests import Transaction


def chain_node_digest(view: int, parent_digest: bytes, transactions: Tuple[Transaction, ...]) -> bytes:
    """The content-derived digest of a chain node; its batch is hashed as
    its transactions' digests.

    Exposed as a function so chain sync and state transfer can *recompute*
    digests from shipped content instead of trusting a peer's claim.
    """
    return digest_bytes(
        ("hs-node", view, parent_digest, tuple(transaction.digest() for transaction in transactions))
    )


#: Longest ancestor segment shipped per chain-sync response.
CHAIN_SYNC_LIMIT = 64


GENESIS_NODE_DIGEST = digest_bytes(("hotstuff-genesis",))


@dataclass
class ChainNode:
    """One node of the HotStuff chain known to this replica, with the client
    transactions its batch carries."""

    digest: bytes
    view: int
    parent_digest: Optional[bytes]
    transactions: Tuple[Transaction, ...]
    justify: Optional[QuorumCert]
    committed: bool = False


class HotStuffReplica(ReplicaRuntime):
    """Pipelined (chained) HotStuff with a rotating leader and timeout pacemaker.

    One proposal is made per view; votes for the view-``v`` proposal are sent
    to the leader of view ``v + 1``, who aggregates them into a quorum
    certificate and proposes the next chain node.  A replica locks on the tail
    of every two-chain and votes only for a proposal that extends its lock or
    carries a newer justify.  A node is committed when it heads a three-chain
    of consecutive views, and committing a node commits its entire
    uncommitted ancestor chain.
    """

    protocol_name = "hotstuff"

    def __init__(
        self,
        node_id: int,
        config: BftConfig,
        simulator: Simulator,
        network: Network,
        size_model: Optional[MessageSizeModel] = None,
    ) -> None:
        super().__init__(node_id, config, simulator, network, size_model)
        genesis = ChainNode(
            digest=GENESIS_NODE_DIGEST,
            view=-1,
            parent_digest=None,
            transactions=(),
            justify=None,
            committed=True,
        )
        self.nodes: Dict[bytes, ChainNode] = {GENESIS_NODE_DIGEST: genesis}
        self.view = 0
        self.high_qc = QuorumCert(view=-1, digest=GENESIS_NODE_DIGEST, signers=tuple(config.replica_ids()))
        self.locked_qc = self.high_qc
        # The highest view this replica voted in (HotStuff's vheight).
        self.voted_view = -1
        self._votes: Dict[Tuple[int, bytes], Set[int]] = {}
        self._new_views: Dict[int, Set[int]] = {}
        self._proposed_in_view: Set[int] = set()
        # Nodes whose commit cascaded into a dangling (unconnected) chain;
        # retried once chain sync or state transfer fills the gap.
        self._pending_commit_roots: Set[bytes] = set()
        # Chain-sync admission: digest -> view in which it was last requested.
        # A response is processed only when it starts at a requested digest,
        # and an unknown digest is requested at most once per view.
        self._chain_requested: Dict[bytes, int] = {}
        self._view_timer = self.timer("view", self._on_view_timeout)
        # Keyed by chain-node digest: an unknown node is fetched with its
        # ancestors.
        self._sync = RetryingPull(
            node_id,
            send=self._send_chain_request,
            satisfied=self._gap_closed,
            candidates=lambda digest: self._broadcast_peers,
            timer=self.timer("chain-sync-retry", self._on_sync_retry),
            interval=config.request_timeout,
            category="chain-sync",
        )
        self.view_timeouts = 0
        self.proposals_made = 0
        self.chain_syncs_requested = 0
        self.chain_syncs_served = 0
        self._routes.update(
            {
                HsProposal: (self._on_proposal, None),
                HsVote: (self._on_vote, None),
                HsNewView: (self._on_new_view, None),
                HsChainRequest: (self._on_chain_request, None),
                HsChainResponse: (self._on_chain_response, None),
            }
        )

    # ------------------------------------------------------------------

    def leader_of(self, view: int) -> int:
        """Rotating leader: replica ``view mod n``."""
        return view % self.config.num_replicas

    def is_leader(self, view: Optional[int] = None) -> bool:
        """True when this replica leads ``view`` (default: current view)."""
        view = self.view if view is None else view
        return self.leader_of(view) == self.node_id

    def _on_tracer_attached(self) -> None:
        """Record chain-sync episodes as spans."""
        self._sync.tracer = self.tracer

    def start(self) -> None:
        """Enter view 0; the first leader proposes immediately."""
        self._view_timer.start(self.config.view_change_timeout)
        if self.is_leader(0):
            self._propose(0)

    # ------------------------------------------------------------------
    # pacemaker
    # ------------------------------------------------------------------

    def _on_view_timeout(self) -> None:
        view = self.view  # the timer restarts on every view entry
        self.view_timeouts += 1
        if self.tracer is not None:
            self.tracer.instant(
                self.node_id, "view-change", f"view-timeout v{view}", view=view
            )
        self._enter_view(view + 1)
        new_view = HsNewView(view=self.view, high_qc=self.high_qc)
        leader = self.leader_of(self.view)
        if leader == self.node_id:
            self._on_new_view(self.node_id, new_view)
        else:
            self.send(leader, new_view, self._size_of(new_view))

    def _enter_view(self, view: int) -> None:
        if view <= self.view and view != 0:
            return
        self.view = view
        self._view_timer.start(self.config.view_change_timeout)

    # ------------------------------------------------------------------
    # leader role
    # ------------------------------------------------------------------

    def _propose(self, view: int) -> None:
        if view in self._proposed_in_view or not self.is_leader(view):
            return
        parent = self.nodes.get(self.high_qc.digest)
        if parent is None:
            # A vote quorum can certify a node this replica never received
            # (e.g. an A2 attacker withheld the proposal from us).  We cannot
            # extend an unknown node; the pacemaker will move the view on and
            # a later proposal's justify chain back-fills the gap.
            return
        batch = self.mempool.take_batch(self.config.batch_size, allow_empty=True)
        digest = chain_node_digest(view, parent.digest, batch)
        proposal = HsProposal(
            view=view,
            node_digest=digest,
            parent_digest=parent.digest,
            transactions=batch,
            justify=self.high_qc,
        )
        self._proposed_in_view.add(view)
        self.proposals_made += 1
        if self.tracer is not None:
            self.tracer.instant(
                self.node_id, "consensus", "propose", view=view, batch=len(batch)
            )
        self.broadcast(self._broadcast_peers, proposal, self._size_of(proposal))
        self._on_proposal(self.node_id, proposal)

    def on_request_arrival(self, shard: int) -> None:
        """Leaders try to propose as soon as load arrives in their view."""
        if self.is_leader(self.view):
            self._propose(self.view)

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def _size_of(self, message: Message) -> int:
        """Wire size of ``message``: a proposal, and each node a chain sync
        ships, pays for the transactions it carries."""
        size_model = self.size_model
        qc_bytes = size_model.certificate_bytes(self.config.num_replicas - self.config.f)
        if isinstance(message, HsProposal):
            return size_model.proposal_bytes(len(message.transactions)) + qc_bytes
        if isinstance(message, HsNewView):
            return size_model.control_bytes() + qc_bytes
        if isinstance(message, HsChainResponse):
            return size_model.control_bytes() + sum(
                size_model.proposal_bytes(len(data.transactions)) for data in message.nodes
            )
        return size_model.control_bytes(signatures=1)

    # -- proposals ------------------------------------------------------

    def _upgrade_justify(self, node: ChainNode, justify: Optional[QuorumCert]) -> None:
        """Adopt a validated QC for a node recorded without one.

        The node digest deliberately excludes the justify, so an earlier
        copy (e.g. a synced chain segment from a Byzantine peer that
        stripped the QCs) may lack it; without the upgrade a justify-less
        copy would suppress the three-chain commit rule forever.
        """
        if node.justify is None and justify is not None:
            node.justify = justify

    def _record_node(self, proposal: HsProposal) -> ChainNode:
        node = self.nodes.get(proposal.node_digest)
        if node is not None:
            self._upgrade_justify(node, proposal.justify)
            return node
        node = ChainNode(
            digest=proposal.node_digest,
            view=proposal.view,
            parent_digest=proposal.parent_digest,
            transactions=proposal.transactions,
            justify=proposal.justify,
        )
        self.nodes[proposal.node_digest] = node
        return node

    def _extends(self, node: ChainNode, locked_node: ChainNode) -> bool:
        """True when ``locked_node`` is ``node`` or one of its ancestors.

        The walk is bounded by view, not by chain depth: a node may be
        recorded before its parent arrives, so its depth is unknown, whereas
        views rise strictly along any chain an honest leader builds.
        Stopping at the first ancestor below the lock's view can therefore
        only withhold a vote from a chain no honest leader built — the safe
        direction.
        """
        current: Optional[ChainNode] = node
        while current is not None and current.view >= locked_node.view:
            if current is locked_node:
                return True
            if current.parent_digest is None:
                return False
            current = self.nodes.get(current.parent_digest)
        return False

    def _safe_node(self, node: ChainNode, justify: Optional[QuorumCert]) -> bool:
        """HotStuff's safeNode predicate: safety rule OR liveness rule."""
        locked_node = self.nodes.get(self.locked_qc.digest)
        safety = locked_node is not None and self._extends(node, locked_node)
        liveness = justify is not None and justify.view > self.locked_qc.view
        return safety or liveness

    def _on_proposal(self, sender: int, proposal: HsProposal) -> None:
        if sender != self.leader_of(proposal.view):
            return
        if proposal.justify is not None and not self._certified(proposal.justify):
            return
        self._update_high_qc(proposal.justify)
        node = self._record_node(proposal)
        # Chain sync: a proposal referencing ancestors we never received
        # (crash, partition, or an A2 attacker withholding proposals) walks
        # the certified chain back from the received QC.
        if proposal.justify is not None and proposal.justify.digest not in self.nodes:
            self._request_chain((sender,), proposal.justify.digest)
        if proposal.parent_digest not in self.nodes:
            self._request_chain((sender,), proposal.parent_digest)
        self._apply_commit_rules(node, sender)
        if proposal.view < self.view or proposal.view <= self.voted_view:
            return
        if not self._safe_node(node, proposal.justify):
            return
        self.voted_view = proposal.view
        self._enter_view(max(self.view, proposal.view))
        vote = HsVote(view=proposal.view, node_digest=proposal.node_digest, voter=self.node_id)
        next_leader = self.leader_of(proposal.view + 1)
        if next_leader == self.node_id:
            self._on_vote(self.node_id, vote)
        else:
            self.send(next_leader, vote, self._size_of(vote))

    # -- votes ------------------------------------------------------------

    def _on_vote(self, sender: int, vote: HsVote) -> None:
        if vote.voter != sender:
            # The network authenticates the sender, not the claimed name: a
            # Byzantine replica voting under n - f names would mint a QC alone.
            return
        key = (vote.view, vote.node_digest)
        voters = self._votes.setdefault(key, set())
        voters.add(vote.voter)
        quorum = self.config.num_replicas - self.config.f
        if len(voters) < quorum:
            return
        qc = QuorumCert(view=vote.view, digest=vote.node_digest, signers=tuple(sorted(voters)))
        self._update_high_qc(qc)
        next_view = vote.view + 1
        if self.is_leader(next_view):
            self._enter_view(max(self.view, next_view))
            self._propose(next_view)

    def _certified(self, qc: QuorumCert) -> bool:
        """True when ``qc`` carries n − f distinct in-range signers."""
        n = self.config.num_replicas
        return qc.has_quorum(n - self.config.f, n)

    def _update_high_qc(self, qc: Optional[QuorumCert]) -> None:
        """Adopt ``qc`` when it is newer than ``high_qc`` and carries a quorum.

        The quorum is checked here, for every source: a NewView's
        ``high_qc`` arrives unvalidated, and one forged certificate with a
        far-future view would otherwise pin ``high_qc`` for good.
        """
        if qc is None:
            return
        if qc.view > self.high_qc.view and self._certified(qc):
            self.high_qc = qc
            if qc.digest not in self.nodes and qc.digest != GENESIS_NODE_DIGEST:
                # A quorum certified a node this replica never received (an
                # A2 attacker withheld the proposal).  Votes only flow to the
                # next leader, so no broadcast will back-fill the gap — pull
                # the chain from a QC signer: every signer voted for the node,
                # so every signer has it, unlike the leader that withheld it.
                self._request_chain(qc.signers, qc.digest)

    # -- pacemaker new-view ------------------------------------------------

    def _on_new_view(self, sender: int, message: HsNewView) -> None:
        self._update_high_qc(message.high_qc)
        supporters = self._new_views.setdefault(message.view, set())
        supporters.add(sender)
        if len(supporters) >= self.config.num_replicas - self.config.f and self.is_leader(message.view):
            self._enter_view(max(self.view, message.view))
            self._propose(message.view)

    # ------------------------------------------------------------------
    # commit rules
    # ------------------------------------------------------------------

    def _apply_commit_rules(self, node: ChainNode, sender: Optional[int] = None) -> None:
        """Two-chain lock, then three-chain commit (Yin et al., Alg. 5 ``update``).

        ``node`` is the newest chain node; its justify certifies the parent,
        whose justify certifies the grandparent, and so on.  The tail of every
        two-chain becomes the lock; b'' ← b' ← b with consecutive views
        commits b.
        """
        if node.justify is None:
            return
        parent = self.nodes.get(node.justify.digest)
        if parent is None or parent.justify is None:
            return
        grandparent = self.nodes.get(parent.justify.digest)
        if grandparent is None:
            return
        if parent.justify.view > self.locked_qc.view:
            self.locked_qc = parent.justify
        if grandparent.justify is None:
            return
        great = self.nodes.get(grandparent.justify.digest)
        if great is None:
            return
        if parent.view == grandparent.view + 1 and grandparent.view == great.view + 1:
            missing = self._commit_chain(great)
            if missing is not None:
                holder = sender if sender is not None else self.leader_of(node.view)
                self._request_chain((holder,), missing)

    def _commit_chain(self, node: ChainNode) -> Optional[bytes]:
        """Commit ``node`` and its uncommitted ancestor chain, oldest first.

        Returns the digest of the first missing ancestor when the chain does
        not connect to our committed prefix: some ancestor was never received
        (e.g. while down or partitioned).  Committing the dangling suffix
        would assign it wrong positions and fork execution, so the node is
        parked in ``_pending_commit_roots`` until chain sync or state
        transfer back-fills the gap.
        """
        chain: List[ChainNode] = []
        current: Optional[ChainNode] = node
        missing: Optional[bytes] = None
        while current is not None and not current.committed:
            chain.append(current)
            if current.parent_digest is None:
                current = None
                break
            missing = current.parent_digest
            current = self.nodes.get(current.parent_digest)
        if current is None:
            self._pending_commit_roots.add(node.digest)
            return missing
        self._pending_commit_roots.discard(node.digest)
        position = self.committed_chain_height()
        for member in reversed(chain):
            member.committed = True
            # The node digest rides as the record's slot digest, so the
            # checkpoint fold certifies the chain anchor itself: a state
            # transfer responder cannot tamper with any anchoring input (the
            # ``view`` field alone is excluded from the fold, but the node
            # digest covers it).
            self.deliver_batch(
                position,
                member.transactions,
                view=member.view,
                instance=0,
                slot_digest=member.digest,
            )
            position += 1
        return None

    # ------------------------------------------------------------------
    # chain synchronisation and recovery
    # ------------------------------------------------------------------

    def _request_chain(self, holders: Sequence[int], node_digest: bytes) -> None:
        """Ask one of ``holders`` for the ancestor chain of an unknown node."""
        if self._chain_requested.get(node_digest) == self.view:
            return  # one request per missing digest per view
        self._sync.request(node_digest, prefer=holders, again=True)

    def _send_chain_request(self, target: int, node_digest: bytes) -> None:
        """Put one pull on the wire: the chain of an unknown node."""
        self.chain_syncs_requested += 1
        self._chain_requested[node_digest] = self.view  # admit the response
        request = HsChainRequest(node_digest=node_digest)
        self.send(target, request, self._size_of(request))

    def _gap_closed(self, node_digest: bytes) -> bool:
        """A digest needs no pull once its node is known."""
        return node_digest in self.nodes

    def _on_sync_retry(self) -> None:
        """Straggler self-check: re-derive every gap from local state.

        The request paths above react to message *receipt*; a withholding
        responder defeats them by never answering.  This timer reacts to the
        state gaps themselves — an unknown high-QC node, a parked commit
        cascade — and re-requests each from a rotated target so the silent
        first responder cannot wedge the replica.
        """
        gaps = {self.high_qc.digest, *self._sync.missing()}
        gaps.update(self._retry_parked_commits())
        self._sync.retry(sorted(gaps))
        self._maybe_propose_after_sync()

    def _retry_parked_commits(self) -> List[bytes]:
        """Re-run the parked commit cascades; the ancestors still missing."""
        parked = [self.nodes[d] for d in list(self._pending_commit_roots) if d in self.nodes]
        return [gap for gap in map(self._commit_chain, parked) if gap is not None]

    def _maybe_propose_after_sync(self) -> None:
        """Propose if chain sync just delivered the parent this view was stuck on.

        The leader of the current view may hold a QC for a node it only
        received via sync; ``_propose`` bailed when the quorum formed and no
        later message will re-trigger it, so sync completion itself must.
        """
        view = self.view
        if not self.is_leader(view) or view in self._proposed_in_view:
            return
        if self.high_qc.digest not in self.nodes:
            return
        quorum = self.config.num_replicas - self.config.f
        has_new_view_quorum = len(self._new_views.get(view, set())) >= quorum
        if has_new_view_quorum or self.high_qc.view == view - 1:
            self._propose(view)

    def _on_chain_request(self, sender: int, request: HsChainRequest) -> None:
        """Serve a chain segment walking ancestors toward the committed prefix."""
        segment: List[HsNodeData] = []
        current = self.nodes.get(request.node_digest)
        while (
            current is not None
            and current.digest != GENESIS_NODE_DIGEST
            and len(segment) < CHAIN_SYNC_LIMIT
        ):
            segment.append(
                HsNodeData(
                    digest=current.digest,
                    view=current.view,
                    parent_digest=current.parent_digest or GENESIS_NODE_DIGEST,
                    transactions=current.transactions,
                    justify=current.justify,
                )
            )
            if current.committed:
                # The requester's committed prefix meets ours at or below
                # this node; one committed anchor is enough to connect.
                break
            current = self.nodes.get(current.parent_digest) if current.parent_digest else None
        if not segment:
            return
        self.chain_syncs_served += 1
        response = HsChainResponse(nodes=tuple(segment))
        self.send(sender, response, self._size_of(response))

    def _on_chain_response(self, sender: int, response: HsChainResponse) -> None:
        """Record verified chain nodes and retry parked commit cascades.

        Responses ship newest-to-oldest; recording oldest-first means each
        node's parent is already present when the node is inserted, so the
        first parent still missing is the deepest gap of the segment.
        """
        if not response.nodes or response.nodes[0].digest not in self._chain_requested:
            # Unsolicited segments are dropped: a genuine response always
            # starts at a digest this replica asked for.
            return
        deepest_missing: Optional[bytes] = None
        for data in reversed(response.nodes):
            # Recompute the digest from content: forged nodes are discarded,
            # and a node carrying a below-quorum justify is dropped outright
            # (honest genesis-pointing QCs always carry a full signer set).
            if data.digest != chain_node_digest(data.view, data.parent_digest, data.transactions):
                continue
            if data.justify is not None and not self._certified(data.justify):
                continue
            existing = self.nodes.get(data.digest)
            if existing is not None:
                self._upgrade_justify(existing, data.justify)
            else:
                self.nodes[data.digest] = ChainNode(
                    digest=data.digest,
                    view=data.view,
                    parent_digest=data.parent_digest,
                    transactions=data.transactions,
                    justify=data.justify,
                )
            if (
                deepest_missing is None
                and data.parent_digest not in self.nodes
                and data.parent_digest != GENESIS_NODE_DIGEST
            ):
                # Oldest-first iteration: the first missing parent is the
                # deepest gap to keep walking toward.
                deepest_missing = data.parent_digest
        head = self.nodes.get(response.nodes[0].digest)
        if head is not None:
            # The synced head may complete a three-chain the cluster has
            # already moved past; no future proposal will re-present it.
            self._apply_commit_rules(head, sender)
        self._retry_parked_commits()
        self._maybe_propose_after_sync()
        if deepest_missing is not None and self._pending_commit_roots:
            # Still not connected: keep walking the chain backwards.
            self._request_chain((sender,), deepest_missing)
        elif self._sync.settle():
            self._sync.disarm()

    def _apply_state_entries(
        self, entries: Tuple[SlotEntry, ...], certificate: CheckpointCertificate
    ) -> None:
        """Re-anchor the committed chain, then replay the certified content.

        Each certified record carries the committed node's digest (see
        ``_commit_chain``), so the committed chain the transfer covers is
        re-anchored from quorum-attested digests: the rebuilt tip becomes a
        committed anchor that later proposals' ancestor walks connect to,
        which keeps position numbering identical to the rest of the cluster.
        """
        # The next position to decide and the node decided just below it.
        position = self.committed_chain_height()
        tip = GENESIS_NODE_DIGEST
        if position:
            below = self.pipeline.pending.get(position - 1)
            if below is None:
                below = self.checkpoints.archive[position - 1]
            tip = below.records[0].slot_digest
        for entry in entries:
            if entry.position != position or not entry.records:
                continue  # position already delivered by our own chain
            record = entry.records[0]
            # Every committed record carries its node's digest, and the
            # transfer verified it as folded into the certified checkpoint.
            digest = record.slot_digest
            node = self.nodes.get(digest)
            if node is None:
                node = ChainNode(
                    digest=digest,
                    view=record.view,
                    parent_digest=tip,
                    transactions=record.transactions,
                    justify=None,
                    committed=True,
                )
                self.nodes[digest] = node
            else:
                node.committed = True
            position += 1
            tip = digest
        super()._apply_state_entries(entries, certificate)
        # The new anchor may connect previously dangling commit cascades.
        self._retry_parked_commits()

    def on_stable_checkpoint(self, certificate: CheckpointCertificate) -> None:
        """GC per-view vote state: tallies for long-decided views are dead."""
        horizon = self.view - 2
        self._votes = {key: voters for key, voters in self._votes.items() if key[0] >= horizon}
        self._new_views = {view: s for view, s in self._new_views.items() if view >= horizon}
        self._proposed_in_view = {view for view in self._proposed_in_view if view >= horizon}
        self._chain_requested = {
            digest: view for digest, view in self._chain_requested.items() if view >= horizon
        }

    # ------------------------------------------------------------------

    def instance_views(self) -> Dict[int, int]:
        """The one chain's current view."""
        return {0: self.view}

    def committed_chain_height(self) -> int:
        """Number of committed chain nodes (excluding genesis): positions are
        decided contiguously, so the executed ones plus the pending ones."""
        pipeline = self.pipeline
        return pipeline.next_execution_position + len(pipeline.pending)

    def liveness_counters(self) -> Dict[str, int]:
        """Liveness-machinery counters surfaced in scenario results."""
        return {
            "chain_syncs_requested": self.chain_syncs_requested,
            "chain_syncs_served": self.chain_syncs_served,
            "chain_sync_retries": self._sync.retries,
            "chain_sync_rotations": self._sync.rotations,
            "view_timeouts": self.view_timeouts,
        }


__all__ = ["GENESIS_NODE_DIGEST", "ChainNode", "HotStuffReplica"]
