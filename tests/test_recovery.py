"""Unit tests for the checkpoint / state-transfer subsystem.

Covers the :class:`CheckpointManager` (certificate quorum, vote-tally GC
strictly below the certified floor, the archive, refusal to serve
uncertified slots) and the
:class:`StateTransferEngine` (gap detection, verified replay, rejection of
uncertified and forged responses from a Byzantine peer), plus the PBFT
view-change bound the checkpoint floor buys: ViewChange votes carry O(K)
slots after 100+ commits, not the full since-genesis history.
"""

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.digest import digest_bytes
from repro.recovery import (
    CheckpointCertificate,
    CheckpointManager,
    CheckpointVote,
    GENESIS_EXECUTION_DIGEST,
    SlotEntry,
    SlotRecord,
    StateRequest,
    StateResponse,
    StateTransferEngine,
    fold_entry,
)
from repro.runtime.retry import RetryingPull
from repro.workload.requests import Operation, Transaction
from tests.transactions import txn


def make_entry(position, payload=None):
    tags = (f"txn-{position}".encode(),) if payload is None else payload
    return SlotEntry(
        position=position,
        records=(SlotRecord(view=position, instance=0, transactions=tuple(txn(tag) for tag in tags)),),
    )


def make_manager(node_id=0, interval=4, num_replicas=4, quorum=3):
    return CheckpointManager(
        node_id=node_id, num_replicas=num_replicas, quorum=quorum, interval=interval
    )


def advance(manager, upto, start=None):
    """Execute entries [start, upto) on ``manager``; returns emitted votes."""
    votes = []
    for position in range(manager.frontier if start is None else start, upto):
        vote = manager.record_execution(make_entry(position))
        if vote is not None:
            votes.append(vote)
    return votes


# ---------------------------------------------------------------------------
# CheckpointManager
# ---------------------------------------------------------------------------


def test_votes_are_emitted_at_interval_crossings_only():
    manager = make_manager(interval=4)
    votes = advance(manager, 11)
    assert [vote.position for vote in votes] == [4, 8]
    assert all(vote.voter == 0 for vote in votes)
    assert manager.frontier == 11


def test_out_of_order_fold_is_rejected():
    manager = make_manager()
    advance(manager, 3)
    with pytest.raises(ValueError):
        manager.record_execution(make_entry(5))
    with pytest.raises(ValueError):
        manager.record_execution(make_entry(1))


def test_identical_prefixes_fold_to_identical_digests():
    first, second = make_manager(node_id=0), make_manager(node_id=1)
    advance(first, 9)
    advance(second, 9)
    assert first.rolling == second.rolling
    # Any divergence in content changes the digest.
    third = make_manager(node_id=2)
    advance(third, 8)
    third.record_execution(make_entry(8, payload=(b"different",)))
    assert third.rolling != first.rolling


def test_quorum_of_matching_votes_forms_a_stable_certificate():
    managers = [make_manager(node_id=i) for i in range(4)]
    votes = {i: advance(managers[i], 4)[0] for i in range(4)}
    collector = managers[0]
    assert collector.on_vote(0, votes[0]) is None  # 1 vote
    assert collector.on_vote(1, votes[1]) is None  # 2 votes: below 2f + 1
    certificate = collector.on_vote(2, votes[2])  # 3 votes: quorum
    assert certificate is not None
    assert certificate.position == 4
    assert certificate.signers == (0, 1, 2)
    assert certificate.digest == collector.rolling
    assert collector.stable_position() == 4


def test_votes_from_invalid_or_mismatched_senders_are_ignored():
    collector = make_manager(node_id=0)
    vote = CheckpointVote(position=4, digest=b"d", voter=1)
    assert collector.on_vote(2, vote) is None  # relayed vote: sender != voter
    outsider = CheckpointVote(position=4, digest=b"d", voter=9)
    assert collector.on_vote(9, outsider) is None  # not a replica id
    stale_free = collector.on_vote(1, vote)
    assert stale_free is None and collector.stable is None


def test_stale_votes_below_the_floor_are_dropped():
    managers = [make_manager(node_id=i) for i in range(4)]
    early = {i: advance(managers[i], 4)[0] for i in range(4)}
    late = {i: advance(managers[i], 8)[0] for i in range(4)}
    collector = managers[0]
    for i in range(3):
        collector.on_vote(i, late[i])
    assert collector.stable_position() == 8
    # A full quorum of stale votes must not roll the floor back.
    for i in range(4):
        assert collector.on_vote(i, early[i]) is None
    assert collector.stable_position() == 8


def test_interval_zero_disables_checkpointing():
    manager = make_manager(interval=0)
    assert advance(manager, 20) == []
    vote = CheckpointVote(position=4, digest=b"d", voter=1)
    assert manager.on_vote(1, vote) is None
    assert not manager.enabled
    # Nothing is hashed, but every executed unit is still archived.
    assert manager.rolling == GENESIS_EXECUTION_DIGEST
    assert manager.frontier == 20
    assert manager.archive == [make_entry(position) for position in range(20)]


def test_serve_refuses_a_floor_beyond_its_own_archive():
    manager = make_manager()
    advance(manager, 3)
    certificate = CheckpointCertificate(position=8, digest=b"d", signers=(1, 2, 3))
    assert manager.adopt_certificate(certificate)
    # Certified, but positions 3..7 never executed here: nothing to serve.
    assert manager.serve(0) is None


def test_serve_refuses_uncertified_content():
    manager = make_manager()
    advance(manager, 10)
    # Executed to 10 but nothing is certified: nothing may be served.
    assert manager.serve(0) is None
    for i in range(3):
        peer = make_manager(node_id=i)
        vote = advance(peer, 8)[-1]
        manager.on_vote(i, vote)
    assert manager.stable_position() == 8
    served = manager.serve(3)
    assert served is not None
    entries, certificate = served
    # Positions 8 and 9 are executed locally but uncertified: not served.
    assert [entry.position for entry in entries] == [3, 4, 5, 6, 7]
    assert certificate.position == 8


# ---------------------------------------------------------------------------
# StateTransferEngine
# ---------------------------------------------------------------------------


class TransferHarness:
    """A laggard replica's manager + engine wired to recording callbacks."""

    def __init__(self, executed=3, interval=4):
        self.manager = make_manager(node_id=0, interval=interval)
        advance(self.manager, executed)
        self.requests = []
        self.applied = []
        self.engine = StateTransferEngine(
            self.manager,
            make_pull=partial(RetryingPull, 0, fanout=2),
            send_request=lambda target, request: self.requests.append((target, request)),
            apply_entries=self._apply,
        )

    def _apply(self, entries, certificate):
        for entry in entries:
            self.applied.append(entry.position)
            self.manager.record_execution(entry)

    def install_cluster_checkpoint(self, upto=8):
        """Form a stable certificate from three up-to-date peers."""
        peers = [make_manager(node_id=i) for i in (1, 2, 3)]
        votes = {peer.node_id: advance(peer, upto)[-1] for peer in peers}
        certificate = None
        for collector in [self.manager] + peers:
            for node_id, vote in votes.items():
                formed = collector.on_vote(node_id, vote)
                if collector is self.manager and formed is not None:
                    certificate = formed
        self.reference = peers[0]
        return certificate


def test_gap_detection_requests_from_certificate_signers():
    harness = TransferHarness(executed=3)
    assert not harness.engine.maybe_request()  # no certificate yet: no gap known
    harness.install_cluster_checkpoint(upto=8)
    assert harness.manager.stable_position() - harness.manager.frontier == 5
    assert harness.engine.maybe_request()
    targets = [target for target, _ in harness.requests]
    assert targets == [1, 2]  # f + 1 signers, never ourselves
    assert all(request.from_position == 3 for _, request in harness.requests)
    # The same floor is not requested twice while the transfer is in flight.
    assert not harness.engine.maybe_request()


def test_verified_replay_advances_the_frontier():
    harness = TransferHarness(executed=3)
    harness.install_cluster_checkpoint(upto=8)
    entries, certificate = harness.reference.serve(3)
    response = StateResponse(
        from_position=3, entries=entries, certificate=certificate
    )
    assert harness.engine.on_response(1, response)
    assert harness.applied == [3, 4, 5, 6, 7]
    assert harness.manager.frontier == 8
    assert harness.manager.rolling == certificate.digest
    assert harness.engine.transfers_completed == 1
    # A late duplicate from the second signer is stale, not an error.
    assert not harness.engine.on_response(2, response)
    assert harness.engine.responses_rejected == 0


def test_forged_content_from_a_byzantine_peer_is_rejected():
    harness = TransferHarness(executed=3)
    harness.install_cluster_checkpoint(upto=8)
    entries, certificate = harness.reference.serve(3)
    forged = list(entries)
    forged[2] = make_entry(5, payload=(b"byzantine-batch",))
    response = StateResponse(
        from_position=3, entries=tuple(forged), certificate=certificate
    )
    assert not harness.engine.on_response(3, response)
    assert harness.engine.responses_rejected == 1
    assert harness.applied == []  # nothing was replayed
    assert harness.manager.frontier == 3


def test_uncertified_responses_are_rejected():
    harness = TransferHarness(executed=3)
    harness.install_cluster_checkpoint(upto=8)
    entries, certificate = harness.reference.serve(3)
    no_certificate = StateResponse(from_position=3, entries=entries, certificate=None)
    assert not harness.engine.on_response(1, no_certificate)
    thin = CheckpointCertificate(
        position=certificate.position, digest=certificate.digest, signers=(1, 1, 1)
    )
    below_quorum = StateResponse(from_position=3, entries=entries, certificate=thin)
    assert not harness.engine.on_response(1, below_quorum)
    forged_signers = CheckpointCertificate(
        position=certificate.position, digest=certificate.digest, signers=(7, 8, 9)
    )
    invalid_signers = StateResponse(
        from_position=3, entries=entries, certificate=forged_signers
    )
    assert not harness.engine.on_response(1, invalid_signers)
    assert harness.engine.responses_rejected == 3
    assert harness.manager.frontier == 3


def test_responses_with_holes_are_rejected():
    harness = TransferHarness(executed=3)
    harness.install_cluster_checkpoint(upto=8)
    entries, certificate = harness.reference.serve(3)
    holey = tuple(entry for entry in entries if entry.position != 5)
    response = StateResponse(from_position=3, entries=holey, certificate=certificate)
    assert not harness.engine.on_response(1, response)
    assert harness.engine.responses_rejected == 1


def test_replay_skips_entries_already_executed_locally():
    harness = TransferHarness(executed=3)
    harness.install_cluster_checkpoint(upto=8)
    entries, certificate = harness.reference.serve(0)
    # The responder answered an old request covering [0, 8); we executed 3.
    response = StateResponse(from_position=0, entries=entries, certificate=certificate)
    assert harness.engine.on_response(1, response)
    assert harness.applied == [3, 4, 5, 6, 7]
    assert harness.manager.frontier == 8


def test_partial_transfer_unlatches_and_rerequests_the_remaining_gap():
    harness = TransferHarness(executed=3)
    harness.install_cluster_checkpoint(upto=8)
    assert harness.engine.maybe_request()
    sent_before = len(harness.requests)
    # An honest responder whose own stable floor lags the adopted certificate
    # can only serve part of the gap: a certificate at 4, entries [3, 4).
    laggards = [make_manager(node_id=i) for i in (1, 2, 3)]
    votes = {peer.node_id: advance(peer, 4)[-1] for peer in laggards}
    for node_id, vote in votes.items():
        laggards[0].on_vote(node_id, vote)
    entries, certificate = laggards[0].serve(3)
    assert certificate.position == 4
    partial = StateResponse(from_position=3, entries=entries, certificate=certificate)
    assert harness.engine.on_response(1, partial)
    assert harness.manager.frontier == 4
    # The remaining gap to the stable floor at 8 is re-requested immediately
    # instead of latching out every retry for the already-requested floor.
    retried = harness.requests[sent_before:]
    assert retried and all(request.from_position == 4 for _, request in retried)
    assert not harness.engine.maybe_request()  # latched again while in flight


def test_stalled_transfer_round_retries_with_rotated_targets():
    harness = TransferHarness(executed=3)
    harness.install_cluster_checkpoint(upto=8)
    assert harness.engine.maybe_request()
    first_round = [target for target, _ in harness.requests]
    assert first_round == [1, 2]
    # No response arrived; the retry must not be latched out and must reach
    # a different signer subset than the round that stalled.
    harness.engine.pull.retry()
    second_round = [target for target, _ in harness.requests[len(first_round):]]
    assert second_round == [2, 3]
    # Once caught up there is nothing left to retry.
    entries, certificate = harness.reference.serve(3)
    response = StateResponse(from_position=3, entries=entries, certificate=certificate)
    assert harness.engine.on_response(2, response)
    harness.engine.pull.retry()
    assert harness.engine.requests_sent == 4


def test_fold_entry_is_sensitive_to_every_component():
    base = fold_entry(b"rolling", make_entry(3))
    assert fold_entry(b"rolling", make_entry(4)) != base
    assert fold_entry(b"other", make_entry(3)) != base
    assert fold_entry(b"rolling", make_entry(3, payload=(b"x",))) != base


_digests = st.binary(min_size=32, max_size=32)
_records = st.builds(
    SlotRecord,
    view=st.integers(0, 10**6),
    instance=st.integers(0, 127),
    transactions=st.lists(st.binary(max_size=8).map(txn), max_size=4).map(tuple),
    slot_digest=st.just(b"") | _digests,
)


@given(
    rolling=_digests,
    position=st.integers(0, 10**9),
    records=st.lists(_records, min_size=1, max_size=3).map(tuple),
)
# SpotLess folds a view with no committed record as an entry without records.
@example(rolling=b"r" * 32, position=7, records=())
@settings(max_examples=200, deadline=None)
def test_fold_entry_equals_the_generic_canonical_encoding(rolling, position, records):
    """The inline fold is an optimisation, not a new format: the generic
    recursive encoder is the reference it must reproduce byte for byte."""
    entry = SlotEntry(position=position, records=records)
    assert fold_entry(rolling, entry) == digest_bytes(("exec", rolling, entry.canonical_fields()))


def test_fold_of_a_record_carrying_transactions_is_pinned():
    """A record carries its transactions but folds their digests: the value
    below is what the same entry folded to when records named their batch
    by transaction digest, so carrying the transactions left every
    checkpoint digest as it was."""
    first = Transaction(client_id=1, sequence=2, operations=(Operation.write(5, b"v"),))
    second = Transaction(client_id=2, sequence=0, operations=(Operation.read(6),))
    entry = SlotEntry(
        position=7,
        records=(
            SlotRecord(view=3, instance=1, transactions=(first, second), slot_digest=b"s" * 32),
            SlotRecord(view=3, instance=2, transactions=(), slot_digest=b""),
        ),
    )
    assert fold_entry(b"\x00" * 32, entry).hex() == (
        "928ad63ed4e7feaf0ad6d6829d6ec8c6f5bffdfc5bcfb916d4f5b6cf1f646f73"
    )


# ---------------------------------------------------------------------------
# PBFT view-change bound: O(K) with the checkpoint floor, O(history) without
# ---------------------------------------------------------------------------


def _run_pbft_cluster(checkpoint_interval):
    from repro.bench.cluster import SimulatedCluster

    cluster = SimulatedCluster.for_protocol(
        "pbft",
        num_replicas=4,
        batch_size=2,
        clients=3,
        outstanding_per_client=4,
        seed=11,
        checkpoint_interval=checkpoint_interval,
    )
    cluster.run(duration=0.4)
    return cluster


def _captured_view_change(core):
    from repro.protocols.pbft.messages import ViewChangeMessage

    captured = []
    core.env.broadcast = captured.append
    core.request_view_change(core.view + 1)
    return next(m for m in captured if isinstance(m, ViewChangeMessage))


def test_pbft_view_change_votes_are_bounded_by_the_checkpoint_interval():
    interval = 16
    cluster = _run_pbft_cluster(checkpoint_interval=interval)
    core = cluster.replicas[1].core
    committed = core.decided_frontier + 1
    assert committed > 100, "need 100+ committed slots for the bound to mean anything"
    vote = _captured_view_change(core)
    assert vote.checkpoint_floor > 0
    assert vote.checkpoint is not None and vote.checkpoint.has_quorum(core.quorum, 4)
    # The vote carries only slots above the stable floor: O(K) plus the
    # in-flight pipeline window — never the full committed history.
    bound = interval + core.config.pipeline_depth
    assert len(vote.prepared_slots) <= bound
    assert all(sequence >= vote.checkpoint_floor for sequence, _v, _d in vote.prepared_slots)
    # Slot state below the floor was garbage-collected with it.
    assert all(sequence >= vote.checkpoint_floor for sequence in core.slots)


def test_pbft_view_change_without_checkpoints_grows_with_history():
    cluster = _run_pbft_cluster(checkpoint_interval=0)
    core = cluster.replicas[1].core
    committed = core.decided_frontier + 1
    assert committed > 100
    vote = _captured_view_change(core)
    # The regression the checkpoint floor fixes: every since-genesis slot
    # travels with the vote.
    assert len(vote.prepared_slots) >= committed
    assert vote.checkpoint_floor == 0 and vote.checkpoint is None


@pytest.mark.parametrize("strip", [False, True])
def test_hotstuff_replay_folds_the_chain_node_digest_of_every_transferred_record(strip):
    # A transferred HotStuff record names its chain node by ``slot_digest``;
    # one that carries none is folded under the digest recomputed from its
    # content, so the replay still reproduces the certified rolling digest.
    from dataclasses import replace

    from repro.bench.cluster import SimulatedCluster

    donor = SimulatedCluster.for_protocol(
        "hotstuff", num_replicas=4, batch_size=8, clients=3, seed=7
    )
    donor.run(duration=0.2)
    source = donor.replicas[0]
    entries, certificate = source.checkpoints.serve(0)
    if strip:
        entries = tuple(
            replace(entry, records=tuple(replace(r, slot_digest=b"") for r in entry.records))
            for entry in entries
        )
    target = SimulatedCluster.for_protocol("hotstuff", num_replicas=4, clients=0).replicas[1]
    target._apply_state_entries(entries, certificate)
    assert target.checkpoints.frontier == certificate.position > 0
    assert target.checkpoints.rolling == certificate.digest
    # The committed chain is re-anchored on the source's node digests.
    anchored = [entry.records[0].slot_digest for entry in target.checkpoints.archive]
    assert anchored == [
        entry.records[0].slot_digest for entry in source.checkpoints.archive[: certificate.position]
    ]
    assert target.committed_chain_height() == certificate.position
    assert all(target.nodes[digest].committed for digest in anchored)


def test_spotless_state_response_ships_client_payloads_only():
    # Each record carries its client transactions, and a no-op is an empty
    # record: a response is priced by what its records carry, so a no-op
    # costs a header alone.
    from repro.scenarios import ScenarioRunner, single_fault_spec

    runner = ScenarioRunner(single_fault_spec("spotless", "crash", f=1))
    cluster = runner.cluster
    shipped = []
    for replica in cluster.replicas:

        def capture(receiver, payload, size, _send=replica.send, _replica=replica):
            if isinstance(payload, StateResponse):
                shipped.append((_replica, payload, size))
            return _send(receiver, payload, size)

        replica.send = capture
    runner.run()
    assert shipped
    clients = {client.client_id for client in cluster.clients}
    served_noops = 0
    for replica, response, size in shipped:
        records = [record for entry in response.entries for record in entry.records]
        served_noops += sum(not record.transactions for record in records)
        assert all(
            transaction.client_id in clients for record in records for transaction in record.transactions
        )
        model = replica.size_model
        assert size == model.control_bytes(signatures=replica.config.quorum) + sum(
            model.proposal_bytes(len(record.transactions)) for record in records
        )
    assert served_noops > 0
