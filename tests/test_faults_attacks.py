"""Unit tests for the A1-A4 attack scenarios (drop and rewrite behaviour)."""

import pytest

from repro.bench.cluster import SimulatedCluster
from repro.core.config import SpotLessConfig
from repro.core.messages import Claim, ProposeMessage, SyncMessage
from repro.faults.attacks import (
    AttackScenario,
    DarknessAttack,
    EquivocationAttack,
    VoteWithholdingAttack,
    attack_by_name,
    conflicting_digest,
)
from repro.protocols.hotstuff.messages import HsVote
from repro.protocols.pbft.messages import CommitMessage, PrePrepareMessage, PrepareMessage
from repro.workload.requests import Operation, Transaction


def sync_message(digest=b"honest"):
    return SyncMessage(instance=0, view=1, claim=Claim(view=1, digest=digest))


def propose_message():
    return ProposeMessage(
        instance=0, view=1, transactions=(), parent_digest=b"p", parent_view=0
    )


# ---------------------------------------------------------------------------
# A2 and A4: drop rules
# ---------------------------------------------------------------------------


def test_darkness_attack_drops_proposals_to_victims_only():
    attack = DarknessAttack(attackers={0}, victims={2})
    assert attack.should_drop(0, 2, propose_message())
    assert not attack.should_drop(0, 1, propose_message())
    assert not attack.should_drop(0, 2, sync_message())
    # Also applies to PBFT PrePrepare messages.
    preprepare = PrePrepareMessage(instance=0, view=0, sequence=0, transactions=())
    assert attack.should_drop(0, 2, preprepare)


def test_vote_withholding_attack_blocks_all_votes_from_attackers():
    attack = VoteWithholdingAttack(attackers={1})
    assert attack.should_drop(1, 0, sync_message())
    prepare = PrepareMessage(instance=0, view=0, sequence=0, batch_digest=b"")
    assert attack.should_drop(1, 0, prepare)
    assert not attack.should_drop(1, 0, propose_message())


# ---------------------------------------------------------------------------
# A3: genuine equivocation via rewrite rules
# ---------------------------------------------------------------------------


def test_conflicting_digest_is_deterministic_and_distinct():
    assert conflicting_digest(b"x") == conflicting_digest(b"x")
    assert conflicting_digest(b"x") != b"x"
    assert conflicting_digest(b"x") != conflicting_digest(b"y")


def test_only_equivocation_declares_a_rewrite():
    assert EquivocationAttack(attackers={1}).rewrites
    assert not DarknessAttack(attackers={1}).rewrites
    assert not VoteWithholdingAttack(attackers={1}).rewrites
    assert not AttackScenario().rewrites


def test_equivocation_rewrites_spotless_sync_preserving_envelope():
    # A Sync's envelope is its own instance and view: the receiver routes
    # the rewritten vote exactly where the honest one would have gone.
    attack = EquivocationAttack(attackers={3}, victims={0})
    payload = SyncMessage(instance=2, view=1, claim=Claim(view=1, digest=b"honest"))
    rewritten = attack.rewrite(3, 0, payload)
    assert isinstance(rewritten, SyncMessage)
    assert (rewritten.instance, rewritten.view) == (payload.instance, payload.view)
    assert rewritten.claim.digest == conflicting_digest(b"honest")
    # Honest votes to the rest of the cluster are untouched.
    assert attack.rewrite(3, 1, payload) is None
    # Votes from non-attackers are untouched.
    assert attack.rewrite(1, 0, payload) is None


def test_equivocation_leaves_failure_claims_alone():
    attack = EquivocationAttack(attackers={3}, victims={0})
    failure = SyncMessage(instance=0, view=1, claim=Claim.failure(1))
    assert attack.rewrite(3, 0, failure) is None


def test_equivocation_rewrites_pbft_and_hotstuff_votes():
    attack = EquivocationAttack(attackers={3}, victims={0})
    prepare = PrepareMessage(instance=0, view=0, sequence=5, batch_digest=b"batch")
    commit = CommitMessage(instance=0, view=0, sequence=5, batch_digest=b"batch")
    vote = HsVote(view=4, node_digest=b"node", voter=3)
    assert attack.rewrite(3, 0, prepare).batch_digest == conflicting_digest(b"batch")
    assert attack.rewrite(3, 0, commit).batch_digest == conflicting_digest(b"batch")
    assert attack.rewrite(3, 0, vote).node_digest == conflicting_digest(b"node")
    # Sequence/view/voter metadata is preserved so the vote stays well-formed.
    assert attack.rewrite(3, 0, prepare).sequence == 5
    assert attack.rewrite(3, 0, vote).voter == 3


def test_equivocation_attack_rewrites_votes_to_victims():
    attack = EquivocationAttack(attackers={1}, victims={2})
    honest = sync_message(b"honest")
    # A3 equivocates instead of dropping: the victim receives a conflicting
    # claim while the others receive the honest one.
    rewritten = attack.rewrite(1, 2, honest)
    assert rewritten is not None
    assert rewritten.claim.digest != honest.claim.digest
    assert attack.rewrite(1, 3, honest) is None
    assert attack.rewrite(0, 2, honest) is None


def test_equivocation_does_not_rewrite_proposals():
    attack = EquivocationAttack(attackers={3}, victims={0})
    assert attack.rewrite(3, 0, propose_message()) is None


# ---------------------------------------------------------------------------
# what a rule sees on the wire
# ---------------------------------------------------------------------------


def test_spotless_messages_reach_the_network_unwrapped():
    cluster = SimulatedCluster.spotless(
        SpotLessConfig(num_replicas=4, batch_size=4), clients=2, outstanding_per_client=2
    )
    seen = set()

    def observe(sender, receiver, payload):
        if sender < 4 and receiver < 4:
            seen.add(payload.__class__)
        return False

    cluster.network.add_drop_rule(observe)
    cluster.run(duration=0.1)
    assert {ProposeMessage, SyncMessage} <= seen
    assert tuple not in seen


# ---------------------------------------------------------------------------
# attack_by_name error paths
# ---------------------------------------------------------------------------


def test_attack_by_name_is_case_insensitive_and_sets_groups():
    attack = attack_by_name("a3", attackers=[3], victims=[0, 1])
    assert isinstance(attack, EquivocationAttack)
    assert attack.attackers == {3}
    assert attack.victims == {0, 1}
    assert attack.name == "A3"


@pytest.mark.parametrize("bad", ["A0", "A5", "", "crash", "a9"])
def test_attack_by_name_rejects_unknown_labels(bad):
    with pytest.raises(ValueError):
        attack_by_name(bad, attackers=[1])


# ---------------------------------------------------------------------------
# a primary proposing a request no client sent
# ---------------------------------------------------------------------------


def _primary_env(replica):
    """The environment through which ``replica`` proposes on instance 0."""
    cores = getattr(replica, "instances", None) or replica.cores
    return cores[0].env


@pytest.mark.parametrize("protocol", ["spotless", "pbft"])
def test_a_request_only_the_proposing_primary_holds_executes_everywhere(protocol):
    """A Byzantine primary adds to its next batch a request no client sent
    and ships it to no peer outside the proposal.  The proposal carries it,
    so every replica executes it and the run keeps confirming requests; a
    proposal that named it only by digest left the peers' frontiers stalled
    on a payload no replica but the primary held."""
    cluster = SimulatedCluster.for_protocol(
        protocol, num_replicas=4, clients=2, outstanding_per_client=2, batch_size=5, seed=3
    )
    injected = Transaction(client_id=0, sequence=10**6, operations=(Operation.write(7, b"unsent"),))
    env = _primary_env(cluster.replicas[0])
    honest_next_batch = env.next_batch
    unsent = [injected]

    def next_batch(instance):
        batch = honest_next_batch(instance)
        if batch and unsent:
            batch = tuple(batch) + (unsent.pop(),)
        return batch

    cluster.start()
    cluster.run_additional(0.1)
    env.next_batch = next_batch
    cluster.run_additional(0.1)
    assert not unsent, "the primary proposed the injected request"
    confirmed = sum(client.confirmed_transactions for client in cluster.clients)
    cluster.run_additional(0.3)
    for replica in cluster.replicas:
        assert replica.executed_transaction_digests().count(injected.digest()) == 1
    assert sum(client.confirmed_transactions for client in cluster.clients) > confirmed + 20
    cluster.assert_no_divergence()
