"""Unit tests for a single SpotLess chained consensus instance.

The tests drive a small group of :class:`SpotLessInstance` state machines
through a manual harness (no simulator, no network): broadcasts are queued
and delivered explicitly, and timers fire only when the test says so.  This
exercises the normal-case protocol, the acceptance rules, Ask-recovery and
Rapid View Synchronization in isolation.
"""

import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import ProposalStatus
from repro.core.config import SpotLessConfig
from repro.core.instance import InstanceEnvironment, SpotLessInstance, ViewState
from repro.core.messages import AskMessage, Claim, ProposalForward, ProposeMessage, SyncMessage
from repro.crypto.certificates import Certificate, Signature
from repro.workload.requests import Transaction
from tests.manual_timer import TimerBoard
from tests.transactions import txn


class Harness:
    """Connects a group of SpotLess instances through manual message queues."""

    def __init__(self, num_replicas=4, instance_id=0, instance_class=SpotLessInstance, admit=None, **config_kwargs):
        self.admit = admit
        self.config = SpotLessConfig(num_replicas=num_replicas, num_instances=1, **config_kwargs)
        self.queues: List[Tuple[int, Optional[int], object]] = []
        self.commits: Dict[int, List] = {r: [] for r in range(num_replicas)}
        self.batches: Dict[int, List[Tuple[Transaction, ...]]] = {r: [] for r in range(num_replicas)}
        self.proposed: Dict[int, int] = {r: 0 for r in range(num_replicas)}
        self.timers: Dict[int, TimerBoard] = {r: TimerBoard() for r in range(num_replicas)}
        self.time = 0.0
        self.instances: Dict[int, SpotLessInstance] = {}
        for replica in range(num_replicas):
            self.instances[replica] = instance_class(
                instance_id=instance_id,
                config=self.config,
                environment=self._environment(replica),
            )

    def _environment(self, replica):
        def next_batch(instance):
            queued = self.batches[replica]
            if queued:
                return queued.pop(0)
            self.proposed[replica] += 1
            return (txn(b"%d:%d" % (replica, self.proposed[replica])),)

        extra = {} if self.admit is None else {"admit": self.admit}
        return InstanceEnvironment(
            **extra,
            replica_id=replica,
            broadcast=lambda message, _r=replica: self.queues.append((_r, None, message)),
            send=lambda receiver, message, _r=replica: self.queues.append((_r, receiver, message)),
            make_timer=self.timers[replica].make_timer,
            next_batch=next_batch,
            on_commit=lambda instance, proposal, _r=replica: self.commits[_r].append(proposal),
            now=lambda: self.time,
        )

    # -- delivery --------------------------------------------------------

    def _dispatch(self, sender, receiver, message):
        instance = self.instances[receiver]
        if isinstance(message, ProposeMessage):
            instance.on_propose(sender, message)
        elif isinstance(message, SyncMessage):
            instance.on_sync(sender, message)
        elif isinstance(message, AskMessage):
            instance.on_ask(sender, message)
        elif isinstance(message, ProposalForward):
            instance.on_forward(sender, message)

    def deliver_all(self, drop=None, max_rounds=200):
        """Deliver queued messages until quiescent.

        ``drop(sender, receiver, message)`` may return True to drop a message
        (used to simulate unreliable links and Byzantine withholding).
        """
        rounds = 0
        while self.queues and rounds < max_rounds:
            rounds += 1
            batch, self.queues = self.queues, []
            for sender, receiver, message in batch:
                receivers = [receiver] if receiver is not None else list(self.instances)
                for target in receivers:
                    if drop is not None and drop(sender, target, message):
                        continue
                    self._dispatch(sender, target, message)

    def start(self, replicas=None):
        for replica in replicas if replicas is not None else list(self.instances):
            self.instances[replica].start()

    def fire_timers(self, replica=None):
        """Fire every armed (non-cancelled) timer once."""
        replicas = [replica] if replica is not None else list(self.instances)
        for target in replicas:
            self.timers[target].fire_running()


# ---------------------------------------------------------------------------
# normal case
# ---------------------------------------------------------------------------


def test_primary_of_view_rotates_per_instance():
    config = SpotLessConfig(num_replicas=4)
    assert config.primary_of(0, 0) == 0
    assert config.primary_of(0, 1) == 1
    assert config.primary_of(3, 1) == 0
    assert config.primary_of(2, 6) == 0


def test_view_zero_proposal_is_accepted_and_conditionally_prepared():
    harness = Harness()
    harness.start()
    harness.deliver_all()
    for instance in harness.instances.values():
        proposal = instance.store.conditionally_prepared_in_view(0)
        assert proposal is not None
        assert proposal.status >= ProposalStatus.CONDITIONALLY_PREPARED
        assert instance.current_view >= 1


def test_three_views_commit_the_first_proposal_everywhere():
    harness = Harness()
    harness.start()
    for _ in range(6):
        harness.deliver_all()
    for replica, commits in harness.commits.items():
        assert commits, f"replica {replica} committed nothing"
        assert commits[0].view == 0
    digests = {commits[0].digest for commits in harness.commits.values()}
    assert len(digests) == 1


def test_committed_chains_are_consistent_across_replicas():
    harness = Harness()
    harness.start()
    for _ in range(12):
        harness.deliver_all()
    sequences = [
        [proposal.digest for proposal in harness.commits[replica]] for replica in harness.instances
    ]
    shortest = min(len(seq) for seq in sequences)
    assert shortest >= 2
    for sequence in sequences:
        assert sequence[:shortest] == sequences[0][:shortest]


def test_views_advance_without_timeouts_in_failure_free_runs():
    harness = Harness()
    harness.start()
    for _ in range(8):
        harness.deliver_all()
    assert all(instance.timeouts == 0 for instance in harness.instances.values())
    assert all(instance.current_view >= 3 for instance in harness.instances.values())


def test_sync_message_carries_cp_set_at_or_above_lock():
    harness = Harness()
    harness.start()
    for _ in range(6):
        harness.deliver_all()
    instance = harness.instances[0]
    cp_entries = instance.store.cp_set()
    assert cp_entries
    assert all(entry.view >= instance.store.lock.view for entry in cp_entries)


def sync_senders(instance, view):
    """Replicas whose Sync for ``view`` the instance has recorded."""
    return tuple(sorted(instance._views[view].senders))


def test_duplicate_sync_messages_do_not_double_count():
    from repro.core.messages import Claim

    harness = Harness()
    harness.start()
    harness.deliver_all()
    instance = harness.instances[0]
    senders_before = sync_senders(instance, 0)
    # Replay a stale failure-claim Sync for view 0 from a sender already counted.
    replay = SyncMessage(instance=0, view=0, claim=Claim.failure(0))
    instance.on_sync(senders_before[0], replay)
    assert sync_senders(instance, 0) == senders_before


def test_duplicate_and_late_syncs_for_a_prepared_proposal_change_nothing():
    from repro.core.messages import Claim, CpEntry

    harness = Harness()
    harness.start()
    late = []

    def hold_back(sender, receiver, message):
        # Replica 3's view-0 Sync does not reach replica 0 in time.
        if (sender, receiver) == (3, 0) and isinstance(message, SyncMessage) and message.view == 0:
            late.append(message)
            return True
        return False

    harness.deliver_all(drop=hold_back, max_rounds=12)
    instance = harness.instances[0]
    proposal = instance.store.conditionally_prepared_in_view(0)
    assert proposal is not None and late
    assert sync_senders(instance, 0) == (0, 1, 2)

    def observable():
        store = instance.store
        return (
            tuple((known.digest, known.has_payload()) for known in store.proposals()),
            store.lock.digest, store.cp_set(), proposal.status,
            instance.current_view, instance.state, instance.syncs_sent, instance.asks_sent,
            len(harness.queues), len(harness.commits[0]),
        )

    before = observable()
    duplicate = SyncMessage(
        instance=0,
        view=0,
        claim=Claim(view=0, digest=proposal.digest),
        cp_set=(CpEntry(view=0, digest=proposal.digest),),
    )
    instance.on_sync(1, duplicate)
    assert observable() == before
    instance.on_sync(3, late[0])
    assert observable() == before
    # The late Sync is still a recorded fact; only its consequences were settled.
    assert sync_senders(instance, 0) == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# failure handling: silent primary, echo rule, Ask-recovery, view skip
# ---------------------------------------------------------------------------


def test_silent_primary_leads_to_failure_claims_and_view_advance():
    harness = Harness()
    # Replica 0 is the primary of view 0; do not start it.
    harness.start(replicas=[1, 2, 3])
    harness.deliver_all()
    # Backups are still waiting in Recording; fire their t_R timers.
    harness.fire_timers()
    harness.deliver_all()
    harness.fire_timers()
    harness.deliver_all()
    for replica in (1, 2, 3):
        instance = harness.instances[replica]
        assert instance.current_view >= 1
        assert instance.timeouts >= 1


_OTHER_PROPOSAL = b"\x33" * 32


def _synced_view_zero_at_replica_1(harness):
    """Replica 1 alone, t_R expired in view 0: it claimed ∅ and counts its own Sync."""
    harness.start(replicas=[1])
    instance = harness.instances[1]
    harness.fire_timers(1)
    (own,) = [m for _s, _r, m in harness.queues if isinstance(m, SyncMessage)]
    instance.on_sync(1, own)
    assert (instance.current_view, instance.state) == (0, ViewState.SYNCING)
    return instance


@pytest.mark.parametrize(
    "claims, state",
    [
        # n − f claim(∅) Syncs complete while the view is still Syncing.
        pytest.param([(2, None), (3, None)], ViewState.SYNCING, id="syncing"),
        # A digest claim makes n − f senders first: Certifying, t_A armed.
        pytest.param([(2, _OTHER_PROPOSAL), (3, None), (0, None)], ViewState.CERTIFYING, id="certifying"),
    ],
)
def test_n_minus_f_failure_claims_end_the_view_without_a_certifying_expiry(claims, state):
    """claim(∅) is a claim: n − f equal ones leave at most f replicas that could
    still claim a proposal of the view, so the view ends on the quorum, not on
    t_A (Figure 4, line 10)."""
    harness = Harness()
    instance = _synced_view_zero_at_replica_1(harness)
    *before, last = claims
    for sender, digest in before:
        instance.on_sync(sender, SyncMessage(instance=0, view=0, claim=Claim(view=0, digest=digest)))
    assert (instance.current_view, instance.state) == (0, state)
    sender, digest = last
    instance.on_sync(sender, SyncMessage(instance=0, view=0, claim=Claim(view=0, digest=digest)))
    assert (instance.current_view, instance.state) == (1, ViewState.RECORDING)
    assert instance.timeouts == 1  # t_R in view 0; t_A never expired
    assert not harness.timers[1].running("certifying")


@pytest.mark.parametrize(
    "claims",
    [
        pytest.param([(2, None)], id="syncing"),
        pytest.param([(2, None), (3, _OTHER_PROPOSAL)], id="certifying"),
    ],
)
def test_n_minus_f_minus_1_failure_claims_do_not_move_the_view(claims):
    harness = Harness()
    instance = _synced_view_zero_at_replica_1(harness)
    for sender, digest in claims:
        instance.on_sync(sender, SyncMessage(instance=0, view=0, claim=Claim(view=0, digest=digest)))
    # A duplicate claim(∅) from a counted sender is not a new claim.
    instance.on_sync(2, SyncMessage(instance=0, view=0, claim=Claim.failure(0)))
    assert instance.current_view == 0
    assert instance._views[0].failure_claims == 2


def test_a_recording_replica_waits_for_its_own_claim_before_leaving_the_view():
    """n − f claim(∅) Syncs from others do not end a view this replica has not
    synced yet: it leaves a view only after broadcasting its Sync for it."""
    harness = Harness()
    harness.start(replicas=[1])
    instance = harness.instances[1]
    for sender in (0, 2, 3):
        instance.on_sync(sender, SyncMessage(instance=0, view=0, claim=Claim.failure(0)))
    assert (instance.current_view, instance.state) == (0, ViewState.RECORDING)
    harness.fire_timers(1)
    (own,) = [m for _s, _r, m in harness.queues if isinstance(m, SyncMessage)]
    instance.on_sync(1, own)
    assert (instance.current_view, instance.state) == (1, ViewState.RECORDING)


def test_a_fast_advance_from_syncing_shrinks_the_certifying_timeout():
    """A healthy view ends on its n − f same-claim quorum while still Syncing,
    before t_A is armed: the awaited quorum came within half the interval, so
    t_A halves (core/timeouts.py)."""
    harness = Harness()
    initial = harness.config.certifying_timeout
    harness.start()
    harness.time = 0.002
    harness.deliver_all(max_rounds=2)
    for instance in harness.instances.values():
        assert instance.current_view == 1 and instance.timeouts == 0
        assert instance._certifying_timeout.interval == initial / 2


# ---------------------------------------------------------------------------
# keeping a replica's instances in step (the host's admit hook)
# ---------------------------------------------------------------------------


def _held_out_of_view_2():
    """Every replica's instance completes view 1's quorum while a sibling
    instance (played by the gate) is still in view 0."""
    asked, highest = [], [1]

    def admit(instance, view, skip):
        asked.append((view, skip))
        return view <= highest[0] or skip

    harness = Harness(admit=admit)
    harness.start()
    harness.time = 0.002
    harness.deliver_all()
    return harness, asked, highest


def test_an_instance_that_completes_a_view_ahead_of_its_siblings_is_held():
    harness, asked, _highest = _held_out_of_view_2()
    assert (2, False) in asked
    for replica, instance in harness.instances.items():
        # View 1 reached its quorum, but the instance stays in it.
        assert instance.current_view == 1
        assert instance._held_view == 2
        assert len(instance._votes(1, instance.store.proposals_in_view(1)[0].digest)) >= 3
        assert not harness.timers[replica].running()


def test_a_held_view_expires_no_timer_and_grows_no_certifying_timeout():
    harness, _asked, _highest = _held_out_of_view_2()
    intervals = {r: i._certifying_timeout.interval for r, i in harness.instances.items()}
    # A repeated quorum Sync neither re-arms t_A nor credits it again (a
    # second credit this soon would halve it again).
    (proposal,) = harness.instances[0].store.proposals_in_view(1)
    for instance in harness.instances.values():
        instance.on_sync(3, SyncMessage(instance=0, view=1, claim=Claim(view=1, digest=proposal.digest)))
    # Long after any timer would have expired, nothing fires and nothing grows.
    harness.time = 10.0
    for _ in range(3):
        harness.fire_timers()
        harness.deliver_all()
    for replica, instance in harness.instances.items():
        assert (instance.current_view, instance.timeouts) == (1, 0)
        assert instance._certifying_timeout.interval == intervals[replica]
        assert not harness.timers[replica].running()


def test_a_released_instance_enters_the_view_it_was_held_out_of():
    harness, _asked, highest = _held_out_of_view_2()
    # The sibling enters view 1: the host admits view 2, and releases.
    highest[0] = 2
    for replica, instance in harness.instances.items():
        instance.release()
        assert (instance.current_view, instance.state) == (2, ViewState.RECORDING)
        assert harness.timers[replica].running("recording")
    harness.deliver_all()
    # View 2 reaches its quorum, and view 3 is held until the sibling moves.
    assert all(
        (instance.current_view, instance._held_view) == (2, 3) for instance in harness.instances.values()
    )


def test_the_f_plus_1_higher_view_skip_is_never_held():
    asked = []

    def admit(instance, view, skip):
        asked.append((view, skip))
        return skip

    harness = Harness(admit=admit)
    harness.start()
    lagging = harness.instances[3]
    for sender in (0, 1):
        lagging.on_sync(sender, SyncMessage(instance=0, view=5, claim=Claim.failure(5)))
    assert asked == [(5, True)]
    assert (lagging.current_view, lagging.state) == (5, ViewState.RECORDING)
    assert harness.timers[3].running("recording")


def test_progress_resumes_after_faulty_view():
    harness = Harness()
    harness.start(replicas=[1, 2, 3])
    for _ in range(3):
        harness.fire_timers()
        harness.deliver_all()
    # View 1's primary is replica 1, which is alive: the chain should extend
    # from genesis and eventually commit once three consecutive good views pass.
    for _ in range(10):
        harness.deliver_all()
        harness.fire_timers()
        harness.deliver_all()
    alive_commits = [harness.commits[replica] for replica in (1, 2, 3)]
    assert any(commits for commits in alive_commits)


def test_echo_rule_and_ask_recovery_fetch_missing_proposal():
    harness = Harness()
    harness.start(replicas=[0, 1, 2])
    # Drop the primary's proposal towards replica 3 only (attack A2 victim).
    harness.instances[3].start()

    def drop(sender, receiver, message):
        return isinstance(message, ProposeMessage) and receiver == 3

    harness.deliver_all(drop=drop)
    harness.deliver_all(drop=drop)
    victim = harness.instances[3]
    proposal = victim.store.conditionally_prepared_in_view(0)
    assert proposal is not None
    # The victim learned the proposal through f+1 Sync messages and recovered
    # the payload through Ask (or it will have asked for it).
    assert victim.asks_sent >= 1 or proposal.has_payload()


def test_ask_messages_answered_with_proposal_forward():
    harness = Harness()
    harness.start()
    harness.deliver_all()
    source = harness.instances[0]
    proposal = source.store.conditionally_prepared_in_view(0)
    # Direct query: replica 0 should reply to an Ask for its recorded proposal.
    source.on_ask(2, AskMessage(instance=0, view=0, claim=make_claim(proposal)))
    forwarded = [msg for sender, receiver, msg in harness.queues if isinstance(msg, ProposalForward)]
    assert forwarded and forwarded[-1].propose.view == 0


def make_claim(proposal):
    from repro.core.messages import Claim

    return Claim(view=proposal.view, digest=proposal.digest)


def test_rapid_view_synchronization_skips_to_higher_view():
    harness = Harness()
    harness.start()
    lagging = harness.instances[3]
    current = lagging.current_view
    higher = current + 5
    # f + 1 = 2 replicas report Sync messages from a much higher view.
    from repro.core.messages import Claim

    for sender in (0, 1):
        lagging.on_sync(sender, SyncMessage(instance=0, view=higher, claim=Claim.failure(higher)))
    assert lagging.current_view == higher
    assert lagging.view_skips >= 1


def test_single_higher_view_report_does_not_skip():
    harness = Harness()
    harness.start()
    lagging = harness.instances[3]
    from repro.core.messages import Claim

    lagging.on_sync(0, SyncMessage(instance=0, view=50, claim=Claim.failure(50)))
    assert lagging.current_view < 50


def test_retransmit_flag_triggers_resend_of_own_sync():
    harness = Harness()
    harness.start()
    harness.deliver_all()
    replica0 = harness.instances[0]
    harness.queues.clear()
    from repro.core.messages import Claim

    request = SyncMessage(instance=0, view=0, claim=Claim.failure(0), retransmit_flag=True)
    replica0.on_sync(3, request)
    directed = [(s, r, m) for s, r, m in harness.queues if r == 3 and isinstance(m, SyncMessage)]
    assert directed, "replica 0 should retransmit its view-0 Sync to the requester"


def test_retransmission_of_a_compacted_view_is_a_failure_claim_served_once_per_requester():
    """A Υ request for a view whose tally a stable checkpoint compacted away
    finds no copy of the replica's own Sync: the reply is a rebuilt
    failure-claim Sync, without the Υ flag, sent once to each requester."""
    harness = Harness()
    sent = _record_broadcasts(harness)
    harness.start()
    for _ in range(3):
        harness.deliver_all()
    replica0 = harness.instances[0]
    assert replica0.current_view > 2
    (own,) = [m for m in sent[0] if isinstance(m, SyncMessage) and m.view == 0]
    assert own.claim.digest is not None  # its view-0 Sync claimed the proposal
    replica0.compact_below_view(2)
    harness.queues.clear()
    for requester in (2, 3, 2, 3):
        replica0.on_sync(requester, SyncMessage(instance=0, view=0, claim=Claim.failure(0), retransmit_flag=True))
    replies = [(receiver, m) for _s, receiver, m in harness.queues]
    assert [receiver for receiver, _m in replies] == [2, 3]
    for _receiver, reply in replies:
        assert isinstance(reply, SyncMessage)
        assert (reply.view, reply.claim.digest, reply.retransmit_flag) == (0, None, False)


def test_proposal_from_wrong_primary_is_ignored():
    harness = Harness()
    harness.start()
    harness.deliver_all()
    instance = harness.instances[2]
    view = instance.current_view
    wrong_sender = (instance.primary_of_view(view) + 1) % 4
    bogus = ProposeMessage(
        instance=0,
        view=view,
        transactions=(txn(b"evil"),),
        parent_digest=instance.store.lock.digest,
        parent_view=instance.store.lock.view,
    )
    synced_before = instance.state is not ViewState.RECORDING
    instance.on_propose(wrong_sender, bogus)
    if not synced_before:
        assert instance.current_view == view and instance.state is ViewState.RECORDING


# ---------------------------------------------------------------------------
# what an instance sends follows its view state machine
# ---------------------------------------------------------------------------


def _record_broadcasts(harness):
    """Log every message each instance broadcasts, in order, on the way out."""
    sent = {replica: [] for replica in harness.instances}
    for replica, instance in harness.instances.items():
        def recording(message, _broadcast=instance.env.broadcast, _log=sent[replica]):
            _log.append(message)
            _broadcast(message)

        instance.env.broadcast = recording
    return sent


#: One step of a run: deliver a few rounds of queued messages, each dropped
#: with the given percent chance (the seed picks which and sets the rounds),
#: deliver them while one replica receives nothing, or fire one replica's
#: armed timers.
_RUN_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("deliver"), st.sampled_from([0, 10, 30, 60]), st.integers(0, 2**16)),
        st.tuples(st.just("isolate"), st.integers(0, 3), st.integers(0, 2**16)),
        st.tuples(st.just("fire"), st.integers(0, 3), st.just(0)),
    ),
    max_size=40,
)


@given(_RUN_STEPS, st.booleans())
@settings(max_examples=200, deadline=None)
def test_an_instance_syncs_exactly_the_views_its_state_has_left_behind(steps, fast_path):
    """Rapid View Synchronization leaves a view only after this replica sent its
    Sync for it, and views only move up.  So, whatever gets dropped and
    whichever timers fire, the views an instance broadcast a Sync for are
    every view below its current one, in order, plus the current view once
    its state is past Recording; and the views it proposed in rise."""
    harness = Harness(enable_fast_path=fast_path)
    sent = _record_broadcasts(harness)
    harness.start()
    for operation, arg, seed in steps:
        if operation == "deliver":
            rng = random.Random(seed)
            harness.deliver_all(drop=lambda *_message: rng.randrange(100) < arg, max_rounds=1 + seed % 4)
        elif operation == "isolate":
            harness.deliver_all(drop=lambda _s, receiver, _m: receiver == arg, max_rounds=1 + seed % 4)
        else:
            harness.fire_timers(arg)
        for replica, instance in harness.instances.items():
            synced = [m.view for m in sent[replica] if isinstance(m, SyncMessage)]
            expected = list(range(instance.current_view))
            if instance.state is not ViewState.RECORDING:
                expected.append(instance.current_view)
            assert synced == expected, replica
            proposed = [m.view for m in sent[replica] if isinstance(m, ProposeMessage)]
            assert proposed == sorted(set(proposed)), replica


# ---------------------------------------------------------------------------
# S4: a proposal justified by a certificate for its parent
# ---------------------------------------------------------------------------

_UNSEEN_PARENT = b"\x5a" * 32


def _propose_with_certificate(statement, signers):
    """A lone backup skipped to view 1 gets a proposal extending a view-0
    proposal it never saw; returns ``(instance, harness, message)``."""
    harness = Harness()
    harness.start(replicas=[2])
    instance = harness.instances[2]
    for sender in (0, 3):
        instance.on_sync(sender, SyncMessage(instance=0, view=1, claim=Claim.failure(1)))
    assert instance.current_view == 1 and instance.state is ViewState.RECORDING
    harness.queues.clear()
    message = ProposeMessage(
        instance=0,
        view=1,
        transactions=(txn(b"batch"),),
        parent_digest=_UNSEEN_PARENT,
        parent_view=0,
        parent_certificate=Certificate(
            statement=statement,
            signatures=tuple(Signature(signer=f"replica:{s}", tag=b"") for s in signers),
        ),
    )
    instance.on_propose(instance.primary_of_view(1), message)
    return instance, harness, message


@pytest.mark.parametrize(
    "statement, signers",
    [
        pytest.param((0, b"\xa5" * 32), (0, 1, 3), id="statement-names-another-proposal"),
        pytest.param((1, _UNSEEN_PARENT), (0, 1, 3), id="statement-names-another-view"),
        pytest.param((0, _UNSEEN_PARENT), (0, 0, 3), id="duplicate-signers-padded-to-quorum"),
    ],
)
def test_proposal_with_an_invalid_parent_certificate_is_dropped(statement, signers):
    instance, harness, message = _propose_with_certificate(statement, signers)
    assert instance.store.get(message.digest()) is None
    assert instance.store.get(_UNSEEN_PARENT) is None
    assert instance.current_view == 1 and instance.state is ViewState.RECORDING
    assert harness.queues == []


def test_valid_parent_certificate_prepares_an_unseen_parent_by_reference():
    instance, harness, message = _propose_with_certificate((0, _UNSEEN_PARENT), (0, 1, 3))
    parent = instance.store.get(_UNSEEN_PARENT)
    assert parent is not None and not parent.has_payload()
    assert parent.view == 0
    assert parent.status >= ProposalStatus.CONDITIONALLY_PREPARED
    assert instance.store.get(message.digest()).message is message
    syncs = [m for _, receiver, m in harness.queues if receiver is None and isinstance(m, SyncMessage)]
    assert [(m.view, m.claim.digest) for m in syncs] == [(1, message.digest())]


def test_instance_ignores_messages_for_other_instances():
    harness = Harness()
    harness.start()
    instance = harness.instances[0]
    views_before = instance.views_entered
    from repro.core.messages import Claim

    instance.on_sync(1, SyncMessage(instance=7, view=3, claim=Claim.failure(3)))
    instance.on_propose(
        1,
        ProposeMessage(
            instance=7,
            view=0,
            transactions=(),
            parent_digest=instance.store.lock.digest,
            parent_view=-1,
        ),
    )
    assert instance.views_entered == views_before


def test_adaptive_timers_expose_current_intervals():
    harness = Harness()
    harness.start()
    instance = harness.instances[0]
    assert instance._recording_timeout.interval > 0
    assert instance._certifying_timeout.interval > 0
