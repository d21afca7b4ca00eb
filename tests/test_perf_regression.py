"""Regression tests for the PR6 hot-path overhaul.

Layers of protection:

* **event accounting** — the slotted :class:`Event` rewrite and the
  peek-based run loop must keep ``pending_events``/``scheduled_events``
  accounting exact under cancellation, lazy removal and the fast path;
* **golden determinism** — a pinned benchmark cell replayed twice must
  process the identical event count and produce the identical ledger, the
  byte-for-byte invariant every optimisation in that PR was gated on;
* **call budget** — the SpotLess per-message path is held to a number of
  Python calls and of dataclass constructions per simulated event, the
  shared transaction lifecycle to a number of calls per confirmed
  transaction, and a PBFT message hop to a number of calls per event: cost
  measures no host can move;
* **growth** — what a HotStuff replica pays per proposal may not depend on
  how long the chain has grown;
* **retention** — cancelled timers may not pile up in the event heap, and
  what a run keeps per executed position is held to a count of objects the
  collector tracks.
"""

import os
import sys

from repro.sim.engine import Simulator


# ---------------------------------------------------------------------------
# event accounting under the slotted Event / peek-based run loop
# ---------------------------------------------------------------------------


def test_cancel_decrements_pending_immediately():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    event.cancel()
    # Live count drops immediately; the heap entry is removed lazily.
    assert sim.pending_events == 1
    assert sim.scheduled_events == 2
    sim.run()
    assert sim.pending_events == 0
    assert sim.scheduled_events == 0
    assert sim.processed_events == 1


def test_double_cancel_counts_once():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.pending_events == 0


def test_cancel_after_execution_is_a_noop():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    sim.run()
    assert fired == [1]
    assert sim.pending_events == 0
    event.cancel()
    assert sim.pending_events == 0


def test_fast_path_entries_count_as_pending():
    sim = Simulator()
    fired = []
    sim.schedule_call(1.0, fired.append, (1,))
    sim.schedule_call(2.0, fired.append, (2,))
    assert sim.pending_events == 2
    sim.run(until=1.5)
    assert fired == [1]
    assert sim.pending_events == 1
    sim.run()
    assert fired == [1, 2]
    assert sim.pending_events == 0


def test_cancelled_head_does_not_leak_into_window_accounting():
    sim = Simulator()
    head = sim.schedule(1.0, lambda: None)
    tail = sim.schedule(5.0, lambda: None)
    head.cancel()
    # The cancelled head is dropped lazily; the 5.0 event is peeked, seen
    # beyond the window and left in the queue.
    sim.run(until=2.0)
    assert sim.now == 2.0
    assert sim.pending_events == 1
    assert sim.scheduled_events == 1
    tail.cancel()
    sim.run()
    assert sim.pending_events == 0
    assert sim.scheduled_events == 0


def test_shared_sequence_keeps_mixed_scheduling_deterministic():
    # schedule() and schedule_call() share one sequence counter, so ties at
    # the same (time, priority) fire in insertion order across both paths.
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("event-a"))
    sim.schedule_call(1.0, order.append, ("call-b",))
    sim.schedule(1.0, lambda: order.append("event-c"))
    sim.run()
    assert order == ["event-a", "call-b", "event-c"]


# ---------------------------------------------------------------------------
# golden determinism of a pinned benchmark cell
# ---------------------------------------------------------------------------


def _cell(protocol, **overrides):
    from repro.bench.cluster import SimulatedCluster

    return SimulatedCluster.for_protocol(
        protocol,
        num_replicas=4,
        batch_size=8,
        clients=3,
        outstanding_per_client=4,
        seed=7,
        **overrides,
    )


def _hotstuff_cell(**overrides):
    return _cell("hotstuff", **overrides)


def _run_hotstuff_cell():
    cluster = _hotstuff_cell(checkpoint_interval=0)
    cluster.run(duration=0.4)
    ledger = cluster.replicas[0].ledger
    return cluster.simulator.processed_events, ledger.head.digest()


def test_pinned_cell_replays_byte_identically():
    events_one, digest_one = _run_hotstuff_cell()
    events_two, digest_two = _run_hotstuff_cell()
    assert events_one == events_two
    assert digest_one == digest_two


# ---------------------------------------------------------------------------
# host-independent call budget of the SpotLess hot path
# ---------------------------------------------------------------------------

#: Calls of functions defined under ``src/repro/core/`` per processed event
#: on a fault-free n=4 cell.  The per-Sync rework brought it from 31.8 to
#: 19.2 (18.5 measured later); testing each Sync rule's "nothing to do"
#: condition where the vote is counted brought it to 11.2.  Re-deriving
#: settled facts on every Sync again trips this long before a wall clock
#: could tell.
CORE_CALLS_PER_EVENT_BUDGET = 12.3


def _calls_while_running(cluster, horizon, counted, name_counted=lambda name: not name.startswith("<")):
    """Python calls of functions whose source file ``counted`` and whose name
    ``name_counted`` accept, made while ``cluster`` runs ``horizon`` more
    simulated seconds."""
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        # By default comprehensions, generator expressions and lambdas (the
        # "<...>" code objects) are left out: 3.12 inlines some of them.
        if event == "call":
            code = frame.f_code
            if counted(code.co_filename) and name_counted(code.co_name):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        cluster.simulator.run_for(horizon)
    finally:
        sys.setprofile(previous)
    return calls


def test_core_call_budget_per_event():
    import repro.core

    core_dir = os.path.dirname(repro.core.__file__) + os.sep
    cluster = _cell("spotless")
    cluster.start()
    calls = _calls_while_running(cluster, 0.1, lambda path: path.startswith(core_dir))
    events = cluster.simulator.processed_events
    assert events == 5092  # same schedule, so the ratio compares like with like
    assert calls / events < CORE_CALLS_PER_EVENT_BUDGET


#: Dataclass instances built per processed event on the same cell, counted as
#: calls of a generated ``__init__``: a plain dataclass's code object reports
#: the file "<string>", a ``repro.net.record.record`` class's "<record ...>".
#: 1.68 while every Sync built its CP entries afresh and every certificate a
#: placeholder signature per unsigned vote; 1.42 once each is built once.
CORE_CONSTRUCTIONS_PER_EVENT_BUDGET = 1.55


def test_core_constructions_per_event():
    from repro.net.record import RECORD_FILE_PREFIX

    cluster = _cell("spotless")
    cluster.start()
    constructions = _calls_while_running(
        cluster,
        0.1,
        lambda path: path == "<string>" or path.startswith(RECORD_FILE_PREFIX),
        lambda name: name == "__init__",
    )
    events = cluster.simulator.processed_events
    assert events == 5092
    assert constructions / events < CORE_CONSTRUCTIONS_PER_EVENT_BUDGET


#: Calls of functions defined under ``runtime/``, ``ledger/``, ``recovery/``,
#: ``workload/``, ``crypto/`` and in ``core/client.py`` per confirmed
#: transaction on the fault-free PBFT n=4 cell: what one transaction costs on
#: its way client -> admit -> execute -> ledger -> inform at every replica.
#: 232.0 while a digest went through the recursive canonical encoder, each
#: replica asked the mempool twice per transaction, executed it into a result
#: record and re-derived the reply size; 199.0 once each hop does its work
#: once.
LIFECYCLE_CALLS_PER_TXN_BUDGET = 212.0


def test_lifecycle_call_budget_per_confirmed_transaction():
    import repro

    root = os.path.dirname(repro.__file__) + os.sep
    layers = tuple(root + layer + os.sep for layer in ("runtime", "ledger", "recovery", "workload", "crypto"))
    client = os.path.join(root, "core", "client.py")
    cluster = _cell("pbft")
    cluster.start()
    calls = _calls_while_running(
        cluster, 0.2, lambda path: path.startswith(layers) or path == client
    )
    confirmed = sum(c.confirmed_transactions for c in cluster.clients)
    # Same schedule and the same transactions, so the ratio compares like with like.
    assert (cluster.simulator.processed_events, confirmed) == (17305, 481)
    assert calls / confirmed < LIFECYCLE_CALLS_PER_TXN_BUDGET


#: Calls of functions defined under ``protocols/``, ``runtime/`` and ``sim/``
#: per processed event on the same PBFT cell: the fixed cost of a message hop.
#: 16.8 while a delivery went through ``Simulator.schedule_call``, the
#: runtime's router, the replica's instance router and the core's dispatch
#: table, and each vote through a tally method of its slot; 11.0 once
#: ``broadcast`` pushes onto the heap, one route table in ``on_message``
#: calls the core's handler, ``Actor.send`` / ``broadcast`` add no frame and
#: the tallies are counted inline.
HOP_CALLS_PER_EVENT_BUDGET = 12.0


def test_message_hop_call_budget_per_event():
    import repro

    root = os.path.dirname(repro.__file__) + os.sep
    layers = tuple(root + layer + os.sep for layer in ("protocols", "runtime", "sim"))
    cluster = _cell("pbft")
    cluster.start()
    calls = _calls_while_running(cluster, 0.2, lambda path: path.startswith(layers))
    events = cluster.simulator.processed_events
    assert events == 17305
    assert calls / events < HOP_CALLS_PER_EVENT_BUDGET


# ---------------------------------------------------------------------------
# host-independent growth tripwire of the HotStuff proposal path
# ---------------------------------------------------------------------------

#: ``nodes.get`` probes one replica spends per proposal on the fault-free
#: n=4 cell: 9.25 with the lock on the two-chain.  With the lock left at
#: genesis the safety rule walked every ancestor — 59 probes in the first
#: 0.2 s, 371 in the fourth.
NODE_PROBES_PER_PROPOSAL_BUDGET = 12.0


class _CountingDict(dict):
    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return dict.get(self, key, default)


def test_hotstuff_node_probes_per_proposal_do_not_grow_with_the_chain():
    cluster = _hotstuff_cell()
    for replica in cluster.replicas:
        replica.nodes = _CountingDict(replica.nodes)
    cluster.start()
    per_proposal = []
    probes = proposals = 0
    for _ in range(4):
        cluster.run_additional(0.2)
        probes_now = sum(replica.nodes.probes for replica in cluster.replicas)
        proposals_now = sum(replica.proposals_made for replica in cluster.replicas)
        # Every replica handles every proposal.
        per_proposal.append((probes_now - probes) / (len(cluster.replicas) * (proposals_now - proposals)))
        probes, proposals = probes_now, proposals_now
    assert cluster.simulator.processed_events == 9431  # the fault-free schedule
    assert per_proposal[-1] <= 1.1 * per_proposal[0]
    assert max(per_proposal) < NODE_PROBES_PER_PROPOSAL_BUDGET


# ---------------------------------------------------------------------------
# retention: what a run keeps per executed position
# ---------------------------------------------------------------------------


def test_cancelled_timers_do_not_pile_up_in_the_event_heap():
    """Every message re-arms a deadline, and the client deadline that would
    flush the cancelled entries off the head of the heap is 2 simulated
    seconds away: left lazy, the closed-loop cell ends with ~30 dead entries
    per live one."""
    from repro.sim.engine import _SWEEP_FLOOR
    from repro.workload.arrival import LoadProfile

    closed = _cell("pbft")
    closed.run(duration=0.4)
    open_loop = _cell("pbft", arrival=LoadProfile.constant(20_000.0, 0.05))
    open_loop.run(duration=0.2)
    for simulator in (closed.simulator, open_loop.simulator):
        assert simulator.pending_events > 0
        assert simulator.scheduled_events <= 2 * simulator.pending_events + _SWEEP_FLOOR


#: Protocol -> (horizon step, budget): objects the collector tracks, per
#: ledger block appended (all replicas), between one and two steps into the
#: fault-free n=4 cell.  With the execution
#: results kept, an instance dict per record and the cancelled timers queued
#: PBFT read 9.2 and HotStuff 14.9; now 4.7 and 7.9 (a block, its slot entry
#: and record, the entry's tuple — and for HotStuff the chain node, its QC
#: and the proof).  The budgets sit between, with room for interpreters that
#: give every chain node a dict.
TRACKED_OBJECTS_PER_BLOCK_BUDGET = {"pbft": (0.2, 6.5), "hotstuff": (0.4, 11.0)}


def test_tracked_objects_per_ledger_block_stay_within_budget():
    import gc

    for protocol, (step, budget) in TRACKED_OBJECTS_PER_BLOCK_BUDGET.items():
        cluster = _cell(protocol)
        cluster.start()
        readings = []
        for _ in range(2):
            cluster.run_additional(step)
            gc.collect()
            readings.append(
                (len(gc.get_objects()), sum(replica.ledger.height for replica in cluster.replicas))
            )
        (objects_before, blocks_before), (objects_after, blocks_after) = readings
        assert blocks_after - blocks_before > 500  # enough blocks to average over
        assert (objects_after - objects_before) / (blocks_after - blocks_before) < budget, protocol


def test_proof_memo_keeps_one_proof_per_instance_and_still_hits_in_a_steady_view():
    # HotStuff's view moves with every block: no proof is ever asked for
    # twice, so none but the last is worth keeping.
    hotstuff = _hotstuff_cell()
    hotstuff.run(duration=0.2)
    replica = hotstuff.replicas[0]
    assert replica.ledger.height > 50
    assert len(replica.pipeline._proof_cache) == 1
    # PBFT stays in view 0: every block shares the one proof and its encoding.
    pbft = _cell("pbft")
    pbft.run(duration=0.1)
    blocks = pbft.replicas[0].ledger.blocks()[1:]
    assert len(blocks) > 50
    assert all(block.proof is blocks[0].proof for block in blocks)
    # RCC: one entry per instance, each hit again by that instance's next block.
    rcc = _cell("rcc")
    rcc.run(duration=0.03)
    replica = rcc.replicas[0]
    proofs = {id(block.proof) for block in replica.ledger.blocks()[1:]}
    assert len(proofs) == len(replica.pipeline._proof_cache) == 4 < replica.ledger.height
