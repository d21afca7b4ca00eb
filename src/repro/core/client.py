"""SpotLess clients (Section 5).

A client sends a transaction to one replica, starts a timer and waits for
f + 1 identical Inform responses.  If the timer expires it retries with the
next replica and doubles the timeout, continuing until the transaction is
confirmed.  Because primaries rotate, a correct replica will eventually be
the primary of the instance responsible for the transaction.

Two client models live here:

* :class:`SpotLessClient` — the closed-loop client: a fixed window of
  ``outstanding`` requests, each confirmation immediately triggering the
  next submission.  One actor per simulated client.
* :class:`OpenLoopClientPool` — the open-loop traffic engine: one actor
  standing in for a whole region of users, submitting transactions on a
  :class:`~repro.workload.arrival.LoadProfile` schedule.  Offered load is a
  rate parameter, not a number of actors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.config import SpotLessConfig
from repro.core.messages import InformMessage
from repro.sim.actor import Actor
from repro.sim.engine import Event, Simulator
from repro.sim.metrics import Histogram
from repro.sim.network import Network
from repro.sim.rng import DeterministicRng
from repro.workload.arrival import LoadProfile
from repro.workload.requests import Transaction
from repro.workload.ycsb import YcsbWorkload


@dataclass(slots=True)
class _PendingRequest:
    """A transaction awaiting f + 1 matching Inform responses."""

    transaction: Transaction
    submitted_at: float
    responders: Set[int] = field(default_factory=set)
    confirmed: bool = False
    retries: int = 0
    target_replica: int = 0
    timeout: float = 1.0
    timer: Optional[Event] = None


class SpotLessClient(Actor):
    """A closed-loop client: keeps ``outstanding`` requests in flight.

    Latency is measured exactly as the paper does: from first submission of
    a transaction to the receipt of the (f + 1)-th matching Inform.
    """

    def __init__(
        self,
        client_id: int,
        config: SpotLessConfig,
        simulator: Simulator,
        network: Network,
        workload: YcsbWorkload,
        outstanding: int = 4,
        request_timeout: float = 2.0,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        super().__init__(config.num_replicas + client_id, simulator, network)
        self.client_id = client_id
        self.config = config
        self.workload = workload
        self.outstanding = outstanding
        self.request_timeout = request_timeout
        self.rng = (rng or DeterministicRng(client_id + 1)).fork(f"client-{client_id}")

        self.latency = Histogram(f"client-{client_id}-latency")
        self.confirmed_transactions = 0
        # Off by default: only the scenario runner's inform-durability check
        # reads the digests, and long benchmark runs should not retain one
        # digest per confirmed transaction for nothing.
        self.record_confirmed_digests = False
        self.confirmed_digests: List[bytes] = []
        self.retransmissions = 0
        self._pending: Dict[bytes, _PendingRequest] = {}
        self._request_size_bytes = 160
        self._replica_ids = tuple(config.replica_ids())

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Fill the pipeline with the initial window of requests."""
        for _ in range(self.outstanding):
            self._submit_new_transaction()

    def _submit_new_transaction(self) -> None:
        transaction = self.workload.next_transaction(self.client_id)
        request = _PendingRequest(
            transaction=transaction,
            submitted_at=self.now,
            target_replica=self.rng.randint(0, self.config.num_replicas - 1),
            timeout=self.request_timeout,
        )
        self._pending[transaction.digest()] = request
        self._transmit(request)

    def _transmit(self, request: _PendingRequest) -> None:
        if request.timer is not None:
            # A retransmit supersedes the previous timeout timer; without
            # this the old timer stays live and fires a spurious extra
            # failover later in the run.
            request.timer.cancel()
        if request.retries == 0:
            # ResilientDB disseminates the payload to all replicas up front
            # (Section 6.1), so the first submission broadcasts the
            # transaction itself.
            self.broadcast(self._replica_ids, request.transaction, self._request_size_bytes)
        else:
            # Section 5 failover: the retry goes to the rotated target
            # replica — eventually a correct one, since primaries rotate.
            self.send(request.target_replica, request.transaction, self._request_size_bytes)
        digest = request.transaction.digest()
        if self.tracer is not None:
            self.tracer.instant(
                self.node_id,
                "lifecycle",
                "submit" if request.retries == 0 else "retransmit",
                target=request.target_replica,
                retries=request.retries,
            )
        request.timer = self.call_later(request.timeout, lambda: self._on_request_timeout(digest))

    def _on_request_timeout(self, digest: bytes) -> None:
        request = self._pending.get(digest)
        if request is None or request.confirmed:
            return
        # Fail over to the next replica with a doubled timeout (Section 5).
        request.retries += 1
        request.timeout *= 2.0
        request.target_replica = (request.target_replica + 1) % self.config.num_replicas
        self.retransmissions += 1
        self._transmit(request)

    # ------------------------------------------------------------------

    def on_message(self, sender: int, payload: object) -> None:
        """Handle Inform responses from replicas."""
        if not isinstance(payload, InformMessage):
            return
        request = self._pending.get(payload.transaction_digest)
        if request is None or request.confirmed:
            return
        request.responders.add(sender)
        if len(request.responders) >= self.config.weak_quorum:
            request.confirmed = True
            self.confirmed_transactions += 1
            if self.record_confirmed_digests:
                self.confirmed_digests.append(payload.transaction_digest)
            self.latency.observe(self.now - request.submitted_at)
            if self.tracer is not None:
                self.tracer.instant(
                    self.node_id,
                    "lifecycle",
                    "confirm",
                    latency=self.now - request.submitted_at,
                    retries=request.retries,
                )
            if request.timer is not None:
                request.timer.cancel()
                request.timer = None
            del self._pending[payload.transaction_digest]
            self._on_confirmed(request)

    def _on_confirmed(self, request: _PendingRequest) -> None:
        """Closed loop: a confirmation frees a window slot — refill it."""
        self._submit_new_transaction()

    # ------------------------------------------------------------------

    def unconfirmed_count(self) -> int:
        """Requests still waiting for f + 1 Informs."""
        return len(self._pending)

    def oldest_pending_age(self) -> float:
        """Age in seconds of the oldest unconfirmed request (0.0 if none)."""
        if not self._pending:
            return 0.0
        return self.now - min(request.submitted_at for request in self._pending.values())

    def mean_latency(self) -> float:
        """Mean confirmed-request latency in seconds."""
        return self.latency.mean()


class OpenLoopClientPool(SpotLessClient):
    """One actor driving a whole region's worth of users open-loop.

    Instead of a window refilled on confirmation, transactions are submitted
    on an arrival schedule and confirmations only retire them — latency under
    overload therefore grows without bound, exactly the regime the
    throughput-latency figures sweep into.

    ``arrival`` is a :class:`~repro.workload.arrival.LoadProfile` sampled by
    thinning: candidate arrivals are drawn at the profile's peak rate and
    accepted with probability ``rate_at(t) / peak_rate``, which realises the
    exact inhomogeneous Poisson process of the schedule.

    The arrival chain is self-scheduling — each arrival event schedules the
    next — so at any moment a single event per pool sits in the queue no
    matter how many simulated users the rate represents.
    """

    def __init__(
        self,
        client_id: int,
        config: SpotLessConfig,
        simulator: Simulator,
        network: Network,
        workload: YcsbWorkload,
        arrival: LoadProfile,
        request_timeout: float = 2.0,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        super().__init__(
            client_id,
            config,
            simulator,
            network,
            workload,
            outstanding=0,
            request_timeout=request_timeout,
            rng=rng,
        )
        self.arrival = arrival
        self.offered_transactions = 0
        self._thinning_rng = self.rng.fork("thinning")
        self._profile_start = 0.0

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the arrival chain instead of filling a request window."""
        self._profile_start = self.now
        self._schedule_profile_candidate()

    def _schedule_profile_candidate(self) -> None:
        # Thinning (Lewis-Shedler): homogeneous candidates at the peak rate,
        # accepted at rate_at(t)/peak.  The chain ends once the schedule is
        # exhausted; the profile quiesces to rate 0 past its last phase.
        step = self._thinning_rng.expovariate(self.arrival.peak_rate())
        offset = (self.now + step) - self._profile_start
        if offset > self.arrival.duration():
            return
        self.call_later(step, self._fire_profile_candidate)

    def _fire_profile_candidate(self) -> None:
        offset = self.now - self._profile_start
        rate = self.arrival.rate_at(offset)
        if rate > 0.0 and self._thinning_rng.random() < rate / self.arrival.peak_rate():
            self._submit_open_loop_transaction()
        self._schedule_profile_candidate()

    def _submit_open_loop_transaction(self) -> None:
        self.offered_transactions += 1
        self._submit_new_transaction()

    # ------------------------------------------------------------------

    def _on_confirmed(self, request: _PendingRequest) -> None:
        """Open loop: confirmations retire requests, never submit new ones."""


__all__ = ["OpenLoopClientPool", "SpotLessClient"]
