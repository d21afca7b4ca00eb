"""The one catch-up policy: who to ask next, and when to ask again.

State transfer, HotStuff/Narwhal chain sync and SpotLess Ask-recovery all
do the same thing — ask a peer for something this replica is missing, wait,
ask a different peer.  :class:`RetryingPull` is that
policy, once: it owns the outstanding-key latch, the per-key last target,
the round counter that rotates over candidate peers, the retry
:class:`~repro.sim.actor.Timer`, the counters and the tracer episode span.
Callers supply the key, who may serve it, how to send, and how to tell a
key is satisfied.  *Verifying* a response is safety code and stays with
each protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence


class RetryingPull:
    """Rotating, retrying requests for keys this replica is missing.

    Parameters
    ----------
    node_id:
        This replica; never chosen as a target.
    send:
        ``send(target, key)`` puts one request on the wire.
    satisfied:
        ``satisfied(key)`` is True once the key no longer needs fetching.
    candidates:
        ``candidates(key)`` lists the peers that may serve ``key`` when the
        caller has no better hint: every retry round, and any
        :meth:`request` made without ``prefer``.
    fanout:
        Peers asked per round: 1, or f + 1 so one of them is non-faulty.
    timer / interval:
        The retry timer and its delay.  The timer's callback is the owner's
        (it may re-derive gaps from local state first) and ends in
        :meth:`retry`.  Without a timer the owner calls :meth:`retry`.
    category:
        Tracer category of the episode span (set :attr:`tracer` to record).
    """

    def __init__(
        self,
        node_id: int,
        *,
        send: Callable[[int, Hashable], None],
        satisfied: Callable[[Hashable], bool],
        candidates: Callable[[Hashable], Sequence[int]],
        fanout: int = 1,
        timer: Optional[object] = None,
        interval: float = 0.0,
        category: str = "pull",
    ) -> None:
        self.node_id = node_id
        self.fanout = fanout
        self._send = send
        self._satisfied = satisfied
        self._candidates = candidates
        self._timer = timer
        self._interval = interval
        self._category = category
        # Keys asked for and not yet seen satisfied, in first-ask order — the
        # latch against duplicate requests and the default retry set — each
        # mapped to the first peer of the window it was last sent to.
        self._outstanding: Dict[Hashable, int] = {}
        # Rounds in which the rotation had a choice; offsets the window of a
        # key with no last target so successive keys spread over the peers.
        self._turns = 0

        self.tracer = None
        self._span: Optional[int] = None
        self.requested = 0
        self.retries = 0
        self.rotations = 0

    # ------------------------------------------------------------------

    def request(
        self, key: Hashable, prefer: Optional[Sequence[int]] = None, again: bool = False
    ) -> bool:
        """Ask for ``key`` unless it is satisfied or already outstanding.

        ``prefer`` names the peers known to hold the key (the sender that
        revealed the gap, a certificate's signers); without it the round
        rotates over ``candidates(key)``.  ``again`` re-sends a key that is
        still latched.  Returns True when a request went out.
        """
        if self._satisfied(key) or (key in self._outstanding and not again):
            return False
        if prefer is None:
            return self._rotate(key)
        return self._issue(key, prefer)

    def retry(self, keys: Optional[Iterable[Hashable]] = None) -> None:
        """Ask again, from rotated peers, for every key still missing.

        ``keys`` is the caller's own list of gaps re-derived from local
        state, in the order to ask; by default the outstanding keys.
        """
        for key in self.missing() if keys is None else list(keys):
            if not self._satisfied(key):
                self.retries += 1
                self._rotate(key)

    def missing(self) -> List[Hashable]:
        """Outstanding keys not yet satisfied (satisfied ones are dropped)."""
        for key in [k for k in self._outstanding if self._satisfied(k)]:
            del self._outstanding[key]
        return list(self._outstanding)

    def settle(self) -> bool:
        """True, and the episode span closes, once nothing is outstanding."""
        if self.missing():
            return False
        if self.tracer is not None and self._span is not None:
            self.tracer.end(self._span, requested=self.requested, retries=self.retries)
            self._span = None
        return True

    def disarm(self) -> None:
        """Cancel the retry timer (the owner saw :meth:`settle` succeed)."""
        self._timer.cancel()

    # ------------------------------------------------------------------

    def _rotate(self, key: Hashable) -> bool:
        self.rotations += 1
        return self._issue(key, self._candidates(key))

    def _issue(self, key: Hashable, candidates: Sequence[int]) -> bool:
        peers = [peer for peer in candidates if peer != self.node_id]
        if not peers:
            return False
        # With no more peers than the fan-out everyone is asked, in the
        # order given, and the rotation does not move.
        choice = len(peers) > self.fanout
        last = self._outstanding.get(key)
        if choice and last in peers:
            start = peers.index(last) + 1  # never the peer just tried
        else:
            start = self._turns % len(peers)
        if choice:
            self._turns += 1
        targets = (peers[start:] + peers[:start])[: self.fanout]
        self._outstanding[key] = targets[0]
        if self.tracer is not None and self._span is None:
            self._span = self.tracer.begin(
                self.node_id, self._category, self._category, target=targets[0]
            )
        for target in targets:
            self.requested += 1
            self._send(target, key)
        if self._timer is not None and not self._timer.running:
            self._timer.start(self._interval)
        return True


__all__ = ["RetryingPull"]
