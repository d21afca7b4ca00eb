"""Pull-based state transfer for replicas that fell behind.

:class:`StateTransferEngine` closes the gap the invariant oracle surfaced in
every protocol stack: a replica that missed decisions while crashed or
partitioned wedged behind the cluster forever.  The engine is generic — it
works in executed order units and leaves protocol-specific replay to a
callback — and strictly *verified*: a response is only applied when

* it carries a :class:`~repro.recovery.messages.CheckpointCertificate` with
  2f + 1 distinct valid signers,
* its entries form a contiguous run from the local execution frontier to the
  certificate's position, and
* folding the entries into the local rolling digest reproduces the
  certificate's digest exactly.

The digest chain is anchored at the receiver's *own* executed prefix, so a
Byzantine responder cannot splice forged content anywhere into the run: any
altered batch changes every subsequent fold and the final comparison fails.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.recovery.checkpoint import CheckpointManager, fold_entry
from repro.recovery.messages import SlotEntry, StateRequest, StateResponse

SendRequest = Callable[[int, StateRequest], None]
ApplyEntries = Callable[[Tuple[SlotEntry, ...], object], None]


class StateTransferEngine:
    """Detects execution gaps and replays certified content to close them.

    Parameters
    ----------
    manager:
        The replica's :class:`CheckpointManager` (frontier, rolling digest,
        stable certificate).
    make_pull:
        Builds the :class:`~repro.runtime.retry.RetryingPull` that decides
        which certificate signers to ask and when to ask again, given this
        engine's ``send`` / ``satisfied`` / ``candidates`` hooks.  The owner
        binds the replica id, the f + 1 fan-out (so at least one honest
        signer answers) and the retry timer.  Injected, not imported:
        ``repro.recovery`` stays importable ahead of ``repro.runtime``.
    send_request:
        Callback delivering a :class:`StateRequest` to one peer.
    apply_entries:
        Callback replaying verified entries through the shared execution
        pipeline.  It must advance ``manager.frontier`` via
        ``record_execution`` for every applied unit.
    """

    def __init__(
        self,
        manager: CheckpointManager,
        *,
        make_pull: Callable[..., object],
        send_request: SendRequest,
        apply_entries: ApplyEntries,
    ) -> None:
        self.manager = manager
        self._apply_entries = apply_entries
        # Keyed by stable-floor position.  A round can legitimately yield
        # nothing (signers faulty, still partitioned away, or their own
        # stable certificate lags the one we adopted), so the pull re-asks a
        # rotated signer subset on its timer while the gap persists.
        self.pull = make_pull(
            send=lambda target, _floor: send_request(
                target, StateRequest(from_position=manager.frontier)
            ),
            satisfied=self._floor_settled,
            candidates=lambda _floor: manager.stable.signers,
        )

        self.responses_rejected = 0
        self.transfers_completed = 0

    @property
    def requests_sent(self) -> int:
        """State requests put on the wire."""
        return self.pull.requested

    # ------------------------------------------------------------------
    # gap detection
    # ------------------------------------------------------------------

    def _floor_settled(self, floor: int) -> bool:
        """A floor needs no pull once executed past — or superseded."""
        return self.manager.frontier >= floor or floor != self.manager.stable_position()

    def maybe_request(self, again: bool = False) -> bool:
        """Issue a transfer request when the stable floor is ahead of us.

        The stable checkpoint doubles as the gap detector: it proves a quorum
        executed past our frontier, so there is certified content to pull
        from its signers.  One round per floor unless ``again``.
        """
        return self.pull.request(self.manager.stable_position(), again=again)

    # ------------------------------------------------------------------
    # verified replay
    # ------------------------------------------------------------------

    def on_response(self, sender: int, response: StateResponse) -> bool:
        """Verify one response against the certificate and replay it.

        Returns True when the response advanced the local frontier.  Forged
        or uncertified responses are rejected without touching any state.
        """
        verified = self._verify(response)
        if verified is None:
            self.responses_rejected += 1
            return False
        entries, certificate = verified
        if not entries:
            return False
        self._apply_entries(entries, certificate)
        self.manager.adopt_certificate(certificate)
        if self.manager.frontier >= certificate.position:
            self.transfers_completed += 1
        if self.manager.frontier < self.manager.stable_position():
            # Partial transfer: an honest responder whose own stable floor
            # lags the certificate we adopted can only serve part of the gap.
            # Re-pull immediately instead of waiting out the retry timer.
            self.maybe_request(again=True)
        # Closes the episode span once the gap is gone; the retry timer is
        # left to fire once more and find nothing to do.
        self.pull.settle()
        return True

    def _verify(
        self, response: StateResponse
    ) -> Optional[Tuple[Tuple[SlotEntry, ...], object]]:
        """Check certificate quorum, contiguity, and the digest chain."""
        certificate = response.certificate
        if certificate is None:
            return None
        if not certificate.has_quorum(self.manager.quorum, self.manager.num_replicas):
            return None
        frontier = self.manager.frontier
        if certificate.position <= frontier:
            # Stale response: everything it covers is already executed.
            return (), certificate
        # Entries the responder sent for units we executed in the meantime
        # are skipped; the remainder must run contiguously to the floor.
        entries = tuple(entry for entry in response.entries if entry.position >= frontier)
        expected = range(frontier, certificate.position)
        if [entry.position for entry in entries] != list(expected):
            return None
        rolling = self.manager.rolling
        for entry in entries:
            rolling = fold_entry(rolling, entry)
        if rolling != certificate.digest:
            return None
        return entries, certificate


__all__ = ["StateTransferEngine"]
