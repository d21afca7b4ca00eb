"""Client-request batching and ResilientDB-style message buffering.

Two distinct forms of batching appear in the paper:

* **transaction batching** — primaries group (typically 100) client
  transactions into one proposal; :class:`MessageBuffer` accumulates pending
  requests and emits full batches;
* **message buffering** — ResilientDB collects outgoing messages per
  destination and flushes them when a byte threshold is reached, amortising
  per-message overhead; :class:`SendBuffer` models that behaviour for the
  simulated NIC.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Generic, Iterable, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class MessageBuffer(Generic[T]):
    """FIFO buffer that groups items into fixed-size batches."""

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self.batch_size = batch_size
        self._pending: Deque[T] = deque()

    def add(self, item: T) -> None:
        """Append one item to the buffer."""
        self._pending.append(item)

    def extend(self, items: Iterable[T]) -> None:
        """Append several items to the buffer."""
        self._pending.extend(items)

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> int:
        """Number of buffered items not yet emitted."""
        return len(self._pending)

    def pop_batch(self, allow_partial: bool = False) -> Optional[List[T]]:
        """Remove and return one batch.

        Returns ``None`` when a full batch is unavailable and ``allow_partial``
        is False, or when the buffer is empty.
        """
        if not self._pending:
            return None
        if len(self._pending) < self.batch_size and not allow_partial:
            return None
        count = min(self.batch_size, len(self._pending))
        return [self._pending.popleft() for _ in range(count)]

    def drain(self) -> List[T]:
        """Remove and return every buffered item."""
        items = list(self._pending)
        self._pending.clear()
        return items


@dataclass
class _DestinationBuffer:
    items: List[Tuple[object, int]] = field(default_factory=list)
    total_bytes: int = 0


class SendBuffer:
    """Per-destination outgoing message buffer with a flush threshold.

    ``flush_callback(destination, payloads, total_bytes)`` is invoked when a
    destination's buffered bytes reach ``threshold_bytes`` or when
    :meth:`flush_all` is called (modelling the periodic flush ResilientDB
    performs to bound latency).
    """

    def __init__(
        self,
        threshold_bytes: int,
        flush_callback: Callable[[int, List[object], int], None],
    ) -> None:
        if threshold_bytes < 1:
            raise ValueError("threshold must be positive")
        self.threshold_bytes = threshold_bytes
        self._flush_callback = flush_callback
        self._buffers: Dict[int, _DestinationBuffer] = {}
        self.flushes = 0
        self.buffered_messages = 0

    def enqueue(self, destination: int, payload: object, size_bytes: int) -> None:
        """Buffer one message for ``destination``; flush if over threshold."""
        buffer = self._buffers.setdefault(destination, _DestinationBuffer())
        buffer.items.append((payload, size_bytes))
        buffer.total_bytes += size_bytes
        self.buffered_messages += 1
        if buffer.total_bytes >= self.threshold_bytes:
            self._flush(destination)

    def pending_bytes(self, destination: int) -> int:
        """Bytes currently buffered for ``destination``."""
        buffer = self._buffers.get(destination)
        return buffer.total_bytes if buffer else 0

    def _flush(self, destination: int) -> None:
        buffer = self._buffers.get(destination)
        if not buffer or not buffer.items:
            return
        payloads = [payload for payload, _ in buffer.items]
        total = buffer.total_bytes
        self._buffers[destination] = _DestinationBuffer()
        self.flushes += 1
        self._flush_callback(destination, payloads, total)

    def flush_all(self) -> None:
        """Flush every destination regardless of threshold."""
        for destination in list(self._buffers):
            self._flush(destination)


__all__ = ["MessageBuffer", "SendBuffer"]
