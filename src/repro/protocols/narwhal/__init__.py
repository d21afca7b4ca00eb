"""Narwhal-HS emulation (Danezis et al., EuroSys 2022).

Narwhal separates transaction dissemination from ordering: workers broadcast
batches and produce availability certificates, and HotStuff orders the
certificates.  Following the paper's methodology (Section 6.2), we emulate
the communication and computation profile of Narwhal-HS by running HotStuff
while requiring replicas to broadcast messages consisting of a client batch
plus 2f + 1 digital signatures; their verification is costed only in ``analysis.model``.
"""

from repro.protocols.narwhal.replica import NarwhalHsReplica

__all__ = ["NarwhalHsReplica"]
