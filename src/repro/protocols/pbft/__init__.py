"""Practical Byzantine Fault Tolerance (Castro & Liskov).

The implementation mirrors the heavily optimised ResilientDB deployment used
by the paper: MAC-authenticated messages, out-of-order processing at the
primary (a window of concurrently running consensus rounds), and the
traditional view-change protocol for replacing a faulty primary.
"""

from repro.protocols.pbft.messages import (
    CommitMessage,
    NewViewMessage,
    PrepareMessage,
    PrePrepareMessage,
    ViewChangeMessage,
)
from repro.protocols.pbft.core import PbftEnvironment, PbftInstanceCore, SlotState
from repro.protocols.pbft.replica import PbftReplica

__all__ = [
    "CommitMessage",
    "NewViewMessage",
    "PbftEnvironment",
    "PbftInstanceCore",
    "PbftReplica",
    "PrePrepareMessage",
    "PrepareMessage",
    "SlotState",
    "ViewChangeMessage",
]
