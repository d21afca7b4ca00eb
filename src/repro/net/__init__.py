"""The base message type, the record decorator and the wire-size model.

Messages, and every other class built per message, block or transaction,
are :func:`repro.net.record.record` classes: frozen dataclasses whose
constructor stores each field directly.

The paper reports concrete wire sizes in the ResilientDB deployment: a
proposal carrying a 100-transaction batch is 5400 B, a client reply is
1748 B, and every other replication message is 432 B.  The size model in
:mod:`repro.net.sizes` reproduces those constants, scales them with batch
and transaction size for the Figure 7(b)/(d) experiments, and adds 64 B per
embedded signature — the only thing a signature costs the simulator.  Sends
go straight to :class:`repro.sim.network.Network` at that size; nothing is
enveloped, tagged or held in a send buffer.
"""

from repro.net.message import Message
from repro.net.sizes import MessageSizeModel, SizeConstants

__all__ = [
    "Message",
    "MessageSizeModel",
    "SizeConstants",
]
