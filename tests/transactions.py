"""Stand-in client transactions for tests that build proposals by hand.

A proposal carries the client transactions it proposes, so a hand-built
Propose, PrePrepare or chain node needs transactions rather than names.
"""

from repro.workload.requests import Operation, Transaction


def txn(tag) -> Transaction:
    """The transaction named ``tag`` (bytes or str): equal tags give equal
    transactions, different tags different digests."""
    if isinstance(tag, str):
        tag = tag.encode()
    return Transaction(client_id=0, sequence=0, operations=(Operation.write(0, tag),))
