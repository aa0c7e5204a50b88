"""Deterministic domain-hash partitioning of the fediverse.

The sharded federation engine splits work by the *receiving* instance:
every delivery batch already targets exactly one domain (see
:class:`repro.synth.generator.FederationBatch`), and all the state a
delivery mutates on the receiving side — moderation events, remote posts,
timelines — lives on that one instance.  Assigning each domain to exactly
one shard therefore gives every worker a complete, in-order view of its
instances' delivery streams, which is what makes the merged result
bit-identical to the single-process engine.

The hash must be stable across processes and interpreter runs: Python's
built-in ``hash`` of a string is salted per process (``PYTHONHASHSEED``),
so the partitioner uses CRC-32 of the UTF-8 domain bytes instead.
"""

from __future__ import annotations

import zlib
from typing import Sequence, TypeVar

T = TypeVar("T")


def shard_of(domain: str, n_shards: int) -> int:
    """Return the shard index owning ``domain`` among ``n_shards`` shards."""
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if n_shards == 1:
        return 0
    return zlib.crc32(domain.encode("utf-8")) % n_shards


def partition_batches(batches: Sequence[T], n_shards: int) -> list[list[T]]:
    """Partition delivery batches by the shard owning their target domain.

    Each shard's list is a subsequence of the input stream, so a worker
    consuming it in order delivers to each of its instances in exactly the
    order the single-process engine would have.
    """
    shards: list[list[T]] = [[] for _ in range(n_shards)]
    for batch in batches:
        shards[shard_of(batch.target_domain, n_shards)].append(batch)
    return shards
