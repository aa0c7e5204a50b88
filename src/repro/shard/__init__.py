"""Sharded multi-process federation (the road to millions of users).

Partitions the registry by domain hash into N shards, runs one worker per
shard over its slice of the federation batch stream, and merges the
workers' captured state deterministically — bit-identical to the
single-process engine for a fixed seed at every worker count.  See
:mod:`repro.shard.engine` for the architecture,
:mod:`repro.shard.state` for the ownership argument behind the merge and
:mod:`repro.shard.supervisor` for the fork runner every forked run goes
through (inherited slices, deadlines, failure classification,
deterministic shard re-execution).
"""

from repro.shard.engine import (
    ShardedRunResult,
    federate_sharded,
    fork_available,
    run_sharded,
)
from repro.shard.partition import partition_batches, shard_of
from repro.shard.state import (
    ShardResult,
    capture_shard,
    delivered_pairs,
    federation_state,
    merge_shard_results,
    valid_shard_result,
)
from repro.shard.supervisor import (
    RecoveryStats,
    ShardAttempt,
    ShardSupervisor,
    SupervisorConfig,
)

__all__ = [
    "RecoveryStats",
    "ShardAttempt",
    "ShardResult",
    "ShardSupervisor",
    "ShardedRunResult",
    "SupervisorConfig",
    "capture_shard",
    "delivered_pairs",
    "federate_sharded",
    "federation_state",
    "fork_available",
    "merge_shard_results",
    "partition_batches",
    "run_sharded",
    "shard_of",
    "valid_shard_result",
]
