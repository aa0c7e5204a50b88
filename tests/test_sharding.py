"""Tests for the sharded multi-process federation engine (``repro.shard``).

The central claim under test is the engine's determinism gate: for a fixed
seed, the shard-merged federation state — ground truth, generation
counters, per-activity moderation-event streams, remote-post state, peer
sets and aggregate delivery stats — is bit-identical to the single-process
engine at every worker count, in both the inline and the forked execution
mode.  The twin-run fuzz exercises that claim across randomized scenario
parameters, including churn populations; the unit tests pin the two
mechanisms the claim leans on (the stable domain-hash partitioner and the
deterministic cross-shard merge).
"""

from __future__ import annotations

import pickle
import random
import types
import zlib

import pytest

from repro.activitypub.delivery import FederationDelivery
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
)
from repro.synth.generator import FediverseGenerator
from repro.synth.scenario import scenario_config


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def single_process_state(generator: FediverseGenerator) -> dict:
    """The reference run: the single-process batched engine's state snapshot."""
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))
    delivery = FederationDelivery(prepared.registry, sinks=[])
    stats = prepared.stats
    for batch in work:
        delivered, rejected = delivery.deliver_batch_counted(
            batch.activities, batch.target_domain
        )
        stats.federated_deliveries += delivered
        stats.rejected_deliveries += rejected
    return federation_state(prepared, delivery.stats)


def assert_first_attempts_ok(result: ShardedRunResult) -> None:
    """Every shard succeeded on its first attempt, in the run's own mode.

    Fork mode recovers a failed worker inline, which lands on the same
    state; without this check a worker that always fails would still pass
    every bit-identity gate.
    """
    assert result.recovery.retries == 0
    assert {(a.mode, a.outcome) for a in result.recovery.attempts} == {
        (result.mode, "ok")
    }


def sharded_run(
    generator: FediverseGenerator, n_workers: int, processes: bool | None
) -> ShardedRunResult:
    """One fault-free sharded run on a freshly prepared fediverse."""
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))
    result = federate_sharded(prepared, work, n_workers, processes=processes)
    assert_first_attempts_ok(result)
    return result


# --------------------------------------------------------------------------- #
# Domain-hash partitioner
# --------------------------------------------------------------------------- #
class TestPartitioner:
    DOMAINS = [f"instance-{i}.example" for i in range(200)]

    def test_shard_of_is_stable_crc32(self):
        """The partitioner must not depend on Python's salted str hash: it is
        pinned to CRC-32 of the UTF-8 bytes, stable across processes."""
        for domain in self.DOMAINS:
            for n in (2, 3, 4, 7):
                expected = zlib.crc32(domain.encode("utf-8")) % n
                assert shard_of(domain, n) == expected
                # Repeated calls agree (no hidden state).
                assert shard_of(domain, n) == expected

    def test_shard_of_range_and_single_shard(self):
        for domain in self.DOMAINS:
            assert shard_of(domain, 1) == 0
            for n in (1, 2, 3, 4, 8):
                assert 0 <= shard_of(domain, n) < n

    def test_shard_of_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            shard_of("a.example", 0)
        with pytest.raises(ValueError):
            shard_of("a.example", -1)

    def test_partition_spreads_across_shards(self):
        """Rough balance: with 200 domains no shard of 4 stays empty."""
        assert {shard_of(domain, 4) for domain in self.DOMAINS} == {0, 1, 2, 3}

    def test_partition_batches_groups_by_target_in_stream_order(self):
        rng = random.Random(7)
        targets = [f"t{i}.example" for i in range(11)]
        batches = [
            types.SimpleNamespace(seq=i, target_domain=rng.choice(targets))
            for i in range(80)
        ]
        for n in (1, 3, 4):
            shards = partition_batches(batches, n)
            flat = [batch for shard in shards for batch in shard]
            assert sorted(b.seq for b in flat) == list(range(80))
            for index, shard in enumerate(shards):
                assert all(shard_of(b.target_domain, n) == index for b in shard)
                # Each shard's list is a subsequence of the input stream.
                assert [b.seq for b in shard] == sorted(b.seq for b in shard)


# --------------------------------------------------------------------------- #
# Deterministic cross-shard merge
# --------------------------------------------------------------------------- #
class TestMerge:
    @pytest.fixture(scope="class")
    def inline_shards(self):
        """A real tiny run split into 4 shards, delivered inline by hand."""
        generator = FediverseGenerator(scenario_config("tiny", seed=13))
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        pairs = delivered_pairs(work)
        shards = partition_batches(work, 4)
        results = []
        for shard, batches in enumerate(shards):
            delivery = FederationDelivery(prepared.registry, sinks=[])
            delivered = rejected = 0
            for batch in batches:
                d, r = delivery.deliver_batch_counted(
                    batch.activities, batch.target_domain
                )
                delivered += d
                rejected += r
            results.append(
                capture_shard(
                    shard,
                    prepared.registry.shard_instances(shard, 4),
                    delivery.stats,
                    delivered,
                    rejected,
                    delivery.batch_rejects,
                    delivery.batch_rewrites,
                )
            )
        return prepared, results, pairs

    def test_merge_is_insensitive_to_result_arrival_order(self, inline_shards):
        """Workers may finish in any order; the merge sorts by shard index,
        so every arrival order produces the identical snapshot."""
        prepared, results, pairs = inline_shards
        reference = merge_shard_results(prepared, results, pairs)
        rng = random.Random(42)
        for _ in range(5):
            shuffled = list(results)
            rng.shuffle(shuffled)
            assert merge_shard_results(prepared, shuffled, pairs) == reference

    def test_merge_rejects_duplicate_domain_ownership(self, inline_shards):
        """A domain captured by two shards violates the ownership argument
        the exactness proof rests on — the merge must refuse it loudly."""
        prepared, _, pairs = inline_shards
        first = ShardResult(shard=0, events={"dup.example": ()})
        second = ShardResult(shard=1, events={"dup.example": ()})
        with pytest.raises(RuntimeError, match="more than one shard"):
            merge_shard_results(prepared, [first, second], pairs)

    def test_shard_instances_partition_the_registry(self, inline_shards):
        prepared, _, _ = inline_shards
        registry = prepared.registry
        all_domains = sorted(i.domain for i in registry.instances())
        owned = sorted(
            instance.domain
            for shard in range(4)
            for instance in registry.shard_instances(shard, 4)
        )
        assert owned == all_domains

    def test_shard_result_round_trips_through_pickle(self, inline_shards):
        """Results cross a multiprocessing pipe — they must pickle cleanly
        and by value."""
        _, results, _ = inline_shards
        for result in results:
            clone = pickle.loads(pickle.dumps(result))
            assert clone == result


# --------------------------------------------------------------------------- #
# Twin-run equivalence (the determinism gate)
# --------------------------------------------------------------------------- #
def fuzz_configs():
    """Randomized-but-reproducible scenario parameter sets, churn included."""
    rng = random.Random(20260807)
    cases = [
        ("tiny", {}),
        # A churn population: instances disappear mid-campaign, which is the
        # hardest case for delivery bookkeeping.
        ("tiny", {"instance_churn_rate": 0.25}),
    ]
    for _ in range(2):
        cases.append(
            (
                "tiny",
                {
                    "campaign_days": rng.choice([1.0, 2.0]),
                    "federation_fanout": rng.choice([2, 4]),
                    "instance_churn_rate": rng.choice([0.0, 0.2]),
                },
            )
        )
    # Activity-mix populations: boosts, favourites and reply threads flow
    # through the same sharded delivery path, so the determinism gate must
    # hold for them too.  New draws come after the original ones so the
    # original cases' seeds stay stable.
    for _ in range(2):
        cases.append(
            (
                "tiny",
                {
                    "federation_announce_share": rng.choice([0.3, 0.6]),
                    "federation_like_share": rng.choice([0.2, 0.5]),
                    "reply_thread_share": rng.choice([0.0, 0.15]),
                    "reply_thread_max_depth": rng.choice([6, 12]),
                    "instance_churn_rate": rng.choice([0.0, 0.2]),
                },
            )
        )
    return [
        pytest.param(name, dict(overrides, seed=rng.randrange(1, 10_000)), id=f"case{i}")
        for i, (name, overrides) in enumerate(cases)
    ]


class TestShardedEquivalence:
    @pytest.mark.parametrize(("scenario", "overrides"), fuzz_configs())
    def test_merged_state_bit_identical_inline(self, scenario, overrides):
        """Twin-run fuzz: shard-merged output equals the single-process
        engine's, bit for bit, at worker counts 1, 2 and 4."""
        seed = overrides.pop("seed")
        generator = FediverseGenerator(
            scenario_config(scenario, seed=seed, **overrides)
        )
        reference = single_process_state(generator)
        for n_workers in (1, 2, 4):
            result = sharded_run(generator, n_workers, processes=False)
            assert result.mode == "inline"
            assert result.state == reference
            assert sum(result.shard_batches) == result.batches

    @pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_merged_state_bit_identical_forked(self, n_workers):
        """The forked mode — real worker processes inheriting their batch
        slices through fork, pickled captures back — merges to the same
        bits."""
        generator = FediverseGenerator(
            scenario_config("tiny", seed=29, instance_churn_rate=0.2)
        )
        reference = single_process_state(generator)
        result = sharded_run(generator, n_workers, processes=True)
        assert result.mode == "fork"
        assert result.state == reference
        # In fork mode the coordinator's registry stays untouched; the
        # counters must still come back through the pickled captures.
        assert sum(result.shard_batches) == result.batches
        assert result.delivered > 0

    @pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
    def test_merged_state_bit_identical_forked_activity_mix(self):
        """Forked workers deliver Announce/Like/reply traffic to the same
        bits: engagement counters cross the pickle boundary intact."""
        generator = FediverseGenerator(
            scenario_config(
                "tiny",
                seed=31,
                federation_announce_share=0.5,
                federation_like_share=0.4,
                reply_thread_share=0.1,
                reply_thread_max_depth=8,
            )
        )
        reference = single_process_state(generator)
        result = sharded_run(generator, 2, processes=True)
        assert result.mode == "fork"
        assert result.state == reference

    def test_worker_count_must_be_positive(self):
        generator = FediverseGenerator(scenario_config("tiny", seed=3))
        prepared = generator.prepare()
        with pytest.raises(ValueError):
            federate_sharded(prepared, [], 0)

    def test_run_sharded_end_to_end(self):
        """The xxlarge entry point: prepare + materialise + federate in one
        call, merged state still bit-identical to the reference."""
        config = scenario_config("tiny", seed=57)
        reference = single_process_state(FediverseGenerator(config))
        prepared, result = run_sharded(config, 2)
        assert result.n_workers == 2
        assert result.state == reference
        assert_first_attempts_ok(result)
        assert prepared.registry is not None


# --------------------------------------------------------------------------- #
# Shared decision-cache hygiene
# --------------------------------------------------------------------------- #
class TestSharedStateHygiene:
    """Every run mode must leave the process-wide decision caches empty.

    The caches (rewrite ledgers, mention counts) only pay off within one
    run, and entries keep delivered posts alive; the engine clears them on
    the way out in the inline mode *and* in fork mode, where prepare() and
    stream materialisation populate the coordinator's caches even though
    the workers' copies die with their processes.
    """

    @staticmethod
    def assert_caches_empty():
        from repro.mrf import shared

        assert not shared._MENTIONS
        assert all(not ledger for ledger in shared._REWRITES.values())

    def test_inline_run_leaves_caches_empty(self):
        generator = FediverseGenerator(scenario_config("tiny", seed=61))
        result = sharded_run(generator, 2, processes=False)
        assert result.mode == "inline"
        self.assert_caches_empty()

    @pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
    def test_forked_run_leaves_caches_empty(self):
        generator = FediverseGenerator(scenario_config("tiny", seed=61))
        result = sharded_run(generator, 2, processes=True)
        assert result.mode == "fork"
        self.assert_caches_empty()
