"""Micro-benchmarks for ingestion, scoring throughput and sweep latency.

Every benchmark times the optimised hot path against its seed-faithful
baseline from :mod:`repro.perf.baselines` on the same workload, asserts the
two produce identical results, and reports wall-clock numbers plus the
speedup.  :func:`run_harness` writes one machine-readable
``BENCH_<scenario>.json`` per scenario so future PRs can track the
trajectory (see PERFORMANCE.md).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.activitypub.delivery import FederationDelivery, FederationStats
from repro.api.client import APIClient
from repro.api.server import FediverseAPIServer
from repro.crawler.campaign import (
    CampaignConfig,
    CrawlResult,
    MeasurementCampaign,
    assemble_result,
)
from repro.crawler.directory import InstanceDirectory
from repro.datasets.schema import RejectEdge
from repro.datasets.store import Dataset
from repro.experiments.pipeline import ReproPipeline
from repro.faults.plan import FaultSpec
from repro.faults.retry import ResilienceConfig
from repro.perf import baselines
from repro.perspective.scorer import LexiconScorer
from repro.synth.generator import FediverseGenerator, PreparedFediverse
from repro.synth.scenario import scenario_config

#: Thresholds of the Table 2 sweep (kept in sync with experiments.table2).
SWEEP_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass
class BenchReport:
    """The result of one scenario's harness run."""

    scenario: str
    seed: int
    generated_at: float
    dataset: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Worker counts the ``sharding`` stage was measured at (empty when the
    #: stage did not run), stamped into the BENCH json.
    workers: list[int] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """Serialise the report."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "generated_at": self.generated_at,
            "workers": self.workers,
            "dataset": self.dataset,
            "metrics": self.metrics,
        }


def _require_equal(left: Any, right: Any, message: str) -> None:
    """Equivalence gate that survives ``python -O`` (unlike ``assert``)."""
    if left != right:
        raise RuntimeError(f"equivalence check failed: {message}")


def _require_no_retries(result: Any, label: str) -> None:
    """Fault-free sharded runs must succeed on every first attempt.

    A forked shard that fails is recovered inline to the same state, so
    the bit-identity gate alone would pass a worker that always fails.
    """
    retries = result.recovery.retries
    if retries:
        raise RuntimeError(
            f"{label}: {retries} shard retries in a fault-free run "
            f"(failures: {result.recovery.failures})"
        )


def best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Return the best wall-clock seconds of ``repeats`` calls to ``fn``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------- #
# Individual benchmarks
# ---------------------------------------------------------------------- #
def bench_ingestion(edges: list[RejectEdge], repeats: int = 3) -> dict[str, float]:
    """Time moderation-edge ingestion: indexed dedup set vs quadratic scan.

    The workload ingests the edge list twice over, which is what a crawl
    does: every snapshot re-observes the same SimplePolicy configuration,
    so most inserts are duplicates the dedup must reject.
    """
    workload = list(edges) + list(edges)

    def indexed() -> Dataset:
        dataset = Dataset()
        dataset.add_reject_edges(workload)
        return dataset

    # Equivalence: the indexed path stores exactly what the seed's scan did.
    _require_equal(
        indexed().reject_edges,
        baselines.naive_add_reject_edges(workload),
        "indexed edge ingestion diverged from the seed scan",
    )

    indexed_s = best_of(indexed, repeats)
    naive_s = best_of(lambda: baselines.naive_add_reject_edges(workload), repeats)
    return {
        "edges": float(len(edges)),
        "workload_inserts": float(len(workload)),
        "indexed_seconds": indexed_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / indexed_s if indexed_s else float("inf"),
        "edges_per_second": len(workload) / indexed_s if indexed_s else float("inf"),
    }


def bench_scoring(
    scorer: LexiconScorer, texts: list[str], repeats: int = 3
) -> dict[str, float]:
    """Time Perspective-substitute scoring: compiled engine vs seed 3-pass.

    Three-way equivalence gate (raising, not asserting): the compiled
    matching engine, PR 1's per-token single-pass path and the seed's
    per-attribute loop must produce bit-identical scores on the whole
    corpus.  Both baselines are timed so the BENCH trajectory keeps the
    engine's win over each visible.
    """
    compiled = scorer.score_many(texts)
    _require_equal(
        compiled,
        baselines.single_pass_score_many(scorer, texts),
        "compiled scoring diverged from the per-token single-pass baseline",
    )
    _require_equal(
        compiled,
        baselines.naive_score_many(scorer, texts),
        "compiled scoring diverged from the seed per-attribute baseline",
    )

    compiled_s = best_of(lambda: scorer.score_many(texts), repeats)
    single_s = best_of(lambda: baselines.single_pass_score_many(scorer, texts), repeats)
    naive_s = best_of(lambda: baselines.naive_score_many(scorer, texts), repeats)
    return {
        "texts": float(len(texts)),
        "distinct_texts": float(len(set(texts))),
        "compiled_seconds": compiled_s,
        "single_pass_seconds": single_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / compiled_s if compiled_s else float("inf"),
        "single_pass_speedup": single_s / compiled_s if compiled_s else float("inf"),
        "posts_per_second": len(texts) / compiled_s if compiled_s else float("inf"),
        "naive_posts_per_second": len(texts) / naive_s if naive_s else float("inf"),
    }


def bench_corpus(
    scorer: LexiconScorer, texts: list[str], repeats: int = 3
) -> dict[str, float]:
    """Time re-labelling from materialised corpus columns vs re-scoring.

    The columns are materialised once (that build is reported separately as
    ``build_seconds``); the timed region is what every re-label after that
    pays — deriving the whole corpus's scores from the cached
    ``(token_count, hit_vector)`` columns versus re-scanning every text
    through the compiled engine (``rescore``) or the seed loop (``naive``).
    Derived scores must be bit-identical to both.
    """
    from repro.perspective.corpus import CorpusColumns

    start = time.perf_counter()
    columns = CorpusColumns(scorer, texts)
    build_s = time.perf_counter() - start
    derived = columns.scores_for(texts)
    _require_equal(
        derived,
        scorer.score_many(texts),
        "corpus-column scores diverged from the compiled engine",
    )
    _require_equal(
        derived,
        baselines.naive_score_many(scorer, texts),
        "corpus-column scores diverged from the seed per-attribute baseline",
    )

    columns_s = best_of(lambda: columns.scores_for(texts), repeats)
    rescore_s = best_of(lambda: scorer.score_many(texts), repeats)
    naive_s = best_of(lambda: baselines.naive_score_many(scorer, texts), repeats)
    return {
        "texts": float(len(texts)),
        "interned_texts": float(len(columns)),
        "build_seconds": build_s,
        "columns_seconds": columns_s,
        "rescore_seconds": rescore_s,
        "naive_seconds": naive_s,
        "speedup": rescore_s / columns_s if columns_s else float("inf"),
        "naive_speedup": naive_s / columns_s if columns_s else float("inf"),
        "relabels_per_second": len(texts) / columns_s if columns_s else float("inf"),
    }


def bench_sweep(pipeline: ReproPipeline, repeats: int = 5) -> dict[str, float]:
    """Time the Table 2 threshold sweep: cached label vectors vs per-point summary.

    Both paths run against warm user labels (the seed cached those across
    sweep points too), so the comparison isolates aggregation cost — scope
    recomputation and per-instance rebuilds — not Perspective scoring.
    """
    analyzer = pipeline.collateral_analyzer
    optimised = analyzer.threshold_sweep(SWEEP_THRESHOLDS)  # warms every cache
    naive = baselines.naive_threshold_sweep(
        pipeline.dataset, analyzer._labels_for, SWEEP_THRESHOLDS
    )
    _require_equal(
        optimised, naive, "cached threshold sweep diverged from the seed recompute"
    )

    optimised_s = best_of(lambda: analyzer.threshold_sweep(SWEEP_THRESHOLDS), repeats)
    naive_s = best_of(
        lambda: baselines.naive_threshold_sweep(
            pipeline.dataset, analyzer._labels_for, SWEEP_THRESHOLDS
        ),
        repeats,
    )
    return {
        "thresholds": float(len(SWEEP_THRESHOLDS)),
        "labelled_users": float(len(analyzer._analysed_labels())),
        "optimised_seconds": optimised_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / optimised_s if optimised_s else float("inf"),
    }


def _federation_state(
    prepared: PreparedFediverse,
    stats: FederationStats,
) -> dict[str, Any]:
    """Snapshot everything federation can influence, for equivalence checks.

    Activity ids are global-counter-based and differ between two runs in the
    same process, so they are excluded; everything else (per-instance
    moderation-event streams, full remote-post state, peer sets, ground
    truth, generation counters and the aggregate delivery stats) must be
    identical between the engine and the seed-faithful baseline.  The
    snapshot shape is owned by :mod:`repro.shard.state` so the sharded
    engine's merged state is directly comparable.
    """
    from repro.shard.state import federation_state

    return federation_state(prepared, stats)


def _level_heap() -> None:
    """Level the playing field before a timed federation run.

    The engine's shared decision caches (the rewrite ledger, content
    trigger columns, mention counts) keep posts from earlier runs alive and
    a grown heap slows whichever path happens to run later (GC scans scale
    with live objects), so both are reset before every timed region.
    """
    import gc

    from repro.mrf.shared import clear_shared_state

    clear_shared_state()
    gc.collect()


def bench_delivery(scenario: str, seed: int = 42, repeats: int = 2) -> dict[str, float]:
    """Time federation generation/delivery: batched engine vs seed loop.

    Both paths consume the *same* lazy federation-batch stream (identical
    RNG draws and activity-creation order).  The engine groups work per
    target — one domain normalisation, one instance resolution, one MRF
    context per batch — and filters through precompiled pipelines; the
    baseline replays the seed's one-``deliver``-per-activity loop with fresh
    contexts and per-pattern SimplePolicy matching.  The first run of each
    path is snapshotted and asserted identical: same report stream, same
    per-instance moderation events, same ground truth and counters.
    """
    config = scenario_config(scenario, seed=seed)
    generator = FediverseGenerator(config)
    repeats = max(1, repeats)

    engine_s = float("inf")
    engine_state = None
    deliveries = 0
    batches = 0
    batch_rejects = 0
    batch_rewrites = 0
    for _ in range(repeats):
        # Materialising the batch stream (RNG draws + activity creation) is
        # shared work both paths pay identically, so it stays outside the
        # timed region; only delivery itself is measured.
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        delivery = FederationDelivery(prepared.registry, sinks=[])
        stats = prepared.stats
        _level_heap()
        start = time.perf_counter()
        for batch in work:
            delivered, rejected = delivery.deliver_batch_counted(
                batch.activities, batch.target_domain
            )
            stats.federated_deliveries += delivered
            stats.rejected_deliveries += rejected
        engine_s = min(engine_s, time.perf_counter() - start)
        if engine_state is None:
            deliveries = delivery.stats.delivered
            batches = len(work)
            batch_rejects = delivery.batch_rejects
            batch_rewrites = delivery.batch_rewrites
            engine_state = _federation_state(prepared, delivery.stats)

    naive_s = float("inf")
    naive_state = None
    for _ in range(repeats):
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        _level_heap()
        start = time.perf_counter()
        stats, reports = baselines.naive_federate(prepared.registry, work)
        naive_s = min(naive_s, time.perf_counter() - start)
        if naive_state is None:
            # The seed updated the generation counters inside its loop.
            prepared.stats.federated_deliveries = stats.delivered
            prepared.stats.rejected_deliveries = stats.rejected
            naive_state = _federation_state(prepared, stats)

    # Equivalence: the batched engine and the seed loop must be
    # indistinguishable in every observable outcome.
    _require_equal(
        engine_state,
        naive_state,
        "batched delivery engine diverged from the seed delivery loop",
    )

    return {
        "deliveries": float(deliveries),
        "batches": float(batches),
        "batch_rejects": float(batch_rejects),
        "batch_rewrites": float(batch_rewrites),
        "engine_seconds": engine_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / engine_s if engine_s else float("inf"),
        "deliveries_per_second": deliveries / engine_s if engine_s else float("inf"),
    }


#: Activity-mix overrides the ``protocol`` stage applies to Create-only
#: scenarios, so its full-mix gates exercise Announce/Like/reply traffic
#: even where the scenario itself ships none (`viral`/`hellthread` carry
#: their own mix and are used as configured).
_PROTOCOL_MIX: dict[str, Any] = {
    "federation_announce_share": 0.5,
    "federation_announces_per_peer": 3,
    "federation_like_share": 0.4,
    "federation_likes_per_peer": 2,
    "federation_hot_post_count": 8,
    "reply_thread_share": 0.1,
    "reply_thread_max_depth": 10,
}

#: Overrides forcing a scenario back to pure-Create federation (the
#: pre-protocol workload), whatever mix it ships with.
_PROTOCOL_ZERO: dict[str, Any] = {
    "federation_announce_share": 0.0,
    "federation_like_share": 0.0,
    "reply_thread_share": 0.0,
    "ua_blocking_share": 0.0,
}


def bench_protocol(scenario: str, seed: int = 42, repeats: int = 2) -> dict[str, float]:
    """Gate the protocol-realism subsystem and time signature amortisation.

    Three gates (each raising on divergence), then one timed comparison:

    1. *Create-only bit-identity*: with every protocol knob zeroed the
       batched engine must still match the seed delivery loop exactly —
       the type-aware batch programs and the verifier hook must be
       invisible when the workload is pure Create traffic.
    2. *Full-mix engine equivalence*: on the full Announce/Like/reply mix
       the batched engine (type-homogeneous fast paths engaged), the
       seed's general one-at-a-time walk and the sharded engine's merged
       state must be bit-identical — boosts/favourite counters included.
    3. *Full-mix serving equivalence*: a measurement campaign over the
       mixed population must produce a bit-identical :class:`CrawlResult`
       through the sequential and the concurrent (2-thread) crawl engine.

    The timed comparison is signature-cache amortisation: every delivery
    is HTTP-signature verified, once with a per-delivery key derivation
    (``naive_seconds`` — the server that re-fetches the actor key each
    time) and once with a shared :class:`~repro.protocol.httpsig.ActorKeyCache`
    (``engine_seconds``).  Both runs must land the exact engine state of
    gate 2, and the headline ``speedup`` is the amortisation factor the
    CI ``--min-speedup`` floor checks.
    """
    from repro.crawler.campaign import ConcurrentMeasurementCampaign
    from repro.protocol.httpsig import ActorKeyCache, HttpSignatureVerifier
    from repro.shard.engine import federate_sharded

    repeats = max(1, repeats)

    def federate(config, verifier=None):
        """Prepare, stream and deliver one fediverse; time delivery only."""
        generator = FediverseGenerator(config)
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        delivery = FederationDelivery(
            prepared.registry, sinks=[], verifier=verifier
        )
        stats = prepared.stats
        _level_heap()
        start = time.perf_counter()
        for batch in work:
            delivered, rejected = delivery.deliver_batch_counted(
                batch.activities, batch.target_domain
            )
            stats.federated_deliveries += delivered
            stats.rejected_deliveries += rejected
        elapsed = time.perf_counter() - start
        return prepared, work, delivery, elapsed

    # Gate 1: Create-only configurations stay bit-identical to the seed.
    create_config = scenario_config(scenario, seed=seed, **_PROTOCOL_ZERO)
    prepared, _, delivery, _ = federate(create_config)
    create_state = _federation_state(prepared, delivery.stats)
    generator = FediverseGenerator(create_config)
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))
    _level_heap()
    stats, _ = baselines.naive_federate(prepared.registry, work)
    prepared.stats.federated_deliveries = stats.delivered
    prepared.stats.rejected_deliveries = stats.rejected
    _require_equal(
        _federation_state(prepared, stats),
        create_state,
        "Create-only engine state diverged from the seed delivery loop",
    )

    # The full activity mix: the scenario's own, or the standard overlay.
    config = scenario_config(scenario, seed=seed)
    if not (
        config.federation_announce_share
        or config.federation_like_share
        or config.reply_thread_share
    ):
        config = scenario_config(scenario, seed=seed, **_PROTOCOL_MIX)

    # Gate 2: batched engine vs general walk vs sharded merge, full mix.
    prepared, work, delivery, _ = federate(config)
    mix_state = _federation_state(prepared, delivery.stats)
    deliveries = delivery.stats.delivered
    batches = len(work)
    activities = sum(len(batch.activities) for batch in work)
    boosts = sum(
        sum(instance.boosts.values())
        for instance in prepared.registry.instances()
    )
    favourites = sum(
        sum(instance.favourites.values())
        for instance in prepared.registry.instances()
    )
    registry_stats = prepared.registry.stats()
    population = {
        "instances": registry_stats["instances"],
        "users": registry_stats["users"],
        "posts": registry_stats["local_posts"],
    }
    if not boosts and not favourites:
        raise RuntimeError(
            "protocol stage generated no engagement traffic; the activity "
            "mix is not reaching the delivery engine"
        )
    generator = FediverseGenerator(config)
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))
    _level_heap()
    stats, _ = baselines.naive_federate(prepared.registry, work)
    prepared.stats.federated_deliveries = stats.delivered
    prepared.stats.rejected_deliveries = stats.rejected
    _require_equal(
        _federation_state(prepared, stats),
        mix_state,
        "full-mix engine state diverged from the seed's general walk",
    )
    generator = FediverseGenerator(config)
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))
    _level_heap()
    result = federate_sharded(prepared, work, 2)
    _require_equal(
        result.state,
        mix_state,
        "full-mix sharded merge diverged from the single-process engine",
    )

    # Gate 3: sequential vs concurrent crawl over the mixed population.
    campaign_config = CampaignConfig(duration_days=2.0)
    prepared, _, _, _ = federate(config)
    sequential = MeasurementCampaign(prepared.registry, campaign_config)
    sequential_result = sequential.crawl()
    sequential.assemble(sequential_result)
    prepared, _, _, _ = federate(config)
    concurrent = ConcurrentMeasurementCampaign(
        prepared.registry, campaign_config, threads=2
    )
    concurrent_result = concurrent.crawl()
    concurrent.assemble(concurrent_result)
    _require_equal(
        _crawl_state(concurrent_result),
        _crawl_state(sequential_result),
        "full-mix concurrent crawl diverged from the sequential engine",
    )

    # Timed: per-delivery key derivation vs the shared actor-key cache.
    uncached_s = float("inf")
    uncached_stats = None
    for _ in range(repeats):
        prepared, _, delivery, elapsed = federate(
            config, verifier=HttpSignatureVerifier()
        )
        uncached_s = min(uncached_s, elapsed)
        if uncached_stats is None:
            uncached_stats = delivery.verifier.stats()
            _require_equal(
                _federation_state(prepared, delivery.stats),
                mix_state,
                "uncached signature verification changed delivery outcomes",
            )

    cached_s = float("inf")
    cached_stats = None
    for _ in range(repeats):
        verifier = HttpSignatureVerifier(ActorKeyCache())
        prepared, _, delivery, elapsed = federate(config, verifier=verifier)
        cached_s = min(cached_s, elapsed)
        if cached_stats is None:
            cached_stats = verifier.stats()
            _require_equal(
                _federation_state(prepared, delivery.stats),
                mix_state,
                "cached signature verification changed delivery outcomes",
            )
    _require_equal(
        cached_stats.verified,
        uncached_stats.verified,
        "cached and uncached verifiers saw different delivery counts",
    )

    return {
        "instances": float(population["instances"]),
        "users": float(population["users"]),
        "posts": float(population["posts"]),
        "activities": float(activities),
        "batches": float(batches),
        "deliveries": float(deliveries),
        "boosts_received": float(boosts),
        "favourites_received": float(favourites),
        "verifications": float(cached_stats.verified),
        "uncached_derivations": float(uncached_stats.derivations),
        "cached_derivations": float(cached_stats.derivations),
        "cache_hit_rate": cached_stats.hit_rate,
        "simulated_seconds_uncached": uncached_stats.simulated_seconds,
        "simulated_seconds_cached": cached_stats.simulated_seconds,
        "engine_seconds": cached_s,
        "naive_seconds": uncached_s,
        "speedup": uncached_s / cached_s if cached_s else float("inf"),
    }


def bench_sharding(
    scenario: str,
    seed: int = 42,
    repeats: int = 2,
    worker_counts: tuple[int, ...] = (1, 2, 4),
    processes: bool | None = None,
    fork_gate: bool = True,
) -> dict[str, float]:
    """Time the sharded multi-process federation engine vs worker count.

    Three-way comparison on identical batch streams: the seed's
    one-``deliver``-per-activity loop (``naive_seconds``), the PR 5
    single-process batched engine (``engine_seconds``) and the sharded
    engine at every requested worker count
    (``sharded_seconds_workers_N``).  The determinism gate runs the house
    rule at its hardest setting: the sharded engine's *merged* state —
    ground truth, generation counters, per-activity moderation-event
    streams, remote posts, peers, aggregate delivery stats — must be
    bit-identical to the single-process engine's at **every** worker
    count, including N=1.

    Timed regions include everything sharding adds (partitioning, worker
    forks — workers inherit their batch slices, nothing is pickled on the
    way in — supervision, result pickling and the deterministic merge) but
    exclude prepare() and stream materialisation, which every path pays
    identically.  Reported per worker count: speedup
    over the seed loop (``speedup_workers_N``), the ratio to the
    single-process engine (``engine_ratio_workers_N``) and scaling
    efficiency ``T(base)/(N*T(N))`` (``scaling_efficiency_workers_N``,
    base = 1 worker when measured, else the single-process engine).  The
    headline ``speedup`` is the seed loop against the best sharded
    configuration.  The engine's auto mode forks only on multi-CPU hosts
    (on one CPU the workers would serialise and only pay fork/IPC
    overhead), so the per-worker-count timings reflect how the engine
    actually runs on the measuring host — the recorded
    ``forked_workers_N`` flags say which mode each number measured.  The
    forked path stays gated everywhere regardless: unless ``fork_gate``
    is disabled (at ``xxlarge`` the redundant check would cost one more
    prepare, materialisation and forked delivery of a million-user
    fediverse), one forked 2-worker run must merge to the same bits as
    the single-process engine — see PERFORMANCE.md.
    """
    from repro.shard.engine import federate_sharded, fork_available

    config = scenario_config(scenario, seed=seed)
    generator = FediverseGenerator(config)
    repeats = max(1, repeats)
    worker_counts = tuple(worker_counts)
    if not worker_counts:
        raise ValueError("worker_counts must not be empty")

    # Single-process reference: the batched engine, the equivalence anchor.
    engine_s = float("inf")
    reference_state = None
    deliveries = 0
    batches = 0
    population: dict[str, int] = {}
    for _ in range(repeats):
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        delivery = FederationDelivery(prepared.registry, sinks=[])
        stats = prepared.stats
        _level_heap()
        start = time.perf_counter()
        for batch in work:
            delivered, rejected = delivery.deliver_batch_counted(
                batch.activities, batch.target_domain
            )
            stats.federated_deliveries += delivered
            stats.rejected_deliveries += rejected
        engine_s = min(engine_s, time.perf_counter() - start)
        if reference_state is None:
            deliveries = delivery.stats.delivered
            batches = len(work)
            reference_state = _federation_state(prepared, delivery.stats)
            registry_stats = prepared.registry.stats()
            population = {
                "instances": registry_stats["instances"],
                "users": registry_stats["users"],
                "posts": registry_stats["local_posts"],
            }

    # Seed-faithful baseline (house rule): the one-at-a-time loop.
    naive_s = float("inf")
    for index in range(repeats):
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        _level_heap()
        start = time.perf_counter()
        stats, _ = baselines.naive_federate(prepared.registry, work)
        naive_s = min(naive_s, time.perf_counter() - start)
        if index == 0:
            prepared.stats.federated_deliveries = stats.delivered
            prepared.stats.rejected_deliveries = stats.rejected
            _require_equal(
                _federation_state(prepared, stats),
                reference_state,
                "single-process engine diverged from the seed delivery loop",
            )

    # Sharded runs: every worker count is gated, then timed.
    sharded_seconds: dict[int, float] = {}
    forked: dict[int, bool] = {}
    for n_workers in worker_counts:
        best = float("inf")
        for index in range(repeats):
            prepared = generator.prepare()
            work = list(generator.federation_batches(prepared))
            _level_heap()
            start = time.perf_counter()
            result = federate_sharded(
                prepared, work, n_workers, processes=processes
            )
            best = min(best, time.perf_counter() - start)
            _require_no_retries(
                result, f"sharded engine ({n_workers} workers, {result.mode} mode)"
            )
            if index == 0:
                forked[n_workers] = result.mode == "fork"
                _require_equal(
                    result.state,
                    reference_state,
                    f"sharded engine ({n_workers} workers, {result.mode} mode) "
                    "merged state diverged from the single-process engine",
                )
        sharded_seconds[n_workers] = best

    # Fork-mode determinism gate: auto mode only forks on multi-CPU
    # hosts, but the bit-identity contract covers both execution modes on
    # every host — force one forked run and hold it to the same bar.
    fork_gate_s = 0.0
    if fork_gate and fork_available():
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        _level_heap()
        start = time.perf_counter()
        result = federate_sharded(prepared, work, 2, processes=True)
        fork_gate_s = time.perf_counter() - start
        _require_no_retries(result, "sharded engine (2 workers, forced fork mode)")
        _require_equal(
            result.state,
            reference_state,
            "sharded engine (2 workers, forced fork mode) merged state "
            "diverged from the single-process engine",
        )

    best_sharded = min(sharded_seconds.values())
    base_n = 1 if 1 in sharded_seconds else None
    base_s = sharded_seconds[1] if base_n else engine_s
    metrics = {
        "deliveries": float(deliveries),
        "batches": float(batches),
        "instances": float(population["instances"]),
        "users": float(population["users"]),
        "posts": float(population["posts"]),
        "fork_available": 1.0 if fork_available() else 0.0,
        "fork_gate_seconds": fork_gate_s,
        "engine_seconds": engine_s,
        "naive_seconds": naive_s,
        "sharded_seconds": best_sharded,
        "speedup": naive_s / best_sharded if best_sharded else float("inf"),
        "deliveries_per_second": (
            deliveries / best_sharded if best_sharded else float("inf")
        ),
    }
    for n_workers, seconds in sorted(sharded_seconds.items()):
        metrics[f"sharded_seconds_workers_{n_workers}"] = seconds
        metrics[f"forked_workers_{n_workers}"] = 1.0 if forked[n_workers] else 0.0
        metrics[f"speedup_workers_{n_workers}"] = (
            naive_s / seconds if seconds else float("inf")
        )
        metrics[f"engine_ratio_workers_{n_workers}"] = (
            engine_s / seconds if seconds else float("inf")
        )
        metrics[f"scaling_efficiency_workers_{n_workers}"] = (
            base_s / (n_workers * seconds) if seconds else float("inf")
        )
    return metrics


#: Which supervisor classification each injected worker-death kind must
#: surface as (the shard_chaos stage's classification gate).
_EXPECTED_CLASSIFICATION = {
    "crash_early": "eof",
    "crash_late": "eof",
    "hang": "deadline",
    "corrupt": "corrupt",
    "error": "error",
}


def bench_shard_chaos(
    scenario: str,
    seed: int = 42,
    repeats: int = 2,
    worker_counts: tuple[int, ...] = (2, 4),
    fault_seed: int = 4242,
    deadline_seconds: float = 3.0,
) -> dict[str, float]:
    """Measure the supervised sharded engine under dying workers.

    The process-level twin of the ``chaos`` stage, and the house rule at
    its hardest setting.  Gates (all raising on divergence):

    - *recovery bit-identity*: for **every** injected worker-death kind
      (crash before delivering, crash after delivering, hang past the
      deadline, corrupt result pickle, clean error report) at every
      requested worker
      count, the supervised engine's merged federation state must be
      bit-identical to the fault-free single-process engine — and the
      supervisor must have classified the failure as the kind predicts;
    - *retry exhaustion*: a shard whose worker dies on every forked
      attempt must be recovered by the inline fallback, still bit-identical;
    - *zero-fault inertness*: a forked run with no fault plan must be
      bit-identical to the single-process engine and report zero retries;
    - *profile run*: the scenario's ``worker_fault_profile`` knob
      (``mixed`` when the scenario names none) compiled into a
      :class:`~repro.faults.workers.WorkerFaultPlan` must also merge
      bit-identically.

    Reported alongside: recovery overhead (retry wall-clock), failures by
    kind, inline fallbacks, and ``recovery_rate`` (recovered / failed
    shards — wired into the CI smoke's ``--min-recovery`` floor).  Every
    fault run injects real deaths: workers ``os._exit`` mid-protocol,
    sleep past the deadline, or write garbage down the result pipe.
    """
    from repro.faults.workers import WorkerFaultKind, WorkerFaultPlan, WorkerFaultSpec
    from repro.shard.engine import federate_sharded, fork_available
    from repro.shard.supervisor import SupervisorConfig

    worker_counts = tuple(worker_counts)
    if not worker_counts:
        raise ValueError("worker_counts must not be empty")
    if not fork_available():  # pragma: no cover - non-fork platforms
        return {"fork_available": 0.0, "recovery_rate": 1.0}

    config = scenario_config(scenario, seed=seed)
    generator = FediverseGenerator(config)
    repeats = max(1, repeats)
    supervisor = SupervisorConfig(
        deadline_seconds=deadline_seconds,
        poll_seconds=0.02,
        heartbeat_seconds=0.2,
        max_worker_attempts=2,
    )

    # Fault-free reference: the single-process batched engine.
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
    reference_state = _federation_state(prepared, delivery.stats)
    deliveries = delivery.stats.delivered
    batches = len(work)

    # One prepared twin shared by every fork-mode run: forked workers
    # mutate copy-on-write copies, so the coordinator's registry stays
    # pristine between runs.  The supervisor's inline fallback is the one
    # exception — it delivers in the coordinator — so any run that used
    # it poisons the twin and forces a re-prepare.
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))

    def reprepare() -> None:
        nonlocal prepared, work
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))

    base_workers = worker_counts[0]

    # Zero-fault run: bit-identical, zero retries.
    supervised_s = float("inf")
    for _ in range(repeats):
        _level_heap()
        start = time.perf_counter()
        result = federate_sharded(
            prepared,
            work,
            base_workers,
            processes=True,
            supervisor=supervisor,
        )
        supervised_s = min(supervised_s, time.perf_counter() - start)
        _require_no_retries(result, "zero-fault supervised run")
    _require_equal(
        result.state,
        reference_state,
        "zero-fault supervised engine diverged from the single-process engine",
    )

    # Recovery gate: every death kind x every worker count, shard 0's
    # first attempt killed, merged state still bit-identical.
    failed_shards = 0
    recovered_shards = 0
    retry_seconds = 0.0
    inline_fallbacks = 0
    recovered_by_kind: dict[str, int] = {}
    for kind in WorkerFaultKind:
        for n_workers in worker_counts:
            plan = WorkerFaultPlan.scripted(n_workers, {0: kind})
            result = federate_sharded(
                prepared,
                work,
                n_workers,
                processes=True,
                worker_faults=plan,
                supervisor=supervisor,
            )
            recovery = result.recovery
            _require_equal(
                result.state,
                reference_state,
                f"supervised engine ({kind.value}, {n_workers} workers) "
                "merged state diverged from the single-process engine",
            )
            _require_equal(
                recovery.shard_attempts(0)[0].outcome,
                _EXPECTED_CLASSIFICATION[kind.value],
                f"supervisor misclassified an injected {kind.value} fault",
            )
            failed_shards += len(recovery.failed_shards)
            recovered_shards += len(recovery.recovered_shards)
            retry_seconds += recovery.retry_seconds
            inline_fallbacks += recovery.inline_fallbacks
            recovered_by_kind[kind.value] = recovered_by_kind.get(
                kind.value, 0
            ) + len(recovery.recovered_shards)
            if recovery.inline_fallbacks:
                reprepare()

    # Profile run: the scenario's worker-fault knob, compiled.
    spec = WorkerFaultSpec.for_config(config)
    if spec.inert:
        spec = WorkerFaultSpec.profile("mixed", seed=fault_seed)
    profile_workers = max(worker_counts)
    profile_plan = WorkerFaultPlan.compile(spec, profile_workers)
    result = federate_sharded(
        prepared,
        work,
        profile_workers,
        processes=True,
        worker_faults=profile_plan,
        supervisor=supervisor,
    )
    _require_equal(
        result.state,
        reference_state,
        f"supervised engine under the {config.worker_fault_profile!r} "
        "worker-fault profile diverged from the single-process engine",
    )
    recovery = result.recovery
    profile_failed = len(recovery.failed_shards)
    profile_recovered = len(recovery.recovered_shards)
    failed_shards += profile_failed
    recovered_shards += profile_recovered
    retry_seconds += recovery.retry_seconds
    inline_fallbacks += recovery.inline_fallbacks
    if recovery.inline_fallbacks:
        reprepare()

    # Retry exhaustion: every forked attempt of shard 0 dies; only the
    # inline fallback can recover it.  Runs last — the fallback delivers
    # in the coordinator, so the shared twin is spent afterwards.
    exhaust_plan = WorkerFaultPlan.scripted(
        base_workers,
        {0: (WorkerFaultKind.CRASH_EARLY,) * supervisor.max_worker_attempts},
    )
    result = federate_sharded(
        prepared,
        work,
        base_workers,
        processes=True,
        worker_faults=exhaust_plan,
        supervisor=supervisor,
    )
    _require_equal(
        result.state,
        reference_state,
        "inline-fallback recovery diverged from the single-process engine",
    )
    recovery = result.recovery
    _require_equal(
        recovery.inline_fallbacks,
        1,
        "retry exhaustion did not reach the inline fallback",
    )
    failed_shards += len(recovery.failed_shards)
    recovered_shards += len(recovery.recovered_shards)
    retry_seconds += recovery.retry_seconds
    inline_fallbacks += recovery.inline_fallbacks

    metrics = {
        "deliveries": float(deliveries),
        "batches": float(batches),
        "fork_available": 1.0,
        "deadline_seconds": deadline_seconds,
        "supervised_seconds": supervised_s,
        "failed_shards": float(failed_shards),
        "recovered_shards": float(recovered_shards),
        "recovery_rate": (
            recovered_shards / failed_shards if failed_shards else 1.0
        ),
        "recovery_retry_seconds": retry_seconds,
        "inline_fallbacks": float(inline_fallbacks),
        "profile_failed_shards": float(profile_failed),
    }
    for kind, count in sorted(recovered_by_kind.items()):
        metrics[f"recovered_{kind}"] = float(count)
    return metrics


def _crawl_state(result: CrawlResult) -> dict[str, Any]:
    """Snapshot everything a crawl produces, for equivalence checks.

    Every :class:`CrawlResult` field is covered — snapshots, per-domain
    snapshot counts, timeline collections (including the raw post dicts),
    the failure list (contents *and* order), the discovered/Pleroma domain
    sets, request accounting, the failure-status breakdown — plus the full
    assembled dataset.
    """
    dataset = result.dataset
    return {
        "latest_snapshots": result.latest_snapshots,
        "snapshot_counts": result.snapshot_counts,
        "all_snapshots": result.all_snapshots,
        "timelines": result.timelines,
        "failures": result.failures,
        "discovered_domains": result.discovered_domains,
        "pleroma_domains": result.pleroma_domains,
        "first_seen": result.first_seen,
        "api_requests": result.api_requests,
        "failure_status_breakdown": result.failure_status_breakdown,
        "dataset": {
            "instances": dataset.instances,
            "users": dataset.users,
            "posts": dataset.posts,
            "policy_settings": dataset.policy_settings,
            "reject_edges": dataset.reject_edges,
        },
    }


def _run_crawl_pair(
    config, campaign_config: CampaignConfig, repeats: int
) -> tuple[float, dict, float, dict, CrawlResult]:
    """Time the batched engine against the seed loop on twin fediverses.

    Each path regenerates its own (bit-identical) fediverse per repeat —
    the crawl advances the simulation clock, so a registry cannot be
    crawled twice.  Generation and dataset assembly are shared work both
    paths pay identically and stay outside the timed region; the full
    :class:`CrawlResult` (dataset included) is snapshotted for the
    equivalence gate.
    """
    engine_s = float("inf")
    engine_state = None
    engine_result = None
    for _ in range(repeats):
        registry = FediverseGenerator(config).generate().registry
        campaign = MeasurementCampaign(registry, campaign_config)
        start = time.perf_counter()
        result = campaign.crawl()
        engine_s = min(engine_s, time.perf_counter() - start)
        if engine_state is None:
            campaign.assemble(result)
            engine_state = _crawl_state(result)
            engine_result = result

    naive_s = float("inf")
    naive_state = None
    for _ in range(repeats):
        registry = FediverseGenerator(config).generate().registry
        # Build the transport outside the stopwatch, exactly as the engine's
        # MeasurementCampaign.__init__ does before its timed crawl().
        client = APIClient(FediverseAPIServer(registry))
        directory = InstanceDirectory(
            registry, coverage=campaign_config.directory_coverage
        )
        start = time.perf_counter()
        result = baselines.naive_crawl_phases(
            registry, campaign_config, directory=directory, client=client
        )
        naive_s = min(naive_s, time.perf_counter() - start)
        if naive_state is None:
            naive_state = _crawl_state(assemble_result(result))

    return engine_s, engine_state, naive_s, naive_state, engine_result


def bench_crawl(scenario: str, seed: int = 42, repeats: int = 2) -> dict[str, float]:
    """Time the measurement campaign: batched crawl engine vs seed loop.

    The crawl runs over the scenario's *own* campaign window (the paper's
    regime: months of 4-hourly metadata rounds — this is the workload the
    batch engine exists for), unlike the analysis-side benches that crawl
    2 days to build a dataset.  The engine and the seed's
    one-``get``-per-endpoint loop must produce bit-identical
    :class:`CrawlResult`\\ s; a second, separately generated ``churn``
    population re-asserts the same equivalence under mid-campaign
    availability flips.
    """
    config = scenario_config(scenario, seed=seed)
    campaign_config = CampaignConfig(
        duration_days=config.campaign_days,
        snapshot_interval_hours=config.snapshot_interval_hours,
    )
    repeats = max(1, repeats)
    engine_s, engine_state, naive_s, naive_state, result = _run_crawl_pair(
        config, campaign_config, repeats
    )
    _require_equal(
        engine_state,
        naive_state,
        "batched crawl engine diverged from the seed crawl loop",
    )

    # Churn gate: instances dropping out mid-campaign must not break
    # equivalence (snapshot counts, failure ordering, the breakdown).
    churn_config = scenario_config("churn", seed=seed, n_pleroma_instances=120)
    churn_campaign_config = CampaignConfig(
        duration_days=churn_config.churn_window_days,
        snapshot_interval_hours=churn_config.snapshot_interval_hours,
        keep_all_snapshots=True,
    )
    _, churn_engine, _, churn_naive, churn_result = _run_crawl_pair(
        churn_config, churn_campaign_config, repeats=1
    )
    _require_equal(
        churn_engine,
        churn_naive,
        "batched crawl engine diverged from the seed loop under churn",
    )
    churn_flipped = len(
        {failure.domain for failure in churn_result.failures}
        & set(churn_result.latest_snapshots)
    )

    posts = sum(
        collection.post_count for collection in result.timelines if collection.reachable
    )
    return {
        "domains": float(len(result.pleroma_domains)),
        "rounds": float(campaign_config.snapshot_rounds),
        "api_requests": float(result.api_requests),
        "snapshots": float(sum(result.snapshot_counts.values())),
        "posts_collected": float(posts),
        "engine_seconds": engine_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / engine_s if engine_s else float("inf"),
        "requests_per_second": (
            result.api_requests / engine_s if engine_s else float("inf")
        ),
        "churn_flipped_domains": float(churn_flipped),
    }


def bench_serving(
    scenario: str,
    seed: int = 42,
    repeats: int = 2,
    thread_counts: tuple[int, ...] | None = None,
) -> dict[str, float]:
    """Measure the concurrent serving layer: latency percentiles under load.

    Drives full campaigns with N concurrent crawler clients
    (:func:`repro.perf.loadgen.run_load`) against the thread-safe server
    and reports, per thread count, wall-clock seconds plus p50/p95/p99
    transport-call latency, tail amplification (p99/p50) and request
    throughput — the serving-side numbers BENCH files lacked while every
    stage was single-threaded.

    Equivalence gates (the house rule, raising on divergence): at **every**
    thread count the merged :class:`CrawlResult` — snapshots, failures
    (contents and order), timelines, request accounting, the assembled
    dataset — must be bit-identical to the sequential engine's.  The
    1-thread run is the inline-executor case; N-thread runs are covered by
    the contiguous-slice merge documented on
    :class:`~repro.crawler.campaign.ConcurrentMeasurementCampaign` (the
    slice-order merge of a sorted domain list *is* the sequential order, so
    no looser normalisation is needed).

    The headline ``speedup`` is the seed-faithful naive loop against the
    best concurrent configuration.  On a single-core (GIL-bound) runner the
    thread counts serialise, so N threads measure locking/handoff overhead
    plus tail behaviour rather than parallel speedup — the per-thread-count
    timings say which regime the measuring host is in.

    ``thread_counts`` defaults to ``{1, 2, serving_clients}`` (the
    scenario's :attr:`~repro.synth.config.SynthConfig.serving_clients`
    knob), so every BENCH records at least two client fan-outs.
    """
    from repro.perf.loadgen import run_load

    config = scenario_config(scenario, seed=seed)
    campaign_config = CampaignConfig(
        duration_days=config.campaign_days,
        snapshot_interval_hours=config.snapshot_interval_hours,
    )
    if thread_counts is None:
        thread_counts = tuple(sorted({1, 2, config.serving_clients}))
    repeats = max(1, repeats)

    # Sequential reference: the batched engine, the equivalence anchor —
    # and the naive seed loop, the headline-speedup denominator (its own
    # equivalence to the engine is gated by the crawl stage).
    engine_s = float("inf")
    reference_state = None
    reference_result = None
    for _ in range(repeats):
        registry = FediverseGenerator(config).generate().registry
        campaign = MeasurementCampaign(registry, campaign_config)
        start = time.perf_counter()
        result = campaign.crawl()
        engine_s = min(engine_s, time.perf_counter() - start)
        if reference_state is None:
            campaign.assemble(result)
            reference_state = _crawl_state(result)
            reference_result = result

    naive_s = float("inf")
    for _ in range(repeats):
        registry = FediverseGenerator(config).generate().registry
        client = APIClient(FediverseAPIServer(registry))
        directory = InstanceDirectory(
            registry, coverage=campaign_config.directory_coverage
        )
        start = time.perf_counter()
        baselines.naive_crawl_phases(
            registry, campaign_config, directory=directory, client=client
        )
        naive_s = min(naive_s, time.perf_counter() - start)

    metrics: dict[str, float] = {
        "domains": float(len(reference_result.pleroma_domains)),
        "rounds": float(campaign_config.snapshot_rounds),
        "api_requests": float(reference_result.api_requests),
        "engine_seconds": engine_s,
        "naive_seconds": naive_s,
        "thread_counts": float(len(thread_counts)),
    }

    best_concurrent = float("inf")
    for threads in thread_counts:
        best_s = float("inf")
        best_report = None
        for index in range(repeats):
            registry = FediverseGenerator(config).generate().registry
            report, result = run_load(
                registry, campaign_config, threads=threads
            )
            if index == 0:
                # The equivalence gate: merged concurrent result ==
                # sequential engine result, bit for bit, dataset included.
                _require_equal(
                    _crawl_state(assemble_result(result)),
                    reference_state,
                    f"{threads}-thread concurrent crawl diverged from the "
                    "sequential engine",
                )
            if report.wall_seconds < best_s:
                best_s = report.wall_seconds
                best_report = report
        best_concurrent = min(best_concurrent, best_s)
        metrics[f"concurrent_seconds_threads_{threads}"] = best_s
        metrics[f"p50_ms_threads_{threads}"] = best_report.p50_ms
        metrics[f"p95_ms_threads_{threads}"] = best_report.p95_ms
        metrics[f"p99_ms_threads_{threads}"] = best_report.p99_ms
        metrics[f"mean_ms_threads_{threads}"] = best_report.mean_ms
        metrics[f"max_ms_threads_{threads}"] = best_report.max_ms
        metrics[f"tail_amplification_threads_{threads}"] = (
            best_report.tail_amplification
        )
        metrics[f"transport_calls_threads_{threads}"] = float(
            best_report.transport_calls
        )
        metrics[f"requests_per_second_threads_{threads}"] = (
            best_report.requests_per_second
        )

    metrics["concurrent_seconds"] = best_concurrent
    metrics["speedup"] = (
        naive_s / best_concurrent if best_concurrent else float("inf")
    )
    metrics["requests_per_second"] = (
        reference_result.api_requests / best_concurrent
        if best_concurrent
        else float("inf")
    )
    return metrics


def _true_reject_edges(registry) -> set[tuple[str, str]]:
    """The planted reject graph: every configured SimplePolicy reject edge.

    Read straight off the registry's MRF pipelines — including instances
    that are uncrawlable or do not expose their policies — so recall
    against it quantifies *total* measurement bias, not just the
    fault-induced part.
    """
    edges: set[tuple[str, str]] = set()
    for instance in registry.instances():
        for target in instance.mrf.simple_policy_config().get("reject", ()):
            edges.add((instance.domain, target))
    return edges


def _measured_reject_edges(result: CrawlResult) -> set[tuple[str, str]]:
    """The reject edges a crawl actually observed."""
    return {
        (edge.source, edge.target)
        for edge in result.dataset.reject_edges
        if edge.action == "reject"
    }


def _run_chaos_campaign(
    config,
    campaign_config: CampaignConfig,
    profile: str,
    fault_seed: int,
    resilient: bool,
) -> tuple[MeasurementCampaign, CrawlResult, float]:
    """One faulted campaign on a freshly generated twin fediverse."""
    registry = FediverseGenerator(config).generate().registry
    campaign = MeasurementCampaign(
        registry,
        campaign_config,
        faults=FaultSpec.profile(profile, seed=fault_seed),
        resilience=ResilienceConfig.default() if resilient else None,
    )
    start = time.perf_counter()
    result = campaign.crawl()
    elapsed = time.perf_counter() - start
    campaign.assemble(result)
    return campaign, result, elapsed


def bench_chaos(
    scenario: str, seed: int = 42, repeats: int = 2, fault_seed: int = 1337
) -> dict[str, float]:
    """Measure the crawl engine under a misbehaving network.

    Three house-rules gates, then the resilience/bias numbers:

    - *inertness*: a resilient campaign under the zero-fault plan produces
      a bit-identical :class:`CrawlResult` to the plain engine (and runs on
      the unwrapped server object);
    - *determinism*: two campaigns under the same fault seed are
      bit-identical to each other;
    - *measurement bias*: reject-edge recall against the planted ground
      truth across fault profiles (``none``/``light``/``mixed``/``heavy``),
      the first bias table of the ROADMAP's measurement-bias suite.

    The faulted runs use the ``mixed`` profile (every fault kind fires).
    Reported alongside: recovery rate relative to the fault-free crawl, the
    non-resilient engine's recovery under the same faults (what retrying
    buys), retry overhead (attempt count and simulated backoff seconds) and
    requests/s.  The campaign window is capped at 7 simulated days so the
    stage stays tractable at the large scales.
    """
    config = scenario_config(scenario, seed=seed)
    campaign_config = CampaignConfig(
        duration_days=min(config.campaign_days, 7.0),
        snapshot_interval_hours=config.snapshot_interval_hours,
    )

    # Fault-free reference: the plain engine, no plan, no retry policy.
    registry = FediverseGenerator(config).generate().registry
    truth = _true_reject_edges(registry)
    clean_campaign = MeasurementCampaign(registry, campaign_config)
    clean_result = clean_campaign.assemble(clean_campaign.crawl())
    clean_state = _crawl_state(clean_result)

    # Gate 1 — inertness: zero-fault plan + full resilience == plain engine.
    zero_campaign, zero_result, _ = _run_chaos_campaign(
        config, campaign_config, "none", fault_seed, resilient=True
    )
    if zero_campaign.transport is not zero_campaign.server:
        raise RuntimeError("zero-fault plan did not return the unwrapped server")
    _require_equal(
        _crawl_state(zero_result),
        clean_state,
        "zero-fault resilient crawl diverged from the plain engine",
    )

    # Gate 2 — determinism: same fault seed, bit-identical runs (the first
    # two runs carry the gate; extra repeats only improve the timing).
    engine_s = float("inf")
    faulted_states = []
    campaign = result = None
    for _ in range(max(2, repeats)):
        campaign, result, elapsed = _run_chaos_campaign(
            config, campaign_config, "mixed", fault_seed, resilient=True
        )
        engine_s = min(engine_s, elapsed)
        if len(faulted_states) < 2:
            faulted_states.append(_crawl_state(result))
    _require_equal(
        faulted_states[0],
        faulted_states[1],
        "two crawls under the same fault seed diverged",
    )

    # What resilience buys: the same faults against the non-retrying engine.
    _, frail_result, _ = _run_chaos_campaign(
        config, campaign_config, "mixed", fault_seed, resilient=False
    )

    # Gate 3 / bias table: reject-edge recall by fault profile.  The clean
    # and mixed rows reuse the runs above; light/heavy run once each.
    recalls: dict[str, float] = {}
    profile_results = {"none": clean_result, "mixed": result}
    for profile in ("none", "light", "mixed", "heavy"):
        profile_result = profile_results.get(profile)
        if profile_result is None:
            _, profile_result, _ = _run_chaos_campaign(
                config, campaign_config, profile, fault_seed, resilient=True
            )
        measured = _measured_reject_edges(profile_result)
        recalls[profile] = (
            len(measured & truth) / len(truth) if truth else 1.0
        )

    injector = campaign.transport
    stats = campaign.client.stats
    clean_domains = len(clean_result.latest_snapshots)
    clean_snapshots = sum(clean_result.snapshot_counts.values())
    metrics = {
        "domains": float(len(result.pleroma_domains)),
        "rounds": float(campaign_config.snapshot_rounds),
        "api_requests": float(result.api_requests),
        "faults_injected": float(injector.stats.total),
        "truncated_posts": float(injector.stats.truncated_posts),
        "recovery_rate": (
            len(result.latest_snapshots) / clean_domains if clean_domains else 1.0
        ),
        "snapshot_recovery_rate": (
            sum(result.snapshot_counts.values()) / clean_snapshots
            if clean_snapshots
            else 1.0
        ),
        "frail_recovery_rate": (
            len(frail_result.latest_snapshots) / clean_domains
            if clean_domains
            else 1.0
        ),
        "frail_snapshot_recovery_rate": (
            sum(frail_result.snapshot_counts.values()) / clean_snapshots
            if clean_snapshots
            else 1.0
        ),
        "retries": float(stats.retries),
        "retry_share": stats.retries / stats.requests if stats.requests else 0.0,
        "backoff_seconds_simulated": stats.backoff_seconds,
        "short_circuited": float(stats.short_circuited),
        "round_retried": float(campaign.round_retried),
        "round_salvaged": float(campaign.round_salvaged),
        "degraded_domains": float(len(result.degraded_domains)),
        "engine_seconds": engine_s,
        "requests_per_second": (
            result.api_requests / engine_s if engine_s else float("inf")
        ),
        "true_reject_edges": float(len(truth)),
    }
    for kind, count in sorted(injector.stats.injected.items()):
        metrics[f"injected_{kind}"] = float(count)
    for profile, recall in recalls.items():
        metrics[f"reject_recall_{profile}"] = recall
    return metrics


# ---------------------------------------------------------------------- #
# Scenario runs
# ---------------------------------------------------------------------- #
#: Every bench stage, in execution order.
STAGES: tuple[str, ...] = (
    "ingestion",
    "scoring",
    "corpus",
    "threshold_sweep",
    "delivery",
    "protocol",
    "crawl",
    "chaos",
    "serving",
    "sharding",
    "shard_chaos",
)

#: Stages that need the analysis pipeline's assembled dataset.
_PIPELINE_STAGES = frozenset({"ingestion", "scoring", "corpus", "threshold_sweep"})


def default_stages(scenario: str) -> tuple[str, ...]:
    """Return the stages a scenario runs when none are requested.

    ``xxlarge`` exists for the sharded engine alone — a 100k-instance
    crawl/analysis pass is exactly what the scenario is *not* for — so it
    defaults to the ``sharding`` stage only.  ``viral`` and ``hellthread``
    exist for the protocol-realism gates: their inflated Announce/Like/
    reply volume makes a full analysis pass pointless, so they default to
    the ``protocol`` stage.
    """
    if scenario == "xxlarge":
        return ("sharding",)
    if scenario in ("viral", "hellthread"):
        return ("protocol",)
    return STAGES


def default_workers(scenario: str) -> tuple[int, ...]:
    """Return the worker counts the ``sharding`` stage measures by default."""
    if scenario == "xxlarge":
        return (4,)
    return (1, 2, 4)


def run_scenario(
    scenario: str,
    seed: int = 42,
    campaign_days: float = 2.0,
    repeats: int = 3,
    stages: tuple[str, ...] | None = None,
    workers: tuple[int, ...] | None = None,
) -> BenchReport:
    """Run the requested benchmark stages on one scenario.

    ``stages=None`` runs every stage (``sharding`` only for ``xxlarge``);
    ``workers`` sets the sharding stage's worker counts and is stamped
    into the report.
    """
    if stages is None:
        stages = default_stages(scenario)
    unknown = set(stages) - set(STAGES)
    if unknown:
        raise ValueError(
            f"unknown stage(s) {sorted(unknown)}; available: {', '.join(STAGES)}"
        )
    if workers is None:
        workers = default_workers(scenario)

    report = BenchReport(scenario=scenario, seed=seed, generated_at=time.time())
    pipeline = None
    if _PIPELINE_STAGES & set(stages):
        pipeline = ReproPipeline(
            scenario=scenario, seed=seed, campaign_days=campaign_days
        )
        dataset = pipeline.dataset
        report.dataset = {
            "instances": len(dataset.instances),
            "users": len(dataset.users),
            "posts": len(dataset.posts),
            "edges": len(dataset.reject_edges),
            "policy_settings": len(dataset.policy_settings),
        }

    if "ingestion" in stages:
        report.metrics["ingestion"] = bench_ingestion(
            pipeline.dataset.reject_edges, repeats=repeats
        )
    if "scoring" in stages:
        report.metrics["scoring"] = bench_scoring(
            pipeline.perspective.scorer,
            [post.content for post in pipeline.dataset.posts],
            repeats=repeats,
        )
    if "corpus" in stages:
        report.metrics["corpus"] = bench_corpus(
            pipeline.perspective.scorer,
            [post.content for post in pipeline.dataset.posts],
            repeats=repeats,
        )
    if "threshold_sweep" in stages:
        report.metrics["threshold_sweep"] = bench_sweep(
            pipeline, repeats=max(repeats, 5)
        )
    # Generation/delivery/crawl stages regenerate the fediverse per repeat;
    # cap repeats so the harness stays tractable at the large scales.
    if "delivery" in stages:
        report.metrics["delivery"] = bench_delivery(
            scenario, seed=seed, repeats=min(repeats, 2)
        )
    if "protocol" in stages:
        report.metrics["protocol"] = bench_protocol(
            scenario, seed=seed, repeats=min(repeats, 2)
        )
        if not report.dataset:
            # Protocol-only runs (viral/hellthread) never assemble a crawl
            # dataset; report the generated mixed-traffic population.
            protocol = report.metrics["protocol"]
            report.dataset = {
                "instances": int(protocol["instances"]),
                "users": int(protocol["users"]),
                "posts": int(protocol["posts"]),
            }
    if "crawl" in stages:
        report.metrics["crawl"] = bench_crawl(
            scenario, seed=seed, repeats=min(repeats, 2)
        )
    if "chaos" in stages:
        report.metrics["chaos"] = bench_chaos(
            scenario, seed=seed, repeats=min(repeats, 2)
        )
    if "serving" in stages:
        report.metrics["serving"] = bench_serving(
            scenario, seed=seed, repeats=min(repeats, 2)
        )
    if "sharding" in stages:
        report.workers = list(workers)
        report.metrics["sharding"] = bench_sharding(
            scenario,
            seed=seed,
            repeats=1 if scenario == "xxlarge" else min(repeats, 2),
            worker_counts=workers,
            # At xxlarge a redundant forced-fork check would re-prepare a
            # million-user fediverse; smaller scenarios gate it.
            fork_gate=scenario != "xxlarge",
        )
        if not report.dataset:
            # Sharding-only runs (xxlarge) never assemble a crawl dataset;
            # report the generated population instead.
            sharding = report.metrics["sharding"]
            report.dataset = {
                "instances": int(sharding["instances"]),
                "users": int(sharding["users"]),
                "posts": int(sharding["posts"]),
            }
    if "shard_chaos" in stages:
        if not report.workers:
            report.workers = list(workers)
        # Worker counts of 1 tell the recovery gates nothing new and
        # double the fault matrix; the chaos stage measures multi-worker
        # counts only (minimum 2).
        chaos_workers = tuple(n for n in workers if n > 1) or (2,)
        report.metrics["shard_chaos"] = bench_shard_chaos(
            scenario,
            seed=seed,
            repeats=min(repeats, 2),
            worker_counts=chaos_workers,
        )
    return report


def write_bench_json(report: BenchReport, out_dir: str | Path = ".") -> Path:
    """Write ``BENCH_<scenario>.json`` and return the path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{report.scenario}.json"
    path.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    return path


def run_harness(
    scenarios: tuple[str, ...] = ("small", "large"),
    seed: int = 42,
    campaign_days: float = 2.0,
    repeats: int = 3,
    out_dir: str | Path | None = None,
) -> list[BenchReport]:
    """Run the harness on every scenario, optionally writing JSON reports."""
    reports = []
    for scenario in scenarios:
        report = run_scenario(
            scenario, seed=seed, campaign_days=campaign_days, repeats=repeats
        )
        if out_dir is not None:
            write_bench_json(report, out_dir)
        reports.append(report)
    return reports
