"""Tests for the concurrent serving layer.

Covers the thread-safe server front end: atomic :class:`ClientStats`
counters (the ``by_domain`` lost-update race), frozen shared response
caches, availability-flip error caching under churn, the
:class:`RequestExecutor`, the twin-run equivalence of
:class:`MeasurementCampaign` at 1/2/8 threads against the 1-thread
campaign, the sink event stream and pool lifetime of multi-threaded
campaigns, and the load-generation harness's latency reports.

Every test in the module runs under a faulthandler deadlock tripwire
(the bench harness's ``--hang-timeout`` pattern): a wedged lock or pool
dumps every thread's stack and kills the run instead of hanging the suite.
"""

from __future__ import annotations

import faulthandler
import random
import threading

import pytest

from repro.api.client import APIClient, ClientStats
from repro.api.http import FrozenList, HTTPStatus, freeze_json
from repro.api.server import FediverseAPIServer, RequestExecutor
from repro.crawler.campaign import (
    CampaignConfig,
    CrawlSink,
    MeasurementCampaign,
    _partition,
)
from repro.crawler.crawler import INSTANCE_PATH
from repro.faults import FaultSpec, ResilienceConfig
from repro.fediverse.instance import InstanceAvailability
from repro.fediverse.registry import FediverseRegistry
from repro.perf.harness import _crawl_state
from repro.perf.loadgen import LatencyRecordingTransport, percentile, run_load
from repro.synth.generator import FediverseGenerator
from repro.synth.scenario import scenario_config


@pytest.fixture(autouse=True)
def deadlock_tripwire():
    """Fail fast (with every thread's stack) instead of hanging the suite."""
    faulthandler.dump_traceback_later(180.0, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


# --------------------------------------------------------------------- #
# ClientStats atomicity
# --------------------------------------------------------------------- #
class TestClientStatsAtomicity:
    def test_unlocked_read_modify_write_loses_updates(self):
        """The old ``get(domain, 0) + 1`` pattern demonstrably drops updates.

        A barrier forces the worst-case interleaving deterministically:
        both threads read the counter before either writes, so one
        increment is lost — exactly what two crawler threads sharing the
        pre-fix ``ClientStats`` could do to ``by_domain``.
        """
        counters: dict[str, int] = {}
        barrier = threading.Barrier(2)

        def racy_increment() -> None:
            value = counters.get("pleroma.example", 0)
            barrier.wait()  # both threads have read; neither has written
            counters["pleroma.example"] = value + 1

        threads = [threading.Thread(target=racy_increment) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counters["pleroma.example"] == 1  # one of two updates lost

    def test_record_hammer_keeps_exact_totals(self):
        """Hammering the fixed ``record`` from 8 threads loses nothing."""
        stats = ClientStats()
        n_threads, per_thread = 8, 500
        start = threading.Barrier(n_threads)

        def hammer(worker: int) -> None:
            domain = f"instance{worker % 4}.example"
            start.wait()
            for index in range(per_thread):
                status = HTTPStatus.OK if index % 2 == 0 else HTTPStatus.NOT_FOUND
                stats.record(status, domain)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = n_threads * per_thread
        assert stats.requests == total
        assert stats.ok == total // 2
        assert stats.failed == total // 2
        assert stats.by_status == {200: total // 2, 404: total // 2}
        assert sum(stats.by_domain.values()) == total
        assert set(stats.by_domain.values()) == {2 * per_thread}

    def test_retry_and_backoff_counters_are_atomic(self):
        stats = ClientStats()
        n_threads, per_thread = 8, 300
        start = threading.Barrier(n_threads)

        def hammer() -> None:
            start.wait()
            for _ in range(per_thread):
                stats.add_retries(1)
                stats.add_backoff(0.5)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.retries == n_threads * per_thread
        assert stats.backoff_seconds == pytest.approx(n_threads * per_thread * 0.5)

    def test_short_circuit_recorded_in_one_atomic_update(self):
        stats = ClientStats()
        stats.record(HTTPStatus.SERVICE_UNAVAILABLE, "down.example", short_circuited=True)
        assert stats.requests == 1
        assert stats.failed == 1
        assert stats.short_circuited == 1
        assert stats.by_domain == {"down.example": 1}


# --------------------------------------------------------------------- #
# Frozen shared caches
# --------------------------------------------------------------------- #
def _tiny_registry(seed: int = 7, **overrides) -> FediverseRegistry:
    config = scenario_config("tiny", seed=seed, **overrides)
    return FediverseGenerator(config).generate().registry


def _find_frozen_list(value):
    """Return some list nested inside a frozen payload (depth-first)."""
    if isinstance(value, list):
        return value
    try:
        items = value.items()
    except AttributeError:
        return None
    for nested in items:
        found = _find_frozen_list(nested[1])
        if found is not None:
            return found
    return None


class TestFrozenCaches:
    def test_freeze_json_equals_original_and_rejects_mutation(self):
        payload = {"a": [1, {"b": [2, 3]}], "c": {"d": "e"}}
        frozen = freeze_json(payload)
        assert frozen == payload
        assert payload == frozen
        with pytest.raises(TypeError):
            frozen["c"]["d"] = "x"
        with pytest.raises(TypeError):
            frozen["a"].append(4)
        with pytest.raises(TypeError):
            frozen["a"][1]["b"][0] = 9
        assert isinstance(frozen["a"], FrozenList)
        assert list(frozen["a"]) == payload["a"]

    def test_cached_metadata_payload_is_frozen_and_shared(self):
        registry = _tiny_registry()
        server = FediverseAPIServer(registry)
        domain = sorted(
            instance.domain
            for instance in registry.instances()
            if instance.availability.ok
        )[0]

        batched = server.handle_batch(domain, [INSTANCE_PATH])[0]
        single = server.get(domain, INSTANCE_PATH)
        # Frozen cached payload stays == to the stateless path's fresh dict.
        assert batched.body == single.body
        # The cache hands the same frozen object to every batch caller.
        again = server.handle_batch(domain, [INSTANCE_PATH])[0]
        assert again.body is batched.body
        # No caller can corrupt what the others see.
        with pytest.raises(TypeError):
            batched.body["title"] = "defaced"
        with pytest.raises(TypeError):
            batched.body["stats"]["user_count"] = 10**9
        # Somewhere in the population a payload nests a list (an exposed MRF
        # policy's reject list); it must be frozen too.
        nested_list = None
        for candidate in sorted(
            instance.domain
            for instance in registry.instances()
            if instance.availability.ok
        ):
            body = server.handle_batch(candidate, [INSTANCE_PATH])[0].body
            nested_list = _find_frozen_list(body)
            if nested_list is not None:
                break
        assert nested_list is not None
        with pytest.raises(TypeError):
            nested_list.append("defaced")

    def test_error_cache_shares_one_frozen_response(self):
        registry = FediverseRegistry()
        for domain in ("down1.example", "down2.example"):
            registry.create_instance(domain, install_default_policies=False)
            registry.set_availability(domain, 502, "bad gateway")
        server = FediverseAPIServer(registry)

        first, second = server.metadata_round(["down1.example", "down2.example"])
        assert first is second  # same (status, reason) -> one shared object
        assert int(first.status) == 502
        with pytest.raises(TypeError):
            first.body["error"] = "defaced"
        # The batch path shares the same cache.
        batched = server.handle_batch("down1.example", [INSTANCE_PATH])[0]
        assert batched is first


class TestErrorCacheChurn:
    def test_availability_flip_serves_the_new_status(self):
        """A churned instance must never be served from a stale error entry.

        The ``(status, reason)`` key is derived from the availability *at
        the serving instant*, so the 200→503 flip selects a different
        cache entry instead of going stale.
        """
        registry = FediverseRegistry()
        instance = registry.create_instance(
            "flappy.example", install_default_policies=False
        )
        instance.register_user("bird")
        instance.publish("bird", "still up")
        flip_at = registry.clock.now() + 100.0
        instance.availability = InstanceAvailability(200, "", down_after=flip_at)
        server = FediverseAPIServer(registry)

        before = server.metadata_round(["flappy.example"])[0]
        assert before.ok

        registry.clock.advance(200.0)
        after = server.metadata_round(["flappy.example"])[0]
        assert int(after.status) == 503
        assert after.body["error"] == "instance went offline mid-campaign"
        # The post-flip error is itself cached and shared, frozen.
        repeat = server.metadata_round(["flappy.example"])[0]
        assert repeat is after
        batched = server.handle_batch("flappy.example", [INSTANCE_PATH])[0]
        assert batched is after

    def test_metadata_cache_survives_the_flip_window(self):
        """Pre-flip 200 payloads come from the cache; post-flip they must not."""
        registry = FediverseRegistry()
        instance = registry.create_instance(
            "flappy.example", install_default_policies=False
        )
        flip_at = registry.clock.now() + 100.0
        instance.availability = InstanceAvailability(200, "", down_after=flip_at)
        server = FediverseAPIServer(registry)

        first = server.metadata_round(["flappy.example"])[0]
        second = server.metadata_round(["flappy.example"])[0]
        assert second is first  # fingerprint unchanged -> cached response
        registry.clock.advance(200.0)
        down = server.metadata_round(["flappy.example"])[0]
        assert not down.ok  # the cached 200 is not served past the flip


# --------------------------------------------------------------------- #
# RequestExecutor
# --------------------------------------------------------------------- #
class TestRequestExecutor:
    def test_results_come_back_in_task_order(self):
        with RequestExecutor(threads=4) as executor:
            tasks = []
            for index in range(16):

                def task(index=index):
                    # Later tasks finish earlier; gather order must not care.
                    threading.Event().wait((15 - index) * 0.002)
                    return index

                tasks.append(task)
            assert executor.run(tasks) == list(range(16))

    def test_single_thread_runs_inline(self):
        executor = RequestExecutor(threads=1)
        main_thread = threading.current_thread()
        ran_on = executor.run([threading.current_thread] * 3)
        assert ran_on == [main_thread] * 3
        assert executor._pool is None

    def test_thread_count_validated(self):
        with pytest.raises(ValueError):
            RequestExecutor(threads=0)
        with pytest.raises(ValueError):
            MeasurementCampaign(FediverseRegistry(), threads=0)

    def test_faults_and_resilience_need_one_thread(self):
        registry = FediverseRegistry()
        with pytest.raises(ValueError):
            MeasurementCampaign(
                registry, threads=2, faults=FaultSpec.profile("mixed")
            )
        with pytest.raises(ValueError):
            MeasurementCampaign(
                registry, threads=2, resilience=ResilienceConfig.default()
            )
        # One thread takes both.
        MeasurementCampaign(
            registry,
            faults=FaultSpec.profile("mixed"),
            resilience=ResilienceConfig.default(),
        )

    def test_partition_is_contiguous_and_complete(self):
        items = [f"d{index:03d}" for index in range(11)]
        for parts in (1, 2, 3, 8, 16):
            slices = _partition(items, parts)
            assert len(slices) == parts
            assert [item for part in slices for item in part] == items
            sizes = [len(part) for part in slices]
            assert max(sizes) - min(sizes) <= 1


# --------------------------------------------------------------------- #
# Concurrent campaign equivalence
# --------------------------------------------------------------------- #
class TestConcurrentCampaignEquivalence:
    @pytest.mark.parametrize("trial_seed", [11, 23, 37])
    def test_twin_run_fuzz_matches_sequential_engine(self, trial_seed):
        """Randomised scenarios x 1/2/8 threads: merged result bit-identical.

        Each trial draws a population size (and, on some trials, churn)
        from the trial seed, runs the default 1-thread campaign on one
        generated fediverse, then the campaign at every thread count on
        bit-identical twins — every :class:`CrawlResult` field, the
        assembled dataset included, must match exactly.
        """
        rng = random.Random(trial_seed)
        overrides = {"n_pleroma_instances": rng.randint(12, 30)}
        if rng.random() < 0.5:
            overrides["instance_churn_rate"] = 0.25
        # Half the trials crawl an activity-mix population (boosts,
        # favourites, reply threads, UA-blocking instances) — the crawl
        # surface the protocol subsystem adds must merge identically too.
        if rng.random() < 0.5:
            overrides.update(
                federation_announce_share=rng.choice([0.3, 0.5]),
                federation_like_share=rng.choice([0.2, 0.4]),
                reply_thread_share=rng.choice([0.0, 0.1]),
                ua_blocking_share=rng.choice([0.0, 0.1]),
            )
        config = scenario_config("tiny", seed=trial_seed, **overrides)
        campaign_config = CampaignConfig(
            duration_days=1.0, snapshot_interval_hours=6.0
        )

        registry = FediverseGenerator(config).generate().registry
        sequential = MeasurementCampaign(registry, campaign_config).run()
        reference = _crawl_state(sequential)

        for threads in (1, 2, 8):
            twin = FediverseGenerator(config).generate().registry
            concurrent = MeasurementCampaign(
                twin, campaign_config, threads=threads
            ).run()
            assert _crawl_state(concurrent) == reference, (
                f"{threads}-thread crawl diverged (trial seed {trial_seed})"
            )

    def test_sink_event_stream_matches_sequential(self):
        """Sinks see the same ordered event stream at every thread count.

        Failures are harvested from the workers after each phase; a harvest
        that emitted them after the round's snapshots (or out of domain
        order) would change the stream, not only its totals.
        """
        config = scenario_config("tiny", seed=5, n_pleroma_instances=16)
        campaign_config = CampaignConfig(
            duration_days=1.0, snapshot_interval_hours=6.0
        )
        streams = {}
        for threads in (1, 2, 4):
            registry = FediverseGenerator(config).generate().registry
            sink = _EventRecorder(
                registry.clock.now(), campaign_config.snapshot_interval_hours
            )
            MeasurementCampaign(
                registry, campaign_config, sinks=[sink], threads=threads
            ).run()
            streams[threads] = sink.events

        reference = streams[1]
        failures = [event for event in reference if event[0] == "failure"]
        assert failures, "the population must produce crawl failures"
        assert streams[2] == reference
        assert streams[4] == reference
        # Each round's failures precede that round's snapshots.
        for round_index in range(campaign_config.snapshot_rounds):
            kinds = [event[0] for event in reference if event[1] == round_index]
            assert kinds == sorted(kinds)  # "failure" < "snapshot"

    def test_multi_thread_run_leaves_no_pool_thread(self):
        """The executor is scoped to the crawl: no pool thread outlives it."""
        registry = _tiny_registry(seed=5, n_pleroma_instances=16)
        seen_during_run: set[str] = set()

        class PoolWatcher(CrawlSink):
            def on_snapshot(self, round_index, snapshot):
                seen_during_run.update(_serving_threads())

        MeasurementCampaign(
            registry,
            CampaignConfig(duration_days=0.5, snapshot_interval_hours=6.0),
            sinks=[PoolWatcher()],
            threads=2,
        ).run()
        assert seen_during_run  # the pool really ran
        assert _serving_threads() == []


def _serving_threads() -> list[str]:
    """Names of the live ``RequestExecutor`` pool threads."""
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("serving")
    ]


class _EventRecorder(CrawlSink):
    """Record ``(kind, round_index, domain, status)`` for every crawl event.

    Failures carry no round index, so it is recovered from their
    timestamp; timeline events land on the round after the last snapshot.
    """

    def __init__(self, start: float, interval_hours: float) -> None:
        self.start = start
        self.interval = interval_hours * 3600.0
        self.events: list[tuple[str, int, str, int]] = []

    def _round(self, timestamp: float) -> int:
        return round((timestamp - self.start) / self.interval)

    def on_snapshot(self, round_index, snapshot):
        self.events.append(("snapshot", round_index, snapshot.domain, 200))

    def on_failure(self, failure):
        round_index = self._round(failure.timestamp)
        self.events.append(
            ("failure", round_index, failure.domain, failure.status_code)
        )

    def on_timeline(self, collection):
        round_index = self._round(collection.timestamp)
        self.events.append(
            ("timeline", round_index, collection.domain, collection.status_code)
        )


# --------------------------------------------------------------------- #
# Load harness
# --------------------------------------------------------------------- #
class TestLoadHarness:
    def test_percentile_nearest_rank(self):
        assert percentile([], 99.0) == 0.0
        assert percentile([5.0], 50.0) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 99.0) == 4.0

    def test_load_report_is_sane_and_accounting_matches(self):
        config = scenario_config("tiny", seed=9, n_pleroma_instances=14)
        campaign_config = CampaignConfig(
            duration_days=1.0, snapshot_interval_hours=6.0
        )
        registry = FediverseGenerator(config).generate().registry
        report, result = run_load(registry, campaign_config, threads=2)

        assert report.threads == 2
        assert report.transport_calls > 0
        assert report.wall_seconds > 0
        assert 0.0 <= report.p50_ms <= report.p95_ms <= report.p99_ms
        assert report.p99_ms <= report.max_ms
        assert report.tail_amplification >= 1.0
        assert report.requests_per_second > 0
        # Every accounted API request passed through the recorded transport.
        assert report.api_requests == result.api_requests

    def test_recording_transport_counts_batch_requests(self):
        registry = _tiny_registry(seed=3, n_pleroma_instances=12)
        transport = LatencyRecordingTransport(FediverseAPIServer(registry))
        client = APIClient(transport)
        domain = sorted(
            instance.domain
            for instance in registry.instances()
            if instance.availability.ok
        )[0]
        client.get_many(domain, (INSTANCE_PATH, INSTANCE_PATH))
        assert transport.requests == 2
        assert len(transport.samples) == 1
        client.get(domain, INSTANCE_PATH)
        assert transport.requests == 3
        assert len(transport.samples) == 2
