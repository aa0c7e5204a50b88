"""Tests for the supervised sharded engine (``repro.shard.supervisor``).

The claim under test is the supervisor's exactness guarantee: whatever
the injected worker deaths — crash before delivering, crash after
delivering, hang past the inactivity deadline, corrupt result bytes, a
clean error report, or a real SIGKILL mid-run — the recovered merged
federation state is bit-identical to a fault-free run, and the failure
is classified as the kind predicts.  The plan tests pin the deterministic
compilation of :class:`~repro.faults.workers.WorkerFaultSpec` mixes; the
teardown tests pin the terminate→kill escalation that keeps SIGTERM-
immune workers from leaking past a run, and that no retry worker outlives
an interrupted supervision.  The supervisor is the engine's only fork
runner, and its workers inherit their batch slices through ``fork``: the
coordinator sends them nothing.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import random
import signal
import time

import pytest

from repro.activitypub.delivery import FederationDelivery
from repro.faults.workers import (
    WORKER_FAULT_PROFILES,
    WorkerFaultKind,
    WorkerFaultPlan,
    WorkerFaultSpec,
)
from repro.shard.engine import (
    ShardedRunResult,
    federate_sharded,
    fork_available,
    reap_process,
    run_sharded,
)
from repro.shard.partition import partition_batches
from repro.shard.state import delivered_pairs, federation_state, merge_shard_results
from repro.shard.supervisor import (
    FAILURE_KINDS,
    RecoveryStats,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.synth.generator import FediverseGenerator
from repro.synth.scenario import scenario_config

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

#: How the supervisor must classify each injected death kind.
EXPECTED_CLASSIFICATION = {
    WorkerFaultKind.CRASH_EARLY: "eof",
    WorkerFaultKind.CRASH_LATE: "eof",
    WorkerFaultKind.HANG: "deadline",
    WorkerFaultKind.CORRUPT: "corrupt",
    WorkerFaultKind.ERROR: "error",
}

#: Tight supervision knobs for tiny-scenario test runs: the deadline only
#: has to beat the heartbeat interval, and short polls keep hangs cheap.
FAST = SupervisorConfig(
    deadline_seconds=1.0,
    deadline_multiplier=1.5,
    max_worker_attempts=2,
    poll_seconds=0.01,
    heartbeat_seconds=0.05,
    join_grace_seconds=10.0,
)


def tiny_generator(seed: int = 29, **overrides) -> FediverseGenerator:
    return FediverseGenerator(scenario_config("tiny", seed=seed, **overrides))


def single_process_state(generator: FediverseGenerator) -> dict:
    """The reference run: the single-process batched engine's snapshot."""
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


@pytest.fixture(scope="module")
def reference():
    """The fault-free single-process state of the default tiny fediverse."""
    return single_process_state(tiny_generator())


def supervised_run(
    generator: FediverseGenerator,
    n_workers: int,
    plan: WorkerFaultPlan | None = None,
    config: SupervisorConfig = FAST,
) -> ShardedRunResult:
    """One forked run on a freshly prepared fediverse."""
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))
    return federate_sharded(
        prepared,
        work,
        n_workers,
        processes=True,
        worker_faults=plan,
        supervisor=config,
    )


# --------------------------------------------------------------------------- #
# Fault plans and specs (no processes involved)
# --------------------------------------------------------------------------- #
class TestWorkerFaultPlan:
    def test_zero_spec_is_inert(self):
        spec = WorkerFaultSpec.none()
        assert spec.inert
        plan = WorkerFaultPlan.compile(spec, 8)
        assert plan.inert
        for shard in range(8):
            for attempt in range(3):
                assert plan.fault_for(shard, attempt) is None

    def test_compile_is_deterministic(self):
        spec = WorkerFaultSpec.profile("mixed", seed=7)
        first = WorkerFaultPlan.compile(spec, 64)
        second = WorkerFaultPlan.compile(spec, 64)
        assert first.schedules == second.schedules
        # The mixed profile at 64 shards afflicts some shards but not all.
        assert first.schedules
        assert len(first.schedules) < 64

    def test_compile_seed_changes_schedules(self):
        base = WorkerFaultPlan.compile(WorkerFaultSpec.profile("heavy"), 64)
        other = WorkerFaultPlan.compile(
            WorkerFaultSpec.profile("heavy", seed=1), 64
        )
        assert base.schedules != other.schedules

    def test_compile_honours_faulty_attempts(self):
        spec = WorkerFaultSpec.profile("heavy")
        assert spec.faulty_attempts == 2
        plan = WorkerFaultPlan.compile(spec, 64)
        assert plan.schedules
        for schedule in plan.schedules.values():
            # One death kind per shard, repeated for every faulty attempt.
            assert len(schedule) == 2
            assert len(set(schedule)) == 1

    def test_scripted_normalises_bare_kinds(self):
        plan = WorkerFaultPlan.scripted(
            4,
            {
                0: WorkerFaultKind.HANG,
                2: (WorkerFaultKind.ERROR, WorkerFaultKind.CRASH_EARLY),
            },
        )
        assert plan.fault_for(0, 0) is WorkerFaultKind.HANG
        assert plan.fault_for(0, 1) is None
        assert plan.fault_for(2, 0) is WorkerFaultKind.ERROR
        assert plan.fault_for(2, 1) is WorkerFaultKind.CRASH_EARLY
        assert plan.fault_for(2, 2) is None
        assert plan.fault_for(1, 0) is None
        assert not plan.inert

    def test_plan_rejects_out_of_range_shards(self):
        with pytest.raises(ValueError):
            WorkerFaultPlan(2, {5: (WorkerFaultKind.HANG,)})
        with pytest.raises(ValueError):
            WorkerFaultPlan(0, {})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkerFaultSpec(crash_early_share=1.5)
        with pytest.raises(ValueError):
            WorkerFaultSpec(error_share=-0.1)
        with pytest.raises(ValueError):
            WorkerFaultSpec(faulty_attempts=0)
        with pytest.raises(ValueError):
            WorkerFaultSpec.profile("no-such-profile")

    def test_profiles_cover_every_kind_somewhere(self):
        assert set(WORKER_FAULT_PROFILES) == {"none", "light", "mixed", "heavy"}
        mixed = WorkerFaultSpec.profile("mixed")
        assert not mixed.inert
        for name in (
            "crash_early_share",
            "crash_late_share",
            "hang_share",
            "corrupt_share",
            "error_share",
        ):
            assert getattr(mixed, name) > 0.0

    def test_for_config_reads_scenario_knobs(self):
        config = scenario_config(
            "tiny", worker_fault_profile="mixed", worker_fault_seed=7
        )
        assert WorkerFaultSpec.for_config(config) == WorkerFaultSpec.profile(
            "mixed", seed=7
        )
        # The default scenario weather is fault-free.
        assert WorkerFaultSpec.for_config(scenario_config("tiny")).inert
        # xlarge/xxlarge name the mixed worker-fault mix.
        assert scenario_config("xlarge").worker_fault_profile == "mixed"
        assert scenario_config("xxlarge").worker_fault_profile == "mixed"

    def test_config_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            scenario_config("tiny", worker_fault_profile="catastrophic")


# --------------------------------------------------------------------------- #
# Supervisor config and recovery accounting
# --------------------------------------------------------------------------- #
class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(deadline_seconds=0)
        with pytest.raises(ValueError):
            SupervisorConfig(deadline_multiplier=0.5)
        with pytest.raises(ValueError):
            SupervisorConfig(max_worker_attempts=0)
        with pytest.raises(ValueError):
            SupervisorConfig(poll_seconds=0)
        with pytest.raises(ValueError):
            SupervisorConfig(heartbeat_seconds=0)

    def test_deadline_escalates_per_attempt(self):
        config = SupervisorConfig(deadline_seconds=2.0, deadline_multiplier=3.0)
        assert config.deadline_for(0) == 2.0
        assert config.deadline_for(1) == 6.0
        assert config.deadline_for(2) == 18.0


class TestRecoveryStats:
    def build(self) -> RecoveryStats:
        stats = RecoveryStats(n_shards=3)
        stats.record(0, 0, "fork", "ok", 0.1)
        stats.record(1, 0, "fork", "eof", 0.2, detail="died")
        stats.record(1, 1, "fork", "deadline", 0.3)
        stats.record(1, 2, "inline", "ok", 0.4)
        stats.record(2, 0, "fork", "corrupt", 0.5)
        stats.record(2, 1, "fork", "ok", 0.6)
        return stats

    def test_accounting(self):
        stats = self.build()
        assert stats.retries == 3
        assert stats.failures == {"eof": 1, "deadline": 1, "corrupt": 1}
        assert set(stats.failures) <= set(FAILURE_KINDS)
        assert stats.failed_shards == (1, 2)
        assert stats.recovered_shards == (1, 2)
        assert stats.inline_fallbacks == 1
        assert stats.retry_seconds == pytest.approx(0.3 + 0.4 + 0.6)
        assert [a.attempt for a in stats.shard_attempts(1)] == [0, 1, 2]

    def test_pickles_inside_run_results(self):
        stats = self.build()
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats


# --------------------------------------------------------------------------- #
# Worker teardown escalation
# --------------------------------------------------------------------------- #
def _stubborn_child(ready) -> None:  # pragma: no cover - child process body
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready.send(b"x")
    ready.close()
    while True:
        time.sleep(3600.0)


def _sleepy_child() -> None:  # pragma: no cover - child process body
    while True:
        time.sleep(3600.0)


@needs_fork
class TestReapProcess:
    def test_exited_worker_is_collected_within_grace(self):
        ctx = multiprocessing.get_context("fork")
        process = ctx.Process(target=lambda: None, daemon=True)
        process.start()
        reap_process(process, grace_seconds=10.0)
        assert not process.is_alive()
        assert process.exitcode == 0

    def test_sigterm_stops_a_cooperative_worker(self):
        ctx = multiprocessing.get_context("fork")
        process = ctx.Process(target=_sleepy_child, daemon=True)
        process.start()
        reap_process(process, grace_seconds=0.05, escalation_seconds=5.0)
        assert not process.is_alive()
        assert process.exitcode == -signal.SIGTERM

    def test_escalates_to_sigkill_when_sigterm_is_ignored(self):
        """A worker that ignores SIGTERM must still never leak past the
        run: terminate() is followed by kill(), which cannot be ignored."""
        ctx = multiprocessing.get_context("fork")
        ready_recv, ready_send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_stubborn_child, args=(ready_send,), daemon=True
        )
        process.start()
        ready_send.close()
        # Wait until the child has installed its SIG_IGN handler, so the
        # escalation is exercised deterministically.
        assert ready_recv.poll(10.0)
        ready_recv.recv_bytes()
        ready_recv.close()
        reap_process(process, grace_seconds=0.05, escalation_seconds=0.2)
        assert not process.is_alive()
        assert process.exitcode == -signal.SIGKILL


# --------------------------------------------------------------------------- #
# Broken worker bodies: every fork attempt fails, the fallback recovers
# --------------------------------------------------------------------------- #
def _exiting_worker(shard, n_shards, registry, batches, out_conn, fault, heartbeat_seconds):
    """A worker that dies before talking the protocol."""
    os._exit(1)  # pragma: no cover - child process body


def _garbage_worker(shard, n_shards, registry, batches, out_conn, fault, heartbeat_seconds):
    """A worker that answers with bytes that cannot unpickle."""
    out_conn.send_bytes(b"not a pickle \xff\x00")  # pragma: no cover - child
    os._exit(0)  # pragma: no cover - child process body


@needs_fork
class TestBrokenWorkerClassification:
    def assert_every_fork_failed_as(self, result, outcome, reference):
        assert result.state == reference
        for shard in range(2):
            attempts = result.recovery.shard_attempts(shard)
            assert [a.mode for a in attempts] == ["fork", "fork", "inline"]
            assert [a.outcome for a in attempts] == [outcome, outcome, "ok"]
        assert result.recovery.inline_fallbacks == 2

    def test_dead_worker_is_classified_eof_on_every_attempt(
        self, monkeypatch, reference
    ):
        """A worker that exits silently surfaces as ``eof`` on the shard it
        served, never as a raw EOFError, and the shard is recovered."""
        monkeypatch.setattr("repro.shard.engine._shard_worker", _exiting_worker)
        result = supervised_run(tiny_generator(), 2)
        self.assert_every_fork_failed_as(result, "eof", reference)

    def test_unreadable_result_is_classified_corrupt_on_every_attempt(
        self, monkeypatch, reference
    ):
        monkeypatch.setattr("repro.shard.engine._shard_worker", _garbage_worker)
        result = supervised_run(tiny_generator(), 2)
        self.assert_every_fork_failed_as(result, "corrupt", reference)


# --------------------------------------------------------------------------- #
# Supervised recovery: every death kind, bit-identical state
# --------------------------------------------------------------------------- #
@needs_fork
class TestSupervisedRecovery:
    def test_zero_fault_run_is_inert(self, reference):
        """Supervision must be inert without faults: same bits as the
        single-process engine, zero retries, all first attempts ok."""
        result = supervised_run(tiny_generator(), 2)
        assert result.mode == "fork"
        assert result.state == reference
        recovery = result.recovery
        assert recovery.retries == 0
        assert recovery.failed_shards == ()
        assert all(
            attempt.outcome == "ok" and attempt.mode == "fork"
            for attempt in recovery.attempts
        )

    def test_coordinator_sends_nothing_to_its_workers(
        self, monkeypatch, reference
    ):
        """Workers inherit their slices through ``fork``: the coordinator
        makes no ``Connection.send``/``send_bytes`` call in a forked run.
        (Workers run the wrapper too, but count into their own copy.)"""
        sends = []
        for name in ("send", "send_bytes"):
            original = getattr(multiprocessing.connection.Connection, name)

            def counting(conn, *args, _original=original, _name=name, **kwargs):
                sends.append(_name)
                return _original(conn, *args, **kwargs)

            monkeypatch.setattr(
                multiprocessing.connection.Connection, name, counting
            )
        result = supervised_run(tiny_generator(), 2)
        assert result.mode == "fork"
        assert result.state == reference
        assert result.recovery.retries == 0
        assert sends == []

    @pytest.mark.parametrize("kind", list(WorkerFaultKind))
    def test_each_death_kind_recovers_bit_identically(self, kind, reference):
        """One shard's first worker dies by ``kind``; the retry recovers
        it and the merged state is exactly the fault-free state."""
        plan = WorkerFaultPlan.scripted(2, {0: kind})
        result = supervised_run(tiny_generator(), 2, plan=plan)
        assert result.state == reference
        recovery = result.recovery
        attempts = recovery.shard_attempts(0)
        assert attempts[0].outcome == EXPECTED_CLASSIFICATION[kind]
        assert attempts[0].mode == "fork"
        assert attempts[-1].outcome == "ok"
        assert recovery.failed_shards == (0,)
        assert recovery.recovered_shards == (0,)
        assert recovery.retries == 1
        # The untouched shard succeeded on its first worker.
        assert [a.outcome for a in recovery.shard_attempts(1)] == ["ok"]

    def test_retry_exhaustion_falls_back_inline(self, reference):
        """Every forked attempt dies; the coordinator re-executes the
        shard inline and the merge still lands on the exact bits."""
        plan = WorkerFaultPlan.scripted(
            2, {0: (WorkerFaultKind.CRASH_EARLY,) * FAST.max_worker_attempts}
        )
        result = supervised_run(tiny_generator(), 2, plan=plan)
        assert result.state == reference
        recovery = result.recovery
        attempts = recovery.shard_attempts(0)
        assert [a.mode for a in attempts] == ["fork", "fork", "inline"]
        assert [a.outcome for a in attempts] == ["eof", "eof", "ok"]
        assert recovery.inline_fallbacks == 1
        assert recovery.recovered_shards == (0,)

    def test_inline_supervised_run_records_recovery(self, reference):
        generator = tiny_generator()
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        result = federate_sharded(prepared, work, 2, processes=False)
        assert result.mode == "inline"
        assert result.state == reference
        assert result.recovery.n_shards == 2
        assert [
            (a.shard, a.attempt, a.mode, a.outcome)
            for a in result.recovery.attempts
        ] == [(0, 0, "inline", "ok"), (1, 0, "inline", "ok")]

    def test_inline_run_rejects_live_fault_plans(self):
        generator = tiny_generator()
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        plan = WorkerFaultPlan.scripted(2, {0: WorkerFaultKind.HANG})
        with pytest.raises(RuntimeError, match="forked workers"):
            federate_sharded(
                prepared, work, 2, processes=False, worker_faults=plan
            )
        # An inert plan is fine inline (nothing to kill).
        result = federate_sharded(
            prepared,
            work,
            2,
            processes=False,
            worker_faults=WorkerFaultPlan(2, {}),
        )
        assert result.recovery.retries == 0
        assert {(a.mode, a.outcome) for a in result.recovery.attempts} == {
            ("inline", "ok")
        }

    def test_run_sharded_threads_supervision_through(self, reference):
        config = scenario_config("tiny", seed=29)
        _, result = run_sharded(config, 2, processes=True, supervisor=FAST)
        assert result.mode == "fork"
        assert result.state == reference
        assert result.recovery.n_shards == 2
        assert result.recovery.retries == 0


# --------------------------------------------------------------------------- #
# Real signals: SIGKILL mid-run
# --------------------------------------------------------------------------- #
class _KillFirstSpawned(ShardSupervisor):
    """A supervisor that SIGKILLs the first worker right after forking
    it — a real, uninjected mid-run worker death."""

    def __init__(self, config=None):
        super().__init__(config=config)
        self.killed_pid = None

    def _spawn(self, *args, **kwargs):
        worker = super()._spawn(*args, **kwargs)
        if self.killed_pid is None:
            self.killed_pid = worker.process.pid
            os.kill(self.killed_pid, signal.SIGKILL)
        return worker


class _InterruptRetryAwait(ShardSupervisor):
    """A supervisor interrupted while awaiting shard 0's retry worker."""

    def __init__(self, config, faults):
        super().__init__(config=config, faults=faults)
        self.shard0_awaits = 0
        self.retry_pid = None

    def _await_result(self, worker, shard, deadline_seconds):
        if shard == 0:
            self.shard0_awaits += 1
            if self.shard0_awaits == 2:
                self.retry_pid = worker.process.pid
                raise KeyboardInterrupt
        return super()._await_result(worker, shard, deadline_seconds)


@needs_fork
class TestRealSignals:
    def test_sigkill_mid_run_recovers_bit_identically(self):
        generator = tiny_generator(seed=31)
        reference = single_process_state(generator)
        prepared = generator.prepare()
        work = list(generator.federation_batches(prepared))
        shards = partition_batches(work, 2)
        supervisor = _KillFirstSpawned(config=FAST)
        results, stats = supervisor.run(prepared.registry, shards)
        assert supervisor.killed_pid is not None
        state = merge_shard_results(prepared, results, delivered_pairs(work))
        assert state == reference
        assert stats.failed_shards == (0,)
        assert stats.recovered_shards == (0,)
        assert stats.shard_attempts(0)[0].outcome == "eof"

    def test_interrupted_supervision_leaks_no_retry_worker(self):
        """Shard 0's first worker crashes; its retry hangs and the await on
        it raises.  The retry worker — forked inside the shard's
        supervision, not up front — must still be torn down."""
        generator = tiny_generator()
        prepared = generator.prepare()
        shards = partition_batches(list(generator.federation_batches(prepared)), 2)
        plan = WorkerFaultPlan.scripted(
            2, {0: (WorkerFaultKind.CRASH_EARLY, WorkerFaultKind.HANG)}
        )
        supervisor = _InterruptRetryAwait(FAST, plan)
        with pytest.raises(KeyboardInterrupt):
            supervisor.run(prepared.registry, shards)
        assert supervisor.retry_pid is not None
        assert multiprocessing.active_children() == []


# --------------------------------------------------------------------------- #
# Twin-run fuzz: random worker-fault schedules
# --------------------------------------------------------------------------- #
def fault_fuzz_cases():
    """Random-but-reproducible schedules across worker counts 1, 2 and 4."""
    rng = random.Random(20260807)
    kinds = list(WorkerFaultKind)
    cases = []
    for n_workers in (1, 2, 4):
        schedules = {}
        for shard in range(n_workers):
            if rng.random() < 0.75:
                length = rng.choice((1, 1, 2))
                schedules[shard] = tuple(
                    rng.choice(kinds) for _ in range(length)
                )
        if not schedules:  # pragma: no cover - seed-dependent guard
            schedules[0] = (rng.choice(kinds),)
        cases.append((n_workers, schedules))
    return cases


@needs_fork
class TestWorkerFaultFuzz:
    @pytest.mark.parametrize(("n_workers", "schedules"), fault_fuzz_cases())
    def test_random_schedules_merge_bit_identically(self, n_workers, schedules):
        """Twin-run fuzz under random per-shard death schedules: every
        afflicted shard is recovered and the merged state equals the
        fault-free single-process engine's, bit for bit."""
        generator = tiny_generator(seed=37 + n_workers)
        reference = single_process_state(generator)
        plan = WorkerFaultPlan.scripted(n_workers, schedules)
        result = supervised_run(tiny_generator(seed=37 + n_workers), n_workers, plan=plan)
        assert result.state == reference
        recovery = result.recovery
        assert recovery.failed_shards == tuple(sorted(schedules))
        assert recovery.recovered_shards == recovery.failed_shards
        assert recovery.retries >= len(schedules)
        # Schedules long enough to exhaust the fork budget must have
        # gone through the inline fallback.
        expected_fallbacks = sum(
            1
            for kinds in schedules.values()
            if len(kinds) >= FAST.max_worker_attempts
        )
        assert recovery.inline_fallbacks == expected_fallbacks
