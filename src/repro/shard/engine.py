"""The sharded multi-process federation engine.

The coordinator prepares the fediverse (a fully deterministic function of
the config seed), materialises the federation batch stream — paying the
stream's RNG draws and peer side effects exactly once, in the same order
as the single-process engine — and partitions the batches by the shard
owning each target domain.  One worker per shard then delivers its slice
through a private :class:`~repro.activitypub.delivery.FederationDelivery`
and captures its owned instances' post-delivery state; the coordinator
merges the captures deterministically (see :mod:`repro.shard.state`).

Two execution modes share the same partition/deliver/capture/merge path:

* ``fork`` — one forked worker process per shard, run by the
  :class:`~repro.shard.supervisor.ShardSupervisor`.  Each worker inherits
  the prepared registry *and* its own batch slice copy-on-write through
  ``fork`` (the slice is a ``Process`` argument, never pickled), and sends
  one pickled :class:`~repro.shard.state.ShardResult` back over its result
  pipe.  The supervisor holds every worker to an inactivity deadline,
  classifies failures and re-executes failed shards — in fresh forks,
  finally inline — so the merged state stays bit-identical to a
  fault-free run no matter which workers died.
* ``inline`` — shards run sequentially in the coordinator process.  The
  fallback for platforms without ``fork``, the fast path for
  ``n_workers == 1``, and the automatic choice on single-CPU hosts
  (where forked workers would serialise anyway and only pay fork/IPC
  overhead); it exercises the identical partition, capture and merge
  machinery, which is what the determinism gate leans on.

Deliveries to different targets are independent (all mutated state lives
on the receiving instance; the shared decision caches are value-
transparent), so any interleaving of shard execution produces the same
merged state — the engine's central invariant, asserted bit-identically
against the single-process engine by the ``sharding`` bench stage and the
twin-run fuzz tests.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.activitypub.delivery import FederationDelivery
from repro.faults.workers import WorkerFaultKind, WorkerFaultPlan
from repro.shard.partition import partition_batches
from repro.shard.state import (
    ShardResult,
    capture_shard,
    delivered_pairs,
    merge_shard_results,
)
from repro.synth.generator import (
    FederationBatch,
    FediverseGenerator,
    PreparedFediverse,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.supervisor import RecoveryStats, SupervisorConfig

#: Exit code of a deterministically injected worker death (``os._exit``).
FAULT_EXIT_CODE = 86

#: The garbage bytes a corrupt-result fault writes instead of a pickled
#: :class:`ShardResult` — guaranteed not to unpickle.
CORRUPT_RESULT_PAYLOAD = b"corrupt shard result \xff\x00\xfe"


@dataclass
class ShardedRunResult:
    """The outcome of one sharded federation run."""

    n_workers: int
    #: ``"fork"`` or ``"inline"``.
    mode: str
    batches: int
    delivered: int
    rejected: int
    batch_rejects: int
    batch_rewrites: int
    #: Batches processed by each shard, in shard order.
    shard_batches: tuple[int, ...]
    #: Merged federation-state snapshot, shaped exactly like
    #: :func:`repro.shard.state.federation_state`.
    state: dict[str, Any]
    #: Per-shard attempt/failure/retry accounting: the supervisor's fork
    #: attempts in fork mode, one ``("inline", "ok")`` attempt per shard
    #: inline.
    recovery: "RecoveryStats"


def fork_available() -> bool:
    """Return ``True`` when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity/cgroup-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _deliver_batches(
    registry,
    batches: Sequence[FederationBatch],
    progress: Callable[[int], None] | None = None,
) -> tuple[FederationDelivery, int, int]:
    """Deliver one shard's batch slice through a private delivery engine.

    ``progress`` (when given) is called after every batch with the number
    of batches completed — the forked workers' heartbeat hook.
    """
    delivery = FederationDelivery(registry, sinks=[])
    delivered = rejected = 0
    for index, batch in enumerate(batches):
        batch_delivered, batch_rejected = delivery.deliver_batch_counted(
            batch.activities, batch.target_domain
        )
        delivered += batch_delivered
        rejected += batch_rejected
        if progress is not None:
            progress(index + 1)
    return delivery, delivered, rejected


def _execute_shard(
    registry, shard: int, n_shards: int, batches: Sequence[FederationBatch],
    progress: Callable[[int], None] | None = None,
) -> ShardResult:
    """Deliver one shard's slice and capture its owned instances' state.

    The single shard-execution body shared by the inline engine, the
    forked workers and the supervisor's inline fallback — each shard's
    slice is a pure deterministic function of the partition, so every
    caller produces the identical capture.
    """
    delivery, delivered, rejected = _deliver_batches(
        registry, batches, progress=progress
    )
    return capture_shard(
        shard,
        registry.shard_instances(shard, n_shards),
        delivery.stats,
        delivered,
        rejected,
        delivery.batch_rejects,
        delivery.batch_rewrites,
    )


def _shard_worker(
    shard: int,
    n_shards: int,
    registry,
    batches: Sequence[FederationBatch],
    out_conn,
    fault: str | None,
    heartbeat_seconds: float,
) -> None:
    """Worker-process body: deliver the inherited slice, send the capture.

    The registry and the batch slice are both inherited copy-on-write
    through ``fork``; the garbage collector is disabled so cycle
    collection never touches (and thereby copies) the parent's heap pages
    — the worker is short-lived and its whole heap dies with the process.

    ``fault`` (a :class:`~repro.faults.workers.WorkerFaultKind` value, or
    ``None``) scripts this attempt's death for the supervisor's
    fault-injection plans.  While delivering, the worker sends a
    ``("hb", batches_done)`` heartbeat at most every ``heartbeat_seconds``
    so the supervisor's deadline measures *inactivity*, not total runtime.
    """
    try:
        gc.disable()
        if fault == WorkerFaultKind.CRASH_EARLY.value:
            os._exit(FAULT_EXIT_CODE)
        if fault == WorkerFaultKind.HANG.value:
            while True:  # pragma: no cover - killed by the supervisor
                time.sleep(3600.0)
        if fault == WorkerFaultKind.CORRUPT.value:
            out_conn.send_bytes(CORRUPT_RESULT_PAYLOAD)
            os._exit(FAULT_EXIT_CODE)
        if fault == WorkerFaultKind.ERROR.value:
            raise RuntimeError(f"injected worker fault: shard {shard} error")

        last_beat = time.monotonic()

        def progress(done: int) -> None:
            nonlocal last_beat
            now = time.monotonic()
            if now - last_beat >= heartbeat_seconds:
                out_conn.send(("hb", done))
                last_beat = now

        result = _execute_shard(
            registry, shard, n_shards, batches, progress=progress
        )
        if fault == WorkerFaultKind.CRASH_LATE.value:
            os._exit(FAULT_EXIT_CODE)
        out_conn.send(("ok", result))
    except BaseException:  # noqa: BLE001 - report any worker death to the coordinator
        try:
            out_conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - coordinator already gone
            pass
    finally:
        try:
            out_conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def reap_process(
    process, grace_seconds: float = 30.0, escalation_seconds: float = 5.0
) -> None:
    """Tear a worker process down for certain, escalating as needed.

    ``join(grace)`` for the cooperative case, then ``terminate()``
    (SIGTERM) with a bounded join of ``escalation_seconds``, then
    ``kill()`` (SIGKILL) with a final bounded join — a worker that
    ignores SIGTERM can never leak past the run.  SIGKILL cannot be
    ignored, so the last join is certain to collect the process.
    """
    if grace_seconds > 0:
        process.join(timeout=grace_seconds)
    if process.is_alive():
        process.terminate()
        process.join(timeout=escalation_seconds)
    if process.is_alive():
        process.kill()
        process.join(timeout=escalation_seconds)


def _run_inline(
    registry, shards: list[list[FederationBatch]]
) -> list[ShardResult]:
    """Run every shard sequentially in the coordinator process."""
    n_shards = len(shards)
    return [
        _execute_shard(registry, shard, n_shards, batches)
        for shard, batches in enumerate(shards)
    ]


def federate_sharded(
    prepared: PreparedFediverse,
    work: Iterable[FederationBatch],
    n_workers: int,
    *,
    processes: bool | None = None,
    worker_faults: WorkerFaultPlan | None = None,
    supervisor: "SupervisorConfig | None" = None,
) -> ShardedRunResult:
    """Deliver a materialised batch stream through ``n_workers`` shards.

    ``processes=None`` (the default) forks workers when ``n_workers > 1``,
    the platform supports ``fork`` and more than one CPU is usable (a
    worker pool on a single-CPU host serialises anyway, so auto mode runs
    the same partitioned work inline rather than paying fork and pipe
    overhead for nothing); ``True``/``False`` force the respective mode.

    Fork mode runs the workers under the
    :class:`~repro.shard.supervisor.ShardSupervisor` (configured by
    ``supervisor``, fault-scripted by ``worker_faults``): inactivity
    deadlines, failure classification, deterministic shard re-execution.
    A non-inert fault plan needs real processes to kill, so it is rejected
    when the run resolves to inline mode.  Either way the result carries
    the run's :class:`~repro.shard.supervisor.RecoveryStats`.

    Returns the merged federation-state snapshot — in fork mode the
    coordinator's registry is left untouched (workers mutate
    copy-on-write copies), so the snapshot, not the live registry, is the
    run's delivered state.  (The supervisor's last-resort inline fallback
    delivers a failed shard in the coordinator; that shard's capture and
    the merge are unaffected, because the fallback executes the identical
    pure slice.)
    """
    from repro.shard.supervisor import RecoveryStats, ShardSupervisor

    n_workers = int(n_workers)
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    work = list(work)
    shards = partition_batches(work, n_workers)
    pairs = delivered_pairs(work)

    if processes is None:
        processes = n_workers > 1 and fork_available() and usable_cpus() > 1
    if processes and not fork_available():
        raise RuntimeError(
            "process-based sharding requires the fork start method; "
            "pass processes=False for the inline engine"
        )
    if (
        not processes
        and worker_faults is not None
        and not worker_faults.inert
    ):
        raise RuntimeError(
            "worker-fault injection needs forked workers to kill; "
            "pass processes=True (or drop the fault plan) for inline runs"
        )

    try:
        if processes:
            results, recovery = ShardSupervisor(
                config=supervisor, faults=worker_faults
            ).run(prepared.registry, shards)
            mode = "fork"
        else:
            results = _run_inline(prepared.registry, shards)
            recovery = RecoveryStats(n_shards=len(shards))
            for shard in range(len(shards)):
                recovery.record(shard, 0, "inline", "ok", 0.0)
            mode = "inline"
    finally:
        # The shared decision caches only pay off within one run, and
        # dropping them keeps delivered posts from outliving it.  Fork
        # mode needs this too: the workers' caches die with their
        # processes, but prepare()/materialisation (and the supervisor's
        # inline fallback) populate the *coordinator's* caches.
        from repro.mrf.shared import clear_shared_state

        clear_shared_state()

    state = merge_shard_results(prepared, results, pairs)
    return ShardedRunResult(
        n_workers=n_workers,
        mode=mode,
        batches=len(work),
        delivered=sum(result.delivered for result in results),
        rejected=sum(result.rejected for result in results),
        batch_rejects=sum(result.batch_rejects for result in results),
        batch_rewrites=sum(result.batch_rewrites for result in results),
        shard_batches=tuple(len(batches) for batches in shards),
        state=state,
        recovery=recovery,
    )


def run_sharded(
    config,
    n_workers: int,
    *,
    processes: bool | None = None,
    worker_faults: WorkerFaultPlan | None = None,
    supervisor: "SupervisorConfig | None" = None,
) -> tuple[PreparedFediverse, ShardedRunResult]:
    """Prepare a fediverse from ``config`` and federate it sharded.

    The end-to-end entry point (used by the ``xxlarge`` scenario): prepare
    is run once in the coordinator, the batch stream is materialised once,
    and the sharded engine does the delivery work.  Supervision arguments
    pass straight through to :func:`federate_sharded`.
    """
    generator = FediverseGenerator(config)
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))
    return prepared, federate_sharded(
        prepared,
        work,
        n_workers,
        processes=processes,
        worker_faults=worker_faults,
        supervisor=supervisor,
    )
