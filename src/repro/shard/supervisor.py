"""Supervised shard execution: worker fault tolerance with exact recovery.

The :class:`ShardSupervisor` is the sharded engine's only fork runner.  It
forks one worker per shard — each inheriting the prepared registry and its
own batch slice copy-on-write, so nothing is shipped to a worker — and
collects one :class:`~repro.shard.state.ShardResult` per shard without
trusting any worker to finish:

* **Deadlines, not blocking reads.**  The coordinator polls each shard's
  result pipe; workers send periodic ``("hb", batches_done)`` heartbeats,
  so the deadline measures *inactivity* — a shard may run arbitrarily
  long as long as it keeps making progress, while a hung worker trips the
  deadline no matter how much work remains.
* **Failure classification.**  Every way a worker can fail maps to one of
  four kinds: ``error`` (the worker caught an exception and reported a
  clean traceback), ``eof`` (the process died — crash, ``os._exit``,
  SIGKILL — and the pipe closed), ``deadline`` (no message within the
  inactivity deadline) and ``corrupt`` (the result bytes did not unpickle
  into the shard's :class:`~repro.shard.state.ShardResult`).
* **Deterministic re-execution.**  Each shard's batch slice is a pure
  function of the partition, and a dead worker's mutations die with its
  copy-on-write heap — the coordinator never mutates its slices or its
  registry while workers run, so a retry fork inherits the same pristine
  slice.  A failed shard is therefore simply run again: first in fresh
  forked workers (bounded retries, each with an escalated deadline),
  finally inline in the coordinator, which cannot fail the same way.
  Whatever the attempt history, the shard's capture — and hence the
  merged state — is bit-identical to a fault-free run.

Fault injection rides in through a
:class:`~repro.faults.workers.WorkerFaultPlan`: the supervisor asks the
plan which death to script for each (shard, attempt) and passes it to the
worker body, the same pattern :class:`~repro.faults.injector.FaultInjector`
uses to wrap the API server.  :class:`RecoveryStats` records every
attempt (shard, attempt index, execution mode, outcome, wall-clock) for
the ``shard_chaos`` bench stage and the tests.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.faults.workers import WorkerFaultPlan
from repro.shard import engine
from repro.shard.state import ShardResult, valid_shard_result

#: Classified worker-failure kinds (the ``outcome`` values of a failed
#: :class:`ShardAttempt`; successful attempts record ``"ok"``).
FAILURE_KINDS = ("error", "eof", "deadline", "corrupt")


@dataclass(frozen=True)
class SupervisorConfig:
    """The supervision knobs.

    ``deadline_seconds`` bounds worker *inactivity*, not total runtime:
    any message (heartbeat or result) resets the clock, and workers beat
    every ``heartbeat_seconds`` while delivering.  Each forked retry
    multiplies the deadline by ``deadline_multiplier`` — a shard that
    genuinely needs longer gets longer before the coordinator gives up on
    forks entirely.  ``max_worker_attempts`` forked attempts are made per
    shard before the inline fallback (which cannot hang or crash the
    coordinator's merge).
    """

    #: Inactivity deadline of a worker's first attempt, in wall seconds.
    deadline_seconds: float = 30.0
    #: Deadline escalation factor per forked retry.
    deadline_multiplier: float = 2.0
    #: Forked attempts per shard (first try included) before inline.
    max_worker_attempts: int = 2
    #: Poll granularity of the supervision loop.
    poll_seconds: float = 0.05
    #: Interval between worker heartbeats while delivering.
    heartbeat_seconds: float = 0.25
    #: Grace given to a *successful* worker to exit on its own before the
    #: terminate/kill escalation (failed workers are torn down at once).
    join_grace_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        if self.deadline_multiplier < 1.0:
            raise ValueError("deadline_multiplier must be at least 1")
        if self.max_worker_attempts < 1:
            raise ValueError("max_worker_attempts must be at least 1")
        if self.poll_seconds <= 0:
            raise ValueError("poll_seconds must be positive")
        if self.heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be positive")

    def deadline_for(self, attempt: int) -> float:
        """Return the inactivity deadline of forked attempt ``attempt``."""
        return self.deadline_seconds * self.deadline_multiplier**attempt


@dataclass(frozen=True)
class ShardAttempt:
    """One delivery attempt of one shard, as the supervisor saw it."""

    shard: int
    #: 0-based attempt index (0 = the initial worker).
    attempt: int
    #: ``"fork"`` or ``"inline"``.
    mode: str
    #: ``"ok"`` or a failure kind from :data:`FAILURE_KINDS`.
    outcome: str
    elapsed_seconds: float
    #: Failure detail (traceback snippet / exception repr), ``""`` on ok.
    detail: str = ""


@dataclass
class RecoveryStats:
    """Everything a supervised run did to survive its workers.

    Plain dataclasses throughout, so the stats ride inside
    :class:`~repro.shard.engine.ShardedRunResult` and pickle cleanly.
    """

    n_shards: int = 0
    attempts: list[ShardAttempt] = field(default_factory=list)

    def record(
        self,
        shard: int,
        attempt: int,
        mode: str,
        outcome: str,
        elapsed_seconds: float,
        detail: str = "",
    ) -> None:
        """Append one attempt record."""
        self.attempts.append(
            ShardAttempt(
                shard=shard,
                attempt=attempt,
                mode=mode,
                outcome=outcome,
                elapsed_seconds=elapsed_seconds,
                detail=detail,
            )
        )

    def shard_attempts(self, shard: int) -> tuple[ShardAttempt, ...]:
        """Return ``shard``'s attempts in execution order."""
        return tuple(a for a in self.attempts if a.shard == shard)

    @property
    def retries(self) -> int:
        """Attempts beyond each shard's first (fork retries + fallbacks)."""
        return sum(1 for a in self.attempts if a.attempt > 0)

    @property
    def failures(self) -> dict[str, int]:
        """Failed attempts by classified kind."""
        counts: dict[str, int] = {}
        for a in self.attempts:
            if a.outcome != "ok":
                counts[a.outcome] = counts.get(a.outcome, 0) + 1
        return counts

    @property
    def failed_shards(self) -> tuple[int, ...]:
        """Shards whose first attempt did not succeed, ascending."""
        return tuple(
            sorted({a.shard for a in self.attempts if a.outcome != "ok"})
        )

    @property
    def recovered_shards(self) -> tuple[int, ...]:
        """Failed shards that a later attempt completed, ascending."""
        ok = {a.shard for a in self.attempts if a.outcome == "ok"}
        return tuple(s for s in self.failed_shards if s in ok)

    @property
    def inline_fallbacks(self) -> int:
        """Shards the supervisor had to re-execute in the coordinator."""
        return sum(
            1 for a in self.attempts if a.mode == "inline" and a.attempt > 0
        )

    @property
    def retry_seconds(self) -> float:
        """Wall-clock spent on attempts beyond each shard's first —
        the run's recovery overhead (failed first attempts are part of
        the run either way; everything after them is the price of the
        faults)."""
        return sum(a.elapsed_seconds for a in self.attempts if a.attempt > 0)


@dataclass
class _Worker:
    """One live forked worker and the coordinator's end of its result pipe."""

    process: object
    out_recv: object


class ShardSupervisor:
    """Run forked shard workers under deadlines, retries and a fallback."""

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        faults: WorkerFaultPlan | None = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.faults = faults

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(
        self, registry, shard: int, n_shards: int, batches: Sequence, attempt: int
    ) -> _Worker:
        """Fork one worker for ``shard``'s ``attempt``, fault-scripted.

        The registry and the batch slice are ``Process`` arguments, which
        the ``fork`` start method hands to the child by inheritance — no
        pickling, no input pipe.
        """
        ctx = multiprocessing.get_context("fork")
        fault = None
        if self.faults is not None:
            kind = self.faults.fault_for(shard, attempt)
            fault = kind.value if kind is not None else None
        out_recv, out_send = ctx.Pipe(duplex=False)
        # Freeze the heap into the permanent generation around the fork:
        # the parent keeps collecting while workers run, and unfrozen
        # objects would be re-examined (and their pages copied) in every
        # child.
        gc.freeze()
        try:
            process = ctx.Process(
                target=engine._shard_worker,
                args=(
                    shard,
                    n_shards,
                    registry,
                    batches,
                    out_send,
                    fault,
                    self.config.heartbeat_seconds,
                ),
                daemon=True,
            )
            process.start()
        finally:
            gc.unfreeze()
        # Close the child's end in the coordinator so a dead worker
        # surfaces as EOF instead of a silent hang.
        out_send.close()
        return _Worker(process=process, out_recv=out_recv)

    def _reap(self, worker: _Worker, graceful: bool) -> None:
        """Tear a worker down; failed workers get no exit grace."""
        try:
            worker.out_recv.close()
        except OSError:  # pragma: no cover - already closed
            pass
        engine.reap_process(
            worker.process,
            grace_seconds=self.config.join_grace_seconds if graceful else 0.0,
        )

    # ------------------------------------------------------------------ #
    # Supervision
    # ------------------------------------------------------------------ #
    def _await_result(
        self, worker: _Worker, shard: int, deadline_seconds: float
    ) -> tuple[str, object]:
        """Poll one worker until a classified outcome.

        Returns ``("ok", ShardResult)`` or ``(failure_kind, detail)``.
        The inactivity clock resets on every message received.
        """
        config = self.config
        last_activity = time.monotonic()
        while True:
            remaining = deadline_seconds - (time.monotonic() - last_activity)
            if remaining <= 0:
                return (
                    "deadline",
                    f"no activity for {deadline_seconds:g}s",
                )
            try:
                ready = worker.out_recv.poll(min(config.poll_seconds, remaining))
            except OSError as exc:  # pragma: no cover - defensive
                return "eof", repr(exc)
            if not ready:
                continue
            try:
                message = worker.out_recv.recv()
            except EOFError:
                return "eof", "worker exited without sending a result"
            except Exception as exc:  # noqa: BLE001 - any unpickling garbage
                return "corrupt", f"result did not unpickle: {exc!r}"
            if not (isinstance(message, tuple) and len(message) == 2):
                return "corrupt", f"malformed message: {message!r}"
            tag, payload = message
            if tag == "hb":
                last_activity = time.monotonic()
                continue
            if tag == "ok":
                if not valid_shard_result(payload, shard):
                    return (
                        "corrupt",
                        f"payload is not shard {shard}'s result: {payload!r}",
                    )
                return "ok", payload
            if tag == "error":
                return "error", str(payload)
            return "corrupt", f"unknown message tag: {tag!r}"

    def _supervise_shard(
        self,
        registry,
        shard: int,
        n_shards: int,
        batches: Sequence,
        worker: _Worker,
        stats: RecoveryStats,
    ) -> ShardResult:
        """Drive one shard to a capture: deadline, retries, fallback."""
        config = self.config
        attempt = 0
        try:
            while True:
                start = time.monotonic()
                outcome, payload = self._await_result(
                    worker, shard, config.deadline_for(attempt)
                )
                elapsed = time.monotonic() - start
                self._reap(worker, graceful=outcome == "ok")
                if outcome == "ok":
                    stats.record(shard, attempt, "fork", "ok", elapsed)
                    return payload
                stats.record(
                    shard, attempt, "fork", outcome, elapsed, detail=str(payload)
                )
                attempt += 1
                if attempt >= config.max_worker_attempts:
                    break
                # Fresh fork off the coordinator's untouched registry and
                # slice — the dead worker's partial mutations died with
                # its heap.
                worker = self._spawn(registry, shard, n_shards, batches, attempt)
        finally:
            # A retry worker is this frame's alone: leave none behind when
            # supervision itself raises (e.g. KeyboardInterrupt mid-await).
            # Reaping is idempotent, so the normal path pays nothing.
            self._reap(worker, graceful=False)

        # Last resort: re-execute the pure slice inline.  The coordinator
        # mutates only this shard's owned instances, which no surviving
        # worker captures, so the merge stays exact.
        start = time.monotonic()
        result = engine._execute_shard(registry, shard, n_shards, batches)
        stats.record(
            shard, attempt, "inline", "ok", time.monotonic() - start
        )
        return result

    def run(
        self, registry, shards: list[list]
    ) -> tuple[list[ShardResult], RecoveryStats]:
        """Run every shard to completion; return captures in shard order.

        All first-attempt workers are forked up front, so they deliver
        concurrently; the shards are then supervised in index order.  A
        shard that fails retries immediately — later shards' workers keep
        running meanwhile and are drained when their turn comes.
        """
        n_shards = len(shards)
        stats = RecoveryStats(n_shards=n_shards)
        workers: list[_Worker] = []
        results: list[ShardResult] = []
        try:
            for shard, batches in enumerate(shards):
                workers.append(
                    self._spawn(registry, shard, n_shards, batches, attempt=0)
                )
            for shard, worker in enumerate(workers):
                results.append(
                    self._supervise_shard(
                        registry, shard, n_shards, shards[shard], worker, stats
                    )
                )
        finally:
            # On an unexpected coordinator error, leave no child behind
            # and no pipe end open.
            for worker in workers:
                self._reap(worker, graceful=False)
        return results, stats
