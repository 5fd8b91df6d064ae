"""Batch scheduler: execute RunSpecs on a process pool, through the store.

The scheduler turns a list of :class:`~repro.exec.spec.RunSpec` jobs into
results, in order, with five behaviours layered on top of plain execution:

1. **Store first** — every spec is looked up in the (optional)
   :class:`~repro.exec.store.ResultStore`; only misses are executed, and
   fresh results are persisted as they arrive.
2. **Deduplication** — identical specs in one batch are executed once and
   fanned out to every requesting slot.
3. **Parallelism** — misses run on a ``ProcessPoolExecutor`` with a
   configurable worker count and an optional per-job timeout.  Runs are
   seed-deterministic, so parallel results are bit-identical to serial.
4. **Resilience** — a pool that cannot start (sandboxed /dev/shm, missing
   semaphores) degrades to serial execution.  Jobs whose worker raised
   are retried serially, a bounded number of times, before the batch
   fails.  Jobs the pool *abandoned* at the batch timeout never produced
   a result anywhere, so they get one serial first-execution pass that is
   accounted as a timeout, not a retry — the same job is never counted
   in both buckets (the event log mirrors this: abandoned jobs emit
   ``run_requeued``, failed jobs emit ``run_retried``).  The abandoned
   pool is shut down with ``cancel_futures=True`` so queued work never
   runs behind our back.
5. **One book** — every run start / finish / failure / retry / requeue /
   timeout / cache hit and every batch end is one lifecycle record, built
   once by :meth:`Scheduler.event`: it is always folded into the
   campaign's :class:`~repro.exec.metrics.ExecutionMetrics`, and with
   :mod:`repro.obs` enabled it is also appended to the campaign event log
   (run records then carry worker pid, wall/CPU time and peak RSS
   measured in the worker), and the pool wait loop emits periodic
   heartbeats naming straggler jobs.
6. **Store lifecycle** (:mod:`repro.exec.lifecycle`) — when a store is
   attached, each batch pins every spec hash it references in a
   :class:`~repro.exec.lifecycle.CampaignManifest` (so a concurrent
   ``repro store gc`` never evicts entries under an in-progress
   campaign), and misses go through
   :class:`~repro.exec.lifecycle.SingleFlight` claim files: if another
   scheduler — any process on this machine — is already computing the
   same spec hash, this one waits and reads the committed result instead
   of duplicating the work.  DC solves also persist next to the store
   (:mod:`repro.circuits.sidecar`), so fresh processes skip the relaxation.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from repro import obs as _obs
from repro.circuits import sidecar as _sidecar
from repro.obs import metrics as _metrics
from repro.obs import timeseries as _ts
from repro.exec.lifecycle import CampaignManifest, SingleFlight
from repro.exec.metrics import ExecutionMetrics
from repro.exec.spec import RunSpec
from repro.exec.store import ResultStore
from repro.leakctl.energy import NetSavingsResult

try:  # POSIX only; telemetry degrades gracefully without it
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

HEARTBEAT_S = 30.0
"""Interval of the straggler heartbeat emitted to the observability event
log while the pool is draining; read at call time."""


class SchedulerError(RuntimeError):
    """A job kept failing after every retry."""


class _Batch:
    """The working set of one :meth:`Scheduler.run` call."""

    __slots__ = (
        "specs", "keys", "results", "note", "observed",
        "executed", "dedup_waits", "failures",
    )

    def __init__(self, specs, keys, note, observed) -> None:
        self.specs: Sequence[RunSpec] = specs
        self.keys: list[str] = keys
        self.results: list[NetSavingsResult | None] = [None] * len(specs)
        self.note: Callable[[str], None] = note
        self.observed: bool = observed
        #: Executions that produced a result (one run_finished each).
        self.executed = 0
        #: Misses served by another process's single-flight claim.
        self.dedup_waits = 0
        #: Jobs given up on after every retry.
        self.failures = 0


def execute_spec(spec: RunSpec) -> NetSavingsResult:
    """Process-pool entry point: run one spec (module-level, picklable)."""
    return spec.execute()


def execute_spec_observed(spec: RunSpec) -> tuple[NetSavingsResult, dict]:
    """Pool entry point with telemetry: ``(result, meta)``.

    ``meta`` carries the worker pid, wall and CPU seconds, and the
    worker's peak RSS in kB — measured *in the worker* and shipped back
    with the result, so the coordinating process can log it without any
    cross-process event plumbing.  If the run published a time-series
    recorder (see :mod:`repro.obs.timeseries`), its serialised payload
    rides along under ``meta["timeseries"]`` — in the metadata, never in
    the result, so results stay bit-identical with obs on or off.  The
    execution itself is untouched.
    """
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    result = spec.execute()
    meta = {
        "worker": os.getpid(),
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "max_rss_kb": (
            float(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
            if _resource is not None
            else 0.0
        ),
    }
    recorder = _ts.take_published()
    if recorder is not None and len(recorder):
        meta["timeseries"] = recorder.to_payload()
    return result, meta


class Scheduler:
    """Executes batches of RunSpecs; serial by default, parallel on demand.

    Args:
        max_workers: Process count.  1 (default) never forks — the whole
            batch runs in-process, which is also the fallback path.
        store: Optional persistent result store consulted before and
            updated after every execution.
        timeout_s: Per-job budget; must be positive.  A batch whose
            stragglers exceed the aggregate budget (``timeout_s * jobs``)
            abandons the pool (cancelling everything still queued) and
            runs the abandoned jobs serially.
        retries: How many serial retry rounds a *failed* job gets.
        metrics: Optional campaign-wide fold of every lifecycle record.
        progress: Default progress callback for :meth:`run` (a per-call
            callback overrides it).
        single_flight: Cross-process dedup via claim files (default on;
            no effect without a store).  Disable only for stores on
            filesystems where exclusive-create is unreliable.
    """

    def __init__(
        self,
        max_workers: int = 1,
        *,
        store: ResultStore | None = None,
        timeout_s: float | None = None,
        retries: int = 2,
        metrics: ExecutionMetrics | None = None,
        progress: Callable[[str], None] | None = None,
        single_flight: bool = True,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout_s is not None and not timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.max_workers = max_workers
        self.store = store
        self.timeout_s = timeout_s
        self.retries = retries
        self.metrics = metrics
        self.progress = progress
        self.single_flight = single_flight

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def event(self, kind: str, **fields: Any) -> None:
        """Book one lifecycle record: fold it into :attr:`metrics` and, with
        observability on, append it to the campaign event log."""
        if self.metrics is not None:
            self.metrics.apply({"event": kind, **fields})
        _obs.emit(kind, **fields)

    def run(
        self,
        specs: Sequence[RunSpec],
        progress: Callable[[str], None] | None = None,
    ) -> list[NetSavingsResult]:
        """Execute ``specs``; returns results in the same order.

        Equivalent to calling ``spec.execute()`` in a loop (runs are
        deterministic), but cached, deduplicated, and parallel.  The
        batch's ``batch_finished`` record is booked even when a job fails
        for good and :class:`SchedulerError` propagates.  With a store,
        DC solves read and fill its sidecar (:mod:`repro.circuits.sidecar`)
        here and in every pool worker.
        """
        root = self.store.root if self.store is not None else None
        with _sidecar.attached(root):
            return self._run(specs, progress)

    def _run(
        self,
        specs: Sequence[RunSpec],
        progress: Callable[[str], None] | None,
    ) -> list[NetSavingsResult]:
        start = time.perf_counter()
        if progress is None:
            progress = self.progress
        note = progress if progress is not None else (lambda _msg: None)
        batch = _Batch(
            specs, [spec.content_hash() for spec in specs], note,
            _obs.is_enabled(),
        )
        results = batch.results

        # Store lookups + in-batch dedup: map each unique missing hash to
        # every slot that wants it.
        pending: dict[str, list[int]] = {}
        cache_hits = 0
        try:
            for i, (spec, key) in enumerate(zip(specs, batch.keys)):
                if key in pending:
                    pending[key].append(i)
                    continue
                cached = (
                    self.store.get(spec) if self.store is not None else None
                )
                if cached is not None:
                    results[i] = cached
                    cache_hits += 1
                    self.event("cache_hit", spec=key, slot=i, source="store")
                else:
                    pending[key] = [i]
            self._execute_misses(batch, pending)
            for key, slots in pending.items():
                for i in slots[1:]:
                    results[i] = results[slots[0]]
                    cache_hits += 1
                    self.event("cache_hit", spec=key, slot=i, source="batch")
        finally:
            wall = time.perf_counter() - start
            self.event(
                "batch_finished",
                jobs=len(specs),
                cache_hits=cache_hits,
                executed=batch.executed,
                dedup_waits=batch.dedup_waits,
                failures=batch.failures,
                wall_s=wall,
            )
            if len(specs) > 1:
                rate = batch.executed / wall if wall > 0 else 0.0
                waits = batch.dedup_waits
                deduped = f", {waits} deduped" if waits else ""
                note(
                    f"batch: {len(specs)} jobs, {cache_hits} cached{deduped}, "
                    f"{batch.executed} executed in {wall:.1f} s "
                    f"({rate:.2f} runs/s)"
                )
            log_path = _obs.log_path() if batch.observed else None
            if log_path:
                _metrics.write_registry_snapshot(Path(log_path).parent)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------

    def _execute_misses(
        self, batch: _Batch, pending: dict[str, list[int]]
    ) -> None:
        """Execute every store miss once, or wait on another process's."""
        specs, keys = batch.specs, list(pending)
        manifest: CampaignManifest | None = None
        claims: SingleFlight | None = None
        foreign: list[str] = []
        if self.store is not None:
            # Pin every referenced hash (hits included) for the duration
            # of the batch: a concurrent `repro store gc` must never
            # evict under an in-progress campaign.
            manifest = CampaignManifest(self.store.root, label="scheduler")
            manifest.add(batch.keys)
            if pending and self.single_flight:
                claims = SingleFlight(self.store)
                foreign = [key for key in keys if not claims.try_claim(key)]
        try:
            foreign_set = set(foreign)
            todo = [
                pending[key][0] for key in keys if key not in foreign_set
            ]
            if todo:
                with _obs.span("scheduler.execute"):
                    self._execute_pending(batch, todo)
            for key in foreign:
                # Another process claimed this hash first: wait for its
                # committed result instead of duplicating the work.  A
                # vanished or wedged holder hands the claim (and the
                # computation) back to us.
                slot = pending[key][0]
                got = claims.wait_for(
                    specs[slot], key, timeout_s=self.timeout_s
                )
                if got is not None:
                    batch.results[slot] = got
                    batch.dedup_waits += 1
                    self.event(
                        "cache_hit", spec=key, slot=slot,
                        source="single-flight",
                    )
                else:
                    batch.note(
                        f"single-flight holder for {key[:16]} vanished; "
                        f"computing locally"
                    )
                    with _obs.span("scheduler.execute"):
                        self._execute_pending(batch, [slot])
        finally:
            if claims is not None:
                claims.release_all()
            if manifest is not None:
                manifest.close()
            if self.store is not None:
                self.store.flush_index()

    def _execute_pending(self, batch: _Batch, todo: list[int]) -> None:
        """Run every slot in ``todo``, with serial retries on failure."""
        if self.max_workers > 1 and len(todo) > 1:
            failed, abandoned = self._run_pool(batch, todo)
        else:
            failed = self._run_serial(batch, todo)
            abandoned = []
        if abandoned:
            # Abandoned jobs never produced a result anywhere (their
            # futures were cancelled or their workers outlived the
            # budget), so this serial pass is their *first* execution:
            # booked as ``run_requeued`` (ExecutionMetrics.timeouts), never
            # as ``run_retried``, so the same job is not double-counted
            # across the retry rounds below.
            batch.note(
                f"re-running {len(abandoned)} abandoned job(s) serially"
            )
            for i in abandoned:
                self.event(
                    "run_requeued", spec=batch.keys[i], slot=i,
                    reason="pool timeout",
                )
            failed.extend(self._run_serial(batch, abandoned))
        for attempt in range(self.retries):
            if not failed:
                break
            batch.note(
                f"retrying {len(failed)} failed job(s) serially "
                f"(attempt {attempt + 1}/{self.retries})"
            )
            for i, exc in failed:
                self.event(
                    "run_retried", spec=batch.keys[i], slot=i,
                    attempt=attempt + 1, reason=repr(exc),
                )
            failed = self._run_serial(batch, [i for i, _exc in failed])
        if failed:
            batch.failures += len(failed)
            slots = [i for i, _exc in failed]
            raise SchedulerError(
                f"{len(failed)} job(s) failed after {self.retries} "
                f"retries: slots {slots}, first spec {batch.specs[slots[0]]}"
            ) from failed[0][1]

    def _settle(
        self,
        batch: _Batch,
        i: int,
        outcome: Callable[[], Any],
        failed: list[tuple[int, BaseException]],
    ) -> bool:
        """The one completion handler, serial and pool alike.

        ``outcome`` yields the execution's return value or raises its
        error.  A failure is booked and queued for retry; a result is
        booked (with its worker telemetry and time series when observed)
        and committed to the store.  Returns whether a result arrived.
        """
        key = batch.keys[i]
        try:
            value = outcome()
        except Exception as exc:
            # Keep the error (retries, the final SchedulerError) but drop
            # its frames' locals: a frame <-> ``failed`` cycle would pin
            # the failed run's whole cache model until a full collection.
            traceback.clear_frames(exc.__traceback__)
            failed.append((i, exc))
            self.event("run_failed", spec=key, slot=i, error=repr(exc))
            return False
        meta: dict[str, Any] = {}
        if batch.observed:
            value, meta = value
            series = meta.pop("timeseries", None)
            if series:
                _obs.emit_series(spec=key, payload=series)
        self.event("run_finished", spec=key, slot=i, **meta)
        batch.results[i] = value
        if self.store is not None:
            self.store.put(batch.specs[i], value)
        batch.executed += 1
        return True

    @staticmethod
    def _progress(batch: _Batch, done: int, total: int) -> None:
        step = max(1, total // 8)
        if total > 1 and (done % step == 0 or done == total):
            batch.note(f"  jobs {done}/{total} done")

    def _run_serial(
        self, batch: _Batch, todo: list[int]
    ) -> list[tuple[int, BaseException]]:
        entry = execute_spec_observed if batch.observed else execute_spec
        failed: list[tuple[int, BaseException]] = []
        for n, i in enumerate(todo, start=1):
            self.event("run_started", spec=batch.keys[i], slot=i, pool=False)
            if self._settle(batch, i, partial(entry, batch.specs[i]), failed):
                self._progress(batch, n, len(todo))
        return failed

    def _run_pool(
        self, batch: _Batch, todo: list[int]
    ) -> tuple[list[tuple[int, BaseException]], list[int]]:
        """Pool execution; returns ``(failed, abandoned_slots)``."""
        try:
            # Workers attach the store's DC-solve sidecar themselves, so
            # they read it whatever the start method.
            worker_init = {} if self.store is None else {
                "initializer": _sidecar.attach_store,
                "initargs": (str(self.store.root),),
            }
            executor = ProcessPoolExecutor(
                max_workers=self.max_workers, **worker_init
            )
        except (OSError, ValueError, ImportError) as exc:
            batch.note(f"process pool unavailable ({exc!r}); running serially")
            return self._run_serial(batch, todo), []
        observed = batch.observed
        entry = execute_spec_observed if observed else execute_spec
        failed: list[tuple[int, BaseException]] = []
        abandoned: list[int] = []
        done_count = 0
        start = time.monotonic()
        budget = None if self.timeout_s is None else self.timeout_s * len(todo)
        deadline = None if budget is None else start + budget
        wait_at_shutdown = True
        try:
            futures = {
                executor.submit(entry, batch.specs[i]): i for i in todo
            }
            for i in todo:
                self.event("run_started", spec=batch.keys[i], slot=i, pool=True)
            pending = set(futures)
            last_progress = start
            last_beat = start
            while pending:
                timeout = HEARTBEAT_S if observed else None
                if deadline is not None:
                    remaining = max(deadline - time.monotonic(), 0.0)
                    timeout = (
                        remaining if timeout is None
                        else min(timeout, remaining)
                    )
                finished, pending = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    i = futures.pop(future)
                    if self._settle(batch, i, future.result, failed):
                        done_count += 1
                        self._progress(batch, done_count, len(todo))
                now = time.monotonic()
                if finished:
                    last_progress = now
                if pending and deadline is not None and now >= deadline:
                    # Stragglers blew the batch budget: abandon the pool
                    # (cancelling everything still queued, not waiting on
                    # possibly-wedged workers) and hand the outstanding
                    # slots back for one serial pass.
                    abandoned = sorted(futures[f] for f in pending)
                    batch.note(
                        f"pool budget of {budget:.0f} s exhausted with "
                        f"{len(abandoned)} job(s) outstanding; "
                        f"re-running serially"
                    )
                    for i in abandoned:
                        self.event(
                            "run_timeout", spec=batch.keys[i], slot=i,
                            budget_s=budget,
                        )
                    wait_at_shutdown = False
                    break
                if (
                    pending
                    and observed
                    and (not finished or now - last_beat >= HEARTBEAT_S)
                ):
                    # Periodic progress beat: fires when nothing completed
                    # for a whole interval (the straggler case) and at
                    # least once per interval while the pool is draining,
                    # so a live tailer always has a recent done/total
                    # picture even between run events.
                    self.event(
                        "heartbeat",
                        outstanding=[
                            batch.keys[futures[f]][:16] for f in pending
                        ],
                        done=done_count,
                        total=len(todo),
                        in_flight=len(pending),
                        elapsed_s=now - start,
                        stalled_s=now - last_progress,
                    )
                    last_beat = now
        except BaseException:
            wait_at_shutdown = False
            raise
        finally:
            executor.shutdown(wait=wait_at_shutdown, cancel_futures=True)
        return failed, abandoned
