"""Parallel experiment execution: specs, result store, scheduler, metrics.

The experiment layer (:mod:`repro.experiments`) describes *what* to
simulate; this package decides *how*.  Every figure point becomes a
:class:`RunSpec` — a frozen, content-hashed description of one
simulation — that a :class:`Scheduler` executes on a process pool (or
serially), consulting a persistent content-addressed :class:`ResultStore`
so that repeated campaigns only pay for what changed.  An
:class:`ExecutionMetrics` object — the fold of the scheduler's lifecycle
records — books jobs/hit-rate/throughput and per-phase wall time for
``campaign_metrics.json``.

:mod:`repro.exec.lifecycle` keeps the store healthy when it is shared
across many clients: lifetime counters, LRU eviction by file mtime under
``max_bytes`` / ``max_age`` budgets (never touching entries pinned by an
in-progress campaign's :class:`CampaignManifest`), :class:`SingleFlight`
claim files so concurrent schedulers never compute the same spec twice,
shard compaction, and an orphan sweep — surfaced as the
``repro-paper store stats|gc|compact|prune`` CLI verbs.
"""

from repro.exec.lifecycle import (
    CampaignManifest,
    CompactReport,
    GcReport,
    SingleFlight,
    StoreIndex,
    StoreReport,
    SweepReport,
    collect_garbage,
    compact_store,
    store_report,
    sweep_orphans,
)
from repro.exec.metrics import ExecutionMetrics
from repro.exec.scheduler import Scheduler, SchedulerError
from repro.exec.spec import CODE_VERSION, RunSpec
from repro.exec.store import STORE_SCHEMA_VERSION, ResultStore, StoreStats

__all__ = [
    "CODE_VERSION",
    "CampaignManifest",
    "CompactReport",
    "ExecutionMetrics",
    "GcReport",
    "ResultStore",
    "RunSpec",
    "STORE_SCHEMA_VERSION",
    "Scheduler",
    "SchedulerError",
    "SingleFlight",
    "StoreIndex",
    "StoreReport",
    "StoreStats",
    "SweepReport",
    "collect_garbage",
    "compact_store",
    "store_report",
    "sweep_orphans",
]
