"""Campaign execution metrics: jobs, cache effectiveness, throughput.

:class:`ExecutionMetrics` is the scheduler's fold of its own lifecycle
records: a :class:`~repro.obs.state.CampaignState` that every
:class:`~repro.exec.scheduler.Scheduler` batch folds each record into as
it builds it — with observability on or off — so its totals are exactly
what folding the campaign's ``events.jsonl`` gives.  Artefact phases are
timed through the :meth:`ExecutionMetrics.phase` context manager.
``to_dict()`` / ``write()`` produce the machine-readable
``campaign_metrics.json``.

Its ``failures`` counts jobs given up on (from ``batch_finished``),
while ``repro stats`` counts failed attempts (``run_failed``): two views
of the same fold.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from repro.obs.state import CampaignState

METRICS_SCHEMA_VERSION = 1


class ExecutionMetrics(CampaignState):
    """Aggregated counters and wall times for one campaign."""

    def __init__(self) -> None:
        super().__init__()
        self._started = time.perf_counter()

    @contextmanager
    def phase(self, name: str):
        """Time one named campaign phase (artefact) in wall seconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.apply(
                {
                    "event": "phase_finished",
                    "name": name,
                    "wall_s": time.perf_counter() - start,
                }
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def retries(self) -> int:
        """Serial retries of failed jobs (``run_retried`` records)."""
        return self.total("retries")

    @property
    def timeouts(self) -> int:
        """Jobs the pool abandoned at its budget (``run_requeued`` records)."""
        return self.total("requeues")

    @property
    def phase_wall_s(self) -> dict[str, float]:
        return {
            name: p.wall_s
            for name, p in self.phases.items()
            if p.wall_s is not None
        }

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.jobs_total if self.jobs_total else 0.0

    @property
    def throughput_runs_per_s(self) -> float:
        """Executed (non-cached) simulations per second of execution wall."""
        if self.execution_wall_s <= 0.0:
            return 0.0
        return self.jobs_executed / self.execution_wall_s

    @property
    def total_wall_s(self) -> float:
        return time.perf_counter() - self._started

    def summary(self) -> str:
        """One human line for the progress callback."""
        return (
            f"{self.jobs_total} jobs ({self.cache_hits} cached, "
            f"hit rate {100.0 * self.hit_rate:.0f} %), "
            f"{self.throughput_runs_per_s:.2f} runs/s, "
            f"{self.total_wall_s:.1f} s wall"
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "jobs_total": self.jobs_total,
            "jobs_executed": self.jobs_executed,
            "cache_hits": self.cache_hits,
            "hit_rate": self.hit_rate,
            "dedup_waits": self.dedup_waits,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "execution_wall_s": self.execution_wall_s,
            "throughput_runs_per_s": self.throughput_runs_per_s,
            "total_wall_s": self.total_wall_s,
            "phase_wall_s": self.phase_wall_s,
        }

    def write(self, path: str | Path, *, extra: dict | None = None) -> Path:
        """Write ``campaign_metrics.json`` (plus optional extra sections)."""
        path = Path(path)
        payload = self.to_dict()
        if extra:
            payload.update(extra)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path
