"""The campaign fold: one event stream in, every campaign view out.

:meth:`CampaignState.apply` folds lifecycle records, one at a time,
into everything the campaign's views read: the per-phase
:class:`PhaseSummary` roll-up and event totals (``repro stats`` /
``trace`` / ``diff``, ``report.html``); the scheduler's books from
``batch_finished`` records, which
:class:`~repro.exec.metrics.ExecutionMetrics` (a subclass) writes to
``campaign_metrics.json``; the distributions behind ``metrics.prom``
(:mod:`repro.obs.metrics`); and live progress for ``repro watch`` /
``live.html`` — runs in flight, EWMAs of run wall time and completion
rate with the ETA they imply, liveness, and anomaly flags (stragglers,
error rate, and a stall: no events, writer pid dead, no terminal event).

The scheduler folds each record as it builds it, the event log folds
each record it writes, and the offline views fold ``events.jsonl`` —
the same records through the same :meth:`~CampaignState.apply`, so the
books cannot disagree.  The fold is pure (no filesystem access) and
bounded: the only per-run state is the runs in flight and a
:data:`SLOWEST_N`-entry heap.  :class:`CampaignMonitor` pairs it with a
:class:`~repro.obs.tail.JsonlTailer` and resets on log rotation.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.fsio import pid_alive
from repro.obs.tail import JsonlTailer

__all__ = [
    "Anomaly",
    "BATCH_WALL_BUCKETS",
    "Buckets",
    "CampaignMonitor",
    "CampaignState",
    "EVENTS_FILENAME",
    "PhaseSummary",
    "RUN_EVENTS",
    "RUN_WALL_BUCKETS",
    "STATE_SCHEMA_VERSION",
    "events_path",
]

STATE_SCHEMA_VERSION = 1

EVENTS_FILENAME = "events.jsonl"

#: Per-run event kinds, booked under the phase they fired in.
RUN_EVENTS = (
    "run_started",
    "run_finished",
    "run_failed",
    "run_retried",
    "run_requeued",
    "run_timeout",
    "cache_hit",
    "heartbeat",
)

#: Upper bounds (seconds) of the run / batch wall-time distributions.
RUN_WALL_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)
BATCH_WALL_BUCKETS = (0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0)

#: Slowest finished runs retained for the stats view.
SLOWEST_N = 5

#: EWMA smoothing factor for run wall time and completion rate.
EWMA_ALPHA = 0.25

#: An in-flight run this many times the EWMA wall is a straggler ...
STRAGGLER_FACTOR = 4.0
#: ... but never before this many absolute seconds.
STRAGGLER_MIN_S = 10.0

#: Error-rate anomaly: at least this many failures and ...
ERROR_MIN_FAILURES = 3
#: ... failures making up more than this fraction of settled runs.
ERROR_RATE = 0.2

#: No events for this long + a dead writer pid = stalled campaign.
STALL_AFTER_S = 60.0


def events_path(campaign: str | Path) -> Path:
    """The event log a campaign path names (it need not exist yet).

    An existing file, or a path named like a JSONL log, is the log itself
    (``results/events.jsonl.1`` included); anything else is a campaign
    directory holding ``events.jsonl``.
    """
    path = Path(campaign)
    if path.is_file() or (not path.is_dir() and ".jsonl" in path.name):
        return path
    return path / EVENTS_FILENAME


@dataclass(frozen=True)
class Anomaly:
    """One flagged condition (kind: ``straggler``/``errors``/``stall``)."""

    kind: str
    detail: str


@dataclass
class PhaseSummary:
    """Per-phase roll-up of the run events that fired inside it."""

    name: str
    runs_started: int = 0
    runs_finished: int = 0
    failures: int = 0
    retries: int = 0
    requeues: int = 0
    timeouts: int = 0
    cache_hits: int = 0
    run_wall_s: float = 0.0
    run_cpu_s: float = 0.0
    wall_s: float | None = None  # from phase_finished, if present


class Buckets:
    """Cumulative bucket counts, sum and count of observed values."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * len(self.bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
        self.sum += value
        self.count += 1


def _num(record: dict[str, Any], key: str) -> float:
    return float(record.get(key) or 0.0)


def _ewma(previous: float | None, value: float) -> float:
    if previous is None:
        return value
    return EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * previous


class CampaignState:
    """The event-stream fold behind every campaign view."""

    def __init__(self) -> None:
        # Per-phase roll-up and campaign-wide event facts.
        self.phases: dict[str, PhaseSummary] = {}
        self.events_total = 0
        self.heartbeats = 0
        self.max_rss_kb = 0.0
        self.counters: dict[str, float] = {}
        self.spans: dict[str, dict[str, Any]] = {}
        # Min-heap of (wall_s, -order, record): the smallest survivor is
        # evicted first, and among equal walls the later arrival goes, so
        # the top SLOWEST_N match a stable descending sort of the log.
        self._slowest: list[tuple[float, int, dict[str, Any]]] = []
        # The scheduler's books, one batch_finished record at a time.
        self.batches = 0
        self.jobs_total = 0
        self.jobs_executed = 0
        self.cache_hits = 0
        self.dedup_waits = 0
        self.failures = 0
        self.execution_wall_s = 0.0
        # Distributions for the metrics snapshot.
        self.run_wall = Buckets(RUN_WALL_BUCKETS)
        self.batch_wall = Buckets(BATCH_WALL_BUCKETS)
        self.worker_cpu_s = 0.0
        self.last_rss_kb = 0.0
        self.hits_by_source: dict[str, int] = {}
        # Liveness and progress.
        #: (spec, slot) -> the run_started record (carries ts/phase/pool).
        self.in_flight: dict[tuple[str, int], dict[str, Any]] = {}
        self.opened_ts: float | None = None
        self.last_event_ts: float | None = None
        self.last_event_kind: str = ""
        self.writer_pid: int = 0
        self.finished: dict[str, Any] | None = None
        self.ewma_wall_s: float | None = None
        self.ewma_rate: float | None = None  # completions per second
        self._last_done_ts: float | None = None

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------

    def apply(self, record: dict[str, Any]) -> None:
        """Fold one lifecycle record into the state."""
        self.events_total += 1
        kind = record.get("event") or ""
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            self.last_event_ts = float(ts)
        self.last_event_kind = kind
        pid = record.get("pid")
        if isinstance(pid, int):
            self.writer_pid = pid
        if self.finished is not None and kind != "campaign_finished":
            self.finished = None  # terminal event was not terminal after all

        if kind in RUN_EVENTS:
            self._apply_run(kind, record)
        elif kind == "log_opened":
            if isinstance(ts, (int, float)):
                self.opened_ts = float(ts)
        elif kind == "phase_finished":
            phase = self._phase(record.get("name") or record.get("phase"))
            phase.wall_s = (phase.wall_s or 0.0) + _num(record, "wall_s")
        elif kind == "counters":
            if isinstance(record.get("counters"), dict):
                self.counters = record["counters"]
            if isinstance(record.get("spans"), dict):
                self.spans = record["spans"]
        elif kind == "batch_finished":
            wall = _num(record, "wall_s")
            self.batches += 1
            self.jobs_total += int(record.get("jobs") or 0)
            self.cache_hits += int(record.get("cache_hits") or 0)
            self.jobs_executed += int(record.get("executed") or 0)
            self.dedup_waits += int(record.get("dedup_waits") or 0)
            self.failures += int(record.get("failures") or 0)
            self.execution_wall_s += wall
            self.batch_wall.observe(wall)
        elif kind == "campaign_finished":
            self.finished = record
            self.in_flight.clear()

    def _apply_run(self, kind: str, record: dict[str, Any]) -> None:
        phase = self._phase(record.get("phase"))
        key = (str(record.get("spec") or ""), int(record.get("slot") or 0))
        if kind == "run_started":
            phase.runs_started += 1
            self.in_flight[key] = record
        elif kind == "run_finished":
            self.in_flight.pop(key, None)
            wall = _num(record, "wall_s")
            cpu = _num(record, "cpu_s")
            rss = _num(record, "max_rss_kb")
            phase.runs_finished += 1
            phase.run_wall_s += wall
            phase.run_cpu_s += cpu
            self.run_wall.observe(wall)
            self.worker_cpu_s += max(cpu, 0.0)
            if rss:
                self.last_rss_kb = rss
            self.max_rss_kb = max(self.max_rss_kb, rss)
            entry = (wall, -self.events_total, record)
            if len(self._slowest) < SLOWEST_N:
                heapq.heappush(self._slowest, entry)
            else:
                heapq.heappushpop(self._slowest, entry)
            self._settle(record)
        elif kind == "run_failed":
            self.in_flight.pop(key, None)
            phase.failures += 1
        elif kind == "run_retried":
            phase.retries += 1
        elif kind == "run_requeued":
            # Abandoned jobs are already accounted under ``timeouts`` (the
            # pool emitted run_timeout when it gave up on them); the
            # requeue is its own bucket, never a retry.
            phase.requeues += 1
        elif kind == "run_timeout":
            self.in_flight.pop(key, None)
            phase.timeouts += 1
        elif kind == "cache_hit":
            phase.cache_hits += 1
            source = str(record.get("source") or "store")
            self.hits_by_source[source] = self.hits_by_source.get(source, 0) + 1
        else:  # heartbeat
            self.heartbeats += 1

    def _phase(self, name: Any) -> PhaseSummary:
        name = name or "(no phase)"
        phase = self.phases.get(name)
        if phase is None:
            phase = self.phases[name] = PhaseSummary(name=name)
        return phase

    def reset(self) -> None:
        """Forget everything (the tailed log was rotated: new campaign)."""
        self.__init__()

    def _settle(self, record: dict[str, Any]) -> None:
        wall = record.get("wall_s")
        if isinstance(wall, (int, float)):
            self.ewma_wall_s = _ewma(self.ewma_wall_s, float(wall))
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            if self._last_done_ts is not None and ts > self._last_done_ts:
                rate = 1.0 / (float(ts) - self._last_done_ts)
                self.ewma_rate = _ewma(self.ewma_rate, rate)
            self._last_done_ts = float(ts)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def total(self, name: str) -> Any:
        """A :class:`PhaseSummary` field summed over every phase."""
        return sum(getattr(p, name) for p in self.phases.values())

    def phase_rows(self) -> list[tuple[str, int, int, int, int, float, float]]:
        """``(phase, runs, hits, retries, fails, run wall s, wall s)`` per
        phase, the wall falling back to the runs' sum for an open phase."""
        return [
            (
                name, p.runs_finished, p.cache_hits, p.retries, p.failures,
                p.run_wall_s, p.wall_s if p.wall_s is not None else p.run_wall_s,
            )
            for name, p in self.phases.items()
        ]

    @property
    def slowest_runs(self) -> list[dict[str, Any]]:
        """The slowest finished runs, slowest first (log order on ties)."""
        return [
            record
            for _wall, _neg_order, record in sorted(
                self._slowest, key=lambda e: (-e[0], -e[1])
            )
        ]

    @property
    def current_phase(self) -> str:
        """Name of the most recently opened phase."""
        for key in reversed(list(self.phases)):
            return key
        return ""

    def status(self, now: float | None = None) -> str:
        """``running`` / ``done`` / ``failed`` / ``stalled`` / ``empty``."""
        if self.finished is not None:
            status = str(self.finished.get("status") or "ok")
            return "done" if status == "ok" else "failed"
        if self.events_total == 0:
            return "empty"
        if self.is_stalled(now):
            return "stalled"
        return "running"

    def finished_line(self) -> str:
        """The terminal event in words: status, runs, hits, wall."""
        fin = self.finished or {}
        return (
            f"status {fin.get('status', '?')}, "
            f"{fin.get('runs_executed', 0)} executed, "
            f"{fin.get('cache_hits', 0)} cached, "
            f"{float(fin.get('wall_s') or 0.0):.1f}s wall"
        )

    def age_s(self, now: float | None = None) -> float | None:
        """Seconds since the last event, or None before the first one."""
        if self.last_event_ts is None:
            return None
        return max((now or time.time()) - self.last_event_ts, 0.0)

    def is_stalled(self, now: float | None = None) -> bool:
        """Quiet past the stall window *and* the writer pid is gone."""
        age = self.age_s(now)
        if age is None or age < STALL_AFTER_S or self.finished is not None:
            return False
        return not pid_alive(self.writer_pid)

    def throughput(self) -> float | None:
        """Smoothed completions per second (None before two finishes)."""
        return self.ewma_rate

    def eta_s(self) -> float | None:
        """ETA for the runs currently in flight, from the EWMA rate (phases
        not yet submitted are unknowable from the event stream alone)."""
        if not self.in_flight or self.finished is not None:
            return None
        if self.ewma_rate and self.ewma_rate > 0:
            return len(self.in_flight) / self.ewma_rate
        if self.ewma_wall_s:
            return len(self.in_flight) * self.ewma_wall_s
        return None

    def running(self, now: float) -> list[dict[str, Any]]:
        """Every run in flight with its phase and seconds running so far
        (``None`` when its start time is unknown)."""
        out = []
        for (spec, slot), record in self.in_flight.items():
            ts = record.get("ts")
            out.append(
                {
                    "spec": spec,
                    "slot": slot,
                    "phase": record.get("phase") or "",
                    "running_s": (
                        now - float(ts) if isinstance(ts, (int, float))
                        else None
                    ),
                }
            )
        return out

    def stragglers(self, now: float | None = None) -> list[dict[str, Any]]:
        """In-flight runs far beyond the EWMA wall (oldest first)."""
        floor = STRAGGLER_MIN_S
        if self.ewma_wall_s:
            floor = max(floor, STRAGGLER_FACTOR * self.ewma_wall_s)
        out = [
            run for run in self.running(now or time.time())
            if run["running_s"] is not None and run["running_s"] >= floor
        ]
        out.sort(key=lambda r: -r["running_s"])
        return out

    def anomalies(self, now: float | None = None) -> list[Anomaly]:
        """Every currently flagged condition (empty = healthy)."""
        now = now or time.time()
        out: list[Anomaly] = []
        for straggler in self.stragglers(now):
            wall = f"{self.ewma_wall_s:.2f}" if self.ewma_wall_s else "?"
            out.append(
                Anomaly(
                    "straggler",
                    f"{straggler['spec'][:12]} in flight "
                    f"{straggler['running_s']:.0f}s "
                    f"(EWMA wall {wall}s, phase "
                    f"{straggler['phase'] or '(none)'})",
                )
            )
        failures = self.total("failures")
        settled = self.total("runs_finished") + failures
        if failures >= ERROR_MIN_FAILURES and settled and (
            failures / settled > ERROR_RATE
        ):
            out.append(
                Anomaly(
                    "errors",
                    f"{failures} failure(s) in {settled} settled run(s) "
                    f"({100.0 * failures / settled:.0f}%)",
                )
            )
        if self.is_stalled(now):
            age = self.age_s(now) or 0.0
            out.append(
                Anomaly(
                    "stall",
                    f"no events for {age:.0f}s and writer pid "
                    f"{self.writer_pid} is gone (no campaign_finished)",
                )
            )
        return out

    def summary_dict(self) -> dict[str, Any]:
        """The machine-readable roll-up (``repro stats --format json``).

        Shared verbatim by ``repro watch --json`` (its ``summary`` key),
        so dashboards and CI scripts never scrape the text tables.
        """
        return {
            "events_total": self.events_total,
            "runs_finished": self.total("runs_finished"),
            "cache_hits": self.total("cache_hits"),
            "failures": self.total("failures"),
            "retries": self.total("retries"),
            "requeues": self.total("requeues"),
            "timeouts": self.total("timeouts"),
            "heartbeats": self.heartbeats,
            "max_rss_kb": self.max_rss_kb,
            "run_wall_s": self.total("run_wall_s"),
            "phases": [asdict(p) for p in self.phases.values()],
            "counters": dict(self.counters),
            "spans": dict(self.spans),
            "slowest_runs": [
                {
                    "spec": r.get("spec"),
                    "phase": r.get("phase"),
                    "wall_s": r.get("wall_s"),
                    "cpu_s": r.get("cpu_s"),
                }
                for r in self.slowest_runs
            ],
        }

    def to_dict(self, now: float | None = None) -> dict[str, Any]:
        """The live snapshot (``repro watch --json``)."""
        now = now or time.time()
        return {
            "schema": STATE_SCHEMA_VERSION,
            "status": self.status(now),
            "phase": self.current_phase,
            "opened_ts": self.opened_ts,
            "last_event_ts": self.last_event_ts,
            "last_event_kind": self.last_event_kind,
            "age_s": self.age_s(now),
            "writer_pid": self.writer_pid,
            "writer_alive": pid_alive(self.writer_pid),
            "batches": self.batches,
            "in_flight": [
                {
                    "spec": spec,
                    "slot": slot,
                    "phase": record.get("phase") or "",
                    "started_ts": record.get("ts"),
                }
                for (spec, slot), record in self.in_flight.items()
            ],
            "ewma_wall_s": self.ewma_wall_s,
            "throughput_runs_per_s": self.ewma_rate,
            "eta_s": self.eta_s(),
            "anomalies": [asdict(a) for a in self.anomalies(now)],
            "finished": dict(self.finished) if self.finished else None,
            "summary": self.summary_dict(),
        }


class CampaignMonitor:
    """A tailer + state pair bound to one campaign's event log.

    ``refresh()`` folds whatever arrived into the same state object; a
    rotated log is a new campaign, so rotation resets the state.
    """

    def __init__(self, campaign: str | Path) -> None:
        self.events_path = events_path(campaign)
        self.tailer = JsonlTailer(self.events_path, events_only=True)
        self.state = CampaignState()

    def refresh(self) -> CampaignState:
        chunk = self.tailer.poll()
        if chunk.rotated or chunk.truncated:
            self.state.reset()
        for record in chunk.records:
            self.state.apply(record)
        return self.state
