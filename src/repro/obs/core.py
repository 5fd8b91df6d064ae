"""Observability core: the span/counter registry and the enable flag.

One module-level :class:`ObsState` carries everything: the ``enabled``
flag the instrumented hot paths check, the named counters, the
hierarchical timing-span aggregates, and the (optional) attached
:class:`~repro.obs.events.EventLog`.  The design constraint is *zero
overhead when disabled*: every instrumentation site is either guarded by
a single attribute check (``if obs.enabled:``) or goes through
:func:`span`, which returns a shared no-op context manager while
disabled.  Nothing here ever alters simulation state, so results are
bit-identical with observability on or off.

Spans are hierarchical: entering a span pushes its name onto a stack and
the aggregate is keyed by the full ``/``-joined path, so a solver span
opened inside a runner span shows up as ``runner.run_once/solver.solve``.
Campaign phases are spans opened with :func:`phase`; the current phase
name stamps every event the log records.

Every record the attached log writes is also folded into one live
:class:`~repro.obs.state.CampaignState` (:func:`campaign_state`), the
state the ``metrics.prom`` / ``metrics.json`` snapshots render — so a
snapshot always equals the fold of the log written so far.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro.obs.events import EventLog
from repro.obs.state import CampaignState
from repro.obs.timeseries import (
    TIMESERIES_FILENAME,
    TimeseriesLog,
    rotate_existing,
)

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "incr",
    "span",
    "phase",
    "emit",
    "emit_series",
    "counters",
    "span_stats",
    "log_path",
    "series_path",
    "campaign_state",
    "reset_campaign_state",
]


class SpanStat:
    """Aggregate for one span path: call count and total wall seconds."""

    __slots__ = ("count", "total_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {"count": self.count, "total_s": self.total_s}


class ObsState:
    """All mutable observability state (one module-level instance)."""

    __slots__ = (
        "enabled", "counters", "spans", "stack", "log", "phase",
        "series_log", "series_path", "fold",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.counters: dict[str, float] = {}
        self.spans: dict[str, SpanStat] = {}
        self.stack: list[str] = []
        self.log: EventLog | None = None
        self.phase: str = ""
        # The per-run timeseries log lives next to events.jsonl and is
        # opened lazily on the first emit_series (a warm all-cache-hit
        # campaign produces no fresh series and therefore no file).
        self.series_log: TimeseriesLog | None = None
        self.series_path: Path | None = None
        # The fold of every record the attached log has written.
        self.fold = CampaignState()


_STATE = ObsState()


class _NullSpan:
    """The shared do-nothing context manager handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Span:
    """A live timing span; use via :func:`span` (context-manager API)."""

    __slots__ = ("name", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self._start = 0.0

    def __enter__(self) -> "Span":
        _STATE.stack.append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self._start
        stack = _STATE.stack
        path = "/".join(stack)
        if stack and stack[-1] == self.name:
            stack.pop()
        stat = _STATE.spans.get(path)
        if stat is None:
            stat = _STATE.spans[path] = SpanStat()
        stat.count += 1
        stat.total_s += elapsed


class _PhaseSpan(Span):
    """A span that also sets the event-stamping phase and logs boundaries."""

    __slots__ = ("_prev_phase",)

    def __enter__(self) -> "Span":
        self._prev_phase = _STATE.phase
        _STATE.phase = self.name
        emit("phase_started", name=self.name)
        return super().__enter__()

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self._start
        super().__exit__(*exc)
        emit("phase_finished", name=self.name, wall_s=elapsed)
        _STATE.phase = self._prev_phase


def enable(log: str | None = None) -> None:
    """Turn observability on, optionally attaching a JSONL event log.

    ``log`` is the path the event log is (re)created at — one campaign,
    one file.  Calling :func:`enable` while already enabled re-points the
    log but keeps accumulated counters and spans.
    """
    if log is not None:
        if _STATE.log is not None:
            _STATE.log.close()
        _STATE.fold = CampaignState()
        _STATE.log = EventLog(log)
        _STATE.fold.apply(_STATE.log.opened)
        if _STATE.series_log is not None:
            _STATE.series_log.close()
            _STATE.series_log = None
        # The timeseries log is created lazily on the first emit_series,
        # but a stale file from a previous campaign is rotated *now* so it
        # can never pair with this campaign's fresh events.jsonl (a warm
        # all-cache-hit re-run emits no series and would otherwise leave
        # the old file in place).
        _STATE.series_path = _STATE.log.path.with_name(TIMESERIES_FILENAME)
        rotate_existing(_STATE.series_path)
    _STATE.enabled = True


def disable() -> None:
    """Turn observability off and close any attached logs."""
    _STATE.enabled = False
    if _STATE.log is not None:
        _STATE.log.close()
        _STATE.log = None
    if _STATE.series_log is not None:
        _STATE.series_log.close()
        _STATE.series_log = None
    _STATE.series_path = None


def is_enabled() -> bool:
    return _STATE.enabled


def log_path() -> str | None:
    """Path of the attached event log, or None."""
    return None if _STATE.log is None else str(_STATE.log.path)


def series_path() -> str | None:
    """Path the timeseries log lands at (set whenever a log is attached).

    The file itself only exists once :func:`emit_series` has been called
    at least once during the campaign.
    """
    return None if _STATE.series_path is None else str(_STATE.series_path)


def reset() -> None:
    """Drop all counters/spans and detach the log (tests)."""
    disable()
    _STATE.counters.clear()
    _STATE.spans.clear()
    _STATE.stack.clear()
    _STATE.phase = ""
    _STATE.fold = CampaignState()


def incr(name: str, n: float = 1) -> None:
    """Add ``n`` to counter ``name`` (no-op while disabled)."""
    if not _STATE.enabled:
        return
    _STATE.counters[name] = _STATE.counters.get(name, 0) + n


def span(name: str):
    """Context manager timing one named (hierarchical) span.

    While disabled this returns a shared no-op object, so instrumented
    call sites pay one function call and nothing else.
    """
    if not _STATE.enabled:
        return _NULL_SPAN
    return Span(name)


def phase(name: str):
    """A top-level campaign phase: a span that stamps subsequent events."""
    if not _STATE.enabled:
        return _NULL_SPAN
    return _PhaseSpan(name)


def emit(event: str, **fields: Any) -> None:
    """Write one structured event to the attached log (if any)."""
    if not _STATE.enabled or _STATE.log is None:
        return
    record = _STATE.log.write(event, _STATE.phase, fields)
    if record is not None:
        _STATE.fold.apply(record)


def emit_series(spec: str, payload: dict[str, Any]) -> None:
    """Write one run's serialised time series to ``timeseries.jsonl``.

    No-op unless observability is on *and* an event log is attached (the
    series file lives next to it).  The log is created on first use so a
    campaign whose runs all hit the result store writes no series file.
    """
    if not _STATE.enabled or _STATE.series_path is None:
        return
    if _STATE.series_log is None:
        _STATE.series_log = TimeseriesLog(_STATE.series_path)
    _STATE.series_log.write(spec, _STATE.phase, payload)


def counters() -> dict[str, float]:
    """Snapshot of every counter (a copy; safe to mutate)."""
    return dict(_STATE.counters)


def span_stats() -> dict[str, dict[str, Any]]:
    """Snapshot of every span aggregate, keyed by full span path."""
    return {path: stat.to_dict() for path, stat in _STATE.spans.items()}


def campaign_state() -> CampaignState:
    """The live fold of the attached log (empty while none is attached)."""
    return _STATE.fold


def reset_campaign_state() -> None:
    """Restart the live fold: it covers only records written from here on."""
    _STATE.fold = CampaignState()
