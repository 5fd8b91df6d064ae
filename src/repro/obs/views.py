"""Text views of campaign event logs: ``repro trace`` and ``repro stats``.

The CLI views are thin wrappers over this module:
:func:`iter_campaign_events` resolves a campaign directory (or a direct
path) to its ``events.jsonl`` and streams it, :func:`aggregate` folds
the stream into a :class:`~repro.obs.state.CampaignState` in a single
bounded-memory pass (a multi-GB log aggregates in constant memory), and
the ``render_*`` functions print the fold as fixed-width tables.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.obs.events import read_events
from repro.obs.state import RUN_EVENTS, CampaignState, events_path


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Simple fixed-width ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    rule = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines.append(rule)
    lines.append(
        "|" + "|".join(f" {h:<{w}} " for h, w in zip(headers, widths)) + "|"
    )
    lines.append(rule)
    for row in rows:
        lines.append(
            "|" + "|".join(f" {c:<{w}} " for c, w in zip(row, widths)) + "|"
        )
    lines.append(rule)
    return "\n".join(lines)


def fmt_s(seconds: float | None) -> str:
    """Compact duration: ``42s``, ``3m07s``, ``1h05m`` (``--`` if unknown)."""
    if seconds is None:
        return "--"
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{int(seconds // 3600)}h{int(seconds % 3600 // 60):02d}m"


def resolve_events_path(campaign: str | Path) -> Path:
    """The existing event log a campaign path names (see
    :func:`~repro.obs.state.events_path`).

    Raises:
        FileNotFoundError: If no event log exists there.
    """
    path = events_path(campaign)
    if not path.is_file():
        raise FileNotFoundError(
            f"no event log at {path} (run a campaign with observability "
            f"enabled, e.g. 'repro-paper reproduce')"
        )
    return path


def iter_campaign_events(campaign: str | Path) -> Iterator[dict[str, Any]]:
    """Stream a campaign's parsed events in log order (constant memory).

    The path resolves eagerly (so a missing log raises here, not at first
    iteration); the events themselves are yielded lazily.
    """
    return read_events(resolve_events_path(campaign))


def load_campaign_events(campaign: str | Path) -> list[dict[str, Any]]:
    """Every parsed event of a campaign, materialised into a list.

    Prefer :func:`iter_campaign_events` — this exists for callers that
    genuinely need random access.
    """
    return list(iter_campaign_events(campaign))


def aggregate(events: Iterable[dict[str, Any]]) -> CampaignState:
    """Fold an event stream into a :class:`CampaignState` (single pass)."""
    state = CampaignState()
    for record in events:
        state.apply(record)
    return state


def _spec8(record: dict[str, Any]) -> str:
    spec = record.get("spec")
    return str(spec)[:8] if spec else ""


def _detail(record: dict[str, Any]) -> str:
    kind = record.get("event")
    if kind == "run_finished":
        rss = record.get("max_rss_kb")
        parts = [f"wall {record.get('wall_s', 0.0):.3f}s"]
        if record.get("cpu_s") is not None:
            parts.append(f"cpu {record['cpu_s']:.3f}s")
        if rss:
            parts.append(f"rss {rss / 1024.0:.0f}MB")
        return ", ".join(parts)
    if kind == "run_failed":
        return str(record.get("error", ""))[:48]
    if kind == "run_retried":
        return f"attempt {record.get('attempt', '?')}"
    if kind == "run_requeued":
        return str(record.get("reason", "pool timeout"))
    if kind == "cache_hit":
        return str(record.get("source", "store"))
    if kind == "heartbeat":
        outstanding = record.get("outstanding")
        n = len(outstanding) if isinstance(outstanding, list) else "?"
        return f"{n} job(s) outstanding, {record.get('elapsed_s', 0.0):.0f}s in"
    if kind in ("phase_started", "phase_finished"):
        return str(record.get("name", ""))
    if kind == "batch_finished":
        return (
            f"{record.get('jobs', 0)} job(s), "
            f"{record.get('cache_hits', 0)} cached, "
            f"{record.get('executed', 0)} executed"
        )
    if kind == "campaign_finished":
        return (
            f"status {record.get('status', '?')}, "
            f"{record.get('runs_executed', 0)} run(s), "
            f"{record.get('wall_s', 0.0):.1f}s wall"
        )
    return ""


def render_trace(
    events: Iterable[dict[str, Any]],
    *,
    limit: int | None = None,
    phase: str | None = None,
) -> str:
    """Chronological per-run event listing plus the per-phase breakdown.

    Accepts any event iterable (a streamed log included) and makes a
    single pass over it: with a ``limit`` only the last ``limit``
    matching events are retained, so memory stays bounded no matter how
    long the log is.  ``limit`` of ``None`` or ``0`` keeps everything.
    """
    traced = RUN_EVENTS + (
        "phase_started", "phase_finished", "batch_finished",
        "campaign_finished",
    )
    state = CampaignState()
    shown: deque[dict[str, Any]] | list[dict[str, Any]]
    shown = deque(maxlen=limit) if limit else []
    matched = 0
    for r in events:
        state.apply(r)
        if r.get("event") in traced and (
            phase is None or r.get("phase") == phase or r.get("name") == phase
        ):
            matched += 1
            shown.append(r)
    clipped = matched - len(shown)
    rows = [
        [
            f"{r.get('t', 0.0):9.3f}",
            str(r.get("event")),
            str(r.get("phase") or ""),
            _spec8(r),
            str(r.get("worker") or ""),
            _detail(r),
        ]
        for r in shown
    ]
    out = [
        render_table(
            ["t (s)", "event", "phase", "spec", "worker", "detail"], rows
        )
    ]
    if clipped:
        out.append(f"({clipped} earlier event(s) clipped; use --limit 0)")
    out.append("")
    out.append(render_phase_breakdown(state))
    return "\n".join(out)


def render_phase_breakdown(state: CampaignState) -> str:
    """The per-phase time/run breakdown table."""
    rows = [
        [name, *map(str, counts), f"{run_wall:9.2f}", f"{wall:9.2f}"]
        for name, *counts, run_wall, wall in state.phase_rows()
    ]
    return "per-phase breakdown:\n" + render_table(
        ["phase", "runs", "hits", "retries", "fails", "run wall s", "wall s"],
        rows,
    )


def render_stats(state: CampaignState) -> str:
    """Campaign-wide statistics: totals, counters, spans, slowest runs."""
    out = []
    total_runs = state.total("runs_finished")
    hits = state.total("cache_hits")
    lookups = total_runs + hits
    hit_rate = hits / lookups if lookups else 0.0
    rows = [
        ["events", str(state.events_total)],
        ["runs executed", str(total_runs)],
        ["cache hits", f"{hits} ({100.0 * hit_rate:.0f} %)"],
        ["retries", str(state.total("retries"))],
        ["failures", str(state.total("failures"))],
        ["timeouts", str(state.total("timeouts"))],
        ["requeued", str(state.total("requeues"))],
        ["heartbeats", str(state.heartbeats)],
    ]
    if state.max_rss_kb:
        rows.append(["peak worker RSS", f"{state.max_rss_kb / 1024.0:.0f} MB"])
    out.append(render_table(["metric", "value"], rows))
    out.append("")
    out.append(render_phase_breakdown(state))
    if state.slowest_runs:
        out.append("")
        out.append("slowest runs:")
        out.append(
            render_table(
                ["spec", "phase", "wall s", "cpu s"],
                [
                    [
                        _spec8(r),
                        str(r.get("phase") or ""),
                        f"{r.get('wall_s', 0.0):.3f}",
                        f"{r.get('cpu_s', 0.0):.3f}",
                    ]
                    for r in state.slowest_runs
                ],
            )
        )
    if state.spans:
        out.append("")
        out.append("timing spans:")
        out.append(
            render_table(
                ["span", "count", "total s"],
                [
                    [path, str(s.get("count", 0)), f"{s.get('total_s', 0.0):.3f}"]
                    for path, s in sorted(state.spans.items())
                ],
            )
        )
    if state.counters:
        out.append("")
        out.append("counters:")
        out.append(
            render_table(
                ["counter", "value"],
                [
                    [name, f"{value:g}"]
                    for name, value in sorted(state.counters.items())
                ],
            )
        )
    return "\n".join(out)
