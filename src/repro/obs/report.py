"""Self-contained HTML campaign pages (``repro-paper report``).

:func:`render_page` is the one page renderer: summary tiles and the
per-phase table from a :class:`~repro.obs.state.CampaignState`, then a
chart section for each of the first :data:`MAX_RUN_SECTIONS` runs of
``timeseries.jsonl``.  :func:`build_report` feeds it the fold of a
campaign's ``events.jsonl``; ``live.html`` (:mod:`repro.obs.live`) is
the same page plus a refresh tag and its live-only blocks.  Everything
is inline — CSS, SVG charts, data — so the file can be mailed around or
uploaded as a CI artifact with no external assets.  Light and dark
palettes are both embedded; dark mode follows the OS preference and can
be forced with ``data-theme`` on ``<html>``.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Iterable

from repro.obs.events import read_events
from repro.obs.state import CampaignState
from repro.obs.svg import CHART_CSS, legend, line_chart
from repro.obs.timeseries import TIMESERIES_FILENAME, read_timeseries, series_total
from repro.obs.views import aggregate, resolve_events_path

__all__ = ["build_report", "render_page", "MAX_RUN_SECTIONS", "RunSample"]

#: Cap on per-run chart sections; larger campaigns get summary-only rows.
MAX_RUN_SECTIONS = 12

_CSS = (
    """\
:root {
  --surface: #fcfcfb; --panel: #f4f4f1;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    --surface: #1a1a19; --panel: #222221;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --critical: #e05d5d;
  }
}
:root[data-theme="dark"] {
  --surface: #1a1a19; --panel: #222221;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --baseline: #383835;
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  --critical: #e05d5d;
}
body {
  background: var(--surface); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px; line-height: 1.45; margin: 0 auto; max-width: 760px;
  padding: 24px 16px 64px;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
h3 { font-size: 13px; margin: 18px 0 4px; color: var(--text-secondary); }
.sub { color: var(--muted); font-size: 12px; margin: 0 0 20px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 16px 0; }
.tile {
  background: var(--panel); border-radius: 6px; padding: 10px 14px;
  min-width: 104px;
}
.tile .v { font-size: 20px; font-variant-numeric: tabular-nums; }
.tile .k { font-size: 11px; color: var(--muted); }
table { border-collapse: collapse; width: 100%; margin: 8px 0; }
th, td {
  text-align: left; padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--grid); font-size: 13px;
}
th { color: var(--muted); font-weight: 500; font-size: 11px;
     text-transform: uppercase; letter-spacing: 0.04em; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.note { color: var(--muted); font-size: 12px; }
.run { border-top: 1px solid var(--grid); margin-top: 24px; padding-top: 8px; }
.spec { font-family: ui-monospace, monospace; font-size: 12px;
        color: var(--text-secondary); }
"""
    + CHART_CSS
)


def esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _points(series: dict[str, Any]) -> list[tuple[float, float]]:
    """A serialized series as ``(end-of-window cycle, value)`` points."""
    window = float(series.get("window") or series.get("base_window") or 1)
    values = series.get("values") or []
    pts = [((i + 1) * window, float(v)) for i, v in enumerate(values)]
    if series.get("tail") is not None:
        tail_cycles = float(series.get("tail_windows") or 0) * float(
            series.get("base_window") or 1
        )
        pts.append((len(values) * window + tail_cycles, float(series["tail"])))
    return pts


def _chart_block(
    title: str,
    named: list[tuple[str, dict[str, Any] | None]],
    *,
    y_max: float | None = None,
) -> str:
    present = [
        (label, _points(s)) for label, s in named if s and s.get("values")
    ]
    if not present:
        return ""
    svg = line_chart(present, y_max=y_max)
    if not svg:
        return ""
    labels = [label for label, _pts in present]
    return f"<h3>{esc(title)}</h3>{legend(labels)}{svg}"


def _run_section(record: dict[str, Any], index: int) -> str:
    by_name = {
        s.get("name"): s
        for s in record.get("series", [])
        if isinstance(s, dict)
    }
    spec = str(record.get("spec") or "")[:12]
    phase = record.get("phase") or "(no phase)"
    total = by_name.get("leak.total_j")
    total_j = ""
    if total:
        total_j = f' · leakage {series_total(total):.3e} J'
    parts = [
        f'<section class="run"><h2>run {index + 1} '
        f'<span class="spec">{esc(spec)}</span></h2>'
        f'<p class="sub">phase {esc(phase)}{total_j}</p>'
    ]
    parts.append(
        _chart_block(
            "Line state (fraction of cache lines)",
            [
                ("live", by_name.get("cache.frac_live")),
                ("drowsy", by_name.get("cache.frac_drowsy")),
                ("off", by_name.get("cache.frac_off")),
            ],
            y_max=1.0,
        )
    )
    parts.append(
        _chart_block(
            "Leakage energy by structure (J per window)",
            [
                ("data array", by_name.get("leak.data_j")),
                ("tag array", by_name.get("leak.tag_j")),
                ("edge logic", by_name.get("leak.edge_j")),
            ],
        )
    )
    parts.append(
        _chart_block(
            "Leakage energy by mechanism (J per window)",
            [
                ("subthreshold", by_name.get("leak.sub_j")),
                ("gate", by_name.get("leak.gate_j")),
                ("GIDL", by_name.get("leak.gidl_j")),
            ],
        )
    )
    parts.append(
        _chart_block(
            "Decay activity (events per window)",
            [
                ("induced misses", by_name.get("cache.induced_misses")),
                ("wakeups", by_name.get("cache.wakeups")),
                ("deactivations", by_name.get("cache.deactivations")),
            ],
        )
    )
    parts.append(
        _chart_block("IPC", [("ipc", by_name.get("cpu.ipc"))])
    )
    parts.append("</section>")
    return "".join(parts)


def _tiles(state: CampaignState) -> str:
    hits = state.total("cache_hits")
    runs = state.total("runs_finished")
    lookups = runs + hits
    tiles = [
        ("runs executed", str(runs)),
        (
            "cache hits",
            f"{hits}"
            + (f" ({100.0 * hits / lookups:.0f}%)" if lookups else ""),
        ),
        ("run wall", f"{state.total('run_wall_s'):.1f} s"),
        ("failures", str(state.total("failures"))),
        ("retries", str(state.total("retries"))),
    ]
    if state.max_rss_kb:
        tiles.append(
            ("peak worker RSS", f"{state.max_rss_kb / 1024.0:.0f} MB")
        )
    cells = "".join(
        f'<div class="tile"><div class="v">{esc(v)}</div>'
        f'<div class="k">{esc(k)}</div></div>'
        for k, v in tiles
    )
    return f'<div class="tiles">{cells}</div>'


def _phase_table(state: CampaignState) -> str:
    head = (
        "<tr><th>phase</th><th class='num'>runs</th><th class='num'>hits"
        "</th><th class='num'>retries</th><th class='num'>fails</th>"
        "<th class='num'>run wall s</th><th class='num'>wall s</th></tr>"
    )
    body = "".join(
        f"<tr><td>{esc(name)}</td>"
        + "".join(
            f"<td class='num'>{v}</td>"
            for v in (*counts, f"{run_wall:.2f}", f"{wall:.2f}")
        )
        + "</tr>"
        for name, *counts, run_wall, wall in state.phase_rows()
    )
    return f"<table>{head}{body}</table>"


class RunSample:
    """The first :data:`MAX_RUN_SECTIONS` run records and how many there
    were, so page memory stays bounded however long the log grows."""

    def __init__(self) -> None:
        self.runs: list[dict[str, Any]] = []
        self.total = 0

    def add(self, records: Iterable[dict[str, Any]]) -> None:
        for record in records:
            if len(self.runs) < MAX_RUN_SECTIONS:
                self.runs.append(record)
            self.total += 1


def _run_sections(sample: RunSample) -> str:
    if not sample.runs:
        return (
            '<p class="note">No timeseries telemetry found '
            f"({TIMESERIES_FILENAME} absent or empty) — re-run the campaign "
            "with observability enabled to record line-state, leakage-energy "
            "and IPC windows.</p>"
        )
    parts = [_run_section(record, i) for i, record in enumerate(sample.runs)]
    if sample.total > len(sample.runs):
        parts.append(
            f'<p class="note">{sample.total - len(sample.runs)} further '
            "run(s) recorded but not charted (report caps at "
            f"{MAX_RUN_SECTIONS} run sections).</p>"
        )
    return "".join(parts)


def render_page(
    state: CampaignState,
    sample: RunSample,
    *,
    source: str,
    title: str = "repro campaign report",
    heading: str = "Campaign report",
    head: str = "",
    css: str = "",
    banner: str = "",
    alerts: str = "",
    footer: str = "",
) -> str:
    """One self-contained campaign page.

    ``source`` names the campaign under the heading; the live page adds
    its refresh tag (``head``), extra ``css``, a status ``banner`` above
    the source line, ``alerts`` between the tiles and the phase table,
    and a ``footer`` after the run sections.
    """
    return "".join(
        [
            "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>",
            "<meta name='viewport' "
            "content='width=device-width,initial-scale=1'>",
            head,
            f"<title>{esc(title)}</title><style>{_CSS}{css}</style></head>",
            "<body>",
            f"<h1>{esc(heading)}</h1>",
            banner,
            f'<p class="sub">{esc(source)}</p>',
            _tiles(state),
            alerts,
            "<h2>Per-phase breakdown</h2>",
            _phase_table(state),
            "<h2>Per-run telemetry</h2>",
            _run_sections(sample),
            footer,
            "</body></html>",
        ]
    )


def build_report(campaign: str | Path) -> str:
    """Render a campaign to one self-contained HTML page.

    Raises:
        FileNotFoundError: If the campaign has no ``events.jsonl``.
    """
    events_path = resolve_events_path(campaign)
    state = aggregate(read_events(events_path))
    sample = RunSample()
    ts_path = events_path.with_name(TIMESERIES_FILENAME)
    if ts_path.is_file():
        sample.add(read_timeseries(ts_path))
    return render_page(state, sample, source=str(events_path))
