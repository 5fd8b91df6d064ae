"""Minimal inline-SVG chart primitives for the campaign report.

Everything renders to plain SVG strings with **no external assets**: the
report embeds them directly, and all colors are CSS custom properties
(``var(--series-1)`` etc.) defined in the report's single ``<style>``
block, so light and dark mode swap in one place.  The styling follows
the repo's charting conventions: 2px series lines in a fixed categorical
slot order (never cycled — charts here carry at most three series), a
hairline gridline layer, one y-axis, muted-ink tick labels, and a legend
row whenever two or more series share a plot.  Per-point ``<title>``
elements give native hover tooltips without any scripting.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["line_chart", "legend", "CHART_CSS"]

# Plot-area margins (px): room for y tick labels and the x tick row.
_ML, _MR, _MT, _MB = 64, 12, 10, 26

#: Style block fragment the embedding page must include once.  Colors
#: reference the page's palette tokens; series slots are fixed 1..3.
CHART_CSS = """\
.chart { display: block; }
.chart .grid { stroke: var(--grid); stroke-width: 1; }
.chart .axis { stroke: var(--baseline); stroke-width: 1; }
.chart .tick { fill: var(--muted); font-size: 10px; }
.chart .series { fill: none; stroke-width: 2; stroke-linejoin: round; }
.chart .pt { fill: transparent; }
.chart .s1 { stroke: var(--series-1); }
.chart .s2 { stroke: var(--series-2); }
.chart .s3 { stroke: var(--series-3); }
.legend { display: flex; gap: 16px; flex-wrap: wrap;
          font-size: 12px; color: var(--text-secondary); margin: 4px 0; }
.legend .swatch { display: inline-block; width: 12px; height: 3px;
                  vertical-align: middle; margin-right: 6px; }
.legend .sw1 { background: var(--series-1); }
.legend .sw2 { background: var(--series-2); }
.legend .sw3 { background: var(--series-3); }
.spark { display: inline-block; vertical-align: middle; }
.spark .series { fill: none; stroke: var(--series-1); stroke-width: 1.5;
                 stroke-linejoin: round; }
.spark .base { stroke: var(--baseline); stroke-width: 1; }
"""


def _fmt(value: float) -> str:
    """Compact tick/tooltip number formatting."""
    a = abs(value)
    if a >= 1e9:
        return f"{value / 1e9:.3g}G"
    if a >= 1e6:
        return f"{value / 1e6:.3g}M"
    if a >= 1e3:
        return f"{value / 1e3:.3g}k"
    if a >= 0.01 or value == 0:
        return f"{value:.3g}"
    return f"{value:.2e}"


def legend(labels: Sequence[str]) -> str:
    """Legend row for up to three series (empty for a single series)."""
    if len(labels) < 2:
        return ""
    items = "".join(
        f'<span><span class="swatch sw{i + 1}"></span>{label}</span>'
        for i, label in enumerate(labels[:3])
    )
    return f'<div class="legend">{items}</div>'


def line_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    *,
    width: int = 680,
    height: int = 180,
    y_max: float | None = None,
    x_label: str = "cycles",
) -> str:
    """One line chart: up to three named series of ``(x, y)`` points.

    The y-axis starts at 0 (all plotted quantities are non-negative);
    ``y_max`` pins the top (e.g. 1.0 for fractions), else it is the data
    maximum.  Returns an ``<svg>`` string; pair with :func:`legend` for
    multi-series plots.
    """
    series = list(series)[:3]
    all_pts = [p for _name, pts in series for p in pts]
    if not all_pts:
        return ""
    x_min = min(p[0] for p in all_pts)
    x_hi = max(p[0] for p in all_pts)
    y_hi = y_max if y_max is not None else max(p[1] for p in all_pts)
    if y_hi <= 0:
        y_hi = 1.0
    if x_hi <= x_min:
        x_hi = x_min + 1.0
    pw = width - _ML - _MR
    ph = height - _MT - _MB

    def sx(x: float) -> float:
        return _ML + pw * (x - x_min) / (x_hi - x_min)

    def sy(y: float) -> float:
        return _MT + ph * (1.0 - min(y, y_hi) / y_hi)

    parts = [
        f'<svg class="chart" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img">'
    ]
    # Hairline grid + y tick labels (4 divisions), one axis only.
    for i in range(5):
        frac = i / 4.0
        y = _MT + ph * (1.0 - frac)
        parts.append(
            f'<line class="grid" x1="{_ML}" y1="{y:.1f}" '
            f'x2="{width - _MR}" y2="{y:.1f}"/>'
        )
        parts.append(
            f'<text class="tick" x="{_ML - 6}" y="{y + 3:.1f}" '
            f'text-anchor="end">{_fmt(y_hi * frac)}</text>'
        )
    for i in range(5):
        frac = i / 4.0
        x = _ML + pw * frac
        parts.append(
            f'<text class="tick" x="{x:.1f}" y="{height - 8}" '
            f'text-anchor="middle">'
            f"{_fmt(x_min + (x_hi - x_min) * frac)}</text>"
        )
    parts.append(
        f'<line class="axis" x1="{_ML}" y1="{_MT + ph}" '
        f'x2="{width - _MR}" y2="{_MT + ph}"/>'
    )
    parts.append(
        f'<text class="tick" x="{width - _MR}" y="{height - 8}" '
        f'text-anchor="end">{x_label}</text>'
    )
    for idx, (name, pts) in enumerate(series):
        if not pts:
            continue
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline class="series s{idx + 1}" points="{coords}"/>'
        )
        # Native hover tooltips: an invisible hit target per point,
        # larger than the mark itself.
        for x, y in pts:
            parts.append(
                f'<circle class="pt" cx="{sx(x):.1f}" cy="{sy(y):.1f}" '
                f'r="5"><title>{name} @ {_fmt(x)}: {_fmt(y)}</title>'
                f"</circle>"
            )
    parts.append("</svg>")
    return "".join(parts)
