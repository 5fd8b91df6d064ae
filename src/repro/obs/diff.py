"""Cross-campaign diffing (``repro-paper diff``).

Two campaigns of the same experiment rarely share slot order or worker
interleaving, so :func:`diff_campaigns` aligns them by the content hash
of each :class:`~repro.exec.spec.RunSpec` — the stable identity the
result store itself keys on — and compares what physics and performance
actually changed: per-phase wall time, and per-spec wall time, total
leakage energy, and decay-induced misses (the latter two from the
``timeseries.jsonl`` telemetry when recorded).  A fractional increase
beyond the threshold is flagged ``REGRESSED``; ``has_regressions`` backs
the CLI's ``--fail-on-regression`` exit code so CI can gate on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.events import read_events
from repro.obs.state import CampaignState
from repro.obs.timeseries import TIMESERIES_FILENAME, read_timeseries, series_total
from repro.obs.views import render_table, resolve_events_path

__all__ = [
    "CampaignDiff",
    "CampaignSnapshot",
    "SpecDelta",
    "diff_campaigns",
    "load_snapshot",
    "render_diff",
]


@dataclass
class SpecRecord:
    """Per-spec facts extracted from one campaign's logs."""

    spec: str
    phase: str = ""
    wall_s: float = 0.0
    leak_j: float | None = None
    induced_misses: float | None = None


@dataclass
class CampaignSnapshot:
    """One campaign reduced to the comparable facts."""

    path: Path
    phase_wall_s: dict[str, float] = field(default_factory=dict)
    specs: dict[str, SpecRecord] = field(default_factory=dict)


@dataclass
class SpecDelta:
    """A spec present in both campaigns, with fractional changes."""

    spec: str
    phase: str
    a: SpecRecord
    b: SpecRecord

    @property
    def wall_frac(self) -> float:
        return _frac(self.a.wall_s, self.b.wall_s)

    @property
    def leak_frac(self) -> float | None:
        if self.a.leak_j is None or self.b.leak_j is None:
            return None
        return _frac(self.a.leak_j, self.b.leak_j)

    @property
    def miss_frac(self) -> float | None:
        if self.a.induced_misses is None or self.b.induced_misses is None:
            return None
        return _frac(self.a.induced_misses, self.b.induced_misses)

    def regressed(self, threshold: float) -> bool:
        if self.wall_frac > threshold:
            return True
        leak = self.leak_frac
        if leak is not None and leak > threshold:
            return True
        miss = self.miss_frac
        return miss is not None and miss > threshold


@dataclass
class CampaignDiff:
    """The aligned comparison of two campaigns."""

    a: CampaignSnapshot
    b: CampaignSnapshot
    matched: list[SpecDelta] = field(default_factory=list)
    only_a: list[str] = field(default_factory=list)
    only_b: list[str] = field(default_factory=list)

    def phase_deltas(self) -> list[tuple[str, float, float, float]]:
        """``(phase, wall_a, wall_b, frac)`` for phases present in both."""
        out = []
        for name, wall_a in self.a.phase_wall_s.items():
            wall_b = self.b.phase_wall_s.get(name)
            if wall_b is not None:
                out.append((name, wall_a, wall_b, _frac(wall_a, wall_b)))
        return out

    def has_regressions(self, threshold: float = 0.10) -> bool:
        if any(d.regressed(threshold) for d in self.matched):
            return True
        return any(
            frac > threshold for _n, _a, _b, frac in self.phase_deltas()
        )


def _frac(a: float, b: float) -> float:
    """Fractional change a→b; +inf when appearing from zero."""
    if a > 0:
        return (b - a) / a
    return math.inf if b > 0 else 0.0


def load_snapshot(campaign: str | Path) -> CampaignSnapshot:
    """Reduce a campaign's logs to a :class:`CampaignSnapshot`.

    Streams ``events.jsonl`` (single pass, bounded memory) for wall
    times, then joins per-spec leakage and induced-miss totals from
    ``timeseries.jsonl`` when that file exists.

    Raises:
        FileNotFoundError: If the campaign has no ``events.jsonl``.
    """
    events_path = resolve_events_path(campaign)
    snap = CampaignSnapshot(path=events_path)
    state = CampaignState()
    for record in read_events(events_path):
        state.apply(record)
        if record.get("event") != "run_finished":
            continue
        spec = str(record.get("spec") or "")
        if not spec:
            continue
        # Last finish wins: a retried spec's final attempt is the one
        # whose result the campaign actually used.
        snap.specs[spec] = SpecRecord(
            spec=spec,
            phase=str(record.get("phase") or ""),
            wall_s=float(record.get("wall_s") or 0.0),
        )
    for name, *_counts, wall in state.phase_rows():
        snap.phase_wall_s[name] = wall

    ts_path = events_path.with_name(TIMESERIES_FILENAME)
    if ts_path.is_file():
        for record in read_timeseries(ts_path):
            spec = str(record.get("spec") or "")
            rec = snap.specs.get(spec)
            if rec is None:
                rec = snap.specs[spec] = SpecRecord(
                    spec=spec, phase=str(record.get("phase") or "")
                )
            for series in record.get("series", []):
                if not isinstance(series, dict):
                    continue
                if series.get("name") == "leak.total_j":
                    rec.leak_j = series_total(series)
                elif series.get("name") == "cache.induced_misses":
                    rec.induced_misses = series_total(series)
    return snap


def diff_campaigns(
    campaign_a: str | Path, campaign_b: str | Path
) -> CampaignDiff:
    """Align two campaigns by spec hash and compute their deltas."""
    a = load_snapshot(campaign_a)
    b = load_snapshot(campaign_b)
    diff = CampaignDiff(a=a, b=b)
    for spec, rec_a in a.specs.items():
        rec_b = b.specs.get(spec)
        if rec_b is None:
            diff.only_a.append(spec)
        else:
            diff.matched.append(
                SpecDelta(
                    spec=spec,
                    phase=rec_b.phase or rec_a.phase,
                    a=rec_a,
                    b=rec_b,
                )
            )
    diff.only_b = [s for s in b.specs if s not in a.specs]
    diff.matched.sort(key=lambda d: (d.phase, d.spec))
    return diff


def _pct(frac: float | None) -> str:
    if frac is None:
        return ""
    if math.isinf(frac):
        return "new"
    return f"{100.0 * frac:+.1f}%"


def _sci(value: float | None) -> str:
    return "" if value is None else f"{value:.3e}"


def render_diff(diff: CampaignDiff, *, threshold: float = 0.10) -> str:
    """Fixed-width-table rendering with ``REGRESSED`` highlighting."""
    out = [
        f"campaign A: {diff.a.path}",
        f"campaign B: {diff.b.path}",
        f"matched specs: {len(diff.matched)}"
        f" (only in A: {len(diff.only_a)}, only in B: {len(diff.only_b)})",
        "",
    ]
    phase_rows = [
        [
            name,
            f"{wall_a:9.2f}",
            f"{wall_b:9.2f}",
            _pct(frac),
            "REGRESSED" if frac > threshold else "",
        ]
        for name, wall_a, wall_b, frac in diff.phase_deltas()
    ]
    if phase_rows:
        out.append("per-phase wall time:")
        out.append(
            render_table(
                ["phase", "A wall s", "B wall s", "delta", ""], phase_rows
            )
        )
        out.append("")
    if diff.matched:
        rows = []
        for d in diff.matched:
            rows.append(
                [
                    d.spec[:12],
                    d.phase,
                    f"{d.a.wall_s:.3f}",
                    f"{d.b.wall_s:.3f}",
                    _pct(d.wall_frac),
                    _sci(d.b.leak_j),
                    _pct(d.leak_frac),
                    _pct(d.miss_frac),
                    "REGRESSED" if d.regressed(threshold) else "",
                ]
            )
        out.append("per-spec comparison (aligned by spec hash):")
        out.append(
            render_table(
                [
                    "spec",
                    "phase",
                    "A wall s",
                    "B wall s",
                    "wall",
                    "B leak J",
                    "leak",
                    "misses",
                    "",
                ],
                rows,
            )
        )
    else:
        out.append("no specs in common — nothing to compare.")
    regressions = sum(1 for d in diff.matched if d.regressed(threshold))
    out.append("")
    out.append(
        f"{regressions} regressed spec(s) at threshold "
        f"{100.0 * threshold:.0f}%"
    )
    return "\n".join(out)
