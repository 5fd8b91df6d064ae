"""``repro watch``: a curses-free live terminal dashboard.

Tails a campaign's ``events.jsonl`` through a
:class:`~repro.obs.state.CampaignMonitor` and redraws a plain-ANSI status
screen (status, totals, per-phase bars, runs in flight, throughput / ETA,
anomalies) every interval until ``campaign_finished`` folds or Ctrl-C.
``--once`` renders one frame and exits; ``--json`` dumps
:meth:`CampaignState.to_dict` instead of the frame (one per interval
without ``--once``).
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, TextIO

from repro.obs.state import CampaignMonitor, CampaignState
from repro.obs.views import fmt_s

__all__ = ["render_watch", "watch_campaign"]

#: ANSI: clear screen + cursor home (redraw without scrollback spam).
CLEAR = "\x1b[2J\x1b[H"

_BAR_WIDTH = 28
_STATUS_GLYPH = {
    "running": "▶",
    "done": "✔",
    "failed": "✘",
    "stalled": "⚠",
    "empty": "·",
}


def _bar(done: int, total: int, width: int = _BAR_WIDTH) -> str:
    if total <= 0:
        return "░" * width
    filled = max(0, min(width, round(width * done / total)))
    return "█" * filled + "░" * (width - filled)


def render_watch(
    state: CampaignState, *, campaign: str = "", now: float | None = None
) -> str:
    """One full dashboard frame as a string (no escapes; caller clears)."""
    now = now or time.time()
    status = state.status(now)
    lines: list[str] = []

    glyph = _STATUS_GLYPH.get(status, "?")
    head = f"{glyph} {status.upper()}"
    if campaign:
        head += f"  {campaign}"
    if state.current_phase:
        head += f"  [{state.current_phase}]"
    lines.append(head)

    age = state.age_s(now)
    lines.append(
        f"  runs {state.total('runs_finished')}  "
        f"hits {state.total('cache_hits')}  "
        f"fails {state.total('failures')}  in-flight {len(state.in_flight)}  "
        f"batches {state.batches}  last event {fmt_s(age)} ago"
    )

    rate = state.throughput()
    rate_txt = f"{rate:.2f} runs/s" if rate else "--"
    wall_txt = f"{state.ewma_wall_s:.2f}s" if state.ewma_wall_s else "--"
    lines.append(
        f"  throughput {rate_txt}  ewma wall {wall_txt}  "
        f"eta {fmt_s(state.eta_s())}"
    )
    lines.append("")

    if state.phases:
        lines.append("  phases:")
        name_w = max(len(n) for n in state.phases)
        for name, p in state.phases.items():
            done = p.runs_finished + p.cache_hits
            total = max(p.runs_started + p.cache_hits, done)
            lines.append(
                f"    {name:<{name_w}}  {_bar(done, total)}  "
                f"{done}/{total}"
                + (f"  ({p.failures} failed)" if p.failures else "")
            )
        lines.append("")

    if state.in_flight:
        lines.append("  in flight:")
        for run in state.running(now)[:8]:
            lines.append(
                f"    {run['spec'][:12]:<12}  slot {run['slot']}  "
                f"{run['phase'] or '(none)':<20}  {fmt_s(run['running_s'])}"
            )
        extra = len(state.in_flight) - 8
        if extra > 0:
            lines.append(f"    ... and {extra} more")
        lines.append("")

    anomalies = state.anomalies(now)
    if anomalies:
        lines.append("  anomalies:")
        for a in anomalies:
            lines.append(f"    ⚠ {a.kind}: {a.detail}")
        lines.append("")

    if state.finished is not None:
        lines.append(f"  finished: {state.finished_line()}")
    return "\n".join(lines) + "\n"


def watch_campaign(
    campaign: str,
    *,
    interval: float = 1.0,
    once: bool = False,
    as_json: bool = False,
    stream: TextIO | None = None,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], Any] = time.sleep,
    max_frames: int | None = None,
) -> int:
    """Run the watch loop; returns a process exit code.

    ``--once`` against a campaign with no event log exits 2 (CI can
    distinguish "not started" from "empty frame"); the interactive loop
    instead keeps polling until the log appears.  ``max_frames`` bounds
    the loop for tests.
    """
    out = stream if stream is not None else sys.stdout
    monitor = CampaignMonitor(campaign)
    frames = 0
    try:
        while True:
            state = monitor.refresh()
            now = clock()
            if once and state.events_total == 0:
                print(
                    f"no event log at {monitor.events_path}",
                    file=sys.stderr,
                )
                return 2
            if as_json:
                out.write(json.dumps(state.to_dict(now), sort_keys=True) + "\n")
            else:
                if not once:
                    out.write(CLEAR)
                out.write(render_watch(state, campaign=campaign, now=now))
            out.flush()
            frames += 1
            if once or state.finished is not None:
                return 0
            if max_frames is not None and frames >= max_frames:
                return 0
            sleep(interval)
    except KeyboardInterrupt:
        return 0
