"""``repro report --live``: an auto-refreshing HTML status page.

Builds ``live.html`` next to the usual ``report.html``, rewritten
atomically (:func:`repro.fsio.write_text`) every interval so a browser
— or anything else reading the file — never sees a torn page.  While
the campaign is running the page carries a ``<meta http-equiv=refresh>``
so a plain browser tab self-updates with zero scripting; the tag is
dropped from the final rewrite once ``campaign_finished`` lands, and
the page stops churning.

The page is the report's own renderer (:func:`repro.obs.report.render_page`)
over the tailed fold and the first run sections of the tailed
``timeseries.jsonl``, plus the live-only blocks: status/ETA banner,
anomaly flags, runs in flight, and the finished line.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable

from repro.fsio import write_text
from repro.obs.report import RunSample, esc, render_page
from repro.obs.state import CampaignMonitor, CampaignState
from repro.obs.tail import JsonlTailer
from repro.obs.timeseries import TIMESERIES_FILENAME
from repro.obs.views import fmt_s

__all__ = [
    "LIVE_REPORT_FILENAME",
    "LiveReporter",
    "build_live_page",
    "live_report",
]

LIVE_REPORT_FILENAME = "live.html"

_STATUS_BADGE = {
    "running": ("running", "var(--series-1)"),
    "done": ("done", "var(--series-3)"),
    "failed": ("failed", "var(--critical)"),
    "stalled": ("stalled", "var(--series-2)"),
    "empty": ("waiting for events", "var(--muted)"),
}

_LIVE_CSS = """\
.badge { display: inline-block; border-radius: 4px; padding: 2px 10px;
         color: #fff; font-size: 12px; vertical-align: middle; }
.anom { color: var(--critical); }
"""


def _banner(state: CampaignState, now: float) -> str:
    status = state.status(now)
    label, color = _STATUS_BADGE.get(status, (status, "var(--muted)"))
    bits = [f'<span class="badge" style="background:{color}">{esc(label)}</span>']
    if state.current_phase:
        bits.append(f"phase <b>{esc(state.current_phase)}</b>")
    rate = state.throughput()
    if rate:
        bits.append(f"{rate:.2f} runs/s")
    eta = state.eta_s()
    if eta is not None:
        bits.append(f"ETA {esc(fmt_s(eta))}")
    age = state.age_s(now)
    if age is not None:
        bits.append(f"last event {esc(fmt_s(age))} ago")
    return f'<p class="sub">{" · ".join(bits)}</p>'


def _in_flight_table(state: CampaignState, now: float) -> str:
    rows = "".join(
        f'<tr><td class="spec">{esc(run["spec"][:12])}</td>'
        f'<td class="num">{run["slot"]}</td><td>{esc(run["phase"])}</td>'
        f'<td class="num">{esc(fmt_s(run["running_s"]))}</td></tr>'
        for run in state.running(now)
    )
    if not rows:
        return ""
    return (
        "<h2>In flight</h2><table><tr><th>spec</th><th class='num'>slot"
        "</th><th>phase</th><th class='num'>running</th></tr>"
        f"{rows}</table>"
    )


def _anomaly_block(state: CampaignState, now: float) -> str:
    anomalies = state.anomalies(now)
    if not anomalies:
        return ""
    items = "".join(
        f'<li class="anom"><b>{esc(a.kind)}</b>: {esc(a.detail)}</li>'
        for a in anomalies
    )
    return f"<h2>Anomalies</h2><ul>{items}</ul>"


def build_live_page(
    state: CampaignState,
    *,
    campaign: str = "",
    runs: RunSample | None = None,
    refresh_s: float | None = 2.0,
    now: float | None = None,
) -> str:
    """Render one self-contained live status page.

    ``runs`` samples the campaign's timeseries records.  ``refresh_s``
    adds the meta-refresh tag; pass ``None`` (done when the campaign
    finished) to emit a static final page.
    """
    now = now or time.time()
    refresh = ""
    if refresh_s is not None and state.finished is None:
        refresh = (
            f"<meta http-equiv='refresh' content='{max(refresh_s, 0.5):g}'>"
        )
    return render_page(
        state,
        runs if runs is not None else RunSample(),
        source=campaign,
        title="repro live status",
        heading="Campaign status",
        head=refresh,
        css=_LIVE_CSS,
        banner=_banner(state, now),
        alerts=_anomaly_block(state, now) + _in_flight_table(state, now),
        footer=(
            f'<p class="sub">campaign finished: '
            f"{esc(state.finished_line())}</p>"
            if state.finished is not None
            else ""
        ),
    )


class LiveReporter:
    """Tail a campaign and keep ``live.html`` fresh beside its logs."""

    def __init__(self, campaign: str | Path) -> None:
        self.campaign = Path(campaign)
        self.monitor = CampaignMonitor(self.campaign)
        events_path = self.monitor.events_path
        self.out_path = events_path.with_name(LIVE_REPORT_FILENAME)
        self._ts_tailer = JsonlTailer(
            events_path.with_name(TIMESERIES_FILENAME)
        )
        self._runs = RunSample()

    def refresh(self, *, refresh_s: float | None = 2.0) -> Path:
        """Poll both logs and atomically rewrite the page; returns it."""
        state = self.monitor.refresh()
        chunk = self._ts_tailer.poll()
        if chunk.rotated or chunk.truncated:
            self._runs = RunSample()
        self._runs.add(chunk.records)
        page = build_live_page(
            state,
            campaign=str(self.campaign),
            runs=self._runs,
            refresh_s=None if state.finished is not None else refresh_s,
        )
        write_text(self.out_path, page, durable=False)
        return self.out_path


def live_report(
    campaign: str | Path,
    *,
    interval: float = 2.0,
    once: bool = False,
    sleep: Callable[[float], Any] = time.sleep,
    max_frames: int | None = None,
) -> int:
    """The ``repro report --live`` loop; returns a process exit code.

    Rewrites until ``campaign_finished`` is folded (one final static
    rewrite without the refresh tag), ``--once``, or Ctrl-C.
    """
    reporter = LiveReporter(campaign)
    frames = 0
    try:
        while True:
            path = reporter.refresh(refresh_s=interval)
            frames += 1
            if once or reporter.monitor.state.finished is not None:
                print(path)
                return 0
            if max_frames is not None and frames >= max_frames:
                print(path)
                return 0
            sleep(interval)
    except KeyboardInterrupt:
        print(reporter.out_path)
        return 0
