"""Zero-overhead-when-disabled observability for campaigns.

``repro.obs`` gives every layer of the simulator a common place to report
*how* it ran without changing *what* it computes: hierarchical timing
spans and named counters (:func:`span` / :func:`incr`), a structured
JSONL event log per campaign (:mod:`repro.obs.events`), the
one fold of that log, :class:`CampaignState` (:mod:`repro.obs.state`),
and the views rendered from it: ``repro trace`` / ``repro stats``
(:mod:`repro.obs.views`), Prometheus-style ``metrics.prom`` /
``metrics.json`` snapshots (:mod:`repro.obs.metrics`), the HTML report
(:mod:`repro.obs.report`), ``repro watch`` (:mod:`repro.obs.watch`) and
the auto-refreshing ``live.html`` status page (:mod:`repro.obs.live`),
with crash-safe log tailing (:mod:`repro.obs.tail`) for the live ones.

Everything hangs off one enable flag.  While disabled (the default)
every instrumentation site reduces to a single attribute check or a
shared no-op context manager, so the PR-2 hot paths cost nothing extra;
while enabled, results remain bit-identical — observability records,
it never steers.

Typical campaign use::

    from repro import obs

    obs.enable("results/events.jsonl")
    with obs.phase("fig03_04"):
        ...                      # scheduler/runner/solver events land here
    obs.emit("counters", counters=obs.counters(), spans=obs.span_stats())
    obs.disable()
"""

from repro.obs.core import (
    campaign_state,
    counters,
    disable,
    emit,
    emit_series,
    enable,
    incr,
    is_enabled,
    log_path,
    phase,
    reset,
    series_path,
    span,
    span_stats,
)
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    read_events,
    read_events_incremental,
    read_jsonl_incremental,
)
from repro.obs.metrics import (
    METRICS_JSON_FILENAME,
    METRICS_PROM_FILENAME,
    METRICS_SCHEMA_VERSION,
    reset_registry,
)
from repro.obs.state import CampaignMonitor, CampaignState
from repro.obs.tail import JsonlTailer, TailChunk
from repro.obs.timeseries import (
    SERIES_SCHEMA_VERSION,
    TIMESERIES_FILENAME,
    RunRecorder,
    Series,
    read_timeseries,
    resolve_timeseries_path,
)

__all__ = [
    "CampaignMonitor",
    "CampaignState",
    "EVENT_SCHEMA_VERSION",
    "EventLog",
    "JsonlTailer",
    "METRICS_JSON_FILENAME",
    "METRICS_PROM_FILENAME",
    "METRICS_SCHEMA_VERSION",
    "RunRecorder",
    "SERIES_SCHEMA_VERSION",
    "Series",
    "TIMESERIES_FILENAME",
    "TailChunk",
    "campaign_state",
    "counters",
    "disable",
    "emit",
    "emit_series",
    "enable",
    "incr",
    "is_enabled",
    "log_path",
    "phase",
    "read_events",
    "read_events_incremental",
    "read_jsonl_incremental",
    "read_timeseries",
    "reset",
    "reset_registry",
    "resolve_timeseries_path",
    "series_path",
    "span",
    "span_stats",
]

