"""Prometheus-style metrics snapshots rendered from the campaign fold.

``metrics.prom`` (the Prometheus text exposition format) and
``metrics.json`` are two encodings of one
:class:`~repro.obs.state.CampaignState`: :func:`families` reads the fold
into labelled counter, gauge and histogram families (listed in
docs/OBSERVABILITY.md), and :func:`render_prometheus` / :func:`to_dict`
print them.  Live, the scheduler snapshots the fold of the campaign's
own log (:func:`repro.obs.campaign_state`) next to ``events.jsonl`` at
every batch boundary via :func:`write_registry_snapshot`; offline,
folding that ``events.jsonl`` and rendering it gives the same files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.fsio import write_text
from repro.obs import core as _core
from repro.obs.state import Buckets, CampaignState

__all__ = [
    "METRICS_JSON_FILENAME",
    "METRICS_PROM_FILENAME",
    "METRICS_SCHEMA_VERSION",
    "families",
    "render_prometheus",
    "reset_registry",
    "to_dict",
    "write_registry_snapshot",
    "write_snapshot",
]

METRICS_SCHEMA_VERSION = 1

METRICS_PROM_FILENAME = "metrics.prom"
METRICS_JSON_FILENAME = "metrics.json"

#: One family: (name, kind, help, samples).  Counter and gauge samples are
#: ``(labels, value)``; histogram samples are ``(labels, Buckets)``.
Family = tuple[str, str, str, list[tuple[dict[str, str], Any]]]


def families(state: CampaignState) -> list[Family]:
    """The metric families of one fold, sorted by name.

    A family appears once the fold has seen a record that feeds it, and
    a labelled sample once its label value has occurred.
    """
    out: list[Family] = []

    def add(present, name, kind, help, samples) -> None:
        if present and samples:
            out.append((name, kind, help, samples))

    started, finished, failed, timeouts = (
        state.total(name)
        for name in ("runs_started", "runs_finished", "failures", "timeouts")
    )
    outcomes = {
        "failed": failed,
        "finished": finished,
        "requeued": state.total("requeues"),
        "retried": state.total("retries"),
        "timeout": timeouts,
    }
    add(state.batches, "repro_batch_jobs_total", "counter",
        "Jobs by disposition", [
            ({"disposition": "cached"}, float(state.cache_hits)),
            ({"disposition": "executed"}, float(state.jobs_executed)),
            ({"disposition": "submitted"}, float(state.jobs_total)),
        ])
    add(state.batches, "repro_batch_wall_seconds", "histogram",
        "Scheduler batch wall time distribution", [({}, state.batch_wall)])
    add(state.batches, "repro_batches_total", "counter",
        "Scheduler batches completed", [({}, float(state.batches))])
    add(True, "repro_cache_hits_total", "counter",
        "Cache hits by source (store, batch, single-flight)",
        [({"source": source}, float(n))
         for source, n in sorted(state.hits_by_source.items())])
    add(finished, "repro_run_wall_seconds", "histogram",
        "Per-run wall time distribution", [({}, state.run_wall)])
    add(started or finished or failed or timeouts, "repro_runs_in_flight",
        "gauge", "Runs submitted but not yet finished",
        [({}, float(started - finished - failed - timeouts))])
    add(True, "repro_runs_total", "counter", "Run outcomes by kind",
        [({"outcome": k}, float(n)) for k, n in outcomes.items() if n])
    add(finished, "repro_worker_cpu_seconds_total", "counter",
        "CPU seconds burned in workers", [({}, state.worker_cpu_s)])
    add(state.last_rss_kb, "repro_worker_rss_kb", "gauge",
        "Most recent worker peak RSS (kB)", [({}, state.last_rss_kb)])
    add(state.last_rss_kb, "repro_worker_rss_peak_kb", "gauge",
        "Campaign-wide peak worker RSS (kB)", [({}, state.max_rss_kb)])
    return out


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt_value(value: float) -> str:
    """Exposition-format number: integers bare, floats via repr."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _sample_line(name: str, labels: dict[str, str], value: float) -> str:
    if not labels:
        return f"{name} {_fmt_value(value)}"
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels.items())
    return f"{name}{{{body}}} {_fmt_value(value)}"


def render_prometheus(state: CampaignState) -> str:
    """The text exposition format, one block per family, sorted."""
    out: list[str] = []
    for name, kind, help, samples in families(state):
        out.append(f"# HELP {name} {help}")
        out.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            if kind != "histogram":
                out.append(_sample_line(name, labels, value))
                continue
            hist: Buckets = value
            for bound, count in zip(hist.bounds, hist.counts):
                le = {**labels, "le": _fmt_value(bound)}
                out.append(_sample_line(f"{name}_bucket", le, count))
            le = {**labels, "le": "+Inf"}
            out.append(_sample_line(f"{name}_bucket", le, hist.count))
            out.append(_sample_line(f"{name}_sum", labels, hist.sum))
            out.append(_sample_line(f"{name}_count", labels, hist.count))
    return "\n".join(out) + ("\n" if out else "")


def to_dict(state: CampaignState) -> dict[str, Any]:
    """The JSON encoding of the same families."""
    metrics = []
    for name, kind, help, samples in families(state):
        family: dict[str, Any] = {"name": name, "type": kind, "help": help}
        if kind == "histogram":
            family["buckets"] = list(samples[0][1].bounds)
            family["samples"] = [
                {
                    "labels": labels,
                    "counts": list(hist.counts),
                    "sum": hist.sum,
                    "count": hist.count,
                }
                for labels, hist in samples
            ]
        else:
            family["samples"] = [
                {"labels": labels, "value": value} for labels, value in samples
            ]
        metrics.append(family)
    return {"schema": METRICS_SCHEMA_VERSION, "metrics": metrics}


def write_snapshot(
    state: CampaignState, directory: str | Path
) -> tuple[Path, Path]:
    """Atomically (re)write ``metrics.prom`` + ``metrics.json``."""
    directory = Path(directory)
    prom = directory / METRICS_PROM_FILENAME
    as_json = directory / METRICS_JSON_FILENAME
    write_text(prom, render_prometheus(state), durable=False)
    write_text(
        as_json,
        json.dumps(to_dict(state), indent=1, sort_keys=True) + "\n",
        durable=False,
    )
    return prom, as_json


def write_registry_snapshot(directory: str | Path) -> None:
    """Best-effort snapshot of the live fold next to the event log.

    Called at batch boundaries with the campaign directory; an unwritable
    directory (read-only CI mount, racing cleanup) must never take the
    campaign down, so OSErrors are swallowed.
    """
    try:
        write_snapshot(_core.campaign_state(), directory)
    except OSError:
        pass


def reset_registry() -> None:
    """Restart the live fold the snapshots render (attaching a log with
    :func:`repro.obs.enable` already starts a fresh one)."""
    _core.reset_campaign_state()
