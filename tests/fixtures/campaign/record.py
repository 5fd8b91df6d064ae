"""Record the campaign fixture behind the view golden tests.

Runs a small observed campaign through the figure builders (as
``run_campaign`` does, phase by phase) and writes its ``events.jsonl``
and ``timeseries.jsonl`` next to this file, then renders every campaign
view from those logs into ``golden/``.  The campaign is shaped so the
log carries every event kind the campaign fold reads:

* ``fig03_04_l2_5`` on a 2-worker pool: vpr/gated-vss fails at 4 000 ops
  under seed 1, so it logs ``run_failed`` and ``run_retried`` and the
  batch raises; the draining pool logs ``heartbeat`` events;
* ``fig10_11_l2_17`` with a tiny per-job budget: the pool abandons every
  job (``run_timeout``), which then runs serially (``run_requeued``);
* ``fig10_11_l2_17_warm``: the same points again, all ``cache_hit`` from
  the store;
* ``fig07_l2_11_85c`` with gzip listed twice: in-batch ``cache_hit``s;
* ``fig12_13_best_interval`` for gzip: twelve more runs, so the log
  holds more runs than the report charts;
* ``counters`` and ``campaign_finished`` close the log.

The recorded logs are timing-dependent, so re-recording changes every
golden; the golden tests only compare renders of the committed logs.
Usage, from the repository root::

    PYTHONPATH=src python tests/fixtures/campaign/record.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The campaign directory as the views are given it (repo-root relative,
#: so ``report.html``, which prints the log path, is machine independent).
CAMPAIGN = "tests/fixtures/campaign"
GOLDEN = HERE / "golden"
#: Fixed wall clock for ``watch --once --json`` (ages are relative to it).
WATCH_NOW = 2_000_000_000.0

SEED = 1
N_OPS = 4000
BENCHMARKS = ("gzip", "vpr")


def record_campaign() -> None:
    from repro import obs
    from repro.exec import ExecutionMetrics, ResultStore, Scheduler
    from repro.exec import scheduler as sched_mod
    from repro.exec.scheduler import SchedulerError
    from repro.experiments import figures
    from repro.obs import metrics as obs_metrics

    for name in ("events.jsonl", "timeseries.jsonl"):
        (HERE / name).unlink(missing_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "store")
        metrics = ExecutionMetrics()
        pool = Scheduler(max_workers=2, store=store, metrics=metrics, retries=1)
        tight = Scheduler(
            max_workers=2, store=store, metrics=metrics, retries=1,
            timeout_s=0.01,
        )
        phases = (
            ("fig03_04_l2_5", figures.figure_3_4, pool, BENCHMARKS),
            ("fig10_11_l2_17", figures.figure_10_11, tight, BENCHMARKS),
            ("fig10_11_l2_17_warm", figures.figure_10_11, pool, BENCHMARKS),
            ("fig07_l2_11_85c", figures.figure_7, pool, ("gzip", "gzip")),
            ("fig12_13_best_interval", figures.figure_12_13, pool, ("gzip",)),
        )
        obs.enable(str(HERE / "events.jsonl"))
        obs_metrics.reset_registry()
        heartbeat_s, sched_mod.HEARTBEAT_S = sched_mod.HEARTBEAT_S, 0.25
        started = time.time()
        failed = []
        try:
            for name, build, scheduler, benchmarks in phases:
                with metrics.phase(name), obs.phase(name):
                    try:
                        build(
                            n_ops=N_OPS, seed=SEED, benchmarks=benchmarks,
                            scheduler=scheduler,
                        )
                    except SchedulerError:
                        failed.append(name)
        finally:
            obs.emit(
                "counters", counters=obs.counters(), spans=obs.span_stats()
            )
            obs.emit(
                "campaign_finished",
                status="failed" if failed else "ok",
                jobs_total=metrics.jobs_total,
                runs_executed=metrics.jobs_executed,
                cache_hits=metrics.cache_hits,
                failures=metrics.failures,
                retries=metrics.retries,
                timeouts=metrics.timeouts,
                wall_s=time.time() - started,
            )
            GOLDEN.mkdir(exist_ok=True)
            obs_metrics.write_registry_snapshot(GOLDEN)
            obs.disable()
            sched_mod.HEARTBEAT_S = heartbeat_s
    # The scheduler also snapshots at every batch boundary next to the
    # log; only the final snapshot (in golden/) is kept.
    for name in ("metrics.prom", "metrics.json"):
        (HERE / name).unlink(missing_ok=True)


def _cli(argv: list[str]) -> str:
    from repro.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    return buf.getvalue()


def render_views(campaign: str = CAMPAIGN) -> dict[str, str]:
    """Every text view of the campaign, keyed by golden file name.

    Must run with the repository root as the working directory.
    """
    from repro.obs import state
    from repro.obs.report import build_report
    from repro.obs.watch import watch_campaign

    views = {
        "stats.txt": _cli(["stats", campaign]),
        "stats.json": _cli(["stats", campaign, "--format", "json"]),
        "trace.txt": _cli(["trace", campaign, "--limit", "0"]),
        "diff.txt": _cli(["diff", campaign, campaign]),
        "report.html": build_report(campaign),
    }
    alive = state.pid_alive
    state.pid_alive = lambda pid: False
    try:
        buf = io.StringIO()
        code = watch_campaign(
            campaign, once=True, as_json=True, stream=buf,
            clock=lambda: WATCH_NOW,
        )
    finally:
        state.pid_alive = alive
    if code != 0:
        raise RuntimeError(f"watch exited {code}")
    views["watch.json"] = buf.getvalue()
    return views


def main() -> int:
    root = HERE.parents[2]
    if Path.cwd().resolve() != root:
        print(f"run from the repository root ({root})", file=sys.stderr)
        return 2
    record_campaign()
    for name, text in render_views().items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
    summary = json.loads((GOLDEN / "stats.json").read_text())
    print(
        f"recorded {summary['events_total']} events, "
        f"{summary['runs_finished']} runs into {CAMPAIGN}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
