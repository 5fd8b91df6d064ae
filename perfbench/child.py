"""One measurement of one workload, in a fresh process.

``run.py`` starts this script once per sample.  Everything before the
timed region (interpreter start-up and the imports below) is set-up time;
the timed region drives the program only through its public entry points.
The result, including the output check, goes to the ``--result`` file as
JSON.  Modes:

* ``timed``  -- run the workload untraced and measure it;
* ``traced`` -- install the layer tracer first, then run and fold spans;
* ``prep``   -- fill the result store for the warm workload (not measured);
* ``setup``  -- import everything and stop (a set-up time sample).

Usage: ``python3 perfbench/child.py --workload W --seed N --mode M
--work DIR --result FILE [--store DIR] [--spawn-t T]``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.cpu import surrogate  # noqa: E402
from repro.exec import ExecutionMetrics, ResultStore, Scheduler  # noqa: E402
from repro.exec.scheduler import SchedulerError  # noqa: E402
from repro.experiments import figures  # noqa: E402
from repro.experiments.campaign import QUICK_N_OPS  # noqa: E402
from repro.experiments.export import (  # noqa: E402
    best_interval_figure_to_dict,
    figure_to_dict,
    save_json,
)
from repro.experiments.reporting import (  # noqa: E402
    render_best_intervals,
    render_comparison,
    render_interval_table,
    render_machine_table,
    render_settling_table,
)
from repro.obs import metrics as obs_metrics  # noqa: E402

import catalog  # noqa: E402
import outcheck  # noqa: E402
import tracer as tracing  # noqa: E402

# The reproduce campaign's figure phases, in run_campaign's order.
PHASES = (
    ("fig03_04_l2_5", figures.figure_3_4),
    ("fig05_06_l2_8", figures.figure_5_6),
    ("fig07_l2_11_85c", figures.figure_7),
    ("fig08_09_l2_11_110c", figures.figure_8_9),
    ("fig10_11_l2_17", figures.figure_10_11),
    ("fig12_13_best_interval", figures.figure_12_13),
)


class RecordingScheduler(Scheduler):
    """A Scheduler that keeps every batch, so the check sees failed phases too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.batches: list[list] = []

    def run(self, specs, progress=None):
        batch = [list(specs), None]
        self.batches.append(batch)
        batch[1] = super().run(specs, progress)
        return batch[1]


def run_campaign(out: Path, store_root: Path, jobs: int) -> dict:
    """The quick reproduction campaign, phase by phase, as run_campaign does.

    ``run_campaign`` aborts at the first phase whose scheduler batch fails;
    here a failed phase is recorded and the next one still runs, so every
    phase is timed and the failed points are counted, not avoided.

    The campaign is always the ``make quick-reproduce`` input at campaign
    seed 1, whatever the benchmark seed.  The campaign seed decides how many
    points the scheduler gives up on (0 to 7 over seeds 1-10) and in which
    phase, and at -j 2 a serial retry in this process warms the analytic
    memos that later pool workers inherit: at seed 5, where nothing fails,
    all 12 workers derive them (1080 DC solves, 33-36 s) against 3
    processes at seed 1 (270 solves, 20-24 s).  A varying campaign seed
    would measure the seed rather than the program.
    """
    out.mkdir(parents=True, exist_ok=True)
    store = ResultStore(store_root)
    metrics = ExecutionMetrics()
    scheduler = RecordingScheduler(max_workers=jobs, store=store, metrics=metrics)
    obs.enable(str(out / "events.jsonl"))
    obs_metrics.reset_registry()
    started = time.time()
    failed_phases: list[str] = []

    def emit(name: str, text: str, payload: dict | None = None) -> None:
        (out / f"{name}.txt").write_text(text + "\n")
        if payload is not None:
            save_json(payload, out / f"{name}.json")

    try:
        with metrics.phase("tables"), obs.phase("tables"):
            emit("tab1_settling", render_settling_table(figures.table_1()))
            emit("tab2_machine", render_machine_table(figures.table_2()))
        for name, make_figure in PHASES:
            fig = None
            with metrics.phase(name), obs.phase(name):
                try:
                    fig = make_figure(
                        n_ops=QUICK_N_OPS,
                        seed=catalog.CAMPAIGN_SEED,
                        scheduler=scheduler,
                    )
                except SchedulerError:
                    failed_phases.append(name)
            if isinstance(fig, figures.BestIntervalFigure):
                emit(name, render_best_intervals(fig), best_interval_figure_to_dict(fig))
                emit("tab3_best_intervals", render_interval_table(figures.table_3(fig)))
            elif fig is not None:
                emit(name, render_comparison(fig), figure_to_dict(fig))
        metrics.write(
            out / "campaign_metrics.json",
            extra={"jobs": jobs, "result_store": store.stats.to_dict()},
        )
    finally:
        obs.emit("counters", counters=obs.counters(), spans=obs.span_stats())
        obs.emit(
            "campaign_finished",
            status="failed" if failed_phases else "ok",
            jobs_total=metrics.jobs_total,
            runs_executed=metrics.jobs_executed,
            cache_hits=metrics.cache_hits,
            failures=metrics.failures,
            retries=metrics.retries,
            timeouts=metrics.timeouts,
            wall_s=time.time() - started,
        )
        obs_metrics.write_registry_snapshot(out)
        obs.disable()
    return {
        "scheduler": scheduler,
        "store": store,
        "metrics": metrics,
        "failed_phases": failed_phases,
    }


def campaign_points(run: dict) -> dict[str, tuple[str, object]]:
    """Spec hash -> (label, delivered result or None if the scheduler gave up).

    Points of a failed batch that did complete were committed to the store
    before the batch raised, so they are read back from there.
    """
    points: dict[str, tuple[str, object]] = {}
    for specs, results in run["scheduler"].batches:
        for i, spec in enumerate(specs):
            key = spec.content_hash()[:16]
            label = (
                f"{spec.benchmark}/{spec.technique}/L2={spec.l2_latency}/"
                f"{spec.temp_c:g}C/interval={spec.decay_interval}"
            )
            if results is not None:
                points[key] = (label, results[i])
            elif key not in points or points[key][1] is None:
                points[key] = (label, run["store"].peek(spec))
    return points


def sweep_grid(seed: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A seeded temperature x supply grid inside the calibration envelope.

    One uniform draw per equal-width stratum, so values are distinct, sorted
    and span the whole envelope whatever the seed.
    """
    rng = random.Random(seed)

    def axis(lo: float, hi: float, n: int) -> tuple[float, ...]:
        width = (hi - lo) / n
        return tuple(lo + width * (k + rng.random()) for k in range(n))

    return (
        axis(*catalog.ENVELOPE_TEMP_C, catalog.SWEEP_TEMPS),
        axis(*catalog.ENVELOPE_VDD, catalog.SWEEP_VDDS),
    )


def run_sweep(temps: tuple[float, ...], vdds: tuple[float, ...]) -> list:
    """Surrogate sweeps over the four calibrated pairs: obs off, no store."""
    return [
        (bench, tech)
        + surrogate.surrogate_sweep(
            bench,
            tech,
            intervals=surrogate.DEFAULT_ANCHOR_INTERVALS,
            l2_latencies=surrogate.DEFAULT_ANCHOR_LATENCIES,
            temps_c=temps,
            vdds=vdds,
        )
        for bench, tech in catalog.SWEEP_PAIRS
    ]


def sweep_blocks(sweeps: list) -> tuple[dict[str, str], int, int]:
    """``(block digests, points, points not served)`` of a sweep run.

    Results are interval-major, so each (interval, L2) plane node owns a
    contiguous block of temperature x supply points.
    """
    blocks: dict[str, str] = {}
    points = 0
    not_served = 0
    nodes = [
        (i, l2)
        for i in surrogate.DEFAULT_ANCHOR_INTERVALS
        for l2 in surrogate.DEFAULT_ANCHOR_LATENCIES
    ]
    for bench, tech, results, report in sweeps:
        size = len(results) // len(nodes)
        for n, (interval, l2) in enumerate(nodes):
            block = results[n * size:(n + 1) * size]
            ok = all(outcheck.finite(r) for r in block)
            blocks[f"{bench}/{tech}/{interval}/{l2}"] = (
                outcheck.block_digest(block) if ok else "non-finite"
            )
        points += report.total
        not_served += report.total - report.served
    return blocks, points, not_served


def check(group: str, seed: int, delivered: dict[str, str]) -> dict:
    """Compare delivered digests with the group's reference for this seed."""
    source, ref = outcheck.reference(
        group, seed, pinned=catalog.PINNED, ledger_dir=catalog.LEDGER_DIR
    )
    mismatched, unpinned = outcheck.compare(delivered, ref)
    if ref is None:
        outcheck.write_ledger(group, seed, delivered, catalog.LEDGER_DIR)
    return {"reference": source, "mismatched": mismatched, "unpinned": unpinned}


def cpu_now() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def measure(args) -> dict:
    spec = catalog.WORKLOADS[args.workload]
    work = Path(args.work)
    store_root = Path(args.store) if args.store else work / "store"
    if spec["kind"] == "campaign":
        seed = catalog.CAMPAIGN_SEED
    else:
        seed, grid = args.seed, sweep_grid(args.seed)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer(work / "spans", f"{args.workload}-seed{args.seed}")
        tracing.install(tracer)

    ready = time.monotonic()
    cpu0 = cpu_now()
    if spec["kind"] == "campaign":
        run = run_campaign(work / "out", store_root, spec["jobs"])
    else:
        run = None
        sweeps = run_sweep(*grid)
    wall = time.monotonic() - ready
    cpu = cpu_now() - cpu0

    result = {
        "setup_s": ready - args.spawn_t,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
    }
    group = catalog.output_group(args.workload)
    if run is not None:
        points = campaign_points(run)
        delivered = {
            key: outcheck.digest(r)
            for key, (_label, r) in points.items()
            if r is not None and outcheck.finite(r)
        }
        verdict = check(group, seed, delivered)
        missing = sorted(label for key, (label, _r) in points.items() if key not in delivered)
        attempted = len(points)
        failed = len(missing) + len(verdict["mismatched"])
        verdict["mismatched"] = sorted(points[key][0] for key in verdict["mismatched"])
        result.update(
            failed_phases=run["failed_phases"],
            scheduler_failures=run["metrics"].failures,
            missing=missing,
        )
    else:
        delivered, attempted, not_served = sweep_blocks(sweeps)
        verdict = check(group, seed, delivered)
        bad = {k for k, d in delivered.items() if d == "non-finite"}
        bad.update(verdict["mismatched"])
        # A spot-check failure also changes its block's digest, so this is
        # an upper bound when both happen.
        block = catalog.SWEEP_TEMPS * catalog.SWEEP_VDDS
        failed = min(attempted, not_served + block * len(bad))
        result["not_served"] = not_served
    result.update(
        attempted=attempted,
        failed=failed,
        points_delivered=attempted - failed,
        correct=not verdict["mismatched"],
        **verdict,
    )
    if tracer is not None:
        result["layers"] = layers(tracer, run, work, spec["jobs"], args)
    return result


def layers(tracer, run, work: Path, jobs: int, args) -> dict:
    spans, counters = tracing.load_spans(tracer)
    for key, value in obs.counters().items():
        counters[key] = counters.get(key, 0) + value
    log_bytes = sum(
        p.stat().st_size
        for name in ("events.jsonl", "timeseries.jsonl")
        if (p := work / "out" / name).exists()
    )
    catalog.TRACE_DUMP_DIR.mkdir(parents=True, exist_ok=True)
    dump = catalog.TRACE_DUMP_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    with dump.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return tracing.layer_metrics(
        spans,
        counters,
        workers=jobs,
        obs_log_bytes=log_bytes,
        retries=run["metrics"].retries if run else 0,
        failures=run["metrics"].failures if run else 0,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "traced", "prep", "setup"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--store", default=None)
    parser.add_argument("--spawn-t", type=float, default=None)
    args = parser.parse_args(argv)
    if args.spawn_t is None:
        args.spawn_t = time.monotonic()
    if args.mode == "setup":
        result = {"setup_s": time.monotonic() - args.spawn_t}
    elif args.mode == "prep":
        spec = catalog.WORKLOADS[args.workload]
        run_campaign(Path(args.work) / "out", Path(args.store), spec["jobs"])
        result = {}
    else:
        result = measure(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
