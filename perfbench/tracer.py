"""Span tracing for the benchmark's traced runs.

The tracer wraps the public call into each layer of ``repro`` from the
outside: a class method is replaced on its class, a module function is
rebound in every loaded ``repro`` module that holds it by name.  Nothing
inside the program changes, and an untraced run installs nothing.

Each span records its name, start, end, parent span and run id.  A span
opened under ``RunSpec.execute`` carries that spec's content hash as its
run id; every other span carries the benchmark run's id.  Spans live in
memory.  Pool workers are forked after the wrappers are installed, so they
inherit them; a fork hook gives each worker a clean span list, and the
worker appends its spans (plus its obs counter deltas) to one JSONL file
per pid after every ``RunSpec.execute``.  The coordinating process folds
its own spans and every worker file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


class Tracer:
    """Collects spans in memory; see the module docstring."""

    def __init__(self, trace_dir: str | Path, run_id: str) -> None:
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id
        self.coordinator = os.getpid()
        self.pid = self.coordinator
        # One span: [id, name, start, end, parent, run, attrs].
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.seq = 0
        self.counter_base: dict[str, float] = {}
        self.installed: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str, *, push: bool = True) -> list:
        self.seq += 1
        parent = self.stack[-1] if self.stack else None
        span = [
            f"{self.pid}:{self.seq}",
            name,
            time.perf_counter(),
            None,
            parent[0] if parent is not None else None,
            parent[5] if parent is not None else self.run_id,
            None,
        ]
        self.spans.append(span)
        if push:
            self.stack.append(span)
        return span

    def close(self, span: list, *, pushed: bool = True) -> None:
        span[3] = time.perf_counter()
        if pushed and self.stack and self.stack[-1] is span:
            self.stack.pop()

    def after_fork(self) -> None:
        """Fork hook: a worker starts with no spans of its parent's."""
        top = self.stack[-1] if self.stack else None
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.seq = 0
        self.counter_base = _obs_counters()
        if top is not None:
            # Keep the coordinator's open span as this worker's root so
            # worker spans name a parent; it is never written here.
            self.stack.append([top[0], top[1], top[2], None, top[4], top[5], None])

    def flush_worker(self) -> None:
        """Append this worker's new spans and counter deltas to its file."""
        if self.pid == self.coordinator:
            return
        done = [s for s in self.spans if s[3] is not None]
        counters = _obs_counters()
        delta = {
            k: v - self.counter_base.get(k, 0) for k, v in counters.items()
        }
        path = self.trace_dir / f"spans-{self.pid}.jsonl"
        with path.open("a") as fh:
            for span in done:
                fh.write(json.dumps({"pid": self.pid, "span": span}) + "\n")
            fh.write(json.dumps({"pid": self.pid, "counters": delta}) + "\n")
        self.spans = [s for s in self.spans if s[3] is None]

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, attrs=None, generator=False):
        """Replace ``owner.attr`` with a traced version.

        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span.  A ``generator`` span runs from the first item to exhaustion
        and is a leaf: it is never pushed, so a consumer interleaving other
        traced calls cannot corrupt the stack.
        """
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        if generator:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = tracer.open(name, push=False)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(span, pushed=False)
                    if attrs is not None:
                        span[6] = attrs(args, kwargs, None)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = tracer.open(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    tracer.close(span)
                    if attrs is not None:
                        span[6] = attrs(args, kwargs, result)

        if isinstance(owner, type):
            setattr(owner, attr, traced)
            self.installed.append((owner, attr, fn))
        else:
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "") or ""
                if not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)
                        self.installed.append((module, key, fn))
        return traced

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self.installed):
            setattr(owner, attr, fn)
        self.installed.clear()


def _obs_counters() -> dict[str, float]:
    from repro import obs

    return obs.counters()


def install(tracer: Tracer) -> None:
    """Wrap the public call into each layer named by the benchmark."""
    from repro import obs
    from repro.circuits.solver import LeakageSolver
    from repro.cpu import surrogate
    from repro.cpu.pipeline import Pipeline
    from repro.exec.scheduler import Scheduler
    from repro.exec.spec import RunSpec
    from repro.exec.store import ResultStore
    from repro.experiments import runner
    from repro.leakage import kdesign
    from repro.leakage.model import HotLeakage
    from repro.leakctl import energy
    from repro.obs import metrics as obs_metrics
    from repro.workloads.generator import TraceGenerator

    tracer.wrap(
        TraceGenerator, "ops", "workloads.TraceGenerator.ops",
        generator=True,
        attrs=lambda a, k, r: {
            "key": [a[0].profile.name, a[0].seed, a[1] if len(a) > 1 else k["n_ops"],
                    a[0].rng_mode]
        },
    )
    tracer.wrap(runner, "run_once", "experiments.run_once")
    tracer.wrap(runner, "figure_point", "experiments.figure_point")
    tracer.wrap(
        Pipeline, "run", "cpu.Pipeline.run",
        attrs=lambda a, k, r: {"ops": r.committed if r is not None else 0},
    )
    tracer.wrap(
        surrogate, "surrogate_sweep", "cpu.surrogate_sweep",
        attrs=lambda a, k, r: (
            {} if r is None else {
                "total": r[1].total,
                "served": r[1].served,
                "spot_checks": r[1].spot_checks,
            }
        ),
    )
    tracer.wrap(
        surrogate.SurrogateModel, "evaluate_grid",
        "cpu.SurrogateModel.evaluate_grid",
    )
    tracer.wrap(
        LeakageSolver, "solve", "circuits.LeakageSolver.solve",
        attrs=lambda a, k, r: {"point": [a[0].vdd, a[0].temp_k]},
    )
    tracer.wrap(kdesign, "derive_kdesign", "leakage.derive_kdesign")
    tracer.wrap(HotLeakage, "cache_model", "leakage.HotLeakage.cache_model")
    tracer.wrap(energy, "net_savings", "leakctl.net_savings")
    tracer.wrap(Scheduler, "run", "exec.Scheduler.run")

    execute = RunSpec.__dict__["execute"]

    @functools.wraps(execute)
    def traced_execute(self):
        span = tracer.open("exec.RunSpec.execute")
        span[5] = self.content_hash()
        try:
            return execute(self)
        finally:
            tracer.close(span)
            tracer.flush_worker()

    RunSpec.execute = traced_execute
    tracer.installed.append((RunSpec, "execute", execute))
    tracer.wrap(
        ResultStore, "get", "exec.ResultStore.get",
        attrs=lambda a, k, r: {"hit": r is not None},
    )
    tracer.wrap(ResultStore, "put", "exec.ResultStore.put")
    tracer.wrap(obs, "emit", "obs.emit")
    tracer.wrap(obs_metrics, "write_registry_snapshot", "obs.write_registry_snapshot")
    os.register_at_fork(after_in_child=tracer.after_fork)


def load_spans(tracer: Tracer) -> tuple[list[dict], dict[str, float]]:
    """Every finished span (coordinator + workers) and summed worker counters."""
    spans = [_as_dict(s, tracer.coordinator) for s in tracer.spans if s[3] is not None]
    counters: dict[str, float] = {}
    for path in sorted(tracer.trace_dir.glob("spans-*.jsonl")):
        last: dict[str, float] = {}
        with path.open() as fh:
            for line in fh:
                record = json.loads(line)
                if "span" in record:
                    spans.append(_as_dict(record["span"], record["pid"]))
                else:
                    last = record["counters"]
        for key, value in last.items():
            counters[key] = counters.get(key, 0) + value
    return spans, counters


def _as_dict(span: list, pid: int) -> dict:
    sid, name, start, end, parent, run, attrs = span
    return {
        "id": sid, "name": name, "start": start, "end": end,
        "parent": parent, "run": run, "attrs": attrs or {}, "pid": pid,
    }


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part its same-process children cover."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s["start"]
        for c in sorted(
            (c for c in children.get(s["id"], ()) if c["pid"] == s["pid"]),
            key=lambda c: c["start"],
        ):
            lo = max(c["start"], edge)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s["id"]] = max(s["end"] - s["start"] - covered, 0.0)
    return out


def layer_metrics(
    spans: list[dict],
    counters: dict[str, float],
    *,
    workers: int,
    obs_log_bytes: int,
    retries: int,
    failures: int,
) -> dict[str, float]:
    """Fold spans and counters into the per-layer metrics."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def self_total(name: str) -> float:
        return sum(own[s["id"]] for s in by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()))

    gens = by_name.get("workloads.TraceGenerator.ops", [])
    distinct_traces = {tuple(s["attrs"]["key"]) for s in gens}
    solves = by_name.get("circuits.LeakageSolver.solve", [])
    pipeline_s = total("cpu.Pipeline.run")
    batch_s = total("exec.Scheduler.run")
    gets = by_name.get("exec.ResultStore.get", [])
    sweeps_total = attr_sum("cpu.surrogate_sweep", "total")
    return {
        "workloads.trace_gen_s": total("workloads.TraceGenerator.ops"),
        "workloads.trace_gen_calls": len(gens),
        "workloads.trace_reuse_ratio": (
            len(distinct_traces) / len(gens) if gens else 0.0
        ),
        "experiments.run_once_calls": calls("experiments.run_once"),
        "experiments.run_once_self_s": self_total("experiments.run_once"),
        "experiments.figure_point_calls": calls("experiments.figure_point"),
        "experiments.warmup_replayed": counters.get("runner.warmup_replayed", 0),
        "experiments.warmup_restored": counters.get("runner.warmup_restored", 0),
        "cpu.pipeline_s": pipeline_s,
        "cpu.pipeline_calls": calls("cpu.Pipeline.run"),
        "cpu.sim_ops_per_s": (
            attr_sum("cpu.Pipeline.run", "ops") / pipeline_s if pipeline_s else 0.0
        ),
        "cpu.surrogate_grid_s": total("cpu.SurrogateModel.evaluate_grid"),
        "cpu.surrogate_served_ratio": (
            attr_sum("cpu.surrogate_sweep", "served") / sweeps_total
            if sweeps_total else 0.0
        ),
        "cpu.surrogate_spot_checks": attr_sum("cpu.surrogate_sweep", "spot_checks"),
        "circuits.solve_s": total("circuits.LeakageSolver.solve"),
        "circuits.solve_calls": len(solves),
        "circuits.solve_processes": len({s["pid"] for s in solves}),
        "circuits.solve_operating_points": len(
            {tuple(s["attrs"]["point"]) for s in solves}
        ),
        "leakage.kdesign_self_s": self_total("leakage.derive_kdesign"),
        "leakage.kdesign_calls": calls("leakage.derive_kdesign"),
        "leakage.cache_model_calls": calls("leakage.HotLeakage.cache_model"),
        "leakctl.net_savings_self_s": self_total("leakctl.net_savings"),
        "leakctl.net_savings_calls": calls("leakctl.net_savings"),
        "exec.batches": calls("exec.Scheduler.run"),
        "exec.batch_s": batch_s,
        "exec.spec_execute_s": total("exec.RunSpec.execute"),
        "exec.spec_execute_calls": calls("exec.RunSpec.execute"),
        "exec.worker_busy_frac": (
            total("exec.RunSpec.execute") / (workers * batch_s) if batch_s else 0.0
        ),
        "exec.retries": retries,
        "exec.failures": failures,
        "exec.store_get_s": total("exec.ResultStore.get"),
        "exec.store_put_s": total("exec.ResultStore.put"),
        "exec.store_hit_ratio": (
            sum(1 for s in gets if s["attrs"].get("hit")) / len(gets) if gets else 0.0
        ),
        "exec.store_writes": calls("exec.ResultStore.put"),
        "obs.emit_calls": calls("obs.emit"),
        "obs.emit_s": total("obs.emit"),
        "obs.snapshot_s": total("obs.write_registry_snapshot"),
        "obs.log_bytes": obs_log_bytes,
    }
