"""The benchmark's own tests.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import catalog  # noqa: E402
import child  # noqa: E402  (puts src/ on sys.path)
import outcheck  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

from repro.exec import RunSpec, Scheduler  # noqa: E402
from repro.experiments.runner import clear_caches  # noqa: E402

BENCHMARK = json.loads((catalog.ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH_DIR / "layers.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _sample(**overrides) -> dict:
    sample = {
        "setup_s": 0.5, "wall_s": 2.0, "cpu_s": 2.5, "peak_rss_mb": 100.0,
        "attempted": 220, "failed": 2, "points_delivered": 218,
        "correct": True, "reference": "pinned", "layers": {},
    }
    sample.update(overrides)
    return sample


class _NoSpawn(run.Runner):
    def __init__(self) -> None:
        super().__init__("sweep-surrogate", 1, Path("."), 0.0)

    def child(self, mode, store=None):
        return _sample()


def test_declared_names_and_units_are_legal():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(catalog.WORKLOADS)


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    values = run.end_to_end(_NoSpawn(), [_sample(), _sample(wall_s=3.0)])
    out = run.declared(BENCHMARK, "end_to_end", values)
    assert list(out) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric in BENCHMARK["end_to_end"]:
        assert out[metric["name"]]["unit"] == metric["unit"]
        assert out[metric["name"]]["value"] != 0


def test_every_per_layer_metric_is_emitted_and_mapped():
    layers = tracing.layer_metrics(
        [], {}, workers=1, obs_log_bytes=0, retries=0, failures=0
    )
    untraced = [_sample()]
    traced = [_sample(wall_s=2.1, layers=layers)]
    out = run.declared(BENCHMARK, "per_layer", run.per_layer(untraced, traced))
    assert set(out) == {m["name"] for m in BENCHMARK["per_layer"]}
    mapped = [m for layer in LAYERS["layers"] for m in layer["metrics"]]
    assert sorted(mapped) == sorted(out)


def test_missing_metric_is_an_error():
    with pytest.raises(run.BenchError):
        run.declared(BENCHMARK, "end_to_end", {"wall_s": 1.0})


def _result():
    return RunSpec("gcc", "drowsy", n_ops=300, l2_latency=5).execute()


def test_perturbed_result_is_caught(tmp_path):
    result = _result()
    good = {"p": outcheck.digest(result)}
    bumped = replace(result, leak_technique_j=math.nextafter(result.leak_technique_j, 1.0))
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({"reproduce": {"7": good}}))
    source, ref = outcheck.reference("reproduce", 7, pinned=pinned, ledger_dir=tmp_path)
    assert source == "pinned"
    assert outcheck.compare({"p": outcheck.digest(result)}, ref) == ([], 0)
    assert outcheck.compare({"p": outcheck.digest(bumped)}, ref) == (["p"], 0)
    assert outcheck.compare({"q": outcheck.digest(bumped)}, ref) == ([], 1)
    blocks = outcheck.block_digest([result, result])
    assert blocks != outcheck.block_digest([result, bumped])


def test_ledger_is_the_reference_for_unpinned_seeds(tmp_path):
    pinned = tmp_path / "none.json"
    assert outcheck.reference("sweep", 3, pinned=pinned, ledger_dir=tmp_path) == ("new", None)
    outcheck.write_ledger("sweep", 3, {"a": "1"}, tmp_path)
    assert outcheck.reference("sweep", 3, pinned=pinned, ledger_dir=tmp_path) == (
        "ledger", {"a": "1"},
    )


def test_committed_pins_have_every_point():
    table = json.loads(catalog.PINNED.read_text())
    blocks = len(catalog.SWEEP_PAIRS) * 24
    assert list(table["reproduce"]) == [str(catalog.CAMPAIGN_SEED)]
    assert 218 <= len(table["reproduce"][str(catalog.CAMPAIGN_SEED)]) <= 220
    for seed, digests in table["sweep"].items():
        assert len(digests) == blocks, seed


def test_sweep_grid_is_seeded_and_inside_the_envelope():
    temps, vdds = child.sweep_grid(5)
    assert (temps, vdds) == child.sweep_grid(5)
    assert (temps, vdds) != child.sweep_grid(6)
    assert len(temps) == catalog.SWEEP_TEMPS and len(vdds) == catalog.SWEEP_VDDS
    assert list(temps) == sorted(set(temps)) and list(vdds) == sorted(set(vdds))
    lo, hi = catalog.ENVELOPE_TEMP_C
    assert lo <= temps[0] and temps[-1] <= hi
    lo, hi = catalog.ENVELOPE_VDD
    assert lo <= vdds[0] and vdds[-1] <= hi


def test_self_time_subtracts_same_process_children():
    spans = [
        {"id": "1:1", "name": "a", "start": 0.0, "end": 10.0, "parent": None, "pid": 1},
        {"id": "1:2", "name": "b", "start": 1.0, "end": 4.0, "parent": "1:1", "pid": 1},
        {"id": "1:3", "name": "c", "start": 3.0, "end": 6.0, "parent": "1:1", "pid": 1},
        {"id": "2:1", "name": "d", "start": 0.0, "end": 9.0, "parent": "1:1", "pid": 2},
    ]
    own = tracing.self_times(spans)
    assert own == {"1:1": 5.0, "1:2": 3.0, "1:3": 3.0, "2:1": 9.0}


@pytest.fixture
def traced(tmp_path):
    clear_caches()
    tracer = tracing.Tracer(tmp_path / "spans", "test")
    tracing.install(tracer)
    try:
        yield tracer
    finally:
        tracer.uninstall()
        clear_caches()


def _traced_batch(tracer, workers: int):
    specs = [
        RunSpec("gcc", tech, n_ops=300, l2_latency=5) for tech in ("drowsy", "gated-vss")
    ]
    Scheduler(max_workers=workers).run(specs)
    return tracing.load_spans(tracer)


def test_layer_self_times_are_nonnegative_and_fit_in_the_wall(traced):
    spans, _ = _traced_batch(traced, 1)
    roots = [s for s in spans if s["parent"] is None]
    wall = sum(s["end"] - s["start"] for s in roots)
    own = tracing.self_times(spans)
    assert all(v >= 0 for v in own.values())
    assert sum(own.values()) <= wall + 1e-9
    names = {s["name"] for s in spans}
    assert {"exec.Scheduler.run", "exec.RunSpec.execute", "cpu.Pipeline.run",
            "circuits.LeakageSolver.solve", "leakctl.net_savings"} <= names
    assert all(s["run"] != "test" for s in spans if s["name"] == "cpu.Pipeline.run")


def test_worker_spans_reach_the_report(traced):
    spans, _ = _traced_batch(traced, 2)
    workers = {s["pid"] for s in spans} - {traced.coordinator}
    assert workers
    metrics = tracing.layer_metrics(
        spans, {}, workers=2, obs_log_bytes=0, retries=0, failures=0
    )
    assert metrics["exec.spec_execute_calls"] == 2
    assert metrics["circuits.solve_calls"] > 0
    assert metrics["workloads.trace_gen_calls"] > 0
    assert all(
        s["pid"] in workers
        for s in spans
        if s["name"] in ("circuits.LeakageSolver.solve", "workloads.TraceGenerator.ops")
    )
