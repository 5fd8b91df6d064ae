"""Tests for the parallel execution subsystem (specs and scheduler).

Covers the determinism contract the content-addressed store relies on:
a RunSpec survives pickling across process boundaries and produces
bit-identical results whether executed in-process, in a subprocess, or
through a parallel scheduler.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

import pytest

from repro.exec import ExecutionMetrics, ResultStore, RunSpec, Scheduler
from repro.exec.scheduler import SchedulerError, execute_spec
from repro.leakctl.energy import NetSavingsResult

FAST = dict(l2_latency=5, n_ops=1500)


def assert_results_identical(a: NetSavingsResult, b: NetSavingsResult) -> None:
    for f in fields(NetSavingsResult):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


class TestRunSpec:
    def test_pickle_round_trip(self):
        spec = RunSpec(benchmark="gcc", technique="drowsy", **FAST)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_json_round_trip(self):
        spec = RunSpec(
            benchmark="mcf", technique="gated-vss", temp_c=85.0,
            decay_interval=2048, adaptive=True, seed=7, **FAST,
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"benchmark": "gcc", "technique": "drowsy",
                               "warp_factor": 9})

    def test_validates_enumerated_fields(self):
        with pytest.raises(ValueError, match="technique"):
            RunSpec(benchmark="gcc", technique="quantum")
        with pytest.raises(ValueError, match="policy"):
            RunSpec(benchmark="gcc", technique="drowsy", policy="eager")
        with pytest.raises(ValueError, match="target"):
            RunSpec(benchmark="gcc", technique="drowsy", target="l3")
        with pytest.raises(ValueError, match="engine"):
            RunSpec(benchmark="gcc", technique="drowsy", engine="warp")

    def test_execute_matches_figure_point(self):
        from repro.experiments.runner import figure_point, technique_by_name

        spec = RunSpec(benchmark="gcc", technique="drowsy", **FAST)
        direct = figure_point(
            "gcc", technique_by_name("drowsy"),
            l2_latency=FAST["l2_latency"], n_ops=FAST["n_ops"],
        )
        assert_results_identical(spec.execute(), direct)


class TestCrossProcessDeterminism:
    def test_subprocess_result_identical_to_in_process(self):
        """The same spec, run in a worker process and in-process, yields
        bit-identical NetSavingsResult fields — the property that makes
        parallel campaigns equivalent to serial ones."""
        spec = RunSpec(benchmark="gzip", technique="gated-vss", **FAST)
        local = spec.execute()
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(execute_spec, spec).result(timeout=300)
        assert_results_identical(local, remote)


class TestScheduler:
    def _specs(self):
        return [
            RunSpec(benchmark=b, technique=t, **FAST)
            for b in ("gcc", "gzip")
            for t in ("drowsy", "gated-vss")
        ]

    def test_serial_matches_direct_execution(self):
        specs = self._specs()
        results = Scheduler(max_workers=1).run(specs)
        for spec, result in zip(specs, results):
            assert result.benchmark == spec.benchmark
            assert result.technique == spec.technique

    def test_parallel_matches_serial(self):
        specs = self._specs()
        serial = Scheduler(max_workers=1).run(specs)
        parallel = Scheduler(max_workers=2).run(specs)
        for a, b in zip(serial, parallel):
            assert_results_identical(a, b)

    def test_duplicate_specs_executed_once(self, tmp_path):
        spec = RunSpec(benchmark="gcc", technique="drowsy", **FAST)
        store = ResultStore(tmp_path / "store")
        results = Scheduler(max_workers=1, store=store).run([spec, spec, spec])
        assert store.stats.writes == 1
        assert_results_identical(results[0], results[1])
        assert_results_identical(results[0], results[2])

    def test_store_makes_second_batch_all_hits(self, tmp_path):
        specs = self._specs()
        store = ResultStore(tmp_path / "store")
        first = Scheduler(max_workers=1, store=store).run(specs)
        warm_store = ResultStore(tmp_path / "store")
        second = Scheduler(max_workers=1, store=warm_store).run(specs)
        assert warm_store.stats.hit_rate == 1.0
        for a, b in zip(first, second):
            assert_results_identical(a, b)

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        from repro.exec import scheduler as sched_mod

        def broken_pool(*args, **kwargs):
            raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", broken_pool)
        specs = self._specs()[:2]
        results = Scheduler(max_workers=4).run(specs)
        assert len(results) == 2
        assert results[0].benchmark == specs[0].benchmark

    def test_transient_failure_is_retried(self, monkeypatch):
        from repro.exec import scheduler as sched_mod

        real = sched_mod.execute_spec
        calls = {"n": 0}

        def flaky(spec):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("worker died")
            return real(spec)

        monkeypatch.setattr(sched_mod, "execute_spec", flaky)
        spec = RunSpec(benchmark="gcc", technique="drowsy", **FAST)
        results = Scheduler(max_workers=1, retries=2).run([spec])
        assert results[0].benchmark == "gcc"
        assert calls["n"] == 2

    def test_persistent_failure_raises_scheduler_error(self, monkeypatch):
        from repro.exec import scheduler as sched_mod

        def always_broken(spec):
            raise RuntimeError("deterministic bug")

        monkeypatch.setattr(sched_mod, "execute_spec", always_broken)
        spec = RunSpec(benchmark="gcc", technique="drowsy", **FAST)
        with pytest.raises(SchedulerError, match="failed after 1 retries"):
            Scheduler(max_workers=1, retries=1).run([spec])

    def test_failed_run_releases_its_locals(self, monkeypatch):
        """A failed run's traceback must not pin the run's working set
        (its cache model) for as long as the error is held, nor through a
        reference cycle until the next full collection."""
        import gc
        import weakref

        from repro.exec import scheduler as sched_mod

        class WorkingSet:
            pass

        alive = []

        def broken(spec):
            working_set = WorkingSet()
            alive.append(weakref.ref(working_set))
            raise RuntimeError("deterministic bug")

        monkeypatch.setattr(sched_mod, "execute_spec", broken)
        spec = RunSpec(benchmark="gcc", technique="drowsy", **FAST)
        gc.disable()
        try:
            with pytest.raises(SchedulerError) as info:
                Scheduler(max_workers=1, retries=1).run([spec])
            assert len(alive) == 2
            assert all(ref() is None for ref in alive)
            assert "deterministic bug" in repr(info.value.__cause__)
        finally:
            gc.enable()

    def test_metrics_aggregate_batches(self, tmp_path):
        specs = self._specs()
        store = ResultStore(tmp_path / "store")
        metrics = ExecutionMetrics()
        sched = Scheduler(max_workers=1, store=store, metrics=metrics)
        sched.run(specs)
        sched.run(specs)
        assert metrics.jobs_total == 2 * len(specs)
        assert metrics.jobs_executed == len(specs)
        assert metrics.cache_hits == len(specs)
        assert 0.0 < metrics.hit_rate < 1.0
        payload = metrics.to_dict()
        assert payload["jobs_total"] == 2 * len(specs)
        assert payload["throughput_runs_per_s"] > 0

    def test_failed_batch_stays_in_the_books(self, tmp_path, monkeypatch):
        """Regression: a batch that ends in SchedulerError used to skip its
        batch_finished record, so ExecutionMetrics dropped every job of
        it — the finished and stored ones included — while the event log
        still counted the run that finished."""
        from repro import obs
        from repro.exec import scheduler as sched_mod
        from repro.obs.events import read_events
        from repro.obs.views import aggregate

        good = RunSpec(benchmark="gcc", technique="drowsy", **FAST)
        bad = RunSpec(benchmark="gzip", technique="drowsy", **FAST)
        execute = sched_mod.execute_spec_observed

        def flaky(spec):
            if spec == bad:
                raise RuntimeError("deterministic bug")
            return execute(spec)

        monkeypatch.setattr(sched_mod, "execute_spec_observed", flaky)
        metrics = ExecutionMetrics()
        store = ResultStore(tmp_path / "store")
        log = tmp_path / "events.jsonl"
        obs.enable(log)
        try:
            with pytest.raises(SchedulerError):
                Scheduler(store=store, metrics=metrics, retries=1).run(
                    [good, bad]
                )
        finally:
            obs.reset()
        folded = aggregate(read_events(log))
        assert (metrics.jobs_total, metrics.jobs_executed) == (2, 1)
        assert (metrics.retries, metrics.failures) == (1, 1)
        assert folded.total("runs_finished") == metrics.jobs_executed == 1
        assert folded.total("retries") == metrics.retries
        assert folded.total("failures") == 2  # failed attempts
        assert (folded.jobs_total, folded.jobs_executed) == (2, 1)
        assert folded.batches == 1
        assert store.get(good) is not None

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            Scheduler(max_workers=0)
        with pytest.raises(ValueError):
            Scheduler(retries=-1)
        with pytest.raises(ValueError, match="timeout_s"):
            Scheduler(timeout_s=0)
        with pytest.raises(ValueError, match="timeout_s"):
            Scheduler(timeout_s=-5.0)


class TestPoolTimeout:
    def test_hanging_job_is_abandoned_not_retried(self, monkeypatch):
        """A job that outlives the batch budget is abandoned (its pool is
        shut down with cancel_futures) and re-run serially exactly once,
        counted as a timeout — never double-counted as a retry."""
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.exec import scheduler as sched_mod

        specs = [
            RunSpec(benchmark=b, technique="drowsy", **FAST)
            for b in ("gcc", "gzip")
        ]
        victim = specs[0].content_hash()
        # Precompute the results so the monkeypatched entry point returns
        # instantly — only the deliberate hang consumes wall time, which
        # keeps the test deterministic under a loaded machine.
        expected = {s.content_hash(): s.execute() for s in specs}
        release = threading.Event()
        calls: list[str] = []

        def hang_once(spec):
            key = spec.content_hash()
            calls.append(key)
            if key == victim and calls.count(victim) == 1:
                release.wait(timeout=60)
            return expected[key]

        # Threads (not processes) so the monkeypatched entry point is the
        # one the pool actually runs.
        monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(sched_mod, "execute_spec", hang_once)
        try:
            metrics = ExecutionMetrics()
            sched = Scheduler(max_workers=2, timeout_s=1.0, metrics=metrics)
            results = sched.run(specs)
            assert len(results) == 2
            for got, spec in zip(results, specs):
                assert_results_identical(got, expected[spec.content_hash()])
            assert metrics.timeouts == 1
            assert metrics.retries == 0
            assert metrics.failures == 0
            # Victim ran twice (hung attempt + serial pass), peer once.
            assert calls.count(victim) == 2
            assert calls.count(specs[1].content_hash()) == 1
        finally:
            release.set()

    def test_pool_timeout_metrics_serialised(self):
        metrics = ExecutionMetrics()
        for slot in range(3):
            metrics.apply(
                {"event": "run_requeued", "spec": "a", "slot": slot}
            )
        assert metrics.to_dict()["timeouts"] == 3


class TestCampaignIntegration:
    def test_warm_campaign_rerun_hits_store(self, tmp_path):
        """Acceptance: a second reproduce into the same out dir is served
        almost entirely from the result store."""
        from repro.experiments.campaign import run_campaign

        out = tmp_path / "res"
        cold = run_campaign(out, quick=True, benchmarks=("gcc",))
        assert cold.metrics["jobs_executed"] > 0
        assert (out / "campaign_metrics.json").exists()

        warm = run_campaign(out, quick=True, benchmarks=("gcc",))
        assert warm.metrics["hit_rate"] >= 0.9
        assert warm.metrics["jobs_executed"] == 0
        # Same artefact payloads either way.
        for name, path in warm.artefacts.items():
            if path.suffix == ".txt":
                assert path.read_text() == cold.artefacts[name].read_text()
