"""Tests for the store lifecycle layer (repro.exec.lifecycle).

Covers the acceptance contract of the lifecycle work: LRU eviction under
size/age budgets leaves survivors as byte-identical warm hits, entries
referenced by an in-progress campaign manifest (or held by a live
single-flight claim) are never evicted, orphan litter is swept, and two
concurrent schedulers missing on the same spec hash compute it exactly
once.  Concurrency is exercised both with threads (deterministic
rendezvous) and with real processes hammering one store directory.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import threading
import time
from pathlib import Path

import pytest

from repro.circuits.sidecar import ANALYTIC_DIR, SolveSidecar, generation
from repro.circuits.solver import DCResult
from repro.cli import main as cli_main
from repro.exec import (
    CampaignManifest,
    ExecutionMetrics,
    ResultStore,
    RunSpec,
    Scheduler,
    SingleFlight,
    StoreIndex,
    collect_garbage,
    compact_store,
    store_report,
    sweep_orphans,
)
from repro.exec.lifecycle import (
    live_claims,
    live_pins,
    parse_duration,
    parse_size,
    scan_entries,
)

from tests.test_result_store import make_result

A_DEAD_PID = 2**22 + 12345  # beyond default pid_max: never a live process


def spec_n(n: int) -> RunSpec:
    """Distinct cheap specs (never executed in these tests)."""
    return RunSpec(
        benchmark="gcc", technique="drowsy", l2_latency=5, n_ops=1000,
        seed=n + 1,
    )


def fill_store(store: ResultStore, count: int) -> list[RunSpec]:
    specs = [spec_n(i) for i in range(count)]
    for spec in specs:
        store.put(spec, make_result(decay_interval=1000 + len(specs)))
    store.flush_index()
    return specs


def fill_sidecar(store: ResultStore, count: int) -> list[Path]:
    """Canned DC-solve sidecar entries under the store's current generation."""
    sidecar = SolveSidecar(store.root)
    result = DCResult(
        voltages={"vdd": 1.0, "gnd": 0.0, "n1": 0.25},
        supply_current=2e-9,
        ground_current=2e-9,
        residual_norm=1e-20,
    )
    keys = [f"{i:02x}" * 32 for i in range(count)]
    for key in keys:
        assert sidecar.put(key, result)
    return [sidecar.path_for(key) for key in keys]


def age_entry(store: ResultStore, spec: RunSpec, when: float) -> None:
    """Backdate an entry's last use (its file mtime)."""
    os.utime(store.path_for(spec), (when, when))


class TestParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("512", 512),
            ("64K", 64 * 1024),
            ("64k", 64 * 1024),
            ("10M", 10 * 1024**2),
            ("1.5M", int(1.5 * 1024**2)),
            ("1G", 1024**3),
            ("2GiB", 2 * 1024**3),
            ("3MB", 3 * 1024**2),
            (123, 123),
        ],
    )
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "ten", "10X", "-5", "1.2.3M"])
    def test_parse_size_rejects_garbage(self, bad):
        with pytest.raises(ValueError, match="unparseable size"):
            parse_size(bad)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("90", 90.0),
            ("30s", 30.0),
            ("15m", 900.0),
            ("12h", 43200.0),
            ("7d", 604800.0),
            ("2w", 1209600.0),
            (45, 45.0),
        ],
    )
    def test_parse_duration(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("bad", ["", "soon", "5y", "-1h"])
    def test_parse_duration_rejects_garbage(self, bad):
        with pytest.raises(ValueError, match="unparseable duration"):
            parse_duration(bad)


class TestStoreIndex:
    def test_touches_batch_until_flushed(self, tmp_path):
        """Store hits bump the lifetime counters in memory only; a flush
        writes counters and generation, and no per-entry table."""
        store = ResultStore(tmp_path / "cache")
        (spec,) = fill_store(store, 1)
        assert store.get(spec) is not None
        assert store.get(spec) is not None
        assert store.index.dirty
        assert json.loads(store.index.path.read_text())["counters"] == {
            "writes": 1
        }
        store.flush_index()
        assert json.loads(store.index.path.read_text()) == {
            "schema_version": 1,
            "generation": 0,
            "counters": {"writes": 1, "hits": 2},
        }
        assert not store.index.dirty

    def test_auto_flush_at_threshold(self, tmp_path, monkeypatch):
        from repro.exec import lifecycle

        monkeypatch.setattr(lifecycle, "FLUSH_EVERY", 3)
        index = StoreIndex(tmp_path)
        index.bump("hits")
        index.bump("hits")
        assert not index.path.exists()
        index.bump("misses")  # third op crosses the threshold
        assert index.path.exists()

    def test_concurrent_writers_merge_not_clobber(self, tmp_path):
        """Two index instances (two processes in real life) flushing
        interleaved must both land: load-merge-write, not overwrite."""
        one = StoreIndex(tmp_path)
        two = StoreIndex(tmp_path)
        one.bump("writes")
        one.bump("hits", 3)
        two.bump("writes")
        two.bump("hits", 4)
        one.flush()
        two.flush()
        payload = json.loads((tmp_path / "index.json").read_text())
        assert payload["counters"] == {"hits": 7, "writes": 2}

    def test_corrupt_index_loads_as_empty(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        fill_store(store, 2)
        store.index.path.write_text("}{ definitely not json")
        assert store.index.load() == {
            "schema_version": 1, "generation": 0, "counters": {},
        }
        store.index.bump("hits")
        assert store.index.flush()
        assert store_report(store).counters == {"hits": 1}

    def test_legacy_entries_table_is_dropped_on_next_flush(self, tmp_path):
        """An index.json written when it still kept a per-entry table
        keeps its counters and generation; the table goes on the next
        flush."""
        store = ResultStore(tmp_path / "cache")
        store.root.mkdir()
        store.index.path.write_text(json.dumps({
            "schema_version": 1,
            "generation": 4,
            "counters": {"hits": 10, "writes": 3},
            "entries": {"a" * 64: {"size": 100, "gen": 2, "atime": 5.0}},
        }))
        report = store_report(store)
        assert (report.generation, report.counters) == (
            4, {"hits": 10, "writes": 3}
        )
        store.index.bump("hits")
        assert store.index.flush()
        assert json.loads(store.index.path.read_text()) == {
            "schema_version": 1,
            "generation": 4,
            "counters": {"hits": 11, "writes": 3},
        }


class TestStoreReport:
    def test_counts_entries_bytes_and_shards(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = fill_store(store, 3)
        report = store_report(store)
        assert report.entries == 3
        assert report.total_bytes == sum(
            store.path_for(s).stat().st_size for s in specs
        )
        assert sum(c for c, _b in report.shards.values()) == 3
        assert report.counters["writes"] == 3

    def test_counts_orphans_pins_claims(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = fill_store(store, 1)
        key = specs[0].content_hash()
        (store.root / ".stray.tmp").write_text("x")
        with CampaignManifest(store.root) as manifest:
            manifest.add([key])
            sf = SingleFlight(store)
            assert sf.try_claim("f" * 64)
            report = store_report(store)
            sf.release_all()
        assert report.tmp_orphans == 1
        assert report.pins == 1
        assert report.claims == 1

    def test_counts_analytic_sidecar_separately(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "cache")
        fill_store(store, 2)
        paths = fill_sidecar(store, 3)
        report = store_report(store)
        assert report.entries == 2  # the sidecar is not a result entry
        assert report.analytic_entries == 3
        assert report.analytic_bytes == sum(p.stat().st_size for p in paths)

        assert cli_main(["store", "stats", str(store.root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic_entries"] == 3
        assert payload["analytic_bytes"] == report.analytic_bytes
        assert cli_main(["store", "stats", str(store.root)]) == 0
        text = capsys.readouterr().out
        assert "| analytic entries | 3 " in text
        assert f"| analytic bytes   | {report.analytic_bytes} " in text


class TestGc:
    def test_needs_a_budget(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes and/or max_age"):
            collect_garbage(ResultStore(tmp_path / "cache"))

    def test_max_bytes_evicts_lru_first(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = fill_store(store, 4)
        # Oldest first: seed i last used at t=1000+i.
        for i, spec in enumerate(specs):
            age_entry(store, spec, 1000.0 + i)
        entry_size = store.path_for(specs[0]).stat().st_size
        report = collect_garbage(
            store, max_bytes=2 * entry_size + 1, now=2000.0
        )
        assert report.evicted == 2
        assert report.kept == 2
        # The two least-recently-used entries went; the newest survive.
        assert not store.path_for(specs[0]).exists()
        assert not store.path_for(specs[1]).exists()
        assert store.path_for(specs[2]).exists()
        assert store.path_for(specs[3]).exists()

    def test_index_atime_outranks_mtime(self, tmp_path):
        """A hit is a use, and recency is use, not write time.  Entries
        A, B and C, all one size, were last used at t=1000, 1001 and
        1002.  A hit on A moves A's mtime to now, so the use order is
        B, C, A.  A budget of two entries must evict exactly one, the
        least recently used: B, the middle entry by write time."""
        store = ResultStore(tmp_path / "cache")
        a, b, c = fill_store(store, 3)
        for when, spec in zip((1000.0, 1001.0, 1002.0), (a, b, c)):
            age_entry(store, spec, when)
        assert store.get(a) is not None
        entry_size = store.path_for(a).stat().st_size
        report = collect_garbage(store, max_bytes=2 * entry_size + 1)
        assert report.evicted_keys == [b.content_hash()]
        assert store.path_for(a).exists()
        assert not store.path_for(b).exists()
        assert store.path_for(c).exists()

    def test_survivors_stay_byte_identical_warm_hits(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = fill_store(store, 4)
        for i, spec in enumerate(specs):
            age_entry(store, spec, 1000.0 + i)
        survivors = {
            spec.content_hash(): store.path_for(spec).read_bytes()
            for spec in specs[2:]
        }
        entry_size = store.path_for(specs[0]).stat().st_size
        collect_garbage(store, max_bytes=2 * entry_size + 1, now=2000.0)
        warm = ResultStore(store.root)
        for spec in specs[2:]:
            assert warm.get(spec) is not None
            assert (
                warm.path_for(spec).read_bytes()
                == survivors[spec.content_hash()]
            )
        assert warm.stats.hit_rate == 1.0
        for spec in specs[:2]:
            assert warm.get(spec) is None

    def test_max_age_evicts_stale_entries(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = fill_store(store, 3)
        age_entry(store, specs[0], 1000.0)
        age_entry(store, specs[1], 1000.0)
        age_entry(store, specs[2], 5000.0)
        report = collect_garbage(store, max_age_s=3600.0, now=6000.0)
        assert report.evicted == 2
        assert store.path_for(specs[2]).exists()

    def test_dry_run_removes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = fill_store(store, 3)
        report = collect_garbage(store, max_bytes=0, dry_run=True)
        assert report.dry_run
        assert report.evicted == 3
        for spec in specs:
            assert store.path_for(spec).exists()
        assert store.stats.evictions == 0

    def test_pinned_entries_are_never_evicted(self, tmp_path):
        """An in-progress campaign manifest outranks any budget."""
        store = ResultStore(tmp_path / "cache")
        specs = fill_store(store, 3)
        pinned = specs[1]
        with CampaignManifest(store.root, label="fig03") as manifest:
            manifest.add([pinned.content_hash()])
            report = collect_garbage(store, max_bytes=0)
        assert report.evicted == 2
        assert report.pinned == 1
        assert store.path_for(pinned).exists()
        assert ResultStore(store.root).get(pinned) is not None

    def test_dead_pid_manifest_does_not_pin(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = fill_store(store, 1)
        manifest_dir = store.root / "manifests"
        manifest_dir.mkdir()
        (manifest_dir / f"{A_DEAD_PID}-1.json").write_text(
            json.dumps(
                {
                    "pid": A_DEAD_PID,
                    "created": 0.0,
                    "specs": [specs[0].content_hash()],
                }
            )
        )
        assert live_pins(store.root) == set()
        report = collect_garbage(store, max_bytes=0)
        assert report.evicted == 1

    def test_live_claim_is_never_evicted(self, tmp_path):
        """Eviction must not race a single-flight holder that has already
        committed its entry but not yet released the claim."""
        store = ResultStore(tmp_path / "cache")
        specs = fill_store(store, 2)
        claimed = specs[0]
        sf = SingleFlight(store)
        assert sf.try_claim(claimed.content_hash())
        try:
            report = collect_garbage(store, max_bytes=0)
        finally:
            sf.release_all()
        assert report.evicted == 1
        assert report.claimed == 1
        assert store.path_for(claimed).exists()

    def test_gc_updates_lifetime_counters_and_generation(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        fill_store(store, 2)
        before = store_report(store).generation
        collect_garbage(store, max_bytes=0)
        report = store_report(store)
        assert report.generation == before + 1
        assert report.counters["evictions"] == 2
        assert report.counters["evicted_bytes"] > 0
        assert store.stats.evictions == 2

    def test_gc_never_touches_the_sidecar(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = fill_store(store, 3)
        paths = fill_sidecar(store, 2)
        assert set(scan_entries(store.root)) == {s.content_hash() for s in specs}
        report = collect_garbage(store, max_bytes=0)
        assert report.evicted == 3
        assert all(p.exists() for p in paths)
        assert store_report(store).analytic_entries == 2


class TestCompact:
    def test_leaves_the_sidecar_alone(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        fill_store(store, 2)
        paths = fill_sidecar(store, 2)
        report = compact_store(store)
        assert report.entries == 2
        assert all(p.exists() for p in paths)

    def test_removes_empty_shards_without_writing_the_index(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = fill_store(store, 3)
        shards_before = {
            p.name for p in store.root.iterdir() if len(p.name) == 2
        }
        collect_garbage(store, max_bytes=0)
        index_inode = store.index.path.stat().st_ino
        report = compact_store(store)
        assert report.removed_shards == len(shards_before)
        assert report.entries == 0
        for spec in specs:
            assert not store.path_for(spec).parent.exists()
        assert store.index.path.stat().st_ino == index_inode  # not rewritten


class TestSweep:
    def test_removes_old_tmp_keeps_fresh(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        fill_store(store, 1)
        shard = next(p for p in store.root.iterdir() if len(p.name) == 2)
        old = shard / ".dead-write.tmp"
        old.write_text("x")
        os.utime(old, (100.0, 100.0))
        fresh = shard / ".live-write.tmp"
        fresh.write_text("y")
        report = sweep_orphans(store, tmp_age_s=3600.0)
        assert report.tmp_removed == 1
        assert not old.exists()
        assert fresh.exists()

    def test_sweeps_sidecar_tmp_litter_and_stale_generations(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        (current,) = fill_sidecar(store, 1)
        old_tmp = current.parent / ".dead-solve.tmp"
        old_tmp.write_text("x")
        os.utime(old_tmp, (100.0, 100.0))
        fresh_tmp = current.parent / ".live-solve.tmp"
        fresh_tmp.write_text("y")
        stale = store.root / ANALYTIC_DIR / "v0-0123456789abcdef"
        (stale / "ab").mkdir(parents=True)
        (stale / "ab" / f"{'ab' * 32}.json").write_text("{}")
        assert store_report(store).tmp_orphans == 2
        report = sweep_orphans(store, tmp_age_s=3600.0)
        assert report.tmp_removed == 1
        assert report.stale_analytic == 1
        assert "1 stale analytic generation(s)" in report.summary()
        assert not old_tmp.exists() and fresh_tmp.exists()
        assert not stale.exists()
        assert current.exists()
        assert current.parent.parent.name == generation()

    def test_removes_dead_claims_and_manifests(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        claim_dir = store.root / "claims"
        claim_dir.mkdir(parents=True)
        (claim_dir / f"{'a' * 64}.claim").write_text(
            json.dumps({"pid": A_DEAD_PID, "created": time.time()})
        )
        manifest_dir = store.root / "manifests"
        manifest_dir.mkdir()
        (manifest_dir / f"{A_DEAD_PID}-1.json").write_text(
            json.dumps({"pid": A_DEAD_PID, "created": 0.0, "specs": []})
        )
        sf = SingleFlight(store)
        assert sf.try_claim("b" * 64)  # a live claim must survive
        with CampaignManifest(store.root) as manifest:
            report = sweep_orphans(store)
            assert report.stale_claims == 1
            assert report.stale_manifests == 1
            assert live_claims(store.root) == {"b" * 64}
            assert manifest.path.exists()
        sf.release_all()


class TestSingleFlight:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        one = SingleFlight(store)
        two = SingleFlight(store)
        key = "a" * 64
        assert one.try_claim(key)
        assert not two.try_claim(key)
        one.release(key)
        assert two.try_claim(key)
        two.release_all()

    def test_dead_holder_claim_is_stolen(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = "a" * 64
        claim_dir = store.root / "claims"
        claim_dir.mkdir(parents=True)
        (claim_dir / f"{key}.claim").write_text(
            json.dumps({"pid": A_DEAD_PID, "created": time.time()})
        )
        sf = SingleFlight(store)
        assert sf.try_claim(key)
        sf.release_all()

    def test_wedged_holder_claim_is_stolen_after_stale_window(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = "a" * 64
        claim_dir = store.root / "claims"
        claim_dir.mkdir(parents=True)
        # Live pid, but silent for far longer than the staleness window.
        (claim_dir / f"{key}.claim").write_text(
            json.dumps({"pid": os.getpid(), "created": time.time() - 10_000})
        )
        sf = SingleFlight(store, stale_s=900.0)
        assert sf.try_claim(key)
        sf.release_all()

    def test_wait_for_returns_committed_result(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = spec_n(0)
        key = spec.content_hash()
        holder = SingleFlight(store)
        assert holder.try_claim(key)
        expected = make_result()

        def commit_later():
            time.sleep(0.2)
            store.put(spec, expected)
            holder.release(key)

        thread = threading.Thread(target=commit_later)
        thread.start()
        try:
            waiter = SingleFlight(ResultStore(store.root), poll_s=0.02)
            got = waiter.wait_for(spec, key, timeout_s=10.0)
        finally:
            thread.join()
        assert got == expected

    def test_wait_for_takes_over_when_holder_vanishes(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = spec_n(0)
        key = spec.content_hash()
        holder = SingleFlight(store)
        assert holder.try_claim(key)

        def abandon_later():
            time.sleep(0.2)
            holder.release(key)  # dies without committing anything

        thread = threading.Thread(target=abandon_later)
        thread.start()
        try:
            waiter = SingleFlight(ResultStore(store.root), poll_s=0.02)
            got = waiter.wait_for(spec, key, timeout_s=10.0)
        finally:
            thread.join()
        assert got is None  # caller must compute ...
        assert key in waiter.owned  # ... and now owns the claim
        waiter.release_all()

    def test_wait_for_gives_up_at_timeout(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = spec_n(0)
        key = spec.content_hash()
        holder = SingleFlight(store)
        assert holder.try_claim(key)
        try:
            waiter = SingleFlight(ResultStore(store.root), poll_s=0.02)
            start = time.monotonic()
            got = waiter.wait_for(spec, key, timeout_s=0.2)
            assert got is None
            assert time.monotonic() - start < 5.0
            assert key not in waiter.owned
        finally:
            holder.release_all()


class TestSchedulerSingleFlight:
    """Two schedulers (threads standing in for processes) on one store."""

    def _patch_execute(self, monkeypatch, calls, started, release):
        from repro.exec import scheduler as sched_mod

        lock = threading.Lock()

        def slow_execute(spec):
            with lock:
                calls.append(spec.content_hash())
            started.set()
            assert release.wait(timeout=30.0)
            return make_result()

        monkeypatch.setattr(sched_mod, "execute_spec", slow_execute)

    def test_concurrent_miss_computes_once(self, tmp_path, monkeypatch):
        calls: list[str] = []
        started = threading.Event()
        release = threading.Event()
        self._patch_execute(monkeypatch, calls, started, release)
        spec = spec_n(0)
        root = tmp_path / "cache"
        outcomes: dict[str, object] = {}
        winner_metrics = ExecutionMetrics()
        waiter_metrics = ExecutionMetrics()

        def run(tag, metrics):
            sched = Scheduler(
                max_workers=1, store=ResultStore(root), metrics=metrics
            )
            outcomes[tag] = sched.run([spec])[0]

        winner = threading.Thread(target=run, args=("winner", winner_metrics))
        winner.start()
        assert started.wait(timeout=30.0)  # winner now holds the claim
        waiter = threading.Thread(target=run, args=("waiter", waiter_metrics))
        waiter.start()
        time.sleep(0.3)  # let the waiter reach its poll loop
        release.set()
        winner.join(timeout=30.0)
        waiter.join(timeout=30.0)
        assert not winner.is_alive() and not waiter.is_alive()

        assert len(calls) == 1  # the whole point: one computation
        assert outcomes["winner"] == outcomes["waiter"]
        assert winner_metrics.jobs_executed == 1
        assert winner_metrics.dedup_waits == 0
        assert waiter_metrics.jobs_executed == 0
        assert waiter_metrics.dedup_waits == 1
        # No claim litter left behind.
        assert live_claims(root) == set()

    def test_single_flight_can_be_disabled(self, tmp_path, monkeypatch):
        from repro.exec import scheduler as sched_mod

        monkeypatch.setattr(
            sched_mod, "execute_spec", lambda spec: make_result()
        )
        root = tmp_path / "cache"
        sched = Scheduler(
            max_workers=1, store=ResultStore(root), single_flight=False
        )
        sched.run([spec_n(0)])
        assert not (root / "claims").exists()

    def test_batch_still_pins_with_single_flight_disabled(
        self, tmp_path, monkeypatch
    ):
        from repro.exec import scheduler as sched_mod

        seen_pins: list[set] = []

        def spy_execute(spec):
            seen_pins.append(live_pins(root))
            return make_result()

        monkeypatch.setattr(sched_mod, "execute_spec", spy_execute)
        root = tmp_path / "cache"
        spec = spec_n(0)
        Scheduler(
            max_workers=1, store=ResultStore(root), single_flight=False
        ).run([spec])
        assert seen_pins == [{spec.content_hash()}]
        assert live_pins(root) == set()  # released at batch end


# ----------------------------------------------------------------------
# Real multi-process hammering (satellite: concurrent store access)
# ----------------------------------------------------------------------


def _canned_result_dict() -> dict:
    return dataclasses.asdict(make_result())


def _rendezvous(flag_dir: str, who: str, parties: int) -> None:
    """File-based barrier: works under any multiprocessing start method."""
    open(os.path.join(flag_dir, f"ready-{who}"), "w").close()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        ready = [
            name
            for name in os.listdir(flag_dir)
            if name.startswith("ready-")
        ]
        if len(ready) >= parties:
            return
        time.sleep(0.005)
    raise TimeoutError("rendezvous never completed")


def _hammer_worker(root: str, flag_dir: str, who: str, out_path: str) -> None:
    from repro.exec import ResultStore, RunSpec
    from repro.leakctl.energy import NetSavingsResult

    store = ResultStore(root)
    result = NetSavingsResult(**_canned_result_dict())
    specs = [
        RunSpec(
            benchmark="gcc", technique="drowsy", l2_latency=5, n_ops=1000,
            seed=k + 1,
        )
        for k in range(4)
    ]
    _rendezvous(flag_dir, who, parties=2)
    for i in range(60):
        spec = specs[i % len(specs)]
        store.put(spec, result)
        got = store.get(spec)
        # Concurrent overwrites are atomic: a reader sees a complete old
        # or complete new entry, never a torn one (which would count as
        # invalid and quarantine the shard).
        assert got == result, f"torn read on iteration {i}"
    assert store.stats.invalid == 0
    assert store.stats.quarantined == 0
    store.flush_index()
    with open(out_path, "w") as fh:
        json.dump(store.stats.to_dict(), fh)


def _single_flight_worker(
    root: str, flag_dir: str, who: str, exec_log: str, out_path: str
) -> None:
    from repro.exec import ResultStore, RunSpec, Scheduler
    from repro.exec import scheduler as sched_mod
    from repro.leakctl.energy import NetSavingsResult

    result = NetSavingsResult(**_canned_result_dict())

    def fake_execute(spec):
        with open(exec_log, "a") as fh:  # O_APPEND: atomic short writes
            fh.write(f"{os.getpid()}\n")
        time.sleep(0.5)  # hold the claim long enough to overlap the peer
        return result

    sched_mod.execute_spec = fake_execute
    spec = RunSpec(
        benchmark="gcc", technique="drowsy", l2_latency=5, n_ops=1000
    )
    sched = Scheduler(max_workers=1, store=ResultStore(root))
    _rendezvous(flag_dir, who, parties=2)
    got = sched.run([spec])[0]
    with open(out_path, "w") as fh:
        json.dump(dataclasses.asdict(got), fh)


class TestConcurrentStoreAccess:
    def _spawn(self, target, argses):
        ctx = multiprocessing.get_context()
        procs = [ctx.Process(target=target, args=args) for args in argses]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        for proc in procs:
            assert proc.exitcode == 0, f"worker failed: exit {proc.exitcode}"

    def test_two_processes_hammer_put_get_without_torn_reads(self, tmp_path):
        root = str(tmp_path / "cache")
        flags = tmp_path / "flags"
        flags.mkdir()
        outs = [str(tmp_path / f"out-{who}.json") for who in ("a", "b")]
        self._spawn(
            _hammer_worker,
            [
                (root, str(flags), "a", outs[0]),
                (root, str(flags), "b", outs[1]),
            ],
        )
        for out in outs:
            stats = json.loads(open(out).read())
            assert stats["invalid"] == 0
            assert stats["quarantined"] == 0
            assert stats["hits"] == 60
        # The store itself is intact: every entry still a clean hit.
        store = ResultStore(root)
        assert len(store) == 4
        for key, (size, _m) in scan_entries(root).items():
            assert size > 0

    def test_cross_process_single_flight_computes_once(self, tmp_path):
        root = str(tmp_path / "cache")
        flags = tmp_path / "flags"
        flags.mkdir()
        exec_log = str(tmp_path / "executions.log")
        outs = [str(tmp_path / f"sf-{who}.json") for who in ("a", "b")]
        self._spawn(
            _single_flight_worker,
            [
                (root, str(flags), "a", exec_log, outs[0]),
                (root, str(flags), "b", exec_log, outs[1]),
            ],
        )
        executions = open(exec_log).read().splitlines()
        assert len(executions) == 1, (
            f"single-flight failed: {len(executions)} executions"
        )
        a, b = (json.loads(open(out).read()) for out in outs)
        assert a == b
        assert live_claims(root) == set()
