"""Tests for the persisted DC-solve tier (repro.circuits.sidecar).

The contract: a solve loaded from the sidecar equals a fresh one bit for
bit, a key can never serve a solve computed by other code or for another
operating point, a bad entry is quarantined and recomputed (never
served), and a scheduler with a store hands the sidecar to the solver in
its own process and in every pool worker.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.circuits import STANDARD_CELLS, LeakageSolver, nand2, sidecar
from repro.circuits import solver as solver_mod
from repro.exec import ResultStore, RunSpec, Scheduler
from repro.experiments.runner import clear_caches
from repro.leakage.kdesign import kdesign_surface
from repro.memo import reset_all
from repro.tech.nodes import get_node

NODE = get_node("70nm")
HOT_K = 383.15
SRC = Path(__file__).resolve().parent.parent / "src"


def surface_points(node):
    """The nine (T, Vdd) points :func:`kdesign_surface` fits through."""
    return [
        (t, v)
        for t in (300.0, 340.0, HOT_K)
        for v in (0.8 * node.vdd0, 0.9 * node.vdd0, node.vdd0)
    ]


def entries(root: Path) -> list[Path]:
    return sorted((Path(root) / sidecar.ANALYTIC_DIR).rglob("*.json"))


def solve_nand2(root, node=NODE, inputs=(0, 1)):
    net = nand2()
    with sidecar.attached(root):
        return LeakageSolver(node, temp_k=HOT_K).solve(
            net, dict(zip(net.inputs, inputs))
        )


@pytest.fixture
def no_relax(monkeypatch):
    """Any relaxation fails the test: solves must come from memo or disk."""

    def refuse(*_a, **_k):
        raise AssertionError("DC relaxation ran")

    monkeypatch.setattr(LeakageSolver, "_relax", refuse)


@pytest.fixture
def counters():
    obs.reset()
    obs.enable()
    yield obs.counters
    obs.reset()


@pytest.fixture(autouse=True)
def _detached():
    yield
    assert solver_mod._ATTACHED.sidecar is None, "a sidecar stayed attached"


class TestRoundTrip:
    def test_no_store_no_sidecar(self, counters):
        solver_mod.clear_solve_memo()
        net = nand2()
        LeakageSolver(NODE, temp_k=HOT_K).solve(net, {"x": 0, "y": 1})
        assert not any(name.startswith("solver.store_") for name in counters())

    def test_fresh_solve_is_written_then_served(self, tmp_path, counters, monkeypatch):
        solver_mod.clear_solve_memo()
        fresh = solve_nand2(tmp_path)
        (path,) = entries(tmp_path)
        assert path.parent.parent.name == sidecar.generation()
        assert counters()["solver.store_misses"] == 1
        assert counters()["solver.store_writes"] == 1

        def refuse(*_a, **_k):
            raise AssertionError("DC relaxation ran")

        monkeypatch.setattr(LeakageSolver, "_relax", refuse)
        solver_mod.clear_solve_memo()
        loaded = solve_nand2(tmp_path)
        assert loaded == fresh
        assert list(loaded.voltages) == list(fresh.voltages)
        assert counters()["solver.store_hits"] == 1
        assert counters()["solver.store_writes"] == 1

    def test_attachment_is_per_thread(self, tmp_path):
        """Interleaved attach/detach in two threads (two schedulers with
        their own stores) leaves neither thread attached afterwards."""
        inside, leave = threading.Event(), threading.Event()
        seen = []

        def other():
            with sidecar.attached(tmp_path / "b"):
                seen.append(solver_mod._ATTACHED.sidecar.store_root)
                inside.set()
                leave.wait(timeout=10)
            seen.append(solver_mod._ATTACHED.sidecar)

        with sidecar.attached(tmp_path / "a"):
            thread = threading.Thread(target=other)
            thread.start()
            assert inside.wait(timeout=10)
            assert solver_mod._ATTACHED.sidecar.store_root == tmp_path / "a"
        leave.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [tmp_path / "b", None]
        assert solver_mod._ATTACHED.sidecar is None

    def test_memo_hit_skips_the_disk(self, tmp_path, counters):
        solver_mod.clear_solve_memo()
        solve_nand2(tmp_path)
        solve_nand2(tmp_path)
        assert counters()["solver.store_misses"] == 1
        assert "solver.store_hits" not in counters()


def _truncate(path: Path) -> None:
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _edit(change):
    def corrupt(path: Path) -> None:
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))

    return corrupt


def _nan_voltage(payload):
    payload["result"]["voltages"][-1][1] = float("nan")


CORRUPTIONS = {
    "truncated": _truncate,
    "wrong-key-echo": _edit(lambda p: p.update(key="0" * 64)),
    "nan-voltage": _edit(_nan_voltage),
    "oversized-residual": _edit(lambda p: p["result"].update(residual_norm=1.0)),
    "schema-version": _edit(
        lambda p: p.update(schema_version=sidecar.SCHEMA_VERSION + 1)
    ),
}


class TestValidation:
    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_bad_entry_is_quarantined_and_recomputed(self, tmp_path, counters, kind):
        solver_mod.clear_solve_memo()
        fresh = solve_nand2(tmp_path)
        (path,) = entries(tmp_path)
        CORRUPTIONS[kind](path)
        solver_mod.clear_solve_memo()
        again = solve_nand2(tmp_path)
        assert again == fresh
        assert list(again.voltages) == list(fresh.voltages)
        assert counters()["solver.store_invalid"] == 1
        assert counters()["solver.store_writes"] == 2
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [q.name.split(".json")[0] for q in quarantined] == [
            f"{sidecar.ANALYTIC_DIR}-{path.stem}"
        ]
        # The recomputed solve replaced the bad entry with a valid one.
        assert json.loads(path.read_text())["key"] == path.stem

    def test_unconverged_fresh_solve_is_returned_but_not_written(
        self, tmp_path, monkeypatch
    ):
        relax = LeakageSolver._relax

        def loose(self, *args, **kwargs):
            relax(self, *args, **kwargs)
            return 1.0  # far above the residual bound

        monkeypatch.setattr(LeakageSolver, "_relax", loose)
        solver_mod.clear_solve_memo()
        result = solve_nand2(tmp_path)
        assert result.residual_norm == 1.0
        assert not sidecar.acceptable(result)
        assert entries(tmp_path) == []

    def test_write_failure_does_not_break_the_solve(self, tmp_path):
        blocker = tmp_path / "store"
        blocker.mkdir()
        (blocker / sidecar.ANALYTIC_DIR).write_text("not a directory")
        solver_mod.clear_solve_memo()
        assert solve_nand2(blocker).supply_current > 0


@pytest.fixture(scope="module")
def warm_matrix(tmp_path_factory):
    """Every standard cell x input combination x surface point, solved
    cold into a fresh sidecar, plus the cold k_design surface fits."""
    root = tmp_path_factory.mktemp("matrix-store")
    reset_all()
    fresh = {}
    with sidecar.attached(root):
        surfaces = {cell: kdesign_surface(cell, "70nm") for cell in STANDARD_CELLS}
        for cell, build in STANDARD_CELLS.items():
            net = build()
            for t, v in surface_points(NODE):
                solver = LeakageSolver(NODE, vdd=v, temp_k=t)
                for combo in itertools.product((0, 1), repeat=len(net.inputs)):
                    fresh[cell, t, v, combo] = solver.solve(
                        net, dict(zip(net.inputs, combo))
                    )
    return root, surfaces, fresh


class TestBitIdentity:
    def test_every_standard_cell_solve_loads_identical(self, warm_matrix, no_relax):
        root, _surfaces, fresh = warm_matrix
        assert len(entries(root)) == len(fresh)
        reset_all()
        with sidecar.attached(root):
            for (cell, t, v, combo), expected in fresh.items():
                net = STANDARD_CELLS[cell]()
                got = LeakageSolver(NODE, vdd=v, temp_k=t).solve(
                    net, dict(zip(net.inputs, combo))
                )
                assert got == expected, (cell, t, v, combo)
                assert list(got.voltages) == list(expected.voltages)
        reset_all()

    def test_kdesign_surface_from_sidecar_equals_cold_fit(self, warm_matrix, no_relax):
        root, surfaces, _fresh = warm_matrix
        reset_all()
        with sidecar.attached(root):
            for cell, cold in surfaces.items():
                warm = kdesign_surface(cell, "70nm")
                assert dataclasses.asdict(warm) == dataclasses.asdict(cold), cell
        reset_all()


def stored_key(root: Path, node=NODE) -> str:
    solver_mod.clear_solve_memo()
    shutil.rmtree(root, ignore_errors=True)
    solve_nand2(root, node=node)
    (path,) = entries(root)
    return path.stem


class TestKey:
    def test_key_is_stable_across_hash_seeds(self, tmp_path):
        script = (
            "import sys; from pathlib import Path\n"
            "from repro.circuits import LeakageSolver, nand2, sidecar\n"
            "from repro.tech.nodes import get_node\n"
            "net = nand2()\n"
            "with sidecar.attached(sys.argv[1]):\n"
            f"    LeakageSolver(get_node('70nm'), temp_k={HOT_K!r}).solve("
            "net, dict(zip(net.inputs, (0, 1))))\n"
            "(path,) = Path(sys.argv[1]).rglob('*.json')\n"
            "print(path.stem)\n"
        )
        keys = set()
        for seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            out = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / seed)],
                env=env, capture_output=True, text=True, check=True,
            )
            keys.add(out.stdout.strip())
        assert keys == {stored_key(tmp_path / "here")}

    def test_every_node_field_changes_the_key(self, tmp_path):
        base = stored_key(tmp_path / "base")
        seen = {base}
        for field in dataclasses.fields(NODE):
            value = getattr(NODE, field.name)
            bumped = value + "x" if isinstance(value, str) else value * 1.001 + 1e-4
            key = stored_key(
                tmp_path / field.name, node=NODE.with_overrides(**{field.name: bumped})
            )
            assert key not in seen, field.name
            seen.add(key)

    def test_code_version_changes_key_and_generation(self, tmp_path, monkeypatch):
        import repro.exec.spec

        base, gen = stored_key(tmp_path / "a"), sidecar.generation()
        monkeypatch.setattr(repro.exec.spec, "CODE_VERSION", "bumped")
        assert stored_key(tmp_path / "b") != base
        assert sidecar.generation() != gen

    @pytest.mark.parametrize(
        "module",
        ["repro.circuits.solver", "repro.circuits.netlist", "repro.tech.constants"],
    )
    def test_salted_source_edit_changes_key(self, tmp_path, monkeypatch, module):
        import importlib

        mod = importlib.import_module(module)
        base, gen = stored_key(tmp_path / "a"), sidecar.generation()
        edited = tmp_path / "edited.py"
        edited.write_text(Path(mod.__file__).read_text() + "\n# edited\n")
        monkeypatch.setattr(mod, "__file__", str(edited))
        sidecar.source_digest.cache_clear()
        try:
            assert stored_key(tmp_path / "b") != base
            assert sidecar.generation() != gen
        finally:
            monkeypatch.undo()
            sidecar.source_digest.cache_clear()
        assert sidecar.generation() == gen


SPEC = dict(benchmark="gcc", technique="drowsy", l2_latency=5, n_ops=2000)


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store whose sidecar holds every solve of one cold figure point."""
    root = tmp_path_factory.mktemp("warm-store")
    reset_all()
    clear_caches()
    Scheduler(store=ResultStore(root)).run([RunSpec(**SPEC, decay_interval=1024)])
    assert entries(root)
    return root


class TestScheduler:
    @pytest.mark.parametrize("workers,intervals", [(1, (2048,)), (2, (4096, 8192))])
    def test_store_miss_runs_against_warm_sidecar_without_relaxing(
        self, warm_store, no_relax, counters, workers, intervals
    ):
        store = ResultStore(warm_store)
        specs = [RunSpec(**SPEC, decay_interval=d) for d in intervals]
        assert all(store.peek(s) is None for s in specs)
        reset_all()
        clear_caches()
        results = Scheduler(max_workers=workers, store=store).run(specs)
        assert len(results) == len(specs)
        assert store.stats.writes == len(specs)
        if workers == 1:
            assert counters()["solver.store_hits"] > 0
        assert solver_mod._ATTACHED.sidecar is None
