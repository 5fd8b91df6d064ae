"""Campaign benchmark for the drowsy vs gated-Vss reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload reproduce-cold-j1 --seed 1 --seconds 15 --trace 0

Every sample is a fresh process (``perfbench/child.py``) that imports the
program from ``src/`` and drives it through its public entry points.  With
``--trace 0`` the samples are untraced and the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` each
untraced sample is paired with a traced one and the JSON carries the
per-layer metrics plus the tracing overhead.  Metric names and units come
from ``BENCHMARK.json``; the workloads are listed in ``perfbench/catalog.py``.

Short workloads repeat in fresh processes until ``--seconds`` have passed
and report medians; a cold campaign is longer than that and runs once.
Set-up time is sampled at least five times per run.  The run works under
``.perfbench_run/`` in the checkout and removes its temporary files on exit.
Exit status is 0 on success, 2 when the program source is missing and 1 on
any other failure, in which case no result line is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402

CHILD = catalog.BENCH_DIR / "child.py"
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
MAX_SAMPLES = 12


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    """Starts child processes for one workload and seed, within a deadline."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.count = 0

    def child(self, mode: str, store: Path | None = None) -> dict:
        self.count += 1
        out = self.work / f"{mode}-{self.count}"
        out.mkdir(parents=True)
        result = out / "result.json"
        cmd = [
            sys.executable, str(CHILD),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--work", str(out),
            "--result", str(result),
        ]
        if store is not None:
            cmd += ["--store", str(store)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next sample")
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--spawn-t", repr(spawn_t)],
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=remaining)
        except BaseException:
            # Timeout or interrupt: take the child and its pool workers down.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if code != 0:
            raise BenchError(f"{mode} sample exited with status {code}")
        return json.loads(result.read_text())


def source_fingerprint() -> str:
    """Digest of the program source, so a prepared store never outlives it."""
    h = hashlib.sha256()
    src = catalog.ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def warm_store(runner: Runner) -> Path:
    """The warm workload's store, filled by an untimed pass once per source.

    The warm workload always re-reads the same campaign, so its prepared
    store is kept under ``.perfbench_run/warm-store`` between runs; a marker
    written after the preparation pass completes guards against a partial
    store, and any other source version's store is removed.
    """
    fingerprint = source_fingerprint()
    store = catalog.WARM_STORE_DIR / fingerprint
    ready = catalog.WARM_STORE_DIR / f"{fingerprint}.ready"
    if not ready.exists():
        shutil.rmtree(catalog.WARM_STORE_DIR, ignore_errors=True)
        runner.child("prep", store)
        ready.write_text("")
    return store


def measure(runner: Runner, seconds: int, trace: bool, store: Path | None):
    """Samples until ``seconds`` have passed: ``(untraced, traced)`` lists."""
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        untraced.append(runner.child("timed", store))
        if trace:
            traced.append(runner.child("traced", store))
        if time.monotonic() - start >= seconds or len(untraced) >= MAX_SAMPLES:
            return untraced, traced


def end_to_end(runner: Runner, samples: list[dict]) -> dict[str, float]:
    setups = [s["setup_s"] for s in samples]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "setup_s": statistics.median(setups),
        "points_per_s": statistics.median(
            s["points_delivered"] / s["wall_s"] for s in samples
        ),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "points_ok_frac": (attempted - failed) / attempted,
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    layers = {
        name: statistics.median(t["layers"][name] for t in traced)
        for name in traced[0]["layers"]
    }
    plain = statistics.median(s["wall_s"] for s in untraced)
    wall = statistics.median(t["wall_s"] for t in traced)
    layers.update({
        "trace.untraced_wall_s": plain,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - plain,
        "trace.overhead_frac": (wall - plain) / plain,
    })
    return layers


def declared(bench: dict, key: str, values: dict[str, float]) -> dict:
    """Values for exactly the metrics BENCHMARK.json declares under ``key``."""
    names = [m["name"] for m in bench[key]]
    missing = sorted(set(names) - set(values))
    if missing:
        raise BenchError(f"declared {key} metrics not measured: {missing}")
    units = {m["name"]: m["unit"] for m in bench[key]}
    return {name: {"value": values[name], "unit": units[name]} for name in names}


def report(workload: str, seed: int, samples: list[dict], metrics: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    first = samples[0]
    print(f"perfbench {workload} seed {seed}: {len(samples)} sample(s), "
          f"output reference {first['reference']}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':34s} {failed / attempted:.6g} fraction "
          f"({failed}/{attempted} points failed)")
    for key in ("failed_phases", "missing", "mismatched"):
        if first.get(key):
            print(f"  {key}: {', '.join(first[key])}")
    if first.get("unpinned"):
        print(f"  unpinned points (not checked): {first['unpinned']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Campaign benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (catalog.ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    bench = json.loads((catalog.ROOT / "BENCHMARK.json").read_text())
    # The build: byte-compile the program so no sample pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=catalog.ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    work = catalog.RUN_DIR / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work, deadline)
    try:
        store = None
        if catalog.WORKLOADS[args.workload]["warm"]:
            store = warm_store(runner)
        untraced, traced = measure(runner, args.seconds, bool(args.trace), store)
        samples = untraced + traced
        if args.trace:
            metrics = declared(bench, "per_layer", per_layer(untraced, traced))
        else:
            metrics = declared(bench, "end_to_end", end_to_end(runner, untraced))
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args.workload, args.seed, samples, metrics)
    print(json.dumps({
        "correct": all(s["correct"] for s in samples),
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
