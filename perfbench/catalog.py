"""What the benchmark runs: workloads, grid sizes and file locations.

Plain data only, so the orchestrator can read it without importing the
program.  Why each workload exists, and which layer it stresses, is
recorded in ``BENCHMARK.json`` and ``perfbench/layers.json``.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
PINNED = BENCH_DIR / "pinned_digests.json"
RUN_DIR = ROOT / ".perfbench_run"
LEDGER_DIR = RUN_DIR / "ledger"
TRACE_DUMP_DIR = RUN_DIR / "traces"
WARM_STORE_DIR = RUN_DIR / "warm-store"

# kind, worker processes, whether a preparation pass fills the store first.
WORKLOADS = {
    "reproduce-cold-j1": {"kind": "campaign", "jobs": 1, "warm": False},
    "reproduce-cold-j2": {"kind": "campaign", "jobs": 2, "warm": False},
    "reproduce-warm-j2": {"kind": "campaign", "jobs": 2, "warm": True},
    "sweep-surrogate": {"kind": "sweep", "jobs": 1, "warm": False},
}

# Every reproduce workload runs this campaign seed, the one whose two
# failing points the baseline records; see child.run_campaign.
CAMPAIGN_SEED = 1

# The committed surrogate calibration covers exactly these pairs, at trace
# seed 1 and 20 000 ops; any other trace seed would calibrate in-process.
SWEEP_PAIRS = (
    ("gcc", "drowsy"),
    ("gcc", "gated-vss"),
    ("mcf", "drowsy"),
    ("mcf", "gated-vss"),
)
SWEEP_TEMPS = 21
SWEEP_VDDS = 9
ENVELOPE_TEMP_C = (25.0, 125.0)
ENVELOPE_VDD = (0.8, 1.0)


def output_group(workload: str) -> str:
    """Workloads whose outputs must agree point for point share a group."""
    return "sweep" if WORKLOADS[workload]["kind"] == "sweep" else "reproduce"
