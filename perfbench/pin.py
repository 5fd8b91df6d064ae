"""Record the committed output digests the benchmark checks against.

Run from the repository root after a deliberate change of model output
(one that bumps ``CODE_VERSION``)::

    python3 perfbench/pin.py 1 2 3

It drops the old pin, runs ``reproduce-cold-j1`` (always campaign seed 1)
and ``sweep-surrogate`` at each given seed once in a fresh process, and
commits the digests each run wrote to its ledger into
``perfbench/pinned_digests.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402

def pin(workload: str, seed: int, table: dict) -> None:
    """Re-run ``workload`` against an empty ledger and pin what it wrote."""
    group = catalog.output_group(workload)
    key = catalog.CAMPAIGN_SEED if group == "reproduce" else seed
    table.setdefault(group, {}).pop(str(key), None)
    catalog.PINNED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    ledger = catalog.LEDGER_DIR / f"{group}-seed{key}.json"
    ledger.unlink(missing_ok=True)
    catalog.RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=catalog.RUN_DIR) as work:
        result = Path(work) / "result.json"
        subprocess.run(
            [sys.executable, str(catalog.BENCH_DIR / "child.py"),
             "--workload", workload, "--seed", str(seed), "--mode", "timed",
             "--work", work, "--result", str(result)],
            check=True,
        )
    table[group][str(key)] = json.loads(ledger.read_text())


def main(argv: list[str]) -> int:
    table = json.loads(catalog.PINNED.read_text()) if catalog.PINNED.exists() else {}
    pin("reproduce-cold-j1", catalog.CAMPAIGN_SEED, table)
    for seed in map(int, argv):
        pin("sweep-surrogate", seed, table)
    catalog.PINNED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
