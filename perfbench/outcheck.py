"""Output check: canonical digests of every delivered figure point.

A point's digest is SHA-256 over its ``NetSavingsResult`` as sorted-key
JSON (floats in their exact ``repr``), cut to 16 hex digits.  The
reference for a (group, seed) is the committed table in
``pinned_digests.json`` (recorded from ``reproduce-cold-j1`` and
``sweep-surrogate``) when it has that seed; otherwise the first run of the
group at that seed writes a ledger under ``.perfbench_run/ledger`` and every
later run compares against it.  So ``reproduce-cold-j2`` and
``reproduce-warm-j2`` must match ``reproduce-cold-j1`` point for point: the
results are bit-identical at any ``-j`` and warm or cold.

A delivered point whose digest differs from its reference is a mismatch;
mismatches count as failed points and make the run incorrect.  A delivered
point the reference lacks (the reference run failed it) is reported as
unpinned and not checked.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path


def digest(result) -> str:
    """Canonical digest of one ``NetSavingsResult``."""
    blob = json.dumps(_fields(result), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def block_digest(results) -> str:
    """Digest of an ordered block of results (one sweep plane node)."""
    h = hashlib.sha256()
    for result in results:
        h.update(digest(result).encode())
    return h.hexdigest()[:16]


def finite(result) -> bool:
    return all(
        math.isfinite(v) for v in _fields(result).values() if isinstance(v, float)
    )


def _fields(result) -> dict:
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}


def reference(
    group: str, seed: int, *, pinned: Path, ledger_dir: Path
) -> tuple[str, dict[str, str] | None]:
    """``(source, digests)`` for a group and seed; digests None if none yet."""
    if pinned.exists():
        table = json.loads(pinned.read_text()).get(group, {})
        if str(seed) in table:
            return "pinned", table[str(seed)]
    path = ledger_dir / f"{group}-seed{seed}.json"
    if path.exists():
        return "ledger", json.loads(path.read_text())
    return "new", None


def write_ledger(group: str, seed: int, digests: dict[str, str], ledger_dir: Path) -> None:
    ledger_dir.mkdir(parents=True, exist_ok=True)
    path = ledger_dir / f"{group}-seed{seed}.json"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True))
    os.replace(tmp, path)


def compare(
    delivered: dict[str, str], ref: dict[str, str] | None
) -> tuple[list[str], int]:
    """``(mismatched keys, unpinned count)`` of delivered digests vs ``ref``."""
    if ref is None:
        return [], 0
    mismatched = sorted(k for k, d in delivered.items() if k in ref and ref[k] != d)
    unpinned = sum(1 for k in delivered if k not in ref)
    return mismatched, unpinned
