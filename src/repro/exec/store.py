"""Persistent content-addressed result store.

One JSON file per executed :class:`~repro.exec.spec.RunSpec`, keyed by the
spec's content hash and sharded by the first two hex digits (so a big
campaign does not pile thousands of files into one directory):

    <root>/ab/abcdef...0123.json

Each entry records a schema version, the spec hash and spec fields (for
auditability), and the flattened
:class:`~repro.leakctl.energy.NetSavingsResult`.  Writes are atomic and
durable (:func:`repro.fsio.write_text` with ``durable=True``), so a
crashed, killed, or power-cut campaign can never leave a half-written
entry that later reads as a (wrong) hit: anything unreadable,
schema-mismatched, or mis-keyed is treated as a miss, quarantined out of
the shard tree, and transparently re-run.

Failure taxonomy on read (:func:`repro.fsio.read_json`) — the
distinction matters:

* **absent** — no file: a plain miss.
* **transient** (``EACCES``, ``EMFILE``, an NFS hiccup): a plain miss
  too.  The entry is *kept*; quarantining here would permanently evict a
  healthy result over a passing error.
* **corrupt** (torn JSON, schema/key mismatch, result-field drift): a
  miss, and the shard is moved into ``<root>/quarantine/`` so it stays
  inspectable and never becomes a repeat offender.

The filesystem is the only book of an entry's size and recency: a hit
refreshes the file's mtime, which is what LRU eviction ranks by.
Lifecycle management — lifetime counters, eviction under size/age
budgets, pin manifests, single-flight claims, compaction and the orphan
sweep — lives in :mod:`repro.exec.lifecycle`; the store feeds the
counters through :attr:`ResultStore.index`.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from repro import fsio
from repro import obs as _obs
from repro.exec.lifecycle import StoreIndex
from repro.exec.spec import CODE_VERSION, RunSpec
from repro.leakctl.energy import NetSavingsResult

STORE_SCHEMA_VERSION = 1
"""Entry layout version; a mismatch invalidates the entry (clean re-run)."""


@dataclass
class StoreStats:
    """Hit/miss accounting for one store instance (cache_info-style)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0
    quarantined: int = 0
    read_errors: int = 0
    evictions: int = 0
    evicted_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalid": self.invalid,
            "quarantined": self.quarantined,
            "read_errors": self.read_errors,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "hit_rate": self.hit_rate,
        }


class ResultStore:
    """On-disk cache of figure points, content-addressed by spec hash."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise NotADirectoryError(
                f"result store root {self.root} exists and is not a directory"
            )
        self.stats = StoreStats()
        self.index = StoreIndex(self.root)

    def path_for(self, spec: RunSpec) -> Path:
        key = spec.content_hash()
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: RunSpec) -> NetSavingsResult | None:
        """The cached result for ``spec``, or None (miss).

        A corrupt file (partial write from a pre-atomic-writer tool), a
        schema-version mismatch, a key mismatch, or a result payload that
        no longer matches the current :class:`NetSavingsResult` fields
        all count as misses — the bad shard is moved aside into
        ``<root>/quarantine/`` (never silently deleted, so it stays
        inspectable) and the caller simply re-runs and overwrites.  A
        *transient* read error (``EACCES``, ``EMFILE``, a flaky network
        filesystem) is also a miss, but the entry is left in place: the
        next lookup may well succeed.
        """
        key = spec.content_hash()
        path = self.root / key[:2] / f"{key}.json"
        status, result = self._read(path, key)
        if status == "hit":
            self.stats.hits += 1
            _obs.incr("store.hits")
            # The mtime is the entry's recency; failing to refresh it only
            # makes the entry look older to GC.
            with contextlib.suppress(OSError):
                os.utime(path)
            self.index.bump("hits")
            return result
        self.stats.misses += 1
        _obs.incr("store.misses")
        self.index.bump("misses")
        if status == fsio.CORRUPT:
            self.stats.invalid += 1
            _obs.incr("store.invalid")
            self.index.bump("invalid")
            if fsio.quarantine(self.root, path) is not None:
                self.stats.quarantined += 1
                _obs.incr("store.quarantined")
        elif status == fsio.TRANSIENT:
            self.stats.read_errors += 1
            _obs.incr("store.read_errors")
            self.index.bump("read_errors")
        return None

    def peek(self, spec: RunSpec) -> NetSavingsResult | None:
        """A valid committed result for ``spec``, or None — no accounting.

        Used by the single-flight wait loop, which polls: counting every
        poll as a miss (or quarantining on a transient error mid-commit)
        would wreck the stats and the store.
        """
        key = spec.content_hash()
        status, result = self._read(
            self.root / key[:2] / f"{key}.json", key
        )
        return result if status == "hit" else None

    def _read(
        self, path: Path, key: str
    ) -> tuple[str, NetSavingsResult | None]:
        """Classify one entry: ``(status, result)``.

        Status is ``"hit"`` (valid entry) or one of :mod:`repro.fsio`'s
        ``ABSENT`` / ``TRANSIENT`` / ``CORRUPT``; decoded JSON that fails
        the schema, key or result-field check is ``CORRUPT`` too.
        """
        status, payload = fsio.read_json(path)
        if status != fsio.OK:
            return status, None
        if (
            not isinstance(payload, dict)
            or payload.get("schema_version") != STORE_SCHEMA_VERSION
            or payload.get("spec_hash") != key
        ):
            return fsio.CORRUPT, None
        result_fields = payload.get("result")
        known = {f.name for f in fields(NetSavingsResult)}
        if not isinstance(result_fields, dict) or set(result_fields) != known:
            return fsio.CORRUPT, None
        try:
            return "hit", NetSavingsResult(**result_fields)
        except TypeError:
            return fsio.CORRUPT, None

    def put(self, spec: RunSpec, result: NetSavingsResult) -> Path:
        """Atomically and durably persist ``result`` under the spec hash."""
        key = spec.content_hash()
        path = self.root / key[:2] / f"{key}.json"
        payload = {
            "schema_version": STORE_SCHEMA_VERSION,
            "code_version": CODE_VERSION,
            "spec_hash": key,
            "spec": spec.to_dict(),
            "result": asdict(result),
        }
        blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        fsio.write_text(path, blob, durable=True)
        self.stats.writes += 1
        _obs.incr("store.writes")
        self.index.bump("writes")
        return path

    def flush_index(self) -> None:
        """Persist buffered index counters (best-effort, never raises)."""
        self.index.flush()

    def __len__(self) -> int:
        """Number of committed entries on disk (``.tmp`` orphans and the
        index/quarantine/manifest/claim sidecars never count)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def disk_usage(self) -> tuple[int, int]:
        """``(entries, total_bytes)`` of committed entries only."""
        from repro.exec.lifecycle import scan_entries

        entries = scan_entries(self.root)
        return len(entries), sum(size for size, _m in entries.values())
