"""Store lifecycle: index, size budgets, LRU eviction, single-flight dedup.

The :class:`~repro.exec.store.ResultStore` is content-addressed and
append-only — left alone it grows forever.  This module is the paper's
own leakage-control idea applied to our infrastructure: just as decay
turns off cache lines whose retention cost outweighs their value, the
store evicts entries by recency once a size or age budget is exceeded,
with ``cache_info()``-style instrumented accounting throughout.  Like a
decay counter that sits next to its line and resets on access, an
entry's recency is its own file mtime, refreshed by every hit; the
filesystem is the only book of entry sizes and recency.

Four cooperating pieces, all living *inside* the store root so any
process that can see the store can participate:

``index.json`` (:class:`StoreIndex`)
    What has no other home: lifetime counters (hits/misses/writes/
    evictions) that survive across processes, and the GC *generation*
    (how many GC passes the store has seen).  Counter deltas are batched
    in memory and flushed with an atomic load-merge-write, so a crash
    loses at most one batch of counts — never data.  A missing or
    corrupt index reads as zero counters at generation 0.

``manifests/`` (:class:`CampaignManifest`)
    Pin files.  A scheduler batch writes one manifest naming every spec
    hash it references (hits included) for the duration of the batch;
    eviction never removes a pinned entry.  Manifests of dead processes
    are ignored (and swept by :func:`sweep_orphans`), so a kill -9 can
    never pin the store forever.

``claims/`` (:class:`SingleFlight`)
    Cross-campaign single-flight dedup.  When two concurrent schedulers
    miss on the same spec hash, an ``O_CREAT | O_EXCL`` claim file makes
    one of them compute while the other polls for the committed result —
    overlapping sweeps never duplicate work.  Claims of dead or wedged
    holders are stolen after a staleness window; the worst case of every
    race here is a duplicate computation (results are deterministic and
    puts are atomic), never a wrong answer or a deadlock.

GC / compaction / sweeping (:func:`collect_garbage`,
:func:`compact_store`, :func:`sweep_orphans`, :func:`store_report`)
    The ``repro-paper store stats|gc|compact|prune`` verbs.  GC enforces
    ``--max-bytes`` / ``--max-age`` budgets in LRU order, skipping
    pinned and claimed keys; compaction drops empty shard directories;
    the orphan sweep clears ``.tmp`` litter, dead claims and dead
    manifests left by killed processes, plus DC-solve sidecar
    generations (``analytic/``, see :mod:`repro.circuits.sidecar`)
    written under another code version.
    Entry scans, GC and compaction never look inside ``analytic/``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro import fsio
from repro import obs as _obs
from repro.circuits.sidecar import ANALYTIC_DIR, generation as _sidecar_generation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.exec.spec import RunSpec
    from repro.exec.store import ResultStore
    from repro.leakctl.energy import NetSavingsResult

INDEX_FILENAME = "index.json"
INDEX_SCHEMA_VERSION = 1
MANIFESTS_DIR = "manifests"
CLAIMS_DIR = "claims"

FLUSH_EVERY = 64
"""Buffered counter bumps that trigger an automatic index flush."""

DEFAULT_CLAIM_STALE_S = 900.0
"""Age after which a claim whose holder made no progress is stolen."""

DEFAULT_TMP_AGE_S = 3600.0
"""Age after which an orphaned ``.tmp`` file is considered litter."""

_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


# ----------------------------------------------------------------------
# Humane unit parsing for --max-bytes / --max-age
# ----------------------------------------------------------------------

_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([kKmMgGtT]?)i?[bB]?\s*$")
_SIZE_UNITS = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([smhdwSMHDW]?)\s*$")
_DURATION_UNITS = {
    "": 1.0, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0,
}


def parse_size(text: str | int) -> int:
    """``"512"``, ``"64K"``, ``"10M"``, ``"1G"``, ``"2GiB"`` -> bytes."""
    if isinstance(text, int):
        return text
    match = _SIZE_RE.match(text)
    if not match:
        raise ValueError(f"unparseable size {text!r} (try 512, 64K, 10M, 1G)")
    value, unit = match.groups()
    return int(float(value) * _SIZE_UNITS[unit.lower()])


def parse_duration(text: str | float | int) -> float:
    """``"90"``, ``"30s"``, ``"15m"``, ``"12h"``, ``"7d"`` -> seconds."""
    if isinstance(text, (int, float)):
        return float(text)
    match = _DURATION_RE.match(text)
    if not match:
        raise ValueError(
            f"unparseable duration {text!r} (try 90, 30s, 15m, 12h, 7d)"
        )
    value, unit = match.groups()
    return float(value) * _DURATION_UNITS[unit.lower()]


def scan_entries(root: str | Path) -> dict[str, tuple[int, float]]:
    """Walk the shard tree: ``{key: (size_bytes, mtime)}``.

    Only committed ``<64-hex>.json`` files in two-hex shard directories
    count; ``.tmp`` orphans, the quarantine, the index, manifests and
    claims are all invisible here.
    """
    root = Path(root)
    entries: dict[str, tuple[int, float]] = {}
    if not root.is_dir():
        return entries
    for shard in root.iterdir():
        if not (_SHARD_RE.match(shard.name) and shard.is_dir()):
            continue
        for item in shard.iterdir():
            if item.suffix != ".json" or not _KEY_RE.match(item.stem):
                continue
            try:
                stat = item.stat()
            except OSError:  # racing eviction/quarantine
                continue
            entries[item.stem] = (stat.st_size, stat.st_mtime)
    return entries


# ----------------------------------------------------------------------
# StoreIndex
# ----------------------------------------------------------------------


class StoreIndex:
    """Lifetime counters and GC generation of one store root.

    :meth:`bump` buffers counter deltas in memory; :meth:`flush` folds
    them into ``index.json`` with an atomic load-merge-write, so
    concurrent writers merge rather than clobber each other.  Every
    :data:`FLUSH_EVERY` buffered bumps flush automatically.  An older
    ``index.json`` that also carries a per-entry table loads with its
    counters and generation; the next flush writes it without the table.
    """

    def __init__(self, root: str | Path) -> None:
        self.path = Path(root) / INDEX_FILENAME
        self._counters: dict[str, float] = {}
        self._ops = 0

    def bump(self, counter: str, delta: float = 1) -> None:
        """Accumulate a lifetime counter delta (hits, misses, ...)."""
        self._counters[counter] = self._counters.get(counter, 0) + delta
        self._ops += 1
        if self._ops >= FLUSH_EVERY:
            self.flush()

    @property
    def dirty(self) -> bool:
        return bool(self._counters)

    def load(self) -> dict:
        """The on-disk payload; zero counters at generation 0 when the
        index is absent, unreadable or of another schema."""
        status, payload = fsio.read_json(self.path)
        if (
            status != fsio.OK
            or not isinstance(payload, dict)
            or payload.get("schema_version") != INDEX_SCHEMA_VERSION
        ):
            payload = {}
        return {
            "schema_version": INDEX_SCHEMA_VERSION,
            "generation": int(payload.get("generation", 0)),
            "counters": dict(payload.get("counters") or {}),
        }

    def flush(self, *, bump_generation: bool = False) -> bool:
        """Fold the buffered counters into ``index.json``; True if written.

        Failures are swallowed (a read-only filesystem must not break a
        run — the index is an accounting sidecar, never load-bearing for
        correctness), but the buffer is kept so a later flush can retry.
        ``bump_generation`` advances the store generation (GC passes do
        this) and forces a write even with an empty buffer.
        """
        if not self.dirty and not bump_generation:
            return False
        payload = self.load()
        counters = payload["counters"]
        for name, delta in self._counters.items():
            counters[name] = counters.get(name, 0) + delta
        if bump_generation:
            payload["generation"] += 1
        try:
            fsio.write_text(self.path, _dump(payload), durable=True)
        except OSError:
            return False
        self._counters.clear()
        self._ops = 0
        return True


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Pin manifests
# ----------------------------------------------------------------------


class CampaignManifest:
    """A pin file naming every spec hash an in-progress batch references.

    Context-manager friendly::

        with CampaignManifest(store.root, label="fig03_04") as manifest:
            manifest.add(spec.content_hash() for spec in specs)
            ...  # GC started by any other process will not evict these

    The file carries the owning pid; :func:`live_pins` ignores (and
    :func:`sweep_orphans` removes) manifests whose process is gone, so
    crashed campaigns never pin the store forever.
    """

    def __init__(self, root: str | Path, *, label: str = "") -> None:
        self.root = Path(root)
        self.label = label
        self.pid = os.getpid()
        self.path = (
            self.root / MANIFESTS_DIR / f"{self.pid}-{time.time_ns()}.json"
        )
        self._keys: set[str] = set()
        self._write()

    def add(self, keys: Iterable[str]) -> None:
        """Pin more spec hashes (one atomic rewrite per call — batch them)."""
        before = len(self._keys)
        self._keys.update(keys)
        if len(self._keys) != before:
            self._write()

    def _write(self) -> None:
        payload = {
            "pid": self.pid,
            "created": time.time(),
            "label": self.label,
            "specs": sorted(self._keys),
        }
        try:
            fsio.write_text(self.path, _dump(payload), durable=True)
        except OSError:
            pass  # read-only store: pinning is advisory, never fatal

    def close(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "CampaignManifest":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def live_pins(root: str | Path) -> set[str]:
    """Union of spec hashes pinned by manifests of *living* processes."""
    pins: set[str] = set()
    manifest_dir = Path(root) / MANIFESTS_DIR
    if not manifest_dir.is_dir():
        return pins
    for path in manifest_dir.glob("*.json"):
        status, payload = fsio.read_json(path)
        if status != fsio.OK or not isinstance(payload, dict):
            continue
        if not fsio.pid_alive(int(payload.get("pid") or 0)):
            continue
        specs = payload.get("specs")
        if isinstance(specs, list):
            pins.update(str(s) for s in specs)
    return pins


# ----------------------------------------------------------------------
# Single-flight claims
# ----------------------------------------------------------------------


class SingleFlight:
    """Cross-process dedup: one computes, everyone else reads the commit.

    A claim is a ``claims/<hash>.claim`` file created with
    ``O_CREAT | O_EXCL`` — the winner of the create computes the spec and
    commits it to the store; losers poll :meth:`ResultStore.peek` until
    the result lands.  A claim whose holder is dead (or silent past
    ``stale_s``) is stolen.  Every race in the steal window resolves to a
    *duplicate computation* — results are deterministic and store puts
    atomic, so duplicates are wasteful but always correct; the protocol
    can therefore never deadlock or poison the store.
    """

    def __init__(
        self,
        store: "ResultStore",
        *,
        stale_s: float = DEFAULT_CLAIM_STALE_S,
        poll_s: float = 0.05,
    ) -> None:
        self.store = store
        self.stale_s = stale_s
        self.poll_s = poll_s
        self.dir = Path(store.root) / CLAIMS_DIR
        self.owned: set[str] = set()

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.claim"

    def try_claim(self, key: str) -> bool:
        """Try to become the computer of ``key``; steals stale claims."""
        path = self._path(key)
        for attempt in range(2):
            try:
                self.dir.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt == 0 and self._is_stale(path):
                    try:  # steal: holder is dead/wedged
                        path.unlink()
                    except OSError:
                        return False
                    continue
                return False
            except OSError:
                # Claims are an optimisation; an unwritable store degrades
                # to everyone computing (correct, just not deduplicated).
                return True
            with os.fdopen(fd, "w") as handle:
                json.dump({"pid": os.getpid(), "created": time.time()}, handle)
            self.owned.add(key)
            return True
        return False

    def _is_stale(self, path: Path) -> bool:
        try:
            payload = json.loads(path.read_text())
            pid = int(payload.get("pid") or 0)
            created = float(payload.get("created") or 0.0)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError, ValueError):
            # Torn or unreadable claim: stale once past the poll window.
            try:
                return time.time() - path.stat().st_mtime > max(
                    1.0, 10 * self.poll_s
                )
            except OSError:
                return False  # vanished: not stale, just gone
        if not fsio.pid_alive(pid):
            return True
        return time.time() - created > self.stale_s

    def wait_for(
        self,
        spec: "RunSpec",
        key: str,
        *,
        timeout_s: float | None = None,
    ) -> "NetSavingsResult | None":
        """Poll for the claim holder's committed result.

        Returns the result once committed.  Returns ``None`` when the
        caller should compute the spec itself: either the holder vanished
        and this process re-claimed the key, or ``timeout_s`` expired
        (compute-anyway beats waiting forever on a wedged peer).
        """
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        while True:
            result = self.store.peek(spec)
            if result is not None:
                return result
            path = self._path(key)
            if not path.exists() or self._is_stale(path):
                # Holder gone without committing — try to take over.
                if self.try_claim(key):
                    return None
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(self.poll_s)

    def release(self, key: str) -> None:
        if key in self.owned:
            self.owned.discard(key)
            try:
                self._path(key).unlink()
            except OSError:
                pass

    def release_all(self) -> None:
        for key in list(self.owned):
            self.release(key)

    def __enter__(self) -> "SingleFlight":
        return self

    def __exit__(self, *_exc) -> None:
        self.release_all()


def live_claims(root: str | Path, *, stale_s: float = DEFAULT_CLAIM_STALE_S) -> set[str]:
    """Spec hashes currently claimed by living, non-stale holders."""
    claims: set[str] = set()
    claim_dir = Path(root) / CLAIMS_DIR
    if not claim_dir.is_dir():
        return claims
    now = time.time()
    for path in claim_dir.glob("*.claim"):
        key = path.name[: -len(".claim")]
        if not _KEY_RE.match(key):
            continue
        try:
            payload = json.loads(path.read_text())
            pid = int(payload.get("pid") or 0)
            created = float(payload.get("created") or 0.0)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError, ValueError):
            continue
        if fsio.pid_alive(pid) and now - created <= stale_s:
            claims.add(key)
    return claims


# ----------------------------------------------------------------------
# GC / compaction / sweep / stats
# ----------------------------------------------------------------------


@dataclass
class GcReport:
    """What one :func:`collect_garbage` pass examined and removed."""

    examined: int = 0
    examined_bytes: int = 0
    evicted: int = 0
    evicted_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0
    pinned: int = 0
    claimed: int = 0
    dry_run: bool = False
    evicted_keys: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "examined": self.examined,
            "examined_bytes": self.examined_bytes,
            "evicted": self.evicted,
            "evicted_bytes": self.evicted_bytes,
            "kept": self.kept,
            "kept_bytes": self.kept_bytes,
            "pinned": self.pinned,
            "claimed": self.claimed,
            "dry_run": self.dry_run,
        }

    def summary(self) -> str:
        verb = "would evict" if self.dry_run else "evicted"
        return (
            f"{verb} {self.evicted}/{self.examined} entries "
            f"({_fmt_bytes(self.evicted_bytes)} of "
            f"{_fmt_bytes(self.examined_bytes)}); "
            f"kept {self.kept} ({_fmt_bytes(self.kept_bytes)}), "
            f"{self.pinned} pinned, {self.claimed} claimed"
        )


def collect_garbage(
    store: "ResultStore",
    *,
    max_bytes: int | None = None,
    max_age_s: float | None = None,
    dry_run: bool = False,
    now: float | None = None,
) -> GcReport:
    """Enforce size/age budgets by evicting entries in LRU order.

    Never removes an entry pinned by a live manifest or claimed by a
    live single-flight holder, even when that leaves the store over
    budget.  The last-access order is the file mtime, which every write
    sets and every hit refreshes; fresh puts racing the GC are protected
    by their mtime (now-ish) and by the committing scheduler's manifest.
    """
    if max_bytes is None and max_age_s is None:
        raise ValueError("collect_garbage needs max_bytes and/or max_age_s")
    if now is None:
        now = time.time()
    on_disk = scan_entries(store.root)
    pins = live_pins(store.root)
    claims = live_claims(store.root)

    # (mtime, key, size): LRU order.
    ranked = sorted(
        (mtime, key, size) for key, (size, mtime) in on_disk.items()
    )
    report = GcReport(
        examined=len(ranked),
        examined_bytes=sum(size for _a, _k, size in ranked),
        dry_run=dry_run,
    )
    protected = {
        key for _a, key, _s in ranked if key in pins or key in claims
    }
    report.pinned = sum(1 for _a, key, _s in ranked if key in pins)
    report.claimed = sum(
        1 for _a, key, _s in ranked if key in claims and key not in pins
    )

    victims: list[tuple[str, int]] = []
    if max_age_s is not None:
        cutoff = now - max_age_s
        victims.extend(
            (key, size)
            for atime, key, size in ranked
            if atime < cutoff and key not in protected
        )
    if max_bytes is not None:
        dead = {key for key, _s in victims}
        live_bytes = report.examined_bytes - sum(s for _k, s in victims)
        for _atime, key, size in ranked:  # LRU first
            if live_bytes <= max_bytes:
                break
            if key in dead or key in protected:
                continue
            victims.append((key, size))
            dead.add(key)
            live_bytes -= size

    for key, size in victims:
        report.evicted += 1
        report.evicted_bytes += size
        report.evicted_keys.append(key)
        if dry_run:
            continue
        try:
            (store.root / key[:2] / f"{key}.json").unlink()
        except OSError:
            continue
    report.kept = report.examined - report.evicted
    report.kept_bytes = report.examined_bytes - report.evicted_bytes

    if not dry_run:
        store.stats.evictions += report.evicted
        store.stats.evicted_bytes += report.evicted_bytes
        store.index.bump("evictions", report.evicted)
        store.index.bump("evicted_bytes", report.evicted_bytes)
        store.index.flush(bump_generation=True)
        if _obs.is_enabled():
            _obs.incr("store.evictions", report.evicted)
            _obs.incr("store.evicted_bytes", report.evicted_bytes)
            _obs.emit("store_gc", **report.to_dict())
    return report


@dataclass
class CompactReport:
    """What one :func:`compact_store` pass cleaned up."""

    removed_shards: int = 0
    entries: int = 0
    total_bytes: int = 0

    def summary(self) -> str:
        return (
            f"removed {self.removed_shards} empty shard dir(s); "
            f"{self.entries} entries, {_fmt_bytes(self.total_bytes)} live"
        )


def compact_store(store: "ResultStore") -> CompactReport:
    """Drop empty shard directories and report what is live on disk."""
    report = CompactReport()
    on_disk = scan_entries(store.root)
    report.entries = len(on_disk)
    report.total_bytes = sum(size for size, _m in on_disk.values())

    root = Path(store.root)
    if root.is_dir():
        for shard in root.iterdir():
            if not (_SHARD_RE.match(shard.name) and shard.is_dir()):
                continue
            try:
                next(shard.iterdir())
            except StopIteration:
                try:
                    shard.rmdir()
                    report.removed_shards += 1
                except OSError:
                    pass
            except OSError:
                pass
    if _obs.is_enabled():
        _obs.emit(
            "store_compacted",
            removed_shards=report.removed_shards,
            entries=report.entries,
        )
    return report


@dataclass
class SweepReport:
    """Orphaned litter removed by one :func:`sweep_orphans` pass."""

    tmp_removed: int = 0
    stale_claims: int = 0
    stale_manifests: int = 0
    stale_analytic: int = 0

    def summary(self) -> str:
        return (
            f"removed {self.tmp_removed} orphaned .tmp file(s), "
            f"{self.stale_claims} stale claim(s), "
            f"{self.stale_manifests} dead manifest(s), "
            f"{self.stale_analytic} stale analytic generation(s)"
        )


def _subdirs(directory: Path) -> list[Path]:
    try:
        return [path for path in directory.iterdir() if path.is_dir()]
    except OSError:
        return []


def _analytic_shards(root: Path) -> list[Path]:
    """Shard directories of every DC-solve sidecar generation."""
    return [
        shard
        for gen in _subdirs(root / ANALYTIC_DIR)
        for shard in _subdirs(gen)
        if _SHARD_RE.match(shard.name)
    ]


def _tmp_litter(root: Path) -> list[Path]:
    """Every ``*.tmp`` file in the store root, its shard directories and
    the sidecar's shard directories.

    A plain suffix check, deliberately not ``glob("*.tmp")``: hidden temp
    names (``.<prefix>-XXXX.tmp``) must count exactly once whatever the
    Python version's dotfile-globbing rules are.
    """
    litter: list[Path] = []
    for directory in (root, *(
        shard for shard in root.iterdir()
        if _SHARD_RE.match(shard.name) and shard.is_dir()
    ), *_analytic_shards(root)):
        try:
            litter.extend(
                path
                for path in directory.iterdir()
                if path.name.endswith(".tmp") and path.is_file()
            )
        except OSError:
            continue
    return litter


def sweep_orphans(
    store: "ResultStore",
    *,
    tmp_age_s: float = DEFAULT_TMP_AGE_S,
    claim_stale_s: float = DEFAULT_CLAIM_STALE_S,
    now: float | None = None,
) -> SweepReport:
    """Clear litter left by killed processes.

    ``.tmp`` files older than ``tmp_age_s`` (a live writer holds its temp
    file for milliseconds), claims whose holder is dead or silent past
    ``claim_stale_s``, manifests of dead processes, and DC-solve sidecar
    generations salted by another ``CODE_VERSION`` or solver source (no
    current process can ever read them).
    """
    if now is None:
        now = time.time()
    report = SweepReport()
    root = Path(store.root)
    if not root.is_dir():
        return report

    for tmp in _tmp_litter(root):
        try:
            if now - tmp.stat().st_mtime >= tmp_age_s:
                tmp.unlink()
                report.tmp_removed += 1
        except OSError:
            continue

    alive = live_claims(root, stale_s=claim_stale_s)
    claim_dir = root / CLAIMS_DIR
    if claim_dir.is_dir():
        for path in claim_dir.glob("*.claim"):
            if path.name[: -len(".claim")] in alive:
                continue
            try:
                path.unlink()
                report.stale_claims += 1
            except OSError:
                continue

    manifest_dir = root / MANIFESTS_DIR
    if manifest_dir.is_dir():
        for path in manifest_dir.glob("*.json"):
            try:
                payload = json.loads(path.read_text())
                pid = int(payload.get("pid") or 0)
            except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                    ValueError):
                pid = 0
            if fsio.pid_alive(pid):
                continue
            try:
                path.unlink()
                report.stale_manifests += 1
            except OSError:
                continue

    current = _sidecar_generation()
    for gen in _subdirs(root / ANALYTIC_DIR):
        if gen.name == current:
            continue
        shutil.rmtree(gen, ignore_errors=True)
        report.stale_analytic += 1
    if _obs.is_enabled():
        _obs.emit(
            "store_swept",
            tmp_removed=report.tmp_removed,
            stale_claims=report.stale_claims,
            stale_manifests=report.stale_manifests,
            stale_analytic=report.stale_analytic,
        )
    return report


@dataclass
class StoreReport:
    """``repro store stats``: fsspec cache_info-style accounting."""

    root: str = ""
    entries: int = 0
    total_bytes: int = 0
    generation: int = 0
    shards: dict[str, tuple[int, int]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    pins: int = 0
    claims: int = 0
    quarantined: int = 0
    tmp_orphans: int = 0
    analytic_entries: int = 0
    analytic_bytes: int = 0

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "analytic_entries": self.analytic_entries,
            "analytic_bytes": self.analytic_bytes,
            "generation": self.generation,
            "shards": {
                shard: {"entries": count, "bytes": size}
                for shard, (count, size) in sorted(self.shards.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "pins": self.pins,
            "claims": self.claims,
            "quarantined": self.quarantined,
            "tmp_orphans": self.tmp_orphans,
        }


def store_report(store: "ResultStore") -> StoreReport:
    """Size, per-shard breakdown and lifetime counters for one store."""
    store.flush_index()
    root = Path(store.root)
    index = store.index.load()
    report = StoreReport(
        root=str(root),
        generation=int(index.get("generation", 0)),
        counters={
            str(k): v for k, v in (index.get("counters") or {}).items()
        },
    )
    for key, (size, _mtime) in scan_entries(root).items():
        report.entries += 1
        report.total_bytes += size
        count, shard_bytes = report.shards.get(key[:2], (0, 0))
        report.shards[key[:2]] = (count + 1, shard_bytes + size)
    report.pins = len(live_pins(root))
    report.claims = len(live_claims(root))
    if root.is_dir():
        quarantine = root / fsio.QUARANTINE_DIR
        if quarantine.is_dir():
            report.quarantined = sum(1 for _ in quarantine.iterdir())
        report.tmp_orphans = len(_tmp_litter(root))
        for shard in _analytic_shards(root):
            for path in shard.glob("*.json"):
                try:
                    report.analytic_bytes += path.stat().st_size
                except OSError:  # racing quarantine or prune
                    continue
                report.analytic_entries += 1
    return report


def _fmt_bytes(n: int | float) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return (
                f"{value:.0f} {unit}" if unit == "B" else f"{value:.1f} {unit}"
            )
        value /= 1024.0
    return f"{value:.1f} GiB"  # pragma: no cover - loop always returns
