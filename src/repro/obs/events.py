"""The structured JSONL event log: one campaign, one append-only file.

Every line is a self-contained JSON object::

    {"t": 12.034, "ts": 1754500000.1, "pid": 4711,
     "phase": "fig03_04_l2_5", "event": "run_finished",
     "spec": "ab12cd34...", "worker": 4712, "wall_s": 0.41, ...}

``t`` is seconds since the log was opened (cheap to eyeball), ``ts`` the
absolute POSIX timestamp, ``phase`` the campaign phase that was current
when the event fired (see :func:`repro.obs.phase`).  Event kinds written
by the instrumented layers:

==================  =====================================================
``run_started``     a spec began executing (serial) or was submitted (pool)
``run_finished``    a spec produced a result: worker pid, wall/CPU seconds,
                    peak RSS (kB)
``run_failed``      a spec raised; carries the error repr
``run_retried``     a *failed* spec was rescheduled serially
``run_requeued``    an *abandoned* (pool-timeout) spec got its one serial
                    first-execution pass — distinct from ``run_retried``
                    so stats never double-count a job as both a timeout
                    and a retry
``run_timeout``     the pool budget expired with this spec outstanding
``cache_hit``       the result store, in-batch dedup, or a single-flight
                    wait served a spec (``source`` says which)
``heartbeat``       the scheduler's periodic straggler report
``phase_started``   a campaign phase opened
``phase_finished``  a campaign phase closed (with its wall seconds)
``store_gc``        a store GC pass ran (evicted/kept/pinned counts)
``store_compacted`` empty shard directories dropped (live entry count)
``store_swept``     orphaned .tmp/claim/manifest litter and stale
                    DC-solve sidecar generations removed
``batch_finished``  a scheduler batch completed (jobs/cached/executed/wall)
``campaign_finished``  the campaign's terminal event: status, totals and
                    wall seconds — tailers use it to tell "done" from
                    "stalled" without polling the writer pid
``counters``        final counter/span snapshot, written at campaign end
==================  =====================================================

Writes are line-buffered appends from the coordinating process only
(worker telemetry travels back inside the scheduler's result tuples), so
the log never needs cross-process locking.  Readers should skip lines
that fail to parse (a crashed campaign may leave a torn final line).

Opening a log where one already exists (a warm re-run into the same out
directory) rotates the previous file to ``events.jsonl.1`` instead of
silently clobbering it — one rotation deep, matching the "compare this
run against the last one" workflow of ``repro diff``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterator

EVENT_SCHEMA_VERSION = 1


def rotate_existing(path: Path) -> None:
    """Move an existing log aside to ``<name>.1`` (one rotation deep)."""
    if path.exists():
        path.replace(path.with_name(path.name + ".1"))


class JsonlWriter:
    """Append-only JSONL file; an existing one is rotated to ``<name>.1``."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        rotate_existing(self.path)
        self._fh = self.path.open("w", encoding="utf-8")

    def append(self, record: dict[str, Any]) -> dict[str, Any] | None:
        """Write one line, flushed immediately (low rate); returns the
        record, or None once the file is closed."""
        if self._fh.closed:
            return None
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        return record

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class EventLog(JsonlWriter):
    """The JSONL writer for one campaign's events."""

    def __init__(self, path: str | Path) -> None:
        super().__init__(path)
        self._t0 = time.perf_counter()
        self._pid = os.getpid()
        #: The first record, written on open (the live fold starts here).
        self.opened = self.write(
            "log_opened",
            "",
            {"schema_version": EVENT_SCHEMA_VERSION},
        )

    def write(
        self, event: str, phase: str, fields: dict[str, Any]
    ) -> dict[str, Any] | None:
        """Append one stamped event; returns it as written, or None once
        the log is closed."""
        record = {
            "t": round(time.perf_counter() - self._t0, 6),
            "ts": time.time(),
            "pid": self._pid,
            "phase": phase,
            "event": event,
        }
        record.update(fields)
        return self.append(record)


def parse_jsonl_line(raw: bytes) -> dict[str, Any] | None:
    """One JSONL line -> dict, or None for garbage (never raises)."""
    raw = raw.strip()
    if not raw:
        return None
    try:
        record = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def read_jsonl_incremental(
    path: str | Path, offset: int = 0
) -> tuple[list[dict[str, Any]], int]:
    """Parse complete JSONL lines from ``offset``; -> ``(records, resume)``.

    Only newline-terminated lines are consumed: a truncated/partial final
    line — a writer caught mid-``write`` — is *skipped without advancing
    past it*, so a tailer polling with the returned resume offset picks
    the completed line up on its next pass instead of losing it (or worse,
    parsing half of it).  Garbage complete lines are skipped but consumed.
    A vanished file yields ``([], offset)``.
    """
    try:
        with Path(path).open("rb") as fh:
            if offset:
                fh.seek(offset)
            data = fh.read()
    except FileNotFoundError:
        return [], offset
    end = data.rfind(b"\n")
    if end < 0:
        return [], offset
    records = []
    for raw in data[: end + 1].splitlines():
        record = parse_jsonl_line(raw)
        if record is not None:
            records.append(record)
    return records, offset + end + 1


def read_events_incremental(
    path: str | Path, offset: int = 0
) -> tuple[list[dict[str, Any]], int]:
    """Like :func:`read_jsonl_incremental`, keeping only event records."""
    records, resume = read_jsonl_incremental(path, offset)
    return [r for r in records if "event" in r], resume


def read_jsonl(path: str | Path, key: str) -> Iterator[dict[str, Any]]:
    """Yield the parsed records carrying ``key``, skipping torn/garbage lines.

    Streams line by line (constant memory on multi-GB logs).  A final
    line with no trailing newline — a campaign writer caught mid-write —
    is never yielded, matching :func:`read_jsonl_incremental`, so a
    render-once view and a tailer agree on what "the log so far" means.
    """
    with Path(path).open("rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break  # torn tail mid-write; a later read will complete it
            record = parse_jsonl_line(line)
            if record is not None and key in record:
                yield record


def read_events(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield a campaign event log's events (see :func:`read_jsonl`)."""
    return read_jsonl(path, "event")
