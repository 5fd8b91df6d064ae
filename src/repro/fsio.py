"""Atomic file I/O for the result store root and the campaign directory.

Every file the store keeps (entries, ``index.json``, pin manifests, the
DC-solve sidecar) and every snapshot a campaign rewrites while readers
may be looking (``metrics.*``, ``live.html``) goes through the one
writer here: a temp file created in the destination directory (so the
rename never crosses filesystems), then ``os.replace``.  A reader sees
the complete old file or the complete new one, never a torn one.

``durable=True`` also fsyncs the file before the rename and its
directory after it -- and, when the write created that directory, the
parent too, or a power cut could drop the new directory's entry.
Store entries, ``index.json`` and manifests are durable; the sidecar
and the snapshots can always be recomputed, so they skip the fsyncs.

Reads are classified the same way for every store file: ``ABSENT`` (no
file), ``TRANSIENT`` (an ``OSError`` worth retrying later, e.g.
``EACCES`` or ``EMFILE``: keep the file), ``CORRUPT`` (undecodable bytes
or JSON: quarantine material), or ``OK`` with the decoded payload.
Validating an ``OK`` payload is the caller's codec's job.

:func:`pid_alive` is the one liveness probe shared by pin manifests,
single-flight claims and the campaign monitor's stall check.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from pathlib import Path

QUARANTINE_DIR = "quarantine"
"""Subdirectory (under the store root) where corrupt files are moved."""

OK = "ok"
ABSENT = "absent"
TRANSIENT = "transient"
CORRUPT = "corrupt"


def fsync_dir(directory: Path) -> None:
    """Flush a directory entry (rename durability); best-effort."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def write_text(path: Path, text: str, *, durable: bool) -> None:
    """Atomically replace ``path`` with ``text``, creating its directory.

    Raises on failure, leaving no temp file behind.
    """
    directory = path.parent
    new_dir = not directory.is_dir()
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{path.name}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    if durable:
        fsync_dir(directory)
        if new_dir:
            fsync_dir(directory.parent)


def read_json(path: Path) -> tuple[str, object]:
    """``(status, payload)``: the payload is only set when status is OK."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        return ABSENT, None
    except UnicodeDecodeError:
        return CORRUPT, None
    except OSError:
        return TRANSIENT, None
    try:
        return OK, json.loads(text)
    except json.JSONDecodeError:
        return CORRUPT, None


def quarantine(store_root: Path, path: Path, *, prefix: str = "") -> Path | None:
    """Move a corrupt file to ``<store_root>/quarantine/`` for post-mortems.

    The destination is ``<prefix><name>.<ns>``, so repeated corruption of
    one file never overwrites earlier evidence.  Returns None when the
    move fails: the caller already treats the file as a miss, and a
    read-only or racing filesystem must not break a run.
    """
    dest_dir = store_root / QUARANTINE_DIR
    dest = dest_dir / f"{prefix}{path.name}.{time.time_ns()}"
    try:
        dest_dir.mkdir(parents=True, exist_ok=True)
        os.replace(path, dest)
    except OSError:
        return None
    return dest


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe; unknown errors count as alive."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM and friends: something is running there
        return True
    return True
