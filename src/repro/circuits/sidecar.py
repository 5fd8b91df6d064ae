"""Persisted DC solves: a content-addressed sidecar of the result store.

The paper derives its ``k_design`` factors once, offline, from
transistor-level input enumeration and then reuses the table.  The
in-memory ``_SOLVE_MEMO`` of :mod:`repro.circuits.solver` only does that
per process, so every fresh process (a campaign, each pool worker of each
scheduler batch) re-relaxes the same few dozen operating points.  This
module keeps each solved :class:`~repro.circuits.solver.DCResult` on disk
next to the :class:`~repro.exec.store.ResultStore` it serves:

    <store root>/analytic/<generation>/<key[:2]>/<key>.json

* **Key** -- SHA-256 over a canonical JSON of the solver's memo key (every
  ``TechnologyNode`` field, vdd, quantised temperature, netlist name,
  transistors, inputs, output, input combination; floats written by
  ``repr``), salted by ``CODE_VERSION`` and a digest of the sources that
  define a solve (``circuits/solver.py``, ``circuits/netlist.py``,
  ``tech/constants.py``).  Editing the device model or the relaxation
  changes every key, so a stale solve is never served.
* **Generation** -- ``v<CODE_VERSION>-<source digest[:16]>``: entries of
  one salt share a directory, so ``repro store prune`` can drop whole
  generations written by other code.
* **Value** -- the ``DCResult`` with ``repr`` floats (voltages as ordered
  pairs), so a loaded result equals a fresh one bit for bit.  Writes are
  atomic but not durable (:func:`repro.fsio.write_text` with
  ``durable=False``): an entry can always be recomputed, and every read
  is validated.
* **Validation** -- an entry is a miss, moved to the store's
  ``quarantine/`` as ``analytic-<name>.<ns>`` (:func:`repro.fsio.quarantine`)
  and recomputed if it does not decode, its schema version or echoed key
  differs, any float is non-finite, or its residual exceeds
  :data:`RESIDUAL_BOUND` times the rail current.  An absent or
  transiently unreadable entry is a plain miss and stays in place.  A
  fresh solve that fails the same check is returned as always but never
  written.

The sidecar is attached by :class:`~repro.exec.scheduler.Scheduler`
whenever it has a store (in-process around ``run`` and in pool workers via
the executor initializer); without one the solver behaves exactly as
before.  There is no knob: the cache is correct by construction.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Iterator

from repro import fsio
from repro import obs as _obs
from repro.circuits import netlist as _netlist
from repro.circuits import solver as _solver
from repro.circuits.solver import DCResult
from repro.tech import constants as _constants

ANALYTIC_DIR = "analytic"
"""Subdirectory of the store root holding the DC-solve sidecar."""

SCHEMA_VERSION = 1
"""Entry layout version; a mismatch invalidates the entry."""

RESIDUAL_BOUND = 1e-6
"""Largest accepted ``residual_norm / max(supply, ground, 1e-18)``."""

_SALTED_MODULES = (_solver, _netlist, _constants)


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """SHA-256 over the source files that determine a DC solve."""
    digest = hashlib.sha256()
    for module in _SALTED_MODULES:
        digest.update(module.__name__.encode() + b"\0")
        digest.update(Path(module.__file__).read_bytes())
    return digest.hexdigest()


def _code_version() -> str:
    from repro.exec.spec import CODE_VERSION

    return CODE_VERSION


def generation() -> str:
    """Directory name shared by every entry written under the current salt."""
    return f"v{_code_version()}-{source_digest()[:16]}"


def _canon(value):
    if is_dataclass(value):
        return {f.name: _canon(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_canon(v) for v in value]
    if isinstance(value, (int, float)):
        return repr(float(value))
    return value


def solve_key(memo_key: tuple) -> str:
    """Salted SHA-256 of one solver memo key (see the module docstring)."""
    node, vdd, temp_q, name, transistors, inputs, output, combo = memo_key
    doc = {
        "node": _canon(node),
        "vdd": _canon(vdd),
        "temp_k": _canon(temp_q),
        "netlist": name,
        "transistors": _canon(transistors),
        "inputs": list(inputs),
        "output": output,
        "combo": [[k, _canon(v)] for k, v in combo],
    }
    salt = f"code_version={_code_version()};source={source_digest()}\n"
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((salt + canonical).encode()).hexdigest()


def acceptable(result: DCResult) -> bool:
    """Finite everywhere and converged to within :data:`RESIDUAL_BOUND`."""
    values = [
        *result.voltages.values(),
        result.supply_current,
        result.ground_current,
        result.residual_norm,
    ]
    if not all(math.isfinite(v) for v in values):
        return False
    scale = max(result.supply_current, result.ground_current, 1e-18)
    return result.residual_norm <= RESIDUAL_BOUND * scale


def _decode(payload, key: str) -> DCResult | None:
    """The ``DCResult`` an entry holds, or None if it fails validation."""
    if (
        not isinstance(payload, dict)
        or payload.get("schema_version") != SCHEMA_VERSION
        or payload.get("key") != key
    ):
        return None
    body = payload.get("result")
    names = ("supply_current", "ground_current", "residual_norm")
    if not isinstance(body, dict) or set(body) != {"voltages", *names}:
        return None
    pairs = body["voltages"]
    numbers = [body[n] for n in names]
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) for p in pairs
    ):
        return None
    numbers += [p[1] for p in pairs]
    if not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in numbers
    ):
        return None
    result = DCResult(
        voltages={n: float(v) for n, v in pairs},
        supply_current=float(body["supply_current"]),
        ground_current=float(body["ground_current"]),
        residual_norm=float(body["residual_norm"]),
    )
    return result if acceptable(result) else None


class SolveSidecar:
    """The persisted DC-solve tier of one result store."""

    def __init__(self, store_root: str | Path) -> None:
        self.store_root = Path(store_root)
        self.root = self.store_root / ANALYTIC_DIR / generation()

    key = staticmethod(solve_key)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> DCResult | None:
        """The stored solve for ``key``; a bad entry is quarantined."""
        path = self.path_for(key)
        status, payload = fsio.read_json(path)
        result = _decode(payload, key) if status == fsio.OK else None
        if status == fsio.CORRUPT or (status == fsio.OK and result is None):
            _obs.incr("solver.store_invalid")
            fsio.quarantine(self.store_root, path, prefix=f"{ANALYTIC_DIR}-")
        _obs.incr("solver.store_hits" if result is not None else "solver.store_misses")
        return result

    def put(self, key: str, result: DCResult) -> bool:
        """Persist an acceptable fresh solve; best-effort, never raises."""
        if not acceptable(result):
            return False
        payload = {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "generation": self.root.name,
            "result": {
                "voltages": [[n, float(v)] for n, v in result.voltages.items()],
                "supply_current": float(result.supply_current),
                "ground_current": float(result.ground_current),
                "residual_norm": float(result.residual_norm),
            },
        }
        text = json.dumps(payload, sort_keys=True) + "\n"
        try:
            fsio.write_text(self.path_for(key), text, durable=False)
        except OSError:
            return False
        _obs.incr("solver.store_writes")
        return True


def attach_store(store_root: str | Path) -> SolveSidecar | None:
    """Attach the sidecar of ``store_root``; returns the previously
    attached one.  Also the pool-worker initializer."""
    return _solver.attach_sidecar(SolveSidecar(store_root))


@contextlib.contextmanager
def attached(store_root: str | Path | None) -> Iterator[None]:
    """Attach the sidecar of ``store_root`` for the duration of a block.

    With ``store_root=None`` nothing changes, so an enclosing attachment
    (a nested scheduler without a store) stays in force.
    """
    if store_root is None:
        yield
        return
    previous = attach_store(store_root)
    try:
        yield
    finally:
        _solver.attach_sidecar(previous)
