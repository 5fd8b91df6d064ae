"""Bounded-memory time-series recording for simulation runs.

The paper's headline figures are *trajectories* — line-state populations,
decay-induced misses and leakage energy as functions of time — but a
trace can run for millions of cycles, so storing one sample per window
naively grows without bound.  :class:`Series` solves this with a
fixed-capacity ring that *downsamples deterministically* instead of
dropping data: when the buffer fills, adjacent pairs of stored values are
merged 2:1 (mean for level series, sum for event counts), the effective
window doubles, and recording continues at the coarser resolution.
Memory is O(capacity) regardless of trace length, and the stored values
are a pure function of the sample stream — two identical runs always
produce identical series, which is what makes them diffable.

A :class:`RunRecorder` bundles the series of one simulation run.  The
instrumented layers (:class:`~repro.leakctl.controlled.ControlledCache`,
:class:`~repro.cpu.pipeline.Pipeline`, the leakage telemetry in
:mod:`repro.power.telemetry`) each hold references to their series and
append while the run executes; the experiment runner publishes the
finished recorder to a module-level slot, and the scheduler drains it
into the per-run result metadata — keeping the series *out* of the
simulation result payload, so results stay bit-identical with
observability on or off.

Serialised series land next to the campaign's ``events.jsonl`` as
``timeseries.jsonl``: one line per run, keyed by the RunSpec content
hash.  ``repro report`` and ``repro diff`` are built on
:func:`read_timeseries`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator

from repro.obs.events import JsonlWriter, read_jsonl, rotate_existing

__all__ = [
    "DEFAULT_CAPACITY",
    "SERIES_SCHEMA_VERSION",
    "TIMESERIES_FILENAME",
    "RunRecorder",
    "Series",
    "TimeseriesLog",
    "publish",
    "read_timeseries",
    "resolve_timeseries_path",
    "rotate_existing",
    "series_total",
    "take_published",
]

SERIES_SCHEMA_VERSION = 1

DEFAULT_CAPACITY = 256
"""Stored values per series before a 2:1 downsampling pass runs."""

TIMESERIES_FILENAME = "timeseries.jsonl"

_KINDS = ("mean", "sum")


class Series:
    """One named time series in a fixed-capacity ring buffer.

    Samples are appended one per *base window* (e.g. one per decay tick,
    one per 1024-cycle IPC window).  Values are aggregated in powers of
    two: at downsampling level L each stored value covers ``2**L`` base
    windows, combined by mean (``kind="mean"``, for level quantities like
    fractions or IPC) or by sum (``kind="sum"``, for event counts and
    energies).  When ``capacity`` stored values exist, adjacent pairs are
    merged, the level increments, and the effective :attr:`window`
    doubles — so the series always spans the whole run at the finest
    resolution the capacity allows.

    Args:
        name: Series identifier (stable; used by the report/diff views).
        kind: ``"mean"`` or ``"sum"`` — how values aggregate.
        base_window: Span of one appended sample, in cycles.
        capacity: Ring size; must be even and >= 2.
    """

    __slots__ = (
        "name", "kind", "base_window", "capacity",
        "level", "values", "_acc", "_acc_n",
    )

    def __init__(
        self,
        name: str,
        *,
        kind: str = "mean",
        base_window: int = 1,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown series kind {kind!r}; known: {_KINDS}")
        if capacity < 2 or capacity % 2:
            raise ValueError(f"capacity must be even and >= 2, got {capacity}")
        if base_window < 1:
            raise ValueError(f"base_window must be >= 1, got {base_window}")
        self.name = name
        self.kind = kind
        self.base_window = base_window
        self.capacity = capacity
        self.level = 0
        self.values: list[float] = []
        self._acc = 0.0
        self._acc_n = 0

    @property
    def window(self) -> int:
        """Cycles covered by one stored value at the current level."""
        return self.base_window << self.level

    @property
    def n_samples(self) -> int:
        """Base-window samples appended so far."""
        return ((len(self.values) << self.level)) + self._acc_n

    def append(self, value: float) -> None:
        """Record one base-window sample."""
        self._acc += value
        self._acc_n += 1
        if self._acc_n < (1 << self.level):
            return
        self.values.append(
            self._acc / self._acc_n if self.kind == "mean" else self._acc
        )
        self._acc = 0.0
        self._acc_n = 0
        if len(self.values) >= self.capacity:
            self._downsample()

    def _downsample(self) -> None:
        """Merge adjacent stored pairs 2:1 and double the window."""
        values = self.values
        if self.kind == "mean":
            merged = [
                (values[i] + values[i + 1]) / 2.0
                for i in range(0, len(values) - 1, 2)
            ]
        else:
            merged = [
                values[i] + values[i + 1]
                for i in range(0, len(values) - 1, 2)
            ]
        self.values = merged
        self.level += 1

    def to_dict(self) -> dict[str, Any]:
        """Serialised form (includes any partial tail value).

        The tail value — a partially filled accumulator — covers
        ``tail_windows < 2**level`` base windows; readers that integrate a
        ``sum`` series can add it directly, readers plotting a ``mean``
        series should treat it as a shorter final span.
        """
        out: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "base_window": self.base_window,
            "window": self.window,
            "level": self.level,
            "n_samples": self.n_samples,
            "values": list(self.values),
        }
        if self._acc_n:
            out["tail"] = (
                self._acc / self._acc_n if self.kind == "mean" else self._acc
            )
            out["tail_windows"] = self._acc_n
        return out

    @classmethod
    def from_values(
        cls,
        name: str,
        values: list[float],
        *,
        kind: str = "mean",
        window: int = 1,
    ) -> "Series":
        """A pre-aggregated series (derived telemetry, already windowed)."""
        series = cls(name, kind=kind, base_window=window)
        series.values = list(values)
        return series


class RunRecorder:
    """The time series of one simulation run, keyed by name.

    Instrumentation sites call :meth:`series` once to create (or fetch)
    their series and then append directly to it — the recorder itself is
    never on a hot path.
    """

    __slots__ = ("capacity", "_series")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._series: dict[str, Series] = {}

    def series(
        self, name: str, *, kind: str = "mean", base_window: int = 1
    ) -> Series:
        """Get or create the named series."""
        existing = self._series.get(name)
        if existing is not None:
            return existing
        series = self._series[name] = Series(
            name, kind=kind, base_window=base_window, capacity=self.capacity
        )
        return series

    def add(self, series: Series) -> None:
        """Attach an externally built (derived) series."""
        self._series[series.name] = series

    def get(self, name: str) -> Series | None:
        return self._series.get(name)

    def names(self) -> list[str]:
        return list(self._series)

    def __len__(self) -> int:
        return len(self._series)

    def to_payload(self) -> dict[str, Any]:
        """Serialised form shipped back through the scheduler metadata."""
        return {
            "schema": SERIES_SCHEMA_VERSION,
            "series": [s.to_dict() for s in self._series.values()],
        }


# ----------------------------------------------------------------------
# The publish slot: how a finished recorder travels from figure_point
# (which knows the run) to execute_spec_observed (which knows the spec).
# ----------------------------------------------------------------------

_published: RunRecorder | None = None


def publish(recorder: RunRecorder) -> None:
    """Stage a finished run's recorder for the executing spec to collect.

    Called by the experiment runner at the end of a figure point; the
    slot holds exactly one recorder (each spec execution publishes then
    drains before the next begins, including inside pool workers).
    """
    global _published
    _published = recorder


def take_published() -> RunRecorder | None:
    """Drain the publish slot (returns None when nothing was staged)."""
    global _published
    recorder, _published = _published, None
    return recorder


# ----------------------------------------------------------------------
# Persistence: timeseries.jsonl next to the campaign's events.jsonl.
# ----------------------------------------------------------------------


class TimeseriesLog(JsonlWriter):
    """Append-only JSONL writer: one line per run's serialised series."""

    def write(
        self, spec: str, phase: str, payload: dict[str, Any]
    ) -> None:
        """Append one run's series."""
        self.append(
            {
                "schema": payload.get("schema", SERIES_SCHEMA_VERSION),
                "spec": spec,
                "phase": phase,
                "series": payload.get("series", []),
            }
        )


def series_total(series: dict[str, Any]) -> float:
    """A serialised series' values summed, partial tail included."""
    total = sum(float(v) for v in series.get("values") or [])
    if series.get("tail") is not None:
        total += float(series["tail"])
    return total


def read_timeseries(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield per-run series records, skipping torn/garbage lines.

    Newline-strict like :func:`~repro.obs.events.read_events`: a run
    whose line is still being written is not yielded yet.
    """
    return read_jsonl(path, "series")


def resolve_timeseries_path(campaign: str | Path) -> Path:
    """``<campaign>/timeseries.jsonl`` for a directory, the path itself else.

    Raises:
        FileNotFoundError: If no timeseries log exists there.
    """
    path = Path(campaign)
    if path.is_dir():
        path = path / TIMESERIES_FILENAME
    if not path.is_file():
        raise FileNotFoundError(
            f"no timeseries log at {path} (fresh runs of an observed "
            f"campaign write one; warm all-cache-hit re-runs do not)"
        )
    return path
