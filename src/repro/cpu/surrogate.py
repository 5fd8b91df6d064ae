"""Calibrated surrogate sweep tier: whole grids without per-point simulation.

The cycle simulator prices one figure point at roughly a second; a sweep
cube over decay interval x L2 latency x temperature x Vdd multiplies that
far beyond interactive use.  This module adds a third engine tier above
``"ooo"`` (cycle reference) and ``"fast"`` (analytical timing, exact
state): a *surrogate* that serves whole grids from a committed calibration
instead of running the simulator at all.

How a point is served
---------------------

A **calibration** (:meth:`SurrogateModel.calibrate`) runs the cycle engine
at a set of anchor points — the cross product of anchor decay intervals
and anchor L2 latencies; the committed artifact anchors the *entire*
standard sweep plane (``SWEEP_INTERVALS`` x ``PAPER_L2_LATENCIES``) — and
records, per anchor, the complete *simulation summary*: dynamic-energy
event counts, cycle and issue totals, and the standby-integration
statistics.  Temperature and supply never enter the simulation itself, so
those two axes need no anchors at all.  Evaluation then reconstructs a
figure point from the summaries:

* the simulation plane (interval, L2 latency) is resolved through a
  bilinear table pass — linear in ``log2(interval)`` and in latency —
  which is *exact at anchor nodes* because interpolation reproduces node
  values.  The envelope admits **only anchor nodes**: measurement showed
  between-anchor interpolation of the technique's standby dynamics can
  miss by several net-savings points (decay behaviour shifts sharply
  between interval octaves), so off-anchor plane points are treated as
  extrapolation and fall back to the cycle engine rather than being
  served with an honest-but-useless error bar;
* dynamic energy is re-priced through the real
  :class:`~repro.power.wattch.EnergyAccountant` at the requested Vdd, so
  the supply axis is exact wherever the counts are;
* leakage is reduced per operating point through the real
  :func:`~repro.leakctl.energy.net_savings` with the real (memoised)
  leakage model at that (T, Vdd) — the temperature and supply axes carry
  no surrogate error at all, because the underlying physics layer is
  batched/memoised (:mod:`repro.leakage.batch`) and a model build costs
  well under a millisecond once its tables are warm.  (The first-order
  alternative — scaling a reference reduction with one
  :func:`~repro.experiments.sensitivity.leakage_scale_grid` cube — is
  measurably worse exactly where sweeps look: standby residual fractions
  are *not* a common scale across temperature, echoing the "is leakage
  linear in T?" caution from the literature.)

The calibration also *fits exposure factors* in the
:class:`~repro.cpu.fastmodel.FastTimingConfig` sense — the per-L2-cycle
timing slope divided by the observed L2 round trips — and stores the fit
in the versioned artifact; :meth:`SurrogateModel.timing_config` turns it
back into a config the fast engine accepts.

The trust contract
------------------

The surrogate never silently extrapolates.  Each calibration carries an
**envelope** — the anchor hull on the simulation plane plus documented
(T, Vdd) validity ranges — and an :class:`ErrorBudget` documents the
tolerances (net savings, leakage energy, IPC/perf-loss deltas) every
served point must keep against the cycle reference.  Points outside the
envelope, for uncalibrated (benchmark, technique) pairs, or flagged by a
spot-check disagreement are **transparently re-run through the cycle
engine** by :func:`surrogate_sweep` and merged into the same result list
(and result store, when a scheduler is attached) — bit-identical to what
an all-cycle campaign would have produced for those points.  The golden
tolerance matrix and the hypothesis suite enforce all of this in tier-1.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from functools import lru_cache
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro.memo import register_reset

SURROGATE_SCHEMA = 1
"""Artifact schema version; bump on any payload layout change."""

DEFAULT_ANCHOR_INTERVALS = (1024, 2048, 4096, 8192, 16384, 32768)
"""Anchor decay intervals: the full standard sweep grid
(:data:`repro.experiments.runner.SWEEP_INTERVALS`), so every standard
sweep point is anchor-exact."""

DEFAULT_ANCHOR_LATENCIES = (5, 8, 11, 17)
"""Anchor L2 latencies: the full paper grid
(:data:`repro.cpu.config.PAPER_L2_LATENCIES`)."""

ENVELOPE_TEMP_C = (25.0, 125.0)
"""Temperature validity range (C).  The reduction uses the real leakage
model per operating point, so this bounds the physics model's own
fit-validity, not a surrogate approximation."""

ENVELOPE_VDD = (0.8, 1.0)
"""Supply validity range (V); dynamic energy re-prices exactly here
(event counts are supply-independent)."""


class OutOfEnvelopeError(ValueError):
    """A point fell outside the calibration envelope (no silent guesses)."""


@dataclass(frozen=True)
class ErrorBudget:
    """Documented per-point tolerances of a surrogate-served figure point.

    The contract, against the cycle reference at the same point:

    * ``net_savings_pp`` — absolute error on ``net_savings_pct`` in
      percentage points (the headline figure quantity);
    * ``leakage_rel`` — relative error on the leakage energies
      (``leak_technique_j`` and ``leak_baseline_j``);
    * ``perf_loss_pp`` — absolute error on ``perf_loss_pct`` in
      percentage points (the IPC delta).

    Because the envelope only admits anchor-exact points, a served point
    that *uses* any of this budget signals drift — a calibration that no
    longer matches the simulator — not expected approximation error.  The
    defaults leave deliberate headroom above float noise so the runtime
    spot-checks and the golden tolerance matrix fail loudly on real drift
    without flaking on reduction-order jitter.  ``repro sweep
    --error-budget`` scales the whole contract proportionally from the
    net-savings term.
    """

    net_savings_pp: float = 0.5
    leakage_rel: float = 0.02
    perf_loss_pp: float = 0.25

    def scaled(self, factor: float) -> "ErrorBudget":
        """A proportionally tightened (or loosened) budget."""
        if factor <= 0:
            raise ValueError("budget scale factor must be positive")
        return ErrorBudget(
            net_savings_pp=self.net_savings_pp * factor,
            leakage_rel=self.leakage_rel * factor,
            perf_loss_pp=self.perf_loss_pp * factor,
        )

    def violations(self, surrogate, reference) -> list[str]:
        """Which terms of the contract a (surrogate, reference) pair breaks."""
        out = []
        net_err = abs(surrogate.net_savings_pct - reference.net_savings_pct)
        if net_err > self.net_savings_pp:
            out.append(
                f"net savings off by {net_err:.3f} pp "
                f"(budget {self.net_savings_pp:g} pp)"
            )
        for name in ("leak_technique_j", "leak_baseline_j"):
            ref = getattr(reference, name)
            if ref != 0.0:
                rel = abs(getattr(surrogate, name) / ref - 1.0)
                if rel > self.leakage_rel:
                    out.append(
                        f"{name} off by {rel:.2%} (budget {self.leakage_rel:.0%})"
                    )
        perf_err = abs(surrogate.perf_loss_pct - reference.perf_loss_pct)
        if perf_err > self.perf_loss_pp:
            out.append(
                f"perf loss off by {perf_err:.3f} pp "
                f"(budget {self.perf_loss_pp:g} pp)"
            )
        return out

    def within(self, surrogate, reference) -> bool:
        return not self.violations(surrogate, reference)


DEFAULT_ERROR_BUDGET = ErrorBudget()


@dataclass(frozen=True)
class CalibrationConfig:
    """Everything that determines a calibration's anchor runs."""

    intervals: tuple[int, ...] = DEFAULT_ANCHOR_INTERVALS
    l2_latencies: tuple[int, ...] = DEFAULT_ANCHOR_LATENCIES
    n_ops: int = 20_000
    seed: int = 1
    temp_c: float = 110.0
    vdd: float = 0.9

    def __post_init__(self) -> None:
        if len(self.intervals) < 2 or len(self.l2_latencies) < 2:
            raise ValueError("calibration needs >= 2 anchors per plane axis")
        if tuple(sorted(self.intervals)) != tuple(self.intervals):
            raise ValueError("anchor intervals must be sorted ascending")
        if tuple(sorted(self.l2_latencies)) != tuple(self.l2_latencies):
            raise ValueError("anchor latencies must be sorted ascending")

    def to_dict(self) -> dict:
        return {
            "intervals": list(self.intervals),
            "l2_latencies": list(self.l2_latencies),
            "n_ops": self.n_ops,
            "seed": self.seed,
            "temp_c": self.temp_c,
            "vdd": self.vdd,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationConfig":
        return cls(
            intervals=tuple(payload["intervals"]),
            l2_latencies=tuple(payload["l2_latencies"]),
            n_ops=payload["n_ops"],
            seed=payload["seed"],
            temp_c=payload["temp_c"],
            vdd=payload["vdd"],
        )


@dataclass(frozen=True)
class GridPoint:
    """One requested point of a sweep cube."""

    decay_interval: int
    l2_latency: int
    temp_c: float
    vdd: float


@dataclass(frozen=True)
class _RunRecord:
    """Reduced summary of one anchor simulation run.

    ``counts``/``cycles``/``issued`` feed the real accountant (so dynamic
    energy reconstructs exactly at any Vdd); ``standby`` carries the
    :class:`~repro.leakctl.controlled.StandbyStats` fields of a technique
    run (``None`` for baselines).
    """

    counts: dict[str, int]
    cycles: int
    issued: int
    standby: dict[str, float] | None = None

    @classmethod
    def from_run(cls, out) -> "_RunRecord":
        standby = None
        if out.standby is not None:
            standby = {
                k: v for k, v in asdict(out.standby).items()
            }
        return cls(
            counts={k: int(v) for k, v in sorted(out.accountant.counts.items())},
            cycles=int(out.stats.cycles),
            issued=int(out.accountant.issued_total),
            standby=standby,
        )

    def to_dict(self) -> dict:
        payload: dict = {
            "counts": self.counts,
            "cycles": self.cycles,
            "issued": self.issued,
        }
        if self.standby is not None:
            payload["standby"] = self.standby
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "_RunRecord":
        return cls(
            counts={k: int(v) for k, v in payload["counts"].items()},
            cycles=int(payload["cycles"]),
            issued=int(payload["issued"]),
            standby=payload.get("standby"),
        )


# StandbyStats integer event fields interpolated on the simulation plane.
_STANDBY_INT_FIELDS = (
    "total_cycles",
    "accesses",
    "hits",
    "slow_hits",
    "true_misses",
    "induced_misses",
    "deactivations",
    "wakeups",
    "decay_writebacks",
    "tag_wake_misses",
    "tag_skip_misses",
)


def _entry_key(benchmark: str, technique_name: str) -> str:
    return f"{benchmark}/{technique_name}"


def fit_exposure_factors(
    baseline: dict[int, _RunRecord],
    anchors: dict[int, dict[int, _RunRecord]],
    config: CalibrationConfig,
) -> dict[str, float]:
    """Fit the timing-exposure factors from a calibration's anchor runs.

    The :class:`~repro.cpu.fastmodel.FastTimingConfig` model says each L2
    round trip exposes ``mem_exposure`` of its latency to the critical
    path, so the cycle count's slope along the L2-latency axis, divided by
    the observed round trips, *is* the fitted exposure factor.  A pure
    function of the anchor records — the calibration-drift regression
    recomputes it from the committed artifact and compares.
    """
    lo, hi = min(config.l2_latencies), max(config.l2_latencies)
    span = float(hi - lo)
    fits = []
    for interval in config.intervals:
        rec_lo, rec_hi = anchors[interval][lo], anchors[interval][hi]
        standby = rec_lo.standby or {}
        trips = standby.get("true_misses", 0) + standby.get("induced_misses", 0)
        if trips > 0:
            fits.append((rec_hi.cycles - rec_lo.cycles) / (span * trips))
    mem_exposure = min(max(sum(fits) / len(fits), 0.0), 1.0) if fits else 0.0
    base_lo, base_hi = baseline[lo], baseline[hi]
    fills = base_lo.counts.get("l1d_fill", 0) + base_lo.counts.get("l1i_fill", 0)
    baseline_mem_exposure = (
        min(max((base_hi.cycles - base_lo.cycles) / (span * fills), 0.0), 1.0)
        if fills
        else 0.0
    )
    return {
        "mem_exposure": mem_exposure,
        "baseline_mem_exposure": baseline_mem_exposure,
        "baseline_ipc": config.n_ops / base_lo.cycles,
    }


@dataclass
class _Entry:
    """Calibration data for one (benchmark, technique) pair."""

    baseline: dict[int, _RunRecord]
    anchors: dict[int, dict[int, _RunRecord]]
    exposure: dict[str, float]


class SurrogateModel:
    """A calibrated grid evaluator with an explicit trust envelope."""

    def __init__(
        self,
        config: CalibrationConfig,
        entries: dict[str, _Entry],
        *,
        envelope_temp_c: tuple[float, float] = ENVELOPE_TEMP_C,
        envelope_vdd: tuple[float, float] = ENVELOPE_VDD,
    ) -> None:
        self.config = config
        self.entries = entries
        self.envelope_temp_c = envelope_temp_c
        self.envelope_vdd = envelope_vdd
        self._grids: dict[str, dict] = {}

    # -- calibration --------------------------------------------------------

    @classmethod
    def calibrate(
        cls,
        benchmarks: Iterable[str],
        techniques: Iterable,
        config: CalibrationConfig | None = None,
        *,
        progress: Callable[[str], object] | None = None,
    ) -> "SurrogateModel":
        """Run the cycle-engine anchors and fit the calibration.

        Deterministic given the config (every anchor is a seeded
        simulation): calibrating twice yields byte-identical payloads,
        which the property suite asserts.
        """
        from repro.cpu.config import MachineConfig
        from repro.experiments.runner import run_once, technique_by_name

        config = config or CalibrationConfig()
        say = progress or (lambda _msg: None)
        resolved = [
            technique_by_name(t) if isinstance(t, str) else t for t in techniques
        ]
        for technique in resolved:
            if technique != technique_by_name(technique.name):
                raise ValueError(
                    f"technique {technique.name!r} is an ablated variant; "
                    "only standard (name-addressable) techniques calibrate"
                )
        entries: dict[str, _Entry] = {}
        for benchmark in benchmarks:
            baseline: dict[int, _RunRecord] = {}
            for l2 in config.l2_latencies:
                say(f"calibrate: {benchmark} baseline L2={l2}")
                machine = MachineConfig().with_l2_latency(l2)
                baseline[l2] = _RunRecord.from_run(
                    run_once(
                        benchmark,
                        technique=None,
                        machine=machine,
                        n_ops=config.n_ops,
                        seed=config.seed,
                        vdd=config.vdd,
                    )
                )
            for technique in resolved:
                anchors: dict[int, dict[int, _RunRecord]] = {}
                for interval in config.intervals:
                    anchors[interval] = {}
                    for l2 in config.l2_latencies:
                        say(
                            f"calibrate: {benchmark}/{technique.name} "
                            f"interval={interval} L2={l2}"
                        )
                        machine = MachineConfig().with_l2_latency(l2)
                        anchors[interval][l2] = _RunRecord.from_run(
                            run_once(
                                benchmark,
                                technique=technique,
                                machine=machine,
                                decay_interval=interval,
                                n_ops=config.n_ops,
                                seed=config.seed,
                                vdd=config.vdd,
                            )
                        )
                entries[_entry_key(benchmark, technique.name)] = _Entry(
                    baseline=dict(baseline),
                    anchors=anchors,
                    exposure=fit_exposure_factors(baseline, anchors, config),
                )
        return cls(config, entries)

    # -- envelope -----------------------------------------------------------

    def covers(self, benchmark: str, technique_name: str) -> bool:
        return _entry_key(benchmark, technique_name) in self.entries

    def envelope_violations(
        self, benchmark: str, technique_name: str, point: GridPoint
    ) -> list[str]:
        """Why ``point`` cannot be served (empty list = in envelope).

        The simulation-plane axes admit *anchor nodes only* — between
        anchors the technique's standby dynamics are not reliably
        interpolable (see the module docstring), so any off-anchor
        interval or latency counts as extrapolation and falls back.  The
        temperature and supply axes are continuous ranges: the reduction
        there is exact, bounded only by the physics models' validity.
        """
        if not self.covers(benchmark, technique_name):
            return ["uncalibrated"]
        out = []
        if point.decay_interval not in self.config.intervals:
            out.append("interval")
        if point.l2_latency not in self.config.l2_latencies:
            out.append("l2_latency")
        if not (self.envelope_temp_c[0] <= point.temp_c <= self.envelope_temp_c[1]):
            out.append("temp_c")
        if not (self.envelope_vdd[0] <= point.vdd <= self.envelope_vdd[1]):
            out.append("vdd")
        return out

    # -- evaluation ---------------------------------------------------------

    def _grid_tables(self, key: str) -> dict:
        """Per-entry numpy field tables over the anchor plane, built lazily."""
        tables = self._grids.get(key)
        if tables is not None:
            return tables
        entry = self.entries[key]
        intervals = self.config.intervals
        latencies = self.config.l2_latencies
        shape = (len(intervals), len(latencies))
        count_keys = sorted(
            {k for row in entry.anchors.values() for rec in row.values() for k in rec.counts}
        )
        base_count_keys = sorted(
            {k for rec in entry.baseline.values() for k in rec.counts}
        )

        def plane(getter) -> np.ndarray:
            arr = np.empty(shape, dtype=np.float64)
            for i, interval in enumerate(intervals):
                for j, l2 in enumerate(latencies):
                    arr[i, j] = getter(entry.anchors[interval][l2])
            return arr

        def baseline_row(getter) -> np.ndarray:
            return np.array(
                [getter(entry.baseline[l2]) for l2 in latencies], dtype=np.float64
            )

        tables = {
            "x": np.array([math.log2(i) for i in intervals]),
            "y": np.array(latencies, dtype=np.float64),
            "counts": {
                k: plane(lambda r, k=k: r.counts.get(k, 0)) for k in count_keys
            },
            "cycles": plane(lambda r: r.cycles),
            "issued": plane(lambda r: r.issued),
            "standby_line_cycles": plane(
                lambda r: r.standby["standby_line_cycles"]
            ),
            "standby_ints": {
                f: plane(lambda r, f=f: r.standby.get(f, 0))
                for f in _STANDBY_INT_FIELDS
            },
            "base_counts": {
                k: baseline_row(lambda r, k=k: r.counts.get(k, 0))
                for k in base_count_keys
            },
            "base_cycles": baseline_row(lambda r: r.cycles),
            "base_issued": baseline_row(lambda r: r.issued),
        }
        self._grids[key] = tables
        return tables

    def _interp_plane(self, key: str, interval: int, l2_latency: int) -> dict:
        """Bilinear interpolation of every stored field at one plane point."""
        t = self._grid_tables(key)
        x = math.log2(interval)
        y = float(l2_latency)

        def at(arr: np.ndarray) -> float:
            # Interval axis first (linear in log2), then the latency axis.
            per_lat = np.array(
                [np.interp(x, t["x"], arr[:, j]) for j in range(arr.shape[1])]
            )
            return float(np.interp(y, t["y"], per_lat))

        def row_at(arr: np.ndarray) -> float:
            return float(np.interp(y, t["y"], arr))

        return {
            "counts": {k: at(a) for k, a in t["counts"].items()},
            "cycles": at(t["cycles"]),
            "issued": at(t["issued"]),
            "standby_line_cycles": at(t["standby_line_cycles"]),
            "standby_ints": {
                f: at(a) for f, a in t["standby_ints"].items()
            },
            "base_counts": {k: row_at(a) for k, a in t["base_counts"].items()},
            "base_cycles": row_at(t["base_cycles"]),
            "base_issued": row_at(t["base_issued"]),
        }

    @staticmethod
    def _accountant(vdd: float, counts: dict, cycles: int, issued: int):
        from repro.power.wattch import EnergyAccountant

        acc = EnergyAccountant(config=_power_config_cached(vdd))
        acc.counts = Counter({k: v for k, v in counts.items() if v})
        acc.cycles = cycles
        acc.issued_total = issued
        return acc

    def evaluate_grid(
        self,
        benchmark: str,
        technique,
        *,
        intervals: Iterable[int],
        l2_latencies: Iterable[int] = (11,),
        temps_c: Iterable[float] | None = None,
        vdds: Iterable[float] | None = None,
    ) -> list:
        """Evaluate a whole sweep cube; every point must be in envelope.

        ``technique`` is a :class:`~repro.leakctl.base.TechniqueConfig` or
        a name.  Ordering is interval-major: interval, then L2 latency,
        then temperature, then Vdd — matching the sweep-layer contract.
        Raises :class:`OutOfEnvelopeError` on the first uncovered point;
        use :func:`surrogate_sweep` for transparent cycle-engine fallback.
        """
        from repro.experiments.runner import (
            _leakage_model_cached,
            technique_by_name,
        )
        from repro.leakctl.controlled import StandbyStats
        from repro.leakctl.energy import net_savings
        from repro.tech.nodes import PAPER_FREQUENCY_HZ

        if isinstance(technique, str):
            technique = technique_by_name(technique)
        intervals = tuple(intervals)
        l2_latencies = tuple(l2_latencies)
        temps_c = tuple(temps_c) if temps_c is not None else (self.config.temp_c,)
        vdds = tuple(vdds) if vdds is not None else (self.config.vdd,)
        key = _entry_key(benchmark, technique.name)
        for interval in intervals:
            for l2 in l2_latencies:
                for t in temps_c:
                    for v in vdds:
                        bad = self.envelope_violations(
                            benchmark, technique.name, GridPoint(interval, l2, t, v)
                        )
                        if bad:
                            raise OutOfEnvelopeError(
                                f"{benchmark}/{technique.name} point "
                                f"(interval={interval}, l2={l2}, T={t:g}C, "
                                f"vdd={v:g}) outside the calibration "
                                f"envelope: {', '.join(bad)}"
                            )

        # Exact leakage models per operating point: building one is cheap
        # and memoised (the heavy physics tables are shared), so — unlike
        # a first-order common-scale expansion à la ``temperature_profile``
        # — the temperature and supply axes carry *no* surrogate error.
        # The simulation is supply-independent (the accountant only prices
        # events), so the plane summaries hold at every (T, Vdd); the only
        # approximation anywhere is the plane interpolation itself.
        models = {
            (t, v): _leakage_model_cached(t, v)
            for t in temps_c
            for v in vdds
        }

        results = []
        for interval in intervals:
            for l2 in l2_latencies:
                p = self._interp_plane(key, interval, l2)
                tech_cycles = int(round(p["cycles"]))
                base_cycles = int(round(p["base_cycles"]))
                tech_issued = int(round(p["issued"]))
                base_issued = int(round(p["base_issued"]))
                standby = StandbyStats(
                    standby_line_cycles=p["standby_line_cycles"],
                    **{
                        f: int(round(p["standby_ints"][f]))
                        for f in _STANDBY_INT_FIELDS
                    },
                )
                # Dynamic energy re-priced per requested supply; counts do
                # not depend on Vdd, so this axis is exact on the plane.
                priced = {}
                for v in vdds:
                    tech_acc = self._accountant(
                        v, p["counts"], tech_cycles, tech_issued
                    )
                    base_acc = self._accountant(
                        v, p["base_counts"], base_cycles, base_issued
                    )
                    priced[v] = (
                        tech_acc,
                        base_acc.total_energy(),
                        base_acc.clock_energy(),
                    )
                for t in temps_c:
                    for v in vdds:
                        tech_acc, base_dyn, base_clock = priced[v]
                        results.append(
                            net_savings(
                                benchmark=benchmark,
                                technique=technique,
                                decay_interval=interval,
                                l2_latency=l2,
                                temp_c=t,
                                model=models[(t, v)],
                                frequency_hz=PAPER_FREQUENCY_HZ,
                                baseline_cycles=base_cycles,
                                technique_cycles=tech_cycles,
                                technique_accountant=tech_acc,
                                standby_stats=standby,
                                baseline_dyn_j=base_dyn,
                                baseline_clock_j=base_clock,
                            )
                        )
        return results

    def evaluate(self, benchmark: str, technique, point: GridPoint):
        """One point of the cube (see :meth:`evaluate_grid`)."""
        return self.evaluate_grid(
            benchmark,
            technique,
            intervals=(point.decay_interval,),
            l2_latencies=(point.l2_latency,),
            temps_c=(point.temp_c,),
            vdds=(point.vdd,),
        )[0]

    def timing_config(self, benchmark: str, technique_name: str):
        """The fitted exposure factors as a :class:`FastTimingConfig`."""
        from repro.cpu.fastmodel import fitted_timing_config

        entry = self.entries[_entry_key(benchmark, technique_name)]
        return fitted_timing_config(
            base_ipc=entry.exposure["baseline_ipc"],
            mem_exposure=entry.exposure["mem_exposure"],
        )

    # -- serialisation ------------------------------------------------------

    def to_payload(self) -> dict:
        from repro.exec.spec import CODE_VERSION

        payload = {
            "schema": SURROGATE_SCHEMA,
            "code_version": CODE_VERSION,
            "config": self.config.to_dict(),
            "envelope": {
                "temp_c": list(self.envelope_temp_c),
                "vdd": list(self.envelope_vdd),
            },
            "entries": {
                key: {
                    "exposure": entry.exposure,
                    "baseline": {
                        str(l2): rec.to_dict()
                        for l2, rec in sorted(entry.baseline.items())
                    },
                    "anchors": {
                        str(interval): {
                            str(l2): rec.to_dict()
                            for l2, rec in sorted(row.items())
                        }
                        for interval, row in sorted(entry.anchors.items())
                    },
                }
                for key, entry in sorted(self.entries.items())
            },
        }
        payload["fingerprint"] = _fingerprint(payload)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SurrogateModel":
        from repro.exec.spec import CODE_VERSION

        if payload.get("schema") != SURROGATE_SCHEMA:
            raise ValueError(
                f"unsupported surrogate artifact schema "
                f"{payload.get('schema')!r} (expected {SURROGATE_SCHEMA})"
            )
        if payload.get("code_version") != CODE_VERSION:
            raise ValueError(
                "stale surrogate calibration: artifact code_version "
                f"{payload.get('code_version')!r} != {CODE_VERSION!r}; "
                "re-run `repro surrogate calibrate`"
            )
        stored = payload.get("fingerprint")
        if stored is not None and stored != _fingerprint(payload):
            raise ValueError("surrogate calibration artifact is corrupt")
        entries = {
            key: _Entry(
                baseline={
                    int(l2): _RunRecord.from_dict(rec)
                    for l2, rec in raw["baseline"].items()
                },
                anchors={
                    int(interval): {
                        int(l2): _RunRecord.from_dict(rec)
                        for l2, rec in row.items()
                    }
                    for interval, row in raw["anchors"].items()
                },
                exposure=dict(raw["exposure"]),
            )
            for key, raw in payload["entries"].items()
        }
        envelope = payload["envelope"]
        return cls(
            CalibrationConfig.from_dict(payload["config"]),
            entries,
            envelope_temp_c=tuple(envelope["temp_c"]),
            envelope_vdd=tuple(envelope["vdd"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_payload(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "SurrogateModel":
        return cls.from_payload(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def _fingerprint(payload: dict) -> str:
    """SHA-256 over the canonical payload sans the fingerprint itself."""
    body = {k: v for k, v in payload.items() if k != "fingerprint"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Committed artifact and session models
# ---------------------------------------------------------------------------

_ARTIFACT_NAME = "surrogate_calibration.json"


def committed_artifact_path() -> Path:
    """Where the versioned calibration artifact lives (package data)."""
    return Path(__file__).with_name(_ARTIFACT_NAME)


_COMMITTED: list = []  # [] = unloaded, [None] = missing, [model] = loaded
_SESSION_MODELS: dict = {}


@register_reset
def _clear_model_caches() -> None:
    _COMMITTED.clear()
    _SESSION_MODELS.clear()


def committed_model() -> SurrogateModel | None:
    """The committed calibration, or ``None`` when absent/unreadable."""
    if not _COMMITTED:
        path = committed_artifact_path()
        try:
            _COMMITTED.append(SurrogateModel.load(path))
        except (OSError, ValueError, KeyError):
            _COMMITTED.append(None)
    return _COMMITTED[0]


def _session_model(
    benchmark: str, technique, n_ops: int, seed: int
) -> SurrogateModel:
    """A per-process on-demand calibration for one (benchmark, technique).

    The committed artifact serves the default run length and seed; any
    other sweep configuration calibrates once per session and reuses the
    fit for every subsequent grid (cleared with the analytic memo layer).
    """
    key = (benchmark, technique.name, n_ops, seed)
    model = _SESSION_MODELS.get(key)
    if model is None:
        model = SurrogateModel.calibrate(
            [benchmark],
            [technique],
            CalibrationConfig(n_ops=n_ops, seed=seed),
        )
        _SESSION_MODELS[key] = model
    return model


@register_reset
def _clear_power_configs() -> None:
    _power_config_cached.cache_clear()


@lru_cache(maxsize=16)
def _power_config_cached(vdd: float):
    from repro.power.wattch import default_power_config

    return default_power_config(vdd=vdd)


# ---------------------------------------------------------------------------
# Figure-point and sweep entry points (fallback lives here)
# ---------------------------------------------------------------------------


def _is_standard_setup(technique, policy, adaptive: bool, target: str) -> bool:
    """Whether the request matches what calibrations describe."""
    from repro.experiments.runner import technique_by_name
    from repro.leakctl.base import DecayPolicy

    try:
        standard = technique == technique_by_name(technique.name)
    except KeyError:
        standard = False
    return (
        standard
        and policy == DecayPolicy.NOACCESS
        and not adaptive
        and target == "l1d"
    )


def surrogate_figure_point(
    benchmark: str,
    technique,
    *,
    l2_latency: int = 11,
    temp_c: float = 110.0,
    decay_interval: int = 4096,
    policy=None,
    adaptive: bool = False,
    n_ops: int = 20_000,
    seed: int = 1,
    vdd: float = 0.9,
    target: str = "l1d",
):
    """One figure point through the surrogate tier.

    Served from the **committed** calibration artifact when it covers the
    request (benchmark/technique calibrated, run length and seed match,
    point inside the envelope); anything else transparently falls back to
    the cycle engine — a single point never pays for an on-demand
    calibration.
    """
    from repro.experiments.runner import figure_point
    from repro.leakctl.base import DecayPolicy

    policy = DecayPolicy.NOACCESS if policy is None else policy
    model = committed_model()
    point = GridPoint(decay_interval, l2_latency, temp_c, vdd)
    if (
        model is not None
        and _is_standard_setup(technique, policy, adaptive, target)
        and model.config.n_ops == n_ops
        and model.config.seed == seed
        and not model.envelope_violations(benchmark, technique.name, point)
    ):
        return model.evaluate(benchmark, technique, point)
    return figure_point(
        benchmark,
        technique,
        l2_latency=l2_latency,
        temp_c=temp_c,
        decay_interval=decay_interval,
        policy=policy,
        adaptive=adaptive,
        n_ops=n_ops,
        seed=seed,
        vdd=vdd,
        target=target,
        engine="ooo",
    )


@dataclass
class SurrogateSweepReport:
    """How a surrogate sweep served its grid (trust accounting)."""

    total: int = 0
    served: int = 0
    fallbacks: int = 0
    spot_checks: int = 0
    spot_check_failures: int = 0
    fallback_reasons: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def surrogate_sweep(
    benchmark: str,
    technique,
    *,
    intervals: Iterable[int] = DEFAULT_ANCHOR_INTERVALS,
    l2_latencies: Iterable[int] = (11,),
    temp_c: float = 85.0,
    temps_c: Iterable[float] | None = None,
    vdd: float = 0.9,
    vdds: Iterable[float] | None = None,
    n_ops: int = 20_000,
    seed: int = 1,
    model: SurrogateModel | None = None,
    budget: ErrorBudget | None = None,
    spot_checks: int = 1,
    scheduler=None,
) -> tuple[list, SurrogateSweepReport]:
    """A sweep cube through the surrogate tier with automatic fallback.

    Every grid point is either *served* by the surrogate (inside the
    calibration envelope) or *re-run through the cycle engine* — out-of-
    envelope points, uncalibrated pairs, and points whose deterministic
    spot-check disagrees with the cycle reference beyond ``budget``.
    Fallback points go through ``scheduler`` (and its result store) when
    one is attached, under their honest ``engine="ooo"`` content hashes,
    so a later all-cycle campaign gets warm, bit-identical hits.

    Returns ``(results, report)``; ``results`` ordering is interval-major
    (interval, then L2 latency, then temperature, then Vdd), matching
    :func:`repro.experiments.sweeps.interval_sweep`.
    """
    from repro.experiments.runner import figure_point, technique_by_name
    from repro.leakctl.base import DecayPolicy

    if isinstance(technique, str):
        technique = technique_by_name(technique)
    budget = budget or DEFAULT_ERROR_BUDGET
    intervals = tuple(intervals)
    l2_latencies = tuple(l2_latencies)
    temps = tuple(temps_c) if temps_c is not None else (temp_c,)
    supplies = tuple(vdds) if vdds is not None else (vdd,)
    points = [
        GridPoint(i, l, t, v)
        for i in intervals
        for l in l2_latencies
        for t in temps
        for v in supplies
    ]
    report = SurrogateSweepReport(total=len(points))
    reasons: Counter = Counter()

    standard = _is_standard_setup(
        technique, DecayPolicy.NOACCESS, False, "l1d"
    )
    if not standard:
        served_flags = [False] * len(points)
        reasons["technique"] += len(points)
        model = None
    else:
        if model is None:
            committed = committed_model()
            if (
                committed is not None
                and committed.config.n_ops == n_ops
                and committed.config.seed == seed
                and committed.covers(benchmark, technique.name)
            ):
                model = committed
            else:
                model = _session_model(benchmark, technique, n_ops, seed)
        served_flags = []
        for point in points:
            bad = model.envelope_violations(benchmark, technique.name, point)
            served_flags.append(not bad)
            for reason in bad:
                reasons[reason] += 1

    results: list = [None] * len(points)

    # Serve the in-envelope sub-grid in one batched evaluation when the
    # grid is dense (every axis value appears in a full cross product);
    # otherwise evaluate point-wise.  The flat point list keeps ordering.
    served_idx = [i for i, ok in enumerate(served_flags) if ok]
    if served_idx and model is not None:
        if len(served_idx) == len(points):
            grid = model.evaluate_grid(
                benchmark,
                technique,
                intervals=intervals,
                l2_latencies=l2_latencies,
                temps_c=temps,
                vdds=supplies,
            )
            for i, res in zip(range(len(points)), grid):
                results[i] = res
        else:
            for i in served_idx:
                results[i] = model.evaluate(benchmark, technique, points[i])

    def cycle_point(point: GridPoint):
        return figure_point(
            benchmark,
            technique,
            l2_latency=point.l2_latency,
            temp_c=point.temp_c,
            decay_interval=point.decay_interval,
            n_ops=n_ops,
            seed=seed,
            vdd=point.vdd,
            engine="ooo",
        )

    # Deterministic spot-checks: evenly strided served points re-run
    # through the cycle engine; disagreement beyond the budget replaces
    # the surrogate value with the reference (which is already in hand).
    if served_idx and spot_checks > 0:
        stride = max(1, len(served_idx) // spot_checks)
        for i in served_idx[::stride][:spot_checks]:
            reference = cycle_point(points[i])
            report.spot_checks += 1
            if budget.violations(results[i], reference):
                results[i] = reference
                report.spot_check_failures += 1
                reasons["spot-check"] += 1

    fallback_idx = [i for i, ok in enumerate(served_flags) if not ok]
    if fallback_idx:
        if scheduler is not None and standard:
            from repro.exec import RunSpec

            specs = [
                RunSpec(
                    benchmark=benchmark,
                    technique=technique.name,
                    l2_latency=points[i].l2_latency,
                    temp_c=points[i].temp_c,
                    decay_interval=points[i].decay_interval,
                    n_ops=n_ops,
                    seed=seed,
                    vdd=points[i].vdd,
                    engine="ooo",
                )
                for i in fallback_idx
            ]
            for i, res in zip(fallback_idx, scheduler.run(specs)):
                results[i] = res
        else:
            for i in fallback_idx:
                results[i] = cycle_point(points[i])

    report.served = len(served_idx) - report.spot_check_failures
    report.fallbacks = len(fallback_idx) + report.spot_check_failures
    report.fallback_reasons = dict(reasons)
    return results, report
