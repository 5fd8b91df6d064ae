"""End-to-end experiment runner.

One *run* = one benchmark trace through the out-of-order core with a given
L1-D leakage configuration.  One *figure point* = a (baseline, technique)
run pair reduced to net savings and performance loss.

Baselines are cached: the baseline timing/dynamic energy is independent of
temperature (leakage is computed analytically afterwards), so one baseline
run per (benchmark, L2 latency, n_ops, seed) serves every temperature and
technique.  The cache holds reduced :class:`BaselineSummary` entries
(cycles + energy totals), not whole run outputs.  Cross-process and
cross-invocation caching of entire figure points lives in
:mod:`repro.exec` (see ``docs/EXECUTION.md``).

Run inputs are cached too: each trace is generated, and its functional
warm-up replayed, once per process.  One bounded memo keeps the
post-warm-up snapshot and the measured ops per (benchmark, seed, run
lengths, RNG mode, machine shape); the key holds no latency, so every L2
latency of a figure sweep restores the same entry (``docs/PERFORMANCE.md``
§4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from repro import obs as _obs
from repro.cache.cache import Cache
from repro.cache.hierarchy import MemoryHierarchy
from repro.cpu.config import MachineConfig
from repro.cpu.isa import OpClass
from repro.cpu.metrics import RunStats
from repro.cpu.pipeline import Pipeline
from repro.leakage.model import HotLeakage
from repro.leakage.structures import CacheLeakageModel
from repro.leakctl.adaptive import AdaptiveControlledCache
from repro.leakctl.base import (
    DecayPolicy,
    TechniqueConfig,
    drowsy_technique,
    gated_vss_technique,
    rbb_technique,
)
from repro.leakctl.controlled import ControlledCache, StandbyStats
from repro.leakctl.energy import NetSavingsResult, net_savings
from repro.memo import LRUMemo
from repro.obs.timeseries import RunRecorder
from repro.obs import timeseries as _ts
from repro.power.wattch import EnergyAccountant, default_power_config
from repro.tech.nodes import PAPER_FREQUENCY_HZ, PAPER_VDD
from repro.workloads.generator import TraceGenerator

DEFAULT_N_OPS = 20_000
DEFAULT_WARMUP_OPS = 30_000
DEFAULT_DECAY_INTERVAL = 4096
DEFAULT_SEED = 1

# The decay-interval sweep grid: the paper sweeps 1k..64k cycles; we use
# 1k..32k (the top octave never decays anything within our compressed
# runs; see EXPERIMENTS.md).
SWEEP_INTERVALS = (1024, 2048, 4096, 8192, 16384, 32768)


def technique_by_name(name: str) -> TechniqueConfig:
    """Resolve a technique name used by the CLI-ish entry points."""
    factories = {
        "drowsy": drowsy_technique,
        "gated-vss": gated_vss_technique,
        "gated": gated_vss_technique,
        "rbb": rbb_technique,
    }
    try:
        return factories[name]()
    except KeyError:
        known = ", ".join(sorted(factories))
        raise KeyError(f"unknown technique {name!r}; known: {known}") from None


@dataclass
class RunOutput:
    """Everything one simulation run produced."""

    stats: RunStats
    accountant: EnergyAccountant
    hierarchy: MemoryHierarchy
    standby: StandbyStats | None = None
    controlled: ControlledCache | None = None
    recorder: RunRecorder | None = None


# Prepared run inputs, one entry per trace: the post-warm-up snapshot plus
# the measured ops ``trace[warmup_ops:]``; the warm-up prefix is not kept.
# The functional warm-up is a pure function of the trace prefix and the
# machine's shapes (cache geometries, predictor and BTB sizes): it drives
# the raw arrays directly, never reads a latency, records no energy events
# and never touches the leakage-mode fields.  So, as the paper fast-forwards
# each program once and measures it at every L2 latency, the first run of a
# trace replays the warm-up and every later run — the other half of a
# figure point, every technique, every L2 latency — restores the snapshot.
# Restored runs are bit-identical to replayed ones (the golden equivalence
# tests cover both paths).  The bound covers every benchmark profile.
_RUN_INPUTS = LRUMemo(maxsize=16)


class _RunInput(NamedTuple):
    """One prepared trace: what a run needs beyond its fresh machine."""

    tail: tuple  # the measured ops, trace[warmup_ops:]
    warm_state: tuple | None  # post-warm-up snapshot (fast path)
    warmup: tuple | None  # the warm-up prefix, replayed per run (reference)


def _warmup_shape(machine: MachineConfig) -> tuple:
    """The machine fields the functional warm-up reads: no latencies."""
    return (
        machine.l1i_geometry,
        machine.l1d_geometry,
        machine.l2_geometry,
        machine.bimod_entries,
        machine.gag_history_bits,
        machine.gag_entries,
        machine.chooser_entries,
        machine.btb_entries,
        machine.btb_assoc,
    )


def _snapshot_cache(cache) -> tuple:
    """Capture (set -> line states, set -> LRU order) for warmed sets."""
    lines = cache.lines
    items = lines.items() if isinstance(lines, dict) else enumerate(lines)
    line_snap = []
    touched = []
    for set_idx, ways in items:
        if any(line.valid for line in ways):
            touched.append(set_idx)
            line_snap.append(
                (
                    set_idx,
                    tuple(
                        (line.tag, line.valid, line.dirty) for line in ways
                    ),
                )
            )
    lru = cache.lru
    lru_snap = tuple((s, tuple(lru[s])) for s in touched)
    return tuple(line_snap), lru_snap


def _restore_cache(cache, snap: tuple) -> None:
    line_snap, lru_snap = snap
    lines = cache.lines
    for set_idx, ways in line_snap:
        row = lines[set_idx]
        for line, (tag, valid, dirty) in zip(row, ways):
            line.tag = tag
            line.valid = valid
            line.dirty = dirty
    lru = cache.lru
    for set_idx, order in lru_snap:
        lru[set_idx][:] = order


def _snapshot_warm_state(hierarchy, pipeline) -> tuple:
    l1d = (
        hierarchy.controlled_l1d.cache
        if hierarchy.controlled_l1d is not None
        else hierarchy.plain_l1d
    )
    predictor = pipeline.predictor
    btb = pipeline.btb
    return (
        _snapshot_cache(hierarchy.l1i),
        _snapshot_cache(hierarchy.l2),
        _snapshot_cache(l1d),
        (
            tuple(predictor.bimod),
            tuple(predictor.gag),
            tuple(predictor.chooser),
            predictor.history,
        ),
        (
            tuple(tuple(row) for row in btb.tags),
            tuple(tuple(row) for row in btb.targets),
            tuple(tuple(row) for row in btb.lru),
        ),
    )


def _restore_warm_state(hierarchy, pipeline, snap: tuple) -> None:
    l1i_snap, l2_snap, l1d_snap, pred_snap, btb_snap = snap
    l1d = (
        hierarchy.controlled_l1d.cache
        if hierarchy.controlled_l1d is not None
        else hierarchy.plain_l1d
    )
    _restore_cache(hierarchy.l1i, l1i_snap)
    _restore_cache(hierarchy.l2, l2_snap)
    _restore_cache(l1d, l1d_snap)
    predictor = pipeline.predictor
    bimod, gag, chooser, history = pred_snap
    predictor.bimod[:] = bimod
    predictor.gag[:] = gag
    predictor.chooser[:] = chooser
    predictor.history = history
    btb = pipeline.btb
    tags, targets, lru = btb_snap
    for row, vals in zip(btb.tags, tags):
        row[:] = vals
    for row, vals in zip(btb.targets, targets):
        row[:] = vals
    for row, vals in zip(btb.lru, lru):
        row[:] = vals


def _functional_warmup(
    hierarchy: MemoryHierarchy,
    pipeline: Pipeline,
    ops,
    machine: MachineConfig,
) -> None:
    """Warm caches and predictors without timing or energy accounting.

    Plays the role of the paper's 2-billion-instruction fast-forward: the
    measured run starts with live data in the caches and trained
    predictors.  Operates on the cache/predictor objects directly, so no
    dynamic-energy events are recorded; stats are reset by the caller.
    """
    l1d = (
        hierarchy.controlled_l1d.cache
        if hierarchy.controlled_l1d is not None
        else hierarchy.plain_l1d
    )
    line_shift = machine.l1i_geometry.offset_bits
    cur_line = -1
    # Hot-loop bindings (this loop replays tens of thousands of ops).
    l1i_access = hierarchy.l1i.access
    l2_access = hierarchy.l2.access
    l1d_access = l1d.access
    predictor_update = pipeline.predictor.update
    btb_install = pipeline.btb.install
    LOAD = OpClass.LOAD
    STORE = OpClass.STORE
    BRANCH = OpClass.BRANCH
    for op in ops:
        line = op.pc >> line_shift
        if line != cur_line:
            cur_line = line
            hit, _ = l1i_access(op.pc)
            if not hit:
                l2_access(op.pc)
        op_class = op.op
        if op_class is LOAD or op_class is STORE:
            hit, _ = l1d_access(op.addr, is_write=op_class is STORE)
            if not hit:
                l2_access(op.addr, is_write=False)
        elif op_class is BRANCH:
            predictor_update(op.pc, op.taken)
            if op.taken:
                btb_install(op.pc, op.target)
    # Measured stats start clean.
    l1d.stats.reset()
    hierarchy.l1i.stats.reset()
    hierarchy.l2.stats.reset()
    pipeline.predictor.stats.reset()


def run_once(
    benchmark: str,
    *,
    technique: TechniqueConfig | None,
    machine: MachineConfig,
    decay_interval: int = DEFAULT_DECAY_INTERVAL,
    policy: DecayPolicy = DecayPolicy.NOACCESS,
    adaptive: bool = False,
    n_ops: int = DEFAULT_N_OPS,
    warmup_ops: int = DEFAULT_WARMUP_OPS,
    seed: int = DEFAULT_SEED,
    vdd: float = PAPER_VDD,
    target: str = "l1d",
    trace_ops=None,
    engine: str = "ooo",
    timing=None,
    reference: bool = False,
) -> RunOutput:
    """Run one benchmark once (baseline when ``technique`` is None).

    ``target`` selects which cache the technique controls: the paper's
    L1 D-cache (default), or — as extensions — the L1 I-cache or the
    unified L2.  ``trace_ops`` (an iterable of
    :class:`~repro.cpu.isa.MicroOp`, e.g. from
    :func:`repro.workloads.read_trace`) replaces the synthetic generator;
    the first ``warmup_ops`` of it feed the functional warmup.
    ``engine`` selects the timing model: ``"ooo"`` (the cycle-level
    out-of-order reference) or ``"fast"`` (analytical timing for wide
    sweeps; identical cache/energy state, estimated cycle count).  The
    grid-level ``"surrogate"`` tier never simulates and therefore has no
    ``run_once`` — use :func:`figure_point` or
    :func:`repro.cpu.surrogate.surrogate_sweep`.  ``timing`` optionally
    overrides the fast engine's :class:`~repro.cpu.fastmodel.
    FastTimingConfig` (e.g. exposure factors fitted by a surrogate
    calibration).
    ``reference`` selects the unoptimised slow paths everywhere — the
    cycle-by-cycle pipeline loop, the periodic full-array decay scan, and
    the stdlib ``random.Random`` trace generator.  Results are
    bit-identical to the default fast paths; the golden equivalence tests
    and ``repro bench`` rely on that.
    """
    if target not in ("l1d", "l1i", "l2"):
        raise ValueError(f"unknown control target {target!r}")
    if engine == "surrogate":
        raise ValueError(
            "the surrogate tier serves figure points, not raw runs; "
            "use figure_point(engine='surrogate') or "
            "repro.cpu.surrogate.surrogate_sweep"
        )
    if engine not in ("ooo", "fast"):
        raise ValueError(f"unknown engine {engine!r}")
    if timing is not None and engine != "fast":
        raise ValueError("timing overrides apply to the 'fast' engine only")
    accountant = EnergyAccountant(config=default_power_config(vdd=vdd))
    controlled = None
    if technique is not None:
        geometry = {
            "l1d": machine.l1d_geometry,
            "l1i": machine.l1i_geometry,
            "l2": machine.l2_geometry,
        }[target]
        cache_cls = AdaptiveControlledCache if adaptive else ControlledCache
        controlled = cache_cls(
            Cache(target, geometry),
            technique,
            decay_interval=decay_interval,
            policy=policy,
            accountant=accountant,
            decay_writeback_event=(
                "mem_access" if target == "l2" else "l2_writeback"
            ),
            reference=reference,
        )
    kwargs = {target: controlled} if controlled is not None else {}
    hierarchy = MemoryHierarchy(machine, accountant, **kwargs)
    if engine == "fast":
        from repro.cpu.fastmodel import FastPipeline

        pipeline = FastPipeline(machine, hierarchy, accountant, timing=timing)
    else:
        pipeline = Pipeline(machine, hierarchy, accountant, reference=reference)
    # Bounded time-series telemetry rides along when observability is on.
    # It only ever *records* — results are bit-identical either way, and
    # the recorder travels in the scheduler's metadata, never the result.
    recorder = RunRecorder() if _obs.is_enabled() else None
    if recorder is not None:
        pipeline.recorder = recorder
        if controlled is not None:
            controlled.attach_recorder(recorder)
    if trace_ops is not None:
        stream = iter(trace_ops)
        if warmup_ops > 0:
            _functional_warmup(
                hierarchy,
                pipeline,
                itertools.islice(stream, warmup_ops),
                machine,
            )
    else:
        rng_mode = "reference" if reference else "flat"
        key = (
            benchmark, seed, warmup_ops, n_ops, rng_mode,
            _warmup_shape(machine),
        )
        entry = _RUN_INPUTS.get(key)
        if entry is None:
            trace = tuple(
                TraceGenerator(benchmark, seed=seed, rng_mode=rng_mode).ops(
                    warmup_ops + n_ops
                )
            )
            _obs.incr("runner.traces_generated")
            prefix = trace[:warmup_ops]
            if reference or not prefix:
                entry = _RunInput(trace[warmup_ops:], None, prefix or None)
            else:
                _functional_warmup(hierarchy, pipeline, prefix, machine)
                _obs.incr("runner.warmup_replayed")
                entry = _RunInput(
                    trace[warmup_ops:],
                    _snapshot_warm_state(hierarchy, pipeline),
                    None,
                )
            del trace, prefix  # free the prefix before the measured run
            _RUN_INPUTS[key] = entry
        elif entry.warm_state is not None:
            _restore_warm_state(hierarchy, pipeline, entry.warm_state)
            _obs.incr("runner.warmup_restored")
        if entry.warmup is not None:
            # Reference mode replays the warm-up on every run.
            _functional_warmup(hierarchy, pipeline, entry.warmup, machine)
            _obs.incr("runner.warmup_replayed")
        stream = iter(entry.tail)
    with _obs.span("runner.pipeline_run"):
        stats = pipeline.run(stream)
    _obs.incr("runner.runs")
    return RunOutput(
        stats=stats,
        accountant=accountant,
        hierarchy=hierarchy,
        standby=controlled.stats if controlled else None,
        controlled=controlled,
        recorder=recorder,
    )


@dataclass(frozen=True)
class BaselineSummary:
    """The three baseline quantities :func:`net_savings` consumes.

    Memoising this instead of the whole :class:`RunOutput` keeps the
    baseline cache a few hundred bytes per entry — the full output retains
    the entire :class:`MemoryHierarchy` (every cache line of a 2 MB L2).
    """

    cycles: int
    dyn_energy_j: float
    clock_energy_j: float

    @classmethod
    def from_run(cls, out: RunOutput) -> "BaselineSummary":
        return cls(
            cycles=out.stats.cycles,
            dyn_energy_j=out.accountant.total_energy(),
            clock_energy_j=out.accountant.clock_energy(),
        )


@lru_cache(maxsize=256)
def _baseline_cached(
    benchmark: str,
    l2_latency: int,
    n_ops: int,
    seed: int,
    vdd: float = PAPER_VDD,
    engine: str = "ooo",
) -> BaselineSummary:
    machine = MachineConfig().with_l2_latency(l2_latency)
    return BaselineSummary.from_run(
        run_once(
            benchmark,
            technique=None,
            machine=machine,
            n_ops=n_ops,
            seed=seed,
            vdd=vdd,
            engine=engine,
        )
    )


@lru_cache(maxsize=32)
def _leakage_model_cached(
    temp_c: float, vdd: float = PAPER_VDD, target: str = "l1d"
) -> CacheLeakageModel:
    from repro.leakctl.base import L2_CELL_VTH_SHIFT
    from repro.tech.nodes import get_node

    node = get_node("70nm")
    machine = MachineConfig()
    geometry = {
        "l1d": machine.l1d_geometry,
        "l1i": machine.l1i_geometry,
        "l2": machine.l2_geometry,
    }[target]
    if target == "l2":
        # The L2 is built from leakage-optimised high-Vt cells.
        node = node.with_overrides(
            vth_n=node.vth_n + L2_CELL_VTH_SHIFT,
            vth_p=node.vth_p + L2_CELL_VTH_SHIFT,
        )
    hot = HotLeakage(node, vdd=vdd, temp_c=temp_c)
    return hot.cache_model(geometry)


def figure_point(
    benchmark: str,
    technique: TechniqueConfig,
    *,
    l2_latency: int = 11,
    temp_c: float = 110.0,
    decay_interval: int = DEFAULT_DECAY_INTERVAL,
    policy: DecayPolicy = DecayPolicy.NOACCESS,
    adaptive: bool = False,
    n_ops: int = DEFAULT_N_OPS,
    seed: int = DEFAULT_SEED,
    vdd: float = PAPER_VDD,
    target: str = "l1d",
    engine: str = "ooo",
) -> NetSavingsResult:
    """One (benchmark, technique) point of a paper figure.

    Runs (or reuses) the baseline, runs the technique, and reduces the
    pair to the paper's net-savings / performance-loss metrics at the
    requested temperature and supply voltage (the DVS hook: a lower Vdd
    shrinks both the leakage at stake and the dynamic costs).

    ``engine="surrogate"`` serves the point from the committed calibration
    artifact when it covers the request, and otherwise falls back to the
    cycle engine (see :mod:`repro.cpu.surrogate` for the trust contract).
    """
    if engine == "surrogate":
        from repro.cpu.surrogate import surrogate_figure_point

        return surrogate_figure_point(
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
        )
    _obs.incr("runner.figure_points")
    base = _baseline_cached(benchmark, l2_latency, n_ops, seed, vdd, engine)
    machine = MachineConfig().with_l2_latency(l2_latency)
    tech_run = run_once(
        benchmark,
        technique=technique,
        machine=machine,
        decay_interval=decay_interval,
        policy=policy,
        adaptive=adaptive,
        n_ops=n_ops,
        seed=seed,
        vdd=vdd,
        target=target,
        engine=engine,
    )
    model = _leakage_model_cached(temp_c, vdd, target)
    if tech_run.recorder is not None and len(tech_run.recorder):
        # Derive the windowed leakage-energy series and stage the whole
        # recorder for the executing spec to collect (see repro.exec).
        # Only the technique run is published: the baseline is memoised,
        # so its recorder's presence would depend on cache state.
        from repro.power.telemetry import attach_leakage_series

        attach_leakage_series(
            tech_run.recorder,
            model=model,
            technique=technique,
            frequency_hz=PAPER_FREQUENCY_HZ,
        )
        _ts.publish(tech_run.recorder)
    return net_savings(
        benchmark=benchmark,
        technique=technique,
        decay_interval=decay_interval,
        l2_latency=l2_latency,
        temp_c=temp_c,
        model=model,
        frequency_hz=PAPER_FREQUENCY_HZ,
        baseline_cycles=base.cycles,
        baseline_dyn_j=base.dyn_energy_j,
        baseline_clock_j=base.clock_energy_j,
        technique_cycles=tech_run.stats.cycles,
        technique_accountant=tech_run.accountant,
        standby_stats=tech_run.standby,
        controlled_target=target,
    )


def clear_baseline_cache() -> None:
    """Drop only the memoised baseline summaries.

    The benchmark harness uses this between timed iterations: the baseline
    simulation re-runs (it is part of the figure-point cost being measured)
    while the analytic layers stay warm.
    """
    _baseline_cached.cache_clear()


def clear_caches() -> None:
    """Drop every memoised analytic result (for tests and benchmarks).

    Clears the baseline and leakage-model caches in this module, then
    resets every registered memo — the prepared run inputs here, DC
    solves, k_design tables and surface fits, residual fractions —
    through :func:`repro.memo.reset_all`.
    """
    from repro.memo import reset_all

    _baseline_cached.cache_clear()
    _leakage_model_cached.cache_clear()
    reset_all()
