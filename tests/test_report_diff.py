"""Tests for ``repro report`` (HTML) and ``repro diff`` (cross-campaign).

Synthetic campaigns — an event log plus a timeseries log written through
the real writers — drive the report and diff layers deterministically;
one end-to-end case runs an actual two-config campaign through the
scheduler and asserts the acceptance criteria: a single self-contained
HTML file showing line-state fractions and windowed leakage energy.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.diff import diff_campaigns, load_snapshot, render_diff
from repro.obs.events import EventLog
from repro.obs.report import MAX_RUN_SECTIONS, build_report
from repro.obs.timeseries import (
    TIMESERIES_FILENAME,
    RunRecorder,
    Series,
    TimeseriesLog,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _spec(i: int) -> str:
    return f"{i:02d}" * 32


def _payload(*, live=0.8, leak=1e-6, misses=3.0) -> dict:
    rec = RunRecorder()
    frac = rec.series("cache.frac_live", kind="mean", base_window=1024)
    for _ in range(4):
        frac.append(live)
    drowsy = rec.series("cache.frac_drowsy", kind="mean", base_window=1024)
    for _ in range(4):
        drowsy.append(1.0 - live)
    induced = rec.series("cache.induced_misses", kind="sum", base_window=1024)
    induced.append(misses)
    ipc = rec.series("cpu.ipc", kind="mean", base_window=1024)
    for v in (0.9, 1.1):
        ipc.append(v)
    rec.add(Series.from_values("leak.total_j", [leak, leak], kind="sum", window=1024))
    rec.add(Series.from_values("leak.sub_j", [leak * 0.7] * 2, kind="sum", window=1024))
    rec.add(Series.from_values("leak.gate_j", [leak * 0.3] * 2, kind="sum", window=1024))
    rec.add(Series.from_values("leak.data_j", [leak * 0.9] * 2, kind="sum", window=1024))
    rec.add(Series.from_values("leak.edge_j", [leak * 0.1] * 2, kind="sum", window=1024))
    return rec.to_payload()


def _campaign(path, runs, *, wall=1.0, leak=1e-6, misses=3.0):
    """Write a synthetic campaign: ``runs`` finished specs in one phase."""
    path.mkdir(parents=True, exist_ok=True)
    log = EventLog(path / "events.jsonl")
    ts = TimeseriesLog(path / TIMESERIES_FILENAME)
    log.write("phase_started", "fig1", {"name": "fig1"})
    for i in range(runs):
        log.write("run_started", "fig1", {"spec": _spec(i), "slot": i})
        log.write(
            "run_finished",
            "fig1",
            {"spec": _spec(i), "slot": i, "wall_s": wall, "cpu_s": wall},
        )
        ts.write(_spec(i), "fig1", _payload(leak=leak, misses=misses))
    log.write("phase_finished", "fig1", {"name": "fig1", "wall_s": wall * runs})
    log.close()
    ts.close()
    return path


class TestReport:
    def test_synthetic_campaign_renders_self_contained_html(self, tmp_path):
        camp = _campaign(tmp_path / "camp", runs=2)
        html = build_report(camp)
        assert html.startswith("<!DOCTYPE html>")
        # Self-contained: styling inline, charts inline SVG, no external
        # fetches of any kind.
        assert "<style>" in html and "<svg" in html
        for token in ("http://", "https://", "<script", "<img", "@import"):
            assert token not in html
        # The acceptance content: line state + windowed leakage energy.
        assert "Line state" in html
        assert "Leakage energy by structure" in html
        assert "Leakage energy by mechanism" in html
        assert "IPC" in html
        # Both runs, identified by their spec hashes.
        assert _spec(0)[:12] in html
        assert _spec(1)[:12] in html
        # Phase table and stat tiles.
        assert "fig1" in html
        assert "runs executed" in html
        # Dark mode ships in the same file.
        assert "prefers-color-scheme: dark" in html

    def test_missing_timeseries_degrades_gracefully(self, tmp_path):
        camp = _campaign(tmp_path / "camp", runs=1)
        (camp / TIMESERIES_FILENAME).unlink()
        html = build_report(camp)
        assert "No timeseries telemetry" in html
        assert "<svg" not in html  # nothing to chart, no broken charts

    def test_missing_events_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no event log"):
            build_report(tmp_path / "nowhere")

    def test_torn_final_timeseries_line_is_not_charted(self, tmp_path):
        camp = _campaign(tmp_path / "camp", runs=1)
        whole = build_report(camp)
        with (camp / TIMESERIES_FILENAME).open("a") as fh:
            fh.write('{"spec": "%s", "phase": "fig1", "series": []}' % _spec(9))
        assert build_report(camp) == whole

    def test_run_sections_are_capped(self, tmp_path):
        camp = _campaign(tmp_path / "camp", runs=MAX_RUN_SECTIONS + 3)
        html = build_report(camp)
        assert f"3 further run(s)" in html
        assert html.count('<section class="run"') == MAX_RUN_SECTIONS

    def test_acceptance_fresh_two_config_reproduce(self, tmp_path):
        """Acceptance: a fresh two-config campaign through the scheduler
        reports line-state fractions and windowed leakage per run."""
        from repro.exec.scheduler import Scheduler
        from repro.exec.spec import RunSpec
        from repro.experiments.runner import clear_caches

        out = tmp_path / "res"
        out.mkdir()
        clear_caches()
        obs.enable(out / "events.jsonl")
        with obs.phase("smoke"):
            Scheduler().run(
                [
                    RunSpec(benchmark="gcc", technique="drowsy", n_ops=1500),
                    RunSpec(benchmark="gcc", technique="gated-vss", n_ops=1500),
                ]
            )
        obs.disable()
        html = build_report(out)
        assert html.count('<section class="run"') == 2
        assert "Line state" in html
        assert "Leakage energy by structure" in html
        assert "drowsy" in html or "live" in html  # legend labels present


class TestDiff:
    def test_load_snapshot_joins_events_and_timeseries(self, tmp_path):
        camp = _campaign(tmp_path / "a", runs=2, wall=1.5, leak=2e-6)
        snap = load_snapshot(camp)
        assert snap.phase_wall_s["fig1"] == 3.0
        rec = snap.specs[_spec(0)]
        assert rec.wall_s == 1.5
        assert rec.leak_j == pytest.approx(4e-6)
        assert rec.induced_misses == pytest.approx(3.0)

    def test_identical_campaigns_have_no_regressions(self, tmp_path):
        a = _campaign(tmp_path / "a", runs=2)
        b = _campaign(tmp_path / "b", runs=2)
        diff = diff_campaigns(a, b)
        assert len(diff.matched) == 2
        assert not diff.only_a and not diff.only_b
        assert not diff.has_regressions(0.10)
        out = render_diff(diff)
        assert "REGRESSED" not in out
        assert "0 regressed spec(s)" in out

    def test_leak_regression_is_flagged(self, tmp_path):
        a = _campaign(tmp_path / "a", runs=2, leak=1e-6)
        b = _campaign(tmp_path / "b", runs=2, leak=2e-6)
        diff = diff_campaigns(a, b)
        assert diff.has_regressions(0.10)
        assert not diff.has_regressions(1.5)  # +100% < +150% threshold
        out = render_diff(diff, threshold=0.10)
        assert "REGRESSED" in out
        assert "2 regressed spec(s)" in out

    def test_wall_regression_is_flagged(self, tmp_path):
        a = _campaign(tmp_path / "a", runs=1, wall=1.0)
        b = _campaign(tmp_path / "b", runs=1, wall=1.3)
        diff = diff_campaigns(a, b)
        assert diff.has_regressions(0.10)
        assert "+30.0%" in render_diff(diff)

    def test_unmatched_specs_are_reported_not_compared(self, tmp_path):
        a = _campaign(tmp_path / "a", runs=3)
        b = _campaign(tmp_path / "b", runs=2)
        diff = diff_campaigns(a, b)
        assert len(diff.matched) == 2
        assert diff.only_a == [_spec(2)]
        assert diff.only_b == []
        assert "only in A: 1" in render_diff(diff)

    def test_diff_without_timeseries_compares_wall_only(self, tmp_path):
        a = _campaign(tmp_path / "a", runs=1)
        b = _campaign(tmp_path / "b", runs=1)
        (a / TIMESERIES_FILENAME).unlink()
        (b / TIMESERIES_FILENAME).unlink()
        diff = diff_campaigns(a, b)
        assert len(diff.matched) == 1
        assert diff.matched[0].leak_frac is None
        assert not diff.has_regressions(0.10)
        render_diff(diff)  # must not raise


class TestCli:
    def test_report_and_diff_subcommands(self, tmp_path, capsys):
        from repro.cli import main

        a = _campaign(tmp_path / "a", runs=1)
        b = _campaign(tmp_path / "b", runs=1, wall=2.0)
        assert main(["report", str(a)]) == 0
        assert (a / "report.html").is_file()
        out = tmp_path / "elsewhere.html"
        assert main(["report", str(a), "--output", str(out)]) == 0
        assert out.is_file()
        assert main(["diff", str(a), str(b)]) == 0
        assert (
            main(["diff", str(a), str(b), "--fail-on-regression"]) == 1
        )
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["report", str(tmp_path / "nowhere")]) == 2
