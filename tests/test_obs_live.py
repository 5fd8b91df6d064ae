"""Tests for the live-monitoring stack: state fold, watch, live page.

All timing-sensitive assertions pass explicit ``ts``/``now`` values so
nothing here depends on the wall clock; writer-pid liveness is stubbed
where a test needs a "dead" coordinator.
"""

from __future__ import annotations

import json

import pytest

import repro.obs.state as state_mod
from repro.cli import main
from repro.obs.live import (
    LIVE_REPORT_FILENAME,
    LiveReporter,
    build_live_page,
)
from repro.obs.report import RunSample
from repro.obs.state import CampaignMonitor, CampaignState
from repro.obs.watch import render_watch, watch_campaign

T0 = 1_754_500_000.0


def _ev(kind: str, ts: float, **fields) -> dict:
    record = {"event": kind, "ts": ts, "pid": 4711, "phase": "fig03"}
    record.update(fields)
    return record


def _feed(state: CampaignState, records) -> None:
    for record in records:
        state.apply(record)


def _finished_stream() -> list[dict]:
    return [
        _ev("log_opened", T0, phase=""),
        _ev("phase_started", T0 + 0.1),
        _ev("run_started", T0 + 1, spec="aaa", slot=0),
        _ev("run_finished", T0 + 3, spec="aaa", slot=0, wall_s=2.0),
        _ev("run_started", T0 + 3, spec="bbb", slot=0),
        _ev("run_finished", T0 + 5, spec="bbb", slot=0, wall_s=2.0),
        _ev("phase_finished", T0 + 5.1, wall_s=5.0),
        _ev("batch_finished", T0 + 5.2, jobs=2, cache_hits=0, executed=2),
        _ev(
            "campaign_finished",
            T0 + 5.3,
            phase="",
            status="ok",
            runs_executed=2,
            cache_hits=0,
            wall_s=5.3,
        ),
    ]


class TestCampaignState:
    def test_progress_and_in_flight(self):
        s = CampaignState()
        _feed(
            s,
            [
                _ev("log_opened", T0, phase=""),
                _ev("run_started", T0 + 1, spec="aaa", slot=0),
                _ev("run_started", T0 + 1, spec="bbb", slot=1),
                _ev("run_finished", T0 + 3, spec="aaa", slot=0, wall_s=2.0),
                _ev("cache_hit", T0 + 3, spec="ccc", source="store"),
            ],
        )
        assert s.status(T0 + 4) == "running"
        assert s.current_phase == "fig03"
        assert list(s.in_flight) == [("bbb", 1)]
        assert s.total("runs_finished") == 1
        assert s.total("cache_hits") == 1
        assert s.ewma_wall_s == 2.0

    def test_ewma_and_eta(self):
        s = CampaignState()
        _feed(
            s,
            [
                _ev("run_started", T0, spec="a", slot=0),
                _ev("run_finished", T0 + 2, spec="a", slot=0, wall_s=2.0),
                _ev("run_started", T0 + 2, spec="b", slot=0),
                _ev("run_finished", T0 + 4, spec="b", slot=0, wall_s=4.0),
                _ev("run_started", T0 + 4, spec="c", slot=0),
            ],
        )
        # alpha=0.25: 0.25*4 + 0.75*2 = 2.5
        assert s.ewma_wall_s == pytest.approx(2.5)
        # one inter-finish gap of 2s -> 0.5 runs/s; one run outstanding
        assert s.throughput() == pytest.approx(0.5)
        assert s.eta_s() == pytest.approx(2.0)

    def test_eta_falls_back_to_wall_before_two_finishes(self):
        s = CampaignState()
        _feed(
            s,
            [
                _ev("run_started", T0, spec="a", slot=0),
                _ev("run_finished", T0 + 3, spec="a", slot=0, wall_s=3.0),
                _ev("run_started", T0 + 3, spec="b", slot=0),
                _ev("run_started", T0 + 3, spec="c", slot=1),
            ],
        )
        assert s.throughput() is None
        assert s.eta_s() == pytest.approx(6.0)

    def test_straggler_anomaly(self):
        s = CampaignState()
        _feed(
            s,
            [
                _ev("run_started", T0, spec="fast", slot=0),
                _ev("run_finished", T0 + 1, spec="fast", slot=0, wall_s=1.0),
                _ev("run_started", T0 + 1, spec="slowpoke", slot=0),
            ],
        )
        # EWMA wall 1s -> straggler floor is max(10, 4*1) = 10s
        assert s.stragglers(T0 + 6) == []
        flagged = s.stragglers(T0 + 30)
        assert [r["spec"] for r in flagged] == ["slowpoke"]
        kinds = [a.kind for a in s.anomalies(T0 + 30)]
        assert "straggler" in kinds

    def test_error_rate_anomaly(self):
        s = CampaignState()
        records = []
        for i in range(6):
            records.append(_ev("run_started", T0 + i, spec=f"ok{i}", slot=0))
            records.append(
                _ev("run_finished", T0 + i + 0.5, spec=f"ok{i}", slot=0, wall_s=0.5)
            )
        for i in range(3):
            records.append(_ev("run_started", T0 + 10 + i, spec=f"bad{i}", slot=0))
            records.append(
                _ev("run_failed", T0 + 10.5 + i, spec=f"bad{i}", slot=0, error="boom")
            )
        _feed(s, records)
        # 3 failures / 9 settled = 33% > 20%, >= 3 failures
        kinds = [a.kind for a in s.anomalies(T0 + 14)]
        assert "errors" in kinds

    def test_stall_needs_dead_pid(self, monkeypatch):
        s = CampaignState()
        _feed(s, [_ev("run_started", T0, spec="a", slot=0)])
        later = T0 + state_mod.STALL_AFTER_S + 5

        monkeypatch.setattr(state_mod, "pid_alive", lambda pid: True)
        assert s.status(later) == "running"

        monkeypatch.setattr(state_mod, "pid_alive", lambda pid: False)
        assert s.status(later) == "stalled"
        kinds = [a.kind for a in s.anomalies(later)]
        assert "stall" in kinds

    def test_campaign_finished_is_terminal(self, monkeypatch):
        s = CampaignState()
        _feed(s, _finished_stream())
        assert s.status(T0 + 10) == "done"
        assert s.in_flight == {}
        assert s.eta_s() is None
        # A dead pid long after the fact is NOT a stall once finished.
        monkeypatch.setattr(state_mod, "pid_alive", lambda pid: False)
        assert s.status(T0 + 10_000) == "done"

    def test_failed_campaign_status(self):
        s = CampaignState()
        _feed(
            s,
            [
                _ev("run_started", T0, spec="a", slot=0),
                _ev("run_failed", T0 + 1, spec="a", slot=0, error="boom"),
                _ev("campaign_finished", T0 + 2, phase="", status="failed"),
            ],
        )
        assert s.status(T0 + 3) == "failed"

    def test_to_dict_snapshot(self):
        s = CampaignState()
        _feed(s, _finished_stream())
        payload = json.loads(json.dumps(s.to_dict(T0 + 6), sort_keys=True))
        assert payload["schema"] == state_mod.STATE_SCHEMA_VERSION
        assert payload["status"] == "done"
        assert payload["batches"] == 1
        assert payload["in_flight"] == []
        assert payload["finished"]["status"] == "ok"
        assert payload["summary"]["runs_finished"] == 2
        [phase] = [
            p for p in payload["summary"]["phases"] if p["name"] == "fig03"
        ]
        assert phase["runs_finished"] == 2


def _write_log(path, records) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


class TestCampaignMonitor:
    def test_refresh_folds_and_resumes(self, tmp_path):
        events = tmp_path / "events.jsonl"
        stream = _finished_stream()
        _write_log(events, stream[:4])
        monitor = CampaignMonitor(tmp_path)
        state = monitor.refresh()
        assert state.total("runs_finished") == 1
        with events.open("a", encoding="utf-8") as fh:
            for record in stream[4:]:
                fh.write(json.dumps(record) + "\n")
        state = monitor.refresh()
        assert state is monitor.state
        assert state.status(T0 + 10) == "done"

    def test_rotation_resets_state(self, tmp_path):
        events = tmp_path / "events.jsonl"
        _write_log(events, _finished_stream())
        monitor = CampaignMonitor(tmp_path)
        assert monitor.refresh().total("runs_finished") == 2
        # A re-run rotates the old log aside and opens a fresh one.
        events.replace(tmp_path / "events.jsonl.1")
        _write_log(
            events,
            [
                _ev("log_opened", T0 + 100, phase=""),
                _ev("run_started", T0 + 101, spec="new", slot=0),
            ],
        )
        state = monitor.refresh()
        assert state.total("runs_finished") == 0
        assert list(state.in_flight) == [("new", 0)]
        assert state.status(T0 + 102) == "running"


class TestWatch:
    def test_render_watch_frame(self):
        s = CampaignState()
        _feed(s, _finished_stream()[:-1])  # still running
        frame = render_watch(s, campaign="demo", now=T0 + 6)
        assert "RUNNING" in frame
        assert "demo" in frame
        assert "fig03" in frame
        assert "█" in frame
        assert "2/2" in frame

    def test_render_watch_finished(self):
        s = CampaignState()
        _feed(s, _finished_stream())
        frame = render_watch(s, now=T0 + 6)
        assert "DONE" in frame
        assert "finished: status ok" in frame

    def test_watch_once_json_cli(self, tmp_path, capsys):
        _write_log(tmp_path / "events.jsonl", _finished_stream())
        rc = main(["watch", str(tmp_path), "--once", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "done"
        assert payload["summary"]["runs_finished"] == 2

    def test_watch_once_missing_log_exits_2(self, tmp_path, capsys):
        rc = main(["watch", str(tmp_path), "--once"])
        assert rc == 2
        assert "no event log" in capsys.readouterr().err

    def test_watch_once_reads_a_rotated_log(self, tmp_path, capsys):
        rotated = tmp_path / "events.jsonl.1"
        _write_log(rotated, _finished_stream())
        rc = main(["watch", str(rotated), "--once", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["runs_finished"] == 2

    def test_monitor_resolves_paths_like_the_post_hoc_views(self, tmp_path):
        rotated = tmp_path / "events.jsonl.1"
        _write_log(rotated, _finished_stream())
        assert CampaignMonitor(rotated).events_path == rotated
        # A directory maps to its events.jsonl even before the campaign
        # creates it, so the interactive loop can wait for the start.
        assert CampaignMonitor(tmp_path).events_path == (
            tmp_path / "events.jsonl"
        )
        later = tmp_path / "not-started-yet"
        assert CampaignMonitor(later).events_path == later / "events.jsonl"

    def test_watch_loop_stops_on_finished(self, tmp_path):
        events = tmp_path / "events.jsonl"
        stream = _finished_stream()
        _write_log(events, stream[:4])

        def fake_sleep(_interval):
            # The writer finishes the campaign between two frames.
            with events.open("a", encoding="utf-8") as fh:
                for record in stream[4:]:
                    fh.write(json.dumps(record) + "\n")

        import io

        out = io.StringIO()
        rc = watch_campaign(
            str(tmp_path),
            interval=0.01,
            stream=out,
            clock=lambda: T0 + 6,
            sleep=fake_sleep,
            max_frames=10,
        )
        assert rc == 0
        assert "DONE" in out.getvalue()


def _sample(*records) -> RunSample:
    sample = RunSample()
    sample.add(records)
    return sample


def _ts_record(spec: str, n: int = 5) -> dict:
    return {
        "spec": spec,
        "phase": "fig03",
        "series": [
            {"name": "leak.total_j", "values": [float(i) for i in range(n)]},
            {"name": "cpu.ipc", "values": [1.0, 1.2], "tail": 1.4},
        ],
    }


class TestLivePage:
    def test_running_page_has_refresh_and_progress(self):
        s = CampaignState()
        _feed(s, _finished_stream()[:-1])
        page = build_live_page(
            s,
            campaign="demo",
            runs=_sample(_ts_record("aaa")),
            refresh_s=2.0,
            now=T0 + 6,
        )
        assert "http-equiv='refresh'" in page
        assert "fig03" in page
        assert "<svg" in page  # the run section's charts
        assert "1.4" in page  # cpu.ipc tail value

    def test_finished_page_is_static(self):
        s = CampaignState()
        _feed(s, _finished_stream())
        page = build_live_page(s, refresh_s=2.0, now=T0 + 6)
        assert "http-equiv" not in page
        assert "campaign finished: status ok" in page

    def test_anomalies_rendered(self, monkeypatch):
        s = CampaignState()
        _feed(s, [_ev("run_started", T0, spec="a", slot=0)])
        monkeypatch.setattr(state_mod, "pid_alive", lambda pid: False)
        page = build_live_page(
            s, refresh_s=2.0, now=T0 + state_mod.STALL_AFTER_S + 5
        )
        assert "Anomalies" in page
        assert "stall" in page

    def test_live_reporter_atomic_rewrites(self, tmp_path):
        events = tmp_path / "events.jsonl"
        stream = _finished_stream()
        _write_log(events, stream[:4])
        _write_log(tmp_path / "timeseries.jsonl", [_ts_record("aaa")])

        reporter = LiveReporter(tmp_path)
        path = reporter.refresh()
        assert path == tmp_path / LIVE_REPORT_FILENAME
        first = path.read_text()
        assert "http-equiv='refresh'" in first
        assert "<svg" in first

        with events.open("a", encoding="utf-8") as fh:
            for record in stream[4:]:
                fh.write(json.dumps(record) + "\n")
        reporter.refresh()
        second = path.read_text()
        assert "http-equiv" not in second
        assert "campaign finished" in second
        litter = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert litter == []

    def test_report_live_once_cli(self, tmp_path, capsys):
        _write_log(tmp_path / "events.jsonl", _finished_stream())
        rc = main(["report", str(tmp_path), "--live", "--once"])
        assert rc == 0
        assert LIVE_REPORT_FILENAME in capsys.readouterr().out
        assert (tmp_path / LIVE_REPORT_FILENAME).exists()

    def test_report_live_once_reads_a_rotated_log(self, tmp_path, capsys):
        _write_log(tmp_path / "events.jsonl.1", _finished_stream())
        rc = main(
            ["report", str(tmp_path / "events.jsonl.1"), "--live", "--once"]
        )
        assert rc == 0
        page = (tmp_path / LIVE_REPORT_FILENAME).read_text()
        assert "campaign finished: status ok" in page

    def test_report_once_without_live_rejected(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path), "--once"])
        assert rc == 2
