"""Tests for the metrics snapshots (``repro.obs.metrics``).

The contract: ``metrics.prom`` / ``metrics.json`` are renders of one
:class:`~repro.obs.state.CampaignState` fold — labelled counter, gauge
and histogram families in the Prometheus text exposition format and
JSON, written by atomic file replacement.  Live, the snapshot renders
the fold of the attached event log; offline, folding that log renders
the same files.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import metrics as m
from repro.obs.events import read_events
from repro.obs.state import CampaignState
from repro.obs.views import aggregate


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def _fold(*records) -> CampaignState:
    state = CampaignState()
    for record in records:
        state.apply(record)
    return state


def _ev(kind: str, **fields) -> dict:
    return {"event": kind, "phase": "fig03", **fields}


def _batch(jobs=1, cache_hits=0, executed=1, wall_s=0.5) -> dict:
    return _ev(
        "batch_finished", jobs=jobs, cache_hits=cache_hits,
        executed=executed, wall_s=wall_s,
    )


def _sample(state: CampaignState, name: str, **labels) -> float | None:
    for family, _kind, _help, samples in m.families(state):
        if family == name:
            for got, value in samples:
                if got == labels:
                    return value
    return None


class TestCounter:
    def test_unlabelled_counts(self):
        state = _fold(_batch(), _batch())
        assert _sample(state, "repro_batches_total") == 2.0
        assert "repro_batches_total 2\n" in m.render_prometheus(state)

    def test_labelled_series_are_independent(self):
        state = _fold(
            _ev("cache_hit", spec="a", source="store"),
            _ev("cache_hit", spec="b", source="batch"),
            _ev("cache_hit", spec="c", source="batch"),
            _ev("cache_hit", spec="d", source="batch"),
        )
        assert _sample(state, "repro_cache_hits_total", source="store") == 1
        assert _sample(state, "repro_cache_hits_total", source="batch") == 3

    def test_negative_increment_rejected(self):
        """Counters only go up: a negative worker CPU reading adds 0."""
        state = _fold(
            _ev("run_finished", spec="a", wall_s=0.1, cpu_s=0.5),
            _ev("run_finished", spec="b", wall_s=0.1, cpu_s=-3.0),
        )
        assert _sample(state, "repro_worker_cpu_seconds_total") == 0.5


class TestGauge:
    def test_set_inc_dec(self):
        state = _fold(
            _ev("run_started", spec="a", slot=0),
            _ev("run_started", spec="b", slot=1),
            _ev("run_started", spec="c", slot=2),
            _ev("run_finished", spec="a", slot=0, wall_s=0.1),
            _ev("run_timeout", spec="b", slot=1),
        )
        assert _sample(state, "repro_runs_in_flight") == 1.0

    def test_set_max_keeps_peak(self):
        state = _fold(
            _ev("run_finished", spec="a", wall_s=0.1, max_rss_kb=100.0),
            _ev("run_finished", spec="b", wall_s=0.1, max_rss_kb=40.0),
        )
        assert _sample(state, "repro_worker_rss_peak_kb") == 100.0
        assert _sample(state, "repro_worker_rss_kb") == 40.0


class TestHistogram:
    def test_observe_buckets_cumulative(self):
        state = _fold(
            *(
                _ev("run_finished", spec=str(i), wall_s=wall)
                for i, wall in enumerate((0.05, 0.5, 5.0, 50.0, 500.0))
            )
        )
        text = m.render_prometheus(state)
        assert 'repro_run_wall_seconds_bucket{le="0.05"} 1' in text
        assert 'repro_run_wall_seconds_bucket{le="1"} 2' in text
        assert 'repro_run_wall_seconds_bucket{le="10"} 3' in text
        assert 'repro_run_wall_seconds_bucket{le="60"} 4' in text
        assert 'repro_run_wall_seconds_bucket{le="+Inf"} 5' in text
        assert "repro_run_wall_seconds_count 5" in text
        assert "repro_run_wall_seconds_sum 555.55" in text


class TestRegistry:
    def test_prometheus_rendering_and_escaping(self):
        state = _fold(_ev("cache_hit", spec="a", source='va"l\\ue\n'))
        text = m.render_prometheus(state)
        assert "# HELP repro_cache_hits_total" in text
        assert "# TYPE repro_cache_hits_total counter" in text
        assert 'source="va\\"l\\\\ue\\n"' in text

    def test_to_dict_roundtrips_through_json(self):
        state = _fold(_batch(), _batch())
        payload = json.loads(json.dumps(m.to_dict(state)))
        assert payload["schema"] == m.METRICS_SCHEMA_VERSION
        [metric] = [
            e for e in payload["metrics"] if e["name"] == "repro_batches_total"
        ]
        assert metric["type"] == "counter"
        assert metric["samples"][0]["value"] == 2

    def test_write_snapshot_creates_both_files(self, tmp_path):
        prom, as_json = m.write_snapshot(_fold(_batch()), tmp_path)
        assert prom.name == m.METRICS_PROM_FILENAME
        assert "repro_batches_total 1" in prom.read_text()
        payload = json.loads(as_json.read_text())
        assert payload["schema"] == m.METRICS_SCHEMA_VERSION

    def test_snapshot_leaves_no_temp_litter(self, tmp_path):
        state = _fold(_batch())
        m.write_snapshot(state, tmp_path)
        m.write_snapshot(state, tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestFeedHelpers:
    """The live fold of the attached log, as the scheduler feeds it."""

    def test_run_lifecycle_tracks_in_flight(self, tmp_path):
        obs.enable(tmp_path / "events.jsonl")
        obs.emit("run_started", spec="a", slot=0)
        obs.emit("run_started", spec="b", slot=1)
        live = obs.campaign_state()
        assert _sample(live, "repro_runs_in_flight") == 2
        obs.emit("run_finished", spec="a", slot=0, wall_s=0.5, cpu_s=0.4)
        assert _sample(live, "repro_runs_in_flight") == 1
        assert _sample(live, "repro_runs_total", outcome="finished") == 1
        obs.emit("run_failed", spec="b", slot=1, error="boom")
        assert _sample(live, "repro_runs_in_flight") == 0
        assert _sample(live, "repro_runs_total", outcome="failed") == 1

    def test_rss_peak_is_monotonic(self, tmp_path):
        obs.enable(tmp_path / "events.jsonl")
        obs.emit("run_finished", spec="a", wall_s=0.1, max_rss_kb=2048.0)
        obs.emit("run_finished", spec="b", wall_s=0.1, max_rss_kb=512.0)
        live = obs.campaign_state()
        assert _sample(live, "repro_worker_rss_peak_kb") == 2048.0
        assert _sample(live, "repro_worker_rss_kb") == 512.0

    def test_cache_hit_sources(self, tmp_path):
        obs.enable(tmp_path / "events.jsonl")
        for source in ("store", "batch", "single-flight", "store"):
            obs.emit("cache_hit", spec="a", source=source)
        live = obs.campaign_state()
        assert _sample(live, "repro_cache_hits_total", source="store") == 2
        assert (
            _sample(live, "repro_cache_hits_total", source="single-flight")
            == 1
        )

    def test_batch_finished_dispositions(self, tmp_path):
        obs.enable(tmp_path / "events.jsonl")
        obs.emit(
            "batch_finished", jobs=10, cache_hits=6, executed=4, wall_s=1.5
        )
        live = obs.campaign_state()
        jobs = "repro_batch_jobs_total"
        assert _sample(live, jobs, disposition="submitted") == 10
        assert _sample(live, jobs, disposition="cached") == 6
        assert _sample(live, jobs, disposition="executed") == 4
        assert _sample(live, "repro_batches_total") == 1

    def test_live_snapshot_equals_offline_fold(self, tmp_path):
        log = tmp_path / "events.jsonl"
        obs.enable(log)
        obs.emit("run_started", spec="a", slot=0)
        obs.emit("run_finished", spec="a", slot=0, wall_s=0.3, cpu_s=0.2,
                 max_rss_kb=900.0)
        obs.emit("cache_hit", spec="a", slot=1, source="batch")
        obs.emit("batch_finished", jobs=2, cache_hits=1, executed=1,
                 wall_s=0.4)
        m.write_registry_snapshot(tmp_path / "live")
        obs.disable()
        m.write_snapshot(aggregate(read_events(log)), tmp_path / "offline")
        for name in (m.METRICS_PROM_FILENAME, m.METRICS_JSON_FILENAME):
            assert (tmp_path / "live" / name).read_text() == (
                tmp_path / "offline" / name
            ).read_text()

    def test_write_registry_snapshot_swallows_bad_directory(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("not a directory")
        # Must not raise even though mkdir/replace will fail.
        m.write_registry_snapshot(target)

    def test_reset_registry_drops_everything(self, tmp_path):
        obs.enable(tmp_path / "events.jsonl")
        obs.emit("run_started", spec="a", slot=0)
        m.reset_registry()
        assert m.families(obs.campaign_state()) == []
