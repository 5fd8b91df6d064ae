"""Golden tests: every campaign view rendered from one recorded campaign.

``tests/fixtures/campaign`` holds the ``events.jsonl`` and
``timeseries.jsonl`` of a small campaign and, under ``golden/``, what
each view printed from those logs when they were recorded (see the
fixture's ``record.py``).  Every view is now a render of one
:class:`~repro.obs.state.CampaignState` fold, and must reproduce the
recorded bytes.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.obs import metrics
from repro.obs.events import read_events
from repro.obs.report import MAX_RUN_SECTIONS
from repro.obs.state import RUN_EVENTS
from repro.obs.timeseries import read_timeseries
from repro.obs.views import aggregate

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "campaign"
GOLDEN = FIXTURE / "golden"
EVENTS = FIXTURE / "events.jsonl"


def _recorder():
    spec = importlib.util.spec_from_file_location(
        "campaign_fixture_record", FIXTURE / "record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def views() -> dict[str, str]:
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return _recorder().render_views()
    finally:
        os.chdir(cwd)


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name", ["stats.txt", "stats.json", "trace.txt", "diff.txt", "report.html"]
)
def test_view_reproduces_golden(views, name):
    assert views[name] == _golden(name)


def test_watch_json_reproduces_golden(views):
    """Byte-equal except ``summary.slowest_runs``: the recorded watch
    never finalised its slowest-run heap and printed ``[]``; the one fold
    now prints the same summary ``stats --format json`` does."""
    got = json.loads(views["watch.json"])
    want = json.loads(_golden("watch.json"))
    assert want["summary"]["slowest_runs"] == []
    assert got["summary"] == json.loads(_golden("stats.json"))
    want["summary"]["slowest_runs"] = got["summary"]["slowest_runs"]
    assert views["watch.json"] == json.dumps(want, sort_keys=True) + "\n"


def test_metrics_snapshot_reproduces_golden(tmp_path):
    """Folding the log offline renders the snapshot the campaign wrote,
    minus the store-index gauges that are no longer part of it."""
    state = aggregate(read_events(EVENTS))
    prom, as_json = metrics.write_snapshot(state, tmp_path)
    want_prom = "".join(
        line
        for line in _golden("metrics.prom").splitlines(keepends=True)
        if "repro_store_" not in line
    )
    assert prom.read_text() == want_prom
    want_json = json.loads(_golden("metrics.json"))
    want_json["metrics"] = [
        m for m in want_json["metrics"]
        if not m["name"].startswith("repro_store_")
    ]
    assert as_json.read_text() == json.dumps(
        want_json, indent=1, sort_keys=True
    ) + "\n"


def test_fixture_covers_every_folded_event_kind():
    kinds = set()
    sources = set()
    for record in read_events(EVENTS):
        kinds.add(record["event"])
        if record["event"] == "cache_hit":
            sources.add(record["source"])
    assert set(RUN_EVENTS) <= kinds
    assert {
        "phase_started", "phase_finished", "batch_finished", "counters",
        "campaign_finished",
    } <= kinds
    assert {"store", "batch"} <= sources


def test_fixture_holds_more_runs_than_the_report_charts(views):
    runs = sum(1 for _ in read_timeseries(FIXTURE / "timeseries.jsonl"))
    assert runs > MAX_RUN_SECTIONS
    assert views["report.html"].count('<section class="run">') == (
        MAX_RUN_SECTIONS
    )
    assert f"{runs - MAX_RUN_SECTIONS} further run(s)" in views["report.html"]
