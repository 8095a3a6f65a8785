"""Run reports: the fairness trajectory must match the engine's own
``sim.slot`` emissions bit-for-bit (ISSUE acceptance criterion), and
download reports must aggregate chunk results and surface trace drops.
"""

import json

import pytest

from repro.obs import TRACER, TraceBuffer, TraceEvent, observability, report
from repro.sim import Simulation
from repro.sim.peer import PeerConfig


def _sim(slots=40, tracing=False):
    configs = [
        PeerConfig(capacity=cap, demand=0.6, label=f"p{i}")
        for i, cap in enumerate((256.0, 512.0, 1024.0))
    ]
    sim = Simulation(configs, seed=13)
    if not tracing:
        return sim.run(slots), None
    with observability(tracing=True, reset=True):
        result = sim.run(slots)
        return result, TRACER.events()


class TestJainTrajectory:
    def test_matches_sim_slot_events_exactly(self):
        result, events = _sim(tracing=True)
        emitted = [
            e.fields["jain"] for e in events if e.name == "sim.slot"
        ]
        assert report.jain_trajectory(result) == emitted

    def test_idle_slots_count_as_fair(self):
        configs = [PeerConfig(capacity=100.0, demand=0.0, label="idle")]
        result = Simulation(configs, seed=1).run(5)
        assert report.jain_trajectory(result) == [1.0] * 5


class TestSimulationReport:
    def test_shape_and_fairness_summary(self):
        result, events = _sim(tracing=True)
        rep = report.simulation_report(result, events=events)
        assert rep["kind"] == "simulation"
        assert rep["slots"] == 40 and rep["peers"] == 3
        fair = rep["fairness"]
        assert fair["trajectory"][-1] == fair["final"]
        assert min(fair["trajectory"]) == fair["min"]
        assert fair["trajectory"][fair["min_slot"]] == fair["min"]
        assert rep["trace"]["sim_slots"] == 40
        assert len(rep["goodput"]["mean_rate_kbps"]) == 3

    def test_json_serialisable(self):
        result, _ = _sim()
        rep = report.simulation_report(result)
        assert json.loads(json.dumps(rep)) == rep
        assert rep["trace"] is None

    def test_render_mentions_fairness_and_goodput(self):
        result, _ = _sim()
        text = report.render_report(report.simulation_report(result))
        assert "simulation report" in text
        assert "Jain" in text and "goodput" in text
        for label in ("p0", "p1", "p2"):
            assert label in text


class _FakeReport:
    """Stand-in for DownloadReport with just the aggregated fields."""

    def __init__(self, complete=True, per_peer=(10.0, 20.0), failures=()):
        self.complete = complete
        self.slots = 4
        self.seconds = 2.0
        self.bytes_received = sum(per_peer)
        self.wasted_bytes = 1.0
        self.bytes_discarded = 0.5
        self.messages_delivered = 3
        self.messages_dependent = 1
        self.messages_rejected = 0
        self.per_peer_bytes = list(per_peer)
        self.failures = list(failures)


class TestDownloadReport:
    def test_aggregates_across_chunks(self):
        rep = report.download_report(
            [_FakeReport(), _FakeReport()], [[0, 1], [0, 1]]
        )
        assert rep["kind"] == "download"
        assert rep["chunks"] == 2
        assert rep["slots"] == 8
        assert rep["per_peer_bytes"] == [20.0, 40.0]
        assert rep["messages"]["delivered"] == 6
        assert rep["goodput_kbps"] == pytest.approx(60.0 * 8 / 1000 / 4.0)
        assert rep["critical_path"] is None and rep["time_in_state"] is None

    def test_requires_at_least_one_chunk(self):
        with pytest.raises(ValueError):
            report.download_report([], [])

    def test_render_flags_incomplete_runs(self):
        rep = report.download_report([_FakeReport(complete=False)], [[0, 1]])
        text = report.render_report(rep)
        assert "complete: NO" in text
        assert "failures: none" in text


class TestTraceSection:
    def _events(self, dropped):
        return [
            TraceEvent(
                name="trace.meta", wall=1.0, mono_ns=0,
                fields={"events": 1, "dropped": dropped, "capacity": 4},
            ),
            TraceEvent(name="sim.slot", wall=1.0, mono_ns=5,
                       fields={"t": 0, "jain": 1.0, "requesting": 0,
                               "allocated_kbps": 0.0}),
        ]

    def test_dropped_events_produce_warning(self):
        rep = report.download_report(
            [_FakeReport()], [[0, 1]], events=self._events(7)
        )
        assert rep["trace"]["dropped"] == 7
        assert "dropped 7" in rep["trace"]["warning"]
        assert "WARNING" in report.render_report(rep)

    def test_recorded_ring_carries_its_drops(self):
        ring = TraceBuffer(capacity=2)
        ring.enabled = True
        for t in range(5):
            ring.emit("sim.slot", t=t)
        section = report.trace_section(ring.recorded())
        assert section["events"] == 2 and section["dropped"] == 3
        assert "dropped 3" in section["warning"]

    def test_no_warning_without_drops(self):
        rep = report.download_report(
            [_FakeReport()], [[0, 1]], events=self._events(0)
        )
        assert "warning" not in rep["trace"]
        assert rep["trace"]["events"] == 1  # meta record not counted


def test_render_rejects_unknown_kind():
    with pytest.raises(ValueError, match="not a run report"):
        report.render_report({"kind": "mystery"})
