"""Streaming metrics: ``history="none"`` reports match full history.

PR 9's second deliverable: an O(n) streaming accumulator (running Jain
trajectory, per-peer goodput sums, final-window rates, gain over
isolation) updated as the engine steps, so reduced-history runs feed
:func:`repro.obs.report.simulation_report` with *bit-for-bit* the same
numbers a full per-slot history produces.  The equality asserted here
is on the serialized report JSON — every engine, shard count and
feedback interval must agree to the last bit.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.report import jain_trajectory, simulation_report
from repro.sim import (
    AlwaysOn,
    BernoulliDemand,
    NeverRequests,
    PeerConfig,
    ScheduleDemand,
    Simulation,
    StepCapacity,
    StreamingMetrics,
)
from repro.sim.metrics import _PEER_SUMS
from repro.sim.shard import ClassFold


def _configs():
    return [
        PeerConfig(capacity=800.0, demand=BernoulliDemand(0.7), label="heavy"),
        PeerConfig(capacity=StepCapacity([(0, 200.0), (10, 900.0)]),
                   demand=ScheduleDemand([(5, 30)])),
        PeerConfig(capacity=300.0, demand=AlwaysOn(), forgetting=0.9),
        PeerConfig(capacity=0.0, demand=AlwaysOn()),
        PeerConfig(capacity=600.0, demand=NeverRequests(), label="giver"),
    ]


def _report_json(engine, history, slots=40, workers=None, feedback=1):
    kwargs = {"workers": workers} if workers is not None else {}
    sim = Simulation(
        _configs(), seed=9, engine=engine, feedback_interval=feedback, **kwargs
    )
    with sim:
        result = sim.run(slots, history=history)
    return json.dumps(simulation_report(result), sort_keys=True)


@pytest.mark.parametrize("feedback", [1, 3])
@pytest.mark.parametrize("engine", ["reference", "batched", "sparse"])
def test_report_full_vs_none_bit_identical(engine, feedback):
    assert _report_json(engine, "full", feedback=feedback) == _report_json(
        engine, "none", feedback=feedback
    )


@pytest.mark.parametrize("workers", [1, 3])
def test_report_full_vs_none_bit_identical_procs(workers):
    assert _report_json("procs", "full", workers=workers) == _report_json(
        "procs", "none", workers=workers
    )


def test_report_none_procs_matches_reference_full():
    """The whole chain at once: sharded streaming vs the dense oracle."""
    assert _report_json("reference", "full") == _report_json(
        "procs", "none", workers=2
    )


def test_jain_trajectory_matches_trace_events():
    """The streamed per-slot Jain values are the ``sim.slot`` values."""
    with obs.observability(tracing=True, reset=True):
        with Simulation(_configs(), seed=9, engine="procs", workers=2) as sim:
            result = sim.run(30, history="none")
        slots = [
            e for e in obs.TRACER.events() if e.name == "sim.slot"
        ]
    streamed = jain_trajectory(result)
    assert len(slots) == 30
    assert [e.fields["jain"] for e in slots] == streamed


def test_window_and_gains_bitwise():
    full = Simulation(_configs(), seed=9, engine="sparse").run(40)
    with Simulation(_configs(), seed=9, engine="procs", workers=3) as sim:
        none = sim.run(40, history="none")
    window = max(1, 40 // 10)
    assert (
        none.window_mean_rates(40 - window, 40).tobytes()
        == full.window_mean_rates(40 - window, 40).tobytes()
    )
    assert (
        none.gains_over_isolation().tobytes()
        == full.gains_over_isolation().tobytes()
    )
    # Off-window queries still need per-slot history.
    with pytest.raises(ValueError, match="reduced history"):
        none.window_mean_rates(0, 5)


def test_labels_survive_reduced_history():
    with Simulation(_configs(), seed=9, engine="procs", workers=2) as sim:
        none = sim.run(10, history="none")
    assert none.label_of(0) == "heavy"
    assert none.label_of(4) == "giver"
    assert none.label_of(1) == "peer 1"


def test_streaming_accumulator_unit():
    """update_dense and the shard kernel's ClassFold are the same fold
    over a known run, with peers sharing sampling classes."""
    rng = np.random.default_rng(0)
    n, classes, slots = 6, 4, 17
    class_of = np.array([0, 2, 1, 2, 3, 2], dtype=np.intp)
    req_c = rng.random(size=(slots, classes)) < 0.6
    caps_c = rng.uniform(0.0, 50.0, size=(slots, classes))
    req, caps = req_c[:, class_of], caps_c[:, class_of]
    rates = rng.uniform(0.0, 100.0, size=(slots, n))
    rates[~req] = 0.0

    dense = StreamingMetrics(n, slots)
    fold = ClassFold(class_of, classes, slots)
    for s in range(slots):
        dense.update_dense(s, rates[s], req[s], caps[s])
        R = np.flatnonzero(req[s]).astype(np.int64)
        fold.fold(s, R, rates[s][R], req_c[s], caps_c[s])
    a, b = dense.summary(), fold.expand().summary()
    assert set(a) == set(b)
    for key in _PEER_SUMS:
        assert a[key].tobytes() == b[key].tobytes(), key
    assert a["rate_sum"].tobytes() == rates.sum(axis=0).tobytes()
    assert a["request_count"].tolist() == req.sum(axis=0).tolist()
