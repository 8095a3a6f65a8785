"""State the native kernels hold bound across calls stays valid.

Long-lived arrays cross into C once (a :class:`repro.native.Bound`
value, or a sparse store's bound row records), so a buffer reallocated
without being bound anew, or one store's records standing in for
another's, would leave a kernel reading or writing through a stale
pointer; the sparse engine's grant storage, reallocated as it grows,
crosses per call.  Each case runs one scenario on the compiled kernels and on
the numpy fallback, slot by slot, and demands the same bits.
"""

import numpy as np
import pytest

from repro.sim import PeerConfig, ScheduleDemand, Simulation, StepCapacity, fastpath

pytestmark = pytest.mark.skipif(
    fastpath.load() is None, reason="no C compiler / native kernels unavailable"
)

SLOTS = 40


def growing_configs():
    """Givers join and requesters switch on in three waves, ten slots
    apart, so the slot's active block ``M`` grows twice mid-run."""
    return [
        PeerConfig(
            capacity=StepCapacity([(10 * (i % 3), 200.0 + 37 * i)]),
            demand=ScheduleDemand([(10 * (i % 3), SLOTS)]),
            forgetting=0.9 if i % 4 == 0 else 1.0,
        )
        for i in range(24)
    ]


def run(engine, feedback_interval, native):
    """Every slot's allocation, the final ledgers and the simulation."""
    with pytest.MonkeyPatch.context() as patch:
        if not native:
            patch.setattr(fastpath, "load", lambda: None)
        sim = Simulation(
            growing_configs(), seed=5, engine=engine, feedback_interval=feedback_interval
        )
        assert sim.backend.endswith("+native") == native
        seen, slots = [], []
        for _ in range(SLOTS):
            slots.append(sim.step()[0].tobytes())
            if sim._shards is not None:
                seen.append(sim._shards.kernel._m_store)
    return slots, sim.credit_matrix().tobytes(), sim, seen


@pytest.mark.parametrize("feedback_interval", [1, 3])
def test_sparse_grant_storage_follows_its_growth(feedback_interval):
    """``ShardKernel._m_store`` is reallocated when the active block
    grows; the kernels must write where ``M`` lives now, with or without
    the deferred-feedback buffer (a store with records of its own)."""
    want = run("sparse", feedback_interval, native=False)
    got = run("sparse", feedback_interval, native=True)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert len({id(storage) for storage in got[3]}) >= 3  # three sizes of M
    kernel = got[2]._shards.kernel
    if feedback_interval > 1:
        assert kernel._buffer.address != kernel.store.address
    else:
        assert kernel._buffer is None


@pytest.mark.parametrize("feedback_interval", [1, 3])
def test_batched_bound_ledgers_match_numpy(feedback_interval):
    """The batched engine's bound ledger matrix, pending feedback, rows
    and ``M`` storage; the pending matrix exists only when a flush is
    deferred."""
    want = run("batched", feedback_interval, native=False)
    got = run("batched", feedback_interval, native=True)
    assert got[0] == want[0]
    assert got[1] == want[1]
    sim = got[2]
    if feedback_interval > 1:
        assert sim._pending_feedback is sim._pending.array
        assert np.any(sim._pending_feedback)  # the last slot is not a flush
    else:
        assert sim._pending_feedback is None
        assert sim.memory_bytes() == (
            sim._credit_matrix.nbytes + sim._req_block.nbytes + sim._cap_block.nbytes
        )
