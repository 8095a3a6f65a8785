"""``DigestStore.record_many``: a ``record`` loop's digests, split over CPUs.

A batch past the size rule (every payload >= 8 KiB, the batch >= 256 KiB)
is hashed in contiguous shares on the process-wide pool; anything else
runs the serial loop on the calling thread.  Either way the stored
digests, their order and the returned list are those of a ``record``
loop.  The CPU count is pinned per test, so the split path is exercised
on any host.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.obs import REGISTRY, TRACER, observability
from repro.security import DigestStore, integrity

KIB = 1 << 10
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def own_pool(monkeypatch):
    """The test starts with no pool and its own is shut down afterwards."""
    monkeypatch.setattr(integrity, "_POOL", None)
    yield
    if integrity._POOL is not None:
        integrity._POOL.shutdown()


@pytest.fixture
def cpus(own_pool, monkeypatch):
    """``cpus(n)`` pretends ``n`` CPUs are usable."""
    return lambda n: monkeypatch.setattr(native, "usable_cpus", lambda: n)


def payloads(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.bytes(size) for size in sizes]


def record_loop(algorithm, file_id, ids, batch):
    store = DigestStore(algorithm)
    digests = [store.record(file_id, mid, payload) for mid, payload in zip(ids, batch)]
    return store, digests


def record_counted(store, file_id, ids, batch):
    """``record_many``'s digests and how many batches it split (0 or 1)."""
    with observability(reset=True):
        digests = store.record_many(file_id, ids, batch)
        return digests, REGISTRY.snapshot()["repro.security.digest.split_batches"]["value"]


SHAPES = {
    # name: (payload sizes, splits on two or more CPUs)
    "64 x 4 KiB": ([4 * KIB] * 64, False),
    "16 x 8 KiB": ([8 * KIB] * 16, False),
    "64 x 8 KiB": ([8 * KIB] * 64, True),
    "4 x 128 KiB": ([128 * KIB] * 4, True),
    "mixed 8-128 KiB": ([8 * KIB, 128 * KIB, 40 * KIB, 9 * KIB, 100 * KIB], True),
    "mixed, one 4 KiB": ([128 * KIB, 4 * KIB, 128 * KIB, 128 * KIB], False),
    "empty": ([], False),
    "one 512 KiB": ([512 * KIB], False),
}


@pytest.mark.parametrize("algorithm", ["md5", "sha256"])
@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_equals_record_loop(shape, n_cpus, algorithm, cpus):
    cpus(n_cpus)
    sizes, splits = SHAPES[shape]
    batch = payloads(sizes)
    ids = [7 * i + 3 for i in range(len(batch))]
    expected_store, expected = record_loop(algorithm, 0xF11E, ids, batch)
    store = DigestStore(algorithm)
    digests, split = record_counted(store, 0xF11E, ids, batch)
    assert split == int(splits and n_cpus > 1)
    assert digests == expected
    assert store == expected_store
    assert store.to_dict() == expected_store.to_dict()


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_memoryview_payloads(n_cpus, cpus):
    """The owner hands over read-only slices of one packed product."""
    cpus(n_cpus)
    packed = memoryview(payloads([64 * 128 * KIB])[0])
    views = [packed[i * 128 * KIB : (i + 1) * 128 * KIB] for i in range(64)]
    _, expected = record_loop("md5", 1, range(64), views)
    assert DigestStore().record_many(1, range(64), views) == expected


@pytest.mark.parametrize("n_ids,n_payloads", [(3, 4), (4, 3), (0, 1), (1, 0), (64, 63)])
def test_mismatched_lengths_store_nothing(n_ids, n_payloads, cpus):
    cpus(2)
    store = DigestStore()
    with pytest.raises(ValueError):
        store.record_many(1, range(n_ids), payloads([128 * KIB] * n_payloads))
    assert len(store) == 0


def test_re_recording_overwrites_in_first_recorded_order(cpus):
    cpus(2)
    store = DigestStore()
    first, second = payloads([64 * KIB] * 8, seed=1), payloads([64 * KIB] * 8, seed=2)
    store.record_many(9, [5, 4, 3, 2], first[:4])
    store.record_many(4, [0, 1, 2, 3], first[4:])
    store.record_many(9, [2, 3, 4, 5], second[:4])
    blob = store.to_dict()
    assert list(blob) == ["9", "4"] and list(blob["9"]) == ["5", "4", "3", "2"]
    assert all(store.verify(9, mid, p) for mid, p in zip([2, 3, 4, 5], second[:4]))
    assert not store.verify(9, 5, first[0])


def test_below_the_rule_starts_no_thread(cpus):
    cpus(4)
    before = threading.active_count()
    store = DigestStore()
    store.record_many(1, range(512), payloads([4 * KIB] * 512))
    store.record_many(2, range(16), payloads([8 * KIB] * 16))
    assert integrity._POOL is None
    assert threading.active_count() == before


def test_pool_reads_the_affinity_mask_not_the_sim_variable(own_pool, monkeypatch):
    """One CPU rule: the pool is sized by ``native.usable_cpus``;
    ``REPRO_SIM_THREADS`` is the simulator's alone."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("REPRO_SIM_THREADS", "1")
    _, split = record_counted(DigestStore(), 1, range(8), payloads([128 * KIB] * 8))
    assert split == 1
    assert integrity._POOL._max_workers == 1  # one worker beside the caller


def test_concurrent_callers_share_one_pool(cpus, monkeypatch):
    """Eight threads on two pretend CPUs race to build the pool at a
    shortened switch interval: one pool is built and every digest is
    right."""
    import concurrent.futures

    built = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    cpus(2)
    batch = payloads([64 * KIB] * 8)
    _, expected = record_loop("md5", 1, range(8), batch)
    start, results = threading.Barrier(8), []

    def caller():
        start.wait(timeout=30)
        for _ in range(20):
            results.append(DigestStore().record_many(1, range(8), batch))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == 1 and integrity._POOL is built[0]
    assert results == [expected] * 160


def test_digest_span_says_which_path_ran(cpus):
    cpus(2)
    store = DigestStore()
    with observability(tracing=True, reset=True):
        store.record_many(1, range(4), payloads([128 * KIB] * 4))
        store.record_many(2, range(3), payloads([4 * KIB] * 3))
        attrs = [
            ev.fields["attrs"]
            for ev in TRACER.events()
            if ev.name == "span.start" and ev.fields["op"] == "security.digest"
        ]
    assert attrs == [
        {"messages": 4, "bytes": 512 * KIB, "workers": 2},
        {"messages": 3, "bytes": 12 * KIB, "workers": 1},
    ]


_FORK_CHILD = """
import hashlib, os, signal, sys, time
from repro import native
native.usable_cpus = lambda: 2
from repro.security import DigestStore, integrity

batch = [bytes([i]) * (128 << 10) for i in range(8)]
expected = [hashlib.md5(p).digest() for p in batch]
assert DigestStore().record_many(1, range(8), batch) == expected
parent_pool = integrity._POOL
assert parent_pool is not None
pid = os.fork()
if pid == 0:
    ok = DigestStore().record_many(1, range(8), batch) == expected
    os._exit(0 if ok and integrity._POOL not in (None, parent_pool) else 3)
deadline = time.monotonic() + 30
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.01)
os.kill(pid, signal.SIGKILL)  # hung: leave no orphan behind
os.waitpid(pid, 0)
sys.exit("the forked child did not finish within 30 s")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_hashes_on_a_pool_of_its_own():
    """The ``procs`` engine forks.  A child inherits the parent's pool
    object but none of its threads; without the at-fork reset its first
    split batch would wait forever."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_CHILD], env=env, timeout=60, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()


def _golden_tool():
    path = Path(__file__).resolve().parents[2] / "tools" / "gen_golden_publish.py"
    spec = importlib.util.spec_from_file_location("gen_golden_publish", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_p32_cell_takes_the_split_path(cpus):
    """The pinned p = 32 publish (16 x 128 KiB per chunk, 3 chunks) is
    hashed split and still reproduces its digests; the p = 8 cell's
    4 KiB messages stay serial."""
    cpus(2)
    golden = _golden_tool()
    fixture = json.loads(golden.FIXTURE.read_text())["publish"]
    for (p, m, file_bytes, n_peers), splits in zip(golden.POINTS[:2], (3, 0)):
        with observability(reset=True):
            cell = golden.publish_point(p, m, file_bytes, n_peers)
            split = REGISTRY.snapshot()["repro.security.digest.split_batches"]["value"]
        assert split == splits
        assert cell == fixture[f"p{p}-m{m}-f{file_bytes}-n{n_peers}"]


def test_digest_is_hashlib_of_the_payload(cpus):
    cpus(2)
    batch = payloads([128 * KIB] * 4)
    assert DigestStore().record_many(1, range(4), batch) == [
        hashlib.md5(p).digest() for p in batch
    ]
