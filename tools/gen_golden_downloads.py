"""Golden download matrix for ``ParallelDownloader``.

Runs a fixed grid of small downloads and records, per cell, the
``DownloadReport.to_dict()`` and the ordered ``transfer.*`` events —
the two things downstream code reads (``obs.analyze`` does per-peer slot
accounting from the event order).  ``tests/transfer/test_golden_downloads.py``
re-runs the grid and compares against the committed fixture.

The fixture was generated before the one-loop refactor of
``transfer/scheduler.py`` and must not be regenerated to make a failing
test pass; rerun only for a cell an issue names as an intended change::

    PYTHONPATH=src python tools/gen_golden_downloads.py
"""

from __future__ import annotations

import json
import math
from functools import cache
from pathlib import Path

import numpy as np

from repro.faults import FaultPlan
from repro.obs import TRACER, observability
from repro.rlnc import CodingParams, FileEncoder, ProgressiveDecoder
from repro.security import DigestStore, generate_keypair
from repro.storage import MessageStore
from repro.transfer import (
    DownloadSession,
    LatencyModel,
    ParallelDownloader,
    RobustPolicy,
    ServingSession,
)

FIXTURE = Path(__file__).resolve().parent.parent / "tests/transfer/golden_downloads.json"

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8
FILE_ID = 0x60
FAULTS = "seed=9;0:pollute@0.5;1:corrupt@1;2:crash@200;3:stall@1+7;4:refuse"
RTTS = [1.0, 2.5, 0.5, 4.0, 1.0, 3.0]  # all positive: zero-RTT peers are excluded
MAX_SLOTS = 10_000


@cache
def _keys():
    return generate_keypair(bits=512, seed=60)


def cells():
    """Yield ``(cell_id, kwargs)`` for every cell of the matrix."""
    for seed in (1, 2):
        for n in (1, 3, 6):
            modes = ("plain", "robust", "faults") if n == 6 else ("plain", "robust")
            for rate in (0.3, 2.0, 50.0):
                for mode in modes:
                    for latency in (False, True):
                        for cap in (math.inf, 1.0):
                            cell_id = (
                                f"seed{seed}-n{n}-rate{rate:g}-{mode}-"
                                f"{'rtt' if latency else 'nolat'}-cap{cap:g}"
                            )
                            yield cell_id, dict(
                                seed=seed, n=n, rate=rate, mode=mode,
                                latency=latency, cap=cap,
                            )


def run_cell(seed, n, rate, mode, latency, cap) -> dict:
    """One download; returns ``{"report": ..., "events": [[name, fields], ...]}``."""
    keys = _keys()
    data = np.random.default_rng(seed).bytes(500)
    digests = DigestStore()
    encoder = FileEncoder(PARAMS, b"golden", file_id=FILE_ID)
    encoded = encoder.encode_bundles(data, n_peers=n, digest_store=digests)
    sessions = []
    for bundle in encoded.bundles:
        store = MessageStore()
        store.add_messages(bundle)
        sessions.append(ServingSession(store, keys.public))
    if mode == "faults":
        sessions = FaultPlan.parse(FAULTS).wrap(sessions)
    for peer, session in enumerate(sessions):
        DownloadSession(keys).handshake_with_retry(session, FILE_ID, peer=peer)
    decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, digests)
    downloader = ParallelDownloader(
        sessions,
        decoder,
        lambda i, t: rate * (1 + 0.1 * i),
        download_cap_kbps=cap,
        latency=LatencyModel(RTTS[:n]) if latency else None,
        policy=None if mode == "plain" else RobustPolicy(digest_store=digests),
    )
    with observability(tracing=True, reset=True):
        report = downloader.run(MAX_SLOTS, file_id=FILE_ID)
        events = [
            [e.name, dict(e.fields)]
            for e in TRACER.events()
            if e.name.startswith("transfer.")
        ]
    if report.complete:
        assert decoder.result(len(data)) == data
    return {"report": report.to_dict(), "events": events}


def render(results: dict) -> str:
    """One cell per line so a drifted cell is a one-line diff."""
    lines = [
        f"{json.dumps(cell_id)}: {json.dumps(result, sort_keys=True)}"
        for cell_id, result in results.items()
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> None:
    results = {cell_id: run_cell(**kwargs) for cell_id, kwargs in cells()}
    FIXTURE.write_text(render(results))
    print(f"wrote {len(results)} cells to {FIXTURE}")


if __name__ == "__main__":
    main()
