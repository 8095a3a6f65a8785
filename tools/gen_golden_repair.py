"""Golden repair vectors for the survivor-repair codec and its scenario.

Pins what a repair epoch replays to: for p = 4, 8 and 16 (k = 8 each)
one fixed :class:`~repro.repair.RepairRecord` and, from it, the
recombination matrix ``R``, the sha256 over every ``recombine`` message's
``to_bytes()``, the effective rows ``R @ B_H``, and the digests
``register_repair_digests`` records (with the byte count it returns).
A second, repair-of-repairs record per point cites three of the first
epoch's messages, so the rows resolved through
:class:`~repro.repair.RepairableCoefficients` are pinned too.  Last, the
``repair_under_churn(seed=s)`` result dicts for s = 7, 13 and 42, and
one small network: two ``churn_repair`` calls (the second a repair of
repairs) and a mid-download repair, as result dicts, download reports,
records and the sha256 of each repaired store.
``tests/repair/test_golden_repair.py`` re-runs it and compares against
the committed fixture.

The fixture was generated before the repair drivers were folded into
one ``RepairCoordinator`` that owns epochs and records, and must not be
regenerated to make a failing test pass; rerun only for a value an issue
names as an intended change::

    PYTHONPATH=src python tools/gen_golden_repair.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.repair import (
    RepairableCoefficients,
    RepairRecord,
    effective_rows,
    recombination_matrix,
    recombine,
    records_to_dict,
    register_repair_digests,
)
from repro.rlnc import CodingParams, FileEncoder
from repro.security import DigestStore
from repro.sim import FileSharingNetwork, repair_under_churn
from repro.sim.network import DEFAULT_SIM_PARAMS

FIXTURE = Path(__file__).resolve().parent.parent / "tests/repair/golden_repair.json"

SECRET = b"golden-repair"
FILE_ID = 0x2E9A
#: (p, m) at file_bytes 512, so k = 8 at every point.
POINTS = ((4, 128), (8, 64), (16, 32))
FILE_BYTES = 512
#: Stored survivor messages: ids 0..11, of which the record cites eight.
STORED_IDS = tuple(range(12))
HELPER_IDS = (1, 3, 4, 6, 7, 9, 10, 11)
EPOCH = 2
COUNT = 5
CHURN_SEEDS = (7, 13, 42)
NETWORK_SEED = 11


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _rows(matrix) -> list[list[int]]:
    return np.asarray(matrix).astype(np.int64).tolist()


def repair_point(p: int, m: int) -> dict:
    params = CodingParams(p=p, m=m, file_bytes=FILE_BYTES)
    encoder = FileEncoder(params, SECRET, file_id=FILE_ID)
    data = np.random.default_rng(p).bytes(FILE_BYTES)
    source = encoder.source_matrix(data)
    stored = {msg.message_id: msg for msg in encoder.encode_ids(source, STORED_IDS)}
    field = encoder.coefficients.field

    record = RepairRecord(FILE_ID, EPOCH, HELPER_IDS, COUNT)
    fresh = recombine(record, [stored[i] for i in HELPER_IDS], field)
    digests = DigestStore()
    digest_bytes = register_repair_digests(
        record, encoder.coefficients, source, digests
    )

    # Repair of repairs: three fresh messages plus two ordinary ones.
    again = RepairRecord(
        FILE_ID, EPOCH + 1, record.message_ids[:3] + (0, 5), 2
    )
    by_id = {**stored, **{msg.message_id: msg for msg in fresh}}
    refreshed = recombine(again, [by_id[i] for i in again.helper_ids], field)
    resolver = RepairableCoefficients(encoder.coefficients, [record, again])
    return {
        "k": params.k,
        "record": record.to_dict(),
        "recombination_matrix": _rows(recombination_matrix(record, field)),
        "recombine_sha256": _sha(msg.to_bytes() for msg in fresh),
        "effective_rows": _rows(effective_rows(record, encoder.coefficients)),
        "digest_bytes": digest_bytes,
        "digests": {
            str(mid): digest.hex()
            for mid, digest in sorted(digests.slice_for_file(FILE_ID).items())
        },
        "repair_of_repairs": {
            "record": again.to_dict(),
            "recombine_sha256": _sha(msg.to_bytes() for msg in refreshed),
            "effective_rows": _rows(resolver.matrix(again.message_ids)),
        },
    }


def _network():
    net = FileSharingNetwork([512.0] * 6, seed=NETWORK_SEED)
    data = np.random.default_rng(NETWORK_SEED).bytes(DEFAULT_SIM_PARAMS.file_bytes)
    net.publish(0, "f", data, message_limit=2)
    return net


def _records(net) -> dict:
    records = net.registry["f"].repair_records
    return records_to_dict(r for cid in sorted(records) for r in records[cid])


def _store_sha(net, peer: int) -> str:
    store = net.stores[peer]
    return _sha(
        msg.to_bytes() for cid in sorted(store.files()) for msg in store.messages(cid)
    )


def network_repair() -> dict:
    net = _network()
    for peer in (3, 4, 5):
        net.drop_peer_data(peer, "f")
    first = net.churn_repair("f", 1, count=4)
    # Peer 1 now holds epoch-0 messages, so this one recombines repairs.
    second = net.churn_repair("f", 2, helpers=[0, 1], count=2)
    churn = {
        "results": [first, second],
        "records": _records(net),
        "store_sha256": {str(p): _store_sha(net, p) for p in (1, 2)},
    }
    net = _network()
    got = net.download(1, "f", max_slots=30, peers=[0, 1], repair_threshold=1.0)
    download = {
        "complete": got.complete,
        "slots": got.slots,
        "data_sha256": _sha([got.data]),
        "reports": [report.to_dict() for report in got.reports],
        "records": _records(net),
    }
    return {"churn_repair": churn, "mid_download": download}


def render(results: dict) -> str:
    return json.dumps(results, indent=1, sort_keys=True) + "\n"


def run() -> dict:
    return {
        "codec": {f"p{p}-m{m}": repair_point(p, m) for p, m in POINTS},
        "churn": {str(s): repair_under_churn(seed=s) for s in CHURN_SEEDS},
        "network": network_repair(),
    }


def main() -> None:
    FIXTURE.write_text(render(run()))
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
