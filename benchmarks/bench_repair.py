"""Repair bench: recombination throughput and repair-bandwidth asymmetry.

Two claims are measured and committed to ``BENCH_repair.json``:

1. **Throughput** — survivor-side recombination is a single GF matmul
   over stored payloads, so minting a fresh coded message should cost
   on the order of an encode, not a decode.  We time ``recombine`` at
   the paper's recommended operating point (GF(2^16)) and record the
   median ns per fresh message.

2. **Bandwidth asymmetry** — the owner's entire uplink contribution to
   a repair epoch is 16 digest bytes per fresh message.  Against the
   naive alternative (owner re-uploads fresh coded payloads), the
   saving is the payload/digest ratio, which grows linearly with the
   message length ``m``.  This is the paper's asymmetric-channel
   constraint applied to durability maintenance: the thin owner uplink
   carries integrity metadata only, while the wide helper links carry
   the payloads.

End-to-end, a churn scenario verifies the repaired system decodes at
its pre-churn success rate with zero owner payload bytes.
"""

import time

import numpy as np

from repro.repair import RepairRecord, recombine, register_repair_digests
from repro.rlnc import CodingParams, FileEncoder
from repro.security import DigestStore
from repro.sim import repair_under_churn

from _util import print_header, print_table, write_bench_json

#: The measured recombination point: GF(2^16), 4096-symbol messages,
#: 16 helper messages in, 8 fresh messages out.
P, M, HELPERS, COUNT = 16, 1 << 12, 16, 8
REPS = 7


def setup_point(p: int = P, m: int = M, helpers: int = HELPERS):
    params = CodingParams(p=p, m=m, file_bytes=(8 * m * p) // 8)
    encoder = FileEncoder(params, secret=b"bench", file_id=0xB0)
    rng = np.random.default_rng(7)
    source = encoder.source_matrix(rng.bytes(params.file_bytes))
    stored = encoder.encode_ids(source, list(range(helpers)))
    record = RepairRecord(
        file_id=0xB0,
        epoch=0,
        helper_ids=tuple(msg.message_id for msg in stored),
        count=COUNT,
    )
    return encoder, source, stored, record


def recombine_ns_per_message() -> int:
    """Median ns per fresh message minted by ``recombine``."""
    _, _, stored, record = setup_point()
    recombine(record, stored)  # warm the field kernels before timing
    samples = []
    for _ in range(REPS):
        start = time.perf_counter()
        fresh = recombine(record, stored)
        samples.append(time.perf_counter() - start)
        assert len(fresh) == COUNT
    samples.sort()
    return int(samples[(len(samples) - 1) // 2] / COUNT * 1e9)


def test_recombination_throughput(benchmark):
    ns_per_msg = benchmark.pedantic(recombine_ns_per_message, rounds=1, iterations=1)

    print_header(
        f"Repair throughput: GF(2^{P}), m={M}, {HELPERS} helpers -> {COUNT} fresh"
    )
    mb_s = (M * P / 8) / (ns_per_msg / 1e9) / 1e6
    print_table(
        ["ns/message", "payload MB/s"],
        [[f"{ns_per_msg}", f"{mb_s:.1f}"]],
    )
    # Recombination is COUNT x HELPERS x m multiply-accumulates — one
    # matmul, no elimination.  Anything slower than 1 MB/s of minted
    # payload would make repair the bottleneck it is meant to avoid.
    assert mb_s >= 1.0

    write_bench_json(
        "BENCH_repair.json",
        {
            f"repair_recombine_p{P}_m{M}_h{HELPERS}_c{COUNT}": {
                "p": P,
                "m": M,
                "helpers": HELPERS,
                "count": COUNT,
                "op": "recombine_per_message",
                "ns_per_op": ns_per_msg,
                "samples": REPS,
            }
        },
    )


def test_owner_bandwidth_asymmetry(benchmark):
    def run():
        rows = []
        for m in (1 << 8, 1 << 10, 1 << 12):
            encoder, source, stored, record = setup_point(m=m)
            digests = DigestStore()
            shipped = register_repair_digests(
                record, encoder.coefficients, source, digests
            )
            payload_bytes = COUNT * (m * P // 8)
            rows.append((m, shipped, payload_bytes, payload_bytes / shipped))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Owner uplink per repair epoch: digests vs naive re-upload")
    print_table(
        ["m", "digest bytes", "naive payload bytes", "saving"],
        [[f"{m}", f"{d}", f"{p}", f"{r:.0f}x"] for m, d, p, r in rows],
    )
    for m, shipped, payload, ratio in rows:
        assert shipped == 16 * COUNT  # constant, independent of m
        assert ratio >= m / 16  # saving grows linearly with m

    write_bench_json(
        "BENCH_repair.json",
        {
            "repair_owner_uplink": {
                "op": "digest_bytes_per_epoch",
                "count": COUNT,
                "digest_bytes": rows[-1][1],
                "naive_payload_bytes": rows[-1][2],
                "saving_x": int(rows[-1][3]),
                "ns_per_op": rows[-1][1],  # bytes, kept for schema shape
                "samples": 1,
            }
        },
    )


def test_churn_scenario_restores_decode(benchmark):
    def run():
        start = time.perf_counter()
        result = repair_under_churn(seed=7)
        return result, time.perf_counter() - start

    result, seconds = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Repair under churn (seed 7): decode probability")
    print_table(
        ["pre-churn", "churned", "repaired", "owner payload B", "owner digest B"],
        [[
            f"{result['prob_pre']:.2f}",
            f"{result['prob_churn']:.2f}",
            f"{result['prob_repaired']:.2f}",
            f"{result['owner_payload_bytes']}",
            f"{result['owner_digest_bytes']}",
        ]],
    )
    assert result["dropped_message_fraction"] >= 0.30
    assert result["prob_repaired"] >= result["prob_pre"]
    assert result["owner_payload_bytes"] == 0

    write_bench_json(
        "BENCH_repair.json",
        {
            "repair_churn_scenario_seed7": {
                "op": "repair_under_churn",
                "prob_pre": result["prob_pre"],
                "prob_churn": result["prob_churn"],
                "prob_repaired": result["prob_repaired"],
                "owner_digest_bytes": result["owner_digest_bytes"],
                "helper_bandwidth_bytes": result["helper_bandwidth_bytes"],
                "ns_per_op": int(seconds * 1e9),
                "samples": 1,
            }
        },
    )
