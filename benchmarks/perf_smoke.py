"""CI perf-smoke: twenty-six timing gates, each a ratio measured in this run.

Standalone (numpy only, no pytest).  Every gate times a *subject* and a
*reference* interleaved in this process, alternating which goes first so
machine drift hits both sides equally, and fails when the median of the
per-pair ratios exceeds the gate's budget.  Nothing is compared against a
committed timing and nothing is written: a number measured on another
day's machine cannot say whether this checkout got slower, and "did an
absolute time get worse" is what ``bench/run.py --compare`` answers, on
one box, parent against change.  docs/ARCHITECTURE.md tabulates the
gates with the ratios measured on the development box.

Usage: ``PYTHONPATH=src python benchmarks/perf_smoke.py``
"""

from __future__ import annotations

import os
import statistics
import sys
import time


def ratio_gate(name, subject, reference, budget, hint, reps=9) -> int:
    """Return 1 when ``subject`` costs more than ``budget`` x ``reference``.

    Each rep runs both sides once, back to back, subject first on even
    reps and reference first on odd ones; the verdict is the median of
    the per-rep ratios, so drift and bursts longer than one pair cancel
    inside the pair (on a shared 2-core box that reads half the spread
    of the ratio of the two medians).  A side is timed as one whole call
    unless it returns a float, which is then taken as the seconds it
    measured itself (set-up that must stay outside the timed region,
    per-slot normalisation).  ``hint`` names the likeliest cause of a
    failure.
    """
    samples = ([], [])
    sides = (subject, reference)
    for rep in range(reps):
        for which in (0, 1) if rep % 2 == 0 else (1, 0):
            start = time.perf_counter()
            own = sides[which]()
            elapsed = time.perf_counter() - start
            samples[which].append(own if isinstance(own, float) else elapsed)
    cost, base = (statistics.median(side) * 1e3 for side in samples)
    ratio = statistics.median(s / r for s, r in zip(*samples))
    print(f"{name}: {cost:.3f} / {base:.3f} ms, median of {reps} paired ratios "
          f"{ratio:.4g}x (budget {budget}x)")
    if ratio > budget:
        print(f"FAIL: {name} is {ratio:.4g}x > {budget}x; {hint}")
        return 1
    return 0


def gate_procs() -> int:
    """The process-sharded engine (2 shards) / the in-process sparse one,
    on the scaling benchmark's cohort population at a CI-sized n=8192.

    Loose on purpose: above 3x is an IPC blow-up, not a lost race on a
    shared runner.  The printed ratio, with the core count, is the
    evidence ROADMAP's "procs earns its place at <= 0.9 x sparse or
    goes" verdict needs, collected on every CI run.
    """
    import bench_sim_scaling as scaling

    from repro.native import usable_cpus

    def slot_seconds(engine, workers=None):
        return lambda: scaling.sparse_slot_stats(
            8192, slots=48, reps=1, engine=engine, workers=workers
        )[0]

    procs, sparse = slot_seconds("procs", 2), slot_seconds("sparse")
    # The first forked simulation in a process also pays the workers'
    # cold first prefetch (tens of ms over 48 slots): not what is probed.
    procs()
    return ratio_gate(
        f"procs-2 / sparse slot, n=8192 on {usable_cpus()} usable cores",
        procs, sparse, 3.0,
        "is a barrier or a per-slot message broken?", reps=3,
    )


def gate_obs() -> int:
    """Metrics and tracing on / off: the "<3% overhead" claim at 5%."""
    from repro import obs
    from repro.rlnc import BlockDecoder, CodingParams, FileEncoder
    from repro.sim.scenarios import figure_5a

    # k=512: the decode is dominated by a long dense elimination whose
    # runtime is stable rep-to-rep, so the on/off ratio does not flap on
    # noisy shared runners the way a short decode's would.
    params = CodingParams(p=8, m=1 << 11)
    encoder = FileEncoder(params, secret=b"bench", file_id=2)
    data = os.urandom(params.file_bytes)
    messages = encoder.encode_ids(
        encoder.source_matrix(data), encoder.independent_ids(1)[0]
    )

    def workload() -> None:
        decoder = BlockDecoder(params, encoder.coefficients)
        assert decoder.decode(messages) == data
        figure_5a(slots=40, seed=7)

    def observed() -> float:
        # Only the workload is timed: entering and leaving the scope
        # (registry reset, trace ring) is per run, not per operation.
        with obs.observability(tracing=True, reset=True):
            start = time.perf_counter()
            workload()
            return time.perf_counter() - start

    workload()  # warm caches and lazily-built kernels before timing
    return ratio_gate(
        "obs on / off, decode + sim slot loop", observed, workload, 1.05,
        "which hot path lost its disabled-by-default early return?", reps=15,
    )


def gate_streaming() -> int:
    """``ProgressiveDecoder`` / ``BlockDecoder`` on the same 1 MiB.

    The progressive decoder works on ``2k``-wide coefficient rows and
    ends with the block decode; eliminating payloads on arrival pays the
    decode twice and measures 2.5x and 3.6x at these points.
    """
    from repro.rlnc import BlockDecoder, CodingParams, FileEncoder, ProgressiveDecoder

    failures = 0
    data = os.urandom(1 << 20)
    for p, m in ((32, 1 << 15), (8, 1 << 14)):  # k = 8 and k = 64
        params = CodingParams(p=p, m=m)
        encoder = FileEncoder(params, secret=b"bench", file_id=3)
        messages = encoder.encode_ids(
            encoder.source_matrix(data), encoder.independent_ids(1)[0]
        )
        step = params.k // 8

        def block() -> bytes:
            return BlockDecoder(params, encoder.coefficients).decode(messages)

        def streaming() -> bytes:
            decoder = ProgressiveDecoder(params, encoder.coefficients)
            for i in range(0, len(messages), step):
                decoder.offer_many(messages[i : i + step])
            return decoder.result()

        assert block() == data and streaming() == data  # and warm the kernels
        failures += ratio_gate(
            f"progressive / block decode, p={p} k={params.k}", streaming, block, 1.3,
            "is payload elimination back in offer()?",
        )
    return failures


def gate_publish() -> int:
    """One 8-peer ``encode_bundles`` / eight 1-peer ones, same 64 ids.

    ``encode_bundles`` packs the source, builds the four-Russians tables
    and screens ids once per chunk; paying that once per peer measures
    ~1.0x.  The GFNI product body builds no tables, so less of that
    cost is left to share: on a GFNI build the gate read 0.69-1.11x as
    the only gate of a process, over the budget in 10 of 18 runs, and
    0.66-0.68x in whole runs.  There both sides run on
    :func:`_four_russians_kernel` instead, where it reads 0.42-0.48x.
    """
    from unittest import mock

    from repro import native
    from repro.gf import bitmatmul
    from repro.rlnc import CodingParams, FileEncoder

    peers = 8
    params = CodingParams(p=32, m=1 << 15)  # k = 8
    data = os.urandom(1 << 20)

    def stacked():
        # A fresh encoder per call: coefficient rows are generated inside
        # the timed region on both sides.
        encoder = FileEncoder(params, secret=b"bench", file_id=4)
        return encoder.encode_bundles(data, peers).bundles

    def per_peer():
        encoder = FileEncoder(params, secret=b"bench", file_id=4)
        bundles, start_id = [], 0
        for _ in range(peers):
            bundles += encoder.encode_bundles(data, 1, start_id=start_id).bundles
            start_id = bundles[-1][-1].message_id + 1
        return tuple(bundles)

    def wire(bundles):
        return [msg.to_bytes() for bundle in bundles for msg in bundle]

    kernel = bitmatmul.load()
    if kernel is not None and kernel.body == "gfni":
        kernel = _four_russians_kernel()
        if kernel is None:
            print("FAIL: _gfmul.c does not build or self-check with -mno-gfni")
            return 1
    with mock.patch.dict(native._LOADED, {"gfmul": (kernel, "perf smoke A/B")}):
        assert wire(stacked()) == wire(per_peer())  # and warm the kernels
        return ratio_gate(
            f"one {peers}-peer / {peers} x 1-peer publish, p=32 k={params.k} "
            f"({'numpy' if kernel is None else kernel.body} body)",
            stacked, per_peer, 0.8,
            "is the source packed (or the tables built) once per bundle again?",
        )


def gate_screen() -> int:
    """``is_invertible`` of an eight-block stack / eight per-block reductions.

    The publish screens every peer's ``k`` candidate rows in one forward
    elimination whose column loop all blocks share; block by block — and
    Gauss-Jordan — the same verdicts measure ~1.0x.  The stacked side runs
    the numpy body even where the compiled library is live (a table
    field's or the tower's screening goes there;
    ``gate_native_elimination`` times it), so this gate keeps guarding the
    fallback's shared column loop at both cells.  At p=8
    the reference is spelled out here and frozen, as ``gate_arrival``'s
    is, so no change to ``rank`` or the field kernels moves it:
    Gauss-Jordan per block with every product by fancy index on the
    log/antilog tables.  It reads 0.31-0.33x there; eight ``rank()`` calls
    read 0.77-0.80x of it.  The p=32 cell's reference is ``rank()`` itself
    (reads 0.15-0.18x).
    """
    from unittest import mock

    import numpy as np

    from repro import native
    from repro.gf import GF, is_invertible, rank

    numpy_only = mock.patch.dict(native._LOADED, {"gfmul": (None, "perf smoke: numpy body")})

    failures = 0
    rng = np.random.default_rng(0)
    for p, k in ((8, 64), (32, 8)):  # publish_rows and publish_bulk
        field = GF(p)
        blocks = field.random((8, k, k), rng)
        blocks[5, k - 1] = blocks[5, 0]  # one deficient block rides along

        def stacked():
            with numpy_only:
                return is_invertible(field, blocks).tolist()

        if p == 8:
            logz, expz = field._logz, field._expz  # the tables only
            log, exp, order = field._log, field._exp, field.q - 1

            def full_rank(block) -> bool:
                A, rows = block.copy(), 0
                for col in range(k):
                    below = np.flatnonzero(A[rows:, col])
                    if below.size == 0:
                        continue
                    src = rows + below[0]
                    A[[rows, src]] = A[[src, rows]]
                    inverse = exp[order - log[A[rows, col]]]
                    A[rows, col:] = expz[logz[inverse] + logz[A[rows, col:]]]
                    factors = A[:, col].copy()
                    factors[rows] = 0
                    A[:, col:] ^= expz[logz[factors[:, None]] + logz[A[rows, col:]]]
                    rows += 1
                return rows == k
        else:
            def full_rank(block) -> bool:
                return rank(field, block) == k

        def per_block():
            return [full_rank(block) for block in blocks]

        assert stacked() == per_block() and stacked()[4:7] == [True, False, True]
        failures += ratio_gate(
            f"stacked is_invertible / 8 per-block reductions, p={p} k={k}",
            stacked, per_block, 0.5,
            "is screening back to one elimination per peer, or reducing to "
            "Gauss-Jordan form again?",
        )
    return failures


def gate_native_matmul() -> int:
    """The compiled ``bit_matmul`` kernel / the numpy body it stands in for.

    At the paper's point (a decode and an 8-peer publish, p=32) and at
    ``publish_rows``' product (p=8, k=64) it reads 0.10-0.18x on a
    sapphirerapids box (0.50-0.96x when each line was stored at one
    vector width and reloaded at another).  Skipped, with the loader's
    reason, where the kernel is not live.
    """
    from unittest import mock

    import numpy as np

    from repro import native
    from repro.gf import GF, bitmatmul

    if bitmatmul.load() is None:
        print(f"native / numpy bit_matmul: kernel not live "
              f"({native.status()['gfmul']}); skipped")
        return 0
    rng = np.random.default_rng(0)
    numpy_only = mock.patch.dict(native._LOADED, {"gfmul": (None, "perf smoke A/B")})
    failures = 0
    # (p, r, k, m): a fetch_bulk decode, a publish_bulk and a publish_rows chunk
    for p, r, k, m in ((32, 8, 8, 1 << 15), (32, 64, 8, 1 << 15), (8, 512, 64, 1 << 12)):
        field = GF(p)
        coeffs, source = field.random((r, k), rng), field.random((k, m), rng)

        def compiled():
            return bitmatmul.bit_matmul(field, coeffs, source)

        def fallback():
            with numpy_only:
                return bitmatmul.bit_matmul(field, coeffs, source)

        assert compiled().tobytes() == fallback().tobytes()  # and warm both
        failures += ratio_gate(
            f"native / numpy bit_matmul, p={p} ({r},{k})@({k},{m})",
            compiled, fallback, 0.25,
            "is a line stored at one vector width and reloaded at another "
            "(store forwarding), or the gather back to one group per pass?",
        )
    return failures


def gate_packed_product() -> int:
    """``record_matmul`` on records / ``pack_rows(field.matmul(C, X))``.

    At ``publish_rows``' product (p=8, 512 messages of a k=64 chunk), the
    packed entry multiplies the source records straight into message
    records on the compiled kernel at the storage width; the reference
    multiplies the ``uint32`` symbols and packs the product, as the
    encoder did before.  It reads 0.52-0.57x on a 2 vCPU AVX-512 box.
    Skipped, with the loader's reason, where the kernel is not live.
    """
    import numpy as np

    from repro import native
    from repro.gf import GF, bitmatmul
    from repro.rlnc.message import pack_rows

    if bitmatmul.load() is None:
        print(f"packed / uint32 product: kernel not live "
              f"({native.status()['gfmul']}); skipped")
        return 0
    p, r, k, m = 8, 512, 64, 1 << 12
    field = GF(p)
    rng = np.random.default_rng(0)
    coeffs, source = field.random((r, k), rng), field.random((k, m), rng)
    records = pack_rows(source, p)

    def packed():
        return bitmatmul.record_matmul(field, coeffs, records)

    def widened():
        return pack_rows(field.matmul(coeffs, source), p)

    assert packed().tobytes() == widened().tobytes()  # and warm both
    return ratio_gate(
        f"packed / uint32 product, p={p} ({r},{k})@({k},{m})",
        packed, widened, 0.75,
        "does the product widen its symbols to uint32 (or byte-swap them) again?",
    )


def _four_russians_kernel():
    """``_gfmul.c`` built again with ``-mno-gfni`` (the four-Russians
    body) and loaded beside the live library, self-checked as any load
    is; ``None`` when that build fails or its check refuses it."""
    from unittest import mock

    from repro import native
    from repro.gf import bitmatmul

    flags = f"{os.environ.get('REPRO_NATIVE_CFLAGS', '')} -mno-gfni"
    with mock.patch.dict(os.environ, {"REPRO_NATIVE_CFLAGS": flags}), \
            mock.patch.dict(native._LOADED):
        native._LOADED.pop("gfmul", None)
        kernel = bitmatmul.load()
    assert kernel is None or kernel.body == "four-russians"
    return kernel


def gate_gfni_product() -> int:
    """The GFNI product body / the four-Russians one, at ``fetch_bulk``'s
    decode (``record_matmul``, p=32, (8,8)@(8, 128 KiB)).

    The reference is :func:`_four_russians_kernel`, so both bodies run in
    this process on the same records.  It reads 0.19-0.21x on a 2 vCPU AVX-512 box;
    ~1.0x means the GFNI body has lost its speed to the tables.  Skipped,
    with the reason, where the kernel is not live or the body is not
    built (tests/gf/test_vector_widths.py checks which body a host's
    flags should build).
    """
    import numpy as np

    from repro import native
    from repro.gf import GF, bitmatmul

    kernel = bitmatmul.load()
    if kernel is None:
        print(f"gfni / four-russians product: kernel not live "
              f"({native.status()['gfmul']}); skipped")
        return 0
    if kernel.body != "gfni":
        print(f"gfni / four-russians product: {kernel.body} body built (no GFNI "
              f"and AVX-512BW target); skipped")
        return 0
    four_russians = _four_russians_kernel()
    if four_russians is None:
        print("FAIL: _gfmul.c does not build or self-check with -mno-gfni")
        return 1
    field = GF(32)
    rng = np.random.default_rng(0)
    coeffs = field.random((8, 8), rng)
    records = rng.integers(0, 256, (8, 128 << 10), dtype=np.uint8)
    out = np.empty_like(records)

    def product(which):
        return lambda: bitmatmul._compiled_product(which, field, coeffs, records, out, True)

    product(four_russians)()
    want = out.copy()
    product(kernel)()
    assert out.tobytes() == want.tobytes()  # and warm both
    return ratio_gate(
        "gfni / four-russians product, p=32 (8,8)@(8,128 KiB)",
        product(kernel), product(four_russians), 0.5,
        "has the GFNI body lost its speed to the four-Russians tables?",
    )


def gate_native_elimination() -> int:
    """The compiled elimination steps / their numpy bodies.

    Screening ``publish_rows``' stack (eight (64, 64) blocks at p=8, one
    of them deficient) reads 0.15-0.23x.  One k = 64 decode's arrivals,
    fresh rows with a few repeats among them, read 0.19-0.25x at p=8 and
    0.18-0.22x at p=16; an arrival that gathers its four pointers per
    call again reads 0.33-0.37x and 0.29-0.32x, which the arrival budgets
    catch, and a step visiting all 2k columns reads like the committed
    one at this k, which they do not.  The p=32 cells are
    ``publish_bulk``'s and ``fetch_bulk``'s, sixteen to a timed call:
    screening eight (8, 8, 8) blocks, one deficient, reads 0.033-0.039x
    (0.108-0.111x when each block is a call of its own), and k = 8
    decodes read 0.029-0.036x (0.103-0.113x with the pointers passed per
    call).  Each budget sits between its cell's reading and the nearest
    regression; the numpy body itself is 1.0x.  Skipped, with the
    loader's reason, where the library is not live.
    """
    from unittest import mock

    import numpy as np

    from repro import native
    from repro.gf import GF, bitmatmul, is_invertible, linalg

    if bitmatmul.load() is None:
        print(f"native / numpy elimination: kernel not live "
              f"({native.status()['gfmul']}); skipped")
        return 0
    numpy_only = mock.patch.dict(native._LOADED, {"gfmul": (None, "perf smoke A/B")})
    rng = np.random.default_rng(0)
    failures = 0
    # (p, k, screenings per timed call, budget): one at p=32 is ~70 us
    for p, k, screens, budget in ((8, 64, 1, 0.35), (32, 8, 16, 0.07)):
        field = GF(p)
        blocks = field.random((8, k, k), rng)
        blocks[5, k - 1] = blocks[5, 0]

        def screen():
            for _ in range(screens):
                verdicts = is_invertible(field, blocks).tolist()
            return verdicts

        def screen_numpy():
            with numpy_only:
                return screen()

        assert screen() == screen_numpy() and screen()[4:7] == [True, False, True]
        failures += ratio_gate(
            f"native / numpy screening, {screens} x p={p} (8,{k},{k})",
            screen, screen_numpy, budget,
            "has the stack gone back to the numpy body, or to one call per block?",
        )
    # (p, k, decodes per timed call, budget): one k = 8 decode is ~60 us
    for p, k, decodes, budget in ((8, 64, 1, 0.3), (16, 64, 1, 0.27), (32, 8, 16, 0.06)):
        field = GF(p)
        rows = field.random((k + 8, k), rng)
        into, src = ([9, 30, 51], [2, 7, 40]) if k == 64 else ([3], [1])
        rows[into] = rows[src]  # repeats reach the elimination too

        def decode(bind):
            for _ in range(decodes):
                reduced = np.empty((k, 2 * k), dtype=np.uint32)
                pivots = np.empty(k, dtype=np.intp)
                step, rank = bind(reduced, pivots), 0
                for row in rows:
                    reduced[rank, :k], reduced[rank, k:] = row, 0
                    pivot = step(rank)
                    if pivot >= 0:
                        pivots[rank], rank = pivot, rank + 1
                        if rank == k:
                            break
            return reduced

        compiled = linalg.arrival_step(field)
        with numpy_only:
            fallback = linalg.arrival_step(field)
        assert decode(compiled).tobytes() == decode(fallback).tobytes()
        failures += ratio_gate(
            f"native / numpy arrival steps, {decodes} k={k} decode(s) at p={p}",
            lambda: decode(compiled), lambda: decode(fallback), budget,
            "is every arrival passing its pointers again, or has the "
            "decoder's step gone back to the numpy body?",
        )
    return failures


def gate_batched() -> int:
    """The batched engine / the per-peer reference loop at n=128.

    Whole-matrix allocation is an order of magnitude over the oracle it
    is bit-identical to (0.03x with the compiled kernels, 0.1x on the
    numpy fallback).
    """
    import bench_sim_scaling as scaling

    def slot_seconds(engine):
        return lambda: scaling.seconds_per_slot(128, engine, slots=60, reps=1)

    return ratio_gate(
        "batched / reference slot, n=128 saturated",
        slot_seconds("batched"), slot_seconds("reference"), 0.3,
        "is a per-peer python loop back in the batched step?", reps=5,
    )


def gate_credit_fold() -> int:
    """The batched slot's credit fold on a half-requesting slot / the same
    fold with every peer requesting, n = 1024 (``sim_dense``'s n).

    The fold takes the slot's compact grant block ``M`` (every giver x
    the requesters ``R``) and credits the requesters' ledger rows only:
    half the rows here, from a block half as wide.  The operands are
    the engine's int64 byte ledger and grants.  Each side is the mean of
    8 calls.  Skipped, with the loader's reason, where the kernels are
    not live.

    Three runs on a 2 vCPU host (2026-10-18) read 0.58, 0.68 and 0.73x,
    as the masked whole-matrix fold it replaced did (0.51-0.68x); that
    fold with every row folded read 0.95-1.06x.  The budget stays 0.8x.
    """
    import numpy as np

    from repro import native
    from repro.sim import fastpath

    kernels = fastpath.load()
    if kernels is None:
        print(f"credit fold: kernels not live ({native.status()['fastalloc']}); skipped")
        return 0
    n = 1024
    rng = np.random.default_rng(0)
    ledger = rng.integers(0, 1 << 40, (n, n))

    def fold(req):
        R = np.flatnonzero(req)
        M = rng.integers(0, 1 << 17, (n, R.size))
        sums = np.empty(R.size, dtype=np.int64)

        def run() -> float:
            start = time.perf_counter()
            for _ in range(8):
                kernels.ledger_tadd(ledger, M, R, 1.0, sums)
            return (time.perf_counter() - start) / 8
        return run

    return ratio_gate(
        "credit fold, half / all peers requesting, n=1024",
        fold(rng.random(n) < 0.5), fold(np.ones(n, dtype=bool)), 0.8,
        "is the fold crediting non-requesters' rows again?",
    )


def gate_dense_slot() -> int:
    """A batched slot with half the peers requesting / the same slot with
    every peer requesting, n = 1024 Equation (2) peers (``sim_dense``'s
    shape without its free riders).

    The slot's grants are one compact block (every giver x ``R``), so
    its rows, fold and rates cost about ``|R| / n`` of a full slot; a
    kernel that writes or reads whole ``n``-wide rows again reads about
    1x.  Each side is the mean of a 16-slot ``run(history="none")`` on
    one simulation per side, warmed by one pass.

    Three runs on a 2 vCPU host (2026-10-18) read 0.44, 0.47 and 0.48x
    (0.50x on the numpy fallback); the masked whole-row kernels it
    replaced read 0.88 and 0.90x.  The 0.7x budget is 1.46x above the
    largest reading and 0.8 of the least a regression read.
    """
    from repro.core import PeerwiseProportionalAllocator
    from repro.sim import BernoulliDemand, PeerConfig, Simulation

    def slot(gamma):
        sim = Simulation([
            PeerConfig(capacity=100.0 + (i % 32) * 25.0, demand=BernoulliDemand(gamma),
                       allocator=PeerwiseProportionalAllocator())
            for i in range(1024)
        ], seed=3, engine="batched")
        sim.run(16, history="none")

        def run() -> float:
            start = time.perf_counter()
            sim.run(16, history="none")
            return (time.perf_counter() - start) / 16
        return run

    return ratio_gate(
        "batched slot, half / all peers requesting, n=1024",
        slot(0.5), slot(1.0), 0.7,
        "does the batched slot write or read whole n-wide grant rows again?",
    )


def gate_sparse() -> int:
    """The sparse engine / a dense slot frozen here, per slot, on an
    n = 2048 cohort population (16 givers, 64 request cohorts, so
    |R| ~ 32).

    Per-slot work that follows the active cohort, not ``n x n``: the
    population shape the sparse engine exists for.  The reference is
    spelled out here and frozen, as ``gate_screen``'s is, so a faster
    batched engine does not move it: the batched slot as it was before
    its grants became a compact block, on its numpy body — every row of
    a reused ``(n, n)`` int64 grant matrix rewritten (Equation (2) at
    the requesters, zero elsewhere), the whole matrix folded
    transposed into the ledger in 128-row strips, and its column sums
    taken.  Each side is the mean over 24 slots.

    Three runs on a 2 vCPU host (2026-10-18) read 0.0068, 0.0090 and
    0.0095x (0.013x on the numpy fallback), the frozen side ~34.5 ms a
    slot; one ``demand.sample`` per peer planted in
    ``ShardKernel.sample`` read 0.113 and 0.12x.  The 0.05x budget is
    5.3x above the largest reading and 0.44 of the least the plant read.
    """
    import bench_sim_scaling as scaling
    import numpy as np

    from repro.core.apportion import BYTES_PER_KBIT, eq2_grants, rate_bytes

    n, givers, cohorts, slots = 2048, 16, 64, 24
    caps = np.zeros(n, dtype=np.int64)
    caps[:givers] = rate_bytes(1024.0)
    cohort = np.arange(n) % cohorts
    ledger = np.zeros((n, n), dtype=np.int64)
    grants = np.empty_like(ledger)
    rates = np.empty(n)

    def dense() -> float:
        ledger[:] = 0
        start = time.perf_counter()
        for t in range(slots):
            R = givers + np.flatnonzero(cohort[: n - givers] == t % cohorts)
            grants[:] = 0
            grants[:, R] = eq2_grants(caps, ledger[:, R])
            for lo in range(0, n, 128):
                ledger[:, lo:lo + 128] += grants[lo:lo + 128].T
            np.divide(grants.sum(axis=0), BYTES_PER_KBIT, out=rates)
        return (time.perf_counter() - start) / slots

    return ratio_gate(
        "sparse slot / frozen dense slot, n=2048 in 64 cohorts",
        lambda: scaling.sparse_slot_stats(n, slots=slots, reps=1, engine="sparse")[0],
        dense, 0.05,
        "is a dense ledger row or a per-peer python step back in the sparse slot?",
        reps=3,
    )


def gate_sparse_sample() -> int:
    """One time block of ``ShardKernel.sample`` / the ``(block, n)``
    scatter it replaced, n = 10^5 in 64 cohorts (a 74-slot block).

    The kernel samples per class: one ``sample_block`` per cohort into a
    ``(block, 65)`` table, then each slot's requesters gathered from the
    requesting classes' members.  The reference is spelled out here and
    frozen, as ``gate_screen``'s is: the same cohort draws scattered by
    fancy index over every member's column of ``(block, n)`` tables,
    each slot's rows then read as views.  Both sides start a fresh block
    every rep, and their first block is asserted equal (the kernel's
    compact requesters expanded to the dense vectors).
    """
    import numpy as np

    from repro.sim import sparse_population_sim

    sim = sparse_population_sim(n=100_000, cohorts=64, givers=16, slots=8192, engine="sparse")
    kernel = sim._shards.kernel
    block, n = kernel._block, kernel.n
    demands, capacities = {}, {}
    for i, config in enumerate(sim.configs):
        demands.setdefault(id(config.demand), (config.demand, []))[1].append(i)
        capacities.setdefault(id(config.capacity), (config.capacity, []))[1].append(i)
    demands = [(demand, np.asarray(rows)) for demand, rows in demands.values()]
    capacities = [(capacity, np.asarray(rows)) for capacity, rows in capacities.values()]
    req_block = np.empty((block, n), dtype=bool)
    cap_block = np.empty((block, n))
    starts = {"classes": 0, "scatter": 0}

    def classes():
        t0 = starts["classes"]
        starts["classes"] += block
        return [kernel.sample(t) for t in range(t0, t0 + block)]

    def scatter():
        t0 = starts["scatter"]
        starts["scatter"] += block
        for demand, rows in demands:
            req_block[:, rows] = demand.sample_block(t0, block, None)[:, None]
        for capacity, rows in capacities:
            cap_block[:, rows] = capacity.values(t0, block)[:, None]
        return [(req_block[off], cap_block[off]) for off in range(block)]

    def expanded(t):
        requesting = np.zeros(n, dtype=bool)
        requesting[kernel.sample(t)] = True
        return requesting, kernel.vectors()[1]

    assert all(
        a.tobytes() == b.tobytes()
        for t, want in enumerate(scatter())
        for a, b in zip(expanded(t), want)
    )
    starts["classes"] = starts["scatter"]
    return ratio_gate(
        f"sample by class / (block, n) scatter, one {block}-slot block, n={n} in 64 cohorts",
        classes, scatter, 0.7,
        "are the prefetch tables (block, n) again, or is a cohort's value "
        "written over each member's column?",
    )


def gate_sparse_slot() -> int:
    """One 64-slot cohort rotation of the shard kernel at n = 10^5 in 64
    cohorts, 16 givers / the same slots with the dense selection the
    kernel had before the member table, spelled out here and frozen.

    Both sides run whole slots — sample, Equation (2) through the same
    ``_eq2_block``, credit — on twin simulations.  The subject selects
    from class rows: requesters from the requesting classes' members,
    givers and their capacities from the positive-capacity classes'.
    The reference spreads the class rows into two 10^5-peer vectors
    through ``class_of``, ``flatnonzero``s the request vector twice (the
    engine and the kernel each did) and masks every eq2 row's capacity.
    The first rotation's ``(R, act, M)`` are asserted equal.  Skipped,
    with the loader's reason, where the sparse kernels are not live: the
    numpy Eq. (2) rows took ~0.35 s a slot here when this gate was
    written, which no selection cost could show through.

    On a 2 vCPU host (2026-10-20), with the givers read from the giver
    plan, the gate read 0.169-0.176x over three runs; the parent tree,
    which selected its givers every slot, read 0.27-0.30x over three
    (0.54-0.70x when the gate was written, before the member table
    and the compiled credit).  The frozen side takes its capacities to
    bytes itself, as ``_eq2_block`` did before it took bytes.
    """
    import numpy as np

    from repro import native
    from repro.core.apportion import rate_bytes
    from repro.sim import fastpath, sparse_population_sim
    from repro.sim.shard import column_sums

    if fastpath.load() is None:
        print(f"sparse slot selection: kernels not live "
              f"({native.status()['fastalloc']}); skipped")
        return 0

    def twin():
        sim = sparse_population_sim(n=100_000, cohorts=64, givers=16, slots=8192, engine="sparse")
        return sim._shards.kernel

    subject_kernel, frozen_kernel = twin(), twin()
    eq2 = np.arange(frozen_kernel.n, dtype=np.int64)  # every peer is an eq2 row
    row_of = frozen_kernel._row_of()  # store rows are in member-table order
    starts = {"subject": 0, "frozen": 0}

    def finish(kernel, t, R, act, M):
        kernel.credit(t, act, R, M, column_sums(M), 1.0, True)
        return R, act, M

    def subject_slot(t):
        R = subject_kernel.sample(t)
        act, M = subject_kernel.alloc(t, R)
        return finish(subject_kernel, t, R, act, M)

    def frozen_slot(t):
        k = frozen_kernel
        k.sample(t)
        requesting = k._req_row.take(k._class_of)
        capacities = k._cap_row.take(k._class_of)
        for _ in ("engine", "kernel"):  # each took its own flatnonzero
            R = np.flatnonzero(requesting).astype(np.int64, copy=False)
        act = eq2[capacities[eq2] > 0.0] if R.size else eq2[:0]
        M = np.empty((act.size, R.size), dtype=np.int64)
        k._eq2_block(
            row_of[act], np.arange(act.size, dtype=np.int64), R,
            rate_bytes(np.ascontiguousarray(capacities[act])), M,
        )
        return finish(k, t, R, act, M)

    def rotation(name, slot):
        def run() -> float:
            t0 = starts[name]
            starts[name] += 64
            start = time.perf_counter()
            for t in range(t0, t0 + 64):
                slot(t)
            return time.perf_counter() - start
        return run

    for t in range(64):
        assert all(
            a.tobytes() == b.tobytes() for a, b in zip(subject_slot(t), frozen_slot(t))
        )
    starts["subject"] = starts["frozen"] = 64
    return ratio_gate(
        "sparse slot, class-row selection / frozen dense selection, n=100000 in 64 cohorts",
        rotation("subject", subject_slot), rotation("frozen", frozen_slot), 0.8,
        "is a per-peer vector built per slot again (a take through class_of, "
        "a flatnonzero over n, a capacity mask over every eq2 row)?", reps=15,
    )


def gate_sparse_run() -> int:
    """One 64-slot ``history="none"`` run of ``sim_sparse``'s population
    (n = 10^5 in 64 cohorts, 16 givers) / the same run with the giver
    selection and run sums the kernel had before its giver plan, spelled
    out here and frozen.

    Both sides drive the same kernel phases on twin simulations after
    two warm rotations.  The subject is ``Simulation.run``: givers from
    the plan built once for the constant class capacity row, kernel
    arguments bound, and the kernel's own sums returned.  The reference
    selects the givers every slot as the kernel did: for each of the
    eq2 and eq3 kinds, the members of the positive-capacity classes'
    cells (an ``arange`` of rows, ids offset by ``lo``) and their
    capacities through ``class_of``; then one concatenate, a stable
    argsort, the rows' positions in ``M``, ``M`` in storage kept across
    slots, the capacities converted to bytes and the Equation (2) call
    with every array converted.  It then credits through the kernel and
    allocates a second set of n-sized sums into which the kernel's are
    placed.  The first pair's summaries are asserted equal bit for bit.
    15 pairs.  Skipped, with the loader's reason, where the kernels are
    not live.

    On a 2 vCPU host (2026-10-20) the gate read 0.72-0.75x over three
    runs (0.70-0.74x over four while a schedule's time block still
    clipped every interval); on the parent tree, where the subject
    still selected its givers every slot and the engine placed the
    sums, the same gate read 1.00-1.07x over five.  The 0.85x budget is
    1.13x above the largest reading and 0.85 of the least the parent
    read.
    """
    import numpy as np

    from repro import native
    from repro.core.apportion import rate_bytes
    from repro.core.fairness import jain_index
    from repro.sim import StreamingMetrics, fastpath, sparse_population_sim
    from repro.sim.shard import column_sums

    kernels = fastpath.load()
    if kernels is None:
        print(f"sparse run: kernels not live ({native.status()['fastalloc']}); skipped")
        return 0
    n, cohorts, slots = 100_000, 64, 64

    def twin():
        sim = sparse_population_sim(n=n, cohorts=cohorts, givers=16, slots=8192, engine="sparse")
        sim.run(2 * cohorts, history="none")
        return sim

    subject_sim, frozen_sim = twin(), twin()
    k = frozen_sim._shards.kernel
    storage = [np.empty(0, dtype=np.int64)]

    def gather(cells):
        starts = k._cells[cells]
        lens = k._cells[cells + 1] - starts
        full = np.flatnonzero(lens)
        assert full.size <= 1  # sim_sparse's givers are one class
        start = int(starts[full[0]]) if full.size else 0
        stop = start + (int(lens[full[0]]) if full.size else 0)
        rows = np.arange(start, stop, dtype=np.int64)
        return np.add(k._members[start:stop], k.lo, dtype=np.int64), rows

    def frozen_alloc(R):
        classes = np.flatnonzero(k._cap_row > 0.0) * 3  # three allocator kinds
        givers = []
        for kind in (0, 1):  # eq2, eq3
            act, rows = gather(classes + kind)
            givers.append((act, rows, k._cap_row[k._class_of[act - k.lo]]))
        (act2, rows2, caps2), (act3, _, _) = givers
        cat = np.concatenate([act2, act3, np.asarray([], dtype=np.int64)])
        order = np.argsort(cat, kind="stable")
        act = np.ascontiguousarray(cat[order])
        rowpos = np.empty(cat.size, dtype=np.int64)
        rowpos[order] = np.arange(cat.size, dtype=np.int64)
        size = cat.size * R.size
        if storage[0].size < size:
            storage[0] = np.empty(size, dtype=np.int64)
        M = storage[0][:size].reshape(cat.size, R.size)
        kernels.sparse_rows_eq2(k.store, rows2, rowpos[: act2.size], R, rate_bytes(caps2), M)
        assert not act3.size  # no Equation (3) givers
        return act, M

    def frozen_run() -> dict:
        k.begin_metrics(slots)
        jain = []
        for _ in range(slots):
            t = frozen_sim._t
            R = k.sample(t)
            act, M = frozen_alloc(R)
            rates = column_sums(M)
            k.credit(t, act, R, M, rates, 1.0, True)
            jain.append(jain_index(rates) if R.size else 1.0)
            frozen_sim._t += 1
        metrics = StreamingMetrics(n, slots)
        metrics.place(0, k.end_metrics())
        metrics.jain = jain
        return metrics.summary()

    def digest(summary) -> bytes:
        return b"".join(np.asarray(v).tobytes() for v in summary.values())

    assert digest(subject_sim.run(slots, history="none").summary) == digest(frozen_run())
    return ratio_gate(
        f"sparse run, giver plan / frozen per-slot selection, {slots} slots, "
        f"n={n} in {cohorts} cohorts",
        lambda: subject_sim.run(slots, history="none"), frozen_run, 0.85,
        "are the givers selected every slot again, the kernels' arguments "
        "converted per call, or the run's sums copied into a second set?", reps=15,
    )


def gate_sparse_rows() -> int:
    """One native Equation (2) call / the numpy rows it replaced, at
    ``sim_sparse``'s shape: 16 givers, 1,563 requesters at stride 64,
    n = 10^5.

    The reference is spelled out here and frozen, as ``gate_screen``'s
    is, so a faster fallback does not move it: the float rows of the
    engine before its ledgers were whole bytes, each row's weights (the
    counts over the 1e-6 background) totalled by a pure-Python replay
    of numpy's pairwise summation over the dense extent, then scaled
    and checked against the capacity by the same replay.  Two cells.
    *Cold*: the givers' ledgers hold no entry at any requester (every
    slot of ``sim_sparse``), so the kernel computes one row per distinct
    capacity and copies the rest.  *Warm*: each giver holds an entry at
    every requester, so no row is copied.  The kernel's ``M`` is first
    asserted equal to today's numpy rows.  The kernel side is the mean
    of 40 calls.  Skipped, with the loader's reason, where the sparse
    kernels are not live.  The givers' store rows are the kernel's own
    (member-table positions, not ids).

    On a 2 vCPU host (2026-10-19) the cells read 0.000087-0.000098x and
    0.00031-0.00036x over four runs.
    """
    import numpy as np

    from repro import native
    from repro.core.apportion import rate_bytes
    from repro.sim import fastpath, sparse_population_sim
    from repro.sim.shard import numpy_eq2_rows

    if fastpath.load() is None:
        print(f"sparse Eq. (2) rows: kernels not live "
              f"({native.status()['fastalloc']}); skipped")
        return 0
    kernel = sparse_population_sim(
        n=100_000, cohorts=64, givers=16, slots=8192, engine="sparse"
    )._shards.kernel
    R = kernel.sample(0)
    plan = kernel._giver_plan()
    act, rows_act, caps = plan.act2, plan.rows2.array, plan.kbps2
    caps_bytes = rate_bytes(caps)
    rowpos = np.arange(act.size, dtype=np.int64)
    M = np.empty((act.size, R.size), dtype=np.int64)
    M_float = np.empty(M.shape)
    n = kernel.n

    def pairwise(pos, val, off, length) -> float:
        if pos.size == 0:
            return 0.0
        if length < 8:
            res = 0.0
            for v in val.tolist():
                res += v
            return res
        if length <= 128:
            lim = length - length % 8
            rel = pos - off
            k = int(np.searchsorted(rel, lim))
            r = [0.0] * 8
            for q, v in zip(rel[:k].tolist(), val[:k].tolist()):
                r[q & 7] += v
            res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for v in val[k:].tolist():
                res += v
            return res
        half = length // 2
        half -= half % 8
        split = int(np.searchsorted(pos, off + half))
        return pairwise(pos[:split], val[:split], off, half) + pairwise(
            pos[split:], val[split:], off + half, length - half
        )

    def frozen() -> float:
        start = time.perf_counter()
        store = kernel.store
        for i, cap, p in zip(rows_act.tolist(), caps.tolist(), rowpos.tolist()):
            w = store.row_at(i, R) + 1e-6
            row = cap * w / pairwise(R, w, 0, n)
            total = pairwise(R, row, 0, n)
            if total > cap:
                row *= cap / total
            M_float[p] = row
        return time.perf_counter() - start

    def rows(calls: int):
        def run() -> float:
            start = time.perf_counter()
            for _ in range(calls):
                kernel._eq2_block(rows_act, rowpos, R, caps_bytes, M)
            return (time.perf_counter() - start) / calls
        return run

    failures = 0
    for cell, budget in (("cold", 0.0008), ("warm", 0.0014)):
        if cell == "warm":
            rng = np.random.default_rng(0)
            for i in rows_act.tolist():
                kernel.store.add_compact(i, R, rng.integers(1, 1 << 20, R.size))
        want = np.empty_like(M)
        numpy_eq2_rows(kernel.store, rows_act, rowpos, R, caps_bytes, want)
        rows(1)()
        assert M.tobytes() == want.tobytes()
        failures += ratio_gate(
            f"native / frozen numpy Eq. (2) rows, {cell}, 16 givers x {R.size} "
            f"requesters, n=100000",
            rows(40), frozen, budget,
            "is a row gathered or apportioned per requester in python, a "
            "pthread started per call, or (cold) a cold row computed more "
            "than once?", reps=5,
        )
    return failures


def gate_sparse_credit() -> int:
    """The steady-state ``sim_sparse`` credit phase's two compiled passes
    / the same credit frozen here in numpy, n = 10^5 in 64 cohorts, 16
    givers.

    Two rotations in, every requester's ledger row holds exactly the 16
    active givers, so each row takes the native scatter's exact-row
    path.  The reference is spelled out here and frozen, as
    ``gate_sparse``'s is: the same credit in numpy.  Two cells.
    *Scatter*: ``ShardKernel._scatter`` of one captured slot's ``M`` into
    the store rows its sample kept, 40 calls, against the requesters'
    rows of a value table gaining ``M.T``.  *Fold*: ``ClassFold.fold`` over a rotation of 64
    captured slots, each peer's sums visited once a rotation as in a
    run, against the fold's numpy body as it stood before the rate sums
    were compiled (rate and gain sums by fancy index, the class-sized
    sums).  15 pairs a cell.  Skipped, with the loader's reason, where
    the kernels are not live.

    On a 2 vCPU host (2026-10-19), with the store in member-table order
    (a slot's requesters one run of rows), the scatter cell read
    1.41-1.74x and the fold cell 0.62-0.75x over four runs; with the
    store in id order they read 1.46-2.06x over thirteen (the kernel is
    bound by cache misses, so a busy host moves it more than the numpy
    side) and 0.61-0.78x over fifteen.  With the exact-row shortcut
    planted out (every row through the two-walk merge) the scatter cell
    read 3.77-4.73x over seven; with the rate sums back on numpy the
    fold cell read 0.91-0.95x.  The budgets, 2.7x and 0.85x, are 1.31x
    and 1.09x above the largest readings and 0.72 and 0.94 of the least
    a plant read.
    """
    import numpy as np

    from repro import native
    from repro.sim import fastpath, sparse_population_sim
    from repro.sim.shard import column_sums

    if fastpath.load() is None:
        print(f"sparse credit: kernels not live ({native.status()['fastalloc']}); skipped")
        return 0
    sim = sparse_population_sim(n=100_000, cohorts=64, givers=16, slots=8192, engine="sparse")
    kernel = sim._shards.kernel
    sim.run(128, history="none")
    slots = []
    for t in range(128, 192):
        R = kernel.sample(t)
        act, M = kernel.alloc(t, R)
        req_row, cap_row, rows, _, _ = kernel._uncredited.pop(t)
        slots.append((t, R - kernel.lo, rows, act, M, column_sums(M), (req_row, cap_row)))
    kernel.begin_metrics(1 << 20)
    fold = kernel._metrics
    _, _, rows, act, M, _, _ = slots[0]
    table = np.zeros((rows.size, act.size), dtype=np.int64)
    rate_sum, gain_sum = np.zeros((2, kernel.hi - kernel.lo))
    requests = np.zeros(kernel.classes, dtype=np.int64)
    capacity, isolation = np.zeros((2, kernel.classes))
    class_of = kernel._class_of
    calls = 40

    def scatter_slot() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            kernel._scatter(kernel.store, act, rows, M, 1.0)
        return (time.perf_counter() - start) / calls

    def frozen_slot() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            table[:] += M.T
        return (time.perf_counter() - start) / calls

    def fold_rotation() -> float:
        start = time.perf_counter()
        for t, local, _, _, _, rates, (req_row, cap_row) in slots:
            fold.fold(t, local, rates, req_row, cap_row)
        return time.perf_counter() - start

    def frozen_rotation() -> float:
        start = time.perf_counter()
        for _, local, _, _, _, rates, (req_row, cap_row) in slots:
            rate_sum[local] += rates
            gain_sum[local] += rates - cap_row[class_of[local]]
            requests[:] += req_row
            capacity[:] += cap_row
            isolation[:] += np.where(req_row, cap_row, 0.0)
        return time.perf_counter() - start

    failures = 0
    for cell, subject, frozen, budget, hint in (
        ("scatter", scatter_slot, frozen_slot, 2.7,
         "do rows holding exactly the active givers go through the merge again?"),
        ("fold", fold_rotation, frozen_rotation, 0.85,
         "are the per-peer rate sums folded by numpy scatter-adds again?"),
    ):
        failures += ratio_gate(
            f"sparse credit / frozen numpy credit, {cell}, steady state, "
            f"n=100000 in 64 cohorts", subject, frozen, budget, hint, reps=15,
        )
    return failures


def gate_sparse_layout() -> int:
    """One 64-slot rotation of ``sim_sparse``'s population (cohort
    ``i mod 64``, so a cohort's members are 64 ids apart) / the same
    rotation of the same population listed cohort by cohort, n = 10^5,
    16 givers.

    The two populations do the same work: equal cohort sizes, equal
    schedules, one giver class; only the id order differs.  The shard
    kernel keeps its ledger store in member-table order, so a slot's
    requesters are one run of store rows in both, and only the
    per-peer sums the metrics fold reads by id stay strided.  Each side
    is a ``history="none"`` run of one rotation after two warm
    rotations, so every requester's row already holds the 16 givers.
    15 pairs.  Skipped, with the loader's reason, where the kernels are
    not live.

    On a 2 vCPU host (2026-10-19) the gate read 1.085-1.169x over seven
    runs; what is left is the fold's strided sums.  With the store
    indexed by id (a slot's requesters 64 rows apart) it read
    1.257-1.322x over four.  The 1.22x budget is 1.04x above the largest
    reading and 0.97 of the least the id-indexed store read.
    """
    from repro import native
    from repro.sim import Simulation, fastpath, sparse_population_sim

    if fastpath.load() is None:
        print(f"sparse layout: kernels not live ({native.status()['fastalloc']}); skipped")
        return 0
    n, cohorts, givers, slots = 100_000, 64, 16, 8192
    strided = sparse_population_sim(n=n, cohorts=cohorts, givers=givers, slots=slots, engine="sparse")
    configs = strided.configs
    # A cohort's schedule starts at its index; the sort is stable, so
    # each cohort keeps its members' order.
    by_cohort = sorted(configs[givers:], key=lambda c: c.demand.intervals[0][0])
    listed = Simulation(configs[:givers] + by_cohort, engine="sparse")
    for sim in (strided, listed):
        sim.run(2 * cohorts, history="none")

    def rotation(sim):
        def run() -> float:
            start = time.perf_counter()
            sim.run(cohorts, history="none")
            return time.perf_counter() - start
        return run

    return ratio_gate(
        f"sparse rotation, cohorts 64 ids apart / listed cohort by cohort, n={n}",
        rotation(strided), rotation(listed), 1.22,
        "are a slot's requesters strided store rows again (the ledger store "
        "indexed by id, not by member-table position)?", reps=15,
    )


def gate_recombine() -> int:
    """Repair recombination / ``encode_ids`` of as many fresh messages.

    ``bench_repair.py``'s claim at its own point (GF(2^16), m=2^12, 16
    helpers -> 8 messages): minting from survivors costs on the order of
    an encode (one matmul plus a screened recombination matrix), not of
    a decode.
    """
    from bench_repair import COUNT, HELPERS, M, P, setup_point

    from repro.repair import recombine
    from repro.rlnc import FileEncoder

    encoder, source, stored, record = setup_point()
    ids = list(range(HELPERS, HELPERS + COUNT))

    def mint():
        return recombine(record, stored)

    def encode():
        # A fresh encoder per call: recombine derives its matrix inside
        # the timed region, so the coefficient rows are derived here too.
        fresh = FileEncoder(encoder.params, secret=b"bench", file_id=record.file_id)
        return fresh.encode_ids(source, ids)

    assert len(mint()) == len(encode()) == COUNT  # and warm the kernels
    return ratio_gate(
        f"recombine / encode_ids, {COUNT} messages at p={P} m={M}", mint, encode, 8.0,
        "is recombination still one matmul over the stored payloads?",
    )


def gate_sign() -> int:
    """``PrivateKey.sign`` / the full-width ``digest ** d mod n`` it equals.

    The handshake's one expensive step, at the bench's 512-bit key: two
    half-width CRT powers plus the public-exponent check measure ~0.4x,
    a revert 0.99x.  (Deriving dp/dq/qinv per call costs +0.04x and stays
    under the budget; tests/security/test_keys.py fails on that instead.)
    """
    import hashlib

    from repro.security import generate_keypair

    key = generate_keypair(bits=512, seed=31).private
    message = b"repro-auth|" + bytes(32)
    rounds = range(200)

    def crt():
        for _ in rounds:
            signature = key.sign(message)
        return signature

    def full_width():
        for _ in rounds:
            digest = int.from_bytes(hashlib.sha256(message).digest(), "big") % key.n
            signature = pow(digest, key.d, key.n)
        return signature

    assert crt() == full_width()
    return ratio_gate(
        "sign / pow(digest, d, n), 512-bit key", crt, full_width, 0.6,
        "did sign go back to a full-width exponentiation, or is its self-check "
        "one (it should be the public exponent's)?",
    )


def gate_modexp() -> int:
    """``PrivateKey.sign`` on the compiled Montgomery kernel / the same
    sign with the kernel forced off (both halves on builtin ``pow``).

    512-bit key, the bench's: a sign is ~85 us against ~420 us, and the
    gate reads 0.21-0.23x.  One half back on ``pow`` would read ~0.6x and
    a revert 1.0x; the 0.45x budget sits between the reading and both.
    ``gate_sign`` (sign / a full-width ``pow``) keeps its own budget.
    Skipped, with the loader's reason, where the kernel is not live.
    """
    from unittest import mock

    from repro import native
    from repro.security import generate_keypair, modexp

    if modexp.load() is None:
        print(f"sign on the modexp kernel / on pow: kernel not live "
              f"({native.status()['modexp']}); skipped")
        return 0
    key = generate_keypair(bits=512, seed=31).private
    message = b"repro-auth|" + bytes(32)
    pow_only = mock.patch.dict(native._LOADED, {"modexp": (None, "perf smoke A/B")})
    rounds = range(200)

    def compiled():
        for _ in rounds:
            signature = key.sign(message)
        return signature

    def fallback():
        with pow_only:
            return compiled()

    assert compiled() == fallback()
    return ratio_gate(
        "sign on the modexp kernel / on pow, 512-bit key", compiled, fallback, 0.45,
        "are the CRT halves back on builtin pow, or is the kernel's window "
        "or Montgomery product doing more work per bit?",
    )


def gate_peer_path() -> int:
    """A peer's whole job / one unpack + one pack of the same records.

    ``load_dat`` + ``serve(inf)`` + ``encode_frame`` of one 64-message
    bundle at p=8 (4 KiB messages) slices and joins packed bytes: ~0.55x
    of reading the same file and converting every record to symbols and
    back once, which the store used to do at load and again per frame.
    One unpack per record back in ``load_dat`` reads 1.0-1.1x.
    """
    import tempfile

    from repro.rlnc import CodingParams, FileEncoder
    from repro.rlnc.symbols import bytes_to_symbols, symbols_to_bytes
    from repro.security import generate_keypair
    from repro.storage import MessageStore
    from repro.transfer import DownloadSession, ServingSession, encode_frame

    params = CodingParams(p=8, m=1 << 12, file_bytes=1 << 18)  # k = 64
    encoder = FileEncoder(params, secret=b"bench", file_id=5)
    bundle = encoder.encode_bundles(os.urandom(params.file_bytes), 1).bundles[0]
    keys = generate_keypair(bits=512, seed=31)
    with tempfile.TemporaryDirectory() as tmp:
        store = MessageStore()
        store.add_messages(bundle)
        (path,) = store.save_dat(tmp)
        record = bundle[0].wire_size()

        def peer() -> float:
            start = time.perf_counter()
            restarted = MessageStore()
            restarted.load_dat(path, p=params.p, m=params.m)
            loaded = time.perf_counter() - start
            # The handshake is two RSA operations, several times the rest:
            # it is gate_sign's subject and stays outside this one.
            serving = ServingSession(restarted, keys.public)
            DownloadSession(keys).handshake(serving, encoder.file_id)
            start = time.perf_counter()
            frames = [encode_frame(data) for data in serving.serve(float("inf"))]
            assert len(frames) == params.k
            return loaded + time.perf_counter() - start

        def through_symbols():
            # As the store used to: the same one read, every record
            # unpacked at load and held, each packed again to be framed.
            with open(path, "rb") as fh:
                view = memoryview(fh.read())
            held = [
                bytes_to_symbols(view[off + 16 : off + record], params.p)
                for off in range(0, len(view), record)
            ]
            return [symbols_to_bytes(symbols, params.p) for symbols in held]

        # and warm both
        assert through_symbols() == [bytes(msg.payload_bytes()) for msg in bundle]
        peer()
        return ratio_gate(
            f"peer load_dat + serve + frame / unpack + pack, {params.k} messages "
            f"at p={params.p} m={params.m}", peer, through_symbols, 0.7,
            "a peer is unpacking symbols again", reps=15,
        )


def gate_arrival() -> int:
    """An arrival's reduction: ``field.combine`` / the product it replaced.

    ``ProgressiveDecoder`` clears the kept pivots from an arriving row
    with one trusted kernel call.  The reference is spelled out here and
    frozen, so no change to ``field.mul`` moves it: both operands through
    the validating ``asarray``, then ``expz[logz[a] + logz[x]]`` by fancy
    index — what ``mul`` was when the arrival path still called it.
    Half-way through a k = 64 decode: 32 kept rows, 2k = 128 wide.
    Reads 0.39-0.45x at p=8 (the flat table: one gather) and 0.57-0.64x
    at p=16 (three); with ``_product`` range-scanning its operands
    0.68-0.70x and 0.82-0.88x, with ``table[index]`` in place of ``take``
    0.59x and 0.81-0.83x.  Each budget sits between its cell's reading
    and the nearer regression.
    """
    import numpy as np

    from repro.gf import GF

    failures = 0
    rng = np.random.default_rng(0)
    rounds = range(200)  # one call is ~10 us: time a few hundred
    for p, budget in ((8, 0.52), (16, 0.72)):
        field = GF(p)
        logz, expz = field._logz, field._expz  # the tables only; the gathers are below
        factors, kept = field.random(32, rng), field.random((32, 128), rng)

        def trusted():
            for _ in rounds:
                out = field.combine(factors, kept)
            return out

        def former():
            for _ in rounds:
                a, x = field.asarray(factors[:, None]), field.asarray(kept)
                out = np.bitwise_xor.reduce(expz[logz[a] + logz[x]], axis=0)
            return out

        assert np.array_equal(trusted(), former())  # and warm both
        failures += ratio_gate(
            f"combine / validated fancy-index product, p={p} (32,128)",
            trusted, former, budget,
            "is the arrival's reduction back on the validated path or on "
            "fancy indexing?",
        )
    return failures


def gate_digest() -> int:
    """``DigestStore.record_many`` on the compiled MD5 kernel / a ``record``
    loop on hashlib, over the same batch; then ``verify_many`` / a
    ``verify`` loop the same way.

    The owner's batch is handed over as the owner holds it, one frozen
    ``(count, size)`` block.  At 64 x 128 KiB, ``publish_bulk``'s batch,
    a 16-lane build (AVX-512) reads ~0.13x, an 8-lane one (AVX) ~0.27x
    and a 4-lane one ~0.42x; at 512 x 4 KiB, ``publish_rows``' batch,
    ~0.15x, ~0.27x and ~0.39x.  The user's batch is a decoder's rows at
    rank ``k``, a slice of its records: at 8 x 128 KiB (``fetch_bulk``)
    ~0.19x, ~0.24x and ~0.42x; at 64 x 4 KiB (``fetch_rows``) ~0.14x,
    ~0.26x and ~0.42x.  A batch back on hashlib reads ~1.0x.  A lone row
    (a dependent arrival, a settle before a repair check) stays on
    hashlib: eight one-row ``verify_many`` calls at 128 KiB / eight
    ``verify`` calls read ~1.03x, and ~1.45x with the row on one lane of
    the kernel.  Skipped, with the loader's reason, where the kernel is
    not live.
    """
    import numpy as np

    from repro import native
    from repro.security import DigestStore, integrity

    if integrity.load() is None:
        print(f"record_many on the md5 kernel / record loop: kernel not live "
              f"({native.status()['md5']}); skipped")
        return 0
    failures = 0
    for count, size, budget in ((64, 128 << 10, 0.5), (512, 4 << 10, 0.6)):
        name = f"record_many / record loop, {count} x {size >> 10} KiB"
        block = np.frombuffer(os.urandom(count * size), np.uint8).reshape(count, size)
        ids = range(count)
        store = DigestStore()

        def batched():
            return store.record_many(1, ids, block)

        def looped():
            return [store.record(1, mid, payload) for mid, payload in zip(ids, block)]

        assert batched() == looped()
        failures += ratio_gate(
            name, batched, looped, budget, "is the batch back on hashlib?", reps=15,
        )
    for count, size, budget in ((8, 128 << 10, 0.6), (64, 4 << 10, 0.6)):
        name = f"verify_many / verify loop, {count} x {size >> 10} KiB"
        records = np.frombuffer(os.urandom((count + 1) * size), np.uint8)
        records = records.copy().reshape(count + 1, size)  # + the decoder's work row
        ids = range(count)
        store = DigestStore()
        store.record_many(1, ids, records[:count])

        def batched():
            return store.verify_many(1, ids, records[:count])

        def looped():
            return [store.verify(1, mid, payload) for mid, payload in zip(ids, records)]

        assert batched() == looped() == [True] * count
        failures += ratio_gate(
            name, batched, looped, budget, "is the decoder's batch back on hashlib?", reps=15,
        )
    rows = np.frombuffer(os.urandom(8 << 17), np.uint8).reshape(8, 128 << 10)
    store = DigestStore()
    store.record_many(1, range(8), rows)

    def lone():
        return [store.verify_many(1, [i], rows[i : i + 1]) for i in range(8)]

    def single():
        return [[store.verify(1, i, rows[i])] for i in range(8)]

    assert lone() == single() == [[True]] * 8
    failures += ratio_gate(
        "verify_many / verify, 8 lone rows of 128 KiB", lone, single, 1.25,
        "is a batch of one on the kernel's single lane?", reps=15,
    )
    return failures


def gate_keyed_rows() -> int:
    """``KeyedStream.symbols_many`` on the compiled keyed-stream kernel /
    the same call with the kernel forced off (one hmac/hashlib stream per
    label), over ``publish_rows``' batch: 512 coefficient rows of 64
    symbols at p = 8.

    Each side draws the batch ten times.  A 16-lane build (AVX-512)
    reads 0.048-0.054x, an 8-lane one (AVX) 0.077-0.081x and a 4-lane
    one 0.127-0.133x; the batch back on hashlib reads ~1.0x.  The 0.3x
    budget sits between the 4-lane reading and that.
    Skipped, with the loader's reason, where the kernel is not live.
    """
    from unittest import mock

    from repro import native
    from repro.security import KeyedStream, derive_key, prng

    if prng.load() is None:
        print(f"symbols_many on the keyed-stream kernel / on hashlib: kernel not live "
              f"({native.status()['sha256']}); skipped")
        return 0
    stream = KeyedStream(derive_key(b"perf smoke", "rlnc-coefficients", 1))
    labels = range(512)
    hashlib_only = mock.patch.dict(native._LOADED, {"sha256": (None, "perf smoke A/B")})
    rounds = range(10)

    def compiled():
        for _ in rounds:
            rows = stream.symbols_many(labels, 64, 8)
        return rows

    def fallback():
        with hashlib_only:
            return compiled()

    assert (compiled() == fallback()).all()
    return ratio_gate(
        "symbols_many on the keyed-stream kernel / on hashlib, 512 x 64 B",
        compiled, fallback, 0.3, "are coefficient rows back on hashlib?", reps=15,
    )


GATES = (
    gate_procs, gate_obs, gate_streaming, gate_publish, gate_screen,
    gate_native_matmul, gate_packed_product, gate_gfni_product,
    gate_native_elimination, gate_batched,
    gate_credit_fold,
    gate_dense_slot, gate_sparse,
    gate_sparse_sample, gate_sparse_slot, gate_sparse_run, gate_sparse_rows,
    gate_sparse_credit, gate_sparse_layout,
    gate_recombine, gate_sign,
    gate_modexp, gate_peer_path, gate_arrival, gate_digest, gate_keyed_rows,
)


def main() -> int:
    if sum(gate() for gate in GATES):
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
