"""CI perf-smoke: fifteen timing gates, each a ratio measured in this run.

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
          f"{ratio:.3f}x (budget {budget}x)")
    if ratio > budget:
        print(f"FAIL: {name} is {ratio:.3f}x > {budget}x; {hint}")
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
    ~1.0x.
    """
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

    assert wire(stacked()) == wire(per_peer())  # and warm the kernels
    return ratio_gate(
        f"one {peers}-peer / {peers} x 1-peer publish, p=32 k={params.k}",
        stacked, per_peer, 0.8,
        "is the source packed (or the tables built) once per bundle again?",
    )


def gate_screen() -> int:
    """``is_invertible`` of an eight-block stack / eight per-block reductions.

    The publish screens every peer's ``k`` candidate rows in one forward
    elimination whose column loop all blocks share; block by block — and
    Gauss-Jordan — the same verdicts measure ~1.0x.  At p=8 the reference
    is spelled out here and frozen, as ``gate_arrival``'s is, so no change
    to ``rank`` or the field kernels moves it: Gauss-Jordan per block with
    every product by fancy index on the log/antilog tables.  It reads
    0.31-0.33x there; eight ``rank()`` calls read 0.77-0.80x of it.  The
    p=32 cell's reference is ``rank()`` itself (reads 0.15-0.18x).
    """
    import numpy as np

    from repro.gf import GF, is_invertible, rank

    failures = 0
    rng = np.random.default_rng(0)
    for p, k in ((8, 64), (32, 8)):  # publish_rows and publish_bulk
        field = GF(p)
        blocks = field.random((8, k, k), rng)
        blocks[5, k - 1] = blocks[5, 0]  # one deficient block rides along

        def stacked():
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


def gate_sparse() -> int:
    """The sparse engine / the batched one on an n=2048 cohort population.

    Per-slot work that follows the active cohort, not ``n x n``: the
    population shape the sparse engine exists for.
    """
    import bench_sim_scaling as scaling

    def slot_seconds(engine):
        return lambda: scaling.sparse_slot_stats(2048, slots=24, reps=1, engine=engine)[0]

    return ratio_gate(
        "sparse / batched slot, n=2048 in 64 cohorts",
        slot_seconds("sparse"), slot_seconds("batched"), 0.1,
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
    numpy Eq. (2) rows take ~0.35 s a slot here, which no selection cost
    can show through.
    """
    import numpy as np

    from repro import native
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
    starts = {"subject": 0, "frozen": 0}

    def finish(kernel, t, R, act, M):
        kernel.credit(t, act, R, M, column_sums(M), 1.0, True, False)
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
        M = np.empty((act.size, R.size))
        k._eq2_block(
            act, np.arange(act.size, dtype=np.int64), R,
            np.ascontiguousarray(capacities[act]), M,
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
    """``DigestStore.record_many`` / a ``record`` loop over the same batch.

    The owner hashes a publish batch on every usable CPU.  At 64 x 128 KiB,
    ``publish_bulk``'s batch, that reads 0.54x on two CPUs; the cell is
    skipped, with its reason, on one.  At 512 x 4 KiB, ``publish_rows``'
    batch, the size rule keeps the serial loop (~1.0x): splitting there
    reads 1.20x, which the 1.1x budget catches.
    """
    from repro import native
    from repro.security import DigestStore

    failures = 0
    for count, size, budget in ((64, 128 << 10, 0.75), (512, 4 << 10, 1.1)):
        name = f"record_many / record loop, {count} x {size >> 10} KiB"
        if budget < 1 and native.usable_cpus() == 1:
            print(f"{name}: one usable CPU, nothing to split over; skipped")
            continue
        packed = memoryview(os.urandom(count * size))  # one product, as the owner holds it
        payloads = [packed[i * size : (i + 1) * size] for i in range(count)]
        ids = range(count)
        store = DigestStore()

        def batched():
            return store.record_many(1, ids, payloads)

        def looped():
            return [store.record(1, mid, payload) for mid, payload in zip(ids, payloads)]

        assert batched() == looped()  # and warm the pool
        failures += ratio_gate(
            name, batched, looped, budget,
            "is the batch hashed on one thread again, or are small payloads "
            "handed to the pool?", reps=15,
        )
    return failures


GATES = (
    gate_procs, gate_obs, gate_streaming, gate_publish, gate_screen,
    gate_native_matmul, gate_batched, gate_sparse, gate_sparse_sample,
    gate_sparse_slot, gate_recombine, gate_sign, gate_peer_path, gate_arrival, gate_digest,
)


def main() -> int:
    if sum(gate() for gate in GATES):
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
