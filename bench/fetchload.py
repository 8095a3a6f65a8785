"""Publish and fetch workloads: the paper's file path, owner to peers to user.

Only public calls are composed, in the order the two shipped compositions
use them (``cli.cmd_encode`` / ``cli._download`` and
``FileSharingNetwork.publish`` / ``download``).  A publish operation is the
owner-and-peer half (encode, store, ``save_dat``, peer restart with
``load_dat``, then every peer streams its bundle once as wire frames); a
fetch operation is the user half for one chunk (handshakes, parallel
download through the wire format, digest verification, progressive decode,
``result``).
"""

from __future__ import annotations

import hashlib
import os
from time import perf_counter

import numpy as np

from repro.faults import FaultPlan, FaultyServingSession
from repro.gf import GF, random_invertible, solve
from repro.rlnc import BlockDecoder, ChunkedEncoder, CodingParams, ProgressiveDecoder
from repro.security import DigestStore
from repro.security.keys import generate_keypair
from repro.storage import MessageStore
from repro.transfer import (
    DownloadSession,
    ParallelDownloader,
    RobustPolicy,
    ServingSession,
    SessionCrashed,
    decode_frame,
    encode_frame,
)

from probes import rate

N_PEERS = 8
MIB = float(1 << 20)

#: The paper's operating point: k=8 messages of 128 KiB per 1 MiB chunk,
#: tower field.  Byte-wise GF kernels do the work.
BULK = CodingParams(p=32, m=32768)
#: 8x more rows and 32x smaller messages per byte (k=64, 4 KiB messages,
#: table field): per-message Python overhead does the work.
ROWS = CodingParams(p=8, m=4096, file_bytes=256 * 1024)
#: Small chunks (k=16, 4 KiB messages) so a file is many handshakes and the
#: robust loop, not arithmetic, dominates.
FAULTY = CodingParams(p=16, m=2048, file_bytes=64 * 1024)

#: Faults of ``fetch_faulty``; ``{seed}`` and ``{crash}`` are filled per run.
FAULT_SPEC = "seed={seed};0:pollute@0.5;1:corrupt@1;2:crash@{crash};3:stall@1+7;4:refuse"
FAULT_KINDS = {"polluted", "crashed", "stalled", "refused"}
STALL_TIMEOUT_SLOTS = 5


class FramedSession:
    """A serving session whose messages cross ``transfer.wire`` both ways."""

    def __init__(self, inner, spans, decode: bool = True):
        self._inner = inner
        self._encode = spans.timed("transfer.wire.encode", encode_frame)
        self._decode = spans.timed("transfer.wire.decode", decode_frame) if decode else None
        self.frames = 0
        self.frame_bytes = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _wire(self, served):
        frames = [self._encode(d) for d in served]
        self.frames += len(frames)
        self.frame_bytes += sum(map(len, frames))
        if self._decode is None:
            return frames
        return [self._decode(f) for f in frames]

    def serve(self, byte_budget: float):
        try:
            return self._wire(self._inner.serve(byte_budget))
        except SessionCrashed as exc:
            # What arrived before the cut crossed the wire too.
            raise SessionCrashed(str(exc), delivered=self._wire(exc.delivered)) from None


class _FileWorkload:
    """Inputs made from the seed, and the publish / peer-restart steps."""

    def __init__(self, seed: int, spans, tmp: str, params: CodingParams, n_chunks: int):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.spans = spans
        self.tmp = tmp
        self.params = params
        self.data = rng.bytes(n_chunks * params.file_bytes)
        self.sha = hashlib.sha256(self.data).digest()
        self.secret = rng.bytes(16)
        self.file_id = int(rng.integers(1, 1 << 62))
        self.keys = generate_keypair(bits=512, seed=seed)
        self.field = GF(params.p)
        self.op_bytes = params.file_bytes  # user bytes one operation moves
        self.counts: dict[str, float] = {}
        self.goodputs: set[float] = set()  # one value per distinct fetch outcome

    def count(self, name: str, value: float = 1) -> None:
        if self.spans.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def publish(self, directory: str):
        """Encode, hand every peer its bundle, persist it as ``.dat``."""
        spans = self.spans
        encoder = ChunkedEncoder(self.params, self.secret, self.file_id)
        digests = DigestStore()
        spans.patch(digests, "record", "security.digest_record")
        with spans.span("rlnc.encode"):
            manifest, chunks = encoder.encode_file(self.data, N_PEERS, digests)
        stored = 0
        for peer in range(N_PEERS):
            store = MessageStore()
            with spans.span("storage.add"):
                for encoded in chunks:
                    store.add_messages(encoded.bundles[peer])
            with spans.span("storage.save_dat"):
                store.save_dat(os.path.join(directory, f"peer{peer}"))
            stored += store.total_bytes()
        self.count("rlnc.encode_msgs", N_PEERS * self.params.k * manifest.n_chunks)
        self.count("storage.stored_bytes", stored)
        return encoder, manifest, digests

    def restart_peers(self, directory: str, manifest) -> list[MessageStore]:
        """Every peer comes back up from what it wrote to disk."""
        stores = []
        for peer in range(N_PEERS):
            store = MessageStore()
            peer_dir = os.path.join(directory, f"peer{peer}")
            with self.spans.span("storage.load_dat"):
                for name in sorted(os.listdir(peer_dir)):
                    store.load_dat(os.path.join(peer_dir, name), p=manifest.p, m=manifest.m)
            stores.append(store)
        return stores

    def handshake(self, serving, chunk_id: int, peer: int) -> None:
        """Bounded retry with the defaults ``RobustPolicy`` also carries; a
        peer that never accepts is passed on and classified ``refused``."""
        with self.spans.span("security.auth"):
            _, attempts, _ = DownloadSession(self.keys).handshake_with_retry(
                serving, chunk_id, peer=peer
            )
        self.count("security.auth_n")
        self.count("security.auth_retries", attempts - 1)

    def close(self) -> None:
        pass

    def exhausted(self) -> bool:
        return False

    def fingerprint(self) -> dict:
        return {}

    def layer_metrics(self, busy, count, n_ops) -> tuple[dict[str, float], bool]:
        """Self time (ms) and counts per operation, from the traced rounds."""
        counts = dict(self.counts)
        user_bytes = n_ops * self.op_bytes
        stored = counts.pop("storage.stored_bytes", 0)
        metrics = {f"{name}_ms": s / n_ops * 1e3 for name, s in busy.items() if name != "op"}
        metrics.update({name: value / n_ops for name, value in counts.items()})
        metrics["security.verify_n"] = count.get("security.verify", 0) / n_ops
        if stored:
            metrics["storage.stored_bytes_per_user_byte"] = stored / user_bytes
        if self.goodputs:
            # every fetch of one seed has the same goodput (round() checks it)
            metrics["transfer.scheduler.goodput_ratio"] = max(self.goodputs)
            metrics["rlnc.innovative_ratio"] = counts["rlnc.innovative"] / counts["rlnc.offered"]
        serving = sum(
            busy.get(name, 0.0)
            for name in ("storage.load_dat", "transfer.session.serve", "transfer.wire.encode")
        )
        metrics["transfer.serve_MBps"] = counts["transfer.wire.bytes"] / MIB / serving
        metrics.update(self.probes())
        return metrics, True

    def probes(self) -> dict[str, float]:
        """Layers the harness cannot bracket from outside, at this
        workload's own (p, k, m): ``gf`` under ``rlnc``, the keyed stream
        under the coefficient generator, the digest under ``security``."""
        field, k, m = self.field, self.params.k, self.params.m
        rng = np.random.default_rng(self.seed)
        beta = random_invertible(field, k, rng)
        source = field.random((k, m), rng)
        row = field.random(k + m, rng)
        kept = field.random(k + m, rng)
        block_mib = k * self.params.message_bytes / MIB
        generator = ChunkedEncoder(self.params, self.secret, self.file_id).coefficient_generator(0)
        ids = iter(range(1 << 40, 1 << 41))
        payload = bytes(self.params.message_bytes)
        digests = DigestStore()
        return {
            "gf.matmul_MBps": block_mib * rate(lambda: field.matmul(beta, source)),
            "gf.solve_MBps": block_mib * rate(lambda: solve(field, beta, source)),
            "gf.addmul_MBps": (k + m) * self.params.p / 8 / MIB
            * rate(lambda: field.addmul(row, 3, kept)),
            "security.prng.coeff_rows_per_s": rate(lambda: generator.row(next(ids))),
            "security.md5_MBps": len(payload) / MIB * rate(lambda: digests.record(1, 1, payload)),
        }


class Publish(_FileWorkload):
    """Owner encodes one file for 8 peers; every peer stores it, restarts
    from disk and streams its whole bundle once as wire frames."""

    def __init__(self, seed, spans, tmp, params):
        super().__init__(seed, spans, tmp, params, n_chunks=1)

    def setup(self) -> None:
        # Outputs are checked in full once: peer 0's bundle alone decodes
        # to the input.  Rounds then check counts and frame bytes.
        encoder, manifest, digests = self.publish(os.path.join(self.tmp, "check"))
        stores = self.restart_peers(os.path.join(self.tmp, "check"), manifest)
        chunk_id = manifest.chunk_ids[0]
        messages = stores[0].messages(chunk_id)
        if not all(digests.verify(chunk_id, x.message_id, x.payload_bytes()) for x in messages):
            raise SystemExit("published messages do not match their digests")
        decoded = BlockDecoder(self.params, encoder.coefficient_generator(0)).decode(
            messages, length=len(self.data)
        )
        if decoded != self.data:
            raise SystemExit("published bundle does not decode to the input")

    def round(self):
        self.spans.op += 1
        directory = os.path.join(self.tmp, "round")
        start = perf_counter()
        with self.spans.span("op"):
            _, manifest, _ = self.publish(directory)
            stores = self.restart_peers(directory, manifest)
            frames = frame_bytes = 0
            for peer, store in enumerate(stores):
                for chunk_id in manifest.chunk_ids:
                    serving = ServingSession(store, self.keys.public)
                    self.spans.patch(serving, "serve", "transfer.session.serve")
                    self.handshake(serving, chunk_id, peer)
                    framed = FramedSession(serving, self.spans, decode=False)
                    framed.serve(float("inf"))
                    frames += framed.frames
                    frame_bytes += framed.frame_bytes
        elapsed = perf_counter() - start
        self.count("transfer.wire.frames", frames)
        self.count("transfer.wire.bytes", frame_bytes)
        expected = N_PEERS * self.params.k * manifest.n_chunks
        # frame = type byte, p, length prefix, then the stored record
        record = 9 + 16 + self.params.message_bytes
        ok = frames == expected and frame_bytes == expected * record
        return [elapsed * 1e3], len(self.data) / MIB, 0 if ok else 1


class Fetch(_FileWorkload):
    """One user fetches the file chunk by chunk from 8 restarted peers."""

    def __init__(self, seed, spans, tmp, params, n_chunks, slots_per_chunk, faulty=False):
        super().__init__(seed, spans, tmp, params, n_chunks)
        self.faulty = faulty
        # Fixed heterogeneous uplinks, peer 0 fastest (1.67x peer 7).  The
        # mean is set so that 8 honest peers would fill a chunk in
        # ``slots_per_chunk`` slots: long enough for crash and stall faults
        # to fire, short enough that the slowest honest peer is never
        # silent for a whole stall timeout.
        chunk_wire = params.k * (16 + params.message_bytes)
        mean_kbps = chunk_wire * 8 / 1000 / N_PEERS / slots_per_chunk
        self.uplink_kbps = [mean_kbps * (1.25 - 0.5 * i / 7) for i in range(N_PEERS)]
        self.plan = None
        if faulty:
            crash = 2.5 * (16 + params.message_bytes)
            self.plan = FaultPlan.parse(FAULT_SPEC.format(seed=seed, crash=crash))

    def setup(self) -> None:
        directory = os.path.join(self.tmp, "published")
        self.encoder, self.manifest, digests = self.publish(directory)
        self.stores = self.restart_peers(directory, self.manifest)
        # The digest slices the user carries (Section III-C).
        self.slices = {c: digests.slice_for_file(c) for c in self.manifest.chunk_ids}

    def _sessions(self, chunk_id: int):
        sessions = []
        for peer, store in enumerate(self.stores):
            serving = ServingSession(store, self.keys.public)
            self.spans.patch(serving, "serve", "transfer.session.serve")
            if self.plan is not None and self.plan.faults_for(peer):
                serving = FaultyServingSession(
                    serving, self.plan.faults_for(peer), self.plan.rng_for(peer), peer=peer
                )
                self.spans.patch(serving, "serve", "faults.inject")
            self.handshake(serving, chunk_id, peer)
            sessions.append(FramedSession(serving, self.spans))
        return sessions

    def round(self):
        spans = self.spans
        # As cli._download: with a robust policy the digests guard the
        # transfer path; without one the decoder holds them.
        digests = DigestStore()
        for chunk_id, carried in self.slices.items():
            digests.merge(chunk_id, carried)
        spans.patch(digests, "verify", "security.verify")
        policy = None
        if self.faulty:
            policy = RobustPolicy(digest_store=digests, stall_timeout_slots=STALL_TIMEOUT_SLOTS)
        uplinks = self.uplink_kbps
        op_ms, pieces, failed, received, kinds = [], [], 0, 0.0, set()
        for index, chunk_id in enumerate(self.manifest.chunk_ids):
            spans.op += 1
            start = perf_counter()
            with spans.span("op"):
                decoder = ProgressiveDecoder(
                    self.manifest.params_for_chunk(index),
                    self.encoder.coefficient_generator(index),
                    digest_store=None if self.faulty else digests,
                )
                spans.patch(decoder, "offer", "rlnc.offer")
                spans.patch(decoder, "offer_many", "rlnc.offer")
                spans.patch(decoder, "result", "rlnc.result")
                sessions = self._sessions(chunk_id)
                downloader = ParallelDownloader(
                    sessions, decoder, lambda i, t: uplinks[i], policy=policy
                )
                with spans.span("transfer.scheduler.self"):
                    report = downloader.run(10_000, file_id=chunk_id)
                piece = b""
                if report.complete:
                    piece = decoder.result(self.manifest.chunk_lengths[index])
            op_ms.append((perf_counter() - start) * 1e3)
            pieces.append(piece)
            received += report.bytes_received
            kinds.update(f.kind for f in report.failures)
            # A polluted message must be stopped before the decoder.
            if not report.complete or (self.faulty and decoder.rejected):
                failed += 1
            if spans.enabled:
                self._count_chunk(report, decoder, sessions)
        goodput = len(self.data) / received
        self.goodputs.add(goodput)
        wrong = hashlib.sha256(b"".join(pieces)).digest() != self.sha
        if wrong or (self.faulty and kinds != FAULT_KINDS) or len(self.goodputs) > 1:
            # wrong bytes, a planned fault that never fired, or a goodput
            # that differs between fetches of one seed: the round is void
            failed = len(op_ms)
        return op_ms, len(self.data) / MIB, failed

    def _count_chunk(self, report, decoder, sessions) -> None:
        served = sum(s.frames for s in sessions)
        discarded = sum(f.messages_discarded for f in report.failures)
        offered = decoder.accepted + decoder.dependent + decoder.rejected
        self.count("transfer.wire.frames", served)
        self.count("transfer.wire.bytes", sum(s.frame_bytes for s in sessions))
        self.count("transfer.scheduler.slots", report.slots)
        self.count("transfer.scheduler.msgs_discarded", discarded)
        self.count("transfer.scheduler.surplus_msgs", served - offered - discarded)
        self.count("security.verify_failed", discarded + decoder.rejected)
        self.count("rlnc.offered", offered)
        self.count("rlnc.innovative", decoder.accepted)
        self.count("rlnc.dependent", decoder.dependent)
        self.count("rlnc.rejected", decoder.rejected)
