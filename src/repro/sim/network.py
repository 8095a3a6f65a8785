"""Full-stack file-sharing network: coding + security + storage +
allocation + transfer, wired together.

This is the system of Fig. 4(a) end to end.  ``publish`` runs the
initialization phase of Section III-A (encode, screen bundles, record
digests, upload one bundle to every peer); ``download`` runs the access
phase of Section III-B (authenticate to every peer, stream coded
messages in parallel at Equation (2)-allocated rates, progressively
decode, stop everyone when done).  Contention from other users is
modelled with per-peer Bernoulli background demand so the allocation
dynamics are genuinely exercised during a transfer.
"""

from __future__ import annotations

import contextvars
import hashlib
import math
from dataclasses import dataclass, field

from ..core.allocation import Allocator
from ..discovery.chord import ChordRing, PeerDirectory
from ..obs import spans as _spans
from ..repair.monitor import DownloadRepairTrigger, RepairCoordinator
from ..repair.recombine import RepairAwareSource, register_repair_digests
from ..rlnc.chunking import (
    ChunkedEncoder,
    FileManifest,
    StreamingDecoder,
    split_chunks,
)
from ..rlnc.params import CodingParams
from ..rlnc.symbols import reshape_file_matrix
from ..rlnc.update import UpdateResult
from ..security.integrity import DigestStore
from ..security.keys import KeyPair, generate_keypair
from ..security.prng import derive_key
from ..storage.store import MessageStore
from ..transfer.scheduler import DownloadReport, ParallelDownloader
from ..transfer.session import DownloadSession, ServingSession
from .demand import BernoulliDemand, DemandProcess, ManualDemand
from .engine import Simulation
from .peer import PeerConfig

__all__ = ["FileSharingNetwork", "FileHandle", "NetworkDownload"]

#: Small RSA keys keep scenario setup fast; the protocol is size-agnostic.
_DEFAULT_KEY_BITS = 512

#: A compact default coding configuration for simulations: the paper's
#: field/``k`` recommendation scaled down so tests run in milliseconds
#: (same ``k = 8`` as the running example, smaller messages).
DEFAULT_SIM_PARAMS = CodingParams(p=16, m=512, file_bytes=8192)


@dataclass
class FileHandle:
    """Everything the network remembers about one published file.

    Mutable on purpose: :meth:`FileSharingNetwork.publish_update`
    advances ``manifest`` in place as the owner pushes new versions.
    """

    name: str
    owner: int
    manifest: FileManifest
    params: CodingParams
    wire_bytes: int
    encoder: ChunkedEncoder  # owner-side; holds the secret material
    #: The plaintext stays on the owner's disk; kept here so the owner
    #: can re-seed repaired peers (never exposed to other peers).
    data: bytes = b""
    #: Monotone counter giving repair bundles disjoint id ranges.
    reseed_rounds: int = 0
    #: Survivor-repair provenance, ``{chunk_id: [RepairRecord, ...]}``;
    #: the registry a :class:`RepairCoordinator` takes epochs from and
    #: files records in.
    repair_records: dict[int, list] = field(default_factory=dict)

    @property
    def version(self) -> int:
        return self.manifest.version

    @property
    def n_chunks(self) -> int:
        return self.manifest.n_chunks

    def coefficient_source(self) -> RepairAwareSource:
        """The encoder, with repair-range ids resolved through the live
        ``repair_records`` registry."""
        return RepairAwareSource(self.encoder, self.repair_records)


@dataclass(frozen=True)
class NetworkDownload:
    """Result of a full-stack download."""

    data: bytes
    reports: tuple[DownloadReport, ...]  # one per chunk
    slots: int

    @property
    def complete(self) -> bool:
        return all(r.complete for r in self.reports)

    @property
    def bytes_received(self) -> float:
        return sum(r.bytes_received for r in self.reports)

    def mean_rate_kbps(self, slot_seconds: float = 1.0) -> float:
        if self.slots == 0:
            return 0.0
        return self.bytes_received * 8.0 / 1000.0 / (self.slots * slot_seconds)


class FileSharingNetwork:
    """An ``n``-peer network with the complete protocol stack.

    Parameters
    ----------
    capacities_kbps:
        Upload capacity per peer (the asymmetric-link bottleneck).
    params:
        Coding configuration for published files.
    seed:
        Master seed for keys, secrets and background demand.
    allocators:
        Optional per-peer strategy overrides (adversaries plug in here).
    background_gamma:
        Request probability of every *other* user while a download runs,
        creating allocation contention; 0 disables contention.
    engine:
        Slot-loop implementation for the embedded
        :class:`~repro.sim.engine.Simulation` (``"auto"``,
        ``"reference"``, ``"batched"`` or ``"sparse"``).
    """

    def __init__(
        self,
        capacities_kbps,
        params: CodingParams = DEFAULT_SIM_PARAMS,
        seed: int = 0,
        allocators: dict[int, Allocator] | None = None,
        background_gamma: float = 0.0,
        key_bits: int = _DEFAULT_KEY_BITS,
        use_discovery: bool = False,
        engine: str = "auto",
    ):
        self.capacities = [float(c) for c in capacities_kbps]
        self.n = len(self.capacities)
        if self.n < 1:
            raise ValueError("a network needs at least one peer")
        self.params = params
        self.seed = seed
        master = hashlib.sha256(f"network-{seed}".encode()).digest()
        self.secrets = [derive_key(master, "peer-secret", i) for i in range(self.n)]
        self.keypairs: list[KeyPair] = [
            generate_keypair(bits=key_bits, seed=seed * 1009 + i)
            for i in range(self.n)
        ]
        self.stores = [MessageStore() for _ in range(self.n)]
        self.digest_stores = [DigestStore() for _ in range(self.n)]
        self.registry: dict[str, FileHandle] = {}
        # The embedded allocation simulation: every user idles (manual
        # demand off) except while downloading; background users request
        # with the configured probability.
        self._manual = [ManualDemand(False) for _ in range(self.n)]
        configs = []
        for i in range(self.n):
            demand = self._manual[i]
            if background_gamma > 0:
                demand = _EitherDemand(
                    self._manual[i], BernoulliDemand(background_gamma)
                )
            cfg = PeerConfig(capacity=self.capacities[i], demand=demand)
            if allocators and i in allocators:
                cfg.allocator = allocators[i]
            configs.append(cfg)
        self._sim = Simulation(configs, seed=seed, engine=engine)
        # Optional DHT-based content location (the Section II pattern):
        # peers form a Chord ring; publish registers chunk holders and
        # download resolves them instead of consulting the registry.
        self.directory: PeerDirectory | None = None
        if use_discovery:
            ring = ChordRing(bits=32, replication=min(3, self.n))
            for i in range(self.n):
                ring.join(f"peer:{seed}:{i}")
            self.directory = PeerDirectory(ring)
        self.lookup_hops = 0  # cumulative DHT routing hops observed

    # -- initialization phase (Section III-A) ---------------------------

    def publish(
        self, owner: int, name: str, data: bytes, message_limit: int | None = None
    ) -> FileHandle:
        """Encode ``data`` and distribute one bundle to every peer.

        ``message_limit`` stores only ``k' < k`` messages per chunk at
        each peer (the space-saving mode of Section III-D).
        """
        self._check_peer(owner)
        if name in self.registry:
            raise ValueError(f"file name {name!r} already published")
        base_file_id = int.from_bytes(
            hashlib.sha256(f"{owner}:{name}".encode()).digest()[:8], "big"
        )
        encoder = ChunkedEncoder(self.params, self.secrets[owner], base_file_id)
        manifest, encoded_chunks = encoder.encode_file(
            data, n_peers=self.n, digest_store=self.digest_stores[owner]
        )
        wire = 0
        for chunk in encoded_chunks:
            for peer_index, bundle in enumerate(chunk.bundles):
                self.stores[peer_index].add_messages(bundle, limit=message_limit)
                wire += sum(m.wire_size() for m in bundle)
        handle = FileHandle(
            name=name,
            owner=owner,
            manifest=manifest,
            params=self.params,
            wire_bytes=wire,
            encoder=encoder,
            data=data,
        )
        self.registry[name] = handle
        self._register_holders(manifest.chunk_ids)
        return handle

    def _register_holders(self, chunk_ids) -> None:
        """Announce chunk holders in the DHT directory, if enabled."""
        if self.directory is None:
            return
        for chunk_id in chunk_ids:
            result = self.directory.publish(chunk_id, holders=range(self.n))
            self.lookup_hops += result.hops

    def publish_update(
        self,
        owner: int,
        name: str,
        new_data: bytes,
        message_limit: int | None = None,
    ) -> UpdateResult:
        """Push a new version of a published file, re-seeding only the
        chunks whose content changed (Section VI future work).

        Peers drop their stale messages for replaced chunks and store
        the replacement bundles; readers downloading afterwards get the
        new version.
        """
        handle = self.registry.get(name)
        if handle is None:
            raise KeyError(f"no published file named {name!r}")
        if handle.owner != owner:
            raise PermissionError(
                f"peer {owner} does not own {name!r} (owner is {handle.owner})"
            )
        result = handle.encoder.update(
            handle.manifest,
            new_data,
            n_peers=self.n,
            digest_store=self.digest_stores[owner],
        )
        for stale_id in result.stale_chunk_ids:
            for store in self.stores:
                store.drop_file(stale_id)
        for encoded in result.reencoded.values():
            for peer_index, bundle in enumerate(encoded.bundles):
                self.stores[peer_index].add_messages(bundle, limit=message_limit)
        handle.manifest = result.manifest
        handle.wire_bytes += result.upload_bytes
        handle.data = new_data
        self._register_holders(
            result.manifest.chunk_ids[i] for i in result.changed_chunks
        )
        return result

    def drop_peer_data(self, peer: int, name: str | None = None) -> None:
        """Simulate a peer losing its cache (disk failure / churn exit).

        With ``name`` only that file's chunks are dropped; otherwise the
        peer's entire store is wiped.
        """
        self._check_peer(peer)
        if name is None:
            for file_id in self.stores[peer].files():
                self.stores[peer].drop_file(file_id)
            return
        handle = self.registry.get(name)
        if handle is None:
            raise KeyError(f"no published file named {name!r}")
        for chunk_id in handle.manifest.chunk_ids:
            self.stores[peer].drop_file(chunk_id)

    def repair(
        self, name: str, peer: int, message_limit: int | None = None
    ) -> int:
        """Re-seed ``peer`` with fresh bundles for every chunk it lost.

        Coded messages are interchangeable, so the owner just generates
        *new* independent bundles under unused ids (Section III's
        geographic-robustness story made operational).  Returns the
        number of messages stored.
        """
        handle = self.registry.get(name)
        if handle is None:
            raise KeyError(f"no published file named {name!r}")
        self._check_peer(peer)
        manifest = handle.manifest
        handle.reseed_rounds += 1
        start_id = 1_000_000 * handle.reseed_rounds
        target = message_limit if message_limit is not None else self.params.k
        stored = 0
        chunks = split_chunks(handle.data, self.params.file_bytes)
        for index, chunk_id in enumerate(manifest.chunk_ids):
            if self.stores[peer].count(chunk_id) >= target:
                continue
            bundle = handle.encoder.reseed_bundle(
                manifest,
                chunks[index],
                index,
                start_id=start_id,
                digest_store=self.digest_stores[handle.owner],
            )
            stored += self.stores[peer].add_messages(bundle, limit=message_limit)
        return stored

    def churn_repair(
        self,
        name: str,
        target: int,
        count: int,
        helpers: list[int] | None = None,
        chunk_ids=None,
    ) -> dict:
        """Survivor-side repair: restore redundancy without the owner.

        Unlike :meth:`repair` (the owner re-encodes from plaintext over
        its uplink), this recombines the *surviving peers'* stored
        messages into ``count`` fresh coded messages per chunk (see
        :mod:`repro.repair`) and stores them at ``target``.  The owner's
        entire uplink contribution is the per-message digest
        registration — payload bytes shipped by the owner are zero by
        construction.

        ``helpers`` restricts the helper set (default: every peer but
        ``target`` holding chunk data).  ``chunk_ids`` restricts repair
        to those chunks (default: all).  Epochs and records live in the
        file's ``repair_records`` registry.  Returns a JSON-able summary
        with per-chunk reports.
        """
        handle = self.registry.get(name)
        if handle is None:
            raise KeyError(f"no published file named {name!r}")
        self._check_peer(target)
        manifest = handle.manifest
        coordinator = RepairCoordinator(handle.encoder.field, handle.repair_records)
        wanted = set(chunk_ids) if chunk_ids is not None else None
        chunks = split_chunks(handle.data, self.params.file_bytes)
        # Repair-aware generator: helpers may themselves hold messages
        # minted by earlier repair epochs (repair of repairs).
        source = handle.coefficient_source()
        candidates = (
            helpers if helpers is not None else [j for j in range(self.n) if j != target]
        )
        chunk_reports = []
        produced = degraded = 0
        helper_bandwidth = digest_bytes = 0
        for index, chunk_id in enumerate(manifest.chunk_ids):
            if wanted is not None and chunk_id not in wanted:
                continue
            helper_pairs = [
                (j, lambda j=j, cid=chunk_id: self.stores[j].messages(cid))
                for j in candidates
                if self.stores[j].has_file(chunk_id)
            ]
            outcome = coordinator.repair(chunk_id, helper_pairs, count)
            chunk_reports.append(outcome.report.to_dict())
            helper_bandwidth += outcome.report.bandwidth_bytes
            if not outcome.ok:
                degraded += 1
                continue
            # Owner side: digests only — never payload bytes.
            digest_bytes += register_repair_digests(
                outcome.record,
                source.coefficient_generator(index, manifest.chunk_versions[index]),
                reshape_file_matrix(
                    chunks[index], self.params.p, self.params.k, self.params.m
                ),
                self.digest_stores[handle.owner],
            )
            self.stores[target].add_messages(outcome.messages)
            produced += outcome.report.produced
            if outcome.report.degraded:
                degraded += 1
        return {
            "file": name,
            "target": target,
            "produced": produced,
            "degraded_chunks": degraded,
            "owner_payload_bytes": 0,
            "owner_digest_bytes": digest_bytes,
            "helper_bandwidth_bytes": helper_bandwidth,
            "chunks": chunk_reports,
        }

    def initialization_seconds(self, handle: FileHandle) -> float:
        """How long the owner's upload link needs to seed the network.

        The paper notes this phase runs opportunistically while idle and
        can take long on a thin link (the file stays available directly
        from the owner meanwhile).
        """
        kbps = self.capacities[handle.owner]
        if kbps <= 0:
            return float("inf")
        return handle.wire_bytes * 8.0 / 1000.0 / kbps

    # -- access phase (Section III-B) ------------------------------------

    def download(
        self,
        user: int,
        name: str,
        max_slots: int = 1_000_000,
        download_cap_kbps: float = math.inf,
        peers: list[int] | None = None,
        repair_threshold: float | None = None,
    ) -> NetworkDownload:
        """Fetch a published file from the peer network for ``user``:
        the one-request case of :meth:`download_concurrently`, which
        documents the arguments."""
        (result,) = self.download_concurrently(
            [(user, name)], max_slots, download_cap_kbps, peers, repair_threshold
        )
        return result

    def _streaming_decoder(self, handle: FileHandle, manifest: FileManifest):
        """A fresh decoder plus the digest slice the downloader carries
        for authentication (Section III-C)."""
        digests = DigestStore()
        for chunk_id in manifest.chunk_ids:
            digests.merge(
                chunk_id, self.digest_stores[handle.owner].slice_for_file(chunk_id)
            )
        return StreamingDecoder(manifest, handle.coefficient_source(), digests), digests

    def _open_sessions(self, user: int, chunk_id: int, peers) -> list[ServingSession]:
        """Steps 1-3 of Fig. 4(b) against every peer in ``peers``."""
        sessions = []
        for j in peers:
            serving = ServingSession(self.stores[j], self.keypairs[user].public)
            DownloadSession(self.keypairs[user]).handshake(serving, chunk_id)
            sessions.append(serving)
        return sessions

    def _repair_hook(
        self, name: str, chunk_id: int, chunk_peers, sessions, user_digests
    ):
        """Mid-download repair callback: mint into a live serving peer.

        Fresh messages are appended to the target's store, whose open
        serving cursor aliases the same message list — they flow to the
        downloader with no new session.  A peer whose store dropped the
        chunk is never picked: its cursor is stale and stays that way.
        The owner's freshly registered digests are re-merged into the
        user's digest slice (that shipment *is* the owner's entire
        uplink cost for the repair).
        """
        owner = self.registry[name].owner

        def hook(needed: int) -> int:
            target = next(
                (
                    j
                    for j, session in zip(chunk_peers, sessions)
                    if session.authenticated and self.stores[j].has_file(chunk_id)
                ),
                None,
            )
            if target is None:
                return 0
            result = self.churn_repair(
                name, target, count=int(needed), chunk_ids=(chunk_id,)
            )
            user_digests.merge(
                chunk_id, self.digest_stores[owner].slice_for_file(chunk_id)
            )
            return result["produced"]

        return hook

    def download_concurrently(
        self,
        requests,
        max_slots: int = 1_000_000,
        download_cap_kbps: float = math.inf,
        peers: list[int] | None = None,
        repair_threshold: float | None = None,
    ) -> list[NetworkDownload]:
        """Run several users' downloads simultaneously over one timeline.

        ``requests`` is a sequence of distinct ``(user, file name)``
        pairs.  All transfers share the same allocation slots, so each
        peer genuinely splits its uplink among the concurrent
        requesters by Equation (2) — this is the configuration in which
        the pairwise-fairness results are visible in *actual transfers*
        rather than only in the abstract simulator.  Returns one
        :class:`NetworkDownload` per request, in order.

        Each transfer fetches its chunks in order (streaming); a chunk
        is one parallel download — one ``transfer.download`` span —
        across ``peers`` (default: the holders the DHT directory names,
        else all peers, the user's own home peer included) at the rates
        the live allocation simulation grants that user.

        ``repair_threshold`` arms mid-download repair: when the
        undelivered supply across live peers falls below the threshold
        times what the chunk still needs, survivors recombine fresh
        messages into a live peer's store (see :meth:`churn_repair`)
        and the download continues.  ``None`` leaves downloads
        bit-identical to the repair-free path.
        """
        requests = list(requests)
        users = [u for u, _ in requests]
        if len(set(users)) != len(users):
            raise ValueError("each user may run one concurrent download")

        def next_chunk(tr: _Transfer) -> None:
            """Open the downloader for ``tr``'s next chunk, if any."""
            tr.active = None
            if tr.index >= len(tr.chunk_ids):
                self._manual[tr.user].requesting = False
                return
            chunk_id = tr.chunk_ids[tr.index]
            tr.peers = peers if peers is not None else list(range(self.n))
            if peers is None and self.directory is not None:
                # Resolve holders through the DHT instead of assuming
                # global knowledge.
                holders, lookup = self.directory.locate(chunk_id)
                self.lookup_hops += lookup.hops
                if holders is not None:
                    tr.peers = [h for h in holders if 0 <= h < self.n]
            sessions = self._open_sessions(tr.user, chunk_id, tr.peers)
            repair = None
            if repair_threshold is not None:
                repair = DownloadRepairTrigger(
                    hook=self._repair_hook(
                        tr.name, chunk_id, tr.peers, sessions, tr.digests
                    ),
                    threshold=repair_threshold,
                )
            tr.active = ParallelDownloader(
                sessions,
                tr.streaming.chunk(tr.index),
                None,  # rates come from the shared allocation, per step
                download_cap_kbps=download_cap_kbps,
                repair=repair,
            )
            # Transfers interleave slot by slot, so a chunk's span is the
            # current one (its peer spans' parent) only inside a context
            # of the transfer's own, dropped with the chunk.
            scope = _spans.span_scope(
                "transfer.download", peers=len(sessions), file_id=chunk_id
            )
            tr.context = contextvars.copy_context()
            tr.span = tr.context.run(scope.__enter__)
            tr.context.run(tr.active.begin, chunk_id)
            tr.t = 0

        def close_chunk(tr: _Transfer, status: str = "ok") -> None:
            """Finish ``tr``'s open downloader and its span; keep the report."""
            tr.reports.append(tr.context.run(tr.active.finish, status))
            _spans.finish_span(tr.span, status=status)

        transfers: list[_Transfer] = []
        for user, name in requests:
            self._check_peer(user)
            handle = self.registry.get(name)
            if handle is None:
                raise KeyError(f"no published file named {name!r}")
            # Snapshot the current version's manifest for the whole download.
            manifest = handle.manifest
            streaming, digests = self._streaming_decoder(handle, manifest)
            transfers.append(
                _Transfer(user, name, manifest.chunk_ids, streaming, digests)
            )
        try:
            for tr in transfers:
                self._manual[tr.user].requesting = True
                next_chunk(tr)
            for _ in range(max_slots):
                live = [tr for tr in transfers if tr.active is not None]
                if not live:
                    break
                alloc, _, _ = self._sim.step()
                for tr in live:
                    more = tr.context.run(
                        tr.active.step, tr.t, alloc[tr.peers, tr.user]
                    )
                    tr.t += 1
                    if not more:
                        close_chunk(tr)
                        tr.index += 1
                        next_chunk(tr)
        except BaseException:
            for tr in transfers:
                if tr.active is not None:
                    close_chunk(tr, status="error")
            raise
        finally:
            for tr in transfers:
                self._manual[tr.user].requesting = False

        results = []
        for tr in transfers:
            if tr.active is not None:
                # The unfinished chunk's report keeps the aggregate
                # NetworkDownload incomplete even when earlier chunks
                # finished.
                close_chunk(tr)
            data = tr.streaming.result() if tr.streaming.is_complete else b""
            slots = sum(r.slots for r in tr.reports)
            results.append(
                NetworkDownload(data=data, reports=tuple(tr.reports), slots=slots)
            )
        return results

    def ledger_of(self, peer: int):
        """The live contribution ledger of ``peer`` (read-mostly)."""
        self._check_peer(peer)
        return self._sim.peers[peer].ledger

    def _check_peer(self, index: int) -> None:
        if not 0 <= index < self.n:
            raise IndexError(f"peer index {index} out of range 0..{self.n - 1}")


@dataclass
class _Transfer:
    """One user's chunk-by-chunk download on the shared timeline."""

    user: int
    name: str
    chunk_ids: tuple[int, ...]
    streaming: StreamingDecoder
    digests: DigestStore  # the user's slice; repairs merge into it
    reports: list[DownloadReport] = field(default_factory=list)
    index: int = 0  # chunk being fetched
    peers: list[int] = field(default_factory=list)  # serving it
    active: ParallelDownloader | None = None  # its downloader
    span: _spans.SpanHandle | None = None  # its transfer.download span
    context: contextvars.Context | None = None  # where that span is current
    t: int = 0  # slot within that chunk


class _EitherDemand(DemandProcess):
    """Requests when either the manual flag or the background process does."""

    def __init__(self, manual: ManualDemand, background: BernoulliDemand):
        self.manual = manual
        self.background = background

    def sample(self, t, rng) -> bool:
        # Evaluate both so the background stream stays in sync regardless
        # of the manual flag.
        background = self.background.sample(t, rng)
        return self.manual.sample(t, rng) or background
