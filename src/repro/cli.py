"""Command-line interface: encode, decode, inspect, simulate.

Turns the library into the tool a home user would actually run:

* ``repro encode``  — initialization phase: split/encode a file into
  per-peer ``File-id.dat`` bundles plus the manifest and digest list the
  user carries (Sections III-A, III-C, III-D);
* ``repro decode``  — access phase: reassemble the file from any
  sufficient collection of ``.dat`` stores (Section III-B);
* ``repro download``— access phase over the *session* stack: drive the
  robust parallel downloader against per-peer stores, optionally with
  deterministic fault injection (``--faults``), and print the failure
  taxonomy;
* ``repro inspect`` — show what a ``.dat`` store holds;
* ``repro simulate``— rerun one of the paper's evaluation scenarios and
  print its summary series (Section V); the ``faults`` scenario takes
  ``--faults SPEC`` to knock peers out on a fault-driven schedule;
* ``repro channel`` — the Fig. 1 asymmetric-link timing table;
* ``repro stats``   — the observability catalog, or a saved snapshot;
* ``repro lint``    — invariant-aware static analysis (determinism,
  float-safety, trace-schema and API contracts); ``--list-rules`` for
  the catalog, ``--format json`` for a machine-readable report.

``repro simulate`` and ``repro decode`` accept ``--metrics`` (print a
registry snapshot when done), ``--metrics-out FILE`` (save the snapshot
as JSON, readable by ``repro stats FILE``) and ``--trace FILE`` (write
the structured trace as JSONL).

Run ``python -m repro.cli <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import obs
from .analysis import TECHNOLOGIES, transmission_seconds
from .rlnc import ChunkedEncoder, CodingParams, FileManifest, StreamingDecoder
from .security import DigestStore
from .storage import MessageStore

__all__ = ["main", "build_parser"]


def _secret_bytes(secret: str) -> bytes:
    if not secret:
        raise SystemExit("--secret must be non-empty")
    return secret.encode("utf-8")


def _default_file_id(path: str) -> int:
    name = os.path.basename(path)
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")


def _load_manifest(path: str) -> FileManifest:
    """Read a ``manifest.json`` (either shape ``FileManifest`` accepts)."""
    try:
        with open(path) as fh:
            return FileManifest.from_dict(json.load(fh))
    except KeyError as exc:
        raise SystemExit(f"cannot read manifest {path}: missing key {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise SystemExit(f"cannot read manifest {path}: {exc}") from exc


def _owner_encoder(manifest: FileManifest, secret: str) -> ChunkedEncoder:
    """The owner-side encoder (and generator source) of a manifest's file."""
    return ChunkedEncoder(
        manifest.params_for_chunk(0), _secret_bytes(secret), manifest.base_file_id
    )


def _load_digests(path: str) -> DigestStore:
    """Read a ``digests.json`` (the ``--digests`` format)."""
    try:
        with open(path) as fh:
            return DigestStore.from_dict(json.load(fh))
    except (OSError, TypeError, ValueError) as exc:
        raise SystemExit(f"cannot read digests {path}: {exc}") from exc


def _write_digests(path: str, digests: DigestStore, chunk_ids) -> int:
    """Write the digests of ``chunk_ids`` as digests.json; returns entries."""
    blob = digests.to_dict(chunk_ids)
    try:
        with open(path, "w") as fh:
            json.dump(blob, fh, indent=2)
    except OSError as exc:
        raise SystemExit(f"cannot write digests: {exc}") from exc
    return sum(len(v) for v in blob.values())


def _write_metadata(out_dir: str, manifest: FileManifest, digests: DigestStore) -> int:
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest.to_dict(), fh, indent=2)
    return _write_digests(
        os.path.join(out_dir, "digests.json"), digests, manifest.chunk_ids
    )


def cmd_encode(args: argparse.Namespace) -> int:
    params = CodingParams(p=args.p, m=args.m, file_bytes=args.chunk_bytes)
    with open(args.file, "rb") as fh:
        data = fh.read()
    file_id = args.file_id if args.file_id is not None else _default_file_id(args.file)
    encoder = ChunkedEncoder(params, _secret_bytes(args.secret), file_id)
    digests = DigestStore()
    manifest, chunks = encoder.encode_file(data, args.peers, digest_store=digests)

    os.makedirs(args.out, exist_ok=True)
    total_bytes = 0
    for peer in range(args.peers):
        store = MessageStore()
        for encoded_file in chunks:
            store.add_messages(encoded_file.bundles[peer])
        peer_dir = os.path.join(args.out, f"peer{peer}")
        store.save_dat(peer_dir)
        total_bytes += store.total_bytes()

    entries = _write_metadata(args.out, manifest, digests)
    print(
        f"encoded {len(data)} bytes -> {manifest.n_chunks} chunk(s) x "
        f"k={params.k} messages x {args.peers} peer(s)"
    )
    print(f"coded bytes written: {total_bytes}")
    print(f"manifest: {os.path.join(args.out, 'manifest.json')} (version 0)")
    print(f"digests : {os.path.join(args.out, 'digests.json')} "
          f"({entries} MD5 entries)")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    """Re-encode only the chunks that changed in a new file version."""
    old = _load_manifest(args.manifest)
    if not old.chunk_hashes:
        raise SystemExit("manifest is not versioned; re-encode with `repro encode`")
    with open(args.file, "rb") as fh:
        new_data = fh.read()
    digests_path = os.path.join(args.out, "digests.json")
    digests = (
        _load_digests(digests_path) if os.path.exists(digests_path) else DigestStore()
    )
    result = _owner_encoder(old, args.secret).update(
        old, new_data, n_peers=args.peers, digest_store=digests
    )

    peer_dirs = [
        os.path.join(args.out, d)
        for d in sorted(os.listdir(args.out))
        if d.startswith("peer") and os.path.isdir(os.path.join(args.out, d))
    ]
    if len(peer_dirs) != args.peers:
        raise SystemExit(
            f"--peers {args.peers} but found {len(peer_dirs)} peer dirs in {args.out}"
        )
    # Retire stale chunk stores and write the replacements.
    for stale_id in result.stale_chunk_ids:
        for peer_dir in peer_dirs:
            path = os.path.join(peer_dir, f"{stale_id:016x}.dat")
            if os.path.exists(path):
                os.unlink(path)
    for encoded in result.reencoded.values():
        for peer, bundle in enumerate(encoded.bundles):
            store = MessageStore()
            store.add_messages(bundle)
            store.save_dat(peer_dirs[peer])

    entries = _write_metadata(args.out, result.manifest, digests)
    print(
        f"updated to version {result.manifest.version}: "
        f"{len(result.changed_chunks)} of {result.manifest.n_chunks} chunk(s) "
        f"re-encoded, {result.upload_bytes} coded bytes written "
        f"({result.upload_savings:.0%} of a full re-encode avoided)"
    )
    print(f"digests now hold {entries} MD5 entries")
    return 0


def _collect_dat_paths(sources: list[str]) -> list[str]:
    paths: list[str] = []
    for source in sources:
        if os.path.isdir(source):
            for root, _dirs, files in os.walk(source):
                paths.extend(
                    os.path.join(root, f) for f in sorted(files) if f.endswith(".dat")
                )
        elif source.endswith(".dat"):
            paths.append(source)
        else:
            raise SystemExit(f"not a .dat file or directory: {source}")
    if not paths:
        raise SystemExit("no .dat stores found among the given sources")
    return paths


def _load_stores(groups, manifest: FileManifest) -> list[MessageStore]:
    """One :class:`MessageStore` per group of source arguments, holding
    every ``.dat`` under the group; all paths are validated first."""
    stores = []
    for paths in [_collect_dat_paths(sources) for sources in groups]:
        store = MessageStore()
        for path in paths:
            store.load_dat(path, p=manifest.p, m=manifest.m)
        stores.append(store)
    return stores


def _parse_faults(spec: str, seed: int | None = None):
    """A ``--faults`` spec as a ``FaultPlan`` (seeded when ``seed`` is given)."""
    from .faults import FaultPlan, FaultSpecError

    try:
        return FaultPlan.parse(spec if seed is None else f"seed={seed};{spec}")
    except FaultSpecError as exc:
        raise SystemExit(f"bad --faults spec: {exc}") from exc


def _obs_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "metrics", False)
        or getattr(args, "metrics_out", None)
        or getattr(args, "trace", None)
        or getattr(args, "report", False)
        or getattr(args, "report_json", None)
    )


def _obs_report(args: argparse.Namespace) -> None:
    """Emit the requested observability outputs after a command ran."""
    if getattr(args, "trace", None):
        try:
            count = obs.TRACER.write_jsonl(args.trace)
        except OSError as exc:
            raise SystemExit(f"cannot write trace: {exc}") from exc
        print(f"trace: {count} event(s) -> {args.trace}")
        # A printed run report already carries the drop warning.
        section = obs.report.trace_section(obs.TRACER.recorded())
        if "warning" in section and not getattr(args, "report", False):
            print(f"WARNING: {section['warning']}", file=sys.stderr)
    if getattr(args, "metrics_out", None):
        try:
            with open(args.metrics_out, "w") as fh:
                json.dump(obs.REGISTRY.snapshot(), fh, indent=2)
        except OSError as exc:
            raise SystemExit(f"cannot write metrics snapshot: {exc}") from exc
        print(f"metrics snapshot -> {args.metrics_out}")
    if getattr(args, "metrics", False):
        print(obs.render_snapshot(obs.REGISTRY.snapshot()))


def _with_obs(args: argparse.Namespace, fn) -> int:
    """Run ``fn()`` under scoped observability when any flag asks for it."""
    if not _obs_requested(args):
        return fn()
    # Run reports derive their causal sections (critical path, drop
    # warnings) from the trace, so the report flags imply tracing.
    tracing = bool(
        getattr(args, "trace", None)
        or getattr(args, "report", False)
        or getattr(args, "report_json", None)
    )
    with obs.observability(tracing=tracing, reset=True):
        code = fn()
        _obs_report(args)
    return code


def _emit_run_report(args: argparse.Namespace, report: dict) -> None:
    """Print and/or save a run report built by :mod:`repro.obs.report`."""
    if getattr(args, "report", False):
        print(obs.report.render_report(report))
    if getattr(args, "report_json", None):
        try:
            with open(args.report_json, "w") as fh:
                json.dump(report, fh, indent=2)
        except OSError as exc:
            raise SystemExit(f"cannot write report: {exc}") from exc
        print(f"report -> {args.report_json}")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", action="store_true",
        help="print a metrics-registry snapshot when done",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the metrics snapshot as JSON (readable by `repro stats`)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write structured trace events as JSONL",
    )


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--report", action="store_true",
        help="print a fairness + goodput run report when done",
    )
    parser.add_argument(
        "--report-json", default=None, metavar="FILE",
        help="write the run report as JSON",
    )


def _load_repairs(path: str) -> dict[int, list]:
    """Read a repairs.json into ``{chunk_id: [RepairRecord, ...]}``."""
    from .repair import RepairError, records_from_dict

    try:
        with open(path) as fh:
            blob = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read repair records: {exc}") from exc
    try:
        return records_from_dict(blob)
    except (RepairError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"bad repair records in {path}: {exc}") from exc


def _write_repairs(path: str, records: dict[int, list]) -> int:
    """Write the record registry as repairs.json; returns the count."""
    from .repair import records_to_dict

    flat = [record for chunk_id in sorted(records) for record in records[chunk_id]]
    try:
        with open(path, "w") as fh:
            json.dump(records_to_dict(flat), fh, indent=2)
    except OSError as exc:
        raise SystemExit(f"cannot write repair records: {exc}") from exc
    return len(flat)


def _repair_chunk(coordinator, chunk_id, stores, target, digest_store, count):
    """Recombine the ``stores``' messages of ``chunk_id`` into ``target``.

    The one repair driver of ``repro repair`` and ``repro download
    --repair-threshold``.  With a ``digest_store``, each helper's
    messages are screened against it first: the fresh digests are
    minted here from the recombined payloads, so a corrupted helper
    payload mixed into them would come out accepted.  ``count(live)``
    says how many fresh messages to mint given the ``live`` screened
    helper messages.  A successful repair records the fresh digests and
    adds the fresh messages to ``target``.  Returns ``(live, outcome)``;
    ``outcome`` is ``None`` when ``count`` asks for nothing.
    """
    supplies = {}
    for pi, store in enumerate(stores):
        if not store.has_file(chunk_id):
            continue
        messages = store.messages(chunk_id)
        if digest_store is not None:
            verdicts = digest_store.verify_many(
                chunk_id,
                [m.message_id for m in messages],
                [m.payload_bytes() for m in messages],
            )
            messages = [m for m, ok in zip(messages, verdicts) if ok]
        if messages:
            supplies[pi] = messages
    live = sum(map(len, supplies.values()))
    wanted = count(live)
    if wanted <= 0:
        return live, None
    outcome = coordinator.repair(
        chunk_id, [(pi, lambda pi=pi: supplies[pi]) for pi in supplies], wanted
    )
    if outcome.ok:
        if digest_store is not None:
            digest_store.record_many(
                chunk_id,
                [message.message_id for message in outcome.messages],
                [message.payload_bytes() for message in outcome.messages],
            )
        target.add_messages(outcome.messages)
    return live, outcome


def cmd_decode(args: argparse.Namespace) -> int:
    return _with_obs(args, lambda: _decode(args))


def _decode(args: argparse.Namespace) -> int:
    from .repair import RepairAwareSource

    manifest = _load_manifest(args.manifest)
    # Sources before secrets and digests: a typo'd path gives a clean
    # error before any decoding state is built.
    [store] = _load_stores([args.sources], manifest)
    generator_source = _owner_encoder(manifest, args.secret)
    digest_store = _load_digests(args.digests) if args.digests else None
    if getattr(args, "repairs", None):
        generator_source = RepairAwareSource(
            generator_source, _load_repairs(args.repairs)
        )
    decoder = StreamingDecoder(
        manifest, generator_source, digest_store=digest_store
    )

    offered = rejected = 0
    for chunk_id in manifest.chunk_ids:
        if not store.has_file(chunk_id):
            continue
        for msg in store.messages(chunk_id):
            if decoder.is_complete:
                break
            outcome = decoder.offer(msg)
            offered += 1
            if outcome.name == "REJECTED":
                rejected += 1
    # Rows reported accepted and dropped later, when their digests were
    # checked, count as rejected.
    decoder.settle()
    rejected += decoder.revoked

    if not decoder.is_complete:
        missing = [
            i for i in range(manifest.n_chunks) if decoder.needed_for_chunk(i) > 0
        ]
        print(
            f"decode FAILED: chunks {missing} still need messages "
            f"({offered} offered, {rejected} rejected)",
            file=sys.stderr,
        )
        return 1

    data = decoder.result()
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"decoded {len(data)} bytes -> {args.out} "
          f"({offered} messages used, {rejected} rejected)")
    return 0


def cmd_download(args: argparse.Namespace) -> int:
    return _with_obs(args, lambda: _download(args))


def _download(args: argparse.Namespace) -> int:
    """Robust parallel download: one serving session per source argument.

    Unlike ``decode`` (which trusts its local stores), this drives the
    full session stack — handshake with bounded retry, slot-stepped
    serving, digest verification before the decoder, quarantine — and
    prints the failure taxonomy.  ``--faults`` wraps peers with the
    deterministic injectors, so misbehaviour is reproducible end to end.
    Each chunk opens fresh sessions, so fault schedules restart per chunk.
    """
    from .faults import FaultyServingSession
    from .gf import GF
    from .repair import DownloadRepairTrigger, RepairAwareSource, RepairCoordinator
    from .security.keys import generate_keypair
    from .transfer import (
        DownloadSession,
        ParallelDownloader,
        RobustPolicy,
        ServingSession,
    )

    manifest = _load_manifest(args.manifest)
    # One source argument = one peer.
    stores = _load_stores([[source] for source in args.sources], manifest)
    generator_source = _owner_encoder(manifest, args.secret)
    # The digests guard the transfer path (RobustPolicy), not the
    # decoder: polluted messages must be discarded before they are seen.
    digest_store = _load_digests(args.digests) if args.digests else None
    plan = None
    if args.faults:
        plan = _parse_faults(args.faults)
        if plan.peers and max(plan.peers) >= len(args.sources):
            raise SystemExit(
                f"--faults names peer {max(plan.peers)} but only "
                f"{len(args.sources)} source(s) were given"
            )

    repair_records: dict[int, list] = (
        _load_repairs(args.repairs) if args.repairs else {}
    )
    coordinator = None
    if args.repair_threshold is not None:
        coordinator = RepairCoordinator(GF(manifest.p), repair_records)
    if coordinator is not None or repair_records:
        # Only wrap when repair is in play: the plain path stays
        # bit-identical to older builds.
        generator_source = RepairAwareSource(generator_source, repair_records)

    decoder = StreamingDecoder(manifest, generator_source)
    policy = RobustPolicy(
        digest_store=digest_store, stall_timeout_slots=args.stall_timeout
    )
    keys = generate_keypair(bits=512, seed=args.seed)
    total_slots = 0
    total_bytes = 0.0
    chunk_reports = []
    chunk_sources = []  # per chunk: the source index behind each session
    failures: dict[int, object] = {}  # original peer index -> PeerFailure
    minted = 0
    for index, chunk_id in enumerate(manifest.chunk_ids):
        holders = [pi for pi, s in enumerate(stores) if s.has_file(chunk_id)]
        if not holders:
            print(f"chunk {index}: no source holds messages", file=sys.stderr)
            return 1
        sessions = []
        for pi in holders:
            serving = ServingSession(stores[pi], keys.public)
            if plan is not None and plan.faults_for(pi):
                # Wrap by *original* peer index (holders of a later chunk
                # may be a sparse subset, so plan.wrap's positional keying
                # does not apply here).
                serving = FaultyServingSession(
                    serving, plan.faults_for(pi), plan.rng_for(pi), peer=pi
                )
            DownloadSession(keys).handshake_with_retry(serving, chunk_id, peer=pi)
            sessions.append(serving)
        repair = None
        if coordinator is not None:
            helpers = [stores[pi] for pi in holders]

            def hook(needed, chunk_id=chunk_id, helpers=helpers):
                # Survivors recombine into the first holder; its open
                # serving cursor aliases that store, so the fresh
                # messages flow to the downloader without a new session.
                _, outcome = _repair_chunk(
                    coordinator,
                    chunk_id,
                    helpers,
                    helpers[0],
                    digest_store,
                    lambda live: needed,
                )
                return outcome.report.produced

            repair = DownloadRepairTrigger(hook, threshold=args.repair_threshold)
        report = ParallelDownloader(
            sessions,
            decoder.chunk(index),
            lambda i, t: args.rate,
            policy=policy,
            repair=repair,
        ).run(args.max_slots, file_id=chunk_id)
        chunk_reports.append(report)
        chunk_sources.append(holders)
        if repair is not None:
            minted += repair.injected
        total_slots += report.slots
        total_bytes += report.bytes_received
        for f in report.failures:
            failures.setdefault(holders[f.peer], f)
        state = "complete" if report.complete else "INCOMPLETE"
        print(
            f"chunk {index} ({chunk_id:#x}): {state} in {report.slots} slot(s), "
            f"{report.bytes_received:.0f} bytes from {len(holders)} peer(s)"
        )
        if not report.complete:
            break

    if minted:
        print(f"repair: {minted} fresh message(s) recombined mid-download")

    for pi in sorted(failures):
        f = failures[pi]
        cost = (
            f" ({f.bytes_discarded:.0f} bytes, {f.messages_discarded} message(s) "
            "discarded)"
            if f.bytes_discarded or f.messages_discarded
            else ""
        )
        print(f"  peer {pi} [{args.sources[pi]}]: {f.kind} at slot {f.slot}{cost}")

    if (args.report or args.report_json) and chunk_reports:
        events = obs.TRACER.recorded() if obs.TRACER.enabled else None
        _emit_run_report(
            args,
            obs.report.download_report(chunk_reports, chunk_sources, events=events),
        )

    if not decoder.is_complete:
        missing = [
            i for i in range(manifest.n_chunks) if decoder.needed_for_chunk(i) > 0
        ]
        print(
            f"download FAILED: chunks {missing} still need messages",
            file=sys.stderr,
        )
        return 1
    data = decoder.result()
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(
        f"downloaded {len(data)} bytes -> {args.out} "
        f"({total_slots} slot(s), {total_bytes:.0f} wire bytes, "
        f"{len(failures)} faulty peer(s))"
    )
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    return _with_obs(args, lambda: _repair(args))


def _repair(args: argparse.Namespace) -> int:
    """Recombine surviving stores into fresh coded messages — no secret.

    Each source argument is one helper peer's store.  For every chunk
    below the redundancy target (or for ``--count`` messages when
    given), the helpers' stored messages are recombined under public,
    replayable coefficients into a new bundle written to ``--out``.
    Helper messages that fail ``--digests`` are dropped first; digests
    of the fresh messages are then computed locally from the minted
    payloads — the owner's secret never leaves home, and no plaintext
    is needed.  The repair records that make the new ids decodable are
    appended to ``--repairs`` (pass the same file to ``repro download``
    or a later ``repro repair``).
    """
    from .gf import GF
    from .repair import RedundancyMonitor, RepairCoordinator

    manifest = _load_manifest(args.manifest)
    stores = _load_stores([[source] for source in args.sources], manifest)
    digest_store = _load_digests(args.digests) if args.digests else None
    repairs_path = (
        args.repairs
        if args.repairs
        else os.path.join(args.out, "repairs.json")
    )
    records: dict[int, list] = (
        _load_repairs(repairs_path) if os.path.exists(repairs_path) else {}
    )

    monitor = RedundancyMonitor(
        manifest.params_for_chunk(0).k, threshold=args.threshold
    )
    wanted = monitor.deficit if args.count is None else (lambda live: args.count)
    coordinator = RepairCoordinator(GF(manifest.p), records)
    fresh = MessageStore()
    produced = degraded = bad = 0
    for index, chunk_id in enumerate(manifest.chunk_ids):
        live, outcome = _repair_chunk(
            coordinator, chunk_id, stores, fresh, digest_store, wanted
        )
        bad += sum(store.count(chunk_id) for store in stores) - live
        if outcome is None:
            print(f"chunk {index} ({chunk_id:#x}): {live} live message(s), no deficit")
            continue
        if not outcome.ok:
            degraded += 1
            print(
                f"chunk {index} ({chunk_id:#x}): repair FAILED "
                f"({'; '.join(outcome.report.warnings) or 'no helpers'})",
                file=sys.stderr,
            )
            continue
        produced += outcome.report.produced
        state = " (partial)" if outcome.report.degraded else ""
        print(
            f"chunk {index} ({chunk_id:#x}): +{outcome.report.produced} "
            f"message(s) from {outcome.report.helpers_contacted} helper(s), "
            f"epoch {outcome.record.epoch}{state}"
        )

    if bad:
        print(f"WARNING: {bad} helper message(s) failed digest verification "
              "and were excluded", file=sys.stderr)
    if produced == 0 and degraded == 0:
        print("nothing to repair: every chunk meets the redundancy target")
        return 0
    os.makedirs(args.out, exist_ok=True)
    written = fresh.save_dat(args.out)
    count = _write_repairs(repairs_path, records)
    print(
        f"repaired {produced} message(s) -> {args.out} "
        f"({len(written)} .dat store(s)); {count} repair record(s) "
        f"-> {repairs_path}"
    )
    if digest_store is not None:
        digests_out = args.digests_out if args.digests_out else args.digests
        entries = _write_digests(digests_out, digest_store, manifest.chunk_ids)
        print(f"digests now hold {entries} MD5 entries -> {digests_out}")
    return 1 if degraded else 0


def cmd_inspect(args: argparse.Namespace) -> int:
    store = MessageStore()
    for path in _collect_dat_paths(args.sources):
        count = store.load_dat(path, p=args.p, m=args.m)
        print(f"{path}: {count} message(s)")
    for file_id in store.files():
        msgs = store.messages(file_id)
        ids = [m.message_id for m in msgs]
        print(
            f"file {file_id:#018x}: {len(msgs)} message(s), "
            f"ids {min(ids)}..{max(ids)}, "
            f"{sum(m.wire_size() for m in msgs)} bytes"
        )
    return 0


_SCENARIOS = (
    "fig5a", "fig5b", "fig6", "fig7", "fig8a", "fig8b", "faults", "repair",
    "scale", "churn-scale",
)

#: Default fault schedule for ``repro simulate faults`` when no
#: ``--faults`` spec is given: one permanent crash, one long stall, one
#: refusal among six peers.
_DEFAULT_SIM_FAULTS = "0:crash@32000000;1:stall@1000+800;2:refuse"


def cmd_simulate(args: argparse.Namespace) -> int:
    return _with_obs(args, lambda: _simulate(args))


def _simulate(args: argparse.Namespace) -> int:
    from .sim import (
        faulty_network,
        figure_5a,
        figure_5b,
        figure_6,
        figure_7,
        figure_8a,
        figure_8b,
    )

    if args.faults and args.scenario not in ("faults", "repair"):
        raise SystemExit(
            "--faults only applies to the 'faults' and 'repair' scenarios"
        )
    if args.workers is not None and (
        args.engine != "procs" or args.scenario not in ("scale", "churn-scale")
    ):
        raise SystemExit(
            "--workers only applies to --engine procs on the 'scale' and "
            "'churn-scale' scenarios"
        )
    if args.scenario == "repair":
        return _simulate_repair(args)
    if args.scenario in ("scale", "churn-scale"):
        return _simulate_population(args)

    def _run_faults():
        plan = _parse_faults(args.faults or _DEFAULT_SIM_FAULTS, args.seed)
        try:
            return faulty_network(plan=plan, seed=args.seed, engine=args.engine)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc

    runners = {
        "fig5a": lambda: figure_5a(seed=args.seed, engine=args.engine),
        "fig5b": lambda: figure_5b(seed=args.seed, engine=args.engine),
        "fig6": lambda: figure_6(seed=args.seed, engine=args.engine),
        "fig7": lambda: figure_7(seed=args.seed, engine=args.engine),
        "fig8a": lambda: figure_8a(seed=args.seed, engine=args.engine),
        "fig8b": lambda: figure_8b(seed=args.seed, engine=args.engine),
        "faults": _run_faults,
    }
    result = runners[args.scenario]()
    final = result.window_mean_rates(result.slots - result.slots // 10, result.slots)
    print(f"scenario {args.scenario}: {result.slots} slots x {result.n} peers")
    print(f"{'peer':<28} {'mean cap':>9} {'gamma':>6} {'final rate':>11} {'gain':>8}")
    gains = result.gains_over_isolation()
    caps = result.mean_capacity()
    gammas = result.empirical_gamma()
    for i in range(result.n):
        print(
            f"{result.label_of(i):<28} {caps[i]:>9.1f} {gammas[i]:>6.2f} "
            f"{final[i]:>11.1f} {gains[i]:>+8.1f}"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh)
        print(f"result -> {args.json}")
    if args.report or args.report_json:
        events = obs.TRACER.recorded() if obs.TRACER.enabled else None
        _emit_run_report(args, obs.report.simulation_report(result, events=events))
    return 0


def _simulate_population(args: argparse.Namespace) -> int:
    """Run a cohort-structured population scenario on the sparse engines.

    ``scale`` is the sparse-engine showcase; ``churn-scale`` adds giver
    churn (contributor generations join and leave).  Ledgers are
    cumulative, so the departed generations' entries stay and the
    printed bytes/peer grows with every generation a consumer met.

    Aggregate-only history: per-slot arrays would dominate the memory
    the sparse engine exists to save, so the printout reports the O(n)
    summary plus the engine's own state accounting.
    """
    from .sim import sparse_population_churn, sparse_population_sim

    n, cohorts = 20_000, 32
    common = dict(
        n=n, cohorts=cohorts, seed=args.seed, engine=args.engine, workers=args.workers
    )
    if args.scenario == "scale":
        givers, slots = 16, 64
        sim = sparse_population_sim(givers=givers, slots=slots, **common)
        shape = f"{givers} givers"
    else:
        per_phase, phases, phase_slots = 16, 4, 32
        slots = phases * phase_slots
        sim = sparse_population_churn(
            givers_per_phase=per_phase,
            phases=phases,
            phase_slots=phase_slots,
            **common,
        )
        shape = f"{phases} giver generations x {per_phase}"
    with sim:
        result = sim.run(slots, history="none")
        state = sim.memory_bytes()
    summary = result.summary
    served = float(summary["rate_sum"].sum())
    requests = int(summary["request_count"].sum())
    print(
        f"scenario {args.scenario}: {slots} slots x {n} peers "
        f"({shape}, {cohorts} request cohorts, backend {sim.backend})"
    )
    print(f"engine state: {state / n:.1f} bytes/peer")
    print(
        f"served {served:.0f} kbps-slots over {requests} request-slots "
        f"({served / max(1, requests):.1f} kbps mean while requesting)"
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh)
        print(f"result -> {args.json}")
    return 0


def _simulate_repair(args: argparse.Namespace) -> int:
    """Run the repair-under-churn scenario and print its metrics.

    ``--faults`` may cast the churn explicitly (``depart`` peers are
    wiped for good, ``rejoin`` peers come back cache-empty and get
    repaired); without it a seeded random 3-of-8 cast is used.
    """
    from .sim import repair_under_churn

    plan = _parse_faults(args.faults, args.seed) if args.faults else None
    try:
        result = repair_under_churn(seed=args.seed, plan=plan)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    print(
        f"scenario repair: {result['n']} peers, churn killed "
        f"{result['killed']}"
        + (f", rejoined {result['rejoined']}" if result["rejoined"] else "")
        + f" ({result['dropped_message_fraction']:.0%} of coded messages lost)"
    )
    print(
        f"decode probability under {result['further_failures']} further "
        f"failure(s): pre-churn {result['prob_pre']:.2f} -> churned "
        f"{result['prob_churn']:.2f} -> repaired {result['prob_repaired']:.2f}"
    )
    print(
        f"repair: {result['produced']} fresh message(s), owner payload "
        f"{result['owner_payload_bytes']} B, owner digests "
        f"{result['owner_digest_bytes']} B, helper bandwidth "
        f"{result['helper_bandwidth_bytes']} B"
    )
    if result["degraded_chunks"]:
        print(
            f"WARNING: {result['degraded_chunks']} chunk(s) repaired only "
            "partially",
            file=sys.stderr,
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
        print(f"result -> {args.json}")
    restored = result["prob_repaired"] >= result["prob_pre"]
    if not restored:
        print(
            "repair did NOT restore the pre-churn decode probability",
            file=sys.stderr,
        )
    return 0 if restored else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """Show the observability catalog, or pretty-print a saved snapshot."""
    if args.snapshot is not None:
        try:
            with open(args.snapshot) as fh:
                snapshot = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read snapshot: {exc}") from exc
        if not isinstance(snapshot, dict) or not all(
            isinstance(v, dict) and "kind" in v for v in snapshot.values()
        ):
            raise SystemExit(
                f"{args.snapshot} is not a metrics snapshot "
                "(expected the JSON written by --metrics-out)"
            )
    else:
        # Import every instrumented layer so its metrics are registered
        # and the catalog is complete.
        from . import sim, transfer  # noqa: F401

        snapshot = obs.REGISTRY.snapshot()
    if args.format == "json":
        print(json.dumps(snapshot, indent=2))
    elif args.format == "openmetrics":
        print(obs.render_openmetrics(snapshot), end="")
    elif args.snapshot is not None:
        print(obs.render_snapshot(snapshot, header=args.snapshot))
    else:
        print(obs.render_catalog(snapshot, obs.events.ALL_EVENTS))
    return 0


def cmd_trace_analyze(args: argparse.Namespace) -> int:
    """Reconstruct the span tree and timelines from a recorded trace."""
    try:
        events = obs.read_jsonl(args.file, meta=True)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"cannot read trace: {exc}") from exc
    print(obs.report.render_report(obs.report.trace_report(events)), end="")
    return 0


_LINT_DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def cmd_lint(args: argparse.Namespace) -> int:
    from .lint import RULES, LintError, run_lint

    if args.list_rules:
        from .lint.engine import _ensure_rules_loaded

        _ensure_rules_loaded()
        width = max(len(rid) for rid in RULES)
        for rid in sorted(RULES):
            rule = RULES[rid]
            scope = ", ".join(rule.scope) if rule.scope else "all files"
            print(f"{rid:<{width}}  [{scope}]")
            print(f"{'':<{width}}  {rule.rationale}")
        return 0

    try:
        if args.changed is not None:
            from .lint.engine import changed_files

            paths = changed_files(args.changed)
            if not paths:
                print("0 findings in 0 file(s) (no python files changed "
                      f"vs {args.changed})")
                return 0
        else:
            paths = args.paths or [
                p for p in _LINT_DEFAULT_PATHS if os.path.isdir(p)
            ]
            if not paths:
                print("repro lint: no paths given and none of "
                      f"{'/'.join(_LINT_DEFAULT_PATHS)} exist here",
                      file=sys.stderr)
                return 2
        report = run_lint(paths, rule_ids=args.rule or None)
    except LintError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return report.exit_code()


def cmd_channel(args: argparse.Namespace) -> int:
    print(f"{'technology':<14} {'direction':<9} {'kbps':>6} {'time':>14}")
    for tech in TECHNOLOGIES:
        for direction, kbps in (
            ("upload", tech.upload_kbps),
            ("download", tech.download_kbps),
        ):
            seconds = transmission_seconds(args.size, kbps)
            print(f"{tech.name:<14} {direction:<9} {kbps:>6.0f} {seconds:>12.1f} s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fair and secure bandwidth sharing over asymmetric channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a file into per-peer .dat bundles")
    enc.add_argument("file")
    enc.add_argument("--out", required=True, help="output directory")
    enc.add_argument("--secret", required=True, help="owner secret key")
    enc.add_argument("--peers", type=int, default=4)
    enc.add_argument("--p", type=int, default=16, choices=(4, 8, 16, 32))
    enc.add_argument("--m", type=int, default=512, help="symbols per message")
    enc.add_argument(
        "--chunk-bytes", type=int, default=1 << 20, help="bytes per encoded chunk"
    )
    enc.add_argument("--file-id", type=int, default=None)
    enc.set_defaults(func=cmd_encode)

    upd = sub.add_parser(
        "update", help="re-encode only the changed chunks of a new file version"
    )
    upd.add_argument("file", help="path to the new version of the file")
    upd.add_argument("--out", required=True, help="existing encoded directory")
    upd.add_argument("--manifest", required=True)
    upd.add_argument("--secret", required=True)
    upd.add_argument("--peers", type=int, default=4)
    upd.set_defaults(func=cmd_update)

    dec = sub.add_parser("decode", help="reassemble a file from .dat stores")
    dec.add_argument("sources", nargs="+", help=".dat files or peer directories")
    dec.add_argument("--manifest", required=True)
    dec.add_argument("--secret", required=True)
    dec.add_argument("--out", required=True)
    dec.add_argument("--digests", default=None, help="digests.json for authentication")
    dec.add_argument(
        "--repairs", default=None, metavar="FILE",
        help="repairs.json from `repro repair`, making its repaired "
        "message ids decodable",
    )
    _add_obs_flags(dec)
    dec.set_defaults(func=cmd_decode)

    dl = sub.add_parser(
        "download",
        help="robust parallel download over the session stack "
        "(one peer per source; optional fault injection)",
    )
    dl.add_argument(
        "sources", nargs="+",
        help="one .dat file or peer directory per serving peer",
    )
    dl.add_argument("--manifest", required=True)
    dl.add_argument("--secret", required=True)
    dl.add_argument("--out", required=True)
    dl.add_argument(
        "--digests", default=None,
        help="digests.json; enables verification/quarantine of polluted peers",
    )
    dl.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault plan, e.g. 'seed=7;0:pollute;1:crash@1500;2:stall@10+6'",
    )
    dl.add_argument(
        "--rate", type=float, default=512.0,
        help="granted kbps per peer per slot (default 512)",
    )
    dl.add_argument(
        "--max-slots", type=int, default=100_000,
        help="give up on a chunk after this many slots",
    )
    dl.add_argument(
        "--stall-timeout", type=int, default=12, metavar="SLOTS",
        help="quarantine a peer silent for this many consecutive slots",
    )
    dl.add_argument("--seed", type=int, default=0, help="keypair/auth seed")
    dl.add_argument(
        "--repair-threshold", type=float, default=None, metavar="X",
        help="arm mid-download repair: when undelivered supply falls below "
        "X times what a chunk still needs, surviving stores recombine "
        "fresh messages, helpers screened against --digests "
        "(omit for the exact legacy behaviour)",
    )
    dl.add_argument(
        "--repairs", default=None, metavar="FILE",
        help="repairs.json from `repro repair`, making its repaired "
        "message ids decodable",
    )
    _add_obs_flags(dl)
    _add_report_flags(dl)
    dl.set_defaults(func=cmd_download)

    rep = sub.add_parser(
        "repair",
        help="recombine surviving .dat stores into fresh coded messages "
        "(no secret or plaintext needed)",
    )
    rep.add_argument(
        "sources", nargs="+",
        help="one .dat file or peer directory per surviving helper",
    )
    rep.add_argument("--manifest", required=True)
    rep.add_argument("--out", required=True, help="directory for the new bundle")
    rep.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="mint exactly N fresh messages per chunk "
        "(default: the deficit against --threshold)",
    )
    rep.add_argument(
        "--threshold", type=float, default=1.0, metavar="X",
        help="redundancy target in multiples of k (default 1.0)",
    )
    rep.add_argument(
        "--digests", default=None,
        help="digests.json; verifies helpers and records fresh digests",
    )
    rep.add_argument(
        "--digests-out", default=None, metavar="FILE",
        help="where to write the updated digests (default: --digests in place)",
    )
    rep.add_argument(
        "--repairs", default=None, metavar="FILE",
        help="repair-record registry to extend "
        "(default: <out>/repairs.json, created if missing)",
    )
    _add_obs_flags(rep)
    rep.set_defaults(func=cmd_repair)

    ins = sub.add_parser("inspect", help="show the contents of .dat stores")
    ins.add_argument("sources", nargs="+")
    ins.add_argument("--p", type=int, required=True, choices=(4, 8, 16, 32))
    ins.add_argument("--m", type=int, required=True)
    ins.set_defaults(func=cmd_inspect)

    simp = sub.add_parser("simulate", help="rerun a paper evaluation scenario")
    simp.add_argument("scenario", choices=_SCENARIOS)
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument(
        "--engine",
        choices=("auto", "reference", "batched", "sparse", "procs"),
        default="auto",
        help="slot-loop implementation: 'auto' picks the batched engine, "
        "or the sparse engine once the population or its dense state is "
        "too large; 'procs' (the sparse kernel in worker processes) only "
        "runs when named (all bit-identical to 'reference')",
    )
    simp.add_argument(
        "--workers", type=int, default=None, metavar="W",
        help="shard worker processes, with --engine procs only "
        "(default: min(4, usable CPUs))",
    )
    simp.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault plan for the 'faults' scenario "
        "(e.g. '0:crash@32000000;1:stall@1000+800;2:refuse')",
    )
    simp.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the full SimulationResult as JSON",
    )
    _add_obs_flags(simp)
    _add_report_flags(simp)
    simp.set_defaults(func=cmd_simulate)

    stats = sub.add_parser(
        "stats", help="observability: metric/event catalog or a saved snapshot"
    )
    stats.add_argument(
        "snapshot", nargs="?", default=None,
        help="snapshot JSON written by --metrics-out (omit for the catalog)",
    )
    stats.add_argument(
        "--format", choices=("text", "json", "openmetrics"), default="text",
        help="output format (openmetrics = Prometheus-compatible text)",
    )
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser(
        "trace", help="trace tooling over recorded JSONL traces"
    )
    tsub = trace.add_subparsers(dest="trace_command", required=True)
    tana = tsub.add_parser(
        "analyze",
        help="reconstruct the span tree, critical path and per-peer/"
        "per-slot timelines from a --trace JSONL",
    )
    tana.add_argument("file", help="trace JSONL written by --trace")
    tana.set_defaults(func=cmd_trace_analyze)

    chan = sub.add_parser("channel", help="Fig. 1 asymmetric-link timing table")
    chan.add_argument("--size", type=int, default=1 << 30, help="bytes to transmit")
    chan.set_defaults(func=cmd_channel)

    lint = sub.add_parser(
        "lint",
        help="invariant-aware static analysis (determinism, float-safety, "
        "trace schema, API contracts)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories (default: src tests benchmarks examples)",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--rule", action="append", metavar="RULE-ID",
        help="run only this rule (repeatable)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print every rule id, its scope and rationale, then exit",
    )
    lint.add_argument(
        "--changed", metavar="REF",
        help="lint only python files changed vs the given git ref",
    )
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    try:
        code = main()
    except BrokenPipeError:
        # `repro stats | head` closes stdout early; that is not an error.
        import os
        import sys

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
