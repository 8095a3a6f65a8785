"""No run output carries key material (Section III: the coefficients are
the decryption key, so they are never transmitted).

Two end-to-end runs — a traced, metered :class:`FileSharingNetwork`
publish -> update -> download -> survivor repair, and the CLI's
``encode -> download -> repair -> download --repairs`` — have every
output they produce collected: trace JSONL, metrics snapshots,
OpenMetrics text, run reports, ``DownloadReport`` / ``RepairRecord``
dicts, manifests, digests, ``repairs.json``, printed output and every
protocol message framed by :func:`repro.transfer.encode_frame`.  None of
it may contain, as raw bytes, hex or decimal:

* an owner secret;
* a per-chunk key ``derive_key(secret, "chunk", i[, "version", v])``;
* a coefficient-stream key ``derive_key(chunk_key, "rlnc-coefficients",
  chunk_id)``;
* an RSA private exponent or prime (``d``, ``p``, ``q``).

This is the eavesdropper's view (Lima et al., arXiv 0809.1366): a
passive observer of everything the system emits.  The repair
recombination stream is public by design and is not checked.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.rlnc.chunking import FileManifest
from repro.rlnc.coefficients import CoefficientGenerator
from repro.security import KeyedStream, derive_key, generate_keypair
from repro.sim.network import FileSharingNetwork
from repro.transfer import ServingSession, encode_frame
from repro.transfer.wire import FRAME_TYPES

SECRET = "owner-secret-never-on-the-wire"
KEY_SEED = 5


# -- needles ---------------------------------------------------------------


def _spellings(value: bytes | int) -> list[bytes]:
    """``value`` as raw bytes, hex (both cases) and decimal."""
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        ints = [value]
    else:
        raw = bytes(value)
        ints = [int.from_bytes(raw, "big"), int.from_bytes(raw, "little")]
    out = [raw, raw[::-1], raw.hex().encode(), raw.hex().upper().encode()]
    for n in ints:
        out += [str(n).encode(), f"{n:x}".encode(), f"{n:X}".encode()]
    # A byte string dumped as a JSON/Python list of its byte values.
    out += [", ".join(map(str, raw)).encode(), ",".join(map(str, raw)).encode()]
    return out


def _chunk_key(secret: bytes, index: int, version: int) -> bytes:
    if version == 0:
        return derive_key(secret, "chunk", index)
    return derive_key(secret, "chunk", index, "version", version)


def _file_keys(secret: bytes, manifests) -> dict[str, bytes]:
    """The owner secret plus every chunk and coefficient-stream key of
    every chunk version the ``manifests`` name."""
    keys = {"owner secret": secret}
    for manifest in manifests:
        for i, chunk_id in enumerate(manifest.chunk_ids):
            v = manifest.chunk_versions[i]
            chunk_key = _chunk_key(secret, i, v)
            keys[f"chunk {i} v{v} key"] = chunk_key
            keys[f"chunk {i} v{v} coefficient key"] = derive_key(
                chunk_key, "rlnc-coefficients", chunk_id
            )
    return keys


def _rsa_keys(label: str, keypair) -> dict[str, int]:
    private = keypair.private
    return {f"{label} d": private.d, f"{label} p": private.p, f"{label} q": private.q}


def _blob(obj) -> bytes:
    """Every leaf of a JSON-like structure, bytes kept raw."""
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return bytes(obj)
    if isinstance(obj, dict):
        return b"\n".join(_blob(k) + b"=" + _blob(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return b"\n".join(_blob(v) for v in obj)
    return str(obj).encode()


def _leaks(outputs: dict[str, bytes], keys: dict[str, bytes | int]) -> list[str]:
    found = []
    for key_name, value in keys.items():
        for needle in _spellings(value):
            for out_name, hay in outputs.items():
                if needle in hay:
                    found.append(f"{key_name} in {out_name} as {needle[:24]!r}...")
    return found


# -- wire frames -------------------------------------------------------------


@pytest.fixture()
def frames(monkeypatch) -> list[bytes]:
    """Frame every protocol message a serving session sends or receives."""
    captured: list[bytes] = []

    def framing(method):
        def wrapper(self, *args):
            result = method(self, *args)
            sent = result if isinstance(result, list) else [result]
            for msg in (*args, *sent):
                if type(msg) in FRAME_TYPES:
                    captured.append(encode_frame(msg))
            return result

        return wrapper

    for name in ("begin_auth", "complete_auth", "accept_request", "serve", "stop"):
        monkeypatch.setattr(ServingSession, name, framing(getattr(ServingSession, name)))
    return captured


# -- the checker checks --------------------------------------------------------


def test_needles_catch_every_spelling():
    key = derive_key(b"x", "chunk", 0)
    for hay in (
        json.dumps({"key": key.hex()}).encode(),
        json.dumps({"key": int.from_bytes(key, "big")}).encode(),
        json.dumps({"key": list(key)}).encode(),
        b"frame" + key + b"tail",
    ):
        assert _leaks({"out": hay}, {"k": key}), hay
    assert _leaks({"out": str(12345678901234567890).encode()}, {"d": 12345678901234567890})
    assert not _leaks({"out": b"nothing secret here"}, {"k": key})


# -- the runs -----------------------------------------------------------------


def test_network_run_emits_no_key_material(frames, tmp_path):
    net = FileSharingNetwork([400.0, 300.0, 500.0, 350.0], seed=3, background_gamma=0.2)
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, size=20_000, dtype=np.uint8).tobytes()
    edited = bytearray(data)
    edited[9_000] ^= 0xFF
    with obs.observability(tracing=True, reset=True):
        handle = net.publish(0, "clip", data)
        first = handle.manifest
        net.publish_update(0, "clip", bytes(edited))
        download = net.download(1, "clip")
        repair = net.churn_repair("clip", target=3, count=4)
        again = net.download(2, "clip", peers=[3, 1])
        events = obs.TRACER.recorded()
        obs.TRACER.write_jsonl(tmp_path / "trace.jsonl")
        snapshot = obs.REGISTRY.snapshot()
    assert download.data == bytes(edited) and again.data == bytes(edited)
    assert repair["produced"] > 0 and frames

    reports = [*download.reports, *again.reports]
    sources = [list(range(net.n))] * len(download.reports) + [[3, 1]] * len(again.reports)
    outputs = {
        "trace": (tmp_path / "trace.jsonl").read_bytes(),
        "metrics snapshot": json.dumps(snapshot).encode(),
        "openmetrics": obs.render_openmetrics(snapshot).encode(),
        "run report": json.dumps(
            obs.report.download_report(reports, sources, events=events)
        ).encode(),
        "download reports": _blob([r.to_dict() for r in reports]),
        "churn_repair summary": _blob(repair),
        "repair records": _blob(
            {cid: [r.to_dict() for r in recs] for cid, recs in handle.repair_records.items()}
        ),
        "manifests": _blob([first.to_dict(), handle.manifest.to_dict()]),
        "digests": _blob([d.to_dict() for d in net.digest_stores]),
        "wire frames": b"\n".join(frames),
    }
    keys: dict[str, bytes | int] = {f"peer {i} secret": s for i, s in enumerate(net.secrets)}
    keys.update(_file_keys(net.secrets[0], [first, handle.manifest]))
    for i, pair in enumerate(net.keypairs):
        keys.update(_rsa_keys(f"peer {i} RSA", pair))

    # The keys are the ones the run used: rebuilding a chunk's generator
    # and stream from them reproduces the owner's coefficient rows.
    manifest = handle.manifest
    i = next(j for j, v in enumerate(manifest.chunk_versions) if v)
    v, chunk_id = manifest.chunk_versions[i], manifest.chunk_ids[i]
    owner = handle.encoder.coefficient_generator(i, v)
    rebuilt = CoefficientGenerator(owner.field, owner.k, keys[f"chunk {i} v{v} key"], chunk_id)
    stream = KeyedStream(keys[f"chunk {i} v{v} coefficient key"])
    assert np.array_equal(rebuilt.row(3), owner.row(3))
    assert np.array_equal(stream.symbols(3, owner.k, owner.field.p), owner.row(3))

    assert _leaks(outputs, keys) == []


def test_cli_run_emits_no_key_material(frames, tmp_path, capsys):
    rng = np.random.default_rng(11)
    video = tmp_path / "video.bin"
    video.write_bytes(rng.integers(0, 256, size=3_000, dtype=np.uint8).tobytes())
    enc = tmp_path / "enc"
    peers = [str(enc / f"peer{i}") for i in range(3)]
    common = ["--manifest", str(enc / "manifest.json"), "--digests", str(enc / "digests.json")]
    steps = [
        ["encode", str(video), "--out", str(enc), "--secret", SECRET, "--peers", "3",
         "--p", "16", "--m", "64", "--chunk-bytes", "1024"],
        ["download", *peers, *common, "--secret", SECRET, "--seed", str(KEY_SEED),
         "--out", str(tmp_path / "got.bin"), "--trace", str(tmp_path / "dl.jsonl"),
         "--metrics-out", str(tmp_path / "dl-metrics.json"),
         "--report-json", str(tmp_path / "dl-report.json")],
        ["repair", peers[0], peers[1], *common, "--out", str(enc / "peer3"),
         "--count", "4", "--trace", str(tmp_path / "rp.jsonl"),
         "--metrics-out", str(tmp_path / "rp-metrics.json")],
        ["download", str(enc / "peer3"), peers[2], *common, "--secret", SECRET,
         "--seed", str(KEY_SEED), "--repairs", str(enc / "peer3" / "repairs.json"),
         "--out", str(tmp_path / "got2.bin"), "--trace", str(tmp_path / "dl2.jsonl"),
         "--report-json", str(tmp_path / "dl2-report.json")],
        ["stats", str(tmp_path / "dl-metrics.json"), "--format", "openmetrics"],
    ]
    printed = []
    for argv in steps:
        assert main(argv) == 0, argv
        printed.append(capsys.readouterr().out)
    assert (tmp_path / "got.bin").read_bytes() == video.read_bytes()
    assert (tmp_path / "got2.bin").read_bytes() == video.read_bytes()
    assert frames

    plaintext = {video, tmp_path / "got.bin", tmp_path / "got2.bin"}
    outputs = {
        str(path.relative_to(tmp_path)): path.read_bytes()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.suffix != ".dat" and path not in plaintext
    }
    for name in ("dl.jsonl", "dl-metrics.json", "dl-report.json", "rp.jsonl",
                 "enc/manifest.json", "enc/digests.json", "enc/peer3/repairs.json"):
        assert name in outputs, name
    outputs["printed output"] = "\n".join(printed).encode()
    outputs["wire frames"] = b"\n".join(frames)

    manifest = FileManifest.from_dict(json.loads(outputs["enc/manifest.json"]))
    keys: dict[str, bytes | int] = _file_keys(SECRET.encode(), [manifest])
    keys.update(_rsa_keys("user RSA", generate_keypair(bits=512, seed=KEY_SEED)))
    assert _leaks(outputs, keys) == []
