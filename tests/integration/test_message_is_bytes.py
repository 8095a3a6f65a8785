"""A message is its wire bytes: who packs, who unpacks, and that every
representation of one message agrees.

These pin the property the timing comes from, not the timing: the owner
multiplies the file's bytes straight into message records, a peer
(store, ``.dat``, restart, serve, frame) never looks at a symbol, and the
user's decoder multiplies the records it accepts straight into file
bytes.  No symbol is packed or unpacked on the way, except at ``p = 4``
with an odd ``m``, where the file's nibbles are laid out as records once
per chunk, and back once per decoded chunk.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rlnc import ChunkedEncoder, CodingParams, EncodedMessage, ProgressiveDecoder
from repro.rlnc import symbols as symbols_module
from repro.security import DigestStore, generate_keypair
from repro.storage import MessageStore
from repro.transfer import (
    DataMessage,
    DownloadSession,
    ParallelDownloader,
    ServingSession,
    decode_frame,
    encode_frame,
)

N_PEERS = 3


class Calls:
    """How often the two conversions between symbols and bytes ran."""

    def __init__(self, monkeypatch):
        self.packs = self.unpacks = 0
        # ``from .symbols import ...`` copies the binding: wrap the name in
        # every repro module that holds one, or a call would go uncounted.
        for counter, name in (("packs", "pack_symbols"), ("unpacks", "bytes_to_symbols")):
            original = getattr(symbols_module, name)
            wrapper = self._counting(counter, original)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("repro") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)

    def _counting(self, counter, original):
        def wrapper(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return original(*args, **kwargs)

        return wrapper

    def take(self) -> tuple[int, int]:
        out = (self.packs, self.unpacks)
        self.packs = self.unpacks = 0
        return out


@pytest.fixture(scope="module")
def keys():
    return generate_keypair(bits=512, seed=23)


class FramedSession:
    """A serving session whose messages cross ``transfer.wire`` both ways."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def serve(self, byte_budget):
        return [decode_frame(encode_frame(d)) for d in self._inner.serve(byte_budget)]


@pytest.mark.parametrize(
    "params",
    [
        CodingParams(p=8, m=64, file_bytes=1024),
        CodingParams(p=32, m=16, file_bytes=512),
        CodingParams(p=4, m=33, file_bytes=17 * 8),  # records end on a padding nibble
    ],
    ids=lambda params: f"p{params.p}-m{params.m}",
)
def test_who_packs_and_who_unpacks(params, rng, keys, tmp_path, monkeypatch):
    calls = Calls(monkeypatch)
    data = rng.bytes(3 * params.file_bytes - 5)  # three chunks, the last one short
    encoder = ChunkedEncoder(params, b"secret", 0x51)
    digests = DigestStore()

    # -- owner: the file's records multiply into message records ---------
    manifest, chunks = encoder.encode_file(data, N_PEERS, digests)
    nibbles = params.p == 4 and params.m % 2  # a layout to convert
    # reshape_file_matrix, once per chunk, at p = 4 with odd m only:
    # encoding and recording digests looked at no symbol.
    assert calls.take() == (0, manifest.n_chunks if nibbles else 0)

    # -- peers: store, persist, restart, serve, frame ---------------------
    stores, n_frames = [], 0
    for peer in range(N_PEERS):
        store = MessageStore()
        for encoded in chunks:
            store.add_messages(encoded.bundles[peer])
        store.save_dat(str(tmp_path / f"peer{peer}"))
        restarted = MessageStore()
        for path in sorted((tmp_path / f"peer{peer}").iterdir()):
            restarted.load_dat(str(path), p=manifest.p, m=manifest.m)
        stores.append(restarted)
        for chunk_id in manifest.chunk_ids:
            serving = ServingSession(restarted, keys.public)
            DownloadSession(keys).handshake(serving, chunk_id)
            n_frames += len([encode_frame(d) for d in serving.serve(float("inf"))])
    assert calls.take() == (0, 0)
    stored = [msg for store in stores for fid in store.files() for msg in store.messages(fid)]
    assert len(stored) == N_PEERS * params.k * manifest.n_chunks
    assert all(msg._symbols is None for msg in stored)
    assert n_frames == len(stored)

    # -- user: accepted records multiply into file bytes ------------------
    pieces = []
    for index, chunk_id in enumerate(manifest.chunk_ids):
        decoder = ProgressiveDecoder(
            manifest.params_for_chunk(index), encoder.coefficient_generator(index), digests
        )
        if params.p == 4:
            # PROTOCOL §2's known limit: a DATA frame does not carry m, so
            # odd m at p = 4 does not survive decode_frame; hand the
            # decoder what a peer's store holds instead.
            decoder.offer_many(stores[0].messages(chunk_id))
        else:
            sessions = []
            for store in stores:
                serving = ServingSession(store, keys.public)
                DownloadSession(keys).handshake(serving, chunk_id)
                sessions.append(FramedSession(serving))
            downloader = ParallelDownloader(sessions, decoder, lambda i, t: 64.0 + 16 * i)
            assert downloader.run(10_000, file_id=chunk_id).complete
        assert calls.take() == (0, 0)
        assert decoder.accepted == params.k and decoder.rejected == 0
        pieces.append(decoder.result(manifest.chunk_lengths[index]))
        assert calls.take() == ((1, 1) if nibbles else (0, 0))
    assert b"".join(pieces) == data


#: Every field width, and lengths on both sides of every alignment:
#: p = 4 with odd m is the record that ends on half a byte.
shapes = st.tuples(st.sampled_from([4, 8, 16, 32]), st.integers(1, 67))


@st.composite
def messages(draw):
    p, m = draw(shapes)
    payload = draw(
        st.lists(st.integers(0, (1 << p) - 1), min_size=m, max_size=m)
    )
    file_id = draw(st.integers(0, (1 << 64) - 1))
    message_id = draw(st.integers(0, (1 << 64) - 1))
    return EncodedMessage(file_id, message_id, np.array(payload, dtype=np.uint64), p)


def same_message(a: EncodedMessage, b: EncodedMessage) -> bool:
    return (
        (a.file_id, a.message_id, a.p, a.m) == (b.file_id, b.message_id, b.p, b.m)
        and np.array_equal(a.payload, b.payload)
        and bytes(a.payload_bytes()) == bytes(b.payload_bytes())
        and a.to_bytes() == b.to_bytes()
        and a.wire_size() == b.wire_size() == len(a.to_bytes())
        and a == b
        and hash(a) == hash(b)
        and repr(a) == repr(b)
    )


@pytest.fixture(scope="module")
def dat_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("dat")


@given(msg=messages())
@settings(max_examples=150, deadline=None)
def test_every_representation_of_one_message_agrees(msg, dat_dir):
    p, m = msg.p, msg.m
    assert msg.payload.dtype == np.uint32 and not msg.payload.flags.writeable
    assert len(msg.payload) == m and msg.wire_size() == 16 + (m * p + 7) // 8

    # .dat: the manifest carries m, so every shape survives exactly
    store = MessageStore()
    store.add_messages([msg])
    (path,) = store.save_dat(str(dat_dir))
    with open(path, "rb") as fh:
        assert fh.read() == msg.to_bytes()
    loaded = MessageStore()
    assert loaded.load_dat(path, p=p, m=m) == 1
    assert same_message(loaded.messages(msg.file_id)[0], msg)

    # the record and the DATA frame do not carry m: at p = 4 an odd m
    # comes back as m + 1 symbols, the last one the zero padding nibble
    # (PROTOCOL §2, "known limit"); the bytes agree regardless
    frame = encode_frame(DataMessage(msg))
    for parsed in (EncodedMessage.from_bytes(msg.to_bytes(), p), decode_frame(frame).message):
        assert parsed.to_bytes() == msg.to_bytes()
        assert encode_frame(DataMessage(parsed)) == frame
        if p == 4 and m % 2:
            assert parsed.m == m + 1 and parsed != msg
            assert parsed.payload.tolist() == msg.payload.tolist() + [0]
            parsed = EncodedMessage.from_records(parsed.to_bytes(), p, m)[0]
        assert same_message(parsed, msg)
