"""Per-peer message storage with ``File-id.dat`` semantics (Fig. 3).

A peer stores, for each file id, an ordered list of "pre-fabricated"
encoded messages "that are transmitted from the peer serially to the
downloading user".  Peers may conserve space by keeping only
``k' < k`` messages (Section III-D); the serving cursor simply runs out
earlier and the downloader makes up the deficit elsewhere.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from itertools import groupby
from operator import attrgetter

from ..rlnc.message import EncodedMessage, MessageFormatError
from ..rlnc.params import TABLE1_FIELD_BITS

__all__ = ["MessageStore", "ServingCursor", "StorageError"]


class StorageError(Exception):
    """Raised on storage misuse (unknown file, malformed .dat, ...)."""


#: Most buffers one ``writev`` takes (1024 on Linux).
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def _write_all(fd: int, buffers: list) -> None:
    """Write ``buffers`` to ``fd`` in order, ``_IOV_MAX`` to a ``writev``,
    resuming after a short write where it stopped (``buffers`` is used
    up): no joined copy of the records, no buffered writer."""
    i = 0
    while i < len(buffers):
        done = os.writev(fd, buffers[i : i + _IOV_MAX])
        while i < len(buffers) and done >= len(buffers[i]):
            done -= len(buffers[i])
            i += 1
        if done:
            buffers[i] = memoryview(buffers[i])[done:]


class ServingCursor:
    """Serial reader over one peer's stored messages for one file.

    A new cursor is created per download session; it yields each stored
    message once, in storage order, exactly like a peer streaming its
    ``File-id.dat`` from the start.

    Cursors opened through :meth:`MessageStore.open_cursor` observe the
    store: messages appended to the file mid-session (e.g. by a repair)
    flow straight to the open cursor, and dropping the file invalidates
    the cursor — a stale cursor serves nothing rather than messages the
    peer no longer stores.
    """

    def __init__(
        self,
        messages: Sequence[EncodedMessage],
        store: "MessageStore | None" = None,
        file_id: int | None = None,
    ):
        self._messages = messages
        self._next = 0
        self._store = store
        self._file_id = file_id

    @property
    def stale(self) -> bool:
        """``True`` once the backing file was dropped from its store."""
        if self._store is None:
            return False
        return self._store._files.get(self._file_id) is not self._messages

    @property
    def remaining(self) -> int:
        if self.stale:
            return 0
        return len(self._messages) - self._next

    @property
    def exhausted(self) -> bool:
        # A stale cursor reports exhausted so `ServingSession.active`
        # degrades gracefully.
        if self.stale:
            return True
        return self._next >= len(self._messages)

    def take(self, byte_budget: float) -> tuple[list[EncodedMessage], float]:
        """Advance past every next message ``byte_budget`` covers whole.

        Returns those messages and what is left of the budget: a slot's
        worth of serial service in one call, sized by ``wire_size()``
        alone.  A stale cursor yields nothing, as an exhausted one does.
        """
        taken: list[EncodedMessage] = []
        if not self.stale:
            messages = self._messages
            while self._next < len(messages):
                msg = messages[self._next]
                size = msg.wire_size()
                if byte_budget < size:
                    break
                byte_budget -= size
                taken.append(msg)
                self._next += 1
        return taken, byte_budget


class MessageStore:
    """All encoded messages cached by one peer, grouped by file id."""

    def __init__(self):
        self._files: dict[int, list[EncodedMessage]] = {}

    def add_messages(
        self, messages: Iterable[EncodedMessage], limit: int | None = None
    ) -> int:
        """Store messages (appending per file); returns how many were kept.

        ``limit`` caps the number of messages kept *per file in this
        call* — the ``k' < k`` space-saving mode.
        """
        kept = 0
        per_file: dict[int, int] = {}
        for msg in messages:
            taken = per_file.get(msg.file_id, 0)
            if limit is not None and taken >= limit:
                continue
            self._files.setdefault(msg.file_id, []).append(msg)
            per_file[msg.file_id] = taken + 1
            kept += 1
        return kept

    def files(self) -> list[int]:
        return sorted(self._files)

    def has_file(self, file_id: int) -> bool:
        return file_id in self._files

    def count(self, file_id: int) -> int:
        return len(self._files.get(file_id, ()))

    def messages(self, file_id: int) -> list[EncodedMessage]:
        if file_id not in self._files:
            raise StorageError(f"no messages stored for file {file_id:#x}")
        return list(self._files[file_id])

    def open_cursor(self, file_id: int) -> ServingCursor:
        """Start serial service of a file (one cursor per session)."""
        if file_id not in self._files:
            raise StorageError(f"no messages stored for file {file_id:#x}")
        return ServingCursor(self._files[file_id], store=self, file_id=file_id)

    def total_bytes(self) -> int:
        """Disk footprint: sum of wire sizes of everything stored."""
        return sum(
            msg.wire_size() for msgs in self._files.values() for msg in msgs
        )

    def drop_file(self, file_id: int) -> None:
        self._files.pop(file_id, None)

    # -- File-id.dat persistence (Fig. 3) ------------------------------

    def save_dat(self, directory: str) -> list[str]:
        """Write one ``<file-id-hex>.dat`` per stored file; returns paths.

        The .dat layout is the concatenation of wire messages, each a
        16-byte header plus the fixed-size packed payload — exactly the
        storage format of Fig. 3 — written with ``writev`` straight from
        the messages' bytes.
        """
        os.makedirs(directory, exist_ok=True)
        paths = []
        for file_id, msgs in sorted(self._files.items()):
            path = os.path.join(directory, f"{file_id:016x}.dat")
            records = []
            for msg in msgs:
                records += (msg.header_bytes(), msg.payload_bytes())
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                _write_all(fd, records)
            finally:
                os.close(fd)
            paths.append(path)
        return paths

    def load_dat(self, path: str, p: int, m: int) -> int:
        """Load a ``.dat`` written by :meth:`save_dat`.

        ``p`` and ``m`` fix the per-message payload size (they come from
        the file's manifest); returns the number of messages loaded.  At
        ``p = 4`` an odd ``m`` leaves half a byte of padding per record,
        which must be zero and is not a symbol.  Raises
        :class:`StorageError` for a ``(p, m)`` no store writes and for a
        file that is not a whole number of such records.
        """
        # The manifest is outside input too: a bad width or length would
        # make the record size zero, negative or meaningless below.
        if p not in TABLE1_FIELD_BITS or m < 1:
            raise StorageError(f"{path}: unsupported record shape p={p}, m={m}")
        with open(path, "rb") as fh:
            blob = fh.read()
        # Every message is a slice of the one blob read above: a peer
        # reloads (and later serves) its records without unpacking one.
        try:
            messages = EncodedMessage.from_records(blob, p, m)
        except MessageFormatError as exc:
            raise StorageError(f"{path}: {exc}") from exc
        for file_id, run in groupby(messages, key=attrgetter("file_id")):
            self._files.setdefault(file_id, []).extend(run)
        return len(messages)
