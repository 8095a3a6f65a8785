"""In-memory spans recorded from the benchmark's own files.

The benchmark wraps the calls it makes into each layer; nothing inside
``src/repro`` is instrumented.  With tracing off :meth:`Spans.timed`
hands back the callable untouched, so the end-to-end run pays nothing.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Spans:
    """Spans as parallel columns (name, start, end, parent index, op).

    Columns of numbers, not one object per span: a traced fetch opens
    hundreds of spans per operation, and that many live containers make
    the garbage collector's passes show up in the traced timings.
    """

    def __init__(self):
        self.enabled = False
        self.op = -1  # identifier shared by the spans of one operation
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span, or ``fn`` itself when tracing is off."""
        if not self.enabled:
            return fn

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def patch(self, obj, method: str, name: str) -> None:
        """Time ``obj.method`` from outside, on this instance only."""
        if self.enabled:
            setattr(obj, method, self.timed(name, getattr(obj, method)))

    def by_name(self, op_scale: dict[int, float]) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time (s) and span count.  A span's
        self time is its duration minus what its child spans cover, times
        ``op_scale`` of its operation (the reference-kernel normalisation)."""
        self_s = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                self_s[parent] -= self.ends[index] - self.starts[index]
        busy: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for name, s, op in zip(self.names, self_s, self.ops):
            busy[name] += s * op_scale[op]
            count[name] += 1
        return busy, count

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for index, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": self.starts[index],
                    "end": self.ends[index], "parent": self.parents[index],
                    "op": self.ops[index],
                }) + "\n")
