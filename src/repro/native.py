"""Runtime-compiled native kernels: one compile / cache / verify loader.

The package ships each kernel as one C file, ``_<name>.c`` beside the
module it serves (``sim/_fastalloc.c``, ``gf/_gfmul.c`` and
``security/_modexp.c``, ``_md5.c``, ``_sha256.c``), and no build step.
:func:`load` compiles one on first use with whatever C compiler the host
has (``$CC``, ``cc``, ``gcc`` or ``clang`` — no build system, no
packages), keeps the shared object in a digest-keyed cache, binds it
through ctypes and accepts it only after the owning module's self-check
has compared it **bit for bit** with the Python code it replaces (numpy,
builtin ``pow`` for the modexp kernel, ``hashlib`` for the MD5 and
keyed-stream ones).

Every kernel is optional.  A disabled loader, a missing compiler or
source file, a failed compile or ``dlopen``, or a self-check mismatch
all make :func:`load` return ``None``, silently, and the caller runs its
Python path: same results, smaller speed-up.  :func:`status` says which
of those happened, per kernel.

Every facade is a :class:`Kernel`: its entries declared once, as a
table; one status rule; and an array that outlives the calls it is
passed to crosses the ctypes boundary once (a :class:`Bound` value or a
:func:`struct`), where one made for the call costs a conversion
(:func:`address`; ``ndarray.ctypes.data`` takes ~2 us).

Environment (read here and nowhere else):

* ``REPRO_NO_NATIVE=1`` forces every fallback;
* ``REPRO_NATIVE_CACHE`` moves the cache directory (default: a
  ``repro-native`` directory under the system temp dir);
* ``REPRO_NATIVE_CFLAGS`` appends flags to every compile (CI's
  sanitizer job); they are part of the cache digest, so a sanitized
  build never aliases a normal one.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

__all__ = ["Bound", "Kernel", "address", "array_of", "load", "status", "struct", "usable_cpus"]

K = TypeVar("K")

PTR, I64, F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
#: The ``restype`` of an entry that can fail (see :class:`Kernel`).
STATUS = "status"
STATUS_ERRORS = {-1: OverflowError, -2: MemoryError, -3: ValueError}


class Bound:
    """An array that outlives the calls it is passed to, its address taken
    once; ``shape`` and ``size`` are the array's.  The owner binds anew
    whatever it reallocates.  ``address``, when given, is the array's own
    (a view of storage bound before), so binding it converts nothing."""

    __slots__ = ("array", "address", "shape", "size")

    def __init__(self, array, address: int | None = None):
        self.array = array
        self.address = array.ctypes.data if address is None else address
        self.shape, self.size = array.shape, array.size

    def __reduce__(self):
        # An address holds for one array in one process: a copy or an
        # unpickled value binds its own array anew.
        return Bound, (self.array,)

    def view(self, start: int, stop: int) -> "Bound":
        """Rows ``[start, stop)`` of the array, bound at their offset."""
        return Bound(self.array[start:stop], self.address + start * self.array.strides[0])


def address(array) -> int:
    """The address of ``array``'s data: bound once, or taken now."""
    return array.address if type(array) is Bound else array.ctypes.data


def array_of(array):
    """The array itself, bound or not (for the Python side of a call)."""
    return array.array if type(array) is Bound else array


def struct(name: str, pointers, ints) -> type[ctypes.Structure]:
    """The ctypes mirror of a C struct of ``pointers`` then ``int64``s."""
    fields = [(f, PTR) for f in pointers] + [(f, I64) for f in ints]
    return type(name, (ctypes.Structure,), {"_fields_": fields})


class Kernel:
    """Base of every kernel facade: binds each entry of ``SIGNATURES``
    (C name -> ``(restype, argtypes)``) as an attribute of that name.  A
    :data:`STATUS` entry returns an ``int64``: its result, or a negative
    code that raises the exception of ``STATUS_ERRORS`` with the message
    of ``ERRORS``, formatted with the call's arguments."""

    SIGNATURES: dict[str, tuple[object, list]] = {}
    ERRORS: dict[int, str] = {}

    def __init__(self, lib: ctypes.CDLL):
        for name, (restype, argtypes) in self.SIGNATURES.items():
            fn = getattr(lib, name)
            if restype is STATUS:
                restype, fn.errcheck = I64, self.checked
            fn.restype, fn.argtypes = restype, argtypes
            setattr(self, name, fn)

    def checked(self, status: int, fn, args) -> int:
        if status < 0:
            raise STATUS_ERRORS[status](self.ERRORS[status].format(*args))
        return status


#: Tried in order; the plain -O2 set is the portable fallback.  The
#: host-tuned build is not faster by itself: it halves the GF kernel's
#: time because ``_gfmul.c`` works every line at the one vector width
#: the target's macros give, where lines stored at one width and
#: reloaded at another made it 2x slower than -O2 (gcc 12,
#: -march=sapphirerapids).  -ffp-contract=off is not
#: negotiable: fused multiply-adds would change the allocation kernels'
#: results by an ulp (and be rejected by their self-check).
_CFLAG_SETS = [
    ["-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off"],
    ["-O2", "-fPIC", "-shared", "-ffp-contract=off"],
]

#: Kernel name -> (facade or ``None``, why): the process-wide memo.
_LOADED: dict[str, tuple[object | None, str]] = {}


def _compiler() -> str | None:
    env = os.environ.get("CC")
    if env and shutil.which(env):
        return env
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def _compile(cc: str, name: str, source: Path, text: bytes) -> Path | None:
    """The cached shared object for ``text``, compiling it if need be."""
    cache_dir = Path(
        os.environ.get("REPRO_NATIVE_CACHE")
        or Path(tempfile.gettempdir()) / "repro-native"
    )
    extra = os.environ.get("REPRO_NATIVE_CFLAGS", "").split()
    for base_cflags in _CFLAG_SETS:
        cflags = [*base_cflags, *extra]
        digest = hashlib.sha256(text + " ".join(cflags).encode()).hexdigest()[:16]
        sofile = cache_dir / f"{name}-{digest}-{os.uname().machine}.so"
        if sofile.exists():
            return sofile
        # Only a cold cache runs anything; a warm one spares every
        # process the import (0.4 MiB resident).
        import subprocess

        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
            with tempfile.NamedTemporaryFile(
                dir=cache_dir, suffix=".so", delete=False
            ) as tmp:
                tmp_path = Path(tmp.name)
            proc = subprocess.run(
                [cc, *cflags, "-o", str(tmp_path), str(source)],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode != 0:
                tmp_path.unlink(missing_ok=True)
                continue
            os.replace(tmp_path, sofile)  # atomic vs concurrent builders
            return sofile
        except (OSError, subprocess.SubprocessError):
            return None
    return None


def _resolve(
    name: str,
    source: Path,
    bind: Callable[[ctypes.CDLL], K],
    self_check: Callable[[K], bool],
) -> tuple[K | None, str]:
    if os.environ.get("REPRO_NO_NATIVE"):
        return None, "disabled by REPRO_NO_NATIVE"
    cc = _compiler()
    if cc is None:
        return None, "no compiler"
    try:
        text = source.read_bytes()
    except OSError:
        # e.g. a package installed without its .c files
        return None, "source missing"
    sofile = _compile(cc, name, source, text)
    if sofile is None:
        return None, "compile failed"
    try:
        kernels = bind(ctypes.CDLL(str(sofile)))
    except (OSError, AttributeError):
        return None, "load failed"
    if not self_check(kernels):
        return None, "self-check failed"
    return kernels, "ok"


def load(
    name: str,
    source: Path,
    bind: Callable[[ctypes.CDLL], K],
    self_check: Callable[[K], bool],
) -> K | None:
    """Compile, load and verify kernel ``name`` once; ``None`` means fall back.

    ``bind`` wraps the ``ctypes.CDLL`` of ``source`` in the caller's
    facade (declaring ``argtypes``/``restype``); ``self_check`` must
    return ``True`` only if the facade is bit-identical to the Python
    code it stands in for.  The outcome, either way, is memoised for the
    life of the process.
    """
    if name not in _LOADED:
        _LOADED[name] = _resolve(name, source, bind, self_check)
    return _LOADED[name][0]


def usable_cpus() -> int:
    """CPUs this process may run on: the scheduler affinity mask — a
    container pinned to 2 of 64 CPUs gets 2 — else the CPU count.  The
    one CPU rule behind ``engine="procs"``'s default worker count."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def status() -> dict[str, str]:
    """Why each kernel resolved so far is, or is not, live.

    Values: ``ok``, ``disabled by REPRO_NO_NATIVE``, ``no compiler``,
    ``source missing``, ``compile failed``, ``load failed``,
    ``self-check failed``.  A kernel nobody has asked for yet is absent.
    """
    return {name: why for name, (_, why) in _LOADED.items()}
