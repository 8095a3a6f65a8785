"""Runtime-compiled native kernels: one compile / cache / verify loader.

The package ships two C files (``sim/_fastalloc.c`` for the slot engines,
``gf/_gfmul.c`` for the ``GF(2^p)`` matrix product) and no build step.
:func:`load` compiles one on first use with whatever C compiler the host
has (``$CC``, ``cc``, ``gcc`` or ``clang`` — no build system, no
packages), keeps the shared object in a digest-keyed cache, binds it
through ctypes and accepts it only after the owning module's self-check
has compared it **bit for bit** with the numpy code it replaces.

Every kernel is optional.  A disabled loader, a missing compiler or
source file, a failed compile or ``dlopen``, or a self-check mismatch
all make :func:`load` return ``None``, silently, and the caller runs its
numpy path: same results, smaller speed-up.  :func:`status` says which
of those happened, per kernel.

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

__all__ = ["load", "status"]

K = TypeVar("K")

#: Tried in order; the plain -O2 set is the portable fallback.  The
#: host-tuned build is not faster by itself: it halves the GF kernel's
#: time because ``_gfmul.c`` works every line at the one vector width
#: the target's macros give, where lines stored at one width and
#: reloaded at another made it 2x slower than -O2 (gcc 12,
#: -march=sapphirerapids).  -ffp-contract=off is not
#: negotiable: fused multiply-adds would change the allocation kernels'
#: results by an ulp (and be rejected by their self-check).
_CFLAG_SETS = [
    ["-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off", "-pthread"],
    ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread"],
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
    return ``True`` only if the facade is bit-identical to the numpy
    code it stands in for.  The outcome, either way, is memoised for the
    life of the process.
    """
    if name not in _LOADED:
        _LOADED[name] = _resolve(name, source, bind, self_check)
    return _LOADED[name][0]


def status() -> dict[str, str]:
    """Why each kernel resolved so far is, or is not, live.

    Values: ``ok``, ``disabled by REPRO_NO_NATIVE``, ``no compiler``,
    ``source missing``, ``compile failed``, ``load failed``,
    ``self-check failed``.  A kernel nobody has asked for yet is absent.
    """
    return {name: why for name, (_, why) in _LOADED.items()}
