"""The shared compile / cache / verify loader, on a one-function C file.

``repro.native`` is the only place that knows about compilers, flag
sets, the cache and the environment switches; the two kernels' own test
files (``tests/sim/test_fastpath.py``, ``tests/gf/test_native_kernel.py``)
only check that they go through it.
"""

import ctypes
import importlib.util
import subprocess
from pathlib import Path
from unittest import mock

import pytest

from repro import native

ROOT = Path(__file__).resolve().parents[1]

SOURCE = "int repro_answer(void) { return 42; }\n"

needs_compiler = pytest.mark.skipif(
    native._compiler() is None, reason="no C compiler on this host"
)


class Answer:
    def __init__(self, lib: ctypes.CDLL):
        lib.repro_answer.restype = ctypes.c_int
        self.value = lib.repro_answer()


@pytest.fixture
def kernel(tmp_path, monkeypatch):
    """A private cache, no inherited switches, and a loader whose memo is
    restored afterwards; returns ``(source path, load)``."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.delenv("REPRO_NATIVE_CFLAGS", raising=False)
    monkeypatch.setattr(native, "_LOADED", {})
    source = tmp_path / "answer.c"
    source.write_text(SOURCE)

    def load(check=lambda k: k.value == 42):
        return native.load("answer", source, Answer, check)

    return source, load


@needs_compiler
def test_compiles_loads_and_memoises(kernel, tmp_path):
    _, load = kernel
    first = load()
    assert first.value == 42
    assert load() is first
    assert native.status() == {"answer": "ok"}
    assert len(list((tmp_path / "cache").glob("answer-*.so"))) == 1


@needs_compiler
def test_cached_object_is_reused_without_compiling(kernel, monkeypatch):
    _, load = kernel
    assert load() is not None
    native._LOADED.clear()

    def no_compile(*args, **kwargs):
        raise AssertionError("compiler invoked although the cache is warm")

    monkeypatch.setattr(subprocess, "run", no_compile)
    assert load().value == 42


@needs_compiler
def test_extra_cflags_are_part_of_the_cache_key(kernel, monkeypatch, tmp_path):
    _, load = kernel
    load()
    native._LOADED.clear()
    monkeypatch.setenv("REPRO_NATIVE_CFLAGS", "-DREPRO_TEST_FLAG=1")
    load()
    assert len(list((tmp_path / "cache").glob("answer-*.so"))) == 2


def test_kill_switch(kernel, monkeypatch):
    _, load = kernel
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    assert load() is None
    assert native.status() == {"answer": "disabled by REPRO_NO_NATIVE"}


def test_no_compiler(kernel, monkeypatch):
    _, load = kernel
    monkeypatch.setattr(native, "_compiler", lambda: None)
    assert load() is None
    assert native.status() == {"answer": "no compiler"}


@needs_compiler
def test_missing_source_is_not_an_error(kernel):
    source, load = kernel
    source.unlink()
    assert load() is None
    assert native.status() == {"answer": "source missing"}


@needs_compiler
def test_compile_failure(kernel, tmp_path):
    source, load = kernel
    source.write_text("this is not C\n")
    assert load() is None
    assert native.status() == {"answer": "compile failed"}
    assert not list((tmp_path / "cache").glob("*.so"))  # no temp file left behind


@needs_compiler
def test_missing_symbol_is_a_load_failure(kernel):
    source, load = kernel
    source.write_text("int something_else(void) { return 1; }\n")
    assert load() is None
    assert native.status() == {"answer": "load failed"}


@needs_compiler
def test_failed_self_check_refuses_the_kernel(kernel):
    _, load = kernel
    assert load(check=lambda k: False) is None
    assert native.status() == {"answer": "self-check failed"}
    assert load() is None  # the refusal is memoised too


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    """Pinned to 2 of 64 CPUs, a process has 2 CPUs to use, not 64."""
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {3, 7}, raising=False)
    assert native.usable_cpus() == 2
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(64)))
    assert native.usable_cpus() == 64


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    assert native.usable_cpus() == 3
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert native.usable_cpus() == 1


def test_the_sanitizer_check_loads_every_kernel():
    """``tools/san_selfcheck.py`` (CI's ASan/UBSan job) loads one kernel
    per C file under ``src/repro``: a new kernel it forgot would never
    run its self-check under the sanitizers.  Loading from an empty memo,
    ``native.status()`` then names each file's kernel (``_md5.c`` is
    ``md5``), whether or not it went live."""
    spec = importlib.util.spec_from_file_location("san_selfcheck", ROOT / "tools/san_selfcheck.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    sources = {path.stem[1:] for path in (ROOT / "src/repro").glob("*/_*.c")}
    with mock.patch.dict(native._LOADED, clear=True):
        for module in tool.KERNELS:
            module.load()
        assert set(native.status()) == sources


def test_a_bound_view_is_bound_at_its_offset():
    """``Bound.view`` gives a slice its own address without converting
    it; copies and pickles bind their own array anew, never an address
    taken for another."""
    import copy
    import pickle

    import numpy as np

    bound = native.Bound(np.arange(10, dtype=np.int64))
    view = bound.view(3, 7)
    assert view.array.tolist() == [3, 4, 5, 6]
    assert view.address == view.array.ctypes.data == bound.address + 24
    assert (view.shape, view.size) == ((4,), 4)
    assert native.address(view) == view.address and native.array_of(view) is view.array
    for clone in (copy.copy(view), copy.deepcopy(view), pickle.loads(pickle.dumps(view))):
        assert clone.array.tolist() == [3, 4, 5, 6]
        assert clone.address == clone.array.ctypes.data
    assert copy.deepcopy(view).address != view.address
