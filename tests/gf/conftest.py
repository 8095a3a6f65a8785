"""Both ``bit_matmul`` backends, selected by flipping the loader's memo.

The compiled kernel is loaded here, at import, so that no hypothesis
example pays the compile.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro import native
from repro.gf import bitmatmul

KERNEL = bitmatmul.load()


@contextmanager
def forced(name: str):
    """``bit_matmul`` runs on backend ``name`` inside the block."""
    entry = (KERNEL, "ok") if name == "native" else (None, "numpy forced by the test suite")
    with mock.patch.dict(native._LOADED, {"gfmul": entry}):
        yield


@pytest.fixture(params=["native", "numpy"])
def backend(request):
    """Parametrises a test over the two backends."""
    if request.param == "native" and KERNEL is None:
        pytest.skip(f"native GF kernel not live: {native.status()['gfmul']}")
    with forced(request.param):
        yield request.param


@pytest.fixture(scope="session")
def every_backend():
    """``run(thunk) -> {backend: thunk()}`` over the live backends, for the
    hypothesis suites: every example goes through both, and their test
    names stay what they were before there were two."""

    def run(thunk):
        names = ["numpy"] if KERNEL is None else ["native", "numpy"]
        results = {}
        for name in names:
            with forced(name):
                results[name] = thunk()
        return results

    return run
