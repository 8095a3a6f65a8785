"""Shared fixtures for the test suite."""

from pathlib import Path

import numpy as np
import pytest

from repro.gf import GF


@pytest.fixture
def rng():
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(params=[4, 8, 16, 32], ids=lambda p: f"GF(2^{p})")
def field(request):
    """Every field the paper uses, via the default (fastest) backend."""
    return GF(request.param)


@pytest.fixture(params=[8, 32], ids=lambda p: f"GF(2^{p})")
def field_fast(request):
    """A cheaper field sweep for expensive tests."""
    return GF(request.param)


@pytest.fixture(scope="session")
def cpu_flags() -> set[str]:
    """The host CPU's feature flags (``/proc/cpuinfo``; empty where it
    cannot be read), for tests that build a kernel at each vector width."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return next(
        (set(line.split(":", 1)[1].split()) for line in text.splitlines() if line.startswith("flags")),
        set(),
    )
