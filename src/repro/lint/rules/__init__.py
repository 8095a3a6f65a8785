"""Importing this package registers every rule with the registry."""

from __future__ import annotations

from . import (
    api,
    density,
    determinism,
    floatsafety,
    tracing,
)

__all__ = [
    "api",
    "density",
    "determinism",
    "floatsafety",
    "tracing",
]
