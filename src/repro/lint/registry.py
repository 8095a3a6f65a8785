"""Rule registry: every check carries an id, a rationale, and a scope.

Rules self-register at import time via the :func:`rule` decorator; the
engine imports :mod:`repro.lint.rules` once to populate :data:`RULES`.
A rule's ``scope`` is a tuple of project-relative posix path prefixes —
a file is checked only when its path (relative to the detected project
root) starts with one of them.  An empty scope means every file.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import FileContext
    from .findings import Finding

__all__ = [
    "DET_SCOPE",
    "FLOAT_SCOPE",
    "SRC_SCOPE",
    "RULES",
    "Rule",
    "all_rule_ids",
    "get_rule",
    "rule",
]

#: Layers that must be replayable from a seed (determinism family).
DET_SCOPE = (
    "src/repro/core/",
    "src/repro/sim/",
    "src/repro/rlnc/",
    "src/repro/gf/",
)

#: Allocation/simulation code where float operation order is contractual.
FLOAT_SCOPE = ("src/repro/core/", "src/repro/sim/")

#: The whole library (but not tests/benchmarks/examples).
SRC_SCOPE = ("src/repro/",)


@dataclass(frozen=True)
class Rule:
    """One registered check.

    ``check`` is ``None`` for the engine's own meta rules (suppression
    hygiene, syntax errors) which are emitted by the engine itself
    rather than by walking an AST.
    """

    id: str
    rationale: str
    scope: tuple[str, ...] = ()
    check: Callable[[FileContext], Iterable[Finding]] | None = field(
        default=None, compare=False
    )

    def applies_to(self, relpath: str) -> bool:
        if not self.scope:
            return True
        return any(relpath.startswith(prefix) for prefix in self.scope)


#: id -> Rule, populated by importing :mod:`repro.lint.rules`.
RULES: dict[str, Rule] = {}


def rule(rule_id: str, *, rationale: str, scope: tuple[str, ...] = ()):
    """Decorator: register ``fn`` as the checker for ``rule_id``."""

    def decorate(fn):
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id: {rule_id}")
        RULES[rule_id] = Rule(id=rule_id, rationale=rationale, scope=scope, check=fn)
        return fn

    return decorate


def register_meta(rule_id: str, *, rationale: str) -> None:
    """Register an engine-emitted rule (no AST checker of its own)."""
    if rule_id not in RULES:
        RULES[rule_id] = Rule(id=rule_id, rationale=rationale, scope=(), check=None)


def all_rule_ids() -> list[str]:
    return sorted(RULES)


def get_rule(rule_id: str) -> Rule:
    try:
        return RULES[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown lint rule: {rule_id!r} (known: {all_rule_ids()})"
        ) from None
