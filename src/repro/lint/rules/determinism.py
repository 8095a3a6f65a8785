"""Determinism rules: seeded-replay layers must stay seeded.

The whole evaluation methodology rests on replaying a simulation from a
seed (and the security model on drawing every coefficient from the
keyed PRNG in ``security/prng``).  Any wall-clock read, stdlib
``random`` use, OS entropy, or unseeded numpy generator inside ``core``,
``sim``, ``rlnc`` or ``gf`` silently breaks both.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .._astutil import ImportMap
from ..findings import Finding
from ..registry import DET_SCOPE, SRC_SCOPE, rule

#: numpy.random attributes that are fine: seeded-generator constructors
#: (flagged separately when called with no seed) — everything else on
#: ``np.random`` is the legacy global-state API.
_NP_RANDOM_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


#: Clock reads that differ run to run.  ``time.perf_counter*`` stays
#: allowed: obs timers in ``sim/`` read it and never feed a decision.
_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.clock_gettime",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
)


@rule(
    "det-wallclock",
    rationale="wall-clock reads make slot loops and coding decisions "
    "unreplayable; simulated time must come from the slot counter",
    scope=DET_SCOPE,
)
def check_wallclock(ctx) -> Iterator[Finding]:
    imap = ImportMap.from_tree(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            resolved = imap.resolve(node.func)
            if resolved in _WALLCLOCK_CALLS:
                yield ctx.finding(
                    "det-wallclock",
                    node,
                    f"{resolved}() read in a seeded-replay layer; "
                    "derive time from the slot counter instead",
                )


@rule(
    "det-stdlib-random",
    rationale="stdlib random is process-global and unkeyed; coefficients "
    "must come from security/prng and simulation draws from a threaded "
    "np.random.Generator",
    scope=SRC_SCOPE,
)
def check_stdlib_random(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield ctx.finding(
                        "det-stdlib-random",
                        node,
                        "stdlib random imported; use security/prng (keyed) "
                        "or a seeded np.random.Generator",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module == "random":
                yield ctx.finding(
                    "det-stdlib-random",
                    node,
                    "stdlib random imported; use security/prng (keyed) "
                    "or a seeded np.random.Generator",
                )


@rule(
    "det-urandom",
    rationale="OS entropy in the coding/simulation layers cannot be "
    "replayed; security/prng is the sole keyed entropy source",
    scope=DET_SCOPE,
)
def check_urandom(ctx) -> Iterator[Finding]:
    imap = ImportMap.from_tree(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = imap.resolve(node.func)
        if resolved is None:
            continue
        if resolved == "os.urandom" or resolved.split(".")[0] == "secrets":
            yield ctx.finding(
                "det-urandom",
                node,
                f"{resolved} draws OS entropy in a seeded-replay layer; "
                "thread a key through security/prng instead",
            )


@rule(
    "det-unseeded-rng",
    rationale="an unseeded generator gives every run a different "
    "trajectory; seeds must be threaded in so experiments replay",
    scope=DET_SCOPE,
)
def check_unseeded_rng(ctx) -> Iterator[Finding]:
    imap = ImportMap.from_tree(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = imap.resolve(node.func)
        if resolved is None:
            continue
        if resolved == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                yield ctx.finding(
                    "det-unseeded-rng",
                    node,
                    "np.random.default_rng() without a seed; thread an "
                    "explicit seed or rng through the caller",
                )
        elif resolved.startswith("numpy.random."):
            attr = resolved.rsplit(".", 1)[1]
            if attr not in _NP_RANDOM_OK:
                yield ctx.finding(
                    "det-unseeded-rng",
                    node,
                    f"legacy global-state np.random.{attr}(); use a "
                    "seeded np.random.Generator threaded through the caller",
                )
