"""Shared-memory write-discipline checker for the procs engine.

:mod:`repro.sim.shardmsg` documents the contract the process-sharded
engine lives by: the worker-owned ``SlotVectors`` fields are written
only by workers and only within their ``[lo, hi)`` shard slice, the
coordinator-owned compact ``rates`` vector is written only by the
coordinator, and the pipe round-trips are the barriers between phases.
Nothing enforced it — a second writer would produce silently corrupt
(and non-reproducible) allocations rather than a crash.

``procs-writer-discipline`` verifies the contract statically:

* the shared fields are discovered from the ``SlotVectors`` class
  itself (every ``self.X = np.ndarray(...)`` view in its ``__init__``);
* every write to ``<...>.vec.<field>`` in the engine/message modules is
  attributed to a **role** via the call graph — methods of
  ``*Coordinator`` classes are coordinator-side, methods of ``*Worker``
  classes and ``_worker*`` entry functions are worker-side, and module
  helpers inherit the roles of their (transitive) callers;
* each write is attributed to a **phase**: worker methods get the
  command literals of the dispatch branches that call them (``cmd ==
  "sample"`` …; the worker is a thin adapter over its
  :class:`~repro.sim.shard.ShardKernel`, which never sees the vectors,
  so there are no deeper helpers to chase), coordinator writes get the
  last command broadcast before them in the method body;
* a field written by more than one role (or from a function reachable
  as both roles) is flagged at the minority write sites, with every
  write site listed in the finding's trace;
* worker writes must target a subscript slice — never the whole array
  (``[:]``), which would stomp other shards' cells;
* in the message module itself, a ``.buf`` memoryview may only be
  consumed as the ``buffer=`` argument of an ndarray view (possibly via
  a local alias) — returning it, storing it on ``self`` or passing it
  anywhere else leaks an unmanaged handle on the mapping.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..findings import Finding
from ..registry import flow_rule

__all__ = []

RULE_ID = "procs-writer-discipline"

#: Call attributes that carry a phase command to the other side.
_SEND_ATTRS = frozenset({"send", "_broadcast", "broadcast"})


@dataclass
class _Write:
    field: str
    qualname: str
    path: str
    line: int
    col: int
    roles: frozenset[str]
    phases: tuple[str, ...]
    sliced: bool
    full_slice: bool


def _module_endswith(graph, suffix: str):
    for name, mod in graph.modules.items():
        if name.endswith(suffix):
            return mod
    return None


def _slot_fields(graph, shardmsg) -> tuple[set[str], str | None]:
    """Field names defined as ndarray views in ``SlotVectors.__init__``."""
    for cname in shardmsg.classes:
        info = graph.classes[cname]
        if not cname.endswith(".SlotVectors"):
            continue
        init = info.methods.get("__init__")
        node = graph.function_def(init) if init else None
        if node is None:
            return set(), cname
        fields: set[str] = set()
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign) or not isinstance(
                sub.value, ast.Call
            ):
                continue
            callee = sub.value.func
            name = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else None
            )
            if name != "ndarray":
                continue
            for tgt in sub.targets:
                if (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                ):
                    fields.add(tgt.attr)
        return fields, cname
    return set(), None


def _assign_roles(graph, modules, vec_cls) -> dict[str, set[str]]:
    roles: dict[str, set[str]] = {}
    module_names = {m.name for m in modules}
    for mod in modules:
        for q in mod.functions:
            f = graph.functions[q]
            if f.cls is not None:
                cname = f.cls.rsplit(".", 1)[-1]
                if f.cls == vec_cls:
                    roles[q] = {"owner"}
                elif cname.endswith("Coordinator"):
                    roles[q] = {"coordinator"}
                elif cname.endswith("Worker"):
                    roles[q] = {"worker"}
            elif f.name.startswith("_worker"):
                roles[q] = {"worker"}
    changed = True
    while changed:
        changed = False
        for caller, caller_roles in list(roles.items()):
            spread = caller_roles & {"coordinator", "worker"}
            if not spread:
                continue
            for callee, _ in graph.edges.get(caller, ()):
                info = graph.functions.get(callee)
                if info is None or info.module not in module_names:
                    continue
                have = roles.setdefault(callee, set())
                if have == {"owner"}:
                    continue
                if not spread <= have:
                    have |= spread
                    changed = True
    return roles


def _worker_phases(graph, modules, roles) -> dict[str, set[str]]:
    """Map worker function qualname -> dispatch command literals."""
    phases: dict[str, set[str]] = {}
    by_name: dict[str, list[str]] = {}
    for q, r in roles.items():
        if "worker" in r:
            by_name.setdefault(graph.functions[q].name, []).append(q)
    for mod in modules:
        for q in mod.functions:
            f = graph.functions[q]
            if f.cls is not None or not f.name.startswith("_worker"):
                continue
            node = graph.function_def(q)
            if node is None:
                continue
            for sub in ast.walk(node):
                literal = _branch_literal(sub)
                if literal is None:
                    continue
                for inner in ast.walk(ast.Module(body=sub.body, type_ignores=[])):
                    if isinstance(inner, ast.Call):
                        name = None
                        if isinstance(inner.func, ast.Attribute):
                            name = inner.func.attr
                        elif isinstance(inner.func, ast.Name):
                            name = inner.func.id
                        for target in by_name.get(name, ()):
                            phases.setdefault(target, set()).add(literal)
    return phases


def _branch_literal(node: ast.AST) -> str | None:
    """``"sample"`` for an ``if cmd == "sample":`` dispatch branch."""
    if not isinstance(node, ast.If):
        return None
    test = node.test
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and isinstance(test.comparators[0].value, str)
    ):
        return test.comparators[0].value
    return None


def _sent_literal(node: ast.AST) -> str | None:
    """``"alloc"`` for ``conn.send(("alloc", t))`` / ``_broadcast(...)``."""
    if not isinstance(node, ast.Call) or not node.args:
        return None
    name = None
    if isinstance(node.func, ast.Attribute):
        name = node.func.attr
    elif isinstance(node.func, ast.Name):
        name = node.func.id
    if name not in _SEND_ATTRS:
        return None
    first = node.args[0]
    if isinstance(first, ast.Tuple) and first.elts:
        first = first.elts[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


def _field_write(tgt: ast.expr, fields: set[str]):
    """``(field, sliced, full_slice)`` when ``tgt`` writes a vec field."""
    sliced = False
    full_slice = False
    inner = tgt
    if isinstance(inner, ast.Subscript):
        sliced = True
        sl = inner.slice
        if isinstance(sl, ast.Slice) and sl.lower is None and sl.upper is None:
            full_slice = True
        inner = inner.value
    if not isinstance(inner, ast.Attribute) or inner.attr not in fields:
        return None
    base = inner.value
    parts = []
    while isinstance(base, ast.Attribute):
        parts.append(base.attr)
        base = base.value
    if isinstance(base, ast.Name):
        parts.append(base.id)
    head = parts[0] if parts else None
    if head != "vec":
        return None
    return inner.attr, sliced, full_slice


def _collect_writes(graph, modules, roles, worker_phases, fields, vec_cls):
    writes: list[_Write] = []
    for mod in modules:
        for q in mod.functions:
            info = graph.functions[q]
            r = roles.get(q, set())
            if r == {"owner"}:
                continue
            node = graph.function_def(q)
            if node is None:
                continue
            # Coordinator phase: the last command sent before the write.
            events: list[tuple[int, str, object]] = []
            for sub in ast.walk(node):
                literal = _sent_literal(sub)
                if literal is not None:
                    events.append((sub.lineno, "phase", literal))
                if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        sub.targets
                        if isinstance(sub, ast.Assign)
                        else [sub.target]
                    )
                    for tgt in targets:
                        hit = _field_write(tgt, fields)
                        if hit is not None:
                            events.append((tgt.lineno, "write", (tgt, hit)))
            events.sort(key=lambda e: e[0])
            current = "init"
            for _, kind, payload in events:
                if kind == "phase":
                    current = payload
                    continue
                tgt, (fname, sliced, full) = payload
                if "coordinator" in r:
                    phases = (current,)
                elif "worker" in r:
                    phases = tuple(sorted(worker_phases.get(q, {"startup"})))
                else:
                    phases = ("unknown",)
                writes.append(
                    _Write(
                        field=fname,
                        qualname=q,
                        path=info.path,
                        line=tgt.lineno,
                        col=tgt.col_offset + 1,
                        roles=frozenset(r or {"unassigned"}),
                        phases=phases,
                        sliced=sliced,
                        full_slice=full,
                    )
                )
    return writes


def _check_buf_escapes(graph, shardmsg):
    for q in shardmsg.functions:
        node = graph.function_def(q)
        if node is None:
            continue
        info = graph.functions[q]
        aliases: set[str] = set()
        allowed: set[int] = set()
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Assign)
                and isinstance(sub.value, ast.Attribute)
                and sub.value.attr == "buf"
                and all(isinstance(t, ast.Name) for t in sub.targets)
            ):
                aliases.update(t.id for t in sub.targets)
                allowed.add(id(sub.value))
            elif isinstance(sub, ast.Call):
                for kw in sub.keywords:
                    if kw.arg == "buffer":
                        allowed.add(id(kw.value))
        for sub in ast.walk(node):
            leak = None
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr == "buf"
                and isinstance(sub.ctx, ast.Load)
                and id(sub) not in allowed
            ):
                leak = sub
            elif (
                isinstance(sub, ast.Name)
                and sub.id in aliases
                and isinstance(sub.ctx, ast.Load)
                and id(sub) not in allowed
            ):
                leak = sub
            if leak is not None:
                yield Finding(
                    path=info.path,
                    line=leak.lineno,
                    col=leak.col_offset + 1,
                    rule=RULE_ID,
                    message="'.buf' view escapes its owning function "
                    "(only the buffer= argument of an ndarray view may "
                    "consume it)",
                    trace=(
                        f"{info.path}:{leak.lineno}: raw shared-memory "
                        f"view used outside an ndarray construction in "
                        f"{info.name}()",
                    ),
                )


@flow_rule(
    RULE_ID,
    rationale="the procs engine's shared SlotVectors are lock-free by "
    "contract: each field has exactly one writer role per pipe-barrier "
    "phase and workers touch only their shard slice; a second writer or "
    "an escaped .buf view corrupts allocations silently instead of "
    "crashing, and breaks bit-identical replay",
    scope=("src/repro/sim/",),
)
def check_writer_discipline(ctx):
    graph = ctx.graph
    shardmsg = _module_endswith(graph, ".sim.shardmsg")
    if shardmsg is None:
        return
    procs = _module_endswith(graph, ".sim.procs")
    fields, vec_cls = _slot_fields(graph, shardmsg)
    modules = [m for m in (procs, shardmsg) if m is not None]
    if fields:
        roles = _assign_roles(graph, modules, vec_cls)
        worker_phases = _worker_phases(graph, modules, roles)
        writes = _collect_writes(
            graph, modules, roles, worker_phases, fields, vec_cls
        )
        by_field: dict[str, list[_Write]] = {}
        for w in writes:
            by_field.setdefault(w.field, []).append(w)
        for fname, sites in sorted(by_field.items()):
            trace = tuple(
                f"{w.path}:{w.line}: '{fname}' written by "
                f"{'/'.join(sorted(w.roles))} in {w.qualname.rsplit('.', 1)[-1]}()"
                f" [phase {', '.join(w.phases)}]"
                for w in sorted(sites, key=lambda w: (w.path, w.line))
            )
            role_votes: dict[str, int] = {}
            for w in sites:
                for r in w.roles:
                    role_votes[r] = role_votes.get(r, 0) + 1
            top = max(role_votes.values())
            majority = sorted(r for r, v in role_votes.items() if v == top)
            owner_role = majority[0] if len(majority) == 1 else None
            for w in sites:
                if len(w.roles) > 1:
                    yield Finding(
                        path=w.path,
                        line=w.line,
                        col=w.col,
                        rule=RULE_ID,
                        message=f"SlotVectors field '{fname}' written from a "
                        f"function reachable as both coordinator and worker",
                        trace=trace,
                    )
                elif owner_role is None and len(role_votes) > 1:
                    # No clear owner: every site of every role is suspect.
                    role = next(iter(w.roles))
                    yield Finding(
                        path=w.path,
                        line=w.line,
                        col=w.col,
                        rule=RULE_ID,
                        message=f"SlotVectors field '{fname}' has "
                        f"{len(role_votes)} writer roles "
                        f"({', '.join(sorted(role_votes))}); this "
                        f"{role}-side write violates single-writer "
                        f"discipline",
                        trace=trace,
                    )
                elif owner_role is not None and w.roles != {owner_role}:
                    other = next(iter(w.roles))
                    yield Finding(
                        path=w.path,
                        line=w.line,
                        col=w.col,
                        rule=RULE_ID,
                        message=f"SlotVectors field '{fname}' written by "
                        f"{other} here but owned by {owner_role} "
                        f"(single-writer discipline)",
                        trace=trace,
                    )
                if "worker" in w.roles and (not w.sliced or w.full_slice):
                    yield Finding(
                        path=w.path,
                        line=w.line,
                        col=w.col,
                        rule=RULE_ID,
                        message=f"worker write to shared field '{fname}' "
                        f"must target the shard's slice, not the whole "
                        f"array",
                        trace=trace,
                    )
    yield from _check_buf_escapes(graph, shardmsg)
