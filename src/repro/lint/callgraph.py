"""Project-wide symbol table and call resolution for the flow rules.

The per-expression rules in :mod:`repro.lint.rules` see one file at a
time; the flow rules (determinism/entropy and key taint) need to know
what a call dispatches to across the whole package.  This module
builds that picture once per project root:

* every module under ``<root>/src`` is parsed and its imports, classes
  (with base classes and ``self.attr = Class()`` attribute types),
  functions and module-level singletons are recorded;
* a :class:`Resolver` canonicalises call expressions against that
  symbol table — ``np.random.default_rng`` becomes
  ``numpy.random.default_rng``, ``self.store.add_compact`` becomes
  ``repro.sim.sparse.SparseLedgers.add_compact`` when ``self.store``
  was assigned a ``SparseLedgers(...)`` in ``__init__``.

A built graph is memoised per process against the per-file SHA-256
digests of the sources, so repeated ``run_lint`` calls share it until a
file changes.  There is no on-disk cache: measured on this tree the
build is 0.8 s of a 4.3 s flow run, and loading a serialised graph
re-parsed the ASTs anyway.
"""

from __future__ import annotations

import ast
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Resolver",
    "project_digests",
]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def project_digests(root: Path) -> dict[str, str]:
    """``relpath -> sha256`` for every ``.py`` under ``<root>/src``."""
    out: dict[str, str] = {}
    src = root / "src"
    if not src.is_dir():
        return out
    for walk_root, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".") and d not in ("__pycache__",)
            and not d.endswith(".egg-info")
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = Path(walk_root) / name
                rel = path.relative_to(root).as_posix()
                try:
                    out[rel] = _digest(path)
                except OSError:  # pragma: no cover - racing deletion
                    continue
    return out


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  #: ``repro.sim.procs.ProcsCoordinator.step``
    module: str
    path: str
    lineno: int
    name: str
    params: tuple[str, ...]  #: positional + kw-only names, ``self`` dropped
    cls: str | None = None  #: owning class qualname, or ``None``


@dataclass
class ClassInfo:
    """One class: resolved bases, method table, inferred attribute types."""

    qualname: str
    module: str
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = field(default_factory=dict)  #: name -> func qualname
    attr_types: dict[str, str] = field(default_factory=dict)  #: attr -> class qualname


@dataclass
class ModuleInfo:
    """One parsed module's symbol table."""

    name: str  #: dotted, e.g. ``repro.sim.engine``
    path: str
    imports: dict[str, str] = field(default_factory=dict)  #: alias -> dotted target
    global_types: dict[str, str] = field(default_factory=dict)  #: NAME -> class
    functions: list[str] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)


def _module_name(rel: str) -> str | None:
    """``src/repro/sim/engine.py`` -> ``repro.sim.engine``."""
    parts = Path(rel).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return None
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


def _resolve_relative(module: str, level: int, target: str | None) -> str:
    """Absolute dotted target of ``from <dots><target> import ...``."""
    package = module.rsplit(".", 1)[0] if "." in module else module
    parts = package.split(".")
    if level > 1:
        parts = parts[: max(0, len(parts) - (level - 1))]
    base = ".".join(parts)
    if target:
        return f"{base}.{target}" if base else target
    return base


class CallGraph:
    """The project symbol table the flow rules resolve calls against."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._trees: dict[str, ast.Module] = {}
        self._path_to_module: dict[str, str] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, root: Path) -> CallGraph:
        graph = cls(root)
        for rel in project_digests(Path(root)):
            graph._ingest(rel)
        graph._link()
        return graph

    def _ingest(self, rel: str) -> None:
        name = _module_name(rel)
        if name is None:
            return
        path = self.root / rel
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            return
        mod = ModuleInfo(name=name, path=str(path))
        self._trees[str(path)] = tree
        self._path_to_module[str(path)] = name
        self._collect_imports(mod, tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(mod, node)
        self.modules[name] = mod

    def _collect_imports(self, mod: ModuleInfo, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mod.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = _resolve_relative(mod.name, node.level, node.module)
                else:
                    base = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    mod.imports[bound] = f"{base}.{alias.name}" if base else alias.name

    def _add_function(self, mod, node, cls: str | None) -> None:
        owner = cls if cls is not None else mod.name
        qualname = f"{owner}.{node.name}"
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if params and params[0] in ("self", "cls") and cls is not None:
            params = params[1:]
        info = FunctionInfo(
            qualname=qualname,
            module=mod.name,
            path=mod.path,
            lineno=node.lineno,
            name=node.name,
            params=tuple(params),
            cls=cls,
        )
        self.functions[qualname] = info
        mod.functions.append(qualname)
        if cls is not None:
            self.classes[cls].methods[node.name] = qualname

    def _add_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{mod.name}.{node.name}"
        bases = []
        for b in node.bases:
            dotted = _dotted(b)
            if dotted is not None:
                bases.append(dotted)  # canonicalised in _link()
        info = ClassInfo(qualname=qualname, module=mod.name, bases=tuple(bases))
        self.classes[qualname] = info
        mod.classes.append(qualname)
        mod.global_types.setdefault(node.name, qualname)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, item, cls=qualname)

    def _link(self) -> None:
        """Second pass: canonicalise base classes, infer attribute and
        module-global types (needs every class known first)."""
        for mod in self.modules.values():
            for cname in mod.classes:
                info = self.classes[cname]
                resolver = Resolver(self, mod, self_class=None)
                info.bases = tuple(
                    resolver.canonical(b) or b for b in info.bases
                )
            tree = self._trees.get(mod.path)
            if tree is None:
                continue
            resolver = Resolver(self, mod, self_class=None)
            for node in tree.body:
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                ):
                    cls = resolver.class_of_call(node.value, {})
                    if cls is not None:
                        mod.global_types[node.targets[0].id] = cls
                elif isinstance(node, ast.ClassDef):
                    self._infer_attr_types(mod, node)

    def _infer_attr_types(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{mod.name}.{node.name}"
        info = self.classes.get(qualname)
        if info is None:
            return
        resolver = Resolver(self, mod, self_class=qualname)
        for item in ast.walk(node):
            if not isinstance(item, ast.Assign) or not isinstance(
                item.value, ast.Call
            ):
                continue
            cls = resolver.class_of_call(item.value, {})
            if cls is None:
                continue
            for tgt in item.targets:
                if (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                ):
                    info.attr_types.setdefault(tgt.attr, cls)

    # -- queries -------------------------------------------------------

    def function_def(
        self, qualname: str
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The (memoised) AST body for a known function."""
        info = self.functions.get(qualname)
        if info is None:
            return None
        tree = self.tree_for(info.path)
        if tree is None:
            return None
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == info.name
                and node.lineno == info.lineno
            ):
                return node
        return None

    def tree_for(self, path: str) -> ast.Module | None:
        tree = self._trees.get(path)
        if tree is None:
            try:
                tree = ast.parse(Path(path).read_text(encoding="utf-8"))
            except (OSError, SyntaxError):
                return None
            self._trees[path] = tree
        return tree

    def module_for_path(self, path: str | Path) -> ModuleInfo | None:
        name = self._path_to_module.get(str(path))
        return self.modules.get(name) if name else None

    def functions_in(self, module_name: str) -> list[FunctionInfo]:
        mod = self.modules.get(module_name)
        if mod is None:
            return []
        return [self.functions[q] for q in mod.functions]

    def method_on(self, cls_qualname: str, name: str) -> str | None:
        """Resolve a method through the project-visible MRO (BFS)."""
        seen = set()
        queue = [cls_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            queue.extend(info.bases)
        return None

    def attr_type_on(self, cls_qualname: str, attr: str) -> str | None:
        seen = set()
        queue = [cls_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if attr in info.attr_types:
                return info.attr_types[attr]
            queue.extend(info.bases)
        return None

    @classmethod
    def load_or_build(cls, root: Path) -> CallGraph:
        """The graph for ``root``: the process memo's while no source
        digest has changed since it was built, a fresh build otherwise."""
        root = Path(root).resolve()
        current = project_digests(root)
        memo = _MEMO.get(str(root))
        if memo is not None and memo[0] == current:
            return memo[1]
        graph = cls.build(root)
        _MEMO[str(root)] = (current, graph)
        return graph


#: Process-level memo: root -> (digest map, graph).
_MEMO: dict[str, tuple[dict[str, str], CallGraph]] = {}


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Resolver:
    """Canonicalise expressions in one module against the graph.

    :meth:`resolve` returns ``("sym", dotted)`` for a reference to a
    symbol (module, class, function — project or external) and
    ``("inst", class_qualname)`` for a value known to be an instance of
    a project class; ``None`` when nothing can be said.
    """

    def __init__(self, graph: CallGraph, module: ModuleInfo, self_class: str | None):
        self.graph = graph
        self.module = module
        self.self_class = self_class

    def canonical(self, dotted: str) -> str | None:
        """Canonical form of a raw dotted string (``np.x`` -> ``numpy.x``)."""
        head, _, rest = dotted.partition(".")
        target = self._head_target(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def _head_target(self, head: str) -> str | None:
        if head in self.module.imports:
            return self.module.imports[head]
        if head in self.module.global_types:
            # A module-level class name used as a symbol.
            candidate = f"{self.module.name}.{head}"
            if candidate in self.graph.classes:
                return candidate
            return self.module.global_types[head]
        candidate = f"{self.module.name}.{head}"
        if candidate in self.graph.functions or candidate in self.graph.classes:
            return candidate
        return None

    def resolve(
        self, node: ast.expr, local_types: dict[str, str]
    ) -> tuple[str, str] | None:
        if isinstance(node, ast.Name):
            if node.id == "self" and self.self_class is not None:
                return ("inst", self.self_class)
            if node.id in local_types:
                return ("inst", local_types[node.id])
            if node.id in self.module.imports:
                target = self.module.imports[node.id]
                # ``from m import NAME`` where NAME is a module-level
                # instance in a project module.
                owner, _, leaf = target.rpartition(".")
                owner_mod = self.graph.modules.get(owner)
                if owner_mod is not None and leaf in owner_mod.global_types:
                    cls = owner_mod.global_types[leaf]
                    if target not in self.graph.classes:
                        return ("inst", cls)
                return ("sym", target)
            if node.id in self.module.global_types:
                candidate = f"{self.module.name}.{node.id}"
                if candidate in self.graph.classes:
                    return ("sym", candidate)
                return ("inst", self.module.global_types[node.id])
            candidate = f"{self.module.name}.{node.id}"
            if candidate in self.graph.functions or candidate in self.graph.classes:
                return ("sym", candidate)
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value, local_types)
            if base is None:
                return None
            kind, name = base
            if kind == "inst":
                method = self.graph.method_on(name, node.attr)
                if method is not None:
                    return ("sym", method)
                attr_cls = self.graph.attr_type_on(name, node.attr)
                if attr_cls is not None:
                    return ("inst", attr_cls)
                return None
            # kind == "sym"
            if name in self.graph.modules:
                owner = self.graph.modules[name]
                candidate = f"{name}.{node.attr}"
                if candidate in self.graph.functions or candidate in self.graph.classes:
                    return ("sym", candidate)
                if node.attr in owner.global_types:
                    return ("inst", owner.global_types[node.attr])
                if node.attr in owner.imports:
                    return ("sym", owner.imports[node.attr])
                return ("sym", candidate)
            if name in self.graph.classes:
                method = self.graph.method_on(name, node.attr)
                if method is not None:
                    return ("sym", method)
                return ("sym", f"{name}.{node.attr}")
            return ("sym", f"{name}.{node.attr}")
        if isinstance(node, ast.Call):
            cls = self.class_of_call(node, local_types)
            if cls is not None:
                return ("inst", cls)
            return None
        return None

    def class_of_call(
        self, call: ast.Call, local_types: dict[str, str]
    ) -> str | None:
        """Project class qualname when ``call`` constructs one."""
        resolved = self.resolve(call.func, local_types)
        if resolved is not None and resolved[0] == "sym":
            if resolved[1] in self.graph.classes:
                return resolved[1]
        return None

    def call_target(
        self, call: ast.Call, local_types: dict[str, str]
    ) -> tuple[str | None, str | None, str | None]:
        """``(dotted, project_qualname, attr_name)`` for sink matching.

        ``dotted`` is the canonical name (external like
        ``numpy.random.default_rng`` or a project qualname);
        ``project_qualname`` is set when the callee is a known project
        function (class constructors resolve to ``__init__``);
        ``attr_name`` is the raw trailing attribute (or bare name) for
        fallback matching when resolution fails.
        """
        attr = None
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
        elif isinstance(call.func, ast.Name):
            attr = call.func.id
        resolved = self.resolve(call.func, local_types)
        if resolved is None or resolved[0] != "sym":
            return (None, None, attr)
        name = resolved[1]
        project = None
        if name in self.graph.functions:
            project = name
        elif name in self.graph.classes:
            init = self.graph.method_on(name, "__init__")
            project = init
        return (name, project, attr)
