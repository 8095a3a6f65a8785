"""The analysis engine: file collection, scoping, suppressions, report.

Per-file pipeline:

1. locate the *project root* (nearest ancestor with ``pyproject.toml``;
   a directory literally named ``fixtures`` wins first, so lint
   fixtures behave like a miniature project of their own);
2. compute the root-relative posix path used for rule scoping;
3. parse the source (a ``SyntaxError`` becomes a ``lint-syntax``
   finding rather than a crash);
4. run every selected rule whose scope matches;
5. drop findings whose line carries ``# repro: allow[rule-id]`` for
   that exact rule, and flag unknown ids in suppressions
   (``lint-suppression``).

Comments are read with :mod:`tokenize`, so ``repro: allow[...]`` inside
a string literal is inert.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from .findings import Finding
from .registry import RULES, Rule, register_meta

__all__ = [
    "FileContext",
    "LintError",
    "LintReport",
    "ProjectContext",
    "collect_files",
    "resolve_invocation_root",
    "run_lint",
]

#: Directory names never descended into when a directory is linted.
#: ``fixtures`` is skipped so planted-violation files under
#: ``tests/lint/fixtures/`` don't fail the repo-wide run; passing a
#: fixture file *explicitly* still lints it (that is how the lint tests
#: exercise the rules).
SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".hg", ".venv", "venv", "node_modules", "fixtures"}
)

_ALLOW_RE = re.compile(r"repro:\s*allow\[([^\]]*)\]")

register_meta(
    "lint-suppression",
    rationale="a suppression naming an unknown rule id silences nothing "
    "and usually means a typo is hiding a real finding",
)
register_meta(
    "lint-syntax",
    rationale="a file the analyser cannot parse is a file no invariant "
    "check has looked at",
)


class LintError(Exception):
    """Unrecoverable usage error (unknown rule id, missing path)."""


# ---------------------------------------------------------------------------
# project context: declared trace events
# ---------------------------------------------------------------------------

#: Root-relative modules that may declare trace events.
EVENT_DECLARATION_FILES = (
    "src/repro/obs/events.py",
    "src/repro/sim/traces.py",
)


@dataclass
class ProjectContext:
    """Per-root facts shared by every file under that root.

    ``events`` maps declared event names to their declared field tuple
    (or ``None`` when a name is declared without a field set);
    ``event_constants`` maps the *constant names* (``SIM_SLOT``) to the
    event string they hold, so emit sites can be checked whichever way
    they spell the event.
    """

    root: Path
    events: dict[str, tuple[str, ...] | None] = field(default_factory=dict)
    event_constants: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, root: Path) -> ProjectContext:
        ctx = cls(root=root)
        for rel in EVENT_DECLARATION_FILES:
            path = root / rel
            if path.is_file():
                ctx._ingest_declarations(path)
        if not ctx.events:
            # Not a repro-shaped tree: fall back to the installed
            # taxonomy so emit sites are still checked against *some*
            # declared vocabulary.
            try:
                from ..obs import events as events_mod

                ctx._ingest_declarations(Path(events_mod.__file__))
            except Exception:  # pragma: no cover - import environment
                pass
        return ctx

    def _ingest_declarations(self, path: Path) -> None:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):  # pragma: no cover - defensive
            return
        for node in tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                if target.id.isupper() and target.id not in ("ALL_EVENTS",):
                    self.event_constants[target.id] = value.value
                    self.events.setdefault(value.value, None)
            elif target.id == "EVENT_FIELDS" and isinstance(value, ast.Dict):
                for key, val in zip(value.keys, value.values):
                    if not (
                        isinstance(key, ast.Constant) and isinstance(key.value, str)
                    ):
                        continue
                    fields: list[str] = []
                    if isinstance(val, (ast.Tuple, ast.List)):
                        for elt in val.elts:
                            if isinstance(elt, ast.Constant) and isinstance(
                                elt.value, str
                            ):
                                fields.append(elt.value)
                    self.events[key.value] = tuple(fields)


@dataclass
class FileContext:
    """Everything a rule checker gets to look at for one file."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    project: ProjectContext

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule_id,
            message=message,
        )


# ---------------------------------------------------------------------------
# file collection and root detection
# ---------------------------------------------------------------------------


def resolve_invocation_root(files: list[Path]) -> Path | None:
    """The single project root for one engine invocation.

    The nearest ancestor of the inputs' common path that holds a
    ``pyproject.toml`` — so ``repro lint`` run from ``src/repro/sim``
    scopes rules exactly as a run from the repo root does.  Fixture
    trees opt out per file in :func:`_find_root` (a directory literally
    named ``fixtures`` stays its own miniature project).
    """
    candidates = [p for p in files if "fixtures" not in (q.name for q in p.parents)]
    if not candidates:
        return None
    try:
        common = Path(os.path.commonpath([str(p) for p in candidates]))
    except ValueError:  # pragma: no cover - inputs on different drives
        return None
    if common.is_file():
        common = common.parent
    for parent in (common, *common.parents):
        if (parent / "pyproject.toml").is_file():
            return parent
    return None


def _find_root(path: Path, invocation_root: Path | None = None) -> Path:
    """Nearest ``fixtures`` ancestor, else the invocation root, else the
    nearest ``pyproject.toml`` walking up from the file itself."""
    for parent in path.parents:
        if parent.name == "fixtures":
            return parent
    if invocation_root is not None and invocation_root in path.parents:
        return invocation_root
    for parent in path.parents:
        if (parent / "pyproject.toml").is_file():
            return parent
    return path.parent


def collect_files(paths: list[str | os.PathLike]) -> list[Path]:
    """Expand files/directories into the sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            out.add(path.resolve())
        elif path.is_dir():
            for walk_root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in SKIP_DIRS and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.add((Path(walk_root) / name).resolve())
        else:
            raise LintError(f"no such file or directory: {raw}")
    return sorted(out)


def _display_path(path: Path) -> str:
    """Prefer a cwd-relative spelling for readability."""
    try:
        return path.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return str(path)


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


def _parse_suppressions(source: str) -> dict[int, list[str]]:
    """Map line number -> rule ids allowed on that line (comments only)."""
    allows: dict[int, list[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            for match in _ALLOW_RE.finditer(tok.string):
                ids = [part.strip() for part in match.group(1).split(",")]
                allows.setdefault(tok.start[0], []).extend(i for i in ids if i)
    except tokenize.TokenError:  # pragma: no cover - unparsable tail
        pass
    return allows


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def _ensure_rules_loaded() -> None:
    from . import rules as _rules  # noqa: F401  (import populates RULES)


def _select_rules(rule_ids: list[str] | None) -> list[Rule]:
    _ensure_rules_loaded()
    if rule_ids is None:
        return list(RULES.values())
    selected = []
    for rid in rule_ids:
        if rid not in RULES:
            raise LintError(
                f"unknown rule id: {rid!r} (known: {', '.join(sorted(RULES))})"
            )
        selected.append(RULES[rid])
    return selected


def changed_files(ref: str, repo_root: Path | None = None) -> list[str]:
    """Python files changed vs ``ref`` (``repro lint --changed``).

    Includes files with uncommitted modifications; deleted files drop
    out because :func:`collect_files` requires existence.
    """
    import subprocess

    cwd = Path(repo_root) if repo_root is not None else Path.cwd()
    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", "--diff-filter=ACMR", ref, "--", "*.py"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        )
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", "") or str(exc)
        raise LintError(f"cannot resolve --changed {ref!r}: {detail.strip()}") from exc
    out = []
    for line in proc.stdout.splitlines():
        candidate = Path(top) / line.strip()
        if candidate.is_file():
            out.append(str(candidate))
    return out


@dataclass
class LintReport:
    """The outcome of one engine run, serialisable both ways."""

    findings: list[Finding]
    files_checked: int
    rules_run: list[str]

    @property
    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "rules_run": sorted(self.rules_run),
            "findings": [f.to_dict() for f in self.findings],
            "counts_by_rule": self.counts_by_rule,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, blob: dict) -> LintReport:
        return cls(
            findings=[Finding.from_dict(f) for f in blob["findings"]],
            files_checked=int(blob["files_checked"]),
            rules_run=list(blob["rules_run"]),
        )

    @classmethod
    def from_json(cls, text: str) -> LintReport:
        return cls.from_dict(json.loads(text))

    def format_text(self) -> str:
        lines = [f.format() for f in self.findings]
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"{len(self.findings)} {noun} in {self.files_checked} file(s)"
        )
        return "\n".join(lines)


def lint_file(
    path: Path,
    rules: list[Rule],
    project: ProjectContext | None = None,
    invocation_root: Path | None = None,
) -> list[Finding]:
    """Lint one file; explicit paths are linted even inside fixtures."""
    root = _find_root(path, invocation_root)
    if project is None or project.root != root:
        project = ProjectContext.load(root)
    try:
        relpath = path.relative_to(root).as_posix()
    except ValueError:  # pragma: no cover - path outside its own root
        relpath = path.name
    display = _display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                path=display,
                line=exc.lineno or 1,
                col=(exc.offset or 0) or 1,
                rule="lint-syntax",
                message=f"file does not parse: {exc.msg}",
            )
        ]

    ctx = FileContext(
        path=path, relpath=relpath, source=source, tree=tree, project=project
    )
    raw: list[Finding] = []
    for r in rules:
        if r.check is None or not r.applies_to(relpath):
            continue
        raw.extend(r.check(ctx))

    allows = _parse_suppressions(source)
    kept: list[Finding] = []
    for f in raw:
        if f.rule in allows.get(f.line, ()):
            continue
        kept.append(
            Finding(
                path=display, line=f.line, col=f.col, rule=f.rule, message=f.message
            )
        )
    selected_ids = {r.id for r in rules}
    if "lint-suppression" in selected_ids:
        for line, ids in sorted(allows.items()):
            for rid in ids:
                if rid not in RULES:
                    kept.append(
                        Finding(
                            path=display,
                            line=line,
                            col=1,
                            rule="lint-suppression",
                            message=f"suppression names unknown rule id {rid!r}",
                        )
                    )
    return kept


def run_lint(
    paths: list[str | os.PathLike],
    rule_ids: list[str] | None = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) with the selected rules."""
    rules = _select_rules(rule_ids)
    files = collect_files(paths)
    invocation_root = resolve_invocation_root(files)
    findings: list[Finding] = []
    projects: dict[Path, ProjectContext] = {}
    for path in files:
        root = _find_root(path, invocation_root)
        project = projects.get(root)
        if project is None:
            project = projects[root] = ProjectContext.load(root)
        findings.extend(lint_file(path, rules, project, invocation_root))
    findings.sort()
    return LintReport(
        findings=findings,
        files_checked=len(files),
        rules_run=[r.id for r in rules],
    )
