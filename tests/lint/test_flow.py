"""Flow-sensitive analysis: call resolution against the project
symbol table, golden taint paths per rule family, the seeded-mutation
gates on real sources, the unified invocation root, and the flow CLI
surface."""

from __future__ import annotations

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import run_lint
from repro.lint.callgraph import CallGraph, Resolver
from repro.lint.engine import resolve_invocation_root

REPO = Path(__file__).resolve().parents[2]
FIXROOT = Path(__file__).parent / "fixtures"
FIXTURES = FIXROOT / "src" / "repro"


def flow_report(relpath: str):
    path = FIXTURES / relpath
    assert path.is_file(), path
    return run_lint([path], flow=True)


@pytest.fixture(scope="module")
def graph() -> CallGraph:
    return CallGraph.build(FIXROOT)


def resolved_calls(graph, qualname: str) -> set[tuple[str, int]]:
    """``(project callee, line)`` of each call in a flat function body,
    through :meth:`Resolver.call_target` as the taint pass resolves
    them: statements in order, locals typed by constructor assignments."""
    info = graph.functions[qualname]
    resolver = Resolver(graph, graph.modules[info.module], self_class=info.cls)
    local_types: dict[str, str] = {}
    calls = set()
    for stmt in graph.function_def(qualname).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                _, project, _ = resolver.call_target(node, local_types)
                if project is not None:
                    calls.add((project, node.lineno))
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            cls = resolver.class_of_call(stmt.value, local_types)
            if cls is not None:
                local_types.update({t.id: cls for t in stmt.targets})
    return calls


class TestCallGraph:
    def test_cross_module_import_edges(self, graph):
        callees = {c for c, _ in resolved_calls(graph, "repro.core.bad_taint_ledger.update")}
        assert "repro.core.flow_helpers.jitter" in callees
        assert "repro.core.flow_helpers.scale" in callees

    def test_attribute_dispatch_through_local_type(self, graph):
        # ledger = MiniLedger(n); ledger.record_from(...) resolves to the
        # method because the constructor assignment types the local.
        calls = resolved_calls(graph, "repro.core.bad_taint_ledger.update")
        assert ("repro.core.bad_taint_ledger.MiniLedger.record_from", 22) in calls

    def test_self_method_dispatch(self, graph):
        calls = resolved_calls(graph, "repro.sim.procs.ProcsCoordinator.step")
        callees = {c for c, _ in calls}
        assert "repro.sim.procs.ProcsCoordinator._broadcast" in callees

    def test_disk_cache_hit_and_digest_invalidation(self, tmp_path):
        # The name predates the removal of the disk cache: the process
        # memo is what hits, and an edited file is what invalidates it.
        proj = tmp_path / "proj"
        shutil.copytree(FIXROOT / "src", proj / "src")
        g1 = CallGraph.load_or_build(proj)
        assert CallGraph.load_or_build(proj) is g1
        assert "repro.core.flow_helpers.extra" not in g1.functions
        helpers = proj / "src" / "repro" / "core" / "flow_helpers.py"
        helpers.write_text(
            helpers.read_text(encoding="utf-8") + "\n\ndef extra():\n    return 0\n",
            encoding="utf-8",
        )
        g2 = CallGraph.load_or_build(proj)
        assert "repro.core.flow_helpers.extra" in g2.functions


class TestDetTaintLedger:
    def test_golden_path(self):
        report = flow_report("core/bad_taint_ledger.py")
        assert {f.rule for f in report.findings} == {"det-taint-ledger"}
        assert {f.line for f in report.findings} == {22}
        store = next(f for f in report.findings if "_credits" in f.message)
        golden = [
            "flow_helpers.py:14: wall-clock read",
            "bad_taint_ledger.py:21: returned from jitter()",
            "bad_taint_ledger.py:21: returned from scale()",
            "bad_taint_ledger.py:22: passed into record_from()",
            "bad_taint_ledger.py:15: enters record_from() as parameter 'amount'",
            "bad_taint_ledger.py:16: nondeterministic value stored into credit",
        ]
        for want, got in zip(golden, store.trace):
            assert want in got, (want, got)
        assert len(store.trace) == len(golden)

    def test_sink_call_also_reported(self):
        report = flow_report("core/bad_taint_ledger.py")
        assert any(
            "reaches ledger state via" in f.message for f in report.findings
        )

    def test_clean_without_flow(self):
        report = run_lint([FIXTURES / "core" / "bad_taint_ledger.py"])
        assert not report.findings
        assert "det-taint-ledger" not in report.rules_run


class TestDetTaintSeed:
    def test_env_to_keyed_stream(self):
        report = flow_report("rlnc/bad_taint_seed.py")
        f = next(x for x in report.findings if x.line == 15)
        assert f.rule == "det-taint-seed"
        assert "KeyedStream" in f.message
        assert any("environment variable read" in s for s in f.trace)
        assert any("flow_helpers.py:22" in s for s in f.trace)

    def test_wallclock_to_default_rng(self):
        report = flow_report("rlnc/bad_taint_seed.py")
        f = next(x for x in report.findings if x.line == 19)
        assert f.rule == "det-taint-seed"
        assert "numpy.random.default_rng" in f.message
        assert any("wall-clock read" in s for s in f.trace)

    def test_no_other_rules_fire(self):
        report = flow_report("rlnc/bad_taint_seed.py")
        assert {f.rule for f in report.findings} == {"det-taint-seed"}


class TestSecKeyTaint:
    def test_cross_method_attribute_leaks(self):
        report = flow_report("transfer/bad_key_leak.py")
        assert {f.rule for f in report.findings} == {"sec-key-taint"}
        assert {f.line for f in report.findings} == {24, 27}

    def test_trace_roots_at_derivation(self):
        report = flow_report("transfer/bad_key_leak.py")
        for f in report.findings:
            assert any(
                "bad_key_leak.py:21: secret key material derived here" in s
                for s in f.trace
            ), f.trace

    def test_sink_kinds(self):
        report = flow_report("transfer/bad_key_leak.py")
        messages = sorted(f.message for f in report.findings)
        assert any("trace event" in m for m in messages)
        assert any("to_dict payload" in m for m in messages)


class TestMutationGates:
    """The acceptance mutations: seed each bug into a copy of the real
    sources and assert the flow gate catches it."""

    @pytest.fixture()
    def repo_copy(self, tmp_path):
        proj = tmp_path / "proj"
        proj.mkdir()
        shutil.copytree(
            REPO / "src",
            proj / "src",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        shutil.copy(REPO / "pyproject.toml", proj / "pyproject.toml")
        return proj

    def _mutate(self, path: Path, old: str, new: str) -> None:
        text = path.read_text(encoding="utf-8")
        assert old in text, f"mutation anchor missing in {path}"
        path.write_text(text.replace(old, new, 1), encoding="utf-8")

    def test_wallclock_seed_in_engine_is_caught(self, repo_copy):
        shard = repo_copy / "src" / "repro" / "sim" / "shard.py"
        self._mutate(shard, "\nimport numpy as np\n", "\nimport time\n\nimport numpy as np\n")
        self._mutate(shard, "_LazyRngs(seed)", "_LazyRngs(time.time_ns())")
        report = run_lint([shard], flow=True)
        hits = [f for f in report.findings if f.rule == "det-taint-seed"]
        assert hits, [f.message for f in report.findings]
        assert any("'seed' parameter" in f.message for f in hits)

    def test_wallclock_in_deferred_credit_is_caught(self, repo_copy):
        # The deferred-feedback buffer credits through the same store
        # merge, so the taint reaches the ledger sinks, not only the
        # syntactic wall-clock rule.
        shard = repo_copy / "src" / "repro" / "sim" / "shard.py"
        self._mutate(shard, "\nimport numpy as np\n", "\nimport time\n\nimport numpy as np\n")
        self._mutate(
            shard,
            "self._scatter(self._buffer, givers, rows, amounts, weight)",
            "self._scatter(self._buffer, givers, rows, amounts, weight * time.time())",
        )
        report = run_lint([shard], flow=True)
        hits = [f for f in report.findings if f.rule == "det-taint-ledger"]
        assert hits, [f.message for f in report.findings]
        assert any("add_compact" in f.message for f in hits)

    def test_unmutated_copy_is_clean(self, repo_copy):
        sim = repo_copy / "src" / "repro" / "sim"
        report = run_lint(
            [sim / "engine.py", sim / "shard.py", sim / "procs.py"], flow=True
        )
        assert not report.findings, [f.message for f in report.findings]


class TestInvocationRoot:
    def test_mixed_paths_resolve_to_repo_root(self):
        root = resolve_invocation_root(
            [REPO / "src" / "repro" / "cli.py", REPO / "tests" / "lint" / "test_rules.py"]
        )
        assert root == REPO

    def test_fixture_paths_do_not_drag_the_root(self):
        # Fixture files keep their own root; they must not pull the
        # shared invocation root down to a common ancestor.
        root = resolve_invocation_root(
            [
                FIXTURES / "core" / "bad_taint_ledger.py",
                REPO / "src" / "repro" / "cli.py",
            ]
        )
        assert root == REPO

    def test_run_from_subdirectory(self, monkeypatch):
        # Satellite (b): linting from a subdirectory with relative paths
        # must resolve every file against the one invocation root.
        monkeypatch.chdir(REPO / "src")
        report = run_lint(
            [
                Path("repro") / "cli.py",
                Path("..") / "tests" / "lint" / "fixtures" / "src" / "repro"
                / "core" / "bad_taint_ledger.py",
            ],
            flow=True,
        )
        assert {f.rule for f in report.findings} == {"det-taint-ledger"}


class TestFlowCli:
    BAD_LEDGER = str(FIXTURES / "core" / "bad_taint_ledger.py")

    def test_flow_flag_gates_the_rules(self, capsys):
        assert main(["lint", self.BAD_LEDGER]) == 0
        capsys.readouterr()
        assert main(["lint", "--flow", self.BAD_LEDGER]) == 1
        assert "det-taint-ledger" in capsys.readouterr().out

    def test_no_flow_wins(self, capsys):
        assert main(["lint", "--flow", "--no-flow", self.BAD_LEDGER]) == 0

    def test_explain_prints_the_taint_path(self, capsys):
        assert main(["lint", "--explain", "det-taint-ledger", self.BAD_LEDGER]) == 1
        out = capsys.readouterr().out
        assert "wall-clock read" in out
        assert "flow_helpers.py:14" in out
        assert "enters record_from() as parameter 'amount'" in out

    def test_explain_clean_rule_exits_zero(self, capsys):
        assert main(["lint", "--explain", "sec-key-taint", self.BAD_LEDGER]) == 0

    def test_cache_dir_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["lint", "--flow", "--cache-dir", "x", self.BAD_LEDGER])
        assert usage.value.code == 2

    def test_suppression_silences_flow_finding(self, tmp_path):
        proj = tmp_path / "proj"
        shutil.copytree(FIXROOT / "src", proj / "src")
        (proj / "pyproject.toml").write_text("[project]\nname='fx'\n")
        target = proj / "src" / "repro" / "core" / "bad_taint_ledger.py"
        text = target.read_text(encoding="utf-8")
        text = text.replace(
            "ledger.record_from(0, amount)",
            "ledger.record_from(0, amount)  # repro: allow[det-taint-ledger] audited",
        )
        target.write_text(text, encoding="utf-8")
        report = run_lint([target], flow=True)
        assert not report.findings


class TestChangedFiles:
    def _git(self, *args: str, cwd: Path) -> None:
        subprocess.run(
            [
                "git",
                "-c",
                "user.email=lint@test",
                "-c",
                "user.name=lint",
                *args,
            ],
            cwd=cwd,
            check=True,
            capture_output=True,
        )

    @pytest.fixture()
    def git_repo(self, tmp_path):
        repo = tmp_path / "repo"
        mod = repo / "src" / "repro" / "core" / "mod.py"
        mod.parent.mkdir(parents=True)
        (repo / "pyproject.toml").write_text("[project]\nname='fx'\n")
        mod.write_text("X = 1\n")
        self._git("init", "-q", cwd=repo)
        self._git("add", "-A", cwd=repo)
        self._git("commit", "-q", "-m", "seed", cwd=repo)
        return repo

    def test_changed_picks_up_modified_file(self, git_repo, monkeypatch, capsys):
        mod = git_repo / "src" / "repro" / "core" / "mod.py"
        mod.write_text("import time\n\nT = time.time()\n")
        monkeypatch.chdir(git_repo)
        assert main(["lint", "--changed", "HEAD"]) == 1
        assert "det-wallclock" in capsys.readouterr().out

    def test_changed_nothing_exits_zero(self, git_repo, monkeypatch, capsys):
        monkeypatch.chdir(git_repo)
        assert main(["lint", "--changed", "HEAD"]) == 0
        assert "no python files changed" in capsys.readouterr().out


class TestRepoFlowClean:
    def test_real_sources_pass_the_flow_gate(self):
        report = run_lint([REPO / "src"], flow=True)
        flow_rules = {"det-taint-ledger", "det-taint-seed", "sec-key-taint"}
        assert not [f for f in report.findings if f.rule in flow_rules], [
            (f.path, f.line, f.message)
            for f in report.findings
            if f.rule in flow_rules
        ]
        assert flow_rules <= set(report.rules_run)
