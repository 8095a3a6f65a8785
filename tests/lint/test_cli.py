"""`repro lint` CLI: exit codes, formats, rule filtering, rule listing,
the invocation root, suppressions and ``--changed``."""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import run_lint
from repro.lint.engine import resolve_invocation_root

REPO = Path(__file__).resolve().parents[2]
FIXROOT = Path(__file__).parent / "fixtures"
FIXTURES = FIXROOT / "src" / "repro"
BAD_DET = str(FIXTURES / "core" / "bad_determinism.py")


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", BAD_DET]) == 1
        out = capsys.readouterr().out
        assert "det-wallclock" in out
        assert f"{BAD_DET}:11:" in out or "bad_determinism.py:11:" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rule", "nope", BAD_DET]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "definitely/not/here.py"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestFormats:
    def test_json_format_parses_and_matches_engine(self, capsys):
        assert main(["lint", "--format", "json", BAD_DET]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["version"] == 1
        rules = {f["rule"] for f in blob["findings"]}
        assert "det-wallclock" in rules and "det-unseeded-rng" in rules
        lines = {
            (f["line"], f["rule"]) for f in blob["findings"]
        }
        assert (11, "det-wallclock") in lines

    def test_rule_filter(self, capsys):
        assert main(["lint", "--rule", "det-urandom", BAD_DET]) == 1
        out = capsys.readouterr().out
        assert "det-urandom" in out and "det-wallclock" not in out


class TestListRules:
    def test_lists_every_family(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in (
            "det-wallclock",
            "det-stdlib-random",
            "det-urandom",
            "det-unseeded-rng",
            "float-div-before-mul",
            "trace-unknown-event",
            "trace-fields",
            "api-batched-scalar-pair",
            "api-mutable-default",
            "lint-suppression",
            "lint-syntax",
        ):
            assert rid in out, rid


class TestRemovedFlags:
    def test_cache_dir_flag_is_gone(self):
        with pytest.raises(SystemExit) as usage:
            main(["lint", "--cache-dir", "x", BAD_DET])
        assert usage.value.code == 2

    @pytest.mark.parametrize(
        "flag", [["--flow"], ["--no-flow"], ["--explain", "det-wallclock"]]
    )
    def test_flow_flags_are_gone(self, flag):
        with pytest.raises(SystemExit) as usage:
            main(["lint", *flag, BAD_DET])
        assert usage.value.code == 2


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
            [FIXTURES / "core" / "bad_determinism.py", REPO / "src" / "repro" / "cli.py"]
        )
        assert root == REPO

    def test_run_from_subdirectory(self, monkeypatch):
        # Relative paths from a subdirectory resolve against the one
        # invocation root: the fixture stays scoped as src/repro/core/
        # of its own tree, so its det-* violations still fire.
        monkeypatch.chdir(REPO / "src")
        report = run_lint(
            [
                Path("repro") / "cli.py",
                Path("..") / "tests" / "lint" / "fixtures" / "src" / "repro"
                / "core" / "bad_determinism.py",
            ]
        )
        assert {f.rule for f in report.findings} == {
            "det-stdlib-random",
            "det-wallclock",
            "det-urandom",
            "det-unseeded-rng",
        }
        assert all(f.path.endswith("bad_determinism.py") for f in report.findings)


class TestSuppressionViaCli:
    def test_allow_comment_silences_the_cli_finding(self, tmp_path, capsys):
        proj = tmp_path / "proj"
        shutil.copytree(FIXROOT / "src", proj / "src")
        (proj / "pyproject.toml").write_text("[project]\nname='fx'\n")
        target = proj / "src" / "repro" / "core" / "bad_determinism.py"
        text = target.read_text(encoding="utf-8")
        text = text.replace(
            "return time.time()  # line 11: det-wallclock",
            "return time.time()  # repro: allow[det-wallclock] audited",
        )
        target.write_text(text, encoding="utf-8")
        assert main(["lint", "--format", "json", "--rule", "det-wallclock", str(target)]) == 1
        lines = {f["line"] for f in json.loads(capsys.readouterr().out)["findings"]}
        assert 11 not in lines
        assert 34 in lines


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
