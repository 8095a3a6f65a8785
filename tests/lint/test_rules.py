"""Every rule family detects its planted fixture violations at the
exact file:line the fixture pins (the ISSUE's acceptance criterion)."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.lint import run_lint

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures" / "src" / "repro"


def findings_for(relpath: str):
    path = FIXTURES / relpath
    assert path.is_file(), path
    report = run_lint([path])
    return [(f.line, f.rule) for f in report.findings], report


class TestDeterminismFamily:
    def test_planted_violations(self):
        got, report = findings_for("core/bad_determinism.py")
        assert (4, "det-stdlib-random") in got
        assert (11, "det-wallclock") in got
        assert (15, "det-urandom") in got
        assert (19, "det-unseeded-rng") in got
        assert (23, "det-unseeded-rng") in got
        for f in report.findings:
            assert f.path.endswith("bad_determinism.py")

    def test_every_wallclock_spelling(self):
        # other_clocks(): monotonic, monotonic_ns, clock_gettime,
        # process_time, datetime.now, datetime.utcnow on lines 34-39;
        # perf_counter on line 40 stays allowed for obs timers.
        got, report = findings_for("core/bad_determinism.py")
        wallclock = {line for line, rule in got if rule == "det-wallclock"}
        assert wallclock >= set(range(34, 40))
        assert 40 not in wallclock
        messages = {f.message.split("()")[0] for f in report.findings if f.line >= 34}
        assert messages == {
            "time.monotonic",
            "time.monotonic_ns",
            "time.clock_gettime",
            "time.process_time",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
        }

    def test_no_extra_rules_fire(self):
        got, _ = findings_for("core/bad_determinism.py")
        assert {rule for _, rule in got} == {
            "det-stdlib-random",
            "det-wallclock",
            "det-urandom",
            "det-unseeded-rng",
        }


class TestFloatSafetyFamily:
    def test_planted_violations(self):
        got, _ = findings_for("core/bad_float.py")
        assert (7, "float-div-before-mul") in got
        assert (11, "float-ledger-dtype") in got
        assert (16, "float-bare-sum") in got

    def test_safe_forms_stay_clean(self):
        got, _ = findings_for("core/bad_float.py")
        # fine_forms() spans lines 19-25: multiply-before-divide, an
        # explicit ratio, a literal divisor, a scalar generator sum and
        # a default-dtype ledger must none of them fire.
        assert not [line for line, _ in got if line >= 19]


class TestDensityFamily:
    def test_planted_violations(self):
        got, _ = findings_for("sim/bad_density.py")
        assert (7, "sim-dense-alloc") in got
        assert (8, "sim-dense-alloc") in got
        assert (9, "sim-dense-alloc") in got

    def test_safe_and_allowed_forms_stay_clean(self):
        # fine_forms() spans lines 13-19: rectangular, literal-square,
        # 1-D, distinct-dims and allow-annotated allocations are all ok.
        got, _ = findings_for("sim/bad_density.py")
        assert not [line for line, _ in got if line >= 13]

    def test_rule_scoped_to_sim_layer(self):
        # The same (n, n) allocation in core/ (the reference rules are
        # allowed to stay textbook-dense) must not fire this rule.
        got, _ = findings_for("core/bad_float.py")
        assert "sim-dense-alloc" not in {rule for _, rule in got}


class TestTraceFamily:
    def test_planted_violations(self):
        got, _ = findings_for("transfer/bad_trace.py")
        assert (17, "trace-unknown-event") in got
        assert (18, "trace-fields") in got
        assert (19, "trace-unknown-event") in got

    def test_declared_sites_clean(self):
        got, _ = findings_for("transfer/bad_trace.py")
        assert not [line for line, _ in got if line >= 20]

    def test_field_mismatch_message_names_both_directions(self):
        path = FIXTURES / "transfer" / "bad_trace.py"
        report = run_lint([path])
        (msg,) = [f.message for f in report.findings if f.rule == "trace-fields"]
        assert "missing ['b']" in msg and "unexpected ['c']" in msg


class TestSpanTraceFamily:
    """Span events obey the same EVENT_FIELDS contract as flat events."""

    def test_span_field_mismatch_detected(self):
        got, _ = findings_for("transfer/bad_span_trace.py")
        assert (17, "trace-fields") in got
        assert (20, "trace-unknown-event") in got

    def test_mismatch_names_the_span_fields(self):
        path = FIXTURES / "transfer" / "bad_span_trace.py"
        report = run_lint([path])
        (msg,) = [f.message for f in report.findings if f.rule == "trace-fields"]
        assert "missing ['parent_id']" in msg
        assert "unexpected ['status']" in msg

    def test_contract_conforming_span_emits_clean(self):
        got, _ = findings_for("transfer/bad_span_trace.py")
        assert not [line for line, _ in got if line >= 21]


class TestApiFamily:
    def test_planted_violations(self):
        got, _ = findings_for("core/bad_api.py")
        assert (6, "api-batched-scalar-pair") in got
        assert (24, "api-mutable-default") in got
        assert (29, "api-mutable-default") in got

    def test_protocol_and_paired_classes_exempt(self):
        got, _ = findings_for("core/bad_api.py")
        pair_lines = [line for line, rule in got if rule == "api-batched-scalar-pair"]
        assert pair_lines == [6]


class TestScoping:
    def test_det_rules_do_not_apply_outside_scoped_layers(self, tmp_path):
        # The same violations in an unscoped location (no src/repro/...
        # prefix under its root) must stay silent for scoped families.
        mod = tmp_path / "fixtures" / "scripts" / "tool.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        report = run_lint([mod])
        assert report.findings == []

    def test_fixture_dirs_are_skipped_on_directory_walks(self):
        report = run_lint([Path(__file__).parent])
        bad = [f for f in report.findings if "fixtures" in f.path]
        assert bad == []


class TestSyntaxRule:
    def test_unparsable_file_is_a_finding_not_a_crash(self, tmp_path):
        mod = tmp_path / "broken.py"
        mod.write_text("def f(:\n")
        report = run_lint([mod])
        assert [f.rule for f in report.findings] == ["lint-syntax"]
        assert report.exit_code() == 1


class TestRuleMetadata:
    def test_every_rule_has_id_rationale_and_registry_entry(self):
        from repro.lint import RULES
        from repro.lint.engine import _ensure_rules_loaded

        _ensure_rules_loaded()
        assert len(RULES) >= 11
        for rid, rule in RULES.items():
            assert rule.id == rid
            assert rule.rationale.strip(), rid

    def test_rule_filter_runs_only_selected(self):
        path = FIXTURES / "core" / "bad_determinism.py"
        report = run_lint([path], rule_ids=["det-wallclock"])
        assert {f.rule for f in report.findings} == {"det-wallclock"}

    def test_unknown_rule_filter_raises(self):
        from repro.lint import LintError

        with pytest.raises(LintError, match="unknown rule id"):
            run_lint([FIXTURES], rule_ids=["nope"])


class TestMutationGates:
    """Seed a wall-clock read into a copy of the real sharded kernel: the
    syntactic pass catches it at the call site, wherever the value goes
    (an rng seed, a deferred ledger credit)."""

    @pytest.fixture()
    def shard(self, tmp_path):
        sim = tmp_path / "proj" / "src" / "repro" / "sim"
        sim.mkdir(parents=True)
        shutil.copy(REPO / "pyproject.toml", tmp_path / "proj" / "pyproject.toml")
        for name in ("engine.py", "shard.py", "procs.py"):
            shutil.copy(REPO / "src" / "repro" / "sim" / name, sim / name)
        return sim / "shard.py"

    def _mutate(self, path: Path, old: str, new: str) -> None:
        text = path.read_text(encoding="utf-8")
        assert old in text, f"mutation anchor missing in {path}"
        path.write_text(text.replace(old, new, 1), encoding="utf-8")

    def _wallclock_lines(self, path: Path) -> list[int]:
        report = run_lint([path])
        assert {f.rule for f in report.findings} <= {"det-wallclock"}, report.format_text()
        return [f.line for f in report.findings]

    def test_wallclock_seed_in_engine_is_caught(self, shard):
        self._mutate(shard, "\nimport numpy as np\n", "\nimport time\n\nimport numpy as np\n")
        self._mutate(shard, "_LazyRngs(seed)", "_LazyRngs(time.time_ns())")
        (line,) = self._wallclock_lines(shard)
        assert "_LazyRngs(time.time_ns())" in shard.read_text().splitlines()[line - 1]

    def test_wallclock_in_deferred_credit_is_caught(self, shard):
        self._mutate(shard, "\nimport numpy as np\n", "\nimport time\n\nimport numpy as np\n")
        self._mutate(
            shard,
            "self._scatter(self._buffer, givers, rows, amounts, weight)",
            "self._scatter(self._buffer, givers, rows, amounts, weight * time.time())",
        )
        (line,) = self._wallclock_lines(shard)
        assert "weight * time.time()" in shard.read_text().splitlines()[line - 1]

    def test_unmutated_copy_is_clean(self, shard):
        report = run_lint(sorted(shard.parent.glob("*.py")))
        assert report.findings == [], report.format_text()
