"""Suppression semantics: one rule, one line; unknown ids are findings;
the JSON report round-trips losslessly."""

from __future__ import annotations

from pathlib import Path

from repro.lint import LintReport, run_lint

FIXTURE = (
    Path(__file__).parent / "fixtures" / "src" / "repro" / "core" / "suppressed.py"
)


def report():
    return run_lint([FIXTURE])


class TestSuppressionSemantics:
    def test_allow_silences_exactly_that_rule_on_that_line(self):
        got = [(f.line, f.rule) for f in report().findings]
        # line 7: det-unseeded-rng allowed -> silent.
        assert (7, "det-unseeded-rng") not in got

    def test_unsuppressed_duplicate_still_fires(self):
        got = [(f.line, f.rule) for f in report().findings]
        # line 11: same violation, but the allow names a bogus rule.
        assert (11, "det-unseeded-rng") in got

    def test_unknown_rule_id_is_itself_a_finding(self):
        findings = report().findings
        supp = [f for f in findings if f.rule == "lint-suppression"]
        assert [(f.line) for f in supp] == [11]
        assert "no-such-rule" in supp[0].message

    def test_allow_does_not_bleed_to_other_rules_on_same_line(self):
        got = [(f.line, f.rule) for f in report().findings]
        # line 17 has two violations and one allow: the unseeded rng is
        # silenced, the divide-before-multiply is not.
        assert (17, "det-unseeded-rng") not in got
        assert (17, "float-div-before-mul") in got

    def test_allow_inside_string_literal_is_inert(self):
        # The engine reads comments via tokenize: the string on line 21
        # mentions the allow syntax but suppresses nothing and is not an
        # unknown-suppression finding either.
        assert all(f.line != 21 for f in report().findings)


class TestJsonRoundTrip:
    def test_report_round_trips_through_json(self):
        first = report()
        clone = LintReport.from_json(first.to_json())
        assert clone.findings == first.findings
        assert clone.files_checked == first.files_checked
        assert sorted(clone.rules_run) == sorted(first.rules_run)
        assert clone.counts_by_rule == first.counts_by_rule

    def test_json_shape_is_stable(self):
        blob = report().to_dict()
        assert blob["version"] == 1
        assert {"rule", "path", "line", "col", "message"} == set(
            blob["findings"][0]
        )
        assert blob["counts_by_rule"]["lint-suppression"] == 1
