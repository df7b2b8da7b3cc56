"""Fixture-driven tests for the reprolint rules.

Each rule is run alone over a known-bad fixture (asserting the exact
set of flagged lines) and a known-good fixture (asserting silence).
"""

from pathlib import Path

import pytest

from repro.analysis.runner import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, code: str | None = None):
    return lint_paths([FIXTURES / name], codes=[code] if code else None)


def flagged_lines(report, rule: str) -> list[int]:
    return [finding.line for finding in report.findings if finding.rule == rule]


class TestRep001Randomness:
    def test_bad_locations(self):
        report = lint_fixture("rep001_bad.py", "REP001")
        assert flagged_lines(report, "REP001") == [9, 13, 17, 18, 22, 26]

    def test_good_is_clean(self):
        assert lint_fixture("rep001_good.py", "REP001").findings == []

    def test_messages_mention_seeding(self):
        report = lint_fixture("rep001_bad.py", "REP001")
        assert any("seed" in finding.message for finding in report.findings)


class TestRep002WallClock:
    def test_bad_locations(self):
        report = lint_fixture("rep002_bad.py", "REP002")
        assert flagged_lines(report, "REP002") == [10, 14, 18, 22, 26]

    def test_good_is_clean(self):
        assert lint_fixture("rep002_good.py", "REP002").findings == []

    def test_set_iteration_message(self):
        report = lint_fixture("rep002_bad.py", "REP002")
        last = report.findings[-1]
        assert last.line == 26 and "hash-dependent" in last.message


class TestRep003ConfigDataclasses:
    def test_bad_locations(self):
        report = lint_fixture("rep003_bad.py", "REP003")
        assert flagged_lines(report, "REP003") == [7, 7, 12]

    def test_bad_messages(self):
        report = lint_fixture("rep003_bad.py", "REP003")
        messages = [finding.message for finding in report.findings]
        assert sum("kw_only" in message for message in messages) == 1
        assert sum("replace()" in message for message in messages) == 2

    def test_good_is_clean(self):
        assert lint_fixture("rep003_good.py", "REP003").findings == []


class TestRep004BareAssert:
    def test_bad_locations(self):
        report = lint_fixture("rep004_bad.py", "REP004")
        assert flagged_lines(report, "REP004") == [5, 11]

    def test_good_is_clean(self):
        assert lint_fixture("rep004_good.py", "REP004").findings == []


class TestRep006WalDiscipline:
    def test_bad_locations(self):
        report = lint_fixture("rep006_bad.py", "REP006")
        assert flagged_lines(report, "REP006") == [5, 6, 11]

    def test_qualname_in_message(self):
        report = lint_fixture("rep006_bad.py", "REP006")
        assert any("Repairer.patch" in finding.message for finding in report.findings)

    def test_good_is_clean(self):
        assert lint_fixture("rep006_good.py", "REP006").findings == []


class TestSuppression:
    def test_all_findings_suppressed(self):
        report = lint_fixture("suppressed.py")
        assert report.findings == []
        assert report.suppressed == 3

    def test_suppression_is_per_rule(self):
        # The same fixture linted for a rule its comments never mention
        # must not be silenced by them.
        report = lint_fixture("rep006_good.py", "REP001")
        assert report.findings == [] and report.suppressed == 0


class TestRuleSelection:
    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError, match="REP999"):
            lint_fixture("rep001_bad.py", "REP999")

    def test_single_rule_only(self):
        report = lint_fixture("rep001_bad.py", "REP004")
        assert report.findings == []
        assert report.rules_run == ("REP004",)


class TestVectorizedSamplingIdiom:
    """REP001/REP002 on the batch-sampling idiom the generators use.

    The good fixture mirrors the repo's pattern — a seeded ``Generator``
    built once from config and threaded into every ``sample_array``-style
    call; the bad fixture is the same code with a module-level unseeded
    generator, a legacy global draw, and wall-clock timing."""

    def test_bad_randomness_locations(self):
        report = lint_fixture("rep_sampling_bad.py", "REP001")
        assert flagged_lines(report, "REP001") == [10, 19]

    def test_bad_clock_locations(self):
        report = lint_fixture("rep_sampling_bad.py", "REP002")
        assert flagged_lines(report, "REP002") == [23, 25]

    def test_good_is_clean_under_both_rules(self):
        assert lint_fixture("rep_sampling_good.py", "REP001").findings == []
        assert lint_fixture("rep_sampling_good.py", "REP002").findings == []
