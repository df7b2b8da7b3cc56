"""Tests for the reprolint driver and the ``python -m repro lint`` CLI."""

import json
from pathlib import Path

from repro.analysis.runner import (
    RULE_WHITELIST,
    default_target,
    is_whitelisted,
    lint_paths,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


class TestSelfLint:
    def test_shipped_tree_is_clean(self):
        """Acceptance: zero findings and zero suppressions on src/repro."""
        report = lint_paths()
        assert report.parse_errors == []
        assert report.findings == []
        assert report.suppressed == 0
        assert report.files_checked > 50

    def test_default_target_is_repro_package(self):
        assert default_target().name == "repro"
        assert (default_target() / "cli.py").is_file()


class TestRuleWhitelist:
    def test_clock_seam_is_the_only_rep002_exemption(self):
        assert RULE_WHITELIST == {"REP002": ("repro/obs/clock.py",)}

    def test_suffix_matching(self):
        assert is_whitelisted("REP002", Path("/x/src/repro/obs/clock.py"))
        assert not is_whitelisted("REP002", Path("/x/src/repro/obs/metrics.py"))
        assert not is_whitelisted("REP004", Path("/x/src/repro/obs/clock.py"))

    def test_whitelisted_file_lints_clean_under_rep002(self):
        clock = default_target() / "obs" / "clock.py"
        report = lint_paths([clock], codes=["REP002"])
        assert report.findings == []
        assert report.files_checked == 1

    def test_wall_clock_elsewhere_still_flagged(self, tmp_path):
        offender = tmp_path / "not_clock.py"
        offender.write_text("import time\nnow = time.time()\n")
        report = lint_paths([offender], codes=["REP002"])
        assert [finding.rule for finding in report.findings] == ["REP002"]


class TestReport:
    def test_findings_sorted_by_location(self):
        report = lint_paths([FIXTURES])
        keys = [finding.sort_key() for finding in report.findings]
        assert keys == sorted(keys)

    def test_exit_codes(self, tmp_path):
        assert lint_paths([FIXTURES / "rep001_good.py"]).exit_code == 0
        assert lint_paths([FIXTURES / "rep001_bad.py"]).exit_code == 1
        broken = tmp_path / "broken.py"
        broken.write_text("def half(:\n")
        report = lint_paths([broken])
        assert report.exit_code == 2
        assert report.parse_errors

    def test_as_dict_shape(self):
        payload = lint_paths([FIXTURES / "rep004_bad.py"]).as_dict()
        assert set(payload) == {
            "files_checked", "rules", "suppressed", "parse_errors", "findings",
        }
        finding = payload["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message"}

    def test_skips_pycache(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "stale.py").write_text("import random\nrandom.random()\n")
        assert lint_paths([tmp_path]).files_checked == 0


class TestCli:
    def test_lint_clean_exit_zero(self, capsys):
        code = main(["lint", str(FIXTURES / "rep001_good.py")])
        assert code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_findings_exit_one(self, capsys):
        code = main(["lint", str(FIXTURES / "rep001_bad.py")])
        assert code == 1
        assert "REP001" in capsys.readouterr().out

    def test_json_format(self, capsys):
        code = main(["lint", "--format", "json", str(FIXTURES / "rep004_bad.py")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == [
            "REP001", "REP002", "REP003", "REP004", "REP006",
        ]
        assert {finding["rule"] for finding in payload["findings"]} == {"REP004"}

    def test_rules_subset(self, capsys):
        code = main(["lint", "--rules", "REP004", str(FIXTURES / "rep001_bad.py")])
        assert code == 0
        assert "[REP004]" in capsys.readouterr().out

    def test_unknown_rule_exit_two(self, capsys):
        code = main(["lint", "--rules", "REP042", str(FIXTURES)])
        assert code == 2
        assert "REP042" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        # Exactly these codes: no retired rule may be listed.
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == ["REP001", "REP002", "REP003", "REP004", "REP006"]
