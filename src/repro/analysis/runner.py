"""reprolint driver: walk source trees, run rules, report.

Exit codes: 0 clean, 1 findings, 2 usage/parse errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import repro
from repro.analysis.findings import Finding, ModuleSource
from repro.analysis.rules import all_rule_codes, make_rules

#: Directories never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".pytest_cache", "build", "dist"})

#: Per-rule path whitelist: rule code -> path suffixes the rule does not
#: apply to.  ``repro/obs/clock.py`` is the single sanctioned wall-clock
#: seam (everything else must stay deterministic), so REP002 exempts it
#: — and only it.
RULE_WHITELIST: dict[str, tuple[str, ...]] = {
    "REP002": ("repro/obs/clock.py",),
}


def is_whitelisted(rule_code: str, path: Path) -> bool:
    """Whether a file is exempt from a rule via :data:`RULE_WHITELIST`."""
    suffixes = RULE_WHITELIST.get(rule_code, ())
    posix = path.as_posix()
    return any(posix.endswith(suffix) for suffix in suffixes)


def default_target() -> Path:
    """The installed ``repro`` package directory (the tree we lint)."""
    return Path(repro.__file__).resolve().parent


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield .py files under the given files/directories, sorted."""
    seen: set[Path] = set()
    for root in paths:
        root = root.resolve()
        if root.is_file():
            candidates: Iterable[Path] = [root]
        else:
            candidates = sorted(root.rglob("*.py"))
        for path in candidates:
            if any(part in _SKIP_DIRS for part in path.parts):
                continue
            if path not in seen:
                seen.add(path)
                yield path


@dataclass(kw_only=True)
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: tuple[str, ...] = ()
    suppressed: int = 0
    parse_errors: list[str] = field(default_factory=list)
    #: The findings silenced by inline suppressions (``len`` ==
    #: :attr:`suppressed`) — surfaced by ``lint --show-suppressed`` so
    #: CI can track the suppression count instead of letting it creep.
    suppressed_findings: list[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.parse_errors:
            return 2
        return 1 if self.findings else 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "files_checked": self.files_checked,
            "rules": list(self.rules_run),
            "suppressed": self.suppressed,
            "parse_errors": list(self.parse_errors),
            "findings": [finding.as_dict() for finding in self.findings],
        }

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.extend(f"error: {message}" for message in self.parse_errors)
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"reprolint: {len(self.findings)} {noun} "
            f"({self.suppressed} suppressed) in {self.files_checked} files "
            f"[{', '.join(self.rules_run)}]"
        )
        return "\n".join(lines)

    def render_suppressed(self) -> str:
        """One line per surviving suppression, plus a count."""
        lines = [finding.render() for finding in self.suppressed_findings]
        noun = "suppression" if self.suppressed == 1 else "suppressions"
        lines.append(f"reprolint: {self.suppressed} surviving {noun}")
        return "\n".join(lines)


def lint_paths(
    paths: Sequence[str | Path] | None = None,
    *,
    codes: Sequence[str] | None = None,
) -> LintReport:
    """Run the selected rules over the given paths (repro package by default).

    One file at a time: parse it, run every rule on it, drop it.
    """
    targets = [Path(p) for p in paths] if paths else [default_target()]
    rules = make_rules(tuple(codes) if codes is not None else None)
    report = LintReport(rules_run=tuple(rule.code for rule in rules))
    for path in iter_python_files(targets):
        try:
            module = ModuleSource(path)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            report.parse_errors.append(f"{path}: {exc}")
            continue
        report.files_checked += 1
        for rule in rules:
            if is_whitelisted(rule.code, module.path):
                continue
            for finding in rule.check(module):
                if module.is_suppressed(finding):
                    report.suppressed += 1
                    report.suppressed_findings.append(finding)
                else:
                    report.findings.append(finding)
    report.findings.sort(key=Finding.sort_key)
    report.suppressed_findings.sort(key=Finding.sort_key)
    return report


def describe_rules() -> list[tuple[str, str]]:
    """(code, summary) for every registered rule, for ``lint --list-rules``."""
    from repro.analysis.rules import REGISTRY

    return [(code, REGISTRY[code].summary) for code in all_rule_codes()]


__all__ = [
    "LintReport",
    "RULE_WHITELIST",
    "default_target",
    "describe_rules",
    "is_whitelisted",
    "iter_python_files",
    "lint_paths",
]
