"""Project-specific static analysis (``reprolint``) and runtime sanitizers.

The paper's headline results — batch-means miss rates, the seeded
fault/recovery harness — are only trustworthy when every code path is
*replayable*: no unseeded randomness, no wall-clock reads in result
paths, no page mutated outside the WAL-before-data protocol.  This
package enforces those invariants mechanically:

* :mod:`repro.analysis.rules` — per-file AST rules, run by
  ``python -m repro lint`` (see :mod:`repro.analysis.runner`);
* :mod:`repro.analysis.sanitizer` — a runtime invariant monitor the
  test suite activates around every test, and the one check of lock
  pairing (also waits-for deadlock cycles and buffer-pool frame
  accounting).
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.analysis.findings import Finding as Finding
    from repro.analysis.rules import all_rule_codes as all_rule_codes
    from repro.analysis.rules import make_rules as make_rules
    from repro.analysis.runner import LintReport as LintReport
    from repro.analysis.runner import lint_paths as lint_paths
    from repro.analysis.sanitizer import InvariantSanitizer as InvariantSanitizer
    from repro.analysis.sanitizer import SanitizerViolation as SanitizerViolation

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "Finding": "repro.analysis.findings",
        "all_rule_codes": "repro.analysis.rules",
        "make_rules": "repro.analysis.rules",
        "LintReport": "repro.analysis.runner",
        "lint_paths": "repro.analysis.runner",
        "InvariantSanitizer": "repro.analysis.sanitizer",
        "SanitizerViolation": "repro.analysis.sanitizer",
    },
)
