"""Project-specific static analysis (``reprolint``) and runtime sanitizers.

The paper's headline results — batch-means miss rates, the seeded
fault/recovery harness — are only trustworthy when every code path is
*replayable*: no unseeded randomness, no wall-clock reads in result
paths, no page mutated outside the WAL-before-data protocol.  This
package enforces those invariants mechanically:

* :mod:`repro.analysis.rules` — AST rules REP001..REP006, run by
  ``python -m repro lint`` (see :mod:`repro.analysis.runner`);
* :mod:`repro.analysis.sanitizer` — a runtime invariant monitor the
  test suite activates around every test (lock pairing, waits-for
  deadlock cycles, buffer-pool frame accounting).
"""

from repro.analysis.findings import Finding
from repro.analysis.runner import LintReport, lint_paths
from repro.analysis.rules import all_rule_codes, make_rules
from repro.analysis.sanitizer import InvariantSanitizer, SanitizerViolation

__all__ = [
    "Finding",
    "InvariantSanitizer",
    "LintReport",
    "SanitizerViolation",
    "all_rule_codes",
    "lint_paths",
    "make_rules",
]
