"""reprolint rule registry.

Importing this package registers every rule; :func:`make_rules` builds
instances for a requested subset of codes.
"""

from __future__ import annotations

from repro.analysis.rules import (
    rep001_randomness,
    rep002_wallclock,
    rep003_config_dataclasses,
    rep004_bare_assert,
    rep005_lock_pairing,
    rep006_wal_discipline,
    rep007_lock_order,
    rep008_guarded_by,
    rep009_blocking_hold,
)
from repro.analysis.rules.base import REGISTRY, ProjectContext, ProjectRule, Rule

#: Importing a rule module registers its rule; this tuple keeps the
#: imports load-bearing (and is the one place listing all of them).
RULE_MODULES = (
    rep001_randomness,
    rep002_wallclock,
    rep003_config_dataclasses,
    rep004_bare_assert,
    rep005_lock_pairing,
    rep006_wal_discipline,
    rep007_lock_order,
    rep008_guarded_by,
    rep009_blocking_hold,
)


def all_rule_codes() -> tuple[str, ...]:
    """Every registered rule code, sorted."""
    return tuple(sorted(REGISTRY))


def make_rules(codes: tuple[str, ...] | list[str] | None = None) -> list[Rule]:
    """Instantiate the requested rules (all of them by default)."""
    selected = all_rule_codes() if codes is None else tuple(codes)
    unknown = [code for code in selected if code not in REGISTRY]
    if unknown:
        raise KeyError(
            f"unknown rule code(s) {', '.join(unknown)}; "
            f"known: {', '.join(all_rule_codes())}"
        )
    return [REGISTRY[code]() for code in selected]


__all__ = [
    "REGISTRY",
    "RULE_MODULES",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rule_codes",
    "make_rules",
]
