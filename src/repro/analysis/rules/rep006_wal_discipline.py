"""REP006 — WAL-before-data: page/heap mutations only in audited call sites.

The recovery proof (docs/paper_notes.md §7) relies on every page
mutation being preceded by a WAL append.  Rather than prove that from
the AST, this rule inverts the burden: any call that mutates a page or
heap must come from a *whitelisted* qualname that has been manually
audited to append WAL records first (or to run during recovery, where
the log itself is the source).  New mutation sites fail the build until
audited and added to the whitelist.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterator

from repro.analysis.findings import Finding, ModuleSource
from repro.analysis.rules.base import Rule, attr_chain, qualname, register, scoped_walk

#: Mutating methods on Page objects, keyed by receiver suffix "page".
_PAGE_MUTATORS = frozenset({"insert", "update", "delete", "put", "clear"})

#: Mutating methods on HeapFile objects, keyed by receiver suffix "heap".
_HEAP_MUTATORS = frozenset(
    {"insert", "insert_at", "update", "delete", "restore", "apply_put", "apply_clear"}
)

#: Audited mutation sites: path suffix -> fnmatch patterns over qualnames.
#: HeapFile methods append WAL records via their caller (Table); Table
#: methods append before delegating; recovery applies the log itself.
#: BulkLoad writes the initial population, which the base backup taken
#: after loading covers instead of the log.
WAL_WHITELIST: dict[str, tuple[str, ...]] = {
    "repro/engine/heap.py": ("HeapFile.*",),
    "repro/engine/table.py": ("Table.*", "BulkLoad.*"),
    "repro/engine/database.py": ("Database._recover_locked", "Transaction._undo_all"),
}


def _receiver_kind(receiver: str) -> str | None:
    """"page", "heap", or None for an uninteresting receiver."""
    last = receiver.rsplit(".", 1)[-1].lower().lstrip("_")
    if last == "page" or last.endswith("_page"):
        return "page"
    if last == "heap" or last.endswith("_heap"):
        return "heap"
    return None


@register
class WalDisciplineRule(Rule):
    code = "REP006"
    summary = "page/heap mutations allowed only from WAL-audited qualnames"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        allowed = self._allowed_patterns(module)
        for node, stack in scoped_walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            receiver = attr_chain(node.func.value)
            if not receiver:
                continue
            kind = _receiver_kind(receiver)
            if kind is None:
                continue
            mutators = _PAGE_MUTATORS if kind == "page" else _HEAP_MUTATORS
            if node.func.attr not in mutators:
                continue
            site = qualname(stack) or "<module>"
            if any(fnmatch(site, pattern) for pattern in allowed):
                continue
            yield self.finding(
                module,
                node,
                f"{receiver}.{node.func.attr}() mutates a {kind} outside the "
                f"WAL-audited whitelist (site {site}); append a WAL record "
                "first, then add the qualname to rep006_wal_discipline",
            )

    @staticmethod
    def _allowed_patterns(module: ModuleSource) -> tuple[str, ...]:
        path = module.path.as_posix()
        for suffix, patterns in WAL_WHITELIST.items():
            if path.endswith(suffix):
                return patterns
        return ()


__all__ = ["WalDisciplineRule"]
