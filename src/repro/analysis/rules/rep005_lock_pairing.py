"""REP005 — lock acquire/release and buffer pin/unpin pairing.

AST-level (the runtime sanitizer does the precise dynamic check):

* a class (or module-level function soup) that calls
  ``<lockish>.acquire(...)`` must — somewhere it can *reach* — call
  ``<lockish>.release(...)`` or ``<lockish>.release_all(...)``: a
  component that only ever takes locks leaks them by construction;
* a function that calls ``<anything>.pin(...)`` must reach ``.unpin``
  from the same function — pins are frame-local by contract.

"Reach" is the fix for the old per-scope blind spot: releases (and
unpins) that live in helper functions now count, via the transitive
call graph of :class:`~repro.analysis.callgraph.ProjectIndex`, so
delegating cleanup to a helper no longer trips the rule.  A scope that
neither contains nor can reach a release is still flagged.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.analysis.findings import Finding, ModuleSource
from repro.analysis.rules.base import ProjectRule, attr_chain, register

if TYPE_CHECKING:
    from repro.analysis.callgraph import FunctionInfo

_RELEASE_NAMES = frozenset({"release", "release_all"})


def _is_lockish(receiver: str) -> bool:
    """Does the receiver chain look like a lock manager? (``self._db.locks``)"""
    last = receiver.rsplit(".", 1)[-1].lower()
    return "lock" in last


@register
class LockPairingRule(ProjectRule):
    code = "REP005"
    summary = "lock acquire needs a reachable release; pin needs a reachable unpin"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        yield from self._check_lock_pairing(module)
        yield from self._check_pin_pairing(module)

    # -- locks: paired at class granularity -----------------------------------

    def _check_lock_pairing(self, module: ModuleSource) -> Iterator[Finding]:
        groups = [module.tree] + [
            node for node in ast.walk(module.tree) if isinstance(node, ast.ClassDef)
        ]
        class_bodies = groups[1:]
        for group in groups:
            exclude = class_bodies if group is module.tree else ()
            acquires: list[ast.Call] = []
            releases = 0
            for node in _group_walk(group, exclude=exclude):
                if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                    continue
                receiver = attr_chain(node.func.value)
                if not receiver or not _is_lockish(receiver):
                    continue
                if node.func.attr == "acquire":
                    acquires.append(node)
                elif node.func.attr in _RELEASE_NAMES:
                    releases += 1
            if acquires and not releases:
                if self._reaches_release(self._group_functions(group, exclude)):
                    continue
                where = group.name if isinstance(group, ast.ClassDef) else "module"
                for call in acquires:
                    yield self.finding(
                        module,
                        call,
                        f"lock acquired but {where} never calls (or reaches) "
                        "release/release_all on a lock manager",
                    )

    def _group_functions(
        self, group: ast.AST, exclude: Iterable[ast.AST]
    ) -> list["FunctionInfo"]:
        index = self.project.index
        return [
            info
            for node in _group_walk(group, exclude=tuple(exclude))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (info := index.by_node.get(id(node))) is not None
        ]

    def _reaches_release(self, roots: list["FunctionInfo"]) -> bool:
        return _reaches(roots, lambda func: func.releases_lockish)

    # -- pins: paired per function ---------------------------------------------

    def _check_pin_pairing(self, module: ModuleSource) -> Iterator[Finding]:
        index = self.project.index
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            pins: list[ast.Call] = []
            unpins = 0
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call) or not isinstance(
                    inner.func, ast.Attribute
                ):
                    continue
                if inner.func.attr == "pin":
                    pins.append(inner)
                elif inner.func.attr == "unpin":
                    unpins += 1
            if pins and not unpins:
                info = index.by_node.get(id(node))
                if info is not None and _reaches(
                    [info], lambda func: func.calls_unpin
                ):
                    continue
                for call in pins:
                    yield self.finding(
                        module,
                        call,
                        f"page pinned but {node.name}() never unpins (nor calls "
                        "a helper that does); pins are function-local by contract",
                    )


def _reaches(
    roots: "list[FunctionInfo]",
    predicate: "Callable[[FunctionInfo], bool]",
) -> bool:
    """Whether any transitive callee of the roots satisfies the predicate."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        func = stack.pop()
        if id(func) in seen:
            continue
        seen.add(id(func))
        if predicate(func):
            return True
        stack.extend(func.callees)
    return False


def _group_walk(group: ast.AST, exclude: tuple[ast.AST, ...] | list[ast.AST] = ()) -> Iterator[ast.AST]:
    """Walk a scope group, skipping nested class bodies when asked.

    Module-level pairing must not see class-body calls (those pair
    within their class), so the module group excludes every ClassDef.
    """
    excluded = set(map(id, exclude))
    stack = [group]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if id(child) in excluded:
                continue
            stack.append(child)


__all__ = ["LockPairingRule"]
