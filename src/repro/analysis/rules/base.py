"""Rule base class, registry, and shared AST helpers."""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from typing import ClassVar, Iterator, Type

from repro.analysis.findings import Finding, ModuleSource

#: Every registered rule, keyed by code ("REP001", ...).
REGISTRY: dict[str, Type["Rule"]] = {}


def register(cls: Type["Rule"]) -> Type["Rule"]:
    """Class decorator adding a rule to the registry."""
    if not cls.code:
        raise ValueError(f"{cls.__name__} has no rule code")
    if cls.code in REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    REGISTRY[cls.code] = cls
    return cls


class Rule(ABC):
    """One reprolint check.

    Rules are stateless between files: :meth:`check` receives a parsed
    :class:`ModuleSource` and yields findings.  Suppression comments are
    applied by the runner, not by rules.
    """

    code: ClassVar[str] = ""
    summary: ClassVar[str] = ""

    @abstractmethod
    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield every violation found in one source file."""

    def finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        return module.finding(self.code, node, message)


# -- shared AST helpers --------------------------------------------------------

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scoped_walk(tree: ast.Module) -> Iterator[tuple[ast.AST, tuple[str, ...]]]:
    """Walk the tree yielding (node, enclosing class/function name stack).

    The stack excludes the node itself; a method body's statements see
    ``("ClassName", "method_name")``.
    """

    def visit(node: ast.AST, stack: tuple[str, ...]) -> Iterator[tuple[ast.AST, tuple[str, ...]]]:
        for child in ast.iter_child_nodes(node):
            yield child, stack
            if isinstance(child, _SCOPE_NODES):
                yield from visit(child, stack + (child.name,))
            else:
                yield from visit(child, stack)

    yield tree, ()
    yield from visit(tree, ())


def attr_chain(node: ast.AST) -> str:
    """Dotted source text of a Name/Attribute chain, or "" if neither.

    ``self._db.locks`` → ``"self._db.locks"``; anything containing a
    call or subscript yields "".
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(node: ast.Call) -> str:
    """Dotted name of the called target ("np.random.default_rng")."""
    return attr_chain(node.func)


def qualname(stack: tuple[str, ...]) -> str:
    """Dotted qualname of a scope stack ("" at module level)."""
    return ".".join(stack)


__all__ = [
    "REGISTRY",
    "Rule",
    "attr_chain",
    "call_name",
    "qualname",
    "register",
    "scoped_walk",
]
