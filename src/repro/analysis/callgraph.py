"""The project call graph behind REP005's reach check.

:class:`ProjectIndex` parses every linted module once and resolves
calls between functions with a light type inference: ``self.X``
attributes typed by constructor calls and annotated ``__init__``
parameters, locals typed by constructor calls and annotated return
types, plus a unique-name fallback for chains the types cannot reach.
Each :class:`FunctionInfo` records its resolved callees and the two
lexical facts REP005 asks about: whether it calls ``release`` /
``release_all`` on something lock-like, and whether it calls
``unpin``.

The model is deliberately conservative where Python is dynamic: an
unresolvable call contributes no edge.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Sequence

from repro.analysis.findings import ModuleSource
from repro.analysis.rules.base import attr_chain

#: Receivers that look like a lock or a lock manager (last component).
_LOCKISH = re.compile(r"lock|mutex|latch")

_RELEASE_NAMES = frozenset({"release", "release_all"})

#: Names too common for the unique-name call-resolution fallback.
_COMMON_NAMES = frozenset(
    {
        "add",
        "append",
        "check",
        "clear",
        "close",
        "copy",
        "dec",
        "get",
        "inc",
        "items",
        "join",
        "keys",
        "merge",
        "observe",
        "pop",
        "put",
        "read",
        "remove",
        "run",
        "set",
        "sort",
        "update",
        "values",
        "wait",
        "write",
    }
)

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class FunctionInfo:
    """One function/method (including nested functions) in the project."""

    def __init__(
        self,
        module: ModuleSource,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_name: str | None,
        parent: "FunctionInfo | None" = None,
    ) -> None:
        self.module = module
        self.node = node
        self.cls_name = cls_name
        self.parent = parent
        self.name = node.name
        self.is_property = any(
            _decorator_name(dec) in {"property", "cached_property"}
            for dec in node.decorator_list
        )
        self.returns_class = _annotation_name(node.returns)
        self.local_types: dict[str, str] = {}
        self.children: dict[str, "FunctionInfo"] = {}
        #: Resolved call targets, in source order.
        self.callees: list["FunctionInfo"] = []
        #: A lexical ``<lockish>.release*()`` call in the body.
        self.releases_lockish = False
        #: A lexical ``.unpin()`` call in the body.
        self.calls_unpin = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.module.path.name}:{self.name}>"


class ClassInfo:
    """One class: its methods and the types of its ``self`` attributes."""

    def __init__(self, node: ast.ClassDef) -> None:
        self.name = node.name
        self.methods: dict[str, FunctionInfo] = {}
        self.attr_types: dict[str, str] = {}


def _decorator_name(dec: ast.expr) -> str:
    chain = attr_chain(dec)
    return chain.rsplit(".", 1)[-1] if chain else ""


def _annotation_name(annotation: ast.expr | None) -> str | None:
    """The plain class name an annotation denotes, if it is that simple."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        name = annotation.value.strip()
        return name if name.isidentifier() else None
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    return None


def _chain_parts(node: ast.expr) -> list[str]:
    chain = attr_chain(node)
    return chain.split(".") if chain else []


def _body_walk(func: ast.AST) -> Iterator[ast.AST]:
    """Every node of a function body, without nested function/class scopes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class ProjectIndex:
    """The call graph of one lint run's worth of modules."""

    def __init__(self) -> None:
        self.classes: dict[str, ClassInfo] = {}
        self.functions: list[FunctionInfo] = []
        #: Bare function name -> every definition with that name.
        self.by_name: dict[str, list[FunctionInfo]] = {}
        #: Module path -> module-level function name -> definition.
        self.module_functions: dict[str, dict[str, FunctionInfo]] = {}
        #: AST function node id -> FunctionInfo.
        self.by_node: dict[int, FunctionInfo] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, modules: Sequence[ModuleSource]) -> "ProjectIndex":
        index = cls()
        for module in modules:
            index._index_module(module)
        index._infer_attr_types()
        for func in index.functions:
            index._infer_local_types(func)
        for func in index.functions:
            index._scan(func)
        return index

    def _index_module(self, module: ModuleSource) -> None:
        path = str(module.path)
        self.module_functions.setdefault(path, {})
        for stmt in module.tree.body:
            if isinstance(stmt, ast.ClassDef):
                info = ClassInfo(stmt)
                self.classes.setdefault(stmt.name, info)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info.methods[sub.name] = self._add_function(
                            module, sub, stmt.name, None
                        )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = self._add_function(module, stmt, None, None)
                self.module_functions[path][stmt.name] = func

    def _add_function(
        self,
        module: ModuleSource,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_name: str | None,
        parent: FunctionInfo | None,
    ) -> FunctionInfo:
        func = FunctionInfo(module, node, cls_name, parent)
        self.functions.append(func)
        self.by_name.setdefault(node.name, []).append(func)
        self.by_node[id(node)] = func
        if parent is not None:
            parent.children[node.name] = func
        for stmt in ast.walk(node):
            if stmt is node:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested functions are separate functions; ``self`` in a
                # closure still refers to the enclosing class.
                if id(stmt) not in self.by_node and _encloses_directly(node, stmt):
                    self._add_function(module, stmt, cls_name, func)
        return func

    def _infer_attr_types(self) -> None:
        """Type ``self.X`` attributes from constructors and annotations."""
        for info in self.classes.values():
            for method in info.methods.values():
                params = {
                    arg.arg: _annotation_name(arg.annotation)
                    for arg in method.node.args.args
                }
                for stmt in ast.walk(method.node):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    inferred = self._value_class(stmt.value, params)
                    if inferred is None:
                        continue
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            info.attr_types.setdefault(target.attr, inferred)
            for name, method in info.methods.items():
                if method.is_property and method.returns_class in self.classes:
                    info.attr_types.setdefault(name, str(method.returns_class))

    def _value_class(
        self, value: ast.expr, params: dict[str, str | None]
    ) -> str | None:
        """The class an assigned value is known to be an instance of."""
        if isinstance(value, ast.Call):
            callee = attr_chain(value.func).rsplit(".", 1)[-1]
            return callee if callee in self.classes else None
        if isinstance(value, ast.Name):
            annotated = params.get(value.id)
            if annotated in self.classes:
                return annotated
        return None

    def _infer_local_types(self, func: FunctionInfo) -> None:
        params = {
            arg.arg: _annotation_name(arg.annotation)
            for arg in list(func.node.args.args) + list(func.node.args.kwonlyargs)
        }
        for name, annotated in params.items():
            if annotated in self.classes:
                func.local_types[name] = str(annotated)
        # Two passes so a local typed by another local resolves.
        for _ in range(2):
            for stmt in ast.walk(func.node):
                if not isinstance(stmt, ast.Assign):
                    continue
                if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
                    continue
                inferred = self._expr_class(stmt.value, func)
                if inferred is not None:
                    func.local_types.setdefault(stmt.targets[0].id, inferred)

    def _expr_class(self, value: ast.expr, func: FunctionInfo) -> str | None:
        """Type of an expression in a function scope, where inferable."""
        if isinstance(value, ast.Call):
            callee_name = attr_chain(value.func).rsplit(".", 1)[-1]
            if callee_name in self.classes:
                return callee_name
            callee = self.resolve_call(value, func)
            if callee is not None and callee.returns_class in self.classes:
                return str(callee.returns_class)
            return None
        parts = _chain_parts(value)
        if parts:
            return self.chain_owner(parts + ["_"], func)
        return None

    def _scan(self, func: FunctionInfo) -> None:
        """Record the calls of one function body."""
        for node in _body_walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            parts = _chain_parts(node.func)
            if len(parts) >= 2:
                name = parts[-1]
                if name in _RELEASE_NAMES and _LOCKISH.search(parts[-2].lower()):
                    func.releases_lockish = True
                if name == "unpin":
                    func.calls_unpin = True
            callee = self.resolve_call(node, func)
            if callee is not None:
                func.callees.append(callee)

    # -- resolution ----------------------------------------------------------

    def class_of(self, name: str | None) -> ClassInfo | None:
        return self.classes.get(name) if name else None

    def chain_owner(self, parts: list[str], func: FunctionInfo) -> str | None:
        """Class owning the *last* attribute of a dotted chain, if known.

        ``parts`` includes the final attribute; ``['self', '_db',
        'locks', 'acquire']`` resolves ``self._db`` to Database, then
        ``locks`` to LockManager — the owner of ``acquire``.
        """
        if len(parts) < 2:
            return None
        base = parts[0]
        if base in ("self", "cls") and func.cls_name is not None:
            current: str | None = func.cls_name
        elif base in func.local_types:
            current = func.local_types[base]
        elif base in self.classes:
            current = base
        else:
            return None
        for part in parts[1:-1]:
            info = self.class_of(current)
            if info is None:
                return None
            current = info.attr_types.get(part)
            if current is None:
                return None
        return current

    def resolve_call(self, call: ast.Call, func: FunctionInfo) -> FunctionInfo | None:
        """The project function a call resolves to, if unambiguous."""
        parts = _chain_parts(call.func)
        if not parts:
            return None
        name = parts[-1]
        if len(parts) == 1:
            # Bare name: nested sibling, then module-level, then class.
            scope: FunctionInfo | None = func
            while scope is not None:
                child = scope.children.get(name)
                if child is not None:
                    return child
                scope = scope.parent
            module_funcs = self.module_functions.get(str(func.module.path), {})
            if name in module_funcs:
                return module_funcs[name]
            if name in self.classes:
                return self.classes[name].methods.get("__init__")
            return self._unique_by_name(name)
        info = self.class_of(self.chain_owner(parts, func))
        if info is not None:
            return info.methods.get(name)
        if name in self.classes:
            return self.classes[name].methods.get("__init__")
        return self._unique_by_name(name)

    def _unique_by_name(self, name: str) -> FunctionInfo | None:
        if len(name) < 4 or name in _COMMON_NAMES:
            return None
        candidates = self.by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None


def _encloses_directly(outer: ast.AST, inner: ast.AST) -> bool:
    """Whether ``inner`` is nested in ``outer`` with no function between."""
    for node in ast.walk(outer):
        if node is outer:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is inner:
                return True
            continue
    return False


__all__ = ["ClassInfo", "FunctionInfo", "ProjectIndex"]
