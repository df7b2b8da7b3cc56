"""A whole-project lock model for the concurrency lint rules.

:class:`ProjectIndex` parses every linted module once and builds the
three structures REP007–REP009 (and interprocedural REP005) share:

* a **call graph** over all functions/methods, resolved with a light
  type inference: ``self.X`` attributes typed by constructor calls and
  annotated ``__init__`` parameters, locals typed by constructor calls
  and annotated return types, plus a unique-name fallback for chains
  the types cannot reach;
* a **lock registry** (``self.X = threading.Lock()/RLock()/...``
  assignments) giving every mutex/latch a stable identity,
  :class:`LockKey` — ``(owning class, attribute name)``;
* per-function **lock events**: for every ``with lock:`` /
  ``lock.acquire()`` site, every call site, every blocking call and
  every ``self.attr`` write, the set of locks *lexically* held there.

Held sets propagate interprocedurally through two fixed points:
``may_entry`` (union over call sites — what *might* be held on entry;
drives the deadlock-order and blocking-call rules, which must not miss
a hazard) and ``must_entry`` (intersection over call sites — what is
*guaranteed* held on entry; drives the guarded-by rule, which must not
cry wolf when every caller takes the guard).

``@contextmanager`` functions are modeled by their *yield-held* set:
the locks lexically held at ``yield`` apply to the body of any
``with f():`` statement, with ``return wrapped_call()`` chasing so
``Transaction._statement`` resolves through ``Database.statement_scope``
to the statement latch.  A class used as ``with Scope(...):`` is modeled
the same way, its yield-held set being what its ``__enter__`` acquires.

The model is deliberately conservative where Python is dynamic: an
unresolvable call contributes nothing (no edge, no held locks), and a
function with no in-project callers is analyzed with an empty entry
set.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.analysis.concurrency.annotations import (
    guarded_fields_of_node,
    required_locks_of_node,
)
from repro.analysis.findings import ModuleSource
from repro.analysis.rules.base import attr_chain

#: Constructors whose result is a lock (last component of the call name).
_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Attribute names that *look* like locks (for receivers the type
#: inference cannot resolve, e.g. a local ``mutex`` variable).
_LOCKISH = re.compile(r"lock|mutex|latch")

#: Lockish-looking names that are not locks (``db.locks`` is the lock
#: *manager*, counters count deadlocks, ...).
_NOT_A_LOCK = frozenset(
    {"locks", "locked", "lock_timeout", "deadlock", "deadlocks", "unlock"}
)

#: Blocking call names (leading underscores stripped): a thread parks.
_BLOCKING_NAMES = frozenset({"sleep", "join", "wait"})

#: Queue operations that block, when the receiver looks like a queue.
_QUEUE_BLOCKING = frozenset({"get", "put"})
_QUEUE_HINTS = ("queue", "inbox", "mailbox")

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

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

#: Maximum ``return wrapped()`` hops when resolving a context manager.
_RETURN_CHASE_DEPTH = 3

#: Maximum whole-project rescans while @contextmanager yield-held sets
#: converge (nesting depth of ctxmgr-through-ctxmgr in practice is 2).
_SCAN_ROUNDS = 4


@dataclass(frozen=True)
class LockKey:
    """Identity of one lock: owning class (when known) + attribute name."""

    cls: str | None
    attr: str

    def render(self) -> str:
        return f"{self.cls}.{self.attr}" if self.cls else self.attr


def same_lock(a: LockKey, b: LockKey) -> bool:
    """Whether two keys may denote the same lock (unknown class matches)."""
    return a.attr == b.attr and (a.cls is None or b.cls is None or a.cls == b.cls)


def holds(held: Iterable[LockKey], key: LockKey) -> bool:
    return any(same_lock(entry, key) for entry in held)


def holds_attr(held: Iterable[LockKey], attr: str, owner: str | None) -> bool:
    """Whether a held set contains lock ``attr`` (of ``owner``, if known)."""
    return holds(held, LockKey(owner, attr))


@dataclass
class LockSite:
    """One lock acquisition (``with lock:`` or bare ``lock.acquire()``)."""

    key: LockKey
    node: ast.AST
    func: "FunctionInfo"
    held: tuple[LockKey, ...]


@dataclass
class BlockSite:
    """One blocking call (sleep/join/wait/queue op)."""

    label: str
    node: ast.AST
    func: "FunctionInfo"
    held: tuple[LockKey, ...]


@dataclass
class WriteSite:
    """One write to a ``self.<attr>`` field."""

    attr: str
    node: ast.AST
    func: "FunctionInfo"
    held: tuple[LockKey, ...]


@dataclass
class CallEdge:
    """One resolved call site: ``func`` calls ``callee`` holding ``held``."""

    callee: "FunctionInfo"
    node: ast.Call
    held: tuple[LockKey, ...]


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
        prefix = f"{parent.qual}." if parent else (f"{cls_name}." if cls_name else "")
        self.qual = f"{prefix}{node.name}"
        self.is_ctxmgr = any(
            _decorator_name(dec) == "contextmanager" for dec in node.decorator_list
        )
        self.is_property = any(
            _decorator_name(dec) in {"property", "cached_property"}
            for dec in node.decorator_list
        )
        self.returns_class = _annotation_name(node.returns)
        #: Raw attr names from ``# requires-lock:`` signature comments;
        #: resolved to LockKeys by :meth:`ProjectIndex.required_keys`.
        self.requires = required_locks_of_node(node, module.lines)
        self.local_types: dict[str, str] = {}
        self.children: dict[str, "FunctionInfo"] = {}
        # Per-scan results (rebuilt every scan round):
        self.lock_sites: list[LockSite] = []
        self.block_sites: list[BlockSite] = []
        self.write_sites: list[WriteSite] = []
        self.call_edges: list[CallEdge] = []
        self.yield_held: frozenset[LockKey] = frozenset()
        #: REP005 signals: lexical release/unpin calls anywhere in body.
        self.releases_lockish = False
        self.calls_unpin = False
        # Fixed-point results:
        self.callers: list[tuple["FunctionInfo", tuple[LockKey, ...]]] = []
        self.may_entry: frozenset[LockKey] = frozenset()
        self.must_entry: frozenset[LockKey] | None = None

    def reset_scan(self) -> None:
        self.lock_sites = []
        self.block_sites = []
        self.write_sites = []
        self.call_edges = []
        self.releases_lockish = False
        self.calls_unpin = False

    def must_entry_set(self) -> frozenset[LockKey]:
        return self.must_entry if self.must_entry is not None else frozenset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.module.path.name}:{self.qual}>"


class ClassInfo:
    """One class: its methods, lock attributes, typed attributes, guards."""

    def __init__(self, module: ModuleSource, node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        self.name = node.name
        self.methods: dict[str, FunctionInfo] = {}
        self.lock_attrs: set[str] = set()
        self.attr_types: dict[str, str] = {}
        self.guarded: dict[str, str] = guarded_fields_of_node(
            node, module.lines
        )


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


def _is_lockish_name(name: str) -> bool:
    lowered = name.lower()
    return bool(_LOCKISH.search(lowered)) and lowered not in _NOT_A_LOCK


def _chain_parts(node: ast.expr) -> list[str]:
    chain = attr_chain(node)
    return chain.split(".") if chain else []


class ProjectIndex:
    """The lock/call model of one lint run's worth of modules."""

    def __init__(self) -> None:
        self.modules: list[ModuleSource] = []
        self.classes: dict[str, ClassInfo] = {}
        self.functions: list[FunctionInfo] = []
        #: Bare function name -> every definition with that name.
        self.by_name: dict[str, list[FunctionInfo]] = {}
        #: Module path -> module-level function name -> definition.
        self.module_functions: dict[str, dict[str, FunctionInfo]] = {}
        #: Lock attribute name -> owning class names.
        self.lock_owners: dict[str, set[str]] = {}
        #: AST function node id -> FunctionInfo (for REP005).
        self.by_node: dict[int, FunctionInfo] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, modules: Sequence[ModuleSource]) -> "ProjectIndex":
        index = cls()
        index.modules = list(modules)
        for module in index.modules:
            index._index_module(module)
        index._infer_attr_types()
        for func in index.functions:
            index._infer_local_types(func)
        for _ in range(_SCAN_ROUNDS):
            if not index._scan_all():
                break
        index._fixed_points()
        return index

    def _index_module(self, module: ModuleSource) -> None:
        path = str(module.path)
        self.module_functions.setdefault(path, {})
        for stmt in module.tree.body:
            if isinstance(stmt, ast.ClassDef):
                info = ClassInfo(module, stmt)
                self.classes.setdefault(stmt.name, info)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = self._add_function(module, sub, stmt.name, None)
                        info.methods[sub.name] = method
                self._register_locks(info)
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
                # Nested functions are separate roots (a thread target's
                # caller holds nothing *in* the new thread); ``self`` in
                # a closure still refers to the enclosing class.
                if id(stmt) not in self.by_node and _encloses_directly(
                    node, stmt
                ):
                    self._add_function(module, stmt, cls_name, func)
        return func

    def _register_locks(self, info: ClassInfo) -> None:
        for method in info.node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(method):
                if not isinstance(stmt, ast.Assign):
                    continue
                if not isinstance(stmt.value, ast.Call):
                    continue
                factory = attr_chain(stmt.value.func).rsplit(".", 1)[-1]
                if factory not in _LOCK_FACTORIES:
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        info.lock_attrs.add(target.attr)
                        self.lock_owners.setdefault(target.attr, set()).add(
                            info.name
                        )

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
            if callee in self.classes:
                return callee
            return None
        if isinstance(value, ast.Name):
            annotated = params.get(value.id)
            if annotated in self.classes:
                return annotated
        return None

    def _infer_local_types(self, func: FunctionInfo) -> None:
        params = {
            arg.arg: _annotation_name(arg.annotation)
            for arg in list(func.node.args.args)
            + list(func.node.args.kwonlyargs)
        }
        for name, annotated in params.items():
            if annotated in self.classes:
                func.local_types[name] = str(annotated)
        # Two passes so a local typed by another local resolves.
        for _ in range(2):
            for stmt in ast.walk(func.node):
                if not isinstance(stmt, ast.Assign):
                    continue
                if len(stmt.targets) != 1 or not isinstance(
                    stmt.targets[0], ast.Name
                ):
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

    # -- resolution ----------------------------------------------------------

    def class_of(self, name: str | None) -> ClassInfo | None:
        return self.classes.get(name) if name else None

    def chain_owner(
        self, parts: list[str], func: FunctionInfo
    ) -> str | None:
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
            if part in info.lock_attrs:
                return None  # locks have no attributes we model
            current = info.attr_types.get(part)
            if current is None:
                return None
        return current

    def resolve_lock(
        self, node: ast.expr, func: FunctionInfo
    ) -> LockKey | None:
        """The lock a Name/Attribute chain denotes, if it denotes one."""
        parts = _chain_parts(node)
        if not parts:
            return None
        attr = parts[-1]
        if len(parts) == 1:
            if attr in func.local_types:
                return None  # a typed local is a component, not a lock
            return LockKey(None, attr) if _is_lockish_name(attr) else None
        owner = self.chain_owner(parts, func)
        if owner is not None:
            info = self.class_of(owner)
            if info is not None and attr in info.lock_attrs:
                return LockKey(owner, attr)
            return LockKey(owner, attr) if _is_lockish_name(attr) else None
        owners = self.lock_owners.get(attr)
        if owners is not None:
            if len(owners) == 1:
                return LockKey(next(iter(owners)), attr)
            return LockKey(None, attr)
        return LockKey(None, attr) if _is_lockish_name(attr) else None

    def required_keys(self, func: FunctionInfo) -> frozenset[LockKey]:
        """The LockKeys a function's requires-lock annotations denote.

        A name resolves like a guard: the function's own class when it
        owns a lock attribute by that name, otherwise the sole
        registering class project-wide, otherwise owner-unknown.
        """
        keys: set[LockKey] = set()
        own = self.class_of(func.cls_name)
        for name in func.requires:
            if own is not None and name in own.lock_attrs:
                keys.add(LockKey(own.name, name))
                continue
            owners = self.lock_owners.get(name)
            if owners is not None and len(owners) == 1:
                keys.add(LockKey(next(iter(owners)), name))
            else:
                keys.add(LockKey(None, name))
        return frozenset(keys)

    def resolve_call(
        self, call: ast.Call, func: FunctionInfo
    ) -> FunctionInfo | None:
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
        owner = self.chain_owner(parts, func)
        info = self.class_of(owner)
        if info is not None:
            method = info.methods.get(name)
            if method is not None:
                return method
            return None
        if name in self.classes:
            return self.classes[name].methods.get("__init__")
        return self._unique_by_name(name)

    def _unique_by_name(self, name: str) -> FunctionInfo | None:
        if len(name) < 4 or name in _COMMON_NAMES:
            return None
        candidates = self.by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def ctxmgr_held(
        self, expr: ast.expr, func: FunctionInfo
    ) -> frozenset[LockKey]:
        """Locks a ``with <call>():`` item holds in its body.

        Resolves the callee, chasing plain ``return wrapped_call()``
        wrappers, and returns the yield-held set of the eventual
        ``@contextmanager`` function (empty when unresolvable).
        """
        if not isinstance(expr, ast.Call):
            return frozenset()
        callee = self.resolve_call(expr, func)
        scope = func
        for _ in range(_RETURN_CHASE_DEPTH):
            if callee is None:
                return frozenset()
            if callee.name == "__init__" and callee.cls_name in self.classes:
                enter = self.classes[callee.cls_name].methods.get("__enter__")
                return enter.yield_held if enter is not None else frozenset()
            if callee.is_ctxmgr:
                return callee.yield_held
            returned = _sole_returned_call(callee.node)
            if returned is None:
                return frozenset()
            callee, scope = self.resolve_call(returned, callee), callee
        return frozenset()

    # -- scanning ------------------------------------------------------------

    def _scan_all(self) -> bool:
        """One scan round over every function; True if yield-held moved."""
        changed = False
        for func in self.functions:
            func.reset_scan()
            scanner = _Scanner(self, func)
            scanner.run()
            held = scanner.yield_held
            if func.name == "__enter__":
                held = frozenset(site.key for site in func.lock_sites)
            if held != func.yield_held:
                func.yield_held = held
                changed = True
        return changed

    # -- fixed points --------------------------------------------------------

    def _fixed_points(self) -> None:
        for func in self.functions:
            func.callers = []
        for func in self.functions:
            for edge in func.call_edges:
                edge.callee.callers.append((func, edge.held))
        # requires-lock annotations join both entry sets uncondition-
        # ally: inside the function the named lock is assumed held
        # (call sites owe the proof — see REP008's call-site check).
        required = {func: self.required_keys(func) for func in self.functions}
        # may_entry: union over call sites, least fixed point from the
        # required set.
        for func in self.functions:
            func.may_entry = required[func]
        for _ in range(len(self.functions) + 1):
            changed = False
            for func in self.functions:
                merged: set[LockKey] = set(required[func])
                for caller, held in func.callers:
                    merged.update(held)
                    merged.update(caller.may_entry)
                frozen = frozenset(merged)
                if frozen != func.may_entry:
                    func.may_entry = frozen
                    changed = True
            if not changed:
                break
        # must_entry: intersection over call sites, greatest fixed point
        # from "unknown" (None); rootless cycles stay None and are
        # treated as empty by must_entry_set().
        for func in self.functions:
            func.must_entry = required[func] if not func.callers else None
        for _ in range(len(self.functions) + 1):
            changed = False
            for func in self.functions:
                if not func.callers:
                    continue
                candidate: frozenset[LockKey] | None = None
                for caller, held in func.callers:
                    if caller.must_entry is None and caller.callers:
                        continue  # still unknown: identity of intersection
                    entry = caller.must_entry_set() | set(held)
                    candidate = (
                        entry if candidate is None else candidate & entry
                    )
                if candidate is not None:
                    candidate = candidate | required[func]
                    if candidate != func.must_entry:
                        func.must_entry = candidate
                        changed = True
            if not changed:
                break

    # -- rule-facing queries ---------------------------------------------------

    def lock_order_edges(
        self,
    ) -> list[tuple[LockKey, LockKey, LockSite]]:
        """Every (held, acquired, site) pair, self-edges (reentrancy) cut."""
        edges: list[tuple[LockKey, LockKey, LockSite]] = []
        for func in self.functions:
            for site in func.lock_sites:
                effective = set(site.held) | set(func.may_entry)
                for held in sorted(
                    effective, key=lambda key: (key.cls or "", key.attr)
                ):
                    if same_lock(held, site.key):
                        continue
                    edges.append((held, site.key, site))
        return edges

    def blocking_sites(self) -> Iterator[tuple[BlockSite, list[LockKey]]]:
        """Blocking calls with the locks that may be held around them."""
        for func in self.functions:
            for site in func.block_sites:
                effective = sorted(
                    set(site.held) | set(func.may_entry),
                    key=lambda key: (key.cls or "", key.attr),
                )
                if effective:
                    yield site, effective


def _encloses_directly(
    outer: ast.AST, inner: ast.AST
) -> bool:
    """Whether ``inner`` is nested in ``outer`` with no function between."""
    for node in ast.walk(outer):
        if node is outer:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is inner:
                return True
            continue
    return False


def _sole_returned_call(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> ast.Call | None:
    """The single returned call of a trivial wrapper, if that is all it is."""
    returns = [
        stmt
        for stmt in node.body
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        )
    ]
    if len(returns) == 1 and isinstance(returns[0], ast.Return):
        value = returns[0].value
        if isinstance(value, ast.Call):
            return value
    return None


class _Scanner:
    """One lexical pass over one function body, tracking held locks."""

    def __init__(self, index: ProjectIndex, func: FunctionInfo) -> None:
        self._index = index
        self._func = func
        self.yield_held: frozenset[LockKey] = frozenset()

    def run(self) -> None:
        self._block(self._func.node.body, [])

    # -- statements ----------------------------------------------------------

    def _block(self, stmts: Sequence[ast.stmt], held: list[LockKey]) -> None:
        scoped = list(held)
        for stmt in stmts:
            self._stmt(stmt, scoped)

    def _stmt(self, stmt: ast.stmt, held: list[LockKey]) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # separate scope (indexed on its own)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = list(held)
            for item in stmt.items:
                self._exprs(item.context_expr, inner)
                key = self._index.resolve_lock(item.context_expr, self._func)
                if key is not None:
                    self._func.lock_sites.append(
                        LockSite(key, item.context_expr, self._func, tuple(inner))
                    )
                    inner.append(key)
                inner.extend(
                    self._index.ctxmgr_held(item.context_expr, self._func)
                )
            self._block(stmt.body, inner)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._exprs(stmt.test, held)
            self._block(stmt.body, held)
            self._block(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exprs(stmt.iter, held)
            self._block(stmt.body, held)
            self._block(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._block(stmt.body, held)
            for handler in stmt.handlers:
                self._block(handler.body, held)
            self._block(stmt.orelse, held)
            self._block(stmt.finalbody, held)
            return
        self._record_writes(stmt, held)
        self._exprs(stmt, held)

    # -- expressions ---------------------------------------------------------

    def _exprs(self, root: ast.AST, held: list[LockKey]) -> None:
        """Record calls/yields in an expression tree; apply acquire tails."""
        for node in ast.walk(root):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self.yield_held = self.yield_held | frozenset(held)
            if not isinstance(node, ast.Call):
                continue
            if self._raw_lock_op(node, held):
                continue
            self._classify_call(node, held)

    def _raw_lock_op(self, call: ast.Call, held: list[LockKey]) -> bool:
        """Handle bare ``lock.acquire()`` / ``lock.release()`` (no args)."""
        if not isinstance(call.func, ast.Attribute):
            return False
        op = call.func.attr
        if op not in ("acquire", "release") or call.args or call.keywords:
            return False
        key = self._index.resolve_lock(call.func.value, self._func)
        if key is None:
            return False
        if op == "acquire":
            self._func.lock_sites.append(
                LockSite(key, call, self._func, tuple(held))
            )
            held.append(key)
        else:
            self._func.releases_lockish = True
            for i, entry in enumerate(held):
                if same_lock(entry, key):
                    del held[i]
                    break
        return True

    def _classify_call(self, call: ast.Call, held: list[LockKey]) -> None:
        parts = _chain_parts(call.func)
        if parts:
            name = parts[-1]
            if name in ("release", "release_all") and _is_lockish_receiver(
                parts[:-1]
            ):
                self._func.releases_lockish = True
            if name == "unpin":
                self._func.calls_unpin = True
            label = _blocking_label(parts)
            if label is not None:
                self._func.block_sites.append(
                    BlockSite(label, call, self._func, tuple(held))
                )
        callee = self._index.resolve_call(call, self._func)
        if callee is not None:
            self._func.call_edges.append(CallEdge(callee, call, tuple(held)))

    # -- writes ---------------------------------------------------------------

    def _record_writes(self, stmt: ast.stmt, held: list[LockKey]) -> None:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _MUTATORS
            ):
                attr = _self_attr_of(call.func.value)
                if attr is not None:
                    self._func.write_sites.append(
                        WriteSite(attr, call, self._func, tuple(held))
                    )
            return
        for target in targets:
            for element in _flatten_targets(target):
                attr = _self_attr_of(element)
                if attr is not None:
                    self._func.write_sites.append(
                        WriteSite(attr, element, self._func, tuple(held))
                    )


def _flatten_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    else:
        yield target


def _self_attr_of(node: ast.expr) -> str | None:
    """The first attribute after ``self`` in a write target/receiver.

    Handles ``self.x``, ``self.x[k]`` and ``self.x[k].y`` shapes; the
    tracked field is always the outermost ``self`` attribute.
    """
    current = node
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(current, ast.Attribute)
            and isinstance(current.value, ast.Name)
            and current.value.id == "self"
        ):
            return current.attr
        current = current.value
    return None


def _is_lockish_receiver(parts: list[str]) -> bool:
    return bool(parts) and (
        _is_lockish_name(parts[-1]) or parts[-1].lower() in ("locks", "mutex")
    )


def _blocking_label(parts: list[str]) -> str | None:
    name = parts[-1].lstrip("_")
    if name in _BLOCKING_NAMES and len(parts) > 1:
        return parts[-1]
    if name in _BLOCKING_NAMES and len(parts) == 1 and name != parts[-1]:
        return parts[-1]  # _sleep(...) style injected callables
    if (
        name in _QUEUE_BLOCKING
        and len(parts) >= 2
        and any(hint in parts[-2].lower() for hint in _QUEUE_HINTS)
    ):
        return ".".join(parts[-2:])
    return None


__all__ = [
    "BlockSite",
    "CallEdge",
    "ClassInfo",
    "FunctionInfo",
    "LockKey",
    "LockSite",
    "ProjectIndex",
    "WriteSite",
    "holds",
    "holds_attr",
    "same_lock",
]
