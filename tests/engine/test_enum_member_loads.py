"""No function on the statement path loads an enum member through its class.

On CPython 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so a load
such as ``LockMode.SHARED`` inside a function goes through the slow
attribute hook: ~190 ns against ~25 ns for a module global.  The engine's
statement path and the TPC-C executor bind the members they use to
module-level names once; this test keeps it that way.  It reads the
source, so it holds on every Python version, including those (3.12 on)
where the load is cheap.
"""

import ast
import enum
import importlib
import inspect

import pytest

MODULES = (
    "repro.engine.database",
    "repro.engine.locks",
    "repro.engine.wal",
    "repro.tpcc.executor",
)


def enum_members(module) -> dict[str, frozenset[str]]:
    """Member names of every ``enum.Enum`` subclass the module can name."""
    return {
        name: frozenset(value.__members__)
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, enum.Enum)
    }


def member_loads(source: str, members: dict[str, frozenset[str]]) -> list[str]:
    """``line: Class.MEMBER`` for each member loaded through its class in a function body.

    Module-level and class-level statements are the allowed place, and
    so are a function's default values (evaluated once, at definition).
    """
    found = set()
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, ast.Lambda):
            body = [function.body]
        elif isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = function.body
        else:
            continue
        for statement in body:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.attr in members.get(node.value.id, ())
                ):
                    found.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"{line}: {load}" for line, load in sorted(found)]


@pytest.mark.parametrize("name", MODULES)
def test_no_function_body_loads_an_enum_member_through_its_class(name):
    module = importlib.import_module(name)
    members = enum_members(module)
    assert members, f"{name} names no enum class: the check would see nothing"
    assert member_loads(inspect.getsource(module), members) == []


def test_the_check_sees_loads_in_methods_lambdas_and_nested_functions():
    source = """
import enum

class Mode(enum.Enum):
    A = 1
    B = 2

_A = Mode.A

class User:
    default = Mode.B

    def method(self, mode=Mode.A):
        if mode is _A:
            return Mode.B

def outer():
    def inner():
        return Mode.A.value
    return lambda: Mode.B, Mode.__members__, Mode.C
"""
    members = {"Mode": frozenset({"A", "B"})}
    assert member_loads(source, members) == ["15: Mode.B", "19: Mode.A", "20: Mode.B"]
