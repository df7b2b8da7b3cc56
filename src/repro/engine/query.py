"""A Volcano-style query executor over engine tables.

The paper costs the Stock-Level transaction's equi-join as one 2040K-
instruction unit (a 200-tuple range scan, an indexed select per tuple
and a final sort/distinct).  This module makes that plan *executable*:
classic iterator operators — sequential scan, index scan, filter,
projection, index-nested-loop join, sort, distinct, aggregation and
limit — composed into trees, with per-operator row counters so a plan's
work can be compared against the cost model's assumptions.

Rows flow as plain dicts.  Operators are single-use iterators; build a
fresh tree per execution (they are cheap).  The module is deliberately
minimal: no optimizer, no expressions beyond Python callables — a
substrate for executing and costing the paper's queries, not a SQL
engine.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterator

from repro.engine.table import Table

Row = dict
Predicate = Callable[[Row], bool]


class Operator(ABC):
    """Base iterator operator; iterate to pull rows."""

    def __init__(self) -> None:
        self.rows_produced = 0

    def __iter__(self) -> Iterator[Row]:
        for row in self._rows():
            self.rows_produced += 1
            yield row

    @abstractmethod
    def _rows(self) -> Iterator[Row]:
        """Produce output rows."""

    @abstractmethod
    def explain(self) -> str:
        """One-line description (children indented by callers)."""

    def explain_tree(self, indent: int = 0) -> str:
        """Multi-line plan description with row counters."""
        line = "  " * indent + f"{self.explain()}  [rows={self.rows_produced}]"
        children = "".join(
            "\n" + child.explain_tree(indent + 1) for child in self._children()
        )
        return line + children

    def _children(self) -> tuple["Operator", ...]:
        return ()


class SeqScan(Operator):
    """Full scan of a table in heap order."""

    def __init__(self, table: Table):
        super().__init__()
        self._table = table

    def _rows(self) -> Iterator[Row]:
        for _, row in self._table.scan():
            yield row

    def explain(self) -> str:
        return f"SeqScan({self._table.name})"


class IndexScan(Operator):
    """Ordered range scan over a B+-tree index."""

    def __init__(
        self,
        table: Table,
        index: str,
        low: tuple | None = None,
        high: tuple | None = None,
    ):
        super().__init__()
        self._table = table
        self._index = index
        self._low = low
        self._high = high

    def _rows(self) -> Iterator[Row]:
        for _, rid in self._table.btree_range(self._index, self._low, self._high):
            yield self._table.read(rid)

    def explain(self) -> str:
        return (
            f"IndexScan({self._table.name}.{self._index}, "
            f"low={self._low}, high={self._high})"
        )


class IndexLookup(Operator):
    """Equality probe on any index (hash or B+-tree prefix)."""

    def __init__(self, table: Table, index: str, key: tuple):
        super().__init__()
        self._table = table
        self._index = index
        self._key = key

    def _rows(self) -> Iterator[Row]:
        for rid in self._table.lookup(self._index, self._key):
            yield self._table.read(rid)

    def explain(self) -> str:
        return f"IndexLookup({self._table.name}.{self._index}, key={self._key})"


class Filter(Operator):
    """Rows of the child satisfying a predicate."""

    def __init__(self, child: Operator, predicate: Predicate):
        super().__init__()
        self._child = child
        self._predicate = predicate

    def _rows(self) -> Iterator[Row]:
        for row in self._child:
            if self._predicate(row):
                yield row

    def explain(self) -> str:
        return "Filter"

    def _children(self) -> tuple[Operator, ...]:
        return (self._child,)


class Project(Operator):
    """Keep (and optionally rename/compute) selected columns."""

    def __init__(self, child: Operator, columns: dict[str, str | Callable[[Row], Any]]):
        super().__init__()
        if not columns:
            raise ValueError("projection needs at least one column")
        self._child = child
        self._columns = columns

    def _rows(self) -> Iterator[Row]:
        for row in self._child:
            yield {
                name: source(row) if callable(source) else row[source]
                for name, source in self._columns.items()
            }

    def explain(self) -> str:
        return f"Project({', '.join(self._columns)})"

    def _children(self) -> tuple[Operator, ...]:
        return (self._child,)


class IndexNestedLoopJoin(Operator):
    """For each outer row, probe an index of the inner table.

    ``inner_key`` maps an outer row to the probe key — exactly the shape
    of the paper's Stock-Level join ("each outer relation tuple
    requires an indexed select on the inner relation").  The joined row
    is the merge of both sides (inner columns win on collision).
    """

    def __init__(
        self,
        outer: Operator,
        inner_table: Table,
        inner_index: str,
        inner_key: Callable[[Row], tuple],
    ):
        super().__init__()
        self._outer = outer
        self._inner_table = inner_table
        self._inner_index = inner_index
        self._inner_key = inner_key
        self.inner_probes = 0

    def _rows(self) -> Iterator[Row]:
        for outer_row in self._outer:
            self.inner_probes += 1
            for rid in self._inner_table.lookup(
                self._inner_index, self._inner_key(outer_row)
            ):
                inner_row = self._inner_table.read(rid)
                yield {**outer_row, **inner_row}

    def explain(self) -> str:
        return (
            f"IndexNestedLoopJoin(inner={self._inner_table.name}."
            f"{self._inner_index}, probes={self.inner_probes})"
        )

    def _children(self) -> tuple[Operator, ...]:
        return (self._outer,)


class Sort(Operator):
    """Materializing sort (blocking)."""

    def __init__(self, child: Operator, key: Callable[[Row], Any], reverse: bool = False):
        super().__init__()
        self._child = child
        self._key = key
        self._reverse = reverse

    def _rows(self) -> Iterator[Row]:
        yield from sorted(self._child, key=self._key, reverse=self._reverse)

    def explain(self) -> str:
        return f"Sort(reverse={self._reverse})"

    def _children(self) -> tuple[Operator, ...]:
        return (self._child,)


class Distinct(Operator):
    """Drop rows whose key was already seen (hash-based)."""

    def __init__(self, child: Operator, key: Callable[[Row], Any]):
        super().__init__()
        self._child = child
        self._key = key

    def _rows(self) -> Iterator[Row]:
        seen: set = set()
        for row in self._child:
            key = self._key(row)
            if key not in seen:
                seen.add(key)
                yield row

    def explain(self) -> str:
        return "Distinct"

    def _children(self) -> tuple[Operator, ...]:
        return (self._child,)


class Aggregate(Operator):
    """Grouped (or global) aggregation; blocking.

    ``aggregates`` maps output column -> (function name, input column),
    with functions "count", "sum", "min", "max", "avg",
    "count_distinct".  With ``group_by=None`` a single global row is
    produced (even for empty input, as SQL aggregates do).
    """

    _FUNCTIONS = ("count", "sum", "min", "max", "avg", "count_distinct")

    def __init__(
        self,
        child: Operator,
        aggregates: dict[str, tuple[str, str | None]],
        group_by: tuple[str, ...] | None = None,
    ):
        super().__init__()
        for name, (function, _) in aggregates.items():
            if function not in self._FUNCTIONS:
                raise ValueError(
                    f"unknown aggregate {function!r} for {name!r}; "
                    f"choose from {self._FUNCTIONS}"
                )
        self._child = child
        self._aggregates = aggregates
        self._group_by = group_by

    def _rows(self) -> Iterator[Row]:
        groups: dict[tuple, list[Row]] = {}
        for row in self._child:
            key = (
                tuple(row[column] for column in self._group_by)
                if self._group_by
                else ()
            )
            groups.setdefault(key, []).append(row)
        if not groups and self._group_by is None:
            groups[()] = []
        for key, rows in groups.items():
            out: Row = {}
            if self._group_by:
                out.update(dict(zip(self._group_by, key)))
            for name, (function, column) in self._aggregates.items():
                out[name] = self._evaluate(function, column, rows)
            yield out

    @staticmethod
    def _evaluate(function: str, column: str | None, rows: list[Row]):
        if function == "count":
            return len(rows)
        values = [row[column] for row in rows]
        if function == "count_distinct":
            return len(set(values))
        if not values:
            return None
        if function == "sum":
            return sum(values)
        if function == "min":
            return min(values)
        if function == "max":
            return max(values)
        return sum(values) / len(values)  # avg

    def explain(self) -> str:
        return f"Aggregate({', '.join(self._aggregates)}, group_by={self._group_by})"

    def _children(self) -> tuple[Operator, ...]:
        return (self._child,)


class Limit(Operator):
    """At most ``count`` rows of the child."""

    def __init__(self, child: Operator, count: int):
        super().__init__()
        if count < 0:
            raise ValueError(f"limit must be non-negative, got {count}")
        self._child = child
        self._count = count

    def _rows(self) -> Iterator[Row]:
        for index, row in enumerate(self._child):
            if index >= self._count:
                return
            yield row

    def explain(self) -> str:
        return f"Limit({self._count})"

    def _children(self) -> tuple[Operator, ...]:
        return (self._child,)


def execute(plan: Operator) -> list[Row]:
    """Materialize a plan's output."""
    return list(plan)


def stock_level_plan(db, warehouse: int, district: int, threshold: int) -> Operator:
    """The paper's Stock-Level query as an operator tree.

    SELECT COUNT(DISTINCT s_i_id) FROM order_line, stock
    WHERE ol_w_id = :w AND ol_d_id = :d
      AND ol_o_id BETWEEN :next_oid - 20 AND :next_oid - 1
      AND s_w_id = :w AND s_i_id = ol_i_id AND s_quantity < :threshold

    A range scan over the district's last 20 orders' lines, an index
    nested-loop join into Stock, a quantity filter and a distinct
    count — the exact shape the cost model charges 2040K instructions
    for.
    """
    district_row = db.table("district").get((warehouse, district))
    next_order = district_row["d_next_o_id"]
    lines = IndexScan(
        db.table("order_line"),
        "by_order",
        low=(warehouse, district, max(1, next_order - 20)),
        high=(warehouse, district, next_order - 1, 32_767),
    )
    joined = IndexNestedLoopJoin(
        lines,
        db.table("stock"),
        "primary",
        inner_key=lambda row: (warehouse, row["ol_i_id"]),
    )
    low_stock = Filter(joined, lambda row: row["s_quantity"] < threshold)
    return Aggregate(
        low_stock, {"low_stock": ("count_distinct", "s_i_id")}, group_by=None
    )
