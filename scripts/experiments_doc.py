#!/usr/bin/env python3
"""Regenerate the measured numbers in EXPERIMENTS.md from one run-all document.

Usage::

    python -m repro run-all --preset paper --format json --quiet \\
        | python scripts/experiments_doc.py

Reads the ``run-all --format json`` document on stdin and rewrites, in
the repository's ``EXPERIMENTS.md``, every block between
``<!-- generated: ID -->`` and ``<!-- end generated: ID -->`` with
experiment ID's rows as returned, its headline next to the paper's
value, and yes/no checks computed from the rows that name every row
where a check fails.  Text outside the markers is left as it is, and a
second pass over the same input changes nothing.

Every experiment in the input needs a block and every block needs an
experiment in the input.  Exit codes: 0 written, 1 a mismatch or a
failed experiment (the file is left untouched).
"""

from __future__ import annotations

import json
import operator
import re
import sys
from pathlib import Path
from typing import Callable

DOCUMENT_PATH = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: Row tables longer than this fold into a <details> element.
INLINE_ROWS = 16

_BLOCK = re.compile(
    r"(<!-- generated: (?P<id>[\w-]+) -->\n).*?(<!-- end generated: (?P=id) -->)",
    re.DOTALL,
)

Rows = list[dict]
#: A check maps an experiment's rows to the x values of the rows where it fails.
Check = Callable[[Rows], list]


def each(x: str, holds: Callable[[dict], bool]) -> Check:
    """A check of every row on its own."""
    return lambda rows: [row[x] for row in rows if not holds(row)]


def along(x: str, holds: Callable[[dict, dict], bool]) -> Check:
    """A check of every row against the row before it."""
    return lambda rows: [
        row[x] for before, row in zip(rows, rows[1:]) if not holds(before, row)
    ]


def _ordered(x: str, *columns: str, strict: bool = True) -> Check:
    """``columns[0] > columns[1] > …`` (``>=`` unless strict) in every row."""
    above = operator.gt if strict else operator.ge
    pairs = list(zip(columns, columns[1:]))
    return each(x, lambda row: all(above(row[a], row[b]) for a, b in pairs))


_FIG8_SERIES = [
    f"{relation} ({packing})"
    for relation in ("customer", "stock", "item")
    for packing in ("seq", "opt")
]
_FIG12_SERIES = ["p=0.01", "p=0.05", "p=0.1", "p=0.5", "p=1.0"]
# The paper: optimized packing is "virtually indistinguishable" from tuple level.
_AT_TUPLE_LEVEL = (
    "4K optimized within 0.001 of tuple level",
    each("hottest data fraction",
         lambda row: abs(row["4K optimized"] - row["tuple level"]) <= 0.001),
)

#: Experiment id -> (label column, unit of its values, [(claim, check)]).
#: The label column leads the row table and names the rows a check
#: fails at.
EXPERIMENTS: dict[str, tuple[str, str, list[tuple[str, Check]]]] = {
    "table1": ("relation", "", []),
    "table2": ("transaction", "", []),
    "table3": ("relation", "", []),
    "table4": ("operation", "", []),
    "tables6_7": ("operation", "", []),
    "appendix_a3": ("check", "", []),
    "fig3": ("tuple id", "", []),
    "fig4": ("tuple id", "", []),
    "fig5": ("hottest data fraction", "", [
        _AT_TUPLE_LEVEL,
        ("4K optimized > 4K sequential > 8K sequential",
         _ordered("hottest data fraction", "4K optimized", "4K sequential",
                  "8K sequential")),
    ]),
    "fig6": ("customer id", "", []),
    "fig7": ("hottest data fraction", "", [
        _AT_TUPLE_LEVEL,
        ("4K optimized > 4K sequential",
         _ordered("hottest data fraction", "4K optimized", "4K sequential")),
    ]),
    "fig8": ("buffer MB", " MB", [
        ("every miss rate falls as the buffer grows",
         along("buffer MB", lambda a, b: all(b[c] < a[c] for c in _FIG8_SERIES))),
        ("customer > stock > item, sequential packing",
         _ordered("buffer MB", "customer (seq)", "stock (seq)", "item (seq)")),
        ("customer > stock > item, optimized packing",
         _ordered("buffer MB", "customer (opt)", "stock (opt)", "item (opt)")),
        *(
            (f"optimized packing misses less than sequential: {relation}",
             _ordered("buffer MB", f"{relation} (seq)", f"{relation} (opt)"))
            for relation in ("customer", "stock", "item")
        ),
    ]),
    "fig9": ("buffer MB", " MB", [
        ("throughput never falls as memory grows",
         along("buffer MB", lambda a, b: (
             b["new-order tpm (seq)"] >= a["new-order tpm (seq)"]
             and b["new-order tpm (opt)"] >= a["new-order tpm (opt)"]))),
        ("optimized packing is faster",
         _ordered("buffer MB", "new-order tpm (opt)", "new-order tpm (seq)")),
    ]),
    "fig10": ("buffer MB", " MB", [
        ("optimized packing costs no more, no storage floor",
         _ordered("buffer MB", "$/tpm (sequential)", "$/tpm (optimized)",
                  strict=False)),
        ("optimized packing costs no more, with storage",
         _ordered("buffer MB", "$/tpm (sequential +storage)",
                  "$/tpm (optimized +storage)", strict=False)),
        ("the storage floor never lowers the cost",
         each("buffer MB", lambda row: all(
             row[f"$/tpm ({packing} +storage)"] >= row[f"$/tpm ({packing})"]
             for packing in ("sequential", "optimized")))),
    ]),
    "fig10_disk_size": ("disk GB", " GB", [
        ("optimized packing is cheaper",
         _ordered("disk GB", "optimum $/tpm (seq)", "optimum $/tpm (opt)")),
        ("the packing gain never shrinks as disks grow",
         along("disk GB", lambda a, b: b["packing gain %"] >= a["packing gain %"])),
    ]),
    "fig11": ("nodes", " nodes", [
        ("linear >= replicated >= non-replicated",
         _ordered("nodes", "linear tpm", "replicated tpm", "non-replicated tpm",
                  strict=False)),
        ("the replication gain grows with the node count",
         along("nodes", lambda a, b: b["replication gain %"] > a["replication gain %"])),
    ]),
    "fig12": ("nodes", " nodes", [
        ("throughput never rises with the remote-stock probability",
         _ordered("nodes", *_FIG12_SERIES, strict=False)),
    ]),
}


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _table(header: list[str], rows: list[list]) -> list[str]:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    lines.extend("| " + " | ".join(_cell(v) for v in row) + " |" for row in rows)
    return lines


def _columns(result: dict, x: str | None) -> list[str]:
    columns: list[str] = [] if x is None else [x]
    for row in result["rows"]:
        columns.extend(key for key in row if key not in columns)
    return columns


def render(result: dict) -> str:
    """One experiment's generated block (between, not including, the markers)."""
    x, unit, checks = EXPERIMENTS.get(result["experiment"], (None, "", []))
    columns = _columns(result, x)
    rows = result["rows"]
    lines = [f"**{result['experiment']}**: {result['title']}", ""]
    row_table = _table(columns, [[row.get(c, "") for c in columns] for row in rows])
    if len(rows) > INLINE_ROWS:
        lines += [f"<details><summary>{len(rows)} rows</summary>", ""]
        lines += row_table + ["", "</details>"]
    else:
        lines += row_table
    if result["headline"]:
        reference = result["paper_reference"]
        lines.append("")
        lines += _table(
            ["headline", "measured", "paper"],
            [
                [key, round(value, 4), reference.get(key, "")]
                for key, value in result["headline"].items()
            ],
        )
    if checks:
        outcome = []
        for claim, check in checks:
            failures = check(rows)
            where = ", ".join(map(_cell, failures)) + unit if failures else ""
            outcome.append([claim, "no" if failures else "yes", where])
        lines.append("")
        lines += _table(["check over the rows", "holds", "fails at"], outcome)
    if result["notes"]:
        lines += ["", result["notes"]]
    return "\n".join(lines) + "\n"


def regenerate(text: str, document: dict) -> str:
    """``text`` with every generated block rewritten from ``document``."""
    if document["failed"]:
        raise ValueError(f"failed experiments: {', '.join(document['failed'])}")
    results = {result["experiment"]: result for result in document["results"]}
    blocks = [match["id"] for match in _BLOCK.finditer(text)]
    if sorted(blocks) != sorted(results):
        raise ValueError(
            f"blocks without a result: {sorted(set(blocks) - set(results))}; "
            f"results without a block: {sorted(set(results) - set(blocks))}; "
            f"ids in more than one block: "
            f"{sorted({i for i in blocks if blocks.count(i) > 1})}"
        )
    return _BLOCK.sub(
        lambda match: match[1] + render(results[match["id"]]) + match[3], text
    )


def main() -> int:
    try:
        text = regenerate(DOCUMENT_PATH.read_text(), json.load(sys.stdin))
    except ValueError as error:
        print(f"experiments_doc: {error}", file=sys.stderr)
        return 1
    DOCUMENT_PATH.write_text(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
