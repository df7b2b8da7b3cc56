"""Schemas and row serialization.

A :class:`TableSchema` describes fixed-length rows of INT / FLOAT /
CHAR(n) columns and packs them to bytes with :mod:`struct`.  Fixed
lengths keep the page geometry identical to the paper's Table 1 — the
TPC-C schemas in :mod:`repro.tpcc.rows` are sized so their packed rows
match the paper's tuple lengths byte for byte.

Decoding is projected: ``unpack(record, columns)`` decodes only the
named columns plus the primary key (a statement needs the key for its
lock), through a :class:`struct.Struct` that skips every other column
with ``x`` pad bytes.  One such decoder is compiled per column tuple
and cached on the schema; ``columns=None`` decodes the whole row.
:meth:`TableSchema.patch` is the other half: it writes changed columns
into a copy of the record without decoding the row at all.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Mapping, Sequence


class ColumnType(enum.Enum):
    """Supported column types (all fixed length)."""

    INT = "int"        # 8-byte signed
    INT4 = "int4"      # 4-byte signed
    INT2 = "int2"      # 2-byte signed
    FLOAT = "float"    # 8-byte double
    CHAR = "char"      # fixed-length string


_FORMATS = {
    ColumnType.INT: "q",
    ColumnType.INT4: "i",
    ColumnType.INT2: "h",
    ColumnType.FLOAT: "d",
}


@dataclass(frozen=True)
class Column:
    """One column: a name, a type, and a length for CHAR columns."""

    name: str
    type: ColumnType
    length: int = 0  # only for CHAR

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must be non-empty")
        if self.type is ColumnType.CHAR:
            if self.length <= 0:
                raise ValueError(f"CHAR column {self.name!r} needs a positive length")
        elif self.length:
            raise ValueError(f"{self.type} column {self.name!r} must not set length")

    @property
    def struct_format(self) -> str:
        if self.type is ColumnType.CHAR:
            return f"{self.length}s"
        return _FORMATS[self.type]

    @property
    def byte_size(self) -> int:
        return struct.calcsize("<" + self.struct_format)


def _encode_char(length: int, value: object) -> bytes:
    """UTF-8 bytes of ``value``, cut to ``length`` on a character boundary."""
    encoded = str(value).encode("utf-8")
    if len(encoded) > length:
        # "ignore" drops the code point the cut split, nothing else.
        encoded = encoded[:length].decode("utf-8", "ignore").encode("utf-8")
    return encoded


def key_extractor(columns: tuple[str, ...]) -> Callable[[dict], tuple]:
    """A compiled ``row -> (row[c] for c in columns)`` for a fixed key."""
    if len(columns) == 1:
        (column,) = columns
        return lambda row: (row[column],)
    return itemgetter(*columns)


def integer(name: str) -> Column:
    """Shorthand for an 8-byte INT column."""
    return Column(name, ColumnType.INT)


def int4(name: str) -> Column:
    """Shorthand for a 4-byte INT column."""
    return Column(name, ColumnType.INT4)


def int2(name: str) -> Column:
    """Shorthand for a 2-byte INT column."""
    return Column(name, ColumnType.INT2)


def floating(name: str) -> Column:
    """Shorthand for a FLOAT column."""
    return Column(name, ColumnType.FLOAT)


def char(name: str, length: int) -> Column:
    """Shorthand for a CHAR(length) column."""
    return Column(name, ColumnType.CHAR, length)


class TableSchema:
    """A named, ordered set of columns with a primary key.

    ``primary_key`` lists column names whose tuple of values uniquely
    identifies a row; composite keys (the TPC-C norm) are supported.
    ``key_of(row)`` is the primary-key tuple of a row dict.
    """

    def __init__(self, name: str, columns: list[Column], primary_key: tuple[str, ...]):
        if not name:
            raise ValueError("table name must be non-empty")
        if not columns:
            raise ValueError("a table needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {name}: {names}")
        missing = [key for key in primary_key if key not in names]
        if missing:
            raise ValueError(f"primary key columns {missing} not in table {name}")
        if not primary_key:
            raise ValueError(f"table {name} needs a primary key")
        self._name = name
        self._columns = tuple(columns)
        self._primary_key = tuple(primary_key)
        self.key_of = key_extractor(self._primary_key)
        self._struct = struct.Struct(
            "<" + "".join(column.struct_format for column in columns)
        )
        # The codec, compiled once per schema: each column's converter to
        # its struct argument and where a lone column is packed into a
        # record (for patch).  Decoders are compiled per projection, on
        # first use, and kept in ``_decoders``.
        self._names = tuple(names)
        self._encoders = []
        self._patchers = {}
        self._decoders: dict[tuple[str, ...] | None, Callable[[bytes], dict]] = {}
        offset = 0
        for column in columns:
            if column.type is ColumnType.CHAR:
                convert = partial(_encode_char, column.length)
            else:
                convert = float if column.type is ColumnType.FLOAT else int
            self._encoders.append((column.name, convert))
            pack_into = struct.Struct("<" + column.struct_format).pack_into
            self._patchers[column.name] = (pack_into, offset, convert)
            offset += column.byte_size

    # -- accessors ---------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def primary_key(self) -> tuple[str, ...]:
        return self._primary_key

    @property
    def record_size(self) -> int:
        """Packed row size in bytes (the paper's tuple length)."""
        return self._struct.size

    # -- serialization ---------------------------------------------------------------

    def pack(self, row: dict) -> bytes:
        """Serialize a row dict to fixed-length bytes.

        CHAR values are encoded UTF-8 and padded to length (truncated,
        on a character boundary, when longer); missing columns raise
        ``KeyError``.
        """
        return self._struct.pack(
            *[convert(row[name]) for name, convert in self._encoders]
        )

    def packer(
        self, columns: tuple[str, ...], constants: Mapping[str, object]
    ) -> Callable[[Sequence], bytes]:
        """A :meth:`pack` for rows whose other columns all hold ``constants``.

        ``packer(columns, constants)(values)`` equals
        ``pack({**constants, **dict(zip(columns, values))})`` when each
        value already has its column's type (a number for INT and FLOAT
        columns): the constants are converted once, here, and a call
        converts only its CHAR values.  A value ``pack`` would have had
        to coerce raises ``struct.error`` instead.  Every column must be
        in exactly one of ``columns`` and ``constants``.
        """
        given = [*columns, *constants]
        if sorted(given) != sorted(self._names):
            raise ValueError(
                f"{self._name}: columns and constants must cover each column once, "
                f"got {sorted(given)}"
            )
        converter = dict(self._encoders)
        fixed = [converter[name](value) for name, value in constants.items()]
        column_of = {column.name: column for column in self._columns}
        chars = [
            (i, column_of[name].length)
            for i, name in enumerate(columns)
            if column_of[name].type is ColumnType.CHAR
        ]
        # A row is ``[*values, *fixed]``; ``gather`` puts it in column order.
        source = {name: i for i, name in enumerate(given)}
        gather = key_extractor(tuple(source[name] for name in self._names))
        pack = self._struct.pack

        def pack_row(values: Sequence) -> bytes:
            row = [*values, *fixed]
            for i, length in chars:
                row[i] = _encode_char(length, row[i])
            return pack(*gather(row))

        return pack_row

    def unpack(self, record: bytes, columns: tuple[str, ...] | None = None) -> dict:
        """Deserialize bytes back to a row dict (CHAR values stripped).

        ``columns`` projects the row: only those columns and the primary
        key are decoded, the rest of the record is skipped unread.
        ``None`` decodes every column; an unknown column raises
        ``KeyError``.
        """
        decode = self._decoders.get(columns)
        if decode is None:
            decode = self._decoders[columns] = self._decoder(columns)
        return decode(record)

    def _decoder(self, columns: tuple[str, ...] | None) -> Callable[[bytes], dict]:
        """Compile the decoder of one projection (see :meth:`unpack`)."""
        if columns is None:
            wanted = set(self._names)
        else:
            unknown = [name for name in columns if name not in self._names]
            if unknown:
                raise KeyError(f"{self._name}: unknown columns {unknown}")
            wanted = {*columns, *self._primary_key}
        fmt, names, chars, skipped = "<", [], [], 0
        for column in self._columns:
            if column.name not in wanted:
                skipped += column.byte_size
                continue
            if skipped:
                fmt += f"{skipped}x"
                skipped = 0
            if column.type is ColumnType.CHAR:
                chars.append(len(names))
            fmt += column.struct_format
            names.append(column.name)
        if skipped:
            fmt += f"{skipped}x"
        unpack = struct.Struct(fmt).unpack
        names = tuple(names)
        if not chars:
            return lambda record: dict(zip(names, unpack(record)))

        def decode(record: bytes) -> dict:
            values = list(unpack(record))
            for i in chars:
                values[i] = values[i].rstrip(b"\x00").decode("utf-8")
            return dict(zip(names, values))

        return decode

    def patch(self, record: bytes, changes: dict) -> bytes:
        """A copy of ``record`` with the ``changes`` columns overwritten.

        Equal to ``pack({**unpack(record), **changes})`` without decoding
        or re-encoding the columns that stay; an unknown column raises
        ``KeyError``.
        """
        patched = bytearray(record)
        for name, value in changes.items():
            pack_into, offset, convert = self._patchers[name]
            pack_into(patched, offset, convert(value))
        return bytes(patched)
