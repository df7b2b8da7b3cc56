"""Unit tests for repro.engine.catalog."""

import random
import string
import struct

import pytest

from repro.engine.catalog import (
    Column,
    ColumnType,
    TableSchema,
    char,
    floating,
    int2,
    int4,
    integer,
)
from repro.engine.database import Database
from repro.tpcc.rows import TPCC_SCHEMAS, tpcc_index_specs


class TestColumn:
    def test_sizes(self):
        assert integer("a").byte_size == 8
        assert int4("a").byte_size == 4
        assert int2("a").byte_size == 2
        assert floating("a").byte_size == 8
        assert char("a", 20).byte_size == 20

    def test_char_needs_length(self):
        with pytest.raises(ValueError, match="length"):
            Column("c", ColumnType.CHAR)

    def test_non_char_rejects_length(self):
        with pytest.raises(ValueError, match="must not set"):
            Column("c", ColumnType.INT, length=4)

    def test_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            Column("", ColumnType.INT)


def sample_schema():
    return TableSchema(
        "sample",
        [integer("id"), int2("tag"), floating("score"), char("name", 10)],
        primary_key=("id",),
    )


class TestSchemaValidation:
    def test_record_size(self):
        assert sample_schema().record_size == 8 + 2 + 8 + 10

    def test_duplicate_columns(self):
        with pytest.raises(ValueError, match="duplicate"):
            TableSchema("t", [integer("a"), integer("a")], ("a",))

    def test_unknown_key_column(self):
        with pytest.raises(ValueError, match="primary key"):
            TableSchema("t", [integer("a")], ("b",))

    def test_key_required(self):
        with pytest.raises(ValueError, match="primary key"):
            TableSchema("t", [integer("a")], ())

    def test_no_columns(self):
        with pytest.raises(ValueError, match="column"):
            TableSchema("t", [], ("a",))


class TestPackUnpack:
    def test_round_trip(self):
        schema = sample_schema()
        row = {"id": 42, "tag": 7, "score": 3.25, "name": "alpha"}
        assert schema.unpack(schema.pack(row)) == row

    def test_char_padding_stripped(self):
        schema = sample_schema()
        row = {"id": 1, "tag": 0, "score": 0.0, "name": "ab"}
        assert schema.unpack(schema.pack(row))["name"] == "ab"

    def test_char_truncated_to_length(self):
        schema = sample_schema()
        row = {"id": 1, "tag": 0, "score": 0.0, "name": "x" * 50}
        assert schema.unpack(schema.pack(row))["name"] == "x" * 10

    def test_char_truncated_on_a_character_boundary(self):
        # "éé" is c3 a9 c3 a9: cutting at three bytes used to store half
        # of the second character, and unpack then raised UnicodeDecodeError.
        schema = TableSchema("t", [integer("id"), char("name", 3)], ("id",))
        record = schema.pack({"id": 1, "name": "éé"})
        assert record[-3:] == "é".encode() + b"\x00"
        assert schema.unpack(record)["name"] == "é"
        assert schema.unpack(schema.patch(record, {"name": "aéé"}))["name"] == "aé"

    def test_missing_column_raises(self):
        schema = sample_schema()
        with pytest.raises(KeyError):
            schema.pack({"id": 1})

    def test_patch_overwrites_only_the_named_columns(self):
        schema = sample_schema()
        row = {"id": 42, "tag": 7, "score": 3.25, "name": "alpha"}
        record = schema.pack(row)
        patched = schema.patch(record, {"score": 4, "name": "be"})
        assert schema.unpack(patched) == {**row, "score": 4.0, "name": "be"}
        assert schema.unpack(record) == row
        with pytest.raises(KeyError):
            schema.patch(record, {"nope": 1})

    def test_numeric_coercion(self):
        schema = sample_schema()
        row = {"id": "5", "tag": 1.0, "score": 2, "name": 99}
        unpacked = schema.unpack(schema.pack(row))
        assert unpacked["id"] == 5
        assert unpacked["score"] == 2.0
        assert unpacked["name"] == "99"

    def test_packed_length_fixed(self):
        schema = sample_schema()
        short = schema.pack({"id": 1, "tag": 0, "score": 0.0, "name": ""})
        long = schema.pack({"id": 1, "tag": 0, "score": 0.0, "name": "abcdefghij"})
        assert len(short) == len(long) == schema.record_size


class TestPacker:
    def test_equals_pack(self):
        schema = sample_schema()
        pack_row = schema.packer(("id", "name"), {"tag": 7, "score": 2})
        for values in [(1, "alpha"), (2, "x" * 50), (3, "aééééé")]:
            row = {"tag": 7, "score": 2, **dict(zip(("id", "name"), values))}
            assert pack_row(values) == schema.pack(row)

    def test_constants_only_for_missing_columns(self):
        schema = sample_schema()
        assert schema.packer((), {"id": 1, "tag": 2, "score": 3.0, "name": "n"})(()) == (
            schema.pack({"id": 1, "tag": 2, "score": 3.0, "name": "n"})
        )

    def test_every_column_exactly_once(self):
        schema = sample_schema()
        with pytest.raises(ValueError, match="once"):
            schema.packer(("id", "name"), {"tag": 7})
        with pytest.raises(ValueError, match="once"):
            schema.packer(("id", "name", "tag"), {"tag": 7, "score": 1.0})
        with pytest.raises(ValueError, match="once"):
            schema.packer(("id", "nope"), {"tag": 7, "score": 1.0, "name": "n"})

    def test_values_are_not_coerced(self):
        pack_row = sample_schema().packer(("id",), {"tag": 0, "score": 0.0, "name": ""})
        with pytest.raises(struct.error):
            pack_row(("5",))


class TestKeyOf:
    def test_composite_key(self):
        schema = TableSchema(
            "t", [integer("w"), integer("d"), integer("c")], ("w", "d", "c")
        )
        assert schema.key_of({"w": 1, "d": 2, "c": 3}) == (1, 2, 3)

    def test_key_order_follows_declaration(self):
        schema = TableSchema("t", [integer("a"), integer("b")], ("b", "a"))
        assert schema.key_of({"a": 1, "b": 2}) == (2, 1)


_INT_BITS = {ColumnType.INT: 64, ColumnType.INT4: 32, ColumnType.INT2: 16}


def random_value(column, rng, fill):
    """A value of ``column``'s type; a CHAR value fills the column.

    ``fill`` picks the CHAR text: ASCII, or two-byte UTF-8 characters
    (with one ASCII byte when the length is odd), either way exactly
    ``column.length`` bytes long.
    """
    if column.type is ColumnType.CHAR:
        if fill:
            return "é" * (column.length // 2) + "z" * (column.length % 2)
        return "".join(rng.choice(string.ascii_letters) for _ in range(column.length))
    if column.type is ColumnType.FLOAT:
        return rng.uniform(-1e6, 1e6)
    half = 1 << (_INT_BITS[column.type] - 1)
    return rng.randrange(-half, half)


def random_row(schema, rng, fill=False):
    return {column.name: random_value(column, rng, fill) for column in schema.columns}


class TestProjectedUnpack:
    @pytest.mark.parametrize("name", sorted(TPCC_SCHEMAS))
    def test_is_the_full_decode_restricted_to_the_key_and_columns(self, name):
        schema = TPCC_SCHEMAS[name]
        names = schema.column_names
        rng = random.Random(f"projection-{name}")
        for i in range(12):
            row = random_row(schema, rng, fill=i % 2 == 1)
            record = schema.pack(row)
            full = schema.unpack(record)
            assert full == row
            subsets = [(), names, schema.primary_key, names[::-1]]
            subsets += [
                tuple(rng.sample(names, rng.randint(1, len(names)))) for _ in range(6)
            ]
            for columns in subsets:
                kept = {*columns, *schema.primary_key}
                assert schema.unpack(record, columns) == {
                    column: value for column, value in full.items() if column in kept
                }, columns

    def test_unknown_column_raises_key_error(self):
        schema = sample_schema()
        record = schema.pack({"id": 1, "tag": 0, "score": 0.0, "name": ""})
        with pytest.raises(KeyError, match="nope"):
            schema.unpack(record, ("score", "nope"))
        assert schema.unpack(record, ("score",)) == {"id": 1, "score": 0.0}


def tpcc_table(name, rows):
    """A database holding one TPC-C table (with its indexes) and ``rows``."""
    db = Database(buffer_pages=64)
    db.create_table(TPCC_SCHEMAS[name], tpcc_index_specs().get(name))
    txn = db.begin()
    for row in rows:
        txn.insert(name, row)
    txn.commit()
    return db


class TestDecodeFreeUpdate:
    @pytest.mark.parametrize("name", ["customer", "stock", "order", "order_line"])
    def test_writes_what_pack_of_the_merged_row_writes(self, name, monkeypatch):
        schema = TPCC_SCHEMAS[name]
        rng = random.Random(f"update-{name}")
        rows = [random_row(schema, rng, fill=i % 2 == 1) for i in range(8)]
        db = tpcc_table(name, rows)
        table = db.table(name)
        key_columns = {*schema.primary_key}
        for spec in tpcc_index_specs().get(name, []):
            key_columns |= set(spec.columns)
        free = [column for column in schema.columns if column.name not in key_columns]
        decoded = []
        original = type(schema).unpack
        monkeypatch.setattr(
            type(schema),
            "unpack",
            lambda self, *args: decoded.append(args) or original(self, *args),
        )
        for i, row in enumerate(rows):
            key = schema.key_of(row)
            rid = table.rid_of(key)
            before = table.heap.read(rid)
            changes = {
                column.name: random_value(column, rng, fill=i % 2 == 0)
                for column in rng.sample(free, rng.randint(1, len(free)))
            }
            txn = db.begin()
            txn.update(name, key, changes)
            txn.commit()
            assert decoded == []
            expected = schema.pack({**original(schema, before), **changes})
            assert table.heap.read(rid) == expected
            update = db.wal.records()[-2]  # the COMMIT follows it
            assert (update.before, update.after) == (before, expected)

    @pytest.mark.parametrize(
        "name, column, value", [("customer", "c_last", "RENAMED"), ("order", "o_c_id", 4321)]
    )
    def test_an_index_column_still_moves_the_entry(self, name, column, value):
        schema = TPCC_SCHEMAS[name]
        (spec,) = tpcc_index_specs()[name]
        row = random_row(schema, random.Random(f"index-{name}"))
        moved = {**row, column: value}
        db = tpcc_table(name, [row])
        table = db.table(name)
        rid = table.rid_of(schema.key_of(row))

        def index_key(values):
            return tuple(values[c] for c in spec.columns)

        assert table.lookup(spec.name, index_key(row)) == (rid,)
        txn = db.begin()
        txn.update(name, schema.key_of(row), {column: value})
        txn.commit()
        assert table.lookup(spec.name, index_key(row)) == ()
        assert table.lookup(spec.name, index_key(moved)) == (rid,)
        assert table.heap.read(rid) == schema.pack(moved)

    def test_a_primary_key_column_still_raises(self):
        schema = TPCC_SCHEMAS["stock"]
        row = random_row(schema, random.Random("key"))
        db = tpcc_table("stock", [row])
        rid = db.table("stock").rid_of(schema.key_of(row))
        image = db.table("stock").heap.read(rid)
        txn = db.begin()
        with pytest.raises(ValueError, match="immutable"):
            txn.update(
                "stock", schema.key_of(row), {"s_quantity": 5, "s_i_id": row["s_i_id"] + 1}
            )
        txn.abort()
        assert db.table("stock").heap.read(rid) == image
