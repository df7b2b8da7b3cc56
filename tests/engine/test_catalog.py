"""Unit tests for repro.engine.catalog."""

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
