"""Property-based tests for the storage engine's lower layers."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.bufferpool import BufferManager
from repro.engine.catalog import Column, ColumnType, TableSchema
from repro.engine.heap import HeapFile
from repro.engine.page import Page, PageStore
from repro.tpcc.rows import TPCC_SCHEMAS

record_payloads = st.binary(min_size=16, max_size=16)


class TestPageProperties:
    @given(st.lists(record_payloads, min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_insert_read_round_trip(self, payloads):
        page = Page(record_size=16, page_size=4096)
        stored = {}
        for payload in payloads:
            if page.is_full:
                break
            slot = page.insert(payload)
            stored[slot] = payload
        for slot, payload in stored.items():
            assert page.read(slot) == payload

    @given(st.lists(record_payloads, min_size=1, max_size=100), st.data())
    @settings(max_examples=60, deadline=None)
    def test_serialization_preserves_state(self, payloads, data):
        page = Page(record_size=16, page_size=4096)
        live = {}
        for payload in payloads:
            if page.is_full:
                break
            live[page.insert(payload)] = payload
        if live and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(sorted(live)))
            page.delete(victim)
            del live[victim]
        restored = Page.from_bytes(page.to_bytes())
        assert restored.live_records == len(live)
        for slot, payload in live.items():
            assert restored.read(slot) == payload


class TestHeapProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["insert", "delete", "update"]), record_payloads),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_against_dict_model(self, ops, capacity):
        """The heap must agree with a dict model even under eviction
        pressure from a tiny buffer pool."""
        store = PageStore()
        heap = HeapFile(BufferManager(store, capacity), 0, record_size=16)
        model = {}
        for op, payload in ops:
            if op == "insert":
                rid = heap.insert(payload)
                model[rid] = payload
            elif op == "delete" and model:
                rid = sorted(model)[0]
                heap.delete(rid)
                del model[rid]
            elif op == "update" and model:
                rid = sorted(model)[-1]
                heap.update(rid, payload)
                model[rid] = payload
        assert len(heap) == len(model)
        assert dict(heap.scan()) == model

    @given(st.integers(min_value=1, max_value=120))
    @settings(max_examples=40, deadline=None)
    def test_page_count_matches_geometry(self, inserts):
        store = PageStore()
        heap = HeapFile(BufferManager(store, 64), 0, record_size=16)
        for _ in range(inserts):
            heap.insert(b"x" * 16)
        assert heap.page_count == -(-inserts // heap.records_per_page)


# -- row codec ----------------------------------------------------------------

_INT_BOUNDS = {ColumnType.INT: 63, ColumnType.INT4: 31, ColumnType.INT2: 15}

#: Text without NUL: unpack strips trailing NULs, so "a\x00" is not a value
#: the codec promises to hand back.
_text = st.text(st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)), max_size=12)


def _value(column: Column):
    """A strategy for values a caller may legitimately store in ``column``."""
    if column.type is ColumnType.CHAR:
        return _text
    if column.type is ColumnType.FLOAT:
        return st.floats(allow_nan=False) | st.integers(-1000, 1000)
    bits = _INT_BOUNDS[column.type]
    return st.integers(-(2**bits), 2**bits - 1)


@st.composite
def schemas(draw):
    kinds = draw(st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=8))
    columns = [
        Column(f"c{i}", kind, draw(st.integers(1, 9)) if kind is ColumnType.CHAR else 0)
        for i, kind in enumerate(kinds)
    ]
    return TableSchema("t", columns, primary_key=("c0",))


@st.composite
def schema_and_rows(draw, rows=1):
    schema = draw(schemas())
    row = st.fixed_dictionaries({c.name: _value(c) for c in schema.columns})
    return (schema, *[draw(row) for _ in range(rows)])


def reference_pack(schema: TableSchema, row: dict) -> bytes:
    """The per-column loop the compiled codec replaced (ASCII rows only:
    it cut CHAR values in the middle of a code point)."""
    values = []
    for column in schema.columns:
        value = row[column.name]
        if column.type is ColumnType.CHAR:
            values.append(str(value).encode("utf-8")[: column.length])
        elif column.type is ColumnType.FLOAT:
            values.append(float(value))
        else:
            values.append(int(value))
    return struct.pack("<" + "".join(c.struct_format for c in schema.columns), *values)


def reference_unpack(schema: TableSchema, record: bytes) -> dict:
    values = struct.unpack("<" + "".join(c.struct_format for c in schema.columns), record)
    return {
        column.name: value.rstrip(b"\x00").decode("utf-8")
        if column.type is ColumnType.CHAR
        else value
        for column, value in zip(schema.columns, values)
    }


class TestCodecProperties:
    @given(schema_and_rows())
    @settings(max_examples=150, deadline=None)
    def test_pack_of_unpack_is_identity_on_stored_bytes(self, drawn):
        """Why the bytes read off a page can serve as the WAL before-image."""
        schema, row = drawn
        record = schema.pack(row)
        assert len(record) == schema.record_size
        assert schema.pack(schema.unpack(record)) == record

    @given(schema_and_rows(rows=2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_patch_equals_repacking_the_merged_row(self, drawn, data):
        schema, row, other = drawn
        names = data.draw(st.lists(st.sampled_from(schema.column_names), unique=True))
        changes = {name: other[name] for name in names}  # CHAR columns included
        record = schema.pack(row)
        assert schema.patch(record, changes) == schema.pack({**row, **changes})
        assert schema.pack(row) == record  # patched a copy

    @given(schema_and_rows())
    @settings(max_examples=30, deadline=None)
    def test_patch_rejects_unknown_column(self, drawn):
        schema, row = drawn
        with pytest.raises(KeyError):
            schema.patch(schema.pack(row), {"no_such_column": 1})

    @given(schema_and_rows())
    @settings(max_examples=150, deadline=None)
    def test_char_truncation_keeps_whole_characters(self, drawn):
        schema, row = drawn
        decoded = schema.unpack(schema.pack(row))  # must not raise
        for column in schema.columns:
            if column.type is ColumnType.CHAR:
                assert str(row[column.name]).startswith(decoded[column.name])
                assert len(decoded[column.name].encode("utf-8")) <= column.length

    @pytest.mark.parametrize("table", sorted(TPCC_SCHEMAS))
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_replaced_codec_on_tpcc_rows(self, table, data):
        schema = TPCC_SCHEMAS[table]
        ascii_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=30)
        row = data.draw(
            st.fixed_dictionaries(
                {
                    c.name: ascii_text if c.type is ColumnType.CHAR else _value(c)
                    for c in schema.columns
                }
            )
        )
        record = schema.pack(row)
        assert record == reference_pack(schema, row)
        assert schema.unpack(record) == reference_unpack(schema, record)
