"""Serialization round-trip tests for the quadtree node codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dual import DualPoint
from repro.core.nodes import (
    INVALID_RID,
    LeafExtension,
    LeafNode,
    NodeCodec,
    NonLeafNode,
    _build_soa,
)


def dual_points(d, max_size=20):
    coord = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                      width=32)
    return st.lists(
        st.builds(DualPoint,
                  oid=st.integers(min_value=0, max_value=2**60),
                  v=st.tuples(*[coord] * d),
                  p=st.tuples(*[coord] * d)),
        max_size=max_size)


class TestCodecSizes:
    def test_fanout(self):
        assert NodeCodec(1).fanout == 4
        assert NodeCodec(2).fanout == 16
        assert NodeCodec(3).fanout == 64

    def test_entry_size(self):
        assert NodeCodec(2).entry_size == 8 + 4 * 8       # oid + 4 doubles
        assert NodeCodec(2, float32=True).entry_size == 8 + 4 * 4

    def test_nonleaf_record_size_is_fixed(self):
        codec = NodeCodec(2)
        node = NonLeafNode(0, (0.0, 0.0), (0.0, 0.0),
                           [INVALID_RID] * 16, [False] * 16, 0)
        assert len(codec.serialize(node)) == codec.nonleaf_record_size

    def test_leaf_capacity_monotone_in_record_size(self):
        codec = NodeCodec(2)
        assert codec.leaf_capacity(4091) > codec.leaf_capacity(2045) > 0

    def test_too_small_leaf_record_rejected(self):
        with pytest.raises(ValueError, match="cannot hold any entry"):
            NodeCodec(2).leaf_capacity(10)

    def test_invalid_dimensionality_rejected(self):
        with pytest.raises(ValueError):
            NodeCodec(0)


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(min_value=1, max_value=3), data=st.data())
    def test_leaf_round_trip(self, d, data):
        codec = NodeCodec(d)
        coord = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
        leaf = LeafNode(
            level=data.draw(st.integers(min_value=0, max_value=30)),
            v_corner=data.draw(st.tuples(*[coord] * d)),
            p_corner=data.draw(st.tuples(*[coord] * d)),
            entries=data.draw(dual_points(d)),
            overflow=data.draw(st.sampled_from([INVALID_RID, 0, 12345])),
        )
        back = codec.deserialize(codec.serialize(leaf))
        assert back == leaf

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_nonleaf_round_trip(self, data):
        codec = NodeCodec(2)
        rids = data.draw(st.lists(
            st.integers(min_value=-1, max_value=2**40),
            min_size=16, max_size=16))
        flags = data.draw(st.lists(st.booleans(), min_size=16, max_size=16))
        coord = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
        node = NonLeafNode(
            level=data.draw(st.integers(min_value=0, max_value=30)),
            v_corner=data.draw(st.tuples(coord, coord)),
            p_corner=data.draw(st.tuples(coord, coord)),
            children=rids, child_is_leaf=flags,
            size=data.draw(st.integers(min_value=0, max_value=2**31 - 1)))
        back = codec.deserialize(codec.serialize(node))
        assert back == node

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_extension_round_trip(self, data):
        codec = NodeCodec(2)
        ext = LeafExtension(entries=data.draw(dual_points(2)),
                            overflow=data.draw(
                                st.sampled_from([INVALID_RID, 77])))
        back = codec.deserialize(codec.serialize(ext))
        assert back == ext

    def test_float32_round_trip_rounds_coordinates(self):
        import numpy as np
        codec = NodeCodec(2, float32=True)
        value = 123.456789
        leaf = LeafNode(0, (0.0, 0.0), (0.0, 0.0),
                        [DualPoint(1, (value, 0.0), (value, 0.0))])
        back = codec.deserialize(codec.serialize(leaf))
        assert back.entries[0].v[0] == float(np.float32(value))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown node tag"):
            NodeCodec(2).deserialize(b"\xff" + b"\x00" * 100)

    def test_wrong_children_count_rejected(self):
        codec = NodeCodec(2)
        node = NonLeafNode(0, (0.0, 0.0), (0.0, 0.0), [INVALID_RID] * 4,
                           [False] * 4, 0)
        with pytest.raises(ValueError, match="child slots"):
            codec.serialize(node)

    def test_present_children(self):
        children = [INVALID_RID] * 16
        children[3] = 42
        children[7] = 99
        node = NonLeafNode(0, (0.0, 0.0), (0.0, 0.0), children,
                           [False] * 16, 0)
        assert node.present_children() == [3, 7]


def layout_points(d, float32, min_size=0, max_size=40):
    """Entries whose coordinates the layout stores exactly (float32
    values for the float32 layout), so a round trip is lossless."""
    coord = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
                      width=32 if float32 else 64)
    return st.lists(
        st.builds(DualPoint,
                  oid=st.integers(min_value=-2**63, max_value=2**63 - 1),
                  v=st.tuples(*[coord] * d),
                  p=st.tuples(*[coord] * d)),
        min_size=min_size, max_size=max_size)


def assert_columns_equal(got, want):
    """Bit-for-bit equality of two SoA views: dtype, shape and bytes."""
    for name in ("oids", "vs", "ps"):
        a = getattr(got, name)
        b = getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def assert_plain_entries(entries, want):
    assert entries == want
    for entry in entries:
        assert type(entry) is DualPoint
        assert type(entry.oid) is int
        assert type(entry.v) is tuple and type(entry.p) is tuple
        assert all(type(x) is float for x in entry.v + entry.p)


RECORD_BYTES = 400


class TestColumnarDecode:
    """Leaf and extension records decode straight into SoA columns; the
    ``entries`` list is only built from them on first access."""

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(min_value=1, max_value=3), float32=st.booleans(),
           data=st.data())
    def test_leaf_and_extension_columns(self, d, float32, data):
        codec = NodeCodec(d, float32)
        entries = data.draw(layout_points(d, float32))
        overflow = data.draw(st.sampled_from([INVALID_RID, 5, 2**40]))
        if data.draw(st.booleans()):
            record = LeafNode(3, (0.0,) * d, (1.0,) * d, list(entries),
                              overflow)
        else:
            record = LeafExtension(list(entries), overflow)
        back = codec.deserialize(codec.serialize(record))
        assert type(back) is type(record)
        assert back._entries is None
        assert back.size == len(entries)
        assert back.overflow == overflow
        assert_columns_equal(back.soa(d), _build_soa(entries, d))
        # Materializing does not disturb the decoded columns.
        columns = back.soa(d)
        assert_plain_entries(back.entries, entries)
        assert back.soa(d) is columns
        assert back == record

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(min_value=1, max_value=3), float32=st.booleans(),
           data=st.data())
    def test_overflow_chain_columns(self, d, float32, data):
        """A leaf plus its extension chain, each record decoded on its
        own, concatenates to the columns of the whole entry list.  Small
        records keep the drawn chains short."""
        codec = NodeCodec(d, float32)
        leaf_cap = codec.leaf_capacity(RECORD_BYTES)
        ext_cap = codec.extension_capacity(RECORD_BYTES)
        entries = data.draw(layout_points(
            d, float32, min_size=leaf_cap,
            max_size=leaf_cap + 2 * ext_cap + 3))
        chunks = [entries[:leaf_cap]] + [
            entries[i: i + ext_cap]
            for i in range(leaf_cap, len(entries), ext_cap)]
        records = [LeafNode(20, (0.0,) * d, (0.0,) * d, chunks[0],
                            1 if len(chunks) > 1 else INVALID_RID)]
        for k, chunk in enumerate(chunks[1:], start=2):
            records.append(LeafExtension(
                chunk, k if k < len(chunks) else INVALID_RID))
        decoded = [codec.deserialize(codec.serialize(rec))
                   for rec in records]
        for rec, chunk in zip(decoded, chunks):
            assert len(codec.serialize(rec)) <= RECORD_BYTES
            assert_columns_equal(rec.soa(d), _build_soa(chunk, d))
        assert [rec.overflow for rec in decoded] \
            == [rec.overflow for rec in records]
        whole = _build_soa(entries, d)
        for name in ("oids", "vs", "ps"):
            joined = np.concatenate([getattr(rec.soa(d), name)
                                     for rec in decoded])
            assert joined.tobytes() == getattr(whole, name).tobytes()
        chained = [e for rec in decoded for e in rec.entries]
        assert_plain_entries(chained, entries)

    def test_empty_records(self):
        for float32 in (False, True):
            codec = NodeCodec(2, float32)
            for record in (LeafNode(0, (0.0, 0.0), (0.0, 0.0)),
                           LeafExtension()):
                back = codec.deserialize(codec.serialize(record))
                assert back.size == 0
                assert_columns_equal(back.soa(2), _build_soa([], 2))
                assert back.entries == []

    def test_mutation_invalidates_decoded_columns(self):
        codec = NodeCodec(2)
        entries = [DualPoint(i, (float(i), 1.0), (2.0, float(i)))
                   for i in range(12)]
        back = codec.deserialize(codec.serialize(
            LeafNode(0, (0.0, 0.0), (0.0, 0.0), entries)))
        back.entries.append(DualPoint(99, (9.0, 9.0), (9.0, 9.0)))
        assert back.soa(2).oids.tolist() == list(range(12)) + [99]
        back.entries = back.entries[:3]
        assert back.soa(2).oids.tolist() == [0, 1, 2]
        assert back.size == 3
