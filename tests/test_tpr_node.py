"""Serialization round-trip tests for TPR-tree nodes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tpr.node import ChildEntry, LeafEntry, TPRNode, TPRNodeCodec
from repro.storage.page import PAGE_SIZE
from repro.tpr.tpbr import TPBR

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestCapacities:
    def test_leaf_capacity_positive(self):
        codec = TPRNodeCodec(2)
        assert codec.leaf_capacity(4091) > 50

    def test_nonleaf_capacity_smaller_than_leaf(self):
        codec = TPRNodeCodec(2)
        assert codec.nonleaf_capacity(4091) < codec.leaf_capacity(4091)

    def test_float32_fits_more(self):
        assert TPRNodeCodec(2, float32=True).leaf_capacity(4091) \
            > TPRNodeCodec(2).leaf_capacity(4091)

    def test_invalid_dimensionality(self):
        with pytest.raises(ValueError):
            TPRNodeCodec(0)


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_leaf_round_trip(self, data):
        d = data.draw(st.integers(min_value=1, max_value=3), label="d")
        codec = TPRNodeCodec(d)
        entries = data.draw(st.lists(
            st.builds(LeafEntry,
                      oid=st.integers(min_value=0, max_value=2**60),
                      p0=st.tuples(*[coords] * d),
                      vel=st.tuples(*[coords] * d)),
            max_size=10))
        node = TPRNode(0, entries)
        back = codec.deserialize(codec.serialize(node))
        assert back.level == 0
        assert back.entries == entries

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_nonleaf_round_trip(self, data):
        codec = TPRNodeCodec(2)
        def make_child(rid, t0, lower, ext, vlower, vext):
            return ChildEntry(rid, TPBR(
                t0, lower,
                tuple(l + e for l, e in zip(lower, ext)),
                vlower,
                tuple(v + e for v, e in zip(vlower, vext))))
        pos_ext = st.floats(min_value=0, max_value=100, allow_nan=False)
        children = data.draw(st.lists(st.builds(
            make_child,
            rid=st.integers(min_value=0, max_value=2**40),
            t0=st.floats(min_value=0, max_value=100),
            lower=st.tuples(coords, coords),
            ext=st.tuples(pos_ext, pos_ext),
            vlower=st.tuples(coords, coords),
            vext=st.tuples(pos_ext, pos_ext)), max_size=8))
        node = TPRNode(2, children)
        back = codec.deserialize(codec.serialize(node))
        assert back.level == 2
        assert len(back.entries) == len(children)
        for got, want in zip(back.entries, children):
            assert got.rid == want.rid
            assert got.tpbr == want.tpbr

    def test_empty_leaf(self):
        codec = TPRNodeCodec(2)
        back = codec.deserialize(codec.serialize(TPRNode(0, [])))
        assert back.level == 0
        assert back.entries == []

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(min_value=1, max_value=3), float32=st.booleans(),
           leaf=st.booleans(), data=st.data())
    def test_in_place_decode_equals_copied_slot(self, d, float32, leaf,
                                               data):
        """A node decoded where it sits in a page-size frame (non-zero
        offset, other bytes around it) equals the node decoded from a
        copy of its slot, and does not change when the frame is
        overwritten in place."""
        codec = TPRNodeCodec(d, float32=float32)
        coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                          width=32 if float32 else 64)
        box = st.tuples(*[coord] * d)
        if leaf:
            entries = data.draw(st.lists(st.builds(
                LeafEntry, oid=st.integers(0, 2**60), p0=box, vel=box),
                max_size=10), label="entries")
            node = TPRNode(0, entries)
        else:
            entries = data.draw(st.lists(st.builds(
                ChildEntry, rid=st.integers(0, 2**40),
                tpbr=st.builds(TPBR, st.floats(0, 100), box, box, box,
                               box)), max_size=8), label="entries")
            node = TPRNode(data.draw(st.integers(1, 9)), entries)
        raw = codec.serialize(node)
        offset = data.draw(st.integers(1, PAGE_SIZE - len(raw) - 1),
                           label="offset")
        frame = bytearray(random.Random(data.draw(
            st.integers(0, 2**32), label="fill")).randbytes(PAGE_SIZE))
        frame[offset: offset + len(raw)] = raw
        copied = codec.deserialize(bytes(frame[offset:]))
        in_place = codec.deserialize(frame, offset)
        assert in_place == copied == node
        frame[:] = b"\xff" * PAGE_SIZE
        assert in_place == node

    def test_is_leaf_flag(self):
        assert TPRNode(0, []).is_leaf
        assert not TPRNode(1, []).is_leaf
