"""Leaf writes edit packed rows: differential tests against the entry list.

An insert into a leaf with room appends the group's packed rows
(:meth:`NodeCodec.append_rows`) and a delete from a leaf without an
overflow chain splices rows out (:meth:`NodeCodec.remove_rows`); neither
decodes the record's ``DualPoint`` list.  These tests run random groups
against a list reference -- ``extend`` for inserts, and
:meth:`DualQuadTree._find_entry` + ``pop`` for deletes -- and require the
same removed flags and rows byte-equal to packing the reference, for
d = 1, 2, 3 and both coordinate layouts.  A counted index update then
checks that a write to a chainless leaf decoded from its page neither
decodes a list nor packs more than the new rows.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dual import DualPoint
from repro.core.nodes import LeafExtension, LeafNode, NodeCodec
from repro.core.quadtree import DualQuadTree
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import MovingObjectState
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import InMemoryPageFile

# Inserted points take oids 0-5 and deleted ones 0-7, so records and
# groups hold duplicate oids and some deletes miss.
INSERT_OIDS = st.integers(min_value=0, max_value=5)
DELETE_OIDS = st.integers(min_value=0, max_value=7)


def point(d, float32, oids):
    """Points whose coordinates the layout stores exactly, often drawn
    from a small set so that coordinates recur."""
    coord = st.sampled_from([0.0, -0.0, 1.5, 2.25, 1e6, -3.0]) | st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False,
        width=32 if float32 else 64)
    return st.builds(DualPoint, oid=oids, v=st.tuples(*[coord] * d),
                     p=st.tuples(*[coord] * d))


def points(d, float32, oids, max_size):
    return st.lists(point(d, float32, oids), max_size=max_size)


def start_record(codec, d, initial, start):
    """A record holding ``initial`` in one of the states a write meets:
    decoded from its page, decoded and then materialized, or built in
    memory and never packed."""
    if start == "extension":
        record = LeafExtension(list(initial))
    else:
        record = LeafNode(4, (0.0,) * d, (1.0,) * d, list(initial))
    if start in ("decoded", "materialized"):
        record = codec.deserialize(codec.serialize(record))
        assert record._entries is None
    if start == "materialized":
        assert record.entries == initial
    return record


@settings(max_examples=200, deadline=None)
@given(d=st.integers(min_value=1, max_value=3), float32=st.booleans(),
       start=st.sampled_from(["decoded", "materialized", "in_memory",
                              "extension"]),
       data=st.data())
def test_row_edits_match_list_reference(d, float32, start, data):
    codec = NodeCodec(d, float32)
    reference = data.draw(points(d, float32, INSERT_OIDS, 12))
    record = start_record(codec, d, reference, start)
    reference = list(reference)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        kind = data.draw(st.sampled_from(["insert", "delete", "empty"]))
        if kind == "insert":
            group = data.draw(points(d, float32, INSERT_OIDS, 6))
            codec.append_rows(record, group)
            reference.extend(group)
        else:
            if kind == "empty":
                # Every entry, in a random order, plus a few more.
                group = data.draw(st.permutations(reference))
                group += data.draw(points(d, float32, DELETE_OIDS, 2))
            else:
                # Exact copies of entries (repeats included), drifted
                # coordinates and misses.
                exact = (st.sampled_from(reference) if reference
                         else st.nothing())
                group = data.draw(st.lists(
                    exact | point(d, float32, DELETE_OIDS), max_size=6))
            flags = codec.remove_rows(record, group)
            want = []
            for target in group:
                pos = DualQuadTree._find_entry(reference, target)
                if pos is not None:
                    reference.pop(pos)
                want.append(pos is not None)
            assert flags == want
            if kind == "empty":
                assert reference == []
        assert record._rows_valid()
        if kind == "insert" or any(flags):
            assert record._entries is None
        assert record.size == len(reference)
        assert codec.rows(record) == codec._pack_entries(reference)
        back = codec.deserialize(codec.serialize(record))
        assert codec.rows(back) == codec._pack_entries(reference)


def test_update_of_decoded_chainless_leaf_packs_only_new_rows(monkeypatch):
    """An update whose delete and insert each edit a chainless leaf --
    no promotion, split, spill or collapse -- decodes no entry list and
    packs exactly one row, the new one."""
    vmax, pmax, lifetime = (3.0, 3.0), (1000.0, 1000.0), 120.0
    index = StripesIndex(StripesConfig(vmax=vmax, pmax=pmax,
                                       lifetime=lifetime),
                         BufferPool(InMemoryPageFile(), capacity=4096))
    rng = random.Random(7)

    def state(oid, t):
        return MovingObjectState(
            oid, pos=tuple(rng.uniform(0.0, p) for p in pmax),
            vel=tuple(rng.uniform(-v, v) for v in vmax), t=t)

    current = {oid: state(oid, rng.uniform(0.0, 50.0))
               for oid in range(2000)}
    index.insert_batch(list(current.values()))
    (tree,) = index._trees.values()
    # Every leaf the updates touch is decoded from its page.
    for page in index.pool._frames.values():
        page.decoded.clear()
    unpacked, packed = [], []
    unpack, pack = NodeCodec._unpack_entries, NodeCodec._pack_entries

    def counted_unpack(self, rows):
        unpacked.append(len(rows))
        return unpack(self, rows)

    def counted_pack(self, entries):
        packed.append(len(entries))
        return pack(self, entries)

    def rebuilds():
        c = tree.counters
        return (c.leaf_splits, c.leaf_promotions, c.collapses,
                c.overflow_spills)

    monkeypatch.setattr(NodeCodec, "_unpack_entries", counted_unpack)
    monkeypatch.setattr(NodeCodec, "_pack_entries", counted_pack)
    edits = 0
    for oid in rng.sample(sorted(current), 100):
        new = state(oid, current[oid].t + rng.uniform(0.0, 10.0))
        before = rebuilds()
        del unpacked[:], packed[:]
        assert index.update(current[oid], new)
        current[oid] = new
        if rebuilds() == before:
            edits += 1
            assert unpacked == []
            assert packed == [1]
    assert edits >= 80
    monkeypatch.undo()
    assert index.check() == []
