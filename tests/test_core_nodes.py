"""Serialization round-trip tests for the quadtree node codec, and the
packed leaf rows the search reads against per-record float64 columns."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dual import DualPoint, DualSpace
from repro.core.nodes import (
    INVALID_RID,
    LeafExtension,
    LeafNode,
    NodeCodec,
    NonLeafNode,
)
from repro.core.quadtree import DualQuadTree, QuadTreeConfig
from repro.core.query_region import build_query_regions
from repro.query.types import MovingQuery, TimeSliceQuery, WindowQuery
from repro.storage.buffer_pool import BufferPool
from repro.storage.node_store import MAX_SLOTS_PER_PAGE, RecordStore
from repro.storage.page import PAGE_SIZE
from repro.storage.pagefile import InMemoryPageFile


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
            rows=codec.pack(data.draw(dual_points(d))),
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
        ext = LeafExtension(rows=codec.pack(data.draw(dual_points(2))),
                            overflow=data.draw(
                                st.sampled_from([INVALID_RID, 77])))
        back = codec.deserialize(codec.serialize(ext))
        assert back == ext

    def test_float32_round_trip_rounds_coordinates(self):
        import numpy as np
        codec = NodeCodec(2, float32=True)
        value = 123.456789
        leaf = LeafNode(0, (0.0, 0.0), (0.0, 0.0),
                        codec.pack([DualPoint(1, (value, 0.0), (value, 0.0))]))
        back = codec.deserialize(codec.serialize(leaf))
        assert codec.points(back.rows)[0].v[0] == float(np.float32(value))

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


class TestDecodeAnyBuffer:
    """``deserialize(serialize(n)) == n`` for every record kind, for
    d = 1, 2, 3 (is-leaf masks of 1, 2 and 8 bytes) in both float
    widths, whatever bytes-like object holds the record: ``bytes``, a
    ``bytearray`` or a ``memoryview`` slice of a larger buffer, each
    followed by the undefined tail a record slot leaves after its
    payload -- and decoded in place, at the record's offset in a
    page-size frame, as the node cache decodes it."""

    @staticmethod
    def node(data, kind, d, float32):
        coord = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
                          width=32 if float32 else 64)
        corner = st.tuples(*[coord] * d)
        fanout = 4 ** d
        if kind == "nonleaf":
            return NonLeafNode(
                level=data.draw(st.integers(0, 60)),
                v_corner=data.draw(corner), p_corner=data.draw(corner),
                children=data.draw(st.lists(
                    st.integers(-1, 2**62), min_size=fanout,
                    max_size=fanout)),
                child_is_leaf=data.draw(st.lists(
                    st.booleans(), min_size=fanout, max_size=fanout)),
                size=data.draw(st.integers(0, 2**32 - 1)))
        rows = NodeCodec(d, float32).pack(
            data.draw(layout_points(d, float32, max_size=12)))
        overflow = data.draw(st.sampled_from([INVALID_RID, 0, 2**40]))
        if kind == "leaf":
            return LeafNode(data.draw(st.integers(0, 60)),
                            data.draw(corner), data.draw(corner),
                            rows, overflow)
        return LeafExtension(rows, overflow)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["nonleaf", "leaf", "extension"]),
           d=st.integers(min_value=1, max_value=3), float32=st.booleans(),
           lead=st.integers(min_value=0, max_value=9), data=st.data())
    def test_round_trip_from_any_buffer(self, kind, d, float32, lead,
                                        data):
        codec = NodeCodec(d, float32=float32)
        node = self.node(data, kind, d, float32)
        raw = codec.serialize(node) + b"\xa5" * 7
        framed = bytearray(b"\x5a" * lead + raw + b"\x5a" * 5)
        buffers = [bytes(raw), bytearray(raw),
                   memoryview(framed)[lead: lead + len(raw)]]
        decoded = [codec.deserialize(buf) for buf in buffers]
        for back in decoded:
            assert back == node
            if kind != "extension":
                assert type(back.v_corner) is tuple
                assert type(back.p_corner) is tuple
            if kind == "nonleaf":
                assert type(back.children) is list
                assert type(back.child_is_leaf) is list
                assert len(back.child_is_leaf) == 4 ** d
                assert all(type(f) is bool for f in back.child_is_leaf)
            else:
                assert type(back.rows) is bytes
        assert decoded[0] == decoded[1] == decoded[2]
        framed[:] = b"\x00" * len(framed)  # a decode keeps no view
        assert decoded[2] == node

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["nonleaf", "leaf", "extension"]),
           d=st.integers(min_value=1, max_value=3), float32=st.booleans(),
           data=st.data())
    def test_in_place_decode_equals_copied_slot(self, kind, d, float32,
                                               data):
        """A record decoded where it sits in a frame -- a non-zero
        offset, other bytes before it and after it -- equals the record
        decoded from a copy of its slot, and stays equal after the
        frame is overwritten in place (its rows are ``bytes`` of their
        own)."""
        codec = NodeCodec(d, float32=float32)
        node = self.node(data, kind, d, float32)
        raw = codec.serialize(node)
        offset = data.draw(st.integers(1, PAGE_SIZE - len(raw) - 1),
                           label="offset")
        frame = bytearray(random.Random(data.draw(
            st.integers(0, 2**32), label="fill")).randbytes(PAGE_SIZE))
        frame[offset: offset + len(raw)] = raw
        slot = bytes(frame[offset:])  # the record and the frame's tail
        in_place = codec.deserialize(frame, offset)
        from_view = codec.deserialize(memoryview(frame), offset)
        copied = codec.deserialize(slot)
        assert in_place == from_view == copied == node
        if kind != "nonleaf":
            assert type(in_place.rows) is bytes
            assert type(from_view.rows) is bytes
            rows = node.rows
        frame[:] = b"\xff" * PAGE_SIZE
        assert in_place == from_view == node
        if kind != "nonleaf":
            assert in_place.rows == from_view.rows == rows


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


def reference_columns(entries, d):
    """Reference float64 ``(oids, vs, ps)`` columns built from
    :class:`DualPoint` objects, which the columns a search reads from
    packed rows must equal byte for byte."""
    n = len(entries)
    if n == 0:
        return (np.empty(0, dtype=np.int64),
                np.empty((0, d), dtype=np.float64),
                np.empty((0, d), dtype=np.float64))
    return (np.fromiter((e.oid for e in entries), dtype=np.int64, count=n),
            np.array([e.v for e in entries], dtype=np.float64),
            np.array([e.p for e in entries], dtype=np.float64))


def assert_columns_equal(got, want):
    """Bit-for-bit equality of two ``(oids, vs, ps)`` triples: dtype,
    shape and bytes."""
    for name, a, b in zip(("oids", "vs", "ps"), got, want):
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
    """Leaf and extension records hold their entries as packed rows --
    decoding keeps a slice of the record, serializing writes the rows
    -- and a search reads them as columns; ``DualPoint`` lists are only
    decoded on request (:meth:`NodeCodec.points`)."""

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(min_value=1, max_value=3), float32=st.booleans(),
           data=st.data())
    def test_leaf_and_extension_columns(self, d, float32, data):
        codec = NodeCodec(d, float32)
        entries = data.draw(layout_points(d, float32))
        overflow = data.draw(st.sampled_from([INVALID_RID, 5, 2**40]))
        if data.draw(st.booleans()):
            record = LeafNode(3, (0.0,) * d, (1.0,) * d,
                              codec.pack(entries), overflow)
        else:
            record = LeafExtension(codec.pack(entries), overflow)
        raw = codec.serialize(record)
        assert raw.endswith(record.rows)
        back = codec.deserialize(raw)
        assert type(back) is type(record)
        assert type(back.rows) is bytes
        assert len(back.rows) == len(entries) * codec.entry_size
        assert back.overflow == overflow
        assert back.rows == record.rows
        assert_columns_equal(codec.columns(back.rows),
                             reference_columns(entries, d))
        assert_plain_entries(codec.points(back.rows), entries)
        assert back == record

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(min_value=1, max_value=3), float32=st.booleans(),
           data=st.data())
    def test_overflow_chain_columns(self, d, float32, data):
        """A leaf plus its extension chain, each record decoded on its
        own, joins to the rows of the whole entry list.  Small records
        keep the drawn chains short."""
        codec = NodeCodec(d, float32)
        leaf_cap = codec.leaf_capacity(RECORD_BYTES)
        ext_cap = codec.extension_capacity(RECORD_BYTES)
        entries = data.draw(layout_points(
            d, float32, min_size=leaf_cap,
            max_size=leaf_cap + 2 * ext_cap + 3))
        chunks = [entries[:leaf_cap]] + [
            entries[i: i + ext_cap]
            for i in range(leaf_cap, len(entries), ext_cap)]
        records = [LeafNode(20, (0.0,) * d, (0.0,) * d,
                            codec.pack(chunks[0]),
                            1 if len(chunks) > 1 else INVALID_RID)]
        for k, chunk in enumerate(chunks[1:], start=2):
            records.append(LeafExtension(
                codec.pack(chunk), k if k < len(chunks) else INVALID_RID))
        decoded = [codec.deserialize(codec.serialize(rec))
                   for rec in records]
        for rec, chunk in zip(decoded, chunks):
            assert len(codec.serialize(rec)) <= RECORD_BYTES
            assert_columns_equal(codec.columns(rec.rows),
                                 reference_columns(chunk, d))
        assert [rec.overflow for rec in decoded] \
            == [rec.overflow for rec in records]
        joined = b"".join(rec.rows for rec in decoded)
        assert_columns_equal(codec.columns(joined),
                             reference_columns(entries, d))
        assert_plain_entries(codec.points(joined), entries)

    def test_empty_records(self):
        for float32 in (False, True):
            codec = NodeCodec(2, float32)
            for record in (LeafNode(0, (0.0, 0.0), (0.0, 0.0)),
                           LeafExtension()):
                back = codec.deserialize(codec.serialize(record))
                assert back.rows == b""
                assert_columns_equal(codec.columns(back.rows),
                                     reference_columns([], 2))
                assert codec.points(back.rows) == []


def leaf_records(tree):
    """``rid -> record`` of every leaf and extension of ``tree``."""
    out = {}
    stack = [(tree._root_rid, tree._root_is_leaf)]
    while stack:
        rid, is_leaf = stack.pop()
        node = tree.cache.get(rid)
        if not is_leaf:
            stack.extend((node.children[idx], node.child_is_leaf[idx])
                         for idx in node.present_children())
            continue
        while True:
            out[rid] = node
            rid = node.overflow
            if rid == INVALID_RID:
                break
            node = tree.cache.get(rid)
    return out


def reference_search(codec, regions, parts, lit):
    """Reference kernel pass over per-part float64 columns built from
    each part's decoded entries: concatenate, test every plane on every
    row, force the rows of the lit spans (``(start, end)`` indexes into
    ``parts``)."""
    d = codec.d
    columns = [reference_columns(codec.points(part), d) for part in parts]
    if not columns:
        return reference_columns([], d)
    oids, vs, ps = (np.concatenate([c[k] for c in columns])
                    for k in range(3))
    lit_parts = {k for start, end in lit for k in range(start, end)}
    if len(lit_parts) == len(parts):
        return oids, vs, ps
    mask = regions[0].contains_batch(vs[:, 0], ps[:, 0])
    for i in range(1, d):
        mask &= regions[i].contains_batch(vs[:, i], ps[:, i])
    off = 0
    for k, c in enumerate(columns):
        if k in lit_parts:
            mask[off: off + len(c[0])] = True
        off += len(c[0])
    return oids[mask], vs[mask], ps[mask]


def random_lit_spans(rng, n_parts):
    """Disjoint ascending ``(start, end)`` spans over ``n_parts`` parts,
    each with a pending part on both sides when there is room."""
    spans = []
    k = 1
    while k < n_parts - 1:
        end = min(k + rng.randint(1, 3), n_parts - 1)
        spans.append((k, end))
        k = end + rng.randint(1, 3)
    return spans


class TestPackedRowSearch:
    """Differential: ``search_columns`` over packed rows must be
    byte-equal to a kernel pass over per-record float64 columns, over a
    mix of records decoded from bytes, kept from writing, and whose rows
    changed in memory after writing (grown, shrunk, replaced), with
    overflow chains and all-INSIDE (lit) subtrees.

    The descent hands :meth:`DualQuadTree._filter_rows` a list of packed
    row parts and lit spans over it; the reference takes the same
    hand-off.  The hand-off is also driven directly with lit spans
    placed between pending parts, and with every part lit, and a search
    of a query body covering the whole space reports every subtree
    lit."""

    ACTIONS = ("decoded", "serialized", "grown", "shrunk", "replaced")

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(min_value=1, max_value=3), float32=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           data=st.data())
    def test_search_equals_per_record_columns(self, d, float32, seed,
                                              data):
        rng = random.Random(seed)
        space = DualSpace(vmax=(3.0,) * d, pmax=(100.0,) * d,
                          lifetime=10.0, float32=float32)
        # Small records and a depth cap: several levels of small leaves
        # and, for the clustered points, overflow chains.
        tree = DualQuadTree(
            space, RecordStore(BufferPool(InMemoryPageFile(),
                                          capacity=4096)),
            QuadTreeConfig(leaf_size_ladder=(RECORD_BYTES, 800),
                           max_depth=2))

        def point(oid):
            coords = [rng.uniform(0.0, e) for e in
                      space.velocity_extent + space.position_extent]
            if float32:
                coords = [float(np.float32(x)) for x in coords]
            return DualPoint(oid, tuple(coords[:d]), tuple(coords[d:]))

        points = [point(oid) for oid in range(rng.randint(50, 400))]
        cluster = points[0]
        points += [cluster._replace(oid=10_000 + k)
                   for k in range(data.draw(st.integers(0, 60)))]
        tree.insert_batch(points[::2])
        tree.insert_batch(points[1::2])
        frames = tree.store.pool._frames
        codec = tree.codec
        size = codec.entry_size
        oid = 20_000
        for rid, rec in leaf_records(tree).items():
            action = data.draw(st.sampled_from(self.ACTIONS))
            if action == "decoded":
                frames[rid // MAX_SLOTS_PER_PAGE].decoded.pop(rid)
            elif action == "grown":
                rec.rows += codec.pack([point(oid)])
                oid += 1
            elif action == "shrunk" and rec.rows:
                k = rng.randrange(len(rec.rows) // size)
                rec.rows = rec.rows[:k * size] + rec.rows[(k + 1) * size:]
            elif action == "replaced":
                rec.rows = codec.pack([point(oid + k)
                                       for k in range(rng.randint(0, 5))])
                oid += 5
        handoffs = []
        filter_rows = tree._filter_rows

        def spy(regions, parts, lit, trace=None):
            handoffs.append((list(parts), list(lit)))
            return filter_rows(regions, parts, lit, trace)

        tree._filter_rows = spy
        for _ in range(4):
            t = rng.uniform(0.0, 10.0)
            span = rng.choice((10.0, 60.0, 400.0))
            lo = tuple(rng.uniform(-span / 2, 100.0) for _ in range(d))
            hi = tuple(x + span for x in lo)
            query = rng.choice((
                TimeSliceQuery(lo, hi, t),
                WindowQuery(lo, hi, t, t + rng.uniform(0.1, 5.0)),
                MovingQuery(lo, hi, tuple(x + 5.0 for x in lo),
                            tuple(x + 5.0 for x in hi), t, t + 2.0)))
            regions = build_query_regions(query.as_moving(), space.vmax,
                                          space.lifetime, space.t_ref)
            got = tree.search_columns(regions)
            assert_columns_equal(
                got, reference_search(codec, regions, *handoffs[-1]))
            # The same rows with lit spans between pending ones, and all
            # of them lit.
            parts = [rec.rows for rec in leaf_records(tree).values()]
            for lit in (random_lit_spans(rng, len(parts)),
                        [(0, len(parts))]):
                assert_columns_equal(
                    filter_rows(regions, parts, lit),
                    reference_search(codec, regions, parts, lit))
        everything = TimeSliceQuery((-1e6,) * d, (1e6,) * d, 5.0)
        regions = build_query_regions(everything.as_moving(), space.vmax,
                                      space.lifetime, space.t_ref)
        got = tree.search_columns(regions)
        parts, lit = handoffs[-1]
        if not tree._root_is_leaf:
            assert [k for start, end in lit for k in range(start, end)] \
                == list(range(len(parts)))
        assert_columns_equal(got, reference_search(codec, regions, parts,
                                                   lit))
        assert len(got[0]) == sum(len(rec.rows) // size for rec in
                                  leaf_records(tree).values())


class TestCheckGuardsPackedRows:
    """``check()`` compares every record's rows with the rows on its
    page, so rows edited but never written fail the checker, not only
    the answers."""

    @staticmethod
    def _tree():
        space = DualSpace(vmax=(3.0, 3.0), pmax=(100.0, 100.0),
                          lifetime=10.0)
        tree = DualQuadTree(space, RecordStore(BufferPool(
            InMemoryPageFile(), capacity=64)))
        rng = random.Random(3)
        tree.insert_batch([
            DualPoint(oid,
                      tuple(rng.uniform(0.0, e)
                            for e in space.velocity_extent),
                      tuple(rng.uniform(0.0, e)
                            for e in space.position_extent))
            for oid in range(300)])
        assert tree.check() == []
        return tree

    @pytest.mark.parametrize("edit", ["remove", "append"])
    def test_unwritten_row_edit_fails_check(self, edit):
        """Writes edit a record's rows; rows edited but never written
        differ from the page and fail the checker."""
        tree = self._tree()
        rid, rec = next((rid, rec) for rid, rec in leaf_records(tree).items()
                        if rec.rows)
        first = tree.codec.points(rec.rows)[0]
        if edit == "remove":
            rec.rows, flags = tree.codec.remove_rows(rec.rows, [first])
            assert flags == [True]
        else:
            rec.rows += tree.codec.pack([first._replace(oid=-1)])
        assert (f"record {rid} keeps packed rows that differ from its page"
                in tree.check())


class TestCheckGuardsNonLeaves:
    """``check()`` compares every decoded non-leaf with its page -- its
    ``size``, child slots and is-leaf mask -- as it compares leaf rows:
    a write descent edits the decoded node and then writes the whole
    record or the ``size`` field alone, so an edit never written fails
    the checker."""

    @staticmethod
    def _nonleaf(tree):
        rid = tree._root_rid
        assert not tree._root_is_leaf
        return rid, tree.cache.get(rid)

    def test_unwritten_size_edit_fails_check(self):
        tree = TestCheckGuardsPackedRows._tree()
        rid, node = self._nonleaf(tree)
        node.size += 1
        assert (f"non-leaf {rid} keeps a size or child slots that differ "
                f"from its page" in tree.check())

    @pytest.mark.parametrize("edit", ["child", "mask"])
    def test_unwritten_link_edit_fails_check(self, edit):
        tree = TestCheckGuardsPackedRows._tree()
        rid, node = self._nonleaf(tree)
        idx = node.present_children()[0]
        if edit == "child":
            node.children[idx] = INVALID_RID
        else:
            node.child_is_leaf[idx] = not node.child_is_leaf[idx]
        assert (f"non-leaf {rid} keeps a size or child slots that differ "
                f"from its page" in tree.check())

    def test_written_size_field_passes_check(self):
        """The field write makes the page agree again."""
        tree = TestCheckGuardsPackedRows._tree()
        rid, node = self._nonleaf(tree)
        before = tree.check()
        node.size += 1
        tree.cache.write_field(rid, node, tree.codec.size_field)
        # Only the subtree count disagrees now, not the page.
        problems = tree.check()
        assert not any("differ from its page" in p for p in problems)
        node.size -= 1
        tree.cache.write_field(rid, node, tree.codec.size_field)
        assert tree.check() == before == []
