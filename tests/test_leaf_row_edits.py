"""Leaf writes edit packed rows: differential tests against entry lists.

A leaf or extension record holds its entries only as packed rows.  An
insert into a leaf with room appends the group's packed rows, a delete
splices rows out (:meth:`NodeCodec.remove_rows`), and promotions,
overflow chains, splits and collapses join, slice and partition rows.
These tests run random writes against a reference that keeps
``DualPoint`` lists instead -- ``extend`` for inserts, :func:`find_entry`
+ ``pop`` for deletes, and :class:`ListTree`, the whole write descent on
lists -- and require the same removed flags, the same records created in
the same order, and rows byte-equal to packing the reference lists, for
d = 1, 2, 3 and both coordinate layouts.  A counted index update then
checks that a write to a chainless leaf decoded from its page neither
decodes a list nor packs more than the new rows.
"""

from __future__ import annotations

import math
import random
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dual import DualPoint, DualSpace
from repro.core.nodes import LeafExtension, LeafNode, NodeCodec, NonLeafNode
from repro.core.quadtree import DualQuadTree, QuadTreeConfig
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import MovingObjectState
from repro.storage.buffer_pool import BufferPool
from repro.storage.node_store import RecordStore
from repro.storage.pagefile import InMemoryPageFile

# Inserted points take oids 0-5 and deleted ones 0-7, so records and
# groups hold duplicate oids and some deletes miss.
INSERT_OIDS = st.integers(min_value=0, max_value=5)
DELETE_OIDS = st.integers(min_value=0, max_value=7)


def find_entry(entries, point):
    """Position of the entry a delete of ``point`` removes from a list:
    the first equal in ``(oid, v, p)``, else the first with its oid,
    else None."""
    for i, entry in enumerate(entries):
        if (entry.oid == point.oid and entry.v == point.v
                and entry.p == point.p):
            return i
    for i, entry in enumerate(entries):
        if entry.oid == point.oid:
            return i
    return None


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


@settings(max_examples=200, deadline=None)
@given(d=st.integers(min_value=1, max_value=3), float32=st.booleans(),
       start=st.sampled_from(["decoded", "in_memory", "extension"]),
       data=st.data())
def test_row_edits_match_list_reference(d, float32, start, data):
    codec = NodeCodec(d, float32)
    reference = data.draw(points(d, float32, INSERT_OIDS, 12))
    if start == "extension":
        record = LeafExtension(codec.pack(reference))
    else:
        record = LeafNode(4, (0.0,) * d, (1.0,) * d, codec.pack(reference))
    if start != "in_memory":
        record = codec.deserialize(codec.serialize(record))
    reference = list(reference)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        kind = data.draw(st.sampled_from(["insert", "delete", "empty"]))
        if kind == "insert":
            group = data.draw(points(d, float32, INSERT_OIDS, 6))
            record.rows += codec.pack(group)
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
            rows = record.rows
            record.rows, flags = codec.remove_rows(rows, group)
            want = []
            for target in group:
                pos = find_entry(reference, target)
                if pos is not None:
                    reference.pop(pos)
                want.append(pos is not None)
            assert flags == want
            if not any(flags):
                assert record.rows is rows
            if kind == "empty":
                assert reference == []
        assert record.rows == codec.pack(reference)
        assert codec.points(record.rows) == reference
        back = codec.deserialize(codec.serialize(record))
        assert back.rows == codec.pack(reference)


# --------------------------------------------------------------------- #
# remove_rows: the bytes scan against a list reference
# --------------------------------------------------------------------- #

#: Oids of the remove_rows test: small ones, and one whose packed bytes
#: fill every byte of a float64 (none of them is a NaN bit pattern).
SCAN_OIDS = [0, 1, 2, 5, 0x3FF0_0000_0000_0001]


def oid_coordinates(oid, float32):
    """Coordinates whose packed bytes hold ``oid``'s packed bytes: a
    float64 with the oid's bit pattern, or the two float32 halves."""
    key = struct.pack("<q", oid)
    if float32:
        return list(struct.unpack("<2f", key))
    return [struct.unpack("<d", key)[0]]


def scan_entry(d, float32):
    """An entry whose coordinates often embed a packed oid (so the oid's
    bytes occur inside rows, off the row grid), recur, or are signed
    zeros."""
    def build(oid, parts):
        coords = [x for part in parts for x in part][: 2 * d]
        coords += [0.0] * (2 * d - len(coords))
        return DualPoint(oid, tuple(coords[:d]), tuple(coords[d:]))

    scalar = st.sampled_from([0.0, -0.0, 1.5, -3.0]) | st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False,
        width=32 if float32 else 64)
    part = (st.sampled_from(SCAN_OIDS).map(
        lambda oid: oid_coordinates(oid, float32))
        | scalar.map(lambda x: [x]))
    return st.builds(build, st.sampled_from(SCAN_OIDS),
                     st.lists(part, min_size=2 * d, max_size=2 * d))


def drifted(target, how):
    """``target`` as stale caller state sees it: exact, one coordinate
    nudged by a rounding step, or its zeros flipped in sign."""
    if how == "exact":
        return target
    coords = list(target.v + target.p)
    if how == "drift":
        coords[0] = math.nextafter(coords[0], math.inf)
    else:
        coords = [-x if x == 0.0 else x for x in coords]
    d = len(target.v)
    return DualPoint(target.oid, tuple(coords[:d]), tuple(coords[d:]))


@settings(max_examples=150, deadline=None)
@given(d=st.integers(min_value=1, max_value=3), float32=st.booleans(),
       data=st.data())
def test_remove_rows_matches_list_reference(d, float32, data):
    """The bytes scan removes, for each point in turn, the first present
    row equal in ``(oid, v, p)``, else the first row of its oid, else
    nothing -- also when an oid's bytes occur inside another row's
    coordinates, when oids repeat, when coordinates drifted by rounding
    or differ only in the sign of a zero."""
    codec = NodeCodec(d, float32)
    entries = data.draw(st.lists(scan_entry(d, float32), max_size=14))
    rows = codec.pack(entries)
    reference = codec.points(rows)
    targets = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        if reference and data.draw(st.booleans()):
            target = drifted(data.draw(st.sampled_from(reference)),
                             data.draw(st.sampled_from(
                                 ["exact", "drift", "zeros"])))
        else:
            target = data.draw(scan_entry(d, float32))
        targets.append(target)
    left, flags = codec.remove_rows(rows, targets)
    want = []
    for target in targets:
        pos = find_entry(reference, target)
        if pos is not None:
            reference.pop(pos)
        want.append(pos is not None)
    assert flags == want
    assert left == codec.pack(reference)
    if not any(flags):
        assert left is rows


def test_remove_rows_skips_an_oid_inside_coordinates():
    """An oid's packed bytes inside an earlier row's coordinates are not
    a row: the delete takes the row that starts with them."""
    for d, float32 in ((1, False), (2, True), (3, False)):
        codec = NodeCodec(d, float32)
        key = oid_coordinates(7, float32)
        coords = (key + [2.0] * (2 * d))[: 2 * d]
        decoy = DualPoint(1, tuple(coords[:d]), tuple(coords[d:]))
        target = DualPoint(7, (0.5,) * d, (0.25,) * d)
        rows = codec.pack([decoy, target])
        assert rows.find(struct.pack("<q", 7)) < codec.entry_size
        left, flags = codec.remove_rows(rows, [target._replace(v=(9.0,) * d)])
        assert flags == [True]
        assert left == codec.pack([decoy])


# --------------------------------------------------------------------- #
# The write descent against a list reference
# --------------------------------------------------------------------- #

class RefLeaf:
    def __init__(self, level, v_corner, p_corner, rung, entries):
        self.level = level
        self.v_corner = v_corner
        self.p_corner = p_corner
        self.rung = rung
        self.entries = entries


class RefNonLeaf:
    def __init__(self, level, v_corner, p_corner, size):
        self.level = level
        self.v_corner = v_corner
        self.p_corner = p_corner
        self.size = size
        self.children = {}


class ListTree:
    """The quadtree write descent over ``DualPoint`` lists.

    Each leaf is one list -- its record plus its overflow chain -- on a
    rung of the leaf ladder.  Inserts and deletes partition a group by
    Eq. 1 (``tree._child_index``) in ascending child order; a split or a
    collapse rebuilds a subtree from one list, creating children in the
    order their first entry appears (``dict.setdefault``).  ``created``
    logs every record it creates, in order, as the real tree's
    ``NodeCache.insert`` calls are logged by :func:`record_creations`.
    """

    def __init__(self, tree):
        self.tree = tree
        origin = (0.0,) * tree.d
        self.root = RefLeaf(0, origin, origin, 0, [])
        self.created = []
        self.counts = {"leaf_splits": 0, "leaf_promotions": 0,
                       "collapses": 0, "overflow_spills": 0}

    # Record creation ------------------------------------------------- #

    def new_leaf(self, level, v_corner, p_corner, rung, entries):
        self.created.append(("leaf", level, v_corner, p_corner,
                             self.tree.leaf_ladder[rung]))
        return RefLeaf(level, v_corner, p_corner, rung, entries)

    def write_chain(self, leaf, entries):
        """Extensions a chain rewrite creates: the entries past the
        leaf's ``large_capacity``, last chunk first."""
        leaf.entries = entries
        rest = entries[self.tree.large_capacity:]
        step = self.tree.ext_capacity
        for start in range((len(rest) // step) * step, -1, -step):
            chunk = rest[start: start + step]
            if chunk:
                self.created.append(("ext", len(chunk)))

    def build(self, level, v_corner, p_corner, entries):
        tree = self.tree
        for rung, capacity in enumerate(tree.leaf_capacities):
            if len(entries) <= capacity:
                return self.new_leaf(level, v_corner, p_corner, rung,
                                     entries)
        top = len(tree.leaf_ladder) - 1
        if level >= tree.config.max_depth:
            leaf = self.new_leaf(level, v_corner, p_corner, top, [])
            self.write_chain(leaf, entries)
            return leaf
        node = RefNonLeaf(level, v_corner, p_corner, len(entries))
        groups = {}
        for entry in entries:
            groups.setdefault(tree._child_index(node, entry),
                              []).append(entry)
        for idx, group in groups.items():
            cv, cp = tree._child_corner(node, idx)
            node.children[idx] = self.build(level + 1, cv, cp, group)
        self.created.append(("nonleaf", level, v_corner, p_corner))
        return node

    # Insert ---------------------------------------------------------- #

    def partition(self, node, points):
        groups = {}
        for j, p in enumerate(points):
            groups.setdefault(self.tree._child_index(node, p), []).append(j)
        return sorted(groups.items())

    def insert_batch(self, points):
        if isinstance(self.root, RefLeaf):
            self.root = self.leaf_insert(self.root, points)
        else:
            self.insert(self.root, points)

    def insert(self, node, points):
        node.size += len(points)
        for idx, rows in self.partition(node, points):
            group = [points[j] for j in rows]
            child = node.children.get(idx)
            if child is None:
                cv, cp = self.tree._child_corner(node, idx)
                node.children[idx] = self.build(node.level + 1, cv, cp,
                                                group)
            elif isinstance(child, RefLeaf):
                node.children[idx] = self.leaf_insert(child, group)
            else:
                self.insert(child, group)

    def leaf_insert(self, leaf, points):
        tree = self.tree
        capacities = tree.leaf_capacities
        chained = len(leaf.entries) > tree.large_capacity
        if (not chained
                and len(leaf.entries) + len(points) <= capacities[leaf.rung]):
            leaf.entries = leaf.entries + points
            return leaf
        entries = leaf.entries + points
        for rung in range(leaf.rung + 1, len(capacities)):
            if len(entries) <= capacities[rung]:
                self.counts["leaf_promotions"] += 1
                return self.new_leaf(leaf.level, leaf.v_corner,
                                     leaf.p_corner, rung, entries)
        if leaf.level >= tree.config.max_depth:
            top = len(capacities) - 1
            if leaf.rung != top:
                self.counts["leaf_promotions"] += 1
                leaf = self.new_leaf(leaf.level, leaf.v_corner,
                                     leaf.p_corner, top, [])
            self.write_chain(leaf, entries)
            self.counts["overflow_spills"] += 1
            return leaf
        self.counts["leaf_splits"] += 1
        return self.build(leaf.level, leaf.v_corner, leaf.p_corner, entries)

    # Delete ---------------------------------------------------------- #

    def delete_batch(self, points):
        flags = [False] * len(points)
        idxs = list(range(len(points)))
        if isinstance(self.root, RefLeaf):
            self.leaf_delete(self.root, points, idxs, flags)
            return flags
        _, underfilled = self.delete(self.root, points, idxs, flags)
        if underfilled is not None:
            self.root = self.collapse(underfilled)
        return flags

    def delete(self, node, points, idxs, flags):
        removed = 0
        underfilled_children = []
        for idx, rows in self.partition(node, points):
            child = node.children.get(idx)
            if child is None:
                continue
            group = [points[j] for j in rows]
            gidxs = [idxs[j] for j in rows]
            if isinstance(child, RefLeaf):
                removed += self.leaf_delete(child, group, gidxs, flags)
                continue
            r, underfilled = self.delete(child, group, gidxs, flags)
            removed += r
            if underfilled is not None:
                underfilled_children.append(idx)
        if not removed:
            return 0, None
        node.size -= removed
        if node.size <= self.tree.collapse_capacity:
            return removed, node
        for idx in underfilled_children:
            node.children[idx] = self.collapse(node.children[idx])
        return removed, None

    def leaf_delete(self, leaf, points, idxs, flags):
        chained = len(leaf.entries) > self.tree.large_capacity
        removed = 0
        for p, j in zip(points, idxs):
            pos = find_entry(leaf.entries, p)
            if pos is not None:
                leaf.entries.pop(pos)
                flags[j] = True
                removed += 1
        if removed and chained:
            self.write_chain(leaf, leaf.entries)
        return removed

    def collapse(self, node):
        self.counts["collapses"] += 1
        return self.build(node.level, node.v_corner, node.p_corner,
                          self.entries(node))

    def entries(self, node):
        if isinstance(node, RefLeaf):
            return list(node.entries)
        return [e for idx in sorted(node.children)
                for e in self.entries(node.children[idx])]

    # Shape ----------------------------------------------------------- #

    def shape(self, node=None):
        """The tree as nested tuples, comparable with :func:`tree_shape`."""
        node = self.root if node is None else node
        if isinstance(node, RefLeaf):
            tree = self.tree
            head = node.entries[:tree.large_capacity]
            rest = node.entries[tree.large_capacity:]
            chain = [len(head)] + [
                len(rest[i: i + tree.ext_capacity])
                for i in range(0, len(rest), tree.ext_capacity)]
            return ("leaf", node.level, node.v_corner, node.p_corner,
                    tree.leaf_ladder[node.rung], chain,
                    tree.codec.pack(node.entries))
        return ("nonleaf", node.level, node.v_corner, node.p_corner,
                node.size, {idx: self.shape(child)
                            for idx, child in node.children.items()})


def tree_shape(tree, rid=None, is_leaf=None):
    """A :class:`DualQuadTree` as the nested tuples of
    :meth:`ListTree.shape`: per leaf its rung, the entry count of each
    record of its chain and the rows of the whole chain."""
    if rid is None:
        rid, is_leaf = tree._root_rid, tree._root_is_leaf
    node = tree.cache.get(rid)
    size = tree.codec.entry_size
    if is_leaf:
        chain = [len(node.rows) // size]
        ext_rid = node.overflow
        while ext_rid != -1:
            ext = tree.cache.get(ext_rid)
            chain.append(len(ext.rows) // size)
            ext_rid = ext.overflow
        return ("leaf", node.level, node.v_corner, node.p_corner,
                tree.store.record_size_of(rid), chain, tree._leaf_rows(node))
    return ("nonleaf", node.level, node.v_corner, node.p_corner, node.size,
            {idx: tree_shape(tree, node.children[idx],
                             node.child_is_leaf[idx])
             for idx in node.present_children()})


def record_creations(tree):
    """Log every record ``tree`` creates from now on, as
    :class:`ListTree` logs its own."""
    created = []
    insert = tree.cache.insert

    def logged(record_size, node):
        if type(node) is LeafNode:
            created.append(("leaf", node.level, node.v_corner,
                            node.p_corner, record_size))
        elif type(node) is NonLeafNode:
            created.append(("nonleaf", node.level, node.v_corner,
                            node.p_corner))
        else:
            created.append(("ext", len(node.rows) // tree.codec.entry_size))
        return insert(record_size, node)

    tree.cache.insert = logged
    return created


#: Small leaf ladders, so a few hundred points promote, split, spill and
#: collapse.  The dual space's extents (4 and 96 per plane) are dyadic
#: multiples, so every quad corner is exact in both coordinate layouts.
LADDERS = [(256, 512), (256, 384, 640), (512,)]


@settings(max_examples=80, deadline=None)
@given(d=st.integers(min_value=1, max_value=3), float32=st.booleans(),
       ladder=st.sampled_from(LADDERS),
       max_depth=st.integers(min_value=1, max_value=3),
       collapse_capacity=st.sampled_from([None, 40]),
       pool_pages=st.sampled_from([8, 4096]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       ops=st.lists(st.tuples(st.sampled_from(["insert", "delete"]),
                              st.sampled_from([1, 3, 9, 40])),
                    min_size=1, max_size=14))
def test_tree_writes_match_list_reference(d, float32, ladder, max_depth,
                                          collapse_capacity, pool_pages,
                                          seed, ops):
    """Promotions, spills and chain rewrites, splits (children created in
    first-appearance order), deletes from chains and collapses leave
    the tree holding, record by record, the rows the list reference
    holds, created in the same order."""
    rng = random.Random(seed)
    space = DualSpace(vmax=(2.0,) * d, pmax=(64.0,) * d, lifetime=8.0,
                      float32=float32)
    tree = DualQuadTree(
        space, RecordStore(BufferPool(InMemoryPageFile(),
                                      capacity=pool_pages)),
        QuadTreeConfig(leaf_size_ladder=ladder, max_depth=max_depth,
                       collapse_capacity=collapse_capacity))
    reference = ListTree(tree)
    created = record_creations(tree)
    extents = space.velocity_extent + space.position_extent

    def coordinate(extent):
        # A quad boundary now and then, to exercise Eq. 1's ">=".
        if rng.random() < 0.2:
            return extent * rng.randrange(16) / 16
        x = rng.uniform(0.0, extent)
        return float(np.float32(x)) if float32 else x

    def new_point(oid):
        coords = [coordinate(e) for e in extents]
        return DualPoint(oid, tuple(coords[:d]), tuple(coords[d:]))

    # Points coincident with ``hot`` pile up in one maximum-depth leaf
    # and spill into its overflow chain.
    hot = new_point(-1)
    next_oid = 0
    for kind, n in ops:
        if kind == "insert":
            group = []
            for _ in range(n):
                if rng.random() < 0.4:
                    group.append(hot._replace(oid=next_oid))
                else:
                    group.append(new_point(next_oid))
                next_oid += 1
            tree.insert_batch(group)
            reference.insert_batch(list(group))
        else:
            live = reference.entries(reference.root)
            group = []
            for _ in range(n):
                roll = rng.random()
                if live and roll < 0.7:
                    group.append(rng.choice(live))
                elif live and roll < 0.85:
                    # Drifted coordinates: deleted by oid.
                    group.append(new_point(rng.choice(live).oid))
                else:
                    group.append(new_point(next_oid + 10_000))
            assert tree.delete_batch(group) == reference.delete_batch(group)
        assert created == reference.created
    assert tree_shape(tree) == reference.shape()
    for name, count in reference.counts.items():
        assert getattr(tree.counters, name) == count, name
    assert tree.count == len(reference.entries(reference.root))
    assert tree.check() == []


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
    unpack, pack = NodeCodec.points, NodeCodec.pack

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

    monkeypatch.setattr(NodeCodec, "points", counted_unpack)
    monkeypatch.setattr(NodeCodec, "pack", counted_pack)
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
