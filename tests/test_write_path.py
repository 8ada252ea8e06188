"""Equivalence tests for the vectorized write path.

The write-path work (batch dual transform, grouped quadtree
inserts/deletes, run-netted batched updates, write-coalescing storage) is
only admissible because every batched operation promises *query
equivalence* with sequential replay: the same entries, the same leaf
membership, the same answers to every query -- split/promotion event
counts may differ, results may not.  The quadtree has one write descent,
so sequential replay means one-point writes, each a group of one; and a
single-object index or facade write is a batch of one, so the
index-level parity tests also check both sides against the exact scan
oracle (``ScanIndex``) fed the same operations.  This suite drives
seeded-random and adversarial workloads (leaf-split boundaries,
max-depth overflow chains, float32 rounding edges, cross-window
batches, chained same-object updates) through large groups and through
groups of one and compares exactly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.scan import ScanIndex
from repro.bench.runner import make_stripes
from repro.core.dual import DualPoint, DualSpace
from repro.core.nodes import (_PACK_BATCH_MIN, _PACK_CHUNK, LeafNode,
                              NodeCodec)
from repro.core.quadtree import DualQuadTree, QuadTreeConfig
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import MovingObjectState, TimeSliceQuery, WindowQuery
from repro.service.sharding import ShardedStripes
from repro.storage.buffer_pool import BufferPool
from repro.storage.node_store import NodeCache, RecordStore
from repro.storage.pagefile import InMemoryPageFile
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.operations import QueryOp, UpdateOp

VMAX = (3.0, 3.0)
PMAX = (1000.0, 1000.0)
LIFETIME = 120.0


def make_space(float32=False):
    return DualSpace(vmax=VMAX, pmax=PMAX, lifetime=LIFETIME,
                     float32=float32)


def make_tree(config=None, float32=False, pool_pages=4096):
    pool = BufferPool(InMemoryPageFile(), capacity=pool_pages)
    return DualQuadTree(make_space(float32), RecordStore(pool),
                        config if config is not None else QuadTreeConfig())


def make_index(float32=False, pool_pages=4096):
    pool = BufferPool(InMemoryPageFile(), capacity=pool_pages)
    config = StripesConfig(vmax=VMAX, pmax=PMAX, lifetime=LIFETIME,
                           float32=float32)
    return StripesIndex(config, pool)


def random_states(rng, n, t_lo=0.0, t_hi=LIFETIME, oid_base=0):
    return [
        MovingObjectState(
            oid_base + i,
            pos=tuple(rng.uniform(0.0, PMAX[k]) for k in range(2)),
            vel=tuple(rng.uniform(-VMAX[k], VMAX[k]) for k in range(2)),
            t=rng.uniform(t_lo, t_hi))
        for i in range(n)
    ]


def random_dual_points(rng, n, space, oid_base=0):
    states = random_states(rng, n, oid_base=oid_base)
    return [space.to_dual(s) for s in states]


def random_queries(rng, n):
    queries = []
    for _ in range(n):
        lo = tuple(rng.uniform(0.0, PMAX[k]) for k in range(2))
        hi = tuple(lo[k] + rng.uniform(10.0, 200.0) for k in range(2))
        t1 = rng.uniform(0.0, LIFETIME)
        if rng.random() < 0.5:
            queries.append(TimeSliceQuery(lo, hi, t1))
        else:
            queries.append(WindowQuery(lo, hi, t1,
                                       t1 + rng.uniform(1.0, 40.0)))
    return queries


def entry_key(e: DualPoint):
    return (e.oid, tuple(e.v), tuple(e.p))


def tree_entry_set(tree):
    return sorted(entry_key(e) for e in tree.all_entries())


# --------------------------------------------------------------------- #
# Batch dual transform
# --------------------------------------------------------------------- #

class TestToDualBatch:
    """``to_dual_batch`` is bit-identical to per-object ``to_dual``."""

    @pytest.mark.parametrize("float32", [False, True])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_bit_identity(self, float32, seed):
        rng = random.Random(seed)
        space = make_space(float32)
        states = random_states(rng, 300)
        batch = space.to_dual_batch(states)
        scalar = [space.to_dual(s) for s in states]
        assert [entry_key(p) for p in batch.points()] \
            == [entry_key(p) for p in scalar]

    def test_float32_rounding_edges(self):
        """Values that straddle float32 rounding boundaries must round
        the same way through the batch transform as through the scalar
        ``float(np.float32(x))`` path."""
        space = make_space(float32=True)
        rng = random.Random(3)
        states = []
        for i in range(200):
            # Positions engineered to not be float32-representable.
            pos = tuple(rng.uniform(0.0, PMAX[k]) + 1e-5 for k in range(2))
            vel = tuple(rng.uniform(-VMAX[k], VMAX[k]) + 1e-7
                        for k in range(2))
            vel = tuple(max(-VMAX[k], min(VMAX[k], vel[k]))
                        for k in range(2))
            states.append(MovingObjectState(i, pos, vel,
                                            t=rng.uniform(0.0, LIFETIME)))
        batch = space.to_dual_batch(states)
        for got, s in zip(batch.points(), states):
            want = space.to_dual(s)
            assert entry_key(got) == entry_key(want)

    def test_identical_validation_errors(self):
        space = make_space()
        good = MovingObjectState(0, (10.0, 10.0), (1.0, 1.0), t=5.0)
        bad = MovingObjectState(1, (10.0, 10.0), (9.0, 1.0), t=5.0)
        with pytest.raises(ValueError) as batch_err:
            space.to_dual_batch([good, bad])
        with pytest.raises(ValueError) as scalar_err:
            space.to_dual(bad)
        assert str(batch_err.value) == str(scalar_err.value)

    def test_empty_batch(self):
        batch = make_space().to_dual_batch([])
        assert len(batch) == 0
        assert batch.points() == []


# --------------------------------------------------------------------- #
# Storage: batched codec, write_many, ordered flush
# --------------------------------------------------------------------- #

class TestBatchedLeafCodec:
    @pytest.mark.parametrize("float32", [False, True])
    @pytest.mark.parametrize("n", [0, 1, _PACK_BATCH_MIN - 1,
                                   _PACK_BATCH_MIN, _PACK_BATCH_MIN + 1,
                                   50, 170, _PACK_CHUNK + 1,
                                   3 * _PACK_CHUNK + _PACK_BATCH_MIN])
    def test_byte_parity_across_batch_threshold(self, float32, n):
        """The one-call batched pack, and the chunked pack of a larger
        group, emit exactly the bytes of a per-entry pack + join."""
        rng = random.Random(n + (1000 if float32 else 0))
        space = make_space(float32)
        codec = NodeCodec(2, float32)
        entries = random_dual_points(rng, n, space)
        leaf = LeafNode(0, (0.0, 0.0), (0.0, 0.0), codec.pack(entries))
        raw = codec.serialize(leaf)
        reference = codec._leaf_header.pack(
            1, leaf.level, len(entries), leaf.overflow,
            *leaf.v_corner, *leaf.p_corner) + b"".join(
            codec._entry.pack(e.oid, *e.v, *e.p) for e in entries)
        assert raw == reference
        back = codec.deserialize(raw)
        assert [entry_key(e) for e in codec.points(back.rows)] \
            == [entry_key(e) for e in entries]


class TestWriteMany:
    def _store_with_records(self, n, size=64):
        pool = BufferPool(InMemoryPageFile(), capacity=256)
        store = RecordStore(pool)
        rids = [store.allocate(size, bytes([i % 251]) * size)
                for i in range(n)]
        return pool, store, rids

    def test_equivalent_to_sequential_writes(self):
        pool, store, rids = self._store_with_records(40)
        payloads = [bytes([(i * 7) % 251]) * 64 for i in range(40)]
        # Decode every record onto its frame first: like write, write_many
        # must drop each rewritten record's decoded form.
        cache = NodeCache(store, serialize=bytes,
                          deserialize=lambda buf, offset: bytes(
                              buf[offset: offset + 64]))
        for rid in rids:
            cache.get(rid)
        store.write_many((rid, payload, 0, None)
                         for rid, payload in zip(rids, payloads))
        for rid, payload in zip(rids, payloads):
            assert store.read(rid) == payload
            assert cache.get(rid) == payload

    def test_one_pin_per_page(self):
        pool, store, rids = self._store_with_records(40)
        before = pool.stats.logical_reads
        store.write_many((rid, b"\x42" * 64, 0, None) for rid in rids)
        pages = {rid // 1024 for rid in rids}
        assert pool.stats.logical_reads - before == len(pages)

    def test_bad_payload_applies_nothing_on_its_page(self):
        pool, store, rids = self._store_with_records(4)
        originals = [store.read(rid) for rid in rids]
        items = [(rids[0], b"\x01" * 64, 0, None),
                 (rids[1], b"\x02" * 200, 0, None)]
        with pytest.raises(ValueError):
            store.write_many(items)
        # Both records share the first page: the size check runs before
        # any byte lands, so the oversized payload keeps the *valid* one
        # from being applied too.
        assert store.read(rids[0]) == originals[0]
        assert store.read(rids[1]) == originals[1]

    def test_unknown_rid_raises(self):
        pool, store, rids = self._store_with_records(2)
        with pytest.raises(KeyError):
            store.write_many([(999 * 1024, b"\x00" * 64, 0, None)])


class TestOrderedFlush:
    def test_flush_all_writes_in_page_id_order(self):
        pagefile = InMemoryPageFile()
        pool = BufferPool(pagefile, capacity=64)
        page_ids = []
        for i in range(8):
            page = pool.new_page()
            page.write(0, bytes([i]) * 4)
            page_ids.append(page.page_id)
            pool.unpin(page, dirty=True)
        order = []
        original = pagefile.write

        def spy(page_id, data):
            order.append(page_id)
            return original(page_id, data)

        pagefile.write = spy
        try:
            pool.flush_all()
        finally:
            pagefile.write = original
        assert order == sorted(order)
        assert sorted(order) == sorted(page_ids)


# --------------------------------------------------------------------- #
# Quadtree grouped descent
# --------------------------------------------------------------------- #

SPLIT_CONFIGS = [
    QuadTreeConfig(),                                  # default ladder
    QuadTreeConfig(leaf_size_ladder=(128, 256, 512)),  # tiny rungs: splits
    QuadTreeConfig(leaf_size_ladder=(128,)),           # single rung
    QuadTreeConfig(max_depth=2, leaf_size_ladder=(128, 256)),
]


class TestQuadTreeInsertBatch:
    @pytest.mark.parametrize("config", SPLIT_CONFIGS)
    @pytest.mark.parametrize("float32", [False, True])
    def test_matches_sequential(self, config, float32):
        rng = random.Random(11)
        points = random_dual_points(rng, 600, make_space(float32))
        batched = make_tree(config, float32)
        batched.insert_batch(points)
        sequential = make_tree(config, float32)
        for p in points:
            sequential.insert(p)
        assert batched.count == sequential.count == 600
        assert tree_entry_set(batched) == tree_entry_set(sequential)

    def test_leaf_split_boundary(self):
        """A batch that lands exactly at, one under, and one over a leaf
        capacity must agree with sequential inserts."""
        config = QuadTreeConfig(leaf_size_ladder=(128,))
        probe = make_tree(config)
        capacity = probe.leaf_capacities[0]
        rng = random.Random(5)
        for n in (capacity - 1, capacity, capacity + 1, 3 * capacity):
            points = random_dual_points(rng, n, make_space())
            batched = make_tree(config)
            batched.insert_batch(points)
            sequential = make_tree(config)
            for p in points:
                sequential.insert(p)
            assert tree_entry_set(batched) == tree_entry_set(sequential)

    def test_max_depth_overflow_chain(self):
        """Coincident points exceeding every ladder rung at max depth
        force the overflow-chain path (including the chain-head
        promotion only a grouped insert can trigger)."""
        config = QuadTreeConfig(max_depth=1, leaf_size_ladder=(128, 256))
        space = make_space()
        dup = DualPoint(0, (1.0, 1.0), (10.0, 10.0))
        points = [DualPoint(i, dup.v, dup.p) for i in range(400)]
        batched = make_tree(config)
        batched.insert_batch(points)
        sequential = make_tree(config)
        for p in points:
            sequential.insert(p)
        assert tree_entry_set(batched) == tree_entry_set(sequential)
        # And deleting half of them back out stays equivalent.
        doomed = points[::2]
        flags_b = batched.delete_batch(doomed)
        flags_s = [sequential.delete(p) for p in doomed]
        assert flags_b == flags_s
        assert tree_entry_set(batched) == tree_entry_set(sequential)

    def test_small_groups_use_scalar_path(self):
        tree = make_tree()
        points = random_dual_points(random.Random(1), 3, make_space())
        tree.insert_batch(points)
        assert tree.count == 3


class TestQuadTreeDeleteBatch:
    @pytest.mark.parametrize("config", SPLIT_CONFIGS)
    def test_matches_sequential_including_misses(self, config):
        rng = random.Random(13)
        space = make_space()
        points = random_dual_points(rng, 500, space)
        absent = random_dual_points(rng, 50, space, oid_base=10_000)
        batched = make_tree(config)
        batched.insert_batch(points)
        sequential = make_tree(config)
        for p in points:
            sequential.insert(p)
        doomed = points[::3] + absent
        rng.shuffle(doomed)
        flags_b = batched.delete_batch(doomed)
        flags_s = [sequential.delete(p) for p in doomed]
        assert flags_b == flags_s
        assert batched.count == sequential.count
        assert tree_entry_set(batched) == tree_entry_set(sequential)

    def test_collapse_then_reinsert(self):
        config = QuadTreeConfig(leaf_size_ladder=(128, 256))
        rng = random.Random(17)
        space = make_space()
        points = random_dual_points(rng, 400, space)
        batched = make_tree(config)
        batched.insert_batch(points)
        sequential = make_tree(config)
        for p in points:
            sequential.insert(p)
        # Delete almost everything to force bottom-up collapses...
        doomed = points[:380]
        assert batched.delete_batch(doomed) \
            == [sequential.delete(p) for p in doomed]
        assert tree_entry_set(batched) == tree_entry_set(sequential)
        # ...then grow the collapsed tree again through the batch path.
        fresh = random_dual_points(rng, 200, space, oid_base=5_000)
        batched.insert_batch(fresh)
        for p in fresh:
            sequential.insert(p)
        assert tree_entry_set(batched) == tree_entry_set(sequential)


class TestBulkLoadMicroFix:
    def test_bulk_load_accepts_iterators_and_lists(self):
        rng = random.Random(19)
        points = random_dual_points(rng, 120, make_space())
        from_list = make_tree()
        from_list.bulk_load(points)
        from_iter = make_tree()
        from_iter.bulk_load(iter(points))
        assert tree_entry_set(from_list) == tree_entry_set(from_iter)
        assert points == sorted(points, key=id) or len(points) == 120

    def test_bulk_load_on_fresh_tree_reclaims_root(self):
        tree = make_tree()
        pages_before = tree.store.pages_in_use()
        tree.bulk_load(random_dual_points(random.Random(23), 50,
                                          make_space()))
        # The fresh empty root was freed, not leaked: the loaded tree
        # accounts for every page in use.
        assert tree.store.pages_in_use() >= pages_before
        assert tree.count == 50

    def test_bulk_load_does_not_keep_the_callers_list(self):
        tree = make_tree()
        points = random_dual_points(random.Random(29), 20, make_space())
        tree.bulk_load(points)
        points.clear()
        assert tree.count == 20
        assert len(tree.all_entries()) == 20
        assert tree.check() == []


def count_record_writes(store, monkeypatch):
    """Count :class:`RecordStore` ``write``/``write_many`` calls (one per
    call, whatever the number of records it carries)."""
    calls = []
    write, write_many = store.write, store.write_many

    def counted_write(rid, *args):
        calls.append(rid)
        return write(rid, *args)

    def counted_write_many(items):
        calls.append(None)
        return write_many(items)

    monkeypatch.setattr(store, "write", counted_write)
    monkeypatch.setattr(store, "write_many", counted_write_many)
    return calls


class TestGroupedDelete:
    def test_absent_point_writes_nothing(self, monkeypatch):
        space = make_space()
        rng = random.Random(31)
        tree = make_tree()
        tree.insert_batch(random_dual_points(rng, 5000, space))
        assert not tree._root_is_leaf
        absent = random_dual_points(rng, 1, space, oid_base=10_000)[0]
        writes = count_record_writes(tree.store, monkeypatch)
        assert tree.delete(absent) is False
        assert tree.delete_batch([absent]) == [False]
        assert writes == []
        assert tree.count == 5000
        assert tree.check() == []

    @pytest.mark.parametrize("n_deleted", [1, 4])
    def test_collapses_only_the_topmost_underfilled_node(self, n_deleted):
        """Clustered points build a chain of single-child non-leaves that
        all fall under the collapse threshold at once: one collapse, at
        the root, rebuilds the tree as a single leaf."""
        tree = make_tree(QuadTreeConfig(leaf_size_ladder=(128,)))
        n = tree.collapse_capacity + n_deleted
        points = [DualPoint(i, (1.0 + i * 1e-6, 1.0), (10.0, 10.0 + i * 1e-6))
                  for i in range(n)]
        tree.insert_batch(points)
        assert tree.stats().nonleaf_nodes > 1
        assert tree.delete_batch(points[:n_deleted]) == [True] * n_deleted
        assert tree.counters.collapses == 1
        assert tree._root_is_leaf
        assert tree.check() == []


# --------------------------------------------------------------------- #
# StripesIndex batched writes
# --------------------------------------------------------------------- #

def scan_oracle(lifetime, initial, pairs):
    """The exact scan oracle fed ``initial``, then ``pairs`` one update
    at a time: ``(oracle, removed count)``.  Sequential index replay is
    itself a run of batches of one, so the parity tests below also
    compare both sides with this independent implementation."""
    oracle = ScanIndex(lifetime)
    for state in initial:
        oracle.insert(state)
    removed = sum(1 for old, new in pairs if oracle.update(old, new))
    return oracle, removed


def random_replay():
    """Seeded-random updates of 250 objects over one lifetime, batched
    128 at a time: ``(make_index, initial, pairs, queries, chunk)``."""
    rng = random.Random(37)
    initial = random_states(rng, 250)
    current = {s.oid: s for s in initial}
    pairs = []
    t = 1.0
    for _ in range(800):
        oid = rng.randrange(250)
        old = current[oid]
        t += rng.uniform(0.05, 0.6)
        new = MovingObjectState(
            oid,
            pos=tuple(rng.uniform(0.0, PMAX[k]) for k in range(2)),
            vel=tuple(rng.uniform(-VMAX[k], VMAX[k]) for k in range(2)),
            t=t)
        pairs.append((old, new))
        current[oid] = new
    return make_index, initial, pairs, random_queries(rng, 40), 128


def workload_replay():
    """The generator's update-heavy mix (1,000 objects, 800 operations,
    80 % updates, seed 7) with its own queries, batched 512 at a time,
    over a 1,024-page pool: ``(make_index, initial, pairs, queries,
    chunk)``."""
    workload = generate_workload(WorkloadSpec(
        n_objects=1000, n_operations=800, update_fraction=0.8, seed=7))
    pairs = [(op.old, op.new) for op in workload.operations
             if isinstance(op, UpdateOp)]
    queries = [op.query for op in workload.operations
               if isinstance(op, QueryOp)]
    return (lambda: make_stripes(workload, 1024).index, workload.initial,
            pairs, queries, 512)


class TestStripesBatchParity:
    @pytest.mark.parametrize("float32", [False, True])
    def test_cross_window_insert_batch(self, float32):
        """A batch spanning four lifetime windows must rotate exactly as
        sequential inserts do (final windows and answers identical)."""
        rng = random.Random(29)
        states = []
        for w in range(4):
            states += random_states(rng, 120, t_lo=w * LIFETIME,
                                    t_hi=(w + 1) * LIFETIME - 1e-6,
                                    oid_base=1000 * w)
        states.sort(key=lambda s: s.t)
        batched = make_index(float32)
        batched.insert_batch(states)
        sequential = make_index(float32)
        for s in states:
            sequential.insert(s)
        assert batched.live_windows == sequential.live_windows
        assert len(batched) == len(sequential)
        for q in random_queries(rng, 40):
            assert set(batched.query(q)) == set(sequential.query(q))

    def test_delete_batch_matches_sequential(self):
        """Deletes of live, absent, and rotation-expired entries all
        flag exactly as per-point deletes do."""
        rng = random.Random(31)
        states = random_states(rng, 300, t_lo=3 * LIFETIME,
                               t_hi=4 * LIFETIME - 1e-6)
        # Entries whose window the indexes have already rotated out.
        expired = random_states(rng, 20, t_lo=0.0, t_hi=LIFETIME - 1e-6,
                                oid_base=9000)
        batched = make_index()
        batched.insert_batch(states)
        sequential = make_index()
        for s in states:
            sequential.insert(s)
        doomed = states[::2] + expired
        flags = batched.delete_batch(doomed)
        assert flags == [sequential.delete(s) for s in doomed]
        assert len(batched) == len(sequential)

    @pytest.mark.parametrize("replay", ["random", "workload"])
    def test_update_batch_matches_sequential_replay(self, replay):
        """Timestamp-ordered updates, including repeated objects whose
        chains net, replayed batched vs per-point."""
        if replay == "random":
            make, initial, pairs, queries, chunk = random_replay()
        else:
            make, initial, pairs, queries, chunk = workload_replay()
        batched = make()
        batched.insert_batch(initial)
        sequential = make()
        for s in initial:
            sequential.insert(s)
        removed_b = 0
        for i in range(0, len(pairs), chunk):
            removed_b += batched.update_batch(pairs[i:i + chunk])
        removed_s = sum(1 for old, new in pairs
                        if sequential.update(old, new))
        oracle, removed_o = scan_oracle(batched.config.lifetime, initial,
                                        pairs)
        assert removed_b == removed_s == removed_o > 0
        # Netting may skip materialising a window every entry of which
        # was superseded inside one batch; the windows that do exist
        # agree, and so does every answer.
        assert set(batched.live_windows) <= set(sequential.live_windows)
        assert max(batched.live_windows) == max(sequential.live_windows)
        assert len(batched) == len(sequential) == len(oracle)
        assert queries
        for q in queries:
            expected = set(oracle.query(q))
            assert set(batched.query(q)) == expected
            assert set(sequential.query(q)) == expected

    def test_update_batch_spanning_rotation(self):
        """Chained updates whose windows the batch itself rotates out
        still leave identical state and answers."""
        rng = random.Random(41)
        initial = random_states(rng, 80, t_hi=LIFETIME - 1.0)
        pairs = []
        current = {s.oid: s for s in initial}
        for w in range(1, 5):
            for oid in range(0, 80, 3):
                old = current[oid]
                new = MovingObjectState(
                    oid,
                    pos=tuple(rng.uniform(0.0, PMAX[k]) for k in range(2)),
                    vel=tuple(rng.uniform(-VMAX[k], VMAX[k])
                              for k in range(2)),
                    t=w * LIFETIME + rng.uniform(0.0, LIFETIME - 1.0))
                pairs.append((old, new))
                current[oid] = new
        pairs.sort(key=lambda p: p[1].t)
        batched = make_index()
        batched.insert_batch(initial)
        sequential = make_index()
        for s in initial:
            sequential.insert(s)
        removed_b = batched.update_batch(pairs)
        removed_s = sum(1 for old, new in pairs
                        if sequential.update(old, new))
        oracle, removed_o = scan_oracle(LIFETIME, initial, pairs)
        assert removed_b == removed_s == removed_o
        assert set(batched.live_windows) <= set(sequential.live_windows)
        assert max(batched.live_windows) == max(sequential.live_windows)
        assert len(batched) == len(sequential) == len(oracle)
        now = pairs[-1][1].t
        queries = random_queries(rng, 30) + [
            TimeSliceQuery((0.0, 0.0), PMAX, now),
            WindowQuery((0.0, 0.0), PMAX, now, now + 5.0)]
        for q in queries:
            expected = set(oracle.query(q))
            assert set(batched.query(q)) == expected
            assert set(sequential.query(q)) == expected

    def test_update_batch_with_none_old(self):
        rng = random.Random(43)
        states = random_states(rng, 60)
        index = make_index()
        removed = index.update_batch([(None, s) for s in states])
        assert removed == 0
        assert len(index) == 60

    def test_non_linkable_duplicate_splits_run(self):
        """Re-inserting an oid with old=None (not a chain link) must see
        its predecessor's insert, exactly as sequential replay would."""
        rng = random.Random(47)
        a = random_states(rng, 1)[0]
        b = MovingObjectState(a.oid, a.pos, a.vel, t=a.t + 1.0)
        index = make_index()
        index.update_batch([(None, a), (None, b), (a, b)])
        sequential = make_index()
        for pair in [(None, a), (None, b), (a, b)]:
            sequential.update(*pair)
        assert len(index) == len(sequential)
        for q in random_queries(rng, 10):
            assert set(index.query(q)) == set(sequential.query(q))

    def test_dimension_mismatch_raises(self):
        index = make_index()
        bad = MovingObjectState(1, (1.0,), (0.5,), t=0.0)
        with pytest.raises(ValueError):
            index.insert_batch([bad])
        with pytest.raises(ValueError):
            index.update_batch([(None, bad)])


# --------------------------------------------------------------------- #
# ShardedStripes batched writes
# --------------------------------------------------------------------- #

class TestShardedBatchParity:
    def test_batched_writes_match_serial(self):
        rng = random.Random(53)
        initial = random_states(rng, 200)
        current = {s.oid: s for s in initial}
        pairs = []
        t = 1.0
        for _ in range(400):
            oid = rng.randrange(200)
            old = current[oid]
            t += rng.uniform(0.1, 0.8)
            new = MovingObjectState(
                oid,
                pos=tuple(rng.uniform(0.0, PMAX[k]) for k in range(2)),
                vel=tuple(rng.uniform(-VMAX[k], VMAX[k]) for k in range(2)),
                t=t)
            pairs.append((old, new))
            current[oid] = new

        config = StripesConfig(vmax=VMAX, pmax=PMAX, lifetime=LIFETIME)
        sharded = ShardedStripes(config, n_shards=3, pool_pages=512)
        sharded.insert_batch(initial)
        for i in range(0, len(pairs), 96):
            sharded.update_batch(pairs[i:i + 96])

        serial = StripesIndex(
            config, BufferPool(InMemoryPageFile(), capacity=4096))
        for s in initial:
            serial.insert(s)
        for old, new in pairs:
            serial.update(old, new)

        for q in random_queries(rng, 40):
            assert set(sharded.query(q)) == set(serial.query(q))

    def test_delete_batch_counts(self):
        rng = random.Random(59)
        states = random_states(rng, 150)
        config = StripesConfig(vmax=VMAX, pmax=PMAX, lifetime=LIFETIME)
        sharded = ShardedStripes(config, n_shards=2, pool_pages=512)
        sharded.insert_batch(states)
        assert sharded.delete_batch(states[:70]) == 70
        serial = StripesIndex(
            config, BufferPool(InMemoryPageFile(), capacity=4096))
        for s in states:
            serial.insert(s)
        assert sum(serial.delete_batch(states[:70])) == 70
        for q in random_queries(rng, 20):
            assert set(sharded.query(q)) == set(serial.query(q))


# --------------------------------------------------------------------- #
# Write-path observability
# --------------------------------------------------------------------- #

class TestWritePathMetrics:
    def test_insert_histograms_observe(self):
        """One histogram, observed once per sub-index insert group: a
        single insert is a group of one, a one-window batch one group."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        index = make_index()
        index.attach_metrics(registry)
        states = random_states(random.Random(61), 30)
        index.insert(states[0])
        index.insert_batch(states[1:])
        snapshot = registry.to_dict()
        hists = snapshot["histograms"]
        assert hists["stripes_insert_latency_seconds"]["count"] == 2
        assert not any("insert_batch" in name for name in hists)
        registry.collect()
        assert registry.get("stripes_inserts_total").value == 30

    def test_updates_observe_the_insert_histogram(self):
        """The insert half of every update is an insert: k updates raise
        the insert-latency count by k, the histogram the paper runs'
        write table reports."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        index = make_index()
        index.attach_metrics(registry)
        rng = random.Random(62)
        states = random_states(rng, 40, t_hi=LIFETIME / 2)
        index.insert_batch(states)
        hist = registry.get("stripes_insert_latency_seconds")
        before = hist.count
        k = 25
        for i, old in enumerate(states[:k]):
            new = MovingObjectState(old.oid, old.pos, old.vel,
                                    t=LIFETIME / 2 + i)
            assert index.update(old, new)
        assert hist.count == before + k
        assert len(index) == 40

    def test_unattached_index_pays_no_observation(self):
        index = make_index()
        assert index._insert_latency is None
        index.insert_batch(random_states(random.Random(67), 10))
        assert len(index) == 10

    def test_render_write_table(self):
        from repro.bench.report import render_write_table
        from repro.bench.runner import RunResult
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        index = make_index()
        index.attach_metrics(registry)
        for s in random_states(random.Random(71), 20):
            index.insert(s)
        result = RunResult("STRIPES")
        result.phase_metrics["ops"] = registry.to_dict()
        bare = RunResult("SCAN")
        text = render_write_table("write", {"STRIPES": result, "SCAN": bare})
        assert "20" in text          # inserts counter surfaced
        assert "SCAN" in text        # no-metrics row renders dashes
        assert text.count("-") > 10
