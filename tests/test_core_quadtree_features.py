"""Tests for the quadtree's extended features: the leaf size ladder
(Section 5.1 future work), size-counter count queries, and bulk loading."""

import random

import pytest

from repro.baselines.scan import ScanIndex
from repro.core.dual import DualPoint, DualSpace
from repro.core.nodes import NodeCodec, points_from_columns
from repro.core.quadtree import (
    PAPER_LEAF_LADDER,
    DualQuadTree,
    QuadTreeConfig,
    packed_ladder,
)
from repro.core.query_region import build_query_regions
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import (
    MovingObjectState,
    MovingQuery,
    TimeSliceQuery,
    WindowQuery,
)
from repro.storage.buffer_pool import BufferPool
from repro.storage.node_store import RecordStore, SizeClass
from repro.storage.pagefile import InMemoryPageFile
from repro.storage.page import PAGE_SIZE

SPACE = DualSpace(vmax=(3.0, 3.0), pmax=(100.0, 100.0), lifetime=10.0)
LADDER = (505, 1011, 2045, PAGE_SIZE - 5)  # 1/8, 1/4, 1/2, full page


def make_tree(config=QuadTreeConfig(), pool_pages=4096):
    pool = BufferPool(InMemoryPageFile(), capacity=pool_pages)
    return DualQuadTree(SPACE, RecordStore(pool), config)


def search(tree, regions):
    """The search answer as points, built from its columns."""
    return points_from_columns(*tree.search_columns(regions))


def random_point(rng, oid):
    return DualPoint(
        oid,
        tuple(rng.uniform(0, e) for e in SPACE.velocity_extent),
        tuple(rng.uniform(0, e) for e in SPACE.position_extent))


class TestLeafSizeLadder:
    def test_ladder_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            QuadTreeConfig(leaf_size_ladder=(100, 100))
        with pytest.raises(ValueError, match="strictly increasing"):
            QuadTreeConfig(leaf_size_ladder=(200, 100))

    def test_equal_capacity_rungs_rejected(self):
        # 500 and 505 bytes hold the same number of 40-byte entries; such
        # a ladder has a rung with nothing to promote into.
        with pytest.raises(ValueError, match="strictly increasing "
                                             "capacities"):
            make_tree(QuadTreeConfig(leaf_size_ladder=(500, 505)))

    def test_default_ladder_packs_eight_four_two_one(self):
        """The default rungs are the largest records that pack 8, 4, 2
        and 1 to a page, with the capacities of the hand-written
        ``(510, 1022, 2045, 4091)`` ladder ablation A1 used before."""
        ladder = packed_ladder(PAGE_SIZE)
        assert ladder == (511, 1022, 2045, 4091)
        assert make_tree().leaf_ladder == list(ladder)
        assert PAPER_LEAF_LADDER == ladder[2:]
        for size, per_page in zip(ladder, (8, 4, 2, 1)):
            assert SizeClass(size, PAGE_SIZE).num_slots == per_page
        for size, per_page in zip(ladder[:-1], (8, 4, 2)):
            assert SizeClass(size + 1, PAGE_SIZE).num_slots < per_page
        with pytest.raises(ValueError, match="does not fit"):
            SizeClass(ladder[-1] + 1, PAGE_SIZE)
        for d in (1, 2, 3):
            for float32 in (False, True):
                codec = NodeCodec(d, float32)
                assert [codec.leaf_capacity(b) for b in ladder] == \
                    [codec.leaf_capacity(b) for b in (510, 1022, 2045, 4091)]

    def test_ladder_overrides_two_size_scheme(self):
        tree = make_tree(QuadTreeConfig(leaf_size_ladder=LADDER))
        assert tree.leaf_ladder == list(LADDER)
        assert tree.small_bytes == LADDER[0]
        assert tree.large_bytes == LADDER[-1]
        assert tree.leaf_capacities == sorted(tree.leaf_capacities)

    def test_leaves_promote_stepwise(self):
        tree = make_tree(QuadTreeConfig(leaf_size_ladder=LADDER))
        rng = random.Random(1)
        # Fill the root leaf just past the smallest capacity: it must be
        # promoted to the second rung, not jump to the largest.
        for oid in range(tree.leaf_capacities[0] + 1):
            tree.insert(random_point(rng, oid))
        stats = tree.stats()
        assert stats.leaves_per_rung == [0, 1, 0, 0]

    def test_four_rung_ladder_correctness(self):
        """A four-size ladder must not change any result set."""
        rng = random.Random(2)
        ladder_tree = make_tree(QuadTreeConfig(leaf_size_ladder=LADDER))
        plain_tree = make_tree(
            QuadTreeConfig(leaf_size_ladder=PAPER_LEAF_LADDER))
        points = [random_point(rng, oid) for oid in range(1500)]
        for point in points:
            ladder_tree.insert(point)
            plain_tree.insert(point)
        for trial in range(20):
            x = rng.uniform(0, 90)
            query = WindowQuery((x, x), (x + 10, x + 10),
                                rng.uniform(0, 5), rng.uniform(5, 15))
            regions = build_query_regions(query.as_moving(), SPACE.vmax,
                                          SPACE.lifetime, 0.0)
            assert sorted(e.oid for e in search(ladder_tree, regions)) \
                == sorted(e.oid for e in search(plain_tree, regions))
        # Deletes work across rungs.
        rng.shuffle(points)
        for point in points:
            assert ladder_tree.delete(point)
        assert ladder_tree.count == 0

    def test_ladder_improves_occupancy(self):
        rng = random.Random(3)
        ladder_tree = make_tree(QuadTreeConfig(leaf_size_ladder=LADDER))
        single_tree = make_tree(
            QuadTreeConfig(leaf_size_ladder=PAPER_LEAF_LADDER[-1:]))
        for oid in range(3000):
            point = random_point(rng, oid)
            ladder_tree.insert(point)
            single_tree.insert(point)
        assert ladder_tree.stats().leaf_occupancy \
            > single_tree.stats().leaf_occupancy
        assert ladder_tree.store.pages_in_use() \
            <= single_tree.store.pages_in_use()


class TestCountQueries:
    @staticmethod
    def regions_for(query, t_ref=0.0):
        return build_query_regions(query.as_moving(), SPACE.vmax,
                                   SPACE.lifetime, t_ref)

    def test_count_matches_search(self):
        tree = make_tree()
        rng = random.Random(4)
        for oid in range(1200):
            tree.insert(random_point(rng, oid))
        for trial in range(25):
            x = rng.uniform(0, 90)
            query = TimeSliceQuery((x, x), (x + 10, x + 10),
                                   rng.uniform(0, 15))
            regions = self.regions_for(query)
            assert tree.count_in_regions(regions) \
                == len(search(tree, regions))

    def test_count_whole_space_reads_no_leaves(self):
        # Tiny leaves force height >= 3 so INSIDE non-leaf children exist;
        # the size-counter shortcut only pays off below such children.
        tree = make_tree(QuadTreeConfig(leaf_size_ladder=(150, 505)))
        rng = random.Random(5)
        for oid in range(1000):
            tree.insert(random_point(rng, oid))
        assert tree.stats().height >= 3
        query = TimeSliceQuery((-1e6, -1e6), (1e6, 1e6), 0.0)
        regions = self.regions_for(query)
        logical_before = tree.store.pool.stats.logical_reads
        assert tree.count_in_regions(regions) == 1000
        count_reads = tree.store.pool.stats.logical_reads - logical_before
        logical_before = tree.store.pool.stats.logical_reads
        assert len(search(tree, regions)) == 1000
        search_reads = tree.store.pool.stats.logical_reads - logical_before
        # Counting everything touches only the upper levels.
        assert count_reads < search_reads / 3

    def test_stripes_count_time_slice(self):
        config = StripesConfig(vmax=(3.0, 3.0), pmax=(200.0, 200.0),
                               lifetime=30.0)
        index = StripesIndex(config)
        oracle = ScanIndex(30.0)
        rng = random.Random(6)
        for oid in range(800):
            state = MovingObjectState(
                oid, (rng.uniform(0, 200), rng.uniform(0, 200)),
                (rng.uniform(-3, 3), rng.uniform(-3, 3)),
                rng.uniform(0, 29))
            index.insert(state)
            oracle.insert(state)
        for trial in range(20):
            x = rng.uniform(0, 170)
            query = TimeSliceQuery((x, x), (x + 30, x + 30),
                                   rng.uniform(29, 50))
            assert index.count(query) == len(oracle.query(query))

    def test_stripes_count_window_falls_back_to_exact(self):
        config = StripesConfig(vmax=(3.0, 3.0), pmax=(200.0, 200.0),
                               lifetime=30.0)
        index = StripesIndex(config)
        rng = random.Random(7)
        for oid in range(500):
            index.insert(MovingObjectState(
                oid, (rng.uniform(0, 200), rng.uniform(0, 200)),
                (rng.uniform(-3, 3), rng.uniform(-3, 3)),
                rng.uniform(0, 29)))
        query = WindowQuery((50.0, 50.0), (90.0, 90.0), 30.0, 45.0)
        assert index.count(query) == len(index.query(query))


class TestBulkLoad:
    def test_bulk_load_equivalent_to_inserts(self):
        rng = random.Random(8)
        points = [random_point(rng, oid) for oid in range(2000)]
        loaded = make_tree()
        loaded.bulk_load(points)
        inserted = make_tree()
        for point in points:
            inserted.insert(point)
        assert loaded.count == inserted.count == 2000
        assert sorted(e.oid for e in loaded.all_entries()) \
            == sorted(e.oid for e in inserted.all_entries())
        for trial in range(15):
            x = rng.uniform(0, 90)
            query = TimeSliceQuery((x, x), (x + 10, x + 10),
                                   rng.uniform(0, 15))
            regions = build_query_regions(query.as_moving(), SPACE.vmax,
                                          SPACE.lifetime, 0.0)
            assert sorted(e.oid for e in search(loaded, regions)) \
                == sorted(e.oid for e in search(inserted, regions))

    def test_bulk_load_requires_empty_tree(self):
        tree = make_tree()
        tree.insert(DualPoint(1, (1.0, 1.0), (1.0, 1.0)))
        with pytest.raises(RuntimeError, match="empty"):
            tree.bulk_load([DualPoint(2, (2.0, 2.0), (2.0, 2.0))])

    def test_bulk_load_empty_batch(self):
        tree = make_tree()
        tree.bulk_load([])
        assert tree.count == 0

    def test_stripes_bulk_load(self):
        config = StripesConfig(vmax=(3.0, 3.0), pmax=(200.0, 200.0),
                               lifetime=30.0)
        rng = random.Random(9)
        states = [MovingObjectState(
            oid, (rng.uniform(0, 200), rng.uniform(0, 200)),
            (rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0, 55))
            for oid in range(1000)]
        bulk = StripesIndex(config)
        assert bulk.bulk_load(states) == 1000
        slow = StripesIndex(config)
        oracle = ScanIndex(30.0)
        for state in states:
            slow.insert(state)
            oracle.insert(state)
        assert len(bulk) == len(slow) == len(oracle)
        for trial in range(15):
            x = rng.uniform(0, 170)
            query = TimeSliceQuery((x, x), (x + 30, x + 30),
                                   rng.uniform(56, 70))
            assert sorted(bulk.query(query)) == sorted(slow.query(query)) \
                == sorted(oracle.query(query))

    def test_stripes_bulk_load_rejects_non_empty(self):
        config = StripesConfig(vmax=(3.0, 3.0), pmax=(200.0, 200.0),
                               lifetime=30.0)
        index = StripesIndex(config)
        index.insert(MovingObjectState(1, (1.0, 1.0), (0.0, 0.0), 0.0))
        with pytest.raises(RuntimeError, match="empty"):
            index.bulk_load([MovingObjectState(2, (2.0, 2.0), (0.0, 0.0),
                                               0.0)])

    def test_stripes_bulk_load_rejects_wide_window_span(self):
        config = StripesConfig(vmax=(3.0, 3.0), pmax=(200.0, 200.0),
                               lifetime=30.0)
        index = StripesIndex(config)
        states = [
            MovingObjectState(1, (1.0, 1.0), (0.0, 0.0), 0.0),
            MovingObjectState(2, (2.0, 2.0), (0.0, 0.0), 70.0),
        ]
        with pytest.raises(ValueError, match="lifetime windows"):
            index.bulk_load(states)
