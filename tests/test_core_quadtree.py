"""Unit, structural-invariant, and property tests for the dual-space
bucket PR quadtree (Sections 4.2-4.4, 4.6.4)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dual import DualPoint, DualSpace
from repro.core.nodes import (
    INVALID_RID,
    LeafNode,
    NonLeafNode,
    points_from_columns,
)
from repro.core.quadtree import DualQuadTree, QuadTreeConfig
from repro.core.query_region import build_query_regions
from repro.query.types import TimeSliceQuery, WindowQuery
from repro.storage.buffer_pool import BufferPool
from repro.storage.node_store import RecordStore
from repro.storage.pagefile import InMemoryPageFile

SPACE = DualSpace(vmax=(3.0, 3.0), pmax=(100.0, 100.0), lifetime=10.0)
# Velocity extent (6, 6); position extent (160, 160).


def make_tree(config=QuadTreeConfig(), pool_pages=4096, space=SPACE):
    pool = BufferPool(InMemoryPageFile(), capacity=pool_pages)
    return DualQuadTree(space, RecordStore(pool), config)


def search(tree, regions):
    """The search answer as points, built from its columns."""
    return points_from_columns(*tree.search_columns(regions))


def random_point(rng, oid, space=SPACE):
    return DualPoint(
        oid,
        tuple(rng.uniform(0, e) for e in space.velocity_extent),
        tuple(rng.uniform(0, e) for e in space.position_extent))


def check_invariants(tree):
    """Walk the whole tree checking structural invariants:

    * non-leaf ``size`` equals the number of entries in its subtree;
    * every entry lies inside its leaf's grid cell;
    * child cells tile the parent cell (corner arithmetic consistent);
    * levels increase by one per edge; no leaf deeper than max_depth.
    """
    def walk(rid, is_leaf, level, v_corner, p_corner):
        sl_v, sl_p = tree._child_sides(level)
        node = tree.cache.get(rid)
        if is_leaf:
            assert isinstance(node, LeafNode)
            assert node.level == level <= tree.config.max_depth
            assert node.v_corner == v_corner
            assert node.p_corner == p_corner
            entries = tree._leaf_all_entries(node)
            for entry in entries:
                for i in range(tree.d):
                    assert v_corner[i] <= entry.v[i] <= v_corner[i] + sl_v[i]
                    assert p_corner[i] <= entry.p[i] <= p_corner[i] + sl_p[i]
            return len(entries)
        assert isinstance(node, NonLeafNode)
        assert node.level == level
        total = 0
        for idx in node.present_children():
            cv, cp = tree._child_corner(node, idx)
            total += walk(node.children[idx], node.child_is_leaf[idx],
                          level + 1, cv, cp)
        assert node.size == total, (
            f"non-leaf at level {level} says size={node.size}, subtree "
            f"has {total}")
        return total

    total = walk(tree._root_rid, tree._root_is_leaf, 0,
                 (0.0,) * tree.d, (0.0,) * tree.d)
    assert total == tree.count


class TestInsert:
    def test_empty_tree(self):
        tree = make_tree()
        assert tree.count == 0
        assert tree.all_entries() == []
        check_invariants(tree)

    def test_single_insert(self):
        tree = make_tree()
        point = DualPoint(1, (1.0, 2.0), (3.0, 4.0))
        tree.insert(point)
        assert tree.count == 1
        assert tree.all_entries() == [point]
        check_invariants(tree)

    def test_root_leaf_splits_on_overflow(self):
        tree = make_tree()
        rng = random.Random(1)
        for oid in range(tree.large_capacity + 5):
            tree.insert(random_point(rng, oid))
        stats = tree.stats()
        assert stats.nonleaf_nodes >= 1
        assert stats.height >= 2
        check_invariants(tree)

    def test_small_leaf_promoted_to_large(self):
        tree = make_tree()
        rng = random.Random(2)
        for oid in range(tree.small_capacity + 1):
            tree.insert(random_point(rng, oid))
        stats = tree.stats()
        # One overflow of a small root leaf: promoted, not split.
        assert stats.large_leaves == 1
        assert stats.small_leaves == 0
        assert stats.nonleaf_nodes == 0
        check_invariants(tree)

    def test_bulk_inserts_preserve_invariants(self):
        tree = make_tree()
        rng = random.Random(3)
        points = [random_point(rng, oid) for oid in range(2000)]
        for point in points:
            tree.insert(point)
        assert tree.count == 2000
        assert sorted(e.oid for e in tree.all_entries()) == list(range(2000))
        check_invariants(tree)

    def test_boundary_coordinates(self):
        """Points exactly on the space boundary stay indexable."""
        tree = make_tree()
        corners = [
            DualPoint(1, (0.0, 0.0), (0.0, 0.0)),
            DualPoint(2, (6.0, 6.0), (160.0, 160.0)),
            DualPoint(3, (0.0, 6.0), (160.0, 0.0)),
        ]
        for point in corners:
            tree.insert(point)
        for oid in range(100, 100 + tree.large_capacity):
            tree.insert(DualPoint(oid, (6.0, 6.0), (160.0, 160.0)))
        assert tree.count == 3 + tree.large_capacity
        for point in corners:
            assert tree.delete(point)
        check_invariants(tree)


class TestDuplicatesAndOverflowChains:
    def test_coincident_points_chain_at_max_depth(self):
        tree = make_tree(QuadTreeConfig(max_depth=3))
        n = tree.large_capacity * 2 + 10
        for oid in range(n):
            tree.insert(DualPoint(oid, (1.0, 1.0), (10.0, 10.0)))
        assert tree.count == n
        stats = tree.stats()
        assert stats.extension_records >= 1
        assert sorted(e.oid for e in tree.all_entries()) == list(range(n))
        check_invariants(tree)

    def test_chain_shrinks_on_delete(self):
        tree = make_tree(QuadTreeConfig(max_depth=2))
        n = tree.large_capacity + 10
        points = [DualPoint(oid, (1.0, 1.0), (10.0, 10.0))
                  for oid in range(n)]
        for point in points:
            tree.insert(point)
        for point in points[: n - 5]:
            assert tree.delete(point)
        assert tree.count == 5
        check_invariants(tree)


class TestDelete:
    def test_delete_existing(self):
        tree = make_tree()
        point = DualPoint(1, (1.0, 1.0), (1.0, 1.0))
        tree.insert(point)
        assert tree.delete(point)
        assert tree.count == 0
        check_invariants(tree)

    def test_delete_missing_returns_false(self):
        tree = make_tree()
        tree.insert(DualPoint(1, (1.0, 1.0), (1.0, 1.0)))
        assert not tree.delete(DualPoint(2, (2.0, 2.0), (2.0, 2.0)))
        assert tree.count == 1
        check_invariants(tree)

    def test_delete_from_empty_tree(self):
        tree = make_tree()
        assert not tree.delete(DualPoint(1, (1.0, 1.0), (1.0, 1.0)))

    def test_insert_delete_all_random(self):
        tree = make_tree()
        rng = random.Random(4)
        points = [random_point(rng, oid) for oid in range(1500)]
        for point in points:
            tree.insert(point)
        rng.shuffle(points)
        for point in points:
            assert tree.delete(point), point
        assert tree.count == 0
        check_invariants(tree)

    def test_underfill_collapses_subtree(self):
        tree = make_tree()
        rng = random.Random(5)
        points = [random_point(rng, oid) for oid in range(1000)]
        for point in points:
            tree.insert(point)
        assert tree.stats().nonleaf_nodes > 0
        for point in points[:-5]:
            assert tree.delete(point)
        # Down to 5 entries: everything must have collapsed into the root.
        stats = tree.stats()
        assert stats.nonleaf_nodes == 0
        assert stats.height == 1
        check_invariants(tree)

    def test_failed_delete_rolls_back_sizes(self):
        tree = make_tree()
        rng = random.Random(6)
        points = [random_point(rng, oid) for oid in range(1200)]
        for point in points:
            tree.insert(point)
        ghost = DualPoint(99999, points[0].v, points[0].p)
        ghost = DualPoint(99999, (0.123, 0.456), (0.789, 1.012))
        assert not tree.delete(ghost)
        check_invariants(tree)


class TestSearch:
    @staticmethod
    def regions_for(query, t_ref=0.0):
        return build_query_regions(query.as_moving(), SPACE.vmax,
                                   SPACE.lifetime, t_ref)

    def test_search_everything(self):
        tree = make_tree()
        rng = random.Random(7)
        for oid in range(500):
            tree.insert(random_point(rng, oid))
        # A query region covering the whole space at t = t_ref.
        query = TimeSliceQuery((-1000.0, -1000.0), (1000.0, 1000.0), 0.0)
        found = search(tree, self.regions_for(query))
        assert len(found) == 500

    def test_search_empty_region(self):
        tree = make_tree()
        rng = random.Random(8)
        for oid in range(200):
            tree.insert(random_point(rng, oid))
        query = TimeSliceQuery((-500.0, -500.0), (-400.0, -400.0), 0.0)
        assert search(tree, self.regions_for(query)) == []

    def test_wrong_region_count_rejected(self):
        tree = make_tree()
        with pytest.raises(ValueError, match="query regions"):
            search(tree, ())

    def test_pruning_and_unpruned_agree(self):
        rng = random.Random(9)
        points = [random_point(rng, oid) for oid in range(800)]
        pruned = make_tree(QuadTreeConfig(quad_pruning=True))
        plain = make_tree(QuadTreeConfig(quad_pruning=False))
        for point in points:
            pruned.insert(point)
            plain.insert(point)
        for trial in range(30):
            x = rng.uniform(0, 90)
            query = WindowQuery((x, x), (x + 10, x + 10),
                                rng.uniform(0, 5), rng.uniform(5, 15))
            regions = self.regions_for(query)
            assert sorted(search(pruned, regions)) \
                == sorted(search(plain, regions))


class TestDestroyAndStats:
    def test_destroy_frees_all_pages(self):
        tree = make_tree()
        rng = random.Random(10)
        for oid in range(800):
            tree.insert(random_point(rng, oid))
        assert tree.store.pages_in_use() > 0
        tree.destroy()
        assert tree.store.pages_in_use() == 0
        assert tree.count == 0

    def test_stats_shape(self):
        tree = make_tree()
        rng = random.Random(11)
        for oid in range(600):
            tree.insert(random_point(rng, oid))
        stats = tree.stats()
        assert stats.entries == 600
        assert stats.leaf_nodes == stats.small_leaves + stats.large_leaves
        assert 0.0 < stats.leaf_occupancy <= 1.0
        assert stats.height >= 2

    def test_single_size_config_uses_only_large_leaves(self):
        tree = make_tree(QuadTreeConfig(use_small_leaves=False))
        rng = random.Random(12)
        for oid in range(400):
            tree.insert(random_point(rng, oid))
        stats = tree.stats()
        assert stats.small_leaves + stats.large_leaves > 0
        assert tree.small_bytes == tree.large_bytes
        check_invariants(tree)


class TestSearchExactness:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_search_returns_exact_region_membership(self, data):
        """The dual-region search (INSIDE shortcut + OVERLAP filtering +
        DISJUNCT pruning) must return exactly the entries whose dual
        points satisfy per-plane membership -- no more, no fewer.  This
        pins the INSIDE classification: a wrongly-INSIDE cell would leak
        non-members, a wrongly-DISJUNCT cell would drop members."""
        seed = data.draw(st.integers(0, 2**32), label="seed")
        rng = random.Random(seed)
        tree = make_tree()
        points = [random_point(rng, oid)
                  for oid in range(data.draw(st.integers(50, 600),
                                             label="n"))]
        for point in points:
            tree.insert(point)
        for _ in range(5):
            x = rng.uniform(-20, 110)
            y = rng.uniform(-20, 110)
            side = rng.uniform(0.1, 60)
            t1 = rng.uniform(0, 12)
            t2 = t1 + rng.uniform(0, 10)
            query = WindowQuery((x, y), (x + side, y + side), t1, t2)
            regions = build_query_regions(query.as_moving(), SPACE.vmax,
                                          SPACE.lifetime, 0.0)
            expected = sorted(
                p.oid for p in points
                if all(regions[i].contains_point(p.v[i], p.p[i])
                       for i in range(2)))
            got = sorted(e.oid for e in search(tree, regions))
            assert got == expected


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_insert_delete_mix(self, data):
        """Random interleavings of inserts and deletes keep all invariants
        and exactly track the live multiset."""
        tree = make_tree()
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        live = {}
        next_oid = 0
        n_steps = data.draw(st.integers(20, 120), label="steps")
        for _ in range(n_steps):
            if live and rng.random() < 0.4:
                oid = rng.choice(sorted(live))
                assert tree.delete(live.pop(oid))
            else:
                point = random_point(rng, next_oid)
                tree.insert(point)
                live[next_oid] = point
                next_oid += 1
        assert tree.count == len(live)
        assert sorted(e.oid for e in tree.all_entries()) == sorted(live)
        check_invariants(tree)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_clustered_points_stress_splits(self, seed):
        """Tightly clustered points force deep splits without breaking
        invariants."""
        tree = make_tree(QuadTreeConfig(max_depth=8))
        rng = random.Random(seed)
        cx = rng.uniform(0, 6)
        cy = rng.uniform(0, 160)
        for oid in range(300):
            point = DualPoint(
                oid,
                (min(6.0, max(0.0, cx + rng.gauss(0, 0.01))),
                 rng.uniform(0, 6)),
                (min(160.0, max(0.0, cy + rng.gauss(0, 0.1))),
                 rng.uniform(0, 160)))
            tree.insert(point)
        assert tree.count == 300
        check_invariants(tree)
