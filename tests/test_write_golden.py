"""Golden page IO, answers and structure counts of one update-heavy run.

A seeded workload (2,000 objects, 8,000 operations, half of them
updates) is replayed through the paper-experiment runner over a 16-page
buffer pool, so almost every node access misses the pool and the write
path's page traffic is visible in the physical IO.  It runs on the
paper's two leaf sizes and again on the default four-size ladder, whose
tree is the same but whose leaf records pack onto fewer pages, so only
its page IO, promotions and page bytes have golden values of their
own.  The two-size counts were
recorded with per-point ``insert``/``delete`` descents; every write now
runs the grouped descent (a one-point write is a group of one), which
must read and write the same pages, return the same answers and make the
same structural changes.  Logical reads are deliberately not pinned: the
grouped delete reads the subtree it collapses without first re-reading
the path to it.

The page bytes themselves are pinned too: a SHA-256 over every record
the index reaches, for this run and for small indexes driven through
``update`` (d = 1, 2 and 3, both coordinate layouts, and ablation A1,
where every leaf is born large).  The small indexes cap the depth, so
leaves promote, split, spill into overflow chains and collapse, and
deletes remove entries from chains; the digests pin the bytes every one
of those record rebuilds writes, down to the stale tail a shorter
payload leaves in its record.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.bench.runner import make_stripes, run_workload
from repro.core.nodes import INVALID_RID
from repro.core.quadtree import (
    PAPER_LEAF_LADDER,
    DualQuadTree,
    QuadTreeConfig,
    QuadTreeCounters,
)
from repro.core.stripes import StripesConfig, StripesIndex
from repro.obs.metrics import MetricsRegistry
from repro.query.types import MovingObjectState
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import InMemoryPageFile
from repro.workload.generator import WorkloadSpec, generate_workload

SPEC = WorkloadSpec(n_objects=2000, n_operations=8000, update_fraction=0.5,
                    seed=1)
POOL_PAGES = 16

GOLDEN = {
    "update_physical_reads": 5343,
    "update_physical_writes": 108,
    "query_physical_reads": 147690,
    "query_hits": 18401,
    "pages_used": 73,
    "stripes_collapses_total": 31,
    "stripes_leaf_splits_total": 25,
    "stripes_leaf_promotions_total": 12,
    "stripes_overflow_spills_total": 0,
}

#: The same run on the library's default leaf ladder (an eighth of a
#: page up to a full page).  Its tree is the two-size tree: answers and
#: split, collapse and spill counts equal :data:`GOLDEN`, and every
#: extra promotion adds the one logical read of its allocation.
GOLDEN_LADDER = {
    **GOLDEN,
    "update_physical_reads": 4348,
    "update_physical_writes": 166,
    "query_physical_reads": 102150,
    "pages_used": 51,
    "stripes_leaf_promotions_total": 87,
}

GOLDEN_PAGE_DIGESTS = {
    "update_heavy_run":
        "30e88ab0c547d75b36ded2882cfcacf54f2724aec3c1c28d4950da6dc43cf2bb",
    "d1_updates":
        "a3bf58c9b6615ecd1e0aaad40fd2be6f3d8ffebe60d68fa54b66e4c4ba83534b",
    "float32_updates":
        "e8f55b8de499ce6d8370649cab663f0556345236d6ae297a3eb5f10f0c6fe3c5",
    "d1_float32_chains":
        "05dae047653d46b197c8526683998457cc61a2321f05aedc75c76d9692aa0064",
    "d3_chains":
        "636dd7403ca0239dbb626af094f2bc36c7d79fe84faf6474e8745d50767c6cd3",
    "a1_chains":
        "f6a0dd7778cfa91cef74cb6b58b17353647c1298fd9a24754e47cc227bcc9037",
    "update_heavy_run[default ladder]":
        "7111f5a1271552934fd8550e07a52e5393d1305038836713a246537ee102f453",
}


def update_heavy_run(ladder):
    registry = MetricsRegistry()
    workload = generate_workload(SPEC)
    setup = make_stripes(workload, pool_pages=POOL_PAGES, registry=registry,
                         quadtree=QuadTreeConfig(leaf_size_ladder=ladder))
    result = run_workload(setup, workload, registry=registry)
    return setup, result, registry


@pytest.fixture(scope="module")
def run():
    return update_heavy_run(PAPER_LEAF_LADDER)


@pytest.fixture(scope="module")
def ladder_run():
    return update_heavy_run(None)


def _counter(registry, name):
    return int(registry.to_dict()["counters"][name])


def test_update_and_query_io(run):
    _, result, _ = run
    assert result.updates.physical_reads == GOLDEN["update_physical_reads"]
    assert result.updates.physical_writes == GOLDEN["update_physical_writes"]
    assert result.queries.physical_reads == GOLDEN["query_physical_reads"]


def test_answers_and_footprint(run):
    setup, result, _ = run
    assert result.query_hits == GOLDEN["query_hits"]
    assert result.pages_used == GOLDEN["pages_used"]
    assert setup.index.check() == []


@pytest.mark.parametrize("name", [
    "stripes_collapses_total",
    "stripes_leaf_splits_total",
    "stripes_leaf_promotions_total",
    "stripes_overflow_spills_total",
])
def test_structure_counts(run, name):
    _, _, registry = run
    assert _counter(registry, name) == GOLDEN[name]


def test_default_ladder_run(run, ladder_run):
    setup, result, registry = ladder_run
    assert result.updates.physical_reads \
        == GOLDEN_LADDER["update_physical_reads"]
    assert result.updates.physical_writes \
        == GOLDEN_LADDER["update_physical_writes"]
    assert result.queries.physical_reads \
        == GOLDEN_LADDER["query_physical_reads"]
    assert result.query_hits == GOLDEN_LADDER["query_hits"]
    assert result.pages_used == GOLDEN_LADDER["pages_used"]
    for name in ("stripes_collapses_total", "stripes_leaf_splits_total",
                 "stripes_leaf_promotions_total",
                 "stripes_overflow_spills_total"):
        assert _counter(registry, name) == GOLDEN_LADDER[name]
    _, paper_result, _ = run
    ops = result.metrics["counters"]
    paper_ops = paper_result.metrics["counters"]
    extra_promotions = (ops["stripes_leaf_promotions_total"]
                        - paper_ops["stripes_leaf_promotions_total"])
    assert ops["stripes_pool_logical_reads_total"] \
        == paper_ops["stripes_pool_logical_reads_total"] + extra_promotions
    assert setup.index.check() == []
    assert page_digest(setup.index) \
        == GOLDEN_PAGE_DIGESTS["update_heavy_run[default ladder]"]


def page_digest(index):
    """SHA-256 over ``(rid, record bytes)`` of every record reachable
    from the index's live trees, in rid order."""
    rids: set = set()
    for tree in index._trees.values():
        assert tree.check(rids_out=rids) == []
    digest = hashlib.sha256()
    for rid in sorted(rids):
        digest.update(rid.to_bytes(8, "little"))
        digest.update(index.store.read(rid))
    return digest.hexdigest()


SMALL_LADDER = QuadTreeConfig(leaf_size_ladder=(256, 512, 1024),
                              max_depth=3)


def updated_index(vmax, pmax, float32, seed, quadtree=SMALL_LADDER):
    """A small index over a 16-page pool after inserts, three rounds of
    single updates (some across the lifetime window) and deletes.  The
    default three-rung leaf ladder of small records and depth cap make
    it promote, split, collapse and spill into overflow chains."""
    lifetime = 120.0
    rng = random.Random(seed)
    d = len(vmax)
    index = StripesIndex(
        StripesConfig(vmax=vmax, pmax=pmax, lifetime=lifetime,
                      float32=float32, quadtree=quadtree),
        BufferPool(InMemoryPageFile(), capacity=POOL_PAGES))

    def state(oid, t):
        return MovingObjectState(
            oid, pos=tuple(rng.uniform(0.0, pmax[k]) for k in range(d)),
            vel=tuple(rng.uniform(-vmax[k], vmax[k]) for k in range(d)),
            t=t)

    current = {oid: state(oid, rng.uniform(0.0, 60.0))
               for oid in range(600)}
    # Coincident objects share one dual point: a maximum-depth leaf.
    cluster = state(600, 30.0)
    current.update((oid, MovingObjectState(oid, cluster.pos, cluster.vel,
                                           cluster.t))
                   for oid in range(600, 700))
    index.insert_batch(list(current.values()))
    for _ in range(3):
        for oid in rng.sample(sorted(current), 400):
            new = state(oid, current[oid].t + rng.uniform(0.0, 40.0))
            assert index.update(current[oid], new)
            current[oid] = new
    for oid in rng.sample(sorted(current), 150):
        assert index.delete(current.pop(oid))
    assert len(index) == len(current)
    return index


def test_page_bytes_of_update_heavy_run(run):
    setup, _, _ = run
    assert page_digest(setup.index) == GOLDEN_PAGE_DIGESTS["update_heavy_run"]


@pytest.mark.parametrize("name, vmax, pmax, float32", [
    ("d1_updates", (3.0,), (1000.0,), False),
    ("float32_updates", (3.0, 3.0), (1000.0, 1000.0), True),
])
def test_page_bytes_of_small_updated_index(name, vmax, pmax, float32):
    index = updated_index(vmax, pmax, float32, seed=5)
    assert index.check() == []
    assert page_digest(index) == GOLDEN_PAGE_DIGESTS[name]


REBUILD_CASES = {
    "d1_float32_chains": ((3.0,), (1000.0,), True,
                          QuadTreeConfig(leaf_size_ladder=(256, 512),
                                         max_depth=3)),
    # Depth 1 fills the 64 level-1 leaves past their capacity, and a
    # collapse threshold above a leaf's capacity rebuilds under-filled
    # subtrees as non-leaves, not single leaves.
    "d3_chains": ((3.0,) * 3, (1000.0,) * 3, False,
                  QuadTreeConfig(leaf_size_ladder=(256, 512, 1024),
                                 max_depth=1, collapse_capacity=600)),
    # Ablation A1: every leaf is born large, so nothing is promoted.
    "a1_chains": ((3.0, 3.0), (1000.0, 1000.0), False,
                  QuadTreeConfig(leaf_size_ladder=(1024,), max_depth=2)),
}


#: ``(leaf_splits, leaf_promotions, collapses, overflow_spills, chained
#: deletes)`` of each rebuild case; a chained delete is a leaf delete
#: group that removed entries from a leaf with an overflow chain.
GOLDEN_REBUILD_COUNTS = {
    "d1_float32_chains": (8, 14, 6, 19, 112),
    "d3_chains": (2, 26, 74, 167, 258),
    "a1_chains": (13, 0, 15, 8, 90),
}


@pytest.mark.parametrize("name", sorted(REBUILD_CASES))
def test_page_bytes_of_rebuilt_index(name, monkeypatch):
    """Page bytes after every kind of record rebuild: splits, collapses,
    spills into overflow chains and deletes from chains all happen."""
    vmax, pmax, float32, quadtree = REBUILD_CASES[name]
    chained_deletes = []
    leaf_delete_group = DualQuadTree._leaf_delete_group

    def counted(tree, rid, leaf, gpoints, gidxs, flags):
        chained = leaf.overflow != INVALID_RID
        removed = leaf_delete_group(tree, rid, leaf, gpoints, gidxs, flags)
        if chained and removed:
            chained_deletes.append(removed)
        return removed

    monkeypatch.setattr(DualQuadTree, "_leaf_delete_group", counted)
    index = updated_index(vmax, pmax, float32, seed=5, quadtree=quadtree)
    monkeypatch.undo()
    counters = QuadTreeCounters().merge(index._retired_counters)
    for tree in index._trees.values():
        counters.merge(tree.counters)
    counts = (counters.leaf_splits, counters.leaf_promotions,
              counters.collapses, counters.overflow_spills,
              len(chained_deletes))
    splits, _, collapses, spills, chain_edits = counts
    assert splits > 0 and collapses > 0 and spills > 0 and chain_edits > 0
    assert counts == GOLDEN_REBUILD_COUNTS[name]
    assert index.check() == []
    assert page_digest(index) == GOLDEN_PAGE_DIGESTS[name]
