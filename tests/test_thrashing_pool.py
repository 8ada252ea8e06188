"""Queries and updates through a buffer pool far smaller than the index.

With a 16-page pool almost every node access misses the pool, so leaf
records are decoded from page bytes over and over.  A record holds
only its packed on-page rows, and the query descent must read them as
columns: a query-only pass may not decode any rows into a
``List[DualPoint]`` (:meth:`NodeCodec.points`, the one list decoder).
Answers must match the exact scan oracle, and the page accesses per
query must equal the counts below, which were recorded with the
earlier decoder (one ``DualPoint`` per entry) -- changing how a record
is decoded must not change which pages are read.
``explain()`` runs the same descent, so the same holds for it.  The
time-slice ``count()`` golden was recorded while leaves still decoded
into float64 columns, the d = 1/3 and A2 ones while ``count()`` still
ran a recursion of its own; counting over packed rows, through the
search descent, must read the same pages and give the same counts.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.baselines.scan import ScanIndex
from repro.core.nodes import LeafExtension, LeafNode, NodeCodec
from repro.core.quadtree import PAPER_LEAF_LADDER, QuadTreeConfig
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import (
    MovingObjectState,
    MovingQuery,
    TimeSliceQuery,
    WindowQuery,
)
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import InMemoryPageFile

CONFIG = StripesConfig(vmax=(3.0, 3.0), pmax=(1000.0, 1000.0),
                       lifetime=120.0,
                       quadtree=QuadTreeConfig(
                           leaf_size_ladder=PAPER_LEAF_LADDER))
POOL_PAGES = 16
N_OBJECTS = 3000
N_QUERIES = 40

#: ``(logical_reads, physical_reads)`` of each query in the pass below.
GOLDEN_IO = [
    (78, 50), (48, 31), (75, 43), (66, 41), (57, 39), (52, 31),
    (51, 35), (57, 38), (49, 31), (48, 31), (57, 34), (66, 41),
    (67, 46), (80, 48), (71, 40), (86, 51), (64, 41), (63, 40),
    (71, 40), (86, 55), (49, 31), (71, 44), (54, 36), (52, 35),
    (47, 30), (58, 36), (68, 45), (74, 48), (48, 31), (74, 43),
    (80, 48), (48, 30), (62, 40), (66, 44), (57, 35), (67, 44),
    (52, 33), (70, 43), (52, 33), (70, 42),
]

N_COUNT_QUERIES = 24

#: ``(count, logical_reads, physical_reads)`` of ``index.count(q)`` for
#: each time-slice query of :func:`count_pass`.
GOLDEN_COUNT_IO = [
    (3, 68, 43), (89, 64, 41), (655, 125, 74), (2029, 172, 90),
    (3, 47, 30), (115, 88, 52), (658, 125, 71), (1979, 178, 92),
    (3, 47, 30), (108, 67, 44), (650, 134, 76), (2053, 174, 90),
    (4, 64, 39), (127, 94, 57), (697, 125, 74), (2123, 178, 92),
    (4, 51, 33), (102, 71, 44), (721, 128, 73), (2021, 169, 89),
    (6, 55, 35), (110, 80, 49), (659, 125, 74), (1964, 175, 91),
]


#: Configurations whose descent classifies quads through the general
#: ``_plane_codes`` path instead of the inline two-dimensional one:
#: d = 1 and d = 3 over the same space, and d = 2 under ablation A2
#: (each child classified on its own).
PLANE_CODE_CONFIGS = {
    "d1": replace(CONFIG, vmax=(3.0,), pmax=(1000.0,)),
    "d3": replace(CONFIG, vmax=(3.0,) * 3, pmax=(1000.0,) * 3),
    "d2-a2": replace(CONFIG, quadtree=QuadTreeConfig(
        quad_pruning=False, leaf_size_ladder=PAPER_LEAF_LADDER)),
}

#: ``(count, logical_reads, physical_reads)`` of :func:`count_pass` over
#: each of :data:`PLANE_CODE_CONFIGS`.  A2 prunes the same children as
#: the shared classification, so it reads the same pages.
GOLDEN_COUNT_IO_PLANE_CODES = {
    "d1": [
        (120, 31, 10), (581, 32, 14), (1445, 52, 13), (2437, 56, 25),
        (117, 29, 10), (531, 33, 2), (1440, 49, 22), (2488, 57, 25),
        (65, 25, 11), (586, 35, 8), (1410, 51, 13), (2433, 56, 25),
        (95, 30, 10), (542, 35, 4), (1423, 50, 22), (2542, 56, 24),
        (104, 29, 11), (541, 33, 5), (1440, 49, 22), (2500, 59, 25),
        (102, 25, 7), (571, 38, 19), (1440, 50, 23), (2493, 55, 24),
    ],
    "d3": [
        (1, 54, 49), (24, 62, 58), (325, 130, 112), (1778, 130, 112),
        (0, 37, 36), (19, 41, 39), (331, 130, 111), (1657, 130, 112),
        (0, 41, 41), (26, 98, 89), (330, 130, 112), (1805, 130, 112),
        (1, 98, 90), (26, 98, 90), (292, 130, 112), (1638, 130, 112),
        (1, 37, 36), (15, 62, 57), (326, 130, 112), (1839, 130, 112),
        (0, 41, 40), (16, 41, 39), (354, 130, 111), (1631, 130, 112),
    ],
    "d2-a2": GOLDEN_COUNT_IO,
}

#: The library's default leaf ladder (an eighth of a page up to a full
#: page) over the inputs of each golden above.  Leaf sizes change which
#: page holds a record, not the tree: counts, answers and logical reads
#: equal the two-size rows, and only the physical reads below differ.
LADDER_CONFIGS = {
    name: replace(config, quadtree=replace(config.quadtree,
                                           leaf_size_ladder=None))
    for name, config in [("d2", CONFIG), *PLANE_CODE_CONFIGS.items()]}

#: Physical reads per query of the query pass (``"query"``) and of each
#: count pass over :data:`LADDER_CONFIGS`.
GOLDEN_PHYSICAL_LADDER = {
    "query": [
        37, 24, 34, 34, 30, 28, 26, 27, 25, 23, 27, 34, 34, 40, 35, 37,
        28, 27, 34, 40, 24, 30, 25, 25, 24, 26, 35, 36, 24, 34, 39, 23,
        27, 32, 29, 28, 25, 34, 25, 29,
    ],
    "d2": [
        34, 29, 51, 60, 24, 39, 55, 60, 24, 26, 57, 61, 30, 45, 51, 60,
        26, 32, 54, 60, 27, 34, 51, 60,
    ],
    "d1": [
        9, 14, 13, 21, 12, 5, 21, 21, 6, 8, 13, 21, 9, 7, 22, 21, 12, 3,
        21, 23, 1, 17, 22, 21,
    ],
    "d3": [
        43, 50, 83, 85, 35, 36, 84, 85, 38, 59, 84, 85, 66, 60, 84, 85,
        35, 50, 83, 85, 39, 36, 83, 85,
    ],
}
GOLDEN_PHYSICAL_LADDER["d2-a2"] = GOLDEN_PHYSICAL_LADDER["d2"]


def with_physical(golden, physical):
    """The rows of ``golden`` with their last field, the physical
    reads, replaced by ``physical``."""
    return [row[:-1] + (reads,)
            for row, reads in zip(golden, physical, strict=True)]


def make_states(rng, config=CONFIG):
    # Two live lifetime windows, as in the paper's steady state.
    states = [
        MovingObjectState(
            oid,
            pos=tuple(rng.uniform(0.0, p) for p in config.pmax),
            vel=tuple(rng.uniform(-v, v) for v in config.vmax),
            t=rng.uniform(30.0, 150.0))
        for oid in range(N_OBJECTS)]
    states.sort(key=lambda s: s.t)
    return states


def make_query(rng, now):
    lo = tuple(rng.uniform(0.0, p - 150.0) for p in CONFIG.pmax)
    hi = tuple(x + rng.uniform(20.0, 150.0) for x in lo)
    t1 = now + rng.uniform(0.0, 30.0)
    kind = rng.choice(("ts", "win", "mov"))
    if kind == "ts":
        return TimeSliceQuery(lo, hi, t1)
    t2 = t1 + rng.uniform(1.0, 20.0)
    if kind == "win":
        return WindowQuery(lo, hi, t1, t2)
    shift = tuple(rng.uniform(-50.0, 50.0) for _ in CONFIG.pmax)
    return MovingQuery(lo, hi, tuple(x + s for x, s in zip(lo, shift)),
                       tuple(x + s for x, s in zip(hi, shift)), t1, t2)


def build(config=CONFIG):
    rng = random.Random(2024)
    states = make_states(rng, config)
    index = StripesIndex(config, BufferPool(InMemoryPageFile(),
                                            capacity=POOL_PAGES))
    oracle = ScanIndex(config.lifetime)
    index.insert_batch(states)
    for state in states:
        oracle.insert(state)
    return rng, states, index, oracle


def query_pass(rng, index, oracle, now, explain=False):
    """Run one query-only pass, through ``query()`` or ``explain()``;
    returns per-query ``(logical, physical)`` reads after checking every
    answer against the oracle."""
    io = []
    for _ in range(N_QUERIES):
        query = make_query(rng, now)
        before = index.pool.stats.snapshot()
        if explain:
            got = index.explain(query).results
        else:
            got = index.query(query)
        diff = index.pool.stats.diff(before)
        io.append((diff.logical_reads, diff.physical_reads))
        assert sorted(got) == sorted(oracle.query(query)), query
    return io


def count_pass(rng, index, oracle, now, n_queries=N_COUNT_QUERIES):
    """``(count, logical, physical)`` of ``count()`` over time-slice
    queries from small boxes up to most of the space, after checking
    every count against the oracle.  The large boxes hold whole
    subtrees, which count from their stored sizes."""
    out = []
    for k in range(n_queries):
        span = (40.0, 200.0, 500.0, 900.0)[k % 4]
        lo = tuple(rng.uniform(0.0, p - span) for p in index.config.pmax)
        hi = tuple(x + span for x in lo)
        query = TimeSliceQuery(lo, hi, now + rng.uniform(0.0, 30.0))
        before = index.pool.stats.snapshot()
        got = index.count(query)
        diff = index.pool.stats.diff(before)
        out.append((got, diff.logical_reads, diff.physical_reads))
        assert got == len(oracle.query(query)), query
    return out


@pytest.fixture
def decoded_leaves(monkeypatch):
    """Every leaf or extension record decoded while the fixture is
    active."""
    seen = []
    for name in ("_deserialize_leaf", "_deserialize_extension"):
        real = getattr(NodeCodec, name)

        def recording(self, buf, offset, _real=real):
            rec = _real(self, buf, offset)
            seen.append(rec)
            return rec

        monkeypatch.setattr(NodeCodec, name, recording)
    return seen


@pytest.fixture
def point_lists(monkeypatch):
    """Row counts of every :meth:`NodeCodec.points` call (the one decoder
    of ``DualPoint`` lists) made while the fixture is active."""
    calls = []
    real = NodeCodec.points

    def counting(self, rows):
        calls.append(len(rows) // self.entry_size)
        return real(self, rows)

    monkeypatch.setattr(NodeCodec, "points", counting)
    return calls


def test_query_pass_reads_columns_only(decoded_leaves, point_lists):
    rng, _, index, oracle = build()
    assert index.pages_in_use() > 4 * POOL_PAGES
    del decoded_leaves[:], point_lists[:]
    io = query_pass(rng, index, oracle, now=150.0)
    assert decoded_leaves, "the pool never missed"
    assert all(isinstance(rec, (LeafNode, LeafExtension))
               for rec in decoded_leaves)
    assert not point_lists, \
        f"{len(point_lists)} entry lists built during a query-only pass"
    assert io == GOLDEN_IO


def test_explain_traces_the_same_descent(decoded_leaves, point_lists):
    """``explain()`` runs the production descent: the same answers, the
    same page reads per query, and no entry list is built."""
    rng, _, index, oracle = build()
    del decoded_leaves[:], point_lists[:]
    io = query_pass(rng, index, oracle, now=150.0, explain=True)
    assert decoded_leaves, "the pool never missed"
    assert not point_lists, \
        f"{len(point_lists)} entry lists built during explain()"
    assert io == GOLDEN_IO


def test_overflow_chains_read_columns_only(decoded_leaves, point_lists):
    """Depth-capped leaves spill into extension chains; the descent reads
    the extensions' packed rows without building entry lists."""
    capped = replace(CONFIG, quadtree=QuadTreeConfig(max_depth=1))
    rng, _, index, oracle = build(capped)
    del decoded_leaves[:], point_lists[:]
    query_pass(rng, index, oracle, now=150.0)
    assert any(isinstance(rec, LeafExtension) for rec in decoded_leaves)
    assert not point_lists


def test_count_pass_golden_io():
    """``count()`` answers and page reads of time-slice queries through
    the thrashing pool.  Changing how leaf rows are stored or counted
    must not change which pages the count descent reads."""
    rng, _, index, oracle = build()
    assert count_pass(rng, index, oracle, now=150.0) == GOLDEN_COUNT_IO



@pytest.mark.parametrize("name", sorted(PLANE_CODE_CONFIGS))
def test_count_pass_golden_io_plane_codes(name):
    """The count golden for d = 1 and 3 and for d = 2 without quad
    pruning, where the descent classifies through ``_plane_codes``."""
    rng, _, index, oracle = build(PLANE_CODE_CONFIGS[name])
    assert index.pages_in_use() > POOL_PAGES
    assert count_pass(rng, index, oracle, now=150.0) \
        == GOLDEN_COUNT_IO_PLANE_CODES[name]

def test_default_ladder_query_pass_golden_io(decoded_leaves, point_lists):
    """The query pass on the default ladder: the same answers and
    logical reads as the two-size golden, from fewer pages."""
    rng, _, index, oracle = build(LADDER_CONFIGS["d2"])
    assert index.pages_in_use() > 2 * POOL_PAGES
    del decoded_leaves[:], point_lists[:]
    io = query_pass(rng, index, oracle, now=150.0)
    assert decoded_leaves and not point_lists
    assert io == with_physical(GOLDEN_IO, GOLDEN_PHYSICAL_LADDER["query"])


@pytest.mark.parametrize("name", sorted(LADDER_CONFIGS))
def test_default_ladder_count_pass_golden_io(name):
    rng, _, index, oracle = build(LADDER_CONFIGS[name])
    assert index.pages_in_use() > POOL_PAGES
    golden = (GOLDEN_COUNT_IO if name == "d2"
              else GOLDEN_COUNT_IO_PLANE_CODES[name])
    assert count_pass(rng, index, oracle, now=150.0) \
        == with_physical(golden, GOLDEN_PHYSICAL_LADDER[name])


def test_updates_after_thrashing_pass_stay_exact():
    rng, states, index, oracle = build()
    query_pass(rng, index, oracle, now=150.0)
    current = {s.oid: s for s in states}
    for step in range(600):
        old = current[rng.randrange(N_OBJECTS)]
        new = MovingObjectState(
            old.oid,
            pos=tuple(rng.uniform(0.0, p) for p in CONFIG.pmax),
            vel=tuple(rng.uniform(-v, v) for v in CONFIG.vmax),
            t=150.0 + step * 0.02)
        assert index.update(old, new) == oracle.update(old, new)
        current[old.oid] = new
    assert index.check() == []
    query_pass(rng, index, oracle, now=162.0)
