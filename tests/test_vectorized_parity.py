"""Query answers against the exact scan oracle, kernels against their
scalar specifications, and ``explain()`` against golden descent counts.

There is one query descent.  Its answers are checked against
:class:`repro.baselines.scan.ScanIndex`, which evaluates every query
predicate on every live object with no index at all, in every supported
dimensionality, with and without the shared quad classification, in
float64 and float32, before and after updates.  The numpy kernels the
descent uses (``contains_batch``, ``classify_quads``, ``matches_batch``)
must give *identical* answers to the per-point tests they vectorize --
not "close", identical -- including float32-rounded points placed on
the region's polyline boundaries, where ``>=`` vs ``>`` mistakes would
show up.  ``explain()`` must trace that same descent: its counters must
equal golden counts, its answers and page reads those of ``query()``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest

from repro.baselines.scan import ScanIndex
from repro.core.quadtree import QuadTreeConfig
from repro.core.query_region import QueryRegion2D, build_query_regions
from repro.core.stripes import StripesConfig, StripesIndex
from repro.obs.tracer import DescentTrace
from repro.query.predicates import MovingQueryEvaluator
from repro.query.types import (
    MovingObjectState,
    MovingQuery,
    TimeSliceQuery,
    WindowQuery,
)
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import InMemoryPageFile

VMAX = (3.0, 3.0, 2.0)
PMAX = (1000.0, 1000.0, 800.0)
LIFETIME = 120.0


def random_query(rng: random.Random, d: int = 2, kind: Optional[str] = None,
                 span: float = 100.0, t_lo: float = 0.0):
    if kind is None:
        kind = rng.choice(("ts", "win", "mov"))
    lo1 = tuple(rng.uniform(0.0, PMAX[i]) for i in range(d))
    hi1 = tuple(lo1[i] + rng.uniform(0.0, span) for i in range(d))
    t1 = t_lo + rng.uniform(0.0, LIFETIME)
    if kind == "ts":
        return TimeSliceQuery(lo1, hi1, t1)
    t2 = t1 + rng.uniform(1e-3, 60.0)
    if kind == "win":
        return WindowQuery(lo1, hi1, t1, t2)
    lo2 = tuple(rng.uniform(0.0, PMAX[i]) for i in range(d))
    hi2 = tuple(lo2[i] + rng.uniform(0.0, span) for i in range(d))
    return MovingQuery(lo1, hi1, lo2, hi2, t1, t2)


def random_states(rng: random.Random, n: int, d: int = 2,
                  t_max: float = LIFETIME, t_lo: float = 0.0):
    return [
        MovingObjectState(
            oid,
            pos=tuple(rng.uniform(0.0, PMAX[i]) for i in range(d)),
            vel=tuple(rng.uniform(-VMAX[i], VMAX[i]) for i in range(d)),
            t=rng.uniform(t_lo, t_max))
        for oid in range(n)
    ]


class TestContainsBatchParity:
    """``contains_batch`` == ``contains_point`` on every lane."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_random_points(self, seed, dtype):
        rng = random.Random(seed)
        for _ in range(40):
            region = self._random_region(rng)
            n = 250
            vs = np.array([rng.uniform(0.0, 2 * VMAX[0]) for _ in range(n)],
                          dtype=dtype)
            ps = np.array(
                [rng.uniform(0.0, PMAX[0] + 2 * VMAX[0] * LIFETIME)
                 for _ in range(n)], dtype=dtype)
            got = region.contains_batch(vs, ps)
            want = [region.contains_point(float(v), float(p))
                    for v, p in zip(vs, ps)]
            assert got.tolist() == want

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_float32_points_on_polyline_edges(self, seed):
        """Points constructed *on* the lower/upper boundary polylines --
        then rounded through float32, landing a hair on either side --
        must classify identically in both paths."""
        rng = random.Random(seed)
        for _ in range(40):
            region = self._random_region(rng)
            vs, ps = [], []
            for _ in range(200):
                v = rng.uniform(0.0, 2 * VMAX[0])
                edge = (region.lower_at(v) if rng.random() < 0.5
                        else region.upper_at(v))
                # float32 rounding of both coordinates, then back to the
                # float64 values the index would actually store.
                vs.append(float(np.float32(v)))
                ps.append(float(np.float32(edge)))
            # Exact breakpoint abscissae too, where the min/max of the
            # two lines switches over.
            for brk in (region._lower_break, region._upper_break):
                if brk is not None:
                    vs.append(brk)
                    ps.append(region.lower_at(brk))
                    vs.append(brk)
                    ps.append(region.upper_at(brk))
            vs_arr = np.array(vs, dtype=np.float64)
            ps_arr = np.array(ps, dtype=np.float64)
            got = region.contains_batch(vs_arr, ps_arr)
            want = [region.contains_point(v, p) for v, p in zip(vs, ps)]
            assert got.tolist() == want

    @staticmethod
    def _random_region(rng: random.Random) -> QueryRegion2D:
        query = random_query(rng, d=1)
        return build_query_regions(query.as_moving(), (VMAX[0],), LIFETIME,
                                   t_ref=0.0)[0]


class TestClassifyQuadsParity:
    """``classify_quads`` == four ``classify_rect`` calls."""

    def test_random_quads(self):
        rng = random.Random(42)
        for _ in range(200):
            query = random_query(rng, d=1)
            region = build_query_regions(query.as_moving(), (VMAX[0],),
                                         LIFETIME, t_ref=0.0)[0]
            v1 = rng.uniform(0.0, 2 * VMAX[0])
            sl_v = rng.uniform(1e-3, 2 * VMAX[0])
            p1 = rng.uniform(0.0, PMAX[0])
            sl_p = rng.uniform(1e-3, 200.0)
            quads = region.classify_quads(v1, v1 + sl_v, v1 + 2 * sl_v,
                                          p1, p1 + sl_p, p1 + 2 * sl_p)
            for code in range(4):
                va = v1 + (code & 1) * sl_v
                pa = p1 + ((code >> 1) & 1) * sl_p
                want = region.classify_rect(va, va + sl_v, pa, pa + sl_p)
                assert quads[code] is want, (code, quads[code], want)


class TestMatchesBatchParity:
    """``matches_batch`` == ``matches_trajectory`` on every lane."""

    def test_random_trajectories(self):
        rng = random.Random(7)
        for _ in range(60):
            query = random_query(rng)
            evaluator = MovingQueryEvaluator(query)
            n = 200
            p0s = np.array([[rng.uniform(-100.0, PMAX[i])
                             for i in range(2)] for _ in range(n)])
            pvs = np.array([[rng.uniform(-VMAX[i], VMAX[i])
                             for i in range(2)] for _ in range(n)])
            got = evaluator.matches_batch(p0s, pvs)
            want = [evaluator.matches_trajectory(p0s[k], pvs[k])
                    for k in range(n)]
            assert got.tolist() == want


def make_index(d: int = 2, float32: bool = False,
               quad_pruning: bool = True) -> StripesIndex:
    return StripesIndex(StripesConfig(
        vmax=VMAX[:d], pmax=PMAX[:d], lifetime=LIFETIME, float32=float32,
        quadtree=QuadTreeConfig(quad_pruning=quad_pruning)))


def make_oracle(states) -> ScanIndex:
    oracle = ScanIndex(LIFETIME)
    for state in states:
        oracle.insert(state)
    return oracle


def assert_answers_exact(index, oracle, queries):
    """Every answer path equals the scan oracle; ``refine=False`` is a
    superset of it (equal for time-slice queries)."""
    batch = index.query_batch(queries)
    raw = index.query_batch(queries, refine=False)
    for k, query in enumerate(queries):
        expect = sorted(oracle.query(query))
        assert sorted(batch[k]) == expect, query
        assert index.query(query) == batch[k]
        assert index.count(query) == len(expect)
        candidates = set(raw[k])
        assert len(candidates) == len(raw[k])
        assert candidates >= set(expect)
        if isinstance(query, TimeSliceQuery):
            assert sorted(raw[k]) == expect


def moved(state: MovingObjectState, rng: random.Random,
          t: float) -> MovingObjectState:
    d = len(state.pos)
    return MovingObjectState(
        state.oid,
        pos=tuple(rng.uniform(0.0, PMAX[i]) for i in range(d)),
        vel=tuple(rng.uniform(-VMAX[i], VMAX[i]) for i in range(d)),
        t=t)


class TestIndexLevelParity:
    """Whole-index answers equal the exact scan oracle."""

    @pytest.mark.parametrize("float32", [False, True])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_query_results_identical(self, seed, float32):
        rng = random.Random(seed)
        index = make_index(float32=float32)
        states = random_states(rng, 1500)
        index.insert_batch(states)
        oracle = make_oracle(states)
        assert len(index) == len(oracle)
        assert_answers_exact(index, oracle,
                             [random_query(rng) for _ in range(120)])

    @pytest.mark.parametrize("float32", [False, True])
    @pytest.mark.parametrize("quad_pruning", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dimensions_and_ablations(self, d, quad_pruning, float32):
        """Time-slice, window and moving queries in every supported
        dimensionality, with and without the shared quad classification
        (ablation A2), before and after a round of updates."""
        rng = random.Random(100 * d + 10 * quad_pruning + float32)
        index = make_index(d, float32, quad_pruning)
        states = random_states(rng, 800, d)
        index.insert_batch(states)
        oracle = make_oracle(states)
        queries = [random_query(rng, d, kind)
                   for kind in ("ts", "win", "mov") * 8]
        assert_answers_exact(index, oracle, queries)
        for state in states[::3]:
            new = moved(state, rng, t=state.t + rng.uniform(0.0, 5.0))
            assert index.update(state, new) == oracle.update(state, new)
        assert index.check() == []
        assert_answers_exact(index, oracle, queries)

    def test_refine_off_identical(self):
        """``refine=False`` returns the per-plane candidates: a superset
        of the exact answer, identical to it for time-slice queries."""
        rng = random.Random(8)
        index = make_index()
        states = random_states(rng, 800)
        index.insert_batch(states)
        oracle = make_oracle(states)
        queries = [random_query(rng) for _ in range(60)]
        raw = index.query_batch(queries, refine=False)
        assert raw == [index.query(q, refine=False) for q in queries]
        for query, candidates in zip(queries, raw):
            expect = oracle.query(query)
            assert set(candidates) >= set(expect)
            if isinstance(query, TimeSliceQuery):
                assert sorted(candidates) == sorted(expect)

    def test_insert_batch_equals_sequential(self):
        rng = random.Random(9)
        batch_idx, seq_idx = make_index(), make_index()
        states = random_states(rng, 600)
        assert batch_idx.insert_batch(states) == len(states)
        for state in states:
            seq_idx.insert(state)
        oracle = make_oracle(states)
        probes = [random_query(rng) for _ in range(40)]
        for query in probes:
            expect = sorted(oracle.query(query))
            assert sorted(batch_idx.query(query)) == expect
            assert sorted(seq_idx.query(query)) == expect
        assert batch_idx.pages_in_use() == seq_idx.pages_in_use()

    def test_query_batch_matches_sequential_on_same_index(self):
        rng = random.Random(10)
        index = make_index()
        index.insert_batch(random_states(rng, 700))
        queries = [random_query(rng) for _ in range(50)]
        assert index.query_batch(queries) == \
            [index.query(q) for q in queries]


class TestPackedRowStaleness:
    """A record's packed rows must follow every entry mutation: queries
    after updates read the rows the writes packed, never older ones."""

    def test_updates_invalidate_packed_rows(self):
        rng = random.Random(13)
        index = make_index()
        states = random_states(rng, 400)
        index.insert_batch(states)
        oracle = make_oracle(states)
        query = TimeSliceQuery((0.0, 0.0), PMAX[:2], t=30.0)
        # Read every record's rows once before the updates.
        assert sorted(index.query(query)) == sorted(oracle.query(query))
        for state in states[::3]:
            new = MovingObjectState(
                state.oid,
                pos=tuple(min(PMAX[i], state.pos[i] + 1.0)
                          for i in range(2)),
                vel=state.vel, t=state.t)
            assert index.update(state, new) == oracle.update(state, new)
        # check() compares every record's valid rows with its entries.
        assert index.check() == []
        for _ in range(30):
            probe = random_query(rng)
            assert sorted(index.query(probe)) == sorted(oracle.query(probe))


#: Objects in the index ``explain()`` is traced on, per dimensionality.
GOLDEN_OBJECTS = {1: 1500, 2: 2500, 3: 5000}
GOLDEN_QUERIES = 24

#: Summed :class:`DescentTrace` counters (``max_depth``: the maximum) of
#: ``explain()`` over the queries of :func:`golden_explain_pass`,
#: recorded while ``explain()`` still ran a separate list-building
#: descent; the single descent must reproduce every one of them.
GOLDEN_TRACE = {
    (1, True): dict(
        nonleaf_visits=144, leaf_visits=341, max_depth=2, quads_inside=18,
        quads_overlap=412, quads_disjunct=138, children_pruned=103,
        children_reported=18, children_recursed=407, entries_scanned=27997,
        entries_reported=2422, candidates=15193,
    ),
    (1, False): dict(
        nonleaf_visits=144, leaf_visits=341, max_depth=2, quads_inside=18,
        quads_overlap=407, quads_disjunct=103, children_pruned=103,
        children_reported=18, children_recursed=407, entries_scanned=27997,
        entries_reported=2422, candidates=15193,
    ),
    (2, True): dict(
        nonleaf_visits=271, leaf_visits=1879, max_depth=2, quads_inside=119,
        quads_overlap=1390, quads_disjunct=627, children_pruned=1533,
        children_reported=102, children_recursed=1933, entries_scanned=31703,
        entries_reported=2560, candidates=9458,
    ),
    (2, False): dict(
        nonleaf_visits=271, leaf_visits=1879, max_depth=2, quads_inside=391,
        quads_overlap=4349, quads_disjunct=1533, children_pruned=1533,
        children_reported=102, children_recursed=1933, entries_scanned=31703,
        entries_reported=2560, candidates=9458,
    ),
    (3, True): dict(
        nonleaf_visits=361, leaf_visits=7344, max_depth=2, quads_inside=253,
        quads_overlap=2849, quads_disjunct=1098, children_pruned=7061,
        children_reported=244, children_recursed=6988, entries_scanned=63053,
        entries_reported=3215, candidates=13357,
    ),
    (3, False): dict(
        nonleaf_visits=361, leaf_visits=7344, max_depth=2, quads_inside=2486,
        quads_overlap=25457, quads_disjunct=7061, children_pruned=7061,
        children_reported=244, children_recursed=6988, entries_scanned=63053,
        entries_reported=3215, candidates=13357,
    ),
}


def golden_explain_pass(d: int, quad_pruning: bool):
    """Build the fixed index for ``(d, quad_pruning)`` and yield
    ``(index, query, explain)`` for each of its queries."""
    rng = random.Random(2004 + d)
    index = make_index(d, quad_pruning=quad_pruning)
    states = random_states(rng, GOLDEN_OBJECTS[d], d, t_lo=30.0,
                           t_max=150.0)
    states.sort(key=lambda s: s.t)
    index.insert_batch(states)
    queries = [random_query(rng, d, ("ts", "win", "mov")[k % 3],
                            span=(100.0, 900.0)[k % 2], t_lo=120.0)
               for k in range(GOLDEN_QUERIES)]
    # Whole-space queries report entire subtrees without testing them.
    queries.append(TimeSliceQuery((0.0,) * d, PMAX[:d], t=125.0))
    queries.append(WindowQuery((-500.0,) * d,
                               tuple(p + 500.0 for p in PMAX[:d]),
                               125.0, 140.0))
    for query in queries:
        yield index, query, index.explain(query)


class TestExplainTracesTheDescent:
    """``explain()`` runs the descent ``query()`` runs and traces it."""

    @pytest.mark.parametrize("quad_pruning", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_golden_trace_counters(self, d, quad_pruning):
        total = DescentTrace()
        for index, query, explain in golden_explain_pass(d, quad_pruning):
            for sub in explain.sub_indexes:
                assert sub.trace.candidates == sub.candidates
            total.merge(explain.total_trace())
        counters = total.as_dict()
        del counters["tpbr_tests"]
        assert counters == GOLDEN_TRACE[d, quad_pruning]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_answers_and_reads_match_query(self, d):
        for index, query, explain in golden_explain_pass(d, True):
            before = index.pool.stats.snapshot()
            got = index.query(query)
            reads = index.pool.stats.diff(before).logical_reads
            assert explain.results == got
            assert explain.logical_reads == reads
            assert explain.candidates == \
                len(index.query(query, refine=False))

    def test_windows_created_out_of_order(self):
        """``explain()`` walks the sub-indexes in the order ``query()``
        walks them even when a later window was created first: equal
        answer lists, and equal page reads through a 4-page pool."""
        config = StripesConfig(vmax=VMAX[:2], pmax=PMAX[:2], lifetime=10.0)

        def build():
            rng = random.Random(31)
            index = StripesIndex(config, BufferPool(InMemoryPageFile(),
                                                    capacity=4))
            late = random_states(rng, 400, t_lo=10.0, t_max=20.0)
            early = random_states(rng, 400, t_lo=0.0, t_max=10.0)
            early = [replace(s, oid=s.oid + 400) for s in early]
            index.insert_batch(late)
            index.insert_batch(early)
            return index

        by_query, by_explain = build(), build()
        assert list(by_query._trees) == [1, 0]
        rng = random.Random(32)
        for _ in range(20):
            lo = tuple(rng.uniform(0.0, p - 400.0) for p in PMAX[:2])
            hi = tuple(x + 400.0 for x in lo)
            t1 = rng.uniform(10.0, 20.0)
            query = WindowQuery(lo, hi, t1, t1 + rng.uniform(0.5, 5.0))
            before = by_query.pool.stats.snapshot()
            got = by_query.query(query)
            diff = by_query.pool.stats.diff(before)
            explain = by_explain.explain(query)
            assert explain.results == got
            assert (explain.logical_reads, explain.physical_reads) == \
                (diff.logical_reads, diff.physical_reads)


class TestClassifyOnce:
    """A search classifies each plane cell -- ``(plane, level, corner)``
    -- at most once: a node's class in plane ``i`` depends only on its
    level and plane-``i`` corner, so nodes sharing that cell share one
    ``classify_quads`` call.  ``explain()`` still counts the quads of
    every node visit (:data:`GOLDEN_TRACE`)."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_each_plane_cell_classified_once(self, d, monkeypatch):
        calls = []
        real = QueryRegion2D.classify_quads

        def recording(self, *args):
            calls.append((id(self), args))
            return real(self, *args)

        monkeypatch.setattr(QueryRegion2D, "classify_quads", recording)
        made = per_visit = 0
        for index, query, explain in golden_explain_pass(d, True):
            moving = query.as_moving()
            for tree in index._trees.values():
                regions = build_query_regions(
                    moving, index.config.vmax, index.config.lifetime,
                    tree.space.t_ref)
                del calls[:]
                tree.search_columns(regions)
                # One region per plane; the arguments fix level and corner.
                assert len(calls) == len(set(calls))
                made += len(calls)
            per_visit += explain.total_trace().quads_classified // 4
        assert 0 < made < per_visit


class TestDecodedNodeCacheGenerations:
    """A raw store write must invalidate the decoded-object cache."""

    def test_raw_write_invalidates(self):
        from repro.storage.buffer_pool import BufferPool
        from repro.storage.node_store import NodeCache, RecordStore
        from repro.storage.pagefile import InMemoryPageFile

        store = RecordStore(BufferPool(InMemoryPageFile()))
        # Records keep undefined trailing bytes, so pad every payload to
        # the full record size.
        cache = NodeCache(store,
                          serialize=lambda s: s.encode().ljust(16, b"\x00"),
                          deserialize=lambda buf, offset: bytes(
                              buf[offset: offset + 16]).rstrip(
                                  b"\x00").decode())
        rid = cache.insert(16, "alpha")
        assert cache.get(rid) == "alpha"
        hits_before = cache.hits
        assert cache.get(rid) == "alpha"
        assert cache.hits == hits_before + 1
        # Bypass the cache entirely: write through the record store.
        store.write(rid, b"beta".ljust(16, b"\x00"))
        misses_before = cache.misses
        assert cache.get(rid) == "beta"
        assert cache.misses == misses_before + 1

    def test_free_and_reallocate_never_serves_stale(self):
        from repro.storage.buffer_pool import BufferPool
        from repro.storage.node_store import NodeCache, RecordStore
        from repro.storage.pagefile import InMemoryPageFile

        store = RecordStore(BufferPool(InMemoryPageFile()))
        cache = NodeCache(store,
                          serialize=lambda s: s.encode().ljust(16, b"\x00"),
                          deserialize=lambda buf, offset: bytes(
                              buf[offset: offset + 16]).rstrip(
                                  b"\x00").decode())
        rid = cache.insert(16, "old")
        store.free(rid)
        rid2 = store.allocate(16, b"new".ljust(16, b"\x00"))
        assert rid2 == rid  # slot reuse is the whole point of this test
        assert cache.get(rid2) == "new"
