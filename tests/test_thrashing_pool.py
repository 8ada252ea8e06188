"""Queries and updates through a buffer pool far smaller than the index.

With a 16-page pool almost every node access misses the pool, so leaf
records are decoded from page bytes over and over.  The query descent
must read those records' SoA columns only: no leaf decoded during a
query-only pass may build its ``List[DualPoint]``.  Answers must match
the exact scan oracle, and the page accesses per query must equal the
counts below, which were recorded with the earlier decoder (one
``DualPoint`` per entry) -- changing how a record is decoded must not
change which pages are read.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.baselines.scan import ScanIndex
from repro.core.nodes import LeafExtension, LeafNode, NodeCodec
from repro.core.quadtree import QuadTreeConfig
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
                       lifetime=120.0)
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


def make_states(rng):
    # Two live lifetime windows, as in the paper's steady state.
    states = [
        MovingObjectState(
            oid,
            pos=tuple(rng.uniform(0.0, p) for p in CONFIG.pmax),
            vel=tuple(rng.uniform(-v, v) for v in CONFIG.vmax),
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
    states = make_states(rng)
    index = StripesIndex(config, BufferPool(InMemoryPageFile(),
                                            capacity=POOL_PAGES))
    oracle = ScanIndex(CONFIG.lifetime)
    index.insert_batch(states)
    for state in states:
        oracle.insert(state)
    return rng, states, index, oracle


def query_pass(rng, index, oracle, now):
    """Run one query-only pass; returns per-query ``(logical,
    physical)`` reads after checking every answer against the oracle."""
    io = []
    for _ in range(N_QUERIES):
        query = make_query(rng, now)
        before = index.pool.stats.snapshot()
        got = index.query(query)
        diff = index.pool.stats.diff(before)
        io.append((diff.logical_reads, diff.physical_reads))
        assert sorted(got) == sorted(oracle.query(query)), query
    return io


@pytest.fixture
def decoded_leaves(monkeypatch):
    """Every leaf or extension record decoded while the fixture is
    active."""
    seen = []
    for name in ("_deserialize_leaf", "_deserialize_extension"):
        real = getattr(NodeCodec, name)

        def recording(self, raw, _real=real):
            rec = _real(self, raw)
            seen.append(rec)
            return rec

        monkeypatch.setattr(NodeCodec, name, recording)
    return seen


def test_query_pass_reads_columns_only(decoded_leaves):
    rng, _, index, oracle = build()
    assert index.pages_in_use() > 4 * POOL_PAGES
    del decoded_leaves[:]
    io = query_pass(rng, index, oracle, now=150.0)
    assert decoded_leaves, "the pool never missed"
    assert all(isinstance(rec, (LeafNode, LeafExtension))
               for rec in decoded_leaves)
    materialized = [rec for rec in decoded_leaves
                    if rec._entries is not None]
    assert not materialized, \
        f"{len(materialized)} of {len(decoded_leaves)} decoded leaves " \
        f"built entry lists during a query-only pass"
    assert io == GOLDEN_IO


def test_overflow_chains_read_columns_only(decoded_leaves):
    """Depth-capped leaves spill into extension chains; the descent reads
    the extensions' columns without building their entry lists."""
    capped = replace(CONFIG, quadtree=QuadTreeConfig(max_depth=1))
    rng, _, index, oracle = build(capped)
    del decoded_leaves[:]
    query_pass(rng, index, oracle, now=150.0)
    assert any(isinstance(rec, LeafExtension) for rec in decoded_leaves)
    assert all(rec._entries is None for rec in decoded_leaves)


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
