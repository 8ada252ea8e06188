"""Golden answer order: the rows a query returns, in the order returned.

Every other query check compares answers as sets, so a change to how the
descent hands leaf rows to the membership kernels could reorder answers
unnoticed.  This pins a SHA-256 over, per seeded query, the ``query()``
answer list, the ``query(refine=False)`` candidate list -- both in
returned order -- and ``count()``.  It covers d = 1, 2 and 3, the
float32 layout and ablation A2 (no shared quad classification).  The
trees cap their depth and hold a cluster of coincident objects, so
maximum-depth leaves spill into overflow chains; the queries range up to
most of the space, so whole subtrees lie inside the query body and are
reported without a geometry test.  Each configuration runs through a
16-page pool and a pool larger than the index, which must give the same
digest.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

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

LIFETIME = 120.0
N_OBJECTS = 1200
N_CLUSTER = 300
N_QUERIES = 30
CAPPED = QuadTreeConfig(max_depth=3)

CONFIGS = {
    "d1": StripesConfig(vmax=(3.0,), pmax=(1000.0,), lifetime=LIFETIME,
                        quadtree=CAPPED),
    "d2": StripesConfig(vmax=(3.0, 3.0), pmax=(1000.0, 1000.0),
                        lifetime=LIFETIME, quadtree=CAPPED),
    "d3": StripesConfig(vmax=(3.0, 3.0, 2.0), pmax=(1000.0, 1000.0, 800.0),
                        lifetime=LIFETIME, quadtree=CAPPED),
}
CONFIGS["d2-f32"] = replace(CONFIGS["d2"], float32=True)
CONFIGS["d2-a2"] = replace(CONFIGS["d2"], quadtree=replace(
    CAPPED, quad_pruning=False))

POOLS = {"thrashing": 16, "resident": 4096}

#: SHA-256 of :func:`answer_digest` per configuration, recorded before
#: the search handed leaf rows straight from the descent to the kernels.
GOLDEN_ANSWER_DIGESTS = {
    "d1": "3954a8a6d67a3dc039bd9e52e210076c8079f37703232d78fbb0ca5613464c53",
    "d2": "25934ab742394fdaf1db75dd594e5ccbc5fbb41a5289e511fa8db9c041436953",
    "d2-a2":
        "25934ab742394fdaf1db75dd594e5ccbc5fbb41a5289e511fa8db9c041436953",
    "d2-f32":
        "25934ab742394fdaf1db75dd594e5ccbc5fbb41a5289e511fa8db9c041436953",
    "d3": "f107bc3d8595f31f991783925f3a282e4437771170bc55f0b7925bbbba08a859",
}


def make_states(rng, config):
    states = [
        MovingObjectState(
            oid,
            pos=tuple(rng.uniform(0.0, p) for p in config.pmax),
            vel=tuple(rng.uniform(-v, v) for v in config.vmax),
            t=rng.uniform(30.0, 150.0))
        for oid in range(N_OBJECTS)]
    # Coincident objects: one dual point, so their max-depth leaf spills.
    anchor = states[0]
    states += [replace(anchor, oid=N_OBJECTS + k) for k in range(N_CLUSTER)]
    states.sort(key=lambda s: s.t)
    return states


def make_query(rng, config, now, k):
    span = (30.0, 150.0, 600.0, 2000.0)[k % 4]
    lo = tuple(rng.uniform(-span / 2, p - span / 2) for p in config.pmax)
    hi = tuple(x + span for x in lo)
    t1 = now + rng.uniform(0.0, 30.0)
    kind = ("ts", "win", "mov")[k // 4 % 3]
    if kind == "ts":
        return TimeSliceQuery(lo, hi, t1)
    t2 = t1 + rng.uniform(1.0, 20.0)
    if kind == "win":
        return WindowQuery(lo, hi, t1, t2)
    shift = tuple(rng.uniform(-50.0, 50.0) for _ in config.pmax)
    return MovingQuery(lo, hi, tuple(x + s for x, s in zip(lo, shift)),
                       tuple(x + s for x, s in zip(hi, shift)), t1, t2)


def build(config, pool_pages):
    rng = random.Random(77)
    index = StripesIndex(config, BufferPool(InMemoryPageFile(),
                                            capacity=pool_pages))
    index.insert_batch(make_states(rng, config))
    return rng, index


def answer_digest(config, pool_pages):
    """``(digest, extension_records, entries_reported)``: the SHA-256 of
    every query's answers, candidates and count, plus how many overflow
    records the index holds and how many rows the queries reported from
    all-INSIDE subtrees (so the digest is known to cover both)."""
    rng, index = build(config, pool_pages)
    extensions = sum(tree.stats().extension_records
                     for tree in index._trees.values())
    digest = hashlib.sha256()
    reported = 0
    for k in range(N_QUERIES):
        query = make_query(rng, config, 150.0, k)
        answers = index.query(query)
        candidates = index.query(query, refine=False)
        count = index.count(query)
        digest.update(repr((answers, candidates, count)).encode())
        reported += sum(sub.trace.entries_reported
                        for sub in index.explain(query).sub_indexes)
    return digest.hexdigest(), extensions, reported


@pytest.mark.parametrize("pool", sorted(POOLS))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_answer_order_golden(name, pool):
    digest, extensions, reported = answer_digest(CONFIGS[name], POOLS[pool])
    assert extensions > 0, "no overflow chain: the cap is not exercised"
    assert reported > 0, "no all-INSIDE subtree was reported"
    assert digest == GOLDEN_ANSWER_DIGESTS[name]
