"""Rotation must not leak storage: retired windows free their pages, and
their decoded nodes leave the shared buffer pool with the freed records
(``StripesIndex._retire_expired``)."""

import random

import pytest

from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import MovingObjectState
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import InMemoryPageFile

CONFIG = StripesConfig(vmax=(3.0, 3.0), pmax=(200.0, 200.0), lifetime=30.0)


def bulk_states(rng, n, t, oid_base=0):
    return [MovingObjectState(
        oid_base + i,
        tuple(rng.uniform(0, p) for p in CONFIG.pmax),
        tuple(rng.uniform(-v, v) for v in CONFIG.vmax),
        t) for i in range(n)]


def test_rotation_releases_pages():
    """Retiring a well-populated window must shrink pages_in_use and be
    accounted in pages_reclaimed."""
    rng = random.Random(31)
    index = StripesIndex(CONFIG)
    index.insert_batch(bulk_states(rng, 400, t=1.0))
    pages_full = index.pages_in_use()
    assert pages_full > 0
    assert index.pages_reclaimed == 0
    # Jump two lifetime windows ahead: window 0 retires wholesale.
    index.insert(MovingObjectState(
        9000, (50.0, 50.0), (0.0, 0.0), 2 * CONFIG.lifetime + 1.0))
    assert index.rotations == 1
    assert index.pages_reclaimed > 0
    assert index.pages_in_use() < pages_full
    assert len(index) == 1


def test_rotate_to_is_a_noop_for_live_windows():
    index = StripesIndex(CONFIG)
    index.insert(MovingObjectState(1, (10.0, 10.0), (0.0, 0.0), 1.0))
    index.rotate_to(0)
    index.rotate_to(1)
    assert index.rotations == 0
    assert len(index) == 1


def test_rotate_to_retires_without_an_insert():
    index = StripesIndex(CONFIG)
    rng = random.Random(32)
    index.insert_batch(bulk_states(rng, 50, t=1.0))
    index.rotate_to(2)
    assert index.rotations == 1
    assert len(index) == 0


def _decoded_rids(pool):
    return {rid for page in pool._frames.values() for rid in page.decoded}


@pytest.mark.parametrize("pool_pages", [64, 8])
def test_rotation_leaves_no_decoded_record_of_a_freed_rid(pool_pages):
    """Decoded nodes live on their buffer-pool frame: after every
    rotation, no resident frame holds a decoded record whose rid the
    store no longer occupies -- the retired trees leave nothing behind in
    the shared pool, whether it holds the whole index or thrashes."""
    pool = BufferPool(InMemoryPageFile(), capacity=pool_pages)
    index = StripesIndex(CONFIG, pool)
    rng = random.Random(33)
    for round_i in range(4):
        t = round_i * 2 * CONFIG.lifetime + 1.0
        index.insert_batch(bulk_states(rng, 30, t=t, oid_base=round_i * 100))
        assert _decoded_rids(pool) <= set(index.store.occupied_rids())
        assert len(index) == 30
    assert index.rotations >= 3
    assert index.check() == []


def test_pages_reclaimed_metric_exported():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    index = StripesIndex(CONFIG)
    index.attach_metrics(registry)
    rng = random.Random(35)
    index.insert_batch(bulk_states(rng, 200, t=1.0))
    index.rotate_to(5)
    registry.collect()
    assert registry.get("stripes_pages_reclaimed_total").to_value() \
        == index.pages_reclaimed
    assert index.pages_reclaimed > 0
