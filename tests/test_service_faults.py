"""Service-layer fault tolerance: transient-IO retries with backoff,
shard shedding after retry exhaustion, write retries, and the resilience
metrics -- with no worker thread ever dying."""

import random

import pytest

from repro.core.stripes import StripesConfig
from repro.obs import MetricsRegistry
from repro.query.types import MovingObjectState, TimeSliceQuery
from repro.service.service import ServiceConfig, StripesService
from repro.service.sharding import (ShardedStripes, shard_of,
                                    ShardTransientError)
from repro.storage.faults import FaultyPageFile, TransientIOError
from repro.storage.pagefile import InMemoryPageFile

CONFIG = StripesConfig(vmax=(3.0, 3.0), pmax=(100.0, 100.0), lifetime=30.0)

PROBE = TimeSliceQuery((0.0, 0.0), (100.0, 100.0), 20.0)

#: Fast-retry service config so tests never sleep meaningfully.
FAST = ServiceConfig(workers=2, io_max_retries=3, io_backoff_s=0.0001,
                     io_backoff_cap_s=0.001)


def _states(n, rng, t_high=29.0):
    return [
        MovingObjectState(
            oid, (rng.uniform(0, 100), rng.uniform(0, 100)),
            (rng.uniform(-3, 3), rng.uniform(-3, 3)),
            rng.uniform(0, t_high))
        for oid in range(n)
    ]


def _sharded_with_faults(n_shards=2, scan_threshold=0, pool_pages=32):
    """A sharded index whose every shard sits on a FaultyPageFile;
    returns (sharded, faulties)."""
    faulties = {}

    def factory(sid):
        faulties[sid] = FaultyPageFile(InMemoryPageFile())
        return faulties[sid]

    sharded = ShardedStripes(CONFIG, n_shards=n_shards,
                             scan_threshold=scan_threshold,
                             pool_pages=pool_pages,
                             pagefile_factory=factory)
    return sharded, faulties


def _patch_flaky_queries(shard, failures):
    """Make a shard's tree path raise TransientIOError ``failures``
    times, then behave."""
    real = shard.index.query_batch
    state = {"left": failures}

    def flaky(queries, refine=True):
        if state["left"] > 0:
            state["left"] -= 1
            raise TransientIOError("injected shard flake")
        return real(queries, refine=refine)

    shard.index.query_batch = flaky
    return state


class TestQueryRetries:
    def test_transient_errors_retried_to_success(self):
        rng = random.Random(1)
        sharded, _ = _sharded_with_faults()
        for state in _states(200, rng):
            sharded.insert(state)
        expected = sorted(sharded.query(PROBE))

        _patch_flaky_queries(sharded.shards[0], failures=2)
        registry = MetricsRegistry()
        with StripesService(sharded, FAST, registry=registry) as service:
            assert sorted(service.query(PROBE)) == expected
            # Workers survived the faults and keep serving.
            assert sorted(service.query(PROBE)) == expected
        assert registry.counter("service_io_retries_total").value >= 2
        assert registry.counter("service_shards_shed_total").value == 0
        assert sharded.degraded_shards() == frozenset()

    def test_shard_transient_error_carries_shard_id(self):
        rng = random.Random(7)
        sharded, _ = _sharded_with_faults()
        for state in _states(100, rng):
            sharded.insert(state)
        _patch_flaky_queries(sharded.shards[1], failures=1)
        with pytest.raises(ShardTransientError) as excinfo:
            sharded.query_batch([PROBE])
        assert excinfo.value.sid == 1
        assert isinstance(excinfo.value.cause, TransientIOError)


class TestShardShedding:
    def test_persistently_failing_shard_is_shed(self):
        rng = random.Random(2)
        sharded, _ = _sharded_with_faults()
        for state in _states(300, rng):
            sharded.insert(state)
        full = sorted(sharded.query(PROBE))

        # Shard 0 fails forever: after the retry budget the service must
        # shed it and answer from shard 1 alone -- partial, not an error.
        _patch_flaky_queries(sharded.shards[0], failures=10 ** 9)
        registry = MetricsRegistry()
        with StripesService(sharded, FAST, registry=registry) as service:
            partial = sorted(service.query(PROBE))
            assert sharded.degraded_shards() == frozenset({0})
            # Exactly the healthy shard's ids: a strict subset of full.
            assert set(partial) < set(full)
            assert all(shard_of(oid, 2) == 1 for oid in partial)
            # Later queries skip the dead shard without new retries.
            retries_after_shed = registry.counter(
                "service_io_retries_total").value
            assert sorted(service.query(PROBE)) == partial
            assert registry.counter(
                "service_io_retries_total").value == retries_after_shed
            registry.collect()
            assert registry.gauge("service_shard_degraded").value == 1
            assert registry.gauge(
                "service_sharded_degraded_shards").value == 1
        assert registry.counter("service_shards_shed_total").value == 1
        assert registry.counter("service_io_retries_total").value == \
            FAST.io_max_retries

    def test_restore_shard_rejoins_fanout(self):
        rng = random.Random(3)
        sharded, _ = _sharded_with_faults()
        for state in _states(100, rng):
            sharded.insert(state)
        full = sorted(sharded.query(PROBE))
        sharded.mark_degraded(0)
        assert set(sharded.query(PROBE)) <= set(full)
        sharded.restore_shard(0)
        assert sorted(sharded.query(PROBE)) == full

    def test_mark_degraded_validates_sid(self):
        sharded, _ = _sharded_with_faults()
        with pytest.raises(ValueError):
            sharded.mark_degraded(99)


class TestWriteRetries:
    def test_insert_retries_transient_write_faults(self):
        """Load enough data through a tiny pool that evictions write to
        the page file mid-insert; a transiently failing write must be
        retried rather than surfacing to the caller."""
        rng = random.Random(4)
        sharded, faulties = _sharded_with_faults(pool_pages=16)
        states = _states(2400, rng)
        registry = MetricsRegistry()
        with StripesService(sharded, FAST, registry=registry) as service:
            for state in states[:1200]:
                service.insert(state)
            # Both shards' pools are warm; fail their next write-backs.
            for faulty in faulties.values():
                faulty.fail_next_writes(1)
            for state in states[1200:]:
                service.insert(state)
            assert registry.counter(
                "service_io_retries_total").value >= 2, \
                "no eviction write-back hit the armed faults"
            # The service still answers queries after the faults.
            assert len(service.query(PROBE)) > 0
        assert sharded.degraded_shards() == frozenset()

    def test_write_retry_budget_exhaustion_raises(self):
        rng = random.Random(5)
        sharded, faulties = _sharded_with_faults(n_shards=1, pool_pages=16)
        cfg = ServiceConfig(workers=1, io_max_retries=2,
                            io_backoff_s=0.0001, io_backoff_cap_s=0.001)
        with StripesService(sharded, cfg) as service:
            for state in _states(1200, rng):
                service.insert(state)
            # More failures than the whole retry budget: propagate.
            faulties[0].fail_next_writes(50)
            with pytest.raises(TransientIOError):
                for state in _states(1200, rng):
                    service.insert(state)
            faulties[0].clear_faults()
            # The worker pool is still alive and serving.
            assert isinstance(service.query(PROBE), list)


class TestRealStorageReadFaults:
    def test_query_survives_pagefile_read_fault(self):
        """A real read fault from the storage layer (not a patched
        method): the per-shard pool is smaller than the working set, so
        tree descents fault pages in; the armed read failure propagates
        as ShardTransientError and the service retries it away."""
        rng = random.Random(6)
        sharded, faulties = _sharded_with_faults(n_shards=2, pool_pages=16)
        for state in _states(2400, rng):
            sharded.insert(state)
        expected = sorted(sharded.query(PROBE))
        reads_before = {sid: f.reads for sid, f in faulties.items()}

        for faulty in faulties.values():
            faulty.fail_next_reads(1)
        registry = MetricsRegistry()
        with StripesService(sharded, FAST, registry=registry) as service:
            assert sorted(service.query(PROBE)) == expected
        assert any(f.reads > reads_before[sid]
                   for sid, f in faulties.items()), \
            "queries never touched the page file; shrink the pool"
        assert registry.counter("service_io_retries_total").value >= 1
        assert sharded.degraded_shards() == frozenset()
