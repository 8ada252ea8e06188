"""Tests for the sharded STRIPES facade: shard policies, the
reader/writer lock, fan-out parity against a serial index, and window
rotation across shards."""

import random
import threading
import time

import pytest

from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import MovingObjectState, TimeSliceQuery, WindowQuery
from repro.service import (
    HashShardPolicy,
    RWLock,
    ShardedStripes,
    VelocityBandShardPolicy,
)

CONFIG = StripesConfig(vmax=(3.0, 3.0), pmax=(200.0, 200.0), lifetime=30.0)


def random_state(rng, oid, t, config=CONFIG):
    return MovingObjectState(
        oid,
        tuple(rng.uniform(0, p) for p in config.pmax),
        tuple(rng.uniform(-v, v) for v in config.vmax),
        t)


def random_query(rng, now, config=CONFIG):
    side = 40.0
    x = rng.uniform(0, config.pmax[0] - side)
    y = rng.uniform(0, config.pmax[1] - side)
    lo, hi = (x, y), (x + side, y + side)
    t1 = now + rng.uniform(0, 10)
    if rng.random() < 0.5:
        return TimeSliceQuery(lo, hi, t1)
    return WindowQuery(lo, hi, t1, t1 + rng.uniform(0.1, 10))


class TestShardPolicies:
    def test_hash_policy_covers_all_shards(self):
        policy = HashShardPolicy()
        rng = random.Random(1)
        hits = set()
        for oid in range(200):
            sid = policy.shard_of(random_state(rng, oid, 0.0), 4)
            assert 0 <= sid < 4
            hits.add(sid)
        assert hits == {0, 1, 2, 3}

    def test_hash_policy_is_pure(self):
        policy = HashShardPolicy()
        obj = MovingObjectState(42, (1.0, 2.0), (0.5, -0.5), 0.0)
        assert policy.shard_of(obj, 8) == policy.shard_of(obj, 8)

    def test_velocity_policy_bands_by_speed(self):
        policy = VelocityBandShardPolicy(max_speed=4.0)
        slow = MovingObjectState(1, (0.0, 0.0), (0.1, 0.0), 0.0)
        fast = MovingObjectState(2, (0.0, 0.0), (3.9, 0.0), 0.0)
        assert policy.shard_of(slow, 4) == 0
        assert policy.shard_of(fast, 4) == 3

    def test_velocity_policy_clamps_over_limit(self):
        policy = VelocityBandShardPolicy(max_speed=1.0)
        over = MovingObjectState(3, (0.0, 0.0), (5.0, 5.0), 0.0)
        assert policy.shard_of(over, 4) == 3

    def test_velocity_policy_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            VelocityBandShardPolicy(max_speed=0.0)


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # both readers inside at once or timeout

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        writer_in = threading.Event()
        release_writer = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                release_writer.wait(timeout=5)
                order.append("writer")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read():
                order.append("reader")

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=reader)
        tw.start()
        tr.start()
        writer_in.wait(timeout=5)
        release_writer.set()
        tw.join(timeout=5)
        tr.join(timeout=5)
        assert order == ["writer", "reader"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        order = []
        reader_in = threading.Event()
        release_reader = threading.Event()

        def holder():
            with lock.read():
                reader_in.set()
                release_reader.wait(timeout=5)

        def writer():
            with lock.write():
                order.append("writer")

        def late_reader():
            with lock.read():
                order.append("reader")

        th = threading.Thread(target=holder)
        th.start()
        reader_in.wait(timeout=5)
        tw = threading.Thread(target=writer)
        tw.start()
        # Give the writer time to be queued before the late reader arrives.
        import time
        time.sleep(0.05)
        tr = threading.Thread(target=late_reader)
        tr.start()
        time.sleep(0.05)
        release_reader.set()
        for t in (th, tw, tr):
            t.join(timeout=5)
        assert order[0] == "writer"  # writer preference


def feed(ix, operations):
    for kind, payload in operations:
        if kind == "insert":
            ix.insert(payload)
        elif kind == "update":
            ix.update(*payload)
        elif kind == "delete":
            ix.delete(payload)


def build_operations(rng, n_objects=120, n_updates=150, t_spread=20.0):
    states = {}
    ops = []
    for oid in range(n_objects):
        state = random_state(rng, oid, rng.uniform(0, t_spread))
        states[oid] = state
        ops.append(("insert", state))
    for _ in range(n_updates):
        oid = rng.randrange(n_objects)
        old = states[oid]
        new = random_state(rng, oid, old.t + rng.uniform(0.1, 10.0))
        states[oid] = new
        ops.append(("update", (old, new)))
    return ops


@pytest.mark.parametrize("policy_factory", [
    lambda: HashShardPolicy(),
    lambda: VelocityBandShardPolicy(max_speed=3.0),
], ids=["hash", "velocity"])
def test_sharded_matches_serial(policy_factory):
    rng = random.Random(11)
    ops = build_operations(rng)
    serial = StripesIndex(CONFIG)
    sharded = ShardedStripes(CONFIG, n_shards=4, policy=policy_factory())
    feed(serial, ops)
    feed(sharded, ops)
    assert len(sharded) == len(serial)
    now = max(op[1][1].t if op[0] == "update" else op[1].t for op in ops)
    for _ in range(60):
        query = random_query(rng, now)
        assert set(sharded.query(query)) == set(serial.query(query))


def test_query_batch_matches_individual_queries():
    rng = random.Random(12)
    ops = build_operations(rng, n_objects=80, n_updates=60)
    sharded = ShardedStripes(CONFIG, n_shards=3)
    feed(sharded, ops)
    queries = [random_query(rng, 20.0) for _ in range(25)]
    batched = sharded.query_batch(queries)
    for query, result in zip(queries, batched):
        assert set(result) == set(sharded.query(query))


def test_tree_path_matches_flat_path():
    rng = random.Random(13)
    ops = build_operations(rng, n_objects=100, n_updates=80)
    flat = ShardedStripes(CONFIG, n_shards=2, scan_threshold=10_000)
    tree = ShardedStripes(CONFIG, n_shards=2, scan_threshold=0)
    feed(flat, ops)
    feed(tree, ops)
    queries = [random_query(rng, 20.0) for _ in range(30)]
    for f, t in zip(flat.query_batch(queries), tree.query_batch(queries)):
        assert set(f) == set(t)


def test_shard_batch_time_covers_flat_evaluation(monkeypatch):
    """A flat-engine shard's ``batch_seconds`` observation must include
    its ``evaluate_batch`` calls, which run after the snapshot loop."""
    import repro.service.sharding as sharding_mod
    from repro.obs.metrics import MetricsRegistry

    delay = 0.02
    calls_by_shard = {}
    real_evaluate = sharding_mod.evaluate_batch

    def slow_evaluate(compiled, space, oids, vs, ps, results):
        sid = owner_of[id(oids)]
        calls_by_shard[sid] = calls_by_shard.get(sid, 0) + 1
        time.sleep(delay)
        return real_evaluate(compiled, space, oids, vs, ps, results)

    rng = random.Random(15)
    sharded = ShardedStripes(CONFIG, n_shards=2, scan_threshold=10_000)
    feed(sharded, build_operations(rng, n_objects=60, n_updates=20))
    registry = MetricsRegistry()
    sharded.attach_metrics(registry)
    owner_of = {id(snapshot[1]): shard.sid
                for shard in sharded._shards
                for snapshot in shard.mirror.window_columns()}
    monkeypatch.setattr(sharding_mod, "evaluate_batch", slow_evaluate)
    sharded.query_batch([random_query(rng, 20.0) for _ in range(4)])
    assert calls_by_shard, "flat engine never evaluated"
    for sid, calls in calls_by_shard.items():
        hist = registry.get(f"sharded_shard{sid}_batch_seconds")
        assert hist.count == 1
        assert hist.sum >= calls * delay


def test_rotation_propagates_to_quiet_shards():
    """An update on one shard must expire stale windows on all shards,
    exactly as a serial index would."""
    lifetime = CONFIG.lifetime
    sharded = ShardedStripes(CONFIG, n_shards=4)
    serial = StripesIndex(CONFIG)
    rng = random.Random(14)
    first = [random_state(rng, oid, 1.0) for oid in range(40)]
    for ix in (sharded, serial):
        for state in first:
            ix.insert(state)
    # One lone update two windows later: the serial index drops the old
    # window wholesale; the facade must do so on every shard.
    late = random_state(rng, 0, 2 * lifetime + 1.0)
    serial.update(first[0], late)
    sharded.update(first[0], late)
    assert len(sharded) == len(serial) == 1
    query = TimeSliceQuery((0.0, 0.0), CONFIG.pmax, 2 * lifetime + 2.0)
    assert set(sharded.query(query)) == set(serial.query(query))


def test_velocity_band_migration_on_update():
    """An update that crosses a speed band moves the entry between
    shards without losing or duplicating it."""
    policy = VelocityBandShardPolicy(max_speed=3.0)
    sharded = ShardedStripes(CONFIG, n_shards=4, policy=policy)
    slow = MovingObjectState(7, (50.0, 50.0), (0.1, 0.0), 0.0)
    fast = MovingObjectState(7, (60.0, 50.0), (2.9, 0.0), 5.0)
    sharded.insert(slow)
    assert sharded.shard_sizes()[policy.shard_of(slow, 4)] == 1
    sharded.update(slow, fast)
    sizes = sharded.shard_sizes()
    assert sum(sizes) == 1
    assert sizes[policy.shard_of(fast, 4)] == 1
    assert sizes[policy.shard_of(slow, 4)] == 0


def test_introspection_and_validation():
    sharded = ShardedStripes(CONFIG, n_shards=2)
    assert len(sharded) == 0
    assert sharded.shard_sizes() == [0, 0]
    assert sharded.pages_in_use() >= 0
    assert "ShardedStripes" in repr(sharded)
    with pytest.raises(ValueError):
        ShardedStripes(CONFIG, n_shards=0)


def test_delete_routes_to_the_right_shard():
    sharded = ShardedStripes(CONFIG, n_shards=4)
    rng = random.Random(15)
    states = [random_state(rng, oid, 0.0) for oid in range(30)]
    sharded.insert_batch(states)
    assert sharded.delete(states[3]) is True
    assert sharded.delete(states[3]) is False
    assert len(sharded) == 29
