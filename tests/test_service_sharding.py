"""Tests for the sharded STRIPES facade: hash placement, the
reader/writer lock, fan-out parity against a serial index, and window
rotation across shards."""

import dataclasses
import random
import threading
import time

import pytest

from repro.baselines.scan import ScanIndex
from repro.core.quadtree import QuadTreeConfig
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import MovingObjectState, TimeSliceQuery, WindowQuery
from repro.service import RWLock, ShardedStripes, shard_of

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
        hits = set()
        for oid in range(200):
            sid = shard_of(oid, 4)
            assert 0 <= sid < 4
            hits.add(sid)
        assert hits == {0, 1, 2, 3}

    def test_hash_policy_is_pure(self):
        assert shard_of(42, 8) == shard_of(42, 8)
        # Pinned: a different hash would move stored objects between
        # shards.
        assert [shard_of(oid, 7) for oid in (1, 2, 3, 10, 100, 12345,
                                              10 ** 6)] == [5, 6, 4, 5, 4,
                                                            3, 0]


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
    """Apply ``operations`` one at a time; returns how many updates and
    deletes removed an entry."""
    removed = 0
    for kind, payload in operations:
        if kind == "insert":
            ix.insert(payload)
        elif kind == "update":
            removed += ix.update(*payload)
        elif kind == "delete":
            removed += ix.delete(payload)
    return removed


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


def test_sharded_matches_serial():
    rng = random.Random(11)
    ops = build_operations(rng)
    serial = StripesIndex(CONFIG)
    sharded = ShardedStripes(CONFIG, n_shards=4)
    oracle = ScanIndex(CONFIG.lifetime)
    removed = feed(oracle, ops)
    assert feed(serial, ops) == feed(sharded, ops) == removed > 0
    assert len(sharded) == len(serial) == len(oracle)
    now = max(op[1][1].t if op[0] == "update" else op[1].t for op in ops)
    for _ in range(60):
        query = random_query(rng, now)
        expected = set(oracle.query(query))
        assert set(sharded.query(query)) == expected
        assert set(serial.query(query)) == expected


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


WIDE = StripesConfig(vmax=(3.0, 3.0), pmax=(1000.0, 1000.0), lifetime=30.0)
SMALL_LEAVES = dataclasses.replace(
    WIDE, quadtree=QuadTreeConfig(leaf_size_ladder=(128, 256)))
#: Parked objects around each of oid 1's two entries, so that with
#: SMALL_LEAVES the two entries sit in different leaves.
CROWD = [(10 + i, (50.0 + 10 * (i % 10), 50.0 + 10 * (i // 10)))
         for i in range(30)] + \
    [(100 + i, (850.0 + 10 * (i % 10), 850.0 + 10 * (i // 10)))
     for i in range(30)]


@pytest.mark.parametrize("scan_threshold", [10_000, 0],
                         ids=["flat", "tree"])
@pytest.mark.parametrize("config,crowd,delete_at,kept,gone", [
    (WIDE, [], (500.0, 500.0), 900.0, 100.0),
    (SMALL_LEAVES, CROWD, (101.0, 100.0), 900.0, 100.0),
    (SMALL_LEAVES, CROWD, (899.0, 900.0), 100.0, 900.0),
], ids=["one-leaf", "two-leaves-near-first", "two-leaves-near-second"])
def test_inexact_delete_removes_the_tree_row(scan_threshold, config, crowd,
                                             delete_at, kept, gone):
    """A delete whose ``(v, p)`` matches no stored entry removes the first
    row of its oid in the leaf the point descends to; the flat engine
    must answer as if it removed that same entry."""
    sharded = ShardedStripes(config, n_shards=1,
                             scan_threshold=scan_threshold)
    still = (0.0, 0.0)
    sharded.insert(MovingObjectState(1, (100.0, 100.0), still, 0.0))
    for oid, pos in crowd:
        sharded.insert(MovingObjectState(oid, pos, still, 0.0))
    sharded.insert(MovingObjectState(1, (900.0, 900.0), still, 0.0))
    if crowd:
        assert sharded.shards[0].index.stats()[0].leaf_nodes > 2
    assert sharded.delete(MovingObjectState(1, delete_at, still, 0.0))

    def near(x):
        return sharded.query(TimeSliceQuery((x - 5, x - 5), (x + 5, x + 5),
                                            1.0))

    assert near(kept) == [1]
    assert near(gone) == []
    assert sharded.shards[0].mirror.total_entries == len(crowd) + 1


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


@pytest.mark.parametrize("scan_threshold", [10_000, 0],
                         ids=["flat", "tree"])
def test_cross_shard_update_with_differing_ids(scan_threshold):
    """An update whose old and new states carry different object ids on
    different shards deletes on one shard and inserts on the other:
    removed flags, sizes and answers equal the scan oracle's, across
    window rotations and with stale or expired old states."""
    rng = random.Random(16)
    sharded = ShardedStripes(CONFIG, n_shards=4,
                             scan_threshold=scan_threshold)
    oracle = ScanIndex(CONFIG.lifetime)
    live = [random_state(rng, oid, rng.uniform(0, 10)) for oid in range(60)]
    for state in live:
        sharded.insert(state)
        oracle.insert(state)
    replaced = []
    next_oid = 1000
    now = 10.0
    flags = []
    for step in range(120):
        now += rng.uniform(0.2, 1.5)
        if replaced and rng.random() < 0.2:
            old = rng.choice(replaced)      # already deleted: a miss
        else:
            old = live.pop(rng.randrange(len(live)))
            replaced.append(old)
        while shard_of(next_oid, 4) == shard_of(old.oid, 4):
            next_oid += 1
        new = random_state(rng, next_oid, now)
        next_oid += 1
        live.append(new)
        removed = sharded.update(old, new)
        assert removed == oracle.update(old, new), step
        flags.append(removed)
        assert len(sharded) == len(oracle), step
        if step % 10 == 9:
            for _ in range(6):
                query = random_query(rng, now)
                assert set(sharded.query(query)) == set(oracle.query(query))
    # Both outcomes occur: live olds are removed; stale olds and olds
    # whose window rotated out are not.
    assert any(flags) and not all(flags)
    assert now > 3 * CONFIG.lifetime
    for shard in sharded.shards:
        assert shard.index.check() == []


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
