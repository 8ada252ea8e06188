"""Checkpoint/reopen tests: a saved on-disk index must answer identically
after being reloaded in a fresh process-like context."""

import gzip
import json
import random
import shutil
from pathlib import Path

import pytest

from repro.baselines.scan import ScanIndex
from repro.core.persistence import FORMAT_VERSION, load_index, save_index
from repro.core.quadtree import (
    PAPER_LEAF_LADDER,
    QuadTreeConfig,
    packed_ladder,
)
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import MovingObjectState, TimeSliceQuery, WindowQuery
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import OnDiskPageFile

CONFIG = StripesConfig(vmax=(3.0, 3.0), pmax=(200.0, 200.0), lifetime=30.0)


def random_state(rng, oid, t):
    return MovingObjectState(
        oid,
        (rng.uniform(0, 200.0), rng.uniform(0, 200.0)),
        (rng.uniform(-3, 3), rng.uniform(-3, 3)),
        t)


def build_on_disk(tmp_path, seed=1, n=600, config=CONFIG):
    rng = random.Random(seed)
    path = tmp_path / "index.stripes"
    pagefile = OnDiskPageFile(path)
    pool = BufferPool(pagefile, capacity=128)
    index = StripesIndex(config, pool)
    oracle = ScanIndex(config.lifetime)
    live = {}
    for oid in range(n):
        state = random_state(rng, oid, rng.uniform(0, 29))
        index.insert(state)
        oracle.insert(state)
        live[oid] = state
    for oid in rng.sample(sorted(live), n // 3):
        new = random_state(rng, oid, rng.uniform(30, 59))
        index.update(live[oid], new)
        oracle.update(live[oid], new)
        live[oid] = new
    return path, pagefile, index, oracle, live, rng


class TestCheckpointRoundTrip:
    def test_reopened_index_answers_identically(self, tmp_path):
        path, pagefile, index, oracle, live, rng = build_on_disk(tmp_path)
        meta = tmp_path / "index.meta"
        save_index(index, meta)
        pagefile.close()

        reopened = load_index(path, meta, pool_pages=128)
        assert len(reopened) == len(index)
        assert reopened.live_windows == index.live_windows
        for _ in range(30):
            x = rng.uniform(0, 160)
            t1 = rng.uniform(59, 70)
            query = WindowQuery((x, x), (x + 40, x + 40), t1, t1 + 10)
            assert sorted(reopened.query(query)) \
                == sorted(oracle.query(query))
        reopened.pool.pagefile.close()

    def test_reopened_index_accepts_updates(self, tmp_path):
        path, pagefile, index, oracle, live, rng = build_on_disk(tmp_path)
        meta = tmp_path / "index.meta"
        save_index(index, meta)
        pagefile.close()

        reopened = load_index(path, meta, pool_pages=128)
        for oid in rng.sample(sorted(live), 100):
            new = random_state(rng, oid, rng.uniform(30, 59))
            reopened.update(live[oid], new)
            oracle.update(live[oid], new)
            live[oid] = new
        for oid in rng.sample(sorted(live), 50):
            assert reopened.delete(live[oid]) == oracle.delete(live[oid])
            del live[oid]
        assert len(reopened) == len(oracle)
        for _ in range(20):
            x = rng.uniform(0, 160)
            query = TimeSliceQuery((x, x), (x + 40, x + 40),
                                   rng.uniform(59, 80))
            assert sorted(reopened.query(query)) \
                == sorted(oracle.query(query))
        reopened.pool.pagefile.close()

    def test_free_pages_are_reused_after_reopen(self, tmp_path):
        path, pagefile, index, oracle, live, rng = build_on_disk(tmp_path)
        meta = tmp_path / "index.meta"
        # Delete most entries to free pages, then checkpoint.
        for oid in sorted(live)[:500]:
            index.delete(live.pop(oid))
        save_index(index, meta)
        capacity_before = pagefile.capacity_pages
        pagefile.close()

        reopened = load_index(path, meta, pool_pages=128)
        for oid in range(10_000, 10_400):
            state = random_state(rng, oid, rng.uniform(30, 59))
            reopened.insert(state)
        # Re-inserting into freed space must not grow the file much.
        assert reopened.pool.pagefile.capacity_pages \
            <= capacity_before + 8
        reopened.pool.pagefile.close()

    def test_config_round_trips(self, tmp_path):
        config = StripesConfig(
            vmax=(3.0, 3.0), pmax=(200.0, 200.0), lifetime=45.0,
            float32=True,
            quadtree=QuadTreeConfig(max_depth=12,
                                    leaf_size_ladder=(505, 1011, 4091)))
        path, pagefile, index, _, _, _ = build_on_disk(
            tmp_path, n=100, config=config)
        meta = tmp_path / "index.meta"
        save_index(index, meta)
        pagefile.close()
        reopened = load_index(path, meta, pool_pages=64)
        assert reopened.config == config
        reopened.pool.pagefile.close()

    def test_format_version_checked(self, tmp_path):
        path, pagefile, index, _, _, _ = build_on_disk(tmp_path, n=50)
        meta = tmp_path / "index.meta"
        save_index(index, meta)
        pagefile.close()
        blob = json.loads(meta.read_text())
        blob["format"] = 999
        meta.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="format"):
            load_index(path, meta)

    def test_page_size_mismatch_rejected(self, tmp_path):
        path, pagefile, index, _, _, _ = build_on_disk(tmp_path, n=50)
        meta = tmp_path / "index.meta"
        save_index(index, meta)
        pagefile.close()
        blob = json.loads(meta.read_text())
        blob["page_size"] = 8192
        meta.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="page size|truncated"):
            load_index(path, meta)


FIXTURES = Path(__file__).parent / "fixtures"


def legacy_states():
    """The states of ``fixtures/format2.stripes``: 300 inserted by one
    ``insert_batch`` in window 0, then every third updated into
    window 1."""
    rng = random.Random(23)

    def state(oid, t):
        return MovingObjectState(
            oid, (rng.uniform(0, 200.0), rng.uniform(0, 200.0)),
            (rng.uniform(-3, 3), rng.uniform(-3, 3)), t)

    first = [state(oid, rng.uniform(0, 29)) for oid in range(300)]
    moved = [state(oid, rng.uniform(30, 59)) for oid in range(0, 300, 3)]
    return first, moved


class TestLegacySidecar:
    """``fixtures/format2.stripes(.meta)`` is a checkpoint of
    :func:`legacy_states` (``CONFIG``, 64-page pool, ``save_index``
    without a journal) written by the format-2 code, whose default was
    the paper's two leaf sizes and whose sidecar kept them as
    ``small_leaf_bytes``/``large_leaf_bytes``/``use_small_leaves`` with
    ``leaf_size_ladder: null``.  Its pages hold half- and full-page
    leaves, so it must reopen on that ladder, not on today's default."""

    def reopen(self, tmp_path):
        path = tmp_path / "format2.stripes"
        with gzip.open(FIXTURES / "format2.stripes.gz") as src, \
                open(path, "wb") as dst:
            shutil.copyfileobj(src, dst)
        meta = tmp_path / "format2.stripes.meta"
        shutil.copy(FIXTURES / "format2.stripes.meta", meta)
        blob = json.loads(meta.read_text())
        assert blob["format"] == 2
        assert blob["config"]["quadtree"]["leaf_size_ladder"] is None
        return path, meta, load_index(path, meta, pool_pages=64)

    @staticmethod
    def oracle():
        first, moved = legacy_states()
        scan = ScanIndex(CONFIG.lifetime)
        for state in first:
            scan.insert(state)
        for new in moved:
            scan.update(first[new.oid], new)
        return scan

    @staticmethod
    def assert_same_answers(index, scan, rng):
        for _ in range(25):
            x = rng.uniform(0, 160)
            t1 = rng.uniform(30, 70)
            query = WindowQuery((x, x), (x + 40, x + 40), t1, t1 + 10)
            assert sorted(index.query(query)) == sorted(scan.query(query))

    def test_reopens_on_the_two_sizes_it_was_written_with(self, tmp_path):
        path, meta, index = self.reopen(tmp_path)
        assert index.config.quadtree.leaf_size_ladder == PAPER_LEAF_LADDER
        assert index.check() == []
        assert len(index) == 300
        scan = self.oracle()
        rng = random.Random(5)
        self.assert_same_answers(index, scan, rng)
        # Insert into window 0 until a half-page leaf overflows into a
        # full-page one.
        promotions = sum(tree.counters.leaf_promotions
                         for tree in index._trees.values())
        oid = 1000
        while sum(tree.counters.leaf_promotions
                  for tree in index._trees.values()) == promotions:
            assert oid < 3000, "no leaf was promoted"
            state = random_state(rng, oid, rng.uniform(0, 29))
            index.insert(state)
            scan.insert(state)
            oid += 1
        assert index.check() == []
        self.assert_same_answers(index, scan, rng)
        # The next checkpoint records the resolved ladder.
        save_index(index, meta)
        index.pool.pagefile.close()
        blob = json.loads(meta.read_text())
        assert blob["format"] == FORMAT_VERSION
        assert blob["config"]["quadtree"]["leaf_size_ladder"] \
            == list(PAPER_LEAF_LADDER)
        again = load_index(path, meta, pool_pages=64)
        assert again.check() == []
        self.assert_same_answers(again, scan, rng)
        again.pool.pagefile.close()

    def test_default_ladder_is_recorded_resolved(self, tmp_path):
        path, pagefile, index, _, _, _ = build_on_disk(tmp_path, n=100)
        meta = tmp_path / "index.meta"
        save_index(index, meta)
        pagefile.close()
        blob = json.loads(meta.read_text())
        assert blob["config"]["quadtree"]["leaf_size_ladder"] \
            == list(packed_ladder(pagefile.page_size))
        reopened = load_index(path, meta, pool_pages=64)
        assert reopened.config.quadtree.leaf_size_ladder \
            == packed_ladder(pagefile.page_size)
        assert reopened.check() == []
        reopened.pool.pagefile.close()
