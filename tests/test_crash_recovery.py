"""Crash-recovery property tests: the crash matrix, the
evict-then-crash durability regression, and the checkpoint protocol's
fsync/validation contracts."""

import os
import random
import struct

import pytest

from repro.bench.crashmatrix import build_workload, run_crash_matrix
from repro.core.persistence import load_index, save_index
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import (MovingObjectState, TimeSliceQuery,
                               WindowQuery)
from repro.storage.buffer_pool import BufferPool
from repro.storage.faults import FaultyPageFile
from repro.storage.journal import (UndoJournal, read_undo_journal,
                                   recover_checkpoint, write_journal)
from repro.storage.page import PAGE_SIZE
from repro.storage.pagefile import InMemoryPageFile

CONFIG = StripesConfig(vmax=(3.0, 3.0), pmax=(100.0, 100.0), lifetime=30.0)

PROBES = (
    TimeSliceQuery((0.0, 0.0), (100.0, 100.0), 40.0),
    TimeSliceQuery((20.0, 20.0), (70.0, 80.0), 45.0),
    WindowQuery((10.0, 40.0), (55.0, 90.0), 35.0, 50.0),
)


def _states(n, rng, t_low=0.0, t_high=29.0):
    return [
        MovingObjectState(
            oid, (rng.uniform(0, 100), rng.uniform(0, 100)),
            (rng.uniform(-3, 3), rng.uniform(-3, 3)),
            rng.uniform(t_low, t_high))
        for oid in range(n)
    ]


def _answers(index):
    return [sorted(index.query(q)) for q in PROBES]


class TestCrashMatrix:
    """The full harness at reduced scale: every sampled kill must
    recover to a checkpoint that passes ``check()`` and answers exactly
    like the never-crashed scan replica."""

    def _run(self, survival):
        return run_crash_matrix(
            seed=11, n_initial=200, n_ops=150, n_checkpoints=3,
            pool_pages=10, write_stride=15, failpoint_stride=3,
            torn_samples=2, transient_samples=2, read_samples=1,
            survival=survival)

    @pytest.mark.parametrize("survival", ["none", "all"])
    def test_matrix_passes(self, survival):
        report = self._run(survival)
        assert report.total_writes > 0
        # The workload must actually cross the interesting failpoints.
        assert report.failpoint_hits.get("checkpoint.sidecar_committed")
        assert report.failpoint_hits.get("journal.partial")
        assert report.failpoint_hits.get("undo.recorded"), \
            "no eviction was undo-shadowed: the matrix is not exercising " \
            "the between-checkpoint eviction path"
        assert any(s.crashed for s in report.scenarios)
        assert report.ok, "\n".join(report.summary_lines())

    def test_report_shape(self):
        report = self._run("mix")
        assert report.ok, "\n".join(report.summary_lines())
        data = report.to_dict()
        assert data["passed"] == len(report.scenarios)
        assert data["scenarios"][0]["name"] == "control"

    def test_workload_is_deterministic(self):
        a = build_workload(3, n_initial=50, n_ops=40, n_checkpoints=2)
        b = build_workload(3, n_initial=50, n_ops=40, n_checkpoints=2)
        assert a.ops == b.ops
        assert a.checkpoint_positions == b.checkpoint_positions


class TestEvictThenCrashRegression:
    """The durability bug this PR fixes: after a checkpoint, an evicted
    dirty page overwrites its committed on-disk image.  A crash before
    the *next* checkpoint must still reopen the committed checkpoint
    exactly -- which requires the eviction write-back to have shadowed
    the pre-image into the undo journal.  Without the undo guard (the
    pre-fix code) the reopened index mixes post-checkpoint pages into
    the checkpoint and this test fails."""

    def test_evicted_pages_roll_back_to_checkpoint(self, tmp_path):
        rng = random.Random(17)
        faulty = FaultyPageFile(InMemoryPageFile())
        pool = BufferPool(faulty, capacity=10)
        index = StripesIndex(CONFIG, pool)
        for state in _states(400, rng):
            index.insert(state)

        meta = tmp_path / "idx.meta"
        journal = tmp_path / "idx.journal"
        undo = tmp_path / "idx.journal.undo"
        save_index(index, meta, journal_path=journal, undo_path=undo)
        assert index.checkpoint_id == 1
        baseline = _answers(index)

        # Dirty lots of pages after the checkpoint; the tiny pool must
        # evict, overwriting committed page images on "disk".
        for oid, state in enumerate(_states(200, rng, 30.0, 55.0)):
            index.insert(MovingObjectState(1000 + oid, state.pos,
                                           state.vel, state.t))
        assert pool.stats.shadow_writes > 0, \
            "no eviction overwrote a committed page: the scenario is " \
            "not exercising the bug"

        # Crash (no further checkpoint).  survival="all" is the harsh
        # case: every eviction write-back IS on the platter.
        reopened = load_index(
            "<in-memory>", meta,
            pool=BufferPool(faulty.reopen_durable("all"), capacity=10),
            journal_path=journal, undo_path=undo)
        assert reopened.checkpoint_id == 1
        assert reopened.check() == []
        assert _answers(reopened) == baseline


class TestLoadIndexPoolValidation:
    """Satellite: a caller-supplied pool must be empty -- resident
    frames would shadow (or clobber) recovered pages."""

    def test_non_empty_pool_rejected(self, tmp_path):
        rng = random.Random(2)
        pagefile = InMemoryPageFile()
        pool = BufferPool(pagefile, capacity=32)
        index = StripesIndex(CONFIG, pool)
        for state in _states(50, rng):
            index.insert(state)
        meta = tmp_path / "idx.meta"
        save_index(index, meta)
        assert pool.num_frames > 0
        with pytest.raises(ValueError, match="empty pool"):
            load_index("<in-memory>", meta, pool=pool)

    def test_empty_pool_accepted(self, tmp_path):
        rng = random.Random(2)
        pagefile = InMemoryPageFile()
        index = StripesIndex(CONFIG, BufferPool(pagefile, capacity=32))
        for state in _states(50, rng):
            index.insert(state)
        meta = tmp_path / "idx.meta"
        save_index(index, meta)
        reopened = load_index("<in-memory>", meta,
                              pool=BufferPool(pagefile, capacity=32))
        assert len(reopened) == 50


class TestDirtyPageImages:
    """Satellite: the journal layer snapshots dirty pages through the
    public ``BufferPool.dirty_page_images`` instead of ``_frames``."""

    def test_reports_exactly_the_dirty_set(self):
        pool = BufferPool(InMemoryPageFile(), capacity=8)
        # Page ids, not handles: an unpinned frame may hold another page.
        page = pool.new_page()
        page.write(0, b"dirty")
        dirty = page.page_id
        pool.unpin(page)
        page = pool.new_page()
        clean = page.page_id
        pool.unpin(page)
        pool.flush_page(clean)
        images = pool.dirty_page_images()
        assert set(images) == {dirty}
        assert images[dirty][:5] == b"dirty"
        assert isinstance(images[dirty], bytes)

    def test_empty_after_flush_all(self):
        pool = BufferPool(InMemoryPageFile(), capacity=8)
        page = pool.new_page()
        page.write(0, b"x")
        pool.unpin(page)
        pool.flush_all()
        assert pool.dirty_page_images() == {}


class TestSidecarFsyncOrdering:
    """Satellite: the sidecar tmp file is fsynced BEFORE the rename and
    the directory AFTER it -- otherwise a crash can commit a zero-length
    sidecar, or un-commit the rename."""

    def test_fsync_before_replace_then_dir_fsync(self, tmp_path,
                                                 monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(
            os, "replace",
            lambda a, b: (events.append("replace"), real_replace(a, b))[1])

        index = StripesIndex(CONFIG,
                             BufferPool(InMemoryPageFile(), capacity=32))
        index.insert(MovingObjectState(0, (1.0, 1.0), (0.0, 0.0), 0.0))
        save_index(index, tmp_path / "idx.meta")

        assert "replace" in events
        at = events.index("replace")
        assert "fsync" in events[:at], \
            "sidecar tmp file was not fsynced before the rename"
        assert "fsync" in events[at + 1:], \
            "directory was not fsynced after the rename"


class TestRecoverDurability:
    """Journal recovery itself must be durable -- the replayed pages are
    fsynced before the journal is removed."""

    def test_recover_syncs_pagefile_before_dropping_journal(self,
                                                            tmp_path):
        faulty = FaultyPageFile(InMemoryPageFile())
        pid = faulty.allocate()
        faulty.write(pid, bytes(PAGE_SIZE))
        faulty.sync()
        journal = tmp_path / "j"
        write_journal(journal, {pid: b"\xAB" * PAGE_SIZE}, PAGE_SIZE)
        syncs_before = faulty.syncs
        assert recover_checkpoint(faulty, journal)["replayed"] == 1
        assert faulty.syncs > syncs_before, \
            "replayed pages were not fsynced; removing the journal " \
            "would strand them in the page cache"
        assert not journal.exists()
        # The replay survives a post-recovery crash (strict policy).
        assert faulty.durable_image("none")[pid] == b"\xAB" * PAGE_SIZE


class TestUndoJournalFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "u"
        undo = UndoJournal(path, PAGE_SIZE)
        assert undo.shadow(3, b"\x01" * PAGE_SIZE)
        assert undo.shadow(7, b"\x02" * PAGE_SIZE)
        assert not undo.shadow(3, b"\x03" * PAGE_SIZE)  # already shadowed
        undo.close()
        images = read_undo_journal(path, PAGE_SIZE)
        assert set(images) == {3, 7}
        assert images[3] == b"\x01" * PAGE_SIZE

    def test_torn_tail_tolerated(self, tmp_path):
        """A crash mid-append leaves a half-written last record; the
        reader must keep every complete record before it."""
        path = tmp_path / "u"
        undo = UndoJournal(path, PAGE_SIZE)
        undo.shadow(1, b"\x01" * PAGE_SIZE)
        undo.shadow(2, b"\x02" * PAGE_SIZE)
        undo.close()
        record = struct.calcsize("<QI") + PAGE_SIZE
        header = struct.calcsize("<8sI")
        raw = path.read_bytes()
        path.write_bytes(raw[: header + record + record // 3])
        images = read_undo_journal(path, PAGE_SIZE)
        assert set(images) == {1}
        assert images[1] == b"\x01" * PAGE_SIZE

    def test_first_image_wins(self, tmp_path):
        """Only the FIRST pre-image per page is the committed one."""
        path = tmp_path / "u"
        undo = UndoJournal(path, PAGE_SIZE)
        undo.shadow(5, b"\x0A" * PAGE_SIZE)
        undo.close()
        # Reopen (as after a partial checkpoint) and try to re-shadow.
        undo2 = UndoJournal(path, PAGE_SIZE)
        assert not undo2.shadow(5, b"\x0B" * PAGE_SIZE)
        undo2.close()
        assert read_undo_journal(path, PAGE_SIZE)[5] == b"\x0A" * PAGE_SIZE


class TestCheckersDetectCorruption:
    """The invariant checkers must actually fire on a corrupted file --
    otherwise the crash matrix's ``check() == []`` gate proves
    nothing."""

    def _checkpointed_index(self, tmp_path):
        rng = random.Random(9)
        pagefile = InMemoryPageFile()
        index = StripesIndex(CONFIG, BufferPool(pagefile, capacity=64))
        for state in _states(200, rng):
            index.insert(state)
        meta = tmp_path / "idx.meta"
        journal = tmp_path / "idx.journal"
        save_index(index, meta, journal_path=journal)
        return pagefile, meta, journal

    def test_clean_index_checks_clean(self, tmp_path):
        pagefile, meta, journal = self._checkpointed_index(tmp_path)
        reopened = load_index("<in-memory>", meta,
                              pool=BufferPool(pagefile, capacity=64),
                              journal_path=journal)
        assert reopened.check() == []

    def test_corrupt_bitmap_detected(self, tmp_path):
        pagefile, meta, journal = self._checkpointed_index(tmp_path)
        import json
        with open(meta) as fh:
            record_pages = [row[0] for row in json.load(fh)["pages"]]
        victim = record_pages[0]
        img = bytearray(pagefile.read(victim))
        img[4] ^= 0xFF  # flip 8 occupancy bits in the slot bitmap
        pagefile.write(victim, bytes(img))
        reopened = load_index("<in-memory>", meta,
                              pool=BufferPool(pagefile, capacity=64),
                              journal_path=journal)
        problems = reopened.check()
        assert problems, "checkers missed a corrupted slot bitmap"


class TestCheckpointIdAdvances:
    def test_checkpoint_ids_increment_and_reload(self, tmp_path):
        rng = random.Random(4)
        pagefile = InMemoryPageFile()
        index = StripesIndex(CONFIG, BufferPool(pagefile, capacity=32))
        meta = tmp_path / "idx.meta"
        journal = tmp_path / "idx.journal"
        for round_no in range(1, 4):
            for state in _states(30, rng):
                index.update(None, MovingObjectState(
                    state.oid, state.pos, state.vel, state.t))
            save_index(index, meta, journal_path=journal)
            assert index.checkpoint_id == round_no
        reopened = load_index("<in-memory>", meta,
                              pool=BufferPool(pagefile, capacity=32),
                              journal_path=journal)
        assert reopened.checkpoint_id == 3
