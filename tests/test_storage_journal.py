"""Fault-injection tests for the double-write checkpoint journal: torn
journals, torn page-file flushes, and full crash-recovery cycles."""

import os
import random

import pytest

from repro.core.persistence import load_index, save_index
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import MovingObjectState, TimeSliceQuery
from repro.storage.buffer_pool import BufferPool
from repro.storage.faults import FAILPOINTS, InjectedCrash
from repro.storage.journal import (
    JournalError,
    UndoJournal,
    read_journal,
    recover_checkpoint,
    write_journal,
)
from repro.storage.page import PAGE_SIZE
from repro.storage.pagefile import OnDiskPageFile

CONFIG = StripesConfig(vmax=(3.0, 3.0), pmax=(100.0, 100.0), lifetime=30.0)


def image(fill: int) -> bytes:
    return bytes([fill]) * PAGE_SIZE


class TestJournalFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j"
        pages = {0: image(1), 5: image(2), 3: image(3)}
        write_journal(path, pages, PAGE_SIZE)
        assert read_journal(path, PAGE_SIZE) == pages

    def test_empty_journal(self, tmp_path):
        path = tmp_path / "j"
        write_journal(path, {}, PAGE_SIZE)
        assert read_journal(path, PAGE_SIZE) == {}

    def test_wrong_image_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="bytes"):
            write_journal(tmp_path / "j", {0: b"short"}, PAGE_SIZE)

    def test_truncated_journal_rejected(self, tmp_path):
        path = tmp_path / "j"
        write_journal(path, {0: image(1), 1: image(2)}, PAGE_SIZE)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(JournalError, match="truncated|short"):
            read_journal(path, PAGE_SIZE)

    def test_missing_commit_marker_rejected(self, tmp_path):
        path = tmp_path / "j"
        write_journal(path, {0: image(1)}, PAGE_SIZE)
        raw = bytearray(path.read_bytes())
        raw[-8:] = b"XXXXXXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(JournalError, match="commit marker"):
            read_journal(path, PAGE_SIZE)

    def test_corrupt_body_rejected(self, tmp_path):
        path = tmp_path / "j"
        write_journal(path, {0: image(1)}, PAGE_SIZE)
        raw = bytearray(path.read_bytes())
        raw[50] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(JournalError, match="checksum"):
            read_journal(path, PAGE_SIZE)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(b"NOTAMAGIC" + b"\x00" * 100)
        with pytest.raises(JournalError, match="magic"):
            read_journal(path, PAGE_SIZE)

    def test_page_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "j"
        write_journal(path, {0: image(1)}, PAGE_SIZE)
        with pytest.raises(JournalError, match="page size"):
            read_journal(path, 8192)


class TestRecovery:
    """:func:`recover_checkpoint` on the redo journal alone: a committed
    journal is replayed, a torn or uncommitted one is discarded."""

    def test_committed_journal_replayed(self, tmp_path):
        db = tmp_path / "db"
        with OnDiskPageFile(db) as pagefile:
            pid = pagefile.allocate()
            pagefile.write(pid, image(0xAA))
        journal = tmp_path / "j"
        write_journal(journal, {pid: image(0xBB)}, PAGE_SIZE,
                      checkpoint_id=4)
        with OnDiskPageFile(db) as pagefile:
            assert recover_checkpoint(pagefile, journal,
                                      expected_checkpoint_id=4) \
                == {"replayed": 1, "rolled_back": 0}
            assert bytes(pagefile.read(pid)) == image(0xBB)
        assert not journal.exists()

    def test_uncommitted_journal_discarded(self, tmp_path):
        db = tmp_path / "db"
        with OnDiskPageFile(db) as pagefile:
            pid = pagefile.allocate()
            pagefile.write(pid, image(0xAA))
        journal = tmp_path / "j"
        write_journal(journal, {pid: image(0xBB)}, PAGE_SIZE)
        raw = journal.read_bytes()
        journal.write_bytes(raw[:-4])   # crash before commit finished
        with OnDiskPageFile(db) as pagefile:
            assert recover_checkpoint(pagefile, journal) \
                == {"replayed": 0, "rolled_back": 0}
            assert bytes(pagefile.read(pid)) == image(0xAA)
        assert not journal.exists()

    def test_journal_of_another_checkpoint_discarded(self, tmp_path):
        """A committed journal whose checkpoint id is not the sidecar's
        belongs to a checkpoint that never committed: it is discarded
        and the undo journal rolls evicted pages back."""
        db = tmp_path / "db"
        with OnDiskPageFile(db) as pagefile:
            pid = pagefile.allocate()
            pagefile.write(pid, image(0xCC))   # evicted after checkpoint 4
        journal = tmp_path / "j"
        write_journal(journal, {pid: image(0xBB)}, PAGE_SIZE,
                      checkpoint_id=5)
        undo = tmp_path / "u"
        shadow = UndoJournal(undo, PAGE_SIZE)
        shadow.shadow(pid, image(0xAA))        # checkpoint 4's image
        shadow.close()
        with OnDiskPageFile(db) as pagefile:
            assert recover_checkpoint(pagefile, journal, undo,
                                      expected_checkpoint_id=4) \
                == {"replayed": 0, "rolled_back": 1}
            assert bytes(pagefile.read(pid)) == image(0xAA)
        assert not journal.exists()
        assert not undo.exists()

    def test_no_journal_is_noop(self, tmp_path):
        db = tmp_path / "db"
        with OnDiskPageFile(db) as pagefile:
            assert recover_checkpoint(pagefile, tmp_path / "absent") \
                == {"replayed": 0, "rolled_back": 0}

    def test_replay_extends_short_file(self, tmp_path):
        """Pages allocated but never flushed before the crash: the page
        file is shorter than the journal's highest page id."""
        db = tmp_path / "db"
        with OnDiskPageFile(db) as pagefile:
            pagefile.allocate()
        journal = tmp_path / "j"
        write_journal(journal, {0: image(1), 4: image(5)}, PAGE_SIZE)
        with OnDiskPageFile(db) as pagefile:
            assert recover_checkpoint(pagefile, journal)["replayed"] == 2
            assert bytes(pagefile.read(4)) == image(5)


class TestCrashConsistentIndex:
    def _build(self, tmp_path, n=300):
        rng = random.Random(5)
        db = tmp_path / "idx.stripes"
        pagefile = OnDiskPageFile(db)
        index = StripesIndex(CONFIG, BufferPool(pagefile, capacity=64))
        states = []
        for oid in range(n):
            state = MovingObjectState(
                oid, (rng.uniform(0, 100), rng.uniform(0, 100)),
                (rng.uniform(-3, 3), rng.uniform(-3, 3)),
                rng.uniform(0, 29))
            index.insert(state)
            states.append(state)
        return db, pagefile, index, states, rng

    def test_crash_between_journal_and_pagefile(self, tmp_path):
        """Simulated crash: the sidecar committed but no dirty page
        reached the page file.  Recovery must replay the checkpoint in
        full from the committed redo journal."""
        db, pagefile, index, states, rng = self._build(tmp_path)
        meta = tmp_path / "idx.meta"
        journal = tmp_path / "idx.journal"
        baseline = sorted(index.query(
            TimeSliceQuery((0.0, 0.0), (100.0, 100.0), 30.0)))

        # Die right after the sidecar rename: the redo journal and the
        # sidecar are on disk, the dirty pages are not.
        FAILPOINTS.arm("checkpoint.sidecar_committed")
        try:
            with pytest.raises(InjectedCrash):
                save_index(index, meta, journal_path=journal)
        finally:
            FAILPOINTS.clear()
        pagefile.close()  # pool frames (the dirty pages) die with it
        assert journal.exists()

        reopened = load_index(db, meta, pool_pages=64,
                              journal_path=journal)
        assert not journal.exists()
        assert reopened.checkpoint_id == 1
        assert sorted(reopened.query(
            TimeSliceQuery((0.0, 0.0), (100.0, 100.0), 30.0))) == baseline
        assert reopened.check() == []
        reopened.pool.pagefile.close()

    def test_save_load_with_journal_clean_path(self, tmp_path):
        db, pagefile, index, states, rng = self._build(tmp_path)
        meta = tmp_path / "idx.meta"
        journal = tmp_path / "idx.journal"
        save_index(index, meta, journal_path=journal)
        assert not journal.exists()
        pagefile.close()
        reopened = load_index(db, meta, pool_pages=64,
                              journal_path=journal)
        assert len(reopened) == len(states)
        reopened.pool.pagefile.close()
