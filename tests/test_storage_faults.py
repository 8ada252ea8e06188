"""Unit tests for the fault-injection layer (`repro.storage.faults`):
operation counting, transient failures, simulated crashes, torn writes,
the volatile/durable write model, and the named-failpoint registry."""

import random

import pytest

from repro.core.dual import DualPoint
from repro.core.nodes import LeafNode, NodeCodec
from repro.storage.buffer_pool import BufferPool
from repro.storage.faults import (FAILPOINTS, FailpointRegistry,
                                  FaultyPageFile, InjectedCrash,
                                  TransientIOError)
from repro.storage.node_store import NodeCache, RecordStore, rid_page
from repro.storage.page import PAGE_SIZE
from repro.storage.pagefile import InMemoryPageFile


def image(fill: int) -> bytes:
    return bytes([fill]) * PAGE_SIZE


@pytest.fixture
def faulty():
    return FaultyPageFile(InMemoryPageFile())


class TestCounters:
    def test_reads_writes_syncs_counted(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(1))
        faulty.write(pid, image(2))
        faulty.read(pid)
        faulty.sync()
        assert (faulty.writes, faulty.reads, faulty.syncs) == (2, 1, 1)

    def test_delegates_storage(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(7))
        assert bytes(faulty.read(pid)) == image(7)
        assert faulty.capacity_pages == 1


class TestTransientFaults:
    def test_failed_write_not_applied_and_retry_succeeds(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(1))
        faulty.fail_next_writes(1)
        with pytest.raises(TransientIOError):
            faulty.write(pid, image(2))
        # The failed write did not land; an identical retry does.
        assert bytes(faulty.read(pid)) == image(1)
        faulty.write(pid, image(2))
        assert bytes(faulty.read(pid)) == image(2)

    def test_fail_writes_at_range(self, faulty):
        pid = faulty.allocate()
        faulty.fail_writes_at(1, times=2)
        for _ in range(2):
            with pytest.raises(TransientIOError):
                faulty.write(pid, image(3))
        faulty.write(pid, image(3))  # third attempt clears the range

    def test_failed_read(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(4))
        faulty.fail_next_reads(1)
        with pytest.raises(TransientIOError):
            faulty.read(pid)
        assert bytes(faulty.read(pid)) == image(4)

    def test_transient_fault_does_not_freeze(self, faulty):
        pid = faulty.allocate()
        faulty.fail_next_writes(1)
        with pytest.raises(TransientIOError):
            faulty.write(pid, image(1))
        assert not faulty.crashed


class TestCrashes:
    def test_crash_at_write_freezes_file(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(1))
        faulty.crash_at_write(2)
        with pytest.raises(InjectedCrash):
            faulty.write(pid, image(2))
        assert faulty.crashed
        # A dead process issues no more IO: everything re-raises.
        for op in (lambda: faulty.read(pid),
                   lambda: faulty.write(pid, image(3)),
                   lambda: faulty.sync(),
                   lambda: faulty.allocate()):
            with pytest.raises(InjectedCrash):
                op()

    def test_crashed_write_not_applied(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(1))
        faulty.sync()
        faulty.crash_at_write(2)
        with pytest.raises(InjectedCrash):
            faulty.write(pid, image(2))
        assert faulty.durable_image("all")[pid] == image(1)

    def test_crash_at_read(self, faulty):
        pid = faulty.allocate()
        faulty.crash_at_read(1)
        with pytest.raises(InjectedCrash):
            faulty.read(pid)
        assert faulty.crashed


class TestTornWrites:
    def test_torn_write_applies_prefix_durably(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(0xAA))
        faulty.sync()
        faulty.tear_at_write(2, 100)
        with pytest.raises(InjectedCrash):
            faulty.write(pid, image(0xBB))
        # The torn half-sector reached the platter even under the strict
        # survival policy.
        durable = faulty.durable_image("none")[pid]
        assert durable == image(0xBB)[:100] + image(0xAA)[100:]

    def test_tear_offset_validated(self, faulty):
        with pytest.raises(ValueError, match="tear offset"):
            faulty.tear_at_write(1, PAGE_SIZE + 1)


class TestDurableImage:
    def test_none_reverts_unsynced_writes(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(1))
        faulty.sync()
        faulty.write(pid, image(2))  # unsynced at crash time
        assert faulty.durable_image("none")[pid] == image(1)
        assert faulty.durable_image("all")[pid] == image(2)

    def test_sync_makes_writes_durable(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(1))
        faulty.sync()
        assert faulty.durable_image("none")[pid] == image(1)

    def test_preimage_is_first_write_since_sync(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(1))
        faulty.sync()
        faulty.write(pid, image(2))
        faulty.write(pid, image(3))
        # Reverting loses BOTH unsynced writes, not just the last.
        assert faulty.durable_image("none")[pid] == image(1)

    def test_random_policy_is_per_page(self, faulty):
        pids = [faulty.allocate() for _ in range(8)]
        for pid in pids:
            faulty.write(pid, image(1))
        faulty.sync()
        for pid in pids:
            faulty.write(pid, image(2))
        mixed = faulty.durable_image(random.Random(3))
        assert set(mixed) >= {image(1)} or set(mixed) >= {image(2)}
        none = faulty.durable_image("none")
        every = faulty.durable_image("all")
        assert all(img == image(1) for img in none)
        assert all(img == image(2) for img in every)

    def test_reopen_durable_round_trip(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(9))
        faulty.sync()
        reopened = faulty.reopen_durable("none")
        assert isinstance(reopened, InMemoryPageFile)
        assert bytes(reopened.read(pid)) == image(9)
        assert reopened.capacity_pages == faulty.capacity_pages

    def test_clear_faults_disarms_everything(self, faulty):
        pid = faulty.allocate()
        faulty.fail_next_writes(5)
        faulty.crash_at_write(1)
        faulty.tear_at_write(2, 10)
        faulty.clear_faults()
        faulty.write(pid, image(1))  # nothing fires
        assert not faulty.crashed


class TestReadIntoFrame:
    """``read(page_id, into=frame)`` -- the buffer pool's miss path --
    keeps the failure semantics of a plain read: a fault raises before
    the frame is touched."""

    def test_transient_read_leaves_buffer_untouched(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(4))
        frame = bytearray(image(0xEE))
        faulty.fail_next_reads(1)
        with pytest.raises(TransientIOError):
            faulty.read(pid, into=frame)
        assert bytes(frame) == image(0xEE)
        assert faulty.read(pid, into=frame) is frame
        assert bytes(frame) == image(4)
        assert faulty.reads == 2

    def test_crash_at_read_into_freezes_file(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(4))
        frame = bytearray(image(0xEE))
        faulty.crash_at_read(1)
        with pytest.raises(InjectedCrash):
            faulty.read(pid, into=frame)
        assert faulty.crashed
        assert bytes(frame) == image(0xEE)
        with pytest.raises(InjectedCrash):
            faulty.read(pid, into=frame)
        assert bytes(frame) == image(0xEE)

    def test_pool_over_crashed_file_installs_nothing(self, faulty):
        pool = BufferPool(faulty, capacity=1)
        pids = []
        for fill in (1, 2):
            page = pool.new_page()
            page.write(0, image(fill))
            pids.append(page.page_id)
            pool.unpin(page)
        pool.flush_all()
        before = pool.stats.snapshot()
        faulty.crash_at_read(faulty.reads + 1)
        with pytest.raises(InjectedCrash):
            pool.fetch(pids[0])
        assert pool.num_frames == 0  # the victim left; nothing came in
        assert pool.stats.physical_reads == before.physical_reads
        assert pool.stats.logical_reads == before.logical_reads
        with pytest.raises(InjectedCrash):  # frozen: no retry succeeds
            pool.fetch(pids[0])
        assert pool.num_frames == 0

    def test_writes_keep_no_alias_of_the_frame(self, faulty):
        """Volatile and durable images are copies: a frame buffer
        overwritten after its write-back changes neither."""
        pid = faulty.allocate()
        faulty.write(pid, image(1))
        faulty.sync()
        frame = bytearray(image(2))
        faulty.write(pid, frame)  # first write since the sync: pre-image
        frame[:] = image(3)
        faulty.write(pid, frame)
        frame[:] = image(0xEE)
        assert bytes(faulty.read(pid)) == image(3)
        assert faulty.durable_image("all")[pid] == image(3)
        assert faulty.durable_image("none")[pid] == image(1)

    def test_torn_write_keeps_no_alias_of_the_frame(self, faulty):
        pid = faulty.allocate()
        faulty.write(pid, image(0xAA))
        faulty.sync()
        frame = bytearray(image(0xBB))
        faulty.tear_at_write(2, 100)
        with pytest.raises(InjectedCrash):
            faulty.write(pid, frame)
        frame[:] = image(0xCC)
        durable = faulty.durable_image("none")[pid]
        assert durable == image(0xBB)[:100] + image(0xAA)[100:]


class TestTransientMissThroughNodeCache:
    def test_failed_read_installs_nothing_and_retry_decodes(self):
        """A transient fault on a miss's read: the dirty victim was
        written back, guard first, before the read; no frame is
        installed and no read counted; the retry reads the page into a
        frame and decodes the record."""
        faulty = FaultyPageFile(InMemoryPageFile())
        pool = BufferPool(faulty, capacity=1)
        store = RecordStore(pool)
        codec = NodeCodec(2)
        cache = NodeCache(store, codec.serialize, codec.deserialize)
        leaf = LeafNode(2, (0.0, 1.0), (2.0, 3.0), codec.pack(
            [DualPoint(oid, (oid * 0.5, 1.0), (2.0, -oid * 1.0))
             for oid in range(9)]))
        rid = cache.insert(2000, leaf)
        other = store.allocate(352, b"dirty victim")  # evicts rid's page
        victim = rid_page(other)
        log = []
        pool.set_write_guard(lambda page_id: log.append(("guard", page_id)))
        real_write = faulty.write

        def logged_write(page_id, data):
            log.append(("write", page_id))
            real_write(page_id, data)

        faulty.write = logged_write
        before = pool.stats.snapshot()
        faulty.fail_next_reads(1)
        with pytest.raises(TransientIOError):
            cache.get(rid)
        assert log == [("guard", victim), ("write", victim)]
        assert pool.num_frames == 0
        assert not pool.is_resident(rid_page(rid))
        assert pool.stats.physical_reads == before.physical_reads
        assert pool.stats.logical_reads == before.logical_reads
        assert pool.stats.evictions == before.evictions + 1
        assert cache.misses == 0
        got = cache.get(rid)
        assert got == leaf
        assert type(got.rows) is bytes
        assert pool.stats.physical_reads == before.physical_reads + 1
        assert log == [("guard", victim), ("write", victim)]
        assert cache.misses == 1


class TestFailpointRegistry:
    def test_unarmed_hit_is_noop(self):
        registry = FailpointRegistry()
        registry.hit("anything")  # must not raise

    def test_arm_crashes_on_nth_hit(self):
        registry = FailpointRegistry()
        registry.arm("spot", hit_number=3)
        registry.hit("spot")
        registry.hit("spot")
        with pytest.raises(InjectedCrash, match="spot"):
            registry.hit("spot")
        registry.hit("spot")  # one-shot: disarmed after firing

    def test_arm_transient(self):
        registry = FailpointRegistry()
        registry.arm("spot", action="transient")
        with pytest.raises(TransientIOError):
            registry.hit("spot")

    def test_arm_validates(self):
        registry = FailpointRegistry()
        with pytest.raises(ValueError):
            registry.arm("spot", hit_number=0)
        with pytest.raises(ValueError):
            registry.arm("spot", action="explode")

    def test_record_captures_ordered_hits(self):
        registry = FailpointRegistry()
        with registry.record() as hits:
            registry.hit("a")
            registry.hit("b")
            registry.hit("a")
        registry.hit("c")  # after the block: not recorded
        assert hits == ["a", "b", "a"]

    def test_clear_disarms(self):
        registry = FailpointRegistry()
        registry.arm("spot")
        registry.clear()
        registry.hit("spot")

    def test_global_registry_exists(self):
        assert isinstance(FAILPOINTS, FailpointRegistry)
