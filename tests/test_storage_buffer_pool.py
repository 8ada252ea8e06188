"""Unit and property tests for the buffer pool: residency, LRU eviction,
pin protection, write-back, and IO accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer_pool import BufferPool, BufferPoolFullError
from repro.storage.page import PAGE_SIZE
from repro.storage.pagefile import InMemoryPageFile


def make_pool(capacity=4):
    return BufferPool(InMemoryPageFile(), capacity=capacity)


def new_pages(pool, n):
    """Ids of ``n`` new pages, each unpinned again."""
    pids = []
    for _ in range(n):
        page = pool.new_page()
        pids.append(page.page_id)
        pool.unpin(page)
    return pids


class TestBasics:
    def test_new_page_is_pinned_and_dirty(self):
        pool = make_pool()
        page = pool.new_page()
        assert page.is_pinned
        assert page.dirty
        pool.unpin(page)

    def test_fetch_counts_logical_and_physical(self):
        pool = make_pool()
        page = pool.new_page()
        pid = page.page_id
        pool.unpin(page)
        pool.flush_all()
        pool.clear()
        assert pool.stats.physical_reads == 0
        with pool.pinned(pid):
            pass
        assert pool.stats.logical_reads == 1
        assert pool.stats.physical_reads == 1
        with pool.pinned(pid):
            pass
        assert pool.stats.logical_reads == 2
        assert pool.stats.physical_reads == 1  # hit

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_pool(capacity=0)

    def test_is_resident(self):
        pool = make_pool()
        page = pool.new_page()
        pool.unpin(page)
        assert pool.is_resident(page.page_id)
        assert not pool.is_resident(999)


class TestEviction:
    def test_lru_victim_is_oldest_unpinned(self):
        # Page ids, not handles: an unpinned frame may hold another page.
        pool = make_pool(capacity=2)
        a, b = new_pages(pool, 2)
        # Touch a so b becomes LRU.
        with pool.pinned(a):
            pass
        c = pool.new_page()
        pool.unpin(c)
        assert pool.is_resident(a)
        assert not pool.is_resident(b)

    def test_dirty_page_written_back_on_eviction(self):
        pool = make_pool(capacity=1)
        page = pool.new_page()
        page.write(0, b"payload")
        pid = page.page_id
        pool.unpin(page)
        other = pool.new_page()  # forces eviction of pid
        pool.unpin(other)
        assert pool.stats.physical_writes == 1
        assert bytes(pool.pagefile.read(pid)[:7]) == b"payload"

    def test_all_pinned_raises(self):
        pool = make_pool(capacity=1)
        page = pool.new_page()  # stays pinned
        with pytest.raises(BufferPoolFullError):
            pool.new_page()
        pool.unpin(page)

    def test_eviction_drops_decoded_records(self):
        """Decoded records live on the frame: an evicted page comes back
        holding only its bytes, whichever frame it lands in."""
        pool = make_pool(capacity=1)
        a = pool.new_page()
        a.decoded[7] = (1, "node")
        pid = a.page_id
        pool.unpin(a)
        b = pool.new_page()
        b.decoded[8] = (2, "node")
        pool.unpin(b)
        assert not pool.is_resident(pid)
        with pool.pinned(pid) as again:
            assert again.page_id == pid
            assert again.decoded == {}

    def test_pinned_page_survives_pressure(self):
        pool = make_pool(capacity=2)
        pinned = pool.new_page()
        for _ in range(5):
            extra = pool.new_page()
            pool.unpin(extra)
        assert pool.is_resident(pinned.page_id)
        pool.unpin(pinned)


class TestFrameReuse:
    """A frame is reused: once the pool is full, the page that enters
    takes the victim's ``Page`` object and buffer, refilled."""

    def test_reused_frame_holds_only_the_new_page(self):
        pool = make_pool(capacity=1)
        a = pool.new_page()
        a.write(0, b"\xaa" * PAGE_SIZE)
        a_id = a.page_id
        pool.unpin(a)
        b = pool.new_page()
        b.write(0, b"\xbb" * 100)
        b.decoded[5] = "b's record"
        pool.unpin(b)
        with pool.pinned(a_id) as again:
            assert again is b  # the evicted page's frame, reused
            assert again.page_id == a_id
            assert bytes(again.data) == b"\xaa" * PAGE_SIZE
            assert again.decoded == {}
            assert not again.dirty

    def test_new_page_on_reused_frame_is_all_zeros(self):
        pool = make_pool(capacity=1)
        a = pool.new_page()
        a.write(0, b"\xff" * PAGE_SIZE)
        a.decoded[1] = "a's record"
        a_id = a.page_id
        pool.unpin(a)
        b = pool.new_page()
        assert b is a
        assert b.page_id != a_id
        assert bytes(b.data) == bytes(PAGE_SIZE)
        assert b.decoded == {}
        assert b.dirty and b.pin_count == 1
        pool.unpin(b)
        # The evicted page kept its bytes in the file.
        assert bytes(pool.pagefile.read(a_id)) == b"\xff" * PAGE_SIZE

    @settings(max_examples=30, deadline=None)
    @given(seq=st.lists(st.integers(min_value=0, max_value=9),
                        min_size=1, max_size=60))
    def test_misses_allocate_no_frame_once_full(self, seq):
        """However the pages are touched, the pool creates at most
        ``capacity`` frames, one per page it holds, and each load
        refills a frame with exactly its page's bytes."""
        pool = make_pool(capacity=3)
        pids = new_pages(pool, 10)
        for pid in pids:
            with pool.pinned(pid) as page:
                page.write(0, bytes([pid + 1]) * PAGE_SIZE)
        # Keyed by id, holding each object so no id is recycled.
        frames = {id(page): page for page in pool._frames.values()}
        for idx in seq:
            with pool.pinned(pids[idx]) as page:
                frames[id(page)] = page
                assert bytes(page.data) == bytes([pids[idx] + 1]) * PAGE_SIZE
        assert len(frames) == 3
        assert pool.num_frames == 3


class TestFlush:
    def test_flush_page_clears_dirty(self):
        pool = make_pool()
        page = pool.new_page()
        page.write(0, b"x")
        pool.unpin(page)
        pool.flush_page(page.page_id)
        assert not page.dirty
        assert pool.stats.physical_writes == 1

    def test_flush_clean_page_is_noop(self):
        pool = make_pool()
        page = pool.new_page()
        pool.unpin(page)
        pool.flush_all()
        writes = pool.stats.physical_writes
        pool.flush_page(page.page_id)
        assert pool.stats.physical_writes == writes

    def test_clear_requires_no_pins(self):
        pool = make_pool()
        page = pool.new_page()
        with pytest.raises(RuntimeError, match="pinned"):
            pool.clear()
        pool.unpin(page)
        pool.clear()
        assert pool.num_frames == 0

    def test_free_page_drops_frame_without_writeback(self):
        pool = make_pool()
        page = pool.new_page()
        pid = page.page_id
        pool.unpin(page)
        writes = pool.stats.physical_writes
        pool.free_page(pid)
        assert pool.stats.physical_writes == writes
        assert not pool.is_resident(pid)

    def test_free_pinned_page_rejected(self):
        pool = make_pool()
        page = pool.new_page()
        page.write(0, b"keep")
        pid = page.page_id
        with pytest.raises(RuntimeError, match="pinned"):
            pool.free_page(pid)
        # The refused free must leave the pinned, dirty frame in place.
        assert pool.is_resident(pid)
        assert pid not in set(pool.pagefile.free_page_ids())
        pool.unpin(page)
        with pool.pinned(pid) as again:
            assert again is page
            assert again.read(0, 4) == b"keep"
        assert pool.stats.pages_freed == 0


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["touch", "write"]),
                  st.integers(min_value=0, max_value=9)),
        min_size=1, max_size=60))
    def test_pool_never_loses_writes(self, ops):
        """Whatever the access pattern, the last value written to each page
        is observable afterwards, and frame count never exceeds capacity."""
        pool = make_pool(capacity=3)
        pids = new_pages(pool, 10)
        expected = {pid: 0 for pid in pids}
        for op, idx in ops:
            pid = pids[idx]
            with pool.pinned(pid) as page:
                if op == "write":
                    value = (expected[pid] + 1) % 250
                    page.write(0, bytes([value]))
                    expected[pid] = value
                else:
                    assert page.read(0, 1)[0] == expected[pid]
            assert pool.num_frames <= 3
        for pid, value in expected.items():
            with pool.pinned(pid) as page:
                assert page.read(0, 1)[0] == value

    @settings(max_examples=30, deadline=None)
    @given(seq=st.lists(st.integers(min_value=0, max_value=7),
                        min_size=1, max_size=40))
    def test_hit_rate_bounds(self, seq):
        pool = make_pool(capacity=4)
        pids = new_pages(pool, 8)
        pool.stats.reset()
        for idx in seq:
            with pool.pinned(pids[idx]):
                pass
        stats = pool.stats
        assert 0.0 <= stats.hit_rate <= 1.0
        assert stats.physical_reads <= stats.logical_reads == len(seq)
