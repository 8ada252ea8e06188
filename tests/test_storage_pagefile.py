"""Unit tests for in-memory and on-disk page files."""

import os

import pytest

from repro.storage.page import PAGE_SIZE
from repro.storage.pagefile import InMemoryPageFile, OnDiskPageFile


@pytest.fixture(params=["memory", "disk"])
def anyfile(request, tmp_path):
    if request.param == "memory":
        pf = InMemoryPageFile()
    else:
        pf = OnDiskPageFile(tmp_path / "pages.db")
    yield pf
    pf.close()


class TestAllocation:
    def test_sequential_allocation(self, anyfile):
        assert anyfile.allocate() == 0
        assert anyfile.allocate() == 1
        assert anyfile.num_pages == 2

    def test_free_and_reuse(self, anyfile):
        first = anyfile.allocate()
        anyfile.allocate()
        anyfile.free(first)
        assert anyfile.num_pages == 1
        assert anyfile.allocate() == first

    def test_double_free_rejected(self, anyfile):
        page = anyfile.allocate()
        anyfile.free(page)
        with pytest.raises(ValueError, match="already freed"):
            anyfile.free(page)

    def test_many_frees_then_double_free(self, anyfile):
        """A rotation frees hundreds of pages at once; the double-free
        check must still catch a repeat, and the free list must keep
        its order (oldest first) and hand pages back newest first."""
        pages = [anyfile.allocate() for _ in range(400)]
        freed = pages[::2][::-1] + pages[1::2]
        for page in freed:
            anyfile.free(page)
        assert list(anyfile.free_page_ids()) == freed
        with pytest.raises(ValueError, match="already freed"):
            anyfile.free(freed[123])
        assert list(anyfile.free_page_ids()) == freed
        assert [anyfile.allocate() for _ in range(3)] == freed[:-4:-1]
        anyfile.free(freed[-1])  # reallocated, so freeing it is fine
        with pytest.raises(ValueError, match="already freed"):
            anyfile.free(freed[-1])
        assert anyfile.num_pages == 400 - len(freed) + 2

    def test_capacity_tracks_high_water_mark(self, anyfile):
        for _ in range(5):
            anyfile.allocate()
        anyfile.free(4)
        assert anyfile.capacity_pages == 5
        assert anyfile.num_pages == 4


class TestReadWrite:
    def test_round_trip(self, anyfile):
        page = anyfile.allocate()
        payload = bytes(range(256)) * (PAGE_SIZE // 256)
        anyfile.write(page, payload)
        assert bytes(anyfile.read(page)) == payload

    def test_fresh_page_reads_zeroes(self, anyfile):
        page = anyfile.allocate()
        assert bytes(anyfile.read(page)) == b"\x00" * PAGE_SIZE

    def test_out_of_range_read_rejected(self, anyfile):
        with pytest.raises(ValueError, match="out of range"):
            anyfile.read(0)

    def test_wrong_length_write_rejected(self, anyfile):
        page = anyfile.allocate()
        with pytest.raises(ValueError, match="exactly"):
            anyfile.write(page, b"short")

    def test_read_into_round_trip(self, anyfile):
        """``read(page_id, into=buf)`` fills the caller's buffer -- the
        buffer pool's miss path reads into a reused frame."""
        pages = [anyfile.allocate() for _ in range(3)]
        for page in pages:
            anyfile.write(page, bytes([page + 1]) * PAGE_SIZE)
        buf = bytearray(b"\xee" * PAGE_SIZE)
        for page in reversed(pages):
            assert anyfile.read(page, into=buf) is buf
            assert bytes(buf) == bytes([page + 1]) * PAGE_SIZE

    def test_read_into_wrong_size_rejected(self, anyfile):
        page = anyfile.allocate()
        with pytest.raises(ValueError, match="4096-byte buffer"):
            anyfile.read(page, into=bytearray(10))

    def test_write_keeps_a_copy(self, anyfile):
        """A write copies what it keeps: the pool writes a frame's own
        buffer back, then reuses the buffer for another page."""
        page = anyfile.allocate()
        frame = bytearray(b"\x01" * PAGE_SIZE)
        anyfile.write(page, frame)
        frame[:] = b"\x02" * PAGE_SIZE
        assert bytes(anyfile.read(page)) == b"\x01" * PAGE_SIZE

    def test_read_returns_private_copy(self, anyfile):
        page = anyfile.allocate()
        anyfile.write(page, b"\x01" * PAGE_SIZE)
        buf = anyfile.read(page)
        buf[0] = 0xFF
        assert anyfile.read(page)[0] == 0x01


class TestOnDiskPersistence:
    def test_reopen_preserves_contents(self, tmp_path):
        path = tmp_path / "persist.db"
        with OnDiskPageFile(path) as pf:
            page = pf.allocate()
            pf.write(page, b"\xAB" * PAGE_SIZE)
        with OnDiskPageFile(path) as pf:
            assert pf.num_pages == 1
            assert bytes(pf.read(0)) == b"\xAB" * PAGE_SIZE

    def test_file_size_matches_pages(self, tmp_path):
        path = tmp_path / "sized.db"
        with OnDiskPageFile(path) as pf:
            for _ in range(3):
                pf.allocate()
            pf.write(2, b"\x01" * PAGE_SIZE)
        assert os.path.getsize(path) == 3 * PAGE_SIZE

    def test_corrupt_size_rejected(self, tmp_path):
        path = tmp_path / "corrupt.db"
        path.write_bytes(b"x" * 100)
        with pytest.raises(ValueError, match="not a multiple"):
            OnDiskPageFile(path)

    def test_custom_page_size(self, tmp_path):
        with OnDiskPageFile(tmp_path / "small.db", page_size=512) as pf:
            page = pf.allocate()
            pf.write(page, b"\x07" * 512)
            assert bytes(pf.read(page)) == b"\x07" * 512
