"""Page-addressed files.

A page file is the persistence layer below the buffer pool.  Two
implementations share the :class:`PageFile` interface:

* :class:`OnDiskPageFile` -- a real file on the filesystem, used by the
  examples and the full-scale benchmarks.
* :class:`InMemoryPageFile` -- a list of buffers, used by tests and the
  default benchmark configuration.  Physical IO is still *counted* by the
  buffer pool; only the actual device traffic is elided, which keeps unit
  tests hermetic and fast while preserving the paper's IO accounting.

A read fills a buffer: a fresh one the caller owns, or -- on the buffer
pool's miss path -- the frame the page goes into
(``read(page_id, into=frame)``), so a miss allocates nothing.  A write
copies what it keeps: the pool hands over its frame's own buffer, which
the frame's next page overwrites in place.

Freed pages go on a free list and are reused by subsequent allocations,
mirroring how SHORE recycles slotted pages.
"""

from __future__ import annotations

import abc
import os
from typing import Sequence

from repro.storage.page import PAGE_SIZE


def fsync_dir(path: str | os.PathLike) -> None:
    """fsync a *directory*, making renames/removals inside it durable.

    POSIX only persists a directory entry once the directory itself is
    synced; the journal and sidecar protocols rely on this.  Platforms
    that cannot open directories (Windows) are silently skipped -- the
    rename is still atomic there, just not durably ordered.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class PageFile(abc.ABC):
    """Abstract page-addressed storage with allocate/read/write/free."""

    def __init__(self, page_size: int = PAGE_SIZE):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        # The free list orders reuse; the set answers the double-free
        # check without scanning it.
        self._free_list: list[int] = []
        self._free_set: set[int] = set()
        self._num_pages = 0

    @property
    def num_pages(self) -> int:
        """Number of allocated (non-free) pages."""
        return self._num_pages - len(self._free_list)

    @property
    def capacity_pages(self) -> int:
        """Highest page id ever allocated plus one (file extent)."""
        return self._num_pages

    def allocate(self) -> int:
        """Allocate a page and return its id, reusing freed pages first."""
        if self._free_list:
            page_id = self._free_list.pop()
            self._free_set.discard(page_id)
            return page_id
        page_id = self._num_pages
        self._num_pages += 1
        self._extend_to(self._num_pages)
        return page_id

    def free(self, page_id: int) -> None:
        """Return ``page_id`` to the free list.  Double frees are rejected."""
        self._check_page_id(page_id)
        if page_id in self._free_set:
            raise ValueError(f"page {page_id} already freed")
        self._free_list.append(page_id)
        self._free_set.add(page_id)

    def read(self, page_id: int, into: bytearray | None = None) -> bytearray:
        """Read a full page into ``into`` (a page-size ``bytearray``) and
        return it; without ``into``, into a fresh buffer the caller owns.
        A read that raises may have filled part of ``into``."""
        if not 0 <= page_id < self._num_pages:  # the check raises
            self._check_page_id(page_id)
        if into is None:
            into = bytearray(self.page_size)
        elif len(into) != self.page_size:
            raise ValueError(
                f"page read needs a {self.page_size}-byte buffer, "
                f"got {len(into)}")
        self._read_page(page_id, into)
        return into

    def write(self, page_id: int, data: bytes) -> None:
        """Write a full page buffer.  The file keeps a copy: the caller
        may overwrite ``data`` as soon as this returns."""
        self._check_page_id(page_id)
        if len(data) != self.page_size:
            raise ValueError(
                f"page write must be exactly {self.page_size} bytes, "
                f"got {len(data)}"
            )
        self._write_page(page_id, data)

    def free_page_ids(self) -> Sequence[int]:
        """The current free list (ids awaiting reuse), oldest first.
        Public so invariant checkers can cross-check the space map
        without reaching into ``_free_list``."""
        return tuple(self._free_list)

    def sync(self) -> None:
        """Make every prior :meth:`write` durable (fsync).  In-memory
        implementations are trivially durable; the default is a no-op."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any underlying resources."""

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_page_id(self, page_id: int) -> None:
        if not 0 <= page_id < self._num_pages:
            raise ValueError(
                f"page id {page_id} out of range [0, {self._num_pages})"
            )

    @abc.abstractmethod
    def _extend_to(self, num_pages: int) -> None:
        """Grow the underlying storage to hold ``num_pages`` pages."""

    @abc.abstractmethod
    def _read_page(self, page_id: int, into: bytearray) -> None:
        """Fill the page-size buffer ``into`` with page ``page_id``."""

    @abc.abstractmethod
    def _write_page(self, page_id: int, data: bytes) -> None:
        """Store a copy of the page-size ``data`` as page ``page_id``."""


class InMemoryPageFile(PageFile):
    """Page file backed by a list of buffers (for tests and fast benches)."""

    def __init__(self, page_size: int = PAGE_SIZE):
        super().__init__(page_size)
        self._pages: list[bytearray] = []

    @classmethod
    def from_images(cls, images: Sequence[bytes],
                    page_size: int = PAGE_SIZE) -> "InMemoryPageFile":
        """Build a page file pre-loaded with ``images`` (one full page
        each), the way reopening a real file resumes with its extent.
        Used by the crash harness to reopen a frozen durable image."""
        pagefile = cls(page_size)
        for page_id, image in enumerate(images):
            if len(image) != page_size:
                raise ValueError(
                    f"image {page_id} is {len(image)} bytes, expected "
                    f"{page_size}")
            pagefile._pages.append(bytearray(image))
        pagefile._num_pages = len(pagefile._pages)
        return pagefile

    def _extend_to(self, num_pages: int) -> None:
        while len(self._pages) < num_pages:
            self._pages.append(bytearray(self.page_size))

    def _read_page(self, page_id: int, into: bytearray) -> None:
        into[:] = self._pages[page_id]

    def _write_page(self, page_id: int, data: bytes) -> None:
        self._pages[page_id][:] = data  # a copy into the file's own page


class OnDiskPageFile(PageFile):
    """Page file backed by a regular file.

    The file is created if missing.  Reopening an existing file resumes with
    its current extent; the free list is not persisted (freed pages from a
    previous session are simply not reused), which is sufficient for index
    files that are rebuilt each index lifetime (Section 2 of the paper).
    """

    def __init__(self, path: str | os.PathLike, page_size: int = PAGE_SIZE):
        super().__init__(page_size)
        self.path = os.fspath(path)
        exists = os.path.exists(self.path)
        self._fh = open(self.path, "r+b" if exists else "w+b")
        if exists:
            size = os.fstat(self._fh.fileno()).st_size
            if size % page_size:
                raise ValueError(
                    f"{self.path} has size {size}, not a multiple of the "
                    f"page size {page_size}"
                )
            self._num_pages = size // page_size

    def _extend_to(self, num_pages: int) -> None:
        self._fh.seek(0, os.SEEK_END)
        current = self._fh.tell() // self.page_size
        if current < num_pages:
            self._fh.write(b"\x00" * (num_pages - current) * self.page_size)

    def _read_page(self, page_id: int, into: bytearray) -> None:
        self._fh.seek(page_id * self.page_size)
        if self._fh.readinto(into) != self.page_size:
            raise IOError(f"short read of page {page_id} from {self.path}")

    def _write_page(self, page_id: int, data: bytes) -> None:
        self._fh.seek(page_id * self.page_size)
        self._fh.write(data)

    def sync(self) -> None:
        """Flush buffered writes and fsync the backing file."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()
