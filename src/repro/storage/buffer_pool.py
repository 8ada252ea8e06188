"""LRU buffer pool with pin counts and physical-IO accounting.

The pool mirrors the experimental setup in the paper (Section 5.1): a fixed
number of frames (2048 pages of 4 KB in the paper), LRU replacement among
unpinned frames, and write-back of dirty pages at eviction.  Every physical
read and write is counted in :class:`repro.storage.stats.IOStats`; these
counts are the IO component of every figure in the evaluation.

Index code interacts with the pool through short pin/unpin windows::

    with pool.pinned(page_id) as page:
        ...read or mutate page.data...

A page enters the pool one way, :meth:`BufferPool._load`: it evicts the
oldest unpinned frame when the pool is full (a dirty victim is written
back, write guard first), reads the page into the victim's frame and
counts one logical and one physical read.  :meth:`BufferPool.fetch` is a
resident hit or a load, then a pin;
:meth:`NodeCache.get <repro.storage.node_store.NodeCache.get>` calls the
load itself on a miss.  :meth:`BufferPool.new_page` evicts through the
same routine and zero-fills the victim's frame.

A :class:`Page` is a frame, not a page: eviction hands the victim's
``Page`` object and buffer to the next page that enters, renamed, so a
miss allocates nothing once the pool is full.  A ``Page`` handle is
therefore valid only while the caller holds a pin on it; after the unpin
the same object may hold another page.  Keep the page id, not the
handle.  Frames are created one at a time as the pool fills, never up
front, so a pool larger than its index costs only the pages it holds.

A frame is the only in-memory home of its page: the node cache keeps
decoded records on the :class:`Page` itself (``Page.decoded``), and an
evicted frame's decoded records are dropped with its bytes, so
re-reading the page is charged a physical read like any other
non-resident access.  The pool needs no observer for that.

:meth:`BufferPool.attach_metrics` exports every :class:`IOStats` counter
(plus residency/hit-rate gauges) into a
:class:`repro.obs.metrics.MetricsRegistry` through a pull collector: the
hot paths keep incrementing the same plain integers, and the registry
mirrors them only when an export is taken.

Concurrency invariant (single writer per shard)
-----------------------------------------------
The pool itself is *not* internally locked.  In the concurrent service
(``repro.service``) each shard owns a private pagefile + pool, and the
shard's lock model guarantees at most one thread operates on the pool at
a time: writers hold the shard's exclusive lock, and tree-descent reads
(which mutate LRU order and pin counts) are serialized by the shard's
tree mutex.  Sharing one pool between unsynchronized threads is
unsupported.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.storage.page import PAGE_SIZE, Page
from repro.storage.pagefile import PageFile
from repro.storage.stats import IOStats

DEFAULT_POOL_PAGES = 2048
"""Default pool capacity in pages, matching the paper's configuration."""


class BufferPoolFullError(RuntimeError):
    """Raised when every frame is pinned and a new page must be brought in."""


class BufferPool:
    """Fixed-capacity LRU page cache over a :class:`PageFile`."""

    def __init__(self, pagefile: PageFile, capacity: int = DEFAULT_POOL_PAGES,
                 stats: IOStats | None = None):
        if capacity <= 0:
            raise ValueError("buffer pool capacity must be positive")
        self.pagefile = pagefile
        self.capacity = capacity
        self.stats = stats if stats is not None else IOStats()
        # OrderedDict in LRU order: oldest first.
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        # Optional write guard, invoked with the page id before every
        # dirty write-back.  The checkpoint layer installs one that
        # shadows the page's pre-checkpoint on-disk image into an undo
        # journal, which is what makes between-checkpoint evictions
        # crash-consistent (see repro.storage.journal).
        self._write_guard: Callable[[int], None] | None = None
        self._guard_suspended = 0
        self._zero_page = bytes(pagefile.page_size)

    # ------------------------------------------------------------------ #
    # Frame management
    # ------------------------------------------------------------------ #

    @property
    def num_frames(self) -> int:
        """Pages currently resident."""
        return len(self._frames)

    def is_resident(self, page_id: int) -> bool:
        """True if ``page_id`` is currently in the pool (no LRU touch)."""
        return page_id in self._frames

    def set_write_guard(self,
                        guard: Callable[[int], None] | None) -> None:
        """Install (or clear, with ``None``) the pre-write-back guard.

        The guard runs with the page id *before* a dirty page's bytes
        reach the page file, from :meth:`flush_page` and eviction alike.
        If it raises, the write-back is abandoned and the page stays
        resident and dirty -- nothing is lost.
        """
        self._write_guard = guard

    @contextmanager
    def unguarded(self) -> Iterator[None]:
        """Suspend the write guard for the block.  The checkpoint flush
        uses this: pages covered by a committed redo journal need no
        undo shadowing."""
        self._guard_suspended += 1
        try:
            yield
        finally:
            self._guard_suspended -= 1

    def dirty_page_images(self) -> "dict[int, bytes]":
        """Snapshot of every dirty resident page as ``{page id: bytes}``.

        This is the exact set :meth:`flush_all` would write, taken
        through a public API so the checkpoint journal and the flush are
        guaranteed to agree on the dirty set.
        """
        return {page.page_id: bytes(page.data)
                for page in self._frames.values() if page.dirty}

    def attach_metrics(self, registry, prefix: str = "pool") -> None:
        """Mirror this pool's counters into ``registry`` (a
        :class:`repro.obs.metrics.MetricsRegistry`) under ``prefix``.

        Registers a pull collector, so the fetch/evict hot paths are not
        touched: every :class:`IOStats` field becomes a
        ``{prefix}_{field}_total`` counter (new fields are picked up
        automatically), plus ``{prefix}_resident_pages`` /
        ``{prefix}_capacity_pages`` / ``{prefix}_hit_rate`` gauges.
        """
        counters = {
            name: registry.counter(f"{prefix}_{name}_total",
                                   help=f"buffer pool {name.replace('_', ' ')}")
            for name in self.stats.counters()
        }
        resident = registry.gauge(f"{prefix}_resident_pages",
                                  help="pages currently in the pool")
        capacity = registry.gauge(f"{prefix}_capacity_pages",
                                  help="pool capacity in pages")
        hit_rate = registry.gauge(f"{prefix}_hit_rate",
                                  help="1 - physical/logical reads")

        def collect() -> None:
            for name, value in self.stats.counters().items():
                counters[name].set_total(value)
            resident.set(len(self._frames))
            capacity.set(self.capacity)
            hit_rate.set(self.stats.hit_rate)

        registry.register_collector(collect)

    def fetch(self, page_id: int) -> Page:
        """Return the page, pinned.  Counts a logical read, and a physical
        read when the page was not resident.  Callers must unpin."""
        page = self._frames.get(page_id)
        if page is None:
            page = self._load(page_id)
        else:
            self.stats.logical_reads += 1
            self._frames.move_to_end(page_id)
        page.pin_count += 1
        return page

    def new_page(self) -> Page:
        """Allocate a fresh page in the file and return it pinned, dirty
        and zero-filled (a reused frame keeps no byte of its victim).

        No physical read is charged; the write happens at eviction or flush.
        """
        page = self._make_room()
        page_id = self.pagefile.allocate()
        self.stats.pages_allocated += 1
        if page is None:
            page = Page(page_id, None, self.pagefile.page_size)
        else:
            page.page_id = page_id
            page.data[:] = self._zero_page
        page.dirty = True
        page.pin()
        self._frames[page_id] = page
        return page

    def unpin(self, page: Page, dirty: bool = False) -> None:
        """Release one pin; ``dirty=True`` marks the page for write-back."""
        if dirty:
            page.mark_dirty()
        page.unpin()

    @contextmanager
    def pinned(self, page_id: int) -> Iterator[Page]:
        """Context manager that pins ``page_id`` for the duration of the
        block.  Mark the page dirty inside the block if it was mutated."""
        page = self.fetch(page_id)
        try:
            yield page
        finally:
            page.unpin()

    def free_page(self, page_id: int) -> None:
        """Drop the page from the pool (without write-back) and free it in
        the file.  The page must not be pinned."""
        page = self._frames.get(page_id)
        if page is not None:
            if page.is_pinned:
                raise RuntimeError(f"cannot free pinned page {page_id}")
            del self._frames[page_id]
        self.pagefile.free(page_id)
        self.stats.pages_freed += 1

    # ------------------------------------------------------------------ #
    # Write-back
    # ------------------------------------------------------------------ #

    def _write_back(self, page: Page) -> None:
        """Write one dirty page's bytes to the page file, running the
        write guard first.  Raises before any byte is written when
        either the guard or the page file fails."""
        if self._write_guard is not None and not self._guard_suspended:
            self._write_guard(page.page_id)
        self.pagefile.write(page.page_id, page.data)  # the file copies
        self.stats.physical_writes += 1

    def flush_page(self, page_id: int) -> None:
        """Write the page back if dirty; it stays resident."""
        page = self._frames.get(page_id)
        if page is not None and page.dirty:
            self._write_back(page)
            page.dirty = False

    def flush_all(self) -> None:
        """Write back every dirty resident page, in ascending page-id
        order.

        Page ids order the backing file, so an id-ordered write-back is a
        (mostly) sequential pass over the file rather than the arbitrary
        LRU order the frame table happens to be in -- exactly the access
        pattern :class:`repro.storage.stats.DiskModel` rewards through
        ``sequential_fraction``.  The physical-write count is unchanged;
        only the order differs.
        """
        for page_id in sorted(page_id for page_id, page
                              in self._frames.items() if page.dirty):
            self.flush_page(page_id)

    def clear(self) -> None:
        """Flush everything and empty the pool (all pins must be released)."""
        pinned = [p.page_id for p in self._frames.values() if p.is_pinned]
        if pinned:
            raise RuntimeError(f"cannot clear pool with pinned pages {pinned}")
        self.flush_all()
        self.stats.evictions += len(self._frames)
        self._frames.clear()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _load(self, page_id: int) -> Page:
        """Bring non-resident ``page_id`` into a frame, at the MRU end,
        and return it unpinned.

        This is the one way a page is read into the pool: the page file
        reads it straight into the frame :meth:`_make_room` freed (a new
        one while the pool has room), then one logical and one physical
        read are counted.  A failed read installs nothing and counts no
        read; the victim was evicted all the same.
        """
        page = self._make_room()
        if page is None:
            page = Page(page_id, None, self.pagefile.page_size)
        else:
            page.page_id = page_id
        self.pagefile.read(page_id, page.data)
        stats = self.stats
        stats.logical_reads += 1
        stats.physical_reads += 1
        self._frames[page_id] = page
        return page

    def _make_room(self) -> Page | None:
        """Evict the oldest unpinned frames until one is free, and return
        the (last) victim's frame for reuse: unpinned, clean, with its
        decoded records dropped, its buffer still holding the evicted
        bytes.  ``None`` when the pool had room.

        A dirty victim is written back (guard first) *before* its frame
        is dropped: if the write or its guard raises -- a transient IO
        fault, say -- the page stays resident and dirty, and a retried
        operation still sees it.
        """
        frames = self._frames
        page = None
        while len(frames) >= self.capacity:
            for page in frames.values():  # oldest first
                if not page.pin_count:
                    break
            else:
                raise BufferPoolFullError(
                    f"all {self.capacity} frames are pinned; cannot evict")
            if page.dirty:
                self._write_back(page)
                page.dirty = False
            del frames[page.page_id]
            page.decoded.clear()
            self.stats.evictions += 1
        return page

    def __repr__(self) -> str:
        return (
            f"BufferPool(frames={len(self._frames)}/{self.capacity}, "
            f"reads={self.stats.physical_reads}, "
            f"writes={self.stats.physical_writes})"
        )
