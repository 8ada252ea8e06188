"""Record-level storage on top of the buffer pool.

STRIPES stores non-leaf nodes as small records (352 bytes in the paper's
two-dimensional configuration, ~11 per 4 KB page -- Section 5.1), *small*
leaves as half-page records, and *large* leaves as full-page records.  The
TPR/TPR*-trees store one node per page.  :class:`RecordStore` supports all
of these through per-page size classes:

* every page is dedicated to a single record size;
* a small header carries the record size, slot count, and an occupancy
  bitmap;
* record ids encode ``(page_id, slot)``, so a record's frame is found
  from its id alone.

:class:`NodeCache` keeps decoded records on the buffer-pool frame that
holds their bytes (``Page.decoded``), with *write-through* semantics:
every read still performs a (logical) page access through the buffer
pool -- so IO accounting is identical to a system that parses node bytes
on every access -- but deserialization is skipped while the page stays
resident.  Evicting or freeing the frame drops its decoded records with
it, and every :class:`RecordStore` call that changes a record's bytes
drops that record's decoded form; no second map has to be kept in step
and no staleness check runs on a read.  Mutations serialize immediately
into the page.  What a decode builds is up to the caller's codec: the
STRIPES codec decodes leaf records into numpy columns, not per-entry
objects.

Concurrency invariant (single writer per shard)
-----------------------------------------------
:class:`RecordStore` and :class:`NodeCache` rely on the same discipline
as the buffer pool they wrap, and hold no lock of their own: exactly one
thread mutates a shard's store at a time (the shard writer lock in
``repro.service.sharding``), and tree-descent reads -- which touch the
pool's LRU state and the frames' decoded records -- are serialized by
the shard's tree mutex.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Generic, Set, TypeVar

from repro.storage.buffer_pool import BufferPool
from repro.storage.page import Page

MAX_SLOTS_PER_PAGE = 1024
"""Record ids are ``page_id * MAX_SLOTS_PER_PAGE + slot``."""

_HEADER = struct.Struct("<HH")  # record_size, num_slots


class SizeClass:
    """Layout of a page dedicated to records of one size."""

    __slots__ = ("record_size", "num_slots", "bitmap_offset", "bitmap_len",
                 "records_offset")

    def __init__(self, record_size: int, page_size: int):
        if record_size <= 0:
            raise ValueError("record_size must be positive")
        num_slots = 0
        while True:
            candidate = num_slots + 1
            bitmap_len = (candidate + 7) // 8
            if _HEADER.size + bitmap_len + candidate * record_size > page_size:
                break
            num_slots = candidate
        if num_slots == 0:
            raise ValueError(
                f"record size {record_size} does not fit in a "
                f"{page_size}-byte page"
            )
        if num_slots > MAX_SLOTS_PER_PAGE:
            num_slots = MAX_SLOTS_PER_PAGE
        self.record_size = record_size
        self.num_slots = num_slots
        self.bitmap_offset = _HEADER.size
        self.bitmap_len = (num_slots + 7) // 8
        self.records_offset = _HEADER.size + self.bitmap_len

    def record_offset(self, slot: int) -> int:
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.num_slots})")
        return self.records_offset + slot * self.record_size


def rid_page(rid: int) -> int:
    """Page id component of a record id."""
    return rid // MAX_SLOTS_PER_PAGE


def rid_slot(rid: int) -> int:
    """Slot component of a record id."""
    return rid % MAX_SLOTS_PER_PAGE


def make_rid(page_id: int, slot: int) -> int:
    """Build a record id from page and slot."""
    return page_id * MAX_SLOTS_PER_PAGE + slot


class RecordStore:
    """Fixed-size-record allocation over a buffer pool.

    One store can serve multiple record sizes at once; each *page* holds a
    single size.  Free-slot availability per size class is tracked in
    memory (the moral equivalent of a cached space map) so allocation does
    not scan pages.
    """

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self._classes: Dict[int, SizeClass] = {}
        # record_size -> stack of page ids with at least one free slot.  A
        # stack (most-recently-touched first) keeps records allocated close
        # in time on the same page -- the sibling-clustering property the
        # paper relies on for STRIPES non-leaf nodes (Section 5.1).
        self._pages_with_space: Dict[int, list] = {}
        self._pages_with_space_set: Dict[int, Set[int]] = {}
        # page_id -> (size class, occupied-slot count); in-memory mirror
        self._page_meta: Dict[int, tuple[SizeClass, int]] = {}

    def size_class(self, record_size: int) -> SizeClass:
        """Return (and memoize) the layout for ``record_size``."""
        cls = self._classes.get(record_size)
        if cls is None:
            cls = SizeClass(record_size, self.pool.pagefile.page_size)
            self._classes[record_size] = cls
        return cls

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #

    def allocate(self, record_size: int, payload: bytes) -> int:
        """Store ``payload`` in a fresh record of the given size class and
        return its record id.  ``payload`` may be shorter than the class
        size (trailing bytes are undefined, as in a real slotted page)."""
        cls = self.size_class(record_size)
        if len(payload) > record_size:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds record size "
                f"{record_size}"
            )
        page_id = self._find_page_with_space(cls)
        page = self.pool.fetch(page_id)
        try:
            slot = self._claim_free_slot(page, cls)
            page.write(cls.record_offset(slot), payload)
            rid = make_rid(page_id, slot)
            page.decoded.pop(rid, None)
        finally:
            page.unpin()
        _, occupied = self._page_meta[page_id]
        occupied += 1
        self._page_meta[page_id] = (cls, occupied)
        if occupied >= cls.num_slots:
            self._drop_space(record_size, page_id)
        return rid

    def read(self, rid: int) -> bytes:
        """Return the full record-size byte slice for ``rid``."""
        cls, page = self._fetch_record_page(rid)
        try:
            return page.read(cls.record_offset(rid_slot(rid)), cls.record_size)
        finally:
            page.unpin()

    def write(self, rid: int, payload: bytes) -> None:
        """Overwrite record ``rid`` with ``payload`` (write-through)."""
        cls, page = self._fetch_record_page(rid)
        try:
            if len(payload) > cls.record_size:
                raise ValueError(
                    f"payload of {len(payload)} bytes exceeds record size "
                    f"{cls.record_size}"
                )
            page.write(cls.record_offset(rid_slot(rid)), payload)
            page.decoded.pop(rid, None)
        finally:
            page.unpin()

    def write_many(self, items) -> None:
        """Overwrite many records, pinning each touched page once.

        ``items`` is an iterable of ``(rid, payload)``.  Equivalent to
        calling :meth:`write` per item, but the
        buffer pool sees one fetch (one logical read, at most one physical
        read) per *page* per batch instead of per record -- the write-side
        twin of the sibling clustering the allocator maintains.  Payloads
        are size-checked against their page's class before any byte of
        that page is written, so a bad item cannot leave its page half
        applied.
        """
        by_page: Dict[int, list] = {}
        for rid, payload in items:
            by_page.setdefault(rid // MAX_SLOTS_PER_PAGE, []).append(
                (rid, payload))
        for page_id, recs in by_page.items():
            meta = self._page_meta.get(page_id)
            if meta is None:
                raise KeyError(f"record {recs[0][0]} does not exist")
            cls, _ = meta
            for _, payload in recs:
                if len(payload) > cls.record_size:
                    raise ValueError(
                        f"payload of {len(payload)} bytes exceeds record "
                        f"size {cls.record_size}"
                    )
            page = self.pool.fetch(page_id)
            try:
                for rid, payload in recs:
                    page.write(cls.record_offset(rid_slot(rid)), payload)
                    page.decoded.pop(rid, None)
            finally:
                page.unpin()

    def free(self, rid: int) -> None:
        """Release the record; empty pages are returned to the page file."""
        page_id = rid_page(rid)
        cls, page = self._fetch_record_page(rid)
        try:
            self._set_bitmap(page, cls, rid_slot(rid), occupied=False)
            page.decoded.pop(rid, None)
        finally:
            page.unpin()
        _, occupied = self._page_meta[page_id]
        occupied -= 1
        if occupied <= 0:
            del self._page_meta[page_id]
            self._drop_space(cls.record_size, page_id)
            self.pool.free_page(page_id)
        else:
            self._page_meta[page_id] = (cls, occupied)
            self._add_space(cls.record_size, page_id)

    def record_size_of(self, rid: int) -> int:
        """Record size class of ``rid`` (from the in-memory space map)."""
        return self._page_meta[rid_page(rid)][0].record_size

    def pages_in_use(self) -> int:
        """Number of pages currently holding at least one record."""
        return len(self._page_meta)

    def occupied_rids(self):
        """Yield every record id whose bitmap slot is occupied, straight
        from the page bytes (not the in-memory mirror).  The index-level
        checker compares this set against the rids reachable from the
        tree roots to find leaked or dangling records."""
        for page_id in sorted(self._page_meta):
            cls, _ = self._page_meta[page_id]
            with self.pool.pinned(page_id) as page:
                bitmap = page.read(cls.bitmap_offset, cls.bitmap_len)
            for slot in range(cls.num_slots):
                if bitmap[slot >> 3] & (1 << (slot & 7)):
                    yield make_rid(page_id, slot)

    def check(self) -> list:
        """Verify the store's on-page state against its in-memory space
        map; returns a list of human-readable violations (empty when
        consistent).

        Checked per mapped page: the on-page header matches the size
        class the space map claims, the bitmap's population count
        matches the tracked occupied count, occupancy is non-zero
        (empty pages must have been freed), and space-list membership
        is exactly ``occupied < num_slots``.  Globally: no page is both
        mapped and on the page file's free list, every page-file page is
        either mapped, free, or was never handed to this store's pool
        (leak detection is the index-level reachability check), and the
        free list holds no duplicates.
        """
        problems: list = []
        freed = list(self.pool.pagefile.free_page_ids())
        freed_set = set(freed)
        if len(freed) != len(freed_set):
            problems.append("page file free list contains duplicate ids")
        for page_id in sorted(self._page_meta):
            cls, occupied = self._page_meta[page_id]
            if page_id in freed_set:
                problems.append(
                    f"page {page_id} is mapped in the store but on the "
                    f"page file free list (double free)")
                continue
            with self.pool.pinned(page_id) as page:
                rec_size, num_slots = _HEADER.unpack(
                    page.read(0, _HEADER.size))
                bitmap = page.read(cls.bitmap_offset, cls.bitmap_len)
            if rec_size != cls.record_size or num_slots != cls.num_slots:
                problems.append(
                    f"page {page_id} header says ({rec_size} bytes, "
                    f"{num_slots} slots) but the space map says "
                    f"({cls.record_size} bytes, {cls.num_slots} slots)")
            popcount = sum(bin(b).count("1") for b in bitmap)
            if popcount != occupied:
                problems.append(
                    f"page {page_id} bitmap holds {popcount} records but "
                    f"the space map counts {occupied}")
            if occupied <= 0:
                problems.append(
                    f"page {page_id} is mapped with zero records (empty "
                    f"pages must be freed)")
            in_space = page_id in self._pages_with_space_set.get(
                cls.record_size, ())
            should = occupied < cls.num_slots
            if in_space != should:
                problems.append(
                    f"page {page_id} ({occupied}/{cls.num_slots} slots) "
                    f"{'is' if in_space else 'is not'} on the free-space "
                    f"list but {'should not be' if in_space else 'should be'}")
        for record_size, members in self._pages_with_space_set.items():
            stack = self._pages_with_space.get(record_size, [])
            if set(stack) != members or len(stack) != len(members):
                problems.append(
                    f"free-space stack and set disagree for record size "
                    f"{record_size}")
            for page_id in members - set(self._page_meta):
                problems.append(
                    f"free-space list for record size {record_size} names "
                    f"unmapped page {page_id}")
        for page_id in range(self.pool.pagefile.capacity_pages):
            if page_id not in self._page_meta and page_id not in freed_set:
                problems.append(
                    f"page {page_id} is neither mapped nor free (leaked)")
        return problems

    def attach_metrics(self, registry, prefix: str = "store") -> None:
        """Expose store-level occupancy gauges in ``registry`` (a
        :class:`repro.obs.metrics.MetricsRegistry`) via a pull collector."""
        pages = registry.gauge(f"{prefix}_pages_in_use",
                               help="pages holding at least one record")
        size_classes = registry.gauge(f"{prefix}_size_classes",
                                      help="distinct record sizes in use")
        pages_with_space = registry.gauge(
            f"{prefix}_pages_with_space",
            help="non-full pages available for allocation")

        def collect() -> None:
            pages.set(len(self._page_meta))
            size_classes.set(len(self._classes))
            pages_with_space.set(sum(len(s) for s in
                                     self._pages_with_space_set.values()))

        registry.register_collector(collect)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _fetch_record_page(self, rid: int) -> tuple[SizeClass, Page]:
        meta = self._page_meta.get(rid_page(rid))
        if meta is None:
            raise KeyError(f"record {rid} does not exist")
        cls, _ = meta
        page = self.pool.fetch(rid_page(rid))
        return cls, page

    def _add_space(self, record_size: int, page_id: int) -> None:
        members = self._pages_with_space_set.setdefault(record_size, set())
        if page_id not in members:
            members.add(page_id)
            self._pages_with_space.setdefault(record_size, []).append(page_id)

    def _drop_space(self, record_size: int, page_id: int) -> None:
        members = self._pages_with_space_set.get(record_size)
        if members and page_id in members:
            members.discard(page_id)
            stack = self._pages_with_space[record_size]
            # Fast path: the most recent page is usually the one dropping.
            if stack and stack[-1] == page_id:
                stack.pop()
            else:
                stack.remove(page_id)

    def _find_page_with_space(self, cls: SizeClass) -> int:
        stack = self._pages_with_space.setdefault(cls.record_size, [])
        if stack:
            return stack[-1]
        page = self.pool.new_page()
        try:
            page.write(0, _HEADER.pack(cls.record_size, cls.num_slots))
            page.write(cls.bitmap_offset, b"\x00" * cls.bitmap_len)
        finally:
            page.unpin()
        self._page_meta[page.page_id] = (cls, 0)
        self._add_space(cls.record_size, page.page_id)
        return page.page_id

    def _claim_free_slot(self, page: Page, cls: SizeClass) -> int:
        bitmap = page.read(cls.bitmap_offset, cls.bitmap_len)
        for slot in range(cls.num_slots):
            if not bitmap[slot >> 3] & (1 << (slot & 7)):
                self._set_bitmap(page, cls, slot, occupied=True)
                return slot
        raise RuntimeError(
            f"page {page.page_id} advertised free space but has none"
        )

    def _set_bitmap(self, page: Page, cls: SizeClass, slot: int,
                    occupied: bool) -> None:
        byte_off = cls.bitmap_offset + (slot >> 3)
        current = page.read(byte_off, 1)[0]
        mask = 1 << (slot & 7)
        if occupied:
            current |= mask
        else:
            if not current & mask:
                raise ValueError(f"slot {slot} on page {page.page_id} "
                                 "already free")
            current &= ~mask
        page.write(byte_off, bytes([current]))


T = TypeVar("T")


class NodeCache(Generic[T]):
    """Decoded-node cache held on buffer-pool frames, with write-through
    persistence.

    ``serialize``/``deserialize`` convert between node objects and record
    payload bytes.  Every read is a page access through the buffer pool
    (so residency and IO counts behave exactly as if nodes were parsed
    from bytes each time); ``deserialize`` only runs again after the
    node's page was evicted or its record was rewritten.  It is called
    once per miss and its result is shared by every later hit, so
    a codec may return an object that defers part of its decoding (the
    STRIPES leaf codec returns records holding numpy columns and builds
    their entry lists on first use).

    A decoded record sits in its frame's ``Page.decoded`` and always
    matches the bytes it came from: every :class:`RecordStore` call that
    changes a record's bytes -- ``allocate``, ``write``, ``write_many``,
    ``free`` -- drops the record's decoded form while it holds the page
    pinned, and :meth:`update`/:meth:`insert` then put the new node back.
    A raw store write that bypasses this cache therefore can never serve
    a stale node, and neither can a slot freed and reallocated behind its
    back.  Rewriting one record does not invalidate its page siblings
    (~11 non-leaf nodes share a page in the paper layout).  Several
    caches may share one store (the rotating STRIPES sub-indexes do);
    record ids keep their decoded records apart.
    """

    def __init__(self, store: RecordStore,
                 serialize: Callable[[T], bytes],
                 deserialize: Callable[[bytes], T]):
        self.store = store
        self._serialize = serialize
        self._deserialize = deserialize
        # Plain ints on the hot path; pulled into a registry on export.
        self.hits = 0
        self.misses = 0

    def get(self, rid: int) -> T:
        """Fetch the node for ``rid`` (the page access always goes through
        the buffer pool; deserialization is skipped on decoded hits)."""
        pool = self.store.pool
        page_id = rid // MAX_SLOTS_PER_PAGE
        page = pool._frames.get(page_id)
        if page is not None:
            obj = page.decoded.get(rid)
            if obj is not None:
                # What fetching and unpinning a resident page counts: one
                # logical read and the move to the LRU end.
                pool.stats.logical_reads += 1
                pool._frames.move_to_end(page_id)
                self.hits += 1
                return obj
        cls, page = self.store._fetch_record_page(rid)
        try:
            obj = self._deserialize(
                page.read(cls.record_offset(rid_slot(rid)), cls.record_size))
            page.decoded[rid] = obj
            self.misses += 1
            return obj
        finally:
            page.unpin()

    def insert(self, record_size: int, obj: T) -> int:
        """Persist a new node and return its record id."""
        rid = self.store.allocate(record_size, self._serialize(obj))
        self._remember(rid, obj)
        return rid

    def update(self, rid: int, obj: T) -> None:
        """Serialize ``obj`` into its record (write-through)."""
        self.store.write(rid, self._serialize(obj))
        self._remember(rid, obj)

    def update_many(self, items) -> None:
        """Serialize many ``(rid, obj)`` pairs with one page pin per
        touched page (:meth:`RecordStore.write_many`); cache state ends
        identical to per-item :meth:`update` calls."""
        items = list(items)
        self.store.write_many(
            (rid, self._serialize(obj)) for rid, obj in items)
        for rid, obj in items:
            self._remember(rid, obj)

    def free(self, rid: int) -> None:
        """Delete the record; :meth:`RecordStore.free` drops its decoded
        form from the frame."""
        self.store.free(rid)

    def cached_count(self) -> int:
        """Decoded records held on the pool's resident frames, by every
        cache over that pool."""
        return sum(len(page.decoded)
                   for page in self.store.pool._frames.values())

    def attach_metrics(self, registry, prefix: str = "node_cache") -> None:
        """Expose deserialization hit/miss counters and the decoded-record
        gauge in ``registry`` via a pull collector."""
        hits = registry.counter(f"{prefix}_decoded_hits_total",
                                help="node reads served without deserialize")
        misses = registry.counter(f"{prefix}_decoded_misses_total",
                                  help="node reads that deserialized bytes")
        cached = registry.gauge(f"{prefix}_cached_objects",
                                help="decoded records on resident frames")

        def collect() -> None:
            hits.set_total(self.hits)
            misses.set_total(self.misses)
            cached.set(self.cached_count())

        registry.register_collector(collect)

    def _remember(self, rid: int, obj: T) -> None:
        # The write just fetched the page, so its frame is resident --
        # unless a multi-page write_many evicted it again, in which case
        # the next get decodes.
        page = self.store.pool._frames.get(rid_page(rid))
        if page is not None:
            page.decoded[rid] = obj
