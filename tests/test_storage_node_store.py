"""Unit and property tests for the slotted record store and node cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dual import DualPoint
from repro.core.nodes import (LeafExtension, LeafNode, NodeCodec,
                              NonLeafNode)
from repro.storage.buffer_pool import BufferPool, BufferPoolFullError
from repro.storage.faults import FaultyPageFile, TransientIOError
from repro.storage.node_store import (
    MAX_SLOTS_PER_PAGE,
    NodeCache,
    RecordStore,
    SizeClass,
    make_rid,
    rid_page,
    rid_slot,
)
from repro.storage.page import PAGE_SIZE
from repro.storage.pagefile import InMemoryPageFile


def make_store(capacity=64):
    return RecordStore(BufferPool(InMemoryPageFile(), capacity=capacity))


def decode_cstr(buf, offset):
    """Test codec: the NUL-terminated string at ``offset``, decoded in
    place from the frame."""
    return bytes(buf[offset: buf.index(0, offset)]).decode()


class TestSizeClass:
    def test_small_records_pack_many_per_page(self):
        cls = SizeClass(352, PAGE_SIZE)
        # The paper packs ~11 of its 352-byte non-leaf nodes per 4 KB page.
        assert cls.num_slots == 11

    def test_full_page_record_is_single_slot(self):
        cls = SizeClass(PAGE_SIZE - 5, PAGE_SIZE)
        assert cls.num_slots == 1

    def test_half_page_records_pack_two(self):
        cls = SizeClass((PAGE_SIZE - 6) // 2, PAGE_SIZE)
        assert cls.num_slots == 2

    def test_oversized_record_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            SizeClass(PAGE_SIZE, PAGE_SIZE)

    def test_zero_record_size_rejected(self):
        with pytest.raises(ValueError):
            SizeClass(0, PAGE_SIZE)

    def test_layout_fits_in_page(self):
        for record_size in (1, 8, 64, 352, 1024, 2045, 4091):
            cls = SizeClass(record_size, PAGE_SIZE)
            end = cls.records_offset + cls.num_slots * record_size
            assert end <= PAGE_SIZE
            assert cls.num_slots >= 1


class TestRidEncoding:
    def test_round_trip(self):
        rid = make_rid(17, 3)
        assert rid_page(rid) == 17
        assert rid_slot(rid) == 3

    def test_slot_bounds(self):
        rid = make_rid(0, MAX_SLOTS_PER_PAGE - 1)
        assert rid_slot(rid) == MAX_SLOTS_PER_PAGE - 1


class TestRecordStore:
    def test_write_read_round_trip(self):
        store = make_store()
        rid = store.allocate(64, b"hello")
        assert store.read(rid)[:5] == b"hello"

    def test_same_class_shares_pages(self):
        store = make_store()
        rids = [store.allocate(64, bytes([i])) for i in range(10)]
        pages = {rid_page(r) for r in rids}
        assert len(pages) == 1

    def test_different_classes_use_different_pages(self):
        store = make_store()
        small = store.allocate(64, b"a")
        large = store.allocate(2000, b"b")
        assert rid_page(small) != rid_page(large)

    def test_overflow_to_new_page(self):
        store = make_store()
        cls = store.size_class(1500)
        rids = [store.allocate(1500, b"x") for _ in range(cls.num_slots + 1)]
        assert len({rid_page(r) for r in rids}) == 2

    def test_free_releases_slot_for_reuse(self):
        store = make_store()
        rid = store.allocate(64, b"a")
        store.allocate(64, b"b")
        store.free(rid)
        again = store.allocate(64, b"c")
        assert again == rid
        assert store.read(again)[:1] == b"c"

    def test_free_last_record_releases_page(self):
        store = make_store()
        rid = store.allocate(64, b"a")
        assert store.pages_in_use() == 1
        store.free(rid)
        assert store.pages_in_use() == 0

    def test_read_after_free_rejected(self):
        store = make_store()
        rid = store.allocate(64, b"a")
        store.free(rid)
        with pytest.raises(KeyError):
            store.read(rid)

    def test_oversized_payload_rejected(self):
        store = make_store()
        with pytest.raises(ValueError, match="exceeds record size"):
            store.allocate(8, b"way too long for eight")
        rid = store.allocate(8, b"ok")
        with pytest.raises(ValueError, match="exceeds record size"):
            store.write(rid, b"way too long for eight")

    def test_record_size_of(self):
        store = make_store()
        rid = store.allocate(352, b"x")
        assert store.record_size_of(rid) == 352

    def test_allocation_prefers_recent_page(self):
        """Records allocated together land on the same page (the sibling
        clustering property the paper relies on)."""
        store = make_store()
        cls = store.size_class(352)
        first_batch = [store.allocate(352, b"a") for _ in range(cls.num_slots)]
        second_batch = [store.allocate(352, b"b") for _ in range(3)]
        assert len({rid_page(r) for r in first_batch}) == 1
        assert len({rid_page(r) for r in second_batch}) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from([32, 352, 2045]),
                  st.binary(min_size=0, max_size=32)),
        min_size=1, max_size=50))
    def test_many_records_round_trip(self, items):
        store = make_store()
        live = {}
        for record_size, payload in items:
            rid = store.allocate(record_size, payload)
            assert rid not in live
            live[rid] = (record_size, payload)
        for rid, (record_size, payload) in live.items():
            raw = store.read(rid)
            assert len(raw) == record_size
            assert raw[: len(payload)] == payload

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_interleaved_alloc_free(self, data):
        store = make_store()
        live = {}
        counter = 0
        for _ in range(40):
            if live and data.draw(st.booleans(), label="free?"):
                rid = data.draw(st.sampled_from(sorted(live)), label="victim")
                store.free(rid)
                del live[rid]
            else:
                counter += 1
                payload = counter.to_bytes(4, "little")
                rid = store.allocate(64, payload)
                assert rid not in live
                live[rid] = payload
        for rid, payload in live.items():
            assert store.read(rid)[:4] == payload


class TestNodeCache:
    @staticmethod
    def make_cache(store):
        return NodeCache(store,
                         serialize=lambda s: s.encode(),
                         deserialize=decode_cstr)

    def test_insert_get_update(self, store):
        cache = self.make_cache(store)
        rid = cache.insert(64, "hello")
        assert cache.get(rid) == "hello"
        cache.update(rid, "world")
        assert cache.get(rid) == "world"

    def test_get_survives_eviction_via_deserialize(self):
        store = make_store(capacity=1)
        cache = self.make_cache(store)
        rid = cache.insert(64, "persistent")
        # Force the page out by allocating another class's pages.
        other = store.allocate(2000, b"evictor")
        store.read(other)
        assert cache.get(rid) == "persistent"

    def test_eviction_drops_cached_objects(self):
        store = make_store(capacity=1)
        cache = self.make_cache(store)
        rid = cache.insert(64, "x")
        assert cache.cached_count() == 1
        store.allocate(2000, b"evictor")  # evicts the 64-class page
        assert cache.cached_count() == 0
        assert cache.get(rid) == "x"

    def test_free_removes_object(self, store):
        cache = self.make_cache(store)
        rid = cache.insert(64, "gone")
        cache.free(rid)
        assert cache.cached_count() == 0
        with pytest.raises(KeyError):
            cache.get(rid)

    def test_reallocated_slot_never_serves_a_stale_decode(self, store):
        cache = self.make_cache(store)
        keep = cache.insert(64, "sibling")
        rid = cache.insert(64, "old")
        cache.free(rid)
        cache.get(rid)  # decodes the freed slot's leftover bytes
        assert store.allocate(64, b"new") == rid
        assert cache.get(rid) == "new"
        assert cache.get(keep) == "sibling"

    def test_reads_count_logical_io(self, store):
        cache = self.make_cache(store)
        rid = cache.insert(64, "x")
        before = store.pool.stats.logical_reads
        cache.get(rid)
        cache.get(rid)
        assert store.pool.stats.logical_reads == before + 2


class TestNodeCacheMiss:
    """A ``get`` whose record is not decoded: the page is found resident
    or loaded through the pool's one miss path, then the record is
    decoded from the frame's bytes."""

    @staticmethod
    def store_over(pagefile, capacity):
        return RecordStore(BufferPool(pagefile, capacity=capacity))

    def test_every_frame_pinned_raises_and_changes_nothing(self):
        store = make_store(capacity=2)
        cache = TestNodeCache.make_cache(store)
        rid = cache.insert(64, "x")
        pool = store.pool
        pool.clear()
        pins = [pool.new_page() for _ in range(2)]
        frames = list(pool._frames.items())
        before = pool.stats.snapshot()
        with pytest.raises(BufferPoolFullError):
            cache.get(rid)
        assert list(pool._frames.items()) == frames
        assert pool.stats == before
        for page in pins:
            pool.unpin(page)
        assert cache.get(rid) == "x"

    def test_failed_read_installs_no_frame(self):
        pagefile = FaultyPageFile(InMemoryPageFile())
        store = self.store_over(pagefile, capacity=2)
        cache = TestNodeCache.make_cache(store)
        rid = cache.insert(64, "x")
        pool = store.pool
        pool.clear()
        before = pool.stats.snapshot()
        pagefile.fail_next_reads(1)
        with pytest.raises(TransientIOError):
            cache.get(rid)
        assert not pool.is_resident(rid_page(rid))
        assert pool.stats.physical_reads == before.physical_reads
        assert cache.misses == 0
        assert cache.get(rid) == "x"  # the retry decodes the record
        assert pool.stats.physical_reads == before.physical_reads + 1
        assert cache.misses == 1

    def test_dirty_victim_runs_the_write_guard_first(self):
        log = []

        class LoggingPageFile(InMemoryPageFile):
            def read(self, page_id, into=None):
                log.append(("read", page_id))
                return super().read(page_id, into)

            def write(self, page_id, data):
                log.append(("write", page_id))
                super().write(page_id, data)

        store = self.store_over(LoggingPageFile(), capacity=1)
        cache = TestNodeCache.make_cache(store)
        rid = cache.insert(64, "x")
        other = store.allocate(2000, b"dirty")  # evicts rid's page
        victim = rid_page(other)
        store.pool.set_write_guard(lambda page_id: log.append(
            ("guard", page_id)))
        del log[:]
        assert cache.get(rid) == "x"
        assert log == [("guard", victim), ("write", victim),
                       ("read", rid_page(rid))]
        assert store.pool.stats.evictions == 2

    def test_unknown_rid_raises_key_error(self, store):
        cache = TestNodeCache.make_cache(store)
        rid = cache.insert(64, "x")
        before = store.pool.stats.snapshot()
        with pytest.raises(KeyError):
            cache.get(make_rid(rid_page(rid) + 1, 0))
        assert store.pool.stats == before

    def test_slot_out_of_range_rejected(self, store):
        cache = TestNodeCache.make_cache(store)
        rid = cache.insert(2000, "x")
        num_slots = store.size_class(2000).num_slots
        with pytest.raises(ValueError, match="slot"):
            cache.get(make_rid(rid_page(rid), num_slots))

    @pytest.mark.parametrize("record", ["leaf", "extension"])
    def test_decoded_rows_never_alias_the_frame(self, store, record):
        codec = NodeCodec(2)
        cache = NodeCache(store, codec.serialize, codec.deserialize)
        points = [DualPoint(oid, (oid + 0.5, 1.0), (2.0, oid * 3.0))
                  for oid in range(5)]
        node = (LeafNode(3, (0.0, 0.0), (8.0, 8.0), codec.pack(points))
                if record == "leaf" else LeafExtension(codec.pack(points)))
        rid = cache.insert(1000, node)
        page = store.pool._frames[rid_page(rid)]
        page.decoded.clear()
        got = cache.get(rid)
        assert page.decoded[rid] is got
        assert type(got.rows) is bytes
        rows = bytes(got.rows)
        page.data[:] = b"\xff" * len(page.data)  # in place, same buffer
        assert got.rows == rows
        assert codec.points(got.rows) == points


class TestFieldWrite:
    """:meth:`NodeCache.write_field` writes one field of a record in
    place -- a non-leaf's ``size`` -- under the same page fetch, pin,
    dirty mark and unpin as a whole-record :meth:`NodeCache.update`: the
    same IO counts, page bytes and decoded node, on a resident page and
    on a missed one."""

    @staticmethod
    def system(pagefile=None, capacity=4):
        store = RecordStore(BufferPool(
            pagefile if pagefile is not None else InMemoryPageFile(),
            capacity=capacity))
        codec = NodeCodec(2)
        cache = NodeCache(store, codec.serialize, codec.deserialize)
        nodes = [NonLeafNode(2, (0.5 * k, 1.0), (2.0, 4.0 * k),
                             [k * 3 + i if i % 3 else -1
                              for i in range(codec.fanout)],
                             [i % 2 == 0 for i in range(codec.fanout)],
                             100 + k)
                 for k in range(3)]
        rids = [cache.insert(codec.nonleaf_record_size, node)
                for node in nodes]
        return store, codec, cache, rids

    @staticmethod
    def evict(store):
        """Push every page holding a non-leaf out of the pool (dirty
        ones are written back on the way)."""
        for _ in range(store.pool.capacity):
            store.allocate(4000, b"evictor")

    @pytest.mark.parametrize("resident", [True, False])
    def test_same_io_bytes_and_decode_as_a_whole_write(self, resident):
        sides = []
        for kind in ("update", "write_field"):
            store, codec, cache, rids = self.system()
            rid = rids[1]
            node = cache.get(rid)
            if not resident:
                self.evict(store)
                assert not store.pool.is_resident(rid_page(rid))
            before = store.pool.stats.snapshot()
            node.size += 7
            if kind == "update":
                cache.update(rid, node)
            else:
                cache.write_field(rid, node, codec.size_field)
            page = store.pool._frames[rid_page(rid)]
            assert page.decoded[rid] is node
            assert codec.deserialize(store.read(rid)) == node
            assert cache.get(rid) is node
            sides.append((store.pool.stats.diff(before), page.dirty,
                          bytes(page.data)))
        assert sides[0] == sides[1]

    def test_grouped_field_writes_equal_whole_writes(self):
        sides = []
        for grouped in (False, True):
            store, codec, cache, rids = self.system()
            nodes = [cache.get(rid) for rid in rids]
            before = store.pool.stats.snapshot()
            for node in nodes:
                node.size -= 1
            if grouped:
                cache.update_many([(rids[0], nodes[0], codec.size_field),
                                   (rids[1], nodes[1]),
                                   (rids[2], nodes[2], codec.size_field)])
            else:
                cache.update_many(zip(rids, nodes))
            for rid, node in zip(rids, nodes):
                assert cache.get(rid) is node
                assert codec.deserialize(store.read(rid)) == node
            sides.append((store.pool.stats.diff(before),
                          [bytes(page.data)
                           for page in store.pool._frames.values()]))
        assert sides[0] == sides[1]

    def test_dirty_victim_is_written_back_guard_first(self):
        log = []

        class LoggingPageFile(InMemoryPageFile):
            def read(self, page_id, into=None):
                log.append(("read", page_id))
                return super().read(page_id, into)

            def write(self, page_id, data):
                log.append(("write", page_id))
                super().write(page_id, data)

        store, codec, cache, rids = self.system(LoggingPageFile(),
                                                capacity=1)
        node = cache.get(rids[0])
        other = store.allocate(2000, b"dirty")  # evicts the non-leaves
        victim = rid_page(other)
        store.pool.set_write_guard(lambda page_id: log.append(
            ("guard", page_id)))
        del log[:]
        node.size += 1
        cache.write_field(rids[0], node, codec.size_field)
        assert log == [("guard", victim), ("write", victim),
                       ("read", rid_page(rids[0]))]
        assert codec.deserialize(store.read(rids[0])) == node

    def test_failed_read_applies_no_field(self):
        pagefile = FaultyPageFile(InMemoryPageFile())
        store, codec, cache, rids = self.system(pagefile, capacity=2)
        rid = rids[2]
        node = cache.get(rid)
        store.pool.clear()
        image = bytes(pagefile.read(rid_page(rid)))
        before = store.pool.stats.snapshot()
        node.size += 5
        pagefile.fail_next_reads(1)
        with pytest.raises(TransientIOError):
            cache.write_field(rid, node, codec.size_field)
        assert not store.pool.is_resident(rid_page(rid))
        assert store.pool.stats == before
        assert bytes(pagefile.read(rid_page(rid))) == image
        cache.write_field(rid, node, codec.size_field)  # the retry
        assert codec.deserialize(store.read(rid)) == node
        store.pool.clear()
        assert codec.deserialize(store.read(rid)).size == node.size

    def test_field_must_fit_its_record(self, store):
        rid = store.allocate(64, b"x" * 64)
        with pytest.raises(ValueError):
            store.write(rid, b"\x00" * 4, offset=61)
        with pytest.raises(ValueError):
            store.write(rid, b"\x00", offset=-1)
        assert store.read(rid) == b"x" * 64


def _pad(value: str) -> bytes:
    # Records keep undefined trailing bytes, so every payload fills the
    # same 16 bytes.
    return value.encode().ljust(16, b"\x00")


def _unpad(buf, offset: int) -> str:
    return bytes(buf[offset: offset + 16]).rstrip(b"\x00").decode()


class DecodeEveryGet(NodeCache):
    """Reference cache: ``get`` decodes the record's bytes every time,
    through the same single page fetch."""

    def get(self, rid):
        self.misses += 1
        return self._deserialize(self.store.read(rid), 0)


class TestFrameHeldCacheDifferential:
    """Random operation sequences over a 2-4-page pool, run against the
    frame-held cache and against a reference that decodes on every get.
    Both see the same page traffic, so their pool counters must agree
    after every step, and every get must return what the record's bytes
    decode to."""

    SIZES = (64, 1500, 2000)
    VALUES = st.text(alphabet="abcdefgh", min_size=1, max_size=8)

    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(min_value=2, max_value=4), data=st.data())
    def test_matches_decode_every_get(self, capacity, data):
        systems = []
        for cache_cls in (NodeCache, DecodeEveryGet):
            store = make_store(capacity=capacity)
            systems.append((store, cache_cls(store, serialize=_pad,
                                             deserialize=_unpad)))
        store = systems[0][0]
        live = {}
        for _ in range(data.draw(st.integers(1, 60), label="steps")):
            ops = ["insert"]
            if live:
                ops += ["get", "get", "update", "update_many", "free",
                        "raw_write", "raw_free_realloc"]
            op = data.draw(st.sampled_from(ops), label="op")
            if op == "insert":
                size = data.draw(st.sampled_from(self.SIZES), label="size")
                value = data.draw(self.VALUES, label="value")
                rids = {c.insert(size, value) for _, c in systems}
                assert len(rids) == 1
                live[rids.pop()] = value
                continue
            rid = data.draw(st.sampled_from(sorted(live)), label="rid")
            if op == "get":
                for s, c in systems:
                    got = c.get(rid)
                    assert got == _unpad(s.read(rid), 0) == live[rid]
            elif op == "update":
                live[rid] = data.draw(self.VALUES, label="value")
                for _, c in systems:
                    c.update(rid, live[rid])
            elif op == "update_many":
                rids = data.draw(st.lists(st.sampled_from(sorted(live)),
                                          min_size=1, unique=True),
                                 label="rids")
                items = [(r, data.draw(self.VALUES, label="value"))
                         for r in rids]
                live.update(items)
                for _, c in systems:
                    c.update_many(items)
            elif op == "free":
                del live[rid]
                for _, c in systems:
                    c.free(rid)
            elif op == "raw_write":
                live[rid] = data.draw(self.VALUES, label="value")
                for s, _ in systems:
                    s.write(rid, _pad(live[rid]))
            else:  # raw free, then reallocate (usually the same slot)
                size = store.record_size_of(rid)
                value = data.draw(self.VALUES, label="value")
                del live[rid]
                new = set()
                for s, _ in systems:
                    s.free(rid)
                    new.add(s.allocate(size, _pad(value)))
                assert len(new) == 1
                live[new.pop()] = value
            counters = [s.pool.stats.counters() for s, _ in systems]
            assert counters[0] == counters[1]
            # Decoded records live on their frame and always match the
            # record's current bytes.
            for page in store.pool._frames.values():
                for decoded_rid, obj in page.decoded.items():
                    assert rid_page(decoded_rid) == page.page_id
                    assert obj == live[decoded_rid]
        for rid, value in live.items():
            for _, c in systems:
                assert c.get(rid) == value
        reference_store = systems[1][0]
        assert store.pool.stats.counters() == \
            reference_store.pool.stats.counters()
