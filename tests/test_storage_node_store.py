"""Unit and property tests for the slotted record store and node cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer_pool import BufferPool
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
                         deserialize=lambda b: b.rstrip(b"\x00").decode())

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


def _pad(value: str) -> bytes:
    # Records keep undefined trailing bytes, so every payload fills the
    # same 16 bytes.
    return value.encode().ljust(16, b"\x00")


def _unpad(raw: bytes) -> str:
    return raw[:16].rstrip(b"\x00").decode()


class DecodeEveryGet(NodeCache):
    """Reference cache: ``get`` decodes the record's bytes every time,
    through the same single page fetch."""

    def get(self, rid):
        self.misses += 1
        return self._deserialize(self.store.read(rid))


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
                    assert got == _unpad(s.read(rid)) == live[rid]
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
