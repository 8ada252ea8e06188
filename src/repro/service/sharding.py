"""Sharded STRIPES: N independent sub-indexes behind one facade.

:class:`ShardedStripes` partitions moving objects across ``n_shards``
independent :class:`repro.core.stripes.StripesIndex` instances -- each
with its own pagefile and buffer pool -- under a pluggable
:class:`ShardPolicy`.  The decomposition follows the velocity/speed
partitioning line of work (Nguyen et al., *Boosting Moving Object
Indexing through Velocity Partitioning*; Xu et al., *Speed Partitioning
for Indexing Moving Objects*), which split a moving-object index into
per-partition sub-indexes to shrink each partition's dead space.  Here
every shard is built with the same global :class:`StripesConfig`, so a
shard's dual space is as large as the unpartitioned index's; what the
split buys is private storage, so writers on one shard never block
readers on another.

Lock model (the single-writer-per-shard invariant)
--------------------------------------------------
Each shard carries

* a reader/writer lock -- writes (insert/delete/update/rotation) take it
  exclusively, queries take it shared;
* a *tree mutex* serializing tree-descent reads, because a descent
  mutates shared state (buffer-pool LRU order and pin counts, the
  decoded records on frames, node-cache hit counters) even though it is
  logically a read.

Queries therefore run concurrently across shards and -- on the columnar
fast path, which touches no tree state -- concurrently *within* a shard.
The underlying ``BufferPool``/``RecordStore``/``NodeCache`` stay
internally unlocked (see their module docstrings); this facade is what
upholds their discipline.

Query fast path
---------------
Below :attr:`ShardedStripes.scan_threshold` live entries per shard,
query batches are evaluated by the cross-query vectorized flat engine
(:mod:`repro.service.engine`) against the shard's columnar mirror -- one
``(B, N)`` broadcast per dual plane instead of B tree descents.  Above
the threshold each shard's ``StripesIndex.query_batch`` runs one tree
descent per query (the tree's pruning wins once N is large).  Both
paths produce the same id sets as ``StripesIndex.query`` on the same
entries.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.stripes import StripesConfig, StripesIndex, _net_update_runs
from repro.query.types import MovingObjectState, PredictiveQuery
from repro.service.engine import CompiledBatch, ShardMirror, evaluate_batch
from repro.storage.buffer_pool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.faults import TransientIOError
from repro.storage.pagefile import InMemoryPageFile, PageFile

__all__ = ["ShardPolicy", "HashShardPolicy", "VelocityBandShardPolicy",
           "RWLock", "ShardedStripes", "ShardTransientError"]


class ShardTransientError(RuntimeError):
    """A shard's storage raised a retryable IO error mid-query.

    Carries the shard id so the service layer can retry -- and, when
    retries run out, shed -- exactly the failing shard while every other
    shard keeps serving.
    """

    def __init__(self, sid: int, cause: TransientIOError):
        super().__init__(f"shard {sid}: {cause}")
        self.sid = sid
        self.cause = cause

#: Fibonacci-hash multiplier (Knuth): spreads consecutive oids uniformly.
_HASH_MULTIPLIER = 2654435761


class ShardPolicy:
    """Maps a moving-object state to a shard id in ``[0, n_shards)``.

    Policies must be *pure* (same state -> same shard, forever): an
    update routes its old entry's delete by re-applying the policy to the
    old state, so a policy that changed its mind would strand entries.
    """

    def shard_of(self, obj: MovingObjectState, n_shards: int) -> int:
        raise NotImplementedError


class HashShardPolicy(ShardPolicy):
    """Uniform hash of the object id (the default)."""

    def shard_of(self, obj: MovingObjectState, n_shards: int) -> int:
        return ((obj.oid * _HASH_MULTIPLIER) & 0xFFFFFFFF) % n_shards


class VelocityBandShardPolicy(ShardPolicy):
    """Partition by current speed into equal-width bands.

    Objects of similar speed land together.  Every shard is still built
    with the facade's global config, so its dual-space velocity extent
    -- and the dead space a query region sweeps -- is the unpartitioned
    index's, not the per-band fraction the velocity/speed-partitioning
    papers exploit; a shard only holds fewer objects.  ``max_speed`` is
    the workload's speed bound (``|v| <= max_speed``); faster objects
    clamp into the top band.  Note the shard is a function of the
    *state*: an object whose update crosses a band boundary migrates
    (its update becomes a delete on the old band's shard and an insert
    on the new one's), which the facade handles by routing the two
    halves independently.
    """

    def __init__(self, max_speed: float):
        if max_speed <= 0:
            raise ValueError(f"max_speed must be positive, got {max_speed}")
        self.max_speed = float(max_speed)

    def shard_of(self, obj: MovingObjectState, n_shards: int) -> int:
        speed = math.sqrt(sum(v * v for v in obj.vel))
        band = int(speed / self.max_speed * n_shards)
        return min(band, n_shards - 1)


class RWLock:
    """A writer-preference reader/writer lock.

    Readers share; a writer excludes everyone.  Arriving writers block
    new readers, so a steady query stream cannot starve updates.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class _Shard:
    """One partition: a private index + pool, its mirror, and its locks."""

    __slots__ = ("sid", "index", "mirror", "lock", "tree_mutex")

    def __init__(self, sid: int, index: StripesIndex):
        self.sid = sid
        self.index = index
        self.mirror = ShardMirror(index.config)
        self.lock = RWLock()
        self.tree_mutex = threading.Lock()


#: Per-shard live-entry count above which query batches fall back from
#: the flat columnar engine to the tree descent.  Crossover measured on
#: the BENCH_PR2 workload shape: the O(B x N) flat evaluation beats B
#: pruned descents up to high-thousands of entries per shard.
DEFAULT_SCAN_THRESHOLD = 8192


class ShardedStripes:
    """Facade over ``n_shards`` independent STRIPES indexes.

    Thread-safe under the per-shard lock model described in the module
    docstring.  Query results carry the same id *sets* as a single
    :class:`StripesIndex` fed the same operations; ordering within a
    result is unspecified.
    """

    def __init__(self, config: StripesConfig, n_shards: int = 4,
                 policy: Optional[ShardPolicy] = None,
                 pool_pages: int = DEFAULT_POOL_PAGES,
                 scan_threshold: int = DEFAULT_SCAN_THRESHOLD,
                 refine: bool = True,
                 pagefile_factory: Optional[
                     Callable[[int], PageFile]] = None):
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.config = config
        self.n_shards = n_shards
        self.policy = policy if policy is not None else HashShardPolicy()
        self.scan_threshold = scan_threshold
        self.refine = refine
        if pagefile_factory is None:
            pagefile_factory = lambda sid: InMemoryPageFile()  # noqa: E731
        per_shard_pages = max(16, pool_pages // n_shards)
        self._shards = [
            _Shard(sid, StripesIndex(
                config,
                BufferPool(pagefile_factory(sid),
                           capacity=per_shard_pages)))
            for sid in range(n_shards)
        ]
        # Shards shed after persistent storage failures: skipped by
        # queries until restore_shard() brings them back.
        self._degraded: set = set()
        self._degraded_lock = threading.Lock()
        # Newest lifetime window any shard has seen; advancing it rotates
        # *every* shard so a write-quiet shard still expires its entries
        # exactly when a serial single index would.
        self._max_window = -1
        self._window_lock = threading.Lock()
        self._registry = None
        self._shard_batch_hists: List = []

    # ---------------------------------------------------------------- #
    # Introspection
    # ---------------------------------------------------------------- #

    @property
    def shards(self) -> List[_Shard]:
        """The shard records (tests and metrics reach in; callers must
        honor the lock model)."""
        return self._shards

    def __len__(self) -> int:
        return sum(len(s.index) for s in self._shards)

    def shard_sizes(self) -> List[int]:
        """Live entries per shard."""
        return [len(s.index) for s in self._shards]

    def pages_in_use(self) -> int:
        """Pages holding records across all shards."""
        return sum(s.index.pages_in_use() for s in self._shards)

    # ---------------------------------------------------------------- #
    # Degraded-shard bookkeeping
    # ---------------------------------------------------------------- #

    def degraded_shards(self) -> frozenset:
        """Shard ids currently shed from query fan-out."""
        with self._degraded_lock:
            return frozenset(self._degraded)

    def mark_degraded(self, sid: int) -> None:
        """Shed shard ``sid``: queries skip it (returning the partial
        answer from the healthy shards) until :meth:`restore_shard`.
        The shard's index is left untouched -- writes may still target
        it, and restoring loses nothing."""
        if not 0 <= sid < self.n_shards:
            raise ValueError(f"shard id {sid} out of range")
        with self._degraded_lock:
            self._degraded.add(sid)

    def restore_shard(self, sid: int) -> None:
        """Bring a shed shard back into the query fan-out (no-op when it
        was not degraded)."""
        with self._degraded_lock:
            self._degraded.discard(sid)

    def __repr__(self) -> str:
        return (f"ShardedStripes(n_shards={self.n_shards}, "
                f"policy={type(self.policy).__name__}, "
                f"entries={self.shard_sizes()})")

    # ---------------------------------------------------------------- #
    # Window coordination
    # ---------------------------------------------------------------- #

    def _advance_windows(self, t: float) -> None:
        """Propagate a global window advance to every shard.

        A single index rotates when an update's window arrives; with
        shards, the update only reaches *one* partition, so the facade
        broadcasts the advance.  Idempotent and cheap when nothing moved.
        """
        window = int(t // self.config.lifetime)
        with self._window_lock:
            if window <= self._max_window:
                return
            self._max_window = window
        for shard in self._shards:
            with shard.lock.write():
                shard.index.rotate_to(window)
                shard.mirror.sync_windows(shard.index.live_windows)

    # ---------------------------------------------------------------- #
    # Writes
    # ---------------------------------------------------------------- #

    def _shard_for(self, obj: MovingObjectState) -> _Shard:
        return self._shards[self.policy.shard_of(obj, self.n_shards)]

    def _insert_locked(self, shard: _Shard, obj: MovingObjectState) -> None:
        index = shard.index
        window = int(obj.t // self.config.lifetime)
        index.insert(obj)
        shard.mirror.note_insert(
            window, shard.mirror.space_for(window).to_dual(obj))
        shard.mirror.sync_windows(index.live_windows)

    def _delete_locked(self, shard: _Shard, obj: MovingObjectState) -> bool:
        removed = shard.index.delete(obj)
        if removed:
            window = int(obj.t // self.config.lifetime)
            shard.mirror.note_delete(
                window, shard.mirror.space_for(window).to_dual(obj))
        return removed

    def insert(self, obj: MovingObjectState) -> None:
        """Insert a new predicted trajectory into its shard."""
        self._advance_windows(obj.t)
        shard = self._shard_for(obj)
        with shard.lock.write():
            self._insert_locked(shard, obj)

    def insert_batch(self, objs: Sequence[MovingObjectState]) -> int:
        """Insert many trajectories; returns the number inserted.

        Batched twin of per-object :meth:`insert`: the global window
        advance is applied once for the batch's newest timestamp, objects
        are grouped by shard, and each shard applies its whole group under
        a single exclusive-lock acquisition through
        :meth:`StripesIndex.insert_batch`, with the columnar mirror
        updated one window group at a time.  Query-equivalent to the
        sequential loop for timestamp-ordered batches.
        """
        objs = list(objs)
        if not objs:
            return 0
        self._advance_windows(max(obj.t for obj in objs))
        by_shard: Dict[int, List[MovingObjectState]] = {}
        for obj in objs:
            by_shard.setdefault(
                self.policy.shard_of(obj, self.n_shards), []).append(obj)
        for sid, group in by_shard.items():
            shard = self._shards[sid]
            with shard.lock.write():
                self._insert_batch_locked(shard, group)
        return len(objs)

    def _insert_batch_locked(self, shard: _Shard,
                             group: List[MovingObjectState]) -> None:
        index = shard.index
        index.insert_batch(group)
        lifetime = self.config.lifetime
        by_window: Dict[int, List[MovingObjectState]] = {}
        for obj in group:
            by_window.setdefault(int(obj.t // lifetime), []).append(obj)
        mirror = shard.mirror
        for window in sorted(by_window):
            mirror.note_insert_batch(
                window,
                mirror.space_for(window)
                .to_dual_batch(by_window[window]).points())
        # Drops mirror windows the group itself rotated out (a batch can
        # span the retiring edge).
        mirror.sync_windows(index.live_windows)

    def _delete_batch_locked(self, shard: _Shard,
                             group: List[MovingObjectState]) -> int:
        flags = shard.index.delete_batch(group)
        lifetime = self.config.lifetime
        by_window: Dict[int, List[MovingObjectState]] = {}
        for obj, ok in zip(group, flags):
            if ok:
                by_window.setdefault(int(obj.t // lifetime), []).append(obj)
        mirror = shard.mirror
        for window, removed in by_window.items():
            mirror.note_delete_batch(
                window,
                mirror.space_for(window).to_dual_batch(removed).points())
        return sum(flags)

    def delete_batch(self, objs: Sequence[MovingObjectState]) -> int:
        """Remove many entries; returns how many were actually removed.
        Objects are grouped by shard and each shard's group runs under
        one exclusive-lock acquisition."""
        objs = list(objs)
        if not objs:
            return 0
        by_shard: Dict[int, List[MovingObjectState]] = {}
        for obj in objs:
            by_shard.setdefault(
                self.policy.shard_of(obj, self.n_shards), []).append(obj)
        removed = 0
        for sid, group in by_shard.items():
            shard = self._shards[sid]
            with shard.lock.write():
                removed += self._delete_batch_locked(shard, group)
        return removed

    def update_batch(self, pairs: Sequence[Tuple[
            Optional[MovingObjectState], MovingObjectState]]) -> int:
        """Apply many ``(old, new)`` updates; returns removals observed.

        The batch is cut into *conflict-free runs* with exact update
        chains netted in place
        (:func:`repro.core.stripes._net_update_runs`) and each run is
        applied in order: window advance once for the run's newest
        timestamp, then every shard's deletes (batched, under that
        shard's lock), then every shard's inserts -- the cross-shard
        generalisation of delete-before-insert.  For timestamp-ordered
        batches the surviving entries (and therefore every query answer)
        match sequential :meth:`update` replay; the removed *count* can
        undercount pairs whose old entry sat in a window the batch
        itself rotated out.
        """
        lifetime = self.config.lifetime
        removed = 0
        for run, credit in _net_update_runs(
                pairs, lambda t: int(t // lifetime), len(self.config.vmax)):
            removed += self._apply_update_run(run) + credit
        return removed

    def _apply_update_run(self, pairs: List[Tuple[
            Optional[MovingObjectState], MovingObjectState, int]]) -> int:
        """Apply one conflict-free run of ``(old, new, delete_window)``
        triples (each object id at most once); returns removals
        observed.  The delete window is ignored here: the facade
        advances every shard to the run's newest timestamp up front (one
        lock round per shard), which is where the documented
        removed-count undercount comes from."""
        if not pairs:
            return 0
        self._advance_windows(max(new.t for _, new, _ in pairs))
        deletes: Dict[int, List[MovingObjectState]] = {}
        inserts: Dict[int, List[MovingObjectState]] = {}
        for old, new, _ in pairs:
            if old is not None:
                deletes.setdefault(
                    self.policy.shard_of(old, self.n_shards), []).append(old)
            inserts.setdefault(
                self.policy.shard_of(new, self.n_shards), []).append(new)
        removed = 0
        for sid, group in deletes.items():
            shard = self._shards[sid]
            with shard.lock.write():
                removed += self._delete_batch_locked(shard, group)
        for sid, group in inserts.items():
            shard = self._shards[sid]
            with shard.lock.write():
                self._insert_batch_locked(shard, group)
        return removed

    def delete(self, obj: MovingObjectState) -> bool:
        """Remove the entry previously inserted for ``obj``; False when
        expired or absent."""
        shard = self._shard_for(obj)
        with shard.lock.write():
            return self._delete_locked(shard, obj)

    def update(self, old: Optional[MovingObjectState],
               new: MovingObjectState) -> bool:
        """Delete ``old`` (if any, and not expired) and insert ``new``.

        Matches ``StripesIndex.update`` semantics: the window rotation
        rides on the *arrival* of the update, before the old entry is
        looked up.  When the policy maps old and new to different shards
        (a velocity-band migration), the two halves run under their own
        shards' locks.
        """
        self._advance_windows(new.t)
        new_shard = self._shard_for(new)
        old_shard = self._shard_for(old) if old is not None else None
        if old_shard is None or old_shard is new_shard:
            with new_shard.lock.write():
                removed = (self._delete_locked(new_shard, old)
                           if old is not None else False)
                self._insert_locked(new_shard, new)
            return removed
        with old_shard.lock.write():
            removed = self._delete_locked(old_shard, old)
        with new_shard.lock.write():
            self._insert_locked(new_shard, new)
        return removed

    # ---------------------------------------------------------------- #
    # Queries
    # ---------------------------------------------------------------- #

    def query(self, query: PredictiveQuery) -> List[int]:
        """Object ids matching ``query`` across all shards."""
        return self.query_batch([query])[0]

    def query_batch(self, queries: Sequence[PredictiveQuery]) \
            -> List[List[int]]:
        """Evaluate a batch of queries; ``result[k]`` corresponds to
        ``queries[k]`` (ids unordered).

        This is the fan-out + merge the service workers call: per shard,
        either the cross-query flat engine (small shard) or the tree
        batch descent (large shard), under the shard's shared lock.
        """
        if not queries:
            return []
        compiled = CompiledBatch(queries, self.config.d, refine=self.refine)
        results: List[List[int]] = [[] for _ in queries]
        use_clock = bool(self._shard_batch_hists)
        # Flat-path shards only contribute column *snapshots* under their
        # read lock; the evaluation itself runs lock-free afterwards
        # (rebuilds replace the arrays wholesale, so a collected ref stays
        # a consistent snapshot).  Snapshots are evaluated per
        # (shard, window) rather than concatenated: the narrower (B, N)
        # temporaries stay cache-resident, which measures faster than
        # fewer-but-wider kernel calls on this workload.  Each entry is
        # ``(sid, snapshots, seconds spent under the lock)``; the shard's
        # batch time is observed once its evaluation is done.
        flat: List[tuple] = []
        degraded = self.degraded_shards()
        for shard in self._shards:
            if shard.sid in degraded:
                continue
            if use_clock:
                t0 = time.perf_counter()
            snapshots = None
            try:
                with shard.lock.read():
                    if shard.mirror.total_entries <= self.scan_threshold:
                        snapshots = shard.mirror.window_columns()
                    else:
                        # Tree descents mutate pool/cache state: they stay
                        # under the read lock plus the tree mutex.
                        with shard.tree_mutex:
                            shard_results = shard.index.query_batch(
                                queries, refine=self.refine)
                        for out, part in zip(results, shard_results):
                            out.extend(part)
            except TransientIOError as exc:
                # Tag the failure with its shard so the caller can retry
                # or shed precisely.  Results so far are NOT returned:
                # this batch attempt is void.
                raise ShardTransientError(shard.sid, exc) from exc
            elapsed = time.perf_counter() - t0 if use_clock else 0.0
            if snapshots is not None:
                flat.append((shard.sid, snapshots, elapsed))
            elif use_clock:
                self._shard_batch_hists[shard.sid].observe(elapsed)
        for sid, snapshots, elapsed in flat:
            if use_clock:
                t0 = time.perf_counter()
            for space, oids, vs, ps in snapshots:
                evaluate_batch(compiled, space, oids, vs, ps, results)
            if use_clock:
                self._shard_batch_hists[sid].observe(
                    elapsed + time.perf_counter() - t0)
        return results

    # ---------------------------------------------------------------- #
    # Observability
    # ---------------------------------------------------------------- #

    def attach_metrics(self, registry, prefix: str = "sharded") -> None:
        """Export per-shard gauges and batch-evaluation histograms into
        ``registry`` (a :class:`repro.obs.metrics.MetricsRegistry`)."""
        from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_S

        self._registry = registry
        self._shard_batch_hists = [
            registry.histogram(f"{prefix}_shard{shard.sid}_batch_seconds",
                               buckets=DEFAULT_LATENCY_BUCKETS_S,
                               help="per-shard batch evaluation latency")
            for shard in self._shards
        ]
        entry_gauges = [
            registry.gauge(f"{prefix}_shard{shard.sid}_entries",
                           help="live entries on this shard")
            for shard in self._shards
        ]
        pages = registry.gauge(f"{prefix}_pages_in_use",
                               help="record pages across all shards")
        shards_gauge = registry.gauge(f"{prefix}_shards", help="shard count")
        degraded_gauge = registry.gauge(
            f"{prefix}_degraded_shards",
            help="shards currently shed from query fan-out")

        def collect() -> None:
            for gauge, shard in zip(entry_gauges, self._shards):
                gauge.set(len(shard.index))
            pages.set(self.pages_in_use())
            shards_gauge.set(self.n_shards)
            degraded_gauge.set(len(self.degraded_shards()))

        registry.register_collector(collect)
