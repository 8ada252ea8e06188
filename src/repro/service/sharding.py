"""Sharded STRIPES: N independent sub-indexes behind one facade.

:class:`ShardedStripes` partitions moving objects across ``n_shards``
independent :class:`repro.core.stripes.StripesIndex` instances -- each
with its own pagefile and buffer pool -- by a hash of the object id
(:func:`shard_of`).  Every shard is built with the same global
:class:`StripesConfig`, so a shard's dual space is as large as the
unpartitioned index's; what the split buys is private storage, so
writers on one shard never block readers on another.  (Partitioning by
speed instead, as the velocity/speed-partitioning papers do, read more
pages per query here even with a velocity bound per band; see
EXPERIMENTS.md.)

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

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.stripes import (
    StripesConfig,
    StripesIndex,
    _dual_group,
    _net_update_runs,
)
from repro.query.types import MovingObjectState, PredictiveQuery
from repro.service.engine import CompiledBatch, ShardMirror, evaluate_batch
from repro.storage.buffer_pool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.faults import TransientIOError
from repro.storage.pagefile import InMemoryPageFile, PageFile

__all__ = ["shard_of", "RWLock", "ShardedStripes", "ShardTransientError"]


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


def shard_of(oid: int, n_shards: int) -> int:
    """The shard in ``[0, n_shards)`` that holds object ``oid``.

    A pure function of the id: an update's old and new states -- one
    object -- always land on the same shard, and an entry is deleted
    from the shard it was inserted into.
    """
    return ((oid * _HASH_MULTIPLIER) & 0xFFFFFFFF) % n_shards


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
#: the flat columnar engine to the tree descent.  The engine table in
#: ROADMAP.md (4 hash shards, batches of 16) has the O(B x N) flat
#: evaluation ahead of B pruned descents at 500 and 5,000 entries per
#: shard (7,146 vs 1,662 and 1,450 vs 491 queries/s).
DEFAULT_SCAN_THRESHOLD = 8192


class ShardedStripes:
    """Facade over ``n_shards`` independent STRIPES indexes.

    Thread-safe under the per-shard lock model described in the module
    docstring.  Query results carry the same id *sets* as a single
    :class:`StripesIndex` fed the same operations; ordering within a
    result is unspecified.
    """

    def __init__(self, config: StripesConfig, n_shards: int = 4,
                 pool_pages: int = DEFAULT_POOL_PAGES,
                 scan_threshold: int = DEFAULT_SCAN_THRESHOLD,
                 refine: bool = True,
                 pagefile_factory: Optional[
                     Callable[[int], PageFile]] = None):
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.config = config
        self.n_shards = n_shards
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

    def insert(self, obj: MovingObjectState) -> None:
        """Insert a new predicted trajectory into its shard: a batch of
        one."""
        self.insert_batch([obj])

    def insert_batch(self, objs: Sequence[MovingObjectState]) -> int:
        """Insert many trajectories; returns the number inserted.

        The global window advance is applied once for the batch's newest
        timestamp, objects are grouped by shard, and each shard applies
        its whole group under a single exclusive-lock acquisition through
        :meth:`StripesIndex.insert_batch`, with the columnar mirror
        updated one window group at a time.  Query-equivalent to
        inserting the states one at a time for timestamp-ordered batches.
        """
        objs = list(objs)
        if not objs:
            return 0
        self._advance_windows(max(obj.t for obj in objs))
        by_shard: Dict[int, List[MovingObjectState]] = {}
        for obj in objs:
            by_shard.setdefault(
                shard_of(obj.oid, self.n_shards), []).append(obj)
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
                _dual_group(mirror.space_for(window), by_window[window])[0])
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
            if not mirror.note_delete_batch(
                    window, _dual_group(mirror.space_for(window), removed)[0]):
                mirror.reload(window,
                              shard.index._trees[window].all_entries())
        return sum(flags)

    def delete(self, obj: MovingObjectState) -> bool:
        """Remove the entry previously inserted for ``obj``: a batch of
        one.  False when expired or absent."""
        return self.delete_batch([obj]) > 0

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
                shard_of(obj.oid, self.n_shards), []).append(obj)
        removed = 0
        for sid, group in by_shard.items():
            shard = self._shards[sid]
            with shard.lock.write():
                removed += self._delete_batch_locked(shard, group)
        return removed

    def update(self, old: Optional[MovingObjectState],
               new: MovingObjectState) -> bool:
        """Delete ``old`` (if any, and not expired) and insert ``new``: a
        batch of one.

        Matches ``StripesIndex.update``: the window rotation rides on the
        *arrival* of the update, before the old entry is looked up.
        ``old`` and ``new`` share a shard, and one lock acquisition,
        unless their ids differ; then the delete runs under the old
        shard's lock and the insert under the new shard's.
        """
        return self.update_batch([(old, new)]) > 0

    def update_batch(self, pairs: Sequence[Tuple[
            Optional[MovingObjectState], MovingObjectState]]) -> int:
        """Apply many ``(old, new)`` updates; returns removals observed.

        The batch is cut into *conflict-free runs* with exact update
        chains netted in place
        (:func:`repro.core.stripes._net_update_runs`) and each run is
        applied in order: window advance once for the run's newest
        timestamp, then, shard by shard under one exclusive-lock
        acquisition each, that shard's deletes and then its inserts
        (shards share no storage, so the order across shards changes no
        shard's state).  For timestamp-ordered
        batches the surviving entries (and therefore every query answer)
        match applying the pairs one at a time; the removed *count* can
        undercount pairs whose old entry sat in a window the batch
        itself rotated out.
        """
        lifetime = self.config.lifetime
        removed = 0
        for run, credit in _net_update_runs(
                pairs, lambda t: int(t // lifetime), len(self.config.vmax)):
            removed += self._apply_update_run(run) + credit
        return removed

    def _apply_update_run(self, pairs: List[List]) -> int:
        """Apply one conflict-free run of ``[old, new, delete_window]``
        triples (each object id at most once); returns removals
        observed.  The delete window is ignored here: the facade
        advances every shard to the run's newest timestamp up front (one
        lock round per shard), which is where the documented
        removed-count undercount comes from."""
        if not pairs:
            return 0
        self._advance_windows(max(new.t for _, new, _ in pairs))
        # shard id -> (old states to delete, new states to insert)
        by_shard: Dict[int, Tuple[List[MovingObjectState],
                                  List[MovingObjectState]]] = \
            defaultdict(lambda: ([], []))
        for old, new, _ in pairs:
            if old is not None:
                by_shard[shard_of(old.oid, self.n_shards)][0].append(old)
            by_shard[shard_of(new.oid, self.n_shards)][1].append(new)
        removed = 0
        for sid, (olds, news) in by_shard.items():
            shard = self._shards[sid]
            with shard.lock.write():
                if olds:
                    removed += self._delete_batch_locked(shard, olds)
                if news:
                    self._insert_batch_locked(shard, news)
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
