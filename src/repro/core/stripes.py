"""The STRIPES index: a two-index, dual-transformed quadtree front end.

:class:`StripesIndex` is the public face of the reproduction's core
contribution.  It implements the full protocol of Section 4:

* updates are routed by timestamp to one of two rotating sub-indexes with
  reference times ``k*L`` and ``(k+1)*L`` (Section 4.1) -- when updates
  reach a new lifetime window, the stale sub-index is destroyed and its
  pages recycled;
* an update is a delete of the old entry followed by an insert of the new
  one (Section 4.5); if the old entry has already expired with its
  sub-index, the update degenerates to a plain insert (Section 4.4);
* queries are evaluated against every live sub-index and the result sets
  are concatenated (each object lives in exactly one sub-index);
* every single-object operation is a batch of one: :meth:`insert`,
  :meth:`delete`, :meth:`update` and :meth:`query` run
  :meth:`insert_batch`, :meth:`delete_batch`, :meth:`update_batch` and
  :meth:`query_batch`, so each protocol has one implementation.

Example::

    from repro import StripesConfig, StripesIndex, MovingObjectState
    from repro.query import TimeSliceQuery

    index = StripesIndex(StripesConfig(vmax=(3.0, 3.0),
                                       pmax=(1000.0, 1000.0),
                                       lifetime=120.0))
    index.insert(MovingObjectState(1, pos=(10.0, 20.0),
                                   vel=(1.0, -0.5), t=0.0))
    hits = index.query(TimeSliceQuery((0.0, 0.0), (50.0, 50.0), t=30.0))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dual import DualSpace
from repro.core.quadtree import (
    WRITE_GROUP_MIN,
    DualQuadTree,
    QuadTreeConfig,
    QuadTreeCounters,
    QuadTreeStats,
)
from repro.core.query_region import build_query_regions
from repro.obs.explain import QueryExplain, SubIndexExplain
from repro.obs.tracer import DescentTrace, Tracer
from repro.query.predicates import MovingQueryEvaluator
from repro.query.types import MovingObjectState, PredictiveQuery
from repro.storage.buffer_pool import BufferPool
from repro.storage.node_store import RecordStore
from repro.storage.pagefile import InMemoryPageFile


@dataclass(frozen=True)
class StripesConfig:
    """Space bounds and index parameters (Table 1).

    ``vmax``/``pmax`` bound the native space per dimension, ``lifetime`` is
    the index lifetime ``L``.  ``float32`` selects the paper's 4-byte
    coordinate layout.  ``quadtree`` tunes the underlying PR quadtree.
    """

    vmax: Tuple[float, ...]
    pmax: Tuple[float, ...]
    lifetime: float
    float32: bool = False
    quadtree: QuadTreeConfig = field(default_factory=QuadTreeConfig)

    @property
    def d(self) -> int:
        return len(self.vmax)


def _refine(space: DualSpace, evaluator: MovingQueryEvaluator,
            oids: np.ndarray, vs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Object ids of the dual-space candidate columns that satisfy the
    exact common-instant predicate.

    Each candidate's native motion is recovered from its dual
    coordinates (velocity ``v - vmax``, position at the sub-index's
    reference time) and tested with
    :meth:`MovingQueryEvaluator.matches_batch`.
    """
    vmax = np.array(space.vmax, dtype=np.float64)
    pvs = vs - vmax
    p0s = ps - pvs * space.t_ref - vmax * space.lifetime
    return oids[evaluator.matches_batch(p0s, pvs)]


def _dual_group(space: DualSpace, group: List[MovingObjectState]) -> Tuple:
    """``(points, vs, ps)`` of one lifetime window's group of states, as
    the grouped descent (:meth:`DualQuadTree.insert_batch` /
    :meth:`DualQuadTree.delete_batch`) takes them: batch-transformed
    with coordinate columns from
    :data:`repro.core.quadtree.WRITE_GROUP_MIN` states on, point by
    point (:meth:`DualSpace.to_dual`) without columns below it, so a
    group of one costs one scalar transform."""
    if len(group) < WRITE_GROUP_MIN:
        return list(map(space.to_dual, group)), None, None
    batch = space.to_dual_batch(group)
    return batch.points(), batch.vs, batch.ps


def _net_update_runs(pairs, window_of, d):
    """Cut ``(old, new)`` update pairs into conflict-free runs, netting
    exact update chains.

    A pair whose ``old`` *is* an earlier pair's ``new`` (same object id,
    field-equal state) supersedes that pair in place: applying the pairs
    one at a time would insert the intermediate entry and immediately
    delete it again, so the net pair ``(first old, last new)`` leaves
    identical index state.  Any *other* re-touch of a seen object id
    ends the run, so delete-then-insert application of each run as a
    whole matches one-at-a-time application of timestamp-ordered pairs.

    Returns ``(run, credit)`` tuples, in order: ``run`` lists netted
    ``[old, new, delete_window]`` triples (each object id at most once,
    arrival order), where ``delete_window`` is the lifetime window of
    the chain's *first* new state -- the arrival at which one-at-a-time
    application performs the ``old`` delete, so the run's delete must
    happen under that window's rotation state, not the final insert's.
    ``credit`` counts the netted intermediate deletes one-at-a-time
    application would have scored: an intermediate delete succeeds
    exactly when the entry's window is still live on the next update's
    arrival, i.e. the chain advanced by at most one lifetime window.
    Every pair is checked before any run is returned, so a bad pair
    fails the batch before it changes anything.
    """
    runs: List[Tuple[List[List], int]] = []
    chains: Dict[int, List] = {}   # new.oid -> [first old, latest new, dw]
    touched: set = set()           # every oid the current run references
    credit = 0
    for old, new in pairs:
        if new.d != d:
            raise ValueError(
                f"object is {new.d}-d but the index is {d}-d")
        oid = new.oid
        old_oid = oid if old is None else old.oid
        if old_oid == oid and old is not None:
            chain = chains.get(oid)
            if chain is not None and chain[1] == old:
                if window_of(new.t) - window_of(old.t) <= 1:
                    credit += 1
                chain[1] = new
                continue
        if oid in touched or old_oid in touched:
            runs.append((list(chains.values()), credit))
            chains = {}
            touched = set()
            credit = 0
        chains[oid] = [old, new, window_of(new.t)]
        touched.add(oid)
        touched.add(old_oid)
    if chains or credit:
        runs.append((list(chains.values()), credit))
    return runs


class StripesIndex:
    """Scalable Trajectory Index for Predicted Positions (Section 4)."""

    # Insert-latency histogram, wired by attach_metrics.  The class-level
    # ``None`` default keeps the write hot path at one attribute load +
    # None test when metrics are not attached, and keeps instances built
    # without __init__ (the persistence loader) well-formed.
    _insert_latency = None

    def __init__(self, config: StripesConfig,
                 pool: Optional[BufferPool] = None):
        """``pool`` defaults to an in-memory page file behind a
        paper-default buffer pool; pass a pool over an
        :class:`repro.storage.pagefile.OnDiskPageFile` for persistence."""
        self.config = config
        if pool is None:
            pool = BufferPool(InMemoryPageFile())
        self.pool = pool
        self.store = RecordStore(pool)
        # Lifetime-window number -> sub-index.
        self._trees: Dict[int, DualQuadTree] = {}
        #: Sub-index rotations performed (windows destroyed wholesale).
        self.rotations = 0
        #: Pages returned to the pagefile free list by rotations; verified
        #: against :meth:`pages_in_use` at every retirement.
        self.pages_reclaimed = 0
        #: Optional :class:`repro.obs.tracer.Tracer` shared with every
        #: sub-index; set via :meth:`attach_tracer`.
        self.tracer: Optional[Tracer] = None
        # Counters of retired sub-indexes, folded in at rotation so the
        # aggregate metrics stay monotonic across window destruction.
        self._retired_counters = QuadTreeCounters()
        self._retired_cache_hits = 0
        self._retired_cache_misses = 0
        # Insert-latency histogram, wired by attach_metrics; None keeps
        # the write hot path free of any metrics cost.
        self._insert_latency = None
        #: Number of the last committed checkpoint; 0 before the first
        #: :func:`repro.core.persistence.save_index`.  The sidecar and
        #: the redo journal both carry it, which is how recovery decides
        #: whether a leftover journal belongs to the sidecar on disk.
        self.checkpoint_id = 0

    # ------------------------------------------------------------------ #
    # Window management (Section 4.1)
    # ------------------------------------------------------------------ #

    def _window(self, t: float) -> int:
        if t < 0:
            raise ValueError(f"timestamps must be non-negative, got {t}")
        return int(t // self.config.lifetime)

    def _tree_for_window(self, window: int,
                         create: bool) -> Optional[DualQuadTree]:
        tree = self._trees.get(window)
        if tree is not None or not create:
            return tree
        space = DualSpace(self.config.vmax, self.config.pmax,
                          self.config.lifetime,
                          t_ref=window * self.config.lifetime,
                          float32=self.config.float32)
        tree = DualQuadTree(space, self.store, self.config.quadtree)
        tree.tracer = self.tracer
        self._trees[window] = tree
        self._retire_expired(newest=max(self._trees))
        return tree

    def _retire_expired(self, newest: int) -> None:
        """Keep only the two newest lifetime windows; entries in older
        windows have exceeded their lifetime and are dropped wholesale.

        Retirement must not leak storage across rotations: destroying the
        retired tree frees every one of its records (returning emptied
        pages to the pagefile's free list), and each freed record's
        decoded node leaves its buffer-pool frame with it.  The reclaimed
        page count is verified via :meth:`pages_in_use` before/after and
        accumulated in :attr:`pages_reclaimed`.
        """
        for window in [w for w in self._trees if w < newest - 1]:
            tree = self._trees.pop(window)
            self._retired_counters.merge(tree.counters)
            self._retired_cache_hits += tree.cache.hits
            self._retired_cache_misses += tree.cache.misses
            self.rotations += 1
            pages_before = self.pages_in_use()
            entries_dropped = tree.count
            tree.destroy()
            reclaimed = pages_before - self.pages_in_use()
            # A tiny tree may share every one of its pages with records of
            # live windows (pages are per size class, not per tree), so
            # zero reclaimed pages is legal -- but a rotation must never
            # *grow* the footprint.
            if reclaimed < 0:
                raise RuntimeError(
                    f"rotation of window {window} grew the page footprint "
                    f"by {-reclaimed} pages")
            self.pages_reclaimed += reclaimed
            if self.tracer is not None:
                self.tracer.event("stripes.rotation", window=window,
                                  entries_dropped=entries_dropped,
                                  pages_reclaimed=reclaimed)

    def rotate_to(self, window: int) -> None:
        """Retire every sub-index older than the two lifetime windows
        ending at ``window`` without inserting anything.

        Rotation normally rides on the arrival of an update
        (:meth:`_tree_for_window`); a sharded deployment additionally needs
        this explicit hook so *all* shards observe a window advance even
        when a given shard received no write in the new window -- otherwise
        a quiet shard would keep serving entries a serial index would have
        expired.  No-op when ``window`` is not newer than the live ones.
        """
        if self._trees and window > max(self._trees):
            self._retire_expired(newest=window)

    @property
    def live_windows(self) -> List[int]:
        """Currently live lifetime-window numbers (at most two)."""
        return sorted(self._trees)

    def __len__(self) -> int:
        """Number of live (non-expired) entries."""
        return sum(tree.count for tree in self._trees.values())

    # ------------------------------------------------------------------ #
    # Updates (Sections 4.3-4.5)
    # ------------------------------------------------------------------ #

    def insert(self, obj: MovingObjectState) -> None:
        """Insert a new predicted trajectory: a batch of one."""
        self.insert_batch([obj])

    def insert_batch(self, objs: Sequence[MovingObjectState]) -> int:
        """Insert many trajectories; returns the number inserted.

        States are grouped by lifetime window, and the groups go in
        ascending window order (so rotation happens as it would one state
        at a time) through :meth:`_insert_group`, the index's one insert
        path.
        """
        d = self.config.d
        by_window: Dict[int, List[MovingObjectState]] = {}
        for obj in objs:
            if obj.d != d:
                raise ValueError(
                    f"object is {obj.d}-d but the index is {d}-d")
            by_window.setdefault(self._window(obj.t), []).append(obj)
        inserted = 0
        for window in sorted(by_window):
            group = by_window[window]
            self._insert_group(window, group)
            inserted += len(group)
        return inserted

    def _insert_group(self, window: int,
                      group: List[MovingObjectState]) -> None:
        """Insert one window's group into its sub-index (created on
        demand, which may rotate) with one grouped descent
        (:meth:`DualQuadTree.insert_batch`).  Every insert, batched or
        not and the insert half of every update, comes through here,
        which is where the insert-latency histogram observes."""
        hist = self._insert_latency
        start = perf_counter() if hist is not None else 0.0
        tree = self._tree_for_window(window, create=True)
        tree.insert_batch(*_dual_group(tree.space, group))
        if hist is not None:
            hist.observe(perf_counter() - start)

    def delete(self, obj: MovingObjectState) -> bool:
        """Remove the entry previously inserted for ``obj`` (same object id,
        motion parameters, and timestamp): a batch of one.  Returns False
        when the entry has expired with its sub-index or cannot be
        found."""
        return self.delete_batch([obj])[0]

    def delete_batch(self, objs: Sequence[MovingObjectState]) -> List[bool]:
        """Remove many entries; returns one removed-flag per input, in
        input order.

        Objects are grouped by lifetime window; each live window's group
        runs one grouped descent (:meth:`DualQuadTree.delete_batch`), and
        an expired window's objects flag ``False`` without touching
        storage.
        """
        objs = list(objs)
        flags = [False] * len(objs)
        by_window: Dict[int, List[int]] = {}
        for j, obj in enumerate(objs):
            by_window.setdefault(self._window(obj.t), []).append(j)
        for window in sorted(by_window):
            idxs = by_window[window]
            gflags = self._delete_group(window, [objs[j] for j in idxs])
            for j, flag in zip(idxs, gflags):
                flags[j] = flag
        return flags

    def _delete_group(self, window: int,
                      group: List[MovingObjectState]) -> List[bool]:
        """Removed-flags of one window's group of deletes: all ``False``
        when the window's sub-index has expired (or never existed)."""
        tree = self._tree_for_window(window, create=False)
        if tree is None:
            return [False] * len(group)
        return tree.delete_batch(*_dual_group(tree.space, group))

    def update(self, old: Optional[MovingObjectState],
               new: MovingObjectState) -> bool:
        """Delete ``old`` (if supplied and not expired) and insert
        ``new``: a batch of one.

        Returns True when an old entry was actually removed.  Objects send
        their previous motion parameters along with the new ones, exactly
        as in Section 4.5.
        """
        return self.update_batch([(old, new)]) > 0

    def update_batch(self, pairs: Sequence[Tuple[
            Optional[MovingObjectState], MovingObjectState]]) -> int:
        """Apply ``(old, new)`` updates in order; ``old`` may be ``None``
        (plain insert).  Returns how many old entries were removed.

        Each update follows Section 4.5: window rotation triggers on the
        *arrival* of the update (Section 4.1: "when an update with
        timestamp > 2L arrives, we can simply delete the entries in the
        first index"), so the stale window is retired before the old
        entry is looked up; then the old entry is deleted and the new one
        inserted.

        The batch is cut into *conflict-free runs* with exact update
        chains netted in place (see :func:`_net_update_runs`): a pair
        whose ``old`` is an earlier pair's ``new`` supersedes it, while
        any other re-touch of a seen object id ends the run.  Each run
        has every object id at most once, so scheduling each delete under
        its arrival's window rotation (a netted chain's first new), each
        insert under its own window, and walking the windows in ascending
        order leaves the entries -- and the removed count -- that applying
        the timestamp-ordered pairs one at a time would.
        """
        removed = 0
        for run, credit in _net_update_runs(pairs, self._window,
                                            self.config.d):
            removed += self._apply_update_run(run) + credit
        return removed

    def _apply_update_run(self, run: List[List]) -> int:
        """Apply one conflict-free run of ``[old, new, delete_window]``
        triples (each object id at most once); returns entries removed.

        The run is grouped once into steps keyed ``(arrival window,
        0 = delete / 1 = insert, window of the group's entries)``: a
        delete happens under the rotation of the window whose arrival
        performs it, an insert under its own.  Steps run in key order
        straight on the sub-index trees, each after rotating to its
        arrival window, so every window rotates, deletes, then inserts.
        A netted chain spanning windows has its old entry deleted under
        the chain's *first* window rotation, before later links rotate
        it out, as one-at-a-time application does.
        """
        window_of = self._window
        steps: Dict[Tuple[int, int, int], List[MovingObjectState]] = {}
        for old, new, dw in run:
            if old is not None:
                steps.setdefault((dw, 0, window_of(old.t)), []).append(old)
            window = window_of(new.t)
            steps.setdefault((window, 1, window), []).append(new)
        removed = 0
        for (window, is_insert, group_window), group in sorted(
                steps.items()):
            self.rotate_to(window)
            if is_insert:
                self._insert_group(window, group)
            else:
                removed += self._delete_group(group_window,
                                              group).count(True)
        return removed

    # ------------------------------------------------------------------ #
    # Queries (Section 4.6)
    # ------------------------------------------------------------------ #

    def query(self, query: PredictiveQuery, refine: bool = True) -> List[int]:
        """Object ids matching a time-slice, window, or moving query: a
        batch of one (:meth:`query_batch`).

        The dual-space region search is exact per dimension, but for
        window/moving queries in d >= 2 each dimension may satisfy the
        query at a *different* time, so the region conjunction admits
        false positives (this is inherent to the paper's per-plane query
        regions).  By default candidates are therefore refined with the
        exact common-instant predicate -- the classic filter-and-refine
        discipline.  ``refine=False`` returns the paper-literal candidate
        set (always a superset of the true answer; identical to it for
        time-slice queries).
        """
        return self.query_batch([query], refine)[0]

    def query_batch(self, queries: Sequence[PredictiveQuery],
                    refine: bool = True) -> List[List[int]]:
        """Evaluate many queries against the current index state;
        ``result[k]`` answers ``queries[k]``.

        The queries run one after another through the same descent:
        per live sub-index, :func:`build_query_regions` and
        :meth:`DualQuadTree.search_columns`, then (for a query with a
        time extent and ``refine``) the exact common-instant refinement.
        A time-slice query evaluates every dimension at the same single
        instant, so its per-plane conjunction is already exact.
        """
        d = self.config.d
        vmax = self.config.vmax
        lifetime = self.config.lifetime
        out: List[List[int]] = []
        for query in queries:
            moving = query.as_moving()
            if moving.d != d:
                raise ValueError(
                    f"query is {moving.d}-d but the index is {d}-d")
            needs_refine = refine and moving.t_low < moving.t_high
            evaluator = MovingQueryEvaluator(moving) if needs_refine \
                else None
            results: List[int] = []
            for tree in self._trees.values():
                regions = build_query_regions(moving, vmax, lifetime,
                                              tree.space.t_ref)
                oids, vs, ps = tree.search_columns(regions)
                if not oids.size:
                    continue
                if needs_refine:
                    oids = _refine(tree.space, evaluator, oids, vs, ps)
                results.extend(oids.tolist())
            out.append(results)
        return out

    def explain(self, query: PredictiveQuery, refine: bool = True,
                tracer: Optional[Tracer] = None) -> QueryExplain:
        """Run ``query`` once under tracing and return the full descent.

        Runs the descent and refinement :meth:`query` runs, with a trace
        threaded through, so it produces the same answer and page reads
        as :meth:`query` plus, per live sub-index, a
        :class:`repro.obs.tracer.DescentTrace` (nodes visited, quads
        classified INSIDE/OVERLAP/DISJUNCT, children pruned/reported,
        leaf records scanned) and the filter-and-refine summary
        (candidates vs. refined-away).  ``tracer`` defaults to the
        attached tracer or a fresh private one; spans for the descent and
        refinement of each sub-index hang off the returned
        :attr:`QueryExplain.span`.
        """
        moving = query.as_moving()
        if moving.d != self.config.d:
            raise ValueError(
                f"query is {moving.d}-d but the index is {self.config.d}-d")
        needs_refine = refine and moving.t_low < moving.t_high
        if tracer is None:
            tracer = self.tracer if self.tracer is not None else Tracer()
        out = QueryExplain(query=query, index_name="STRIPES",
                           refined=needs_refine)
        evaluator = MovingQueryEvaluator(moving) if needs_refine else None
        before = self.pool.stats.snapshot()
        with tracer.span("stripes.query",
                         kind=type(query).__name__) as root:
            # Window creation order, as query() and count() walk them.
            for window, tree in self._trees.items():
                label = f"window {window} (t_ref={tree.space.t_ref:g})"
                trace = DescentTrace(label=label)
                with tracer.span("stripes.descend", window=window):
                    regions = build_query_regions(
                        moving, self.config.vmax, self.config.lifetime,
                        tree.space.t_ref)
                    oids, vs, ps = tree.search_columns(regions, trace)
                matched = oids
                if needs_refine:
                    with tracer.span("stripes.refine", window=window):
                        matched = _refine(tree.space, evaluator, oids, vs,
                                          ps)
                out.sub_indexes.append(SubIndexExplain(
                    label=label, trace=trace, candidates=len(oids),
                    matched=len(matched)))
                out.results.extend(matched.tolist())
        diff = self.pool.stats.diff(before)
        out.logical_reads = diff.logical_reads
        out.physical_reads = diff.physical_reads
        out.span = root
        return out

    def count(self, query: PredictiveQuery) -> int:
        """Number of objects matching the query.

        Time-slice queries use the aggregate fast path: subtrees fully
        inside the query body contribute their stored ``size`` counters
        without any leaf-page access.  Window/moving queries need the
        exact common-instant refinement, so they fall back to
        ``len(self.query(...))``.
        """
        moving = query.as_moving()
        if moving.d != self.config.d:
            raise ValueError(
                f"query is {moving.d}-d but the index is {self.config.d}-d")
        if moving.t_low < moving.t_high:
            return len(self.query(moving))
        total = 0
        for tree in self._trees.values():
            regions = build_query_regions(
                moving, self.config.vmax, self.config.lifetime,
                tree.space.t_ref)
            total += tree.count_in_regions(regions)
        return total

    # ------------------------------------------------------------------ #
    # Bulk loading
    # ------------------------------------------------------------------ #

    def bulk_load(self, states: Iterable[MovingObjectState]) -> int:
        """Load a batch of states into an empty index; returns the number
        of entries loaded.

        Checks that the index is empty, that every state has the index's
        dimensionality and that the states span at most two lifetime
        windows (older entries would be expired on arrival), then runs
        :meth:`insert_batch`: on an empty sub-index the grouped descent
        builds the whole quadtree bottom-up in one recursive pass (the
        same machinery a leaf split uses), orders of magnitude faster
        than repeated :meth:`insert` for large initial loads.
        """
        if self._trees:
            raise RuntimeError("bulk_load requires an empty index")
        states = list(states)
        windows = set()
        for state in states:
            if state.d != self.config.d:
                raise ValueError(
                    f"object is {state.d}-d but the index is "
                    f"{self.config.d}-d")
            windows.add(self._window(state.t))
        if windows and min(windows) < max(windows) - 1:
            raise ValueError(
                f"bulk_load batch spans more than two lifetime windows "
                f"({sorted(windows)}); entries in window {min(windows)} "
                f"would be expired on arrival")
        return self.insert_batch(states)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def attach_tracer(self, tracer: Optional[Tracer]) -> None:
        """Share ``tracer`` with every live and future sub-index so
        structural events (splits, promotions, collapses, rotations) are
        recorded; pass ``None`` to detach."""
        self.tracer = tracer
        for tree in self._trees.values():
            tree.tracer = tracer

    def attach_metrics(self, registry, prefix: str = "stripes") -> None:
        """Mirror the whole index's state into ``registry`` (a
        :class:`repro.obs.metrics.MetricsRegistry`).

        Wires the buffer pool (``{prefix}_pool_*``), the record store
        (``{prefix}_store_*``), aggregated per-sub-index operation
        counters (inserts, deletes, searches, splits, promotions,
        collapses, spills -- retired windows stay counted), node-cache
        hit/miss counters, index-level gauges (live entries, live
        windows), and the insert-latency histogram
        (``{prefix}_insert_latency_seconds``).  All pull-based except the
        histogram, which records one ``observe`` per sub-index insert
        group only while attached: one per :meth:`insert` and per
        :meth:`update`, one per lifetime window a batch spans.
        """
        self.pool.attach_metrics(registry, prefix=f"{prefix}_pool")
        self.store.attach_metrics(registry, prefix=f"{prefix}_store")
        op_counters = {
            name: registry.counter(f"{prefix}_{name}_total",
                                   help=f"quadtree {name.replace('_', ' ')}")
            for name in ("inserts", "deletes", "searches", "leaf_promotions",
                         "leaf_splits", "collapses", "overflow_spills")
        }
        rotations = registry.counter(f"{prefix}_rotations_total",
                                     help="sub-index windows destroyed")
        reclaimed = registry.counter(
            f"{prefix}_pages_reclaimed_total",
            help="pages released to the pagefile by rotations")
        cache_hits = registry.counter(
            f"{prefix}_node_cache_decoded_hits_total",
            help="node reads served without deserialize")
        cache_misses = registry.counter(
            f"{prefix}_node_cache_decoded_misses_total",
            help="node reads that deserialized bytes")
        entries = registry.gauge(f"{prefix}_entries",
                                 help="live (non-expired) entries")
        windows = registry.gauge(f"{prefix}_live_windows",
                                 help="live lifetime windows (at most 2)")
        # Write-path latency, observed by _insert_group.  Stored on the
        # index so the hot path pays one attribute load + None test when
        # metrics are not attached.
        self._insert_latency = registry.histogram(
            f"{prefix}_insert_latency_seconds",
            help="wall time of each sub-index insert group (one per "
                 "insert or update)")

        def collect() -> None:
            agg = QuadTreeCounters()
            agg.merge(self._retired_counters)
            hits = self._retired_cache_hits
            misses = self._retired_cache_misses
            for tree in self._trees.values():
                agg.merge(tree.counters)
                hits += tree.cache.hits
                misses += tree.cache.misses
            for name, counter in op_counters.items():
                counter.set_total(getattr(agg, name))
            rotations.set_total(self.rotations)
            reclaimed.set_total(self.pages_reclaimed)
            cache_hits.set_total(hits)
            cache_misses.set_total(misses)
            entries.set(len(self))
            windows.set(len(self._trees))

        registry.register_collector(collect)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[int, QuadTreeStats]:
        """Per-window structural statistics."""
        return {window: tree.stats()
                for window, tree in sorted(self._trees.items())}

    def pages_in_use(self) -> int:
        """Pages currently holding index records."""
        return self.store.pages_in_use()

    def flush(self) -> None:
        """Write every dirty page back to the page file."""
        self.pool.flush_all()

    def check(self) -> List[str]:
        """Verify every structural invariant of the whole index; returns
        a list of human-readable violations (empty when sound).

        Runs :meth:`repro.core.quadtree.DualQuadTree.check` on each live
        sub-index and :meth:`repro.storage.node_store.RecordStore.check`
        on the shared record store, then cross-checks them: the record
        ids reachable from the tree roots must be *exactly* the ids the
        store's occupancy bitmaps report (anything occupied but
        unreachable is a leaked record; anything reachable but free is a
        dangling pointer), and no record may be claimed by two windows.
        The crash-recovery harness runs this on every reopened index.
        """
        problems: List[str] = []
        reachable: set = set()
        for window in sorted(self._trees):
            tree = self._trees[window]
            tree_rids: set = set()
            for problem in tree.check(rids_out=tree_rids):
                problems.append(f"window {window}: {problem}")
            overlap = reachable & tree_rids
            if overlap:
                problems.append(
                    f"window {window} shares {len(overlap)} record ids "
                    f"with an older window (e.g. {min(overlap)})")
            reachable |= tree_rids
        for problem in self.store.check():
            problems.append(f"record store: {problem}")
        occupied = set(self.store.occupied_rids())
        leaked = occupied - reachable
        dangling = reachable - occupied
        if leaked:
            problems.append(
                f"{len(leaked)} records occupied but unreachable from any "
                f"window root (e.g. rid {min(leaked)})")
        if dangling:
            problems.append(
                f"{len(dangling)} reachable record ids are not occupied "
                f"in the store (e.g. rid {min(dangling)})")
        return problems

    def __repr__(self) -> str:
        return (f"StripesIndex(d={self.config.d}, entries={len(self)}, "
                f"windows={self.live_windows}, "
                f"pages={self.pages_in_use()})")
