"""Cross-query vectorized batch evaluation over columnar shard mirrors.

This is the compute kernel that makes micro-batching pay on a single
core: instead of descending the quadtree once per query, a *batch* of B
coalesced queries is evaluated against a shard's flat columnar mirror of
live dual entries in one ``(B, N)`` numpy broadcast per dual plane,
followed by one gathered exact-refinement pass over the surviving
(query, entry) pairs.  Per-query Python overhead amortizes across the
batch, which is where the service's >= 2x throughput over serial
single-query evaluation comes from.

Correctness contract: for every query ``q`` in the batch the produced id
*set* equals ``StripesIndex.query(q)`` on the same entries.  This holds
because

* the per-plane containment test uses the same boundary-line arithmetic
  as :func:`repro.core.query_region.build_query_regions` /
  ``QueryRegion2D.contains_batch`` (``bound + vmax dt + vmax L`` as the
  intercept, ``-dt`` as the slope, evaluated in float64 on the same
  ``to_dual``-rounded coordinates the tree stores), and
* the refinement re-derives native motion parameters exactly as
  ``StripesIndex.query_batch`` does (``pv = v - vmax``, ``p0 = p -
  pv t_ref - vmax L``) and applies interval intersection with the same
  branch structure as
  :meth:`repro.query.predicates.MovingQueryEvaluator.matches_batch`.

Result *order* is unspecified (the tree reports in descent order, the
mirror in insertion order); callers compare sets.

:class:`ShardMirror` maintains the columns: a per-lifetime-window map of
``oid -> [(v, p), ...]`` dual tuples (exactly the values ``to_dual``
produced, so float32 rounding matches the tree bit for bit) with lazy
numpy column rebuilds.  Mutation follows the single-writer-per-shard
model of ``repro.service.sharding``; the rebuild is double-checked under
the mirror's own lock so concurrent readers are safe.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.dual import DualPoint, DualSpace
from repro.query.types import PredictiveQuery

__all__ = ["CompiledBatch", "ShardMirror", "evaluate_batch"]


class CompiledBatch:
    """Stacked per-query coefficient arrays for one micro-batch.

    Compiling once per batch hoists the ``as_moving()`` canonicalization
    and the evaluator coefficient algebra (the array forms of
    ``MovingQueryEvaluator.__init__``) out of the per-(window, shard)
    evaluation loop.
    """

    __slots__ = ("size", "d", "low1", "high1", "low2", "high2",
                 "t_low", "t_high", "needs_refine",
                 "ql0", "ql_v", "qh0", "qh_v")

    def __init__(self, queries: Sequence[PredictiveQuery], d: int,
                 refine: bool = True):
        moving = [q.as_moving() for q in queries]
        for m in moving:
            if m.d != d:
                raise ValueError(
                    f"query is {m.d}-d but the index is {d}-d")
        self.size = len(moving)
        self.d = d
        self.low1 = np.array([m.low1 for m in moving], dtype=np.float64)
        self.high1 = np.array([m.high1 for m in moving], dtype=np.float64)
        self.low2 = np.array([m.low2 for m in moving], dtype=np.float64)
        self.high2 = np.array([m.high2 for m in moving], dtype=np.float64)
        self.t_low = np.array([m.t_low for m in moving], dtype=np.float64)
        self.t_high = np.array([m.t_high for m in moving], dtype=np.float64)
        duration = self.t_high - self.t_low
        # A query whose dimensions can match at different instants needs
        # the exact common-instant refinement; a time-slice query
        # (duration 0) is already exact after containment.
        self.needs_refine = (duration > 0.0) if refine \
            else np.zeros(self.size, dtype=bool)
        needs = (duration > 0.0)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.ql_v = np.where(
                needs, (self.low2 - self.low1) / duration[:, None], 0.0)
            self.qh_v = np.where(
                needs, (self.high2 - self.high1) / duration[:, None], 0.0)
        self.ql0 = self.low1 - self.ql_v * self.t_low[:, None]
        self.qh0 = self.high1 - self.qh_v * self.t_low[:, None]


def evaluate_batch(batch: CompiledBatch, space: DualSpace,
                   oids: np.ndarray, vs: np.ndarray, ps: np.ndarray,
                   results: List[List[int]]) -> None:
    """Evaluate every query of ``batch`` against one window's columns.

    ``oids``/``vs``/``ps`` are the window's live entries in dual
    coordinates (shapes ``(N,)``, ``(N, d)``, ``(N, d)``); matches are
    appended to ``results[k]`` for query ``k``.
    """
    if not oids.size or not batch.size:
        return
    t_ref = space.t_ref
    lifetime = space.lifetime
    # --- filter: per-plane dual-region containment, all queries at once.
    # Two boundary lines per side (one per query rectangle endpoint);
    # slopes depend only on the endpoint times, so the lower and upper
    # lines at the same endpoint share a slope.
    dt_lo = batch.t_low - t_ref
    dt_hi = batch.t_high - t_ref
    la_s = (-dt_lo)[:, None]
    lb_s = (-dt_hi)[:, None]
    mask = np.ones((batch.size, oids.size), dtype=bool)
    for i in range(batch.d):
        vm = space.vmax[i]
        shift = vm * lifetime
        la_i = (batch.low1[:, i] + vm * dt_lo + shift)[:, None]
        lb_i = (batch.low2[:, i] + vm * dt_hi + shift)[:, None]
        ua_i = (batch.high1[:, i] + vm * dt_lo + shift)[:, None]
        ub_i = (batch.high2[:, i] + vm * dt_hi + shift)[:, None]
        v = vs[None, :, i]
        p = ps[None, :, i]
        lower = np.minimum(la_i + la_s * v, lb_i + lb_s * v)
        upper = np.maximum(ua_i + la_s * v, ub_i + lb_s * v)
        mask &= (p >= lower) & (p <= upper)
    qidx, row = np.nonzero(mask)
    if not qidx.size:
        return
    # --- refine: exact common-instant interval intersection over the
    # surviving (query, entry) pairs, coefficients gathered per pair.
    vmax = np.array(space.vmax, dtype=np.float64)
    pvs = vs[row] - vmax
    p0s = ps[row] - pvs * t_ref - vmax * lifetime
    lo = batch.t_low[qidx].copy()
    hi = batch.t_high[qidx].copy()
    for i in range(batch.d):
        for a, b in (
                (p0s[:, i] - batch.ql0[qidx, i],
                 pvs[:, i] - batch.ql_v[qidx, i]),
                (batch.qh0[qidx, i] - p0s[:, i],
                 batch.qh_v[qidx, i] - pvs[:, i])):
            with np.errstate(divide="ignore", invalid="ignore"):
                root = -a / b
            lo = np.where(b > 0.0, np.maximum(lo, root), lo)
            hi = np.where(b < 0.0, np.minimum(hi, root), hi)
            hi = np.where((b == 0.0) & (a < 0.0), -np.inf, hi)
    keep = np.where(batch.needs_refine[qidx], lo <= hi, True)
    qk = qidx[keep]
    matched = oids[row[keep]]
    # np.nonzero yields row-major order, so qk is already non-decreasing;
    # one searchsorted splits the flat match list back into per-query runs.
    bounds = np.searchsorted(qk, np.arange(batch.size + 1))
    for k in range(batch.size):
        start, stop = bounds[k], bounds[k + 1]
        if start < stop:
            results[k].extend(matched[start:stop].tolist())


class _WindowMirror:
    """Columnar mirror of one lifetime window's live entries."""

    __slots__ = ("space", "entries", "size", "dirty", "oids", "vs", "ps")

    def __init__(self, space: DualSpace):
        self.space = space
        # oid -> list of (v, p) dual tuples.  A list, not a single slot:
        # the index tolerates duplicate oids per window.
        self.entries: Dict[int, List[Tuple[Tuple[float, ...],
                                           Tuple[float, ...]]]] = {}
        self.size = 0
        self.dirty = True
        self.oids = np.empty(0, dtype=np.int64)
        self.vs = np.empty((0, space.d), dtype=np.float64)
        self.ps = np.empty((0, space.d), dtype=np.float64)

    def rebuild(self) -> None:
        oids: List[int] = []
        vs: List[Tuple[float, ...]] = []
        ps: List[Tuple[float, ...]] = []
        for oid, pairs in self.entries.items():
            for v, p in pairs:
                oids.append(oid)
                vs.append(v)
                ps.append(p)
        d = self.space.d
        self.oids = np.array(oids, dtype=np.int64)
        self.vs = np.array(vs, dtype=np.float64).reshape(len(oids), d)
        self.ps = np.array(ps, dtype=np.float64).reshape(len(oids), d)
        self.dirty = False


class ShardMirror:
    """Per-window columnar mirrors of one shard's live dual entries.

    The shard's single writer calls :meth:`note_insert_batch` /
    :meth:`note_delete_batch` (then :meth:`reload` if it returns False) /
    :meth:`sync_windows` in lockstep with the
    underlying :class:`repro.core.stripes.StripesIndex` mutations (under
    the shard's exclusive lock; a single write is a batch of one);
    readers call :meth:`window_columns` under the shard's shared lock.
    The internal lock only protects the lazy column rebuild, which is
    the one mutation the read path performs.
    """

    def __init__(self, config):
        self._config = config
        self._windows: Dict[int, _WindowMirror] = {}
        self._lock = threading.Lock()

    def space_for(self, window: int) -> DualSpace:
        """The dual space of ``window`` (same derivation as the index)."""
        mirror = self._windows.get(window)
        if mirror is not None:
            return mirror.space
        cfg = self._config
        return DualSpace(cfg.vmax, cfg.pmax, cfg.lifetime,
                         t_ref=window * cfg.lifetime, float32=cfg.float32)

    @property
    def total_entries(self) -> int:
        """Live mirrored entries across all windows."""
        return sum(m.size for m in self._windows.values())

    # ---------------------------------------------------------------- #
    # Writer-side hooks (shard exclusive lock held)
    # ---------------------------------------------------------------- #

    def note_insert_batch(self, window: int,
                          duals: Sequence[DualPoint]) -> None:
        """Mirror a window group of inserts the index accepted."""
        if not duals:
            return
        mirror = self._windows.get(window)
        if mirror is None:
            mirror = self._windows[window] = _WindowMirror(
                self.space_for(window))
        entries = mirror.entries
        for dual in duals:
            entries.setdefault(dual.oid, []).append((dual.v, dual.p))
        mirror.size += len(duals)
        mirror.dirty = True

    def note_delete_batch(self, window: int,
                          duals: Sequence[DualPoint]) -> bool:
        """Remove the mirrored entries of a window group of deletes the
        index accepted; False when one of them has no exact ``(v, p)``
        match, which leaves the window for :meth:`reload`.

        An exact match is the row the index removed
        (:meth:`repro.core.nodes.NodeCodec.remove_rows` takes an equal
        row first).  Without one, the index removed the first row of
        the oid in the leaf the point descended to, which only the tree
        knows.
        """
        mirror = self._windows.get(window)
        entries = mirror.entries if mirror is not None else {}
        for dual in duals:
            pair = (dual.v, dual.p)
            pairs = entries.get(dual.oid, ())
            if pair not in pairs:
                return False
            pairs.remove(pair)
            if not pairs:
                del entries[dual.oid]
            mirror.size -= 1
            mirror.dirty = True
        return True

    def reload(self, window: int, points: Sequence[DualPoint]) -> None:
        """Replace ``window``'s mirror with ``points``, the entries its
        sub-index stores."""
        self._windows.pop(window, None)
        self.note_insert_batch(window, points)

    def sync_windows(self, live_windows: Sequence[int]) -> None:
        """Drop mirrors of windows the index has retired."""
        live = set(live_windows)
        for window in [w for w in self._windows if w not in live]:
            del self._windows[window]

    # ---------------------------------------------------------------- #
    # Reader side (shard shared lock held)
    # ---------------------------------------------------------------- #

    def window_columns(self) -> List[Tuple[DualSpace, np.ndarray,
                                           np.ndarray, np.ndarray]]:
        """``(space, oids, vs, ps)`` per live window, rebuilt if stale."""
        out = []
        for window in sorted(self._windows):
            mirror = self._windows[window]
            if mirror.dirty:
                with self._lock:
                    if mirror.dirty:  # double-checked under the lock
                        mirror.rebuild()
            out.append((mirror.space, mirror.oids, mirror.vs, mirror.ps))
        return out
