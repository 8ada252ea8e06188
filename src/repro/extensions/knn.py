"""Predictive k-nearest-neighbour search (the paper's future work).

``knn(index, point, t, k)`` returns the ``k`` objects whose *predicted*
position at the future instant ``t`` is nearest to ``point``, as a list of
``(oid, distance)`` sorted by distance.

The search is the classic best-first traversal with distance lower bounds:

* **STRIPES**: a quadtree cell ``[v1,v2] x [p1,p2]`` per plane maps, at
  time ``t``, to the native-space interval ``p + (V - vmax)(t - t_ref) -
  vmax*L`` minimised/maximised over the cell corners -- a box whose
  distance to the query point lower-bounds every entry in the cell.  Both
  live lifetime windows feed one shared priority queue.
* **TPR/TPR***: the TPBR extrapolated to ``t`` is the bounding box.
* **ScanIndex**: exact evaluation over all live states (the oracle).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Optional, Sequence, Tuple

from repro.baselines.scan import ScanIndex
from repro.core.dual import DualSpace
from repro.core.stripes import StripesIndex
from repro.tpr.tprtree import TPRTree

Neighbor = Tuple[int, float]


def _trajectory_min_dist2(p0: Sequence[float], pv: Sequence[float],
                          point: Sequence[float], t1: float,
                          t2: float) -> float:
    """Exact minimum of ``|p(t) - point|^2`` over ``t in [t1, t2]`` for the
    line ``p(t) = p0 + pv t`` (a quadratic in ``t``)."""
    a = sum(v * v for v in pv)
    b = 2.0 * sum(v * (p - q) for v, p, q in zip(pv, p0, point))
    c = sum((p - q) * (p - q) for p, q in zip(p0, point))
    candidates = [t1, t2]
    if a > 0.0:
        vertex = -b / (2.0 * a)
        if t1 < vertex < t2:
            candidates.append(vertex)
    return min(a * t * t + b * t + c for t in candidates)


def _moving_box_min_dist2(lo_lines, hi_lines, point: Sequence[float],
                          t1: float, t2: float) -> float:
    """Exact minimum over ``t in [t1, t2]`` of the distance from ``point``
    to a box whose per-dimension bounds move linearly.

    ``lo_lines``/``hi_lines`` hold ``(value at t=0, slope)`` per dimension.
    Per dimension the gap ``d_i(t) = max(0, lo_i(t) - q_i, q_i - hi_i(t))``
    is convex piecewise linear with at most two breakpoints (the roots of
    the two linear arms), so the total squared distance is piecewise
    quadratic; each segment is minimised in closed form.
    """
    breakpoints = {t1, t2}
    for i, q in enumerate(point):
        lo0, lo_s = lo_lines[i]
        hi0, hi_s = hi_lines[i]
        if lo_s != 0.0:
            root = (q - lo0) / lo_s
            if t1 < root < t2:
                breakpoints.add(root)
        if hi_s != 0.0:
            root = (q - hi0) / hi_s
            if t1 < root < t2:
                breakpoints.add(root)
    knots = sorted(breakpoints)
    best = math.inf
    for left, right in zip(knots, knots[1:]):
        mid = (left + right) / 2.0
        # Identify each dimension's active linear arm on this segment and
        # accumulate quadratic coefficients of the squared distance.
        a = b = c = 0.0
        for i, q in enumerate(point):
            lo0, lo_s = lo_lines[i]
            hi0, hi_s = hi_lines[i]
            below = lo0 + lo_s * mid - q          # > 0: point below box
            above = q - hi0 - hi_s * mid          # > 0: point above box
            if below > 0.0 and below >= above:
                d0, d_s = lo0 - q, lo_s
            elif above > 0.0:
                d0, d_s = q - hi0, -hi_s
            else:
                continue
            a += d_s * d_s
            b += 2.0 * d0 * d_s
            c += d0 * d0
        candidates = [left, right]
        if a > 0.0:
            vertex = -b / (2.0 * a)
            if left < vertex < right:
                candidates.append(vertex)
        for t in candidates:
            value = a * t * t + b * t + c
            if value < best:
                best = value
    if len(knots) == 1:  # degenerate interval t1 == t2
        t = knots[0]
        best = 0.0
        for i, q in enumerate(point):
            lo = lo_lines[i][0] + lo_lines[i][1] * t
            hi = hi_lines[i][0] + hi_lines[i][1] * t
            if q < lo:
                best += (lo - q) ** 2
            elif q > hi:
                best += (q - hi) ** 2
    return max(0.0, best)


def _stripes_cell_box(space: DualSpace, v_corner, p_corner, sl_v, sl_p,
                      t: float):
    """Native-space bounding box, at time ``t``, of every trajectory whose
    dual point lies in the cell."""
    dt = t - space.t_ref
    lo = []
    hi = []
    for i in range(space.d):
        shift = -space.vmax[i] * dt - space.vmax[i] * space.lifetime
        term1 = v_corner[i] * dt
        term2 = (v_corner[i] + sl_v[i]) * dt
        lo.append(p_corner[i] + shift + min(term1, term2))
        hi.append(p_corner[i] + sl_p[i] + shift + max(term1, term2))
    return lo, hi


class _ResultHeap:
    """Keeps the k smallest distances (max-heap on the inside)."""

    def __init__(self, k: int):
        self.k = k
        self._heap: List[Tuple[float, int]] = []  # (-dist2, oid)

    def offer(self, dist2: float, oid: int) -> None:
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-dist2, oid))
        elif dist2 < -self._heap[0][0]:
            heapq.heapreplace(self._heap, (-dist2, oid))

    def bound(self) -> float:
        """Current kth-best distance squared (inf until k results)."""
        if len(self._heap) < self.k:
            return math.inf
        return -self._heap[0][0]

    def sorted_results(self) -> List[Neighbor]:
        return [(oid, math.sqrt(-neg)) for neg, oid in
                sorted(self._heap, key=lambda item: (-item[0], item[1]))]


def _stripes_cell_lines(space: DualSpace, v_corner, p_corner, sl_v, sl_p):
    """Per-dimension ``(value at t=0, slope)`` lines bounding every
    trajectory in a cell, valid for ``t >= space.t_ref``."""
    lo_lines = []
    hi_lines = []
    for i in range(space.d):
        v1 = v_corner[i] - space.vmax[i]                 # slowest velocity
        v2 = v_corner[i] + sl_v[i] - space.vmax[i]       # fastest velocity
        shift = -space.vmax[i] * space.lifetime
        lo_lines.append((p_corner[i] + shift - v1 * space.t_ref, v1))
        hi_lines.append((p_corner[i] + sl_p[i] + shift - v2 * space.t_ref,
                         v2))
    return lo_lines, hi_lines


def _stripes_knn(index: StripesIndex, point, t1: float, t2: float,
                 k: int) -> List[Neighbor]:
    results = _ResultHeap(k)
    tie = itertools.count()
    heap = []
    for tree in index._trees.values():
        if tree.count == 0:
            continue
        origin = (0.0,) * tree.d
        heapq.heappush(heap, (
            0.0, next(tie), tree,
            tree._root_rid, tree._root_is_leaf, origin, origin, 0))
    while heap:
        bound, _, tree, rid, is_leaf, v_corner, p_corner, level = \
            heapq.heappop(heap)
        if bound >= results.bound():
            break
        # Cell lines are valid from the sub-index's reference time on.
        lo_t = max(t1, tree.space.t_ref)
        hi_t = max(t2, lo_t)
        if is_leaf:
            leaf = tree.cache.get(rid)
            vmax = tree.space.vmax
            t_ref = tree.space.t_ref
            lifetime = tree.space.lifetime
            for entry in tree.codec.points(tree._leaf_rows(leaf)):
                pv = [v - vm for v, vm in zip(entry.v, vmax)]
                p0 = [p - pvi * t_ref - vm * lifetime
                      for p, pvi, vm in zip(entry.p, pv, vmax)]
                results.offer(
                    _trajectory_min_dist2(p0, pv, point, t1, t2),
                    entry.oid)
            continue
        node = tree.cache.get(rid)
        sl_v, sl_p = tree._child_sides(level + 1)
        for idx in node.present_children():
            cv, cp = tree._child_corner(node, idx)
            lo_lines, hi_lines = _stripes_cell_lines(
                tree.space, cv, cp, sl_v, sl_p)
            child_bound = _moving_box_min_dist2(lo_lines, hi_lines, point,
                                                lo_t, hi_t)
            if child_bound < results.bound():
                heapq.heappush(heap, (
                    child_bound, next(tie), tree, node.children[idx],
                    node.child_is_leaf[idx], cv, cp, level + 1))
    return results.sorted_results()


def _tpr_knn(tree: TPRTree, point, t1: float, t2: float,
             k: int) -> List[Neighbor]:
    results = _ResultHeap(k)
    tie = itertools.count()
    heap = [(0.0, next(tie), tree._root)]
    while heap:
        bound, _, rid = heapq.heappop(heap)
        if bound >= results.bound():
            break
        node = tree.cache.get(rid)
        if node.is_leaf:
            for entry in node.entries:
                results.offer(
                    _trajectory_min_dist2(entry.p0, entry.vel, point,
                                          t1, t2),
                    entry.oid)
            continue
        for child in node.entries:
            box = child.tpbr
            lo_t = max(t1, box.t0)
            hi_t = max(t2, lo_t)
            lo_lines = [(box.lower[i] - box.vlower[i] * box.t0,
                         box.vlower[i]) for i in range(box.d)]
            hi_lines = [(box.upper[i] - box.vupper[i] * box.t0,
                         box.vupper[i]) for i in range(box.d)]
            child_bound = _moving_box_min_dist2(lo_lines, hi_lines, point,
                                                lo_t, hi_t)
            if child_bound < results.bound():
                heapq.heappush(heap, (child_bound, next(tie), child.rid))
    return results.sorted_results()


def _scan_knn(scan: ScanIndex, point, t1: float, t2: float,
              k: int) -> List[Neighbor]:
    results = _ResultHeap(k)
    for state in scan.live_states():
        p0 = [p - v * state.t for p, v in zip(state.pos, state.vel)]
        results.offer(
            _trajectory_min_dist2(p0, state.vel, point, t1, t2),
            state.oid)
    return results.sorted_results()


def knn(index, point: Sequence[float], t: float, k: int,
        t_high: Optional[float] = None) -> List[Neighbor]:
    """The k objects predicted nearest to ``point``.

    With ``t_high=None`` (the default), distances are evaluated at the
    single future instant ``t``.  With ``t_high``, the *interval* kNN is
    answered: each object's distance is the minimum of its predicted
    distance over ``[t, t_high]`` ("who comes closest to this point during
    the next five minutes?").

    Returns ``[(oid, distance), ...]`` sorted by ascending distance (ties
    broken by oid); fewer than ``k`` results when the index holds fewer
    live entries.  Query times should not precede the index's current
    time (predicted-trajectory indexes answer future queries).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    t2 = t if t_high is None else t_high
    if t2 < t:
        raise ValueError(f"t_high {t2} precedes t {t}")
    if isinstance(index, StripesIndex):
        if len(point) != index.config.d:
            raise ValueError(
                f"query point is {len(point)}-d but the index is "
                f"{index.config.d}-d")
        return _stripes_knn(index, tuple(point), t, t2, k)
    if isinstance(index, TPRTree):
        if len(point) != index.config.d:
            raise ValueError(
                f"query point is {len(point)}-d but the tree is "
                f"{index.config.d}-d")
        return _tpr_knn(index, tuple(point), t, t2, k)
    if isinstance(index, ScanIndex):
        return _scan_knn(index, tuple(point), t, t2, k)
    raise TypeError(f"knn does not support {type(index).__name__}")
