"""Predictive distance joins (the paper's future work).

``distance_join(a, b, radius, t)`` returns every pair of objects -- one
from each index -- whose predicted positions at the future instant ``t``
are within ``radius`` of each other.  When ``a is b`` (self-join) each
unordered pair is reported once, as ``(smaller oid, larger oid)``.

Both tree families use the classic synchronized traversal: a pair of
nodes is pruned when the minimum distance between their native-space
bounding boxes at time ``t`` exceeds the radius.  Self-joins avoid
visiting symmetric node pairs twice by ordering record ids.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.baselines.scan import ScanIndex
from repro.core.stripes import StripesIndex
from repro.extensions.knn import _stripes_cell_box
from repro.tpr.tprtree import TPRTree

Pair = Tuple[int, int]


def _boxes_min_dist2(lo1, hi1, lo2, hi2) -> float:
    total = 0.0
    for i in range(len(lo1)):
        if hi1[i] < lo2[i]:
            delta = lo2[i] - hi1[i]
        elif hi2[i] < lo1[i]:
            delta = lo1[i] - hi2[i]
        else:
            continue
        total += delta * delta
    return total


def _dist2(p1: Sequence[float], p2: Sequence[float]) -> float:
    return sum((a - b) * (a - b) for a, b in zip(p1, p2))


def _point_box_dist2(point, lo, hi) -> float:
    total = 0.0
    for i, q in enumerate(point):
        if q < lo[i]:
            delta = lo[i] - q
        elif q > hi[i]:
            delta = q - hi[i]
        else:
            continue
        total += delta * delta
    return total


def _positions_bbox(positions):
    """Tight bounding box of a list of ``(oid, position)`` pairs."""
    d = len(positions[0][1])
    lo = [math.inf] * d
    hi = [-math.inf] * d
    for _, pos in positions:
        for i in range(d):
            if pos[i] < lo[i]:
                lo[i] = pos[i]
            if pos[i] > hi[i]:
                hi[i] = pos[i]
    return lo, hi


def _join_leaf_lists(left, right, r2: float, dedupe: bool,
                     results: List[Pair]) -> None:
    """All qualifying pairs between two entry lists.  Entries on the left
    are pre-filtered against the right list's position bounding box, which
    skips most of the cartesian product when the leaves barely touch."""
    if not left or not right:
        return
    lo, hi = _positions_bbox(right)
    for oid_l, pos_l in left:
        if _point_box_dist2(pos_l, lo, hi) > r2:
            continue
        for oid_r, pos_r in right:
            if _dist2(pos_l, pos_r) <= r2:
                if dedupe:
                    if oid_l == oid_r:
                        continue
                    results.append((min(oid_l, oid_r), max(oid_l, oid_r)))
                else:
                    results.append((oid_l, oid_r))


def _join_leaf_self(entries, r2: float, results: List[Pair]) -> None:
    """Qualifying pairs within one entry list."""
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if _dist2(entries[i][1], entries[j][1]) <= r2:
                oid_i, oid_j = entries[i][0], entries[j][0]
                results.append((min(oid_i, oid_j), max(oid_i, oid_j)))


# --------------------------------------------------------------------- #
# STRIPES
# --------------------------------------------------------------------- #

def _stripes_leaf_positions(tree, rid, t):
    leaf = tree.cache.get(rid)
    return [(entry.oid, tree.space.position_at(entry, t))
            for entry in tree.codec.points(tree._leaf_rows(leaf))]


def _stripes_join_trees(tree_a, tree_b, r2: float, t: float,
                        same_tree: bool, results: List[Pair]) -> None:
    origin_a = (0.0,) * tree_a.d
    origin_b = (0.0,) * tree_b.d
    stack = [((tree_a._root_rid, tree_a._root_is_leaf, origin_a, origin_a, 0),
              (tree_b._root_rid, tree_b._root_is_leaf, origin_b, origin_b,
               0))]
    # Self-joins generate each unordered node pair through two expansion
    # orders; visit each once.
    seen = set() if same_tree else None

    def cell_box(tree, v_corner, p_corner, level):
        sl_v, sl_p = tree._child_sides(level)
        return _stripes_cell_box(tree.space, v_corner, p_corner, sl_v, sl_p,
                                 t)

    while stack:
        (rid_a, leaf_a, va, pa, la), (rid_b, leaf_b, vb, pb, lb) = \
            stack.pop()
        if seen is not None:
            key = (min(rid_a, rid_b), max(rid_a, rid_b))
            if key in seen:
                continue
            seen.add(key)
        lo1, hi1 = cell_box(tree_a, va, pa, la)
        lo2, hi2 = cell_box(tree_b, vb, pb, lb)
        if _boxes_min_dist2(lo1, hi1, lo2, hi2) > r2:
            continue
        if leaf_a and leaf_b:
            if same_tree and rid_a == rid_b:
                _join_leaf_self(_stripes_leaf_positions(tree_a, rid_a, t),
                                r2, results)
            else:
                _join_leaf_lists(_stripes_leaf_positions(tree_a, rid_a, t),
                                 _stripes_leaf_positions(tree_b, rid_b, t),
                                 r2, dedupe=same_tree, results=results)
            continue
        # Expand the shallower non-leaf side.
        if not leaf_a and (leaf_b or la <= lb):
            node = tree_a.cache.get(rid_a)
            pair_b = (rid_b, leaf_b, vb, pb, lb)
            for idx in node.present_children():
                cv, cp = tree_a._child_corner(node, idx)
                child = (node.children[idx], node.child_is_leaf[idx],
                         cv, cp, la + 1)
                stack.append((child, pair_b))
        else:
            node = tree_b.cache.get(rid_b)
            for idx in node.present_children():
                cv, cp = tree_b._child_corner(node, idx)
                child = (node.children[idx], node.child_is_leaf[idx],
                         cv, cp, lb + 1)
                stack.append(((rid_a, leaf_a, va, pa, la), child))


def _stripes_join(a: StripesIndex, b: StripesIndex, radius: float,
                  t: float) -> List[Pair]:
    r2 = radius * radius
    results: List[Pair] = []
    self_join = a is b
    windows_a = sorted(a._trees)
    windows_b = sorted(b._trees)
    for wa in windows_a:
        for wb in windows_b:
            if self_join and wa > wb:
                continue
            _stripes_join_trees(a._trees[wa], b._trees[wb], r2, t,
                                same_tree=self_join and wa == wb,
                                results=results)
    return sorted(set(results)) if self_join else sorted(results)


# --------------------------------------------------------------------- #
# TPR / TPR*
# --------------------------------------------------------------------- #

def _tpr_leaf_positions(tree, rid, t):
    node = tree.cache.get(rid)
    return [(e.oid, tuple(p + v * t for p, v in zip(e.p0, e.vel)))
            for e in node.entries]


def _tpr_join(a: TPRTree, b: TPRTree, radius: float, t: float) -> List[Pair]:
    r2 = radius * radius
    self_join = a is b
    results: List[Pair] = []
    stack = [(a._root, b._root)]
    seen_pairs = set()
    while stack:
        rid_a, rid_b = stack.pop()
        if self_join and (rid_a, rid_b) in seen_pairs:
            continue
        seen_pairs.add((rid_a, rid_b))
        node_a = a.cache.get(rid_a)
        node_b = b.cache.get(rid_b)
        if node_a.is_leaf and node_b.is_leaf:
            if self_join and rid_a == rid_b:
                _join_leaf_self(_tpr_leaf_positions(a, rid_a, t), r2,
                                results)
            else:
                _join_leaf_lists(_tpr_leaf_positions(a, rid_a, t),
                                 _tpr_leaf_positions(b, rid_b, t),
                                 r2, dedupe=self_join, results=results)
            continue
        if not node_a.is_leaf and (node_b.is_leaf
                                   or node_a.level >= node_b.level):
            for child in node_a.entries:
                lo1, hi1 = child.tpbr.bounds_at(t)
                if node_b.is_leaf:
                    prune = False
                else:
                    prune = True
                    for other in node_b.entries:
                        lo2, hi2 = other.tpbr.bounds_at(t)
                        if _boxes_min_dist2(lo1, hi1, lo2, hi2) <= r2:
                            prune = False
                            break
                if not prune:
                    pair = (child.rid, rid_b)
                    if self_join:
                        pair = (min(pair), max(pair))
                    stack.append(pair)
        else:
            for child in node_b.entries:
                pair = (rid_a, child.rid)
                if self_join:
                    pair = (min(pair), max(pair))
                stack.append(pair)
    return sorted(set(results)) if self_join else sorted(set(results))


# --------------------------------------------------------------------- #
# Scan oracle
# --------------------------------------------------------------------- #

def _scan_join(a: ScanIndex, b: ScanIndex, radius: float,
               t: float) -> List[Pair]:
    r2 = radius * radius
    results: List[Pair] = []
    if a is b:
        states = a.live_states()
        positions = [(s.oid, s.position_at(t)) for s in states]
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                if positions[i][0] == positions[j][0]:
                    continue
                if _dist2(positions[i][1], positions[j][1]) <= r2:
                    oid_i, oid_j = positions[i][0], positions[j][0]
                    results.append((min(oid_i, oid_j), max(oid_i, oid_j)))
        return sorted(set(results))
    left = [(s.oid, s.position_at(t)) for s in a.live_states()]
    right = [(s.oid, s.position_at(t)) for s in b.live_states()]
    for oid_l, pos_l in left:
        for oid_r, pos_r in right:
            if _dist2(pos_l, pos_r) <= r2:
                results.append((oid_l, oid_r))
    return sorted(results)


def distance_join(a, b, radius: float, t: float) -> List[Pair]:
    """All pairs of objects within ``radius`` of each other at time ``t``.

    ``a`` and ``b`` must be indexes of the same family (two STRIPES
    indexes, two TPR/TPR* trees, or two scan baselines); pass the same
    object twice for a self-join.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if isinstance(a, StripesIndex) and isinstance(b, StripesIndex):
        return _stripes_join(a, b, radius, t)
    if isinstance(a, TPRTree) and isinstance(b, TPRTree):
        return _tpr_join(a, b, radius, t)
    if isinstance(a, ScanIndex) and isinstance(b, ScanIndex):
        return _scan_join(a, b, radius, t)
    raise TypeError(
        f"distance_join needs two indexes of the same family, got "
        f"{type(a).__name__} and {type(b).__name__}")
