"""Disk-based multi-dimensional bucket PR quadtree over the dual space.

This is the index structure of Section 4: each of the ``d`` dual planes
``(V_i, P_i)`` is split into four quads per level, giving non-leaf fanout
``4^d`` (16 for the two-dimensional workloads of the evaluation).  The tree
follows the paper's design decisions:

* **Insert** (Section 4.3) descends a single root-to-leaf path using the
  Eq. 1 child-index computation; missing target leaves are created lazily
  (case 1), non-full leaves absorb the entry (case 2), and full leaves are
  promoted or split (case 3).
* **Two leaf sizes** (Section 5.1): leaves are born *small* (half a page)
  and are promoted to *large* (a full page) on their first overflow, which
  roughly doubles leaf page occupancy.  A split of a large leaf converts it
  to a non-leaf and redistributes entries into fresh small leaves; empty
  children are simply not materialised.
* **Delete** (Section 4.4) checks non-leaf nodes for under-fill on the way
  down; an under-filled subtree is collapsed back into a single leaf.
* **Search** (Section 4.6.4) classifies each plane's four quads against the
  plane's query region once per node (the 25 %-pruning optimisation) and
  combines the per-plane results per child: any-DISJUNCT prunes, all-INSIDE
  reports the whole subtree without further geometry tests, otherwise the
  child is probed recursively (leaves filter entries exactly).

Leaves at the maximum depth may exceed capacity (coincident points); they
spill into overflow extension records rather than splitting forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dual import DualPoint, DualSpace
from repro.core.nodes import (
    INVALID_RID,
    LeafExtension,
    LeafNode,
    Node,
    NodeCodec,
    NonLeafNode,
    points_from_columns,
)
from repro.core.query_region import QueryRegion2D, RelPos
from repro.obs.tracer import DescentTrace
from repro.storage.node_store import (
    MAX_SLOTS_PER_PAGE,
    NodeCache,
    RecordStore,
)

_WRITE_GROUP_MIN = 4
"""Batch size below which the grouped write descent falls back to the
scalar per-point path: numpy classification of a 2-3 point group costs
more than three scalar descents."""


class _DeferredSegments:
    """Descent-ordered result accumulator for the vectorized search.

    ``segments`` holds ``(record, lit)`` pairs: ``record`` is a leaf or
    leaf extension whose SoA columns are read at resolve time -- the
    descent never touches its ``entries``, so a record decoded from a
    page never builds per-entry objects.  ``lit`` marks segments
    reported wholesale (all-INSIDE subtrees), which pass
    unconditionally -- they must NOT be re-tested by the kernels, whose
    answer could differ from the rectangle classification by an ulp at
    region boundaries.
    """

    __slots__ = ("segments",)

    def __init__(self):
        self.segments: List[tuple] = []


#: What search paths append results into: a plain list on the scalar and
#: traced paths, a :class:`_DeferredSegments` on the vectorized path.
ResultSink = "List[DualPoint] | _DeferredSegments"


@dataclass(frozen=True)
class QuadTreeConfig:
    """Tuning knobs for the quadtree.

    ``small_leaf_bytes``/``large_leaf_bytes`` default to half a page and a
    full page (minus the record-store header).  ``collapse_capacity`` is
    the under-fill threshold of Section 4.4 and defaults to the large-leaf
    capacity.  ``use_small_leaves=False`` disables the two-size scheme
    (ablation A1: every leaf is born large).  ``quad_pruning=False``
    disables the shared per-plane quad classification of Section 4.6.4
    (ablation A2) -- results are identical, only more CPU is spent.

    ``leaf_size_ladder`` generalises the two-size scheme to the paper's
    stated future work ("extending our current implementation to use more
    than two leaf node sizes"): a strictly increasing tuple of record
    sizes in bytes.  Leaves are born at the smallest size and promoted up
    the ladder on overflow; only a leaf at the largest size splits.  When
    set, it overrides ``small_leaf_bytes``/``large_leaf_bytes`` and
    ``use_small_leaves``.

    ``vectorized`` routes leaf filtering and counting through the numpy
    batch kernels (SoA leaf columns +
    :meth:`repro.core.query_region.QueryRegion2D.contains_batch`).  The
    kernels return bit-identical results to the scalar per-entry tests;
    ``vectorized=False`` keeps the pure-Python path (used by the parity
    suite and as the pre-change benchmark baseline).
    """

    small_leaf_bytes: Optional[int] = None
    large_leaf_bytes: Optional[int] = None
    max_depth: int = 20
    collapse_capacity: Optional[int] = None
    use_small_leaves: bool = True
    quad_pruning: bool = True
    leaf_size_ladder: Optional[Tuple[int, ...]] = None
    vectorized: bool = True

    def __post_init__(self) -> None:
        if self.leaf_size_ladder is not None:
            if len(self.leaf_size_ladder) < 1:
                raise ValueError("leaf_size_ladder must not be empty")
            sizes = self.leaf_size_ladder
            if any(a >= b for a, b in zip(sizes, sizes[1:])):
                raise ValueError(
                    f"leaf_size_ladder must be strictly increasing, got "
                    f"{sizes}")


@dataclass
class QuadTreeCounters:
    """Monotonic per-tree operation counters.

    These are plain integer attributes incremented unconditionally --
    the events are either rare (splits, promotions, collapses) or a
    single increment per operation, so the cost is negligible -- and are
    mirrored into a :class:`repro.obs.metrics.MetricsRegistry` by
    :meth:`repro.core.stripes.StripesIndex.attach_metrics`.
    """

    inserts: int = 0
    deletes: int = 0
    searches: int = 0
    leaf_promotions: int = 0
    leaf_splits: int = 0
    collapses: int = 0
    overflow_spills: int = 0

    def merge(self, other: "QuadTreeCounters") -> "QuadTreeCounters":
        for f in ("inserts", "deletes", "searches", "leaf_promotions",
                  "leaf_splits", "collapses", "overflow_spills"):
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self


@dataclass
class QuadTreeStats:
    """Structural statistics (used by the Section 5.1 reproduction).

    ``small_leaves``/``mid_leaves``/``large_leaves`` classify leaves by
    their position on the size ladder (bottom / interior / top);
    ``leaves_by_size`` gives the exact per-record-size histogram.
    """

    entries: int = 0
    nonleaf_nodes: int = 0
    small_leaves: int = 0
    mid_leaves: int = 0
    large_leaves: int = 0
    extension_records: int = 0
    height: int = 0
    leaf_slots: int = 0
    leaves_by_size: Dict[int, int] = field(default_factory=dict)

    @property
    def leaf_nodes(self) -> int:
        return self.small_leaves + self.mid_leaves + self.large_leaves

    @property
    def leaf_occupancy(self) -> float:
        """Fraction of leaf entry slots in use (0.0 for an empty tree)."""
        return self.entries / self.leaf_slots if self.leaf_slots else 0.0


class DualQuadTree:
    """One sub-index: a bucket PR quadtree over one dual space."""

    def __init__(self, space: DualSpace, store: RecordStore,
                 config: QuadTreeConfig = QuadTreeConfig(),
                 root: Optional[Tuple[int, bool, int]] = None):
        """``root`` attaches to an existing persisted tree instead of
        creating a fresh empty one: a ``(root_rid, root_is_leaf, count)``
        triple, used by :mod:`repro.core.persistence`."""
        self.space = space
        self.store = store
        self.config = config
        self.codec = NodeCodec(space.d, space.float32)

        page_size = store.pool.pagefile.page_size
        if config.leaf_size_ladder is not None:
            self.leaf_ladder = list(config.leaf_size_ladder)
        else:
            # A full-page record: one slot per page (header 4 B + 1-bit
            # bitmap); the default small record packs two per page.
            large = (config.large_leaf_bytes
                     if config.large_leaf_bytes is not None
                     else page_size - 5)
            small = (config.small_leaf_bytes
                     if config.small_leaf_bytes is not None
                     else (page_size - 6) // 2)
            if small > large:
                raise ValueError(
                    "small leaf records cannot exceed large ones")
            self.leaf_ladder = ([large] if not config.use_small_leaves
                                or small == large else [small, large])
        self.small_bytes = self.leaf_ladder[0]
        self.large_bytes = self.leaf_ladder[-1]
        self.leaf_capacities = [self.codec.leaf_capacity(size)
                                for size in self.leaf_ladder]
        if any(a >= b for a, b in zip(self.leaf_capacities,
                                      self.leaf_capacities[1:])):
            # Equal-capacity rungs would leave an over-full non-top leaf
            # with no rung to promote into (the overflow-chain path is
            # reserved for maximum-depth top-rung leaves).
            raise ValueError(
                f"leaf size ladder {self.leaf_ladder} must yield strictly "
                f"increasing capacities, got {self.leaf_capacities}")
        self._ladder_index = {size: i
                              for i, size in enumerate(self.leaf_ladder)}
        self.small_capacity = self.leaf_capacities[0]
        self.large_capacity = self.leaf_capacities[-1]
        self.ext_capacity = self.codec.extension_capacity(self.large_bytes)
        self.collapse_capacity = (config.collapse_capacity
                                  if config.collapse_capacity is not None
                                  else self.large_capacity)
        self.cache: NodeCache[Node] = NodeCache(
            store, self.codec.serialize, self.codec.deserialize)

        # Plain attributes (not properties): these sit on query hot paths.
        self.d = space.d
        self.fanout = self.codec.fanout
        self._vectorized = config.vectorized
        # Per-level side-length table, grown lazily: a node's geometry
        # depends only on its level, so the tuples are built once per
        # level instead of once per visit.
        self._sides_table: List[Tuple[Tuple[float, ...],
                                      Tuple[float, ...]]] = []
        # Per-child-index plane codes of Eq. 1: _child_codes[idx][i] is
        # the quad code of child ``idx`` in plane ``i``.
        self._child_codes = tuple(
            tuple((idx >> (2 * i)) & 3 for i in range(self.d))
            for idx in range(self.fanout))
        # Hoisted hot-path flags: attribute chains cost on every visit.
        self._quad_pruning = config.quad_pruning
        self._fast_descent = (self.d == 2 and config.vectorized
                              and config.quad_pruning)
        self.counters = QuadTreeCounters()
        #: Optional :class:`repro.obs.tracer.Tracer`; when set, structural
        #: events (splits, promotions, collapses, spills) are recorded.
        self.tracer = None
        if root is None:
            self.count = 0
            self._root_rid = self.cache.insert(
                self.small_bytes,
                self._new_leaf(0, self._origin(), self._origin()))
            self._root_is_leaf = True
        else:
            self._root_rid, self._root_is_leaf, self.count = root

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #

    def _origin(self) -> Tuple[float, ...]:
        return (0.0,) * self.d

    def _child_sides(self, level: int) -> Tuple[Tuple[float, ...],
                                                Tuple[float, ...]]:
        """Side lengths of a node at ``level`` (root is level 0).

        Served from a per-level table built on first use; levels are
        bounded by ``max_depth`` plus the overflow-chain depth, so the
        table stays tiny while every tree visit skips the tuple rebuild.
        """
        table = self._sides_table
        while len(table) <= level:
            scale = 1.0 / (1 << len(table))
            table.append((
                tuple(e * scale for e in self.space.velocity_extent),
                tuple(e * scale for e in self.space.position_extent)))
        return table[level]

    def _child_index(self, node: NonLeafNode, point: DualPoint) -> int:
        """Eq. 1: index of the child quad containing ``point``."""
        sl_v, sl_p = self._child_sides(node.level + 1)
        idx = 0
        for i in range(self.d):
            v_hi = 1 if point.v[i] >= node.v_corner[i] + sl_v[i] else 0
            p_hi = 1 if point.p[i] >= node.p_corner[i] + sl_p[i] else 0
            idx |= ((p_hi << 1) | v_hi) << (2 * i)
        return idx

    def _child_corner(self, node: NonLeafNode,
                      idx: int) -> Tuple[Tuple[float, ...],
                                         Tuple[float, ...]]:
        sl_v, sl_p = self._child_sides(node.level + 1)
        v_corner = []
        p_corner = []
        for i in range(self.d):
            code = (idx >> (2 * i)) & 3
            v_corner.append(node.v_corner[i] + (code & 1) * sl_v[i])
            p_corner.append(node.p_corner[i] + ((code >> 1) & 1) * sl_p[i])
        return tuple(v_corner), tuple(p_corner)

    @staticmethod
    def _new_leaf(level: int, v_corner: Tuple[float, ...],
                  p_corner: Tuple[float, ...],
                  entries: Optional[List[DualPoint]] = None) -> LeafNode:
        return LeafNode(level, v_corner, p_corner,
                        entries if entries is not None else [])

    # ------------------------------------------------------------------ #
    # Insert (Section 4.3)
    # ------------------------------------------------------------------ #

    def insert(self, point: DualPoint) -> None:
        """Insert a dual point (single root-to-leaf path)."""
        self.counters.inserts += 1
        if self._root_is_leaf:
            leaf = self.cache.get(self._root_rid)
            self._root_rid, self._root_is_leaf = self._leaf_insert(
                self._root_rid, leaf, point)
            self.count += 1
            return
        rid = self._root_rid
        while True:
            node = self.cache.get(rid)
            node.size += 1
            idx = self._child_index(node, point)
            child_rid = node.children[idx]
            if child_rid == INVALID_RID:
                # Case 1: target leaf does not exist yet.
                v_corner, p_corner = self._child_corner(node, idx)
                leaf = self._new_leaf(node.level + 1, v_corner, p_corner,
                                      [point])
                node.children[idx] = self.cache.insert(self.small_bytes, leaf)
                node.child_is_leaf[idx] = True
                self.cache.update(rid, node)
                self.count += 1
                return
            if node.child_is_leaf[idx]:
                leaf = self.cache.get(child_rid)
                new_rid, is_leaf = self._leaf_insert(child_rid, leaf, point)
                node.children[idx] = new_rid
                node.child_is_leaf[idx] = is_leaf
                self.cache.update(rid, node)
                self.count += 1
                return
            self.cache.update(rid, node)
            rid = child_rid

    def _leaf_insert(self, rid: int, leaf: LeafNode,
                     point: DualPoint) -> Tuple[int, bool]:
        """Cases 2/3: insert into an existing leaf.  Returns the (possibly
        new) record id and is-leaf flag the parent should point at."""
        ladder_idx = self._ladder_index[self.store.record_size_of(rid)]
        if leaf.overflow == INVALID_RID:
            if len(leaf.entries) < self.leaf_capacities[ladder_idx]:
                # Case 2: room available.
                leaf.entries.append(point)
                self.cache.update(rid, leaf)
                return rid, True
        entries = self._leaf_all_entries(leaf)
        entries.append(point)
        if ladder_idx + 1 < len(self.leaf_ladder):
            # Overflow of a non-top leaf: promote it up the size ladder.
            for next_idx in range(ladder_idx + 1, len(self.leaf_ladder)):
                if len(entries) <= self.leaf_capacities[next_idx]:
                    promoted = self._new_leaf(leaf.level, leaf.v_corner,
                                              leaf.p_corner, entries)
                    new_rid = self.cache.insert(
                        self.leaf_ladder[next_idx], promoted)
                    self.cache.free(rid)
                    self.counters.leaf_promotions += 1
                    if self.tracer is not None:
                        self.tracer.event(
                            "quadtree.leaf_promotion", level=leaf.level,
                            to_bytes=self.leaf_ladder[next_idx])
                    return new_rid, True
        if leaf.level >= self.config.max_depth:
            # Cannot split further: spill into an overflow chain.
            self._write_leaf_chain(rid, leaf, entries)
            self.counters.overflow_spills += 1
            if self.tracer is not None:
                self.tracer.event("quadtree.overflow_spill",
                                  level=leaf.level, entries=len(entries))
            return rid, True
        # Case 3: split -- the leaf becomes a non-leaf subtree.
        new_rid, is_leaf = self._build_subtree(
            leaf.level, leaf.v_corner, leaf.p_corner, entries)
        self._free_leaf_chain(rid, leaf)
        self.counters.leaf_splits += 1
        if self.tracer is not None:
            self.tracer.event("quadtree.leaf_split", level=leaf.level,
                              entries=len(entries))
        return new_rid, is_leaf

    def _build_subtree(self, level: int, v_corner: Tuple[float, ...],
                       p_corner: Tuple[float, ...],
                       entries: List[DualPoint]) -> Tuple[int, bool]:
        """Materialise a subtree for ``entries`` (used by splits and
        under-fill collapses).  Only non-empty children are created."""
        n = len(entries)
        for idx, capacity in enumerate(self.leaf_capacities):
            if n <= capacity:
                leaf = self._new_leaf(level, v_corner, p_corner, entries)
                return self.cache.insert(self.leaf_ladder[idx], leaf), True
        if level >= self.config.max_depth:
            leaf = self._new_leaf(level, v_corner, p_corner, [])
            rid = self.cache.insert(self.large_bytes, leaf)
            self._write_leaf_chain(rid, leaf, entries)
            return rid, True
        node = NonLeafNode(level, v_corner, p_corner,
                           [INVALID_RID] * self.fanout,
                           [False] * self.fanout, n)
        groups: Dict[int, List[DualPoint]] = {}
        for entry in entries:
            groups.setdefault(self._child_index(node, entry), []).append(entry)
        for idx, group in groups.items():
            cv, cp = self._child_corner(node, idx)
            child_rid, child_leaf = self._build_subtree(
                level + 1, cv, cp, group)
            node.children[idx] = child_rid
            node.child_is_leaf[idx] = child_leaf
        return self.cache.insert(self.codec.nonleaf_record_size, node), False

    def bulk_load(self, points: List[DualPoint]) -> None:
        """Replace the tree's contents with ``points``, built bottom-up in
        one recursive pass (used by :meth:`StripesIndex.bulk_load`).

        Ownership note: when ``points`` is already a list the tree takes
        it over without copying (it may become a leaf's entry list); pass
        a copy if the caller keeps mutating it.
        """
        if self.count:
            raise RuntimeError("bulk_load requires an empty tree")
        if not isinstance(points, list):
            points = list(points)
        if not points:
            return
        if self._root_is_leaf:
            # An empty tree's root is one empty leaf record; free it
            # directly rather than walking a subtree that cannot exist.
            self.cache.free(self._root_rid)
        else:
            self._free_subtree(self._root_rid, self._root_is_leaf)
        self._root_rid, self._root_is_leaf = self._build_subtree(
            0, self._origin(), self._origin(), points)
        self.count = len(points)

    # ------------------------------------------------------------------ #
    # Batched writes (grouped descent)
    # ------------------------------------------------------------------ #

    def insert_batch(self, points: List[DualPoint],
                     vs: Optional[np.ndarray] = None,
                     ps: Optional[np.ndarray] = None) -> None:
        """Insert many dual points with one grouped descent.

        Instead of one root-to-leaf pass per point, every non-leaf node on
        any insertion path is visited once: the whole group's child quads
        are classified with one vectorized Eq. 1 evaluation, the group is
        partitioned by child, and each destination leaf applies its
        admission / promotion / split / overflow rewrite once per group
        (overfull groups fall back to the bottom-up
        :meth:`_build_subtree` pass splits already use).  Non-leaf size
        updates are coalesced into one :meth:`NodeCache.update_many`
        batch at the end, pinning each touched page once.

        The resulting tree is *query-equivalent* to inserting the points
        one by one (same entries, same leaf membership); split/promotion
        event counts may differ because a group crosses a capacity
        boundary in one step.  ``vs``/``ps`` are optional pre-built
        ``(n, d)`` float64 coordinate columns (from
        :meth:`repro.core.dual.DualSpace.to_dual_batch`); they are derived
        from ``points`` when absent.  In scalar mode
        (``vectorized=False``) this is exactly the sequential loop.
        """
        n = len(points)
        if n == 0:
            return
        if not self._vectorized or n < _WRITE_GROUP_MIN:
            for point in points:
                self.insert(point)
            return
        if vs is None or ps is None:
            vs = np.array([e.v for e in points], dtype=np.float64)
            ps = np.array([e.p for e in points], dtype=np.float64)
        self.counters.inserts += n
        self.count += n
        pending: Dict[int, NonLeafNode] = {}
        if self._root_is_leaf:
            leaf = self.cache.get(self._root_rid)
            self._root_rid, self._root_is_leaf = self._leaf_insert_group(
                self._root_rid, leaf, points)
        else:
            self._insert_group(self._root_rid, points, vs, ps, pending)
        if pending:
            self.cache.update_many(pending.items())

    def _classify_group(self, node: NonLeafNode, vs: np.ndarray,
                        ps: np.ndarray):
        """Vectorized Eq. 1 over a group: yields ``(child_idx, rows)``
        pairs where ``rows`` selects the group's points landing in that
        child quad.  Comparisons are the same float64 ``>=`` tests as
        :meth:`_child_index`, so every point lands exactly where the
        scalar descent would put it."""
        sl_v, sl_p = self._child_sides(node.level + 1)
        codes = np.zeros(vs.shape[0], dtype=np.int64)
        for i in range(self.d):
            v_hi = vs[:, i] >= node.v_corner[i] + sl_v[i]
            p_hi = ps[:, i] >= node.p_corner[i] + sl_p[i]
            codes |= ((p_hi.astype(np.int64) << 1)
                      | v_hi.astype(np.int64)) << (2 * i)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        uniq, starts = np.unique(sorted_codes, return_index=True)
        bounds = list(starts) + [codes.shape[0]]
        for k, child_idx in enumerate(uniq.tolist()):
            yield child_idx, order[bounds[k]: bounds[k + 1]]

    def _insert_group(self, rid: int, points: List[DualPoint],
                      vs: np.ndarray, ps: np.ndarray,
                      pending: Dict[int, NonLeafNode]) -> None:
        """Insert a group into the non-leaf subtree at ``rid`` (non-leaf
        record ids never change, so nothing is returned)."""
        node = self.cache.get(rid)
        node.size += len(points)
        for child_idx, rows in self._classify_group(node, vs, ps):
            gpoints = [points[j] for j in rows.tolist()]
            child_rid = node.children[child_idx]
            if child_rid == INVALID_RID:
                cv, cp = self._child_corner(node, child_idx)
                crid, cleaf = self._build_subtree(
                    node.level + 1, cv, cp, gpoints)
                node.children[child_idx] = crid
                node.child_is_leaf[child_idx] = cleaf
            elif node.child_is_leaf[child_idx]:
                crid, cleaf = self._leaf_insert_group(
                    child_rid, self.cache.get(child_rid), gpoints)
                node.children[child_idx] = crid
                node.child_is_leaf[child_idx] = cleaf
            else:
                self._insert_group(child_rid, gpoints,
                                   vs[rows], ps[rows], pending)
        pending[rid] = node

    def _leaf_insert_group(self, rid: int, leaf: LeafNode,
                           gpoints: List[DualPoint]) -> Tuple[int, bool]:
        """Group twin of :meth:`_leaf_insert`: admit, promote, spill, or
        split *once* for the whole group."""
        ladder_idx = self._ladder_index[self.store.record_size_of(rid)]
        if (leaf.overflow == INVALID_RID
                and len(leaf.entries) + len(gpoints)
                <= self.leaf_capacities[ladder_idx]):
            leaf.entries.extend(gpoints)
            self.cache.update(rid, leaf)
            return rid, True
        entries = self._leaf_all_entries(leaf)
        entries.extend(gpoints)
        if ladder_idx + 1 < len(self.leaf_ladder):
            for next_idx in range(ladder_idx + 1, len(self.leaf_ladder)):
                if len(entries) <= self.leaf_capacities[next_idx]:
                    promoted = self._new_leaf(leaf.level, leaf.v_corner,
                                              leaf.p_corner, entries)
                    new_rid = self.cache.insert(
                        self.leaf_ladder[next_idx], promoted)
                    self.cache.free(rid)
                    self.counters.leaf_promotions += 1
                    if self.tracer is not None:
                        self.tracer.event(
                            "quadtree.leaf_promotion", level=leaf.level,
                            to_bytes=self.leaf_ladder[next_idx])
                    return new_rid, True
        if leaf.level >= self.config.max_depth:
            if self.store.record_size_of(rid) != self.large_bytes:
                # A group can overshoot every ladder rung at once; the
                # chain head must live in a top-rung record (the scalar
                # path reaches chains only via top-rung leaves).
                fresh = self._new_leaf(leaf.level, leaf.v_corner,
                                       leaf.p_corner, [])
                fresh.overflow = leaf.overflow
                new_rid = self.cache.insert(self.large_bytes, fresh)
                self.cache.free(rid)
                self.counters.leaf_promotions += 1
                rid, leaf = new_rid, fresh
            self._write_leaf_chain(rid, leaf, entries)
            self.counters.overflow_spills += 1
            if self.tracer is not None:
                self.tracer.event("quadtree.overflow_spill",
                                  level=leaf.level, entries=len(entries))
            return rid, True
        new_rid, is_leaf = self._build_subtree(
            leaf.level, leaf.v_corner, leaf.p_corner, entries)
        self._free_leaf_chain(rid, leaf)
        self.counters.leaf_splits += 1
        if self.tracer is not None:
            self.tracer.event("quadtree.leaf_split", level=leaf.level,
                              entries=len(entries))
        return new_rid, is_leaf

    def delete_batch(self, points: List[DualPoint],
                     vs: Optional[np.ndarray] = None,
                     ps: Optional[np.ndarray] = None) -> List[bool]:
        """Remove many entries with one grouped descent.

        Returns one removed-flag per input point, in input order (the
        batched twin of :meth:`delete`'s boolean).  Each touched leaf
        rewrites its entry list / overflow chain once for all its group's
        removals, and each non-leaf on the way down is re-sized and
        rewritten once.  Under-filled nodes collapse *after* their whole
        group is applied (bottom-up), so collapse timing differs from
        sequential replay, but the surviving entries -- and therefore
        every query answer -- are identical.
        """
        n = len(points)
        flags = [False] * n
        if n == 0:
            return flags
        if not self._vectorized or n < _WRITE_GROUP_MIN:
            return [self.delete(point) for point in points]
        self.counters.deletes += n
        if vs is None or ps is None:
            vs = np.array([e.v for e in points], dtype=np.float64)
            ps = np.array([e.p for e in points], dtype=np.float64)
        if self._root_is_leaf:
            leaf = self.cache.get(self._root_rid)
            self._leaf_delete_group(self._root_rid, leaf, points,
                                    range(n), flags)
            return flags
        new_rid, new_is_leaf, _ = self._delete_group(
            self._root_rid, points, list(range(n)), vs, ps, flags)
        self._root_rid = new_rid
        self._root_is_leaf = new_is_leaf
        return flags

    def _delete_group(self, rid: int, points: List[DualPoint],
                      idxs: List[int], vs: np.ndarray, ps: np.ndarray,
                      flags: List[bool]) -> Tuple[int, bool, int]:
        """Delete a group from the non-leaf subtree at ``rid``; returns
        ``(new_rid, new_is_leaf, removed)`` for the parent pointer."""
        node = self.cache.get(rid)
        removed = 0
        for child_idx, rows in self._classify_group(node, vs, ps):
            child_rid = node.children[child_idx]
            if child_rid == INVALID_RID:
                continue
            rows_list = rows.tolist()
            gpoints = [points[j] for j in rows_list]
            gidxs = [idxs[j] for j in rows_list]
            if node.child_is_leaf[child_idx]:
                removed += self._leaf_delete_group(
                    child_rid, self.cache.get(child_rid), gpoints, gidxs,
                    flags)
            else:
                crid, cleaf, r = self._delete_group(
                    child_rid, gpoints, gidxs, vs[rows], ps[rows], flags)
                node.children[child_idx] = crid
                node.child_is_leaf[child_idx] = cleaf
                removed += r
        if not removed:
            return rid, False, 0
        node.size -= removed
        self.cache.update(rid, node)
        if node.size <= self.collapse_capacity:
            entries = self._subtree_entries(rid, is_leaf=False)
            self._free_subtree(rid, is_leaf=False)
            self.counters.collapses += 1
            if self.tracer is not None:
                self.tracer.event("quadtree.collapse", level=node.level,
                                  entries=len(entries))
            return (*self._build_subtree(node.level, node.v_corner,
                                         node.p_corner, entries), removed)
        return rid, False, removed

    def _leaf_delete_group(self, rid: int, leaf: LeafNode,
                           gpoints: List[DualPoint], gidxs,
                           flags: List[bool]) -> int:
        """Remove every matching group point from one leaf, rewriting the
        entry list / overflow chain once."""
        entries = self._leaf_all_entries(leaf)
        removed = 0
        for j, point in zip(gidxs, gpoints):
            pos = self._find_entry(entries, point)
            if pos is not None:
                entries.pop(pos)
                flags[j] = True
                removed += 1
        if not removed:
            return 0
        if leaf.overflow != INVALID_RID:
            self._write_leaf_chain(rid, leaf, entries)
        else:
            leaf.entries = entries
            self.cache.update(rid, leaf)
        self.count -= removed
        return removed

    def update_batch(self, pairs) -> int:
        """Apply many ``(old, new)`` dual-point updates; ``old`` may be
        ``None`` (plain insert).  Returns how many olds were removed.

        Deletes run before inserts, which matches sequential
        delete-then-insert replay only while each oid appears in at most
        one pair; batches with repeated oids fall back to the sequential
        path to preserve per-pair ordering.
        """
        pairs = list(pairs)
        if not pairs:
            return 0
        oids = [new.oid for _, new in pairs]
        if len(set(oids)) != len(oids):
            removed = 0
            for old, new in pairs:
                if old is not None and self.delete(old):
                    removed += 1
                self.insert(new)
            return removed
        olds = [old for old, _ in pairs if old is not None]
        flags = self.delete_batch(olds)
        self.insert_batch([new for _, new in pairs])
        return sum(flags)

    # ------------------------------------------------------------------ #
    # Overflow chains (maximum-depth leaves only)
    # ------------------------------------------------------------------ #

    def _leaf_all_entries(self, leaf: LeafNode,
                          out: Optional[List[DualPoint]] = None
                          ) -> List[DualPoint]:
        """Entries of the leaf including any overflow extensions.

        ``out`` appends into the caller's accumulator instead of building
        (and having the caller re-copy) an intermediate list per record --
        the bulk-collection paths (:meth:`all_entries`, subtree collapses,
        whole-subtree reporting) pass one shared buffer down the walk.
        """
        entries = out if out is not None else []
        entries.extend(leaf.entries)
        rid = leaf.overflow
        while rid != INVALID_RID:
            ext = self.cache.get(rid)
            entries.extend(ext.entries)
            rid = ext.overflow
        return entries

    def _leaf_chain_size(self, leaf: LeafNode) -> int:
        """Entries of the leaf including any overflow extensions, counted
        without materializing them."""
        total = leaf.size
        rid = leaf.overflow
        while rid != INVALID_RID:
            ext = self.cache.get(rid)
            total += ext.size
            rid = ext.overflow
        return total

    def _write_leaf_chain(self, rid: int, leaf: LeafNode,
                          entries: List[DualPoint]) -> None:
        """Rewrite the leaf and its overflow chain to hold ``entries``."""
        old = leaf.overflow
        while old != INVALID_RID:
            ext = self.cache.get(old)
            nxt = ext.overflow
            self.cache.free(old)
            old = nxt
        leaf.entries = entries[: self.large_capacity]
        rest = entries[self.large_capacity:]
        head = INVALID_RID
        for start in range(
                (len(rest) // self.ext_capacity) * self.ext_capacity,
                -1, -self.ext_capacity):
            chunk = rest[start: start + self.ext_capacity]
            if not chunk:
                continue
            head = self.cache.insert(self.large_bytes,
                                     LeafExtension(chunk, head))
        leaf.overflow = head
        self.cache.update(rid, leaf)

    def _free_leaf_chain(self, rid: int, leaf: LeafNode) -> None:
        ext_rid = leaf.overflow
        while ext_rid != INVALID_RID:
            ext = self.cache.get(ext_rid)
            nxt = ext.overflow
            self.cache.free(ext_rid)
            ext_rid = nxt
        self.cache.free(rid)

    # ------------------------------------------------------------------ #
    # Delete (Section 4.4)
    # ------------------------------------------------------------------ #

    def delete(self, point: DualPoint) -> bool:
        """Remove the entry matching ``point`` (oid and coordinates).

        Returns False (leaving the tree unchanged, modulo legal under-fill
        collapses) when no such entry exists -- the caller then treats the
        update as an insert of a new object (Section 4.4).
        """
        self.counters.deletes += 1
        if self._root_is_leaf:
            leaf = self.cache.get(self._root_rid)
            return self._leaf_delete(self._root_rid, leaf, point)
        decremented: List[int] = []
        parent_rid = INVALID_RID
        parent_idx = -1
        rid = self._root_rid
        while True:
            node = self.cache.get(rid)
            if node.size - 1 <= self.collapse_capacity:
                # Case 2: under-filled non-leaf -- collapse to a leaf.
                return self._collapse_and_delete(
                    rid, node, parent_rid, parent_idx, point, decremented)
            idx = self._child_index(node, point)
            child_rid = node.children[idx]
            if child_rid == INVALID_RID:
                self._rollback(decremented)
                return False
            node.size -= 1
            self.cache.update(rid, node)
            decremented.append(rid)
            if node.child_is_leaf[idx]:
                leaf = self.cache.get(child_rid)
                if self._leaf_delete(child_rid, leaf, point):
                    return True
                self._rollback(decremented)
                return False
            parent_rid, parent_idx = rid, idx
            rid = child_rid

    def _leaf_delete(self, rid: int, leaf: LeafNode,
                     point: DualPoint) -> bool:
        entries = self._leaf_all_entries(leaf)
        pos = self._find_entry(entries, point)
        if pos is None:
            return False
        entries.pop(pos)
        if leaf.overflow != INVALID_RID:
            self._write_leaf_chain(rid, leaf, entries)
        else:
            leaf.entries = entries
            self.cache.update(rid, leaf)
        self.count -= 1
        return True

    def _collapse_and_delete(self, rid: int, node: NonLeafNode,
                             parent_rid: int, parent_idx: int,
                             point: DualPoint,
                             decremented: List[int]) -> bool:
        entries = self._subtree_entries(rid, is_leaf=False)
        pos = self._find_entry(entries, point)
        if pos is None:
            self._rollback(decremented)
            return False
        entries.pop(pos)
        self._free_subtree(rid, is_leaf=False)
        # With the default threshold (one leaf's capacity) the rebuild is
        # always a single leaf; a larger configured threshold can rebuild
        # a (smaller) subtree instead.
        self.counters.collapses += 1
        if self.tracer is not None:
            self.tracer.event("quadtree.collapse", level=node.level,
                              entries=len(entries))
        new_rid, new_is_leaf = self._build_subtree(
            node.level, node.v_corner, node.p_corner, entries)
        if parent_rid == INVALID_RID:
            self._root_rid = new_rid
            self._root_is_leaf = new_is_leaf
        else:
            parent = self.cache.get(parent_rid)
            parent.children[parent_idx] = new_rid
            parent.child_is_leaf[parent_idx] = new_is_leaf
            self.cache.update(parent_rid, parent)
        self.count -= 1
        return True

    @staticmethod
    def _find_entry(entries: List[DualPoint],
                    point: DualPoint) -> Optional[int]:
        for i, entry in enumerate(entries):
            if (entry.oid == point.oid and entry.v == point.v
                    and entry.p == point.p):
                return i
        # Fall back to oid-only matching: coordinates recomputed from stale
        # caller state can drift by rounding, but an oid appears in exactly
        # one leaf of a sub-index under the one-entry-per-object discipline.
        for i, entry in enumerate(entries):
            if entry.oid == point.oid:
                return i
        return None

    def _rollback(self, decremented: List[int]) -> None:
        for rid in decremented:
            node = self.cache.get(rid)
            node.size += 1
            self.cache.update(rid, node)

    # ------------------------------------------------------------------ #
    # Search (Section 4.6.4)
    # ------------------------------------------------------------------ #

    def search(self, regions: Tuple[QueryRegion2D, ...],
               trace: Optional[DescentTrace] = None) -> List[DualPoint]:
        """Entries inside the query body given one region per dual plane.

        Per-plane region membership is exact per dimension but -- for
        window/moving queries in d >= 2 -- only *necessary* for a true
        match (each dimension may satisfy the query at a different time).
        Callers needing exact answers refine the returned candidates with
        the native-space predicate; :class:`repro.core.stripes.StripesIndex`
        does this by default.

        ``trace`` (a :class:`repro.obs.tracer.DescentTrace`) records the
        descent -- nodes visited, per-quad INSIDE/OVERLAP/DISJUNCT
        classifications, entries scanned -- at a small per-node cost; the
        default ``None`` leaves the hot path untouched.
        """
        if self._vectorized and trace is None:
            # The columnar descent, with the matching rows turned into
            # points only at the end.
            return points_from_columns(*self.search_columns(regions))
        if len(regions) != self.d:
            raise ValueError(
                f"expected {self.d} query regions, got {len(regions)}")
        self.counters.searches += 1
        results: List[DualPoint] = []
        if self._root_is_leaf:
            leaf = self.cache.get(self._root_rid)
            self._filter_leaf(leaf, regions, results, trace)
        else:
            self._search_nonleaf(self._root_rid, regions, results, trace, 0)
        return results

    def search_columns(self, regions: Tuple[QueryRegion2D, ...]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Matching entries as ``(oids, vs, ps)`` numpy columns.

        Column-typed variant of :meth:`search` for the vectorized hot
        path: the same descent, the same membership kernels, and the
        same descent-ordered answer -- but candidates never leave SoA
        form, so the caller's refinement step (the exact common-instant
        check in :class:`repro.core.stripes`) can run directly on the
        returned columns without rebuilding arrays from
        :class:`DualPoint` objects.  Row ``k`` of each column describes
        the ``k``-th entry :meth:`search` would return.
        """
        if len(regions) != self.d:
            raise ValueError(
                f"expected {self.d} query regions, got {len(regions)}")
        self.counters.searches += 1
        acc = _DeferredSegments()
        if self._root_is_leaf:
            self._filter_leaf(self.cache.get(self._root_rid), regions, acc)
        else:
            self._search_nonleaf(self._root_rid, regions, acc)
        return self._resolve_columns(regions, acc)

    def _resolve_columns(self, regions: Tuple[QueryRegion2D, ...],
                         acc: "_DeferredSegments"
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kernel pass over the collected segments, staying columnar.

        Lit (all-INSIDE) rows bypass the kernels by forcing their mask
        range to True: re-testing them could disagree with the rectangle
        classification by an ulp at region boundaries, and the scalar
        path never tests them either.
        """
        segments = acc.segments
        d = self.d
        if not segments:
            return (np.empty(0, dtype=np.int64),
                    np.empty((0, d), dtype=np.float64),
                    np.empty((0, d), dtype=np.float64))
        soas = []
        lit_ranges = []
        any_pending = False
        off = 0
        for rec, lit in segments:
            # soa() unrolled: decoded columns are valid until the entries
            # are materialized; after that (and for in-memory records)
            # while the entry list is the same object at the same length.
            entries = rec._entries
            if entries is None or (rec._soa_entries is entries
                                   and rec._soa_len == len(entries)):
                soa = rec._soa
            else:
                soa = rec.soa(d)
            soas.append(soa)
            n = rec._soa_len
            if lit:
                lit_ranges.append((off, off + n))
            else:
                any_pending = True
            off += n
        if len(soas) == 1:
            oids, vs, ps = soas[0].oids, soas[0].vs, soas[0].ps
        else:
            oids = np.concatenate([s.oids for s in soas])
            vs = np.concatenate([s.vs for s in soas])
            ps = np.concatenate([s.ps for s in soas])
        if not any_pending:
            return oids, vs, ps
        mask = regions[0].contains_batch(vs[:, 0], ps[:, 0])
        for i in range(1, d):
            mask &= regions[i].contains_batch(vs[:, i], ps[:, i])
        for lo, hi in lit_ranges:
            mask[lo:hi] = True
        return oids[mask], vs[mask], ps[mask]

    def _point_matches(self, entry: DualPoint,
                       regions: Tuple[QueryRegion2D, ...]) -> bool:
        return all(regions[i].contains_point(entry.v[i], entry.p[i])
                   for i in range(self.d))

    #: Leaf records below this many entries are filtered by the scalar
    #: loop even in vectorized mode: numpy call overhead exceeds the
    #: per-entry test for very small batches.  Both paths are exact, so
    #: the threshold is purely a performance knob.
    _BATCH_MIN_ENTRIES = 8

    def _defer_overflow(self, rid: int, segments: List[tuple],
                        lit: bool = False) -> None:
        """Append an overflow chain's records as deferred segments."""
        while rid != INVALID_RID:
            ext = self.cache.get(rid)
            segments.append((ext, lit))
            rid = ext.overflow

    def _filter_leaf(self, leaf: LeafNode,
                     regions: Tuple[QueryRegion2D, ...],
                     results: "ResultSink",
                     trace: Optional[DescentTrace] = None) -> None:
        if isinstance(results, _DeferredSegments):
            segments = results.segments
            segments.append((leaf, False))
            if leaf.overflow != INVALID_RID:
                self._defer_overflow(leaf.overflow, segments)
            return
        if trace is not None:
            trace.leaf_visits += 1
            before = len(results)
        if self._vectorized:
            scanned = self._filter_leaf_batch(leaf, regions, results)
        else:
            entries = self._leaf_all_entries(leaf)
            scanned = len(entries)
            self._filter_entries_scalar(entries, regions, results)
        if trace is not None:
            trace.entries_scanned += scanned
            trace.candidates += len(results) - before

    def _filter_entries_scalar(self, entries: List[DualPoint],
                               regions: Tuple[QueryRegion2D, ...],
                               results: List[DualPoint]) -> None:
        if self.d == 2:
            # Hand-unrolled two-dimensional path: this loop runs once per
            # candidate entry and dominates query CPU time when the batch
            # kernels are disabled.
            r0, r1 = regions
            append = results.append
            for entry in entries:
                v = entry.v
                p = entry.p
                if (r0.contains_point(v[0], p[0])
                        and r1.contains_point(v[1], p[1])):
                    append(entry)
        else:
            for entry in entries:
                if self._point_matches(entry, regions):
                    results.append(entry)

    def _filter_leaf_batch(self, leaf: LeafNode,
                           regions: Tuple[QueryRegion2D, ...],
                           results: List[DualPoint]) -> int:
        """Vectorized leaf filter: one half-plane/polyline kernel per dual
        plane over the leaf's SoA columns, then a single mask reduction.

        Returns the number of entries scanned.  Overflow-chain records are
        filtered record by record (each has its own SoA view), preserving
        the scalar path's result order and page-access sequence.
        """
        d = self.d
        scanned = 0
        rec = leaf
        while True:
            entries = rec.entries
            n = len(entries)
            scanned += n
            if 0 < n < self._BATCH_MIN_ENTRIES:
                self._filter_entries_scalar(entries, regions, results)
            elif n:
                soa = rec.soa(d)
                vs = soa.vs
                ps = soa.ps
                mask = regions[0].contains_batch(vs[:, 0], ps[:, 0])
                for i in range(1, d):
                    mask &= regions[i].contains_batch(vs[:, i], ps[:, i])
                hits = np.nonzero(mask)[0]
                if hits.size == n:
                    results.extend(entries)
                elif hits.size:
                    results.extend([entries[j] for j in hits])
            nxt = rec.overflow
            if nxt == INVALID_RID:
                return scanned
            rec = self.cache.get(nxt)

    def _search_nonleaf(self, rid: int, regions: Tuple[QueryRegion2D, ...],
                        results: List[DualPoint],
                        trace: Optional[DescentTrace] = None,
                        depth: int = 0,
                        node: Optional[NonLeafNode] = None) -> None:
        # ``node`` is passed by the vectorized fast path below, which
        # already fetched (and IO-accounted) the child before recursing.
        if node is None:
            node = self.cache.get(rid)
        level1 = node.level + 1
        sides = self._sides_table
        sl_v, sl_p = (sides[level1] if level1 < len(sides)
                      else self._child_sides(level1))
        if trace is None and self._fast_descent:
            # Untraced two-dimensional fast path: classify each plane's
            # four quads once (Section 4.6.4), then iterate per-plane
            # codes instead of flat child indexes, so one DISJUNCT
            # plane-1 code skips its whole block of four children.
            # Child index (c1 << 2) | c0 ascends with the loops, so
            # visit order -- and therefore result order -- matches the
            # generic loop below exactly.  Gated on the vectorized flag
            # so ``vectorized=False`` stays the plain, obviously-correct
            # reference descent that the parity suite and the
            # before/after bench compare against.
            vc = node.v_corner
            pc = node.p_corner
            r0q, r1q = regions
            v_mid = vc[0] + sl_v[0]
            p_mid = pc[0] + sl_p[0]
            rel0 = r0q.classify_quads(vc[0], v_mid, v_mid + sl_v[0],
                                      pc[0], p_mid, p_mid + sl_p[0])
            v_mid = vc[1] + sl_v[1]
            p_mid = pc[1] + sl_p[1]
            rel1 = r1q.classify_quads(vc[1], v_mid, v_mid + sl_v[1],
                                      pc[1], p_mid, p_mid + sl_p[1])
            children = node.children
            child_is_leaf = node.child_is_leaf
            disjunct = RelPos.DISJUNCT
            inside = RelPos.INSIDE
            cache = self.cache
            cache_get = cache.get
            # The leaf-child lookup below is cache.get unrolled into
            # the loop: generation-checked object-cache probe, page
            # touch for identical IO accounting, decode only on miss.
            objects = cache._objects
            gens = cache.store._record_gen
            pool = cache.store.pool
            frames = pool._frames
            frames_move = frames.move_to_end
            iostats = pool.stats
            pool_fetch = pool.fetch
            segments = (results.segments
                        if type(results) is _DeferredSegments else None)
            invalid = INVALID_RID
            report_subtree = self._report_subtree
            search_nonleaf = self._search_nonleaf
            depth1 = depth + 1
            live0 = [(c0, rel0[c0]) for c0 in range(4)
                     if rel0[c0] is not disjunct]
            for c1 in range(4):
                r1 = rel1[c1]
                if r1 is disjunct:
                    continue
                base = c1 << 2
                for c0, r0 in live0:
                    idx = base + c0
                    child_rid = children[idx]
                    if child_rid == invalid:
                        continue
                    if r0 is inside and r1 is inside:
                        report_subtree(child_rid, child_is_leaf[idx],
                                       results)
                        continue
                    entry = objects.get(child_rid)
                    if entry is not None and \
                            entry[0] == gens.get(child_rid, 0):
                        page_id = child_rid // MAX_SLOTS_PER_PAGE
                        if page_id in frames:
                            # pool.touch unrolled: logical read
                            # counted, frame moved to MRU.
                            iostats.logical_reads += 1
                            frames_move(page_id)
                        else:
                            pool_fetch(page_id).unpin()
                        cache.hits += 1
                        child = entry[1]
                    else:
                        child = cache_get(child_rid)
                    if not child_is_leaf[idx]:
                        search_nonleaf(child_rid, regions, results,
                                       None, depth1, child)
                    elif segments is None:
                        self._filter_leaf(child, regions, results)
                    else:
                        # Inlined deferral for the common
                        # overflow-free leaf.
                        segments.append((child, False))
                        if child.overflow != invalid:
                            self._defer_overflow(child.overflow,
                                                 segments)
            return
        if trace is not None:
            trace.nonleaf_visits += 1
            if depth > trace.max_depth:
                trace.max_depth = depth
        if self._quad_pruning:
            # Classify each plane's four quads once (Section 4.6.4); the
            # shared-corner batch call evaluates each boundary point once
            # and each child then just combines its per-plane codes.
            plane_rel = []
            for i in range(self.d):
                v_mid = node.v_corner[i] + sl_v[i]
                p_mid = node.p_corner[i] + sl_p[i]
                plane_rel.append(regions[i].classify_quads(
                    node.v_corner[i], v_mid, v_mid + sl_v[i],
                    node.p_corner[i], p_mid, p_mid + sl_p[i]))
            if trace is not None:
                for quads in plane_rel:
                    for rel in quads:
                        if rel is RelPos.INSIDE:
                            trace.quads_inside += 1
                        elif rel is RelPos.DISJUNCT:
                            trace.quads_disjunct += 1
                        else:
                            trace.quads_overlap += 1
        child_codes = self._child_codes
        for idx in range(self.fanout):
            child_rid = node.children[idx]
            if child_rid == INVALID_RID:
                continue
            disjunct = False
            all_inside = True
            for i in range(self.d):
                code = child_codes[idx][i]
                if self.config.quad_pruning:
                    rel = plane_rel[i][code]
                else:
                    v1 = node.v_corner[i] + (code & 1) * sl_v[i]
                    p1 = node.p_corner[i] + ((code >> 1) & 1) * sl_p[i]
                    rel = regions[i].classify_rect(
                        v1, v1 + sl_v[i], p1, p1 + sl_p[i])
                    if trace is not None:
                        if rel is RelPos.INSIDE:
                            trace.quads_inside += 1
                        elif rel is RelPos.DISJUNCT:
                            trace.quads_disjunct += 1
                        else:
                            trace.quads_overlap += 1
                if rel is RelPos.DISJUNCT:
                    disjunct = True
                    break
                if rel is not RelPos.INSIDE:
                    all_inside = False
            if disjunct:
                if trace is not None:
                    trace.children_pruned += 1
                continue
            if all_inside:
                if trace is not None:
                    trace.children_reported += 1
                self._report_subtree(child_rid, node.child_is_leaf[idx],
                                     results, trace)
            elif node.child_is_leaf[idx]:
                leaf = self.cache.get(child_rid)
                if trace is not None:
                    trace.children_recursed += 1
                    if depth + 1 > trace.max_depth:
                        trace.max_depth = depth + 1
                self._filter_leaf(leaf, regions, results, trace)
            else:
                if trace is not None:
                    trace.children_recursed += 1
                self._search_nonleaf(child_rid, regions, results, trace,
                                     depth + 1)

    def count_in_regions(self, regions: Tuple[QueryRegion2D, ...]) -> int:
        """Number of entries inside the query body.

        Unlike :meth:`search`, subtrees classified INSIDE contribute their
        stored ``size`` counter (Section 4.2) without reading a single
        leaf page -- the aggregate-query payoff of keeping sizes in
        non-leaf nodes.  Exact for time-slice query regions; for
        window/moving queries the result counts region candidates (a
        superset of true matches, see :meth:`search`).
        """
        if len(regions) != self.d:
            raise ValueError(
                f"expected {self.d} query regions, got {len(regions)}")
        if self._root_is_leaf:
            leaf = self.cache.get(self._root_rid)
            return self._count_leaf(leaf, regions)
        return self._count_nonleaf(self._root_rid, regions)

    def _count_leaf(self, leaf: LeafNode,
                    regions: Tuple[QueryRegion2D, ...]) -> int:
        """Matching entries in a leaf (and its overflow chain)."""
        if not self._vectorized:
            return sum(1 for e in self._leaf_all_entries(leaf)
                       if self._point_matches(e, regions))
        d = self.d
        total = 0
        rec = leaf
        while True:
            if rec.size:
                soa = rec.soa(d)
                mask = regions[0].contains_batch(soa.vs[:, 0], soa.ps[:, 0])
                for i in range(1, d):
                    mask &= regions[i].contains_batch(soa.vs[:, i],
                                                      soa.ps[:, i])
                total += int(np.count_nonzero(mask))
            nxt = rec.overflow
            if nxt == INVALID_RID:
                return total
            rec = self.cache.get(nxt)

    def _count_nonleaf(self, rid: int,
                       regions: Tuple[QueryRegion2D, ...]) -> int:
        node = self.cache.get(rid)
        sl_v, sl_p = self._child_sides(node.level + 1)
        plane_rel = []
        for i in range(self.d):
            v_mid = node.v_corner[i] + sl_v[i]
            p_mid = node.p_corner[i] + sl_p[i]
            plane_rel.append(regions[i].classify_quads(
                node.v_corner[i], v_mid, v_mid + sl_v[i],
                node.p_corner[i], p_mid, p_mid + sl_p[i]))
        total = 0
        child_codes = self._child_codes
        for idx in range(self.fanout):
            child_rid = node.children[idx]
            if child_rid == INVALID_RID:
                continue
            disjunct = False
            all_inside = True
            for i in range(self.d):
                rel = plane_rel[i][child_codes[idx][i]]
                if rel is RelPos.DISJUNCT:
                    disjunct = True
                    break
                if rel is not RelPos.INSIDE:
                    all_inside = False
            if disjunct:
                continue
            if node.child_is_leaf[idx]:
                leaf = self.cache.get(child_rid)
                if all_inside:
                    total += self._leaf_chain_size(leaf)
                else:
                    total += self._count_leaf(leaf, regions)
            elif all_inside:
                # The stored subtree size: no leaf pages are read.
                total += self.cache.get(child_rid).size
            else:
                total += self._count_nonleaf(child_rid, regions)
        return total

    def _report_subtree(self, rid: int, is_leaf: bool,
                        results: List[DualPoint],
                        trace: Optional[DescentTrace] = None) -> None:
        if is_leaf:
            leaf = self.cache.get(rid)
            if trace is None:
                if type(results) is _DeferredSegments:
                    # Lit segments: reported wholesale, never re-tested.
                    segments = results.segments
                    segments.append((leaf, True))
                    if leaf.overflow != INVALID_RID:
                        self._defer_overflow(leaf.overflow, segments,
                                             lit=True)
                    return
                self._leaf_all_entries(leaf, out=results)
                return
            before = len(results)
            self._leaf_all_entries(leaf, out=results)
            # Reported wholesale (all-INSIDE): entries become candidates
            # without any per-entry geometry test.
            trace.leaf_visits += 1
            trace.entries_reported += len(results) - before
            trace.candidates += len(results) - before
            return
        node = self.cache.get(rid)
        if trace is not None:
            trace.nonleaf_visits += 1
        for idx in node.present_children():
            self._report_subtree(node.children[idx], node.child_is_leaf[idx],
                                 results, trace)

    # ------------------------------------------------------------------ #
    # Bulk access, teardown, statistics
    # ------------------------------------------------------------------ #

    def all_entries(self) -> List[DualPoint]:
        """Every stored dual point (test and collapse helper)."""
        return self._subtree_entries(self._root_rid, self._root_is_leaf)

    def _subtree_entries(self, rid: int, is_leaf: bool) -> List[DualPoint]:
        """Entries of a subtree, appended into one shared buffer.

        The recursion threads a single output list instead of
        concatenating per-child copies at every level, so collecting a
        subtree of ``n`` entries is O(n) appends rather than O(n * height)
        copied elements.  Page accesses are identical to the naive walk.
        """
        entries: List[DualPoint] = []
        self._collect_entries(rid, is_leaf, entries)
        return entries

    def _collect_entries(self, rid: int, is_leaf: bool,
                         out: List[DualPoint]) -> None:
        if is_leaf:
            self._leaf_all_entries(self.cache.get(rid), out)
            return
        node = self.cache.get(rid)
        for idx in node.present_children():
            self._collect_entries(node.children[idx],
                                  node.child_is_leaf[idx], out)

    def _free_subtree(self, rid: int, is_leaf: bool) -> None:
        if is_leaf:
            leaf = self.cache.get(rid)
            self._free_leaf_chain(rid, leaf)
            return
        node = self.cache.get(rid)
        for idx in node.present_children():
            self._free_subtree(node.children[idx], node.child_is_leaf[idx])
        self.cache.free(rid)

    def destroy(self) -> None:
        """Free every record of this tree (used at index rotation) and
        detach its node cache from the shared buffer pool.

        The detach matters for long-running services: the pool outlives
        each rotating sub-index, and an undetached cache would stay on the
        pool's eviction-listener list -- leaking every decoded node object
        the retired tree ever cached and paying a dead callback per
        eviction forever after.
        """
        self._free_subtree(self._root_rid, self._root_is_leaf)
        self._root_rid = INVALID_RID
        self.count = 0
        self.cache.detach()

    def stats(self) -> QuadTreeStats:
        """Walk the tree and collect structural statistics."""
        stats = QuadTreeStats(entries=self.count)
        if self._root_rid == INVALID_RID:
            return stats
        self._collect_stats(self._root_rid, self._root_is_leaf, 0, stats)
        return stats

    def _collect_stats(self, rid: int, is_leaf: bool, depth: int,
                       stats: QuadTreeStats) -> None:
        stats.height = max(stats.height, depth + 1)
        if is_leaf:
            size = self.store.record_size_of(rid)
            ladder_idx = self._ladder_index[size]
            stats.leaves_by_size[size] = stats.leaves_by_size.get(size, 0) + 1
            stats.leaf_slots += self.leaf_capacities[ladder_idx]
            if ladder_idx == len(self.leaf_ladder) - 1:
                stats.large_leaves += 1
            elif ladder_idx == 0:
                stats.small_leaves += 1
            else:
                stats.mid_leaves += 1
            leaf = self.cache.get(rid)
            ext_rid = leaf.overflow
            while ext_rid != INVALID_RID:
                stats.extension_records += 1
                stats.leaf_slots += self.ext_capacity
                ext_rid = self.cache.get(ext_rid).overflow
            return
        stats.nonleaf_nodes += 1
        node = self.cache.get(rid)
        for idx in node.present_children():
            self._collect_stats(node.children[idx], node.child_is_leaf[idx],
                                depth + 1, stats)

    # ------------------------------------------------------------------ #
    # Invariant checking (crash-recovery verification)
    # ------------------------------------------------------------------ #

    def check(self, rids_out: Optional[set] = None) -> List[str]:
        """Walk the whole tree and verify its structural invariants;
        returns a list of human-readable violations (empty when sound).

        Verified per node: the record decodes to the node kind its
        parent advertises, levels increase by one along every path,
        each child's quad corner equals :meth:`_child_corner` of its
        parent's stored corner (the exact computation insert uses),
        every entry lies inside its leaf's quad, non-leaf ``size``
        fields equal their subtree's true entry count, overflow chains
        hang only off top-rung leaves at maximum depth, and no record
        is reachable twice.  The root total must equal ``self.count``.
        ``rids_out``, when given, receives every reachable record id so
        the index-level checker can compare against the record store's
        occupancy bitmap.
        """
        problems: List[str] = []
        if self._root_rid == INVALID_RID:
            if self.count != 0:
                problems.append(
                    f"destroyed tree still reports count={self.count}")
            return problems
        seen: set = set()
        total = self._check_node(self._root_rid, self._root_is_leaf, 0,
                                 self._origin(), self._origin(),
                                 seen, problems)
        if total != self.count:
            problems.append(
                f"tree.count is {self.count} but the walk found {total} "
                f"entries")
        if rids_out is not None:
            rids_out.update(seen)
        return problems

    def _corner_mismatch(self, stored: Tuple[float, ...],
                         expected: Tuple[float, ...],
                         sides: Tuple[float, ...]) -> bool:
        """True when a stored corner disagrees with its recomputed value.

        float64 trees compare exactly: corner arithmetic is pure float64
        and the codec round-trips doubles losslessly.  float32 trees
        compare within a tiny side-relative tolerance, because corners
        round to float32 at serialization and a reopened tree mixes
        rounded and unrounded parents in the recomputation; a *wrong*
        corner is off by at least a quarter side, orders of magnitude
        beyond the tolerance.
        """
        if not self.space.float32:
            return tuple(stored) != tuple(expected)
        return any(abs(s - e) > max(abs(side), 1.0) * 2.0 ** -12
                   for s, e, side in zip(stored, expected, sides))

    def _check_entry_in_quad(self, entry: DualPoint, leaf_level: int,
                             v_corner: Tuple[float, ...],
                             p_corner: Tuple[float, ...]) -> bool:
        """Weak containment: ``corner <= coord <= corner + side`` per
        axis (the closed upper bound tolerates boundary points and
        float32 corner rounding; a misplaced entry lands a whole quad
        away)."""
        sl_v, sl_p = self._child_sides(leaf_level)
        slack = 2.0 ** -12 if self.space.float32 else 0.0
        for i in range(self.d):
            pad_v = slack * max(abs(sl_v[i]), 1.0)
            pad_p = slack * max(abs(sl_p[i]), 1.0)
            if not (v_corner[i] - pad_v <= entry.v[i]
                    <= v_corner[i] + sl_v[i] + pad_v):
                return False
            if not (p_corner[i] - pad_p <= entry.p[i]
                    <= p_corner[i] + sl_p[i] + pad_p):
                return False
        return True

    def _check_node(self, rid: int, is_leaf: bool, level: int,
                    exp_v: Tuple[float, ...], exp_p: Tuple[float, ...],
                    seen: set, problems: List[str]) -> int:
        if rid in seen:
            problems.append(f"record {rid} is reachable twice")
            return 0
        seen.add(rid)
        try:
            node = self.cache.get(rid)
        except Exception as exc:
            problems.append(f"record {rid} is unreadable: {exc!r}")
            return 0
        expected_kind = LeafNode if is_leaf else NonLeafNode
        if not isinstance(node, expected_kind):
            problems.append(
                f"record {rid} decodes to {type(node).__name__} but its "
                f"parent says {expected_kind.__name__}")
            return 0
        if node.level != level:
            problems.append(
                f"record {rid} stores level {node.level}, expected {level}")
        sides = self._child_sides(level)
        if self._corner_mismatch(node.v_corner, exp_v, sides[0]) or \
                self._corner_mismatch(node.p_corner, exp_p, sides[1]):
            problems.append(
                f"record {rid} quad corner "
                f"({node.v_corner}, {node.p_corner}) disagrees with its "
                f"parent-derived corner ({exp_v}, {exp_p})")
        if is_leaf:
            return self._check_leaf(rid, node, level, seen, problems)
        return self._check_nonleaf(rid, node, level, seen, problems)

    def _check_leaf(self, rid: int, leaf: LeafNode, level: int,
                    seen: set, problems: List[str]) -> int:
        try:
            record_size = self.store.record_size_of(rid)
        except KeyError:
            record_size = None
        if record_size not in self._ladder_index:
            problems.append(
                f"leaf {rid} lives in record size {record_size}, not on "
                f"the leaf ladder {self.leaf_ladder}")
        else:
            capacity = self.leaf_capacities[self._ladder_index[record_size]]
            if len(leaf.entries) > capacity:
                problems.append(
                    f"leaf {rid} holds {len(leaf.entries)} entries, over "
                    f"its capacity of {capacity}")
        total = len(leaf.entries)
        entries = list(leaf.entries)
        if leaf.overflow != INVALID_RID:
            if record_size != self.large_bytes:
                problems.append(
                    f"leaf {rid} has an overflow chain but is not a "
                    f"top-rung ({self.large_bytes}-byte) leaf")
            if level < self.config.max_depth:
                problems.append(
                    f"leaf {rid} at level {level} has an overflow chain "
                    f"(only max-depth leaves may spill)")
            ext_rid = leaf.overflow
            while ext_rid != INVALID_RID:
                if ext_rid in seen:
                    problems.append(
                        f"extension record {ext_rid} is reachable twice "
                        f"(overflow cycle or shared chain)")
                    break
                seen.add(ext_rid)
                try:
                    ext = self.cache.get(ext_rid)
                except Exception as exc:
                    problems.append(
                        f"extension record {ext_rid} is unreadable: "
                        f"{exc!r}")
                    break
                if not isinstance(ext, LeafExtension):
                    problems.append(
                        f"record {ext_rid} on leaf {rid}'s overflow chain "
                        f"decodes to {type(ext).__name__}")
                    break
                if len(ext.entries) > self.ext_capacity:
                    problems.append(
                        f"extension {ext_rid} holds {len(ext.entries)} "
                        f"entries, over its capacity of "
                        f"{self.ext_capacity}")
                total += len(ext.entries)
                entries.extend(ext.entries)
                ext_rid = ext.overflow
        misplaced = sum(
            not self._check_entry_in_quad(entry, level, leaf.v_corner,
                                          leaf.p_corner)
            for entry in entries)
        if misplaced:
            problems.append(
                f"leaf {rid} holds {misplaced} entries outside its quad")
        return total

    def _check_nonleaf(self, rid: int, node: NonLeafNode, level: int,
                       seen: set, problems: List[str]) -> int:
        if level >= self.config.max_depth:
            problems.append(
                f"non-leaf {rid} sits at level {level}, at or below the "
                f"maximum depth {self.config.max_depth}")
            return 0
        try:
            record_size = self.store.record_size_of(rid)
        except KeyError:
            record_size = None
        if record_size != self.codec.nonleaf_record_size:
            problems.append(
                f"non-leaf {rid} lives in record size {record_size}, "
                f"expected {self.codec.nonleaf_record_size}")
        if len(node.children) != self.fanout or \
                len(node.child_is_leaf) != self.fanout:
            problems.append(
                f"non-leaf {rid} has {len(node.children)} child slots, "
                f"expected {self.fanout}")
            return 0
        total = 0
        for idx in node.present_children():
            child_v, child_p = self._child_corner(node, idx)
            total += self._check_node(node.children[idx],
                                      node.child_is_leaf[idx], level + 1,
                                      child_v, child_p, seen, problems)
        if node.size != total:
            problems.append(
                f"non-leaf {rid} stores size {node.size} but its subtree "
                f"holds {total} entries")
        return total
