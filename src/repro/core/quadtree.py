"""Disk-based multi-dimensional bucket PR quadtree over the dual space.

This is the index structure of Section 4: each of the ``d`` dual planes
``(V_i, P_i)`` is split into four quads per level, giving non-leaf fanout
``4^d`` (16 for the two-dimensional workloads of the evaluation).  The tree
follows the paper's design decisions:

* **Insert** (Section 4.3) is one grouped descent for any number of
  points (a one-point insert is a group of one): each non-leaf on the way
  partitions the group among its child quads by the Eq. 1 child-index
  computation; missing target leaves are created lazily (case 1),
  non-full leaves absorb their share (case 2), and full leaves are
  promoted or split (case 3).
* **Two leaf sizes** (Section 5.1): leaves are born *small* (half a page)
  and are promoted to *large* (a full page) on their first overflow, which
  roughly doubles leaf page occupancy.  A split of a large leaf converts it
  to a non-leaf and redistributes entries into fresh small leaves; empty
  children are simply not materialised.
* **Delete** (Section 4.4) runs the same grouped descent and checks
  non-leaf nodes for under-fill on the way back up; the topmost
  under-filled node of a path is collapsed back into a single leaf.  A
  delete that finds nothing writes nothing.
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
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.dual import DualPoint, DualSpace
from repro.core.nodes import (
    INVALID_RID,
    LeafExtension,
    LeafNode,
    Node,
    NodeCodec,
    NonLeafNode,
)
from repro.core.query_region import QueryRegion2D, RelPos
from repro.obs.tracer import DescentTrace
from repro.storage.node_store import (
    MAX_SLOTS_PER_PAGE,
    NodeCache,
    RecordStore,
)

WRITE_GROUP_MIN = 4
"""Write groups smaller than this are classified (Eq. 1, via
:meth:`DualQuadTree._child_index`) and dual-transformed
(:meth:`repro.core.dual.DualSpace.to_dual`) in Python rather than
numpy, and write their non-leaves one by one: for a few points numpy's
per-call cost outweighs its per-point savings.  The choice is made from
the group size alone (:class:`DualQuadTree` write descents,
:class:`repro.core.stripes.StripesIndex` batched writes)."""


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
    """

    small_leaf_bytes: Optional[int] = None
    large_leaf_bytes: Optional[int] = None
    max_depth: int = 20
    collapse_capacity: Optional[int] = None
    use_small_leaves: bool = True
    quad_pruning: bool = True
    leaf_size_ladder: Optional[Tuple[int, ...]] = None

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
        self._fast_descent = self.d == 2 and config.quad_pruning
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
        """Insert one dual point: a group of one (:meth:`insert_batch`)."""
        self.insert_batch([point])

    def insert_batch(self, points: List[DualPoint],
                     vs: Optional[np.ndarray] = None,
                     ps: Optional[np.ndarray] = None) -> None:
        """Insert a group of dual points with one grouped descent.

        Every non-leaf node on any insertion path is visited once: the
        group is partitioned among its child quads by Eq. 1
        (:meth:`_partition`), a missing child is built bottom-up by
        :meth:`_build_subtree`, and each destination leaf admits,
        promotes, spills or splits once for its share of the group
        (:meth:`_leaf_insert_group`).  Each touched non-leaf is written
        once, after its subtree; a group of :data:`WRITE_GROUP_MIN` or
        more coalesces those writes into one
        :meth:`NodeCache.update_many` batch pinning each page once.

        The resulting tree is *query-equivalent* to inserting the points
        one group of one at a time (same entries, same leaf membership);
        split/promotion event counts may differ because a group crosses
        a capacity boundary in one step.  ``vs``/``ps`` are optional
        pre-built ``(n, d)`` float64 coordinate columns (from
        :meth:`repro.core.dual.DualSpace.to_dual_batch`); a group of
        :data:`WRITE_GROUP_MIN` or more points derives them when absent,
        a smaller group never uses them.
        """
        n = len(points)
        if n == 0:
            return
        vs, ps = self._group_columns(points, vs, ps)
        self.counters.inserts += n
        self.count += n
        if self._root_is_leaf:
            leaf = self.cache.get(self._root_rid)
            self._root_rid, self._root_is_leaf = self._leaf_insert_group(
                self._root_rid, leaf, points)
            return
        pending: List[Tuple[int, NonLeafNode]] = []
        self._insert_group(self._root_rid, points, vs, ps, pending)
        if pending:
            self.cache.update_many(pending)

    @staticmethod
    def _group_columns(points: List[DualPoint], vs: Optional[np.ndarray],
                       ps: Optional[np.ndarray]):
        """The ``(vs, ps)`` columns a grouped descent classifies with:
        ``(None, None)`` below :data:`WRITE_GROUP_MIN`, else the given
        columns or ones built from ``points``."""
        if len(points) < WRITE_GROUP_MIN:
            return None, None
        if vs is None or ps is None:
            vs = np.array([e.v for e in points], dtype=np.float64)
            ps = np.array([e.p for e in points], dtype=np.float64)
        return vs, ps

    def _partition(self, node: NonLeafNode, points: List[DualPoint],
                   vs: Optional[np.ndarray], ps: Optional[np.ndarray]):
        """Eq. 1 over a group: ``(child_idx, rows, sel)`` per child quad
        the group reaches, in ascending child order.  ``rows`` lists the
        positions in ``points`` landing in that quad and ``sel`` selects
        the same rows of ``vs``/``ps``; both are ``None`` when the whole
        group lands in one quad, so a group of one passes through
        without a copy.

        A group below :data:`WRITE_GROUP_MIN` comes without columns
        (``vs is None``) and is classified point by point with
        :meth:`_child_index`; a larger one with one numpy evaluation of
        the same float64 ``>=`` tests over its columns, so every point
        lands exactly where :meth:`_child_index` puts it.
        """
        if vs is None:
            if len(points) == 1:
                return ((self._child_index(node, points[0]), None, None),)
            groups: Dict[int, List[int]] = {}
            for j, point in enumerate(points):
                groups.setdefault(self._child_index(node, point),
                                  []).append(j)
            if len(groups) == 1:
                return ((next(iter(groups)), None, None),)
            return [(idx, rows, None) for idx, rows in sorted(groups.items())]
        sl_v, sl_p = self._child_sides(node.level + 1)
        codes = np.zeros(vs.shape[0], dtype=np.int64)
        for i in range(self.d):
            v_hi = vs[:, i] >= node.v_corner[i] + sl_v[i]
            p_hi = ps[:, i] >= node.p_corner[i] + sl_p[i]
            codes |= ((p_hi.astype(np.int64) << 1)
                      | v_hi.astype(np.int64)) << (2 * i)
        order = np.argsort(codes, kind="stable")
        uniq, starts = np.unique(codes[order], return_index=True)
        if len(uniq) == 1:
            return ((int(uniq[0]), None, None),)
        bounds = list(starts) + [codes.shape[0]]
        out = []
        for k, child_idx in enumerate(uniq.tolist()):
            sel = order[bounds[k]: bounds[k + 1]]
            out.append((child_idx, sel.tolist(), sel))
        return out

    def _insert_group(self, rid: int, points: List[DualPoint],
                      vs: Optional[np.ndarray], ps: Optional[np.ndarray],
                      pending: List[Tuple[int, NonLeafNode]]) -> None:
        """Insert a group into the non-leaf subtree at ``rid`` (non-leaf
        record ids never change, so nothing is returned).  The node is
        written here for a group without columns, else queued on
        ``pending`` for one coalesced write."""
        node = self.cache.get(rid)
        node.size += len(points)
        for child_idx, rows, sel in self._partition(node, points, vs, ps):
            gpoints = points if rows is None else [points[j] for j in rows]
            child_rid = node.children[child_idx]
            if child_rid == INVALID_RID:
                # Case 1: the target leaf does not exist yet.  It gets a
                # list of its own, never the caller's.
                cv, cp = self._child_corner(node, child_idx)
                crid, cleaf = self._build_subtree(
                    node.level + 1, cv, cp, list(gpoints))
                node.children[child_idx] = crid
                node.child_is_leaf[child_idx] = cleaf
            elif node.child_is_leaf[child_idx]:
                crid, cleaf = self._leaf_insert_group(
                    child_rid, self.cache.get(child_rid), gpoints)
                node.children[child_idx] = crid
                node.child_is_leaf[child_idx] = cleaf
            elif sel is None:
                self._insert_group(child_rid, gpoints, vs, ps, pending)
            else:
                self._insert_group(child_rid, gpoints, vs[sel], ps[sel],
                                   pending)
        if vs is None:
            self.cache.update(rid, node)
        else:
            pending.append((rid, node))

    def _leaf_insert_group(self, rid: int, leaf: LeafNode,
                           gpoints: List[DualPoint]) -> Tuple[int, bool]:
        """Cases 2/3 for a group landing in an existing leaf: admit,
        promote, spill or split once for the whole group.  Returns the
        (possibly new) record id and is-leaf flag the parent should point
        at.  The leaf copies ``gpoints``, never keeps the list itself."""
        ladder_idx = self._ladder_index[self.store.record_size_of(rid)]
        if (leaf.overflow == INVALID_RID
                and len(leaf.entries) + len(gpoints)
                <= self.leaf_capacities[ladder_idx]):
            # Case 2: room available.
            leaf.entries.extend(gpoints)
            self.cache.update(rid, leaf)
            return rid, True
        entries = self._leaf_all_entries(leaf)
        entries.extend(gpoints)
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
            if self.store.record_size_of(rid) != self.large_bytes:
                # A group can overshoot every ladder rung at once; the
                # chain head must live in a top-rung record.
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

    def bulk_load(self, points: Iterable[DualPoint]) -> None:
        """Load ``points`` into an empty tree (used by
        :meth:`StripesIndex.bulk_load`): one :meth:`insert_batch` group,
        which on an empty tree builds the whole tree bottom-up through
        :meth:`_build_subtree`."""
        if self.count:
            raise RuntimeError("bulk_load requires an empty tree")
        self.insert_batch(list(points))

    # ------------------------------------------------------------------ #
    # Overflow chains (maximum-depth leaves only)
    # ------------------------------------------------------------------ #

    def _leaf_all_entries(self, leaf: LeafNode,
                          out: Optional[List[DualPoint]] = None
                          ) -> List[DualPoint]:
        """Entries of the leaf including any overflow extensions.

        ``out`` appends into the caller's accumulator instead of building
        (and having the caller re-copy) an intermediate list per record --
        the bulk-collection paths (:meth:`all_entries`, subtree collapses)
        pass one shared buffer down the walk.
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
        """Remove the entry matching ``point`` (oid and coordinates): a
        group of one (:meth:`delete_batch`).

        Returns False, leaving the tree unchanged, when no such entry
        exists -- the caller then treats the update as an insert of a
        new object (Section 4.4).
        """
        return self.delete_batch([point])[0]

    def delete_batch(self, points: List[DualPoint],
                     vs: Optional[np.ndarray] = None,
                     ps: Optional[np.ndarray] = None) -> List[bool]:
        """Remove a group of entries with one grouped descent.

        Returns one removed-flag per input point, in input order.  The
        group is partitioned by Eq. 1 as in :meth:`insert_batch`; each
        touched leaf rewrites its entry list / overflow chain once for
        all its group's removals, and each non-leaf that lost entries is
        re-sized and written once, after its subtree.  A descent that
        removes nothing writes nothing.  Under-fill is checked on the way
        back up, once the whole group is applied: the topmost under-filled
        non-leaf of each path is collapsed into a single leaf (or, with a
        larger ``collapse_capacity``, a smaller subtree).  ``vs``/``ps``
        are as in :meth:`insert_batch`.
        """
        n = len(points)
        flags = [False] * n
        if n == 0:
            return flags
        vs, ps = self._group_columns(points, vs, ps)
        self.counters.deletes += n
        if self._root_is_leaf:
            leaf = self.cache.get(self._root_rid)
            self._leaf_delete_group(self._root_rid, leaf, points,
                                    range(n), flags)
            return flags
        pending: List[Tuple[int, NonLeafNode]] = []
        _, underfilled = self._delete_group(
            self._root_rid, points, range(n), vs, ps, flags, pending)
        if underfilled is not None:
            self._root_rid, self._root_is_leaf = self._collapse(
                self._root_rid, underfilled)
        if pending:
            self.cache.update_many(pending)
        return flags

    def _delete_group(self, rid: int, points: List[DualPoint], idxs,
                      vs: Optional[np.ndarray], ps: Optional[np.ndarray],
                      flags: List[bool],
                      pending: List[Tuple[int, NonLeafNode]]
                      ) -> Tuple[int, Optional[NonLeafNode]]:
        """Delete a group from the non-leaf subtree at ``rid``; ``idxs``
        maps group positions to ``flags`` positions.

        Returns ``(removed, underfilled)``.  ``underfilled`` is the node
        itself when it is now at or under ``collapse_capacity``: it is
        neither collapsed nor written here, because an ancestor may be
        under-filled too and the caller collapses only the topmost one.
        Otherwise the node, if it lost entries, collapses its
        under-filled children and is written as in :meth:`_insert_group`.
        """
        node = self.cache.get(rid)
        removed = 0
        underfilled_children = []
        for child_idx, rows, sel in self._partition(node, points, vs, ps):
            child_rid = node.children[child_idx]
            if child_rid == INVALID_RID:
                continue
            if rows is None:
                gpoints, gidxs = points, idxs
            else:
                gpoints = [points[j] for j in rows]
                gidxs = [idxs[j] for j in rows]
            if node.child_is_leaf[child_idx]:
                removed += self._leaf_delete_group(
                    child_rid, self.cache.get(child_rid), gpoints, gidxs,
                    flags)
                continue
            r, child = self._delete_group(
                child_rid, gpoints, gidxs,
                vs if sel is None else vs[sel],
                ps if sel is None else ps[sel], flags, pending)
            removed += r
            if child is not None:
                underfilled_children.append((child_idx, child))
        if not removed:
            return 0, None
        node.size -= removed
        if node.size <= self.collapse_capacity:
            return removed, node
        for child_idx, child in underfilled_children:
            node.children[child_idx], node.child_is_leaf[child_idx] = \
                self._collapse(node.children[child_idx], child)
        if vs is None:
            self.cache.update(rid, node)
        else:
            pending.append((rid, node))
        return removed, None

    def _collapse(self, rid: int, node: NonLeafNode) -> Tuple[int, bool]:
        """Case 2 of Section 4.4: rebuild the under-filled non-leaf
        subtree at ``rid`` from its entries.  With the default threshold
        (one leaf's capacity) the rebuild is a single leaf.  Returns the
        new record id and is-leaf flag for the parent pointer."""
        entries = self._subtree_entries(rid, is_leaf=False)
        self._free_subtree(rid, is_leaf=False)
        self.counters.collapses += 1
        if self.tracer is not None:
            self.tracer.event("quadtree.collapse", level=node.level,
                              entries=len(entries))
        return self._build_subtree(node.level, node.v_corner, node.p_corner,
                                   entries)

    def _leaf_delete_group(self, rid: int, leaf: LeafNode,
                           gpoints: List[DualPoint], gidxs,
                           flags: List[bool]) -> int:
        """Remove every matching group point from one leaf, rewriting the
        entry list / overflow chain once (not at all if none matched)."""
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

    # ------------------------------------------------------------------ #
    # Search (Section 4.6.4)
    # ------------------------------------------------------------------ #

    def search_columns(self, regions: Tuple[QueryRegion2D, ...],
                       trace: Optional[DescentTrace] = None
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Matching entries as ``(oids, vs, ps)`` numpy columns.

        The descent classifies each node's child quads and queues every
        leaf record it must read as a ``(record, lit)`` segment: ``lit``
        records belong to all-INSIDE subtrees and are reported wholesale,
        the others are filtered by the membership kernels in
        :meth:`_resolve_columns`.  Candidates never leave column form, so
        the caller's refinement (the exact common-instant check in
        :mod:`repro.core.stripes`) runs directly on the returned columns,
        and a record decoded from a page never builds its entry list.
        Rows are in descent order.

        ``trace`` (a :class:`repro.obs.tracer.DescentTrace`) records the
        descent -- nodes visited, per-quad INSIDE/OVERLAP/DISJUNCT
        classifications, entries scanned -- at a small per-node cost; the
        default ``None`` leaves the hot path untouched.
        """
        if len(regions) != self.d:
            raise ValueError(
                f"expected {self.d} query regions, got {len(regions)}")
        self.counters.searches += 1
        segments: List[tuple] = []
        root = self.cache.get(self._root_rid)
        if self._root_is_leaf:
            self._defer_leaf(root, segments)
        else:
            self._search_nonleaf(root, regions, segments, trace, 0)
        return self._resolve_columns(regions, segments, trace)

    def _resolve_columns(self, regions: Tuple[QueryRegion2D, ...],
                         segments: List[tuple],
                         trace: Optional[DescentTrace] = None
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kernel pass over the collected segments, staying columnar.

        Lit (all-INSIDE) rows bypass the kernels by forcing their mask
        range to True: re-testing them could disagree with the rectangle
        classification by an ulp at region boundaries.
        """
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
        if any_pending:
            mask = regions[0].contains_batch(vs[:, 0], ps[:, 0])
            for i in range(1, d):
                mask &= regions[i].contains_batch(vs[:, i], ps[:, i])
            for lo, hi in lit_ranges:
                mask[lo:hi] = True
            oids, vs, ps = oids[mask], vs[mask], ps[mask]
        if trace is not None:
            for rec, lit in segments:
                if type(rec) is LeafNode:
                    trace.leaf_visits += 1
                if lit:
                    trace.entries_reported += rec._soa_len
                else:
                    trace.entries_scanned += rec._soa_len
            trace.candidates += len(oids)
        return oids, vs, ps

    def _defer_leaf(self, leaf: LeafNode, segments: List[tuple],
                    lit: bool = False) -> None:
        """Queue a leaf and its overflow chain as segments."""
        segments.append((leaf, lit))
        rid = leaf.overflow
        while rid != INVALID_RID:
            ext = self.cache.get(rid)
            segments.append((ext, lit))
            rid = ext.overflow

    def _search_nonleaf(self, node: NonLeafNode,
                        regions: Tuple[QueryRegion2D, ...],
                        segments: List[tuple],
                        trace: Optional[DescentTrace], depth: int) -> None:
        """Classify ``node``'s children and queue their matching leaf
        records into ``segments``.

        Child ``base + c`` is visited for every ``(base, rb)`` in
        ``outer`` and ``(c, r)`` in ``inner`` -- the children no plane
        finds DISJUNCT, in ascending child index order.  It lies inside
        the query body when ``rb`` and ``r`` are both INSIDE; then its
        whole subtree is reported without further geometry tests.
        """
        level1 = node.level + 1
        sides = self._sides_table
        sl_v, sl_p = (sides[level1] if level1 < len(sides)
                      else self._child_sides(level1))
        if self._fast_descent:
            # Two dimensions with the shared classification, inline:
            # each plane's four quads are classified once and one
            # DISJUNCT plane-1 code skips its whole block of four
            # children.
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
            disjunct = RelPos.DISJUNCT
            inner = [(c, r) for c, r in enumerate(rel0) if r is not disjunct]
            outer = [(c << 2, r) for c, r in enumerate(rel1)
                     if r is not disjunct]
            classified = (rel0, rel1)
        else:
            outer, inner, classified = self._plane_codes(node, regions,
                                                         sl_v, sl_p)
        if trace is not None:
            self._trace_nonleaf(node, outer, inner, classified, trace, depth)
        children = node.children
        child_is_leaf = node.child_is_leaf
        inside = RelPos.INSIDE
        invalid = INVALID_RID
        cache = self.cache
        cache_get = cache.get
        # The child lookup below is cache.get's hit path unrolled into
        # the loop: resident frame -> its decoded record, counted as the
        # logical read and LRU move a fetch makes.  Anything else (page
        # not resident, record not decoded) goes through cache.get.
        pool = cache.store.pool
        frames_get = pool._frames.get
        frames_move = pool._frames.move_to_end
        iostats = pool.stats
        report_subtree = self._report_subtree
        search_nonleaf = self._search_nonleaf
        depth1 = depth + 1
        for base, rb in outer:
            for c, r in inner:
                idx = base + c
                child_rid = children[idx]
                if child_rid == invalid:
                    continue
                if r is inside and rb is inside:
                    report_subtree(child_rid, child_is_leaf[idx], segments,
                                   trace)
                    continue
                page_id = child_rid // MAX_SLOTS_PER_PAGE
                page = frames_get(page_id)
                child = (page.decoded.get(child_rid) if page is not None
                         else None)
                if child is not None:
                    iostats.logical_reads += 1
                    frames_move(page_id)
                    cache.hits += 1
                else:
                    child = cache_get(child_rid)
                if not child_is_leaf[idx]:
                    search_nonleaf(child, regions, segments, trace, depth1)
                elif child.overflow == invalid:
                    segments.append((child, False))
                else:
                    self._defer_leaf(child, segments)

    def _plane_codes(self, node: NonLeafNode,
                     regions: Tuple[QueryRegion2D, ...],
                     sl_v: Tuple[float, ...], sl_p: Tuple[float, ...]):
        """``(outer, inner, classified)`` for :meth:`_search_nonleaf` in
        any dimensionality, and for ablation A2.

        With the shared classification, ``inner`` holds plane 0's
        non-DISJUNCT quad codes and ``outer`` the non-DISJUNCT
        combinations of the other planes (INSIDE only if INSIDE in every
        one of them).  Under A2 (``quad_pruning=False``) each present
        child is classified on its own with
        :meth:`QueryRegion2D.classify_rect`, plane by plane up to the
        first DISJUNCT plane, and ``inner`` lists the surviving child
        indexes.  ``classified`` holds every classification made, per
        plane or per child, for the trace.
        """
        vc = node.v_corner
        pc = node.p_corner
        inside = RelPos.INSIDE
        disjunct = RelPos.DISJUNCT
        if not self._quad_pruning:
            inner = []
            classified = []
            for idx in node.present_children():
                rels = []
                for i, code in enumerate(self._child_codes[idx]):
                    v1 = vc[i] + (code & 1) * sl_v[i]
                    p1 = pc[i] + ((code >> 1) & 1) * sl_p[i]
                    rel = regions[i].classify_rect(
                        v1, v1 + sl_v[i], p1, p1 + sl_p[i])
                    rels.append(rel)
                    if rel is disjunct:
                        break
                classified.append(rels)
                if rel is not disjunct:
                    all_inside = all(r is inside for r in rels)
                    inner.append(
                        (idx, inside if all_inside else RelPos.OVERLAP))
            return [(0, inside)], inner, classified
        planes = []
        for i in range(self.d):
            v_mid = vc[i] + sl_v[i]
            p_mid = pc[i] + sl_p[i]
            planes.append(regions[i].classify_quads(
                vc[i], v_mid, v_mid + sl_v[i], pc[i], p_mid, p_mid + sl_p[i]))
        inner = [(c, r) for c, r in enumerate(planes[0]) if r is not disjunct]
        outer = [(0, inside)]
        for i in range(self.d - 1, 0, -1):
            outer = [(base | (c << (2 * i)), r if rb is inside else rb)
                     for base, rb in outer
                     for c, r in enumerate(planes[i]) if r is not disjunct]
        return outer, inner, planes

    @staticmethod
    def _trace_nonleaf(node: NonLeafNode, outer, inner, classified,
                       trace: DescentTrace, depth: int) -> None:
        """Count one visit of ``node`` into ``trace``: its quad
        classifications and the fate of each present child."""
        inside = RelPos.INSIDE
        disjunct = RelPos.DISJUNCT
        trace.nonleaf_visits += 1
        for rels in classified:
            for rel in rels:
                if rel is inside:
                    trace.quads_inside += 1
                elif rel is disjunct:
                    trace.quads_disjunct += 1
                else:
                    trace.quads_overlap += 1
        children = node.children
        live = reported = 0
        deepest = depth
        for base, rb in outer:
            for c, r in inner:
                idx = base + c
                if children[idx] == INVALID_RID:
                    continue
                live += 1
                if r is inside and rb is inside:
                    reported += 1
                elif node.child_is_leaf[idx]:
                    deepest = depth + 1
        trace.max_depth = max(trace.max_depth, deepest)
        trace.children_pruned += len(node.present_children()) - live
        trace.children_reported += reported
        trace.children_recursed += live - reported

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
        outer, inner, _ = self._plane_codes(node, regions, sl_v, sl_p)
        inside = RelPos.INSIDE
        total = 0
        for base, rb in outer:
            for c, r in inner:
                idx = base + c
                child_rid = node.children[idx]
                if child_rid == INVALID_RID:
                    continue
                all_inside = r is inside and rb is inside
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
                        segments: List[tuple],
                        trace: Optional[DescentTrace] = None) -> None:
        """Queue every leaf record of an all-INSIDE subtree as a lit
        segment: reported wholesale, never re-tested."""
        if is_leaf:
            self._defer_leaf(self.cache.get(rid), segments, lit=True)
            return
        node = self.cache.get(rid)
        if trace is not None:
            trace.nonleaf_visits += 1
        for idx in node.present_children():
            self._report_subtree(node.children[idx], node.child_is_leaf[idx],
                                 segments, trace)

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
        """Free every record of this tree (used at index rotation).

        Each freed record's decoded node leaves its frame with it, and
        emptied pages leave the pool, so the shared buffer pool -- which
        outlives every rotating sub-index -- keeps nothing of the retired
        tree.
        """
        self._free_subtree(self._root_rid, self._root_is_leaf)
        self._root_rid = INVALID_RID
        self.count = 0

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
