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
* **Leaf sizes** (Section 5.1): the paper's leaves are born half a page
  and are promoted to a full page on their first overflow, which roughly
  doubles leaf page occupancy.  By default this tree extends that to the
  paper's future work of more sizes: leaves are born an eighth of a page
  and promoted a rung at a time up a ladder to a full page
  (:class:`QuadTreeConfig`).  A split of a full-page leaf converts it
  to a non-leaf and redistributes entries into fresh bottom-rung leaves;
  empty children are simply not materialised.
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
from itertools import accumulate
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
    SizeClass,
)
from repro.storage.page import PAGE_SIZE

WRITE_GROUP_MIN = 4
"""Write groups smaller than this are classified (Eq. 1, via
:meth:`DualQuadTree._child_index`) and dual-transformed
(:meth:`repro.core.dual.DualSpace.to_dual`) in Python rather than
numpy, and write their non-leaves one by one: for a few points numpy's
per-call cost outweighs its per-point savings.  The choice is made from
the group size alone (:class:`DualQuadTree` write descents,
:class:`repro.core.stripes.StripesIndex` batched writes)."""


DEFAULT_LEAVES_PER_PAGE = (8, 4, 2, 1)
"""Records per page of each rung of the default leaf ladder: leaves are
born an eighth of a page and promoted through a quarter and a half to a
full page."""


def packed_ladder(page_size: int,
                  per_page: Tuple[int, ...] = DEFAULT_LEAVES_PER_PAGE
                  ) -> Tuple[int, ...]:
    """The leaf ladder whose rungs are the largest records that pack
    ``per_page[i]`` to a ``page_size``-byte page."""
    return tuple(SizeClass.largest_record(k, page_size) for k in per_page)


PAPER_LEAF_LADDER = packed_ladder(PAGE_SIZE, (2, 1))
"""The paper's two leaf sizes (Section 5.1): half-page leaves promoted to
full-page leaves on their first overflow, for :data:`PAGE_SIZE` pages.
The paper experiments (:mod:`repro.bench.experiments`) pin it."""


@dataclass(frozen=True)
class QuadTreeConfig:
    """Tuning knobs for the quadtree.

    ``leaf_size_ladder`` is a strictly increasing tuple of leaf record
    sizes in bytes.  Leaves are born at the smallest size and promoted up
    the ladder on overflow; only a leaf at the largest size splits.
    ``None`` takes :func:`packed_ladder` of the page size: four sizes, an
    eighth of a page up to a full page -- the paper's stated future work
    ("extending our current implementation to use more than two leaf
    node sizes").  :data:`PAPER_LEAF_LADDER` is the paper's own
    half/full-page scheme; a one-rung ladder makes every leaf a full
    page (ablation A1).  ``collapse_capacity`` is the under-fill
    threshold of Section 4.4 and defaults to the top rung's capacity.
    ``quad_pruning=False`` disables the shared per-plane quad
    classification of Section 4.6.4 (ablation A2) -- results are
    identical, only more CPU is spent.
    """

    max_depth: int = 20
    collapse_capacity: Optional[int] = None
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

    def resolved_ladder(self, page_size: int) -> Tuple[int, ...]:
        """The leaf ladder a tree over ``page_size``-byte pages uses."""
        if self.leaf_size_ladder is not None:
            return tuple(self.leaf_size_ladder)
        return packed_ladder(page_size)


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

    ``leaves_per_rung[i]`` counts the leaves whose record is the tree's
    ``leaf_ladder[i]`` bytes (smallest rung first).
    """

    entries: int = 0
    nonleaf_nodes: int = 0
    leaves_per_rung: List[int] = field(default_factory=list)
    extension_records: int = 0
    height: int = 0
    leaf_slots: int = 0

    @property
    def leaf_nodes(self) -> int:
        return sum(self.leaves_per_rung)

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

        self.leaf_ladder = list(config.resolved_ladder(
            store.pool.pagefile.page_size))
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
                self.small_bytes, LeafNode(0, self._origin(), self._origin()))
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
        once, after its subtree -- only its ``size`` field unless a child
        link changed (:meth:`_write_nonleaf`); a group of
        :data:`WRITE_GROUP_MIN` or more coalesces those writes into one
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
        pending: List[tuple] = []
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
        codes = self._quad_codes(node, vs, ps)
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

    def _quad_codes(self, node: NonLeafNode, vs: np.ndarray,
                    ps: np.ndarray) -> np.ndarray:
        """Eq. 1 over ``(n, d)`` float64 columns: each row's child index,
        from the float64 ``>=`` tests of :meth:`_child_index`."""
        sl_v, sl_p = self._child_sides(node.level + 1)
        codes = np.zeros(vs.shape[0], dtype=np.int64)
        for i in range(self.d):
            v_hi = vs[:, i] >= node.v_corner[i] + sl_v[i]
            p_hi = ps[:, i] >= node.p_corner[i] + sl_p[i]
            codes |= ((p_hi.astype(np.int64) << 1)
                      | v_hi.astype(np.int64)) << (2 * i)
        return codes

    def _insert_group(self, rid: int, points: List[DualPoint],
                      vs: Optional[np.ndarray], ps: Optional[np.ndarray],
                      pending: List[tuple]) -> None:
        """Insert a group into the non-leaf subtree at ``rid`` (non-leaf
        record ids never change, so nothing is returned).  The node is
        written as :meth:`_write_nonleaf` says."""
        node = self.cache.get(rid)
        node.size += len(points)
        relinked = False
        for child_idx, rows, sel in self._partition(node, points, vs, ps):
            gpoints = points if rows is None else [points[j] for j in rows]
            child_rid = node.children[child_idx]
            if child_rid == INVALID_RID:
                # Case 1: the target leaf does not exist yet.
                cv, cp = self._child_corner(node, child_idx)
                crid, cleaf = self._build_subtree(
                    node.level + 1, cv, cp, self.codec.pack(gpoints))
            elif not node.child_is_leaf[child_idx]:
                self._insert_group(child_rid, gpoints,
                                   vs if sel is None else vs[sel],
                                   ps if sel is None else ps[sel], pending)
                continue
            else:
                crid, cleaf = self._leaf_insert_group(
                    child_rid, self.cache.get(child_rid), gpoints)
                if crid == child_rid:
                    continue    # the leaf kept its record
            node.children[child_idx] = crid
            node.child_is_leaf[child_idx] = cleaf
            relinked = True
        self._write_nonleaf(rid, node, relinked, vs is not None, pending)

    def _write_nonleaf(self, rid: int, node: NonLeafNode, relinked: bool,
                       grouped: bool, pending: List[tuple]) -> None:
        """Write a non-leaf after its subtree: the whole record when a
        child link changed (``relinked``), else its ``size`` field alone
        (:meth:`NodeCache.write_field`).  A descent without columns writes
        here; a grouped one queues the write on ``pending`` for one
        coalesced :meth:`NodeCache.update_many`."""
        item = (rid, node) if relinked else (rid, node, self.codec.size_field)
        if grouped:
            pending.append(item)
        elif relinked:
            self.cache.update(rid, node)
        else:
            self.cache.write_field(*item)

    def _leaf_insert_group(self, rid: int, leaf: LeafNode,
                           gpoints: List[DualPoint]) -> Tuple[int, bool]:
        """Cases 2/3 for a group landing in an existing leaf: admit,
        promote, spill or split once for the whole group.  Returns the
        (possibly new) record id and is-leaf flag the parent should point
        at."""
        ladder_idx = self._ladder_index[self.store.record_size_of(rid)]
        new_rows = self.codec.pack(gpoints)
        if (leaf.overflow == INVALID_RID
                and len(leaf.rows) + len(new_rows)
                <= self.leaf_capacities[ladder_idx] * self.codec.entry_size):
            # Case 2: room available -- append the group's packed rows.
            leaf.rows += new_rows
            self.cache.update(rid, leaf)
            return rid, True
        rows = self._leaf_rows(leaf) + new_rows
        n = len(rows) // self.codec.entry_size
        if ladder_idx + 1 < len(self.leaf_ladder):
            # Overflow of a non-top leaf: promote it up the size ladder.
            for next_idx in range(ladder_idx + 1, len(self.leaf_ladder)):
                if n <= self.leaf_capacities[next_idx]:
                    promoted = LeafNode(leaf.level, leaf.v_corner,
                                        leaf.p_corner, rows)
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
                fresh = LeafNode(leaf.level, leaf.v_corner, leaf.p_corner,
                                 b"", leaf.overflow)
                new_rid = self.cache.insert(self.large_bytes, fresh)
                self.cache.free(rid)
                self.counters.leaf_promotions += 1
                rid, leaf = new_rid, fresh
            self._write_leaf_chain(rid, leaf, rows)
            self.counters.overflow_spills += 1
            if self.tracer is not None:
                self.tracer.event("quadtree.overflow_spill",
                                  level=leaf.level, entries=n)
            return rid, True
        # Case 3: split -- the leaf becomes a non-leaf subtree.
        new_rid, is_leaf = self._build_subtree(
            leaf.level, leaf.v_corner, leaf.p_corner, rows)
        self._free_leaf_chain(rid, leaf)
        self.counters.leaf_splits += 1
        if self.tracer is not None:
            self.tracer.event("quadtree.leaf_split", level=leaf.level,
                              entries=n)
        return new_rid, is_leaf

    def _build_subtree(self, level: int, v_corner: Tuple[float, ...],
                       p_corner: Tuple[float, ...],
                       rows: bytes) -> Tuple[int, bool]:
        """Materialise a subtree for packed ``rows`` (used by splits and
        under-fill collapses).  Only non-empty children are created, in
        the order their first row appears in ``rows``; each child keeps
        its rows in their order in ``rows``."""
        n = len(rows) // self.codec.entry_size
        for idx, capacity in enumerate(self.leaf_capacities):
            if n <= capacity:
                leaf = LeafNode(level, v_corner, p_corner, rows)
                return self.cache.insert(self.leaf_ladder[idx], leaf), True
        if level >= self.config.max_depth:
            leaf = LeafNode(level, v_corner, p_corner)
            rid = self.cache.insert(self.large_bytes, leaf)
            self._write_leaf_chain(rid, leaf, rows)
            return rid, True
        node = NonLeafNode(level, v_corner, p_corner,
                           [INVALID_RID] * self.fanout,
                           [False] * self.fanout, n)
        _, vs, ps = self.codec.columns(rows)
        codes = self._quad_codes(node, vs, ps)
        order = np.argsort(codes, kind="stable")
        uniq, starts = np.unique(codes[order], return_index=True)
        bounds = starts.tolist() + [n]
        # A stable sort puts each child's first row at its run's start.
        for k in np.argsort(order[starts]).tolist():
            idx = int(uniq[k])
            cv, cp = self._child_corner(node, idx)
            child_rid, child_leaf = self._build_subtree(
                level + 1, cv, cp,
                self.codec.take_rows(rows, order[bounds[k]: bounds[k + 1]]))
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

    def _leaf_rows(self, leaf: LeafNode) -> bytes:
        """Packed rows of the leaf and its overflow extensions, joined."""
        parts = [leaf.rows]
        rid = leaf.overflow
        while rid != INVALID_RID:
            ext = self.cache.get(rid)
            parts.append(ext.rows)
            rid = ext.overflow
        return b"".join(parts)

    def _write_leaf_chain(self, rid: int, leaf: LeafNode,
                          rows: bytes) -> None:
        """Rewrite the leaf and its overflow chain to hold ``rows``: the
        first ``large_capacity`` entries in the leaf, the rest in
        extensions of ``ext_capacity`` entries."""
        old = leaf.overflow
        while old != INVALID_RID:
            ext = self.cache.get(old)
            nxt = ext.overflow
            self.cache.free(old)
            old = nxt
        head_bytes = self.large_capacity * self.codec.entry_size
        ext_bytes = self.ext_capacity * self.codec.entry_size
        leaf.rows = rows[:head_bytes]
        rest = rows[head_bytes:]
        head = INVALID_RID
        for start in range((len(rest) // ext_bytes) * ext_bytes, -1,
                           -ext_bytes):
            chunk = rest[start: start + ext_bytes]
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
        touched leaf rewrites its rows / overflow chain once for all its
        group's removals, and each non-leaf that lost entries is
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
        pending: List[tuple] = []
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
                      flags: List[bool], pending: List[tuple]
                      ) -> Tuple[int, Optional[NonLeafNode]]:
        """Delete a group from the non-leaf subtree at ``rid``; ``idxs``
        maps group positions to ``flags`` positions.

        Returns ``(removed, underfilled)``.  ``underfilled`` is the node
        itself when it is now at or under ``collapse_capacity``: it is
        neither collapsed nor written here, because an ancestor may be
        under-filled too and the caller collapses only the topmost one.
        Otherwise the node, if it lost entries, collapses its
        under-filled children and is written by :meth:`_write_nonleaf`.
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
        self._write_nonleaf(rid, node, bool(underfilled_children),
                            vs is not None, pending)
        return removed, None

    def _collapse(self, rid: int, node: NonLeafNode) -> Tuple[int, bool]:
        """Case 2 of Section 4.4: rebuild the under-filled non-leaf
        subtree at ``rid`` from its entries.  With the default threshold
        (one leaf's capacity) the rebuild is a single leaf.  Returns the
        new record id and is-leaf flag for the parent pointer."""
        rows = self._subtree_rows(rid, is_leaf=False)
        self._free_subtree(rid, is_leaf=False)
        self.counters.collapses += 1
        if self.tracer is not None:
            self.tracer.event("quadtree.collapse", level=node.level,
                              entries=len(rows) // self.codec.entry_size)
        return self._build_subtree(node.level, node.v_corner, node.p_corner,
                                   rows)

    def _leaf_delete_group(self, rid: int, leaf: LeafNode,
                           gpoints: List[DualPoint], gidxs,
                           flags: List[bool]) -> int:
        """Remove every matching group point from one leaf and its
        overflow chain (:meth:`NodeCodec.remove_rows` over their joined
        rows), rewriting them once -- not at all if none matched."""
        rows, hits = self.codec.remove_rows(self._leaf_rows(leaf), gpoints)
        removed = 0
        for j, hit in zip(gidxs, hits):
            if hit:
                flags[j] = True
                removed += 1
        if not removed:
            return 0
        self._write_leaf_chain(rid, leaf, rows)
        self.count -= removed
        return removed

    # ------------------------------------------------------------------ #
    # Search (Section 4.6.4)
    # ------------------------------------------------------------------ #

    def search_columns(self, regions: Tuple[QueryRegion2D, ...],
                       trace: Optional[DescentTrace] = None
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Matching entries as ``(oids, vs, ps)`` numpy columns.

        One descent (:meth:`_descend`) classifies each plane cell once
        and appends the packed rows of every leaf record it must read to
        one list, in descent order.  The rows of an all-INSIDE subtree
        are marked as a lit span of that list: they are reported
        wholesale, never re-tested.  :meth:`_filter_rows` joins the list
        once, views it as columns and narrows the other rows plane by
        plane.  Candidates never leave column form, so the caller's
        refinement (the exact common-instant check in
        :mod:`repro.core.stripes`) runs directly on the returned columns,
        and no record's rows are decoded into ``DualPoint`` objects.
        Rows are in descent order.

        ``trace`` (a :class:`repro.obs.tracer.DescentTrace`) records the
        descent -- nodes visited, per-quad INSIDE/OVERLAP/DISJUNCT
        classifications, entries scanned -- at a small per-node cost; the
        default ``None`` leaves the hot path untouched.
        """
        parts: List[bytes] = []
        lit: List[Tuple[int, int]] = []

        def report(rid: int, is_leaf: bool) -> None:
            start = len(parts)
            self._collect_rows(rid, is_leaf, parts, trace)
            lit.append((start, len(parts)))

        self._descend(regions, parts, report, trace)
        self.counters.searches += 1
        return self._filter_rows(regions, parts, lit, trace)

    def count_in_regions(self, regions: Tuple[QueryRegion2D, ...]) -> int:
        """Number of entries inside the query body.

        The search descent, except that its report adds an all-INSIDE
        child's entries into a running total: a non-leaf child is read
        once and counted by its stored ``size`` (Section 4.2), so below
        it no leaf page is read -- the aggregate-query payoff of keeping
        sizes in non-leaf nodes.  The rows the descent collects go
        through the search kernels.  Exact for time-slice query regions;
        for window/moving queries the result counts region candidates (a
        superset of true matches, see :meth:`search_columns`).
        """
        parts: List[bytes] = []
        total = 0
        size = self.codec.entry_size

        def report(rid: int, is_leaf: bool) -> None:
            nonlocal total
            rec = self.cache.get(rid)
            total += len(self._leaf_rows(rec)) // size if is_leaf \
                else rec.size

        self._descend(regions, parts, report)
        return total + len(self._filter_rows(regions, parts, [])[0])

    def _descend(self, regions: Tuple[QueryRegion2D, ...],
                 parts: List[bytes], report,
                 trace: Optional[DescentTrace] = None) -> None:
        """Run the search descent from the root.

        The packed rows of every leaf record to filter are appended to
        ``parts`` (a leaf with an overflow chain as one joined part);
        every all-INSIDE child goes to ``report(rid, is_leaf)``.  The
        per-plane cell memos live for this one descent.
        """
        if len(regions) != self.d:
            raise ValueError(
                f"expected {self.d} query regions, got {len(regions)}")
        root = self.cache.get(self._root_rid)
        if self._root_is_leaf:
            if trace is not None:
                trace.leaf_visits += 1
            parts.append(self._leaf_rows(root))
        else:
            self._search_nonleaf(root, regions, tuple({} for _ in regions),
                                 parts, report, trace, 0)

    def _filter_rows(self, regions: Tuple[QueryRegion2D, ...],
                     parts: List[bytes], lit: List[Tuple[int, int]],
                     trace: Optional[DescentTrace] = None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows of ``parts`` inside the query body, as columns in
        descent order.

        Plane 0's kernel tests every row; each later plane tests only the
        rows still standing.  The rows of a lit span (``(start, end)``
        indexes into ``parts``) are forced through every plane: a
        kernel's verdict on them could disagree with the rectangle
        classification by an ulp at region boundaries.
        """
        oids, vs, ps = self.codec.columns(b"".join(parts))
        n = len(oids)
        lit_rows = 0
        lit_mask = None
        if lit:
            size = self.codec.entry_size
            offsets = list(accumulate(map(len, parts), initial=0))
            lit_mask = np.zeros(n, dtype=bool)
            for start, end in lit:
                lo = offsets[start] // size
                hi = offsets[end] // size
                lit_mask[lo:hi] = True
                lit_rows += hi - lo
        if lit_rows < n:
            mask = regions[0].contains_batch(vs[:, 0], ps[:, 0])
            if lit_mask is not None:
                mask |= lit_mask
            keep = np.flatnonzero(mask)
            for i in range(1, self.d):
                passed = regions[i].contains_batch(vs[keep, i], ps[keep, i])
                if lit_mask is not None:
                    passed |= lit_mask[keep]
                keep = keep[passed]
            oids, vs, ps = oids[keep], vs[keep], ps[keep]
        if trace is not None:
            trace.entries_reported += lit_rows
            trace.entries_scanned += n - lit_rows
            trace.candidates += len(oids)
        return oids, vs, ps

    def _search_nonleaf(self, node: NonLeafNode,
                        regions: Tuple[QueryRegion2D, ...], memos: tuple,
                        parts: List[bytes], report,
                        trace: Optional[DescentTrace], depth: int) -> None:
        """Classify ``node``'s children and append the rows of their
        matching leaf records to ``parts``.

        Child ``base + c`` is visited for every ``(base, rb)`` in
        ``outer`` and ``(c, r)`` in ``inner`` -- the children no plane
        finds DISJUNCT, in ascending child index order.  It lies inside
        the query body when ``rb`` and ``r`` are both INSIDE; then
        ``report`` takes it without further geometry tests.  ``memos``
        holds one ``{(level, v, p): cell}`` dict per plane
        (:meth:`_classify_cell`): a node's class in plane ``i`` depends
        only on its level and plane-``i`` corner, so nodes sharing that
        cell share one classification.
        """
        if self._fast_descent:
            # Two dimensions with the shared classification, inline: one
            # memo probe per plane, and one DISJUNCT plane-1 code skips
            # its whole block of four children.
            vc = node.v_corner
            pc = node.p_corner
            level = node.level
            memo0, memo1 = memos
            key = (level, vc[0], pc[0])
            cell0 = memo0.get(key)
            if cell0 is None:
                cell0 = memo0[key] = self._classify_cell(
                    regions[0], 0, level, vc[0], pc[0])
            key = (level, vc[1], pc[1])
            cell1 = memo1.get(key)
            if cell1 is None:
                cell1 = memo1[key] = self._classify_cell(
                    regions[1], 1, level, vc[1], pc[1])
            inner = cell0[1]
            outer = cell1[1]
            if trace is not None:
                self._trace_nonleaf(node, outer, inner,
                                    (cell0[0], cell1[0]), trace, depth)
        else:
            outer, inner, classified = self._plane_codes(node, regions,
                                                         memos)
            if trace is not None:
                self._trace_nonleaf(node, outer, inner, classified, trace,
                                    depth)
        children = node.children
        child_is_leaf = node.child_is_leaf
        inside = RelPos.INSIDE
        invalid = INVALID_RID
        cache = self.cache
        cache_get = cache.get
        # The child lookup below is cache.get's hit path unrolled into
        # the loop: resident frame -> its decoded record, counted as the
        # logical read and LRU move a fetch makes.  Anything else (page
        # not resident, record not decoded) goes through cache.get with
        # the frame already looked up.
        pool = cache.store.pool
        frames_get = pool._frames.get
        frames_move = pool._frames.move_to_end
        iostats = pool.stats
        parts_append = parts.append
        search_nonleaf = self._search_nonleaf
        depth1 = depth + 1
        for base, rb in outer:
            for c, r in inner:
                idx = base + c
                child_rid = children[idx]
                if child_rid == invalid:
                    continue
                if r is inside and rb is inside:
                    report(child_rid, child_is_leaf[idx])
                    continue
                page_id = child_rid // MAX_SLOTS_PER_PAGE
                page = frames_get(page_id)
                if page is None:
                    child = cache_get(child_rid, None)
                else:
                    iostats.logical_reads += 1
                    frames_move(page_id)
                    child = page.decoded.get(child_rid)
                    if child is None:
                        child = cache_get(child_rid, page)
                    else:
                        cache.hits += 1
                if not child_is_leaf[idx]:
                    search_nonleaf(child, regions, memos, parts, report,
                                   trace, depth1)
                elif child.overflow == invalid:
                    parts_append(child.rows)
                else:
                    parts_append(self._leaf_rows(child))

    def _classify_cell(self, region: QueryRegion2D, i: int, level: int,
                       v: float, p: float):
        """One plane cell, as the per-search memos keep it: ``(rels,
        codes)``, where ``rels`` is ``region.classify_quads`` of the
        plane-``i`` quads of a level-``level`` node cornered at ``(v,
        p)``, and ``codes`` lists the non-DISJUNCT ones as ``(code << 2i,
        rel)`` -- their part of a child index."""
        sl_v, sl_p = self._child_sides(level + 1)
        v_mid = v + sl_v[i]
        p_mid = p + sl_p[i]
        rels = region.classify_quads(v, v_mid, v_mid + sl_v[i],
                                     p, p_mid, p_mid + sl_p[i])
        shift = 2 * i
        disjunct = RelPos.DISJUNCT
        return rels, [(c << shift, r) for c, r in enumerate(rels)
                      if r is not disjunct]

    def _plane_codes(self, node: NonLeafNode,
                     regions: Tuple[QueryRegion2D, ...], memos: tuple):
        """``(outer, inner, classified)`` for :meth:`_search_nonleaf` in
        any dimensionality, and for ablation A2.

        With the shared classification, ``inner`` holds plane 0's
        non-DISJUNCT quad codes and ``outer`` the non-DISJUNCT
        combinations of the other planes (INSIDE only if INSIDE in every
        one of them), each plane's cell taken from ``memos``.  Under A2
        (``quad_pruning=False``) each present child is classified on its
        own with :meth:`QueryRegion2D.classify_rect`, plane by plane up to
        the first DISJUNCT plane, and ``inner`` lists the surviving child
        indexes.  ``classified`` holds every classification made, per
        plane or per child, for the trace.
        """
        vc = node.v_corner
        pc = node.p_corner
        inside = RelPos.INSIDE
        if not self._quad_pruning:
            disjunct = RelPos.DISJUNCT
            sl_v, sl_p = self._child_sides(node.level + 1)
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
        level = node.level
        cells = []
        for i, memo in enumerate(memos):
            key = (level, vc[i], pc[i])
            cell = memo.get(key)
            if cell is None:
                cell = memo[key] = self._classify_cell(
                    regions[i], i, level, vc[i], pc[i])
            cells.append(cell)
        outer = [(0, inside)]
        for _, codes in reversed(cells[1:]):
            outer = [(base | code, r if rb is inside else rb)
                     for base, rb in outer for code, r in codes]
        return outer, cells[0][1], [rels for rels, _ in cells]

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
        live = reported = leaves = 0
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
                    leaves += 1
        trace.max_depth = max(trace.max_depth, deepest)
        trace.leaf_visits += leaves
        trace.children_pruned += len(node.present_children()) - live
        trace.children_reported += reported
        trace.children_recursed += live - reported

    # ------------------------------------------------------------------ #
    # Bulk access, teardown, statistics
    # ------------------------------------------------------------------ #

    def all_entries(self) -> List[DualPoint]:
        """Every stored dual point (for checkers, and for a sharded
        mirror that reloads a window)."""
        return self.codec.points(
            self._subtree_rows(self._root_rid, self._root_is_leaf))

    def _subtree_rows(self, rid: int, is_leaf: bool) -> bytes:
        """Packed rows of a subtree's leaves, in walk order (present
        children ascending, each leaf followed by its chain), joined
        once."""
        parts: List[bytes] = []
        self._collect_rows(rid, is_leaf, parts)
        return b"".join(parts)

    def _collect_rows(self, rid: int, is_leaf: bool, out: List[bytes],
                      trace: Optional[DescentTrace] = None) -> None:
        """Append the packed rows of a subtree's leaves to ``out``, one
        part per leaf and its chain; ``trace`` counts the visits (a
        search's all-INSIDE subtree)."""
        node = self.cache.get(rid)
        if is_leaf:
            if trace is not None:
                trace.leaf_visits += 1
            out.append(self._leaf_rows(node))
            return
        if trace is not None:
            trace.nonleaf_visits += 1
        for idx in node.present_children():
            self._collect_rows(node.children[idx], node.child_is_leaf[idx],
                               out, trace)

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
        stats = QuadTreeStats(entries=self.count,
                              leaves_per_rung=[0] * len(self.leaf_ladder))
        if self._root_rid == INVALID_RID:
            return stats
        self._collect_stats(self._root_rid, self._root_is_leaf, 0, stats)
        return stats

    def _collect_stats(self, rid: int, is_leaf: bool, depth: int,
                       stats: QuadTreeStats) -> None:
        stats.height = max(stats.height, depth + 1)
        if is_leaf:
            rung = self._ladder_index[self.store.record_size_of(rid)]
            stats.leaves_per_rung[rung] += 1
            stats.leaf_slots += self.leaf_capacities[rung]
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
        fields equal their subtree's true entry count, each decoded
        record equals the record on its page (:meth:`_check_page`),
        overflow chains hang only off top-rung leaves at maximum depth,
        and no record is reachable twice.  The root total must equal
        ``self.count``.
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
        size = self.codec.entry_size
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
            if len(leaf.rows) // size > capacity:
                problems.append(
                    f"leaf {rid} holds {len(leaf.rows) // size} entries, "
                    f"over its capacity of {capacity}")
        self._check_page(rid, leaf, problems)
        parts = [leaf.rows]
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
                self._check_page(ext_rid, ext, problems)
                if len(ext.rows) // size > self.ext_capacity:
                    problems.append(
                        f"extension {ext_rid} holds {len(ext.rows) // size} "
                        f"entries, over its capacity of "
                        f"{self.ext_capacity}")
                parts.append(ext.rows)
                ext_rid = ext.overflow
        entries = self.codec.points(b"".join(parts))
        misplaced = sum(
            not self._check_entry_in_quad(entry, level, leaf.v_corner,
                                          leaf.p_corner)
            for entry in entries)
        if misplaced:
            problems.append(
                f"leaf {rid} holds {misplaced} entries outside its quad")
        return len(entries)

    def _check_page(self, rid: int, rec, problems: List[str]) -> None:
        """A decoded record must be the record on its page: writes edit
        the decoded record and then write it, whole or one field, so an
        edit never written would answer searches and counts the page
        disagrees with.  Leaves and extensions compare their rows;
        non-leaves their ``size``, child slots and is-leaf mask (corners
        are checked against the parent, and a node built in memory keeps
        float32 corners unrounded)."""
        page = self.codec.deserialize(self.store.read(rid))
        if isinstance(rec, NonLeafNode):
            if (rec.size != page.size or rec.children != page.children
                    or rec.child_is_leaf != page.child_is_leaf):
                problems.append(
                    f"non-leaf {rid} keeps a size or child slots that "
                    f"differ from its page")
        elif rec.rows != page.rows:
            problems.append(
                f"record {rid} keeps packed rows that differ from its "
                f"page")

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
        self._check_page(rid, node, problems)
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
