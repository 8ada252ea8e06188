"""STRIPES quadtree node layouts and their binary codec.

Three record types live in the record store (Section 4.2):

* **Non-leaf nodes** -- small records (the paper packs ~11 per 4 KB page):
  level, grid lower corner, ``4^d`` child record ids, an is-leaf bitmask,
  and the subtree entry count (``size``).
* **Leaf nodes** -- *small* (half-page) or *large* (full-page) records
  holding dual points.  A leaf carries an ``overflow`` record id used only
  when a maximum-depth leaf must hold more entries than fit in one record
  (e.g. many coincident points); ``-1`` otherwise.
* **Leaf extensions** -- continuation records for such overflow chains.

Side lengths are not stored: a node at level ``k`` spans
``extent / 2**k`` per axis (the root is level 0), so the grid tuple
``(V', P', SL^V, SL^P)`` of Section 4.2 is reconstructed from the corner
and the level.

All integers are little-endian; coordinates are 8-byte floats by default or
4-byte floats in the paper-faithful ``float32`` layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.dual import DualPoint

INVALID_RID = -1

_PACK_BATCH_MIN = 8
"""Entry count above which leaf serialization packs the whole array with
one pre-compiled ``struct`` call instead of a per-entry pack + join."""

_TAG_NONLEAF = 0
_TAG_LEAF = 1
_TAG_EXTENSION = 2


@dataclass
class NonLeafNode:
    """Interior quadtree node: fanout ``4^d`` children."""

    level: int
    v_corner: Tuple[float, ...]
    p_corner: Tuple[float, ...]
    children: List[int]            # record ids, INVALID_RID when absent
    child_is_leaf: List[bool]
    size: int                      # entries stored in the whole subtree

    @property
    def is_leaf(self) -> bool:
        return False

    def present_children(self) -> List[int]:
        """Indices of existing children."""
        return [i for i, rid in enumerate(self.children) if rid != INVALID_RID]


class LeafSoA:
    """Structure-of-arrays view of one leaf record's entries.

    ``oids`` is an ``int64`` column; ``vs``/``ps`` are ``(n, d)`` coordinate
    columns.  They are always ``float64``, even in the paper-faithful
    float32 layout: dual coordinates are rounded at transform time and
    widen exactly, so the column holds the same values the scalar path
    compares without a per-query upcast copy.  The vectorized query
    kernels (:meth:`repro.core.query_region.QueryRegion2D.contains_batch`)
    consume these columns instead of iterating :class:`DualPoint` objects.
    """

    __slots__ = ("oids", "vs", "ps")

    def __init__(self, oids: np.ndarray, vs: np.ndarray, ps: np.ndarray):
        self.oids = oids
        self.vs = vs
        self.ps = ps

    def __len__(self) -> int:
        return len(self.oids)


def _build_soa(entries: List[DualPoint], d: int) -> LeafSoA:
    n = len(entries)
    if n == 0:
        return LeafSoA(np.empty(0, dtype=np.int64),
                       np.empty((0, d), dtype=np.float64),
                       np.empty((0, d), dtype=np.float64))
    oids = np.fromiter((e.oid for e in entries), dtype=np.int64, count=n)
    vs = np.array([e.v for e in entries], dtype=np.float64)
    ps = np.array([e.p for e in entries], dtype=np.float64)
    return LeafSoA(oids, vs, ps)


def points_from_columns(oids: np.ndarray, vs: np.ndarray,
                        ps: np.ndarray) -> List[DualPoint]:
    """:class:`DualPoint` objects for SoA rows (Python ``int`` oids,
    tuples of ``float``), in row order."""
    return list(map(DualPoint, oids.tolist(), map(tuple, vs.tolist()),
                    map(tuple, ps.tolist())))


class _LeafRecord:
    """Entry storage shared by leaves and leaf extensions.

    A record holds its entries as a ``List[DualPoint]``, as SoA columns
    (:class:`LeafSoA`), or both:

    * Records built in memory by the write paths start with the list;
      :meth:`soa` builds the columns on first use and caches them.
    * Records decoded from a page start with the columns only.  The
      ``entries`` list is built from them on first access -- by a write
      path, a scalar/traced search, or a checker -- so the query descent,
      which reads only the columns, never creates per-entry objects.

    The cached columns are valid while ``_entries`` is None (decoded,
    never materialized) or is the *same list* at the *same length* the
    columns were built from: every mutation path either replaces the
    list or grows/shrinks it.  Holding a reference to the list (not just
    its ``id``) makes the identity test immune to CPython id reuse.  The
    query descent inlines this test; :meth:`soa` is the reference form.
    """

    __slots__ = ("_entries", "_soa", "_soa_entries", "_soa_len",
                 "overflow")

    def _init_entries(self, entries: Optional[List[DualPoint]],
                      overflow: int) -> None:
        self._entries = entries if entries is not None else []
        self._soa = None
        self._soa_entries = None
        self._soa_len = -1
        self.overflow = overflow

    def _adopt_columns(self, soa: LeafSoA) -> None:
        """Hold decoded columns in place of an entry list."""
        self._entries = None
        self._soa = soa
        self._soa_entries = None
        self._soa_len = len(soa.oids)

    @property
    def entries(self) -> List[DualPoint]:
        entries = self._entries
        if entries is None:
            soa = self._soa
            entries = points_from_columns(soa.oids, soa.vs, soa.ps)
            self._entries = entries
            self._soa_entries = entries
        return entries

    @entries.setter
    def entries(self, entries: List[DualPoint]) -> None:
        self._entries = entries

    @property
    def size(self) -> int:
        """Entries in this record only (not the overflow chain)."""
        entries = self._entries
        return self._soa_len if entries is None else len(entries)

    def soa(self, d: int) -> LeafSoA:
        entries = self._entries
        if entries is None or (self._soa_entries is entries
                               and self._soa_len == len(entries)):
            return self._soa
        view = _build_soa(entries, d)
        self._soa = view
        self._soa_entries = entries
        self._soa_len = len(entries)
        return view


class LeafNode(_LeafRecord):
    """Leaf bucket of dual points (plus an optional overflow chain)."""

    __slots__ = ("level", "v_corner", "p_corner")

    is_leaf = True

    def __init__(self, level: int, v_corner: Tuple[float, ...],
                 p_corner: Tuple[float, ...],
                 entries: Optional[List[DualPoint]] = None,
                 overflow: int = INVALID_RID):
        self.level = level
        self.v_corner = v_corner
        self.p_corner = p_corner
        self._init_entries(entries, overflow)

    def __eq__(self, other) -> bool:
        if type(other) is not LeafNode:
            return NotImplemented
        return (self.level == other.level
                and self.v_corner == other.v_corner
                and self.p_corner == other.p_corner
                and self.overflow == other.overflow
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return (f"LeafNode(level={self.level!r}, v_corner={self.v_corner!r}, "
                f"p_corner={self.p_corner!r}, entries={self.entries!r}, "
                f"overflow={self.overflow!r})")


class LeafExtension(_LeafRecord):
    """Continuation record of an overflowing maximum-depth leaf."""

    __slots__ = ()

    def __init__(self, entries: Optional[List[DualPoint]] = None,
                 overflow: int = INVALID_RID):
        self._init_entries(entries, overflow)

    def __eq__(self, other) -> bool:
        if type(other) is not LeafExtension:
            return NotImplemented
        return (self.overflow == other.overflow
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return (f"LeafExtension(entries={self.entries!r}, "
                f"overflow={self.overflow!r})")


Node = Union[NonLeafNode, LeafNode, LeafExtension]


class NodeCodec:
    """Serialize/deserialize quadtree nodes for a given dimensionality and
    coordinate width.  One codec instance serves one quadtree."""

    def __init__(self, d: int, float32: bool = False):
        if d < 1:
            raise ValueError("dimensionality must be >= 1")
        self.d = d
        self.fanout = 4 ** d
        self.float32 = float32
        coord = "f" if float32 else "d"
        self.coord_bytes = 4 if float32 else 8
        # Non-leaf: tag, level, size, corners (2d coords), children
        # (fanout i64), is-leaf bitmask.
        self._isleaf_bytes = (self.fanout + 7) // 8
        self._nonleaf = struct.Struct(
            f"<BHI{2 * d}{coord}{self.fanout}q{self._isleaf_bytes}s")
        # Leaf header: tag, level, count, overflow rid, corners.
        self._leaf_header = struct.Struct(f"<BHHq{2 * d}{coord}")
        # Extension header: tag, count, overflow rid.
        self._ext_header = struct.Struct("<BHq")
        self._entry = struct.Struct(f"<q{2 * d}{coord}")
        # Batched entry packing: one pre-compiled Struct covering n entries
        # replaces n pack calls + a join.  Keyed by n, which is bounded by
        # the leaf/extension capacities, so the memo stays small.
        self._entry_fmt = f"q{2 * d}{coord}"
        self._entry_batch: dict[int, struct.Struct] = {}
        # Decode side: the same entry layout as a numpy structured dtype
        # (v coordinates, then p coordinates, after the oid).
        self._entry_dtype = np.dtype(
            [("oid", "<i8"),
             ("coords", "<f4" if float32 else "<f8", (2 * d,))])

    # ------------------------------------------------------------------ #
    # Sizes and capacities
    # ------------------------------------------------------------------ #

    @property
    def nonleaf_record_size(self) -> int:
        """Exact byte size of a serialized non-leaf node."""
        return self._nonleaf.size

    @property
    def entry_size(self) -> int:
        """Bytes per leaf entry (oid + 2d coordinates)."""
        return self._entry.size

    def leaf_capacity(self, record_size: int) -> int:
        """Entries that fit in a leaf record of ``record_size`` bytes."""
        usable = record_size - self._leaf_header.size
        if usable < self.entry_size:
            raise ValueError(
                f"leaf record of {record_size} bytes cannot hold any entry")
        return usable // self.entry_size

    def extension_capacity(self, record_size: int) -> int:
        """Entries that fit in an extension record."""
        usable = record_size - self._ext_header.size
        return usable // self.entry_size

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def serialize(self, node: Node) -> bytes:
        if isinstance(node, NonLeafNode):
            return self._serialize_nonleaf(node)
        if isinstance(node, LeafNode):
            return self._serialize_leaf(node)
        if isinstance(node, LeafExtension):
            return self._serialize_extension(node)
        raise TypeError(f"cannot serialize {type(node).__name__}")

    def deserialize(self, raw: bytes) -> Node:
        tag = raw[0]
        if tag == _TAG_NONLEAF:
            return self._deserialize_nonleaf(raw)
        if tag == _TAG_LEAF:
            return self._deserialize_leaf(raw)
        if tag == _TAG_EXTENSION:
            return self._deserialize_extension(raw)
        raise ValueError(f"unknown node tag {tag}")

    def _serialize_nonleaf(self, node: NonLeafNode) -> bytes:
        if len(node.children) != self.fanout:
            raise ValueError(
                f"non-leaf has {len(node.children)} child slots, expected "
                f"{self.fanout}")
        mask = bytearray(self._isleaf_bytes)
        for i, leaf_flag in enumerate(node.child_is_leaf):
            if leaf_flag:
                mask[i >> 3] |= 1 << (i & 7)
        return self._nonleaf.pack(
            _TAG_NONLEAF, node.level, node.size,
            *node.v_corner, *node.p_corner,
            *node.children, bytes(mask))

    def _deserialize_nonleaf(self, raw: bytes) -> NonLeafNode:
        parts = self._nonleaf.unpack(raw[: self._nonleaf.size])
        _, level, size = parts[0], parts[1], parts[2]
        offset = 3
        v_corner = tuple(parts[offset: offset + self.d])
        p_corner = tuple(parts[offset + self.d: offset + 2 * self.d])
        offset += 2 * self.d
        children = list(parts[offset: offset + self.fanout])
        mask = parts[offset + self.fanout]
        child_is_leaf = [bool(mask[i >> 3] & (1 << (i & 7)))
                         for i in range(self.fanout)]
        return NonLeafNode(level, v_corner, p_corner, children,
                           child_is_leaf, size)

    def _pack_entries(self, entries: List[DualPoint]) -> bytes:
        n = len(entries)
        if n < _PACK_BATCH_MIN:
            return b"".join(
                self._entry.pack(e.oid, *e.v, *e.p) for e in entries)
        st = self._entry_batch.get(n)
        if st is None:
            st = struct.Struct("<" + self._entry_fmt * n)
            self._entry_batch[n] = st
        flat: List = []
        append = flat.append
        extend = flat.extend
        for e in entries:
            append(e.oid)
            extend(e.v)
            extend(e.p)
        # One pack call emits the identical bytes the per-entry join
        # would: same little-endian layout, same double->float conversion
        # per coordinate in the float32 layout.
        return st.pack(*flat)

    def _unpack_columns(self, raw: bytes, offset: int,
                        count: int) -> LeafSoA:
        """Decode ``count`` packed entries into SoA columns with one
        ``frombuffer`` over the entry dtype.  The widening copies give
        aligned columns that do not keep ``raw`` alive."""
        d = self.d
        rows = np.frombuffer(raw, self._entry_dtype, count, offset)
        coords = rows["coords"].astype(np.float64)
        return LeafSoA(rows["oid"].astype(np.int64),
                       coords[:, :d], coords[:, d:])

    def _serialize_leaf(self, node: LeafNode) -> bytes:
        header = self._leaf_header.pack(
            _TAG_LEAF, node.level, len(node.entries), node.overflow,
            *node.v_corner, *node.p_corner)
        return header + self._pack_entries(node.entries)

    def _deserialize_leaf(self, raw: bytes) -> LeafNode:
        parts = self._leaf_header.unpack(raw[: self._leaf_header.size])
        _, level, count, overflow = parts[:4]
        v_corner = tuple(parts[4: 4 + self.d])
        p_corner = tuple(parts[4 + self.d: 4 + 2 * self.d])
        leaf = LeafNode(level, v_corner, p_corner, None, overflow)
        leaf._adopt_columns(
            self._unpack_columns(raw, self._leaf_header.size, count))
        return leaf

    def _serialize_extension(self, node: LeafExtension) -> bytes:
        header = self._ext_header.pack(
            _TAG_EXTENSION, len(node.entries), node.overflow)
        return header + self._pack_entries(node.entries)

    def _deserialize_extension(self, raw: bytes) -> LeafExtension:
        _, count, overflow = self._ext_header.unpack(
            raw[: self._ext_header.size])
        ext = LeafExtension(None, overflow)
        ext._adopt_columns(
            self._unpack_columns(raw, self._ext_header.size, count))
        return ext
