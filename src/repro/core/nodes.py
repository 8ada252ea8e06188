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

Leaf and extension records keep their entries in that on-page layout:
the *packed rows*.  Decoding a record keeps a slice of its bytes and
serializing one writes its rows.  A search joins the rows of every
record it reads and views them as numpy columns once
(:meth:`NodeCodec.columns`).  Writes edit the rows too: an insert into
a leaf with room appends packed rows (:meth:`NodeCodec.append_rows`) and
a delete splices rows out (:meth:`NodeCodec.remove_rows`).  The
``DualPoint`` list is decoded from the rows only when an extension (kNN,
join), a checker, or a path that rebuilds records (overflow chains,
promotions, splits, collapses) asks for it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
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

_MASK_BITS = tuple(tuple(bool(byte >> bit & 1) for bit in range(8))
                   for byte in range(256))
"""The eight is-leaf flags of each mask byte value, lowest bit first."""


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


def points_from_columns(oids: np.ndarray, vs: np.ndarray,
                        ps: np.ndarray) -> List[DualPoint]:
    """:class:`DualPoint` objects for column rows (Python ``int`` oids,
    tuples of ``float``), in row order."""
    return list(map(DualPoint, oids.tolist(), map(tuple, vs.tolist()),
                    map(tuple, ps.tolist())))


class _LeafRecord:
    """Entry storage shared by leaves and leaf extensions.

    A record holds its entries as a ``List[DualPoint]``, as packed rows
    -- the bytes of the on-page entry layout
    (:attr:`NodeCodec._entry_dtype`) -- or both:

    * Records decoded from a page start with the rows only, a bytes
      slice of the record.  The query descent, traced or not, reads only
      the rows and never creates per-entry objects, and an insert into
      a leaf with room or a delete from a leaf without an overflow chain
      edits the rows (:meth:`NodeCodec.append_rows`,
      :meth:`NodeCodec.remove_rows`).  The ``entries`` list is decoded
      from them on first access -- by an extension (kNN, join), a
      checker, or a write path that rebuilds records (overflow chains,
      promotions, splits, collapses).
    * Records built in memory start with the list.  Packing it
      (:meth:`NodeCodec.rows`, which serializing calls) keeps the rows
      and drops the list, so the next search or write reads the rows.

    The rows are valid while ``_entries`` is None (rows only) or is the
    *same list* at the *same length* the rows were decoded into: every
    mutation path either replaces the list or grows/shrinks it.
    Holding a reference to the list (not just its ``id``) makes the
    identity test immune to CPython id reuse.  The query descent
    inlines this test; :meth:`_rows_valid` is the reference form and
    :meth:`NodeCodec.rows` repacks stale rows.
    """

    __slots__ = ("_entries", "_rows", "_rows_entries", "_rows_len",
                 "_codec", "overflow")

    def _init_entries(self, entries: Optional[List[DualPoint]],
                      overflow: int) -> None:
        self._entries = entries if entries is not None else []
        self._rows = None
        self._rows_entries = None
        self._rows_len = -1
        self._codec = None
        self.overflow = overflow

    def _keep_rows(self, codec: "NodeCodec", rows: bytes,
                   count: int) -> None:
        """Hold ``count`` packed ``rows`` in place of any entry list."""
        self._entries = None
        self._rows = rows
        self._rows_entries = None
        self._rows_len = count
        self._codec = codec

    def _rows_valid(self) -> bool:
        entries = self._entries
        return entries is None or (self._rows_entries is entries
                                   and self._rows_len == len(entries))

    @property
    def entries(self) -> List[DualPoint]:
        entries = self._entries
        if entries is None:
            entries = self._codec._unpack_entries(self._rows)
            self._entries = entries
            self._rows_entries = entries
        return entries

    @entries.setter
    def entries(self, entries: List[DualPoint]) -> None:
        self._entries = entries

    @property
    def size(self) -> int:
        """Entries in this record only (not the overflow chain)."""
        entries = self._entries
        return self._rows_len if entries is None else len(entries)


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
        # The same entry layout as a numpy structured dtype (v
        # coordinates, then p coordinates, after the oid): packed rows
        # are read through it as columns and as entries.
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
        parts = self._nonleaf.unpack_from(raw)
        d = self.d
        end = 3 + 2 * d
        child_is_leaf = list(chain.from_iterable(
            map(_MASK_BITS.__getitem__, parts[-1])))
        del child_is_leaf[self.fanout:]
        return NonLeafNode(parts[1], parts[3: 3 + d], parts[3 + d: end],
                           list(parts[end: end + self.fanout]),
                           child_is_leaf, parts[2])

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

    def _unpack_entries(self, rows: bytes) -> List[DualPoint]:
        """The :class:`DualPoint` list of packed rows, read straight from
        field views (float32 coordinates become Python floats exactly)."""
        d = self.d
        table = np.frombuffer(rows, self._entry_dtype)
        coords = table["coords"]
        return points_from_columns(table["oid"], coords[:, :d],
                                   coords[:, d:])

    def rows(self, record: "_LeafRecord") -> bytes:
        """``record``'s packed rows, repacked from its entries when the
        list changed since it was last decoded.  Repacking keeps the rows
        and drops the list."""
        if record._rows_valid():
            return record._rows
        entries = record._entries
        rows = self._pack_entries(entries)
        record._keep_rows(self, rows, len(entries))
        return rows

    def append_rows(self, record: "_LeafRecord",
                    points: List[DualPoint]) -> None:
        """Append ``points`` to ``record``'s rows: the bytes packing the
        extended entry list would give, without decoding the list."""
        rows = self.rows(record)
        record._keep_rows(self, rows + self._pack_entries(points),
                          record._rows_len + len(points))

    def remove_rows(self, record: "_LeafRecord",
                    points: List[DualPoint]) -> List[bool]:
        """Splice one row per point out of ``record``'s rows and return
        the removed flags, in point order.

        A point takes the first row still present that equals it in
        ``(oid, v, p)`` -- compared as floats, as ``DualPoint`` tuples
        compare -- else the first such row with its oid, else nothing:
        the rows successive
        :meth:`repro.core.quadtree.DualQuadTree._find_entry` + ``pop``
        calls on the entry list would take.  The rows are replaced only
        when some point matched.
        """
        rows = self.rows(record)
        table = np.frombuffer(rows, self._entry_dtype)
        oids = table["oid"]
        coords = table["coords"]
        taken: set = set()
        flags = []
        for point in points:
            free = [i for i in np.flatnonzero(oids == point.oid).tolist()
                    if i not in taken]
            if free:
                want = point.v + point.p
                taken.add(next(
                    (i for i in free if tuple(coords[i].tolist()) == want),
                    free[0]))
            flags.append(bool(free))
        if taken:
            size = self.entry_size
            bounds = [-1, *sorted(taken), record._rows_len]
            record._keep_rows(self, b"".join(
                rows[(a + 1) * size: b * size]
                for a, b in zip(bounds, bounds[1:])),
                record._rows_len - len(taken))
        return flags

    def columns(self, rows: bytes
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(oids, vs, ps)`` field views of packed rows: one
        ``frombuffer`` and no copy, except that float32 coordinates are
        widened to float64 in one copy (exactly: dual coordinates are
        rounded at transform time)."""
        d = self.d
        table = np.frombuffer(rows, self._entry_dtype)
        coords = table["coords"]
        if self.float32:
            coords = coords.astype(np.float64)
        return table["oid"], coords[:, :d], coords[:, d:]

    def _serialize_records(self, header: bytes,
                           node: "_LeafRecord") -> bytes:
        """``header`` plus ``node``'s packed rows (:meth:`rows`)."""
        return header + self.rows(node)

    def _serialize_leaf(self, node: LeafNode) -> bytes:
        return self._serialize_records(self._leaf_header.pack(
            _TAG_LEAF, node.level, node.size, node.overflow,
            *node.v_corner, *node.p_corner), node)

    def _deserialize_leaf(self, raw: bytes) -> LeafNode:
        header = self._leaf_header
        parts = header.unpack_from(raw)
        d = self.d
        count = parts[2]
        leaf = LeafNode.__new__(LeafNode)
        leaf.level = parts[1]
        leaf.overflow = parts[3]
        leaf.v_corner = parts[4: 4 + d]
        leaf.p_corner = parts[4 + d: 4 + 2 * d]
        # Rows are bytes of their own: ``raw`` may be a view of a frame
        # that later writes overwrite in place.
        leaf._keep_rows(self, bytes(
            raw[header.size: header.size + count * self._entry.size]), count)
        return leaf

    def _serialize_extension(self, node: LeafExtension) -> bytes:
        return self._serialize_records(self._ext_header.pack(
            _TAG_EXTENSION, node.size, node.overflow), node)

    def _deserialize_extension(self, raw: bytes) -> LeafExtension:
        header = self._ext_header
        _, count, overflow = header.unpack_from(raw)
        ext = LeafExtension.__new__(LeafExtension)
        ext.overflow = overflow
        ext._keep_rows(self, bytes(
            raw[header.size: header.size + count * self._entry.size]), count)
        return ext
