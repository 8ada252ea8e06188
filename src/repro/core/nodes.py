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

A record is decoded in place, from the buffer that holds it
(``deserialize(buf, offset)``, as the node cache hands over a frame), and
the decoded node keeps no reference into that buffer.

A leaf or extension record holds its entries only in that on-page
layout: the *packed rows*.  Decoding a record copies its rows once, into
``bytes`` of their own, and serializing one writes its rows.  A search
joins the rows of every record it reads and views them as numpy columns
once (:meth:`NodeCodec.columns`).  Every write works on rows too: an
insert into a leaf with room appends packed rows, a delete splices rows
out (:meth:`NodeCodec.remove_rows`, which finds each row by scanning the
bytes for its oid), and the paths that rebuild records (promotions,
overflow chains, splits, collapses) join, slice and partition rows.
``DualPoint`` objects are decoded from rows (:meth:`NodeCodec.points`)
only for an extension (kNN, join), a checker, or
:meth:`repro.core.quadtree.DualQuadTree.all_entries`.

Most writes to a non-leaf change only its ``size``: every insert or
delete passing through it that links in, relinks or collapses no child.
Such a write edits that one field in place (:attr:`NodeCodec.size_field`,
a :class:`RecordField` the codec owns, written by
:meth:`repro.storage.node_store.NodeCache.write_field`); a non-leaf
whose child links changed is serialized whole.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
from typing import List, NamedTuple, Tuple, Union

import numpy as np

from repro.core.dual import DualPoint

INVALID_RID = -1

_PACK_BATCH_MIN = 8
"""Entry count above which :meth:`NodeCodec.pack` packs the whole array
with one pre-compiled ``struct`` call instead of a per-entry pack +
join."""

_PACK_CHUNK = 256
"""Most entries :meth:`NodeCodec.pack` packs with one ``struct`` call; a
larger group (a bulk load, a split) is packed in chunks.  Compiled structs
are memoized by entry count, so the chunk bounds the memo and each
call's argument tuple, as record capacities (at most ~250 entries)
bounded them when only whole records were packed."""

_TAG_NONLEAF = 0
_TAG_LEAF = 1
_TAG_EXTENSION = 2

_MASK_BITS = tuple(tuple(bool(byte >> bit & 1) for bit in range(8))
                   for byte in range(256))
"""The eight is-leaf flags of each mask byte value, lowest bit first."""


class RecordField(NamedTuple):
    """One fixed-width field of a record, written in place: its byte
    offset in the record, the ``Struct`` that packs it, and the attribute
    of the decoded node that holds its value."""

    offset: int
    struct: struct.Struct
    attr: str

    def pack(self, node) -> bytes:
        """The field's bytes for ``node``'s current value."""
        return self.struct.pack(getattr(node, self.attr))


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

    ``rows`` holds the record's entries as packed rows, the bytes of the
    on-page entry layout (:attr:`NodeCodec._entry_dtype`); the entry
    count is ``len(rows) // NodeCodec.entry_size``.  A record decoded
    from a page keeps a ``bytes`` copy of its rows, and serializing
    writes ``rows`` after the header, so the rows are the only copy of
    the entries.  ``overflow`` is the record id of the next record of an
    overflow chain, or :data:`INVALID_RID`.
    """

    __slots__ = ("rows", "overflow")


class LeafNode(_LeafRecord):
    """Leaf bucket of dual points (plus an optional overflow chain)."""

    __slots__ = ("level", "v_corner", "p_corner")

    is_leaf = True

    def __init__(self, level: int, v_corner: Tuple[float, ...],
                 p_corner: Tuple[float, ...], rows: bytes = b"",
                 overflow: int = INVALID_RID):
        self.level = level
        self.v_corner = v_corner
        self.p_corner = p_corner
        self.rows = rows
        self.overflow = overflow

    def __eq__(self, other) -> bool:
        if type(other) is not LeafNode:
            return NotImplemented
        return (self.level == other.level
                and self.v_corner == other.v_corner
                and self.p_corner == other.p_corner
                and self.overflow == other.overflow
                and self.rows == other.rows)

    def __repr__(self) -> str:
        return (f"LeafNode(level={self.level!r}, v_corner={self.v_corner!r}, "
                f"p_corner={self.p_corner!r}, rows={self.rows!r}, "
                f"overflow={self.overflow!r})")


class LeafExtension(_LeafRecord):
    """Continuation record of an overflowing maximum-depth leaf."""

    __slots__ = ()

    def __init__(self, rows: bytes = b"", overflow: int = INVALID_RID):
        self.rows = rows
        self.overflow = overflow

    def __eq__(self, other) -> bool:
        if type(other) is not LeafExtension:
            return NotImplemented
        return self.overflow == other.overflow and self.rows == other.rows

    def __repr__(self) -> str:
        return (f"LeafExtension(rows={self.rows!r}, "
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
        #: The non-leaf ``size`` field, after the tag and the level.
        self.size_field = RecordField(struct.calcsize("<BH"),
                                      struct.Struct("<I"), "size")
        # Leaf header: tag, level, count, overflow rid, corners.
        self._leaf_header = struct.Struct(f"<BHHq{2 * d}{coord}")
        # Extension header: tag, count, overflow rid.
        self._ext_header = struct.Struct("<BHq")
        self._entry = struct.Struct(f"<q{2 * d}{coord}")
        # A row's oid and its coordinates, read apart by remove_rows.
        self._oid = struct.Struct("<q")
        self._coords = struct.Struct(f"<{2 * d}{coord}")
        # Batched entry packing: one pre-compiled Struct covering n entries
        # replaces n pack calls + a join.  Keyed by n <= _PACK_CHUNK, so
        # the memo stays small.
        self._entry_fmt = f"q{2 * d}{coord}"
        self._entry_batch: dict[int, struct.Struct] = {}
        # Decoding copies a record's rows with one pre-compiled
        # ``{n}s`` Struct, keyed by entry count (bounded by the record
        # capacity).
        self._rows_batch: dict[int, struct.Struct] = {}
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

    def deserialize(self, buf, offset: int = 0) -> Node:
        """Decode the record at ``offset`` of ``buf`` (any bytes-like
        object; bytes past the record are ignored).  The node keeps no
        reference into ``buf``."""
        tag = buf[offset]
        if tag == _TAG_NONLEAF:
            return self._deserialize_nonleaf(buf, offset)
        if tag == _TAG_LEAF:
            return self._deserialize_leaf(buf, offset)
        if tag == _TAG_EXTENSION:
            return self._deserialize_extension(buf, offset)
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

    def _deserialize_nonleaf(self, buf, offset: int) -> NonLeafNode:
        parts = self._nonleaf.unpack_from(buf, offset)
        d = self.d
        end = 3 + 2 * d
        child_is_leaf = list(chain.from_iterable(
            map(_MASK_BITS.__getitem__, parts[-1])))
        del child_is_leaf[self.fanout:]
        return NonLeafNode(parts[1], parts[3: 3 + d], parts[3 + d: end],
                           list(parts[end: end + self.fanout]),
                           child_is_leaf, parts[2])

    def pack(self, points: List[DualPoint]) -> bytes:
        """The packed rows of ``points``, in order."""
        n = len(points)
        if n > _PACK_CHUNK:
            return b"".join(self.pack(points[i: i + _PACK_CHUNK])
                            for i in range(0, n, _PACK_CHUNK))
        if n < _PACK_BATCH_MIN:
            return b"".join(
                self._entry.pack(e.oid, *e.v, *e.p) for e in points)
        st = self._entry_batch.get(n)
        if st is None:
            st = struct.Struct("<" + self._entry_fmt * n)
            self._entry_batch[n] = st
        flat: List = []
        append = flat.append
        extend = flat.extend
        for e in points:
            append(e.oid)
            extend(e.v)
            extend(e.p)
        # One pack call emits the identical bytes the per-entry join
        # would: same little-endian layout, same double->float conversion
        # per coordinate in the float32 layout.
        return st.pack(*flat)

    def points(self, rows: bytes) -> List[DualPoint]:
        """The :class:`DualPoint` list of packed rows, read straight from
        field views (float32 coordinates become Python floats exactly).
        Nothing keeps the list: each call decodes anew."""
        d = self.d
        table = np.frombuffer(rows, self._entry_dtype)
        coords = table["coords"]
        return points_from_columns(table["oid"], coords[:, :d],
                                   coords[:, d:])

    def remove_rows(self, rows: bytes, points: List[DualPoint]
                    ) -> Tuple[bytes, List[bool]]:
        """Splice one row per point out of ``rows``; returns the remaining
        rows and the removed flags, in point order.

        A point takes the first row still present that equals it in
        ``(oid, v, p)`` -- coordinates compared as floats, as ``DualPoint``
        tuples compare -- else the first such row with its oid, else
        nothing.  Coordinates recomputed from stale caller state can drift
        by rounding, but an oid appears in exactly one leaf of a sub-index
        under the one-entry-per-object discipline.  A point's rows are
        found by scanning ``rows`` for its oid's packed bytes and keeping
        the hits at row-aligned offsets; only those rows' coordinates are
        unpacked.  ``rows`` itself is returned when no point matched.
        """
        size = self._entry.size
        find = rows.find
        pack_oid = self._oid.pack
        coords_at = self._coords.unpack_from
        oid_bytes = self._oid.size
        taken: set = set()
        flags = []
        for point in points:
            key = pack_oid(point.oid)
            want = point.v + point.p
            found = -1
            pos = find(key)
            while pos >= 0:
                skew = pos % size
                if skew:
                    # Inside a row's coordinates: go on at the next row.
                    pos = find(key, pos - skew + size)
                    continue
                if pos not in taken:
                    if coords_at(rows, pos + oid_bytes) == want:
                        found = pos
                        break
                    if found < 0:
                        found = pos
                pos = find(key, pos + size)
            if found >= 0:
                taken.add(found)
            flags.append(found >= 0)
        if taken:
            bounds = [-size, *sorted(taken), len(rows)]
            rows = b"".join([rows[a + size: b]
                             for a, b in zip(bounds, bounds[1:])])
        return rows, flags

    def take_rows(self, rows: bytes, sel: np.ndarray) -> bytes:
        """The rows of ``rows`` at positions ``sel``, in ``sel`` order."""
        return np.frombuffer(rows, self._entry_dtype)[sel].tobytes()

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

    def _serialize_leaf(self, node: LeafNode) -> bytes:
        return self._leaf_header.pack(
            _TAG_LEAF, node.level, len(node.rows) // self._entry.size,
            node.overflow, *node.v_corner, *node.p_corner) + node.rows

    def _rows_at(self, buf, offset: int, count: int) -> bytes:
        """The ``count`` packed rows at ``offset`` of ``buf``, copied once
        into ``bytes`` of their own: ``buf`` may be a frame that later
        writes, or the next page the frame holds, overwrite in place."""
        st = self._rows_batch.get(count)
        if st is None:
            st = struct.Struct(f"{count * self._entry.size}s")
            self._rows_batch[count] = st
        return st.unpack_from(buf, offset)[0]

    def _deserialize_leaf(self, buf, offset: int) -> LeafNode:
        header = self._leaf_header
        parts = header.unpack_from(buf, offset)
        d = self.d
        leaf = LeafNode.__new__(LeafNode)
        leaf.level = parts[1]
        leaf.overflow = parts[3]
        leaf.v_corner = parts[4: 4 + d]
        leaf.p_corner = parts[4 + d: 4 + 2 * d]
        leaf.rows = self._rows_at(buf, offset + header.size, parts[2])
        return leaf

    def _serialize_extension(self, node: LeafExtension) -> bytes:
        return self._ext_header.pack(
            _TAG_EXTENSION, len(node.rows) // self._entry.size,
            node.overflow) + node.rows

    def _deserialize_extension(self, buf, offset: int) -> LeafExtension:
        header = self._ext_header
        _, count, overflow = header.unpack_from(buf, offset)
        ext = LeafExtension.__new__(LeafExtension)
        ext.overflow = overflow
        ext.rows = self._rows_at(buf, offset + header.size, count)
        return ext
