"""TPR-tree node layouts and their binary codec.

TPR/TPR*-tree nodes occupy one disk page each (like the paper's SHORE
implementation).  Leaf entries store the trajectory line parameters
``(oid, p0, vel)`` with ``p0`` the position at absolute time zero; non-leaf
entries store a child record id plus the child's TPBR.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple, Union

from repro.tpr.tpbr import TPBR


@dataclass(frozen=True)
class LeafEntry:
    """One indexed trajectory: ``p(t) = p0 + vel * t``."""

    oid: int
    p0: Tuple[float, ...]
    vel: Tuple[float, ...]


@dataclass
class ChildEntry:
    """A child pointer with its time-parameterized bounding rectangle."""

    rid: int
    tpbr: TPBR


Entry = Union[LeafEntry, ChildEntry]


@dataclass
class TPRNode:
    """A TPR-tree node; ``level`` 0 is a leaf."""

    level: int
    entries: List[Entry]

    @property
    def is_leaf(self) -> bool:
        return self.level == 0


class TPRNodeCodec:
    """Serialize/deserialize TPR nodes for a given dimensionality."""

    def __init__(self, d: int, float32: bool = False):
        if d < 1:
            raise ValueError("dimensionality must be >= 1")
        self.d = d
        self.float32 = float32
        coord = "f" if float32 else "d"
        self._header = struct.Struct("<HH")                 # level, count
        self._leaf_entry = struct.Struct(f"<q{2 * d}{coord}")
        # rid, t0, lower, upper, vlower, vupper
        self._child_entry = struct.Struct(f"<qd{4 * d}{coord}")

    def leaf_capacity(self, record_size: int) -> int:
        """Leaf entries per record."""
        return (record_size - self._header.size) // self._leaf_entry.size

    def nonleaf_capacity(self, record_size: int) -> int:
        """Child entries per record."""
        return (record_size - self._header.size) // self._child_entry.size

    def serialize(self, node: TPRNode) -> bytes:
        parts = [self._header.pack(node.level, len(node.entries))]
        if node.is_leaf:
            for entry in node.entries:
                parts.append(self._leaf_entry.pack(entry.oid, *entry.p0,
                                                   *entry.vel))
        else:
            for entry in node.entries:
                box = entry.tpbr
                parts.append(self._child_entry.pack(
                    entry.rid, box.t0, *box.lower, *box.upper,
                    *box.vlower, *box.vupper))
        return b"".join(parts)

    def deserialize(self, buf, offset: int = 0) -> TPRNode:
        """Decode the node at ``offset`` of ``buf`` (any bytes-like
        object, such as a buffer-pool frame); the node keeps no
        reference into ``buf``."""
        level, count = self._header.unpack_from(buf, offset)
        offset += self._header.size
        entries: List[Entry] = []
        d = self.d
        if level == 0:
            for _ in range(count):
                parts = self._leaf_entry.unpack_from(buf, offset)
                offset += self._leaf_entry.size
                entries.append(LeafEntry(parts[0],
                                         tuple(parts[1: 1 + d]),
                                         tuple(parts[1 + d: 1 + 2 * d])))
        else:
            for _ in range(count):
                parts = self._child_entry.unpack_from(buf, offset)
                offset += self._child_entry.size
                rid, t0 = parts[0], parts[1]
                coords = parts[2:]
                entries.append(ChildEntry(rid, TPBR(
                    t0,
                    tuple(coords[0: d]),
                    tuple(coords[d: 2 * d]),
                    tuple(coords[2 * d: 3 * d]),
                    tuple(coords[3 * d: 4 * d]))))
        return TPRNode(level, entries)
