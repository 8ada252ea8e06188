"""Fixed-size page abstraction.

The paper compiles SHORE with a 4 KB page size (Section 5.1); ``PAGE_SIZE``
matches that default.  A :class:`Page` is a buffer-pool *frame*: a mutable
byte buffer, the id of the page it holds right now, a dirty flag, and a
pin count.  The pool reuses a frame for the next page it brings in (the
object and its buffer, renamed and refilled), so a ``Page`` handle is
valid only while it is pinned: after the unpin it may hold another page.
Index code keeps page ids across operations, never handles or raw
buffers.

A frame also carries the decoded form of the records on it
(:attr:`Page.decoded`, filled by :class:`repro.storage.node_store.NodeCache`):
the decoded nodes live exactly as long as the bytes they came from, so
evicting or freeing the frame drops them with it.  A decoded node never
refers into the frame's buffer.
"""

from __future__ import annotations

PAGE_SIZE = 4096
"""Default page size in bytes, matching the paper's SHORE configuration."""

INVALID_PAGE_ID = -1
"""Sentinel page id used in serialized child/overflow pointers."""


class Page:
    """One buffer-pool frame: the held page's id, its buffer, a dirty
    flag, and a pin count."""

    __slots__ = ("page_id", "data", "dirty", "pin_count", "decoded")

    def __init__(self, page_id: int, data: bytearray | None = None,
                 page_size: int = PAGE_SIZE):
        if page_id < 0:
            raise ValueError(f"page_id must be non-negative, got {page_id}")
        if data is None:
            data = bytearray(page_size)
        elif len(data) != page_size:
            raise ValueError(
                f"page buffer must be exactly {page_size} bytes, got {len(data)}"
            )
        self.page_id = page_id
        self.data = data
        self.dirty = False
        self.pin_count = 0
        #: rid -> decoded node, for records whose bytes are on this page
        self.decoded: dict = {}

    @property
    def is_pinned(self) -> bool:
        return self.pin_count > 0

    def pin(self) -> None:
        self.pin_count += 1

    def unpin(self) -> None:
        if self.pin_count <= 0:
            raise RuntimeError(f"page {self.page_id} unpinned more than pinned")
        self.pin_count -= 1

    def mark_dirty(self) -> None:
        self.dirty = True

    def write(self, offset: int, payload: bytes) -> None:
        """Copy ``payload`` into the buffer at ``offset`` and mark dirty."""
        end = offset + len(payload)
        if offset < 0 or end > len(self.data):
            raise ValueError(
                f"write [{offset}, {end}) out of page bounds 0..{len(self.data)}"
            )
        self.data[offset:end] = payload
        self.dirty = True

    def read(self, offset: int, length: int) -> bytes:
        """Return a copy of the ``length`` bytes starting at ``offset``."""
        end = offset + length
        if offset < 0 or end > len(self.data):
            raise ValueError(
                f"read [{offset}, {end}) out of page bounds 0..{len(self.data)}"
            )
        return bytes(memoryview(self.data)[offset:end])

    def __repr__(self) -> str:
        return (
            f"Page(id={self.page_id}, dirty={self.dirty}, "
            f"pins={self.pin_count})"
        )
