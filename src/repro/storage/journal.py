"""Crash-consistent checkpoints: redo journal + eviction undo journal.

Two journals together make an on-disk index consistent at checkpoint
granularity no matter where a crash lands (the recovery contract is
specified in docs/DURABILITY.md):

**Redo journal** (the classic double-write protocol -- InnoDB's
doublewrite buffer): before a checkpoint flush touches the page file,
every dirty page image is written to a journal file with a CRC and a
commit marker, and both the journal and its directory are fsynced.  A
crash mid-flush is repaired by replaying the committed journal;
a journal without a commit marker is discarded (the flush never
started).  Since the checkpoint's *metadata sidecar* is what names the
committed state, the journal carries the sidecar's ``checkpoint_id``:
recovery replays it only when it matches the sidecar on disk, so a
crash between journal commit and sidecar rename can never push a new
checkpoint's pages under the old checkpoint's metadata.

**Undo journal** (a rollback journal, as in SQLite): between
checkpoints the buffer pool evicts dirty pages straight into the page
file, which would silently diverge the file from the last committed
sidecar.  :func:`attach_undo_journal` installs a buffer-pool write
guard that, before the *first* post-checkpoint write-back of each page,
appends the page's current on-disk image (its committed checkpoint
image) to an append-only undo file and fsyncs it.  Recovery applies the
undo journal to roll those pages back, restoring exactly the last
committed checkpoint.  Each record carries its own CRC so a torn tail
(crash mid-append) is detected and ignored -- safe, because the record
is made durable *before* the page write it shadows.

:func:`recover_checkpoint` is the decision procedure
:func:`repro.core.persistence.load_index` runs at open:

==============================  =====================================
on-disk state                   action
==============================  =====================================
redo committed, id == sidecar   replay redo, drop undo, drop redo
redo torn or id != sidecar      discard redo, then apply undo if any
no redo, undo present           apply undo (roll back evictions)
nothing left over               clean open
==============================  =====================================

Ordering note: recovery (and a successful checkpoint) removes the undo
journal *before* the redo journal -- an undo surviving a completed redo
replay would roll the new checkpoint back on the next open.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Dict, Optional, Tuple

from repro.storage.buffer_pool import BufferPool
from repro.storage.faults import FAILPOINTS
from repro.storage.pagefile import PageFile, fsync_dir

_MAGIC = b"STRJRNL2"
_COMMIT = b"JRNLDONE"
_HEADER = struct.Struct("<8sIIQ")     # magic, page_size, count, checkpoint id
_ENTRY_HEADER = struct.Struct("<Q")   # page id
_TRAILER = struct.Struct("<I8s")      # crc32 of entries, commit marker

_UNDO_MAGIC = b"STRUNDO1"
_UNDO_HEADER = struct.Struct("<8sI")     # magic, page_size
_UNDO_RECORD = struct.Struct("<QI")      # page id, crc32 of image


class JournalError(RuntimeError):
    """A journal exists but cannot be interpreted safely."""


def _dir_of(path: str | os.PathLike) -> str:
    return os.path.dirname(os.path.abspath(os.fspath(path)))


def _remove_durably(path: str | os.PathLike) -> None:
    """Remove ``path`` and fsync its directory so the removal survives
    a crash (a journal that resurrects would be replayed again)."""
    os.remove(path)
    fsync_dir(_dir_of(path))


# ---------------------------------------------------------------------- #
# Redo journal
# ---------------------------------------------------------------------- #

def write_journal(journal_path: str | os.PathLike,
                  pages: Dict[int, bytes], page_size: int,
                  checkpoint_id: int = 0) -> None:
    """Write (and fsync, file then directory) a committed journal
    holding ``pages``, tagged with the checkpoint it belongs to."""
    for page_id, image in pages.items():
        if len(image) != page_size:
            raise ValueError(
                f"page {page_id} image is {len(image)} bytes, expected "
                f"{page_size}")
    crc = 0
    with open(journal_path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, page_size, len(pages), checkpoint_id))
        for page_id in sorted(pages):
            entry = _ENTRY_HEADER.pack(page_id) + pages[page_id]
            crc = zlib.crc32(entry, crc)
            fh.write(entry)
        FAILPOINTS.hit("journal.partial")
        fh.write(_TRAILER.pack(crc, _COMMIT))
        fh.flush()
        os.fsync(fh.fileno())
    # The file's bytes are durable; now make its *directory entry*
    # durable too, or the whole journal can vanish on crash and defeat
    # the double-write protocol.
    fsync_dir(_dir_of(journal_path))
    FAILPOINTS.hit("journal.committed")


def read_journal_info(journal_path: str | os.PathLike,
                      page_size: int) -> Tuple[int, Dict[int, bytes]]:
    """Parse a journal into ``(checkpoint_id, pages)``; raises
    :class:`JournalError` when it is torn, uncommitted, or corrupt
    (callers then discard it)."""
    with open(journal_path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size + _TRAILER.size:
        raise JournalError("journal too short to hold a commit marker")
    magic, journal_page_size, count, checkpoint_id = \
        _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise JournalError(f"bad journal magic {magic!r}")
    if journal_page_size != page_size:
        raise JournalError(
            f"journal page size {journal_page_size} does not match the "
            f"page file's {page_size}")
    entry_size = _ENTRY_HEADER.size + page_size
    body_end = _HEADER.size + count * entry_size
    if len(raw) < body_end + _TRAILER.size:
        raise JournalError("journal truncated before its commit marker")
    crc_stored, commit = _TRAILER.unpack_from(raw, body_end)
    if commit != _COMMIT:
        raise JournalError("journal has no commit marker")
    if zlib.crc32(raw[_HEADER.size:body_end]) != crc_stored:
        raise JournalError("journal body fails its checksum")
    pages: Dict[int, bytes] = {}
    offset = _HEADER.size
    for _ in range(count):
        (page_id,) = _ENTRY_HEADER.unpack_from(raw, offset)
        offset += _ENTRY_HEADER.size
        pages[page_id] = raw[offset: offset + page_size]
        offset += page_size
    return checkpoint_id, pages


def read_journal(journal_path: str | os.PathLike,
                 page_size: int) -> Dict[int, bytes]:
    """Parse a journal's page images (checkpoint id dropped)."""
    return read_journal_info(journal_path, page_size)[1]


def _replay_pages(pagefile: PageFile, pages: Dict[int, bytes]) -> None:
    for page_id, image in sorted(pages.items()):
        while pagefile.capacity_pages <= page_id:
            pagefile.allocate()
        pagefile.write(page_id, image)


def recover_checkpoint(pagefile: PageFile,
                       journal_path: Optional[str | os.PathLike],
                       undo_path: Optional[str | os.PathLike] = None,
                       expected_checkpoint_id: Optional[int] = None
                       ) -> Dict[str, int]:
    """Run the full recovery decision procedure (see module docstring).

    Returns ``{"replayed": n, "rolled_back": m}``: pages replayed from a
    committed matching redo journal and pages rolled back from the undo
    journal.  ``expected_checkpoint_id`` is the id in the sidecar on
    disk; ``None`` (a pre-checkpoint-id sidecar) replays any committed
    journal, the legacy behavior.
    """
    replayed = 0
    rolled_back = 0
    if journal_path is not None and os.path.exists(journal_path):
        try:
            journal_cid, pages = read_journal_info(journal_path,
                                                   pagefile.page_size)
        except JournalError:
            pages = None
        if pages is not None and (expected_checkpoint_id is None
                                  or journal_cid == expected_checkpoint_id):
            # The sidecar on disk names this very checkpoint: finish its
            # flush.  The undo journal protected the *previous*
            # checkpoint and must go first (see module docstring).
            _replay_pages(pagefile, pages)
            pagefile.sync()
            replayed = len(pages)
            if undo_path is not None and os.path.exists(undo_path):
                _remove_durably(undo_path)
            _remove_durably(journal_path)
            return {"replayed": replayed, "rolled_back": 0}
        # Torn journal, or one tagged for a checkpoint whose sidecar
        # never committed: its pages never reached the file (the flush
        # runs only after the sidecar rename), so discard it.
        _remove_durably(journal_path)
    if undo_path is not None and os.path.exists(undo_path):
        images = read_undo_journal(undo_path, pagefile.page_size)
        _replay_pages(pagefile, images)
        pagefile.sync()
        rolled_back = len(images)
        _remove_durably(undo_path)
    return {"replayed": replayed, "rolled_back": rolled_back}


# ---------------------------------------------------------------------- #
# Undo journal
# ---------------------------------------------------------------------- #

class UndoJournal:
    """Append-only rollback journal of pre-checkpoint page images.

    Records are appended (and fsynced) one at a time by the buffer
    pool's write guard; each carries its own CRC so
    :func:`read_undo_journal` can drop a torn tail.  A page is shadowed
    at most once per checkpoint interval -- its image at the last
    committed checkpoint is the only one recovery needs.
    """

    def __init__(self, path: str | os.PathLike, page_size: int):
        self.path = os.fspath(path)
        self.page_size = page_size
        self._fh = None
        self._dir_synced = False
        # Pages already shadowed this checkpoint interval.  If a
        # previous process left an undo file behind (it crashed without
        # recovery running yet), resume its record set rather than
        # double-shadowing with post-checkpoint images.
        if os.path.exists(self.path):
            self._recorded = set(read_undo_journal(self.path, page_size))
        else:
            self._recorded = set()

    @property
    def recorded(self) -> frozenset:
        """Page ids already shadowed since the last checkpoint."""
        return frozenset(self._recorded)

    def shadow(self, page_id: int, image: bytes) -> bool:
        """Append ``image`` as the rollback image for ``page_id`` and
        make it durable.  No-op (returns False) when the page was
        already shadowed this interval."""
        if page_id in self._recorded:
            return False
        if len(image) != self.page_size:
            raise ValueError(
                f"undo image for page {page_id} is {len(image)} bytes, "
                f"expected {self.page_size}")
        if self._fh is None:
            self._fh = open(self.path, "ab")
            if self._fh.tell() == 0:
                self._fh.write(_UNDO_HEADER.pack(_UNDO_MAGIC, self.page_size))
        self._fh.write(_UNDO_RECORD.pack(page_id, zlib.crc32(image)))
        self._fh.write(image)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        if not self._dir_synced:
            # First record: the file itself must be findable after a
            # crash, so its directory entry needs one fsync too.
            fsync_dir(_dir_of(self.path))
            self._dir_synced = True
        self._recorded.add(page_id)
        FAILPOINTS.hit("undo.recorded")
        return True

    def reset(self) -> None:
        """Drop the journal (durably) and start a fresh interval.  The
        checkpoint calls this once the new sidecar is committed and
        flushed: the images it held protect a checkpoint that no longer
        needs protecting."""
        self.close()
        if os.path.exists(self.path):
            _remove_durably(self.path)
        self._recorded.clear()
        self._dir_synced = False

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_undo_journal(undo_path: str | os.PathLike,
                      page_size: int) -> Dict[int, bytes]:
    """Parse an undo journal, ignoring a torn tail record.

    Tolerance is safe by construction: a record is fsynced *before* the
    page write it shadows, so a torn tail means that write never
    happened and there is nothing to roll back for it.  A later record
    for the same page never occurs (one shadow per page per interval);
    if corruption ever produced one, the first image -- the committed
    one -- wins.
    """
    with open(undo_path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _UNDO_HEADER.size:
        return {}
    magic, undo_page_size = _UNDO_HEADER.unpack_from(raw, 0)
    if magic != _UNDO_MAGIC:
        raise JournalError(f"bad undo journal magic {magic!r}")
    if undo_page_size != page_size:
        raise JournalError(
            f"undo journal page size {undo_page_size} does not match "
            f"the page file's {page_size}")
    images: Dict[int, bytes] = {}
    offset = _UNDO_HEADER.size
    record_size = _UNDO_RECORD.size + page_size
    while offset + record_size <= len(raw):
        page_id, crc_stored = _UNDO_RECORD.unpack_from(raw, offset)
        image = raw[offset + _UNDO_RECORD.size: offset + record_size]
        if zlib.crc32(image) != crc_stored:
            break  # torn tail: the shadowed write never happened
        images.setdefault(page_id, image)
        offset += record_size
    return images


def attach_undo_journal(pool: BufferPool,
                        undo_path: str | os.PathLike) -> UndoJournal:
    """Install the eviction write guard that keeps ``pool``'s page file
    recoverable to its last committed checkpoint.

    Before the first post-checkpoint write-back of each page, the
    page's *current on-disk image* -- by construction its image at the
    last committed checkpoint -- is appended to the undo journal and
    fsynced.  Only then may the new bytes overwrite it.  The journal
    object is also exposed as ``pool.undo_journal`` so the checkpoint
    can reset it.
    """
    undo = UndoJournal(undo_path, pool.pagefile.page_size)

    def guard(page_id: int) -> None:
        if page_id in undo._recorded:
            return
        undo.shadow(page_id, bytes(pool.pagefile.read(page_id)))
        pool.stats.shadow_writes += 1

    pool.set_write_guard(guard)
    pool.undo_journal = undo
    return undo
