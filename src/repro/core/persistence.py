"""Checkpoint and reopen on-disk STRIPES indexes, crash-consistently.

The page file holds every node, but three pieces of state live only in
memory: the index configuration, the per-window quadtree roots, and the
record store's space map (which page holds which record size, and how
full it is).  ``save_index`` writes that state as a JSON *metadata
sidecar* next to the page file; ``load_index`` reopens the pair::

    index = StripesIndex(config, pool_over_on_disk_pagefile)
    ... updates ...
    save_index(index, "fleet.stripes.meta", journal_path="fleet.jrnl")

    # later, in another process
    index = load_index("fleet.stripes", "fleet.stripes.meta",
                       pool_pages=256, journal_path="fleet.jrnl")

The sidecar is versioned and validated against the page file on load
(page size, page count); a mismatch raises rather than corrupting.

Crash consistency (the atomic, ``journal_path``-bearing mode)
-------------------------------------------------------------
A checkpoint must be *atomic*: after a crash at any instant,
:func:`load_index` reopens exactly the last checkpoint whose sidecar
rename completed -- never a mix.  Three mechanisms cooperate (full
analysis in ``docs/DURABILITY.md``):

1. Every checkpoint gets a monotonically increasing ``checkpoint_id``,
   stored in the sidecar *and* in the redo journal.  The sidecar rename
   is the commit point.
2. ``save_index`` runs: write the redo journal (all dirty page images,
   tagged with the new id, fsynced) -> fsync the page file (making every
   eviction write-back since the last checkpoint durable) -> write +
   fsync the sidecar ``.tmp`` -> ``os.replace`` -> fsync the directory
   (COMMIT) -> flush the dirty pages and fsync -> drop the undo journal
   -> drop the redo journal.  A crash before the rename recovers to the
   *old* checkpoint; after it, the committed redo journal replays the
   new one's pages.
3. Between checkpoints, dirty-page evictions overwrite committed page
   images.  ``load_index`` arms the buffer pool with an *undo journal*
   write guard (:func:`repro.storage.journal.attach_undo_journal`): the
   page's committed image is made durable in the undo journal before
   the eviction may overwrite it, so recovery can roll the file back.

The redo journal is written even when no page is dirty: a non-empty
undo journal must still be fenced off -- once the new sidecar commits,
only a journal tagged with the new id tells recovery *not* to apply
the undo images over it.

Without ``journal_path`` the checkpoint is still atomic *as a sidecar*
(tmp + fsync + rename + directory fsync) but a crash mid-flush or
between an eviction and the rename can leave the page file ahead of the
sidecar; use the journal mode whenever crash recovery matters.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.core.quadtree import (DualQuadTree, QuadTreeConfig,
                                 QuadTreeCounters)
from repro.core.stripes import StripesConfig, StripesIndex
from repro.storage.buffer_pool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.faults import FAILPOINTS
from repro.storage.journal import (attach_undo_journal, recover_checkpoint,
                                   write_journal)
from repro.storage.node_store import RecordStore
from repro.storage.pagefile import OnDiskPageFile, fsync_dir

FORMAT_VERSION = 3
# Version 1 predates checkpoint ids; versions 1-2 record the leaf sizes
# as the two-size knobs (see _legacy_ladder).
_READABLE_FORMATS = (1, 2, 3)


def default_undo_path(journal_path: str | os.PathLike) -> str:
    """The undo journal that rides along with ``journal_path``."""
    return os.fspath(journal_path) + ".undo"


def _build_meta(index: StripesIndex, checkpoint_id: int) -> dict:
    config = index.config
    store = index.store
    return {
        "format": FORMAT_VERSION,
        "checkpoint_id": checkpoint_id,
        "page_size": index.pool.pagefile.page_size,
        "capacity_pages": index.pool.pagefile.capacity_pages,
        "config": {
            "vmax": list(config.vmax),
            "pmax": list(config.pmax),
            "lifetime": config.lifetime,
            "float32": config.float32,
            "quadtree": {
                "max_depth": config.quadtree.max_depth,
                "collapse_capacity": config.quadtree.collapse_capacity,
                "quad_pruning": config.quadtree.quad_pruning,
                # Resolved, so the pages reopen with the sizes they were
                # written with whatever the default ladder becomes.
                "leaf_size_ladder": list(config.quadtree.resolved_ladder(
                    index.pool.pagefile.page_size)),
            },
        },
        "windows": [
            {
                "window": window,
                "root_rid": tree._root_rid,
                "root_is_leaf": tree._root_is_leaf,
                "count": tree.count,
            }
            for window, tree in sorted(index._trees.items())
        ],
        # Space map: page id -> (record size, occupied slots).
        "pages": [
            [page_id, cls.record_size, occupied]
            for page_id, (cls, occupied) in sorted(store._page_meta.items())
        ],
    }


def _write_sidecar(meta: dict, meta_path: str | os.PathLike) -> None:
    """Atomically (and durably) replace the sidecar with ``meta``."""
    meta_path = os.fspath(meta_path)
    tmp_path = meta_path + ".tmp"
    FAILPOINTS.hit("checkpoint.before_sidecar")
    with open(tmp_path, "w") as fh:
        json.dump(meta, fh)
        fh.flush()
        # fsync the tmp file *before* the rename: an unsynced rename can
        # commit a zero-length sidecar on some filesystems.
        os.fsync(fh.fileno())
    FAILPOINTS.hit("checkpoint.sidecar_tmp")
    os.replace(tmp_path, meta_path)
    # The rename itself is only durable once the directory is synced.
    fsync_dir(os.path.dirname(os.path.abspath(meta_path)))
    FAILPOINTS.hit("checkpoint.sidecar_committed")


def save_index(index: StripesIndex, meta_path: str | os.PathLike,
               journal_path: Optional[str | os.PathLike] = None,
               undo_path: Optional[str | os.PathLike] = None) -> None:
    """Checkpoint the index: flush its pages, write its sidecar.

    With ``journal_path`` the checkpoint is *crash-atomic* (see the
    module docstring for the write ordering and why each fsync exists).
    Pass the same paths to :func:`load_index` so leftover journals are
    resolved on reopen.  ``undo_path`` defaults to
    ``journal_path + ".undo"``.

    On success ``index.checkpoint_id`` has advanced by one; on an
    exception partway through, the on-disk state is still recoverable
    to whichever checkpoint last committed.
    """
    pool = index.pool
    if journal_path is None:
        # Sidecar-atomic only: fine for clean shutdowns and tests, not
        # fully crash-safe (see module docstring).
        pool.flush_all()
        pool.pagefile.sync()
        checkpoint_id = index.checkpoint_id + 1
        _write_sidecar(_build_meta(index, checkpoint_id), meta_path)
        index.checkpoint_id = checkpoint_id
        undo = getattr(pool, "undo_journal", None)
        if undo is not None:
            undo.reset()
        return

    if undo_path is None:
        undo_path = default_undo_path(journal_path)
    checkpoint_id = index.checkpoint_id + 1
    # 1. Redo journal: the full dirty set, fenced to the new checkpoint.
    #    Written even when empty -- its id is what tells recovery the
    #    undo journal is obsolete once the sidecar commits.
    write_journal(journal_path, pool.dirty_page_images(),
                  pool.pagefile.page_size, checkpoint_id=checkpoint_id)
    # 2. Make every eviction write-back since the last checkpoint
    #    durable.  Without this, a post-commit crash could lose an
    #    unsynced eviction whose page is *not* in the redo journal
    #    (it is not dirty any more), leaving a hole in the new
    #    checkpoint.
    pool.pagefile.sync()
    FAILPOINTS.hit("checkpoint.presync")
    # 3. COMMIT: atomically replace the sidecar.
    _write_sidecar(_build_meta(index, checkpoint_id), meta_path)
    index.checkpoint_id = checkpoint_id
    # 4. Flush the dirty pages; every write here is covered by the redo
    #    journal, so the undo guard is suspended.
    with pool.unguarded():
        pool.flush_all()
    pool.pagefile.sync()
    FAILPOINTS.hit("checkpoint.flushed")
    # 5. Drop the undo journal FIRST: were the redo removed first and a
    #    crash hit, the next open would find no redo and apply the undo
    #    images over the committed checkpoint.
    undo = getattr(pool, "undo_journal", None)
    if undo is not None:
        undo.reset()
    elif os.path.exists(undo_path):
        os.remove(undo_path)
        fsync_dir(os.path.dirname(os.path.abspath(os.fspath(undo_path))))
    FAILPOINTS.hit("checkpoint.undo_dropped")
    if undo is None:
        # First atomic checkpoint on this pool: from here on there IS a
        # committed state to protect, so arm the eviction write guard.
        attach_undo_journal(pool, undo_path)
    # 6. The checkpoint is fully materialised; retire the redo journal.
    os.remove(journal_path)
    fsync_dir(os.path.dirname(os.path.abspath(os.fspath(journal_path))))
    FAILPOINTS.hit("checkpoint.done")


def load_index(pagefile_path: str | os.PathLike,
               meta_path: str | os.PathLike,
               pool_pages: int = DEFAULT_POOL_PAGES,
               pool: Optional[BufferPool] = None,
               journal_path: Optional[str | os.PathLike] = None,
               undo_path: Optional[str | os.PathLike] = None
               ) -> StripesIndex:
    """Reopen a checkpointed index from its page file and sidecar.

    When ``journal_path`` is given, leftover redo/undo journals from a
    crash are resolved first
    (:func:`repro.storage.journal.recover_checkpoint`), the page file is
    rolled forward or back to the exact state of the sidecar's
    checkpoint, and the pool is re-armed with the undo write guard so
    subsequent evictions stay recoverable.

    A caller-supplied ``pool`` must be empty: recovery rewrites pages
    underneath it, and any resident frame would keep serving the
    pre-recovery bytes (and could even flush them back, corrupting the
    recovered file).
    """
    with open(meta_path) as fh:
        meta = json.load(fh)
    if meta.get("format") not in _READABLE_FORMATS:
        raise ValueError(
            f"unsupported checkpoint format {meta.get('format')!r} "
            f"(this build reads versions {_READABLE_FORMATS})")
    # Version-1 sidecars predate checkpoint ids; None tells recovery to
    # replay any committed journal unconditionally (the legacy rule).
    checkpoint_id = meta.get("checkpoint_id")
    if pool is None:
        pagefile = OnDiskPageFile(pagefile_path,
                                  page_size=meta["page_size"])
        pool = BufferPool(pagefile, capacity=pool_pages)
    elif pool.num_frames:
        raise ValueError(
            f"caller-supplied pool already holds {pool.num_frames} "
            f"resident pages; recovery must start from an empty pool "
            f"(stale frames would shadow -- or overwrite -- recovered "
            f"pages)")
    if journal_path is not None:
        if undo_path is None:
            undo_path = default_undo_path(journal_path)
        recover_checkpoint(pool.pagefile, journal_path, undo_path,
                           expected_checkpoint_id=checkpoint_id)
    if pool.pagefile.page_size != meta["page_size"]:
        raise ValueError(
            f"page size mismatch: checkpoint says {meta['page_size']}, "
            f"page file has {pool.pagefile.page_size}")
    if pool.pagefile.capacity_pages < meta["capacity_pages"]:
        raise ValueError(
            f"page file is truncated: checkpoint covers "
            f"{meta['capacity_pages']} pages, file has "
            f"{pool.pagefile.capacity_pages}")

    quadtree_meta = meta["config"]["quadtree"]
    ladder = quadtree_meta["leaf_size_ladder"]
    if ladder is None:
        ladder = _legacy_ladder(quadtree_meta, meta["page_size"])
    config = StripesConfig(
        vmax=tuple(meta["config"]["vmax"]),
        pmax=tuple(meta["config"]["pmax"]),
        lifetime=meta["config"]["lifetime"],
        float32=meta["config"]["float32"],
        quadtree=QuadTreeConfig(
            max_depth=quadtree_meta["max_depth"],
            collapse_capacity=quadtree_meta["collapse_capacity"],
            quad_pruning=quadtree_meta["quad_pruning"],
            leaf_size_ladder=tuple(ladder),
        ),
    )

    index = StripesIndex.__new__(StripesIndex)
    index.config = config
    index.pool = pool
    index.store = RecordStore(pool)
    index.checkpoint_id = checkpoint_id if checkpoint_id is not None else 0
    index.rotations = 0
    index.pages_reclaimed = 0
    index.tracer = None
    index._retired_counters = QuadTreeCounters()
    index._retired_cache_hits = 0
    index._retired_cache_misses = 0
    _restore_space_map(index.store, meta["pages"])
    index._trees = {}
    from repro.core.dual import DualSpace
    for window_meta in meta["windows"]:
        window = window_meta["window"]
        space = DualSpace(config.vmax, config.pmax, config.lifetime,
                          t_ref=window * config.lifetime,
                          float32=config.float32)
        tree = DualQuadTree(
            space, index.store, config.quadtree,
            root=(window_meta["root_rid"], window_meta["root_is_leaf"],
                  window_meta["count"]))
        index._trees[window] = tree
    if journal_path is not None:
        # Re-arm the eviction guard so the reopened index's own
        # between-checkpoint evictions are just as recoverable.
        attach_undo_journal(pool, undo_path)
    return index


def _legacy_ladder(quadtree_meta: dict, page_size: int) -> list:
    """The leaf ladder a format-1/2 sidecar without one was written with:
    its ``small_leaf_bytes``/``large_leaf_bytes``/``use_small_leaves``
    knobs, where ``None`` meant half a page and a full page."""
    large = quadtree_meta["large_leaf_bytes"]
    if large is None:
        large = page_size - 5
    small = quadtree_meta["small_leaf_bytes"]
    if small is None:
        small = (page_size - 6) // 2
    if not quadtree_meta["use_small_leaves"] or small == large:
        return [large]
    return [small, large]


def _restore_space_map(store: RecordStore, pages) -> None:
    """Rebuild the in-memory space map from the sidecar.

    Pages absent from the map were free at checkpoint time; their ids are
    re-registered with the page file's free list so they get reused.
    """
    live = set()
    for page_id, record_size, occupied in pages:
        cls = store.size_class(record_size)
        store._page_meta[page_id] = (cls, occupied)
        live.add(page_id)
        if occupied < cls.num_slots:
            store._add_space(record_size, page_id)
    already_free = set(store.pool.pagefile.free_page_ids())
    for page_id in range(store.pool.pagefile.capacity_pages):
        if page_id not in live and page_id not in already_free:
            store.pool.pagefile.free(page_id)
