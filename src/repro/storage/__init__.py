"""Disk storage substrate: pages, page files, buffer pool, and node stores.

This package is the reproduction's stand-in for the SHORE storage manager
used in the paper (Section 5.1).  It provides:

* :mod:`repro.storage.page` -- fixed-size page abstraction (4 KB default,
  matching the paper's configuration).
* :mod:`repro.storage.pagefile` -- a page-addressed file, either on disk or
  in memory, with a free list for page reuse.
* :mod:`repro.storage.buffer_pool` -- an LRU buffer pool with pin counts,
  dirty tracking, and physical/logical IO statistics.  The paper uses a
  2048-page pool; benchmarks scale this with data size.
* :mod:`repro.storage.node_store` -- record-level allocation on top of the
  pool: full-page records and records that pack several to a page,
  which is how STRIPES packs ~11 non-leaf nodes per page.
* :mod:`repro.storage.stats` -- IO counters and a synthetic disk-latency
  model used to convert IO counts into simulated elapsed time.
"""

from repro.storage.buffer_pool import BufferPool, BufferPoolFullError
from repro.storage.faults import (FAILPOINTS, FaultyPageFile, InjectedCrash,
                                  TransientIOError)
from repro.storage.node_store import RecordStore, SizeClass
from repro.storage.page import PAGE_SIZE, Page
from repro.storage.pagefile import (InMemoryPageFile, OnDiskPageFile,
                                    PageFile, fsync_dir)
from repro.storage.stats import DiskModel, IOStats

__all__ = [
    "PAGE_SIZE",
    "Page",
    "PageFile",
    "InMemoryPageFile",
    "OnDiskPageFile",
    "fsync_dir",
    "BufferPool",
    "BufferPoolFullError",
    "RecordStore",
    "SizeClass",
    "IOStats",
    "DiskModel",
    "FAILPOINTS",
    "FaultyPageFile",
    "InjectedCrash",
    "TransientIOError",
]
