"""Golden physical-IO traces: the order in which pages cross the file.

``GOLDEN_IO`` (``tests/test_thrashing_pool.py``) and the write golden
(``tests/test_write_golden.py``) pin how many pages each phase reads and
writes.  This file pins the *order*: a page file that records every
``read`` and ``write`` as ``(op, page_id)``, hashed with SHA-256, plus
the pool's eviction and write-back counts.  The sequence depends on
which frame the LRU scan picks as each victim and on when a dirty
victim is written back, so a change to the buffer pool's miss or
eviction path that keeps the counts but reorders the victims fails
here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.runner import IndexSetup, run_workload
from repro.core.quadtree import QuadTreeConfig
from repro.core.stripes import StripesConfig, StripesIndex
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import InMemoryPageFile
from repro.workload.generator import generate_workload

from tests import test_thrashing_pool as thrashing
from tests import test_write_golden as write_golden

#: ``(sha256 of the (op, page id) sequence, reads + writes, evictions,
#: physical writes)`` of each traced run.
GOLDEN_TRACE = {
    "thrashing_query_pass": (
        "697d2ff05d562b84f633371afc9ca59c8a144a5379b64a80df6e31eb0d2594db",
        1592, 1577, 15),
    "update_heavy_run": (
        "caf7a38d4da6ba63dea644395c6a88660ece02e36f6e42bd736b75e228a451c5",
        161465, 153091, 8431),
}


class TracingPageFile(InMemoryPageFile):
    """An in-memory page file that logs every page read and write."""

    def __init__(self):
        super().__init__()
        self.trace: list = []

    def read(self, page_id, into=None):
        self.trace.append(("r", page_id))
        return super().read(page_id, into)

    def write(self, page_id, data):
        self.trace.append(("w", page_id))
        super().write(page_id, data)


def summary(pagefile, pool):
    digest = hashlib.sha256()
    for op, page_id in pagefile.trace:
        digest.update(f"{op}{page_id};".encode())
    return (digest.hexdigest(), len(pagefile.trace), pool.stats.evictions,
            pool.stats.physical_writes)


def thrashing_query_pass():
    """Bulk load and one query pass of the thrashing-pool test, over a
    16-page pool; the trace starts with the query pass."""
    pagefile = TracingPageFile()
    pool = BufferPool(pagefile, capacity=thrashing.POOL_PAGES)
    index = StripesIndex(thrashing.CONFIG, pool)
    rng = thrashing.random.Random(2024)
    states = thrashing.make_states(rng)
    index.insert_batch(states)
    oracle = thrashing.ScanIndex(thrashing.CONFIG.lifetime)
    for state in states:
        oracle.insert(state)
    del pagefile.trace[:]
    before = pool.stats.snapshot()
    io = thrashing.query_pass(rng, index, oracle, now=150.0)
    assert io == thrashing.GOLDEN_IO
    diff = pool.stats.diff(before)
    digest, n_ops, _, _ = summary(pagefile, pool)
    return digest, n_ops, diff.evictions, diff.physical_writes


def update_heavy_run():
    """The update-heavy run of the write golden (2,000 objects, 8,000
    operations, half updates, 16-page pool), traced from the start."""
    workload = generate_workload(write_golden.SPEC)
    pagefile = TracingPageFile()
    pool = BufferPool(pagefile, capacity=write_golden.POOL_PAGES)
    index = StripesIndex(
        StripesConfig(vmax=workload.vmax, pmax=workload.pmax,
                      lifetime=120.0, quadtree=QuadTreeConfig()), pool)
    result = run_workload(IndexSetup("STRIPES", index, pool), workload)
    assert result.query_hits == write_golden.GOLDEN["query_hits"]
    return summary(pagefile, pool)


@pytest.mark.parametrize("name, run", [
    ("thrashing_query_pass", thrashing_query_pass),
    ("update_heavy_run", update_heavy_run),
])
def test_physical_io_trace(name, run):
    assert run() == GOLDEN_TRACE[name]
