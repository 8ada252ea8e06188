"""Golden page IO, answers and structure counts of one update-heavy run.

A seeded workload (2,000 objects, 8,000 operations, half of them
updates) is replayed through the paper-experiment runner over a 16-page
buffer pool, so almost every node access misses the pool and the write
path's page traffic is visible in the physical IO.  The counts below were
recorded with per-point ``insert``/``delete`` descents; every write now
runs the grouped descent (a one-point write is a group of one), which
must read and write the same pages, return the same answers and make the
same structural changes.  Logical reads are deliberately not pinned: the
grouped delete reads the subtree it collapses without first re-reading
the path to it.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import make_stripes, run_workload
from repro.obs.metrics import MetricsRegistry
from repro.workload.generator import WorkloadSpec, generate_workload

SPEC = WorkloadSpec(n_objects=2000, n_operations=8000, update_fraction=0.5,
                    seed=1)
POOL_PAGES = 16

GOLDEN = {
    "update_physical_reads": 5343,
    "update_physical_writes": 108,
    "query_physical_reads": 147690,
    "query_hits": 18401,
    "pages_used": 73,
    "stripes_collapses_total": 31,
    "stripes_leaf_splits_total": 25,
    "stripes_leaf_promotions_total": 12,
    "stripes_overflow_spills_total": 0,
}


@pytest.fixture(scope="module")
def run():
    registry = MetricsRegistry()
    workload = generate_workload(SPEC)
    setup = make_stripes(workload, pool_pages=POOL_PAGES, registry=registry)
    result = run_workload(setup, workload, registry=registry)
    return setup, result, registry


def _counter(registry, name):
    return int(registry.to_dict()["counters"][name])


def test_update_and_query_io(run):
    _, result, _ = run
    assert result.updates.physical_reads == GOLDEN["update_physical_reads"]
    assert result.updates.physical_writes == GOLDEN["update_physical_writes"]
    assert result.queries.physical_reads == GOLDEN["query_physical_reads"]


def test_answers_and_footprint(run):
    setup, result, _ = run
    assert result.query_hits == GOLDEN["query_hits"]
    assert result.pages_used == GOLDEN["pages_used"]
    assert setup.index.check() == []


@pytest.mark.parametrize("name", [
    "stripes_collapses_total",
    "stripes_leaf_splits_total",
    "stripes_leaf_promotions_total",
    "stripes_overflow_spills_total",
])
def test_structure_counts(run, name):
    _, _, registry = run
    assert _counter(registry, name) == GOLDEN[name]
