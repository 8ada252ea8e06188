"""Self-tests of the benchmark at tiny sizes.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

* Every workload, traced, reports every per-layer metric BENCHMARK.json
  names, non-zero wherever that workload exercises the layer, with every
  span nested inside its parent and every oracle comparison passing.
* The closed-loop IO counts repeat exactly for the same seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "resident-mix": dict(n_objects=3000, pool_pages=8192, setup_reps=1,
                         timed_ops=6000, count_ops=200, oracle_stride=25),
    "paged-mix": dict(n_objects=3000, pool_pages=16, setup_reps=1,
                      timed_ops=6000, count_ops=200, oracle_stride=25),
    "service-mixed": dict(n_objects=3000, pool_pages=2048, setup_reps=1,
                          timed_ops=6000, group=8, oracle_stride=5),
}
SECONDS = 2.0

QUERY_PATH = [
    "core.query_region.build_ms", "core.query_region.classify_calls",
    "core.query_region.classify_ms", "core.query_region.contains_rows",
    "core.query_region.contains_ms", "core.quadtree.search_ms",
    "core.quadtree.search_self_ms", "core.quadtree.candidates",
    "core.stripes.query_self_ms", "query.predicates.refine_ms",
    "query.predicates.refine_candidates", "query.predicates.refine_yield",
    "storage.buffer_pool.logical_reads",
]
UPDATE_PATH = [
    "core.quadtree.insert_ms", "core.quadtree.delete_ms",
    "core.dual.to_dual_ms", "core.stripes.update_self_ms",
    "storage.node_store.write_ms", "core.dual.setup_to_dual_batch_ms",
]
STORAGE = [
    "storage.buffer_pool.physical_reads", "storage.buffer_pool.evictions",
    "storage.buffer_pool.update_physical_io", "storage.pagefile.read_ms",
    "storage.node_store.read_ms",
]
SERVICE = [
    "service.service.queue_wait_p50_ms", "service.service.queue_wait_p99_ms",
    "service.service.batch_size", "service.sharding.query_batch_ms",
    "service.sharding.update_batch_ms", "service.engine.window_columns_ms",
    "service.engine.evaluate_batch_ms", "core.dual.to_dual_batch_ms",
]
EXERCISED = {
    "resident-mix": QUERY_PATH + UPDATE_PATH,
    "paged-mix": QUERY_PATH + UPDATE_PATH + STORAGE,
    "service-mixed": UPDATE_PATH + SERVICE,
}


def run(name, seed, trace, tmp_path):
    cfg = dict(workloads.WORKLOADS[name], **TINY[name])
    return workloads.run(name, seed, SECONDS, trace, SRC, tmp_path,
                         spans_out=tmp_path / "spans.npz" if trace else None,
                         cfg=cfg)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer(name, tmp_path):
    result = run(name, 3, True, tmp_path)
    # failed folds in oracle mismatches, check() violations and spans
    # not nested inside their parent.
    assert result["correct"] and result["failed"] == 0, result
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    zero = [n for n in EXERCISED[name] if metrics[n]["value"] <= 0]
    assert not zero, f"{name} left exercised layers at zero: {zero}"
    if name == "resident-mix":
        assert metrics["storage.buffer_pool.physical_reads"]["value"] == 0
    assert (tmp_path / "spans.npz").stat().st_size > 0


@pytest.mark.parametrize("name", ["resident-mix", "paged-mix"])
def test_closed_loop_io_counts_repeat_exactly(name, tmp_path):
    counted = ["storage.buffer_pool.logical_reads",
               "storage.buffer_pool.physical_reads",
               "storage.buffer_pool.update_physical_io"]
    first = run(name, 5, True, tmp_path)["metrics"]
    second = run(name, 5, True, tmp_path)["metrics"]
    for metric in counted:
        assert first[metric]["value"] == second[metric]["value"], metric
    untraced = run(name, 5, False, tmp_path)["metrics"]
    assert untraced["pages_in_use"]["value"] > 0
    assert list(untraced) == [m["name"] for m in SPEC["end_to_end"]]


def test_untraced_service_run_reports_end_to_end(tmp_path):
    result = run("service-mixed", 4, False, tmp_path)
    assert result["correct"] and result["failed"] == 0, result
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
