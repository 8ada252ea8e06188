"""Integration tests: metrics collectors wired through the storage and
index layers, the bench runner's registry support, and the CLI
``explain`` subcommand."""

import dataclasses
import json
import random

import pytest

from repro import (
    MovingObjectState,
    StripesConfig,
    StripesIndex,
    TimeSliceQuery,
)
from repro.bench.cli import main as bench_main
from repro.bench.report import render_latency_table, render_metrics_snapshot
from repro.bench.runner import make_stripes, run_workload
from repro.obs import MetricsRegistry, Tracer
from repro.storage.buffer_pool import BufferPool
from repro.storage.node_store import RecordStore
from repro.storage.pagefile import InMemoryPageFile
from repro.storage.stats import IOStats
from repro.tpr.tprstar import TPRStarTree
from repro.tpr.tprtree import TPRTree, TPRTreeConfig
from repro.workload.generator import WorkloadSpec, generate_workload


def _small_workload(n_objects=300, n_operations=200, seed=11):
    return generate_workload(WorkloadSpec(
        n_objects=n_objects, n_operations=n_operations, seed=seed))


class TestBufferPoolMetrics:
    def test_counters_mirror_iostats_under_eviction_pressure(self):
        pool = BufferPool(InMemoryPageFile(), capacity=4)
        registry = MetricsRegistry()
        pool.attach_metrics(registry)
        store = RecordStore(pool)
        rids = [store.allocate(1000, bytes([i % 251]) * 1000)
                for i in range(50)]
        for rid in rids:
            store.read(rid)
        snapshot = registry.to_dict()
        assert pool.stats.evictions > 0, "tiny pool must evict"
        for field in dataclasses.fields(IOStats):
            assert snapshot["counters"][f"pool_{field.name}_total"] == \
                getattr(pool.stats, field.name)
        assert snapshot["gauges"]["pool_capacity_pages"] == 4
        assert snapshot["gauges"]["pool_resident_pages"] <= 4
        assert snapshot["gauges"]["pool_hit_rate"] == pytest.approx(
            pool.stats.hit_rate)


class TestStripesMetrics:
    def _index(self, registry):
        pool = BufferPool(InMemoryPageFile(), capacity=64)
        index = StripesIndex(
            StripesConfig(vmax=(3.0, 3.0), pmax=(100.0, 100.0),
                          lifetime=120.0), pool)
        index.attach_metrics(registry)
        return index

    def test_operation_counters(self):
        registry = MetricsRegistry()
        index = self._index(registry)
        for oid in range(50):
            index.insert(MovingObjectState(
                oid=oid, pos=(oid % 10 * 10.0, oid // 10 * 10.0),
                vel=(0.0, 0.0), t=0.0))
        index.query(TimeSliceQuery((0.0, 0.0), (100.0, 100.0), t=0.0))
        counters = registry.to_dict()["counters"]
        assert counters["stripes_inserts_total"] == 50
        assert counters["stripes_searches_total"] == 1
        assert registry.to_dict()["gauges"]["stripes_entries"] == 50

    def test_counters_survive_rotation(self):
        """Aggregated counters are monotone across sub-index retirement."""
        registry = MetricsRegistry()
        index = self._index(registry)
        index.insert(MovingObjectState(oid=1, pos=(10.0, 10.0),
                                       vel=(0.0, 0.0), t=0.0))
        before = registry.to_dict()["counters"]["stripes_inserts_total"]
        # Two lifetimes later the window-0 tree is retired and destroyed.
        index.insert(MovingObjectState(oid=2, pos=(20.0, 20.0),
                                       vel=(0.0, 0.0), t=300.0))
        counters = registry.to_dict()["counters"]
        assert index.rotations >= 1
        assert counters["stripes_rotations_total"] == index.rotations
        assert counters["stripes_inserts_total"] == before + 1

    def test_rotation_event_is_orphan_without_open_span(self):
        registry = MetricsRegistry()
        index = self._index(registry)
        tracer = Tracer()
        index.attach_tracer(tracer)
        index.insert(MovingObjectState(oid=1, pos=(10.0, 10.0),
                                       vel=(0.0, 0.0), t=0.0))
        index.insert(MovingObjectState(oid=2, pos=(20.0, 20.0),
                                       vel=(0.0, 0.0), t=300.0))
        assert any(name == "stripes.rotation"
                   for name, _ in tracer.orphan_events)


class TestTPRExplain:
    def test_explain_matches_query(self):
        pool = BufferPool(InMemoryPageFile(), capacity=64)
        tree = TPRTree(TPRTreeConfig(d=2, horizon=60.0), RecordStore(pool))
        workload = _small_workload()
        for state in workload.initial:
            tree.insert(state)
        query = TimeSliceQuery((0.0, 0.0), (30.0, 30.0), t=1.0)
        explain = tree.explain(query)
        assert sorted(explain.results) == sorted(tree.query(query))
        trace = explain.total_trace()
        assert trace.nodes_visited > 0
        assert trace.tpbr_tests > 0 or trace.nonleaf_visits == 0


class TestRunnerRegistry:
    def test_run_workload_emits_phase_metrics_and_percentiles(self):
        workload = _small_workload()
        registry = MetricsRegistry()
        setup = make_stripes(workload, pool_pages=64, registry=registry)
        result = run_workload(setup, workload, n_ops=150,
                              keep_per_op=True, registry=registry)
        assert set(result.phase_metrics) == {"load", "ops"}
        assert result.metrics is result.phase_metrics["ops"]

        load_counters = result.phase_metrics["load"]["counters"]
        ops_counters = result.metrics["counters"]
        assert load_counters["stripes_inserts_total"] == len(
            workload.initial)
        assert ops_counters["stripes_inserts_total"] >= \
            load_counters["stripes_inserts_total"]

        hists = result.metrics["histograms"]
        for name in ("bench_update_latency_seconds",
                     "bench_query_latency_seconds"):
            assert hists[name]["count"] > 0
            assert 0.0 <= hists[name]["p50"] <= hists[name]["p99"]
        assert result.updates.p50 <= result.updates.p99

        # The snapshot is JSON-serializable end to end.
        json.dumps(result.phase_metrics)

    def test_latency_table_renders_percentiles(self):
        workload = _small_workload()
        setup = make_stripes(workload, pool_pages=64)
        result = run_workload(setup, workload, n_ops=100, keep_per_op=True)
        table = render_latency_table("t", {"STRIPES": result})
        assert "qry p99 ms" in table
        assert "-" not in table.splitlines()[-1].split()  # cells filled

    def test_latency_table_dashes_without_keep(self):
        workload = _small_workload(n_objects=100, n_operations=50)
        setup = make_stripes(workload, pool_pages=64)
        result = run_workload(setup, workload, n_ops=20)
        table = render_latency_table("t", {"STRIPES": result})
        assert table.splitlines()[-1].split()[1:] == ["-"] * 6

    def test_metrics_snapshot_renders(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        text = render_metrics_snapshot("snap:", registry.to_dict())
        assert "a_total = 2" in text
        assert "g = 1.5" in text
        assert "count=1" in text


class TestCliExplain:
    def test_explain_smoke(self, capsys):
        rc = bench_main(["explain", "--n-objects", "300",
                         "--pool-pages", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "STRIPES explain" in out
        assert "INSIDE" in out and "DISJUNCT" in out
        assert "metrics snapshot" in out
        assert "stripes_inserts_total" in out

    def test_explain_tpr(self, capsys):
        rc = bench_main(["explain", "--index", "tpr", "--n-objects", "300",
                         "--pool-pages", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "TPRTree explain" in out
        assert "tpr_inserts_total" in out


class TestMetricsExport:
    """Attaching a registry to an index loaded with a few thousand
    objects yields a well-formed JSON snapshot and Prometheus
    exposition."""

    N_LOADED = 3_000

    def _load(self, index, seed):
        rng = random.Random(seed)
        for oid in range(self.N_LOADED):
            index.insert(MovingObjectState(
                oid, (rng.uniform(0, 1000.0), rng.uniform(0, 1000.0)),
                (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)), 0.0))
        registry = MetricsRegistry()
        index.attach_metrics(registry)
        return registry

    def test_metrics_json_well_formed(self):
        registry = self._load(StripesIndex(StripesConfig(
            vmax=(3.0, 3.0), pmax=(1000.0, 1000.0), lifetime=120.0)), 5)
        data = json.loads(registry.to_json())
        assert set(data) == {"counters", "gauges", "histograms"}
        assert data["counters"]["stripes_inserts_total"] >= self.N_LOADED
        assert data["gauges"]["stripes_entries"] >= self.N_LOADED
        text = registry.expose_text()
        assert "# TYPE stripes_inserts_total counter" in text
        assert text.endswith("\n")

    def test_tprstar_metrics_json_well_formed(self):
        pool = BufferPool(InMemoryPageFile(), capacity=4096)
        registry = self._load(TPRStarTree(TPRTreeConfig(d=2, horizon=60.0),
                                          RecordStore(pool)), 6)
        data = json.loads(registry.to_json())
        assert data["counters"]["tpr_inserts_total"] >= self.N_LOADED
        assert data["counters"]["tpr_choosepath_pops_total"] > 0
