"""Tests for the benchmark harness: runner measurement, experiment
plumbing, report formatting, and the CLI."""

import pytest

from repro.bench import experiments
from repro.bench.cli import main as cli_main
from repro.bench.experiments import ExperimentScale
from repro.bench.report import (
    format_table,
    render_batches,
    render_breakdown,
    render_cost_table,
    render_load,
)
from repro.bench.runner import (
    make_scan,
    make_stripes,
    make_tpr,
    make_tprstar,
    run_workload,
)
from repro.storage.stats import DiskModel
from repro.workload.generator import WorkloadSpec, generate_workload

TINY = ExperimentScale(scale=0.0004, seed=3)  # 200 objects, 200 ops


@pytest.fixture(scope="module")
def tiny_workload():
    spec = WorkloadSpec(n_objects=300, update_fraction=0.5,
                        n_operations=200, seed=1)
    return generate_workload(spec)


class TestRunner:
    def test_run_counts_operations(self, tiny_workload):
        setup = make_stripes(tiny_workload, pool_pages=32)
        result = run_workload(setup, tiny_workload, batch_size=50)
        assert result.ops == 200
        assert result.updates.count == tiny_workload.n_updates
        assert result.queries.count == tiny_workload.n_queries

    def test_load_measured_separately(self, tiny_workload):
        setup = make_stripes(tiny_workload, pool_pages=32)
        result = run_workload(setup, tiny_workload, n_ops=0)
        assert result.load.count == 1
        assert result.load.cpu_seconds > 0
        assert result.ops == 0

    def test_batches_cover_all_ops(self, tiny_workload):
        setup = make_stripes(tiny_workload, pool_pages=32)
        result = run_workload(setup, tiny_workload, batch_size=60)
        assert sum(b.ops for b in result.batches) == 200
        assert len(result.batches) == 4  # 60+60+60+20

    def test_on_batch_callback(self, tiny_workload):
        seen = []
        setup = make_stripes(tiny_workload, pool_pages=32)
        run_workload(setup, tiny_workload, batch_size=100,
                     on_batch=lambda b: seen.append(b.ops))
        assert seen == [100, 100]

    def test_all_factories_produce_working_indexes(self, tiny_workload):
        for factory in (make_stripes, make_tpr, make_tprstar):
            setup = factory(tiny_workload, pool_pages=64)
            result = run_workload(setup, tiny_workload, n_ops=50)
            assert result.ops == 50
            assert result.pages_used > 0

    def test_scan_baseline_runs_without_pool(self, tiny_workload):
        setup = make_scan(tiny_workload)
        result = run_workload(setup, tiny_workload, n_ops=50)
        assert result.ops == 50
        assert result.total_physical_io() == 0

    def test_same_workload_same_results(self, tiny_workload):
        hits = []
        for _ in range(2):
            setup = make_stripes(tiny_workload, pool_pages=32)
            result = run_workload(setup, tiny_workload)
            hits.append(result.query_hits)
        assert hits[0] == hits[1]

    def test_indexes_agree_on_query_hits(self, tiny_workload):
        """All three real indexes and the scan oracle must return the same
        total number of query hits over the same workload."""
        totals = {}
        for name, factory in (("stripes", make_stripes),
                              ("tpr", make_tpr),
                              ("tprstar", make_tprstar),
                              ("scan", make_scan)):
            if factory is make_scan:
                setup = factory(tiny_workload)
            else:
                setup = factory(tiny_workload, pool_pages=64)
            totals[name] = run_workload(setup, tiny_workload).query_hits
        # TPR trees never expire entries; the stripes/scan pair and the
        # tpr/tprstar pair must agree exactly.
        assert totals["stripes"] == totals["scan"]
        assert totals["tpr"] == totals["tprstar"]


class TestExperimentScale:
    def test_paper_scale_identity(self):
        full = ExperimentScale(scale=1.0)
        assert full.n_objects(500_000) == 500_000
        assert full.pool_pages == 2048
        assert full.n_ops == 50_000
        assert full.batch_size == 5_000

    def test_scaled_down(self):
        one_percent = ExperimentScale(scale=0.01)
        assert one_percent.n_objects(500_000) == 5_000
        assert one_percent.pool_pages == 20

    def test_minimums_enforced(self):
        tiny = ExperimentScale(scale=1e-6)
        assert tiny.n_objects(500_000) >= 500
        assert tiny.pool_pages >= 16
        assert tiny.n_ops >= 200

    def test_paper_side(self):
        assert ExperimentScale.paper_side(100_000) == pytest.approx(1000.0)
        assert ExperimentScale.paper_side(500_000) == pytest.approx(
            2236.0679, rel=1e-6)

    def test_workload_uses_paper_geometry(self):
        workload = TINY.workload(500_000, update_fraction=0.5)
        assert workload.pmax[0] == pytest.approx(2236.0679, rel=1e-6)
        assert len(workload.initial) == TINY.n_objects(500_000)


class TestExperiments:
    def test_workload_mix_runs_shape(self):
        runs = experiments.workload_mix_runs(TINY, mixes=(0.5,),
                                             indexes=("STRIPES",))
        assert set(runs) == {"50-50"}
        assert set(runs["50-50"]) == {"STRIPES"}
        assert runs["50-50"]["STRIPES"].ops == TINY.n_ops

    def test_scaling_covers_both_sizes(self):
        runs = experiments.scaling(TINY, paper_ns=(100_000,),
                                   indexes=("STRIPES",))
        assert set(runs) == {100_000}

    def test_skew_uses_network_workloads(self):
        runs = experiments.skew(TINY, nds=(5,), indexes=("STRIPES",))
        assert set(runs) == {5}

    def test_structure_stats(self):
        stats = experiments.structure_stats(TINY, paper_n=500_000)
        assert stats.stripes_pages > 0
        assert stats.tprstar_pages > 0
        assert stats.stripes_height >= 1
        assert stats.size_ratio > 1.0  # STRIPES is the larger index
        assert 0.0 < stats.stripes_leaf_occupancy <= 1.0

    def test_leaf_size_ablation_configs(self):
        results = experiments.leaf_size_ablation(TINY)
        assert set(results) == {"two-sizes", "single-size", "ladder-4"}

    def test_pruning_ablation_same_ios(self):
        results = experiments.pruning_ablation(TINY)
        pruned = results["pruned"]
        unpruned = results["unpruned"]
        assert pruned.query_hits == unpruned.query_hits
        assert pruned.queries.physical_io == unpruned.queries.physical_io

    def test_choosepath_ablation(self):
        results = experiments.choosepath_ablation(TINY)
        assert set(results) == {"TPR*", "TPR"}


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1

    def test_renderers_produce_text(self):
        runs = experiments.workload_mix_runs(TINY, mixes=(0.5,),
                                             indexes=("STRIPES",))
        results = runs["50-50"]
        disk = DiskModel()
        assert "STRIPES" in render_cost_table("t", results, disk)
        assert "physical IO" in render_breakdown("t", results, disk)
        assert "batch" in render_batches("t", results, disk)
        assert "pages" in render_load("t", results, disk)


class TestCLI:
    def test_fig11_runs(self, capsys):
        assert cli_main(["fig11", "--scale", "0.0004"]) == 0
        out = capsys.readouterr().out
        assert "STRIPES" in out
        assert "TPR*" in out

    def test_structure_runs(self, capsys):
        assert cli_main(["structure", "--scale", "0.0004"]) == 0
        out = capsys.readouterr().out
        assert "size ratio" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["nonsense"])

    @pytest.mark.parametrize("retired", ["serve", "update"])
    def test_retired_bench_writers_rejected(self, retired, capsys):
        """Service and write-path throughput live in perfbench; their
        parity and overload checks live in the test suite."""
        with pytest.raises(SystemExit) as excinfo:
            cli_main([retired])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
