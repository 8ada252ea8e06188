"""Shapes of the paper's evaluation: Figures 9-14, the Section 5.1
structure numbers, ablations A1-A4 and sweeps X4-X6.

Each test runs a ``repro.bench.experiments`` function (the ones
``stripes-bench`` renders) at ``ExperimentScale(scale=0.002, seed=7)``,
1K objects for the paper's 500K, and asserts the scale-robust part of
the paper's story.  CPU comparisons are wall-clock timings of a few
hundred operations, hence the wide margins.  Figures 9-12, the headline
claims and Figure 14's uniform reference share one
``workload_mix_runs``.  The module takes ~25 s, so it is marked
``slow``: tier-1 deselects it and a gating CI job runs it.
"""

import statistics
import time

import pytest

from repro.bench import experiments
from repro.bench.experiments import ExperimentScale
from repro.bench.runner import make_tpr, make_tprstar, run_workload
from repro.storage.page import PAGE_SIZE
from repro.workload.generator import WorkloadSpec, generate_workload

pytestmark = pytest.mark.slow

SCALE = ExperimentScale(scale=0.002, seed=7)
# Leaf occupancy only settles with a few thousand objects, so the
# structure statistics (an insert-only load) run at 2 % of paper scale.
STRUCTURE_SCALE = ExperimentScale(scale=0.02, seed=SCALE.seed)


def update_cpu(result) -> float:
    return result.updates.mean_cpu_seconds()


@pytest.fixture(scope="module")
def mix_runs():
    return experiments.workload_mix_runs(SCALE)


def test_fig09_batches_stay_flat(mix_runs):
    """Steady state: no batch after the first costs more than 4x the
    median batch."""
    for mix, results in mix_runs.items():
        for name, result in results.items():
            batches = result.batches
            assert batches, f"{name} produced no batches"
            costs = sorted(b.total_seconds(SCALE.disk) for b in batches[1:]
                           if b.ops == batches[0].ops)
            if len(costs) >= 3:
                median = costs[len(costs) // 2]
                assert costs[-1] <= 4.0 * median + 1e-3, (
                    f"{name} {mix}: batch costs degrade over time: {costs}")


def test_fig10_update_heavy_cpu(mix_runs):
    heavy = mix_runs["80-20"]
    assert heavy["STRIPES"].updates.cpu_seconds \
        < heavy["TPR*"].updates.cpu_seconds


def test_fig11_per_update_cpu(mix_runs):
    for mix, results in mix_runs.items():
        stripes = update_cpu(results["STRIPES"])
        tprstar = update_cpu(results["TPR*"])
        assert stripes < tprstar, (
            f"{mix}: STRIPES update CPU {stripes} !< TPR* {tprstar}")


def test_fig12_queries_answered(mix_runs):
    for results in mix_runs.values():
        for result in results.values():
            assert result.queries.count > 0
            assert result.queries.mean_cpu_seconds() > 0.0
        assert results["STRIPES"].query_hits == results["TPR*"].query_hits


def test_fig13_pool_fit():
    """The 100K-analog TPR*-tree fits the pool, so its queries read no
    pages; the 900K analog does not.  STRIPES keeps its update CPU
    advantage at both sizes."""
    runs = experiments.scaling(SCALE)
    small, large = runs[100_000], runs[900_000]
    assert small["TPR*"].pages_used <= SCALE.pool_pages
    assert small["TPR*"].queries.physical_io == 0
    assert large["TPR*"].pages_used > SCALE.pool_pages
    for results in (small, large):
        assert update_cpu(results["STRIPES"]) < update_cpu(results["TPR*"])


def test_fig14_skew(mix_runs):
    """Skew (ND = 20, 60) keeps update CPU within 5x of the uniform
    50-50 run, and STRIPES' update CPU advantage survives it."""
    base = mix_runs["50-50"]
    for nd, results in experiments.skew(SCALE).items():
        for name in ("STRIPES", "TPR*"):
            skewed, uniform = update_cpu(results[name]), update_cpu(base[name])
            assert skewed < 5.0 * uniform + 1e-4, (
                f"{name} ND={nd}: skewed update CPU {skewed} vs uniform "
                f"{uniform}")
        assert update_cpu(results["STRIPES"]) < update_cpu(results["TPR*"])


def test_headline_claims(mix_runs):
    """Section 5.6: STRIPES updates take several times less CPU than
    TPR* updates and a handful of IOs (two root-to-leaf descents)."""
    stripes, tprstar = mix_runs["50-50"]["STRIPES"], mix_runs["50-50"]["TPR*"]
    assert update_cpu(tprstar) / max(update_cpu(stripes), 1e-12) > 1.5
    assert stripes.updates.mean_io() <= 8.0
    assert stripes.queries.count == tprstar.queries.count > 0


def test_structure_stats():
    """STRIPES is larger by roughly the paper's 2.4x, non-leaf records
    are small and few, and the quadtree is at least as tall as the
    TPR* R-tree."""
    stats = experiments.structure_stats(STRUCTURE_SCALE)
    assert 1.2 <= stats.size_ratio <= 6.0
    assert stats.stripes_nonleaf_bytes * 4 <= PAGE_SIZE
    nonleaf_pages = (stats.stripes_nonleaf_nodes
                     * stats.stripes_nonleaf_bytes + PAGE_SIZE - 1) \
        // PAGE_SIZE
    assert nonleaf_pages <= 0.2 * stats.stripes_pages + 1
    assert stats.stripes_height >= stats.tprstar_height


def test_a1_leaf_sizes_save_pages():
    """Pages: a four-size ladder <= two sizes <= single-size leaves."""
    results = experiments.leaf_size_ablation(SCALE)
    assert results["two-sizes"].pages_used \
        <= results["single-size"].pages_used
    assert results["ladder-4"].pages_used <= results["two-sizes"].pages_used


def test_a2_quad_pruning_keeps_answers_and_io():
    results = experiments.pruning_ablation(SCALE)
    pruned, unpruned = results["pruned"], results["unpruned"]
    assert pruned.query_hits == unpruned.query_hits
    assert pruned.queries.physical_io == unpruned.queries.physical_io


def test_a3_choosepath_insert_premium():
    """ChoosePath and PickWorst make TPR* inserts cost about as much CPU
    as greedy TPR inserts, or more.

    At this scale the two trees do about the same work, so the means of
    the ablation's two runs, one after the other, read host noise.  Both
    trees instead replay the same 400 updates in turn, one update each,
    and their per-update medians are compared: a slow stretch of the
    host lands on both."""
    results = experiments.choosepath_ablation(SCALE)
    assert results["TPR*"].queries.count == results["TPR"].queries.count
    workload = generate_workload(WorkloadSpec(
        n_objects=SCALE.n_objects(500_000), update_fraction=1.0,
        space_side=SCALE.paper_side(500_000), n_operations=400,
        seed=SCALE.seed))
    trees = [make_tprstar(workload, SCALE.pool_pages),
             make_tpr(workload, SCALE.pool_pages)]
    for setup in trees:
        run_workload(setup, workload, n_ops=0)
    seconds = ([], [])
    for op in workload.operations:
        for setup, out in zip(trees, seconds):
            start = time.perf_counter()
            setup.index.update(op.old, op.new)
            out.append(time.perf_counter() - start)
    tprstar, tpr = seconds
    assert len(tprstar) == 400
    assert statistics.median(tprstar) >= 0.8 * statistics.median(tpr)


def test_a4_every_horizon_answers():
    for result in experiments.horizon_ablation(SCALE).values():
        assert result.queries.count > 0


def test_x4_update_cpu_by_dimension():
    for d, results in experiments.dimension_sweep(SCALE).items():
        assert update_cpu(results["STRIPES"]) < update_cpu(results["TPR*"]), d


def test_x5_bigger_queries_hit_more():
    runs = experiments.selectivity_sweep(SCALE)
    hits = [results["STRIPES"].query_hits for results in runs.values()]
    assert hits == sorted(hits)


def test_x6_every_temporal_range_answers():
    for results in experiments.temporal_range_sweep(SCALE).values():
        for result in results.values():
            assert result.queries.count > 0
