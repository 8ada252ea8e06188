"""One entry point per paper figure/table (the experiment index of
DESIGN.md).

Every experiment follows the paper's setup (Section 5.1-5.2) at a
configurable *scale*: the paper's object counts, operation counts, batch
sizes, and buffer-pool pages are all multiplied by ``scale`` while the
**space dimensions stay at paper size** (a scaled-down space would change
the dual-space geometry -- the ratio of ``vmax * L`` to the position
extent -- and with it the query-region shapes; keeping the paper's space
and subsampling objects preserves the geometry and the pool:index ratio,
which are what drive the measured IO behaviour).

The paper's reference setup: space side ``1000 km * sqrt(N / 100K)``,
speeds in [0, 3] km/min, UI = 60, 600 time units, query mix 60/20/20,
spatial range 0.25 %, temporal range 40, buffer pool 2048 x 4 KB pages,
50K measured operations in batches of 5K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.runner import (
    IndexSetup,
    RunResult,
    make_scan,
    make_stripes,
    make_tpr,
    make_tprstar,
    run_workload,
)
from repro.core.quadtree import QuadTreeConfig
from repro.obs import MetricsRegistry
from repro.storage.page import PAGE_SIZE
from repro.storage.stats import DiskModel
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.operations import Workload

PAPER_POOL_PAGES = 2048
PAPER_OPS = 50_000
PAPER_BATCH = 5_000
PAPER_REFERENCE_N = 100_000
PAPER_REFERENCE_SIDE = 1000.0

MIX_LABELS = {0.8: "80-20", 0.5: "50-50", 0.2: "20-80"}


@dataclass(frozen=True)
class ExperimentScale:
    """Scales the paper's experiment sizes down to Python-friendly runs.

    ``scale=1.0`` is the paper's exact configuration (500K objects for the
    main experiments); the default 0.01 runs the same shapes with 1/100 of
    the objects, operations, and buffer pool.
    """

    scale: float = 0.01
    seed: int = 7
    disk: DiskModel = field(default_factory=DiskModel)

    def n_objects(self, paper_n: int) -> int:
        return max(500, round(paper_n * self.scale))

    @property
    def pool_pages(self) -> int:
        return max(16, round(PAPER_POOL_PAGES * self.scale))

    @property
    def n_ops(self) -> int:
        return max(200, round(PAPER_OPS * self.scale))

    @property
    def batch_size(self) -> int:
        return max(20, round(PAPER_BATCH * self.scale))

    @staticmethod
    def paper_side(paper_n: int) -> float:
        """The paper's space side for a ``paper_n``-object data set."""
        return PAPER_REFERENCE_SIDE * math.sqrt(paper_n / PAPER_REFERENCE_N)

    def workload(self, paper_n: int, update_fraction: float,
                 nd: Optional[int] = None, seed_offset: int = 0,
                 **spec_overrides) -> Workload:
        spec = WorkloadSpec(
            n_objects=self.n_objects(paper_n),
            update_fraction=update_fraction,
            nd=nd,
            space_side=self.paper_side(paper_n),
            n_operations=self.n_ops,
            seed=self.seed + seed_offset,
            **spec_overrides,
        )
        return generate_workload(spec)


_BUILDERS = {
    "STRIPES": make_stripes,
    "TPR*": make_tprstar,
    "TPR": make_tpr,
    "SCAN": lambda workload, pool_pages, **kw: make_scan(workload),
}


def _run_indexes(workload: Workload, scale: ExperimentScale,
                 indexes: Sequence[str],
                 batch_size: Optional[int] = None
                 ) -> Dict[str, RunResult]:
    results: Dict[str, RunResult] = {}
    for name in indexes:
        registry = MetricsRegistry()
        setup = _BUILDERS[name](workload, scale.pool_pages,
                                registry=registry)
        results[name] = run_workload(
            setup, workload, n_ops=scale.n_ops,
            batch_size=batch_size if batch_size is not None
            else scale.batch_size,
            keep_per_op=True, registry=registry)
    return results


# --------------------------------------------------------------------- #
# E1-E4: Figures 9-12 (500K uniform, three workload mixes)
# --------------------------------------------------------------------- #

def workload_mix_runs(scale: ExperimentScale,
                      mixes: Sequence[float] = (0.8, 0.5, 0.2),
                      indexes: Sequence[str] = ("STRIPES", "TPR*"),
                      paper_n: int = 500_000
                      ) -> Dict[str, Dict[str, RunResult]]:
    """The shared 500K-uniform runs behind Figures 9, 10, 11, and 12:
    ``{mix label: {index name: RunResult}}``."""
    out: Dict[str, Dict[str, RunResult]] = {}
    for mix in mixes:
        workload = scale.workload(paper_n, update_fraction=mix)
        label = MIX_LABELS.get(mix, f"{int(mix * 100)}-{int(100 - mix * 100)}")
        out[label] = _run_indexes(workload, scale, indexes)
    return out


# --------------------------------------------------------------------- #
# E5: Figure 13 (scaling the number of moving objects)
# --------------------------------------------------------------------- #

def scaling(scale: ExperimentScale,
            paper_ns: Sequence[int] = (100_000, 900_000),
            update_fraction: float = 0.5,
            indexes: Sequence[str] = ("STRIPES", "TPR*")
            ) -> Dict[int, Dict[str, RunResult]]:
    """Figure 13: per-update and per-query costs at 100K and 900K objects
    (scaled), 50-50 mix.  At 100K the TPR*-tree fits entirely in the
    buffer pool, which is the crossover regime the paper highlights."""
    out: Dict[int, Dict[str, RunResult]] = {}
    for paper_n in paper_ns:
        workload = scale.workload(paper_n, update_fraction)
        out[paper_n] = _run_indexes(workload, scale, indexes)
    return out


# --------------------------------------------------------------------- #
# E6: Figure 14 (data skew)
# --------------------------------------------------------------------- #

def skew(scale: ExperimentScale, nds: Sequence[int] = (20, 60),
         update_fraction: float = 0.5,
         indexes: Sequence[str] = ("STRIPES", "TPR*"),
         paper_n: int = 500_000) -> Dict[int, Dict[str, RunResult]]:
    """Figure 14: network-skewed data sets with ND destinations."""
    out: Dict[int, Dict[str, RunResult]] = {}
    for nd in nds:
        workload = scale.workload(paper_n, update_fraction, nd=nd)
        out[nd] = _run_indexes(workload, scale, indexes)
    return out


# --------------------------------------------------------------------- #
# E7: Section 5.1 structure statistics
# --------------------------------------------------------------------- #

@dataclass
class StructureStats:
    """Index structure after loading the 500K-analog uniform data set."""

    stripes_pages: int = 0
    stripes_height: int = 0
    stripes_nonleaf_nodes: int = 0
    stripes_nonleaf_bytes: int = 0
    stripes_leaf_occupancy: float = 0.0
    stripes_small_leaves: int = 0
    stripes_large_leaves: int = 0
    tprstar_pages: int = 0
    tprstar_height: int = 0

    @property
    def size_ratio(self) -> float:
        """STRIPES pages / TPR* pages (the paper reports ~2.4x)."""
        if not self.tprstar_pages:
            return float("nan")
        return self.stripes_pages / self.tprstar_pages


def structure_stats(scale: ExperimentScale, paper_n: int = 500_000,
                    float32: bool = True) -> StructureStats:
    """Load both indexes with the uniform data set and report the
    structural numbers of Section 5.1 (pages, heights, non-leaf count,
    occupancy, size ratio).  ``float32`` uses the paper's 4-byte floats."""
    workload = scale.workload(paper_n, update_fraction=0.5)
    out = StructureStats()

    stripes = make_stripes(workload, scale.pool_pages, float32=float32)
    run_workload(stripes, workload, n_ops=0)
    out.stripes_pages = stripes.index.pages_in_use()
    for tree_stats in stripes.index.stats().values():
        out.stripes_height = max(out.stripes_height, tree_stats.height)
        out.stripes_nonleaf_nodes += tree_stats.nonleaf_nodes
        out.stripes_small_leaves += tree_stats.small_leaves
        out.stripes_large_leaves += tree_stats.large_leaves
        out.stripes_leaf_occupancy = tree_stats.leaf_occupancy
    tree = next(iter(stripes.index._trees.values()))
    out.stripes_nonleaf_bytes = tree.codec.nonleaf_record_size

    tprstar = make_tprstar(workload, scale.pool_pages, float32=float32)
    run_workload(tprstar, workload, n_ops=0)
    out.tprstar_pages = tprstar.index.store.pages_in_use()
    out.tprstar_height = tprstar.index.height()
    return out


# --------------------------------------------------------------------- #
# X4-X6: parameter sweeps beyond the paper's figures
# --------------------------------------------------------------------- #

def dimension_sweep(scale: ExperimentScale,
                    dimensions: Sequence[int] = (1, 2, 3),
                    update_fraction: float = 0.5,
                    indexes: Sequence[str] = ("STRIPES", "TPR*"),
                    paper_n: int = 500_000) -> Dict[int, Dict[str, RunResult]]:
    """X4: effect of native-space dimensionality.

    The paper's central motivation (Section 1) is that TPR-style indexes
    effectively operate in ``2d`` dimensions with *boxes*, which degrade
    as ``d`` grows, while STRIPES indexes *points*.  This sweep measures
    both indexes on uniform workloads in d = 1, 2, 3 (quadtree fanout 4,
    16, 64; TPBRs with 2, 4, 6 parameterised faces)."""
    out: Dict[int, Dict[str, RunResult]] = {}
    for d in dimensions:
        workload = scale.workload(paper_n, update_fraction, d=d)
        out[d] = _run_indexes(workload, scale, indexes)
    return out


def selectivity_sweep(scale: ExperimentScale,
                      spatial_fractions: Sequence[float] = (
                          0.0005, 0.0025, 0.01, 0.04),
                      update_fraction: float = 0.2,
                      indexes: Sequence[str] = ("STRIPES", "TPR*"),
                      paper_n: int = 500_000
                      ) -> Dict[float, Dict[str, RunResult]]:
    """X5: effect of the query's spatial extent (the paper fixes it at
    0.25 % of the space; the TPR-tree evaluations sweep it)."""
    out: Dict[float, Dict[str, RunResult]] = {}
    for fraction in spatial_fractions:
        workload = scale.workload(paper_n, update_fraction,
                                  query_spatial_fraction=fraction)
        out[fraction] = _run_indexes(workload, scale, indexes)
    return out


def temporal_range_sweep(scale: ExperimentScale,
                         ranges: Sequence[float] = (1.0, 20.0, 40.0, 80.0),
                         update_fraction: float = 0.2,
                         indexes: Sequence[str] = ("STRIPES", "TPR*"),
                         paper_n: int = 500_000
                         ) -> Dict[float, Dict[str, RunResult]]:
    """X6: effect of the query temporal range W (how far into the future
    queries look; the paper fixes W = 40).  Larger W tilts the STRIPES
    dual-space bands and inflates the TPR trees' extrapolated boxes."""
    out: Dict[float, Dict[str, RunResult]] = {}
    for window in ranges:
        workload = scale.workload(paper_n, update_fraction,
                                  query_temporal_range=window)
        out[window] = _run_indexes(workload, scale, indexes)
    return out


# --------------------------------------------------------------------- #
# A1-A4: ablations
# --------------------------------------------------------------------- #

def leaf_size_ablation(scale: ExperimentScale,
                       update_fraction: float = 0.5,
                       paper_n: int = 500_000) -> Dict[str, RunResult]:
    """A1: leaf sizing schemes.  ``single-size`` = every leaf a full page;
    ``two-sizes`` = the paper's half/full scheme (Section 5.1);
    ``ladder-4`` = the paper's stated future work of more than two leaf
    sizes (1/8, 1/4, 1/2, full page), which should push occupancy higher
    still."""
    workload = scale.workload(paper_n, update_fraction)
    page = PAGE_SIZE
    configs = {
        "single-size": QuadTreeConfig(use_small_leaves=False),
        "two-sizes": QuadTreeConfig(use_small_leaves=True),
        "ladder-4": QuadTreeConfig(leaf_size_ladder=(
            (page - 10) // 8, (page - 8) // 4, (page - 6) // 2, page - 5)),
    }
    results = {}
    for label, quadtree in configs.items():
        setup = make_stripes(workload, scale.pool_pages, quadtree=quadtree,
                             name=f"STRIPES[{label}]")
        results[label] = run_workload(setup, workload, n_ops=scale.n_ops,
                                      batch_size=scale.batch_size,
                                      keep_per_op=True)
    return results


def pruning_ablation(scale: ExperimentScale,
                     update_fraction: float = 0.2,
                     paper_n: int = 500_000) -> Dict[str, RunResult]:
    """A2: the shared per-plane quad classification (Section 4.6.4) versus
    classifying every child independently.  Same answers and IOs; only
    query CPU differs."""
    workload = scale.workload(paper_n, update_fraction)
    results = {}
    for label, pruning in (("pruned", True), ("unpruned", False)):
        setup = make_stripes(
            workload, scale.pool_pages,
            quadtree=QuadTreeConfig(quad_pruning=pruning),
            name=f"STRIPES[{label}]")
        results[label] = run_workload(setup, workload, n_ops=scale.n_ops,
                                      batch_size=scale.batch_size,
                                      keep_per_op=True)
    return results


def horizon_ablation(scale: ExperimentScale,
                     horizons: Sequence[float] = (1.0, 20.0, 60.0, 120.0),
                     update_fraction: float = 0.5,
                     paper_n: int = 500_000) -> Dict[float, RunResult]:
    """A4: sensitivity of the TPR*-tree to the metric-integration horizon
    ``H``.

    All time-parameterized metrics integrate over ``[now, now+H]``
    (Section 3.1).  A short horizon optimises boxes for *current* overlap
    only, letting velocity spread blow them up by future query times; a
    horizon near the update interval (the paper's configuration and our
    default) keeps them tight across the query window.  This quantifies
    how sensitive the STRIPES-vs-TPR* query comparison is to the
    baseline's tuning.
    """
    workload = scale.workload(paper_n, update_fraction)
    results = {}
    for horizon in horizons:
        setup = make_tprstar(workload, scale.pool_pages, horizon=horizon,
                             name=f"TPR*[H={horizon:g}]")
        results[horizon] = run_workload(setup, workload, n_ops=scale.n_ops,
                                        batch_size=scale.batch_size,
                                        keep_per_op=True)
    return results


def choosepath_ablation(scale: ExperimentScale,
                        update_fraction: float = 0.5,
                        paper_n: int = 500_000) -> Dict[str, RunResult]:
    """A3: TPR*-tree (global ChoosePath + forced reinsert) versus the base
    TPR-tree greedy insertion (Section 3.2's motivation)."""
    workload = scale.workload(paper_n, update_fraction)
    return _run_indexes(workload, scale, ("TPR*", "TPR"))
