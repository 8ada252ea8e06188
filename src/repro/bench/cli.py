"""The ``stripes-bench`` command: regenerate any paper figure from the
command line.

Examples::

    stripes-bench fig9                 # continuous performance, 1% scale
    stripes-bench fig12 --scale 0.05   # per-query costs, 5% scale
    stripes-bench all --scale 0.002    # everything, tiny and fast
    stripes-bench explain --query-type window --index tprstar
    stripes-bench crashmatrix --survival mix --json crash.json

The ``explain`` subcommand builds a small index, replays a prefix of the
workload, then runs one query under full tracing and prints the descent
trace (nodes visited, quads INSIDE/OVERLAP/DISJUNCT, candidates refined
away) together with the index's metrics snapshot.

Service and engine throughput are measured by ``perfbench/run.py``
(see ``perfbench/README.md``), not here.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import experiments
from repro.bench.experiments import ExperimentScale
from repro.bench.report import (
    render_batches,
    render_breakdown,
    render_cache_table,
    render_cost_table,
    render_latency_table,
    render_load,
    render_metrics_snapshot,
    render_write_table,
)
from repro.bench.runner import make_stripes, make_tpr, make_tprstar

EXPERIMENTS = ("fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
               "structure", "ablation-leaf", "ablation-pruning",
               "ablation-choosepath", "ablation-horizon",
               "sweep-dimension", "sweep-selectivity", "sweep-temporal")

EXPLAIN_BUILDERS = {"stripes": make_stripes, "tpr": make_tpr,
                    "tprstar": make_tprstar}

QUERY_TYPE_NAMES = {"timeslice": "TimeSliceQuery", "window": "WindowQuery",
                    "moving": "MovingQuery"}


def _print(text: str) -> None:
    print(text)
    print()


def _print_costs(title: str, results, disk, metrics: bool = False) -> None:
    """One cost table plus its tail-latency companion (and, on request,
    each index's metrics snapshot)."""
    _print(render_cost_table(title, results, disk))
    _print(render_latency_table(f"{title} -- tail latency (CPU ms/op)",
                                results))
    if metrics:
        _print(render_cache_table(
            f"{title} -- decoded-node cache effectiveness", results))
        _print(render_write_table(
            f"{title} -- write-path effort", results))
        for name, result in results.items():
            if result.metrics:
                _print(render_metrics_snapshot(
                    f"{title} -- {name} metrics snapshot", result.metrics))


def run_experiment(name: str, scale: ExperimentScale) -> None:
    """Run one named experiment and print its paper-style tables."""
    disk = scale.disk
    if name in ("fig9", "fig10", "fig11", "fig12"):
        runs = experiments.workload_mix_runs(scale)
        for mix, results in runs.items():
            if name == "fig9":
                _print(render_batches(
                    f"Figure 9 analog -- 500K-Uniform, {mix} mix, "
                    f"cost per batch", results, disk))
            elif name == "fig10":
                _print(render_breakdown(
                    f"Figure 10 analog -- 500K-Uniform, {mix} mix, "
                    f"IO/CPU breakdown", results, disk))
            else:
                _print_costs(
                    f"Figures 11/12 analog -- 500K-Uniform, {mix} mix, "
                    f"per-op costs", results, disk, metrics=True)
    elif name == "fig13":
        for paper_n, results in experiments.scaling(scale).items():
            _print_costs(
                f"Figure 13 analog -- {paper_n // 1000}K objects, 50-50 mix",
                results, disk)
    elif name == "fig14":
        for nd, results in experiments.skew(scale).items():
            _print_costs(
                f"Figure 14 analog -- 500K-Skew ND={nd}, 50-50 mix",
                results, disk)
    elif name == "structure":
        stats = experiments.structure_stats(scale)
        print(f"Section 5.1 analog -- structure statistics "
              f"(scale {scale.scale}):")
        print(f"  STRIPES pages:          {stats.stripes_pages}")
        print(f"  STRIPES height:         {stats.stripes_height}")
        print(f"  STRIPES non-leaf nodes: {stats.stripes_nonleaf_nodes} "
              f"({stats.stripes_nonleaf_bytes} bytes each)")
        print(f"  STRIPES leaves:         {stats.stripes_small_leaves} "
              f"small + {stats.stripes_large_leaves} large, occupancy "
              f"{stats.stripes_leaf_occupancy:.1%}")
        print(f"  TPR* pages:             {stats.tprstar_pages}")
        print(f"  TPR* height:            {stats.tprstar_height}")
        print(f"  size ratio STRIPES/TPR*: {stats.size_ratio:.2f}x "
              f"(paper: ~2.4x)")
        print()
    elif name == "ablation-leaf":
        results = experiments.leaf_size_ablation(scale)
        _print(render_load("A1 -- two leaf sizes vs single size (load)",
                           results, disk))
        _print_costs("A1 -- per-op costs", results, disk)
    elif name == "ablation-pruning":
        results = experiments.pruning_ablation(scale)
        _print_costs(
            "A2 -- quad pruning on/off (same IOs, CPU differs)",
            results, disk)
    elif name == "ablation-choosepath":
        results = experiments.choosepath_ablation(scale)
        _print_costs("A3 -- TPR* ChoosePath vs greedy TPR", results, disk)
    elif name == "ablation-horizon":
        results = experiments.horizon_ablation(scale)
        named = {f"H={h:g}": r for h, r in results.items()}
        _print_costs("A4 -- TPR* metric-horizon sensitivity", named, disk)
    elif name == "sweep-dimension":
        for d, results in experiments.dimension_sweep(scale).items():
            _print_costs(f"X4 -- dimensionality d={d}", results, disk)
    elif name == "sweep-selectivity":
        for fraction, results in experiments.selectivity_sweep(scale).items():
            _print_costs(
                f"X5 -- query area fraction {fraction}", results, disk)
    elif name == "sweep-temporal":
        for window, results in experiments.temporal_range_sweep(
                scale).items():
            _print_costs(
                f"X6 -- query temporal range W={window:g}", results, disk)
    else:
        raise ValueError(f"unknown experiment {name!r}")


def run_explain(index: str, query_type: str, n_objects: int,
                pool_pages: int, seed: int) -> int:
    """Build a small index, replay updates, then trace one query."""
    from repro.obs import MetricsRegistry, Tracer
    from repro.workload.generator import WorkloadSpec, generate_workload
    from repro.workload.operations import QueryOp, UpdateOp

    spec = WorkloadSpec(n_objects=n_objects,
                        n_operations=max(200, n_objects // 2),
                        seed=seed)
    workload = generate_workload(spec)
    registry = MetricsRegistry()
    setup = EXPLAIN_BUILDERS[index](workload, pool_pages, registry=registry)
    idx = setup.index

    for state in workload.initial:
        idx.insert(state)
    wanted = QUERY_TYPE_NAMES[query_type]
    target: Optional[QueryOp] = None
    for op in workload.operations:
        if isinstance(op, UpdateOp):
            idx.update(op.old, op.new)
        elif isinstance(op, QueryOp) and target is None \
                and type(op.query).__name__ == wanted:
            target = op
            break
    if target is None:
        print(f"workload produced no {query_type} query; "
              f"try a larger --n-objects", file=sys.stderr)
        return 1

    tracer = Tracer()
    if index == "stripes":
        result = idx.explain(target.query, tracer=tracer)
    else:
        result = idx.explain(target.query)
    _print(result.format())
    _print(render_metrics_snapshot("metrics snapshot:", registry.to_dict()))
    return 0


def run_crashmatrix(seed: int, survival: str, write_stride: int,
                    failpoint_stride: int,
                    json_path: Optional[str] = None) -> int:
    """Run the crash matrix (``repro.bench.crashmatrix``): kill the
    index at every sampled page write, torn write, and failpoint of a
    mixed insert/update/checkpoint workload, reopen from the durable
    image, and gate on structural invariants plus exact query parity
    with a never-crashed linear-scan replica.  Non-zero exit on any
    scenario failure."""
    import json

    from repro.bench.crashmatrix import run_crash_matrix

    survivals = ("none", "all", "mix") if survival == "every" \
        else (survival,)
    reports = []
    failed = 0
    for policy in survivals:
        report = run_crash_matrix(
            seed=seed, survival=policy, write_stride=write_stride,
            failpoint_stride=failpoint_stride,
            log=lambda line: print(f"  {line}", file=sys.stderr))
        reports.append(report)
        for line in report.summary_lines():
            print(line)
        failed += report.failed
    if json_path:
        with open(json_path, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
        print(f"wrote {json_path}")
    if failed:
        print(f"CRASH MATRIX FAILURE: {failed} scenario(s) recovered to "
              f"a corrupt or divergent index", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stripes-bench",
        description="Regenerate the STRIPES paper's evaluation figures.")
    parser.add_argument("experiment",
                        choices=EXPERIMENTS + ("all", "explain",
                                               "crashmatrix"),
                        help="which figure/table to regenerate, 'explain' "
                             "to trace one query descent, or "
                             "'crashmatrix' to fault-inject every "
                             "checkpoint/recovery path")
    parser.add_argument("--scale", type=float, default=0.01,
                        help="fraction of the paper's experiment size "
                             "(default 0.01; 1.0 = paper scale)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload random seed")
    explain_group = parser.add_argument_group("explain options")
    explain_group.add_argument("--index", choices=sorted(EXPLAIN_BUILDERS),
                               default="stripes",
                               help="index to explain (default stripes)")
    explain_group.add_argument("--query-type",
                               choices=sorted(QUERY_TYPE_NAMES),
                               default="timeslice",
                               help="query kind to trace "
                                    "(default timeslice)")
    explain_group.add_argument("--n-objects", type=int, default=2000,
                               help="objects to load before tracing "
                                    "(default 2000)")
    explain_group.add_argument("--pool-pages", type=int, default=256,
                               help="buffer-pool pages for explain "
                                    "(default 256)")
    crash_group = parser.add_argument_group("crashmatrix options")
    crash_group.add_argument("--survival", default="every",
                             choices=("none", "all", "mix", "every"),
                             help="fate of unsynced writes at crash time "
                                  "(default 'every': run all three "
                                  "policies)")
    crash_group.add_argument("--write-stride", type=int, default=5,
                             help="crash at every Nth page write "
                                  "(default 5; 1 = every write)")
    crash_group.add_argument("--failpoint-stride", type=int, default=1,
                             help="thin the per-failpoint occurrence axis "
                                  "(default 1 = every occurrence)")
    crash_group.add_argument("--json", metavar="PATH", default=None,
                             help="write the crashmatrix reports to PATH "
                                  "as JSON")
    args = parser.parse_args(argv)
    if args.experiment == "explain":
        return run_explain(args.index, args.query_type, args.n_objects,
                           args.pool_pages, args.seed)
    if args.experiment == "crashmatrix":
        return run_crashmatrix(args.seed, args.survival, args.write_stride,
                               args.failpoint_stride, json_path=args.json)
    scale = ExperimentScale(scale=args.scale, seed=args.seed)
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in names:
        run_experiment(name, scale)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
