"""Render experiment results as the rows/series the paper reports.

All output is plain text so it survives CI logs and ``pytest -s``.  Costs
are reported three ways: raw physical IOs, measured CPU milliseconds, and
a *modelled total* (CPU + IOs priced by the
:class:`repro.storage.stats.DiskModel`).  The paper's absolute
milliseconds are not reproducible on a different substrate; the raw IO
and CPU columns are the comparable quantities.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.runner import RunResult
from repro.storage.stats import CostAccumulator, DiskModel


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Simple aligned text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cost_row(name: str, result: RunResult, disk: DiskModel) -> List[object]:
    upd, qry = result.updates, result.queries
    return [
        name,
        upd.count,
        f"{upd.mean_io():.2f}",
        f"{upd.mean_cpu_seconds() * 1e3:.3f}",
        f"{upd.mean_total_seconds(disk) * 1e3:.2f}",
        qry.count,
        f"{qry.mean_io():.2f}",
        f"{qry.mean_cpu_seconds() * 1e3:.3f}",
        f"{qry.mean_total_seconds(disk) * 1e3:.2f}",
    ]


COST_HEADERS = ["index", "#upd", "upd IO/op", "upd CPU ms", "upd total ms",
                "#qry", "qry IO/op", "qry CPU ms", "qry total ms"]


def render_cost_table(title: str, results: Dict[str, RunResult],
                      disk: DiskModel) -> str:
    """Figures 11-14 style: average per-update and per-query costs."""
    rows = [_cost_row(name, result, disk)
            for name, result in results.items()]
    return format_table(COST_HEADERS, rows, title)


def render_breakdown(title: str, results: Dict[str, RunResult],
                     disk: DiskModel) -> str:
    """Figure 10 style: total IO and CPU components over the run."""
    rows = []
    for name, result in results.items():
        rows.append([
            name,
            result.ops,
            result.total_physical_io(),
            f"{disk.seconds(result.total_physical_io()):.3f}",
            f"{result.total_cpu_seconds():.3f}",
            f"{result.total_seconds(disk):.3f}",
        ])
    return format_table(
        ["index", "ops", "physical IO", "IO s (model)", "CPU s", "total s"],
        rows, title)


def render_batches(title: str, results: Dict[str, RunResult],
                   disk: DiskModel) -> str:
    """Figure 9 style: per-batch total cost series for each index."""
    names = list(results)
    n_batches = max((len(r.batches) for r in results.values()), default=0)
    headers = ["batch"] + [f"{n} total s" for n in names] \
        + [f"{n} IO" for n in names]
    rows = []
    for b in range(n_batches):
        row: List[object] = [b + 1]
        for name in names:
            batches = results[name].batches
            row.append(f"{batches[b].total_seconds(disk):.3f}"
                       if b < len(batches) else "-")
        for name in names:
            batches = results[name].batches
            row.append(batches[b].physical_io if b < len(batches) else "-")
        rows.append(row)
    return format_table(headers, rows, title)


def _percentile_cells(acc: CostAccumulator,
                      disk: Optional[DiskModel]) -> List[str]:
    if not acc.per_op_costs():
        return ["-", "-", "-"]
    return [f"{acc.percentile(q, disk) * 1e3:.3f}"
            for q in (0.50, 0.95, 0.99)]


LATENCY_HEADERS = ["index",
                   "upd p50 ms", "upd p95 ms", "upd p99 ms",
                   "qry p50 ms", "qry p95 ms", "qry p99 ms"]


def render_latency_table(title: str, results: Dict[str, RunResult],
                         disk: Optional[DiskModel] = None) -> str:
    """Tail-latency percentiles per operation kind.

    Requires per-op costs retained by ``run_workload(keep_per_op=True)``
    (columns show ``-`` otherwise).  Without ``disk`` the percentiles are
    over measured CPU milliseconds; with it, modelled IO time is added.
    """
    rows = []
    for name, result in results.items():
        rows.append([name]
                    + _percentile_cells(result.updates, disk)
                    + _percentile_cells(result.queries, disk))
    return format_table(LATENCY_HEADERS, rows, title)


def render_metrics_snapshot(title: str, snapshot: dict) -> str:
    """A metrics-registry snapshot (``MetricsRegistry.to_dict()``) as
    plain text: counters and gauges one per line, histograms as a
    count/sum/percentile summary."""
    lines = [title] if title else []
    for name in sorted(snapshot.get("counters", {})):
        lines.append(f"  {name} = {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("gauges", {})):
        lines.append(f"  {name} = {snapshot['gauges'][name]:g}")
    for name in sorted(snapshot.get("histograms", {})):
        h = snapshot["histograms"][name]
        lines.append(
            f"  {name}: count={h['count']} sum={h['sum']:.6g} "
            f"p50={h['p50']:.6g} p95={h['p95']:.6g} p99={h['p99']:.6g}")
    return "\n".join(lines)


CACHE_HEADERS = ["index", "decoded hits", "decoded misses", "hit rate"]


def render_cache_table(title: str, results: Dict[str, RunResult]) -> str:
    """Decoded-node cache effectiveness per index.

    Reads the ``*_node_cache_decoded_{hits,misses}_total`` counters out
    of each result's final metrics snapshot (rows show ``-`` for indexes
    run without a registry or without a node cache, e.g. the scan
    baseline).  A hit means a node read skipped Python-level
    deserialization; the page access itself still happened.
    """
    rows = []
    for name, result in results.items():
        counters = (result.metrics or {}).get("counters", {})
        hits = misses = None
        for key, value in counters.items():
            if key.endswith("node_cache_decoded_hits_total"):
                hits = (hits or 0) + value
            elif key.endswith("node_cache_decoded_misses_total"):
                misses = (misses or 0) + value
        if hits is None and misses is None:
            rows.append([name, "-", "-", "-"])
            continue
        hits = hits or 0
        misses = misses or 0
        total = hits + misses
        rate = f"{hits / total:.3f}" if total else "-"
        rows.append([name, hits, misses, rate])
    return format_table(CACHE_HEADERS, rows, title)


WRITE_HEADERS = ["index", "inserts", "splits", "promotions", "spills",
                 "ins p50 ms", "ins p95 ms", "ins p99 ms"]

_WRITE_COUNTER_SUFFIXES = (("inserts", "_inserts_total"),
                           ("splits", "_leaf_splits_total"),
                           ("promotions", "_leaf_promotions_total"),
                           ("spills", "_overflow_spills_total"))


def render_write_table(title: str, results: Dict[str, RunResult]) -> str:
    """Write-path effort per index: insert/split/promotion/spill counters
    plus per-insert latency percentiles.

    Reads the ``*_inserts_total``-family counters and the
    ``*_insert_latency_seconds`` histogram out of each result's final
    metrics snapshot (rows show ``-`` for indexes run without a registry
    or without those instruments, e.g. the TPR trees and the scan
    baseline).  STRIPES observes that histogram once per sub-index
    insert group, so in the paper runs, which replay one ``update`` at
    a time, each observation is one update's insert half (the initial
    load adds one per lifetime window it spans).
    """
    rows = []
    for name, result in results.items():
        snapshot = result.metrics or {}
        counters = snapshot.get("counters", {})
        cells: List[object] = [name]
        found = False
        for _, suffix in _WRITE_COUNTER_SUFFIXES:
            value = None
            for key, count in counters.items():
                if key.endswith(suffix):
                    value = (value or 0) + count
                    found = True
            cells.append("-" if value is None else value)
        hist = None
        for key, h in snapshot.get("histograms", {}).items():
            if key.endswith("_insert_latency_seconds"):
                hist = h
                found = True
                break
        if hist is not None and hist.get("count"):
            cells += [f"{hist[q] * 1e3:.4f}" for q in ("p50", "p95", "p99")]
        else:
            cells += ["-", "-", "-"]
        rows.append(cells if found else [name] + ["-"] * 7)
    return format_table(WRITE_HEADERS, rows, title)


def render_load(title: str, results: Dict[str, RunResult],
                disk: DiskModel) -> str:
    """Initial bulk-load cost and resulting index size."""
    rows = []
    for name, result in results.items():
        rows.append([
            name,
            result.load.physical_io,
            f"{result.load.cpu_seconds:.2f}",
            result.pages_used,
        ])
    return format_table(["index", "load IO", "load CPU s", "pages"],
                        rows, title)
