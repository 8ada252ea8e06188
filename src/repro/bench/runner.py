"""Workload execution and per-operation cost measurement.

Each index under test gets its own in-memory page file and buffer pool (as
in the paper, where each index is a separate SHORE volume competing for a
2048-page pool).  The runner replays a :class:`repro.workload.Workload`,
snapshotting the pool's IO counters around every operation and timing its
CPU with ``perf_counter``.  All work is in-memory, so wall time is CPU
time; physical IOs are converted to simulated disk time by
:class:`repro.storage.stats.DiskModel` at reporting time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.baselines.scan import ScanIndex
from repro.core.quadtree import PAPER_LEAF_LADDER, QuadTreeConfig
from repro.core.stripes import StripesConfig, StripesIndex
from repro.obs import DEFAULT_LATENCY_BUCKETS_S, MetricsRegistry
from repro.storage.buffer_pool import BufferPool
from repro.storage.node_store import RecordStore
from repro.storage.pagefile import InMemoryPageFile
from repro.storage.stats import CostAccumulator, DiskModel, OperationCost
from repro.tpr.tprstar import TPRStarTree
from repro.tpr.tprtree import TPRTree, TPRTreeConfig
from repro.workload.operations import InsertOp, QueryOp, UpdateOp, Workload

DEFAULT_LIFETIME = 120.0   # 2 * UI: every object updates within one lifetime
DEFAULT_HORIZON = 60.0     # TPR integration horizon H = UI


@dataclass
class IndexSetup:
    """An index under test together with its private buffer pool."""

    name: str
    index: object            # insert/update/delete/query interface
    pool: Optional[BufferPool]

    def pages_in_use(self) -> int:
        if isinstance(self.index, StripesIndex):
            return self.index.pages_in_use()
        if isinstance(self.index, TPRTree):
            return self.index.store.pages_in_use()
        return 0


def make_stripes(workload: Workload, pool_pages: int,
                 lifetime: float = DEFAULT_LIFETIME, float32: bool = False,
                 quadtree: Optional[QuadTreeConfig] = None,
                 name: str = "STRIPES",
                 registry: Optional[MetricsRegistry] = None) -> IndexSetup:
    """A STRIPES index sized for ``workload`` over a fresh pool.

    Without a ``quadtree`` config it uses the paper's two leaf sizes
    (:data:`PAPER_LEAF_LADDER`), so the paper experiments measure the
    paper's design rather than the library's default ladder."""
    pool = BufferPool(InMemoryPageFile(), capacity=pool_pages)
    if quadtree is None:
        quadtree = QuadTreeConfig(leaf_size_ladder=PAPER_LEAF_LADDER)
    config = StripesConfig(
        vmax=workload.vmax, pmax=workload.pmax, lifetime=lifetime,
        float32=float32, quadtree=quadtree)
    index = StripesIndex(config, pool)
    if registry is not None:
        index.attach_metrics(registry)
    return IndexSetup(name, index, pool)


def _make_tpr(cls, workload: Workload, pool_pages: int, horizon: float,
              float32: bool, name: str,
              registry: Optional[MetricsRegistry] = None) -> IndexSetup:
    pool = BufferPool(InMemoryPageFile(), capacity=pool_pages)
    config = TPRTreeConfig(d=len(workload.pmax), horizon=horizon,
                           float32=float32,
                           delete_eps=1e-4 if float32 else 1e-7)
    index = cls(config, RecordStore(pool))
    if registry is not None:
        index.attach_metrics(registry)
    return IndexSetup(name, index, pool)


def make_tprstar(workload: Workload, pool_pages: int,
                 horizon: float = DEFAULT_HORIZON, float32: bool = False,
                 name: str = "TPR*",
                 registry: Optional[MetricsRegistry] = None) -> IndexSetup:
    """A TPR*-tree sized for ``workload`` over a fresh pool."""
    return _make_tpr(TPRStarTree, workload, pool_pages, horizon, float32,
                     name, registry)


def make_tpr(workload: Workload, pool_pages: int,
             horizon: float = DEFAULT_HORIZON, float32: bool = False,
             name: str = "TPR",
             registry: Optional[MetricsRegistry] = None) -> IndexSetup:
    """A base TPR-tree (greedy insert, no forced reinsert)."""
    return _make_tpr(TPRTree, workload, pool_pages, horizon, float32, name,
                     registry)


def make_scan(workload: Workload, lifetime: float = DEFAULT_LIFETIME,
              name: str = "SCAN") -> IndexSetup:
    """The exact linear-scan baseline (no pool; zero IO by construction)."""
    return IndexSetup(name, ScanIndex(lifetime), None)


@dataclass
class BatchCost:
    """Aggregate cost of one batch of operations (Figure 9 granularity)."""

    index: int
    ops: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    cpu_seconds: float = 0.0

    @property
    def physical_io(self) -> int:
        return self.physical_reads + self.physical_writes

    def total_seconds(self, disk: DiskModel) -> float:
        return self.cpu_seconds + disk.seconds(self.physical_io)


@dataclass
class RunResult:
    """Everything measured while replaying a workload against one index."""

    name: str
    load: CostAccumulator = field(default_factory=CostAccumulator)
    updates: CostAccumulator = field(default_factory=CostAccumulator)
    queries: CostAccumulator = field(default_factory=CostAccumulator)
    batches: List[BatchCost] = field(default_factory=list)
    query_hits: int = 0
    pages_used: int = 0
    #: Registry snapshots taken as each phase completes, keyed by phase
    #: name ("load", "ops"); empty when no registry was passed.
    phase_metrics: Dict[str, dict] = field(default_factory=dict)

    @property
    def metrics(self) -> Optional[dict]:
        """The final metrics snapshot (after the op stream), if any."""
        return self.phase_metrics.get("ops")

    @property
    def ops(self) -> int:
        return self.updates.count + self.queries.count

    def total_cpu_seconds(self) -> float:
        return self.updates.cpu_seconds + self.queries.cpu_seconds

    def total_physical_io(self) -> int:
        return self.updates.physical_io + self.queries.physical_io

    def total_seconds(self, disk: DiskModel) -> float:
        return self.total_cpu_seconds() + disk.seconds(
            self.total_physical_io())


def run_workload(setup: IndexSetup, workload: Workload,
                 n_ops: Optional[int] = None,
                 batch_size: Optional[int] = None,
                 on_batch: Optional[Callable[[BatchCost], None]] = None,
                 keep_per_op: bool = False,
                 registry: Optional[MetricsRegistry] = None) -> RunResult:
    """Load the initial objects, then replay (a prefix of) the operation
    stream, measuring every operation.

    ``batch_size`` groups operations into :class:`BatchCost` buckets (the
    paper plots batches of 5K ops in Figure 9).  ``on_batch`` is invoked as
    each batch completes.  ``keep_per_op`` retains each operation's cost so
    the accumulators can answer percentile queries afterwards.  With a
    ``registry``, per-op wall times feed ``bench_update_latency_seconds`` /
    ``bench_query_latency_seconds`` histograms and a snapshot of the whole
    registry is stored in :attr:`RunResult.phase_metrics` after each phase
    (pass the same registry to the ``make_*`` builder to fold the index's
    own instruments into those snapshots).
    """
    index = setup.index
    pool = setup.pool
    result = RunResult(setup.name)
    update_hist = query_hist = None
    if registry is not None:
        update_hist = registry.histogram(
            "bench_update_latency_seconds", DEFAULT_LATENCY_BUCKETS_S,
            help="wall time per replayed update/insert operation")
        query_hist = registry.histogram(
            "bench_query_latency_seconds", DEFAULT_LATENCY_BUCKETS_S,
            help="wall time per replayed query operation")

    def measure() -> tuple:
        if pool is None:
            return (0, 0)
        stats = pool.stats
        return (stats.physical_reads, stats.physical_writes)

    # Initial load (the paper loads all N objects before the op mix).
    # Indexes exposing a batch insert (STRIPES) get the whole list at
    # once so per-call routing overhead is amortised; the entries and
    # page images produced are identical to sequential inserts.
    insert_batch = getattr(index, "insert_batch", None)
    before = measure()
    start = time.perf_counter()
    if insert_batch is not None:
        insert_batch(workload.initial)
    else:
        for state in workload.initial:
            index.insert(state)
    elapsed = time.perf_counter() - start
    after = measure()
    result.load.add(OperationCost(after[0] - before[0],
                                  after[1] - before[1], elapsed),
                    keep=keep_per_op)
    if registry is not None:
        result.phase_metrics["load"] = registry.to_dict()

    operations = workload.operations
    if n_ops is not None:
        operations = operations[:n_ops]
    if batch_size is None:
        batch_size = max(1, len(operations))

    batch = BatchCost(index=0)
    for op in operations:
        before = measure()
        start = time.perf_counter()
        if isinstance(op, UpdateOp):
            index.update(op.old, op.new)
            kind = result.updates
            hist = update_hist
        elif isinstance(op, InsertOp):
            index.insert(op.state)
            kind = result.updates
            hist = update_hist
        elif isinstance(op, QueryOp):
            hits = index.query(op.query)
            result.query_hits += len(hits)
            kind = result.queries
            hist = query_hist
        else:  # pragma: no cover - exhaustive over Operation
            raise TypeError(f"unknown operation {type(op).__name__}")
        elapsed = time.perf_counter() - start
        after = measure()
        cost = OperationCost(after[0] - before[0], after[1] - before[1],
                             elapsed)
        kind.add(cost, keep=keep_per_op)
        if hist is not None:
            hist.observe(elapsed)
        batch.ops += 1
        batch.physical_reads += cost.physical_reads
        batch.physical_writes += cost.physical_writes
        batch.cpu_seconds += cost.cpu_seconds
        if batch.ops >= batch_size:
            result.batches.append(batch)
            if on_batch is not None:
                on_batch(batch)
            batch = BatchCost(index=len(result.batches))
    if batch.ops:
        result.batches.append(batch)
        if on_batch is not None:
            on_batch(batch)
    result.pages_used = setup.pages_in_use()
    if registry is not None:
        result.phase_metrics["ops"] = registry.to_dict()
    return result
