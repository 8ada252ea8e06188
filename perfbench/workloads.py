"""The three workloads: set-up, the timed region, and the oracle gate.

Every workload starts from the paper's steady state (see
:mod:`inputs`) and replays the 50-50 update/query stream that follows
it.  End-to-end metrics come from an untraced run.  A traced run
(``trace=True``) measures the same stream twice from the same set-up
state, first untraced and then under :class:`spans.SpanRecorder`, and
reports the per-layer split of the traced half plus the tracing
overhead.  Workload constants live in ``workloads.json``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import wait
from pathlib import Path
from time import perf_counter, sleep

import hostspeed
import inputs as inputs_mod
import spans
from inputs import LIFETIME, QUERY, UPDATE

HERE = Path(__file__).resolve().parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())

#: A run measured for its end-to-end metrics goes on past the deadline
#: until it has this many queries, so at least fifty of them lie beyond
#: the reported p95.
MIN_QUERIES = 1000

#: metric name -> unit, as BENCHMARK.json at the checkout root declares.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


# --------------------------------------------------------------- helpers


def percentile_ms(samples_s, q):
    """Nearest-rank ``q``-percentile of ``samples_s`` (seconds), in ms."""
    if not samples_s:
        return 0.0
    ordered = sorted(samples_s)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_inputs(cfg, seed, src, workdir):
    """Generate the workload's inputs in a child process and load them."""
    timed_ops = cfg["timed_ops"]
    workdir.mkdir(parents=True, exist_ok=True)
    fd, path = tempfile.mkstemp(suffix=".npz", dir=workdir)
    os.close(fd)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--src", str(src),
             "--n-objects", str(cfg["n_objects"]), "--seed", str(seed),
             "--timed-ops", str(timed_ops), "--out", path],
            check=True, timeout=170)
        return inputs_mod.load(path)
    finally:
        os.unlink(path)


def stripes_config(inp):
    from repro import StripesConfig

    return StripesConfig(vmax=inp.vmax, pmax=inp.pmax, lifetime=LIFETIME)


def timed_setups(build, reps, speed):
    """Run ``build`` ``reps`` times; return the last result and the
    median set-up time at reference speed.  Earlier results are released
    first; a burst of probe calls brackets every build."""
    times, mids = [], []
    built = None
    for _ in range(reps):
        if built is not None:
            release = getattr(built, "release", None)
            if release is not None:
                release()
            built = None
            gc.collect()
        speed.burst()
        start = perf_counter()
        built = build()
        end = perf_counter()
        times.append(end - start)
        mids.append((start + end) / 2)
    speed.burst()
    gc.collect()
    return built, statistics.median(speed.scale(times, mids))


class Counters:
    """Public counters read around the timed region."""

    def __init__(self, registry, pools):
        self.registry = registry
        self.pools = pools

    def read(self) -> dict:
        out = {"logical_reads": 0, "physical_reads": 0,
               "physical_writes": 0, "evictions": 0}
        for pool in self.pools:
            for key in out:
                out[key] += getattr(pool.stats, key)
        self.registry.collect()
        for name in self.registry.names():
            metric = self.registry.get(name)
            if metric.kind == "counter":
                out[name] = metric.value
            elif metric.kind == "histogram":
                out[name + ":count"] = metric.count
                out[name + ":sum"] = metric.sum
        return out


def sum_by_suffix(delta, suffix):
    return sum(v for k, v in delta.items() if k.endswith(suffix))


# ------------------------------------------------------- closed loop


class ClosedLoop:
    """``resident-mix`` and ``paged-mix``: one StripesIndex, one thread,
    op by op, each op issued when the previous one returns."""

    def __init__(self, name, cfg, inp):
        self.name = name
        self.cfg = cfg
        self.inp = inp

    def build(self):
        from repro import StripesIndex
        from repro.storage.buffer_pool import BufferPool
        from repro.storage.pagefile import InMemoryPageFile

        index = StripesIndex(stripes_config(self.inp),
                             BufferPool(InMemoryPageFile(),
                                        capacity=self.cfg["pool_pages"]))
        index.insert_batch(self.inp.steady)
        return index

    def run(self, index, seconds, speed, recorder=None, min_queries=0):
        """Replay the stream for ``seconds`` (and at least ``count_ops``
        ops and ``min_queries`` queries); returns the raw record."""
        ops = self.inp.ops
        count_ops = self.cfg["count_ops"]
        stride = self.cfg["oracle_stride"]
        stats = index.pool.stats
        q_lat, u_lat, q_at, u_at, ends = [], [], [], [], []
        answers = {}
        io = {"query_logical": 0, "query_physical": 0, "update_io": 0,
              "queries": 0, "updates": 0}
        failures = 0
        n_queries = 0
        pages_at_count = None
        null = contextlib.nullcontext()
        start = perf_counter()
        deadline = start + seconds
        probing = 0.0                    # wall time spent in probe calls
        done = 0
        for i, (kind, payload) in enumerate(ops):
            if i == count_ops:
                pages_at_count = index.pages_in_use()
            # The counted prefix always completes, even past the deadline.
            if i >= count_ops and n_queries >= min_queries \
                    and perf_counter() >= deadline:
                break
            p0 = perf_counter()
            if p0 >= speed.due:
                speed.probe()
                probing += perf_counter() - p0
            counting = i < count_ops
            if kind == UPDATE:
                before = stats.physical_reads + stats.physical_writes
                span = (recorder.operation("bench.update", i)
                        if recorder is not None else null)
                try:
                    with span:
                        t0 = perf_counter()
                        index.update(*payload)
                        t1 = perf_counter()
                    u_lat.append(t1 - t0)
                    u_at.append(t0)
                    ends.append((t1, t1 - probing))
                except Exception:  # noqa: BLE001 - counted as failed
                    failures += 1
                if counting:
                    io["update_io"] += (stats.physical_reads
                                        + stats.physical_writes - before)
                    io["updates"] += 1
            else:
                lr, pr = stats.logical_reads, stats.physical_reads
                span = (recorder.operation("bench.query", i)
                        if recorder is not None else null)
                try:
                    with span:
                        t0 = perf_counter()
                        hits = index.query(payload)
                        t1 = perf_counter()
                    q_lat.append(t1 - t0)
                    q_at.append(t0)
                    ends.append((t1, t1 - probing))
                    if n_queries % stride == 0:
                        answers[i] = set(hits)
                except Exception:  # noqa: BLE001 - counted as failed
                    failures += 1
                n_queries += 1
                if counting:
                    io["query_logical"] += stats.logical_reads - lr
                    io["query_physical"] += stats.physical_reads - pr
                    io["queries"] += 1
            done = i + 1
        # A stream shorter than the run ends the timed region early.
        elapsed = perf_counter() - start
        if pages_at_count is None:
            raise RuntimeError(
                f"{self.name}: the stream is shorter than count_ops "
                f"({count_ops})")
        return {"q_lat": speed.scale(q_lat, q_at),
                "u_lat": speed.scale(u_lat, u_at), "elapsed": elapsed,
                "done": done, "attempted": done, "failures": failures,
                "answers": answers, "io": io, "pages": pages_at_count,
                "queries": len(q_lat), "updates": len(u_lat),
                "ends": speed.timeline(start, ends), "queue_wait": []}

    def oracle(self, index, rec):
        """Replay the executed ops into the scan oracle, compare the
        sampled answers as id sets, and check the index's invariants.
        Returns the number of mismatches plus violations."""
        from repro import ScanIndex

        oracle = ScanIndex(LIFETIME)
        for state in self.inp.steady:
            oracle.insert(state)
        answers = rec["answers"]
        bad = 0
        for i, (kind, payload) in enumerate(self.inp.ops[:rec["done"]]):
            if kind == UPDATE:
                oracle.update(*payload)
            elif i in answers:
                if set(oracle.query(payload)) != answers[i]:
                    bad += 1
        return bad + len(index.check())

    def instruments(self, index):
        from repro import MetricsRegistry

        registry = MetricsRegistry()
        index.attach_metrics(registry)
        return Counters(registry, [index.pool])


# ------------------------------------------------------- service loop


class _Service:
    """A started StripesService over a freshly loaded ShardedStripes."""

    def __init__(self, inp, pool_pages, workers):
        from repro import ServiceConfig, ShardedStripes, StripesService

        self.sharded = ShardedStripes(stripes_config(inp),
                                      pool_pages=pool_pages)
        self.sharded.insert_batch(inp.steady)
        self.service = StripesService(
            self.sharded, ServiceConfig(workers=workers)).start()
        # The first query builds every shard's columnar mirror; that lazy
        # part of loading belongs to set-up, not to the first requests.
        self.service.query(next(p for k, p in inp.ops if k == QUERY))

    def release(self):
        self.service.close()


def service_rounds(ops, group):
    """The stream as ``(updates, [(i, query), ...])`` rounds: each round
    holds the next ``group`` queries and the updates the stream puts
    before the last of them.  Updates after the last full round are
    dropped."""
    updates, queries = [], []
    for i, (kind, payload) in enumerate(ops):
        if kind == UPDATE:
            updates.append(payload)
        else:
            queries.append((i, payload))
            if len(queries) == group:
                yield updates, queries
                updates, queries = [], []


class ServiceLoop:
    """``service-mixed``: one client thread, closed loop in rounds.  A
    round applies its updates with one ShardedStripes.update_batch, then
    submits its queries to StripesService.submit together and waits for
    every answer before the next round starts.  The service runs
    ``workers`` worker threads."""

    def __init__(self, name, cfg, inp):
        self.name = name
        self.cfg = cfg
        self.inp = inp
        self.rounds = list(service_rounds(inp.ops, cfg["group"]))

    def build(self):
        return _Service(self.inp, self.cfg["pool_pages"],
                        self.cfg["workers"])

    def run(self, svc, seconds, speed, recorder=None, min_queries=0):
        """Run rounds for ``seconds`` (and ``min_queries`` queries);
        returns the raw record."""
        stride = self.cfg["oracle_stride"]
        sharded, service = svc.sharded, svc.service
        q_lat, u_lat, q_at, u_at, ends, waits = [], [], [], [], [], []
        answers = {}
        batch_s = {}
        failures = attempted = n_rounds = 0
        null = contextlib.nullcontext()

        if recorder is not None:
            # Which query_batch call carried each request, so queue wait
            # is the request's latency minus that call.
            request_of = {}
            query_batch = sharded.query_batch

            def carried(batch):
                start = perf_counter()
                try:
                    with recorder.operation(
                            "bench.query", request_of.get(id(batch[0]), -1)):
                        return query_batch(batch)
                finally:
                    took = perf_counter() - start
                    for q in batch:
                        batch_s[request_of.get(id(q))] = took

            sharded.query_batch = carried

        start = perf_counter()
        deadline = start + seconds
        probing = 0.0                    # wall time spent in probe calls
        try:
            for updates, queries in self.rounds:
                if len(q_lat) >= min_queries and perf_counter() >= deadline:
                    break
                p0 = perf_counter()
                if p0 >= speed.due:
                    speed.probe()
                    probing += perf_counter() - p0
                n_rounds += 1
                attempted += len(updates) + len(queries)
                if updates:
                    span = (recorder.operation("bench.update", queries[0][0])
                            if recorder is not None else null)
                    try:
                        with span:
                            t0 = perf_counter()
                            sharded.update_batch(updates)
                            t1 = perf_counter()
                    except Exception:  # noqa: BLE001 - counted as failed
                        failures += len(updates)
                    else:
                        u_lat.extend([t1 - t0] * len(updates))
                        u_at.extend([t0] * len(updates))
                        ends.extend([(t1, t1 - probing)] * len(updates))
                if recorder is not None:
                    request_of = {id(q): i for i, q in queries}
                futures = []
                t0 = perf_counter()
                for i, query in queries:
                    try:
                        futures.append((i, service.submit(query)))
                    except Exception:  # noqa: BLE001 - Overloaded, counted
                        failures += 1
                for i, future in futures:
                    try:
                        hits = future.result(timeout=60)
                    except Exception:  # noqa: BLE001 - counted as failed
                        failures += 1
                        continue
                    t1 = perf_counter()
                    q_lat.append(t1 - t0)
                    q_at.append(t0)
                    ends.append((t1, t1 - probing))
                    waits.append(t1 - t0 - batch_s.pop(i, 0.0))
                    if len(q_lat) % stride == 0:
                        answers[i] = set(hits)
        finally:
            if recorder is not None:
                del sharded.query_batch
        return {"q_lat": speed.scale(q_lat, q_at),
                "u_lat": speed.scale(u_lat, u_at),
                "elapsed": perf_counter() - start,
                "ends": speed.timeline(start, ends), "attempted": attempted,
                "failures": failures, "answers": answers,
                "rounds": n_rounds, "pages": sharded.pages_in_use(),
                "queries": len(q_lat), "updates": len(u_lat),
                "queue_wait": waits, "io": None}

    def oracle(self, svc, rec):
        """Quiesce, replay the executed rounds into the scan oracle,
        compare the sampled answers as id sets, and check every shard's
        invariants."""
        from repro import ScanIndex

        svc.service.close()
        oracle = ScanIndex(LIFETIME)
        for state in self.inp.steady:
            oracle.insert(state)
        answers = rec["answers"]
        bad = 0
        for updates, queries in self.rounds[:rec["rounds"]]:
            for old, new in updates:
                oracle.update(old, new)
            for i, query in queries:
                if i in answers and set(oracle.query(query)) != answers[i]:
                    bad += 1
        for shard in svc.sharded.shards:
            bad += len(shard.index.check())
        return bad

    def instruments(self, svc):
        from repro import MetricsRegistry

        registry = MetricsRegistry()
        for shard in svc.sharded.shards:
            shard.index.attach_metrics(registry, prefix=f"shard{shard.sid}")
        svc.service.attach_metrics(registry)
        return Counters(registry, [s.index.pool for s in svc.sharded.shards])


# ------------------------------------------------------------ metrics


def ops_per_s(rec, chunks=25):
    """Median rate over ``chunks`` equal runs of consecutive completions:
    a stretch in which the host stalls the process moves it less than
    it moves the mean rate."""
    ends = sorted(rec["ends"])
    size = len(ends) // chunks
    if size < 2:
        return len(ends) / rec["elapsed"]
    rates = [size / (ends[(j + 1) * size - 1]
                     - (ends[j * size - 1] if j else 0.0))
             for j in range(chunks)]
    return statistics.median(rates)


def end_to_end(rec, setup_s, peak_mb):
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(rec),
        "query_p50_ms": percentile_ms(rec["q_lat"], 50),
        "query_p95_ms": percentile_ms(rec["q_lat"], 95),
        "update_p50_ms": percentile_ms(rec["u_lat"], 50),
        "update_p95_ms": percentile_ms(rec["u_lat"], 95),
        "pages_in_use": float(rec["pages"]),
        "peak_rss_mb": peak_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(rec, totals, delta, recorder, setup_totals, overhead_frac):
    """The per-layer metrics of one traced run (see README.md)."""
    q = max(1, rec["queries"])
    u = max(1, rec["updates"])
    ops = q + u
    ms = 1e-6

    def incl(layer):
        return totals[layer]["ns"] * ms

    io = rec["io"]
    if io is not None:
        # Closed loop: pool traffic attributed to each op, over the
        # fixed first count_ops ops, so the counts repeat exactly.
        logical = io["query_logical"] / max(1, io["queries"])
        physical = io["query_physical"] / max(1, io["queries"])
        update_io = io["update_io"] / max(1, io["updates"])
    else:
        # The service's workers read while the client waits, so the
        # pool's traffic is not split between queries and updates: all
        # of it, per query and per update.
        logical = delta["logical_reads"] / q
        physical = delta["physical_reads"] / q
        update_io = (delta["physical_reads"]
                     + delta["physical_writes"]) / u
    refine_rows = totals["query.predicates.refine"]["rows"]
    hits = sum_by_suffix(delta, "node_cache_decoded_hits_total")
    misses = sum_by_suffix(delta, "node_cache_decoded_misses_total")
    batches = delta.get("service_batch_size:count", 0)
    waits = rec["queue_wait"]
    qb = totals["service.sharding.query_batch"]
    ub = totals["service.sharding.update_batch"]
    values = {
        "core.query_region.build_ms": incl("core.query_region.build") / q,
        "core.query_region.classify_calls":
            totals["core.query_region.classify"]["calls"] / q,
        "core.query_region.classify_ms":
            incl("core.query_region.classify") / q,
        "core.query_region.contains_rows":
            totals["core.query_region.contains"]["rows"] / q,
        "core.query_region.contains_ms":
            incl("core.query_region.contains") / q,
        "core.quadtree.search_ms": incl("core.quadtree.search") / q,
        "core.quadtree.search_self_ms":
            totals["core.quadtree.search"]["self_ns"] * ms / q,
        "core.quadtree.candidates":
            totals["core.quadtree.search"]["rows"] / q,
        "core.quadtree.insert_ms": incl("core.quadtree.insert") / u,
        "core.quadtree.delete_ms": incl("core.quadtree.delete") / u,
        "core.quadtree.leaf_splits":
            sum_by_suffix(delta, "_leaf_splits_total") / u,
        "core.quadtree.collapses":
            sum_by_suffix(delta, "_collapses_total") / u,
        "core.dual.to_dual_ms": incl("core.dual.to_dual") / u,
        "core.dual.to_dual_batch_ms": incl("core.dual.to_dual_batch") / u,
        "core.dual.setup_to_dual_batch_ms":
            setup_totals["core.dual.to_dual_batch"]["ns"] * ms,
        "core.stripes.query_self_ms":
            totals["core.stripes.query"]["self_ns"] * ms / q,
        "core.stripes.update_self_ms":
            totals["core.stripes.update"]["self_ns"] * ms / u,
        "query.predicates.refine_ms": incl("query.predicates.refine") / q,
        "query.predicates.refine_candidates": refine_rows / q,
        "query.predicates.refine_yield":
            (totals["query.predicates.refine"]["hits"] / refine_rows
             if refine_rows else 0.0),
        "storage.buffer_pool.logical_reads": logical,
        "storage.buffer_pool.physical_reads": physical,
        "storage.buffer_pool.update_physical_io": update_io,
        "storage.buffer_pool.physical_writes":
            delta["physical_writes"] / ops,
        "storage.buffer_pool.evictions": delta["evictions"] / ops,
        "storage.buffer_pool.hit_rate":
            (1.0 - delta["physical_reads"] / delta["logical_reads"]
             if delta["logical_reads"] else 1.0),
        "storage.node_store.cache_hit_rate":
            hits / (hits + misses) if hits + misses else 1.0,
        "storage.node_store.read_ms": incl("storage.node_store.read") / ops,
        "storage.node_store.write_ms":
            incl("storage.node_store.write") / ops,
        "storage.pagefile.read_ms": incl("storage.pagefile.read") / ops,
        "storage.pagefile.write_ms": incl("storage.pagefile.write") / ops,
        "service.service.queue_wait_p50_ms": percentile_ms(waits, 50),
        "service.service.queue_wait_p99_ms": percentile_ms(waits, 99),
        "service.service.batch_size":
            (delta.get("service_batch_size:sum", 0.0) / batches
             if batches else 0.0),
        "service.service.rejected": delta.get("service_rejected_total", 0),
        "service.sharding.query_batch_ms":
            qb["ns"] * ms / qb["calls"] if qb["calls"] else 0.0,
        "service.sharding.update_batch_ms":
            ub["ns"] * ms / ub["calls"] if ub["calls"] else 0.0,
        "service.engine.window_columns_ms":
            incl("service.engine.window_columns") / q,
        "service.engine.evaluate_batch_ms":
            incl("service.engine.evaluate_batch") / q,
        "runtime.gc_gen2_count": recorder.gc_gen2,
        "runtime.gc_pause_ms": recorder.gc_pause_ns * ms,
        "tracing.overhead_frac": overhead_frac,
    }
    return {k: {"value": float(v), "unit": PER_LAYER[k]}
            for k, v in values.items()}




# ---------------------------------------------------------------- run


def run(name, seed, seconds, trace, src, workdir, spans_out=None,
        cfg=None):
    """One benchmark run; returns the result object ``run.py`` prints.
    ``cfg`` replaces the workload's ``workloads.json`` entry."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    cfg = WORKLOADS[name] if cfg is None else cfg
    inp = make_inputs(cfg, seed, src, workdir)
    load = (ServiceLoop if "group" in cfg else ClosedLoop)(name, cfg, inp)
    reps = cfg["setup_reps"]
    speed = hostspeed.SpeedLog(cfg["host_sensitivity"])
    if not trace:
        built, setup_s = timed_setups(load.build, reps, speed)
        rec = load.run(built, seconds, speed, min_queries=MIN_QUERIES)
        peak_mb = peak_rss_mb()
        bad = load.oracle(built, rec)
        metrics = end_to_end(rec, setup_s, peak_mb)
    else:
        # Untraced half first, then the same stream from a fresh set-up
        # under tracing: the ratio of the two rates is the overhead.
        built, _ = timed_setups(load.build, 1, speed)
        plain = load.run(built, seconds / 2, speed)
        release = getattr(built, "release", None)
        if release is not None:
            release()
        del built
        gc.collect()
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            setup_begin = recorder.mark()
            built, _ = timed_setups(load.build, 1, speed)
            setup_totals = spans.layer_totals(
                recorder.table(setup_begin, recorder.mark()))
            counters = load.instruments(built)
            before = counters.read()
            recorder.gc_pause_ns = recorder.gc_gen2 = 0
            run_begin = recorder.mark()
            rec = load.run(built, seconds / 2, speed, recorder)
            run_end = recorder.mark()
            after = counters.read()
        finally:
            recorder.uninstall()
        table = recorder.table(run_begin, run_end)
        totals = spans.layer_totals(table)
        delta = {k: after[k] - before.get(k, 0) for k in after}
        metrics = per_layer(rec, totals, delta, recorder, setup_totals,
                            1.0 - ops_per_s(rec) / ops_per_s(plain))
        bad = load.oracle(built, rec) + spans.nesting_violations(table)
        if spans_out is not None:
            recorder.save(spans_out)
    failed = rec["failures"] + bad
    return {"correct": failed == 0, "attempted": rec["attempted"],
            "failed": failed, "metrics": metrics}
