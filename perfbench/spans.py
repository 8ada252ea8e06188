"""Spans recorded around calls into the program's public functions.

:class:`SpanRecorder` replaces each listed function or method with a
wrapper for as long as it is installed, and restores the originals on
``uninstall``.  Nothing inside the program changes: a span covers one
call into a layer, and the layer boundaries are the public functions
named in :data:`LAYER_FUNCTIONS`.

Each span is one row of ``(layer, start_ns, end_ns, parent, request,
self_ns, outer, rows, hits)`` kept in memory and written out by :meth:`save`.
``parent`` is the enclosing span on the same thread (-1 at the top);
``request`` is the operation the thread was serving when the span began.
Self time is the span's duration minus the time its child spans cover;
children on one thread never overlap, so that is the duration minus the
sum of the children's durations.  ``outer`` is 0 when a span of the same
layer encloses it, so inclusive totals count each call tree once.
``rows`` and ``hits`` are per-layer work counts (rows tested,
candidates returned, refinement survivors).
"""

from __future__ import annotations

import functools
import gc
import itertools
import threading
from array import array
from time import perf_counter_ns

import numpy as np

#: layer -> [(module, owner, attribute, row counter)].  ``owner`` is a
#: class name, or None for a module-level function, patched in the module
#: that calls it (which imported it by name); the row counter maps
#: ``(args, result)`` to the ``(rows, hits)`` work counts stored with the
#: span.
LAYER_FUNCTIONS = {
    "core.query_region.build": [
        ("repro.core.stripes", None, "build_query_regions", None)],
    "core.query_region.classify": [
        ("repro.core.query_region", "QueryRegion2D", "classify_quads",
         None)],
    "core.query_region.contains": [
        ("repro.core.query_region", "QueryRegion2D", "contains_batch",
         lambda args, result: (len(result), 0))],
    "core.quadtree.search": [
        ("repro.core.quadtree", "DualQuadTree", "search_columns",
         lambda args, result: (len(result[0]), 0))],
    "core.quadtree.insert": [
        ("repro.core.quadtree", "DualQuadTree", "insert", None),
        ("repro.core.quadtree", "DualQuadTree", "insert_batch", None)],
    "core.quadtree.delete": [
        ("repro.core.quadtree", "DualQuadTree", "delete", None),
        ("repro.core.quadtree", "DualQuadTree", "delete_batch", None)],
    "core.dual.to_dual": [
        ("repro.core.dual", "DualSpace", "to_dual", None)],
    "core.dual.to_dual_batch": [
        ("repro.core.dual", "DualSpace", "to_dual_batch", None)],
    "core.stripes.query": [
        ("repro.core.stripes", "StripesIndex", "query", None),
        ("repro.core.stripes", "StripesIndex", "query_batch", None)],
    "core.stripes.update": [
        ("repro.core.stripes", "StripesIndex", "update", None),
        ("repro.core.stripes", "StripesIndex", "insert", None),
        ("repro.core.stripes", "StripesIndex", "delete", None),
        ("repro.core.stripes", "StripesIndex", "insert_batch", None),
        ("repro.core.stripes", "StripesIndex", "delete_batch", None)],
    "query.predicates.refine": [
        ("repro.query.predicates", "MovingQueryEvaluator", "matches_batch",
         lambda args, result: (len(result), int(np.count_nonzero(result))))],
    "storage.node_store.read": [
        ("repro.storage.node_store", "NodeCache", "get", None),
        ("repro.storage.node_store", "RecordStore", "read", None)],
    "storage.node_store.write": [
        ("repro.storage.node_store", "RecordStore", "write", None),
        ("repro.storage.node_store", "RecordStore", "write_many", None)],
    "storage.pagefile.read": [
        ("repro.storage.pagefile", "PageFile", "read", None)],
    "storage.pagefile.write": [
        ("repro.storage.pagefile", "PageFile", "write", None)],
    "service.sharding.query_batch": [
        ("repro.service.sharding", "ShardedStripes", "query_batch", None)],
    "service.sharding.update_batch": [
        ("repro.service.sharding", "ShardedStripes", "update_batch", None)],
    "service.engine.window_columns": [
        ("repro.service.engine", "ShardMirror", "window_columns", None)],
    "service.engine.evaluate_batch": [
        ("repro.service.sharding", None, "evaluate_batch", None)],
}

#: Spans the benchmark opens itself, one per operation it issues.
BENCH_LAYERS = ("bench.query", "bench.update")

LAYERS = tuple(LAYER_FUNCTIONS) + BENCH_LAYERS

_COLUMNS = ("layer", "start_ns", "end_ns", "parent", "request", "self_ns",
            "outer", "rows", "hits")


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []          # open span ids, innermost last
        self.child_ns = []       # child time accumulated per open span
        self.depth = [0] * len(LAYERS)
        self.request = -1


class SpanRecorder:
    """Wraps the layer functions and keeps every span in memory."""

    def __init__(self):
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._next_id = itertools.count()
        self._columns = {name: array("q") for name in _COLUMNS}
        self._ids = array("q")
        self._patched = []
        self._gc_start = 0
        #: Collector pauses, in ns, and how many were full (gen-2) runs.
        self.gc_pause_ns = 0
        self.gc_gen2 = 0

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import importlib

        for layer, targets in LAYER_FUNCTIONS.items():
            layer_id = LAYERS.index(layer)
            for module_name, owner_name, attr, counter in targets:
                module = importlib.import_module(module_name)
                owner = (module if owner_name is None
                         else getattr(module, owner_name))
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, layer_id, counter))
                self._patched.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_pause_ns += perf_counter_ns() - self._gc_start
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -------------------------------------------------------------- spans

    def _open(self, layer_id: int):
        local = self._local
        span_id = next(self._next_id)
        parent = local.stack[-1] if local.stack else -1
        local.stack.append(span_id)
        local.child_ns.append(0)
        outer = local.depth[layer_id] == 0
        local.depth[layer_id] += 1
        return local, span_id, parent, outer

    def _close(self, local, layer_id, span_id, parent, outer, start, end,
               rows=0, hits=0):
        local.stack.pop()
        children = local.child_ns.pop()
        local.depth[layer_id] -= 1
        duration = end - start
        if local.child_ns:
            local.child_ns[-1] += duration
        cols = self._columns
        with self._lock:
            self._ids.append(span_id)
            cols["layer"].append(layer_id)
            cols["start_ns"].append(start)
            cols["end_ns"].append(end)
            cols["parent"].append(parent)
            cols["request"].append(local.request)
            cols["self_ns"].append(duration - children)
            cols["outer"].append(1 if outer else 0)
            cols["rows"].append(rows)
            cols["hits"].append(hits)

    def _wrap(self, fn, layer_id, counter):
        recorder = self

        def traced(*args, **kwargs):
            local, span_id, parent, outer = recorder._open(layer_id)
            start = perf_counter_ns()
            rows = hits = 0
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    rows, hits = counter(args, result)
                return result
            finally:
                recorder._close(local, layer_id, span_id, parent, outer,
                                start, perf_counter_ns(), rows, hits)

        return functools.wraps(fn)(traced)

    def operation(self, layer: str, request: int):
        """Context manager for one benchmark-issued operation: a root span
        of ``layer`` whose descendants carry ``request``."""
        return _Operation(self, LAYERS.index(layer), request)

    def mark(self) -> int:
        """Number of spans closed so far; bounds a phase of the run."""
        with self._lock:
            return len(self._ids)

    def table(self, begin: int = 0, end=None) -> dict:
        """Closed spans ``[begin, end)`` as numpy columns (plus ``id``)."""
        with self._lock:
            stop = len(self._ids) if end is None else end
            out = {name: np.frombuffer(col, dtype=np.int64)[begin:stop].copy()
                   for name, col in self._columns.items()}
            out["id"] = np.frombuffer(self._ids,
                                      dtype=np.int64)[begin:stop].copy()
        return out

    def save(self, path) -> None:
        """Write every span, with the layer-name table, to ``path`` (npz)."""
        table = self.table()
        with open(path, "wb") as fh:
            np.savez(fh, layers=np.array(LAYERS), **table)


class _Operation:
    __slots__ = ("recorder", "layer_id", "request", "state")

    def __init__(self, recorder, layer_id, request):
        self.recorder = recorder
        self.layer_id = layer_id
        self.request = request

    def __enter__(self):
        recorder = self.recorder
        local, span_id, parent, outer = recorder._open(self.layer_id)
        local.request = self.request
        self.state = (local, span_id, parent, outer, perf_counter_ns())
        return self

    def __exit__(self, *exc_info):
        local, span_id, parent, outer, start = self.state
        self.recorder._close(local, self.layer_id, span_id, parent, outer,
                             start, perf_counter_ns())
        local.request = -1


def layer_totals(table: dict) -> dict:
    """Per layer: ``calls``, inclusive ``ns`` (outermost spans only),
    ``self_ns``, ``rows`` and ``hits``, over the spans in ``table``."""
    n = len(LAYERS)
    layer = table["layer"]
    outer = table["outer"].astype(bool)
    duration = table["end_ns"] - table["start_ns"]
    calls = np.bincount(layer, minlength=n)
    inclusive = np.bincount(layer[outer], weights=duration[outer],
                            minlength=n)
    self_ns = np.bincount(layer, weights=table["self_ns"], minlength=n)
    rows = np.bincount(layer, weights=table["rows"], minlength=n)
    hits = np.bincount(layer, weights=table["hits"], minlength=n)
    return {name: {"calls": int(calls[i]), "ns": float(inclusive[i]),
                   "self_ns": float(self_ns[i]), "rows": float(rows[i]),
                   "hits": float(hits[i])}
            for i, name in enumerate(LAYERS)}


def nesting_violations(table: dict) -> int:
    """Spans with negative self time, or whose self time or interval is
    not inside their parent's -- impossible for correctly nested spans.
    Parents outside ``table`` are not checked."""
    ids = table["id"]
    start, end = table["start_ns"], table["end_ns"]
    bad = int(np.count_nonzero(table["self_ns"] < 0))
    child = np.nonzero(table["parent"] >= 0)[0]
    order = np.argsort(ids)
    pos = np.minimum(np.searchsorted(ids[order], table["parent"][child]),
                     len(ids) - 1)
    found = ids[order][pos] == table["parent"][child]
    child = child[found]
    parent = order[pos[found]]
    bad += int(np.count_nonzero(
        (table["self_ns"][child] > end[parent] - start[parent])
        | (start[child] < start[parent]) | (end[child] > end[parent])))
    return bad
