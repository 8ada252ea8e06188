"""In-process client and closed-loop load driver for the query service.

:class:`ServiceClient` is the thin synchronous handle callers hold; it
exists so application code talks to an interface, not to the service's
queue internals (a remote transport would slot in behind the same
surface).

:class:`LoadDriver` is the measurement companion: ``n_threads`` closed-
loop clients (each issues a query, waits for the result, immediately
issues the next -- classic closed-loop load generation) hammer the
service for a fixed number of requests per thread, recording per-request
latencies.  The resulting :class:`LoadReport` carries throughput and
exact p50/p95/p99 latencies (computed from the raw sample list, not a
histogram) plus rejection/timeout counts.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.query.types import PredictiveQuery
from repro.service.service import (
    Overloaded,
    RequestTimeout,
    ServiceClosed,
    StripesService,
)

__all__ = ["ServiceClient", "LoadDriver", "LoadReport"]


class ServiceClient:
    """Synchronous in-process client for a :class:`StripesService`."""

    def __init__(self, service: StripesService):
        self._service = service

    def query(self, query: PredictiveQuery,
              timeout_s: Optional[float] = None) -> List[int]:
        """Evaluate ``query``; raises ``Overloaded`` / ``RequestTimeout``
        / ``ServiceClosed`` exactly as the service signals them."""
        return self._service.query(query, timeout_s=timeout_s)


def _exact_percentile(sorted_samples: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample list."""
    if not sorted_samples:
        return 0.0
    rank = min(len(sorted_samples) - 1,
               max(0, int(q * len(sorted_samples) + 0.5) - 1))
    return sorted_samples[rank]


@dataclass
class LoadReport:
    """Outcome of one closed-loop load run."""

    threads: int = 0
    offered: int = 0
    completed: int = 0
    rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    duration_s: float = 0.0
    throughput_qps: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0


@dataclass
class _ThreadStats:
    latencies_s: List[float] = field(default_factory=list)
    rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    issued: int = 0


class LoadDriver:
    """Closed-loop multi-threaded load against a :class:`StripesService`.

    Each thread walks the shared query list round-robin from its own
    offset, so all queries are exercised regardless of thread count and
    two threads never need coordination.  ``backoff_s`` is slept after an
    ``Overloaded`` rejection before retrying with the *next* query --
    rejected work is counted, not resubmitted, keeping the loop honest
    about admission control.
    """

    def __init__(self, service: StripesService,
                 queries: Sequence[PredictiveQuery],
                 n_threads: int = 4,
                 requests_per_thread: int = 200,
                 timeout_s: Optional[float] = None,
                 backoff_s: float = 0.0):
        if not queries:
            raise ValueError("LoadDriver needs at least one query")
        if n_threads <= 0:
            raise ValueError("n_threads must be positive")
        self._service = service
        self._queries = list(queries)
        self.n_threads = n_threads
        self.requests_per_thread = requests_per_thread
        self.timeout_s = timeout_s
        self.backoff_s = backoff_s

    def _client_loop(self, offset: int, stats: _ThreadStats,
                     start_gate: threading.Event) -> None:
        client = ServiceClient(self._service)
        queries = self._queries
        n = len(queries)
        start_gate.wait()
        for k in range(self.requests_per_thread):
            query = queries[(offset + k) % n]
            stats.issued += 1
            t0 = time.perf_counter()
            try:
                client.query(query, timeout_s=self.timeout_s)
            except Overloaded:
                stats.rejected += 1
                if self.backoff_s:
                    time.sleep(self.backoff_s)
                continue
            except RequestTimeout:
                stats.timeouts += 1
                continue
            except ServiceClosed:
                break
            except Exception:  # noqa: BLE001 - counted, run continues
                stats.errors += 1
                continue
            stats.latencies_s.append(time.perf_counter() - t0)

    def run(self) -> LoadReport:
        """Drive the load and aggregate a :class:`LoadReport`."""
        per_thread = [_ThreadStats() for _ in range(self.n_threads)]
        start_gate = threading.Event()
        stride = max(1, len(self._queries) // self.n_threads)
        threads = [
            threading.Thread(target=self._client_loop,
                             args=(i * stride, per_thread[i], start_gate),
                             name=f"load-client-{i}", daemon=True)
            for i in range(self.n_threads)
        ]
        for thread in threads:
            thread.start()
        t0 = time.perf_counter()
        start_gate.set()
        for thread in threads:
            thread.join()
        duration = time.perf_counter() - t0

        latencies = sorted(s for stats in per_thread
                           for s in stats.latencies_s)
        completed = len(latencies)
        report = LoadReport(
            threads=self.n_threads,
            offered=sum(s.issued for s in per_thread),
            completed=completed,
            rejected=sum(s.rejected for s in per_thread),
            timeouts=sum(s.timeouts for s in per_thread),
            errors=sum(s.errors for s in per_thread),
            duration_s=duration,
            throughput_qps=completed / duration if duration > 0 else 0.0,
            p50_ms=_exact_percentile(latencies, 0.50) * 1e3,
            p95_ms=_exact_percentile(latencies, 0.95) * 1e3,
            p99_ms=_exact_percentile(latencies, 0.99) * 1e3,
            mean_ms=(sum(latencies) / completed * 1e3) if completed else 0.0,
        )
        return report
