"""The concurrent STRIPES query service (docs/SERVICE.md).

Turns the single-threaded library into a sharded, concurrent service:

* :class:`repro.service.sharding.ShardedStripes` -- N independent
  :class:`repro.core.stripes.StripesIndex` shards (private pagefile +
  buffer pool each), placed by a hash of the object id
  (:func:`repro.service.sharding.shard_of`), with per-shard
  reader/writer locks and fan-out query + merge.
* :class:`repro.service.service.StripesService` -- a worker thread pool
  behind a bounded request queue with micro-batching (concurrent queries
  coalesce into one vectorized ``query_batch`` per shard), explicit
  ``Overloaded`` rejection, per-request deadlines, and graceful drain.
* :class:`repro.service.client.ServiceClient` /
  :class:`repro.service.client.LoadDriver` -- the synchronous handle and
  a closed-loop load generator (throughput, exact latency percentiles,
  rejections) for tests and ad-hoc load runs; ``perfbench/`` is the
  benchmark.
"""

from repro.service.client import LoadDriver, LoadReport, ServiceClient
from repro.service.engine import CompiledBatch, ShardMirror, evaluate_batch
from repro.service.service import (
    Overloaded,
    RequestTimeout,
    ServiceClosed,
    ServiceConfig,
    StripesService,
)
from repro.service.sharding import RWLock, ShardedStripes, shard_of

__all__ = [
    "ShardedStripes",
    "shard_of",
    "RWLock",
    "StripesService",
    "ServiceConfig",
    "Overloaded",
    "RequestTimeout",
    "ServiceClosed",
    "ServiceClient",
    "LoadDriver",
    "LoadReport",
    "CompiledBatch",
    "ShardMirror",
    "evaluate_batch",
]
