"""STRIPES reproduction: predicted-trajectory indexing (SIGMOD 2004).

This package reproduces *STRIPES: An Efficient Index for Predicted
Trajectories* (Patel, Chen & Chakka, SIGMOD 2004) as a complete Python
library:

* :class:`repro.StripesIndex` -- the paper's contribution: a dual-space
  quadtree index over predicted trajectories.
* :class:`repro.tpr.TPRTree` / :class:`repro.tpr.TPRStarTree` -- the
  baselines it is evaluated against.
* :mod:`repro.workload` -- a reimplementation of the Saltenis et al.
  moving-object workload generator used by the paper.
* :mod:`repro.bench` -- the harness that regenerates every figure of the
  paper's evaluation section.

Quickstart::

    from repro import MovingObjectState, StripesConfig, StripesIndex
    from repro.query import TimeSliceQuery

    index = StripesIndex(StripesConfig(vmax=(3.0, 3.0),
                                       pmax=(1000.0, 1000.0),
                                       lifetime=120.0))
    index.insert(MovingObjectState(oid=1, pos=(100.0, 200.0),
                                   vel=(1.5, -2.0), t=0.0))
    print(index.query(TimeSliceQuery((0.0, 0.0), (500.0, 500.0), t=60.0)))
"""

from repro.baselines.scan import ScanIndex
from repro.core.persistence import load_index, save_index
from repro.core.quadtree import PAPER_LEAF_LADDER, QuadTreeConfig
from repro.core.stripes import StripesConfig, StripesIndex
from repro.extensions import distance_join, knn
from repro.obs import MetricsRegistry, QueryExplain, Tracer
from repro.query.types import (
    MovingObjectState,
    MovingQuery,
    TimeSliceQuery,
    WindowQuery,
)
from repro.service import ServiceConfig, ShardedStripes, StripesService

__version__ = "1.0.0"

__all__ = [
    "MovingObjectState",
    "TimeSliceQuery",
    "WindowQuery",
    "MovingQuery",
    "StripesConfig",
    "StripesIndex",
    "QuadTreeConfig",
    "PAPER_LEAF_LADDER",
    "ScanIndex",
    "knn",
    "distance_join",
    "MetricsRegistry",
    "Tracer",
    "QueryExplain",
    "ShardedStripes",
    "StripesService",
    "ServiceConfig",
    "save_index",
    "load_index",
    "__version__",
]
