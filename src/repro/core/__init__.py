"""STRIPES core: dual transform, dual-space query regions, the disk-based
bucket PR quadtree, and the two-index STRIPES front end.

Public entry point: :class:`repro.core.stripes.StripesIndex`.
"""

from repro.core.dual import DualSpace, DualPoint
from repro.core.query_region import QueryRegion2D, RelPos
from repro.core.quadtree import (DualQuadTree, PAPER_LEAF_LADDER,
                                 QuadTreeConfig)
from repro.core.stripes import StripesConfig, StripesIndex

__all__ = [
    "DualSpace",
    "DualPoint",
    "QueryRegion2D",
    "RelPos",
    "DualQuadTree",
    "QuadTreeConfig",
    "PAPER_LEAF_LADDER",
    "StripesConfig",
    "StripesIndex",
]
