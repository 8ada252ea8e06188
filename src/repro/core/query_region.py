"""Dual-space query regions and the RelativePosition test (Section 4.6).

A predictive query over ``d``-dimensional space induces one two-dimensional
*query region* per dual plane ``(V_i, P_i)``.  In plane ``i`` the region is
the set of dual points whose trajectories cross the query's position
corridor ``[ql_i(t), qh_i(t)]`` at some ``t`` in ``[t_low, t_high]``.

For a linear trajectory that condition is equivalent to::

    exists t: p(t) >= ql(t)     and     exists t: p(t) <= qh(t)

(the two one-sided conditions always share a common instant because the
corridor has non-negative width -- an object that is above the corridor at
``t_low`` and below it at ``t_high`` must pass through it).  Each one-sided
condition is, in dual coordinates, the complement of being strictly beyond
*both* of two boundary lines:

* lower lines: trajectory position equals ``low1`` at ``t_low`` / ``low2``
  at ``t_high``; the region's lower boundary is their pointwise **min** --
  the concave polyline ``L1-L2-L3`` of Figure 6;
* upper lines: position equals ``high1`` at ``t_low`` / ``high2`` at
  ``t_high``; the upper boundary is their pointwise **max** -- the convex
  polyline ``U1-U2-U3``.

For a time-slice query both lines of each pair coincide and the region
degenerates to a parallelogram, exactly as Figure 4 shows.

:meth:`QueryRegion2D.classify_rect` is the paper's ``RelativePosition``
algorithm (Figure 7) generalised to arbitrary slopes: INSIDE / DISJUNCT
answers are exact, so INSIDE sub-trees are reported without per-entry
geometry tests and DISJUNCT sub-trees are pruned.

The hot paths (``contains_point``, ``classify_rect``) are deliberately
written against plain float attributes -- they run once per leaf entry /
node quad and dominate query CPU time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.query.types import MovingQuery


class RelPos(enum.Enum):
    """Relative position of a data rectangle and a query region."""

    INSIDE = "inside"
    OVERLAP = "overlap"
    DISJUNCT = "disjunct"


@dataclass(frozen=True)
class Line:
    """A boundary line ``P = intercept + slope * V`` in one dual plane."""

    slope: float
    intercept: float

    def at(self, v: float) -> float:
        return self.intercept + self.slope * v

    def intersection_v(self, other: "Line") -> Optional[float]:
        """V coordinate where the two lines cross; ``None`` if parallel."""
        dslope = self.slope - other.slope
        if dslope == 0.0:
            return None
        return (other.intercept - self.intercept) / dslope


def _boundary_line(bound: float, when: float, t_ref: float, vmax: float,
                   lifetime: float) -> Line:
    """Dual-plane line of trajectories whose position equals ``bound`` at
    time ``when``:  ``P = bound - (V - vmax)(when - t_ref) + vmax L``."""
    slope = -(when - t_ref)
    intercept = bound + vmax * (when - t_ref) + vmax * lifetime
    return Line(slope, intercept)


class QueryRegion2D:
    """The query region in one dual plane, bounded below by ``min`` of two
    lines and above by ``max`` of two lines."""

    __slots__ = ("la_s", "la_i", "lb_s", "lb_i", "ua_s", "ua_i",
                 "ub_s", "ub_i", "_lower_break", "_upper_break",
                 "_lower_break_p", "_upper_break_p")

    def __init__(self, lower_a: Line, lower_b: Line,
                 upper_a: Line, upper_b: Line):
        # Flattened coefficients for the hot paths.
        self.la_s, self.la_i = lower_a.slope, lower_a.intercept
        self.lb_s, self.lb_i = lower_b.slope, lower_b.intercept
        self.ua_s, self.ua_i = upper_a.slope, upper_a.intercept
        self.ub_s, self.ub_i = upper_b.slope, upper_b.intercept
        self._lower_break = lower_a.intersection_v(lower_b)
        self._upper_break = upper_a.intersection_v(upper_b)
        # Boundary values at the breakpoints, evaluated once: every
        # classify call against this region reuses them.
        self._lower_break_p = (self.lower_at(self._lower_break)
                               if self._lower_break is not None else 0.0)
        self._upper_break_p = (self.upper_at(self._upper_break)
                               if self._upper_break is not None else 0.0)

    @classmethod
    def from_query_plane(cls, query: MovingQuery, plane: int, vmax: float,
                         lifetime: float, t_ref: float) -> "QueryRegion2D":
        """Build the region for dual plane ``plane`` of ``query`` against a
        sub-index with reference time ``t_ref``."""
        lower_a = _boundary_line(query.low1[plane], query.t_low,
                                 t_ref, vmax, lifetime)
        lower_b = _boundary_line(query.low2[plane], query.t_high,
                                 t_ref, vmax, lifetime)
        upper_a = _boundary_line(query.high1[plane], query.t_low,
                                 t_ref, vmax, lifetime)
        upper_b = _boundary_line(query.high2[plane], query.t_high,
                                 t_ref, vmax, lifetime)
        return cls(lower_a, lower_b, upper_a, upper_b)

    # ------------------------------------------------------------------ #
    # Boundary evaluation
    # ------------------------------------------------------------------ #

    @property
    def lower_lines(self) -> Tuple[Line, Line]:
        return (Line(self.la_s, self.la_i), Line(self.lb_s, self.lb_i))

    @property
    def upper_lines(self) -> Tuple[Line, Line]:
        return (Line(self.ua_s, self.ua_i), Line(self.ub_s, self.ub_i))

    def lower_at(self, v: float) -> float:
        """Lower boundary (concave: pointwise min of the two lower lines)."""
        a = self.la_i + self.la_s * v
        b = self.lb_i + self.lb_s * v
        return a if a < b else b

    def upper_at(self, v: float) -> float:
        """Upper boundary (convex: pointwise max of the two upper lines)."""
        a = self.ua_i + self.ua_s * v
        b = self.ub_i + self.ub_s * v
        return a if a > b else b

    def contains_point(self, v: float, p: float) -> bool:
        """Exact membership of a dual point in this plane's region."""
        a = self.la_i + self.la_s * v
        b = self.lb_i + self.lb_s * v
        if p < (a if a < b else b):
            return False
        a = self.ua_i + self.ua_s * v
        b = self.ub_i + self.ub_s * v
        return p <= (a if a > b else b)

    def contains_batch(self, vs: np.ndarray, ps: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains_point` over coordinate columns.

        ``vs``/``ps`` are parallel 1-d coordinate arrays (this plane's
        columns of a search's leaf rows); the result is a boolean mask.
        Arithmetic is performed in ``float64`` regardless of the storage
        dtype and in the same operation order as the scalar test, so the
        mask is
        bit-exactly ``[contains_point(v, p) for v, p in zip(vs, ps)]``.
        """
        vs = np.asarray(vs, dtype=np.float64)
        ps = np.asarray(ps, dtype=np.float64)
        lower = np.minimum(self.la_i + self.la_s * vs,
                           self.lb_i + self.lb_s * vs)
        upper = np.maximum(self.ua_i + self.ua_s * vs,
                           self.ub_i + self.ub_s * vs)
        return (ps >= lower) & (ps <= upper)

    def corner_points(self, v_max2: float) -> dict:
        """The paper's six defining points (Figure 6) over ``V`` in
        ``[0, v_max2]``.  ``L2``/``U2`` are ``None`` when the respective
        pair of lines is parallel or crosses outside the velocity range."""
        def clip_break(break_v: Optional[float]) -> Optional[float]:
            if break_v is None or not 0.0 < break_v < v_max2:
                return None
            return break_v

        lb = clip_break(self._lower_break)
        ub = clip_break(self._upper_break)
        return {
            "L1": (0.0, self.lower_at(0.0)),
            "L2": (lb, self.lower_at(lb)) if lb is not None else None,
            "L3": (v_max2, self.lower_at(v_max2)),
            "U1": (0.0, self.upper_at(0.0)),
            "U2": (ub, self.upper_at(ub)) if ub is not None else None,
            "U3": (v_max2, self.upper_at(v_max2)),
        }

    # ------------------------------------------------------------------ #
    # RelativePosition (Figure 7)
    # ------------------------------------------------------------------ #

    def classify_rect(self, v1: float, v2: float,
                      p1: float, p2: float) -> RelPos:
        """Classify the data rectangle ``[v1, v2] x [p1, p2]``.

        INSIDE and DISJUNCT answers are exact; anything else is OVERLAP.
        The extremes of the piecewise-linear boundaries over ``[v1, v2]``
        lie at the interval endpoints or at the boundary's breakpoint, so
        only those candidates are evaluated.
        """
        low_v1 = self.lower_at(v1)
        low_v2 = self.lower_at(v2)
        up_v1 = self.upper_at(v1)
        up_v2 = self.upper_at(v2)

        # DISJUNCT: rectangle entirely below the (concave) lower boundary --
        # its minimum over the interval is at an endpoint -- or entirely
        # above the (convex) upper boundary, whose maximum is at an endpoint.
        if p2 < min(low_v1, low_v2) or p1 > max(up_v1, up_v2):
            return RelPos.DISJUNCT

        # INSIDE: bottom edge on/above the lower boundary's maximum and top
        # edge on/below the upper boundary's minimum.  The concave lower
        # boundary can peak at its breakpoint, the convex upper boundary can
        # dip at its breakpoint; include those candidates when they fall in
        # [v1, v2].
        lower_max = max(low_v1, low_v2)
        if self._lower_break is not None and v1 < self._lower_break < v2:
            lower_max = max(lower_max, self._lower_break_p)
        upper_min = min(up_v1, up_v2)
        if self._upper_break is not None and v1 < self._upper_break < v2:
            upper_min = min(upper_min, self._upper_break_p)
        if p1 >= lower_max and p2 <= upper_min:
            return RelPos.INSIDE
        return RelPos.OVERLAP

    def classify_quads(self, v1: float, v_mid: float, v2: float,
                       p1: float, p_mid: float, p2: float) -> Tuple[
                           RelPos, RelPos, RelPos, RelPos]:
        """Classify a node's four child quads in one call.

        The quads partition ``[v1, v2] x [p1, p2]`` at ``(v_mid, p_mid)``;
        the result is indexed by the Eq. 1 per-plane child code (bit 0 =
        upper velocity half, bit 1 = upper position half).  Sharing the
        six boundary evaluations across the four quads, this returns
        exactly what four :meth:`classify_rect` calls would.
        """
        la_s, la_i = self.la_s, self.la_i
        lb_s, lb_i = self.lb_s, self.lb_i
        ua_s, ua_i = self.ua_s, self.ua_i
        ub_s, ub_i = self.ub_s, self.ub_i
        a = la_i + la_s * v1
        b = lb_i + lb_s * v1
        low0 = a if a < b else b
        a = la_i + la_s * v_mid
        b = lb_i + lb_s * v_mid
        low1 = a if a < b else b
        a = la_i + la_s * v2
        b = lb_i + lb_s * v2
        low2 = a if a < b else b
        a = ua_i + ua_s * v1
        b = ub_i + ub_s * v1
        up0 = a if a > b else b
        a = ua_i + ua_s * v_mid
        b = ub_i + ub_s * v_mid
        up1 = a if a > b else b
        a = ua_i + ua_s * v2
        b = ub_i + ub_s * v2
        up2 = a if a > b else b
        # Per velocity half: boundary extremes over the interval.  The
        # concave lower bound's minimum and the convex upper bound's
        # maximum sit at interval endpoints (the DISJUNCT tests); the
        # opposite extremes may sit at a breakpoint inside the interval
        # (the INSIDE tests).
        low_min_a = low0 if low0 < low1 else low1
        low_max_a = low0 if low0 > low1 else low1
        low_min_b = low1 if low1 < low2 else low2
        low_max_b = low1 if low1 > low2 else low2
        brk = self._lower_break
        if brk is not None:
            bp = self._lower_break_p
            if v1 < brk < v_mid and bp > low_max_a:
                low_max_a = bp
            if v_mid < brk < v2 and bp > low_max_b:
                low_max_b = bp
        up_max_a = up0 if up0 > up1 else up1
        up_min_a = up0 if up0 < up1 else up1
        up_max_b = up1 if up1 > up2 else up2
        up_min_b = up1 if up1 < up2 else up2
        brk = self._upper_break
        if brk is not None:
            bp = self._upper_break_p
            if v1 < brk < v_mid and bp < up_min_a:
                up_min_a = bp
            if v_mid < brk < v2 and bp < up_min_b:
                up_min_b = bp
        disjunct = RelPos.DISJUNCT
        inside = RelPos.INSIDE
        overlap = RelPos.OVERLAP
        # code 0: v in [v1, v_mid], p in [p1, p_mid]
        if p_mid < low_min_a or p1 > up_max_a:
            r0 = disjunct
        elif p1 >= low_max_a and p_mid <= up_min_a:
            r0 = inside
        else:
            r0 = overlap
        # code 1: v in [v_mid, v2], p in [p1, p_mid]
        if p_mid < low_min_b or p1 > up_max_b:
            r1 = disjunct
        elif p1 >= low_max_b and p_mid <= up_min_b:
            r1 = inside
        else:
            r1 = overlap
        # code 2: v in [v1, v_mid], p in [p_mid, p2]
        if p2 < low_min_a or p_mid > up_max_a:
            r2 = disjunct
        elif p_mid >= low_max_a and p2 <= up_min_a:
            r2 = inside
        else:
            r2 = overlap
        # code 3: v in [v_mid, v2], p in [p_mid, p2]
        if p2 < low_min_b or p_mid > up_max_b:
            r3 = disjunct
        elif p_mid >= low_max_b and p2 <= up_min_b:
            r3 = inside
        else:
            r3 = overlap
        return (r0, r1, r2, r3)


def build_query_regions(query: MovingQuery, vmax: Tuple[float, ...],
                        lifetime: float,
                        t_ref: float) -> Tuple[QueryRegion2D, ...]:
    """One :class:`QueryRegion2D` per dual plane for ``query``."""
    return tuple(
        QueryRegion2D.from_query_plane(query, i, vmax[i], lifetime, t_ref)
        for i in range(query.d)
    )
