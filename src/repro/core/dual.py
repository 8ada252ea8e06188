"""The Hough-X style dual transform used by STRIPES (Section 4.1).

A predicted trajectory ``p(t') = p + v (t' - t)`` of an object moving in
``d`` dimensions becomes a point ``(V, P_ref)`` in ``2d`` dimensions:

* ``V_i = v_i + vmax_i`` shifts velocities into ``[0, 2 vmax_i]`` so
  negative velocities index cleanly;
* ``P_ref_i = p_i - v_i (t - t_ref) + vmax_i L`` is the position
  back-extrapolated to the index's reference time, shifted by
  ``vmax_i * L`` so the coordinate is non-negative for every entry whose
  update timestamp falls inside the index lifetime ``[t_ref, t_ref + L]``.

The inverse motion equation is ``p_i(t') = P_ref_i + (V_i - vmax_i)
(t' - t_ref) - vmax_i L``.

``float32`` mode rounds transformed coordinates to 4-byte floats, matching
the paper's storage layout (Section 5.1).  Rounding is applied at transform
time so that the insert and the later delete of the same entry compute
bit-identical coordinates and therefore descend identical quadtree paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.query.types import MovingObjectState, Vector


class DualPoint(NamedTuple):
    """A transformed entry: object id plus dual coordinates.

    A ``NamedTuple`` rather than a dataclass: tuple construction is
    measurably cheaper, and write paths build one per entry of every leaf
    they rewrite.  Queries do not build them: leaf records keep their
    packed on-page rows, which a search reads as numpy columns -- traced
    ones (``explain()``) too -- and a record's entry list is only built when
    a write path, an extension (kNN, join), or a checker asks for it.
    """

    oid: int
    v: Tuple[float, ...]       # transformed velocities, in [0, 2 vmax_i]
    p: Tuple[float, ...]       # transformed reference positions

    @property
    def d(self) -> int:
        return len(self.v)


class DualBatch(NamedTuple):
    """A batch of transformed entries in columnar form.

    ``vs``/``ps`` are ``(n, d)`` float64 arrays holding exactly the values
    the scalar :meth:`DualSpace.to_dual` path would compute (float32 mode
    rounds before widening, and float32-to-float64 widening is exact), so
    the write path can classify quads with numpy kernels and still store
    bit-identical coordinates.
    """

    oids: np.ndarray           # (n,)  int64
    vs: np.ndarray             # (n, d) float64
    ps: np.ndarray             # (n, d) float64

    def __len__(self) -> int:
        return self.oids.shape[0]

    def points(self) -> List[DualPoint]:
        """Materialize the batch as ``DualPoint``s for leaf storage.

        ``ndarray.tolist()`` converts float64 lanes to Python floats
        exactly, so the tuples equal what ``to_dual`` returns per object.
        """
        oids = self.oids.tolist()
        vs = self.vs.tolist()
        ps = self.ps.tolist()
        return [DualPoint(oid, tuple(v), tuple(p))
                for oid, v, p in zip(oids, vs, ps)]


@dataclass(frozen=True)
class DualSpace:
    """Geometry of one sub-index's dual space.

    ``vmax``/``pmax`` bound the native space (Table 1), ``lifetime`` is the
    index lifetime ``L``, and ``t_ref`` is this sub-index's reference time.
    """

    vmax: Tuple[float, ...]
    pmax: Tuple[float, ...]
    lifetime: float
    t_ref: float = 0.0
    float32: bool = False

    def __post_init__(self) -> None:
        if len(self.vmax) != len(self.pmax):
            raise ValueError(
                f"vmax is {len(self.vmax)}-d but pmax is {len(self.pmax)}-d")
        if any(v <= 0 for v in self.vmax):
            raise ValueError(f"vmax components must be positive: {self.vmax}")
        if any(p <= 0 for p in self.pmax):
            raise ValueError(f"pmax components must be positive: {self.pmax}")
        if self.lifetime <= 0:
            raise ValueError(f"lifetime must be positive: {self.lifetime}")

    @property
    def d(self) -> int:
        """Native-space dimensionality."""
        return len(self.vmax)

    @property
    def velocity_extent(self) -> Tuple[float, ...]:
        """Transformed velocity range upper bound per plane: ``2 vmax_i``."""
        return tuple(2.0 * v for v in self.vmax)

    @property
    def position_extent(self) -> Tuple[float, ...]:
        """Transformed position range upper bound per plane:
        ``pmax_i + 2 vmax_i L``."""
        return tuple(p + 2.0 * v * self.lifetime
                     for p, v in zip(self.pmax, self.vmax))

    def covers_time(self, t: float) -> bool:
        """True when an update at time ``t`` belongs to this sub-index's
        lifetime window ``[t_ref, t_ref + L)``."""
        return self.t_ref <= t < self.t_ref + self.lifetime

    # ------------------------------------------------------------------ #
    # Transform
    # ------------------------------------------------------------------ #

    def to_dual(self, obj: MovingObjectState) -> DualPoint:
        """Transform a moving-object state into its dual point.

        Raises ``ValueError`` when the state violates the space bounds
        (|v| > vmax or position outside [0, pmax]) or when its timestamp
        falls outside this index's lifetime window -- both indicate the
        caller routed the update to the wrong sub-index.
        """
        if obj.d != self.d:
            raise ValueError(f"object is {obj.d}-d, space is {self.d}-d")
        dt = obj.t - self.t_ref
        if not -1e-9 <= dt <= self.lifetime + 1e-9:
            raise ValueError(
                f"update time {obj.t} outside index lifetime window "
                f"[{self.t_ref}, {self.t_ref + self.lifetime}]"
            )
        v_dual = []
        p_dual = []
        for i in range(self.d):
            if abs(obj.vel[i]) > self.vmax[i] + 1e-9:
                raise ValueError(
                    f"object {obj.oid}: |velocity[{i}]| = {abs(obj.vel[i])} "
                    f"exceeds vmax {self.vmax[i]}"
                )
            if not -1e-6 <= obj.pos[i] <= self.pmax[i] + 1e-6:
                raise ValueError(
                    f"object {obj.oid}: position[{i}] = {obj.pos[i]} outside "
                    f"[0, {self.pmax[i]}]"
                )
            v_dual.append(obj.vel[i] + self.vmax[i])
            p_dual.append(obj.pos[i] - obj.vel[i] * dt
                          + self.vmax[i] * self.lifetime)
        if self.float32:
            v_dual = [float(np.float32(x)) for x in v_dual]
            p_dual = [float(np.float32(x)) for x in p_dual]
        return DualPoint(obj.oid, tuple(v_dual), tuple(p_dual))

    def to_dual_batch(self, objs: Sequence[MovingObjectState]) -> DualBatch:
        """Transform many states at once; columnar twin of :meth:`to_dual`.

        The arithmetic mirrors the scalar path operation for operation —
        ``(pos - vel * dt) + vmax * L`` in float64, with float32 mode
        rounding through ``astype(float32)`` (the same IEEE round-to-nearest
        as ``np.float32(x)``) before exact widening back to float64 — so
        every lane is bit-identical to ``to_dual`` of the same object.

        Validation applies the same tolerances as the scalar path; on any
        violation the *first* offending object (in input order) is re-run
        through ``to_dual`` so the raised ``ValueError`` is identical.
        """
        n = len(objs)
        d = self.d
        if n == 0:
            empty = np.empty((0, d), dtype=np.float64)
            return DualBatch(np.empty(0, dtype=np.int64), empty, empty.copy())
        for obj in objs:
            if obj.d != d:
                raise ValueError(f"object is {obj.d}-d, space is {d}-d")
        oids = np.fromiter((o.oid for o in objs), dtype=np.int64, count=n)
        ts = np.fromiter((o.t for o in objs), dtype=np.float64, count=n)
        vels = np.array([o.vel for o in objs], dtype=np.float64)
        poss = np.array([o.pos for o in objs], dtype=np.float64)
        vmax = np.array(self.vmax, dtype=np.float64)
        pmax = np.array(self.pmax, dtype=np.float64)
        dts = ts - self.t_ref
        bad = ~((dts >= -1e-9) & (dts <= self.lifetime + 1e-9))
        bad |= (np.abs(vels) > vmax + 1e-9).any(axis=1)
        bad |= ~((poss >= -1e-6) & (poss <= pmax + 1e-6)).all(axis=1)
        if bad.any():
            self.to_dual(objs[int(np.argmax(bad))])
            raise AssertionError("scalar validation accepted a state the "
                                 "batch validation rejected")
        vs = vels + vmax
        ps = poss - vels * dts[:, None] + vmax * self.lifetime
        if self.float32:
            vs = vs.astype(np.float32).astype(np.float64)
            ps = ps.astype(np.float32).astype(np.float64)
        return DualBatch(oids, vs, ps)

    def from_dual(self, point: DualPoint, t: float) -> MovingObjectState:
        """Reconstruct the (predicted) object state at time ``t`` from its
        dual point.  Inverse of :meth:`to_dual` up to float rounding."""
        pos = []
        vel = []
        for i in range(self.d):
            v = point.v[i] - self.vmax[i]
            vel.append(v)
            pos.append(point.p[i] + v * (t - self.t_ref)
                       - self.vmax[i] * self.lifetime)
        return MovingObjectState(point.oid, tuple(pos), tuple(vel), t)

    def position_at(self, point: DualPoint, t: float) -> Vector:
        """Native-space predicted position of a dual point at time ``t``."""
        return tuple(
            point.p[i] + (point.v[i] - self.vmax[i]) * (t - self.t_ref)
            - self.vmax[i] * self.lifetime
            for i in range(self.d)
        )
