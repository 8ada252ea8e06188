"""Workload inputs: the paper's steady state plus the operation stream
that follows it.

Run as a script, this generates one workload with
:func:`repro.workload.generator.generate_workload` and writes it as
compact numpy arrays.  The benchmark runs it in a child process so the
generator's garbage never counts toward the measured process's peak
memory; :func:`load` turns the arrays back into the program's own
state and query objects.

The steady state is every object's latest reported state as of
simulated time ``STEADY_T`` (1.25 lifetimes), when two lifetime windows
are live.  The timed stream is every operation after the last update at
or before ``STEADY_T``, so each update's ``old`` state is exactly what
the steady state (or an earlier timed update) inserted.

Usage::

    python3 perfbench/inputs.py --src src --n-objects 20000 --seed 1 \
        --timed-ops 10000 --out inputs.npz
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

LIFETIME = 120.0
STEADY_T = 1.25 * LIFETIME

UPDATE, QUERY = 0, 1
TIME_SLICE, WINDOW, MOVING = 0, 1, 2


def _state_columns(states, d):
    return {
        "oid": np.array([s.oid for s in states], dtype=np.int64),
        "pos": np.array([s.pos for s in states],
                        dtype=np.float64).reshape(len(states), d),
        "vel": np.array([s.vel for s in states],
                        dtype=np.float64).reshape(len(states), d),
        "t": np.array([s.t for s in states], dtype=np.float64),
    }


def generate(n_objects: int, seed: int, timed_ops: int) -> dict:
    """Arrays for the steady state and at least ``timed_ops`` operations
    after it (fewer only if the simulated horizon ends first)."""
    from repro.query.types import MovingQuery, TimeSliceQuery, WindowQuery
    from repro.workload.generator import WorkloadSpec, generate_workload
    from repro.workload.operations import UpdateOp

    probe = WorkloadSpec(n_objects=n_objects, seed=seed)
    # Each object updates every UI time units on average and the stream
    # carries one query per update, so ops arrive at 2 N / UI per time
    # unit; 50 % headroom covers the variance of the arrivals.
    rate = 2.0 * n_objects / probe.update_interval
    duration = STEADY_T + 1.5 * timed_ops / rate + 1.0
    spec = WorkloadSpec(n_objects=n_objects, seed=seed, duration=duration)
    workload = generate_workload(spec)
    d = spec.d

    latest = {state.oid: state for state in workload.initial}
    ops = workload.operations
    cut = len(ops)
    for i, op in enumerate(ops):
        if isinstance(op, UpdateOp):
            if op.new.t > STEADY_T:
                cut = i
                break
            latest[op.new.oid] = op.new
    timed = ops[cut:cut + timed_ops]

    kinds = np.array([UPDATE if isinstance(op, UpdateOp) else QUERY
                      for op in timed], dtype=np.int8)
    updates = [op for op in timed if isinstance(op, UpdateOp)]
    queries = [op.query for op in timed if not isinstance(op, UpdateOp)]
    qkind = []
    for q in queries:
        if isinstance(q, TimeSliceQuery):
            qkind.append(TIME_SLICE)
        elif isinstance(q, WindowQuery):
            qkind.append(WINDOW)
        elif isinstance(q, MovingQuery):
            qkind.append(MOVING)
        else:  # pragma: no cover - the generator emits only these three
            raise TypeError(type(q).__name__)
    moving = [q.as_moving() for q in queries]

    out = {"pmax": np.array(spec.pmax, dtype=np.float64),
           "vmax": np.array(spec.vmax, dtype=np.float64),
           "kinds": kinds,
           "q_kind": np.array(qkind, dtype=np.int8)}
    steady = [latest[oid] for oid in sorted(latest)]
    for name, column in _state_columns(steady, d).items():
        out[f"s_{name}"] = column
    for name, column in _state_columns([u.old for u in updates], d).items():
        out[f"old_{name}"] = column
    for name, column in _state_columns([u.new for u in updates], d).items():
        out[f"new_{name}"] = column
    for field in ("low1", "high1", "low2", "high2"):
        out[f"q_{field}"] = np.array(
            [getattr(m, field) for m in moving],
            dtype=np.float64).reshape(len(moving), d)
    out["q_t_low"] = np.array([m.t_low for m in moving], dtype=np.float64)
    out["q_t_high"] = np.array([m.t_high for m in moving], dtype=np.float64)
    return out


def _states(arrays, prefix):
    from repro.query.types import MovingObjectState

    return [MovingObjectState(oid, tuple(pos), tuple(vel), t)
            for oid, pos, vel, t in zip(arrays[f"{prefix}_oid"].tolist(),
                                        arrays[f"{prefix}_pos"].tolist(),
                                        arrays[f"{prefix}_vel"].tolist(),
                                        arrays[f"{prefix}_t"].tolist())]


def _queries(arrays):
    from repro.query.types import MovingQuery, TimeSliceQuery, WindowQuery

    out = []
    for kind, low1, high1, low2, high2, t_low, t_high in zip(
            arrays["q_kind"].tolist(), arrays["q_low1"].tolist(),
            arrays["q_high1"].tolist(), arrays["q_low2"].tolist(),
            arrays["q_high2"].tolist(), arrays["q_t_low"].tolist(),
            arrays["q_t_high"].tolist()):
        if kind == TIME_SLICE:
            out.append(TimeSliceQuery(tuple(low1), tuple(high1), t_low))
        elif kind == WINDOW:
            out.append(WindowQuery(tuple(low1), tuple(high1), t_low, t_high))
        else:
            out.append(MovingQuery(tuple(low1), tuple(high1), tuple(low2),
                                   tuple(high2), t_low, t_high))
    return out


class Inputs:
    """One workload's inputs as program objects.

    ``steady`` lists the steady-state objects (ascending oid); ``ops``
    is the timed stream as ``(UPDATE, (old, new))`` and
    ``(QUERY, query)`` pairs in stream order.
    """

    def __init__(self, arrays):
        self.pmax = tuple(arrays["pmax"].tolist())
        self.vmax = tuple(arrays["vmax"].tolist())
        self.steady = _states(arrays, "s")
        updates = iter(zip(_states(arrays, "old"), _states(arrays, "new")))
        queries = iter(_queries(arrays))
        self.ops = [(UPDATE, next(updates)) if kind == UPDATE
                    else (QUERY, next(queries))
                    for kind in arrays["kinds"].tolist()]


def load(path) -> Inputs:
    with np.load(path) as arrays:
        return Inputs({name: arrays[name] for name in arrays.files})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="directory holding the repro package")
    parser.add_argument("--n-objects", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--timed-ops", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    arrays = generate(args.n_objects, args.seed, args.timed_ops)
    with open(args.out, "wb") as fh:
        np.savez(fh, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
