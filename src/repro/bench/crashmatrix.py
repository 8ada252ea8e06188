"""Crash-matrix harness: kill the index everywhere, prove recovery.

The harness replays one deterministic mixed workload (bulk load, then
interleaved inserts / updates / deletes / checkpoints across a lifetime
rotation) over a :class:`repro.storage.faults.FaultyPageFile`, and kills
the process at every interesting point:

* at the *k*-th page write (stride-sampled over the whole run, which
  covers evictions between checkpoints, journal-covered checkpoint
  flushes, and everything in between);
* with a *torn* page write -- only a byte prefix reaches the platter;
* at every named failpoint the workload crosses (mid redo journal, mid
  sidecar rename, between undo drop and redo drop, ...), discovered by
  recording a clean run first;
* with transient IO errors (failed writes that abort the op but leave
  the process notionally dead, so recovery still has to work);
* at stray reads, and once with no fault at all (the control).

After each kill the index is reopened from the page file's *durable*
image -- unsynced writes survive or die according to the chosen survival
policy -- via :func:`repro.core.persistence.load_index`, which resolves
any leftover redo/undo journals.  The reopened index must:

1. report ``index.check() == []`` (structural invariants at the store,
   quadtree, and index level);
2. answer a panel of probe queries identically to a never-crashed
   :class:`repro.baselines.scan.ScanIndex` replica frozen at the same
   checkpoint (exact id-set parity, plus live-count parity);
3. *resume*: replay the rest of the workload -- further checkpoints
   included -- and still match the oracle at the end.

Run it from the bench CLI::

    python -m repro.bench.cli crashmatrix --survival none --json out.json
"""

from __future__ import annotations

import os
import random
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.scan import ScanIndex
from repro.core.persistence import load_index, save_index
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import (MovingObjectState, MovingQuery,
                               PredictiveQuery, TimeSliceQuery, WindowQuery)
from repro.storage.buffer_pool import BufferPool
from repro.storage.faults import (FAILPOINTS, FaultyPageFile, InjectedCrash,
                                  TransientIOError)
from repro.storage.pagefile import InMemoryPageFile

__all__ = [
    "CrashWorkload",
    "MatrixReport",
    "ScenarioResult",
    "build_workload",
    "run_crash_matrix",
]


# --------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------- #

#: Default index configuration for the matrix (small domain, short
#: lifetime so the workload crosses a window rotation quickly).
DEFAULT_CONFIG = StripesConfig(vmax=(3.0, 3.0), pmax=(100.0, 100.0),
                               lifetime=30.0)


@dataclass
class CrashWorkload:
    """A deterministic op tape plus where its checkpoints sit.

    ``ops`` entries are tuples: ``("insert", state)``,
    ``("update", old, new)``, ``("delete", state)``, or
    ``("checkpoint", t_now)``.  ``checkpoint_positions[cid]`` is the op
    index of the checkpoint that committed ``cid``.
    """

    config: StripesConfig
    seed: int
    ops: List[tuple]
    checkpoint_positions: Dict[int, int]
    final_time: float

    @property
    def n_checkpoints(self) -> int:
        return len(self.checkpoint_positions)


def build_workload(seed: int = 0, n_initial: int = 600, n_ops: int = 600,
                   n_checkpoints: int = 4,
                   config: Optional[StripesConfig] = None) -> CrashWorkload:
    """Bulk load ``n_initial`` objects in window 0, checkpoint, then run
    ``n_ops`` mixed operations with ``n_checkpoints - 1`` further
    checkpoints while time advances across ~2.5 lifetime windows."""
    config = config or DEFAULT_CONFIG
    rng = random.Random(seed)
    lifetime = config.lifetime
    ops: List[tuple] = []
    positions: Dict[int, int] = {}
    live: Dict[int, MovingObjectState] = {}
    next_oid = 0

    def new_state(oid: int, t: float) -> MovingObjectState:
        return MovingObjectState(
            oid,
            (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
            (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
            t)

    for _ in range(n_initial):
        state = new_state(next_oid, rng.uniform(0.0, lifetime * 0.85))
        live[next_oid] = state
        next_oid += 1
        ops.append(("insert", state))

    cid = 1
    t_now = lifetime * 0.9
    ops.append(("checkpoint", t_now))
    positions[cid] = len(ops) - 1

    checkpoint_every = max(1, n_ops // max(1, n_checkpoints - 1))
    dt = (lifetime * 1.6) / max(1, n_ops)
    for i in range(n_ops):
        t_now += dt
        roll = rng.random()
        if roll < 0.55 and live:
            oid = rng.choice(sorted(live))
            old = live[oid]
            new = new_state(oid, t_now)
            live[oid] = new
            ops.append(("update", old, new))
        elif roll < 0.90 or not live:
            state = new_state(next_oid, t_now)
            live[next_oid] = state
            next_oid += 1
            ops.append(("insert", state))
        else:
            oid = rng.choice(sorted(live))
            ops.append(("delete", live.pop(oid)))
        if (i + 1) % checkpoint_every == 0 and cid < n_checkpoints:
            cid += 1
            ops.append(("checkpoint", t_now))
            positions[cid] = len(ops) - 1

    return CrashWorkload(config=config, seed=seed, ops=ops,
                         checkpoint_positions=positions, final_time=t_now)


def probe_queries(config: StripesConfig,
                  t_now: float) -> Tuple[PredictiveQuery, ...]:
    """Fixed probe panel, anchored at workload time ``t_now``: a
    full-domain time slice, a selective slice, a window query, and a
    moving query."""
    span = config.lifetime
    return (
        TimeSliceQuery((0.0, 0.0), config.pmax, t_now),
        TimeSliceQuery((20.0, 20.0), (70.0, 80.0), t_now + 0.3 * span),
        WindowQuery((10.0, 40.0), (55.0, 90.0), t_now, t_now + 0.5 * span),
        MovingQuery((0.0, 0.0), (30.0, 30.0), (50.0, 50.0), (80.0, 80.0),
                    t_now, t_now + span),
    )


def _evaluate(index, probes) -> List[List[int]]:
    return [sorted(index.query(q)) for q in probes]


@dataclass
class _Snapshot:
    """The oracle's answers frozen at one checkpoint (or at the end)."""
    t_now: float
    answers: List[List[int]]
    live: int


def _oracle_snapshots(workload: CrashWorkload) \
        -> Tuple[Dict[int, _Snapshot], _Snapshot]:
    """Replay the tape through :class:`ScanIndex`; freeze probe answers
    at every checkpoint and at the end of the tape."""
    scan = ScanIndex(workload.config.lifetime)
    snapshots: Dict[int, _Snapshot] = {}
    cid = 0
    for op in workload.ops:
        if op[0] == "checkpoint":
            cid += 1
            t_now = op[1]
            snapshots[cid] = _Snapshot(
                t_now, _evaluate(scan, probe_queries(workload.config, t_now)),
                len(scan))
        else:
            _apply_scan(scan, op)
    final = _Snapshot(
        workload.final_time,
        _evaluate(scan, probe_queries(workload.config, workload.final_time)),
        len(scan))
    return snapshots, final


def _apply_scan(scan: ScanIndex, op: tuple) -> None:
    if op[0] == "insert":
        scan.insert(op[1])
    elif op[0] == "update":
        scan.update(op[1], op[2])
    elif op[0] == "delete":
        scan.delete(op[1])


def _scan_through(workload: CrashWorkload, upto: int) -> ScanIndex:
    """Fresh oracle replayed through ``ops[:upto]`` (checkpoints skipped)."""
    scan = ScanIndex(workload.config.lifetime)
    for op in workload.ops[:upto]:
        if op[0] != "checkpoint":
            _apply_scan(scan, op)
    return scan


# --------------------------------------------------------------------- #
# Scenario execution
# --------------------------------------------------------------------- #

@dataclass
class _Paths:
    meta: str
    journal: str
    undo: str

    @classmethod
    def in_dir(cls, directory: str) -> "_Paths":
        return cls(meta=os.path.join(directory, "idx.meta"),
                   journal=os.path.join(directory, "idx.journal"),
                   undo=os.path.join(directory, "idx.journal.undo"))


def _apply_index(index: StripesIndex, op: tuple, paths: _Paths) -> None:
    if op[0] == "insert":
        index.insert(op[1])
    elif op[0] == "update":
        index.update(op[1], op[2])
    elif op[0] == "delete":
        index.delete(op[1])
    else:
        save_index(index, paths.meta, journal_path=paths.journal,
                   undo_path=paths.undo)


@dataclass
class ScenarioResult:
    name: str
    fault: str
    crashed: bool
    recovered_checkpoint: Optional[int]
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fault": self.fault,
            "crashed": self.crashed,
            "recovered_checkpoint": self.recovered_checkpoint,
            "ok": self.ok,
            "failures": list(self.failures),
        }


@dataclass
class MatrixReport:
    seed: int
    survival: str
    total_writes: int
    total_reads: int
    failpoint_hits: Dict[str, int]
    scenarios: List[ScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for s in self.scenarios if s.ok)

    @property
    def failed(self) -> int:
        return len(self.scenarios) - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "survival": self.survival,
            "total_writes": self.total_writes,
            "total_reads": self.total_reads,
            "failpoint_hits": dict(self.failpoint_hits),
            "scenarios": [s.to_dict() for s in self.scenarios],
            "passed": self.passed,
            "failed": self.failed,
            "ok": self.ok,
        }

    def summary_lines(self) -> List[str]:
        lines = [f"crash matrix: {self.passed}/{len(self.scenarios)} "
                 f"scenarios passed (survival={self.survival}, "
                 f"seed={self.seed}, {self.total_writes} writes, "
                 f"{sum(self.failpoint_hits.values())} failpoint hits)"]
        for s in self.scenarios:
            if not s.ok:
                lines.append(f"  FAIL {s.name} [{s.fault}]")
                for failure in s.failures:
                    lines.append(f"       {failure}")
        return lines


def _new_index(workload: CrashWorkload,
               pool_pages: int) -> Tuple[StripesIndex, FaultyPageFile]:
    faulty = FaultyPageFile(InMemoryPageFile())
    pool = BufferPool(faulty, capacity=pool_pages)
    return StripesIndex(workload.config, pool), faulty


def _survival_policy(survival: str, seed: int):
    if survival == "mix":
        return random.Random(seed)
    if survival in ("none", "all"):
        return survival
    raise ValueError(f"unknown survival policy {survival!r} "
                     "(expected 'none', 'all', or 'mix')")


def _run_scenario(name: str, fault: str, workload: CrashWorkload,
                  snapshots: Dict[int, _Snapshot], final: _Snapshot,
                  directory: str, pool_pages: int, survival: str,
                  arm: Callable[[FaultyPageFile], None],
                  resume: bool = True) -> ScenarioResult:
    """Replay the tape with ``arm``'s fault installed; on a kill, reopen
    from the durable image and verify invariants + oracle parity."""
    paths = _Paths.in_dir(directory)
    os.makedirs(directory, exist_ok=True)
    result = ScenarioResult(name=name, fault=fault, crashed=False,
                            recovered_checkpoint=None)
    index, faulty = _new_index(workload, pool_pages)
    try:
        arm(faulty)
        for op in workload.ops:
            _apply_index(index, op, paths)
    except (InjectedCrash, TransientIOError):
        # The process is dead (a transient error is treated as an abort:
        # in-memory state is no longer trustworthy mid-op).
        result.crashed = True
    finally:
        FAILPOINTS.clear()

    if not result.crashed:
        # Fault never fired (or control run): verify the live index.
        result.failures.extend(
            _compare(index, final, probe_queries(workload.config,
                                                 final.t_now), "live"))
        result.failures.extend(index.check())

    if not os.path.exists(paths.meta):
        # Killed before the first checkpoint ever committed: there is no
        # index to reopen, which is the correct contract.
        return result

    pagefile = faulty.reopen_durable(_survival_policy(
        survival, workload.seed ^ hash(name) & 0xFFFF))
    pool = BufferPool(pagefile, capacity=pool_pages)
    try:
        reopened = load_index("<crashmatrix-in-memory>", paths.meta,
                              pool=pool, journal_path=paths.journal,
                              undo_path=paths.undo)
    except Exception as exc:  # noqa: BLE001 - any reopen error is a finding
        result.failures.append(f"reopen failed: {exc!r}")
        return result

    cid = reopened.checkpoint_id
    result.recovered_checkpoint = cid
    snapshot = snapshots.get(cid)
    if snapshot is None:
        result.failures.append(
            f"recovered checkpoint id {cid} matches no oracle snapshot")
        return result

    problems = reopened.check()
    if problems:
        result.failures.extend(f"check after reopen: {p}" for p in problems)
    result.failures.extend(_compare(
        reopened, snapshot, probe_queries(workload.config, snapshot.t_now),
        f"checkpoint {cid}"))

    if resume and not result.failures:
        result.failures.extend(
            _resume_and_verify(reopened, workload, cid, paths, final))
    return result


def _compare(index, snapshot: _Snapshot, probes, label: str) -> List[str]:
    failures = []
    got = _evaluate(index, probes)
    for i, (probe, want, have) in enumerate(zip(probes, snapshot.answers,
                                                got)):
        if want != have:
            missing = sorted(set(want) - set(have))[:5]
            extra = sorted(set(have) - set(want))[:5]
            failures.append(
                f"{label}: probe {i} ({type(probe).__name__}) mismatch: "
                f"missing={missing} extra={extra} "
                f"({len(want)} expected, {len(have)} got)")
    if len(index) != snapshot.live:
        failures.append(f"{label}: live count {len(index)} != oracle "
                        f"{snapshot.live}")
    return failures


def _resume_and_verify(index: StripesIndex, workload: CrashWorkload,
                       cid: int, paths: _Paths,
                       final: _Snapshot) -> List[str]:
    """Prove the reopened index is *usable*: replay everything after the
    recovered checkpoint (lost ops re-submitted, further checkpoints
    included) and gate on end-of-tape parity with a fresh oracle."""
    pos = workload.checkpoint_positions[cid]
    scan = _scan_through(workload, pos + 1)
    try:
        for op in workload.ops[pos + 1:]:
            _apply_index(index, op, paths)
            _apply_scan(scan, op)
    except Exception as exc:  # noqa: BLE001
        return [f"resume after checkpoint {cid} raised {exc!r}"]
    probes = probe_queries(workload.config, workload.final_time)
    oracle_final = _Snapshot(workload.final_time, _evaluate(scan, probes),
                             len(scan))
    failures = _compare(index, oracle_final, probes, f"resume from {cid}")
    failures.extend(f"check after resume: {p}" for p in index.check())
    return failures


# --------------------------------------------------------------------- #
# The matrix
# --------------------------------------------------------------------- #

def _sample_positions(total: int, count: int) -> List[int]:
    """``count`` distinct 1-based positions spread over ``[1, total]``."""
    if total <= 0 or count <= 0:
        return []
    picks = {max(1, min(total, round(total * (i + 1) / (count + 1))))
             for i in range(count)}
    return sorted(picks)


def run_crash_matrix(seed: int = 0, *, n_initial: int = 600,
                     n_ops: int = 600, n_checkpoints: int = 4,
                     pool_pages: int = 9, write_stride: int = 5,
                     failpoint_stride: int = 1, torn_samples: int = 6,
                     transient_samples: int = 4, read_samples: int = 3,
                     survival: str = "none", resume: bool = True,
                     workdir: Optional[str] = None,
                     log: Optional[Callable[[str], None]] = None
                     ) -> MatrixReport:
    """Run the full crash matrix; every scenario must pass.

    ``write_stride`` thins the crash-at-write-k axis (stride 1 kills the
    index at *every* page write).  ``survival`` picks the fate of
    unsynced writes at crash time: ``"none"`` (strict fsync), ``"all"``,
    or ``"mix"`` (seeded coin flip per page).  The default pool holds
    a fraction of the default index, so page writes and
    between-checkpoint evictions happen throughout the tape.
    """
    _survival_policy(survival, 0)  # validate early
    workload = build_workload(seed, n_initial=n_initial, n_ops=n_ops,
                              n_checkpoints=n_checkpoints)
    snapshots, final = _oracle_snapshots(workload)

    owned_tmp: Optional[tempfile.TemporaryDirectory] = None
    if workdir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="crashmatrix-")
        workdir = owned_tmp.name
    try:
        # Discovery: one clean run, recording every write and failpoint.
        FAILPOINTS.clear()
        with FAILPOINTS.record() as hits:
            index, faulty = _new_index(workload, pool_pages)
            paths = _Paths.in_dir(os.path.join(workdir, "discover"))
            os.makedirs(os.path.dirname(paths.meta), exist_ok=True)
            for op in workload.ops:
                _apply_index(index, op, paths)
        hit_counts = Counter(hits)
        report = MatrixReport(seed=seed, survival=survival,
                              total_writes=faulty.writes,
                              total_reads=faulty.reads,
                              failpoint_hits=dict(hit_counts))

        scenarios: List[Tuple[str, str, Callable[[FaultyPageFile], None]]] = \
            [("control", "none", lambda f: None)]
        for k in range(1, faulty.writes + 1, max(1, write_stride)):
            scenarios.append((f"crash-write-{k}", f"crash at write #{k}",
                              lambda f, k=k: f.crash_at_write(k)))
        page_size = faulty.page_size
        offsets = (8, page_size // 2, page_size - 8)
        for i, k in enumerate(_sample_positions(faulty.writes,
                                                torn_samples)):
            off = offsets[i % len(offsets)]
            scenarios.append(
                (f"torn-write-{k}", f"tear write #{k} at byte {off}",
                 lambda f, k=k, off=off: f.tear_at_write(k, off)))
        for k in _sample_positions(faulty.writes, transient_samples):
            scenarios.append(
                (f"failed-write-{k}", f"transient error at write #{k}",
                 lambda f, k=k: f.fail_writes_at(k)))
        for k in _sample_positions(faulty.reads, read_samples):
            scenarios.append((f"crash-read-{k}", f"crash at read #{k}",
                              lambda f, k=k: f.crash_at_read(k)))
        for name in sorted(hit_counts):
            for occurrence in range(1, hit_counts[name] + 1,
                                    max(1, failpoint_stride)):
                scenarios.append(
                    (f"failpoint-{name}-{occurrence}",
                     f"crash at failpoint {name} (hit #{occurrence})",
                     lambda f, name=name, occ=occurrence:
                         FAILPOINTS.arm(name, occ)))
            scenarios.append(
                (f"transient-{name}",
                 f"transient error at failpoint {name} (hit #1)",
                 lambda f, name=name:
                     FAILPOINTS.arm(name, 1, action="transient")))

        for i, (name, fault, arm) in enumerate(scenarios):
            result = _run_scenario(
                name, fault, workload, snapshots, final,
                os.path.join(workdir, f"s{i:04d}"), pool_pages, survival,
                arm, resume=resume)
            report.scenarios.append(result)
            if log is not None:
                status = "ok" if result.ok else "FAIL"
                log(f"[{i + 1}/{len(scenarios)}] {name}: {status}")
        return report
    finally:
        FAILPOINTS.clear()
        if owned_tmp is not None:
            owned_tmp.cleanup()
