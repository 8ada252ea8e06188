"""A state machine drives :class:`StripesIndex` writes against the scan oracle.

Hypothesis picks a sequence of operations -- inserts and deletes (of live
objects, of objects never inserted and of objects whose lifetime window
has expired), updates that keep an object's id and updates that change
it, ``update_batch`` calls holding update chains, clock advances across
lifetime windows, and the three query kinds with ``count`` -- and feeds
the same sequence to the index and to :class:`ScanIndex`, which keeps
every live state in a list and evaluates every predicate exactly.

After every step the index must pass ``check()``, which walks every
record and compares each decoded record with its page, and hold as many
entries as the oracle.  Every write result
(removed flags and counts) and every query answer must equal the
oracle's; ``refine=False`` must return a superset of it.

Each target but one uses a small leaf ladder, and all use a small buffer
pool, so a few dozen objects split leaves, promote them up the ladder,
spill into overflow chains (a cluster of coincident objects at the
maximum depth), collapse under-filled subtrees and evict pages in the
middle of a write descent; the one target on the default ladder
promotes leaves through all four of its sizes.  Groups of four or more
states take the grouped write path (coordinate columns, coalesced
non-leaf writes), smaller ones the single path.  Tier-1 runs a short profile; the ``slow``-marked test runs
a longer one.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule, run_state_machine_as_test)

from repro.baselines.scan import ScanIndex
from repro.core.quadtree import QuadTreeConfig
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import (MovingObjectState, MovingQuery,
                               TimeSliceQuery, WindowQuery)
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import InMemoryPageFile

LIFETIME = 10.0
VMAX = 2.0
PMAX = 100.0

#: name -> (d, float32, leaf ladder, max_depth, preload).  The small
#: ladders hold 3-20 entries per leaf, so splits, promotions and
#: collapses start within a few dozen objects; the coincident cluster
#: fills a maximum-depth leaf and spills into its overflow chain.  The
#: default ladder (``None``: an eighth of a page up to a full page, 12
#: to 101 entries) starts from ``preload`` objects inserted one at a
#: time, which promote the root leaf off the bottom rung; the steps then
#: promote it to half and to a full page and split it.
TARGETS = {
    "d1": (1, False, (128, 256), 4, 0),
    "d2": (2, False, (256, 512), 4, 0),
    "d3": (3, False, (256, 512), 3, 0),
    "d2-float32": (2, True, (128, 256), 4, 0),
    "d2-ladder": (2, False, (192, 320, 448), 2, 0),
    "d2-default": (2, False, None, 1, 20),
}

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
PICKS = st.integers(min_value=0, max_value=2 ** 16)


def machine_for(target: str):
    d, float32, ladder, max_depth, preload = TARGETS[target]

    class WriteOracleMachine(RuleBasedStateMachine):
        @initialize()
        def build(self):
            config = StripesConfig(
                vmax=(VMAX,) * d, pmax=(PMAX,) * d, lifetime=LIFETIME,
                float32=float32,
                quadtree=QuadTreeConfig(leaf_size_ladder=ladder,
                                        max_depth=max_depth))
            self.index = StripesIndex(
                config, BufferPool(InMemoryPageFile(), capacity=12))
            self.oracle = ScanIndex(LIFETIME)
            self.clock = 0.0
            self.next_oid = 0
            self.current = {}     # oid -> the live state the client holds
            self.expired = []     # states whose window rotated out
            rng = random.Random(preload)
            for _ in range(preload):
                state = self.state(rng, self.fresh_oid())
                self.index.insert(state)
                self.oracle.insert(state)
                self.current[state.oid] = state

        # ---------------------------------------------------------- #
        # State helpers
        # ---------------------------------------------------------- #

        def state(self, rng, oid, hot=False):
            """A state observed now; ``hot`` states are coincident in
            dual space (same position, zero velocity)."""
            if hot:
                pos, vel = (PMAX / 3,) * d, (0.0,) * d
            else:
                pos = tuple(rng.uniform(0.0, PMAX) for _ in range(d))
                vel = tuple(rng.uniform(-VMAX, VMAX) for _ in range(d))
            return MovingObjectState(oid, pos=pos, vel=vel, t=self.clock)

        def fresh_oid(self):
            self.next_oid += 1
            return self.next_oid - 1

        def pick_live(self, pick):
            oids = sorted(self.current)
            return oids[pick % len(oids)]

        def settle(self):
            """Move states whose window the oracle retired to
            ``expired``."""
            live = set(self.oracle.live_windows)
            for oid, state in list(self.current.items()):
                if int(state.t // LIFETIME) not in live:
                    self.expired.append(self.current.pop(oid))

        # ---------------------------------------------------------- #
        # Writes
        # ---------------------------------------------------------- #

        @rule(n=st.integers(min_value=1, max_value=9), hot=PICKS,
              seed=SEEDS)
        def insert(self, n, hot, seed):
            rng = random.Random(seed)
            group = [self.state(rng, self.fresh_oid(),
                                hot=(hot >> k) & 1 == 1)
                     for k in range(n)]
            if n == 1:
                self.index.insert(group[0])
            else:
                assert self.index.insert_batch(group) == n
            for state in group:
                self.oracle.insert(state)
                self.current[state.oid] = state
            self.settle()

        @rule(picks=st.lists(PICKS, min_size=1, max_size=9),
              kinds=st.lists(st.sampled_from(["live", "missing",
                                              "expired"]),
                             min_size=1, max_size=9),
              seed=SEEDS)
        def delete(self, picks, kinds, seed):
            rng = random.Random(seed)
            group = []
            for pick, kind in zip(picks, kinds):
                if kind == "live" and self.current:
                    oid = self.pick_live(pick)
                    if all(s.oid != oid for s in group):
                        group.append(self.current[oid])
                elif kind == "expired" and self.expired:
                    group.append(self.expired[pick % len(self.expired)])
                else:
                    group.append(self.state(rng, self.fresh_oid()))
            if len(group) == 1:
                flags = [self.index.delete(group[0])]
            else:
                flags = self.index.delete_batch(group)
            assert flags == [self.oracle.delete(s) for s in group]
            for state in group:
                if self.current.get(state.oid) == state:
                    del self.current[state.oid]

        @rule(pick=PICKS, old_kind=st.sampled_from(["live", "expired",
                                                    "none"]),
              same_id=st.booleans(), hot=st.booleans(), seed=SEEDS)
        def update(self, pick, old_kind, same_id, hot, seed):
            rng = random.Random(seed)
            old = None
            if old_kind == "live" and self.current:
                old = self.current[self.pick_live(pick)]
            elif old_kind == "expired" and self.expired:
                old = self.expired[pick % len(self.expired)]
            if old is None or not same_id or \
                    self.current.get(old.oid, old) != old:
                # One entry per object: an expired state's id may live
                # again under a newer state.
                oid = self.fresh_oid()
            else:
                oid = old.oid
            new = self.state(rng, oid, hot=hot)
            assert self.index.update(old, new) == self.oracle.update(old,
                                                                     new)
            if old is not None and self.current.get(old.oid) == old:
                del self.current[old.oid]
            self.current[oid] = new
            self.settle()

        @rule(picks=st.lists(PICKS, min_size=1, max_size=12),
              steps=st.lists(st.floats(min_value=0.0, max_value=1.0),
                             min_size=1, max_size=12),
              seed=SEEDS)
        def update_batch(self, picks, steps, seed):
            """Timestamp-ordered pairs; picking an object twice chains
            its second update onto the first one's new state."""
            rng = random.Random(seed)
            pairs = []
            held = dict(self.current)
            for pick, step in zip(picks, steps):
                self.clock += step
                if held and pick % 5:
                    oids = sorted(held)
                    old = held[oids[pick % len(oids)]]
                    oid = old.oid if pick % 7 else self.fresh_oid()
                else:
                    old, oid = None, self.fresh_oid()
                new = self.state(rng, oid, hot=pick % 3 == 0)
                pairs.append((old, new))
                if old is not None:
                    del held[old.oid]
                held[oid] = new
            removed = self.index.update_batch(pairs)
            assert removed == sum(self.oracle.update(old, new)
                                  for old, new in pairs)
            self.current = held
            self.settle()

        @rule(step=st.floats(min_value=0.0, max_value=1.5 * LIFETIME))
        def advance(self, step):
            self.clock += step

        # ---------------------------------------------------------- #
        # Queries
        # ---------------------------------------------------------- #

        @rule(kind=st.sampled_from(["slice", "window", "moving"]),
              span=st.sampled_from([5.0, 40.0, 2 * PMAX]), seed=SEEDS)
        def query(self, kind, span, seed):
            rng = random.Random(seed)
            low = tuple(rng.uniform(-span / 2, PMAX) for _ in range(d))
            high = tuple(x + rng.uniform(0.0, span) for x in low)
            t1 = self.clock + rng.uniform(0.0, LIFETIME)
            t2 = t1 + rng.uniform(1e-3, LIFETIME / 2)
            if kind == "slice":
                q = TimeSliceQuery(low, high, t1)
            elif kind == "window":
                q = WindowQuery(low, high, t1, t2)
            else:
                low2 = tuple(x + rng.uniform(-10.0, 10.0) for x in low)
                high2 = tuple(x + rng.uniform(0.0, span) for x in low2)
                q = MovingQuery(low, high, low2, high2, t1, t2)
            expect = sorted(self.oracle.query(q))
            assert sorted(self.index.query(q)) == expect
            raw = self.index.query(q, refine=False)
            assert set(raw) >= set(expect)
            assert self.index.count(q) == len(expect)

        # ---------------------------------------------------------- #
        # Invariants
        # ---------------------------------------------------------- #

        @invariant()
        def consistent(self):
            assert self.index.check() == []
            assert len(self.index) == len(self.oracle)

    WriteOracleMachine.__name__ = f"WriteOracleMachine_{target}"
    return WriteOracleMachine


def run(target, examples, steps):
    run_state_machine_as_test(
        machine_for(target),
        settings=settings(max_examples=examples,
                          stateful_step_count=steps, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow]))


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_writes_match_scan_oracle(target):
    run(target, examples=12, steps=30)


@pytest.mark.slow
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_writes_match_scan_oracle_long(target):
    run(target, examples=150, steps=50)
