"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on a few cores of a shared host.  Other tenants'
load there makes the same Python code run up to two or three times
slower for stretches of seconds to minutes, with CPU time equal to wall
time and no steal, so a run's times depend on when it ran more than on
the program.  :class:`SpeedLog` runs a small fixed kernel every
``interval`` seconds while a workload runs and records how long each
call took on the calling thread's CPU clock (so waiting for the
interpreter lock does not count).  The kernel touches memory the way the
index does: a pointer chase through a Python list larger than the
per-core caches, ``struct`` decoding from a byte buffer and small numpy
column filters.  It does not depend on the program.

A time measured at ``t`` is reported as
``time * (REFERENCE_S / probe) ** sensitivity``, where ``probe`` is the
median of the probe calls nearest to ``t`` and ``sensitivity`` how much
faster than the probe the workload slows down: the time the same work
would have taken on a host where one probe call takes ``REFERENCE_S``.
Work that gets faster in the program still shows in full; a slow
stretch of the host mostly cancels.
"""

from __future__ import annotations

import random
import struct
from time import perf_counter, thread_time

import numpy as np

#: One probe call's CPU time on the host the bounds were set on, when
#: nothing else loaded it (Xeon, KVM guest, 2 vCPUs, CPython 3.11).
REFERENCE_S = 0.0012

#: Probe calls on each side of a measured time whose median scales it.
WINDOW = 3

_CHASE = 1 << 18        # list slots: ints scattered over ~9 MB
_STEPS = 6000
_UNPACKS = 800
_FILTERS = 60


class _Kernel:
    """The fixed probe work, built once from a fixed seed."""

    def __init__(self):
        rng = random.Random(20040601)
        order = list(range(_CHASE))
        rng.shuffle(order)
        # A single cycle through all slots, with ints well above the
        # small-int cache so every step loads a separate object.
        nxt = [0] * _CHASE
        for a, b in zip(order, order[1:] + order[:1]):
            nxt[a] = b + 1_000_000
        self.next = nxt
        self.buf = rng.randbytes(1 << 22)
        self.offsets = [rng.randrange(len(self.buf) - 64)
                        for _ in range(_UNPACKS)]
        self.record = struct.Struct("<q4d")
        self.columns = np.random.default_rng(7).random((256, 4))

    def __call__(self):
        nxt, i = self.next, 0
        for _ in range(_STEPS):
            i = nxt[i] - 1_000_000
        unpack = self.record.unpack_from
        buf = self.buf
        rows = [unpack(buf, o) for o in self.offsets]
        cols = self.columns
        kept = 0
        for j in range(_FILTERS):
            lo = (j % 10) / 20.0
            mask = (cols[:, 0] >= lo) & (cols[:, 1] <= lo + 0.5)
            kept += int(np.count_nonzero(mask))
        return i + len(rows) + kept


class SpeedLog:
    """Probe calls made during one run, and the scaling they imply."""

    def __init__(self, sensitivity, interval=0.1):
        self.sensitivity = sensitivity
        self.interval = interval
        self.kernel = _Kernel()
        self.kernel()                    # warm the kernel's caches
        self.at = []                     # perf_counter() of each call
        self.took = []                   # its CPU time, seconds
        self.due = 0.0

    def probe(self):
        """One probe call, recorded; returns its CPU time."""
        start = thread_time()
        self.kernel()
        took = thread_time() - start
        self.at.append(perf_counter())
        self.took.append(took)
        self.due = self.at[-1] + self.interval
        return took

    def burst(self, n=WINDOW):
        for _ in range(n):
            self.probe()

    def factors(self, times):
        """``(REFERENCE_S / probe) ** sensitivity`` at each
        ``perf_counter()`` time in ``times``, ``probe`` being the median
        of the nearest ``2 * WINDOW`` calls."""
        if not self.at:
            raise RuntimeError("no probe calls recorded")
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        order = np.argsort(at)
        at, took = at[order], took[order]
        n = len(at)
        pos = np.searchsorted(at, np.asarray(times, dtype=np.float64))
        lo = np.clip(pos - WINDOW, 0, max(0, n - 2 * WINDOW))
        out = np.empty(len(pos))
        for k, start in enumerate(lo.tolist()):
            out[k] = np.median(took[start:start + 2 * WINDOW])
        return (REFERENCE_S / out) ** self.sensitivity

    def timeline(self, start, ends):
        """Completion times at reference speed, from ``(at, end)`` pairs:
        ``at`` is a completion's ``perf_counter()`` time and ``end`` the
        same less any time spent outside the measured work since
        ``start``; each gap between completions is scaled by the
        factor at its end."""
        if not ends:
            return []
        at, end = (np.asarray(c, dtype=np.float64) for c in zip(*ends))
        gaps = np.diff(end, prepend=start) * self.factors(at)
        return np.cumsum(gaps).tolist()

    def scale(self, durations, times):
        """``durations`` (seconds) measured at ``times``, at reference
        speed."""
        if not len(durations):
            return []
        return (np.asarray(durations, dtype=np.float64)
                * self.factors(times)).tolist()
