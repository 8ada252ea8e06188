"""Fault injection for the storage stack: failpoints and crash simulation.

Two mechanisms, both driven by the crash-matrix harness
(:mod:`repro.bench.crashmatrix`) and the recovery tests:

* :class:`FaultyPageFile` -- a :class:`repro.storage.pagefile.PageFile`
  wrapper that counts every read/write/sync and can be armed to fail the
  Nth write with a :class:`TransientIOError`, tear the Nth write at a
  byte offset, or simulate a process crash at the Nth read or write.
  The wrapper also models *durability*: a write is volatile until the
  next :meth:`FaultyPageFile.sync`, and :meth:`durable_image` returns
  the page images a crash would leave behind under a chosen survival
  policy (``"none"`` -- unsynced writes are lost, the strict fsync
  model; ``"all"`` -- every write reached the platter; or a seeded
  random mix).  Recovery code must be correct under every policy.

* :data:`FAILPOINTS` -- a process-wide named-failpoint registry.  The
  checkpoint/journal code calls ``FAILPOINTS.hit("checkpoint.sidecar_tmp")``
  at each step of its protocol; a test arms a name to raise at its Nth
  hit, which simulates a crash *between* page-file operations (mid
  journal write, mid sidecar rename, ...).  Unarmed hits cost one dict
  lookup.

Simulated crashes raise :class:`InjectedCrash`; after one fires the
page file is *frozen* -- every further operation re-raises, the way a
dead process stops issuing IO -- and the harness reopens the index from
:meth:`FaultyPageFile.durable_image`.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union

from repro.storage.pagefile import InMemoryPageFile, PageFile

__all__ = [
    "TransientIOError",
    "InjectedCrash",
    "FaultyPageFile",
    "FailpointRegistry",
    "FAILPOINTS",
]


class TransientIOError(IOError):
    """A retryable IO failure: the operation did not happen, but an
    identical retry may succeed.  Storage backends raise this (and only
    this) to signal retryability to the service layer."""


class InjectedCrash(RuntimeError):
    """A simulated process death at a failpoint.  Whatever the crash
    interrupted did not happen; the on-disk state is whatever
    :meth:`FaultyPageFile.durable_image` reports."""


class FailpointRegistry:
    """Named code-site failpoints with one-shot arming.

    ``hit(name)`` is sprinkled through the checkpoint/recovery code;
    :meth:`arm` makes the Nth hit of a name raise.  :meth:`record`
    captures the ordered hit sequence so a harness can first discover
    every failpoint a workload crosses, then crash at each in turn.
    """

    def __init__(self) -> None:
        # name -> [remaining hits before firing, action]
        self._armed: Dict[str, list] = {}
        self._recording: Optional[List[str]] = None

    def hit(self, name: str) -> None:
        """Register one crossing of failpoint ``name`` (raises if armed)."""
        if self._recording is not None:
            self._recording.append(name)
        slot = self._armed.get(name)
        if slot is None:
            return
        slot[0] -= 1
        if slot[0] > 0:
            return
        del self._armed[name]
        if slot[1] == "transient":
            raise TransientIOError(f"injected transient error at {name}")
        raise InjectedCrash(f"injected crash at failpoint {name}")

    def arm(self, name: str, hit_number: int = 1,
            action: str = "crash") -> None:
        """Make the ``hit_number``-th future hit of ``name`` raise
        (``action``: ``"crash"`` or ``"transient"``).  One-shot."""
        if hit_number < 1:
            raise ValueError("hit_number must be >= 1")
        if action not in ("crash", "transient"):
            raise ValueError(f"unknown failpoint action {action!r}")
        self._armed[name] = [hit_number, action]

    def clear(self) -> None:
        """Disarm everything and stop recording."""
        self._armed.clear()
        self._recording = None

    @contextmanager
    def record(self) -> Iterator[List[str]]:
        """Capture every hit name, in order, for the duration of the
        block (nested recording is not supported)."""
        hits: List[str] = []
        self._recording = hits
        try:
            yield hits
        finally:
            self._recording = None


#: Process-wide registry the storage/persistence code reports hits to.
FAILPOINTS = FailpointRegistry()

#: Survival policy for unsynced writes at crash time.
SurvivalPolicy = Union[str, random.Random]


class FaultyPageFile(PageFile):
    """Failpoint-driven wrapper around another :class:`PageFile`.

    Delegates storage entirely to ``inner`` (allocation state included);
    adds operation counting, armable faults, and the volatile/durable
    write model described in the module docstring.
    """

    def __init__(self, inner: PageFile):
        super().__init__(inner.page_size)
        self.inner = inner
        self.reads = 0
        self.writes = 0
        self.syncs = 0
        self.crashed = False
        # First pre-write image of every page written since the last
        # sync: what the platter still holds if the write never lands.
        self._preimages: Dict[int, bytes] = {}
        # Armed faults: absolute operation numbers (1-based).
        self._fail_writes: Dict[int, None] = {}
        self._fail_reads: Dict[int, None] = {}
        self._crash_at_write: Optional[int] = None
        self._crash_at_read: Optional[int] = None
        self._tear_at_write: Optional[int] = None
        self._tear_bytes = 0

    # ------------------------------------------------------------------ #
    # Arming
    # ------------------------------------------------------------------ #

    def fail_writes_at(self, first: int, times: int = 1) -> None:
        """Writes ``first .. first+times-1`` (1-based, counted over the
        file's lifetime) raise :class:`TransientIOError` without
        applying."""
        for n in range(first, first + times):
            self._fail_writes[n] = None

    def fail_next_writes(self, times: int = 1) -> None:
        """The next ``times`` writes raise :class:`TransientIOError`."""
        self.fail_writes_at(self.writes + 1, times)

    def fail_reads_at(self, first: int, times: int = 1) -> None:
        """Reads ``first .. first+times-1`` raise
        :class:`TransientIOError`."""
        for n in range(first, first + times):
            self._fail_reads[n] = None

    def fail_next_reads(self, times: int = 1) -> None:
        """The next ``times`` reads raise :class:`TransientIOError`."""
        self.fail_reads_at(self.reads + 1, times)

    def crash_at_write(self, n: int) -> None:
        """Simulate a crash *instead of* applying the ``n``-th write."""
        self._crash_at_write = n

    def crash_at_read(self, n: int) -> None:
        """Simulate a crash instead of serving the ``n``-th read."""
        self._crash_at_read = n

    def tear_at_write(self, n: int, byte_offset: int) -> None:
        """The ``n``-th write lands only its first ``byte_offset`` bytes
        (durably -- the partial sector reached the platter), then the
        process crashes."""
        if not 0 <= byte_offset <= self.page_size:
            raise ValueError(
                f"tear offset {byte_offset} outside page of "
                f"{self.page_size} bytes")
        self._tear_at_write = n
        self._tear_bytes = byte_offset

    def clear_faults(self) -> None:
        """Disarm every pending fault (counters keep running)."""
        self._fail_writes.clear()
        self._fail_reads.clear()
        self._crash_at_write = None
        self._crash_at_read = None
        self._tear_at_write = None

    # ------------------------------------------------------------------ #
    # Crash image
    # ------------------------------------------------------------------ #

    def _crash(self, reason: str) -> None:
        self.crashed = True
        raise InjectedCrash(reason)

    def durable_image(self, survival: SurvivalPolicy = "none") -> List[bytes]:
        """Page images a reopening process would find after a crash.

        ``survival`` decides the fate of writes issued since the last
        :meth:`sync`: ``"none"`` reverts them all to their pre-image
        (strict fsync semantics), ``"all"`` keeps them (the page cache
        made it out), and a :class:`random.Random` keeps each
        independently with probability one half (the adversarial mixed
        outcome recovery must also survive).
        """
        images = [bytes(self.inner.read(pid))
                  for pid in range(self.inner.capacity_pages)]
        if survival == "all":
            return images
        for page_id, pre in self._preimages.items():
            if survival == "none" or not survival.getrandbits(1):
                images[page_id] = pre
        return images

    def reopen_durable(self, survival: SurvivalPolicy = "none") \
            -> InMemoryPageFile:
        """Fresh in-memory page file holding :meth:`durable_image`."""
        return InMemoryPageFile.from_images(self.durable_image(survival),
                                            page_size=self.page_size)

    # ------------------------------------------------------------------ #
    # PageFile interface (full delegation to ``inner``)
    # ------------------------------------------------------------------ #

    @property
    def num_pages(self) -> int:
        return self.inner.num_pages

    @property
    def capacity_pages(self) -> int:
        return self.inner.capacity_pages

    def allocate(self) -> int:
        self._check_alive()
        return self.inner.allocate()

    def free(self, page_id: int) -> None:
        self._check_alive()
        self.inner.free(page_id)

    def free_page_ids(self):
        return self.inner.free_page_ids()

    def read(self, page_id: int, into: bytearray | None = None) -> bytearray:
        # An armed fault raises before ``into`` is touched.
        self._check_alive()
        self.reads += 1
        n = self.reads
        if n == self._crash_at_read:
            self._crash(f"crash at read #{n} (page {page_id})")
        if n in self._fail_reads:
            del self._fail_reads[n]
            raise TransientIOError(
                f"injected transient failure of read #{n} (page {page_id})")
        return self.inner.read(page_id, into)

    def write(self, page_id: int, data: bytes) -> None:
        # Neither image keeps ``data``: the inner file copies what it
        # writes, and a pre-image or torn page is bytes of its own.
        self._check_alive()
        if len(data) != self.page_size:
            raise ValueError(
                f"page write must be exactly {self.page_size} bytes, "
                f"got {len(data)}")
        self.writes += 1
        n = self.writes
        if n in self._fail_writes:
            del self._fail_writes[n]
            raise TransientIOError(
                f"injected transient failure of write #{n} (page {page_id})")
        if n == self._crash_at_write:
            self._crash(f"crash at write #{n} (page {page_id})")
        if n == self._tear_at_write:
            current = bytes(self.inner.read(page_id))
            torn = data[: self._tear_bytes] + current[self._tear_bytes:]
            # The torn half-write reached the platter: no pre-image.
            self.inner.write(page_id, torn)
            self._preimages.pop(page_id, None)
            self._crash(f"torn write #{n} (page {page_id}, "
                        f"{self._tear_bytes} bytes applied)")
        if page_id not in self._preimages:
            self._preimages[page_id] = bytes(self.inner.read(page_id))
        self.inner.write(page_id, data)

    def sync(self) -> None:
        self._check_alive()
        self.syncs += 1
        self._preimages.clear()
        self.inner.sync()

    def close(self) -> None:
        self.inner.close()

    def _check_alive(self) -> None:
        if self.crashed:
            raise InjectedCrash(
                "page file is frozen after a simulated crash")

    # The abstract hooks are never reached (all public entry points
    # delegate), but the ABC requires them.
    def _extend_to(self, num_pages: int) -> None:  # pragma: no cover
        raise AssertionError("FaultyPageFile delegates to inner")

    def _read_page(self, page_id: int,
                   into: bytearray) -> None:  # pragma: no cover
        raise AssertionError("FaultyPageFile delegates to inner")

    def _write_page(self, page_id: int, data: bytes) -> None:  # pragma: no cover
        raise AssertionError("FaultyPageFile delegates to inner")

    def __repr__(self) -> str:
        return (f"FaultyPageFile(reads={self.reads}, writes={self.writes}, "
                f"syncs={self.syncs}, crashed={self.crashed})")
