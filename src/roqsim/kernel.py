"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG.

Time is kept as non-negative integer microseconds so that slot arithmetic is
exact and runs replay bit-for-bit.  Events with equal fire times dispatch in
insertion order (monotone sequence number breaks ties).
"""

import itertools
import random
from heapq import heappop, heappush

US_PER_S = 1_000_000

_MASK64 = 0xFFFFFFFFFFFFFFFF


def to_us(seconds):
    """Convert seconds to integer microseconds, rounding to nearest."""
    return int(round(seconds * US_PER_S))


def fmt_time(us):
    """Render integer microseconds as fixed-point seconds (trace format)."""
    return "%d.%06d" % (us // US_PER_S, us % US_PER_S)


def _mix64(x):
    # splitmix64 finalizer; stable across platforms and Python versions
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class RandomSource:
    """Seeded pseudo-random stream that can fork independent substreams.

    fork(stream_id) derives the child seed from (seed, stream_id) only, so a
    node's draws never depend on how many other nodes exist or draw.
    """

    def __init__(self, seed):
        self.seed = seed & _MASK64
        self._getrandbits = random.Random(_mix64(self.seed)).getrandbits

    def fork(self, stream_id):
        child = _mix64(self.seed ^ _mix64((stream_id + 1) & _MASK64))
        return RandomSource(child)

    def uniform_int(self, lo, hi):
        """Integer uniform on the closed range [lo, hi].

        Rejection sampling: draw n.bit_length() bits until the value is below
        n = hi - lo + 1.  That is the loop random.randint runs, so the draws
        equal randint's draw for draw.
        """
        n = hi - lo + 1
        if n <= 0:
            raise ValueError("uniform_int: empty range [%d, %d]" % (lo, hi))
        k = n.bit_length()
        r = self._getrandbits(k)
        while r >= n:
            r = self._getrandbits(k)
        return lo + r


class EventHandle(list):
    """Scheduled callback, and its own heap entry: [fire_us, seq, fn, kind, detail].

    Entries order by (fire_us, seq); seq is unique, so the comparison never
    reaches fn.  cancel() clears fn, which guarantees the event never fires;
    the entry stays in the heap until its time comes and is skipped then.
    """

    __slots__ = ()

    @property
    def fire_us(self):
        return self[0]

    @property
    def cancelled(self):
        return self[2] is None

    def cancel(self):
        self[2] = None


class Simulator:
    """Single-threaded event loop over integer-microsecond virtual time."""

    def __init__(self, seed=0, trace=None):
        self.now_us = 0
        self.rng = RandomSource(seed)
        self._heap = []
        self._seqs = itertools.count()
        self._cur_seq = -1
        self._stamp_us = -1  # trace stamp "seconds.micros\t" of time _stamp_us
        self._stamp = ""
        self.trace = trace  # file-like object or None
        self.dispatched = 0

    def schedule(self, fire_us, kind, fn, detail=""):
        """Schedule fn at absolute time fire_us; returns a cancellable handle.

        Scheduling into the past is a programming error and raises ValueError.
        """
        if fire_us < self.now_us:
            raise ValueError(
                "schedule into the past: t=%s < now=%s (%s)"
                % (fmt_time(fire_us), fmt_time(self.now_us), kind)
            )
        h = EventHandle((fire_us, next(self._seqs), fn, kind, detail))
        heappush(self._heap, h)
        return h

    def run_until(self, end_us):
        """Dispatch all events with fire time <= end_us; returns the count."""
        if end_us < self.now_us:
            raise ValueError("run_until into the past")
        heap = self._heap
        trace = self.trace
        stamp_us = self._stamp_us
        stamp = self._stamp
        count = 0
        while heap and heap[0][0] <= end_us:
            fire_us, seq, fn, kind, detail = heappop(heap)
            if fn is None:
                continue
            self.now_us = fire_us
            if trace is not None:
                if fire_us != stamp_us:  # many events share a timestamp
                    stamp = "%d.%06d\t" % divmod(fire_us, US_PER_S)
                    self._stamp_us = stamp_us = fire_us
                    self._stamp = stamp
                self._cur_seq = seq  # only trace_line reads it
                trace.write(f"{stamp}{seq}\t{kind}\t{detail}\n")
            fn()
            count += 1
        self.now_us = end_us
        self.dispatched += count
        return count

    def trace_line(self, kind, detail):
        """Emit an extra trace line attributed to the current dispatch."""
        if self.trace is not None:
            if self._stamp_us != self.now_us:  # outside a dispatch
                self._stamp_us = self.now_us
                self._stamp = fmt_time(self.now_us) + "\t"
            self.trace.write(f"{self._stamp}{self._cur_seq}\t{kind}\t{detail}\n")
