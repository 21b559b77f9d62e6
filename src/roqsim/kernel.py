"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG.

Time is kept as non-negative integer microseconds so that slot arithmetic is
exact and runs replay bit-for-bit.  Events dispatch in (fire time, seq) order,
seq being a counter that schedule() advances.

The queue is a heap of distinct fire times plus, for each pending time, the
list ("bucket") of that instant's handles in seq order.  Many events share a
microsecond (one NAV check per station that heard an RTS, one DIFS end per
contender), and each of them joins its bucket with a list append instead of
a heap push.  run_until() pops one time and dispatches its bucket in one
pass; an event scheduled at the current instant during the pass joins the
same bucket, so it runs in that pass after every event already queued there.

A traced run writes one line per dispatched event.  Its "seconds.micros"
time column is stamped once per instant, when the instant's first live
handle dispatches; an instant holding only cancelled handles stamps nothing.
The "seconds." prefix is kept while instants stay in one second, and the
micros come from a table of three-digit strings, so a stamp's bytes equal
fmt_time()'s.
"""

import itertools
import random
from heapq import heappop, heappush

US_PER_S = 1_000_000

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Most events one instant may hold: the backstop against a callback that
# reschedules itself at the current time forever.
MAX_EVENTS_PER_INSTANT = 100_000

# "000" .. "999": a trace stamp's microseconds are two of these
_DIGITS = tuple("%03d" % n for n in range(1000))


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
    """Scheduled callback: [fire_us, seq, fn, kind, detail].

    The handle sits in the bucket of its fire time, behind every handle
    scheduled for that instant before it.  cancel() clears fn, which
    guarantees the event never fires; the handle stays in its bucket and is
    skipped when the bucket is dispatched.
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
        self._times = []  # heap of the distinct pending fire times
        self._buckets = {}  # fire time -> that instant's handles, in seq order
        self._seqs = itertools.count()
        self._cur_seq = -1
        self._stamp = None  # "seconds.micros\t" of the traced bucket being dispatched
        self.trace = trace  # file-like object or None
        self.dispatched = 0

    def schedule(self, fire_us, kind, fn, detail=""):
        """Schedule fn at absolute time fire_us; returns a cancellable handle.

        Scheduling into the past is a programming error and raises ValueError,
        as does scheduling at the current time once the current instant holds
        MAX_EVENTS_PER_INSTANT events.
        """
        if fire_us <= self.now_us:
            self._check_now(fire_us, kind)
        h = EventHandle((fire_us, next(self._seqs), fn, kind, detail))
        bucket = self._buckets.get(fire_us)
        if bucket is None:
            self._buckets[fire_us] = [h]
            heappush(self._times, fire_us)
        else:
            bucket.append(h)
        return h

    def _check_now(self, fire_us, kind):
        # Only an event due now can keep one instant from ever ending.
        if fire_us < self.now_us:
            raise ValueError(
                "schedule into the past: t=%s < now=%s (%s)"
                % (fmt_time(fire_us), fmt_time(self.now_us), kind)
            )
        if len(self._buckets.get(fire_us, ())) >= MAX_EVENTS_PER_INSTANT:
            raise ValueError(
                "more than %d events at t=%s (last scheduled: %s): a zero-delay loop"
                % (MAX_EVENTS_PER_INSTANT, fmt_time(fire_us), kind)
            )

    def run_until(self, end_us):
        """Dispatch all events with fire time <= end_us; returns the count.

        A callback that raises ends the run: the rest of its instant is left
        undispatched and the simulator must not be run further.
        """
        if end_us < self.now_us:
            raise ValueError("run_until into the past")
        times = self._times
        buckets = self._buckets
        trace = self.trace
        second_start = second_end = 0  # the traced second whose "seconds." prefix is cached
        count = 0
        while times and times[0] <= end_us:
            fire_us = heappop(times)
            self.now_us = fire_us
            bucket = buckets[fire_us]
            if trace is None:
                for h in bucket:  # also reaches handles appended during the pass
                    fn = h[2]
                    if fn is not None:
                        fn()
                        count += 1
            else:
                stamp = None  # built at the instant's first dispatch, if any
                for _, seq, fn, kind, detail in bucket:
                    if fn is not None:
                        if stamp is None:
                            if fire_us >= second_end:
                                second_start = fire_us - fire_us % US_PER_S
                                second_end = second_start + US_PER_S
                                prefix = "%d." % (fire_us // US_PER_S)
                            us = fire_us - second_start
                            stamp = f"{prefix}{_DIGITS[us // 1000]}{_DIGITS[us % 1000]}\t"
                            self._stamp = stamp
                        self._cur_seq = seq  # only trace_line reads it
                        trace.write(f"{stamp}{seq}\t{kind}\t{detail}\n")
                        fn()
                        count += 1
            del buckets[fire_us]
        self._stamp = None
        self.now_us = end_us
        self.dispatched += count
        return count

    def trace_line(self, kind, detail):
        """Emit an extra trace line attributed to the current dispatch."""
        if self.trace is not None:
            stamp = self._stamp or fmt_time(self.now_us) + "\t"  # None outside a dispatch
            self.trace.write(f"{stamp}{self._cur_seq}\t{kind}\t{detail}\n")
