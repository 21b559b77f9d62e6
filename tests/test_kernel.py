"""Event loop, virtual clock, and seeded RNG behaviour."""

import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roqsim.kernel import (
    MAX_EVENTS_PER_INSTANT, RandomSource, Simulator, _mix64, fmt_time, to_us)


def test_to_us_rounds_to_nearest():
    assert to_us(1.0) == 1_000_000
    assert to_us(0.0000014) == 1
    assert to_us(0.0000016) == 2
    assert to_us(0.3) == 300_000
    assert to_us(51.2) == 51_200_000


def test_fmt_time_fixed_point():
    assert fmt_time(0) == "0.000000"
    assert fmt_time(1_234_567) == "1.234567"
    assert fmt_time(100_000_000) == "100.000000"


def test_events_fire_in_time_order():
    sim = Simulator(seed=0)
    seen = []
    sim.schedule(300, "c", lambda: seen.append("c"))
    sim.schedule(100, "a", lambda: seen.append("a"))
    sim.schedule(200, "b", lambda: seen.append("b"))
    sim.run_until(1000)
    assert seen == ["a", "b", "c"]
    assert sim.now_us == 1000
    assert sim.dispatched == 3


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator(seed=0)
    seen = []
    for tag in ("first", "second", "third"):
        sim.schedule(500, tag, lambda t=tag: seen.append(t))
    sim.run_until(500)
    assert seen == ["first", "second", "third"]


def test_schedule_into_past_raises():
    sim = Simulator(seed=0)
    sim.schedule(10, "x", lambda: None)
    sim.run_until(50)
    with pytest.raises(ValueError):
        sim.schedule(49, "late", lambda: None)
    with pytest.raises(ValueError):
        sim.run_until(10)


def test_cancelled_event_never_fires():
    sim = Simulator(seed=0)
    seen = []
    h = sim.schedule(100, "x", lambda: seen.append("x"))
    sim.schedule(100, "y", lambda: seen.append("y"))
    h.cancel()
    sim.run_until(200)
    assert seen == ["y"]
    assert sim.dispatched == 1


def test_events_scheduled_during_dispatch_run_same_pass():
    sim = Simulator(seed=0)
    seen = []

    def outer():
        seen.append("outer")
        sim.schedule(sim.now_us + 5, "inner", lambda: seen.append("inner"))

    sim.schedule(10, "outer", outer)
    sim.run_until(100)
    assert seen == ["outer", "inner"]


def test_run_until_boundary_inclusive():
    sim = Simulator(seed=0)
    seen = []
    sim.schedule(100, "edge", lambda: seen.append(1))
    sim.run_until(100)
    assert seen == [1]


# live instants on both sides of second boundaries, and far past 100 s
_STAMPED = [(0, "0.000000"), (42, "0.000042"), (999_999, "0.999999"), (1_000_000, "1.000000"),
            (1_000_001, "1.000001"), (2_000_000, "2.000000"), (10**11 + 7, "100000.000007")]


def _trace_stamped(gone):
    # every _STAMPED instant dispatches a "tick" that writes an extra line;
    # each time in gone holds a cancelled event only
    buf = io.StringIO()
    sim = Simulator(seed=0, trace=buf)

    def fire():
        sim.trace_line("extra", "detail=1")

    for fire_us, _ in _STAMPED:
        sim.schedule(fire_us, "tick", fire, detail="d")
    for fire_us in gone:  # scheduled last, so the live events keep their seqs
        sim.schedule(fire_us, "gone", fire).cancel()
    sim.run_until(10**11 + 7)
    return buf.getvalue()


def test_trace_format():
    want = "".join("%s\t%d\ttick\td\n%s\t%d\textra\tdetail=1\n" % (stamp, seq, stamp, seq)
                   for seq, (_, stamp) in enumerate(_STAMPED))
    assert want.startswith("0.000000\t0\ttick\td\n0.000000\t0\textra\tdetail=1\n"
                           "0.000042\t1\ttick\td\n0.000042\t1\textra\tdetail=1\n")
    assert _trace_stamped(gone=()) == want
    # instants holding only cancelled events, each right before a live one:
    # within a second, at the end of a second, at the start of a second.
    # Each run is a new simulator that starts at 0 after the last one passed
    # 100 s, so no stamp carries over from another simulator in the process.
    for gone in [(5, 999_998), (1_999_999,), (10**11,)]:
        assert _trace_stamped(gone) == want, gone


def test_trace_line_outside_dispatch():
    # seconds.micros, then the seq of the last dispatch (-1 before any)
    buf = io.StringIO()
    sim = Simulator(seed=0, trace=buf)
    sim.trace_line("start", "a=1")
    for end_us in (999_999, 1_000_000, 1_000_001):
        sim.run_until(end_us)
        sim.trace_line("idle", "t=%d" % end_us)
    sim.schedule(2_000_042, "tick", lambda: None, detail="d")
    sim.run_until(12_500_000)
    sim.trace_line("end", "b=2")
    sim.run_until(10**11 + 7)
    sim.trace_line("late", "c=3")
    assert buf.getvalue() == (
        "0.000000\t-1\tstart\ta=1\n"
        "0.999999\t-1\tidle\tt=999999\n"
        "1.000000\t-1\tidle\tt=1000000\n"
        "1.000001\t-1\tidle\tt=1000001\n"
        "2.000042\t0\ttick\td\n"
        "12.500000\t0\tend\tb=2\n"
        "100000.000007\t0\tlate\tc=3\n"
    )

    # a second simulator in this process, after the first passed 100 s,
    # stamps from its own clock
    buf = io.StringIO()
    again = Simulator(seed=0, trace=buf)
    again.trace_line("start", "a=1")
    again.schedule(5, "gone", lambda: None).cancel()
    again.schedule(999_999, "tick", lambda: again.trace_line("in", "x=1"))
    again.run_until(1_000_000)
    again.trace_line("end", "b=2")
    assert buf.getvalue() == (
        "0.000000\t-1\tstart\ta=1\n"
        "0.999999\t1\ttick\t\n"
        "0.999999\t1\tin\tx=1\n"
        "1.000000\t1\tend\tb=2\n"
    )


def test_cancel_at_current_timestamp_stops_the_event():
    sim = Simulator(seed=0)
    seen = []
    later = []

    def first():
        seen.append("first")
        later[0].cancel()

    sim.schedule(100, "first", first)
    later.append(sim.schedule(100, "second", lambda: seen.append("second")))
    sim.run_until(100)
    assert seen == ["first"]
    assert sim.dispatched == 1


def test_cancel_after_dispatch_is_a_no_op():
    sim = Simulator(seed=0)
    seen = []
    h = sim.schedule(10, "x", lambda: seen.append("x"))
    sim.schedule(20, "y", lambda: seen.append("y"))
    sim.run_until(10)
    h.cancel()
    h.cancel()
    sim.run_until(30)
    assert seen == ["x", "y"]
    assert sim.dispatched == 2


def test_handle_reads_back_fire_time_and_cancelled():
    sim = Simulator(seed=0)
    sim.run_until(5)
    h = sim.schedule(sim.now_us + 70, "x", lambda: None)
    assert h.fire_us == 75
    assert not h.cancelled
    h.cancel()
    assert h.cancelled
    assert h.fire_us == 75


def test_bucket_grows_while_it_is_dispatched():
    # events scheduled at the current instant run in the same pass, after
    # every event already queued for it, in the order they were scheduled
    sim = Simulator(seed=0)
    seen = []

    def parent(tag):
        seen.append(tag)
        sim.schedule(sim.now_us, tag + ".child", lambda: child(tag))

    def child(tag):
        seen.append(tag + ".child")
        if tag == "a":
            sim.schedule(sim.now_us, "a.grandchild", lambda: seen.append("a.grandchild"))

    sim.schedule(50, "a", lambda: parent("a"))
    sim.schedule(50, "b", lambda: parent("b"))
    sim.schedule(51, "later", lambda: seen.append("later"))
    assert sim.run_until(50) == 5
    assert seen == ["a", "b", "a.child", "b.child", "a.grandchild"]
    assert sim.run_until(60) == 1


def test_schedule_at_now_after_run_until_ends_on_the_instant():
    buf = io.StringIO()
    sim = Simulator(seed=0, trace=buf)
    seen = []
    sim.schedule(100, "first", lambda: seen.append("first"))
    assert sim.run_until(100) == 1
    sim.schedule(100, "second", lambda: seen.append("second"))
    sim.schedule(100, "third", lambda: seen.append("third"))
    assert sim.run_until(100) == 2
    assert seen == ["first", "second", "third"]
    assert (sim.now_us, sim.dispatched) == (100, 3)
    assert buf.getvalue() == (
        "0.000100\t0\tfirst\t\n0.000100\t1\tsecond\t\n0.000100\t2\tthird\t\n")


def test_cancel_inside_the_bucket_being_dispatched():
    sim = Simulator(seed=0)
    seen = []
    handles = {}

    def first():
        seen.append("first")
        handles["first"].cancel()  # already running: a no-op
        handles["appended"] = sim.schedule(sim.now_us, "appended", lambda: seen.append("appended"))
        handles["second"].cancel()

    def third():
        seen.append("third")
        handles["appended"].cancel()  # joined the bucket behind this event

    handles["first"] = sim.schedule(10, "first", first)
    handles["second"] = sim.schedule(10, "second", lambda: seen.append("second"))
    sim.schedule(10, "third", third)
    assert sim.run_until(10) == 2
    assert seen == ["first", "third"]
    assert sim.run_until(20) == 0


def test_an_event_rescheduling_itself_now_raises_instead_of_hanging():
    sim = Simulator(seed=0)
    fires = []

    def spin():
        fires.append(sim.now_us)
        sim.schedule(sim.now_us, "spin", spin)

    sim.schedule(100, "spin", spin)
    message = "more than %d events at t=0.000100 (last scheduled: spin)" % MAX_EVENTS_PER_INSTANT
    with pytest.raises(ValueError, match=re.escape(message)):
        sim.run_until(1_000)
    assert fires == [100] * MAX_EVENTS_PER_INSTANT


class _SortedListQueue:
    """Reference event queue: one list kept sorted by (fire time, seq)."""

    def __init__(self):
        self.now_us = 0
        self.dispatched = 0
        self.lines = []
        self._pending = []  # [fire_us, seq, fn, kind, detail]
        self._seq = 0
        self._last_seq = -1

    def schedule(self, fire_us, kind, fn, detail):
        assert fire_us >= self.now_us
        entry = [fire_us, self._seq, fn, kind, detail]
        self._seq += 1
        self._pending.append(entry)
        self._pending.sort(key=lambda e: (e[0], e[1]))
        return entry

    @staticmethod
    def cancel(entry):
        entry[2] = None

    def run_until(self, end_us):
        count = 0
        while self._pending and self._pending[0][0] <= end_us:
            fire_us, seq, fn, kind, detail = self._pending.pop(0)
            if fn is not None:
                self.now_us = fire_us
                self._last_seq = seq
                self.trace_line(kind, detail)
                fn()
                count += 1
        self.now_us = end_us
        self.dispatched += count
        return count

    def trace_line(self, kind, detail):
        self.lines.append("%d.%06d\t%d\t%s\t%s\n" % (
            self.now_us // 1_000_000, self.now_us % 1_000_000, self._last_seq, kind, detail))


_MAX_EVENTS = 200  # per program, so that zero-delay chains end
# delays and times on both sides of second boundaries, where the trace's
# "seconds." prefix changes
_DELAYS = [0, 0, 0, 1, 3, 20, 999_990, 999_999, 1_000_000]
_ACTIONS = st.lists(st.one_of(
    st.tuples(st.just("at"), st.sampled_from(_DELAYS)),  # schedule at now + delay
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),  # any handle made so far
    st.tuples(st.just("note"), st.integers(0, 9)),  # trace_line
), max_size=3)


def _play(queue, cancel, programs, initial, slices):
    """Run one program on a queue; return what a caller can observe."""
    handles = []
    log = []

    def add(fire_us):
        if len(handles) < _MAX_EVENTS:
            i = len(handles)
            handles.append(queue.schedule(fire_us, "k%d" % (i % 3), lambda: fire(i), "i=%d" % i))

    def act(actions):
        for op, arg in actions:
            if op == "at":
                add(queue.now_us + arg)
            elif op == "cancel" and handles:
                cancel(handles[arg % len(handles)])
            elif op == "note":
                queue.trace_line("note", "n=%d" % arg)

    def fire(i):
        log.append(("fire", i, queue.now_us))
        act(programs[i % len(programs)])

    for fire_us in initial:
        add(fire_us)
    # run_until in slices, as the bench's probe does, acting between them
    for step, actions in slices + [(10**9, [])]:
        end_us = queue.now_us + step
        log.append(("slice", queue.run_until(end_us), queue.now_us, queue.dispatched))
        act(actions)
    return log


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(programs=st.lists(_ACTIONS, min_size=1, max_size=6),
       initial=st.lists(st.one_of(st.integers(0, 40), st.integers(999_990, 1_000_010),
                                  st.integers(2_000_000, 2_000_040)), max_size=12),
       slices=st.lists(st.tuples(st.one_of(st.integers(0, 15), st.sampled_from(_DELAYS)),
                                 _ACTIONS), max_size=8))
def test_dispatch_order_equals_a_sorted_list_queue(programs, initial, slices):
    ref = _SortedListQueue()
    want = _play(ref, ref.cancel, programs, initial, slices)
    buf = io.StringIO()
    for trace in (None, buf):  # the kernel dispatches on two paths
        sim = Simulator(seed=0, trace=trace)
        assert _play(sim, lambda h: h.cancel(), programs, initial, slices) == want
    assert buf.getvalue() == "".join(ref.lines)


def test_rng_repeatable_across_instances():
    a = RandomSource(1234)
    b = RandomSource(1234)
    assert [a.uniform_int(0, 1023) for _ in range(50)] == [
        b.uniform_int(0, 1023) for _ in range(50)
    ]


def test_rng_seeds_differ():
    a = RandomSource(1)
    b = RandomSource(2)
    assert [a.uniform_int(0, 10**9) for _ in range(8)] != [
        b.uniform_int(0, 10**9) for _ in range(8)
    ]


def test_fork_isolated_from_parent_draw_order():
    # a node's stream depends only on (seed, stream id), not on when it forks
    a = RandomSource(7)
    child_early = a.fork(3)
    b = RandomSource(7)
    for _ in range(100):
        b.uniform_int(0, 99)
    child_late = b.fork(3)
    assert [child_early.uniform_int(0, 10**6) for _ in range(20)] == [
        child_late.uniform_int(0, 10**6) for _ in range(20)
    ]


def test_fork_streams_independent():
    root = RandomSource(42)
    s1 = root.fork(1)
    s2 = root.fork(2)
    assert [s1.uniform_int(0, 10**9) for _ in range(8)] != [
        s2.uniform_int(0, 10**9) for _ in range(8)
    ]


def test_uniform_int_bounds_and_errors():
    rng = RandomSource(99)
    draws = [rng.uniform_int(3, 9) for _ in range(500)]
    assert min(draws) >= 3 and max(draws) <= 9
    assert set(draws) == set(range(3, 10))  # all values reachable
    assert rng.uniform_int(5, 5) == 5
    with pytest.raises(ValueError):
        rng.uniform_int(6, 5)


@pytest.mark.parametrize(
    "lo, hi", [(0, 0), (0, 7), (0, 31), (0, 1023), (-5000, 5000), (0, 10**9), (0, 2**70)])
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_uniform_int_draws_equal_randint(lo, hi, seed):
    # uniform_int runs randint's getrandbits rejection loop itself; the draws
    # (and so every pinned digest) must not move.  The (0, 1023) draw between
    # two draws shows that both consumed the same bits, even where lo == hi.
    ours = RandomSource(seed)
    theirs = random.Random(_mix64(seed))
    assert [(ours.uniform_int(lo, hi), ours.uniform_int(0, 1023)) for _ in range(200)] == [
        (theirs.randint(lo, hi), theirs.randint(0, 1023)) for _ in range(200)
    ]
    with pytest.raises(ValueError):
        ours.uniform_int(hi + 1, hi)
