"""Event loop, virtual clock, and seeded RNG behaviour."""

import io
import random

import pytest

from roqsim.kernel import RandomSource, Simulator, _mix64, fmt_time, to_us


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


def test_trace_format():
    buf = io.StringIO()
    sim = Simulator(seed=0, trace=buf)

    def fire():
        sim.trace_line("extra", "detail=1")

    sim.schedule(42, "tick", fire, detail="d")
    sim.run_until(50)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "0.000042\t0\ttick\td"
    assert lines[1] == "0.000042\t0\textra\tdetail=1"


def test_trace_line_outside_dispatch():
    # seconds.micros, then the seq of the last dispatch (-1 before any)
    buf = io.StringIO()
    sim = Simulator(seed=0, trace=buf)
    sim.trace_line("start", "a=1")
    sim.schedule(2_000_042, "tick", lambda: None, detail="d")
    sim.run_until(12_500_000)
    sim.trace_line("end", "b=2")
    assert buf.getvalue() == (
        "0.000000\t-1\tstart\ta=1\n"
        "2.000042\t0\ttick\td\n"
        "12.500000\t0\tend\tb=2\n"
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
