"""MAC behaviour: handshake timing, collisions, backoff, drops, blocking.

Timing oracles are hand-computed from the default PHY constants:
slot 20 us, SIFS 10 us, DIFS 50 us, 2 Mb/s -> RTS 80 us, CTS/ACK 56 us,
DATA(8000 payload + 224 header) 4112 us, so a full four-way exchange takes
80 + 10 + 56 + 10 + 4112 + 10 + 56 = 4334 us after the RTS starts.
"""

import inspect
import io

import pytest

from roqsim.config import AttackSection, config_from_dict
from roqsim.kernel import Simulator
from roqsim.mac import (
    DATA,
    OUT_BLOCKED_DROP,
    OUT_DELIVERED,
    OUT_LIFETIME_DROP,
    OUT_OVERFLOW_DROP,
    OUT_RETRY_DROP,
    Frame,
    IntervalCounters,
    Medium,
    PhyParams,
    Station,
)
from roqsim.runner import SimulationRun

EXCHANGE_US = 4334  # RTS start -> ACK end for an 8000-bit payload


class ScriptedRng:
    """uniform_int pops scripted values (clamped to range), then returns lo."""

    def __init__(self, values=()):
        self.values = list(values)

    def uniform_int(self, lo, hi):
        v = self.values.pop(0) if self.values else lo
        return max(lo, min(hi, v))


def collector(log):
    def cb(frame, outcome, now):
        log.append((frame.seq_no, outcome, now))

    return cb


def make_cell():
    sim = Simulator(seed=0)
    phy = PhyParams()
    medium = Medium(sim, phy)
    ap = Station(medium, 0, ScriptedRng())
    return sim, phy, medium, ap


def test_airtime_arithmetic():
    phy = PhyParams()
    assert phy.rts_us == 80
    assert phy.cts_us == 56
    assert phy.ack_us == 56
    assert phy.data_us(8000) == 4112
    assert phy.airtime_us(1) == 1  # ceiling division, never zero-length
    assert phy.exchange_tail_us(8000) == 3 * 10 + 56 + 4112 + 56
    assert phy.cts_timeout_us == 10 + 56 + 2 * 20


def test_single_exchange_timing():
    sim, phy, medium, ap = make_cell()
    done = []
    st = Station(medium, 1, ScriptedRng([3]))
    st.on_copy_done = collector(done)
    st.enqueue(Frame(DATA, 1, 0, 8000, seq_no=7))
    sim.run_until(10_000)
    # DIFS 50 + 3 slots = attempt at 110; ACK received 4334 us later
    assert done == [(7, OUT_DELIVERED, 110 + EXCHANGE_US)]
    assert st.state == "idle"
    assert len(st.queue) == 0
    # the sender counts its RTS and the CTS sent to it; the AP counts neither
    assert st.counters.rts_cts == 2
    assert ap.counters.rts_cts == 0
    assert st.counters.retrans == 0


def test_third_party_overhears_both_control_frames():
    sim, phy, medium, ap = make_cell()
    st = Station(medium, 1, ScriptedRng([0]))
    watcher = Station(medium, 2, ScriptedRng())
    st.enqueue(Frame(DATA, 1, 0, 8000))
    sim.run_until(10_000)
    # it defers to the exchange (RTS at 50) but counts neither frame: a
    # node's RTS/CTS count is its own RTS plus the CTS sent to it
    assert watcher.nav_until == 50 + EXCHANGE_US
    assert watcher.counters.rts_cts == 0
    assert st.counters.rts_cts == 2


def test_a_disabled_node_still_counts_its_rts_and_the_cts_sent_to_it():
    # as the AP hears them: RTS 50-130, blocked at 135 with the CTS due 140-196
    sim, phy, medium, ap = make_cell()
    st = Station(medium, 1, ScriptedRng())
    st.enqueue(Frame(DATA, 1, 0, 8000))
    sim.schedule(135, "block", st.disable)
    sim.run_until(10_000)
    assert medium.last_tx_start == 140  # the CTS, which the blocked node ignores
    assert st.counters.rts_cts == 2


def test_same_instant_attempts_collide():
    sim, phy, medium, ap = make_cell()
    done1, done2 = [], []
    st1 = Station(medium, 1, ScriptedRng([1, 9]))
    st2 = Station(medium, 2, ScriptedRng([1, 17]))
    st1.on_copy_done = collector(done1)
    st2.on_copy_done = collector(done2)
    st1.enqueue(Frame(DATA, 1, 0, 8000))
    st2.enqueue(Frame(DATA, 2, 0, 8000))
    # both count down one slot and fire RTS at t=70: the frames corrupt
    sim.run_until(70)
    assert medium.last_tx_start == 70
    sim.run_until(150)
    # corrupted frames reach nobody and count for nobody
    assert st1.counters.rts_cts == 0 and st2.counters.rts_cts == 0
    sim.run_until(70 + 80 + phy.cts_timeout_us)
    assert st1.counters.retrans == 1
    assert st2.counters.retrans == 1
    assert st1.cw == 63 and st2.cw == 63  # window doubled after the miss
    assert done1 == [] and done2 == []  # both still hold the frame
    sim.run_until(50_000)  # with distinct backoffs both eventually deliver
    assert done1[0][1] == OUT_DELIVERED
    assert done2[0][1] == OUT_DELIVERED


def test_cw_doubles_then_retry_drop():
    sim, phy, medium, ap = make_cell()
    done = []
    st = Station(medium, 1, ScriptedRng())  # backoff always 0
    st.on_copy_done = collector(done)
    st.enqueue(Frame(DATA, 1, 99, 8000, seq_no=5))  # node 99 does not exist
    # attempt k happens at 236*(k-1)+50; its CTS timeout lands at 236*k
    expected_cw = [63, 127, 255, 511, 1023, 1023, 1023]
    for k, cw in enumerate(expected_cw, start=1):
        sim.run_until(236 * k)
        assert st.cw == cw
        assert st.counters.retrans == k
    sim.run_until(236 * 8)
    assert done == [(5, OUT_RETRY_DROP, 236 * 8)]
    assert st.counters.retrans == 8
    assert st.cw == phy.cw_min  # reset for the next frame
    assert st.state == "idle"


def test_aggressive_station_never_widens_window():
    sim, phy, medium, ap = make_cell()
    st = Station(medium, 1, ScriptedRng(), attack=AttackSection(cw=7))
    assert st.aggressive and st.cw_base == 7
    st.enqueue(Frame(DATA, 1, 99, 8000))
    sim.run_until(236 * 3)
    assert st.counters.retrans == 3
    assert st.cw == 7


def test_backoff_freezes_and_accrues_stime():
    sim, phy, medium, ap = make_cell()
    done = []
    st = Station(medium, 1, ScriptedRng([5]))
    st.on_copy_done = collector(done)
    st.enqueue(Frame(DATA, 1, 0, 8000, seq_no=1))
    # foreign 100 us transmission lands mid-countdown at t=70
    noise = Frame(DATA, 8, 77, 0)
    sim.schedule(70, "noise", lambda: medium.transmit(8, noise, 100))
    sim.run_until(200)
    # one whole 20 us slot elapsed before the freeze: 5 -> 4 remain
    assert st.backoff_rem == 4
    assert st.counters.busy_stop_us == 100
    sim.run_until(10_000)
    # idle at 170, fresh DIFS at 220, 4 slots -> RTS at 300
    assert done == [(1, OUT_DELIVERED, 300 + EXCHANGE_US)]


def test_nav_reset_after_unanswered_rts():
    sim, phy, medium, ap = make_cell()
    st = Station(medium, 1, ScriptedRng())
    bystander = Station(medium, 2, ScriptedRng())
    st.enqueue(Frame(DATA, 1, 99, 8000))  # dst absent: no CTS will follow
    sim.run_until(150)
    # RTS ended at 130; NAV covers the whole reserved exchange tail
    assert bystander.nav_until == 130 + phy.exchange_tail_us(8000)
    sim.run_until(130 + phy.cts_timeout_us)
    assert bystander.nav_until == 130 + phy.cts_timeout_us  # reservation released


def test_nav_held_when_handshake_proceeds():
    sim, phy, medium, ap = make_cell()
    st = Station(medium, 1, ScriptedRng())
    bystander = Station(medium, 2, ScriptedRng())
    st.enqueue(Frame(DATA, 1, 0, 8000))
    sim.run_until(400)  # past the would-be reset at 236: CTS went out at 140
    assert bystander.nav_until == 130 + phy.exchange_tail_us(8000)


def test_stale_head_dropped_after_lifetime():
    sim, phy, medium, ap = make_cell()
    done = []
    st = Station(medium, 1, ScriptedRng())
    st.on_copy_done = collector(done)
    st.enqueue(Frame(DATA, 1, 0, 8000, seq_no=9))
    # channel jammed from t=10 for 600 ms, past the 500 ms queue lifetime
    noise = Frame(DATA, 8, 77, 0)
    sim.schedule(10, "noise", lambda: medium.transmit(8, noise, 600_000))
    sim.run_until(700_000)
    assert done == [(9, OUT_LIFETIME_DROP, 600_060)]  # idle+DIFS, then purge
    assert st.state == "idle"


def test_aggressive_station_keeps_stale_frames():
    sim, phy, medium, ap = make_cell()
    done = []
    st = Station(medium, 1, ScriptedRng(), attack=AttackSection(cw=7))
    st.on_copy_done = collector(done)
    st.enqueue(Frame(DATA, 1, 0, 8000, seq_no=9))
    noise = Frame(DATA, 8, 77, 0)
    sim.schedule(10, "noise", lambda: medium.transmit(8, noise, 600_000))
    sim.run_until(700_000)
    assert done == [(9, OUT_DELIVERED, 600_060 + EXCHANGE_US)]


def test_ap_blocklist_suppresses_cts():
    # station 1 is disabled at 100, while its RTS is on air (50-130)
    sim, phy, medium, ap = make_cell()
    st1 = Station(medium, 1, ScriptedRng())
    st2 = Station(medium, 2, ScriptedRng([2]))
    done2 = []
    st2.on_copy_done = collector(done2)
    st1.enqueue(Frame(DATA, 1, 0, 8000))
    sim.schedule(100, "block", st1.disable)
    sim.run_until(300)
    assert ap._resp_h is None  # the AP refuses the RTS of a disabled station
    assert medium.last_tx_start == 50  # no CTS went on air
    st2.enqueue(Frame(DATA, 2, 0, 8000))
    sim.run_until(60_000)
    assert done2 and done2[0][1] == OUT_DELIVERED  # others unaffected


def test_ap_blocklist_discards_data():
    sim, phy, medium, ap = make_cell()
    Station(medium, 1, ScriptedRng()).disable()
    Station(medium, 2, ScriptedRng())
    got = []
    ap.on_data_rx = lambda frame, now: got.append(frame.src)
    ap.receive(Frame(DATA, 1, 0, 8000), 0)
    assert got == []
    assert ap._resp_h is None  # no ACK goes back either
    ap.receive(Frame(DATA, 2, 0, 8000), 0)
    assert got == [2]


def test_disable_drains_queue_and_silences_station():
    sim, phy, medium, ap = make_cell()
    done = []
    st = Station(medium, 1, ScriptedRng([500]))
    st.on_copy_done = collector(done)
    for seq in (1, 2, 3):
        st.enqueue(Frame(DATA, 1, 0, 8000, seq_no=seq))
    st.disable()
    assert [d[:2] for d in done] == [(s, OUT_BLOCKED_DROP) for s in (1, 2, 3)]
    assert len(st.queue) == 0 and st.state == "idle"
    assert st.enqueue(Frame(DATA, 1, 0, 8000, seq_no=4)) is False
    assert done[-1][:2] == (4, OUT_BLOCKED_DROP)
    sim.run_until(100_000)
    assert medium.last_tx_start == -1  # never transmitted anything


def test_disable_between_cts_and_data_cancels_the_data():
    # backoff 0: RTS at 50-130, CTS at 140-196, DATA due at 206; blocked at 200
    sim, phy, medium, ap = make_cell()
    done = []
    st = Station(medium, 1, ScriptedRng())
    st.on_copy_done = collector(done)
    st.enqueue(Frame(DATA, 1, 0, 8000, seq_no=1))
    sim.schedule(200, "block", st.disable)
    sim.run_until(10_000)
    assert done == [(1, OUT_BLOCKED_DROP, 200)]
    assert medium.last_tx_start == 140  # the CTS was the last frame on air
    assert st.counters.rts_cts == 2 and ap.counters.rts_cts == 0


# backoff 3: DIFS to 50, slots to 110, RTS 110-190, CTS 200-256, DATA 266-4378,
# ACK 4388-4444; every phase of the exchange, blocked at each
@pytest.mark.parametrize("block_us", [30, 80, 150, 195, 260, 2_000, 4_380, 4_420])
def test_disable_cancels_every_pending_step_of_the_station(block_us):
    sim, phy, medium, ap = make_cell()
    sim.trace = io.StringIO()
    done = []
    st = Station(medium, 1, ScriptedRng([3]))
    st.on_copy_done = collector(done)
    st.enqueue(Frame(DATA, 1, 0, 8000, seq_no=1))
    sim.schedule(block_us, "block", st.disable)
    sim.run_until(20_000)
    assert done == [(1, OUT_BLOCKED_DROP, block_us)]
    # only the AP (idle, nothing queued) may still answer a frame in the air
    own = {"difs_end", "attempt", "nav_expire", "cts_timeout", "data_tx", "ack_timeout"}
    late = []
    for line in sim.trace.getvalue().splitlines():
        time, _seq, kind, _detail = line.split("\t")
        if kind in own and int(time.replace(".", "")) > block_us:
            late.append(line)
    assert late == []


def test_queue_cap_overflow():
    sim, phy, medium, ap = make_cell()
    done = []
    st = Station(medium, 1, ScriptedRng([7]), attack=AttackSection(queue_cap=2))
    st.on_copy_done = collector(done)
    assert st.enqueue(Frame(DATA, 1, 0, 8000, seq_no=1)) is True
    assert st.enqueue(Frame(DATA, 1, 0, 8000, seq_no=2)) is True
    assert st.enqueue(Frame(DATA, 1, 0, 8000, seq_no=3)) is False
    assert done == [(3, OUT_OVERFLOW_DROP, 0)]
    assert len(st.queue) == 2


def test_interval_rollover_splits_freeze():
    sim, phy, medium, ap = make_cell()
    st = Station(medium, 1, ScriptedRng([50]))
    st.enqueue(Frame(DATA, 1, 0, 8000))
    noise = Frame(DATA, 8, 77, 0)
    sim.schedule(10, "noise", lambda: medium.transmit(8, noise, 200))
    snaps = []
    sim.schedule(100, "roll", lambda: snaps.append(st.rollover_counters()))
    sim.schedule(300, "roll", lambda: snaps.append(st.rollover_counters()))
    sim.run_until(300)
    # frozen 10..210; the boundary at t=100 splits it 90 / 110
    assert snaps[0].busy_stop_us == 90
    assert snaps[1].busy_stop_us == 110
    assert st.counters.busy_stop_us == 0  # reset after the second rollover


def test_medium_rejects_duplicate_ids():
    sim, phy, medium, ap = make_cell()
    with pytest.raises(ValueError):
        Station(medium, 0, ScriptedRng())


def test_medium_rejects_a_lower_id_after_a_higher_one():
    # stations register as nodes 0, 1, 2, ...: stations[n] is node n
    sim, phy, medium, ap = make_cell()
    st = Station(medium, 1, ScriptedRng())
    with pytest.raises(ValueError, match="node id 3 is not the next id, 2"):
        Station(medium, 3, ScriptedRng())
    with pytest.raises(ValueError, match="node id 0 is not the next id, 2"):
        Station(medium, 0, ScriptedRng())
    assert medium.stations == [ap, st]


# -- the contention timer rules --------------------------------------------


def test_difs_ending_as_the_medium_turns_busy_is_cancelled():
    sim, phy, medium, ap = make_cell()
    sim.trace = io.StringIO()
    done = []
    noise = Frame(DATA, 8, 77, 0)
    # scheduled first, so at t=50 the medium turns busy before the DIFS would end
    sim.schedule(50, "noise", lambda: medium.transmit(8, noise, 100))
    st = Station(medium, 1, ScriptedRng([3]))
    st.on_copy_done = collector(done)
    st.enqueue(Frame(DATA, 1, 0, 8000, seq_no=1))
    sim.run_until(150)
    assert st.backoff_rem == 3  # no slot counted
    assert "\tdifs_end\t" not in sim.trace.getvalue()
    sim.run_until(10_000)
    # idle at 150, a fresh DIFS to 200, 3 slots: RTS at 260
    assert done == [(1, OUT_DELIVERED, 260 + EXCHANGE_US)]
    assert st.counters.busy_stop_us == 100


# st1 contends from 0: DIFS to 50, then its backoff; st2, backoff 0, is enqueued
# later so that its DIFS ends at the instant st1's attempt is due
@pytest.mark.parametrize("backoff1, enqueue2_us, tie_us", [
    # st2's DIFS, 20..70, was scheduled before st1's attempt (at 50), so at t=70
    # st2's RTS turns the medium busy first; st1's attempt at that instant still fires
    pytest.param(1, 20, 70, id="difs-end-first"),
    # st1's attempt, scheduled at 50 for 110, dispatches before st2's DIFS end
    # (scheduled at 60) and cancels it: the zero-backoff DIFS station defers
    pytest.param(3, 60, 110, id="attempt-first", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 11: a DIFS end with zero backoff left is"
        " cancelled when an attempt at the same instant turns the medium busy first")),
])
def test_a_difs_end_and_an_attempt_at_one_instant_both_transmit(backoff1, enqueue2_us, tie_us):
    sim, phy, medium, ap = make_cell()
    st1 = Station(medium, 1, ScriptedRng([backoff1]))
    st2 = Station(medium, 2, ScriptedRng([0]))
    st1.enqueue(Frame(DATA, 1, 0, 8000))
    sim.schedule(enqueue2_us, "late", lambda: st2.enqueue(Frame(DATA, 2, 0, 8000)))
    sim.run_until(tie_us)
    assert medium.busy == 2  # two RTS in the air: they collide
    sim.run_until(tie_us + 80 + phy.cts_timeout_us)
    assert st1.counters.rts_cts == 0 and st2.counters.rts_cts == 0
    assert st1.counters.retrans == 1 and st2.counters.retrans == 1


def test_overlaps_corrupt_every_frame_they_touch():
    sim = Simulator(seed=0)
    medium = Medium(sim, PhyParams())
    clean = []
    medium.on_clean_frame = lambda frame, now: clean.append((frame.seq_no, now))

    def send_at(t, seq, air_us):
        frame = Frame(DATA, 8, 77, 0, seq_no=seq)
        sim.schedule(t, "send", lambda: medium.transmit(8, frame, air_us))

    # a chain: 3 overlaps only 2, which 1 had already overlapped
    send_at(0, 1, 100)
    send_at(50, 2, 100)
    send_at(120, 3, 100)
    # 5's send is scheduled before 4's frame_end, so at 400 it dispatches first
    send_at(300, 4, 100)
    send_at(400, 5, 100)
    # 6's send is scheduled after 5's frame_end, so 6 starts on an idle medium
    sim.schedule(450, "later", lambda: send_at(500, 6, 60))
    send_at(700, 7, 100)
    sim.run_until(400)
    assert medium.busy == 1  # 5 went on air, then 4 ended
    sim.run_until(1_000)
    assert clean == [(6, 560), (7, 800)]
    assert medium.busy == 0


def test_contention_timers_fire_only_while_contending():
    cfg = config_from_dict({
        "duration_s": 12.0, "warmup_s": 2.0, "defense": "mlda", "seed": 219,
        "attack": {"count": 8}, "mlda": {"rc_th": 45.0, "se_th_s": 0.0510939, "re_th": 3.0},
    })
    run = SimulationRun(cfg)
    kinds = {"difs_end", "attempt", "nav_expire"}
    seen = {k: set() for k in kinds}
    schedule = run.sim.schedule

    def checked_schedule(fire_us, kind, fn, detail=""):
        if kind in kinds:
            station = fn.__self__

            def fire():
                seen[kind].add(station.state)
                fn()

            return schedule(fire_us, kind, fire, detail)
        return schedule(fire_us, kind, fn, detail)

    run.sim.schedule = checked_schedule
    result = run.execute()
    assert len(result.blocked) == 8  # all eight attackers are disabled mid-run
    assert seen == {k: {"contend"} for k in kinds}


REQUIRED = inspect.Parameter.empty
POS = inspect.Parameter.POSITIONAL_OR_KEYWORD


def constructor_params(cls):
    """(name, kind, default) of each constructor parameter, annotations aside."""
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def test_frame_and_counter_constructors_keep_their_parameters():
    assert constructor_params(Frame) == [
        ("kind", POS, REQUIRED), ("src", POS, REQUIRED), ("dst", POS, REQUIRED),
        ("payload_bits", POS, 0), ("cb", POS, "000"), ("duration_us", POS, 0),
        ("seq_no", POS, 0),
    ]
    assert constructor_params(IntervalCounters) == [
        ("rts_cts", POS, 0), ("busy_stop_us", POS, 0), ("retrans", POS, 0),
    ]


def test_a_new_frame_is_unsent_and_equal_only_to_itself():
    a = Frame(DATA, 1, 0, 8000)
    b = Frame(DATA, 1, 0, 8000)
    assert a.retransmitted is False and a.enqueued_us == 0
    # the sink finds a queued transport ACK by identity, not by its fields
    assert a == a and a != b


def test_interval_counters_repr():
    assert repr(IntervalCounters(1, 2, 3)) == (
        "IntervalCounters(rts_cts=1, busy_stop_us=2, retrans=3, heard_c2=False, heard_c3=False)"
    )


def test_frames_and_counters_keep_slots():
    for obj in (Frame(DATA, 1, 0), IntervalCounters()):
        assert not hasattr(obj, "__dict__")
