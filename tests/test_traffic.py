"""Transport model: RTO estimator, window dynamics, sink, pulsed sender."""

import io

import pytest

from roqsim.config import AttackSection, LegitSection, config_from_dict
from roqsim.kernel import RandomSource, Simulator
from roqsim.mac import DATA, Frame
from roqsim.runner import SimulationRun
from roqsim.traffic import (
    MAX_RTO_S,
    MIN_RTO_S,
    PulsedSource,
    TcpFlowState,
    TcpSink,
    TcpSource,
    apply_ack,
    apply_timeout,
)


class FakeStation:
    """Queue-only stand-in for a MAC station."""

    def __init__(self, node_id=1, sim=None, rng=None):
        self.node_id = node_id
        self.sim = sim
        self.rng = rng
        self.queue = []
        self.sent = []
        self.disabled = False

    def enqueue(self, frame):
        if self.sim is not None:
            frame.enqueued_us = self.sim.now_us
        self.queue.append(frame)
        self.sent.append(frame)
        return True


GREEDY = LegitSection(app_rate_pps=0)  # bulk transfer: the window alone paces it


def ack(seq_no):
    """The sink's cumulative transport ACK for a flow of node 1."""
    return Frame(DATA, 0, 1, 320, seq_no=seq_no)


# -- estimator ---------------------------------------------------------------


def test_first_rtt_sample_initialises_estimator():
    flow = TcpFlowState()
    apply_ack(flow, rtt_sample_s=0.5)
    assert flow.srtt == 0.5
    assert flow.rttvar == 0.25
    assert flow.rto == 1.5  # srtt + 4*rttvar


def test_rtt_ewma_update():
    flow = TcpFlowState()
    apply_ack(flow, rtt_sample_s=0.5)
    apply_ack(flow, rtt_sample_s=1.0)
    # rttvar = 0.75*0.25 + 0.25*|0.5| ; srtt = 0.5 + 0.125*0.5
    assert flow.rttvar == pytest.approx(0.3125)
    assert flow.srtt == pytest.approx(0.5625)
    assert flow.rto == pytest.approx(0.5625 + 4 * 0.3125)


def test_rto_floor():
    flow = TcpFlowState()
    apply_ack(flow, rtt_sample_s=0.01)
    assert flow.rto == MIN_RTO_S


def test_ack_without_sample_keeps_estimator():
    flow = TcpFlowState()
    apply_ack(flow, rtt_sample_s=0.5)
    srtt, rto = flow.srtt, flow.rto
    apply_ack(flow)  # retransmitted segment: no usable sample
    assert flow.srtt == srtt and flow.rto == rto


def test_slow_start_doubles_per_rtt():
    flow = TcpFlowState(ssthresh=8)
    for expect in (2, 3, 4, 5, 6, 7):
        apply_ack(flow)
        assert flow.cwnd == expect
    apply_ack(flow)
    assert flow.cwnd == 8  # reached ssthresh


def test_congestion_avoidance_one_per_window():
    flow = TcpFlowState(cwnd=4, ssthresh=4)
    for _ in range(3):
        apply_ack(flow)
        assert flow.cwnd == 4
    apply_ack(flow)  # fourth ACK banks enough credit
    assert flow.cwnd == 5
    assert flow.ack_credit == 0


def test_timeout_collapses_window_and_doubles_rto():
    flow = TcpFlowState(cwnd=8, ssthresh=16, rto=2.0)
    apply_timeout(flow)
    assert flow.cwnd == 1
    assert flow.ssthresh == 4
    assert flow.rto == 4.0
    flow2 = TcpFlowState(cwnd=1, rto=48.0)
    apply_timeout(flow2)
    assert flow2.rto == MAX_RTO_S  # capped
    assert flow2.ssthresh == 2  # floored


# -- source ------------------------------------------------------------------


def test_source_fills_window_and_arms_timer():
    sim = Simulator(seed=0)
    st = FakeStation(sim=sim)
    src = TcpSource(st, 0, GREEDY)
    src.flow.cwnd = 4
    src.start()
    assert [f.seq_no for f in st.sent] == [1, 2, 3, 4]
    assert src.outstanding() == 4
    assert src._rto_h is not None


def test_ack_advances_window_and_samples_rtt():
    sim = Simulator(seed=0)
    st = FakeStation(sim=sim)
    src = TcpSource(st, 0, GREEDY)
    src.start()  # cwnd=1: seq 1 in flight
    sim.run_until(200_000)
    src.on_transport_ack(ack(1), sim.now_us)
    assert src.acked_hi == 1
    assert src.flow.srtt == pytest.approx(0.2)
    assert src.flow.cwnd == 2
    assert [f.seq_no for f in st.sent] == [1, 2, 3]
    # stale cumulative ACK is a no-op
    src.on_transport_ack(ack(1), sim.now_us)
    assert src.acked_hi == 1 and src.flow.cwnd == 2


def sent_records(src):
    """The send record of each outstanding segment: when its frame was queued, and if resent."""
    return {seq: (f.enqueued_us, f.retransmitted) for seq, f in src.send_times.items()}


def test_karns_rule_skips_retransmitted_sample():
    sim = Simulator(seed=0)
    st = FakeStation(sim=sim)
    src = TcpSource(st, 0, GREEDY)
    src.start()
    assert sent_records(src) == {1: (0, False)}  # a new segment
    sim.run_until(1_000_000)  # RTO fires: seq 1 goes out again
    assert src.timeouts == 1
    assert st.sent[-1].retransmitted is True
    assert sent_records(src) == {1: (1_000_000, True)}  # resent
    assert src.send_times[1] is st.sent[-1]  # the record is the frame sent
    sim.run_until(1_500_000)
    src.on_transport_ack(ack(1), sim.now_us)
    assert src.flow.srtt is None  # ambiguous sample discarded
    assert sent_records(src) == {2: (1_500_000, False), 3: (1_500_000, False)}
    assert [(f.seq_no, f.retransmitted) for f in st.sent] == [
        (1, False), (1, True), (2, False), (3, False)]


def test_karns_rule_samples_newest_once_sent_segment_of_a_mixed_range():
    sim = Simulator(seed=0)
    st = FakeStation(sim=sim)
    src = TcpSource(st, 0, GREEDY)
    src.start()  # seq 1 at 0 s
    for cwnd, t_us in ((2, 100_000), (3, 200_000)):  # seq 2 at 0.1 s, seq 3 at 0.2 s
        sim.run_until(t_us)
        src.flow.cwnd = cwnd
        src._fill_window()
    sim.run_until(300_000)
    # the source itself only resends from the oldest unacked segment up, so
    # this range, with a resent segment above once-sent ones, is built by hand
    src._send(3, True)
    assert sent_records(src) == {1: (0, False), 2: (100_000, False), 3: (300_000, True)}
    sim.run_until(600_000)
    src.on_transport_ack(ack(3), sim.now_us)
    assert src.flow.srtt == 0.5  # seq 2's: not seq 1's 0.6 s, nor either of seq 3's sends
    assert src.acked_hi == 3 and min(src.send_times) == 4  # the acked records are gone


def test_retransmission_lost_again_backs_off_until_a_once_sent_sample():
    trace = io.StringIO()
    sim = Simulator(seed=0, trace=trace)
    st = FakeStation(sim=sim)  # never delivers: every send of seq 1 is lost
    src = TcpSource(st, 0, GREEDY)
    src.start()
    sim.run_until(7_500_000)
    rto_times = [line.split("\t")[0] for line in trace.getvalue().splitlines()
                 if line.split("\t")[2] == "tcp_rto"]
    assert rto_times == ["1.000000", "3.000000", "7.000000"]  # 1 -> 2 -> 4 s backoff
    assert src.timeouts == 3 and src.flow.rto == 8.0
    assert [(f.seq_no, f.retransmitted) for f in st.sent] == [(1, False)] + [(1, True)] * 3
    src.on_transport_ack(ack(1), sim.now_us)  # seq 1's last send got through at last
    assert src.flow.srtt is None and src.flow.rto == 8.0  # resent: no sample, backoff kept
    assert [f.seq_no for f in st.sent[4:]] == [2, 3]  # once-sent at 7.5 s
    sim.run_until(8_000_000)
    src.on_transport_ack(ack(2), sim.now_us)
    assert src.flow.srtt == 0.5 and src.flow.rttvar == 0.25
    assert src.flow.rto == max(MIN_RTO_S, 0.5 + 4 * 0.25) == 1.5


def test_timeout_then_go_back_n_repair():
    sim = Simulator(seed=0)
    st = FakeStation(sim=sim)
    src = TcpSource(st, 0, GREEDY)
    src.flow.cwnd = 4
    src.start()  # 1..4 in flight
    sim.run_until(1_000_000)  # timeout: cwnd back to 1, seq 1 resent
    assert src.timeouts == 1
    assert src.recover_hi == 4
    assert st.sent[-1].seq_no == 1 and st.sent[-1].retransmitted
    src.on_transport_ack(ack(1), sim.now_us)  # each ACK clocks the next hole out
    assert st.sent[-1].seq_no == 2 and st.sent[-1].retransmitted
    assert sent_records(src)[2] == (sim.now_us, True)
    src.on_transport_ack(ack(2), sim.now_us)
    assert st.sent[-1].seq_no == 3 and st.sent[-1].retransmitted
    src.on_transport_ack(ack(4), sim.now_us)  # cumulative ACK closes the hole
    assert not any(f.seq_no > 4 and f.retransmitted for f in st.sent)
    assert src.outstanding() == src.next_seq - 5


def test_rto_timer_runs_exactly_while_data_is_outstanding(monkeypatch):
    # the undefended attacked cell of the runner tests: segments are lost,
    # queues go stale and the flows time out
    checked = []
    sources = []
    schedule = Simulator.schedule

    def checked_schedule(sim, fire_us, kind, fn, detail=""):
        def fn_then_check():
            fn()
            checked.append(kind)
            for src in sources:
                assert (src._rto_h is not None) == (src.outstanding() > 0), (kind, sim.now_us)

        return schedule(sim, fire_us, kind, fn_then_check, detail)

    monkeypatch.setattr(Simulator, "schedule", checked_schedule)
    run = SimulationRun(config_from_dict({"duration_s": 30.0, "warmup_s": 10.0, "seed": 1}))
    sources.extend(run.tcp_sources.values())
    result = run.execute()
    assert result.timeouts > 0
    assert len(checked) == run.sim.dispatched and "tcp_rto" in checked


def test_app_pacing_limits_send_rate():
    sim = Simulator(seed=0)
    st = FakeStation(sim=sim)
    src = TcpSource(st, 0, LegitSection(app_rate_pps=15))
    src.flow.cwnd = 32  # window never binds; the application does
    src.flow.rto = 9999.0  # keep the unanswered-ACK timer out of the way
    src.start()
    assert st.sent == []  # nothing available until the first app arrival
    sim.run_until(1_000_000)
    assert len(st.sent) == 15
    sim.run_until(2_000_000)
    assert len(st.sent) == 30


def test_greedy_source_window_bound():
    sim = Simulator(seed=0)
    st = FakeStation(sim=sim)
    src = TcpSource(st, 0, LegitSection(rwnd=3, app_rate_pps=0))
    src.flow.cwnd = 10
    src.start()
    assert len(st.sent) == 3  # min(cwnd, rwnd)


# -- sink --------------------------------------------------------------------


def test_sink_cumulative_ack_and_coalescing():
    ap = FakeStation(node_id=0)
    sink = TcpSink(ap, src_node=1)

    def data(seq):
        from roqsim.mac import DATA, Frame

        return Frame(DATA, 1, 0, 8000, seq_no=seq)

    assert sink.on_data(data(1), 0) is True
    assert len(ap.queue) == 1 and ap.queue[0].seq_no == 1
    assert sink.on_data(data(3), 0) is True  # out of order, held above
    assert len(ap.queue) == 1 and ap.queue[0].seq_no == 1  # bumped in place
    assert sink.on_data(data(2), 0) is True
    assert ap.queue[0].seq_no == 3  # cumulative: hole closed
    assert sink.on_data(data(2), 0) is False  # duplicate delivery
    assert sink.rcv_hi == 3 and sink.above == set()
    # after the queued ACK leaves, the next data gets a fresh ACK frame
    ap.queue.clear()
    assert sink.on_data(data(4), 0) is True
    assert len(ap.queue) == 1 and ap.queue[0].seq_no == 4


# -- pulsed sender -----------------------------------------------------------

# 5 arrivals 20 ms apart at the start of every second
SHORT_BURSTS = AttackSection(period_s=1.0, burst_s=0.1, rate_pps=50)


def test_pulsed_source_arrival_times():
    sim = Simulator(seed=0)
    st = FakeStation(sim=sim)
    src = PulsedSource(st, 0, SHORT_BURSTS, 0)
    src.start()
    sim.run_until(2_500_000)
    times = [f.enqueued_us for f in st.sent]
    expect = [k * 1_000_000 + i * 20_000 for k in range(3) for i in range(5)]
    assert times == expect
    assert src.arrivals == 15
    assert [f.seq_no for f in st.sent] == list(range(1, 16))


def test_pulsed_source_phase_shift():
    sim = Simulator(seed=0)
    st = FakeStation(sim=sim)
    src = PulsedSource(st, 0, SHORT_BURSTS, 400_000)
    src.start()
    sim.run_until(1_000_000)
    assert st.sent[0].enqueued_us == 400_000


def test_pulsed_source_disabled_when_period_zero():
    cfg = config_from_dict({"duration_s": 5.0, "warmup_s": 1.0, "attack": {"period_s": 0.0}})
    assert not cfg.attack_enabled()
    run = SimulationRun(cfg)
    assert run.pulsed_sources == {}  # the attackers' stations exist but offer nothing
    result = run.execute()
    assert all(result.flows[node].sent_pkts == 0 for node in cfg.attacker_nodes())


def test_pulsed_source_stops_once_station_is_disabled():
    sim = Simulator(seed=0)
    st = FakeStation(sim=sim)
    src = PulsedSource(st, 0, SHORT_BURSTS, 0)
    src.start()
    sim.run_until(1_030_000)  # first burst and two arrivals of the second
    st.disabled = True
    sim.run_until(5_000_000)
    assert src.arrivals == 7 and len(st.sent) == 7
    assert sim.dispatched == 8  # the arrival due after the block finds it and stops
    assert sim.run_until(100_000_000) == 0  # nothing rescheduled


@pytest.mark.parametrize("seed, offset_us, first_burst", [(0, -32242, 107), (5, -70810, 91)])
def test_jitter_before_time_zero_skips_only_the_early_arrivals(seed, offset_us, first_burst):
    assert RandomSource(seed).uniform_int(-100_000, 100_000) == offset_us
    sim = Simulator(seed=0)
    st = FakeStation(sim=sim, rng=RandomSource(seed))
    src = PulsedSource(st, 0, AttackSection(jitter_s=0.1), 0)
    src.start()
    sim.run_until(1_099_999)  # the second burst starts at 1.1 s at the earliest
    # 120 arrivals 2500 us apart from the jittered start; those before t = 0 are skipped
    skipped = 120 - first_burst
    assert [f.enqueued_us for f in st.sent] == [
        offset_us + i * 2500 for i in range(skipped, 120)
    ]
    assert st.sent[0].enqueued_us >= 0 and offset_us + (skipped - 1) * 2500 < 0


class ExtremeJitter:
    """Shifts the bursts by +jitter and -jitter in turn: as close as they can come."""

    def __init__(self):
        self.draws = 0

    def uniform_int(self, low, high):
        self.draws += 1
        return high if self.draws % 2 else low


@pytest.mark.parametrize("jitter_s, offered", [(0.45, 1200), (0.46, 1165)])
def test_jitter_up_to_the_config_limit_loses_no_arrival(jitter_s, offered):
    # config.validate allows jitter_s up to (period_s - burst_s) / 2 = 0.45 s;
    # past it a burst shifted early starts before the previous one ended and
    # its first arrivals are skipped
    sim = Simulator(seed=0)
    st = FakeStation(sim=sim, rng=ExtremeJitter())
    src = PulsedSource(st, 0, AttackSection(jitter_s=jitter_s), 0)
    src.start()
    sim.run_until(12_000_000)  # periods 0-9; period 10 starts after 12.4 s
    assert src.arrivals == len(st.sent) == offered
    times = [f.enqueued_us for f in st.sent]
    assert times == sorted(times)
