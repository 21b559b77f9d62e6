"""Traffic sources: window/timeout TCP-like flows and pulsed greedy senders.

The TCP model is deliberately minimal, one-way data with cumulative ACKs, no
fast retransmit and no delayed ACKs: a smoothed-RTT timer with a hard floor,
slow-start / congestion-avoidance window growth, and multiplicative timeout
backoff.  That floor is what slow on-off attackers synchronize against.
"""

from dataclasses import dataclass
from typing import Optional

from .kernel import to_us
from .mac import DATA, Frame

MIN_RTO_S = 1.0
MAX_RTO_S = 64.0
RTT_GAIN = 1.0 / 8.0  # smoothed RTT gain
VAR_GAIN = 1.0 / 4.0  # RTT variance gain

TCP_ACK_BITS = 320


@dataclass
class TcpFlowState:
    """Sender-side congestion state, advanced by apply_ack / apply_timeout."""

    cwnd: int = 1
    ssthresh: int = 64
    srtt: Optional[float] = None
    rttvar: float = 0.0
    rto: float = MIN_RTO_S
    ack_credit: int = 0  # ACKs banked toward +1 cwnd in congestion avoidance


def apply_ack(flow, rtt_sample_s=None):
    """Advance the flow for one cumulative ACK, optionally with an RTT sample."""
    if rtt_sample_s is not None:
        if flow.srtt is None:
            flow.srtt = rtt_sample_s
            flow.rttvar = rtt_sample_s / 2.0
        else:
            err = rtt_sample_s - flow.srtt
            flow.rttvar = (1.0 - VAR_GAIN) * flow.rttvar + VAR_GAIN * abs(err)
            flow.srtt += RTT_GAIN * err
        flow.rto = max(MIN_RTO_S, flow.srtt + 4.0 * flow.rttvar)
    if flow.cwnd < flow.ssthresh:
        flow.cwnd += 1
    else:
        flow.ack_credit += 1
        if flow.ack_credit >= flow.cwnd:
            flow.ack_credit = 0
            flow.cwnd += 1
    return flow


def apply_timeout(flow):
    """Retransmission timeout: collapse the window and double the timer."""
    flow.ssthresh = max(flow.cwnd // 2, 2)
    flow.cwnd = 1
    flow.ack_credit = 0
    flow.rto = min(flow.rto * 2.0, MAX_RTO_S)
    return flow


class TcpSource:
    """Window-limited sender feeding one station's MAC queue.

    legit is the config's legit section.  legit.app_rate_pps > 0 paces the
    application: packets become available at that rate and wait (unsent)
    until the window opens.  0 means a greedy bulk transfer with unlimited
    data ready.
    """

    def __init__(self, station, dst, legit):
        self.sim = station.sim
        self.station = station
        self.dst = dst
        self.packet_bits = legit.packet_bits
        self.rwnd = legit.rwnd
        self.app_available = 0  # produced by the application, not yet sent
        self.flow = TcpFlowState()
        self.next_seq = 1
        self.acked_hi = 0
        self.recover_hi = 0  # after a timeout, sequences <= this are resent on ACK clock
        self.send_times = {}  # seq -> the frame last sent for it
        self.timeouts = 0
        self._rto_h = None
        self._app_spacing_us = 1_000_000 // legit.app_rate_pps if legit.app_rate_pps > 0 else 0

    def start(self):
        if self._app_spacing_us:
            self.sim.schedule(self.sim.now_us + self._app_spacing_us, "app_arrival",
                              self._on_app_arrival)
        self._fill_window()

    def window(self):
        return min(self.flow.cwnd, self.rwnd)

    def outstanding(self):
        return self.next_seq - 1 - self.acked_hi

    def _on_app_arrival(self):
        self.app_available += 1
        self.sim.schedule(self.sim.now_us + self._app_spacing_us, "app_arrival",
                          self._on_app_arrival)
        self._fill_window()

    def _fill_window(self):
        while self.outstanding() < self.window():
            if self._app_spacing_us:
                if self.app_available == 0:
                    break
                self.app_available -= 1
            self.next_seq += 1
            self._send(self.next_seq - 1, False)
        self._ensure_timer()

    def _send(self, seq, resent):
        """Queue segment seq, new or resent: its frame, stamped on enqueue, is the send record."""
        frame = self.send_times[seq] = Frame(DATA, self.station.node_id, self.dst,
                                             self.packet_bits, seq_no=seq)
        frame.retransmitted = resent  # before enqueue, where perfbench's traced mode counts it
        self.station.enqueue(frame)

    def _ensure_timer(self):
        # the timer runs exactly while data is outstanding: only an ACK
        # lowers outstanding(), and on_transport_ack cancels the timer first
        if self.outstanding() > 0 and self._rto_h is None:
            self._rto_h = self.sim.schedule(self.sim.now_us + to_us(self.flow.rto), "tcp_rto",
                                            self._on_rto)

    def on_transport_ack(self, frame, now):
        """A cumulative transport ACK from the sink: a DATA frame whose seq_no acks."""
        ack_no = frame.seq_no
        if ack_no <= self.acked_hi:
            return
        sample = None  # Karn's rule: only the newest once-sent segment gives an RTT sample
        for seq in range(self.acked_hi + 1, ack_no + 1):
            sent = self.send_times.pop(seq)
            if not sent.retransmitted:
                sample = (now - sent.enqueued_us) / 1_000_000.0
        self.acked_hi = ack_no
        apply_ack(self.flow, sample)
        self._rto_h.cancel()  # data was outstanding, so the timer runs: restart it
        self._rto_h = None
        # go-back-N repair: each ACK clocks out the next segment lost before
        # the timeout, otherwise a multi-packet hole stalls until every RTO
        if self.acked_hi < self.recover_hi:
            self._send(self.acked_hi + 1, True)
        self._fill_window()

    def _on_rto(self):
        self._rto_h = None
        apply_timeout(self.flow)
        self.timeouts += 1
        self.recover_hi = self.next_seq - 1
        self._send(self.acked_hi + 1, True)  # oldest unacked first
        self._ensure_timer()


class TcpSink:
    """Receiver side on the access point: cumulative ACKs, coalesced in queue.

    At most one ACK frame per flow sits in the AP queue; while it is queued
    its cumulative ack number is bumped in place instead of enqueuing more.
    """

    def __init__(self, ap_station, src_node):
        self.ap = ap_station
        self.src_node = src_node
        self.rcv_hi = 0
        self.above = set()
        self._pending_ack = None

    def on_data(self, frame, now):
        """Returns True if this seq is new (first delivery), else False."""
        seq = frame.seq_no
        first = False
        if seq == self.rcv_hi + 1:
            self.rcv_hi = seq
            first = True
            while self.rcv_hi + 1 in self.above:
                self.rcv_hi += 1
                self.above.remove(self.rcv_hi)
        elif seq > self.rcv_hi and seq not in self.above:
            self.above.add(seq)
            first = True
        ack = self._pending_ack
        if ack is not None and ack in self.ap.queue:
            ack.seq_no = self.rcv_hi  # cumulative: bumping in place is safe
        else:
            ack = Frame(DATA, self.ap.node_id, self.src_node, TCP_ACK_BITS, seq_no=self.rcv_hi)
            self._pending_ack = ack
            self.ap.enqueue(ack)
        return first


class PulsedSource:
    """On-off sender: attack.rate_pps packet arrivals during each burst.

    Period k starts at phase_us + k * period; with attack.jitter_s set, that
    start moves by a uniform draw from the station's own stream, taken when
    the period's first arrival is computed.  Arrivals are evenly spaced
    inside the burst, and any that would fall before now are skipped.  The
    attack section must describe an active attack (RunConfig.attack_enabled).
    Once the station is disabled (blocked) the source offers nothing more.
    """

    def __init__(self, station, dst, attack, phase_us):
        self.sim = station.sim
        self.station = station
        self.dst = dst
        self.packet_bits = attack.packet_bits
        self.arrivals = 0  # also the sequence number of the last arrival
        self._times = self._arrival_times(attack, phase_us)

    def _arrival_times(self, attack, phase_us):
        period_us = to_us(attack.period_s)
        burst_us = to_us(attack.burst_s)
        jitter_us = to_us(attack.jitter_s)
        spacing_us = 1_000_000 // attack.rate_pps
        rng = self.station.rng
        start = phase_us
        while True:
            first = start + rng.uniform_int(-jitter_us, jitter_us) if jitter_us else start
            for offset in range(0, burst_us, spacing_us):
                yield first + offset
            start += period_us

    def start(self):
        self._schedule_next()

    def _schedule_next(self):
        now = self.sim.now_us
        t = next(self._times)
        while t < now:  # jitter pushed it into the past: skip
            t = next(self._times)
        self.sim.schedule(t, "pulse_arrival", self._on_arrival)

    def _on_arrival(self):
        if self.station.disabled:  # blocked: the source stops for good
            return
        self.arrivals += 1
        frame = Frame(DATA, self.station.node_id, self.dst, self.packet_bits,
                      seq_no=self.arrivals)
        self.station.enqueue(frame)
        self._schedule_next()
