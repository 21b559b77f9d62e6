"""Single-cell CSMA/CA MAC with RTS/CTS exchanges over a shared medium.

Every station hears every transmission (one collision domain, no capture):
two frames that overlap in time corrupt each other and are delivered to
nobody.  Data transfer always runs the four-way handshake
RTS -> CTS -> DATA -> ACK with SIFS gaps; contention uses DIFS plus slotted
binary-exponential backoff that freezes while the channel is sensed busy.

Per station and per monitoring interval three counters accumulate: clean
RTS/CTS frames heard, microseconds of frozen backoff, and retransmissions.
"""

from collections import deque

from .config import PhySection
from .kernel import to_us

RTS = "RTS"
CTS = "CTS"
DATA = "DATA"
ACK = "ACK"

IDLE = "idle"
CONTEND = "contend"
TXSEQ = "txseq"

OUT_DELIVERED = "delivered"
OUT_RETRY_DROP = "retry_drop"
OUT_LIFETIME_DROP = "lifetime_drop"
OUT_OVERFLOW_DROP = "overflow_drop"
OUT_BLOCKED_DROP = "blocked_drop"

# frame sizes in bits
RTS_BITS = 160
CTS_BITS = 112
ACK_BITS = 112
MAC_HEADER_BITS = 224


class PhyParams:
    """Channel timing derived from a config's PHY section (default: PhySection())."""

    __slots__ = (
        "slot_us",
        "sifs_us",
        "difs_us",
        "rate_bps",
        "cw_min",
        "cw_max",
        "retry_limit",
        "queue_lifetime_us",
        "rts_us",
        "cts_us",
        "ack_us",
        "cts_timeout_us",
        "ack_timeout_us",
        "nav_reset_us",
        "_tails",
    )

    def __init__(self, section=None):
        s = PhySection() if section is None else section
        if s.slot_us <= 0 or s.sifs_us <= 0 or s.difs_us <= 0 or s.rate_bps <= 0:
            raise ValueError("PHY timing constants must be positive")
        if s.cw_min < 1 or s.cw_max < s.cw_min:
            raise ValueError("need 1 <= cw_min <= cw_max")
        self.slot_us = s.slot_us
        self.sifs_us = s.sifs_us
        self.difs_us = s.difs_us
        self.rate_bps = s.rate_bps
        self.cw_min = s.cw_min
        self.cw_max = s.cw_max
        self.retry_limit = s.retry_limit
        self.queue_lifetime_us = to_us(s.queue_lifetime_s)
        self.rts_us = self.airtime_us(RTS_BITS)
        self.cts_us = self.airtime_us(CTS_BITS)
        self.ack_us = self.airtime_us(ACK_BITS)
        # responder answers at SIFS; allow one slot of slack before giving up
        self.cts_timeout_us = s.sifs_us + self.cts_us + 2 * s.slot_us
        self.ack_timeout_us = s.sifs_us + self.ack_us + 2 * s.slot_us
        # hearing an RTS reserves the medium; release it if no CTS follows
        self.nav_reset_us = s.sifs_us + self.cts_us + 2 * s.slot_us
        self._tails = {}  # exchange_tail_us by payload size

    def airtime_us(self, bits):
        return (bits * 1_000_000 + self.rate_bps - 1) // self.rate_bps

    def data_us(self, payload_bits):
        return self.airtime_us(MAC_HEADER_BITS + payload_bits)

    def exchange_tail_us(self, payload_bits):
        """NAV an RTS must reserve: the rest of the four-way handshake."""
        tail = self._tails.get(payload_bits)
        if tail is None:
            tail = 3 * self.sifs_us + self.cts_us + self.data_us(payload_bits) + self.ack_us
            self._tails[payload_bits] = tail
        return tail


class Frame:
    """One physical frame.  DATA frames double as the queued packet copies."""

    __slots__ = (
        "kind",
        "src",
        "dst",
        "payload_bits",
        "cb",
        "duration_us",
        "seq_no",
        "retransmitted",
        "enqueued_us",
    )

    def __init__(self, kind, src, dst, payload_bits=0, cb="000", duration_us=0, seq_no=0):
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload_bits = payload_bits
        self.cb = cb
        self.duration_us = duration_us
        self.seq_no = seq_no
        self.retransmitted = False
        self.enqueued_us = 0

    def __repr__(self):
        return "<%s %d->%d seq=%d cb=%s>" % (self.kind, self.src, self.dst, self.seq_no, self.cb)


class IntervalCounters:
    """Per-station counters accumulated within one monitoring interval."""

    __slots__ = ("rts_cts", "busy_stop_us", "retrans")

    def __init__(self, rts_cts=0, busy_stop_us=0, retrans=0):
        self.rts_cts = rts_cts
        self.busy_stop_us = busy_stop_us
        self.retrans = retrans

    def __repr__(self):
        return "IntervalCounters(rts_cts=%d, busy_stop_us=%d, retrans=%d)" % (
            self.rts_cts,
            self.busy_stop_us,
            self.retrans,
        )


class Medium:
    """Shared single-cell channel tracking overlapping transmissions."""

    def __init__(self, sim):
        self.sim = sim
        self.stations = {}
        self._order = []  # stations in registration order: reception order
        self._by_id = []  # stations by node id: busy/idle notification order
        self._active = []
        self.last_tx_start = -1
        self.on_clean_frame = None  # monitor tap: fn(frame, now_us)

    def register(self, station):
        if station.node_id in self.stations:
            raise ValueError("duplicate node id %d" % station.node_id)
        self.stations[station.node_id] = station
        self._order.append(station)
        self._by_id = sorted(self._order, key=lambda st: st.node_id)

    def transmit(self, src_id, frame, air_us):
        now = self.sim.now_us
        active = self._active
        rec = [frame, src_id, False]
        if active:
            for r in active:
                r[2] = True
            rec[2] = True
        active.append(rec)
        self.last_tx_start = now
        self.sim.schedule(now + air_us, "frame_end", lambda r=rec: self._end(r))
        if len(active) == 1:
            # the medium just turned busy: contending stations freeze
            for st in self._by_id:
                if st.state is CONTEND:
                    st.on_medium_busy(now)

    def _end(self, rec):
        active = self._active
        active.remove(rec)
        frame, src_id, corrupted = rec
        sim = self.sim
        now = sim.now_us
        if not corrupted:
            if self.on_clean_frame is not None:
                self.on_clean_frame(frame, now)
            kind = frame.kind
            dst = frame.dst
            if sim.trace is not None:
                sim.trace_line(
                    "frame",
                    "%s src=%d dst=%d cb=%s seq=%d"
                    % (kind, frame.src, dst, frame.cb, frame.seq_no),
                )
            handshake = kind == RTS or kind == CTS
            nav = now + frame.duration_us if frame.duration_us > 0 else 0
            # Overheard frames only count, extend the NAV and, after an RTS,
            # arm the NAV release; the addressee handles its frame in receive().
            # Stations go in registration order, so events keep their seq order.
            for st in self._order:
                node = st.node_id
                if node == src_id:
                    continue
                if node == dst:
                    st.receive(frame, now)
                elif not st.disabled:
                    if handshake:
                        st.counters.rts_cts += 1
                    if nav:
                        if nav > st.nav_until:
                            st.nav_until = nav
                        if kind == RTS:
                            sim.schedule(now + st.phy.nav_reset_us, "nav_reset_check",
                                         st._nav_reset_check)
        if not active:
            for st in self._by_id:
                if st.state is CONTEND:
                    st.resume_contention(now)


class Station:
    """One DCF station: FIFO frame queue, backoff state, exchange sequencing.

    aggressive=True keeps the contention window pinned at its base on failures
    (greedy senders that never yield); cw_base overrides that base so a greedy
    sender can contend with shorter backoffs than compliant stations.  A
    station with a blocklist attached acts as the access point: it refuses CTS
    to blocked sources and discards their DATA.  disable() models
    deassociation: the station stops transmitting entirely.
    """

    def __init__(self, sim, medium, phy, node_id, rng, aggressive=False, queue_cap=None,
                 cw_base=None):
        self.sim = sim
        self.medium = medium
        self.phy = phy
        self.node_id = node_id
        self.rng = rng
        self.aggressive = aggressive
        self.queue_cap = queue_cap
        self.queue = deque()
        self.state = IDLE
        self.cw_base = cw_base if cw_base is not None else phy.cw_min
        self.cw = self.cw_base
        self.disabled = False
        self.retry = 0
        self.backoff_rem = 0
        self.nav_until = 0
        self.counters = IntervalCounters()
        self.stamp_cb = "000"  # congestion bits stamped into outgoing RTS/DATA
        self.blocklist = None  # set of node ids (access point only)
        self.on_data_rx = None  # fn(frame, now_us): clean DATA addressed to me
        self.on_copy_done = None  # fn(frame, outcome, now_us): sender-side ledger
        self.on_enqueue = None  # fn(frame, now_us): fires for every copy offered
        self._counting = False
        self._count_start = 0
        self._frozen_since = None
        self._attempt_h = None
        self._start_h = None
        self._nav_h = None
        self._exchange_h = None  # own exchange: CTS/ACK timeout, or DATA due after a CTS
        self._resp_h = None  # own CTS/ACK response due SIFS after the frame it answers
        self._resp_frame = None  # the frame _resp_h sends
        self._awaiting = None
        medium.register(self)

    # -- queueing ---------------------------------------------------------

    def enqueue(self, frame):
        """Accept a DATA frame for transmission; returns False on overflow."""
        now = self.sim.now_us
        frame.enqueued_us = now
        if self.on_enqueue is not None:
            self.on_enqueue(frame, now)
        if self.disabled:
            if self.on_copy_done is not None:
                self.on_copy_done(frame, OUT_BLOCKED_DROP, now)
            return False
        if self.queue_cap is not None and len(self.queue) >= self.queue_cap:
            if self.on_copy_done is not None:
                self.on_copy_done(frame, OUT_OVERFLOW_DROP, now)
            return False
        self.queue.append(frame)
        if self.state == IDLE:
            self.retry = 0
            self.backoff_rem = self.rng.uniform_int(0, self.cw)
            self._enter_contend(now)
        return True

    def disable(self):
        """Deassociate: cease all transmission and drop everything queued.

        Every pending step of the station's own exchanges is cancelled: the
        contention timers, a CTS/ACK timeout, a DATA due SIFS after a CTS and
        a CTS/ACK response.  A frame already in the air completes (it cannot
        be recalled), but its exchange dies.
        """
        if self.disabled:
            return
        self.disabled = True
        now = self.sim.now_us
        self.checkpoint_freeze(now)
        self._leave_contend()
        for h in (self._exchange_h, self._resp_h):
            if h is not None:
                h.cancel()
        self._exchange_h = self._resp_h = None
        self._awaiting = None
        self._frozen_since = None
        self.state = IDLE
        while self.queue:
            copy = self.queue.popleft()
            if self.on_copy_done is not None:
                self.on_copy_done(copy, OUT_BLOCKED_DROP, now)

    # -- contention -------------------------------------------------------

    def _enter_contend(self, now):
        self.state = CONTEND
        self._frozen_since = None
        self.resume_contention(now)

    def _leave_contend(self):
        if self._attempt_h is not None:
            self._attempt_h.cancel()
        if self._start_h is not None:
            self._start_h.cancel()
        if self._nav_h is not None:
            self._nav_h.cancel()
        self._attempt_h = self._start_h = self._nav_h = None
        self._counting = False

    def resume_contention(self, now):
        """Contend from now on: freeze while the medium or the NAV is busy, else
        count DIFS then the remaining backoff.  The medium calls this for every
        contending station when it turns idle."""
        if self.medium._active:
            if self._frozen_since is None:
                self._frozen_since = now
            return
        if self.nav_until > now:
            if self._frozen_since is None:
                self._frozen_since = now
            if self._nav_h is None or self._nav_h.cancelled:
                self._nav_h = self.sim.schedule(self.nav_until, "nav_expire", self._on_nav_wake)
            return
        if self._frozen_since is not None:
            self.counters.busy_stop_us += now - self._frozen_since
            self._frozen_since = None
        if self._counting or self._start_h is not None:
            return
        self._start_h = self.sim.schedule(now + self.phy.difs_us, "difs_end", self._on_count_start)

    def _on_nav_wake(self):
        self._nav_h = None
        if self.state == CONTEND:
            self.resume_contention(self.sim.now_us)

    def _on_count_start(self):
        self._start_h = None
        now = self.sim.now_us
        self._counting = True
        self._count_start = now
        if self.backoff_rem == 0:
            self._on_attempt()
        else:
            self._attempt_h = self.sim.schedule(
                now + self.backoff_rem * self.phy.slot_us, "attempt", self._on_attempt
            )

    def on_medium_busy(self, now):
        # called only while contending (a disabled station never contends)
        if self._counting:
            elapsed = now - self._count_start
            self.backoff_rem -= min(self.backoff_rem, elapsed // self.phy.slot_us)
            self._counting = False
            if self._attempt_h is not None:
                # an attempt at this exact instant still fires (same-slot collision)
                if self._attempt_h.fire_us != now:
                    self._attempt_h.cancel()
                    self._attempt_h = None
        elif self._start_h is not None:
            self._start_h.cancel()
            self._start_h = None
        if self._frozen_since is None:
            self._frozen_since = now

    def checkpoint_freeze(self, now):
        """Fold any in-progress freeze into the counters (interval boundary)."""
        if self._frozen_since is not None:
            self.counters.busy_stop_us += now - self._frozen_since
            self._frozen_since = now

    def rollover_counters(self):
        """Hand over this interval's counters and start fresh ones."""
        self.checkpoint_freeze(self.sim.now_us)
        counters = self.counters
        self.counters = IntervalCounters()
        return counters

    # -- exchange sequencing ----------------------------------------------

    def _drop_stale_head(self, now):
        if self.aggressive:  # greedy senders never discard stale frames
            return
        lifetime = self.phy.queue_lifetime_us
        while self.queue and now - self.queue[0].enqueued_us > lifetime:
            copy = self.queue.popleft()
            self.cw = self.cw_base
            self.retry = 0
            if self.on_copy_done is not None:
                self.on_copy_done(copy, OUT_LIFETIME_DROP, now)

    def _on_attempt(self):
        if self.disabled:
            return
        self._attempt_h = None
        self._counting = False
        self._frozen_since = None
        now = self.sim.now_us
        self.backoff_rem = 0
        self._leave_contend()
        self._drop_stale_head(now)
        if not self.queue:
            self.state = IDLE
            return
        head = self.queue[0]
        self.state = TXSEQ
        phy = self.phy
        rts = Frame(RTS, self.node_id, head.dst, 0, self.stamp_cb,
                    phy.exchange_tail_us(head.payload_bits), head.seq_no)
        self.medium.transmit(self.node_id, rts, phy.rts_us)
        self._awaiting = CTS
        self._exchange_h = self.sim.schedule(
            now + phy.rts_us + phy.cts_timeout_us, "cts_timeout", self._on_exchange_timeout
        )

    def _tx_data(self):
        now = self.sim.now_us
        head = self.queue[0]
        head.cb = self.stamp_cb
        head.duration_us = self.phy.sifs_us + self.phy.ack_us
        air = self.phy.data_us(head.payload_bits)
        self.medium.transmit(self.node_id, head, air)
        self._awaiting = ACK
        self._exchange_h = self.sim.schedule(
            now + air + self.phy.ack_timeout_us, "ack_timeout", self._on_exchange_timeout
        )

    def _tx_cts(self):
        self._resp_h = None
        self.medium.transmit(self.node_id, self._resp_frame, self.phy.cts_us)

    def _tx_ack(self):
        self._resp_h = None
        self.medium.transmit(self.node_id, self._resp_frame, self.phy.ack_us)

    def _on_exchange_timeout(self):
        """Missing CTS or ACK: count a retransmission, back off, retry or drop."""
        if self.disabled:
            return
        self._exchange_h = None
        self._awaiting = None
        now = self.sim.now_us
        self.counters.retrans += 1
        self.retry += 1
        if not self.aggressive:
            self.cw = min(2 * (self.cw + 1) - 1, self.phy.cw_max)
        if self.retry > self.phy.retry_limit:
            copy = self.queue.popleft()
            self.cw = self.cw_base
            self.retry = 0
            if self.on_copy_done is not None:
                self.on_copy_done(copy, OUT_RETRY_DROP, now)
            if not self.queue:
                self.state = IDLE
                return
        self.backoff_rem = self.rng.uniform_int(0, self.cw)
        self._enter_contend(now)

    def _exchange_success(self):
        now = self.sim.now_us
        copy = self.queue.popleft()
        self._awaiting = None
        self.cw = self.cw_base
        self.retry = 0
        if self.on_copy_done is not None:
            self.on_copy_done(copy, OUT_DELIVERED, now)
        if self.queue:
            self.backoff_rem = self.rng.uniform_int(0, self.cw)
            self._enter_contend(now)
        else:
            self.state = IDLE

    # -- reception ---------------------------------------------------------

    def receive(self, frame, now):
        """A clean frame addressed to this station (Medium._end handles overheard ones)."""
        if self.disabled:
            return
        kind = frame.kind
        if kind == RTS or kind == CTS:
            self.counters.rts_cts += 1
        if kind == RTS:
            if self.blocklist is not None and frame.src in self.blocklist:
                return
            if self.nav_until > now:
                return
            if self._resp_h is not None:
                return
            phy = self.phy
            self._resp_frame = Frame(CTS, self.node_id, frame.src, 0, "000",
                                     max(frame.duration_us - phy.sifs_us - phy.cts_us, 0),
                                     frame.seq_no)
            self._resp_h = self.sim.schedule(now + phy.sifs_us, "cts_tx", self._tx_cts)
        elif kind == CTS:
            if self._awaiting == CTS and self.queue and frame.src == self.queue[0].dst:
                if self._exchange_h is not None:
                    self._exchange_h.cancel()
                self._awaiting = None
                self._exchange_h = self.sim.schedule(
                    now + self.phy.sifs_us, "data_tx", self._tx_data
                )
        elif kind == DATA:
            if self.blocklist is not None and frame.src in self.blocklist:
                return
            if self._resp_h is None:
                self._resp_frame = Frame(ACK, self.node_id, frame.src, 0, "000", 0, frame.seq_no)
                self._resp_h = self.sim.schedule(now + self.phy.sifs_us, "ack_tx", self._tx_ack)
                if self.on_data_rx is not None:
                    self.on_data_rx(frame, now)
        elif kind == ACK:
            if self._awaiting == ACK:
                if self._exchange_h is not None:
                    self._exchange_h.cancel()
                    self._exchange_h = None
                self._exchange_success()

    def _nav_reset_check(self):
        """Release the NAV an overheard RTS set if its handshake died (no CTS).

        Runs nav_reset_us after the RTS ended: no frame may have started since.
        """
        now = self.sim.now_us
        if self.medium.last_tx_start <= now - self.phy.nav_reset_us and not self.medium._active:
            if self.nav_until > now:
                self.nav_until = now
                if self.state == CONTEND:
                    self.resume_contention(now)
