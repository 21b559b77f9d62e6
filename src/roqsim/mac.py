"""Single-cell CSMA/CA MAC with RTS/CTS exchanges over a shared medium.

Every station hears every transmission (one collision domain, no capture):
two frames that overlap in time corrupt each other and are delivered to
nobody.  Data transfer always runs the four-way handshake
RTS -> CTS -> DATA -> ACK with SIFS gaps; contention uses DIFS plus slotted
binary-exponential backoff that freezes while the channel is sensed busy.

A station's state follows its own exchange: idle (nothing queued) ->
contend (DIFS, then the backoff) -> wait_cts (RTS sent) -> txseq (CTS
heard, DATA due SIFS later) -> wait_ack (DATA sent).  A missing CTS or ACK,
or a delivered frame with more queued, leads back to contend with a fresh
backoff; an empty queue leads to idle.  Timer invariants:

- _access_h, the pending difs_end or attempt, and _nav_h, the pending
  nav_expire, live only while the station contends: _leave_contend cancels
  both on the two ways out of contend, the attempt and disable().
- _count_start is set only while the backoff counts down towards an attempt.
- When the medium turns busy a pending DIFS is always cancelled; an attempt
  due at that same instant still fires, so two such RTS collide.
- _exchange_h is the station's own next exchange step (CTS or ACK timeout,
  or the DATA due); _resp_h is the CTS or ACK it owes another station.

Per station and per monitoring interval an IntervalCounters accumulates:
the station counts its frozen backoff and retransmissions, and the medium
records what the access point hears of it, its RTS/CTS count (its own clean
RTS plus the clean CTS addressed to it) and the c2/c3 congestion bits its
clean RTS and DATA frames carried.
"""

from collections import deque
from dataclasses import astuple, dataclass, field

from .config import PhySection
from .kernel import to_us

RTS = "RTS"
CTS = "CTS"
DATA = "DATA"
ACK = "ACK"

IDLE = "idle"
CONTEND = "contend"
WAIT_CTS = "wait_cts"
TXSEQ = "txseq"  # CTS heard, DATA due
WAIT_ACK = "wait_ack"

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


class PhyParams(PhySection):
    """A config's PHY section (default: PhySection()) and its channel timing."""

    def __init__(self, section=None):
        super().__init__(*astuple(section or PhySection()))
        self.queue_lifetime_us = to_us(self.queue_lifetime_s)
        self.rts_us = self.airtime_us(RTS_BITS)
        self.cts_us = self.airtime_us(CTS_BITS)
        self.ack_us = self.airtime_us(ACK_BITS)
        # responder answers at SIFS; allow one slot of slack before giving up.
        # A station that overheard an RTS releases its NAV after the same wait
        # if no CTS followed.
        self.cts_timeout_us = self.sifs_us + self.cts_us + 2 * self.slot_us
        self.ack_timeout_us = self.sifs_us + self.ack_us + 2 * self.slot_us
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


@dataclass(slots=True, eq=False)
class Frame:
    """One physical frame.  DATA frames double as the queued packet copies."""

    kind: str
    src: int
    dst: int
    payload_bits: int = 0
    cb: str = "000"
    duration_us: int = 0
    seq_no: int = 0
    retransmitted: bool = field(default=False, init=False)
    enqueued_us: int = field(default=0, init=False)

    def __repr__(self):
        return "<%s %d->%d seq=%d cb=%s>" % (self.kind, self.src, self.dst, self.seq_no, self.cb)


@dataclass(slots=True, eq=False)
class IntervalCounters:
    """Per-station counters accumulated within one monitoring interval.

    The station counts busy_stop_us and retrans; the medium writes rts_cts,
    heard_c2 and heard_c3, what the access point hears of the station.
    """

    rts_cts: int = 0
    busy_stop_us: int = 0
    retrans: int = 0
    heard_c2: bool = field(default=False, init=False)
    heard_c3: bool = field(default=False, init=False)


def _noop(*_args):
    """Default for every callback hook: nothing listens."""


class Medium:
    """Shared single-cell channel tracking overlapping transmissions.

    It decides collisions from two values: busy, the number of frames on air,
    and _clean, the one frame that can still end clean (it started on an idle
    medium and nothing has overlapped it yet).  Any overlap clears _clean.

    It holds the clock, the PHY timing (a PhyParams) and stations, the cell's one
    station registry, indexed by node id: stations[n] is node n, and frames and
    busy/idle reach the stations in that order.
    """

    def __init__(self, sim, phy):
        self.sim = sim
        self.phy = phy
        self.stations = []
        self.busy = 0  # frames on air
        self._clean = None
        self.last_tx_start = -1
        # fn(frame, now_us) per clean frame, for tests and the bench's frame count
        self.on_clean_frame = _noop

    def register(self, station):
        """Append a station; stations register as nodes 0, 1, 2, ... in order."""
        if station.node_id != len(self.stations):
            raise ValueError("node id %d is not the next id, %d"
                             % (station.node_id, len(self.stations)))
        self.stations.append(station)

    def transmit(self, src_id, frame, air_us):
        now = self.sim.now_us
        self.busy += 1
        self.last_tx_start = now
        self.sim.schedule(now + air_us, "frame_end", lambda s=src_id, f=frame: self._end(s, f))
        if self.busy > 1:
            self._clean = None  # an overlap corrupts every frame on air
            return
        self._clean = frame
        # the medium just turned busy: contending stations freeze
        for st in self.stations:
            if st.state is CONTEND:
                st.on_medium_busy(now)

    def _end(self, src_id, frame):
        self.busy -= 1
        sim = self.sim
        now = sim.now_us
        if frame is self._clean:
            self.on_clean_frame(frame, now)
            kind = frame.kind
            dst = frame.dst
            if sim.trace is not None:
                sim.trace_line(
                    "frame",
                    "%s src=%d dst=%d cb=%s seq=%d"
                    % (kind, frame.src, dst, frame.cb, frame.seq_no),
                )
            nav = now + frame.duration_us if frame.duration_us > 0 else 0
            # The access point hears a node's RTS/CTS count, its own RTS plus the
            # CTS sent to it, and the c2/c3 bits it stamped (CTS and ACK always
            # carry "000"), so a blocked node counts too.
            # Overheard frames only extend the NAV and, after an RTS, arm the
            # NAV release; the addressee handles its frame in receive().
            # Stations go in node-id order, so events keep their seq order.
            for st in self.stations:
                node = st.node_id
                if node == src_id:
                    if kind == RTS:
                        st.counters.rts_cts += 1
                    cb = frame.cb
                    if cb != "000":
                        if cb[1] == "1":
                            st.counters.heard_c2 = True
                        if cb[2] == "1":
                            st.counters.heard_c3 = True
                    continue
                if node == dst:
                    if kind == CTS:
                        st.counters.rts_cts += 1
                    st.receive(frame, now)
                elif not st.disabled:
                    if nav:
                        if nav > st.nav_until:
                            st.nav_until = nav
                        if kind == RTS:
                            sim.schedule(now + self.phy.cts_timeout_us, "nav_reset_check",
                                         st._nav_reset_check)
        if not self.busy:
            for st in self.stations:
                if st.state is CONTEND:
                    st.resume_contention(now)


class Station:
    """One DCF station: FIFO frame queue, backoff state, exchange sequencing.

    An attack section makes the station a greedy attacker (aggressive): its
    contention window stays pinned at attack.cw on failures, its queue holds
    at most attack.queue_cap frames, and it keeps stale frames.  Compliant
    stations start from phy.cw_min with an unbounded queue.  disable() models
    deassociation: the station stops transmitting entirely, and its
    addressee refuses its RTS and DATA.
    """

    def __init__(self, medium, node_id, rng, attack=None):
        self.sim = medium.sim
        self.medium = medium
        self.phy = medium.phy
        self.node_id = node_id
        self.rng = rng
        self.aggressive = attack is not None
        self.queue_cap = attack.queue_cap if self.aggressive else None
        self.queue = deque()
        self.state = IDLE
        self.cw_base = attack.cw if self.aggressive else self.phy.cw_min
        self.cw = self.cw_base
        self.disabled = False
        self.retry = 0
        self.backoff_rem = 0
        self.nav_until = 0
        self.counters = IntervalCounters()
        self.stamp_cb = "000"  # congestion bits stamped into outgoing RTS/DATA
        self.on_data_rx = _noop  # fn(frame, now_us): clean DATA addressed to me
        self.on_copy_done = _noop  # fn(frame, outcome, now_us): sender-side ledger
        self.on_enqueue = _noop  # fn(frame, now_us): fires for every copy offered
        self._access_h = None  # pending difs_end or attempt
        self._count_start = None  # when the backoff countdown began
        self._frozen_since = None
        self._nav_h = None
        self._exchange_h = None  # own exchange: CTS/ACK timeout, or DATA due after a CTS
        self._resp_h = None  # own CTS/ACK response due SIFS after the frame it answers
        self._resp_frame = None  # the frame _resp_h sends
        medium.register(self)

    # -- queueing ---------------------------------------------------------

    def enqueue(self, frame):
        """Accept a DATA frame for transmission; returns False on overflow."""
        now = self.sim.now_us
        frame.enqueued_us = now
        self.on_enqueue(frame, now)
        if self.disabled:
            self.on_copy_done(frame, OUT_BLOCKED_DROP, now)
            return False
        if self.queue_cap is not None and len(self.queue) >= self.queue_cap:
            self.on_copy_done(frame, OUT_OVERFLOW_DROP, now)
            return False
        self.queue.append(frame)
        if self.state is IDLE:  # retry is 0: every way to idle resets it or disables
            self._next_exchange(now)
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
        self.state = IDLE
        while self.queue:
            self.on_copy_done(self.queue.popleft(), OUT_BLOCKED_DROP, now)

    def _pop_head(self, outcome, now):
        """The head copy is done with: report it and reset the window."""
        copy = self.queue.popleft()
        self.cw = self.cw_base
        self.retry = 0
        self.on_copy_done(copy, outcome, now)

    # -- contention -------------------------------------------------------

    def _next_exchange(self, now):
        """Contend for the queue head with a fresh backoff, or go idle."""
        if not self.queue:
            self.state = IDLE
            return
        self.backoff_rem = self.rng.uniform_int(0, self.cw)
        self.state = CONTEND
        self.resume_contention(now)

    def _leave_contend(self):
        if self._access_h is not None:
            self._access_h.cancel()
        if self._nav_h is not None:
            self._nav_h.cancel()
        self._access_h = self._nav_h = self._count_start = self._frozen_since = None

    def resume_contention(self, now):
        """Contend from now on: freeze while the medium or the NAV is busy, else
        count DIFS then the remaining backoff.  The medium calls this for every
        contending station when it turns idle."""
        busy = self.medium.busy
        if busy or self.nav_until > now:
            if self._frozen_since is None:
                self._frozen_since = now
            if not busy and self._nav_h is None:
                self._nav_h = self.sim.schedule(self.nav_until, "nav_expire", self._on_nav_wake)
            return
        if self._frozen_since is not None:
            self.counters.busy_stop_us += now - self._frozen_since
            self._frozen_since = None
        if self._access_h is None:
            self._access_h = self.sim.schedule(now + self.phy.difs_us, "difs_end",
                                               self._on_difs_end)

    def _on_nav_wake(self):
        self._nav_h = None
        self.resume_contention(self.sim.now_us)

    def _on_difs_end(self):
        now = self.sim.now_us
        self._access_h = None
        self._count_start = now
        if self.backoff_rem == 0:
            self._on_attempt()
        else:
            self._access_h = self.sim.schedule(
                now + self.backoff_rem * self.phy.slot_us, "attempt", self._on_attempt
            )

    def on_medium_busy(self, now):
        # called only while contending (a disabled station never contends)
        h = self._access_h
        if self._count_start is not None:  # h is the attempt: keep the slots left
            counted = (now - self._count_start) // self.phy.slot_us
            self.backoff_rem -= min(self.backoff_rem, counted)
            self._count_start = None
            if h.fire_us == now:
                h = None  # an attempt at this exact instant still fires (same-slot collision)
        if h is not None:
            h.cancel()
            self._access_h = None
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

    def _on_attempt(self):
        now = self.sim.now_us
        self._access_h = None  # this very event: nothing to cancel
        self._leave_contend()
        if not self.aggressive:  # greedy senders never discard stale frames
            lifetime = self.phy.queue_lifetime_us
            while self.queue and now - self.queue[0].enqueued_us > lifetime:
                self._pop_head(OUT_LIFETIME_DROP, now)
        if not self.queue:
            self.state = IDLE
            return
        head = self.queue[0]
        self.state = WAIT_CTS
        phy = self.phy
        rts = Frame(RTS, self.node_id, head.dst, 0, self.stamp_cb,
                    phy.exchange_tail_us(head.payload_bits), head.seq_no)
        self.medium.transmit(self.node_id, rts, phy.rts_us)
        self._exchange_h = self.sim.schedule(
            now + phy.rts_us + phy.cts_timeout_us, "cts_timeout", self._on_exchange_timeout
        )

    def _tx_data(self):
        now = self.sim.now_us
        head = self.queue[0]
        head.cb = self.stamp_cb
        head.duration_us = self.phy.sifs_us + self.phy.ack_us
        air = self.phy.data_us(head.payload_bits)
        self.state = WAIT_ACK
        self.medium.transmit(self.node_id, head, air)
        self._exchange_h = self.sim.schedule(
            now + air + self.phy.ack_timeout_us, "ack_timeout", self._on_exchange_timeout
        )

    def _tx_resp(self):
        self._resp_h = None
        frame = self._resp_frame
        air = self.phy.cts_us if frame.kind == CTS else self.phy.ack_us
        self.medium.transmit(self.node_id, frame, air)

    def _on_exchange_timeout(self):
        """Missing CTS or ACK: count a retransmission, back off, retry or drop."""
        self._exchange_h = None
        now = self.sim.now_us
        self.counters.retrans += 1
        self.retry += 1
        if not self.aggressive:
            self.cw = min(2 * (self.cw + 1) - 1, self.phy.cw_max)
        if self.retry > self.phy.retry_limit:
            self._pop_head(OUT_RETRY_DROP, now)
        self._next_exchange(now)

    # -- reception ---------------------------------------------------------

    def receive(self, frame, now):
        """A clean frame addressed to this station (Medium._end handles overheard ones)."""
        if self.disabled:
            return
        kind = frame.kind
        if kind == RTS:
            if (self.medium.stations[frame.src].disabled or self.nav_until > now
                    or self._resp_h is not None):
                return
            phy = self.phy
            self._resp_frame = Frame(CTS, self.node_id, frame.src, 0, "000",
                                     max(frame.duration_us - phy.sifs_us - phy.cts_us, 0),
                                     frame.seq_no)
            self._resp_h = self.sim.schedule(now + phy.sifs_us, "cts_tx", self._tx_resp)
        elif kind == CTS:
            if self.state is WAIT_CTS and frame.src == self.queue[0].dst:
                self._exchange_h.cancel()
                self.state = TXSEQ
                self._exchange_h = self.sim.schedule(
                    now + self.phy.sifs_us, "data_tx", self._tx_data
                )
        elif kind == DATA:
            if self._resp_h is None and not self.medium.stations[frame.src].disabled:
                self._resp_frame = Frame(ACK, self.node_id, frame.src, 0, "000", 0, frame.seq_no)
                self._resp_h = self.sim.schedule(now + self.phy.sifs_us, "ack_tx", self._tx_resp)
                self.on_data_rx(frame, now)
        elif kind == ACK:
            if self.state is WAIT_ACK:
                self._exchange_h.cancel()
                self._exchange_h = None
                self._pop_head(OUT_DELIVERED, now)
                self._next_exchange(now)

    def _nav_reset_check(self):
        """Release the NAV an overheard RTS set if its handshake died (no CTS).

        Runs cts_timeout_us after the RTS ended: no frame may have started since.
        """
        now = self.sim.now_us
        if self.medium.last_tx_start <= now - self.phy.cts_timeout_us and not self.medium.busy:
            if self.nav_until > now:
                self.nav_until = now
                if self.state is CONTEND:
                    self.resume_contention(now)
