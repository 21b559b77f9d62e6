"""Per-flow accounting and the run-level metrics derived from it.

Two ledgers per flow: the full-run ledger backs the conservation audit
(sent == delivered + dropped + still-queued, in packet copies and bits) and
the windowed ledger (events at or after the warm-up cutoff) backs metrics.
Goodput counts each sequence number once, at its first clean reception.
"""

from dataclasses import dataclass, field

from .mac import OUT_DELIVERED


@dataclass(slots=True, eq=False)
class FlowStats:
    """Copy-level sender ledger plus receiver-side unique goodput.

    on_sent, on_copy_done and on_goodput are a station's and the sink's hooks:
    they take the frame and the event time, and an event counts in the
    windowed ledger when it falls at or after warmup_us.
    """

    is_attack: bool
    warmup_us: int
    sent_pkts: int = field(default=0, init=False)
    sent_bits: int = field(default=0, init=False)
    delivered_pkts: int = field(default=0, init=False)
    delivered_bits: int = field(default=0, init=False)
    dropped_pkts: int = field(default=0, init=False)
    dropped_bits: int = field(default=0, init=False)
    drop_causes: dict = field(default_factory=dict, init=False)
    w_sent_pkts: int = field(default=0, init=False)
    w_dropped_pkts: int = field(default=0, init=False)
    w_goodput_bits: int = field(default=0, init=False)

    def on_sent(self, frame, now):
        bits = frame.payload_bits
        self.sent_pkts += 1
        self.sent_bits += bits
        if now >= self.warmup_us:
            self.w_sent_pkts += 1

    def on_copy_done(self, frame, outcome, now):
        if outcome == OUT_DELIVERED:
            self.on_delivered(frame.payload_bits)
        else:
            self.on_dropped(frame.payload_bits, outcome, now >= self.warmup_us)

    def on_delivered(self, bits):
        self.delivered_pkts += 1
        self.delivered_bits += bits

    def on_dropped(self, bits, cause, in_window):
        self.dropped_pkts += 1
        self.dropped_bits += bits
        self.drop_causes[cause] = self.drop_causes.get(cause, 0) + 1
        if in_window:
            self.w_dropped_pkts += 1

    def on_goodput(self, frame, now):
        if now >= self.warmup_us:
            self.w_goodput_bits += frame.payload_bits

    @property
    def in_flight_pkts(self):
        return self.sent_pkts - self.delivered_pkts - self.dropped_pkts

    @property
    def in_flight_bits(self):
        return self.sent_bits - self.delivered_bits - self.dropped_bits


@dataclass
class ClassStats:
    """Aggregate over the flows of one traffic class (legit or attack)."""

    goodput_bits: int = 0
    sent_pkts: int = 0
    dropped_pkts: int = 0

    def add(self, fs):
        self.goodput_bits += fs.w_goodput_bits
        self.sent_pkts += fs.w_sent_pkts
        self.dropped_pkts += fs.w_dropped_pkts

    @property
    def loss_ratio(self):
        """Dropped over sent packet copies; 0 when nothing was sent."""
        return self.dropped_pkts / self.sent_pkts if self.sent_pkts else 0.0


def audit_conservation(flows, leftover_by_node):
    """Check sent == delivered + dropped + still-held for every flow.

    leftover_by_node maps node id -> (pkts, bits) still sitting in MAC queues
    (including any copy mid-exchange) at the end of the run.  Raises
    AssertionError on any imbalance; returns True otherwise.
    """
    for node, fs in sorted(flows.items()):
        left_pkts, left_bits = leftover_by_node.get(node, (0, 0))
        if fs.in_flight_pkts != left_pkts or fs.in_flight_bits != left_bits:
            raise AssertionError(
                "conservation violated for node %d: ledger in-flight %d pkts/%d bits, "
                "queues hold %d pkts/%d bits"
                % (node, fs.in_flight_pkts, fs.in_flight_bits, left_pkts, left_bits)
            )
        if fs.in_flight_pkts < 0 or fs.in_flight_bits < 0:
            raise AssertionError("negative in-flight for node %d" % node)
    return True
