"""Congestion-bit computation and the passive-server blocking state machine.

Per monitoring interval every station is summarized by three counters (its
RTS/CTS count: the RTS it sent plus the CTS sent to it; time its backoff sat
frozen; retransmissions).  Each counter strictly above its threshold sets one
congestion bit.  The three bits have one form, the code "c1c2c3" (such as
"101") that frames carry, the trace prints and the detections CSV records.
The number of set bits grades the finding (normal / suspected / attacker) and
repeated bad findings escalate to a block.
"""

from dataclasses import dataclass

from .config import STREAK
from .kernel import to_us

NOFINDING = "nofinding"
NORMAL = "normal"
SUSPECTED = "suspected"
ATTACKER = "attacker"
BLOCKED = "blocked"

# streak mode: consecutive findings needed before a block
ATTACKER_STREAK_LIMIT = 3
SUSPECTED_STREAK_LIMIT = 4


def compute_cb(counters, mlda):
    """Threshold one interval's counters against a config's mlda section.

    Returns the code "c1c2c3", one "0" or "1" per counter.  Equality does
    not set a bit; only counter > threshold does.  Frozen backoff compares in
    whole microseconds, as the station counts it.
    """
    return "%d%d%d" % (
        counters.rts_cts > mlda.rc_th,
        counters.busy_stop_us > to_us(mlda.se_th_s),
        counters.retrans > mlda.re_th,
    )


def classify_cb(cb):
    """Grade a code by how many bits are set (0..3)."""
    return (NOFINDING, NORMAL, SUSPECTED, ATTACKER)[cb.count("1")]


@dataclass
class NodeStatus:
    status: str = NORMAL
    attacker_streak: int = 0
    suspected_streak: int = 0


class MonitorState:
    """Mutable per-run monitoring state (statuses and streaks)."""

    def __init__(self, escalation=STREAK):
        self.escalation = escalation
        self.statuses = {}


def monitor_interval(state, index, bits_by_node):
    """Process one interval of per-node congestion bits; returns its findings.

    index is the interval's number in the run, 1 for the first; bits_by_node
    maps node id -> code such as "101".  The result holds one (node, cb,
    status) tuple, in node order, for every node that had a finding (at least
    one bit set) or was blocked in this interval; cb is the node's code and
    status its status after the interval, BLOCKED for a block.  A node blocked
    without a finding shows code "000".  Blocked nodes are absorbing: their
    bits are ignored.
    Streak mode: an attacker finding increments the attacker streak, a
    suspected finding increments the suspected streak without resetting the
    attacker streak, and a normal or empty finding resets both.  Absolute
    mode: blocks can fire only in interval 3 (status attacker) or interval 4
    (status suspected).

    Blocking starts a new assessment epoch: every surviving node's streaks
    reset, because findings accumulated while the blocked nodes were loading
    the channel say nothing about behaviour in the relieved network.
    """
    findings = []
    blocked = False
    for node in sorted(bits_by_node):
        st = state.statuses.get(node)
        if st is None:
            st = state.statuses[node] = NodeStatus()
        elif st.status == BLOCKED:
            continue
        cb = bits_by_node[node]
        finding = classify_cb(cb)
        if finding != NOFINDING:
            st.status = finding
        if state.escalation == STREAK:
            if finding == ATTACKER:
                st.attacker_streak += 1
            elif finding == SUSPECTED:
                st.suspected_streak += 1
            else:
                st.attacker_streak = 0
                st.suspected_streak = 0
            block = (
                st.attacker_streak >= ATTACKER_STREAK_LIMIT
                or st.suspected_streak >= SUSPECTED_STREAK_LIMIT
            )
        else:
            block = (index == 3 and st.status == ATTACKER) or (
                index == 4 and st.status == SUSPECTED
            )
        if block:
            st.status = BLOCKED
            blocked = True
        if block or finding != NOFINDING:
            findings.append((node, cb, st.status))
    if blocked and state.escalation == STREAK:
        for st in state.statuses.values():
            if st.status != BLOCKED:
                st.attacker_streak = 0
                st.suspected_streak = 0
    return findings
