"""Flow ledgers, class aggregation, and the conservation audit."""

import pytest

from roqsim.metrics import (
    ClassStats,
    FlowStats,
    audit_conservation,
    packet_loss,
)


def test_flow_ledger_and_window_gating():
    fs = FlowStats(1, is_attack=False)
    fs.on_sent(8000, in_window=False)  # warm-up traffic
    fs.on_sent(8000, in_window=True)
    fs.on_delivered(8000)
    fs.on_dropped(8000, "lifetime_drop", in_window=True)
    fs.on_goodput(8000, in_window=True)
    assert fs.sent_pkts == 2 and fs.w_sent_pkts == 1
    assert fs.delivered_pkts == 1
    assert fs.dropped_pkts == 1 and fs.w_dropped_pkts == 1
    assert fs.goodput_bits == 8000 and fs.w_goodput_bits == 8000
    assert fs.drop_causes == {"lifetime_drop": 1}
    assert fs.in_flight_pkts == 0
    assert fs.in_flight_bits == 0


def test_class_stats_sums_windowed_fields():
    a = FlowStats(1, is_attack=False)
    b = FlowStats(2, is_attack=False)
    for fs in (a, b):
        fs.on_sent(100, in_window=True)
        fs.on_goodput(100, in_window=True)
    a.on_sent(100, in_window=False)  # outside the window: not aggregated
    cls = ClassStats()
    cls.add(a)
    cls.add(b)
    assert cls.sent_pkts == 2
    assert cls.goodput_bits == 200


def test_packet_loss():
    cls = ClassStats(goodput_bits=1_800_000, sent_pkts=100, dropped_pkts=5)
    assert packet_loss(cls) == (5, 0.05)
    assert packet_loss(ClassStats()) == (0, 0.0)


def test_conservation_audit_balanced():
    fs = FlowStats(3, is_attack=True)
    fs.on_sent(8000, True)
    fs.on_sent(8000, True)
    fs.on_delivered(8000)
    assert audit_conservation({3: fs}, {3: (1, 8000)}) is True


def test_conservation_audit_detects_leak():
    fs = FlowStats(3, is_attack=True)
    fs.on_sent(8000, True)
    with pytest.raises(AssertionError, match="node 3"):
        audit_conservation({3: fs}, {3: (0, 0)})  # one copy unaccounted for
