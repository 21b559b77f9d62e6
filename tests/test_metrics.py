"""Flow ledgers, class aggregation, and the conservation audit."""

import inspect

import pytest

from roqsim.mac import DATA, OUT_DELIVERED, OUT_LIFETIME_DROP, Frame
from roqsim.metrics import (
    ClassStats,
    FlowStats,
    audit_conservation,
)

WARMUP_US = 1000


def data(bits=8000, src=1):
    return Frame(DATA, src, 0, bits)


def test_flow_ledger_and_window_gating():
    fs = FlowStats(is_attack=False, warmup_us=WARMUP_US)
    fs.on_sent(data(), 0)  # warm-up traffic
    fs.on_sent(data(), WARMUP_US)
    fs.on_copy_done(data(), OUT_DELIVERED, 0)
    fs.on_copy_done(data(), OUT_LIFETIME_DROP, WARMUP_US)
    fs.on_goodput(data(), WARMUP_US)
    assert fs.sent_pkts == 2 and fs.w_sent_pkts == 1
    assert fs.delivered_pkts == 1
    assert fs.dropped_pkts == 1 and fs.w_dropped_pkts == 1
    assert fs.w_goodput_bits == 8000
    assert fs.drop_causes == {"lifetime_drop": 1}
    assert fs.in_flight_pkts == 0
    assert fs.in_flight_bits == 0


def test_window_starts_at_the_warmup_microsecond():
    fs = FlowStats(is_attack=False, warmup_us=WARMUP_US)
    fs.on_sent(data(100), WARMUP_US - 1)
    fs.on_copy_done(data(100), OUT_LIFETIME_DROP, WARMUP_US - 1)
    fs.on_goodput(data(100), WARMUP_US - 1)
    assert (fs.w_sent_pkts, fs.w_dropped_pkts, fs.w_goodput_bits) == (0, 0, 0)
    fs.on_sent(data(100), WARMUP_US)
    fs.on_copy_done(data(100), OUT_LIFETIME_DROP, WARMUP_US)
    fs.on_goodput(data(100), WARMUP_US)
    assert (fs.w_sent_pkts, fs.w_dropped_pkts, fs.w_goodput_bits) == (1, 1, 100)
    # the full-run ledger counts both sides of the boundary
    assert (fs.sent_pkts, fs.dropped_pkts, fs.dropped_bits) == (2, 2, 200)


def test_class_stats_sums_windowed_fields():
    a = FlowStats(is_attack=False, warmup_us=WARMUP_US)
    b = FlowStats(is_attack=False, warmup_us=WARMUP_US)
    for fs in (a, b):
        fs.on_sent(data(100), WARMUP_US)
        fs.on_goodput(data(100), WARMUP_US)
    a.on_sent(data(100), 0)  # outside the window: not aggregated
    cls = ClassStats()
    cls.add(a)
    cls.add(b)
    assert cls.sent_pkts == 2
    assert cls.goodput_bits == 200


def test_packet_loss():
    cls = ClassStats(goodput_bits=1_800_000, sent_pkts=100, dropped_pkts=5)
    assert (cls.dropped_pkts, cls.loss_ratio) == (5, 0.05)
    assert ClassStats().loss_ratio == 0.0


def test_conservation_audit_balanced():
    fs = FlowStats(is_attack=True, warmup_us=0)
    fs.on_sent(data(src=3), 0)
    fs.on_sent(data(src=3), 0)
    fs.on_copy_done(data(src=3), OUT_DELIVERED, 0)
    assert audit_conservation({3: fs}, {3: (1, 8000)}) is True


def test_conservation_audit_detects_leak():
    fs = FlowStats(is_attack=True, warmup_us=0)
    fs.on_sent(data(src=3), 0)
    with pytest.raises(AssertionError, match="node 3"):
        audit_conservation({3: fs}, {3: (0, 0)})  # one copy unaccounted for


def test_flow_stats_constructor_keeps_its_parameters():
    params = [(p.name, p.kind, p.default)
              for p in inspect.signature(FlowStats).parameters.values()]
    pos, required = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
    assert params == [("is_attack", pos, required), ("warmup_us", pos, required)]


def test_a_new_flow_ledger_starts_empty_with_its_own_drop_causes():
    fs, other = FlowStats(True, 5), FlowStats(True, 5)
    assert (fs.is_attack, fs.warmup_us) == (True, 5)
    counters = ("sent_pkts", "sent_bits", "delivered_pkts", "delivered_bits", "dropped_pkts",
                "dropped_bits", "w_sent_pkts", "w_dropped_pkts", "w_goodput_bits")
    assert [getattr(fs, name) for name in counters] == [0] * len(counters)
    assert fs.drop_causes == {} and fs.drop_causes is not other.drop_causes
    assert not hasattr(fs, "__dict__")
