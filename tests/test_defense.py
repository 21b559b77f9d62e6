"""Congestion-bit computation, classification, and escalation state machine."""

import itertools

import pytest

from roqsim.config import ABSOLUTE, STREAK, ConfigError, MldaSection, config_from_dict
from roqsim.defense import (
    ATTACKER,
    BLOCKED,
    NOFINDING,
    NORMAL,
    SUSPECTED,
    MonitorState,
    classify_cb,
    compute_cb,
    monitor_interval,
)
from roqsim.mac import IntervalCounters

TH = MldaSection(rc_th=10.0, se_th_s=0.5, re_th=3.0)

# observation that produces exactly the wanted bit pattern under TH
BIT_COUNTERS = {
    "0": dict(rts_cts=10, busy_stop_us=500_000, retrans=3),  # at threshold: clear
    "1": dict(rts_cts=11, busy_stop_us=500_001, retrans=4),  # just above: set
}


def counters_for(code):
    on = BIT_COUNTERS["1"]
    off = BIT_COUNTERS["0"]
    return IntervalCounters(
        rts_cts=(on if code[0] == "1" else off)["rts_cts"],
        busy_stop_us=(on if code[1] == "1" else off)["busy_stop_us"],
        retrans=(on if code[2] == "1" else off)["retrans"],
    )


ALL_CODES = ["%d%d%d" % bits for bits in itertools.product((0, 1), repeat=3)]


def test_bits_require_strict_excess():
    for code in ALL_CODES:
        assert compute_cb(counters_for(code), TH) == code


def test_classification_partition():
    grades = {
        "000": NOFINDING,
        "100": NORMAL, "010": NORMAL, "001": NORMAL,
        "110": SUSPECTED, "101": SUSPECTED, "011": SUSPECTED,
        "111": ATTACKER,
    }
    for code, grade in grades.items():
        assert classify_cb(code) == grade


def test_threshold_validation():
    with pytest.raises(ConfigError, match="mlda.rc_th"):
        config_from_dict({"mlda": {"rc_th": -1, "se_th_s": 0.5, "re_th": 3}})
    with pytest.raises(ConfigError, match="mlda.interval_s"):
        config_from_dict({"mlda": {"rc_th": 1, "se_th_s": 0.5, "re_th": 3, "interval_s": 0}})
    # frozen backoff compares in whole microseconds: 0.000249 s is
    # 248.99999999999997 us as a float, 249 us once rounded
    th = MldaSection(rc_th=1, se_th_s=0.000249, re_th=3)
    assert compute_cb(IntervalCounters(rts_cts=0, busy_stop_us=249, retrans=0), th)[1] == "0"
    assert compute_cb(IntervalCounters(rts_cts=0, busy_stop_us=250, retrans=0), th)[1] == "1"


def drive(state, index, codes_by_node):
    """Feed interval `index` (1-based); codes_by_node maps node -> code."""
    return monitor_interval(state, index, codes_by_node)


def blocked(findings):
    """Nodes that one interval's findings block."""
    return {node for node, _, status in findings if status == BLOCKED}


def test_streak_blocks_on_three_attacker_intervals():
    state = MonitorState(escalation=STREAK)
    assert drive(state, 1, {1: "111"}) == [(1, "111", ATTACKER)]
    drive(state, 2, {1: "111"})
    actions = drive(state, 3, {1: "111"})
    assert actions == [(1, "111", BLOCKED)]
    assert state.statuses[1].status == BLOCKED


def test_streak_blocks_on_four_suspected_intervals():
    state = MonitorState(escalation=STREAK)
    for i in range(1, 4):
        actions = drive(state, i, {1: "110"})
        assert 1 not in blocked(actions)
    actions = drive(state, 4, {1: "011"})  # any two-bit code keeps the streak
    assert 1 in blocked(actions)


def test_normal_interval_resets_streaks():
    state = MonitorState(escalation=STREAK)
    drive(state, 1, {1: "111"})
    drive(state, 2, {1: "111"})
    drive(state, 3, {1: "100"})  # one-bit finding wipes both streaks
    for i in range(4, 6):
        actions = drive(state, i, {1: "111"})
        assert 1 not in blocked(actions)
    assert 1 in blocked(drive(state, 6, {1: "111"}))


def test_suspected_preserves_attacker_streak():
    state = MonitorState(escalation=STREAK)
    drive(state, 1, {1: "111"})
    drive(state, 2, {1: "110"})  # suspected: attacker streak survives
    drive(state, 3, {1: "111"})
    actions = drive(state, 4, {1: "111"})
    assert 1 in blocked(actions)  # third attacker finding, suspected in between


def test_blocked_node_is_absorbing():
    state = MonitorState(escalation=STREAK)
    for i in range(1, 4):
        drive(state, i, {1: "111"})
    assert drive(state, 4, {1: "111"}) == []  # observations ignored once blocked
    assert state.statuses[1].status == BLOCKED


def test_nofinding_emits_nothing():
    state = MonitorState(escalation=STREAK)
    assert drive(state, 1, {1: "000"}) == []
    assert state.statuses[1].status == NORMAL  # initial status untouched


def test_block_resets_surviving_streaks():
    # enforcement changes the network, so old momentum must not carry over
    state = MonitorState(escalation=STREAK)
    drive(state, 1, {1: "111", 2: "111"})
    drive(state, 2, {1: "111", 2: "110"})
    actions = drive(state, 3, {1: "111", 2: "111"})  # node 1 reaches three
    assert 1 in blocked(actions) and 2 not in blocked(actions)
    assert state.statuses[2].attacker_streak == 0
    assert state.statuses[2].suspected_streak == 0
    drive(state, 4, {2: "111"})
    actions = drive(state, 5, {2: "111"})
    assert 2 not in blocked(actions)  # needs a fresh run of three
    assert 2 in blocked(drive(state, 6, {2: "111"}))


def test_absolute_mode_interval_three_and_four():
    state = MonitorState(escalation=ABSOLUTE)
    drive(state, 1, {1: "000"})
    drive(state, 2, {1: "000"})
    actions = drive(state, 3, {1: "111"})  # attacker status at interval 3
    assert 1 in blocked(actions)

    state = MonitorState(escalation=ABSOLUTE)
    for i in range(1, 4):
        drive(state, i, {1: "110"})
    actions = drive(state, 4, {1: "110"})  # suspected status at interval 4
    assert 1 in blocked(actions)

    state = MonitorState(escalation=ABSOLUTE)
    for i in range(1, 5):
        drive(state, i, {1: "000"})
    actions = drive(state, 5, {1: "111"})  # interval 5: the gate has passed
    assert 1 not in blocked(actions)


def test_block_without_finding_reports_empty_bits():
    # absolute mode blocks on the status earlier findings left, whatever this interval saw
    state = MonitorState(escalation=ABSOLUTE)
    drive(state, 1, {1: "000", 2: "000"})
    drive(state, 2, {1: "111", 2: "100"})
    assert drive(state, 3, {1: "000", 2: "000"}) == [(1, "000", BLOCKED)]


# -- exhaustive cross-check against an independent replay ---------------------


def oracle_streak(findings):
    """Interval (1-based) at which a block fires, or None; independent replay."""
    a = s = 0
    for i, f in enumerate(findings, start=1):
        if f == ATTACKER:
            a += 1
        elif f == SUSPECTED:
            s += 1
        else:
            a = s = 0
        if a >= 3 or s >= 4:
            return i
    return None


def oracle_absolute(findings):
    status = NORMAL
    for i, f in enumerate(findings, start=1):
        if f != NOFINDING:
            status = f
        if (i == 3 and status == ATTACKER) or (i == 4 and status == SUSPECTED):
            return i
    return None


@pytest.mark.parametrize("mode", [STREAK, ABSOLUTE])
def test_escalation_matches_replay_for_all_short_sequences(mode):
    oracle = oracle_streak if mode == STREAK else oracle_absolute
    for length in range(1, 5):
        for seq in itertools.product(ALL_CODES, repeat=length):
            state = MonitorState(escalation=mode)
            expected = oracle([classify_cb(c) for c in seq])
            got = None
            for i, code in enumerate(seq, start=1):
                actions = drive(state, i, {1: code})
                if blocked(actions):
                    assert got is None, "blocked twice for %s" % (seq,)
                    got = i
            assert got == expected, "sequence %s: block at %s, replay says %s" % (
                seq, got, expected)
