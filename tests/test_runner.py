"""End-to-end single runs: defenses, blocking, accounting, traces."""

import dataclasses
import io
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dcf_timing import check_dcf_timing
from test_fingerprint import LYING_RUN, TRACED_RUN

from roqsim.config import ABSOLUTE, DEFENSES, STREAK, config_from_dict
from roqsim.defense import compute_cb
from roqsim.harness import resolve_thresholds
from roqsim.kernel import Simulator, to_us
from roqsim.mac import ACK, CTS, DATA, OUT_BLOCKED_DROP, RTS, Medium, PhyParams, Station
from roqsim.runner import SimulationRun, run_simulation
from roqsim.traffic import TCP_ACK_BITS

# explicit detection thresholds so these tests skip the calibration run
TH = {"rc_th": 45.0, "se_th_s": 0.05, "re_th": 3.0}


def cfg(**over):
    base = {"duration_s": 30.0, "warmup_s": 10.0, "seed": 1}
    base.update(over)
    return config_from_dict(base)


def test_attack_free_runs_identically_under_every_defense():
    # idle defenses must not perturb the event sequence
    results = {}
    for defense in ("none", "mlda", "shrew"):
        c = cfg(defense=defense, attack={"count": 0}, mlda=TH)
        results[defense] = run_simulation(c)
    bits = {d: r.legit.goodput_bits for d, r in results.items()}
    assert bits["none"] == bits["mlda"] == bits["shrew"]
    assert all(not r.blocked for r in results.values())
    assert all(r.false_blocks == 0 for r in results.values())


def test_same_seed_reproduces_exactly():
    a = run_simulation(cfg())
    b = run_simulation(cfg())
    assert a.legit.goodput_bits == b.legit.goodput_bits
    assert a.attack.goodput_bits == b.attack.goodput_bits
    assert a.timeouts == b.timeouts
    assert {n: f.sent_pkts for n, f in a.flows.items()} == {
        n: f.sent_pkts for n, f in b.flows.items()
    }


def test_pulsed_attack_degrades_undefended_flows():
    clean = run_simulation(cfg(attack={"count": 0}))
    hit = run_simulation(cfg())
    # paced flows deliver some backlog late, so the dent stays moderate here;
    # the heavy-degradation case is pinned on a greedy flow in the acceptance suite
    assert hit.legit_bw_bps < 0.8 * clean.legit_bw_bps
    assert hit.timeouts > 0  # flows actually hit retransmission timeouts
    drops = {}
    for fs in hit.flows.values():
        if not fs.is_attack:
            for cause, k in fs.drop_causes.items():
                drops[cause] = drops.get(cause, 0) + k
    assert drops.get("lifetime_drop", 0) > 0  # queues went stale under load


def test_mlda_blocks_attackers_and_spares_victims():
    r = run_simulation(cfg(defense="mlda", mlda=TH))
    attackers = {n for n, fs in r.flows.items() if fs.is_attack}
    assert r.blocked == attackers
    assert r.false_blocks == 0
    blocks = [row for row in r.detection_rows if row[4] == "block"]
    assert sorted(row[1] for row in blocks) == sorted(attackers)
    assert all(row[0] <= 6 for row in blocks)  # caught within a few intervals
    run = SimulationRun(cfg(defense="mlda", mlda=TH))
    run.execute()
    assert all(run.stations[n].disabled for n in attackers)


def test_a_block_is_one_state_the_disabled_station():
    run = SimulationRun(cfg(defense="mlda", mlda=TH))
    result = run.execute()
    assert result.blocked  # the run blocks
    assert result.blocked == {st.node_id for st in run.stations if st.disabled}
    # no second record of the decision: neither the run nor the AP keeps a set
    assert not hasattr(run, "blocklist")
    assert not any(hasattr(st, "blocklist") for st in run.stations)


def test_blocked_attacker_sources_stop_at_the_block():
    run = SimulationRun(cfg(defense="mlda", mlda=TH))
    at_block = {}  # node -> (arrivals, copies queued) when the block lands
    block = run._block

    def spy(node, detail):
        queued = len(run.stations[node].queue)
        block(node, detail)
        at_block[node] = (run.pulsed_sources[node].arrivals, queued)

    run._block = spy
    result = run.execute()  # the conservation audit runs here
    assert sorted(at_block) == sorted(run.attacker_nodes)
    for node, (arrivals, queued) in at_block.items():
        assert run.pulsed_sources[node].arrivals == arrivals
        fs = result.flows[node]
        assert fs.sent_pkts == arrivals
        # the only blocked drops are the copies the block drained
        assert fs.drop_causes[OUT_BLOCKED_DROP] == queued


def test_mlda_recovers_legit_bandwidth():
    clean = run_simulation(cfg(attack={"count": 0}))
    defended = run_simulation(cfg(defense="mlda", mlda=TH))
    assert defended.legit_bw_bps >= 0.7 * clean.legit_bw_bps


def test_lying_attackers_evade_stamp_based_bits():
    # zeroed stamps leave only the server-counted bit: grade caps at Normal,
    # so the marking-dependent escalation never reaches the real attackers
    c = cfg(defense="mlda", mlda=dict(TH, lying_attacker=True))
    r = run_simulation(c)
    attackers = {n for n, fs in r.flows.items() if fs.is_attack}
    assert not (attackers & r.blocked)


def test_shrew_blocks_slow_pulser():
    c = cfg(duration_s=60.0, defense="shrew",
            attack={"count": 1, "period_s": 5.0, "burst_s": 1.0, "rate_pps": 600})
    r = run_simulation(c)
    attackers = {n for n, fs in r.flows.items() if fs.is_attack}
    assert attackers <= r.blocked
    by_flow = {v.flow: v for v in r.verdicts}
    assert by_flow[3].verdict == "attack"
    assert by_flow[3].ratio > 0.7


@pytest.mark.xfail(strict=True, reason="802.11 short-term unfairness: a winner resets to"
                   " cw_min while the losers keep doubled windows, so an honest node can stay"
                   " above 1.5x the calibrated means for several intervals")
def test_busy_honest_cell_has_no_false_blocks():
    # 8 legit stations at 60 pps saturate the cell; seed 3 blocks nodes 6, 7 and 8
    c = resolve_thresholds(cfg(duration_s=60.0, seed=3, defense="mlda",
                               legit={"count": 8, "app_rate_pps": 60}, attack={"count": 0}))
    r = run_simulation(c)
    assert not r.blocked


def test_mlda_without_thresholds_raises():
    with pytest.raises(ValueError):
        SimulationRun(cfg(defense="mlda"))


def test_trace_output():
    buf = io.StringIO()
    run_simulation(cfg(duration_s=5.0, warmup_s=1.0), trace=buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) > 100
    kinds = {line.split("\t")[2] for line in lines}
    assert "frame" in kinds
    assert "interval_rollover" in kinds
    for line in lines[:20]:
        assert len(line.split("\t")) == 4


def test_run_reads_its_stations_from_the_medium_registry():
    c = cfg(legit={"count": 3}, attack={"count": 2})
    run = SimulationRun(c)
    assert run.stations is run.medium.stations
    # run.stations[n] is node n: the access point, then legit, then attackers
    assert [st.node_id for st in run.stations] == list(range(6))
    # no container of the run's own holds stations: the medium's list is the one
    held = [v for v in vars(run).values() if isinstance(v, (dict, list))
            and any(isinstance(x, Station) for x in (v.values() if isinstance(v, dict) else v))]
    assert held and all(v is run.medium.stations for v in held)


def test_interval_records_cover_all_stations():
    c = cfg(duration_s=10.0, warmup_s=2.0)
    result = run_simulation(c)
    nodes = {node for _, node, _ in result.interval_records}
    assert nodes == set(c.legit_nodes() + c.attacker_nodes())
    indexes = {index for index, _, _ in result.interval_records}
    assert indexes == set(range(1, 11))


def _rts_cts_on_air(trace):
    """Interval index -> node -> clean RTS the node sent plus clean CTS sent to it.

    Read in dispatch order: each interval_rollover line closes an interval.
    """
    intervals = {}
    current = Counter()
    for line in trace.splitlines():
        _, _, kind, detail = line.split("\t", 3)
        if kind == "frame":
            frame_kind, src, dst = detail.split()[:3]
            if frame_kind == "RTS":
                current[int(src[len("src="):])] += 1
            elif frame_kind == "CTS":
                current[int(dst[len("dst="):])] += 1
        elif kind == "interval_rollover":
            intervals[len(intervals) + 1] = current
            current = Counter()
    return intervals


def _heard_on_air(trace):
    """Interval index -> node -> (c2, c3): whether any clean RTS or DATA the
    node sent carried that bit in its cb= field.

    Read in dispatch order: each interval_rollover line closes an interval.
    """
    intervals = {}
    current = {}
    for line in trace.splitlines():
        _, _, kind, detail = line.split("\t", 3)
        if kind == "frame":
            frame_kind, src, _, cb = detail.split()[:4]
            if frame_kind == "RTS" or frame_kind == "DATA":
                node = int(src[len("src="):])
                c2, c3 = current.get(node, (False, False))
                cb = cb[len("cb="):]
                current[node] = (c2 or cb[1] == "1", c3 or cb[2] == "1")
        elif kind == "interval_rollover":
            intervals[len(intervals) + 1] = current
            current = {}
    return intervals


@pytest.mark.parametrize("config", [
    pytest.param({"duration_s": 20.0, "seed": 3}, id="none"),
    pytest.param(TRACED_RUN, id="mlda-with-blocks"),
])
def test_rts_cts_count_equals_the_frames_on_air(config):
    c = resolve_thresholds(config_from_dict(config))
    trace = io.StringIO()
    result = run_simulation(c, trace=trace)
    on_air = _rts_cts_on_air(trace.getvalue())
    assert len(on_air) == 20
    counted = {(index, node): counters.rts_cts
               for index, node, counters in result.interval_records}
    assert counted == {(index, node): on_air[index][node] for index, node in counted}
    assert {index for index, _ in counted} == set(on_air)
    # the stamped bits the medium records are those on the clean frames
    heard = _heard_on_air(trace.getvalue())
    for index, node, counters in result.interval_records:
        assert (counters.heard_c2, counters.heard_c3) == heard[index].get(node, (False, False))


@pytest.mark.parametrize("config", [
    pytest.param(TRACED_RUN, id="traced"),
    pytest.param(LYING_RUN, id="lying"),
])
def test_stamps_carry_the_nodes_own_bits_of_the_last_interval(monkeypatch, config):
    c = resolve_thresholds(config_from_dict(config))
    sent = []
    transmit = Medium.transmit

    def recording_transmit(medium, src_id, frame, air_us):
        assert src_id == frame.src, (medium.sim.now_us, frame.kind)
        if frame.kind == RTS or frame.kind == DATA:
            sent.append((medium.sim.now_us, src_id, frame.cb))
        return transmit(medium, src_id, frame, air_us)

    monkeypatch.setattr(Medium, "transmit", recording_transmit)
    result = run_simulation(c)
    own = {(index, node): compute_cb(counters, c.mlda)
           for index, node, counters in result.interval_records}
    liars = set(c.attacker_nodes()) if c.mlda.lying_attacker else set()
    interval_us = to_us(c.mlda.interval_s)
    stamps = Counter()
    for now, src, cb in sent:
        # at a rollover instant the stamp may be either interval's
        if now % interval_us == 0 or src == c.ap_node:
            continue
        k = now // interval_us + 1  # interval k covers ((k - 1) * interval, k * interval]
        expected = "000" if k == 1 or src in liars else own[k - 1, src]
        assert cb == expected, (now, src)
        stamps[cb] += 1
    # honest nodes stamped findings, and not on every frame
    assert stamps["000"] and sum(stamps.values()) > stamps["000"]


def test_result_window_and_rates():
    r = run_simulation(cfg(attack={"count": 0}))
    assert r.window_s == 20.0
    assert r.legit_bw_bps == pytest.approx(r.legit.goodput_bits / 20.0)
    assert r.attack.goodput_bits == 0


def test_per_class_conservation_balances():
    run = SimulationRun(cfg(defense="mlda", mlda=TH))
    result = run.execute()
    for node, fs in result.flows.items():
        held_pkts = sum(
            1 for f in run.stations[node].queue if f.src == node
        )
        assert fs.sent_pkts == fs.delivered_pkts + fs.dropped_pkts + held_pkts


def test_every_event_callback_is_defined_in_roqsim(monkeypatch):
    # perfbench charges each event's time to its callback's __module__; a
    # callback built elsewhere (a functools.partial, say) would go unattributed
    seen = set()
    schedule = Simulator.schedule

    def spy(sim, fire_us, kind, fn, detail=""):
        seen.add((kind, getattr(fn, "__module__", None)))
        return schedule(sim, fire_us, kind, fn, detail)

    monkeypatch.setattr(Simulator, "schedule", spy)
    for defense in ("mlda", "shrew"):
        run_simulation(cfg(duration_s=12.0, warmup_s=2.0, defense=defense,
                           shrew={"window_bins": 128}, mlda=TH))
    # every event kind of the simulator, the exchange responses included
    assert {kind for kind, _ in seen} == {
        "difs_end", "attempt", "nav_reset_check", "nav_expire", "frame_end",
        "pulse_arrival", "app_arrival", "tcp_rto", "cts_timeout", "ack_timeout",
        "cts_tx", "data_tx", "ack_tx", "interval_rollover", "spectral_verdict",
    }
    outside = sorted(pair for pair in seen if not (pair[1] or "").startswith("roqsim."))
    assert outside == []


@st.composite
def short_configs(draw):
    """Valid configs of at most 3 s and 6 stations: any defense, attack and PHY."""
    duration_ms = draw(st.integers(100, 3000))
    legit = draw(st.integers(1, 6))
    period_ms = draw(st.sampled_from([0, 100, 400, 1200]))
    burst_ms = draw(st.integers(0, max(period_ms - 1, 0)))
    cw_min = draw(st.sampled_from([7, 15, 31]))
    return {
        "duration_s": duration_ms / 1000,
        "warmup_s": draw(st.integers(0, duration_ms - 1)) / 1000,
        "seed": draw(st.integers(0, 1000)),
        "defense": draw(st.sampled_from(DEFENSES)),
        "phy": {
            "rate_bps": draw(st.sampled_from([1_000_000, 2_000_000, 11_000_000])),
            "cw_min": cw_min,
            "cw_max": draw(st.sampled_from([cw_min, 1023])),
            "retry_limit": draw(st.integers(0, 7)),
            "queue_lifetime_s": draw(st.sampled_from([0.05, 0.5])),
        },
        "legit": {
            "count": legit,
            "packet_bits": draw(st.sampled_from([800, 8000])),
            "rwnd": draw(st.integers(1, 32)),
            "app_rate_pps": draw(st.integers(0, 60)),
        },
        "attack": {
            "count": draw(st.integers(0, 6 - legit)),
            "period_s": period_ms / 1000,
            "burst_s": burst_ms / 1000,
            # a packet spacing no longer than the period, as validate requires
            "rate_pps": draw(st.integers(-(-1000 // period_ms) if period_ms else 0, 1000)),
            "packet_bits": draw(st.sampled_from([800, 8000])),
            "jitter_s": draw(st.integers(0, (period_ms - burst_ms) // 2)) / 1000,
            "stagger": draw(st.booleans()),
            "cw": draw(st.integers(1, 31)),
            "queue_cap": draw(st.integers(1, 400)),
        },
        "mlda": {
            "interval_s": draw(st.sampled_from([0.05, 0.1, 0.5, 1.0])),
            "escalation": draw(st.sampled_from([STREAK, ABSOLUTE])),
            "lying_attacker": draw(st.booleans()),
            "rc_th": draw(st.floats(0, 60)),
            "se_th_s": draw(st.floats(0, 0.5)),
            "re_th": draw(st.floats(0, 6)),
        },
        "shrew": {
            "window_bins": draw(st.sampled_from([2, 8, 32, 64])),
            "ratio_threshold": draw(st.floats(0, 0.99)),
        },
    }


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=short_configs())
def test_any_short_run_balances_and_its_clean_frames_never_overlap(data):
    config = config_from_dict(data)
    trace = io.StringIO()
    run = SimulationRun(config, trace=trace)
    run.execute()  # audits the conservation of every flow's bits
    # a clean frame was on air for (end - airtime, end]; two frames that
    # overlapped would have corrupted each other, and neither is traced
    phy = PhyParams(config.phy)
    payload_bits = {config.ap_node: TCP_ACK_BITS}
    payload_bits.update(dict.fromkeys(config.legit_nodes(), config.legit.packet_bits))
    payload_bits.update(dict.fromkeys(config.attacker_nodes(), config.attack.packet_bits))
    control_us = {RTS: phy.rts_us, CTS: phy.cts_us, ACK: phy.ack_us}
    last_end = 0
    for line in trace.getvalue().splitlines():
        stamp, _, kind, detail = line.split("\t")
        if kind != "frame":
            continue
        frame_kind, src = detail.split()[:2]
        seconds, micros = stamp.split(".")
        end = int(seconds) * 1_000_000 + int(micros)
        if frame_kind == DATA:
            air = phy.data_us(payload_bits[int(src[len("src="):])])
        else:
            air = control_us[frame_kind]
        assert end - air >= last_end, line
        last_end = end
    # and the DCF timing oracle, which knows only the standard, finds no fault
    report = check_dcf_timing(trace.getvalue().splitlines(), dataclasses.asdict(config))
    assert report["violations"] == []
