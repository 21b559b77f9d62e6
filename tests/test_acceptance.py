"""Acceptance gate: nine behavioural criteria, one test (and one pass/fail
line under pytest -v) per criterion.  Budgets are wall-clock seconds and are
asserted together with the behaviour.
"""

import itertools
import math
import os
import random
import time
from dataclasses import asdict

import numpy as np
import pytest

from roqsim.config import MldaSection, RunConfig, config_from_dict
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
from roqsim.harness import (
    attack_free,
    calibrate_thresholds,
    sweep,
    write_results_csv,
)
from roqsim.mac import IntervalCounters
from roqsim.runner import SimulationRun, run_simulation
from roqsim.spectral import low_freq_ratio, power_spectrum

GRADE_BY_BITS = {0: NOFINDING, 1: NORMAL, 2: SUSPECTED, 3: ATTACKER}
# criteria 3 and 4 run their sweep points in a pool of this size; criterion 9's
# two sweeps stay serial, so determinism is still checked without one
ALL_CPUS = os.cpu_count() or 1


def mean_by_point(rows):
    """Mean legit bandwidth and loss count per (value, defense) over the seeds."""
    groups = {}
    for r in rows:
        groups.setdefault((float(r[1]), r[2]), []).append(r)
    return {key: {"legit_bw_mean": sum(r[4] for r in rs) / len(rs),
                  "loss_pkts_mean": sum(r[5] for r in rs) / len(rs)}
            for key, rs in groups.items()}


def report(criterion, ok, detail):
    print("criterion %d: %s — %s" % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (criterion, detail)


@pytest.fixture(scope="module")
def calibrated():
    """Default-network thresholds plus the time spent deriving them."""
    t0 = time.monotonic()
    th = calibrate_thresholds(attack_free(RunConfig()))
    return th, time.monotonic() - t0


def test_criterion_1_congestion_bit_truth_table():
    t0 = time.monotonic()
    th = MldaSection(rc_th=10.0, se_th_s=0.5, re_th=3.0)
    checked = 0
    for bits in itertools.product((0, 1), repeat=3):
        counters = IntervalCounters(
            rts_cts=11 if bits[0] else 10,  # threshold+1 sets, equality clears
            busy_stop_us=500_001 if bits[1] else 500_000,
            retrans=4 if bits[2] else 3,
        )
        cb = compute_cb(counters, th)
        assert cb == "%d%d%d" % bits
        assert classify_cb(cb) == GRADE_BY_BITS[sum(bits)]
        checked += 1
    elapsed = time.monotonic() - t0
    report(1, checked == 8 and elapsed < 1.0,
           "8/8 boundary combinations in %.3fs" % elapsed)


def _replay_block_interval(findings, mode):
    """Independent re-implementation of the escalation rules."""
    if mode == "streak":
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
    status = NORMAL
    for i, f in enumerate(findings, start=1):
        if f != NOFINDING:
            status = f
        if (i == 3 and status == ATTACKER) or (i == 4 and status == SUSPECTED):
            return i
    return None


def test_criterion_2_escalation_block_timing():
    t0 = time.monotonic()
    codes = ["%d%d%d" % b for b in itertools.product((0, 1), repeat=3)]

    sequences = 0
    for mode in ("streak", "absolute"):
        for length in range(1, 5):
            for seq in itertools.product(codes, repeat=length):
                findings = [classify_cb(c) for c in seq]
                expected = _replay_block_interval(findings, mode)
                state = MonitorState(escalation=mode)
                got = None
                for i, code in enumerate(seq, start=1):
                    acts = monitor_interval(state, i, {1: code})
                    if any(status == BLOCKED for _, _, status in acts):
                        assert got is None
                        got = i
                assert got == expected, "%s %s: %s != %s" % (mode, seq, got, expected)
                sequences += 1
    elapsed = time.monotonic() - t0
    report(2, sequences == 2 * (8 + 64 + 512 + 4096) and elapsed < 1.0,
           "%d sequences, both modes, in %.2fs" % (sequences, elapsed))


def test_criterion_3_attacker_sweep_bandwidth_and_loss_ordering():
    t0 = time.monotonic()
    cfg = RunConfig()  # counts {2,4,6,8} x 5 seeds x 100 s
    rows = sweep(cfg, "attackers", workers=ALL_CPUS)
    agg = mean_by_point(rows)
    problems = []
    for count in cfg.sweep.attacker_counts:
        m = agg[(float(count), "mlda")]
        s = agg[(float(count), "shrew")]
        if not m["legit_bw_mean"] > s["legit_bw_mean"]:
            problems.append("bw at %d" % count)
        if not m["loss_pkts_mean"] < s["loss_pkts_mean"]:
            problems.append("loss at %d" % count)
    elapsed = time.monotonic() - t0
    report(3, not problems and elapsed < 300.0,
           "mean bandwidth above and mean loss below the baseline at all "
           "4 attacker counts (%d runs, %.0fs)%s"
           % (len(rows), elapsed, "; failed: " + ", ".join(problems) if problems else ""))


def test_criterion_4_period_sweep_ordering_and_no_attack_agreement():
    t0 = time.monotonic()
    # long bursts so one burst spans several monitoring intervals at any period
    cfg = config_from_dict(
        asdict(RunConfig()) | {"attack": {"burst_s": 1.0, "rate_pps": 600}}
    )
    rows = sweep(cfg, "period", workers=ALL_CPUS)
    agg = mean_by_point(rows)
    problems = []
    for period in cfg.sweep.periods_s:
        m = agg[(float(period), "mlda")]
        s = agg[(float(period), "shrew")]
        if period == 0.0:
            gap = abs(m["legit_bw_mean"] - s["legit_bw_mean"])
            if gap > 0.02 * max(m["legit_bw_mean"], s["legit_bw_mean"]):
                problems.append("no-attack gap %.1f" % gap)
        else:
            if not m["legit_bw_mean"] > s["legit_bw_mean"]:
                problems.append("bw at T=%g" % period)
            if not m["loss_pkts_mean"] < s["loss_pkts_mean"]:
                problems.append("loss at T=%g" % period)
    elapsed = time.monotonic() - t0
    report(4, not problems and elapsed < 300.0,
           "orderings hold at 4 nonzero periods, defenses agree with no attack "
           "(%d runs, %.0fs)%s"
           % (len(rows), elapsed, "; failed: " + ", ".join(problems) if problems else ""))


def test_criterion_5_pulsed_attack_halves_undefended_goodput():
    t0 = time.monotonic()
    base = {
        "duration_s": 60.0,
        "warmup_s": 5.0,
        "seed": 1,
        "defense": "none",
        "legit": {"count": 1, "app_rate_pps": 0, "rwnd": 48},  # greedy bulk flow
        "attack": {"count": 1, "period_s": 1.2, "burst_s": 0.5, "rate_pps": 600},
    }
    quiet = run_simulation(config_from_dict(base | {"attack": dict(base["attack"], count=0)}))
    hit = run_simulation(config_from_dict(base))
    degradation = 1.0 - hit.legit_bw_bps / quiet.legit_bw_bps
    elapsed = time.monotonic() - t0
    report(5, degradation >= 0.5 and hit.timeouts > 0 and elapsed < 30.0,
           "one pulsed sender cuts goodput %.0f%% (%d timeouts) in %.1fs"
           % (100 * degradation, hit.timeouts, elapsed))


def test_criterion_6_no_false_blocks_attack_free(calibrated):
    th, cal_s = calibrated
    t0 = time.monotonic()
    cfg = RunConfig()
    block_rows = 0
    blocked_nodes = set()
    for seed in range(1, 11):
        d = asdict(cfg)
        d["seed"] = seed
        d["defense"] = "mlda"
        d["attack"]["count"] = 0
        d["mlda"] = asdict(th)
        res = run_simulation(config_from_dict(d))
        block_rows += sum(1 for r in res.detection_rows if r[4] == "block")
        blocked_nodes |= res.blocked
    elapsed = time.monotonic() - t0 + cal_s
    report(6, block_rows == 0 and not blocked_nodes and elapsed < 60.0,
           "0 block actions over 10 attack-free seeds in %.1fs" % elapsed)


def test_criterion_7_blocking_restores_bandwidth(calibrated):
    th, _ = calibrated
    worst = []
    for seed in (1, 2, 3):
        quiet_cfg = asdict(RunConfig())
        quiet_cfg["seed"] = seed
        quiet_cfg["attack"]["count"] = 0
        quiet = run_simulation(config_from_dict(quiet_cfg))
        d = asdict(RunConfig())
        d["seed"] = seed
        d["defense"] = "mlda"
        d["attack"]["count"] = 8
        d["mlda"] = asdict(th)
        res = run_simulation(config_from_dict(d))
        attackers = {n for n, fs in res.flows.items() if fs.is_attack}
        assert attackers <= res.blocked, "not every attacker was blocked"
        assert not (res.blocked - attackers), "a legitimate node was blocked"
        worst.append(res.legit_bw_bps / quiet.legit_bw_bps)
    report(7, min(worst) >= 0.7,
           "8-attacker recovery >= %.0f%% of attack-free bandwidth, "
           "all attackers blocked, no legitimate node blocked" % (100 * min(worst)))


def test_criterion_8_spectrum_properties():
    t0 = time.monotonic()
    rng = random.Random(202)
    worst_rel = 0.0
    for _ in range(1000):
        n = rng.choice((64, 128, 256, 512, 1024))
        x = np.array([rng.uniform(0, 10) for _ in range(n)])
        energy = power_spectrum(x)
        xc = x - x.mean()
        ref = n * float(np.sum(xc * xc))
        worst_rel = max(worst_rel, abs(sum(energy) - ref) / ref)
    assert worst_rel <= 1e-9

    for _ in range(100):
        n = rng.choice((128, 256, 512))
        k = rng.randint(2, n // 2 - 1)
        tone = [math.cos(2 * math.pi * k * j / n) for j in range(n)]
        energy = power_spectrum(tone)
        assert energy[k] / sum(energy) > 0.999

    pulsed = [30.0 if (i % 20) < 5 else 0.0 for i in range(1024)]  # 1 s period
    smooth = np.random.default_rng(9).poisson(0.75, 1024).astype(float)
    r_pulsed = low_freq_ratio(power_spectrum(pulsed), 5.0, 0.05)
    r_smooth = low_freq_ratio(power_spectrum(smooth), 5.0, 0.05)
    elapsed = time.monotonic() - t0
    report(8, r_pulsed >= 0.6 and r_smooth < 0.7 and elapsed < 10.0,
           "energy identity <=1e-9 x1000, tone >99.9%%, on-off ratio %.2f vs "
           "steady %.2f in %.1fs" % (r_pulsed, r_smooth, elapsed))


def test_criterion_9_determinism_and_conservation(tmp_path):
    small = {
        "duration_s": 30.0,
        "warmup_s": 10.0,
        "sweep": {"attacker_counts": [2], "periods_s": [0.0], "seeds": [1, 2]},
    }
    cfg = config_from_dict(small)
    rows1 = sweep(cfg, "attackers")
    rows2 = sweep(cfg, "attackers")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(str(a), rows1)
    write_results_csv(str(b), rows2)
    identical = a.read_bytes() == b.read_bytes()

    run = SimulationRun(
        config_from_dict({"duration_s": 30.0, "warmup_s": 10.0, "defense": "mlda",
                          "mlda": {"rc_th": 45.0, "se_th_s": 0.05, "re_th": 3.0}}),
    )
    result = run.execute()  # internal per-flow audit also runs here
    balanced = True
    for is_attack in (False, True):
        sent = delivered = dropped = held = 0
        for node, fs in result.flows.items():
            if fs.is_attack != is_attack:
                continue
            sent += fs.sent_bits
            delivered += fs.delivered_bits
            dropped += fs.dropped_bits
            held += sum(f.payload_bits for f in run.stations[node].queue if f.src == node)
        balanced = balanced and sent == delivered + dropped + held
    report(9, identical and balanced,
           "repeated sweep emits byte-identical CSV; class send/receive/drop "
           "ledgers balance to the bit")
