"""DCF timing rules checked on traces, by a checker that knows only 802.11.

The checker reads a trace's `frame` and `block` lines and a run's config
dict, and imports nothing from the package: its airtimes and timing rules
are restated here from the standard, so a fault in the MAC's timers cannot
hide behind the same fault in its check.

A frame line is stamped when the frame ends, and only clean frames are
traced.  Airtimes are ceil(bits * 1e6 / rate_bps): RTS 160 bits, CTS and
ACK 112, DATA a 224-bit header plus the payload.  Node 0 is the access
point, whose DATA are 320-bit transport ACKs; legit nodes come next, then
the attackers.  The rules:

- each CTS, DATA and ACK starts exactly SIFS after the previous clean frame
  ended, and that frame is the RTS, CTS or DATA it answers, between the same
  two nodes;
- each RTS starts at least DIFS after the previous clean frame ended;
- after `block node=N`, no frame from N starts, and no CTS to N starts
  later than SIFS after the block (one already due may still go out).

Not checked yet: the NAV rule and DIFS after the medium was last busy both
need the collided frames, which the trace does not list.
"""

import dataclasses
import json

import pytest

RTS_BITS, CTS_BITS, ACK_BITS, HEADER_BITS, AP_PAYLOAD_BITS = 160, 112, 112, 224, 320
ANSWERS = {"CTS": "RTS", "DATA": "CTS", "ACK": "DATA"}


def _us(stamp):
    seconds, _, micros = stamp.partition(".")
    return int(seconds) * 1_000_000 + int(micros)


def _airtimes(config):
    """Airtime by (kind, source) -> microseconds, from the config alone."""
    rate = config["phy"]["rate_bps"]
    legit = config["legit"]

    def air(bits):
        return -(-bits * 1_000_000 // rate)

    def airtime(kind, src):
        if kind == "RTS":
            return air(RTS_BITS)
        if kind != "DATA":
            return air(CTS_BITS)  # CTS and ACK are the same size
        if src == 0:
            payload = AP_PAYLOAD_BITS
        elif src <= legit["count"]:
            payload = legit["packet_bits"]
        else:
            payload = config["attack"]["packet_bits"]
        return air(HEADER_BITS + payload)

    return airtime


def check_dcf_timing(lines, config):
    """Check a trace's lines against the DCF timing rules.

    Returns counts of what was checked, the RTS starts off the
    DIFS + k * slot grid counted from the previous clean frame's end (reported,
    not a violation: a collision's end is not traced), and the violations.
    """
    phy = config["phy"]
    sifs, difs, slot = phy["sifs_us"], phy["difs_us"], phy["slot_us"]
    airtime = _airtimes(config)
    report = {"frames": 0, "answers": 0, "rts": 0, "off_grid_rts": 0, "blocks": 0,
              "violations": []}
    bad = report["violations"]
    prev = None  # (kind, src, dst, end_us) of the previous clean frame
    blocked = {}  # node -> block time
    for line in lines:
        stamp, _seq, what, detail = line.rstrip("\n").split("\t", 3)
        if what == "block":
            node = int(detail.split()[0].partition("=")[2])
            blocked.setdefault(node, _us(stamp))
            report["blocks"] += 1
            continue
        if what != "frame":
            continue
        kind, src, dst = detail.split()[:3]
        src, dst = int(src.partition("=")[2]), int(dst.partition("=")[2])
        end = _us(stamp)
        start = end - airtime(kind, src)
        report["frames"] += 1
        if kind == "RTS":
            report["rts"] += 1
            if prev is not None:
                gap = start - prev[3]
                if gap < difs:
                    bad.append("%s: RTS %d->%d starts %d us after the last frame" %
                               (stamp, src, dst, gap))
                elif (gap - difs) % slot:
                    report["off_grid_rts"] += 1
        else:
            report["answers"] += 1
            if prev is None or prev[:3] != (ANSWERS[kind], dst, src) or start != prev[3] + sifs:
                bad.append("%s: %s %d->%d does not start SIFS after the %s it answers (last: %s)"
                           % (stamp, kind, src, dst, ANSWERS[kind], prev))
        if src in blocked and start > blocked[src]:
            bad.append("%s: %s from node %d, blocked at %d us" % (stamp, kind, src, blocked[src]))
        if kind == "CTS" and dst in blocked and start > blocked[dst] + sifs:
            bad.append("%s: CTS to node %d, blocked at %d us" % (stamp, dst, blocked[dst]))
        prev = (kind, src, dst, end)
    return report


# -- the checker on hand-made traces ---------------------------------------

DEFAULT_CONFIG = {
    "phy": {"slot_us": 20, "sifs_us": 10, "difs_us": 50, "rate_bps": 2_000_000},
    "legit": {"count": 2, "packet_bits": 8000},
    "attack": {"packet_bits": 8000},
}


def _line(end_us, what, detail):
    return "%d.%06d\t0\t%s\t%s\n" % (end_us // 1_000_000, end_us % 1_000_000, what, detail)


def _exchange(rts_start, src, seq=1):
    """A clean four-way exchange by `src` to the access point (2 Mb/s)."""
    ends = [rts_start + 80, rts_start + 146, rts_start + 4268, rts_start + 4334]
    frames = [("RTS", src, 0), ("CTS", 0, src), ("DATA", src, 0), ("ACK", 0, src)]
    return [_line(end, "frame", "%s src=%d dst=%d cb=000 seq=%d" % (kind, a, b, seq))
            for end, (kind, a, b) in zip(ends, frames)]


FIRST_END = 50 + 4334  # the first exchange's ACK ends here


def test_checker_accepts_a_well_timed_trace():
    lines = _exchange(50, 1) + _exchange(FIRST_END + 50 + 3 * 20, 2)
    lines.append(_line(FIRST_END + 5000, "block", "node=1"))
    report = check_dcf_timing(lines, DEFAULT_CONFIG)
    assert report["violations"] == []
    assert (report["frames"], report["answers"], report["rts"], report["blocks"]) == (8, 6, 2, 1)
    assert report["off_grid_rts"] == 0


@pytest.mark.parametrize("fault", ["late_cts", "wrong_pair", "early_rts", "after_block"])
def test_checker_flags_each_rule(fault):
    lines = _exchange(50, 1) + _exchange(FIRST_END + 50, 2)
    assert check_dcf_timing(lines, DEFAULT_CONFIG)["violations"] == []
    if fault == "late_cts":
        lines[1] = lines[1].replace("0.000196", "0.000197")
    elif fault == "wrong_pair":
        lines[5] = lines[5].replace("dst=2", "dst=1")
    elif fault == "early_rts":
        lines[4:] = _exchange(FIRST_END + 49, 2)
    else:
        lines.insert(4, _line(FIRST_END, "block", "node=2"))
    assert len(check_dcf_timing(lines, DEFAULT_CONFIG)["violations"]) >= 1


def test_checker_counts_rts_off_the_slot_grid():
    lines = _exchange(50, 1) + _exchange(FIRST_END + 50 + 7, 2)
    report = check_dcf_timing(lines, DEFAULT_CONFIG)
    assert report["violations"] == [] and report["off_grid_rts"] == 1


# -- the checker on simulated traces ---------------------------------------

# (config, expected blocks); the first is TRACED_RUN of test_fingerprint.py
RUNS = {
    "traced-run": ({"duration_s": 20.0, "seed": 3, "defense": "mlda", "attack": {"count": 4}}, 4),
    "default": ({"duration_s": 20.0, "seed": 1}, 0),
    "8-attackers": ({"duration_s": 12.0, "warmup_s": 2.0, "seed": 1, "attack": {"count": 8}}, 0),
    "shrew-cap-25": ({"duration_s": 60.0, "seed": 1, "defense": "shrew",
                      "attack": {"queue_cap": 25}}, 2),
    "4-greedy-legit": ({"duration_s": 12.0, "warmup_s": 2.0, "seed": 2,  # and 2 attackers
                        "legit": {"count": 4, "app_rate_pps": 0}}, 0),
}


@pytest.mark.parametrize("name", RUNS)
def test_simulated_traces_keep_dcf_timing(name, tmp_path, capsys):
    from roqsim.cli import main
    from roqsim.config import config_from_dict

    raw, blocks = RUNS[name]
    config_path, trace = tmp_path / "config.json", tmp_path / "trace.tsv"
    config_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(config_path), "--trace", str(trace)]) == 0
    config = dataclasses.asdict(config_from_dict(raw))
    with open(trace) as fp:
        report = check_dcf_timing(fp, config)
    assert report["violations"] == []
    assert report["blocks"] == blocks
    assert report["answers"] > 2 * report["rts"] > 0  # the SIFS rule saw most exchanges
    with capsys.disabled():
        print("\n%s: %d of %d RTS start off the DIFS + k*slot grid"
              % (name, report["off_grid_rts"], report["rts"]))
