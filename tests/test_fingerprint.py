"""Pinned SHA-256 fingerprints of what a user reads: run stdout, the event
trace, the detections CSV, the arrival spectra CSV, a sweep's results CSV and
the thresholds calibrate prints.

The trace lists every dispatched event with its fire time, sequence number,
kind and detail, so its digest pins the whole event stream, not only the
results.  A change that alters any of these bytes must say so and re-pin.

The trace's frame and block lines without their seq column are pinned on
their own: they are what went on air and whom the defense blocked, and stay
put when only the internal timers or the event count change.
"""

import hashlib
import json

from roqsim.cli import main

TRACED_RUN = {"duration_s": 20.0, "seed": 3, "defense": "mlda", "attack": {"count": 4}}
TRACED_STDOUT_SHA256 = "8ff6f35256186536342d0d339f112104382c13f2e9a66d85d76a269d21acdcc2"
TRACE_SHA256 = "07be95730d6730894a65b06f07412c06ef50a05c22d27ca9ff8181d61c34d630"
TRACE_FRAME_BLOCK_LINES = 8039
TRACE_FRAME_BLOCK_SHA256 = "b9a26c70ab8425aaca118c6bcb46e8b8a06d045de0610c0925e7182e2dbcafdf"
TRACED_DETECTIONS_SHA256 = "e1ab9759e6e0ca10b30a2efb54d5f128076be6f93237b666908cc90779b53b77"

# absolute escalation, staggered attackers that zero their stamped bits
LYING_RUN = {
    "duration_s": 30.0, "seed": 2, "defense": "mlda",
    "attack": {"count": 6, "stagger": True},
    "mlda": {"escalation": "absolute", "lying_attacker": True},
}
LYING_DETECTIONS_SHA256 = "84560147c2decba4a687e99a366a914dce41cc9d49b2a95abace743dd34c1733"

# the only pinned run whose attackers draw jitter from the stream their backoff uses
JITTER_RUN = {"duration_s": 20.0, "seed": 6,
              "attack": {"count": 3, "jitter_s": 0.2, "stagger": True}}
JITTER_STDOUT_SHA256 = "5a633c9116efc6becd7b35de92f047b1e2c6bbf28fc641fd37fbea51a6725b78"
JITTER_TRACE_SHA256 = "6bf0a521eec60dc29615226c4f3eb92f487d288b88b8566dc89fff75df341e43"

SWEEP = {"duration_s": 20.0, "seed": 2, "sweep": {"attacker_counts": [2, 4], "seeds": [2]}}
SWEEP_CSV_SHA256 = "2dc0722242621b7f9fd74105fd1b94e1fa6301955a028ff4bf8e54bdef6d44d0"


# the shrew verdict at 12.8 s analyses every flow's first 256-bin window
SPECTRA_RUN = {"duration_s": 15.0, "seed": 4, "defense": "shrew", "attack": {"count": 2},
               "shrew": {"window_bins": 256}}
SPECTRA_CSV_SHA256 = "66f811b3b9b8a7d68f5bba21db1665dc09d08657b3137aa475d1e1c78a42eee0"

# the traced run's network without its attackers
CALIBRATE_RUN = {"duration_s": 20.0, "seed": 3, "attack": {"count": 0}}
CALIBRATE_STDOUT_SHA256 = "7904869a3ef474ededa61436a96bedcb984a4efb95b464f06ee004df3157c717"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _frame_block_lines(trace):
    """The trace's frame and block lines as time\tkind\tdetail, seq dropped."""
    lines = []
    for line in trace.decode().splitlines():
        time, _seq, kind, detail = line.split("\t", 3)
        if kind == "frame" or kind == "block":
            lines.append(f"{time}\t{kind}\t{detail}\n")
    return lines


def _write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_traced_run_stdout_and_trace_are_pinned(tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    detections = tmp_path / "detections.csv"
    rc = main(["run", "--config", _write_config(tmp_path, TRACED_RUN), "--trace", str(trace),
               "--detections", str(detections)])
    assert rc == 0
    assert _sha256(capsys.readouterr().out.encode()) == TRACED_STDOUT_SHA256
    projection = _frame_block_lines(trace.read_bytes())
    assert len(projection) == TRACE_FRAME_BLOCK_LINES
    assert _sha256("".join(projection).encode()) == TRACE_FRAME_BLOCK_SHA256
    assert _sha256(trace.read_bytes()) == TRACE_SHA256
    assert _sha256(detections.read_bytes()) == TRACED_DETECTIONS_SHA256


def test_lying_attacker_detections_are_pinned(tmp_path):
    detections = tmp_path / "detections.csv"
    rc = main(["run", "--config", _write_config(tmp_path, LYING_RUN),
               "--detections", str(detections)])
    assert rc == 0
    assert _sha256(detections.read_bytes()) == LYING_DETECTIONS_SHA256


def test_jittered_staggered_run_is_pinned(tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    rc = main(["run", "--config", _write_config(tmp_path, JITTER_RUN), "--trace", str(trace)])
    assert rc == 0
    assert _sha256(capsys.readouterr().out.encode()) == JITTER_STDOUT_SHA256
    assert _sha256(trace.read_bytes()) == JITTER_TRACE_SHA256


def test_sweep_results_csv_is_pinned(tmp_path):
    out = tmp_path / "results.csv"
    rc = main(["sweep", "attackers", "--config", _write_config(tmp_path, SWEEP),
               "--out", str(out)])
    assert rc == 0
    assert _sha256(out.read_bytes()) == SWEEP_CSV_SHA256


def test_spectra_csv_is_pinned(tmp_path):
    spectra = tmp_path / "spectra.csv"
    rc = main(["run", "--config", _write_config(tmp_path, SPECTRA_RUN),
               "--dump-spectra", str(spectra)])
    assert rc == 0
    assert _sha256(spectra.read_bytes()) == SPECTRA_CSV_SHA256


def test_calibrate_stdout_is_pinned(tmp_path, capsys):
    rc = main(["calibrate", "--config", _write_config(tmp_path, CALIBRATE_RUN)])
    assert rc == 0
    assert _sha256(capsys.readouterr().out.encode()) == CALIBRATE_STDOUT_SHA256
