"""Pinned SHA-256 fingerprints of what a user reads: run stdout, the event
trace and a sweep's results CSV.

The trace lists every dispatched event with its fire time, sequence number,
kind and detail, so its digest pins the whole event stream, not only the
results.  A change that alters any of these bytes must say so and re-pin.
"""

import hashlib
import json

from roqsim.cli import main

TRACED_RUN = {"duration_s": 20.0, "seed": 3, "defense": "mlda", "attack": {"count": 4}}
TRACED_STDOUT_SHA256 = "8ff6f35256186536342d0d339f112104382c13f2e9a66d85d76a269d21acdcc2"
TRACE_SHA256 = "aa044cab08408e290e4ce11af132fa05accfdd4ce622bcc07f169506020a63ef"

SWEEP = {"duration_s": 20.0, "seed": 2, "sweep": {"attacker_counts": [2, 4], "seeds": [2]}}
SWEEP_CSV_SHA256 = "2dc0722242621b7f9fd74105fd1b94e1fa6301955a028ff4bf8e54bdef6d44d0"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_traced_run_stdout_and_trace_are_pinned(tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    rc = main(["run", "--config", _write_config(tmp_path, TRACED_RUN), "--trace", str(trace)])
    assert rc == 0
    assert _sha256(capsys.readouterr().out.encode()) == TRACED_STDOUT_SHA256
    assert _sha256(trace.read_bytes()) == TRACE_SHA256


def test_sweep_results_csv_is_pinned(tmp_path):
    out = tmp_path / "results.csv"
    rc = main(["sweep", "attackers", "--config", _write_config(tmp_path, SWEEP),
               "--out", str(out)])
    assert rc == 0
    assert _sha256(out.read_bytes()) == SWEEP_CSV_SHA256
