"""Checks of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

Runs every workload once at the default seed against its pinned digest
(about 20 s), and a short traced job through the event-accounting checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from jobs import Ledger, run_job
from run import END_TO_END
from traced import LAYERS, PER_LAYER, measure, traced_job
from workloads import DEFAULT_SEED, WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_digest_at_default_seed(name, tmp_path):
    workload = WORKLOADS[name]
    job = run_job(workload, DEFAULT_SEED, str(tmp_path), SRC)
    assert job.ok, job.error
    assert job.digest == workload.pinned
    assert job.simulations >= 1 and job.sim_phase_s > 0 and job.setup_s > 0
    assert len(job.slice_refs) == len(job.slices) > 0 and job.startup_refs


def test_traced_job_reproduces_the_untraced_one(tmp_path):
    # a short traced run with an MLDA defense: calibration, blocking, trace file
    workload = Workload(name="short", why="", command="run", traced=True,
                        overrides={"duration_s": 20.0, "warmup_s": 2.0, "defense": "mlda"})
    ledger = Ledger(workload, seed=7)
    metrics, details = measure(workload, 7, 0.0, str(tmp_path), SRC, ledger)
    assert ledger.failures == []
    assert ledger.attempted == 4  # timed, timed without --trace, 2 traced
    counts = details["counts"]
    assert counts["dispatched"] == counts["sim_dispatched"] > 0
    assert metrics["cli.trace_bytes"][0] == os.path.getsize(tmp_path / "trace.tsv")
    assert metrics["kernel.scheduled"][0] == sum(
        metrics[name][0] for name, _ in PER_LAYER if name.startswith("kernel.scheduled."))
    assert metrics["harness.calibrate_s"][0] > 0 and metrics["defense.intervals"][0] > 0


def test_self_times_add_up_to_the_traced_wall_time(tmp_path):
    workload = Workload(name="short", why="", command="run", overrides={"duration_s": 5.0,
                                                                         "warmup_s": 1.0})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config(3)))
    sys.path.insert(0, SRC)
    tracer, wall, _, _ = traced_job(workload, str(tmp_path), str(config))
    layers = sum(tracer.self_s[layer] for layer in LAYERS)
    assert 0 < layers <= wall
    assert wall - layers < 0.01 * wall


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quiet-cell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
