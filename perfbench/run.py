"""Host-time benchmark of the roqsim simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/roqsim``).  Each job is
a fresh `python -m roqsim.cli` process on a config generated from the seed.

--trace 0 measures the end-to-end metrics on untraced jobs:
  wall_s            process launch to exit, s
  wall_s_per_sim_s  host s inside the simulations per simulated s, summed over
                    every simulation of the job, calibration included
  frames_per_s      frames put on the medium per host s of simulation
  setup_s           launch until the first simulation is ready to dispatch
  peak_rss_mb       peak resident memory of the job's process (median)
Several set-up-only launches come first, then timed jobs for at most S
seconds (at least four).  The frames of a job are a deterministic count.

The hosts this runs on are shared: the same code runs up to twice as slow
while neighbours load the core, in spells from milliseconds to minutes, so a
plain median over jobs moves by 25% between runs.  The times are therefore
reported at a fixed reference host speed.  The probe times a fixed reference
loop at start-up and before each simulated second.  Where the loop took r
seconds (for a simulated second, the median of its reading and its two
neighbours'), a host time t counts as t * (REFERENCE_S / r) ** 0.8: the
loop's time on an uncontended core of the 2-vCPU Xeon VM this was tuned on
is REFERENCE_S, and there the simulator slowed by the loop's slowdown to the
power 0.8 (fitted over jobs run under changing load; it brought the run-to-
run spread of wall_s from 0.2 to 0.02).  Each simulated second is taken at
its median over the run's jobs; the rest of a job (start-up, imports,
writing results) and setup_s are scaled by the start-up reading.  So a
change to the simulator moves these times as it moves host time, while a
change in the host's load does not.  Raw medians are printed in the details.

Every job's digest must equal the pinned one at the default seed, and the
first timed job's at any other seed.  `attempted` counts every process
launched; `failed` counts those that exited non-zero, printed malformed
output or gave another digest.

--trace 1 runs the job in this process with every layer wrapped (traced.py)
and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit status is 0 when a result was printed.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

from jobs import BenchError, Ledger, run_job
from workloads import DEFAULT_SEED, WORKLOADS

SETUP_LAUNCHES = 5
MIN_TIMED_JOBS = 4
REFERENCE_S = 0.21e-3  # the probe's reference loop on an uncontended core
SLOWDOWN_EXPONENT = 0.8  # the simulator's slowdown against the loop's, log-log
WORK_ROOT = ".perfbench_work"

END_TO_END = (
    ("wall_s", "s"),
    ("wall_s_per_sim_s", "s/s"),
    ("frames_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def environment():
    return {"nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg())}


def at_reference_speed(seconds, reference_s):
    """Host seconds read while the reference loop took reference_s, rescaled."""
    return seconds * (REFERENCE_S / reference_s) ** SLOWDOWN_EXPONENT


def smoothed(refs):
    """Each reference time replaced by the median of it and its neighbours."""
    return [statistics.median(refs[max(0, i - 1):i + 2]) for i in range(len(refs))]


def measure_untraced(workload, seed, seconds, workdir, src_dir, ledger):
    median = statistics.median
    setup_jobs = []
    for _ in range(SETUP_LAUNCHES):
        job = ledger.record(run_job(workload, seed, workdir, src_dir, mode="setup"))
        if job.ok:
            setup_jobs.append(job)
    timed = []
    start = time.monotonic()
    # start another job only if a job of median length fits in the time left
    while len(timed) < MIN_TIMED_JOBS or (
            time.monotonic() - start + median(j.wall_s for j in timed) < seconds):
        job = run_job(workload, seed, workdir, src_dir)
        if not timed:
            ledger.reference(job)
        else:
            ledger.record(job)
        if job.ok:
            timed.append(job)
        elif len(ledger.failures) > MIN_TIMED_JOBS:
            break
    if not timed:
        raise BenchError("no timed job succeeded: " + "; ".join(ledger.failures))
    ref = timed[0]
    if len({len(j.slices) for j in timed}) != 1:
        raise BenchError("jobs of one config ran different numbers of event-loop slices")
    launches = setup_jobs + timed

    def at_startup_speed(seconds, job):
        return at_reference_speed(seconds, median(job.startup_refs))

    # Each simulated second at the reference speed, its median over jobs; then
    # the rest of the simulation phase (building the first events, the audit).
    scaled_slices = [[at_reference_speed(t, r) for t, r in zip(j.slices, smoothed(j.slice_refs))]
                     for j in timed]
    sim_phase = sum(median(s) for s in zip(*scaled_slices)) + median(
        at_startup_speed(j.sim_phase_s - sum(j.slices), j) for j in timed)
    values = {
        "wall_s": sim_phase + median(at_startup_speed(j.wall_s - j.sim_phase_s, j) for j in timed),
        "wall_s_per_sim_s": sim_phase / ref.sim_s,
        "frames_per_s": ref.frames / sim_phase,
        "setup_s": median(at_startup_speed(j.setup_s, j) for j in launches),
        "peak_rss_mb": median(j.peak_rss_mb for j in timed),
    }
    details = {
        "timed_jobs": len(timed),
        "setup_samples": len(launches),
        "frames_per_job": ref.frames,
        "simulations_per_job": ref.simulations,
        "simulated_s_per_job": ref.sim_s,
        "digest": ref.digest,
        "versions": ref.versions,
        "median_reference_s": median(r for j in timed for r in j.slice_refs),
        "median_wall_s": median(j.wall_s for j in timed),
        "median_sim_phase_s": median(j.sim_phase_s for j in timed),
        "median_setup_s": median(j.setup_s for j in launches),
        "wall_s_per_job": [round(j.wall_s, 4) for j in timed],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, details


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src_dir = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src_dir, "roqsim", "cli.py")):
        print("perfbench: run from the root of a roqsim checkout (src/roqsim not found)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ledger = Ledger(workload, args.seed)
    env_before = environment()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=workload.name + "-", dir=os.path.abspath(WORK_ROOT))
    try:
        if args.trace:
            import traced

            metrics, details = traced.measure(
                workload, args.seed, args.seconds, workdir, src_dir, ledger)
        else:
            metrics, details = measure_untraced(
                workload, args.seed, args.seconds, workdir, src_dir, ledger)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(ledger.failures)
    details["environment"] = {"before": env_before, "after": environment()}
    print("workload %s, seed %d, %s" % (workload.name, args.seed,
                                        "traced" if args.trace else "untraced"))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    print("  %-36s %14.6g %s" % ("failed_ratio", failed / ledger.attempted, "ratio"))
    for failure in ledger.failures:
        print("  FAILED %s" % failure)
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
