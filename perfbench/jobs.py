"""One benchmark job: a fresh `roqsim` CLI process, timed from outside.

The job is launched through probe.py, which runs the CLI module exactly as
`python -m roqsim.cli` does.  Wall time and peak RSS come from the parent
(``os.wait4`` on the child); the probe reports when the first simulation was
ready to dispatch, the host time of each simulation and of each simulated
second, the frames put on the medium, and the times of its reference loop.
The reference loops' own time is taken out of the job's times.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

from workloads import DEFAULT_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(HERE, "probe.py")


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, reference job failed)."""


@dataclass
class Job:
    mode: str
    ok: bool = False
    error: str = ""
    wall_s: float = 0.0
    setup_s: float = 0.0
    import_s: float = 0.0
    sim_phase_s: float = 0.0  # host seconds inside SimulationRun.execute, summed
    sim_s: float = 0.0  # simulated seconds, summed over the job's simulations
    slices: list = field(default_factory=list)  # host s per simulated second, in order
    slice_refs: list = field(default_factory=list)  # reference loop s before each slice
    startup_refs: list = field(default_factory=list)  # reference loop s at start-up
    simulations: int = 0
    frames: int = 0
    peak_rss_mb: float = 0.0
    digest: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)


def run_job(workload, seed, workdir, src_dir, mode="time", trace=True):
    """Launch one CLI process for `workload` and return its measured Job.

    A job is ok when the process exits 0, its output parses, and (except in
    setup mode, which stops before simulating) a digest was computed; the
    caller compares digests.
    """
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(workload.config(seed), fh, sort_keys=True)
    report_path = os.path.join(workdir, "probe.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    argv = [sys.executable, PROBE, mode, report_path]
    argv += workload.cli_args(config_path, workdir, trace=trace)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    job = Job(mode)
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    job.wall_s = t1 - t0
    job.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux

    if proc.returncode != 0:
        with open(err_path, "rb") as fh:
            tail = fh.read()[-600:].decode(errors="replace").strip()
        job.error = "exit %d: %s" % (proc.returncode, tail)
        return job
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        job.error = "no probe report: %s" % exc
        return job
    if "setup_end" not in report:
        job.error = "the job never started a simulation"
        return job
    job.startup_refs = report["startup_refs"]
    job.wall_s -= sum(job.startup_refs) + sum(report["slice_refs"])
    job.setup_s = report["setup_end"] - t0 - sum(job.startup_refs)
    job.import_s = report["import_s"]
    job.versions = {"python": report["python"], "numpy": report["numpy"]}
    if mode == "setup":
        job.ok = True
        return job
    job.frames = report["frames"]
    job.simulations = len(report["executes"])
    job.sim_phase_s = (sum(end - start for start, end, _ in report["executes"])
                       - sum(report["slice_refs"]))
    job.sim_s = sum(sim_s for _, _, sim_s in report["executes"])
    job.slices = report["slices"]
    job.slice_refs = report["slice_refs"]
    try:
        with open(out_path, "rb") as fh:
            job.digest = workload.check(fh.read(), workdir)
    except (OSError, ValueError) as exc:
        job.error = "bad output: %s" % exc
        return job
    job.ok = True
    return job


class Ledger:
    """Attempted and failed jobs, with the reason for each failure."""

    def __init__(self, workload, seed):
        self.expected = workload.pinned if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failures = []

    def add(self, mode, errors):
        """Count one attempted job and the errors it had (none if it passed)."""
        self.attempted += 1
        self.failures.extend("%s job: %s" % (mode, e) for e in errors)

    def record(self, job):
        """Count a launched job; a finished job whose digest differs is still timed."""
        if not job.ok:
            errors = [job.error]
        elif job.mode != "setup" and job.digest != self.expected:
            errors = ["results digest %s, expected %s" % (job.digest, self.expected)]
        else:
            errors = []
        self.add(job.mode, errors)
        return job

    def reference(self, job):
        """The first full job fixes the digest at seeds that have none pinned.

        A digest mismatch only counts as a failure; a job that did not finish
        leaves nothing to measure against.
        """
        if not job.ok:
            self.record(job)
            raise BenchError("reference job failed: " + job.error)
        if self.expected is None:
            self.expected = job.digest
        return self.record(job)
