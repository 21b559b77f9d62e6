"""Run `python -m roqsim.cli ARGS...` with a timing probe around each simulation.

Usage: python perfbench/probe.py MODE REPORT_JSON ARGS...

The CLI runs exactly as under `python -m roqsim.cli` (same module executed as
``__main__``, same argv).  The probe only wraps ``SimulationRun.execute``,
once per simulation, to stamp when the first simulation is ready to dispatch
and how long each one takes, runs the event loop one simulated second per
call so that each second is timed, and counts the frames put on the medium
(one wrapped call per frame, about 0.4% of the simulation time).  Before each
simulated second, and at start-up, it times a fixed reference loop (about
0.3 ms, the probe's own code) that reads how fast the host runs at that
moment; the parent subtracts those times from the job's.  MODE is

  time   run the whole job;
  setup  exit as soon as the first simulation is ready to dispatch.

The report is written even when the CLI fails.  Times are CLOCK_MONOTONIC
seconds, comparable with the parent's clock.
"""

import heapq
import json
import os
import runpy
import sys
import time

SLICE_US = 1_000_000
STARTUP_REFERENCES = 5


def reference():
    """A fixed piece of heap and dict work, timed as a gauge of host speed."""
    heap = []
    counts = {}
    for i in range(400):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i & 63] = counts.get(i & 63, 0) + 1
        if len(heap) > 32:
            heapq.heappop(heap)
    return len(heap)


def timed_reference():
    start = time.monotonic()
    reference()
    return time.monotonic() - start


def main():
    mode, report_path, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode not in ("time", "setup"):
        raise SystemExit("probe: unknown mode %r" % mode)
    report = {"executes": [], "slices": [], "slice_refs": [], "frames": 0}
    report["startup_refs"] = [timed_reference() for _ in range(STARTUP_REFERENCES)]

    def write_report():
        with open(report_path, "w") as fh:
            json.dump(report, fh)

    t0 = time.monotonic()
    import numpy
    import roqsim.kernel
    import roqsim.mac
    import roqsim.runner

    report["import_s"] = time.monotonic() - t0
    report["python"] = sys.version.split()[0]
    report["numpy"] = numpy.__version__

    execute = roqsim.runner.SimulationRun.execute

    def timed_execute(run):
        start = time.monotonic()
        if "setup_end" not in report:
            report["setup_end"] = start
            if mode == "setup":
                write_report()
                os._exit(0)
        try:
            return execute(run)
        finally:
            report["executes"].append([start, time.monotonic(), run.config.duration_s])

    roqsim.runner.SimulationRun.execute = timed_execute

    # The event loop runs one simulated second per call (the same events, in
    # the same order), so jobs of one config can be compared slice by slice.
    run_until = roqsim.kernel.Simulator.run_until

    def sliced_run_until(sim, end_us):
        if end_us <= sim.now_us:
            return run_until(sim, end_us)  # keeps the kernel's own error for the past
        count = 0
        t = sim.now_us
        while t < end_us:
            t = min(t + SLICE_US, end_us)
            report["slice_refs"].append(timed_reference())
            start = time.monotonic()
            count += run_until(sim, t)
            report["slices"].append(time.monotonic() - start)
        return count

    roqsim.kernel.Simulator.run_until = sliced_run_until

    transmit = roqsim.mac.Medium.transmit

    def counted_transmit(medium, src_id, frame, air_us):
        report["frames"] += 1
        return transmit(medium, src_id, frame, air_us)

    roqsim.mac.Medium.transmit = counted_transmit

    sys.argv = [sys.argv[0]] + cli_args
    try:
        runpy.run_module("roqsim.cli", run_name="__main__", alter_sys=True)
    finally:
        write_report()


if __name__ == "__main__":
    main()
