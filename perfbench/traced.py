"""Per-layer trace: one workload's job run in this process with the public
functions of every ``src/roqsim`` module wrapped from here.

Layers are the roqsim modules.  A wrapped call opens a span labelled with its
module; a layer's self time is its spans' time minus the child spans they
contain, so the self times plus the unattributed remainder (the bench's own
code around the job, and callbacks defined outside roqsim) add up to the
traced wall time.  Code that is not wrapped is charged to the nearest
wrapped caller: the runner's MAC hooks (``_monitor_tap``, ``_ap_data_rx``,
...) count as MAC time, for example.

Every event callback is wrapped when it is scheduled, with a span keyed by
the module that defined the callback, so the kernel's self time is its
dispatch loop minus the callbacks it runs.  Counts (events by kind, frames,
receptions, ledger updates...) are deterministic for a seed and must repeat
exactly between traced jobs; the traced job must also reproduce the untraced
job's results digest, which shows the wrappers do not change behaviour.
"""

import contextlib
import functools
import io
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

from jobs import BenchError, run_job

KINDS = (
    "difs_end", "attempt", "nav_reset_check", "nav_expire", "frame_end",
    "pulse_arrival", "app_arrival", "tcp_rto", "cts_timeout", "ack_timeout",
    "cts_tx", "data_tx", "ack_tx", "interval_rollover", "spectral_verdict",
)
CONTENTION_KINDS = ("difs_end", "attempt", "nav_reset_check", "nav_expire")
FRAME_KINDS = ("RTS", "CTS", "DATA", "ACK")
LAYERS = ("cli", "config", "runner", "harness", "kernel", "mac", "traffic",
          "metrics", "defense", "spectral")
MIN_TRACED_JOBS = 2

PER_LAYER = (
    [("kernel.scheduled", "count"), ("kernel.dispatched", "count"),
     ("kernel.cancelled", "count"), ("kernel.cancelled_ratio", "ratio"),
     ("kernel.events_per_frame", "events/frame")]
    + [("kernel.scheduled." + k, "count") for k in KINDS]
    + [("kernel.scheduled.other", "count"), ("kernel.pending_peak", "count"),
       ("kernel.self_s", "s"), ("kernel.schedule_s", "s"), ("kernel.events_per_s", "1/s"),
       ("mac.frames", "count")]
    + [("mac.frames." + k, "count") for k in FRAME_KINDS]
    + [("mac.collided_ratio", "ratio"), ("mac.receive_per_frame", "calls/frame"),
       ("mac.contention_events_per_frame", "events/frame"), ("mac.self_s", "s"),
       ("traffic.self_s", "s"), ("traffic.segments", "count"),
       ("traffic.retransmits", "count"), ("traffic.rto_fired", "count"),
       ("traffic.pulse_arrivals", "count"),
       ("defense.self_s", "s"), ("defense.intervals", "count"), ("defense.blocks", "count"),
       ("spectral.self_s", "s"), ("spectral.records", "count"),
       ("harness.self_s", "s"), ("harness.calibrate_s", "s"), ("harness.points", "count"),
       ("harness.csv_write_s", "s"),
       ("metrics.self_s", "s"), ("metrics.ledger_updates", "count"),
       ("runner.self_s", "s"), ("runner.build_s", "s"),
       ("config.self_s", "s"), ("config.load_s", "s"),
       ("cli.self_s", "s"), ("cli.import_s", "s"), ("cli.trace_bytes", "bytes"),
       ("cli.trace_write_s", "s"), ("cli.trace_overhead_ratio", "ratio"),
       ("bench.traced_wall_s", "s"), ("bench.unattributed_s", "s"),
       ("bench.trace_overhead_ratio", "ratio")]
)


class Tracer:
    """Spans and counts of one traced job."""

    def __init__(self):
        self.stack = [[0.0]]  # child time of each open span; [0] is the job
        self.self_s = defaultdict(float)
        self.inclusive = defaultdict(float)  # outermost spans of one name
        self._depth = Counter()  # open spans per inclusive name
        self.counts = Counter()
        self.scheduled = Counter()  # by event kind
        self.events = [0, 0, 0, 0]  # scheduled, dispatched, cancelled, pending peak
        self.runs = []
        self._undo = []

    def span(self, label, fn, inclusive=None):
        """fn wrapped in a span charged to layer `label`.

        With `inclusive`, the total time of the outermost spans sharing that
        name is also kept under it (nested ones are not counted twice).
        """
        stack, self_s, clock = self.stack, self.self_s, time.perf_counter
        totals, depth = self.inclusive, self._depth

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[inclusive] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                depth[inclusive] -= 1
                stack.pop()
                self_s[label] += dur - frame[0]
                stack[-1][0] += dur
                if inclusive and not depth[inclusive]:
                    totals[inclusive] += dur

        return wrapper

    def patch(self, owner, name, make):
        """Replace owner.name by make(original), and every roqsim alias of it."""
        original = getattr(owner, name)
        replacement = make(original)
        targets = [owner]
        if not isinstance(owner, type):
            targets = [m for key, m in list(sys.modules.items())
                       if key == "roqsim" or key.startswith("roqsim.")]
        for target in targets:
            for attr, value in list(vars(target).items()):
                if value is original:
                    self.set(target, attr, replacement)

    def set(self, target, attr, value):
        """setattr that restore() undoes."""
        self._undo.append((target, attr, vars(target).get(attr)))
        setattr(target, attr, value)

    def restore(self):
        """Undo every patch; an original of None marks an added attribute."""
        for target, attr, original in reversed(self._undo):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._undo.clear()


@functools.lru_cache(maxsize=None)
def _layer_of_module(module):
    return module.rpartition(".")[2] if module.startswith("roqsim.") else "other"


def _layer_of(fn):
    return _layer_of_module(getattr(fn, "__module__", None) or "")


def install(tracer, trace_sizes):
    """Wrap the roqsim layers for `tracer`; call tracer.restore() to undo."""
    import roqsim.cli as cli
    import roqsim.config as config
    import roqsim.defense as defense
    import roqsim.harness as harness
    import roqsim.kernel as kernel
    import roqsim.mac as mac
    import roqsim.metrics as metrics
    import roqsim.runner as runner
    import roqsim.spectral as spectral
    import roqsim.traffic as traffic

    t = tracer
    counts, events, scheduled = t.counts, t.events, t.scheduled
    span = t.span

    # kernel: every schedule is counted by kind and its callback wrapped
    def make_schedule(schedule):
        timed_schedule = span("kernel", schedule, "kernel.schedule_s")
        layer_spans = {}

        def traced_schedule(sim, fire_us, kind, fn, detail=""):
            scheduled[kind] += 1
            events[0] += 1
            live = events[0] - events[1] - events[2]
            if live > events[3]:
                events[3] = live
            layer = _layer_of(fn)
            enter = layer_spans.get(layer)
            if enter is None:
                enter = layer_spans[layer] = span(layer, lambda f: f())

            def dispatch():
                events[1] += 1
                enter(fn)

            return timed_schedule(sim, fire_us, kind, dispatch, detail)

        return traced_schedule

    t.patch(kernel.Simulator, "schedule", make_schedule)
    t.patch(kernel.Simulator, "run_until", lambda f: span("kernel", f))

    def make_cancel(cancel):
        def traced_cancel(handle):
            if not handle.cancelled:
                events[2] += 1
            cancel(handle)
        return traced_cancel

    t.patch(kernel.EventHandle, "cancel", make_cancel)

    # mac: frames on the medium, receptions, queue admissions
    def make_transmit(transmit):
        def traced_transmit(medium, src_id, frame, air_us):
            counts["frames." + frame.kind] += 1
            return transmit(medium, src_id, frame, air_us)
        return traced_transmit

    t.patch(mac.Medium, "transmit", make_transmit)

    def make_receive(receive):
        def traced_receive(station, frame, now):
            counts["receive"] += 1
            return receive(station, frame, now)
        return traced_receive

    t.patch(mac.Station, "receive", make_receive)

    def make_enqueue(enqueue):
        timed = span("mac", enqueue)

        def traced_enqueue(station, frame):
            if frame.retransmitted:
                counts["retransmits"] += 1
            return timed(station, frame)
        return traced_enqueue

    t.patch(mac.Station, "enqueue", make_enqueue)

    # traffic, defense, spectral, metrics
    t.patch(traffic.TcpSource, "on_transport_ack", lambda f: span("traffic", f))
    t.patch(traffic.TcpSink, "on_data", lambda f: span("traffic", f))
    t.patch(defense, "monitor_interval", lambda f: span("defense", _counted(counts, "intervals", f)))
    t.patch(spectral.ArrivalRecorder, "record",
            lambda f: span("spectral", _counted(counts, "records", f)))
    t.patch(spectral.ArrivalRecorder, "analyze", lambda f: span("spectral", f))
    for name in ("on_sent", "on_delivered", "on_dropped", "on_goodput"):
        t.patch(metrics.FlowStats, name,
                lambda f: span("metrics", _counted(counts, "ledger_updates", f)))
    t.patch(metrics, "audit_conservation", lambda f: span("metrics", f))

    # runner: construction, and what each finished simulation did
    def make_init(init):
        def traced_init(run, *args, **kwargs):
            init(run, *args, **kwargs)
            t.runs.append(run)
            tap = run.medium.on_clean_frame

            def counted_tap(frame, now):
                counts["clean_frames"] += 1
                if tap is not None:
                    tap(frame, now)

            run.medium.on_clean_frame = counted_tap
        return span("runner", traced_init, "runner.build_s")

    t.patch(runner.SimulationRun, "__init__", make_init)

    def make_execute(execute):
        def traced_execute(run):
            result = execute(run)
            counts["blocks"] += len(result.blocked)
            counts["segments"] += sum(s.next_seq - 1 for s in run.tcp_sources.values())
            counts["rto_fired"] += sum(s.timeouts for s in run.tcp_sources.values())
            counts["pulse_arrivals"] += sum(p.arrivals for p in run.pulsed_sources.values())
            return result
        return span("runner", traced_execute, "runner.execute_s")

    t.patch(runner.SimulationRun, "execute", make_execute)

    # harness and config
    t.patch(harness, "calibrate_thresholds", lambda f: span("harness", f, "harness.calibrate_s"))
    t.patch(harness, "run_point", lambda f: span("harness", _counted(counts, "points", f)))
    t.patch(harness, "write_results_csv", lambda f: span("harness", f, "harness.csv_write_s"))
    t.patch(config, "load_config", lambda f: span("config", f, "config.load_s"))
    t.patch(config, "config_from_dict", lambda f: span("config", f, "config.load_s"))

    # cli: the trace file is a counting file-like object
    def counting_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        trace_sizes.append(0)
        return CountingFile(fh, t, trace_sizes)

    t.set(cli, "open", counting_open)


class CountingFile:
    """Write-only file wrapper that counts the characters and times the writes."""

    def __init__(self, fh, tracer, sizes):
        self._fh = fh
        self._sizes = sizes
        self.write = tracer.span("cli", self._write, "cli.trace_write_s")

    def _write(self, text):
        self._sizes[-1] += len(text)
        return self._fh.write(text)

    def close(self):
        self._fh.close()


def _counted(counts, key, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def traced_job(workload, workdir, config_path):
    """Run the workload's CLI command once in this process under a Tracer."""
    import roqsim.cli as cli

    tracer = Tracer()
    trace_sizes = []
    install(tracer, trace_sizes)
    out = io.StringIO()
    argv = workload.cli_args(config_path, workdir)
    main = tracer.span("cli", cli.main)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = main(argv)
    finally:
        wall = time.perf_counter() - t0
        tracer.restore()
    if status != 0:
        raise BenchError("traced job exited with status %d" % status)
    digest = workload.check(out.getvalue().encode(), workdir)
    return tracer, wall, digest, trace_sizes


def _counts_of(tracer, trace_sizes):
    """Everything a traced job counted; equal across jobs of one seed."""
    c = dict(tracer.counts)
    c.update(("scheduled." + k, v) for k, v in tracer.scheduled.items())
    c["scheduled"], c["dispatched"], c["cancelled"], c["pending_peak"] = tracer.events
    c["sim_dispatched"] = sum(run.sim.dispatched for run in tracer.runs)
    c["trace_bytes"] = sum(trace_sizes)
    return c


def measure(workload, seed, seconds, workdir, src_dir, ledger):
    timed = ledger.reference(run_job(workload, seed, workdir, src_dir))
    trace_file_ratio = 1.0  # no trace file is written: the ratio is 1 by definition
    if workload.traced:
        no_file = ledger.record(
            run_job(workload, seed, workdir, src_dir, mode="time", trace=False))
        if not no_file.ok:
            raise BenchError("job without --trace failed: " + no_file.error)
        trace_file_ratio = timed.wall_s / no_file.wall_s

    sys.path.insert(0, src_dir)
    config_path = os.path.join(workdir, "config.json")
    jobs = []
    start = time.monotonic()
    while len(jobs) < MIN_TRACED_JOBS or time.monotonic() - start < seconds:
        tracer, wall, digest, sizes = traced_job(workload, workdir, config_path)
        counts = _counts_of(tracer, sizes)
        errors = []
        if digest != ledger.expected:
            errors.append("results digest %s, expected %s" % (digest, ledger.expected))
        if counts["dispatched"] != counts["sim_dispatched"]:
            errors.append("wrapped callbacks ran %d times, Simulator.dispatched says %d"
                          % (counts["dispatched"], counts["sim_dispatched"]))
        frames = sum(counts.get("frames." + k, 0) for k in FRAME_KINDS)
        if frames != timed.frames:
            errors.append("traced job put %d frames on air, untraced job %d"
                          % (frames, timed.frames))
        if jobs and counts != jobs[0][1]:
            diff = sorted(k for k in set(counts) | set(jobs[0][1])
                          if counts.get(k) != jobs[0][1].get(k))
            errors.append("counts differ between traced jobs: %s" % diff)
        if workload.traced and counts["trace_bytes"] != os.path.getsize(
                os.path.join(workdir, "trace.tsv")):
            errors.append("counted trace bytes differ from the file size")
        ledger.add("traced", errors)
        jobs.append((tracer, counts, wall))

    return _metrics(jobs, timed, trace_file_ratio), {
        "traced_jobs": len(jobs),
        "digest": timed.digest,
        "versions": timed.versions,
        "counts": jobs[0][1],
    }


def _metrics(jobs, timed, trace_file_ratio):
    tracer0, c, _ = jobs[0]
    median = statistics.median

    def time_of(get):
        return median(get(tracer, wall) for tracer, _, wall in jobs)

    frames = sum(c.get("frames." + k, 0) for k in FRAME_KINDS)
    per_frame = 1.0 / frames if frames else 0.0
    scheduled = c["scheduled"]
    values = {
        "kernel.scheduled": scheduled,
        "kernel.dispatched": c["dispatched"],
        "kernel.cancelled": c["cancelled"],
        "kernel.cancelled_ratio": c["cancelled"] / scheduled if scheduled else 0.0,
        "kernel.events_per_frame": scheduled * per_frame,
        "kernel.scheduled.other": sum(v for k, v in tracer0.scheduled.items() if k not in KINDS),
        "kernel.pending_peak": c["pending_peak"],
        "kernel.events_per_s": c["dispatched"] / timed.sim_phase_s,
        "mac.frames": frames,
        "mac.collided_ratio": 1.0 - c.get("clean_frames", 0) * per_frame if frames else 0.0,
        "mac.receive_per_frame": c.get("receive", 0) * per_frame,
        "mac.contention_events_per_frame":
            sum(c.get("scheduled." + k, 0) for k in CONTENTION_KINDS) * per_frame,
        "traffic.segments": c.get("segments", 0),
        "traffic.retransmits": c.get("retransmits", 0),
        "traffic.rto_fired": c.get("rto_fired", 0),
        "traffic.pulse_arrivals": c.get("pulse_arrivals", 0),
        "defense.intervals": c.get("intervals", 0),
        "defense.blocks": c.get("blocks", 0),
        "spectral.records": c.get("records", 0),
        "harness.points": c.get("points", 0),
        "metrics.ledger_updates": c.get("ledger_updates", 0),
        "cli.import_s": timed.import_s,
        "cli.trace_bytes": c["trace_bytes"],
        "cli.trace_overhead_ratio": trace_file_ratio,
        "bench.traced_wall_s": time_of(lambda t, wall: wall),
        "bench.unattributed_s": time_of(
            lambda t, wall: wall - sum(t.self_s[layer] for layer in LAYERS)),
        "bench.trace_overhead_ratio": time_of(
            lambda t, wall: t.inclusive["runner.execute_s"]) / timed.sim_phase_s,
    }
    for kind in KINDS:
        values["kernel.scheduled." + kind] = tracer0.scheduled.get(kind, 0)
    for kind in FRAME_KINDS:
        values["mac.frames." + kind] = c.get("frames." + kind, 0)
    for layer in LAYERS:
        if layer != "kernel":
            values[layer + ".self_s"] = time_of(lambda t, wall: t.self_s[layer])
    for name in ("kernel.schedule_s", "harness.calibrate_s", "harness.csv_write_s",
                 "runner.build_s", "config.load_s", "cli.trace_write_s"):
        values[name] = time_of(lambda t, wall: t.inclusive[name])
    # the kernel's run_until loop, without the schedule calls charged to "kernel"
    values["kernel.self_s"] = time_of(
        lambda t, wall: t.self_s["kernel"] - t.inclusive["kernel.schedule_s"])
    return {name: (values[name], unit) for name, unit in PER_LAYER}
