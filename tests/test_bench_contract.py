"""The names perfbench wraps are still there, with the shapes it calls.

``perfbench/traced.py`` wraps the package's functions by name to count a
traced job, and ``perfbench/probe.py`` wraps ``SimulationRun.execute``,
``Simulator.run_until`` and ``Medium.transmit``.  Tier-1 does not run the
bench's own tests, so these checks are what catches a rename or a new
signature in ``src/roqsim`` that breaks either of them.
"""

import inspect
from pathlib import Path

from roqsim.config import config_from_dict
from roqsim.kernel import Simulator
from roqsim.mac import ACK, CTS, DATA, RTS, Medium
from roqsim.runner import SimulationRun, run_simulation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DEFENDED = {"duration_s": 2.0, "warmup_s": 0.0, "defense": "mlda",
            "mlda": {"rc_th": 45.0, "se_th_s": 0.05, "re_th": 3.0}}


def test_traced_mode_counts_a_defended_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced

    plain = run_simulation(config_from_dict(DEFENDED))
    transmit, execute = Medium.transmit, SimulationRun.execute
    tracer = traced.Tracer()
    try:
        traced.install(tracer, [])  # inside: a partial install is undone too
        result = run_simulation(config_from_dict(DEFENDED))
    finally:
        tracer.restore()
    assert (Medium.transmit, SimulationRun.execute) == (transmit, execute)

    counts = tracer.counts
    assert all(counts["frames." + kind] > 0 for kind in (RTS, CTS, DATA, ACK)), counts
    assert counts["ledger_updates"] > 0 and counts["intervals"] > 0
    scheduled, dispatched, cancelled, _ = tracer.events
    assert scheduled == sum(tracer.scheduled.values()) >= dispatched + cancelled > 0
    assert len(tracer.runs) == 1
    # the wrappers count the run without changing it
    assert (result.legit, result.attack, result.blocked) == (plain.legit, plain.attack,
                                                             plain.blocked)


def test_traced_mode_counts_every_resent_segment(monkeypatch):
    # the defended run above has no RTO; this one has 5 at seed 1, and each
    # resends a segment, which the wrapped enqueue counts only if
    # TcpSource._send marks the frame retransmitted before it enqueues it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced

    tracer = traced.Tracer()
    try:
        traced.install(tracer, [])
        result = run_simulation(config_from_dict({"duration_s": 10.0, "warmup_s": 0.0}))
    finally:
        tracer.restore()
    assert tracer.counts["retransmits"] >= result.timeouts > 0


def test_the_probes_patch_points_keep_their_names_and_signatures():
    assert callable(SimulationRun.execute)
    assert callable(Simulator.run_until)
    assert str(inspect.signature(Medium.transmit)) == "(self, src_id, frame, air_us)"
