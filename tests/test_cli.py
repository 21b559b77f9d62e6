"""Command-line interface: run, sweep, calibrate, and error paths."""

import json
import os
import shutil
import subprocess
import sys
import weakref
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from roqsim import harness
from roqsim.cli import main
from roqsim.runner import SimulationRun

REPO = Path(__file__).resolve().parents[1]
SMALL = {
    "duration_s": 15.0,
    "warmup_s": 5.0,
    "seed": 2,
    "sweep": {"attacker_counts": [2], "periods_s": [0.0], "seeds": [1]},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def test_run_prints_metrics(config_path, capsys):
    assert main(["run", "--config", config_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "defense=none seed=2 window_s=10"
    assert out[1].startswith("legit_bw_bps=")
    assert out[2].startswith("attack_bw_bps=")


def test_run_writes_artifacts(tmp_path, config_path):
    cfgd = dict(SMALL)
    cfgd["defense"] = "mlda"
    cfg2 = tmp_path / "mlda.json"
    cfg2.write_text(json.dumps(cfgd))
    trace = tmp_path / "trace.tsv"
    det = tmp_path / "detections.csv"
    spectra = tmp_path / "spectra.csv"
    rc = main(["run", "--config", str(cfg2), "--trace", str(trace),
               "--detections", str(det), "--dump-spectra", str(spectra)])
    assert rc == 0
    assert trace.stat().st_size > 0
    assert det.read_text().splitlines()[0] == "interval,node,cb,status,action"
    assert spectra.read_text().splitlines()[0] == "flow,bin,freq_hz,energy"


def test_sweep_writes_results(tmp_path, config_path):
    out = tmp_path / "results.csv"
    assert main(["sweep", "attackers", "--config", config_path,
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("axis,value,defense,seed,legit_bw_bps")
    assert len(lines) == 3  # header + (mlda, shrew) x 1 seed x 1 count


def test_calibrate_prints_json(tmp_path, capsys):
    quiet = tmp_path / "quiet.json"
    quiet.write_text(json.dumps(dict(SMALL, attack={"period_s": 0.0})))
    assert main(["calibrate", "--config", str(quiet)]) == 0
    th = json.loads(capsys.readouterr().out)
    assert set(th) == {"rc_th", "se_th_s", "re_th", "interval_s"}
    assert th["re_th"] >= 3.0
    # the JSON is an mlda section: a run that takes it prints what the run
    # that calibrates on the same attack-free network prints
    outputs = []
    for mlda in ({}, th):
        path = tmp_path / "mlda.json"
        path.write_text(json.dumps(dict(SMALL, defense="mlda", mlda=mlda)))
        assert main(["run", "--config", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "blocked=[]" not in outputs[0]  # the thresholds were put to use


def test_missing_config_is_a_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "make, reason",
    [
        pytest.param(lambda path: path.mkdir(), "Is a directory", id="directory"),
        pytest.param(lambda path: path.write_bytes(b"\xff\xfe{}"), "can't decode byte 0xff",
                     id="not-utf-8"),
        pytest.param(lambda path: path.write_text("[" * 100_000 + "]" * 100_000),
                     "maximum recursion depth", id="nested-too-deep"),
        pytest.param(lambda path: path.write_text("{"), "Expecting property name",
                     id="not-json"),
    ],
)
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, make, reason):
    path = tmp_path / "run.json"
    make(path)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config file %s as JSON: " % path), err
    assert reason in err


@pytest.mark.parametrize(
    "config_text, field",
    [
        # faster than one packet per microsecond: every arrival at one instant
        pytest.param('{"duration_s": 2, "warmup_s": 1, "attack": {"rate_pps": 1000001}}',
                     "attack.rate_pps", id="attack-rate-above-1MHz"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "legit": {"app_rate_pps": 1000001}}',
                     "legit.app_rate_pps", id="app-rate-above-1MHz"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "attack": {"rate_pps": 400.5}}',
                     "attack.rate_pps", id="attack-rate-not-integer"),
        pytest.param('{"duration_s": NaN}', "duration_s", id="duration-nan"),
        pytest.param('{"duration_s": "100"}', "duration_s", id="duration-string"),
        pytest.param('{"warmup_s": "10"}', "warmup_s", id="warmup-string"),
        # every field is checked against its type: integers, finite numbers, bools
        pytest.param('{"seed": 1.5}', "seed", id="seed-float"),
        pytest.param('{"seed": "x"}', "seed", id="seed-string"),
        pytest.param('{"attack": {"period_s": NaN}}', "attack.period_s", id="period-nan"),
        # each period starts with an arrival: 2 us periods would offer 500k pps
        pytest.param('{"duration_s": 2, "warmup_s": 1,'
                     ' "attack": {"period_s": 2e-6, "burst_s": 1e-6}}',
                     "attack.period_s", id="period-below-packet-spacing"),
        pytest.param('{"attack": {"burst_s": NaN}}', "attack.burst_s", id="burst-nan"),
        pytest.param('{"mlda": {"interval_s": NaN}}', "mlda.interval_s", id="interval-nan"),
        pytest.param('{"phy": {"queue_lifetime_s": "x"}}', "phy.queue_lifetime_s",
                     id="queue-lifetime-string"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "attack": {"count": true}}',
                     "attack.count", id="attack-count-bool"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "attack": {"stagger": 1}}',
                     "attack.stagger", id="stagger-not-bool"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "sweep": {"seeds": [1, 2.5]}}',
                     "sweep.seeds[1]", id="sweep-seed-float"),
        # ranges: PHY timing, one-microsecond steps, sizes, thresholds
        pytest.param('{"phy": {"slot_us": 0}}', "phy.slot_us", id="slot-zero"),
        pytest.param('{"phy": {"cw_min": 0}}', "phy.cw_min", id="cw-min-zero"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "phy": {"retry_limit": -1}}',
                     "phy.retry_limit", id="retry-limit-negative"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "phy": {"queue_lifetime_s": 0}}',
                     "phy.queue_lifetime_s", id="queue-lifetime-zero"),
        pytest.param('{"shrew": {"bin_s": 1e-7}}', "shrew.bin_s", id="bin-below-1us"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "mlda": {"interval_s": 1e-7}}',
                     "mlda.interval_s", id="interval-below-1us"),
        # mlda calibrates: no 1 s interval ends in (1.2 s, 1.5 s], checked before that run
        pytest.param('{"duration_s": 1.5, "warmup_s": 1.2, "defense": "mlda"}',
                     "mlda.interval_s", id="no-calibration-interval"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "legit": {"packet_bits": 0}}',
                     "legit.packet_bits", id="legit-packet-zero"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "legit": {"rwnd": 0}}',
                     "legit.rwnd", id="rwnd-zero"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "attack": {"packet_bits": 0}}',
                     "attack.packet_bits", id="attack-packet-zero"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "attack": {"queue_cap": 0}}',
                     "attack.queue_cap", id="queue-cap-zero"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "attack": {"jitter_s": -0.5}}',
                     "attack.jitter_s", id="jitter-negative"),
        # jittered bursts could overlap: (1.2 s - 0.3 s) / 2 is the most allowed
        pytest.param('{"duration_s": 2, "warmup_s": 1, "attack": {"jitter_s": 0.450001}}',
                     "attack.jitter_s", id="jitter-overlaps-bursts"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "defense": "mlda",'
                     ' "mlda": {"rc_th": -1, "se_th_s": 0.1, "re_th": 3}}',
                     "mlda.rc_th", id="threshold-negative"),
        # a partial threshold set would be ignored and calibrated over
        pytest.param('{"duration_s": 12, "warmup_s": 2, "defense": "mlda",'
                     ' "mlda": {"rc_th": 0.0}}',
                     "mlda.se_th_s and mlda.re_th must be set", id="thresholds-partial"),
        # every low-frequency ratio lies in [0, 1]
        pytest.param('{"duration_s": 15, "warmup_s": 1, "defense": "shrew",'
                     ' "shrew": {"window_bins": 256, "ratio_threshold": -1}}',
                     "shrew.ratio_threshold", id="ratio-threshold-negative"),
        pytest.param('{"duration_s": 2, "warmup_s": 1, "shrew": {"ratio_threshold": 1}}',
                     "shrew.ratio_threshold", id="ratio-threshold-one"),
        # every run allocates the spectral window of every flow, whatever the defense
        pytest.param('{"duration_s": 2, "warmup_s": 1, "shrew": {"window_bins": 1073741824}}',
                     "shrew.window_bins must be at most 65536", id="window-bins-huge"),
        # each station is built with its own state, sources and ledger
        pytest.param('{"duration_s": 2, "warmup_s": 1, "legit": {"count": 100000000},'
                     ' "attack": {"count": 100000000}}',
                     "legit.count + attack.count must be at most 2007", id="stations-huge"),
    ],
)
def test_bad_config_exits_1_without_hanging(tmp_path, config_text, field):
    path = tmp_path / "bad.json"
    path.write_text(config_text)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-m", "roqsim.cli", "run", "--config", str(path)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error: " + field), proc.stderr


@pytest.mark.parametrize(
    "axis, sweep, message",
    [
        pytest.param("attackers", {"attacker_counts": [2, -1]},
                     "sweep.attacker_counts[1]: attack.count must be >= 0", id="attackers"),
        pytest.param("attackers", {"attacker_counts": [2, 2006]},
                     "sweep.attacker_counts[1]: legit.count + attack.count must be at most"
                     " 2007", id="attackers-over-station-cap"),
        pytest.param("period", {"periods_s": [0.0, 0.3]},
                     "sweep.periods_s[1]: attack.burst_s must be shorter", id="period"),
        # an empty list would calibrate, then write a header-only CSV and exit 0
        pytest.param("attackers", {"seeds": []}, "sweep.seeds is empty", id="seeds-empty"),
        pytest.param("attackers", {"attacker_counts": []}, "sweep.attacker_counts is empty",
                     id="attacker-counts-empty"),
        pytest.param("period", {"periods_s": []}, "sweep.periods_s is empty",
                     id="periods-empty"),
    ],
)
def test_bad_sweep_item_exits_1_before_any_run(tmp_path, monkeypatch, capsys, axis, sweep,
                                               message):
    def no_run(*args, **kwargs):
        raise AssertionError("a simulation ran before the sweep items were checked")

    monkeypatch.setattr(harness, "run_simulation", no_run)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"attack": {"burst_s": 0.3}, "sweep": sweep}))
    out = tmp_path / "results.csv"
    assert main(["sweep", axis, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: " + message)
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -2])
def test_sweep_refuses_fewer_than_one_worker(config_path, tmp_path, monkeypatch, capsys,
                                             workers):
    def no_run(*args, **kwargs):
        raise AssertionError("a simulation ran before --workers was checked")

    monkeypatch.setattr(harness, "run_simulation", no_run)
    out = tmp_path / "results.csv"
    assert main(["sweep", "attackers", "--config", config_path, "--out", str(out),
                 "--workers", str(workers)]) == 1
    assert capsys.readouterr().err == (
        "config error: --workers must be at least 1, got %d\n" % workers)
    assert not out.exists()


_RUN = """
import sys
from roqsim.cli import main
sys.exit(main(sys.argv[1:]))
"""
# a None entry in sys.modules makes that import raise ImportError
_BLOCK_NUMPY_AND_POOL = """
import sys
sys.modules["numpy"] = None
sys.modules["concurrent.futures"] = None
"""


@pytest.mark.parametrize("defense", ["none", "mlda"])
def test_run_needs_neither_numpy_nor_a_process_pool(tmp_path, defense):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(SMALL, defense=defense)))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    outputs = []
    for name, program in (("blocked", _BLOCK_NUMPY_AND_POOL + _RUN), ("plain", _RUN)):
        trace = tmp_path / (name + ".tsv")
        detections = tmp_path / (name + ".csv")
        proc = subprocess.run(
            [sys.executable, "-c", program, "run", "--config", str(path),
             "--trace", str(trace), "--detections", str(detections)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, trace.read_bytes(), detections.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "seed, escalation, blocked",
    [
        pytest.param(219, "streak", "[3, 4, 5, 6, 7, 8, 9, 10]", id="seed219-streak"),
        pytest.param(106, "absolute", "[3, 4, 5, 7, 8]", id="seed106-absolute"),
    ],
)
def test_block_between_cts_and_data_exits_0(tmp_path, capsys, seed, escalation, blocked):
    # each run blocks an attacker in the SIFS gap between its CTS and its DATA,
    # which used to end in an IndexError traceback; exit 0 also means the
    # conservation audit balanced (an imbalance exits 2)
    cfg = {"duration_s": 12.0, "warmup_s": 2.0, "defense": "mlda", "seed": seed,
           "attack": {"count": 8},
           "mlda": {"rc_th": 45.0, "se_th_s": 0.0510939, "re_th": 3.0,
                    "escalation": escalation}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    assert " blocked=%s false_blocks=0" % blocked in capsys.readouterr().out


def test_crash_exits_2_without_a_traceback(config_path, monkeypatch, capsys):
    # a defect in the simulator is a run failure, not a configuration error
    def crash(run):
        raise RuntimeError("boom")

    monkeypatch.setattr(SimulationRun, "execute", crash)
    assert main(["run", "--config", config_path]) == 2
    assert capsys.readouterr().err == "run failed: RuntimeError: boom\n"


def test_keyboard_interrupt_still_propagates(config_path, monkeypatch):
    def interrupted(run):
        raise KeyboardInterrupt

    monkeypatch.setattr(SimulationRun, "execute", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", config_path])


def test_calibrate_refuses_attacked_config(config_path, capsys):
    # thresholds learned under attack would bake the anomaly into the baseline
    assert main(["calibrate", "--config", config_path]) == 1
    assert capsys.readouterr().err.startswith("config error: attack.")


def test_calibrate_takes_any_switched_off_attack(tmp_path, capsys):
    # each of these turns the attack off, as rate_pps 0 does
    printed = []
    for attack in ({"rate_pps": 0}, {"count": 0}, {"burst_s": 0.0}):
        path = tmp_path / "quiet.json"
        path.write_text(json.dumps({"duration_s": 5.0, "warmup_s": 1.0, "attack": attack}))
        assert main(["calibrate", "--config", str(path)]) == 0
        printed.append(capsys.readouterr().out)
    thresholds = '{"interval_s": 1.0, "rc_th": 45.0, "re_th": 3.0, "se_th_s": 0.05061}\n'
    assert printed == [thresholds] * 3


@pytest.mark.parametrize(
    "args, defense, builds",
    [
        # the calibration run, then one point per defense
        pytest.param(["sweep", "attackers", "--out", "results.csv"], "none", 3, id="sweep"),
        # the calibration run, then the run itself, which cli keeps to the end
        pytest.param(["run"], "mlda", 2, id="run-mlda-calibrated"),
    ],
)
def test_each_simulation_is_freed_before_the_next_is_built(tmp_path, monkeypatch, args,
                                                           defense, builds):
    runs = []  # a weak reference to every run built so far
    alive_at_build = []
    init = SimulationRun.__init__

    def tracked_init(run, *a, **kw):
        alive_at_build.append(sum(ref() is not None for ref in runs))
        runs.append(weakref.ref(run))
        init(run, *a, **kw)

    monkeypatch.setattr(SimulationRun, "__init__", tracked_init)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(SMALL, defense=defense)))
    assert main(args + ["--config", str(path)]) == 0
    assert alive_at_build == [0] * builds


def _declared_scripts():
    """The `[project.scripts]` table of the project's own pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: no tomllib in the stdlib
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _write_launcher(bin_dir, name, ref):
    """Write the console-script launcher an installer makes for `ref`.

    `ref` is an entry-point object reference, `module:attr[.attr...]`; the
    launcher imports it and exits with its return value, as the
    entry-points specification prescribes.
    """
    ep = EntryPoint(name, ref, "console_scripts")
    exe = bin_dir / name
    exe.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        f"sys.exit({ep.attr}())\n")
    exe.chmod(0o755)


def test_console_script_installed(tmp_path):
    # The suite runs from the source tree without installing the package,
    # so build the launcher `pip install` would put on PATH from the
    # declared entry point, and run it the way a user would.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    _write_launcher(bin_dir, "roqsim", _declared_scripts()["roqsim"])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = str(REPO / "src")
    exe = shutil.which("roqsim", path=env["PATH"])
    assert exe, "console script should be on PATH after install"
    quiet = tmp_path / "quiet.json"
    quiet.write_text(json.dumps(dict(SMALL, attack={"count": 0})))
    proc = subprocess.run([exe, "calibrate", "--config", str(quiet)],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["re_th"] >= 3.0
