"""Command-line interface: run, sweep, calibrate, and error paths."""

import json
import os
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from roqsim import cli, harness
from roqsim.cli import main
from roqsim.kernel import MAX_EVENTS_PER_INSTANT
from roqsim.runner import SimulationRun

REPO = Path(__file__).resolve().parents[1]
SMALL = {
    "duration_s": 15.0,
    "warmup_s": 5.0,
    "seed": 2,
    "sweep": {"attacker_counts": [2], "periods_s": [0.0], "seeds": [1]},
}
# a 256-bin window ends at 12.8 s, so a shrew run or point reaches its verdict
SHREW_WINDOW = {"window_bins": 256}


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


CELL = {"duration_s": 15.0, "warmup_s": 3.0, "seed": 5, "attack": {"count": 3},
        "shrew": {"window_bins": 256}}
# defense -> (config, the nodes it blocks); the shrew case blocks on spectral verdicts
TRACED = {
    "none": (CELL, []),
    "mlda": (dict(CELL, defense="mlda"), [3, 4, 5]),
    "shrew": (dict(CELL, defense="shrew", seed=1, attack={"count": 2, "queue_cap": 25}),
              [3, 4]),
}


@pytest.mark.parametrize("defense", TRACED)
def test_writing_a_trace_changes_nothing(defense, tmp_path, monkeypatch, capsys):
    raw, blocked = TRACED[defense]
    path, trace = tmp_path / "run.json", tmp_path / "trace.tsv"
    path.write_text(json.dumps(raw))
    runs = []  # every run executed, calibration included; the run itself is last
    execute = SimulationRun.execute

    def spy(run):
        runs.append(run)
        return execute(run)

    monkeypatch.setattr(SimulationRun, "execute", spy)
    assert main(["run", "--config", str(path)]) == 0
    plain, dispatched = capsys.readouterr().out, runs[-1].sim.dispatched
    assert main(["run", "--config", str(path), "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == plain
    assert " blocked=%s " % blocked in plain
    # one line per dispatched event, plus the frame and block lines
    with open(trace) as fh:
        kinds = Counter(line.split("\t")[2] for line in fh)
    assert kinds["block"] == len(blocked)
    assert sum(kinds.values()) - kinds["frame"] - kinds["block"] == dispatched
    assert runs[-1].sim.dispatched == dispatched


def test_sweep_writes_results(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(dict(SMALL, shrew=SHREW_WINDOW)))
    out = tmp_path / "results.csv"
    assert main(["sweep", "attackers", "--config", str(path),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("axis,value,defense,seed,legit_bw_bps")
    assert len(lines) == 3  # header + (mlda, shrew) x 1 seed x 1 count


def test_calibrate_prints_json(tmp_path, capsys):
    # the second network's escalation and lying attackers make its defended
    # run block nobody, where the default mlda section blocks every attacker
    networks = [(SMALL, True),
                ({"duration_s": 30.0, "warmup_s": 5.0, "seed": 2,
                  "attack": {"count": 6, "stagger": True},
                  "mlda": {"escalation": "absolute", "lying_attacker": True}}, False)]
    for network, blocks in networks:
        quiet = tmp_path / "quiet.json"
        quiet.write_text(json.dumps(dict(network, attack=dict(network.get("attack", {}),
                                                              period_s=0.0))))
        assert main(["calibrate", "--config", str(quiet)]) == 0
        th = json.loads(capsys.readouterr().out)
        assert set(th) == {"escalation", "interval_s", "lying_attacker",
                           "rc_th", "re_th", "se_th_s"}
        assert th["re_th"] >= 3.0
        # the JSON is an mlda section: a run that takes it prints what the run
        # that calibrates on the same attack-free network prints
        outputs = []
        for mlda in (network.get("mlda", {}), th):
            path = tmp_path / "mlda.json"
            path.write_text(json.dumps(dict(network, defense="mlda", mlda=mlda)))
            assert main(["run", "--config", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert ("blocked=[]" not in outputs[0]) == blocks  # the section was put to use


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
        # 1e303 s has no whole number of microseconds, so the point would not convert
        pytest.param("period", {"periods_s": [0.0, 1e303]},
                     "sweep.periods_s[1] must be at most 1.79769e+302 s in magnitude",
                     id="period-past-float-range"),
        # an empty list would calibrate, then write a header-only CSV and exit 0
        pytest.param("attackers", {"seeds": []}, "sweep.seeds is empty", id="seeds-empty"),
        pytest.param("attackers", {"attacker_counts": []}, "sweep.attacker_counts is empty",
                     id="attacker-counts-empty"),
        pytest.param("period", {"periods_s": []}, "sweep.periods_s is empty",
                     id="periods-empty"),
        # argparse does not list the axes: harness.sweep is the one place that refuses
        pytest.param("seeds", {}, "sweep axis must be one of 'attackers' or 'period',"
                     " got 'seeds'", id="axis-unknown"),
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


_SPAN_TOO_LONG = " must be at most 1.79769e+302 s in magnitude, got "


@pytest.mark.parametrize(
    "cfg, message",
    [
        # 1e303 s is 1e309 us: past the largest float, so no whole microsecond count
        pytest.param({"duration_s": 1e303}, "duration_s" + _SPAN_TOO_LONG, id="duration"),
        pytest.param({"warmup_s": 1e303}, "warmup_s" + _SPAN_TOO_LONG, id="warmup"),
        pytest.param({"attack": {"period_s": 1e303}},
                     "attack.period_s" + _SPAN_TOO_LONG, id="period"),
        pytest.param({"attack": {"jitter_s": 1e303}},
                     "attack.jitter_s" + _SPAN_TOO_LONG, id="jitter"),
        # refused even while a zero period switches the attack off
        pytest.param({"duration_s": 2, "warmup_s": 1,
                      "attack": {"period_s": 0, "burst_s": 1e303}},
                     "attack.burst_s" + _SPAN_TOO_LONG, id="burst"),
        pytest.param({"phy": {"queue_lifetime_s": 1e303}},
                     "phy.queue_lifetime_s" + _SPAN_TOO_LONG, id="queue-lifetime"),
        pytest.param({"mlda": {"interval_s": 1e303}},
                     "mlda.interval_s" + _SPAN_TOO_LONG, id="interval"),
        # the run itself would convert it only after its first interval
        pytest.param({"duration_s": 2, "warmup_s": 1, "defense": "mlda",
                      "mlda": {"rc_th": 1, "se_th_s": 1e303, "re_th": 1}},
                     "mlda.se_th_s" + _SPAN_TOO_LONG, id="se-threshold"),
        pytest.param({"shrew": {"bin_s": 1e303}}, "shrew.bin_s" + _SPAN_TOO_LONG, id="bin"),
        # a JSON integer past the float range is finite, and compares without conversion
        pytest.param({"shrew": {"cutoff_hz": 10**330}}, "shrew.cutoff_hz must be in",
                     id="cutoff-huge-integer"),
    ],
)
def test_value_past_float_range_exits_1_before_any_run(tmp_path, monkeypatch, capsys, cfg,
                                                       message):
    def no_run(*args, **kwargs):
        raise AssertionError("a simulation started before the config was checked")

    monkeypatch.setattr(harness, "run_simulation", no_run)
    monkeypatch.setattr(cli, "SimulationRun", no_run)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error: " + message)


def _refused_before_any_run(tmp_path, monkeypatch, capsys, command, cfg):
    """Run command on cfg with every simulation forbidden; its stderr, once it exits 1."""
    def no_run(*args, **kwargs):
        raise AssertionError("a simulation started before the config was checked")

    monkeypatch.setattr(harness, "run_simulation", no_run)  # calibration included
    monkeypatch.setattr(cli, "SimulationRun", no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main(command + ["--config", "config.json"]) == 1
    assert not (tmp_path / "results.csv").exists()
    return capsys.readouterr().err


_TOO_MANY_INTERVALS = ("mlda.interval_s: (legit.count + attack.count) * (duration_s //"
                       " mlda.interval_s) must be at most 1048576 interval records, got ")


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        # 1 us intervals over the default 100 s would keep 4 * 10**8 records, some 60 GB
        pytest.param(["run"], {"mlda": {"interval_s": 1e-6}},
                     _TOO_MANY_INTERVALS + "4 * 100000000", id="run"),
        # 3 stations keep 900,000 records, the second item's 4 would keep 1,200,000
        pytest.param(["sweep", "attackers", "--out", "results.csv"],
                     {"duration_s": 30, "mlda": {"interval_s": 1e-4}, "attack": {"count": 1},
                      "shrew": SHREW_WINDOW, "sweep": {"attacker_counts": [1, 2], "seeds": [1]}},
                     "sweep.attacker_counts[1]: " + _TOO_MANY_INTERVALS + "4 * 300000",
                     id="sweep-item"),
    ],
)
def test_too_many_monitoring_intervals_exit_1_before_any_run(tmp_path, monkeypatch, capsys,
                                                             command, cfg, message):
    assert _refused_before_any_run(tmp_path, monkeypatch, capsys, command, cfg) == (
        "config error: %s\n" % message)


_LONG_INTERVAL = {"duration_s": 30, "warmup_s": 5, "defense": "mlda",
                  "mlda": {"interval_s": 40, "rc_th": 1, "se_th_s": 0.001, "re_th": 0}}


@pytest.mark.parametrize(
    "command, cfg",
    [
        pytest.param(["run"], _LONG_INTERVAL, id="run"),
        pytest.param(["sweep", "attackers", "--out", "results.csv"], _LONG_INTERVAL, id="sweep"),
        # a sweep runs mlda points whatever the config's own defense
        pytest.param(["sweep", "period", "--out", "results.csv"],
                     dict(_LONG_INTERVAL, defense="none"), id="sweep-defense-none"),
    ],
)
def test_an_mlda_interval_longer_than_the_run_exits_1_before_any_run(tmp_path, monkeypatch,
                                                                    capsys, command, cfg):
    assert _refused_before_any_run(tmp_path, monkeypatch, capsys, command, cfg) == (
        "config error: mlda.interval_s must be at most duration_s under defense 'mlda', got 40"
        " > 30: no interval would end, so the defense would never act\n")


_SHORT_RUN = {"duration_s": 30, "warmup_s": 5, "defense": "shrew"}


@pytest.mark.parametrize(
    "command, cfg",
    [
        pytest.param(["run"], _SHORT_RUN, id="run"),
        pytest.param(["sweep", "attackers", "--out", "results.csv"], _SHORT_RUN, id="sweep"),
        # a sweep runs shrew points whatever the config's own defense
        pytest.param(["sweep", "period", "--out", "results.csv"],
                     dict(_SHORT_RUN, defense="none"), id="sweep-defense-none"),
    ],
)
def test_a_shrew_window_longer_than_the_run_exits_1_before_any_run(tmp_path, monkeypatch,
                                                                  capsys, command, cfg):
    assert _refused_before_any_run(tmp_path, monkeypatch, capsys, command, cfg) == (
        "config error: shrew.bin_s * shrew.window_bins must be at most duration_s under defense"
        " 'shrew', got 51.2 > 30: no window would fill, so the defense would never act\n")


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


@pytest.mark.parametrize("option", ["--out", "--trace", "--detections", "--dump-spectra"])
@pytest.mark.parametrize("fault", ["missing-directory", "directory"])
def test_bad_output_path_exits_1_before_any_run(tmp_path, monkeypatch, capsys, option, fault):
    def no_run(*args, **kwargs):
        raise AssertionError("a simulation ran before %s was checked" % option)

    monkeypatch.setattr(harness, "run_simulation", no_run)  # calibration included
    monkeypatch.setattr(cli, "SimulationRun", no_run)
    path = tmp_path / "mlda.json"  # no thresholds: run would calibrate first
    path.write_text(json.dumps(dict(SMALL, defense="mlda")))
    bad = tmp_path / "missing" / "x.csv" if fault == "missing-directory" else tmp_path
    command = ["sweep", "attackers"] if option == "--out" else ["run"]
    assert main(command + ["--config", str(path), option, str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: %s %s: " % (option, bad))
    assert ("is a directory" if fault == "directory" else "no such directory") in err


@pytest.mark.parametrize(
    "command, outputs, message",
    [
        pytest.param(["run"], {"--trace": "run.json"}, "--trace run.json: same file as --config",
                     id="trace-is-config"),
        pytest.param(["run"], {"--detections": "run.json"},
                     "--detections run.json: same file as --config", id="detections-is-config"),
        pytest.param(["run"], {"--dump-spectra": "run.json"},
                     "--dump-spectra run.json: same file as --config", id="spectra-is-config"),
        pytest.param(["sweep", "attackers"], {"--out": "run.json"},
                     "--out run.json: same file as --config", id="out-is-config"),
        # a link to the config is the config
        pytest.param(["run"], {"--trace": "link.json"}, "--trace link.json: same file as --config",
                     id="trace-links-to-config"),
        pytest.param(["run"], {"--trace": "hard.json"}, "--trace hard.json: same file as --config",
                     id="trace-hard-links-to-config"),
        pytest.param(["run"], {"--trace": "x", "--detections": "x"},
                     "--detections x: same file as --trace", id="detections-is-trace"),
        pytest.param(["run"], {"--detections": "x", "--dump-spectra": "x"},
                     "--dump-spectra x: same file as --detections", id="spectra-is-detections"),
    ],
)
def test_clashing_output_paths_exit_1_before_any_run(tmp_path, monkeypatch, capsys, command,
                                                     outputs, message):
    def no_run(*args, **kwargs):
        raise AssertionError("a simulation ran before the output paths were checked")

    monkeypatch.setattr(harness, "run_simulation", no_run)  # calibration included
    monkeypatch.setattr(cli, "SimulationRun", no_run)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.json"  # no thresholds: run would calibrate first
    config.write_text(json.dumps(dict(SMALL, defense="mlda")))
    (tmp_path / "link.json").symlink_to(config)
    (tmp_path / "hard.json").hardlink_to(config)
    before = config.read_bytes()
    argv = command + ["--config", "run.json"]
    for option, path in outputs.items():
        argv += [option, path]
    assert main(argv) == 1
    assert capsys.readouterr().err == "config error: %s\n" % message
    assert config.read_bytes() == before
    assert not (tmp_path / "x").exists()


_RUN = """
import sys
from roqsim.cli import main
from roqsim.kernel import MAX_EVENTS_PER_INSTANT
sys.exit(main(sys.argv[1:]))
"""
# a None entry in sys.modules makes that import raise ImportError
_BLOCK_NUMPY_AND_POOL = """
import sys
sys.modules["numpy"] = None
sys.modules["concurrent.futures"] = None
"""


@pytest.mark.parametrize(
    "cfg, command",
    [
        pytest.param(dict(SMALL, defense="none"),
                     ["run", "--trace", "out.tsv", "--detections", "out.csv"], id="none"),
        pytest.param(dict(SMALL, defense="mlda"),
                     ["run", "--trace", "out.tsv", "--detections", "out.csv"], id="mlda"),
        pytest.param(dict(SMALL, defense="shrew", shrew=SHREW_WINDOW),
                     ["run", "--trace", "out.tsv", "--dump-spectra", "out.csv"], id="shrew"),
        pytest.param(dict(SMALL, shrew=SHREW_WINDOW),
                     ["sweep", "attackers", "--workers", "1", "--out", "out.csv"], id="sweep"),
    ],
)
def test_run_needs_neither_numpy_nor_a_process_pool(tmp_path, cfg, command):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    outputs = []
    for name, program in (("blocked", _BLOCK_NUMPY_AND_POOL + _RUN), ("plain", _RUN)):
        # each side writes the same relative names in its own directory
        cwd = tmp_path / name
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", program, *command, "--config", str(path)],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written = [(arg, (cwd / arg).read_bytes()) for arg in command if arg.startswith("out.")]
        outputs.append((proc.stdout, written))
    assert outputs[0] == outputs[1]


def test_package_has_no_runtime_dependency():
    assert _project()["dependencies"] == []


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


def test_zero_delay_loop_exits_2_without_hanging(config_path, monkeypatch, capsys):
    # the kernel's backstop: an event that reschedules itself at the current
    # time forever is a run failure, not a hang
    def spin(run):
        run.sim.schedule(run.sim.now_us, "interval_rollover", lambda: spin(run))

    monkeypatch.setattr(SimulationRun, "_on_interval", spin)
    assert main(["run", "--config", config_path]) == 2
    assert capsys.readouterr().err == (
        "run failed: more than %d events at t=1.000000 (last scheduled: interval_rollover): "
        "a zero-delay loop\n" % MAX_EVENTS_PER_INSTANT)


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
    thresholds = ('{"escalation": "streak", "interval_s": 1.0, "lying_attacker": false, '
                  '"rc_th": 45.0, "re_th": 3.0, "se_th_s": 0.05061}\n')
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
    path.write_text(json.dumps(dict(SMALL, defense=defense, shrew=SHREW_WINDOW)))
    assert main(args + ["--config", str(path)]) == 0
    assert alive_at_build == [0] * builds


def _project():
    """The `[project]` table of the project's own pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: no tomllib in the stdlib
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


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
    _write_launcher(bin_dir, "roqsim", _project()["scripts"]["roqsim"])
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
