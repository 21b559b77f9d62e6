"""Threshold calibration and the sweep/CSV machinery."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from roqsim import harness
from roqsim.config import ConfigError, MldaSection, RunConfig, config_from_dict
from roqsim.harness import (
    DETECTIONS_HEADER,
    RESULTS_HEADER,
    attack_free,
    calibrate_thresholds,
    resolve_thresholds,
    run_point,
    sweep,
    thresholds_from_samples,
    write_detections_csv,
    write_results_csv,
)
from roqsim.runner import IntervalRecord

SMALL = {
    "duration_s": 15.0,
    "warmup_s": 5.0,
    "sweep": {"attacker_counts": [2], "periods_s": [0.0, 5.0], "seeds": [1]},
}


def test_thresholds_from_samples_scale_and_floor():
    th = thresholds_from_samples(MldaSection(), [20, 40], [0.02, 0.06], [0, 1])
    assert th.rc_th == pytest.approx(45.0)  # 1.5 * mean(30)
    assert th.se_th_s == pytest.approx(0.06)
    assert th.re_th == 3.0  # 1.5 * 0.5 is under the floor
    mlda = MldaSection(interval_s=2.0, escalation="absolute")
    th2 = thresholds_from_samples(mlda, [1], [0.0], [4])
    assert th2.re_th == 6.0  # above the floor the scaled mean wins
    assert (th2.interval_s, th2.escalation) == (2.0, "absolute")  # the rest is kept
    assert mlda.rc_th is None  # the section passed in is untouched
    with pytest.raises(ValueError):
        thresholds_from_samples(MldaSection(), [], [], [])


def test_attack_free_strips_attack_and_defense():
    cfg = config_from_dict({"defense": "mlda", "attack": {"count": 4}})
    quiet = attack_free(cfg)
    assert quiet.defense == "none"
    assert quiet.attack.period_s == 0.0
    assert not quiet.attack_enabled()
    assert cfg.defense == "mlda"  # original untouched


def test_calibration_refuses_active_attack(monkeypatch):
    monkeypatch.setattr(harness, "run_simulation", None)  # refused before any run
    with pytest.raises(ConfigError, match="^attack.count 2, attack.period_s 1.2 and"):
        calibrate_thresholds(RunConfig())  # default config has a live attack


def test_calibration_samples_the_intervals_after_warmup(monkeypatch):
    # 0.3 / 0.1 is 2.9999999999999996 in floating point, 300000 // 100000 is 3
    cfg = config_from_dict({"duration_s": 0.5, "warmup_s": 0.3,
                            "mlda": {"interval_s": 0.1}, "attack": {"count": 0}})
    node = cfg.legit_nodes()[0]
    records = [IntervalRecord(i, node, 10 * i, 0, 0) for i in range(1, 6)]
    monkeypatch.setattr(harness, "run_simulation",
                        lambda c: SimpleNamespace(interval_records=records))
    th = calibrate_thresholds(cfg)
    assert th.rc_th == pytest.approx(1.5 * 45)  # intervals 4 and 5: (0.3 s, 0.5 s]


def test_calibration_starts_after_a_warmup_that_ends_inside_an_interval(monkeypatch):
    # warm-up ends inside interval 3, (0.2 s, 0.3 s]: sampling starts at interval 4
    cfg = config_from_dict({"duration_s": 0.6, "warmup_s": 0.25,
                            "mlda": {"interval_s": 0.1}, "attack": {"count": 0}})
    node = cfg.legit_nodes()[0]
    records = [IntervalRecord(i, node, 10 * i, 0, 0) for i in range(1, 7)]
    monkeypatch.setattr(harness, "run_simulation",
                        lambda c: SimpleNamespace(interval_records=records))
    th = calibrate_thresholds(cfg)
    assert th.rc_th == pytest.approx(1.5 * 50)  # intervals 4 to 6: (0.3 s, 0.6 s]

    # interval 4 would end after duration_s: nothing to sample, refused before the run
    monkeypatch.setattr(harness, "run_simulation", None)
    with pytest.raises(ConfigError, match="^mlda.interval_s"):
        calibrate_thresholds(replace(cfg, duration_s=0.35))


def test_calibration_is_deterministic_and_positive():
    cfg = attack_free(config_from_dict(SMALL))
    th1 = calibrate_thresholds(cfg)
    th2 = calibrate_thresholds(cfg)
    assert th1 == th2
    assert replace(th1, rc_th=None, se_th_s=None, re_th=None) == cfg.mlda
    assert th1.rc_th > 0
    assert th1.se_th_s > 0
    assert th1.re_th >= 3.0


def test_resolve_prefers_configured_thresholds(monkeypatch):
    cfg = config_from_dict(
        {"mlda": {"rc_th": 9.0, "se_th_s": 0.1, "re_th": 4.0, "interval_s": 2.0}}
    )
    monkeypatch.setattr(harness, "run_simulation", None)  # no calibration run
    assert resolve_thresholds(cfg) is cfg


def test_resolve_calibrates_unset_thresholds():
    cfg = config_from_dict(dict(SMALL, defense="mlda"))
    resolved = resolve_thresholds(cfg)
    assert resolved.mlda == calibrate_thresholds(attack_free(cfg))
    assert replace(resolved, mlda=cfg.mlda) == cfg  # only the thresholds differ
    assert cfg.mlda.rc_th is None  # the config passed in is untouched


def test_run_point_row_is_deterministic():
    cfg = resolve_thresholds(config_from_dict(SMALL))
    args = ("attackers", 2, "mlda", 1, replace(cfg, defense="mlda"))
    row1 = run_point(args)
    row2 = run_point(args)
    assert row1 == row2
    assert row1[:4] == ("attackers", 2, "mlda", 1)
    assert len(row1) == len(RESULTS_HEADER)


def test_sweep_rows_and_csv_stability(tmp_path):
    cfg = config_from_dict(SMALL)
    rows1 = sweep(cfg, "attackers")
    rows2 = sweep(cfg, "attackers")
    assert rows1 == rows2
    assert [r[:4] for r in rows1] == [
        ("attackers", 2, "mlda", 1),
        ("attackers", 2, "shrew", 1),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(str(a), rows1)
    write_results_csv(str(b), rows2)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == ",".join(RESULTS_HEADER)


def test_parallel_sweep_matches_serial():
    cfg = config_from_dict(SMALL)
    rows_serial = sweep(cfg, "attackers", workers=1)
    rows_parallel = sweep(cfg, "attackers", workers=2)
    assert rows_serial == rows_parallel


def test_sweep_refuses_an_unknown_axis():
    with pytest.raises(ConfigError, match="^sweep axis must be one of 'attackers' or 'period',"
                                          " got 'seeds'$"):
        sweep(config_from_dict(SMALL), "seeds")


def test_pool_starts_at_most_one_process_per_point(monkeypatch):
    import concurrent.futures

    pools = []

    class SerialPool:
        """Records the pool size it was asked for and maps in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness, "run_point", lambda point: point[0])
    points = [(i,) for i in range(4)]
    assert harness._run_points(points, 500) == [0, 1, 2, 3]
    assert harness._run_points(points, 3) == [0, 1, 2, 3]
    assert harness._run_points(points[:1], 500) == [0]  # one point runs here, no pool
    assert pools == [4, 3]


def test_detection_csv_writer(tmp_path):
    path = tmp_path / "det.csv"
    write_detections_csv(str(path), [(1, 3, "111", "attacker", "block")])
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(DETECTIONS_HEADER)
    assert lines[1] == "1,3,111,attacker,block"
