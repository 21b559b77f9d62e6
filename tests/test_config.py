"""Configuration loading, validation, and node layout."""

import json
from dataclasses import asdict

import pytest

from roqsim.config import (
    DEFENSE_MLDA,
    DEFENSE_NONE,
    MAX_STATIONS,
    MAX_WINDOW_BINS,
    ConfigError,
    RunConfig,
    config_from_dict,
    load_config,
)


def test_defaults_validate():
    cfg = RunConfig()
    assert cfg.validate() is cfg
    assert cfg.defense == DEFENSE_NONE


def test_dict_round_trip():
    cfg = RunConfig()
    clone = config_from_dict(asdict(cfg))
    assert asdict(clone) == asdict(cfg)


def test_node_layout():
    cfg = config_from_dict({"legit": {"count": 3}, "attack": {"count": 2}})
    assert cfg.ap_node == 0
    assert cfg.legit_nodes() == [1, 2, 3]
    assert cfg.attacker_nodes() == [4, 5]


def test_attack_enabled_logic():
    assert RunConfig().attack_enabled()
    assert not config_from_dict({"attack": {"count": 0}}).attack_enabled()
    assert not config_from_dict({"attack": {"period_s": 0.0}}).attack_enabled()
    assert not config_from_dict({"attack": {"burst_s": 0.0}}).attack_enabled()
    assert not config_from_dict({"attack": {"rate_pps": 0}}).attack_enabled()
    # the sources count in whole microseconds: this burst rounds to none
    assert not config_from_dict({"attack": {"burst_s": 4e-7}}).attack_enabled()


@pytest.mark.parametrize(
    "overrides",
    [
        {"duration_s": 0},
        {"duration_s": 10.0, "warmup_s": 10.0},
        {"warmup_s": -1.0},
        {"defense": "firewall"},
        {"legit": {"count": 0}},
        {"legit": {"app_rate_pps": -5}},
        {"attack": {"count": -1}},
        {"attack": {"period_s": -0.5}},
        {"attack": {"period_s": 1.0, "burst_s": 1.0}},
        {"attack": {"cw": 0}},
        {"mlda": {"interval_s": 0}},
        {"mlda": {"escalation": "sometimes"}},
        {"shrew": {"window_bins": 1000}},
        {"shrew": {"window_bins": 2 * MAX_WINDOW_BINS}},
        {"shrew": {"bin_s": 0.0}},
        {"shrew": {"cutoff_hz": 11.0}},  # above Nyquist for 50 ms bins
        {"phy": {"cw_min": 64, "cw_max": 31}},
        {"legit": {"count": MAX_STATIONS - 6}, "attack": {"count": 7}},
        # both round to 1,000,000 us: the measured window would be empty
        {"duration_s": 1.0000002, "warmup_s": 1.0000001},
    ],
)
def test_invalid_configs_rejected(overrides):
    with pytest.raises(ConfigError):
        config_from_dict(overrides)


def test_window_bins_cap_is_allowed():
    cfg = config_from_dict({"shrew": {"window_bins": MAX_WINDOW_BINS}})
    assert cfg.shrew.window_bins == MAX_WINDOW_BINS


def test_station_cap_is_allowed():
    cfg = config_from_dict({"legit": {"count": MAX_STATIONS - 7}, "attack": {"count": 7}})
    assert len(cfg.legit_nodes() + cfg.attacker_nodes()) == MAX_STATIONS == 2007


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"speed": 9})
    with pytest.raises(ConfigError):
        config_from_dict({"attack": {"bursts": 3}})
    with pytest.raises(ConfigError):
        config_from_dict({"attack": [1, 2]})


def test_sweep_lists_become_tuples():
    cfg = config_from_dict({"sweep": {"attacker_counts": [1, 3], "seeds": [7]}})
    assert cfg.sweep.attacker_counts == (1, 3)
    assert cfg.sweep.seeds == (7,)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 5, "defense": "mlda",
                                "attack": {"count": 4}}))
    cfg = load_config(str(path))
    assert cfg.seed == 5
    assert cfg.defense == DEFENSE_MLDA
    assert cfg.attack.count == 4


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
