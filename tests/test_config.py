"""Configuration loading, validation, and node layout."""

import json
from dataclasses import asdict, fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roqsim.config import (
    DEFENSE_MLDA,
    DEFENSE_NONE,
    MAX_STATIONS,
    MAX_WINDOW_BINS,
    ConfigError,
    PhySection,
    RunConfig,
    config_from_dict,
    load_config,
)
from roqsim.mac import PhyParams
from roqsim.runner import SimulationRun


def test_defaults_validate():
    cfg = RunConfig()
    assert cfg.validate() is cfg
    assert cfg.defense == DEFENSE_NONE


def test_dict_round_trip():
    cfg = RunConfig()
    clone = config_from_dict(asdict(cfg))
    assert asdict(clone) == asdict(cfg)


def test_every_phy_field_reaches_the_mac():
    # each knob off its default and unlike every other, so a field the MAC
    # misses, reads from the defaults or swaps with another shows
    section = PhySection(**{f.name: f.default + i + 1
                            for i, f in enumerate(fields(PhySection))})
    phy = PhyParams(section)
    for f in fields(PhySection):
        assert getattr(phy, f.name) == getattr(section, f.name), f.name


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


@pytest.mark.parametrize(
    "data, field",
    [
        pytest.param({"seed": [0] * 10**6}, "seed must be an integer, got [0, 0, ",
                     id="seed-long-list"),
        pytest.param({"sweep": {"seeds": {str(i): i for i in range(10**5)}}},
                     "sweep.seeds must be a list, got {", id="sweep-seeds-large-dict"),
    ],
)
def test_wrong_typed_value_gives_a_short_message(data, field):
    # the message shows the start of the value, not all of it
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert str(info.value).startswith(field)
    assert len(str(info.value)) < 200


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


def _paths(cls, prefix=()):
    """The key path of every config field, each section itself included."""
    for f in fields(cls):
        path = prefix + (f.name,)
        yield path
        if is_dataclass(f.type):
            yield from _paths(f.type, path)


_NUMBERS = st.one_of(
    st.integers(-10**30, 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e300, 1.7e308),
)
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), _NUMBERS, st.text(max_size=4), st.lists(_NUMBERS, max_size=3)
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(path=st.sampled_from(list(_paths(RunConfig))), value=_JSON_VALUES)
def test_any_json_value_in_any_field_is_refused_or_builds(path, value):
    # from the defaults, thresholds set so that defense "mlda" builds too
    data = {"mlda": {"rc_th": 45.0, "se_th_s": 0.05, "re_th": 3.0}}
    section = data
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    run = SimulationRun(cfg)
    assert run.sim.dispatched == 0 and run.sim.now_us == 0
