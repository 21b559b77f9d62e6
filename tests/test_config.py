"""Configuration loading, validation, and node layout."""

import contextlib
import io
import json
import re
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roqsim import cli
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
from roqsim.cli import main
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


# each case breaks one rule and names the message it expects; the other
# fields are set so that no earlier rule refuses first
_INVALID = [
    ({"duration_s": 0}, "duration_s must be positive, got 0"),
    ({"duration_s": 10.0, "warmup_s": 10.0}, "warmup_s must be in [0, duration_s)"),
    ({"warmup_s": -1.0}, "warmup_s must be >= 0, got -1.0"),
    ({"defense": "firewall"}, "defense must be one of ('none', 'mlda', 'shrew')"),
    ({"legit": {"count": 0}}, "legit.count must be >= 1, got 0"),
    ({"legit": {"app_rate_pps": -5}}, "legit.app_rate_pps must be >= 0, got -5"),
    ({"attack": {"count": -1}}, "attack.count must be >= 0, got -1"),
    ({"attack": {"period_s": -0.5}}, "attack.period_s must be >= 0, got -0.5"),
    ({"attack": {"period_s": 1.0, "burst_s": 1.0}},
     "attack.burst_s must be shorter than attack.period_s"),
    ({"attack": {"cw": 0}}, "attack.cw must be >= 1, got 0"),
    ({"mlda": {"interval_s": 0}}, "mlda.interval_s must be >= 1e-06, got 0"),
    ({"mlda": {"escalation": "sometimes"}}, "mlda.escalation must be 'streak' or 'absolute'"),
    ({"shrew": {"window_bins": 1000}}, "shrew.window_bins must be a power of two"),
    ({"shrew": {"window_bins": 2 * MAX_WINDOW_BINS}},
     "shrew.window_bins must be at most 65536, got 131072"),
    ({"shrew": {"bin_s": 0.0}}, "shrew.bin_s must be >= 1e-06, got 0.0"),
    # above Nyquist for 50 ms bins
    ({"shrew": {"cutoff_hz": 11.0}}, "shrew.cutoff_hz must be in (0, 10]"),
    ({"phy": {"cw_min": 64, "cw_max": 31}}, "phy.cw_max must be >= phy.cw_min"),
    ({"legit": {"count": MAX_STATIONS - 6}, "attack": {"count": 7}},
     "legit.count + attack.count must be at most 2007 (802.11 association IDs), got 2008"),
    # both round to 1,000,000 us: the measured window would be empty
    ({"duration_s": 1.0000002, "warmup_s": 1.0000001}, "warmup_s must be in [0, duration_s)"),
    ({"phy": {"sifs_us": 0}}, "phy.sifs_us must be positive, got 0"),
    ({"phy": {"difs_us": 0}}, "phy.difs_us must be positive, got 0"),
    ({"phy": {"rate_bps": 0}}, "phy.rate_bps must be positive, got 0"),
    ({"attack": {"burst_s": -1}}, "attack.burst_s must be >= 0, got -1"),
    ({"attack": {"rate_pps": -1}}, "attack.rate_pps must be >= 0, got -1"),
    ({"mlda": {"rc_th": 1.0, "se_th_s": -1, "re_th": 1.0}}, "mlda.se_th_s must be >= 0, got -1"),
    ({"mlda": {"rc_th": 1.0, "se_th_s": 1.0, "re_th": -1}}, "mlda.re_th must be >= 0, got -1"),
    # no 40 s interval ends in a 30 s run, so the defense would never grade one
    ({"duration_s": 30, "warmup_s": 5, "defense": "mlda",
      "mlda": {"interval_s": 40, "rc_th": 1, "se_th_s": 0.001, "re_th": 0}},
     "mlda.interval_s must be at most duration_s under defense 'mlda', got 40 > 30"),
    # the default window, 1024 bins of 50 ms, would not fill in a 30 s run
    ({"duration_s": 30, "warmup_s": 5, "defense": "shrew"},
     "shrew.bin_s * shrew.window_bins must be at most duration_s under defense 'shrew', "
     "got 51.2 > 30"),
    # a station's ACK is due SIFS after the DATA it answers: its own next RTS
    # must not start before that
    ({"phy": {"difs_us": 10, "sifs_us": 10}}, "phy.difs_us must be > phy.sifs_us, got 10 <= 10"),
    ({"phy": {"difs_us": 5, "sifs_us": 10}}, "phy.difs_us must be > phy.sifs_us, got 5 <= 10"),
]


@pytest.mark.parametrize("overrides, message", _INVALID,
                         ids=["overrides%d" % i for i in range(len(_INVALID))])
def test_invalid_configs_rejected(overrides, message):
    with pytest.raises(ConfigError) as info:
        config_from_dict(overrides)
    assert str(info.value).startswith(message)


def test_several_faults_name_the_first_field():
    # field by field in declaration order, each field's type before its bound
    with pytest.raises(ConfigError, match=r"^duration_s must be positive, got 0$"):
        config_from_dict({"duration_s": 0, "seed": "x", "phy": {"slot_us": 0}})


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "warmup_s", 0),
        ("phy", "cw_min", 1),
        ("phy", "difs_us", 11),  # one above the default sifs_us, 10
        ("phy", "retry_limit", 0),
        ("legit", "count", 1),
        ("legit", "packet_bits", 1),
        ("legit", "rwnd", 1),
        ("legit", "app_rate_pps", 0),
        ("attack", "count", 0),
        ("attack", "period_s", 0),
        ("attack", "burst_s", 0),
        ("attack", "rate_pps", 0),
        ("attack", "packet_bits", 1),
        ("attack", "jitter_s", 0),
        ("attack", "cw", 1),
        ("attack", "queue_cap", 1),
        ("mlda", "interval_s", 1e-6),
        ("mlda", "rc_th", 0),
        ("mlda", "se_th_s", 0),
        ("mlda", "re_th", 0),
        ("shrew", "bin_s", 1e-6),
    ],
)
def test_closed_lower_bound_is_allowed(section, key, value):
    # the thresholds are set all together or not at all; a run of 0.25 s is
    # short enough for 1 us monitoring intervals: 4 stations x 250,000 records
    data = {"duration_s": 0.25, "warmup_s": 0.0,
            "mlda": {"rc_th": 1.0, "se_th_s": 1.0, "re_th": 1.0}}
    (data.setdefault(section, {}) if section else data)[key] = value
    cfg = config_from_dict(data)
    assert getattr(getattr(cfg, section) if section else cfg, key) == value


def test_readme_defaults_match_the_code():
    # the JSONC block under README "Configuration", its // comments stripped
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Configuration\n.*?```jsonc\n(.*?)```", text, re.S).group(1)
    shown = json.loads(re.sub(r"//.*", "", block))
    assert shown == json.loads(json.dumps(asdict(RunConfig())))


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


def test_an_mlda_interval_may_span_the_whole_run():
    data = {"duration_s": 30, "warmup_s": 5, "defense": "mlda",
            "mlda": {"interval_s": 30, "rc_th": 1, "se_th_s": 0.001, "re_th": 0}}
    assert config_from_dict(data).mlda.interval_s == 30
    # under another defense nothing grades an interval, so a longer one is no fault
    for defense in ("none", "shrew"):
        config_from_dict(dict(data, defense=defense, mlda=dict(data["mlda"], interval_s=40),
                              shrew={"window_bins": 256}))  # a 12.8 s window: it decides


def test_a_shrew_window_may_span_the_whole_run():
    data = {"duration_s": 12.8, "warmup_s": 5, "defense": "shrew", "shrew": {"window_bins": 256}}
    assert config_from_dict(data).shrew.window_bins == 256
    # under another defense no verdict is due, so a longer window is no fault
    for defense in ("none", "mlda"):
        config_from_dict(dict(data, defense=defense, shrew={"window_bins": 512},
                              mlda={"rc_th": 1, "se_th_s": 0.001, "re_th": 0}))


def test_window_bins_cap_is_allowed():
    cfg = config_from_dict({"shrew": {"window_bins": MAX_WINDOW_BINS}})
    assert cfg.shrew.window_bins == MAX_WINDOW_BINS


def test_monitoring_intervals_of_a_whole_run_are_capped():
    # every run keeps one record per station per interval: 4 x 262,144 is 2**20
    data = {"duration_s": 262.144, "mlda": {"interval_s": 0.001}}
    assert config_from_dict(data).duration_s == 262.144
    message = ("mlda.interval_s: (legit.count + attack.count) * (duration_s // mlda.interval_s)"
               " must be at most 1048576 interval records, got %s")
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message % "4 * 262145")):
        config_from_dict(dict(data, duration_s=262.145))
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message % "5 * 262144")):
        config_from_dict(dict(data, legit={"count": 3}))


def test_arrival_bins_of_a_whole_run_are_capped(tmp_path, monkeypatch, capsys):
    # each cap alone is allowed, but 2007 flows of 65,536 bins would take a gigabyte
    data = {"legit": {"count": 2000}, "attack": {"count": 7},
            "shrew": {"window_bins": MAX_WINDOW_BINS}}
    message = ("(legit.count + attack.count) * shrew.window_bins must be at most 2097152, "
               "got 2007 * 65536")
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(data)

    def no_run(*args, **kwargs):
        raise AssertionError("a run was built from a config past the bin cap")

    monkeypatch.setattr(cli, "SimulationRun", no_run)
    path = tmp_path / "bins.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "config error: %s\n" % message


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
def test_any_json_value_in_any_field_is_refused_or_builds(tmp_path_factory, path, value):
    # from the defaults, thresholds set so that defense "mlda" builds too
    data = {"mlda": {"rc_th": 45.0, "se_th_s": 0.05, "re_th": 3.0}}
    section = data
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    try:
        cfg = config_from_dict(data)
    except ConfigError as exc:
        # the command line refuses the same file with exit 1 and the same message
        config_path = tmp_path_factory.getbasetemp() / "refused.json"
        config_path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["run", "--config", str(config_path)]) == 1
        assert err.getvalue() == "config error: %s\n" % exc
        return
    run = SimulationRun(cfg)
    assert run.sim.dispatched == 0 and run.sim.now_us == 0
