"""Run configuration: typed dataclasses with JSON load and validation."""

import json
import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional, Union, get_args, get_origin

from .kernel import US_PER_S, to_us

DEFENSE_NONE = "none"
DEFENSE_MLDA = "mlda"
DEFENSE_SHREW = "shrew"
DEFENSES = (DEFENSE_NONE, DEFENSE_MLDA, DEFENSE_SHREW)

# how repeated mlda findings escalate to a block
STREAK = "streak"
ABSOLUTE = "absolute"

# packet spacing is whole microseconds: a faster source would put every
# arrival at one instant and the run would never advance
MAX_RATE_PPS = 1_000_000

# the clock's step; a shorter interval or bin would round to zero microseconds
MIN_STEP_S = 1e-6

# one cell: an access point associates at most 2007 stations (802.11
# association IDs 1-2007), and every station gets its own state and ledger
MAX_STATIONS = 2007

# every run gives every flow a list of window_bins arrival counts up front,
# whatever the defense: 2**16 bins (55 minutes at 50 ms bins) is 512 KiB per
# flow, while an unbounded window could ask for gigabytes before the first event
MAX_WINDOW_BINS = 1 << 16

# and the cap on all flows together: 2**21 bins are 16 MiB of list slots, while
# 2007 flows of 2**16 bins each would take a gigabyte
MAX_RUN_BINS = 1 << 21

# every run keeps one record per station per monitoring interval, about 150
# bytes each: 2**20 records are some 160 MB, while 1 us intervals over the
# default 100 s would ask for 60 GB
MAX_RUN_INTERVALS = 1 << 20


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# a field's own lower bound, checked right after its type (_check_types)
def _positive(default):
    return field(default=default, metadata={"ok": lambda v: v > 0, "rule": "must be positive"})


def _at_least(low, default):
    return field(default=default, metadata={"ok": lambda v: v >= low,
                                            "rule": "must be >= %g" % low})


@dataclass
class PhySection:
    slot_us: int = _positive(20)
    sifs_us: int = _positive(10)
    difs_us: int = _positive(50)
    rate_bps: int = _positive(2_000_000)
    cw_min: int = _at_least(1, 31)
    cw_max: int = 1023
    retry_limit: int = _at_least(0, 7)
    queue_lifetime_s: float = _positive(0.5)


@dataclass
class LegitSection:
    count: int = _at_least(1, 2)
    packet_bits: int = _at_least(1, 8000)
    rwnd: int = _at_least(1, 32)
    app_rate_pps: int = _at_least(0, 15)  # 0 = greedy bulk transfer


@dataclass
class AttackSection:
    count: int = _at_least(0, 2)
    period_s: float = _at_least(0, 1.2)  # 0 disables the attack
    burst_s: float = _at_least(0, 0.3)
    rate_pps: int = _at_least(0, 400)
    packet_bits: int = _at_least(1, 8000)
    jitter_s: float = _at_least(0, 0.0)
    stagger: bool = False  # True spreads burst phases evenly over the period
    cw: int = _at_least(1, 7)  # greedy contention window, never doubled
    queue_cap: int = _at_least(1, 400)


@dataclass
class MldaSection:
    interval_s: float = _at_least(MIN_STEP_S, 1.0)
    escalation: str = STREAK
    lying_attacker: bool = False
    # per-interval thresholds, a bit set only on strict excess; set all
    # three or none, None meaning calibrate from an attack-free run first
    rc_th: Optional[float] = _at_least(0, None)  # RTS/CTS frames
    se_th_s: Optional[float] = _at_least(0, None)  # seconds of frozen backoff
    re_th: Optional[float] = _at_least(0, None)  # retransmissions


@dataclass
class ShrewSection:
    bin_s: float = _at_least(MIN_STEP_S, 0.05)
    window_bins: int = 1024
    cutoff_hz: float = 5.0
    ratio_threshold: float = 0.7


@dataclass
class SweepSection:
    attacker_counts: tuple[int, ...] = (2, 4, 6, 8)
    periods_s: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)


@dataclass
class RunConfig:
    duration_s: float = _positive(100.0)
    seed: int = 1
    defense: str = DEFENSE_NONE
    warmup_s: float = _at_least(0, 10.0)
    phy: PhySection = field(default_factory=PhySection)
    legit: LegitSection = field(default_factory=LegitSection)
    attack: AttackSection = field(default_factory=AttackSection)
    mlda: MldaSection = field(default_factory=MldaSection)
    shrew: ShrewSection = field(default_factory=ShrewSection)
    sweep: SweepSection = field(default_factory=SweepSection)

    def validate(self):
        _check_types(self)
        stations = self.legit.count + self.attack.count
        if stations > MAX_STATIONS:
            raise ConfigError("legit.count + attack.count must be at most %d (802.11 "
                              "association IDs), got %d" % (MAX_STATIONS, stations))
        for name, rate in (("legit.app_rate_pps", self.legit.app_rate_pps),
                           ("attack.rate_pps", self.attack.rate_pps)):
            if rate > MAX_RATE_PPS:
                raise ConfigError("%s must be at most %d (one packet per microsecond)"
                                  % (name, MAX_RATE_PPS))
        # in whole microseconds, as the run counts them: a window that
        # rounds to nothing would measure nothing
        if to_us(self.warmup_s) >= to_us(self.duration_s):
            raise ConfigError("warmup_s must be in [0, duration_s)")
        if self.defense not in DEFENSES:
            raise ConfigError("defense must be one of %s" % (DEFENSES,))
        if self.phy.cw_max < self.phy.cw_min:
            raise ConfigError("phy.cw_max must be >= phy.cw_min")
        attack = self.attack
        if attack.period_s > 0 and attack.burst_s >= attack.period_s:
            raise ConfigError("attack.burst_s must be shorter than attack.period_s")
        # a burst jittered late must end before the next one jittered early
        # starts, or the source skips the arrivals that overlap
        if attack.period_s > 0 and (2 * to_us(attack.jitter_s)
                                    > to_us(attack.period_s) - to_us(attack.burst_s)):
            raise ConfigError("attack.jitter_s must be at most (attack.period_s - "
                              "attack.burst_s) / 2, got %r" % attack.jitter_s)
        # every period starts with an arrival: a shorter period than the
        # packet spacing would outrun attack.rate_pps
        if attack.period_s > 0 and attack.rate_pps > 0 and (
                to_us(attack.period_s) < 1_000_000 // attack.rate_pps):
            raise ConfigError("attack.period_s must be at least the packet spacing of "
                              "attack.rate_pps, got %r" % attack.period_s)
        if self.mlda.escalation not in (STREAK, ABSOLUTE):
            raise ConfigError("mlda.escalation must be %r or %r" % (STREAK, ABSOLUTE))
        unset = ["mlda." + key for key in ("rc_th", "se_th_s", "re_th")
                 if getattr(self.mlda, key) is None]
        if 0 < len(unset) < 3:
            raise ConfigError("%s must be set: the mlda thresholds are set all together "
                              "or not at all" % " and ".join(unset))
        intervals = to_us(self.duration_s) // to_us(self.mlda.interval_s)
        if stations * intervals > MAX_RUN_INTERVALS:
            raise ConfigError("mlda.interval_s: (legit.count + attack.count) * (duration_s // "
                              "mlda.interval_s) must be at most %d interval records, got %d * %d"
                              % (MAX_RUN_INTERVALS, stations, intervals))
        n = self.shrew.window_bins
        if n < 2 or n & (n - 1):
            raise ConfigError("shrew.window_bins must be a power of two")
        if n > MAX_WINDOW_BINS:
            raise ConfigError("shrew.window_bins must be at most %d, got %d"
                              % (MAX_WINDOW_BINS, n))
        if stations * n > MAX_RUN_BINS:
            raise ConfigError("(legit.count + attack.count) * shrew.window_bins must be at "
                              "most %d, got %d * %d" % (MAX_RUN_BINS, stations, n))
        nyq = 1.0 / (2.0 * self.shrew.bin_s)
        if not (0 < self.shrew.cutoff_hz <= nyq):
            raise ConfigError("shrew.cutoff_hz must be in (0, %g]" % nyq)
        # every low-frequency ratio lies in [0, 1]: outside [0, 1) the
        # threshold gives every flow the same verdict
        if not (0 <= self.shrew.ratio_threshold < 1):
            raise ConfigError("shrew.ratio_threshold must be in [0, 1), got %r"
                              % self.shrew.ratio_threshold)
        return self

    def attack_enabled(self):
        """Whether attackers offer any traffic: the one test of an active attack.

        Period and burst count in whole microseconds, as the sources use them.
        """
        attack = self.attack
        return (attack.count > 0 and attack.rate_pps > 0
                and to_us(attack.period_s) > 0 and to_us(attack.burst_s) > 0)

    # node layout: access point is node 0, legit stations follow, then attackers
    @property
    def ap_node(self):
        return 0

    def legit_nodes(self):
        return list(range(1, 1 + self.legit.count))

    def attacker_nodes(self):
        first = 1 + self.legit.count
        return list(range(first, first + self.attack.count))


# JSON true is not a count, NaN passes every range check, and integer rates
# and sizes keep packet spacings, and so every event time, integral
_KINDS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    # an integer of any size is finite; math.isfinite would convert it to a float
    float: ("a finite number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
            and (isinstance(v, numbers.Integral) or math.isfinite(v))),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _check_value(name, kind, value, seconds):
    text, ok = _KINDS[kind]
    if not ok(value):
        raise ConfigError("%s must be %s, got %s" % (name, text, reprlib.repr(value)))
    # a span counts in whole microseconds (kernel.to_us), and a float holds
    # at most sys.float_info.max of them
    if seconds and not abs(value) * US_PER_S <= sys.float_info.max:
        raise ConfigError("%s must be at most %g s in magnitude, got %s"
                          % (name, sys.float_info.max / US_PER_S, reprlib.repr(value)))


def _check_types(obj, prefix=""):
    """Check every field against its annotated type, sections recursively.

    A field named *_s is a span in seconds and must also fit in microseconds.
    A field declared with a lower bound is checked against it right after its
    type, so the value compares cleanly; an unset (None) value has no bound.
    """
    for f in fields(obj):
        name = prefix + f.name
        value = getattr(obj, f.name)
        seconds = f.name.endswith("_s")
        if is_dataclass(f.type):
            if not isinstance(value, f.type):
                raise ConfigError("section %r must be an object" % name)
            _check_types(value, name + ".")
        elif get_origin(f.type) is tuple:
            if not isinstance(value, (list, tuple)):
                raise ConfigError("%s must be a list, got %s" % (name, reprlib.repr(value)))
            for i, item in enumerate(value):
                _check_value("%s[%d]" % (name, i), get_args(f.type)[0], item, seconds)
        elif get_origin(f.type) is Union:  # Optional[float]: None means unset
            if value is not None:
                _check_value(name, get_args(f.type)[0], value, seconds)
        else:
            _check_value(name, f.type, value, seconds)
        if "ok" in f.metadata and value is not None and not f.metadata["ok"](value):
            raise ConfigError("%s %s, got %r" % (name, f.metadata["rule"], value))


def _build(cls, data, where):
    """Build a config dataclass from parsed JSON, sections recursively.

    Each field's annotation says what it takes: a dataclass-typed field is a
    section object, a tuple-typed field turns a JSON list into a tuple.
    """
    if not isinstance(data, dict):
        raise ConfigError("%s must be an object" % where)
    kinds = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(kinds)
    if unknown:
        raise ConfigError("unknown keys in %s: %s" % (where, sorted(unknown)))
    kw = {}
    for key, value in data.items():
        kind = kinds[key]
        if is_dataclass(kind):
            value = _build(kind, value, "section %r" % key)
        elif get_origin(kind) is tuple and isinstance(value, list):
            value = tuple(value)
        kw[key] = value
    return cls(**kw)


def config_from_dict(data):
    return _build(RunConfig, data, "config root").validate()


def load_config(path):
    try:
        with open(path) as fp:
            data = json.load(fp)
    except FileNotFoundError:
        raise ConfigError("config file not found: %s" % path) from None
    except (OSError, ValueError, RecursionError) as e:
        # a directory or an unreadable file, bytes that are not UTF-8, text
        # that is not JSON, nesting deeper than the parser allows
        raise ConfigError("cannot read config file %s as JSON: %s" % (path, e)) from None
    return config_from_dict(data)
