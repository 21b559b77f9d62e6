"""Run configuration: typed dataclasses with JSON load and validation."""

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Optional

DEFENSE_NONE = "none"
DEFENSE_MLDA = "mlda"
DEFENSE_SHREW = "shrew"
DEFENSES = (DEFENSE_NONE, DEFENSE_MLDA, DEFENSE_SHREW)

# packet spacing is whole microseconds: a faster source would put every
# arrival at one instant and the run would never advance
MAX_RATE_PPS = 1_000_000


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class PhySection:
    slot_us: int = 20
    sifs_us: int = 10
    difs_us: int = 50
    rate_bps: int = 2_000_000
    cw_min: int = 31
    cw_max: int = 1023
    retry_limit: int = 7
    queue_lifetime_s: float = 0.5


@dataclass
class LegitSection:
    count: int = 2
    packet_bits: int = 8000
    rwnd: int = 32
    app_rate_pps: int = 15  # 0 = greedy bulk transfer


@dataclass
class AttackSection:
    count: int = 2
    period_s: float = 1.2
    burst_s: float = 0.3
    rate_pps: int = 400
    packet_bits: int = 8000
    jitter_s: float = 0.0
    stagger: bool = False  # True spreads burst phases evenly over the period
    cw: int = 7  # greedy contention window, never doubled
    queue_cap: int = 400


@dataclass
class MldaSection:
    interval_s: float = 1.0
    escalation: str = "streak"  # or "absolute"
    lying_attacker: bool = False
    # thresholds; None means calibrate from an attack-free run first
    rc_th: Optional[float] = None
    se_th_s: Optional[float] = None
    re_th: Optional[float] = None


@dataclass
class ShrewSection:
    bin_s: float = 0.05
    window_bins: int = 1024
    cutoff_hz: float = 5.0
    ratio_threshold: float = 0.7


@dataclass
class SweepSection:
    attacker_counts: tuple = (2, 4, 6, 8)
    periods_s: tuple = (0.0, 5.0, 10.0, 15.0, 20.0)
    seeds: tuple = (1, 2, 3, 4, 5)


@dataclass
class RunConfig:
    duration_s: float = 100.0
    seed: int = 1
    defense: str = DEFENSE_NONE
    warmup_s: float = 10.0
    phy: PhySection = field(default_factory=PhySection)
    legit: LegitSection = field(default_factory=LegitSection)
    attack: AttackSection = field(default_factory=AttackSection)
    mlda: MldaSection = field(default_factory=MldaSection)
    shrew: ShrewSection = field(default_factory=ShrewSection)
    sweep: SweepSection = field(default_factory=SweepSection)

    def validate(self):
        _check_finite("duration_s", self.duration_s)
        _check_finite("warmup_s", self.warmup_s)
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if self.warmup_s < 0 or self.warmup_s >= self.duration_s:
            raise ConfigError("warmup_s must be in [0, duration_s)")
        if self.defense not in DEFENSES:
            raise ConfigError("defense must be one of %s" % (DEFENSES,))
        if self.legit.count < 1:
            raise ConfigError("need at least one legitimate flow")
        _check_rate("legit.app_rate_pps", self.legit.app_rate_pps)
        if self.legit.app_rate_pps < 0:
            raise ConfigError("legit.app_rate_pps must be >= 0 (0 = greedy)")
        if self.attack.count < 0:
            raise ConfigError("attack.count must be >= 0")
        _check_rate("attack.rate_pps", self.attack.rate_pps)
        if self.attack.period_s < 0:
            raise ConfigError("attack.period_s must be >= 0 (0 disables the attack)")
        if self.attack.period_s > 0 and self.attack.burst_s >= self.attack.period_s:
            raise ConfigError("attack.burst_s must be shorter than attack.period_s")
        if self.attack.cw < 1:
            raise ConfigError("attack.cw must be >= 1")
        if self.mlda.interval_s <= 0:
            raise ConfigError("mlda.interval_s must be positive")
        if self.mlda.escalation not in ("streak", "absolute"):
            raise ConfigError("mlda.escalation must be 'streak' or 'absolute'")
        n = self.shrew.window_bins
        if n < 2 or n & (n - 1):
            raise ConfigError("shrew.window_bins must be a power of two")
        if self.shrew.bin_s <= 0:
            raise ConfigError("shrew.bin_s must be positive")
        nyq = 1.0 / (2.0 * self.shrew.bin_s)
        if not (0 < self.shrew.cutoff_hz <= nyq):
            raise ConfigError("shrew.cutoff_hz must be in (0, %g]" % nyq)
        return self

    def attack_enabled(self):
        return self.attack.count > 0 and self.attack.period_s > 0 and self.attack.burst_s > 0

    # node layout: access point is node 0, legit stations follow, then attackers
    @property
    def ap_node(self):
        return 0

    def legit_nodes(self):
        return list(range(1, 1 + self.legit.count))

    def attacker_nodes(self):
        first = 1 + self.legit.count
        return list(range(first, first + self.attack.count))

    def to_dict(self):
        return asdict(self)

    def replace(self, **kw):
        """Deep copy with top-level field overrides."""
        other = config_from_dict(self.to_dict())
        for k, v in kw.items():
            if not hasattr(other, k):
                raise ConfigError("unknown config field %r" % k)
            setattr(other, k, v)
        return other.validate()


def _check_finite(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError("%s must be a finite number, got %r" % (name, value))


def _check_rate(name, value):
    # an integer rate keeps packet spacings, and so every event time, integral
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError("%s must be an integer, got %r" % (name, value))
    if value > MAX_RATE_PPS:
        raise ConfigError("%s must be at most %d (one packet per microsecond)"
                          % (name, MAX_RATE_PPS))


_SECTIONS = {
    "phy": PhySection,
    "legit": LegitSection,
    "attack": AttackSection,
    "mlda": MldaSection,
    "shrew": ShrewSection,
    "sweep": SweepSection,
}


def _build_section(cls, data, where):
    if not isinstance(data, dict):
        raise ConfigError("section %r must be an object" % where)
    fields = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError("unknown keys in %r: %s" % (where, sorted(unknown)))
    kw = dict(data)
    for key in ("attacker_counts", "periods_s", "seeds"):
        if key in kw and isinstance(kw[key], list):
            kw[key] = tuple(kw[key])
    return cls(**kw)


def config_from_dict(data):
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    kw = {}
    for key, value in data.items():
        if key in _SECTIONS:
            kw[key] = _build_section(_SECTIONS[key], value, key)
        elif key in RunConfig.__dataclass_fields__:
            kw[key] = value
        else:
            raise ConfigError("unknown config key %r" % key)
    return RunConfig(**kw).validate()


def load_config(path):
    try:
        with open(path) as fp:
            data = json.load(fp)
    except FileNotFoundError:
        raise ConfigError("config file not found: %s" % path)
    except json.JSONDecodeError as e:
        raise ConfigError("config is not valid JSON: %s" % e)
    return config_from_dict(data)
