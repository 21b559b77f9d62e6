"""Calibration and experiment sweeps over the single-run simulator.

The congestion-bit monitor's thresholds, in a config's mlda section, come
from an attack-free calibration run when unset: each is 1.5x the per-node
per-interval mean of the matching counter, with a floor of 3 on the
retransmission threshold so sparse noise cannot trip it.  Sweeps vary
either the attacker count or the attack period, run every (value, defense,
seed) point, and emit one CSV row per point.
"""

import csv
from dataclasses import replace

from .config import DEFENSE_MLDA, DEFENSE_NONE, DEFENSE_SHREW, ConfigError
from .kernel import to_us
from .metrics import packet_loss
from .runner import run_simulation

RESULTS_HEADER = (
    "axis",
    "value",
    "defense",
    "seed",
    "legit_bw_bps",
    "legit_loss_pkts",
    "legit_loss_ratio",
    "attack_bw_bps",
    "blocked_nodes",
    "false_blocks",
)

DETECTIONS_HEADER = ("interval", "node", "cb", "status", "action")

CALIBRATION_MARGIN = 1.5
RETRANS_FLOOR = 3.0


def attack_free(config):
    """Same network with the attack disabled and no defense active.

    A config that already is attack-free comes back as it is, not copied.
    """
    if config.defense == DEFENSE_NONE and not config.attack_enabled():
        return config
    return replace(config, defense=DEFENSE_NONE, attack=replace(config.attack, period_s=0.0))


def thresholds_from_samples(mlda, rc_samples, se_samples_s, re_samples):
    """An mlda section with thresholds folded from per-node per-interval samples."""
    if not rc_samples:
        raise ValueError("no calibration samples")
    n = float(len(rc_samples))
    rc_th = CALIBRATION_MARGIN * (sum(rc_samples) / n)
    se_th_s = CALIBRATION_MARGIN * (sum(se_samples_s) / n)
    re_th = max(RETRANS_FLOOR, CALIBRATION_MARGIN * (sum(re_samples) / n))
    return replace(mlda, rc_th=rc_th, se_th_s=se_th_s, re_th=re_th)


def calibrate_thresholds(config):
    """The config's mlda section with thresholds from attack-free counter means.

    A config with an active attack is a ConfigError: thresholds learned under
    attack would bake the anomaly into the baseline.  So is a config whose
    first monitoring interval after warm-up ends past duration_s.  Both are
    raised before the calibration run.
    """
    if config.attack_enabled():
        attack = config.attack
        raise ConfigError(
            "attack.count %d, attack.period_s %g and attack.burst_s %g at attack.rate_pps %d"
            " make an active attack; calibration needs an attack-free config, so set one of"
            " the four to 0" % (attack.count, attack.period_s, attack.burst_s, attack.rate_pps)
        )
    cfg = attack_free(config)
    # the intervals sampled are those that start at or after warm-up;
    # interval i covers ((i - 1) * interval, i * interval]
    interval_us = to_us(cfg.mlda.interval_s)
    first = -(-to_us(cfg.warmup_s) // interval_us) + 1
    if first * interval_us > to_us(cfg.duration_s):
        raise ConfigError(
            "mlda.interval_s: no interval of %g s starts at or after warmup_s %g and ends by"
            " duration_s %g, so calibration has nothing to sample"
            % (cfg.mlda.interval_s, cfg.warmup_s, cfg.duration_s)
        )
    result = run_simulation(cfg)
    legit = set(cfg.legit_nodes())
    rc, se, re = [], [], []
    for rec in result.interval_records:
        if rec.index < first or rec.node not in legit:
            continue
        rc.append(rec.server_rts_cts)
        se.append(rec.busy_stop_us / 1e6)
        re.append(rec.retrans)
    return thresholds_from_samples(cfg.mlda, rc, se, re)


def resolve_thresholds(config):
    """The config itself if its mlda thresholds are set, else a copy calibrated."""
    if config.mlda.rc_th is not None:
        return config
    return replace(config, mlda=calibrate_thresholds(attack_free(config)))


# sweep axis -> (its list in the sweep section, the attack field it sets, that field's type)
_AXES = {
    "attackers": ("attacker_counts", "count", int),
    "period": ("periods_s", "period_s", float),
}


def _point_config(config, axis, value, defense, seed):
    _, name, kind = _AXES[axis]
    attack = replace(config.attack, **{name: kind(value)})
    return replace(config, defense=defense, seed=seed, attack=attack)


def run_point(args):
    """One sweep point; module-level so process pools can pickle it."""
    axis, value, defense, seed, cfg = args
    result = run_simulation(cfg)
    loss_pkts, loss_ratio = packet_loss(result.legit)
    return (
        axis,
        value,
        defense,
        seed,
        round(result.legit_bw_bps, 3),
        loss_pkts,
        round(loss_ratio, 6),
        round(result.attack_bw_bps, 3),
        len(result.blocked),
        result.false_blocks,
    )


def _run_points(points, workers):
    """Run the points serially, or in a pool of at most one process per point."""
    workers = min(workers, len(points))
    if workers > 1:
        # the pool's modules load only in a process that starts one
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_point, points))
    return [run_point(p) for p in points]


def sweep(config, axis, workers=1):
    """Run every (value, defense, seed) point of one sweep axis.

    axis "attackers" varies the number of attackers at a fixed attack
    period; axis "period" varies the attack period, where 0 means no attack.
    Every point's config is checked before the calibration run, so an
    unknown axis, an empty sweep list or a bad sweep item fails at once and
    is named.
    """
    if axis not in _AXES:
        raise ConfigError("sweep axis must be one of %s, got %r"
                          % (" or ".join(map(repr, _AXES)), axis))
    config.validate()
    key = _AXES[axis][0]
    for name in (key, "seeds"):
        if not getattr(config.sweep, name):
            raise ConfigError("sweep.%s is empty, so the sweep has no points" % name)
    points = [(i, value, defense, seed)
              for i, value in enumerate(getattr(config.sweep, key))
              for defense in (DEFENSE_MLDA, DEFENSE_SHREW)
              for seed in config.sweep.seeds]
    for i, value, defense, seed in points:
        try:
            _point_config(config, axis, value, defense, seed).validate()
        except ConfigError as exc:
            raise ConfigError("sweep.%s[%d]: %s" % (key, i, exc)) from None
    config = resolve_thresholds(config)
    rows = _run_points([(axis, value, defense, seed,
                         _point_config(config, axis, value, defense, seed))
                        for _, value, defense, seed in points], workers)
    rows.sort(key=lambda r: (float(r[1]), r[2], r[3]))
    return rows


def write_results_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RESULTS_HEADER)
        for r in rows:
            w.writerow(r)


def write_detections_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DETECTIONS_HEADER)
        for r in rows:
            w.writerow(r)
