"""Calibration and experiment sweeps over the single-run simulator.

The congestion-bit monitor's thresholds, in a config's mlda section, come
from an attack-free calibration run when unset: each is 1.5x the per-node
per-interval mean of the matching counter, with a floor of 3 on the
retransmission threshold so sparse noise cannot trip it.  Sweeps vary
either the attacker count or the attack period: each point is one config,
the swept value's with a defense, a seed and the thresholds, and each
emits one CSV row read from that config and its run.
"""

import csv
from dataclasses import replace

from .config import DEFENSE_MLDA, DEFENSE_NONE, DEFENSE_SHREW, ConfigError
from .kernel import to_us
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
    """Same network with the attack disabled and no defense active."""
    return replace(config, defense=DEFENSE_NONE, attack=replace(config.attack, period_s=0.0))


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
    legit = set(cfg.legit_nodes())
    samples = [counters for index, node, counters in run_simulation(cfg).interval_records
               if index >= first and node in legit]
    n = float(len(samples))
    return replace(
        cfg.mlda,
        rc_th=CALIBRATION_MARGIN * (sum(c.rts_cts for c in samples) / n),
        se_th_s=CALIBRATION_MARGIN * (sum(c.busy_stop_us for c in samples) / 1e6 / n),
        re_th=max(RETRANS_FLOOR, CALIBRATION_MARGIN * (sum(c.retrans for c in samples) / n)),
    )


def resolve_thresholds(config):
    """The config itself if its mlda thresholds are set, else a copy calibrated."""
    if config.mlda.rc_th is not None:
        return config
    return replace(config, mlda=calibrate_thresholds(attack_free(config)))


# sweep axis -> (its list in the sweep section, the attack field it sets)
_AXES = {
    "attackers": ("attacker_counts", "count"),
    "period": ("periods_s", "period_s"),
}


def run_point(point):
    """One sweep point, (axis, value, config); module-level so process pools can pickle it."""
    axis, value, cfg = point
    result = run_simulation(cfg)
    return (
        axis,
        value,
        cfg.defense,
        cfg.seed,
        round(result.legit_bw_bps, 3),
        result.legit.dropped_pkts,
        round(result.legit.loss_ratio, 6),
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
    Each swept value is put into the config and checked once, before the
    calibration run, so an unknown axis, an empty sweep list or a bad sweep
    item fails at once and is named.  Each point is then one config: the
    value's config with a defense, a seed and the calibrated thresholds.
    """
    if axis not in _AXES:
        raise ConfigError("sweep axis must be one of %s, got %r"
                          % (" or ".join(map(repr, _AXES)), axis))
    config.validate()
    key, attr = _AXES[axis]
    for name in (key, "seeds"):
        if not getattr(config.sweep, name):
            raise ConfigError("sweep.%s is empty, so the sweep has no points" % name)
    swept = []
    for i, value in enumerate(getattr(config.sweep, key)):
        cfg = replace(config, attack=replace(config.attack, **{attr: value}))
        try:
            swept.append((value, cfg.validate()))
        except ConfigError as exc:
            raise ConfigError("sweep.%s[%d]: %s" % (key, i, exc)) from None
    mlda = resolve_thresholds(config).mlda
    rows = _run_points([(axis, value, replace(cfg, defense=defense, seed=seed, mlda=mlda))
                        for value, cfg in swept
                        for defense in (DEFENSE_MLDA, DEFENSE_SHREW)
                        for seed in config.sweep.seeds], workers)
    rows.sort(key=lambda r: (float(r[1]), r[2], r[3]))
    return rows


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_results_csv(path, rows):
    _write_csv(path, RESULTS_HEADER, rows)


def write_detections_csv(path, rows):
    _write_csv(path, DETECTIONS_HEADER, rows)
