"""Command-line entry points: run, sweep, calibrate."""

import argparse
import json
import sys

from . import harness, spectral
from .config import DEFENSE_MLDA, ConfigError, load_config
from .metrics import packet_loss
from .runner import SimulationRun


def _build_parser():
    p = argparse.ArgumentParser(prog="roqsim", description="WLAN pulse-attack simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a single simulation")
    run.add_argument("--config", required=True, help="JSON config file")
    run.add_argument("--trace", help="write an event trace to this path")
    run.add_argument("--dump-spectra", help="write per-flow arrival spectra CSV")
    run.add_argument("--detections", help="write the per-interval detection log CSV")

    sw = sub.add_parser("sweep", help="run an experiment sweep")
    sw.add_argument("axis", choices=("attackers", "period"))
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", required=True, help="results CSV path")
    sw.add_argument("--workers", type=int, default=1,
                    help="processes to run the points in, at most one per point")

    cal = sub.add_parser("calibrate", help="derive detection thresholds attack-free")
    cal.add_argument("--config", required=True)
    return p


def _cmd_run(args):
    cfg = load_config(args.config)
    if cfg.defense == DEFENSE_MLDA:
        cfg = harness.resolve_thresholds(cfg)
    trace_fh = open(args.trace, "w") if args.trace else None
    try:
        run = SimulationRun(cfg, trace=trace_fh)
        result = run.execute()
    finally:
        if trace_fh:
            trace_fh.close()
    loss_pkts, loss_ratio = packet_loss(result.legit)
    print("defense=%s seed=%d window_s=%g" % (cfg.defense, cfg.seed, result.window_s))
    print("legit_bw_bps=%.3f legit_loss_pkts=%d legit_loss_ratio=%.6f"
          % (result.legit_bw_bps, loss_pkts, loss_ratio))
    print("attack_bw_bps=%.3f blocked=%s false_blocks=%d"
          % (result.attack_bw_bps, sorted(result.blocked), result.false_blocks))
    if args.detections:
        harness.write_detections_csv(args.detections, result.detection_rows)
    if args.dump_spectra:
        verdicts = result.verdicts or run.analyze_spectra()
        spectral.write_spectra_csv(args.dump_spectra, verdicts, cfg.shrew.bin_s)
    return 0


def _cmd_sweep(args):
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1, got %d" % args.workers)
    cfg = load_config(args.config)
    rows = harness.sweep(cfg, args.axis, workers=args.workers)
    harness.write_results_csv(args.out, rows)
    print("wrote %d rows to %s" % (len(rows), args.out))
    return 0


def _cmd_calibrate(args):
    cfg = load_config(args.config)
    mlda = harness.calibrate_thresholds(cfg)
    # an mlda section a config can take as it is
    keys = ("interval_s", "rc_th", "re_th", "se_th_s")
    print(json.dumps({key: getattr(mlda, key) for key in keys}, sort_keys=True))
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_calibrate(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, AssertionError, OSError) as exc:
        print("run failed: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a defect: report it without a traceback
        print("run failed: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
