"""Run the benchmark over several seeds per workload and summarise it.

    python3 perfbench/report.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--seconds S] [--out results.json]

Runs ``perfbench/run.py`` once per (workload, seed), one after another, from
the current directory (the root of a checkout).  For each workload and
metric it prints the median over seeds, the quartiles, and the spread (the
distance between the quartiles as a share of the median), next to the
metric's bound from BENCHMARK.json, and the share of failed jobs.  Failed or
incorrect runs are listed.  With --out it also writes every run's result
(with the Python and numpy versions and the load average around it), the
load average around the whole set and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """Median, quartiles, and the quartile distance over the median."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "exit": proc.returncode,
                "error": proc.stderr.strip()[-800:]}
    details = next((json.loads(line[len("details "):]) for line in lines
                    if line.startswith("details ")), {})
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, exit=0,
                  environment=details.get("environment"), versions=details.get("versions"))
    return result


def main(argv=None):
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs, summary, bad = [], {}, []
    environment = {"nproc": len(os.sched_getaffinity(0)), "loadavg_before": os.getloadavg()}
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            r = run_once(workload, seed, args.seconds, args.trace)
            runs.append(r)
            ok = r["exit"] == 0 and r["correct"]
            print("%-15s seed %-4d %s" % (workload, seed, "ok" if ok else "FAILED"), flush=True)
            if not ok:
                bad.append(r)
        good = [r for r in runs if r["workload"] == workload and r["exit"] == 0]
        if not good:
            continue
        attempted = sum(r["attempted"] for r in good)
        failed = sum(r["failed"] for r in good)
        summary[workload] = {"failed_ratio": failed / attempted}
        print("\n%s (%d runs, %d jobs, failed_ratio %g)"
              % (workload, len(good), attempted, failed / attempted))
        print("  %-34s %12s %12s %12s %8s %6s  unit" % ("metric", "median", "q1", "q3",
                                                        "spread", "bound"))
        for name, m in good[0]["metrics"].items():
            med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in good])
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                       "unit": m["unit"]}
            bound = bounds.get(name)
            print("  %-34s %12.6g %12.6g %12.6g %8.4f %6s  %s"
                  % (name, med, q1, q3, rel, "-" if bound is None else bound, m["unit"]))
        print(flush=True)
    for r in bad:
        print("FAILED %s seed %d: %s" % (r["workload"], r["seed"],
                                         r.get("error") or "correct=false"))
    environment["loadavg_after"] = os.getloadavg()
    print("environment: %s" % json.dumps(environment))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": environment, "runs": runs, "summary": summary}, fh,
                      indent=1, sort_keys=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
