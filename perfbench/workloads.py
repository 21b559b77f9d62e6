"""The benchmark's workloads: the config each one hands the simulator, the
command line it runs, and the results digest pinned at the default seed.

Every workload is driven through the public CLI, one process per job.  The
bench seed becomes the config's ``seed`` (and, for the sweep, its only sweep
seed); nothing else about the inputs depends on it.

BENCHMARK.json lists defended-sweep and traced-run, which between them load
every roqsim module, trace writing included.  saturated-cell and quiet-cell
stay runnable by name (``run.py --workload saturated-cell``, ``report.py
--workloads ...``): on the 2-vCPU host the benchmark was tuned on, runs of
55 s keep run-to-run spreads well under the bounds, and four workloads at
that length do not fit the time one benchmark set may take.
"""

import hashlib
import os
import re
from dataclasses import dataclass, field

DEFAULT_SEED = 1

RUN_LINES = re.compile(
    r"defense=\w+ seed=-?\d+ window_s=\S+\n"
    r"legit_bw_bps=\S+ legit_loss_pkts=\d+ legit_loss_ratio=\S+\n"
    r"attack_bw_bps=\S+ blocked=\[[\d, ]*\] false_blocks=\d+\n\Z"
)
SWEEP_LINE = re.compile(r"wrote (\d+) rows to .+\n\Z")
CSV_HEADER = (
    b"axis,value,defense,seed,legit_bw_bps,legit_loss_pkts,legit_loss_ratio,"
    b"attack_bw_bps,blocked_nodes,false_blocks\r\n"
)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "run" or "sweep"
    overrides: dict  # config keys on top of the defaults; "seed" is added per run
    traced: bool = False  # pass --trace <file> to `roqsim run`
    sweep_rows: int = 0
    pinned: dict = field(default_factory=dict)  # digests at DEFAULT_SEED

    def config(self, seed):
        cfg = {"seed": seed}
        for key, value in self.overrides.items():
            cfg[key] = dict(value) if isinstance(value, dict) else value
        if self.command == "sweep":
            cfg["sweep"] = dict(cfg.get("sweep", {}), seeds=[seed])
        return cfg

    def cli_args(self, config_path, workdir, trace=True):
        """Arguments for `python -m roqsim.cli`; outputs go under workdir."""
        if self.command == "sweep":
            return ["sweep", "attackers", "--config", config_path,
                    "--out", os.path.join(workdir, "results.csv"), "--workers", "1"]
        args = ["run", "--config", config_path]
        if self.traced and trace:
            args += ["--trace", os.path.join(workdir, "trace.tsv")]
        return args

    def check(self, stdout, workdir):
        """Digest of what the user reads, or raise ValueError if malformed."""
        text = stdout.decode()
        if self.command == "sweep":
            m = SWEEP_LINE.match(text)
            if not m or int(m.group(1)) != self.sweep_rows:
                raise ValueError("unexpected sweep output %r" % text[:200])
            path = os.path.join(workdir, "results.csv")
            with open(path, "rb") as fh:
                lines = fh.read().splitlines(keepends=True)
            if lines[:1] != [CSV_HEADER] or len(lines) != 1 + self.sweep_rows:
                raise ValueError("results CSV has the wrong header or row count")
            return {"csv": sha256_file(path)}
        if not RUN_LINES.match(text):
            raise ValueError("unexpected run output %r" % text[:300])
        digest = {"stdout": hashlib.sha256(stdout).hexdigest()}
        if self.traced:
            digest["trace"] = sha256_file(os.path.join(workdir, "trace.tsv"))
        return digest


# Why each workload exists: see the `why` strings (also in BENCHMARK.json).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="saturated-cell",
            why="run, 8 attackers, no defense, 100 s: 11 stations where per-station "
                "contention timers dominate the events; a medium-level access engine "
                "must gain here",
            command="run",
            overrides={"defense": "none", "duration_s": 100.0, "attack": {"count": 8}},
            pinned={"stdout": "a62928db059e382a15bc3f6d77ad9551b020605aa46fd570e5ebab5e326f5e26"},
        ),
        Workload(
            name="quiet-cell",
            why="run, attack-free, 2 paced TCP stations, 500 s: the same MAC and kernel "
                "with few contenders, the control that a fix for many stations must not slow",
            command="run",
            overrides={"defense": "none", "duration_s": 500.0, "attack": {"count": 0}},
            pinned={"stdout": "2d60cc6e72a6384de31262c647b1cfe46b0c73f60b01af9fbd976b031dd7bac1"},
        ),
        Workload(
            name="defended-sweep",
            why="sweep attackers {2,4} x {mlda,shrew}, serial: the only load on "
                "calibration, MLDA blocking, spectral verdicts, config round-trips and "
                "the CSV writer",
            command="sweep",
            overrides={"sweep": {"attacker_counts": [2, 4]}},
            sweep_rows=4,
            pinned={"csv": "c19c0c946e2b6a84c6d1682d55125735b4a9d0949970d4578a927b9b78615404"},
        ),
        Workload(
            name="traced-run",
            why="run, default config (2 attackers, no defense, 100 s) with --trace to a "
                "file: the only load on trace writing, which cheaper traces must speed up",
            command="run",
            overrides={},
            traced=True,
            pinned={
                "stdout": "760e17b5ef5f079f63bc293176b47232ff9fff0ad587366ee0c3d9f4b7595c96",
                "trace": "f0ab492f7dc7a0eb1d57389e12b69082200248828ca4083b6658efd894f0607e",
            },
        ),
    )
}
