"""Builds one simulation from a RunConfig, runs it, and collects results.

Node layout: node 0 is the access point, which is also the passive monitor
and the enforcement point (blocked sources get no CTS and their DATA is
discarded).  As monitor it reads what the medium records of each node in an
interval: the RTS/CTS count (the node's own RTS plus the CTS sent to it) and
the c2/c3 congestion bits the node stamped into its RTS and DATA.  Legit
stations run the TCP-like flows toward the AP; attacker stations run pulsed
senders toward the AP.

Monitoring intervals are always scheduled so that an idle defense leaves the
event pattern of a run untouched; only the MLDA defense acts on the interval
counters.
"""

import gc
from dataclasses import dataclass, field

from . import defense as dfs
from . import spectral
from .config import DEFENSE_MLDA, DEFENSE_SHREW, RunConfig
from .kernel import Simulator, to_us
from .mac import Medium, PhyParams, Station
from .metrics import ClassStats, FlowStats, audit_conservation
from .traffic import PulsedSource, TcpSink, TcpSource


@dataclass
class RunResult:
    config: RunConfig
    window_s: float
    flows: dict
    legit: ClassStats
    attack: ClassStats
    blocked: set
    false_blocks: int
    detection_rows: list
    verdicts: list
    # (index, node, IntervalCounters) per monitored node per interval
    interval_records: list = field(default_factory=list)
    timeouts: int = 0

    @property
    def legit_bw_bps(self):
        return self.legit.goodput_bits / self.window_s

    @property
    def attack_bw_bps(self):
        return self.attack.goodput_bits / self.window_s


class SimulationRun:
    """One configured run; call execute() once."""

    def __init__(self, config, trace=None):
        config.validate()
        self.config = config
        self.sim = Simulator(seed=config.seed, trace=trace)
        self.medium = Medium(self.sim, PhyParams(config.phy))
        self.warmup_us = to_us(config.warmup_s)
        self.duration_us = to_us(config.duration_s)
        self.legit_nodes = config.legit_nodes()
        self.attacker_nodes = config.attacker_nodes()
        self.monitored = self.legit_nodes + self.attacker_nodes  # in node order
        self.blocklist = set()
        if config.defense == DEFENSE_MLDA and config.mlda.rc_th is None:
            raise ValueError(
                "defense 'mlda' needs thresholds; calibrate first or set them in config"
            )
        self.monitor = dfs.MonitorState(escalation=config.mlda.escalation)
        self.detection_rows = []
        self.interval_records = []
        self.verdicts = []
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        cfg = self.config
        sim = self.sim
        self.stats = {}
        self.stations = {}
        self.sinks = {}
        self.tcp_sources = {}
        self.pulsed_sources = {}
        self.recorders = {}

        ap = Station(self.medium, cfg.ap_node, sim.rng.fork(cfg.ap_node))
        ap.blocklist = self.blocklist
        ap.on_data_rx = self._ap_data_rx
        self.stations[cfg.ap_node] = ap  # its copies are TCP ACKs: overhead, not a flow

        for node in self.legit_nodes:
            st = Station(self.medium, node, sim.rng.fork(node))
            fs = self.stats[node] = FlowStats(False, self.warmup_us)
            src = self.tcp_sources[node] = TcpSource(st, cfg.ap_node, cfg.legit)
            st.on_enqueue = fs.on_sent
            st.on_copy_done = fs.on_copy_done
            st.on_data_rx = src.on_transport_ack  # only the AP sends it DATA
            self.stations[node] = st
            self.sinks[node] = TcpSink(ap, node)

        attack = cfg.attack
        active = cfg.attack_enabled()
        n_attack = len(self.attacker_nodes)
        for i, node in enumerate(self.attacker_nodes):
            st = Station(self.medium, node, sim.rng.fork(node), attack=attack)
            fs = self.stats[node] = FlowStats(True, self.warmup_us)
            st.on_enqueue = fs.on_sent
            st.on_copy_done = fs.on_copy_done
            self.stations[node] = st
            if active:
                phase_us = to_us(i * attack.period_s / n_attack) if attack.stagger else 0
                self.pulsed_sources[node] = PulsedSource(st, cfg.ap_node, attack, phase_us)

        # arrival spectra are recorded for every flow regardless of defense
        bin_us = to_us(cfg.shrew.bin_s)
        for node in self.monitored:
            self.recorders[node] = spectral.ArrivalRecorder(node, bin_us, cfg.shrew.window_bins)

        interval_us = to_us(cfg.mlda.interval_s)
        self._interval_us = interval_us
        sim.schedule(interval_us, "interval_rollover", self._on_interval)

        if cfg.defense == DEFENSE_SHREW:
            window_us = bin_us * cfg.shrew.window_bins
            if window_us <= self.duration_us:
                sim.schedule(window_us, "spectral_verdict", self._on_spectral_verdict)

    # -- callbacks ----------------------------------------------------------

    def _ap_data_rx(self, frame, now):
        # every DATA frame the AP hears comes from a monitored node; an
        # attacker has no sink, and each of its copies counts as goodput
        src = frame.src
        self.recorders[src].record(now)
        sink = self.sinks.get(src)
        if sink is None or sink.on_data(frame, now):
            self.stats[src].on_goodput(frame, now)

    # -- monitoring interval -------------------------------------------------

    def _on_interval(self):
        idx = self.sim.now_us // self._interval_us  # rollover k fires at k * interval
        mlda = self.config.mlda
        mlda_on = self.config.defense == DEFENSE_MLDA
        lying = mlda.lying_attacker
        bits = {}
        for node in self.monitored:
            st = self.stations[node]
            counters = st.rollover_counters()
            self.interval_records.append((idx, node, counters))
            if mlda_on:
                own = dfs.compute_cb(counters, mlda)
                # the AP heard the RTS/CTS itself and takes the other two bits as stamped
                bits[node] = dfs.CongestionBits(own.c1, counters.heard_c2, counters.heard_c3)
                # next interval every honest node stamps its own bits of this one
                st.stamp_cb = "000" if st.aggressive and lying else str(own)

        if mlda_on:
            for node, cb, status in dfs.monitor_interval(self.monitor, idx, bits):
                if status == dfs.BLOCKED:
                    self._block(node, "node=%d" % node)
                    action = "block"
                else:
                    action = "transmit_cb"
                self.detection_rows.append((idx, node, str(cb), status, action))

        nxt = self.sim.now_us + self._interval_us
        if nxt <= self.duration_us:
            self.sim.schedule(nxt, "interval_rollover", self._on_interval)

    def _on_spectral_verdict(self):
        self.verdicts = self.analyze_spectra()
        for v in self.verdicts:
            if v.verdict == spectral.ATTACK:
                self._block(v.flow, "node=%d ratio=%.4f" % (v.flow, v.ratio))

    def _block(self, node, detail):
        """Enforce a verdict: the AP refuses the node, which is deassociated."""
        self.blocklist.add(node)
        self.stations[node].disable()
        self.sim.trace_line("block", detail)

    # -- execution ----------------------------------------------------------

    def execute(self):
        for node in self.legit_nodes:
            self.tcp_sources[node].start()
        for source in self.pulsed_sources.values():  # in attacker order
            source.start()
        self.sim.run_until(self.duration_us)
        return self._collect()

    def analyze_spectra(self):
        """Spectra of the recorded first window (any defense, no blocking)."""
        shrew = self.config.shrew
        return [self.recorders[node].analyze(shrew.cutoff_hz, shrew.ratio_threshold)
                for node in self.monitored]

    def _collect(self):
        legit = ClassStats()
        attack = ClassStats()
        leftover = {}
        for node, fs in sorted(self.stats.items()):
            (attack if fs.is_attack else legit).add(fs)
            queue = self.stations[node].queue
            leftover[node] = (len(queue), sum(frame.payload_bits for frame in queue))
        audit_conservation(self.stats, leftover)

        false_blocks = len(self.blocklist & set(self.legit_nodes))
        return RunResult(
            config=self.config,
            window_s=self.config.duration_s - self.config.warmup_s,
            flows=self.stats,
            legit=legit,
            attack=attack,
            blocked=set(self.blocklist),
            false_blocks=false_blocks,
            detection_rows=self.detection_rows,
            verdicts=self.verdicts,
            interval_records=self.interval_records,
            timeouts=sum(src.timeouts for src in self.tcp_sources.values()),
        )


def run_simulation(config, trace=None):
    """Run one simulation and free it before returning its result.

    A run's objects hold each other in reference cycles (stations and the
    medium, station hooks and their TCP sources, the kernel's buckets of event
    handles and the bound methods they call), which reference counting cannot
    free.  Python's full collection comes round only after many more
    allocations, so a process running one simulation after another would keep
    several finished runs; collecting here frees each one before the caller
    builds the next.
    """
    result = SimulationRun(config, trace=trace).execute()
    gc.collect()
    return result
