"""Deterministic discrete-event simulator of a small 802.11-style WLAN under
low-rate pulsed denial-of-quality attacks, with two defenses: congestion-bit
monitoring at the access point and spectral analysis of arrival patterns."""

from .config import RunConfig, config_from_dict, load_config
from .defense import compute_cb, classify_cb, monitor_interval
from .harness import calibrate_thresholds, sweep
from .runner import RunResult, SimulationRun, run_simulation

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "config_from_dict",
    "load_config",
    "compute_cb",
    "classify_cb",
    "monitor_interval",
    "calibrate_thresholds",
    "sweep",
    "RunResult",
    "SimulationRun",
    "run_simulation",
    "__version__",
]
