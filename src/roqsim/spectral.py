"""Spectral traffic classifier: flags flows whose packet arrivals concentrate
energy at low frequencies (the signature of slow on-off pulsing).

The arrival series is binned counts over fixed-width bins.  The window is
mean-removed and transformed; the one-sided energy spectrum folds the
negative frequencies in, so the energies sum to N times the summed squares of
the (mean-removed) samples.

numpy is imported by the functions that compute a spectrum, not at module
load: recording arrivals needs none, and a run without the spectral defense
never analyses a spectrum.
"""

from dataclasses import dataclass

LEGIT = "legit"
ATTACK = "attack"


def power_spectrum(counts):
    """One-sided energy spectrum of a mean-removed series.

    Requires a power-of-two length (zero-pad shorter series before calling).
    Returns energies for bins 0..N/2; interior bins carry the folded
    negative-frequency energy so that sum(energy) == N * sum(x_centered**2).
    """
    import numpy as np

    x = np.asarray(counts, dtype=float)
    n = x.size
    if n < 2 or n & (n - 1):
        raise ValueError(
            "series length %d is not a power of two; zero-pad the series first" % n
        )
    x = x - x.mean()
    energy = np.abs(np.fft.rfft(x)) ** 2
    energy[1:-1] *= 2.0
    return energy


def spectrum_freqs(energy, bin_s):
    """Frequency (Hz) of each one-sided spectrum bin."""
    import numpy as np

    n = 2 * (energy.size - 1)
    return np.arange(energy.size) / (n * bin_s)


def low_freq_ratio(energy, cutoff_hz, bin_s):
    """Fraction of spectral energy at frequencies <= cutoff_hz.

    An all-zero spectrum yields 0.0.  The cutoff must lie in (0, Nyquist].
    """
    if bin_s <= 0:
        raise ValueError("bin width must be positive")
    nyquist = 1.0 / (2.0 * bin_s)
    if not (0.0 < cutoff_hz <= nyquist):
        raise ValueError(
            "cutoff %g Hz outside (0, %g] for bin width %g s" % (cutoff_hz, nyquist, bin_s)
        )
    import numpy as np

    energy = np.asarray(energy, dtype=float)
    total = energy.sum()
    if total == 0.0:
        return 0.0
    freqs = spectrum_freqs(energy, bin_s)
    return float(energy[freqs <= cutoff_hz].sum() / total)


def classify_flow(ratio, threshold):
    """Attack verdict only on strict excess of the ratio threshold."""
    return ATTACK if ratio > threshold else LEGIT


@dataclass
class SpectrumVerdict:
    flow: int
    ratio: float
    verdict: str
    energy: "numpy.ndarray"


class ArrivalRecorder:
    """Accumulates per-flow packet arrival counts into fixed-width bins."""

    def __init__(self, flow, bin_us, window_bins):
        self.flow = flow
        self.bin_us = bin_us
        self.window_bins = window_bins
        self.counts = [0.0] * window_bins

    def record(self, t_us):
        idx = t_us // self.bin_us
        if 0 <= idx < self.window_bins:
            self.counts[idx] += 1.0

    def analyze(self, cutoff_hz, threshold):
        bin_s = self.bin_us / 1_000_000.0
        energy = power_spectrum(self.counts)
        ratio = low_freq_ratio(energy, cutoff_hz, bin_s)
        return SpectrumVerdict(
            flow=self.flow,
            ratio=ratio,
            verdict=classify_flow(ratio, threshold),
            energy=energy,
        )


def write_spectra_csv(path, verdicts, bin_s):
    """Dump per-flow spectra: flow,bin,freq_hz,energy."""
    with open(path, "w") as fp:
        fp.write("flow,bin,freq_hz,energy\n")
        for v in verdicts:
            freqs = spectrum_freqs(v.energy, bin_s)
            for k in range(v.energy.size):
                fp.write("%d,%d,%.6f,%.9g\n" % (v.flow, k, freqs[k], v.energy[k]))
