"""Spectral traffic classifier: flags flows whose packet arrivals concentrate
energy at low frequencies (the signature of slow on-off pulsing).

The arrival series is binned counts over fixed-width bins.  The window is
mean-removed and transformed; the one-sided energy spectrum folds the
negative frequencies in, so the energies sum to N times the summed squares of
the (mean-removed) samples.

The transform is a recursive radix-2 FFT over plain lists (Cooley and
Tukey, 1965), so the package needs nothing beyond the standard library.
"""

import cmath
import math
from dataclasses import dataclass

LEGIT = "legit"
ATTACK = "attack"


def _fft(x, w=None):
    """Discrete Fourier transform of a sequence whose length is a power of two.

    Decimation in time: the transforms of the even and the odd samples merge
    with the twiddles w[k] = exp(-2 pi i k / n).  Each half-length transform
    takes every other twiddle, so one table serves every level.
    """
    n = len(x)
    if n == 1:
        return [x[0]]
    if w is None:
        w = [cmath.exp(-2j * math.pi * k / n) for k in range(n // 2)]
    half = w[::2]
    even = _fft(x[0::2], half)
    odd = [t * v for t, v in zip(w, _fft(x[1::2], half))]
    return [e + o for e, o in zip(even, odd)] + [e - o for e, o in zip(even, odd)]


def power_spectrum(counts):
    """One-sided energy spectrum of a mean-removed series.

    Requires a power-of-two length (zero-pad shorter series before calling).
    Returns a list of energies for bins 0..N/2; interior bins carry the folded
    negative-frequency energy so that sum(energy) == N * sum(x_centered**2).
    """
    x = [float(v) for v in counts]
    n = len(x)
    if n < 2 or n & (n - 1):
        raise ValueError(
            "series length %d is not a power of two; zero-pad the series first" % n
        )
    mean = math.fsum(x) / n
    spectrum = _fft([v - mean for v in x])
    half = n // 2
    return [abs(c) ** 2 * (2.0 if 0 < k < half else 1.0)
            for k, c in enumerate(spectrum[:half + 1])]


def spectrum_freqs(energy, bin_s):
    """Frequency (Hz) of each one-sided spectrum bin."""
    n = 2 * (len(energy) - 1)
    return [k / (n * bin_s) for k in range(len(energy))]


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
    total = math.fsum(energy)
    if total == 0.0:
        return 0.0
    freqs = spectrum_freqs(energy, bin_s)
    return math.fsum(e for e, f in zip(energy, freqs) if f <= cutoff_hz) / total


def classify_flow(ratio, threshold):
    """Attack verdict only on strict excess of the ratio threshold."""
    return ATTACK if ratio > threshold else LEGIT


@dataclass
class SpectrumVerdict:
    flow: int
    ratio: float
    verdict: str
    energy: list


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
            for k in range(len(v.energy)):
                fp.write("%d,%d,%.6f,%.9g\n" % (v.flow, k, freqs[k], v.energy[k]))
