"""Spectrum math checked against a direct DFT, numpy's FFT and synthetic traffic shapes."""

import cmath
import math
import random

import numpy as np
import pytest

from roqsim.config import ShrewSection
from roqsim.spectral import (
    ATTACK,
    LEGIT,
    ArrivalRecorder,
    _fft,
    classify_flow,
    low_freq_ratio,
    power_spectrum,
    spectrum_freqs,
    write_spectra_csv,
)


def direct_one_sided_energy(x):
    """O(N^2) folded energy spectrum of the mean-removed series."""
    n = len(x)
    mean = sum(x) / n
    xc = [v - mean for v in x]
    out = []
    for k in range(n // 2 + 1):
        s = sum(xc[j] * cmath.exp(-2j * math.pi * k * j / n) for j in range(n))
        e = abs(s) ** 2
        if 0 < k < n // 2:
            e *= 2.0
        out.append(e)
    return out


def test_matches_direct_dft():
    rng = random.Random(7)
    for n in (8, 16, 64):
        x = [rng.uniform(0, 10) for _ in range(n)]
        fast = power_spectrum(x)
        slow = direct_one_sided_energy(x)
        for a, b in zip(fast, slow):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def numpy_one_sided_energy(x):
    """The same folded spectrum from numpy's FFT: a reference the package does not use."""
    x = np.asarray(x, dtype=float)
    energy = np.abs(np.fft.rfft(x - x.mean())) ** 2
    energy[1:-1] *= 2.0
    return energy


@pytest.mark.parametrize("n", [2**p for p in range(1, 13)])
def test_matches_numpy_fft(n):
    rng = random.Random(n)
    for _ in range(5):
        x = [rng.uniform(0, 10) for _ in range(n)]
        ref = numpy_one_sided_energy(x)
        energy = power_spectrum(x)
        assert len(energy) == len(ref) == n // 2 + 1
        # rounding error scales with the spectrum's largest bin, not with each bin
        assert np.max(np.abs(np.asarray(energy) - ref)) <= 1e-12 * ref.max()


def iterative_fft(x):
    """Radix-2 FFT with an explicit bit-reversal pass and a loop over stages.

    The package's recursive transform must match it to the bit: both take the
    same twiddles from one table and round the same products and sums, so the
    spectra and their %.9g prints are pinned exactly, not only to numpy's
    tolerance.
    """
    n = len(x)
    order = [0]
    while len(order) < n:
        order = [2 * i for i in order] + [2 * i + 1 for i in order]
    a = [x[i] for i in order]
    w = [cmath.exp(-2j * math.pi * k / n) for k in range(n // 2)]
    size = 1
    while size < n:
        twiddles = w[::n // (2 * size)]
        merged = []
        for start in range(0, n, 2 * size):
            even = a[start:start + size]
            odd = [t * v for t, v in zip(twiddles, a[start + size:start + 2 * size])]
            merged += [e + o for e, o in zip(even, odd)]
            merged += [e - o for e, o in zip(even, odd)]
        a = merged
        size *= 2
    return a


@pytest.mark.parametrize("n", [2, 4, 8, 64, 1024, 2**16])
def test_fft_equals_the_iterative_transform_exactly(n):
    rng = random.Random(n)
    x = [rng.uniform(-5, 10) for _ in range(n)]
    assert _fft(x) == iterative_fft(x)
    counts = [float(rng.randrange(30)) for _ in range(n)]
    mean = math.fsum(counts) / n
    centered = [v - mean for v in counts]  # power_spectrum's input
    assert _fft(centered) == iterative_fft(centered)


def test_spectra_print_as_numpy_does():
    # write_spectra_csv prints energies at %.9g; integer arrival counts make the
    # mean-removed series exact, so even the DC bin agrees to the last digit
    gen = np.random.default_rng(12)
    series = [gen.poisson(rate, 1024).astype(float) for rate in (0.2, 0.75, 3.0, 20.0)
              for _ in range(5)]
    series += [[30.0 if (i % period) < 5 else 0.0 for i in range(1024)]
               for period in (8, 20, 24, 32, 64)]
    for x in series:
        ours = ["%.9g" % e for e in power_spectrum(x)]
        assert ours == ["%.9g" % e for e in numpy_one_sided_energy(x)]


def test_energy_totals_match_series():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.choice((16, 64, 256, 1024))
        x = [rng.uniform(0, 20) for _ in range(n)]
        energy = power_spectrum(x)
        xc = np.asarray(x) - np.mean(x)
        assert sum(energy) == pytest.approx(n * float(np.sum(xc**2)), rel=1e-9)


def test_rejects_non_power_of_two():
    for n in (0, 1, 3, 100, 1000):
        with pytest.raises(ValueError):
            power_spectrum([1.0] * n)


def test_mean_removal_kills_dc_bin():
    energy = power_spectrum([5.0] * 64)
    assert energy[0] == 0.0
    assert sum(energy) == 0.0


def test_pure_tone_lands_in_its_bin():
    n = 256
    for k in (3, 17, 60):
        x = [math.cos(2 * math.pi * k * j / n) for j in range(n)]
        energy = power_spectrum(x)
        assert energy[k] / sum(energy) > 0.999


def test_spectrum_freqs_span_to_nyquist():
    energy = power_spectrum([0.0, 1.0] * 32)
    freqs = spectrum_freqs(energy, bin_s=0.05)
    assert freqs[0] == 0.0
    assert freqs[-1] == pytest.approx(10.0)  # 1 / (2 * 0.05)
    assert freqs[1] == pytest.approx(1.0 / (64 * 0.05))


def test_low_freq_ratio_scale_invariant():
    rng = random.Random(11)
    x = [rng.uniform(0, 5) for _ in range(128)]
    r1 = low_freq_ratio(power_spectrum(x), 2.0, 0.05)
    r2 = low_freq_ratio(power_spectrum([v * 40.0 for v in x]), 2.0, 0.05)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_low_freq_ratio_validation_and_zero_series():
    energy = power_spectrum([1.0] * 16)  # all energy removed with the mean
    assert low_freq_ratio(energy, 5.0, 0.05) == 0.0
    with pytest.raises(ValueError):
        low_freq_ratio(energy, 0.0, 0.05)
    with pytest.raises(ValueError):
        low_freq_ratio(energy, 11.0, 0.05)  # above the 10 Hz Nyquist
    with pytest.raises(ValueError):
        low_freq_ratio(energy, 5.0, 0.0)


def test_verdict_needs_strict_excess():
    assert classify_flow(0.7, threshold=0.7) == LEGIT
    assert classify_flow(0.700001, threshold=0.7) == ATTACK
    assert classify_flow(0.0, threshold=0.7) == LEGIT


def test_slow_pulsing_separates_from_steady_traffic():
    # 1 s on-off pulses in 50 ms bins vs noisy and evenly spaced arrivals
    n = 1024
    pulsed = [20.0 if (i % 20) < 6 else 0.0 for i in range(n)]
    noisy = np.random.default_rng(5).poisson(0.75, n).astype(float)
    paced = np.zeros(n)
    t = 66_666  # one arrival every 1/15 s
    while t < n * 50_000:
        paced[t // 50_000] += 1
        t += 66_666
    r_pulsed = low_freq_ratio(power_spectrum(pulsed), 5.0, 0.05)
    r_noisy = low_freq_ratio(power_spectrum(noisy), 5.0, 0.05)
    r_paced = low_freq_ratio(power_spectrum(paced), 5.0, 0.05)
    assert r_pulsed > 0.7
    assert r_noisy < 0.7
    assert r_paced < 0.7
    threshold = ShrewSection().ratio_threshold
    assert classify_flow(r_pulsed, threshold) == ATTACK
    assert classify_flow(r_noisy, threshold) == LEGIT


def test_recorder_bins_and_window():
    rec = ArrivalRecorder(flow=3, bin_us=50_000, window_bins=16)
    rec.record(0)
    rec.record(49_999)
    rec.record(50_000)
    rec.record(799_999)  # last bin
    rec.record(800_000)  # past the window: ignored
    assert rec.counts[0] == 2.0
    assert rec.counts[1] == 1.0
    assert rec.counts[15] == 1.0
    assert sum(rec.counts) == 4.0


def test_recorder_analyze_produces_verdict():
    rec = ArrivalRecorder(flow=9, bin_us=50_000, window_bins=64)
    for i in range(64):
        if (i % 20) < 6:
            rec.counts[i] = 20.0
    v = rec.analyze(cutoff_hz=5.0, threshold=0.7)
    assert v.flow == 9
    assert v.verdict == ATTACK
    assert v.ratio > 0.7


def test_write_spectra_csv(tmp_path):
    rec = ArrivalRecorder(flow=2, bin_us=50_000, window_bins=16)
    rec.counts[3] = 4.0
    v = rec.analyze(cutoff_hz=5.0, threshold=0.7)
    out = tmp_path / "spectra.csv"
    write_spectra_csv(str(out), [v], bin_s=0.05)
    lines = out.read_text().splitlines()
    assert lines[0] == "flow,bin,freq_hz,energy"
    assert len(lines) == 1 + 9  # 16/2 + 1 one-sided bins
    assert lines[1].startswith("2,0,0.000000,")
