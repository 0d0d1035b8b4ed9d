"""Power spectral density estimation and band metrics."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def welch_psd(series: np.ndarray, rate: float, segment_length: int | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Averaged Hann-windowed periodogram with half-overlapping segments.

    Each segment has its mean removed and a periodic Hann window applied;
    a trailing part shorter than the step is dropped. Density scaling
    keeps the estimate Parseval-consistent: integrating the returned
    one-sided power over frequency recovers the signal variance.
    """
    if not 0.0 < rate < np.inf:
        raise ValueError(f"rate: must be positive and finite, got {rate:g}")
    series = np.asarray(series, dtype=float)
    n = min(len(series), 4096) if segment_length is None else segment_length
    if n > len(series) or n < 8:
        raise ValueError("invalid segment length for series")
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    segments = sliding_window_view(series, n)[::n - n // 2]
    spectra = np.fft.rfft(
        window * (segments - segments.mean(axis=1, keepdims=True)))
    power = (spectra.real ** 2 + spectra.imag ** 2) * (
        1.0 / (rate * (window @ window)))
    # One-sided: DC and, for even n, the Nyquist bin have no negative twin.
    power[:, 1:(n + 1) // 2] *= 2.0
    return np.fft.rfftfreq(n, 1.0 / rate), power.mean(axis=0)


def band_power(freqs: np.ndarray, power: np.ndarray, f_low: float,
               f_high: float) -> float:
    """Integrated PSD over [f_low, f_high] via the trapezoid rule."""
    mask = (freqs >= f_low) & (freqs <= f_high)
    if mask.sum() < 2:
        raise ValueError("band contains fewer than two frequency bins")
    return float(np.trapezoid(power[mask], freqs[mask]))


def loglog_slope(freqs: np.ndarray, power: np.ndarray, f_low: float,
                 f_high: float) -> float:
    """Least-squares slope of log10(power) vs log10(freq) over a band."""
    mask = (freqs >= f_low) & (freqs <= f_high) & (power > 0.0) & (freqs > 0.0)
    if mask.sum() < 4:
        raise ValueError("too few bins in band for a slope fit")
    return float(np.polyfit(np.log10(freqs[mask]), np.log10(power[mask]), 1)[0])
