"""Power spectral density estimation and band metrics."""

from __future__ import annotations

import numpy as np
from scipy import signal


def welch_psd(series: np.ndarray, rate: float, segment_length: int | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Averaged Hann-windowed periodogram with half-overlapping segments.

    Density scaling keeps the estimate Parseval-consistent: integrating
    the returned power over frequency recovers the signal variance.
    """
    series = np.asarray(series, dtype=float)
    if segment_length is None:
        segment_length = min(len(series), 4096)
    if segment_length > len(series) or segment_length < 8:
        raise ValueError("invalid segment length for series")
    return signal.welch(series, fs=rate, window="hann", nperseg=segment_length,
                        noverlap=segment_length // 2, detrend="constant",
                        scaling="density")


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
