"""Seeded turbulent wind synthesis emulating the four active-grid modes.

Each mode targets a centerline turbulence intensity and a characteristic
spectrum: a -5/3 inertial decay at high frequency, with the two active
protocols (lidar, gusts) injecting extra energy in the 0.1-10 Hz band.
Series are reproducible bit-for-bit from (mode, mean, duration, rate, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

MAX_SAMPLES = 10_000_000  # about 14 h at 200 Hz


class GridMode(Enum):
    """Active-grid operating modes with their centerline TI targets (%)."""

    STATIC0 = ("static0", 2.5)
    STATIC45 = ("static45", 3.7)
    LIDAR = ("lidar", 8.8)
    GUSTS = ("gusts", 4.2)

    def __init__(self, label: str, ti_percent: float):
        self.label = label
        self.ti_percent = ti_percent

    @classmethod
    def from_label(cls, label: str) -> "GridMode":
        for mode in cls:
            if mode.label == label:
                return mode
        raise ValueError(f"unknown grid mode {label!r}")


@dataclass(frozen=True)
class WindSeries:
    """A hub-height wind speed time series at a fixed sampling rate."""

    samples: np.ndarray  # m/s
    rate: float  # Hz

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("wind series must be non-empty")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.rate

    def time(self) -> np.ndarray:
        return np.arange(len(self.samples)) / self.rate


# Spectral-shaping knobs. The injection band and its relative level are
# tuned only to meet the TI targets; the paper characterizes the flow by
# TI and PSD shape, not by an analytic spectrum.
_KNEE_HZ = 1.0
_INJECT_LOW_HZ = 0.1
_INJECT_HIGH_HZ = 10.0
_INJECT_GAIN = {GridMode.LIDAR: 40.0, GridMode.GUSTS: 12.0}

_GUST_WIDTH_S = 0.5
_GUST_SPACING_S = 50.0
_GUST_AMPLITUDE_FRAC = 0.5  # gust amplitude as a fraction of mean speed


def _shaped_fluctuation(n: int, rate: float, rng: np.random.Generator,
                        inject_gain: float = 0.0) -> np.ndarray:
    """Zero-mean fluctuation with a -5/3 PSD above the knee frequency.

    Random-phase inverse-spectrum synthesis: the target PSD is flat below
    the knee, decays as f^(-5/3) above it, and optionally carries a
    plateau boost across the 0.1-10 Hz injection band.
    """
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    psd = (_KNEE_HZ**2 + freqs**2) ** (-5.0 / 6.0)
    if inject_gain > 0.0:
        band = (freqs >= _INJECT_LOW_HZ) & (freqs <= _INJECT_HIGH_HZ)
        ref = (_KNEE_HZ**2 + _INJECT_HIGH_HZ**2) ** (-5.0 / 6.0)
        psd[band] += inject_gain * ref
    psd[0] = 0.0  # no DC in the fluctuation

    amplitude = np.sqrt(psd)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(freqs))
    spectrum = amplitude * np.exp(1j * phases)
    spectrum[0] = 0.0
    if n % 2 == 0:
        spectrum[-1] = amplitude[-1]  # Nyquist bin must be real
    return np.fft.irfft(spectrum, n=n)


def _rescale(fluct: np.ndarray, mean: float, target_ti_percent: float) -> np.ndarray:
    """Affinely rescale a fluctuation to hit the mean and TI exactly."""
    centered = fluct - fluct.mean()
    std = centered.std()
    if std == 0.0 and target_ti_percent > 0.0:
        raise ValueError("cannot rescale a constant fluctuation to nonzero TI")
    target_std = target_ti_percent / 100.0 * mean
    scaled = centered * (target_std / std) if std > 0.0 else centered
    return mean + scaled


def ricker(t: np.ndarray, width: float) -> np.ndarray:
    """Mexican-hat (Ricker) wavelet with unit peak and width parameter."""
    s = t / width
    return (1.0 - s**2) * np.exp(-0.5 * s**2)


def gust_train(duration: float, rate: float, mean: float, amplitude: float,
               gust_width: float, spacing: float, seed: int) -> WindSeries:
    """Mean-level series superposed with regularly spaced Ricker gusts.

    Gust arrival times get a small seeded jitter around the regular grid.
    """
    if duration <= 0.0 or rate <= 0.0:
        raise ValueError("duration and rate must be positive")
    if gust_width <= 0.0:
        raise ValueError("gust_width must be positive")
    if spacing <= gust_width:
        raise ValueError("spacing must exceed gust_width")

    n = int(round(duration * rate))
    t = np.arange(n) / rate
    rng = np.random.default_rng(seed)
    samples = np.full(n, float(mean))
    centers = np.arange(spacing / 2.0, duration, spacing)
    jitter = rng.uniform(-0.15, 0.15, size=len(centers)) * spacing
    for c in centers + jitter:
        samples += amplitude * ricker(t - c, gust_width)
    if np.any(samples <= 0.0):
        raise ValueError("gust amplitude drives wind speed non-positive")
    return WindSeries(samples=samples, rate=rate)


def generate(mode: GridMode, mean: float, duration: float, rate: float,
             seed: int) -> WindSeries:
    """Synthesize a seeded wind series for one grid mode.

    The realized mean and TI match the targets exactly (affine rescale);
    the spectrum carries the mode's low-frequency character and decays
    with the -5/3 law above the injection band.
    """
    if not 0.0 < duration < np.inf:
        raise ValueError("duration: must be positive and finite")
    if not 200.0 <= rate < np.inf:
        raise ValueError("rate: must be finite and at least 200 Hz")
    if not 0.0 < mean < np.inf:
        raise ValueError("mean: must be positive and finite")
    if seed < 0:
        raise ValueError("seed: must be non-negative")

    samples = duration * rate
    if samples > MAX_SAMPLES + 0.5:  # refused before anything is allocated
        raise ValueError(f"duration: {duration:g} s at {rate:g} Hz makes "
                         f"{samples:.0f} samples, more than {MAX_SAMPLES}")
    n = int(round(samples))
    if n < 2:
        raise ValueError(f"duration {duration:g} s holds fewer than two "
                         f"samples at {rate:g} Hz")
    mode_tag = list(GridMode).index(mode)
    rng = np.random.default_rng(np.random.SeedSequence([seed, mode_tag]))

    if mode is GridMode.GUSTS:
        # Sparse large gusts carry most of the variance; a weak turbulent
        # background fills in the rest before the exact TI rescale. The
        # gusts dominate max |deviation| despite the moderate TI.
        amplitude = _GUST_AMPLITUDE_FRAC * mean
        base = gust_train(duration, rate, mean, amplitude,
                          _GUST_WIDTH_S, _GUST_SPACING_S, seed)
        gust_fluct = base.samples - mean
        target_var = (mode.ti_percent / 100.0 * mean) ** 2
        resid_var = max(target_var - gust_fluct.var(), 0.05 * target_var)
        background = _shaped_fluctuation(n, rate, rng,
                                         inject_gain=_INJECT_GAIN[mode])
        background *= np.sqrt(resid_var) / background.std()
        fluct = gust_fluct + background
    else:
        fluct = _shaped_fluctuation(n, rate, rng,
                                    inject_gain=_INJECT_GAIN.get(mode, 0.0))

    samples = _rescale(fluct, mean, mode.ti_percent)
    if np.any(samples <= 0.0):
        raise ValueError("generated wind series has non-positive samples")
    return WindSeries(samples=samples, rate=rate)


def turbulence_intensity(series: WindSeries | np.ndarray) -> float:
    """TI in percent: 100 * population std / mean of the samples."""
    samples = series.samples if isinstance(series, WindSeries) else np.asarray(series)
    if samples.size == 0:
        raise ValueError("empty series")
    return 100.0 * samples.std() / samples.mean()
