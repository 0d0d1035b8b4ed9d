"""Experiment orchestration, metrics, persistence and scenario scripting.

A run wires a seeded wind series into the turbine surrogate under one of
four controllers, records all time series, and computes variance/PSD/duty
metrics over a window that excludes the identification phase. Baseline and
controlled runs may only be compared when their configs differ in nothing
but the controller, its tuning (`sprc`, `cipc`) and the excitation seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import windfield
from .cipc import CipcConfig, CipcController
from .codec import decode, encode
from .plant import (RPM_TO_RADS, TS_DEFAULT, TurbineParams, TurbineState,
                    close_loop, open_loop)
from .spectral import (SEGMENT_SAMPLES, band_power, loglog_slope,
                       welch_psd)
from .sprc_types import RotationTelemetry, SprcConfig
from .windfield import MAX_SAMPLES

SCHEMA_VERSION = 1
CONTROLLERS = ("none", "cipc", "sprc-1p", "sprc-1p2p")
SWEEP_MODES = ("static0", "static45", "lidar", "gusts")
SWEEP_SPEEDS = (4.0, 4.5, 5.0)
SWEPT_FIELDS = ("mode", "mean_wind", "controller")  # set per sweep cell


class SeedMismatchError(ValueError):
    """Raised when comparing runs whose configs differ in more than the
    controller, its tuning and the excitation seed."""


@dataclass(frozen=True)
class Seeds:
    wind: int = 0
    noise: int = 1
    excitation: int = 2

    def __post_init__(self):
        for name in ("wind", "noise", "excitation"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be non-negative")


@dataclass(frozen=True)
class ScenarioEvent:
    """Timed set-point change: kind is 'collective_pitch' or 'wind_mean'."""

    time_s: float
    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("collective_pitch", "wind_mean"):
            raise ValueError(f"kind: unknown event kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError("value: must be finite")
        if self.kind == "wind_mean" and not self.value > 0.0:
            raise ValueError("value: a wind_mean must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "static0"
    mean_wind: float = 5.0
    controller: str = "none"
    duration: float = 120.0
    collective_pitch_deg: float = 2.0
    eval_start_s: float = 30.0
    seeds: Seeds = field(default_factory=Seeds)
    events: tuple[ScenarioEvent, ...] = ()
    plant: TurbineParams = field(default_factory=TurbineParams)
    sprc: SprcConfig = field(default_factory=SprcConfig)
    cipc: CipcConfig = field(default_factory=CipcConfig)

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller: must be one of {CONTROLLERS}")
        if not 0.0 < self.duration < np.inf:
            raise ValueError("duration: must be positive and finite")
        samples = round(self.duration / self.plant.ts)
        if samples > MAX_SAMPLES:  # refused before a run allocates them
            # No plant.ts is coarser than TS_DEFAULT, so a run too long even
            # at that step is the duration's fault.
            culprit = ("duration" if round(self.duration / TS_DEFAULT)
                       > MAX_SAMPLES else "plant.ts")
            raise ValueError(f"{culprit}: a {self.duration:g} s run at "
                             f"plant.ts {self.plant.ts:g} s makes {samples} "
                             f"samples, more than {MAX_SAMPLES}")
        # The rotor never turns slower than its floor, so this bounds every
        # rotation, and with it the CIPC notch and the SPRC period.
        min_rpm = self.plant.rotor.min_rpm
        if 60.0 / (min_rpm * self.plant.ts) > MAX_SAMPLES:
            raise ValueError(f"plant.rotor.min_rpm: {min_rpm:g} rpm makes a "
                             f"rotation longer than {MAX_SAMPLES} samples")
        if not 0.0 < self.mean_wind < np.inf:
            raise ValueError("mean_wind: must be positive and finite")
        if not 0.0 <= self.eval_start_s < self.duration:
            raise ValueError("eval_start_s: must lie within the run")
        for i, event in enumerate(self.events):
            if not 0.0 <= event.time_s < self.duration:
                raise ValueError(f"events[{i}].time_s: must lie in "
                                 f"[0, duration)")
        windfield.GridMode.from_label(self.mode)
        if self.controller in ("sprc-1p", "sprc-1p2p"):
            # Refused here, by name, before a run synthesizes its wind.
            rotation = _rotation_samples(self)
            period = self.sprc.period(rotation)
            got = f"got {period} samples of a {rotation:.6g}-sample rotation"
            if period <= 8:
                raise ValueError(f"sprc.period_fraction: the basis needs a "
                                 f"period of more than 8 samples, {got}")
            if period <= self.sprc.past_window:
                raise ValueError(f"sprc.past_window: must be less than the "
                                 f"period, {got}")
            if period > samples:
                raise ValueError(f"duration: {self.duration:g} s makes "
                                 f"{samples} samples, fewer than the "
                                 f"controller period, {got}")

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **encode(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(decode(dict, data))  # a JSON object, else ValueError
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"schema_version: unsupported version {version}")
        return decode(cls, data)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class ExperimentRecord:
    config: ExperimentConfig
    time: np.ndarray
    pitch: np.ndarray  # commanded IPC pitch, N x 2 (deg)
    loads: np.ndarray  # N x 2 (N m)
    azimuth: np.ndarray
    omega: np.ndarray  # rad/s
    wind: np.ndarray
    rotations: list[RotationTelemetry]  # per SPRC rotation, else empty
    metrics: dict = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return 1.0 / self.config.plant.ts

    def eval_slice(self) -> slice:
        """Samples from the first k with time[k] >= eval_start_s on."""
        return slice(int(np.searchsorted(self.time, self.config.eval_start_s)),
                     None)


def _setpoints(config: ExperimentConfig,
               time: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample wind and collective pitch, with the scenario events.

    An event of either kind takes effect at the first sample k with
    time[k] >= time_s. Events apply in time order, and in listed order
    among equal times, so the later one wins.
    """
    mode = windfield.GridMode.from_label(config.mode)
    rate = 1.0 / config.plant.ts
    n = len(time)
    wind = windfield.generate(mode, config.mean_wind, config.duration, rate,
                              config.seeds.wind).samples[:n].copy()
    collective = np.full(n, config.collective_pitch_deg)
    for event in sorted(config.events, key=lambda e: e.time_s):
        k = int(np.searchsorted(time, event.time_s))
        if event.kind == "collective_pitch":
            collective[k:] = event.value
        else:
            wind[k:] = windfield.generate(mode, event.value, config.duration,
                                          rate, config.seeds.wind).samples[k:n]
    return wind, collective


class NullController:
    """The `none` controller: no IPC pitch and no telemetry."""

    def __init__(self):
        self.telemetry: list = []

    def step(self, loads, azimuth: float, omega: float) -> tuple[float, float]:
        return 0.0, 0.0


def _rotation_samples(config: ExperimentConfig) -> float:
    """Samples per revolution at the run's initial rotor speed."""
    state = TurbineState.initial(config.plant, config.mean_wind,
                                 config.collective_pitch_deg)
    return 2.0 * np.pi / state.omega / config.plant.ts


def _make_controller(config: ExperimentConfig):
    if config.controller == "none":
        return NullController()
    if config.controller == "cipc":
        return CipcController(config.cipc, ts=config.plant.ts)
    # Imported here, not at the top: `sprc` loads scipy.linalg, which no
    # other controller needs.
    from .sprc import SprcController
    harmonics = (1,) if config.controller == "sprc-1p" else (1, 2)
    return SprcController(config.sprc, _rotation_samples(config),
                          harmonics=harmonics, ts=config.plant.ts,
                          excitation_seed=config.seeds.excitation)


def run_experiment(config: ExperimentConfig) -> ExperimentRecord:
    """Run one deterministic experiment and compute its metrics.

    Everything the pitch command does not reach is computed first
    (`plant.open_loop`); `plant.close_loop` then runs the controller
    through the servo lag.
    """
    params = config.plant
    ts = params.ts
    n = int(round(config.duration / ts))
    time = np.arange(n) * ts
    wind, collective = _setpoints(config, time)

    state = TurbineState.initial(params, config.mean_wind,
                                 config.collective_pitch_deg)
    controller = _make_controller(config)
    rotor = open_loop(params, state, wind, collective,
                      np.random.default_rng(config.seeds.noise))

    pitch, loads = close_loop(params, rotor, collective, state.servo_pitch,
                              controller.step)

    record = ExperimentRecord(config=config, time=time, pitch=pitch,
                              loads=loads, azimuth=rotor.azimuth,
                              omega=rotor.omega, wind=wind,
                              rotations=controller.telemetry)
    # An overflow in the metrics is refused by name below, so numpy's
    # warnings about it would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        record.metrics = _basic_metrics(record)
    for name, value in record.metrics.items():
        # JSON would carry it as Infinity or NaN, in a run that exits 0.
        if not np.all(np.isfinite(value)):
            raise ArithmeticError(f"{name}: not finite, got {value}")
    return record


def _basic_metrics(record: ExperimentRecord) -> dict:
    window = record.eval_slice()
    loads = record.loads[window]
    pitch = record.pitch[window]
    try:
        freqs, psd1 = welch_psd(record.loads[window, 0], record.rate)
        _, psd2 = welch_psd(record.loads[window, 1], record.rate)
        # Only once the PSDs have refused an empty window: its mean warns.
        mean_omega = float(record.omega[window].mean())
        f_1p = mean_omega / (2.0 * np.pi)
        band_1p = [band_power(freqs, psd1, 0.85 * f_1p, 1.15 * f_1p),
                   band_power(freqs, psd2, 0.85 * f_1p, 1.15 * f_1p)]
        band_2p = [band_power(freqs, psd1, 1.7 * f_1p, 2.3 * f_1p),
                   band_power(freqs, psd2, 1.7 * f_1p, 2.3 * f_1p)]
    except ValueError as exc:
        # Whether the window resolves the 1P and 2P bands depends on where
        # the PSD bins fall, so it is only known once the run is done. A
        # longer window helps only up to one Welch segment, and not with a
        # 2P band (up to 2.3 f_1p) above the Nyquist frequency.
        config = record.config
        rpm = (float(record.omega[window].mean()) / RPM_TO_RADS
               if len(loads) else 0.0)
        max_rpm = 60.0 * record.rate / 2.0 / 2.3
        if len(loads) < SEGMENT_SAMPLES and rpm <= max_rpm:
            raise ValueError(
                f"duration {config.duration:g} s leaves a metric window of "
                f"{len(loads) / record.rate:g} s from eval_start_s "
                f"{config.eval_start_s:g} s, too short for the load spectra: "
                f"{exc}") from None
        if rpm > max_rpm:
            cause = (f"puts the 2P band above the {record.rate / 2.0:g} Hz "
                     f"Nyquist frequency; the bands need at most "
                     f"{max_rpm:.6g} rpm")
        else:
            # A 1P band (0.3 f_1p wide) two bins wide always holds two.
            bin_hz = record.rate / SEGMENT_SAMPLES
            cause = (f"is too slow for PSD bins of {bin_hz:.3g} Hz; the "
                     f"bands need at least {60.0 * 2.0 * bin_hz / 0.3:.6g} rpm")
        raise ValueError(f"mean_rotor_rpm: {rpm:.6g} rpm over the metric "
                         f"window {cause}: {exc}") from None
    return {
        "eval_start_s": record.config.eval_start_s,
        "load_variance": [float(v) for v in loads.var(axis=0)],
        "pitch_variance": [float(v) for v in pitch.var(axis=0)],
        "mean_rotor_rpm": mean_omega / RPM_TO_RADS,
        "f_1p_hz": f_1p,
        "load_band_power_1p": band_1p,
        "load_band_power_2p": band_2p,
    }


def _check_matched(baseline: ExperimentRecord,
                   controlled: ExperimentRecord) -> None:
    b, c = baseline.config, controlled.config
    if replace(c, controller=b.controller, sprc=b.sprc, cipc=b.cipc,
               seeds=replace(c.seeds, excitation=b.seeds.excitation)) != b:
        raise SeedMismatchError(
            "runs may differ only in controller, sprc, cipc and "
            "seeds.excitation")


def variance_reduction(baseline: ExperimentRecord,
                       controlled: ExperimentRecord) -> dict:
    """Per-blade and pooled load variance reduction in percent.

    The evaluation window excludes the identification phase for both runs
    uniformly; 100 * (1 - var_controlled / var_baseline).
    """
    _check_matched(baseline, controlled)
    window = baseline.eval_slice()
    var_b = baseline.loads[window].var(axis=0)
    var_c = controlled.loads[window].var(axis=0)
    per_blade = 100.0 * (1.0 - var_c / var_b)
    pooled = 100.0 * (1.0 - var_c.sum() / var_b.sum())
    return {"per_blade": [float(v) for v in per_blade],
            "pooled": float(pooled)}


def actuator_duty(record: ExperimentRecord) -> list[float]:
    """Variance of the commanded IPC pitch per blade over the control window."""
    window = record.eval_slice()
    return [float(v) for v in record.pitch[window].var(axis=0)]


def export_csv(record: ExperimentRecord, path: str) -> None:
    """Write the time series as CSV with CRLF line ends.

    Each chunk of rows is formatted by one `%` string; chunking keeps the
    floats of the whole run from being held as one tuple.
    """
    columns = np.column_stack([record.time, record.pitch, record.loads,
                               record.azimuth, record.omega, record.wind])
    row = ",".join(["%.6f"] + ["%.9g"] * 7) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("time,u1,u2,y1,y2,psi,omega,wind\r\n")
        for start in range(0, len(columns), 1024):
            chunk = columns[start:start + 1024]
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def export_json(record: ExperimentRecord, path: str) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": record.config.to_dict(),
        "metrics": record.metrics,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def sweep_configs(controller: str, seeds: Seeds,
                  base: ExperimentConfig | None = None) -> list[ExperimentConfig]:
    """The 12-cell grid (modes x speeds) for one controller.

    The grid sets the SWEPT_FIELDS of every cell, so the base config's
    values of those fields are not used.
    """
    base = base or ExperimentConfig()
    return [replace(base, mode=mode, mean_wind=speed, controller=controller,
                    seeds=seeds)
            for mode in SWEEP_MODES for speed in SWEEP_SPEEDS]


def wind_stats(series: windfield.WindSeries) -> dict:
    """Summary block for generated wind: mean, TI and PSD slope."""
    try:
        freqs, power = welch_psd(series.samples, series.rate)
        slope = loglog_slope(freqs, power, 10.0, series.rate / 2.0)
    except ValueError as exc:
        raise ValueError(
            f"duration {series.duration:g} s leaves a metric window of "
            f"{series.duration:g} s, the whole series, too short for the "
            f"wind spectrum: {exc}") from None
    return {
        "mean": float(series.samples.mean()),
        "ti_percent": windfield.turbulence_intensity(series),
        "psd_slope_above_10hz": slope,
    }
