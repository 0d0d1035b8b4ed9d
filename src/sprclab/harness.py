"""Experiment orchestration, metrics, persistence and scenario scripting.

A run wires a seeded wind series into the turbine surrogate under one of
four controllers, records all time series, and computes variance/PSD/duty
metrics over a window that excludes the identification phase. Baseline and
controlled runs may only be compared when their wind and noise seeds match.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import windfield
from .cipc import CipcConfig, CipcController
from .codec import decode, encode
from .plant import (N_BLADES, RPM_TO_RADS, TurbineParams, TurbineState,
                    turbine_step)
from .spectral import band_power, loglog_slope, welch_psd
from .sprc import SprcConfig, SprcController

SCHEMA_VERSION = 1
CONTROLLERS = ("none", "cipc", "sprc-1p", "sprc-1p2p")
SWEEP_MODES = ("static0", "static45", "lidar", "gusts")
SWEEP_SPEEDS = (4.0, 4.5, 5.0)
SWEPT_FIELDS = ("mode", "mean_wind", "controller")  # set per sweep cell


class SeedMismatchError(ValueError):
    """Raised when comparing runs that do not share wind/noise seeds."""


@dataclass(frozen=True)
class Seeds:
    wind: int = 0
    noise: int = 1
    excitation: int = 2


@dataclass(frozen=True)
class ScenarioEvent:
    """Timed set-point change: kind is 'collective_pitch' or 'wind_mean'."""

    time_s: float
    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("collective_pitch", "wind_mean"):
            raise ValueError(f"kind: unknown event kind {self.kind!r}")


@dataclass
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

    def validate(self) -> None:
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller: must be one of {CONTROLLERS}")
        if self.duration <= 0.0:
            raise ValueError("duration: must be positive")
        if self.mean_wind <= 0.0:
            raise ValueError("mean_wind: must be positive")
        if not 0.0 <= self.eval_start_s < self.duration:
            raise ValueError("eval_start_s: must lie within the run")
        for i, event in enumerate(self.events):
            if not 0.0 <= event.time_s < self.duration:
                raise ValueError(f"events[{i}].time_s: must lie in "
                                 f"[0, duration)")
        windfield.GridMode.from_label(self.mode)

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **encode(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(decode(dict, data))  # a JSON object, else ValueError
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"schema_version: unsupported version {version}")
        config = decode(cls, data)
        config.validate()
        return config

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
    theta_times: np.ndarray
    theta_trace: np.ndarray  # rotations x n_params (empty for non-SPRC)
    delta_theta_norms: np.ndarray
    metrics: dict = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return 1.0 / self.config.plant.ts

    def eval_slice(self) -> slice:
        return slice(int(self.config.eval_start_s * self.rate), None)


def _wind_samples(config: ExperimentConfig, n: int) -> np.ndarray:
    """Seeded wind series, splicing in any wind-mean set-point events."""
    mode = windfield.GridMode.from_label(config.mode)
    rate = 1.0 / config.plant.ts
    base = windfield.generate(mode, config.mean_wind, config.duration, rate,
                              config.seeds.wind).samples[:n]
    samples = base.copy()
    for event in config.events:
        if event.kind != "wind_mean":
            continue
        alt = windfield.generate(mode, event.value, config.duration, rate,
                                 config.seeds.wind).samples[:n]
        k = int(event.time_s * rate)
        samples[k:] = alt[k:]
    return samples


class NullController:
    """The `none` controller: no IPC pitch and no telemetry."""

    def __init__(self):
        self.telemetry: list = []

    def step(self, loads: np.ndarray, azimuth: float,
             omega: float) -> np.ndarray:
        return np.zeros(N_BLADES)


def _make_controller(config: ExperimentConfig, nominal_rotation_samples: float):
    if config.controller == "none":
        return NullController()
    if config.controller == "cipc":
        return CipcController(config.cipc, ts=config.plant.ts)
    harmonics = (1,) if config.controller == "sprc-1p" else (1, 2)
    return SprcController(config.sprc, nominal_rotation_samples,
                          harmonics=harmonics, ts=config.plant.ts,
                          excitation_seed=config.seeds.excitation)


def run_experiment(config: ExperimentConfig) -> ExperimentRecord:
    """Run one deterministic experiment and compute its metrics."""
    config.validate()
    params = config.plant
    ts = params.ts
    n = int(round(config.duration / ts))
    wind = _wind_samples(config, n)
    rng = np.random.default_rng(config.seeds.noise)

    state = TurbineState.initial(params, config.mean_wind,
                                 config.collective_pitch_deg)
    nominal_rotation = 2.0 * np.pi / state.omega / ts  # samples per rev
    controller = _make_controller(config, nominal_rotation)

    events = sorted(config.events, key=lambda e: e.time_s)
    next_event = 0

    time = np.arange(n) * ts
    pitch = np.zeros((n, N_BLADES))
    loads = np.zeros((n, N_BLADES))
    azimuth = np.zeros(n)
    omega = np.zeros(n)
    prev_loads = np.zeros(N_BLADES)

    for k in range(n):
        while next_event < len(events) and time[k] >= events[next_event].time_s:
            event = events[next_event]
            if event.kind == "collective_pitch":
                state = replace(state, collective_pitch=event.value)
            next_event += 1

        u = controller.step(prev_loads, state.azimuth, state.omega)
        azimuth[k] = state.azimuth
        omega[k] = state.omega
        pitch[k] = u
        cmd = state.collective_pitch + u
        prev_loads, state = turbine_step(state, params, cmd, wind[k], rng)
        loads[k] = prev_loads

    telemetry = controller.telemetry
    theta_times = np.array([t.time_s for t in telemetry])
    theta_trace = (np.array([t.theta for t in telemetry])
                   if telemetry else np.zeros((0, 0)))
    dtheta = np.array([t.delta_theta_norm for t in telemetry])

    record = ExperimentRecord(config=config, time=time, pitch=pitch,
                              loads=loads, azimuth=azimuth, omega=omega,
                              wind=wind, theta_times=theta_times,
                              theta_trace=theta_trace,
                              delta_theta_norms=dtheta)
    record.metrics = _basic_metrics(record)
    return record


def _basic_metrics(record: ExperimentRecord) -> dict:
    window = record.eval_slice()
    loads = record.loads[window]
    pitch = record.pitch[window]
    mean_omega = float(record.omega[window].mean())
    f_1p = mean_omega / (2.0 * np.pi)
    freqs, psd1 = welch_psd(record.loads[window, 0], record.rate)
    _, psd2 = welch_psd(record.loads[window, 1], record.rate)
    return {
        "eval_start_s": record.config.eval_start_s,
        "load_variance": [float(v) for v in loads.var(axis=0)],
        "pitch_variance": [float(v) for v in pitch.var(axis=0)],
        "mean_rotor_rpm": mean_omega / RPM_TO_RADS,
        "f_1p_hz": f_1p,
        "load_band_power_1p": [
            band_power(freqs, psd1, 0.85 * f_1p, 1.15 * f_1p),
            band_power(freqs, psd2, 0.85 * f_1p, 1.15 * f_1p)],
        "load_band_power_2p": [
            band_power(freqs, psd1, 1.7 * f_1p, 2.3 * f_1p),
            band_power(freqs, psd2, 1.7 * f_1p, 2.3 * f_1p)],
    }


def _check_matched(baseline: ExperimentRecord,
                   controlled: ExperimentRecord) -> None:
    b, c = baseline.config, controlled.config
    if (b.seeds.wind, b.seeds.noise) != (c.seeds.wind, c.seeds.noise):
        raise SeedMismatchError("runs must share wind and noise seeds")
    if b.duration != c.duration or b.mode != c.mode:
        raise SeedMismatchError("runs must share duration and grid mode")


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "u1", "u2", "y1", "y2", "psi", "omega",
                         "wind"])
        for k in range(len(record.time)):
            writer.writerow([f"{record.time[k]:.6f}",
                             f"{record.pitch[k, 0]:.9g}",
                             f"{record.pitch[k, 1]:.9g}",
                             f"{record.loads[k, 0]:.9g}",
                             f"{record.loads[k, 1]:.9g}",
                             f"{record.azimuth[k]:.9g}",
                             f"{record.omega[k]:.9g}",
                             f"{record.wind[k]:.9g}"])


def export_json(record: ExperimentRecord, path: str) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": record.config.to_dict(),
        "metrics": record.metrics,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def sweep_configs(controller: str, seeds: Seeds,
                  base: ExperimentConfig | None = None,
                  modes=SWEEP_MODES, speeds=SWEEP_SPEEDS) -> list[ExperimentConfig]:
    """The 12-cell grid (modes x speeds) for one controller.

    The grid sets the SWEPT_FIELDS of every cell, so the base config's
    values of those fields are not used.
    """
    base = base or ExperimentConfig()
    return [replace(base, mode=mode, mean_wind=speed, controller=controller,
                    seeds=seeds)
            for mode in modes for speed in speeds]


def compare_table(records: dict[str, dict[tuple[str, float], ExperimentRecord]]
                  ) -> dict:
    """Variance-reduction grid over modes x speeds for each controller.

    `records` maps controller name -> {(mode, speed): record}; the "none"
    entry provides the matched baselines.
    """
    baselines = records.get("none")
    if baselines is None:
        raise ValueError("compare_table requires baseline ('none') records")
    table: dict = {"modes": list(SWEEP_MODES), "speeds": list(SWEEP_SPEEDS),
                   "reductions": {}, "pitch_variance": {}}
    for name, cells in records.items():
        if name == "none":
            continue
        reductions, duties = {}, {}
        for key, record in cells.items():
            baseline = baselines.get(key)
            if baseline is None:
                continue
            label = f"{key[0]}@{key[1]}"
            reductions[label] = variance_reduction(baseline, record)["pooled"]
            duties[label] = float(np.mean(actuator_duty(record)))
        table["reductions"][name] = reductions
        table["pitch_variance"][name] = duties
    return table


def wind_stats(series: windfield.WindSeries) -> dict:
    """Summary block for generated wind: mean, TI and PSD slope."""
    freqs, power = welch_psd(series.samples, series.rate)
    nyquist = series.rate / 2.0
    return {
        "mean": float(series.samples.mean()),
        "ti_percent": windfield.turbulence_intensity(series),
        "psd_slope_above_10hz": loglog_slope(freqs, power, 10.0, nyquist),
    }
