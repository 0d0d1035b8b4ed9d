"""Experiment orchestration, metrics, persistence and scenario scripting.

A run wires a seeded wind series into the turbine surrogate under one of
four controllers, records all time series, and computes variance/PSD/duty
metrics over a window that excludes the identification phase. Baseline and
controlled runs may only be compared when their configs differ in nothing
but the controller, its tuning (`sprc`, `cipc`) and the excitation seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import windfield
from .cipc import CipcConfig, CipcController
from .codec import decode, encode
from .plant import (N_BLADES, RPM_TO_RADS, TurbineParams, TurbineState,
                    float_rows, open_loop)
from .spectral import band_power, loglog_slope, welch_psd
from .sprc import RotationTelemetry, SprcConfig, SprcController

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


@dataclass(frozen=True)
class ScenarioEvent:
    """Timed set-point change: kind is 'collective_pitch' or 'wind_mean'."""

    time_s: float
    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("collective_pitch", "wind_mean"):
            raise ValueError(f"kind: unknown event kind {self.kind!r}")


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
        if not 0.0 < self.mean_wind < np.inf:
            raise ValueError("mean_wind: must be positive and finite")
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
    """Run one deterministic experiment and compute its metrics.

    Everything the pitch command does not reach is computed before the
    loop (`plant.open_loop`); the loop closes it through the controller and
    the servo lag, in the summation order of `plant.turbine_step`.
    """
    params = config.plant
    ts = params.ts
    n = int(round(config.duration / ts))
    time = np.arange(n) * ts
    wind, collective = _setpoints(config, time)

    state = TurbineState.initial(params, config.mean_wind,
                                 config.collective_pitch_deg)
    nominal_rotation = 2.0 * np.pi / state.omega / ts  # samples per rev
    controller = _make_controller(config, nominal_rotation)
    rotor = open_loop(params, state, wind, collective,
                      np.random.default_rng(config.seeds.noise))

    a = params.servo_pole
    gain = params.loads.pitch_gain_nm_per_deg
    servo1, servo2 = state.servo_pitch.tolist()
    pitch = np.zeros((n, N_BLADES))
    loads = np.zeros((n, N_BLADES))
    # Element writes of Python floats through memoryviews: a numpy row
    # write per sample would cost more than the servo and load update.
    pitch_out, loads_out = memoryview(pitch), memoryview(loads)
    y = (0.0, 0.0)  # the controller sees the previous sample's loads
    # One plain float per blade: numpy's per-call cost on two-element
    # arrays would be most of the loop's time.
    for k, (psi, omega, coll, (p1, p2), (w1, w2), (e1, e2)) in enumerate(
            float_rows(rotor.azimuth, rotor.omega, collective, rotor.periodic,
                       rotor.wind_term, rotor.noise)):
        u1, u2 = controller.step(y, psi, omega)
        servo1 = a * servo1 + (1.0 - a) * (coll + u1)
        servo2 = a * servo2 + (1.0 - a) * (coll + u2)
        y = (p1 + gain * (servo1 - coll) + w1 + e1,
             p2 + gain * (servo2 - coll) + w2 + e2)
        pitch_out[k, 0], pitch_out[k, 1] = u1, u2
        loads_out[k, 0], loads_out[k, 1] = y

    record = ExperimentRecord(config=config, time=time, pitch=pitch,
                              loads=loads, azimuth=rotor.azimuth,
                              omega=rotor.omega, wind=wind,
                              rotations=controller.telemetry)
    record.metrics = _basic_metrics(record)
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
        # the PSD bins fall, so it is only known once the run is done.
        config = record.config
        raise ValueError(
            f"duration {config.duration:g} s leaves a metric window of "
            f"{len(loads) / record.rate:g} s from eval_start_s "
            f"{config.eval_start_s:g} s, too short for the load spectra: "
            f"{exc}") from None
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
