"""Tests for experiment orchestration, metrics and persistence."""

import copy
import csv
import json
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprclab import harness
from sprclab.harness import (ExperimentConfig, ScenarioEvent, SeedMismatchError,
                             Seeds, actuator_duty, run_experiment,
                             sweep_configs, variance_reduction, wind_stats)
from sprclab.cipc import CipcConfig
from sprclab.plant import LoadModel, RotorModel, TurbineParams
from sprclab.spectral import band_power, welch_psd
from sprclab.sprc import SprcConfig
from sprclab import windfield

FAST = dict(duration=12.0, eval_start_s=4.0)


def _fast_config(**kwargs):
    merged = {**FAST, **kwargs}
    return ExperimentConfig(**merged)


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(controller="pid")
        with pytest.raises(ValueError):
            ExperimentConfig(duration=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(mode="hurricane")
        with pytest.raises(ValueError):
            ExperimentConfig(eval_start_s=200.0)
        with pytest.raises(ValueError):
            replace(ExperimentConfig(), duration=-1.0)
        # Every config block is frozen, so a field cannot be set past the
        # checks its constructor made.
        for config, name in ((ExperimentConfig(), "duration"),
                             (SprcConfig(), "beta"),
                             (CipcConfig(), "kp")):
            with pytest.raises(FrozenInstanceError):
                setattr(config, name, getattr(config, name))

    def test_event_kind_checked(self):
        with pytest.raises(ValueError):
            ScenarioEvent(10.0, "blade_loss", 1.0)

    def test_event_value_checked(self):
        # Built directly, past the codec's finite-float check: a value of
        # either kind must be finite, and a wind_mean one also positive.
        for kind, value in (("collective_pitch", np.nan),
                            ("collective_pitch", np.inf),
                            ("wind_mean", -np.inf), ("wind_mean", np.nan),
                            ("wind_mean", 0.0), ("wind_mean", -1.0)):
            with pytest.raises(ValueError, match=r"^value:"):
                ScenarioEvent(10.0, kind, value)
        ScenarioEvent(10.0, "collective_pitch", -5.0)
        ScenarioEvent(10.0, "wind_mean", 1e-3)

    def test_dict_round_trip(self):
        config = ExperimentConfig(
            mode="lidar", mean_wind=4.5, controller="sprc-1p",
            events=(ScenarioEvent(40.0, "collective_pitch", 10.0),))
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored.to_dict() == config.to_dict()

    def test_json_round_trip(self, tmp_path):
        config = ExperimentConfig(controller="cipc")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert ExperimentConfig.from_json(str(path)).to_dict() == config.to_dict()

    def test_nested_plant_json_round_trip(self, tmp_path):
        plant = TurbineParams(loads=LoadModel(amp_1p_nm=1.5),
                              rotor=RotorModel(tau_s=3.0))
        config = ExperimentConfig(controller="cipc", plant=plant)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert ExperimentConfig.from_json(str(path)) == config

    def test_json_integers_accepted_as_floats(self):
        config = ExperimentConfig.from_dict({
            "duration": 60, "plant": {"wind_lowpass_tau_s": 8}})
        assert type(config.duration) is float and config.duration == 60.0
        assert type(config.plant.wind_lowpass_tau_s) is float
        with pytest.raises(ValueError, match="seeds.wind"):
            ExperimentConfig.from_dict({"seeds": {"wind": 1.0}})

    def test_sample_count_bounded_before_allocation(self):
        with pytest.raises(ValueError, match=r"^plant\.ts: .* more than "
                           r"10000000$"):
            ExperimentConfig(duration=12.0,
                             plant=TurbineParams(ts=1e-6))
        ExperimentConfig(duration=50_000.0)  # exactly 10**7 samples

    def test_unsupported_schema_rejected(self):
        data = ExperimentConfig().to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(data)


class TestRunExperiment:
    def test_deterministic_records(self):
        a = run_experiment(_fast_config())
        b = run_experiment(_fast_config())
        np.testing.assert_array_equal(a.loads, b.loads)
        np.testing.assert_array_equal(a.wind, b.wind)
        np.testing.assert_array_equal(a.omega, b.omega)

    def test_series_lengths(self):
        record = run_experiment(_fast_config())
        n = int(12.0 * 200)
        assert record.loads.shape == (n, 2)
        assert record.pitch.shape == (n, 2)
        assert len(record.time) == n

    def test_collective_step_drops_rotor_speed(self):
        config = _fast_config(
            duration=60.0, eval_start_s=30.0,
            events=(ScenarioEvent(20.0, "collective_pitch", 10.0),))
        record = run_experiment(config)
        before = record.omega[(record.time > 10.0) & (record.time < 19.5)].mean()
        after = record.omega[record.time > 40.0].mean()
        drop_rpm = (before - after) / harness.RPM_TO_RADS
        # Turbulent wind wanders the operating point by a few rpm.
        assert drop_rpm == pytest.approx(30.0, abs=5.0)

    def test_wind_mean_event_shifts_level(self):
        config = _fast_config(
            mean_wind=4.5,
            events=(ScenarioEvent(6.0, "wind_mean", 5.0),))
        record = run_experiment(config)
        assert record.wind[record.time < 5.0].mean() == pytest.approx(4.5,
                                                                      abs=0.1)
        assert record.wind[record.time > 7.0].mean() == pytest.approx(5.0,
                                                                      abs=0.1)


    @pytest.mark.parametrize("time_s", [0.145, 1.005])
    def test_wind_and_collective_events_land_on_one_sample(self, time_s):
        # Both kinds take effect at the first sample whose time reaches the
        # event; at these times int(time_s * rate) is one sample earlier.
        config = _fast_config(events=(
            ScenarioEvent(time_s, "wind_mean", 6.0),
            ScenarioEvent(time_s, "collective_pitch", 7.0)))
        time = run_experiment(_fast_config()).time
        first = next(k for k, t in enumerate(time) if t >= time_s)
        assert first == int(time_s * 200) + 1
        wind, collective = harness._setpoints(config, time)
        steady, _ = harness._setpoints(_fast_config(), time)
        np.testing.assert_array_equal(wind[:first], steady[:first])
        assert wind[first] != steady[first]
        np.testing.assert_array_equal(collective[:first], 2.0)
        np.testing.assert_array_equal(collective[first:], 7.0)
        np.testing.assert_array_equal(run_experiment(config).wind, wind)

    @pytest.mark.parametrize("start_s", [0.145, 1.005])
    def test_metric_window_starts_at_the_first_sample_in_it(self, start_s):
        # The window opens at the first sample whose time reaches
        # eval_start_s, as events do; int(start_s * rate) is one earlier.
        record = run_experiment(_fast_config(duration=3.0,
                                             eval_start_s=start_s))
        first = next(k for k, t in enumerate(record.time) if t >= start_s)
        assert first == int(start_s * 200) + 1
        assert record.eval_slice() == slice(first, None)
        assert record.metrics["load_variance"] == [
            float(v) for v in record.loads[first:].var(axis=0)]
        assert actuator_duty(record) == [
            float(v) for v in record.pitch[first:].var(axis=0)]


class TestVarianceReduction:
    def test_identical_runs_give_zero(self):
        record = run_experiment(_fast_config())
        out = variance_reduction(record, record)
        assert out["pooled"] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out["per_blade"], 0.0, atol=1e-12)

    def test_half_variance_gives_fifty_percent(self):
        record = run_experiment(_fast_config())
        halved = copy.copy(record)
        mean = record.loads.mean(axis=0)
        halved.loads = mean + (record.loads - mean) / np.sqrt(2.0)
        out = variance_reduction(record, halved)
        assert out["pooled"] == pytest.approx(50.0, abs=1e-9)

    def test_seed_mismatch_refused(self):
        # Runs may differ only in the controller, its tuning and the
        # excitation seed; anything else changes what the baseline measures
        # (wind speed), or which samples the window holds (ts, eval_start_s).
        a = run_experiment(_fast_config())
        for changed in (dict(seeds=Seeds(wind=5, noise=6)),
                        dict(mean_wind=4.0),
                        dict(plant=TurbineParams(ts=0.0025)),
                        dict(eval_start_s=6.0)):
            b = run_experiment(_fast_config(**changed))
            with pytest.raises(SeedMismatchError):
                variance_reduction(a, b)
            with pytest.raises(SeedMismatchError):
                variance_reduction(b, a)
        matched = _fast_config(controller="sprc-1p",
                               seeds=Seeds(excitation=7),
                               sprc=SprcConfig(beta=0.4),
                               cipc=CipcConfig(kp=0.5))
        variance_reduction(a, run_experiment(matched))  # accepted


class TestMetricWindow:
    def test_empty_window_refused_without_warning(self):
        # 2 samples at 200 Hz, none at or after 0.011 s.
        config = ExperimentConfig(duration=0.012, eval_start_s=0.011)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="metric window"):
                run_experiment(config)


class TestActuatorDuty:
    def test_baseline_duty_is_zero(self):
        record = run_experiment(_fast_config())
        assert actuator_duty(record) == [0.0, 0.0]

    def test_pure_sinusoid_duty(self):
        record = run_experiment(_fast_config())
        synthetic = copy.copy(record)
        A = 1.4
        synthetic.pitch = np.column_stack([
            A * np.sin(record.azimuth), A * np.sin(record.azimuth + np.pi)])
        duty = actuator_duty(synthetic)
        assert duty[0] == pytest.approx(A * A / 2.0, rel=0.02)


class TestWelchPsd:
    def test_sinusoid_band_power(self):
        rate, A, f0 = 200.0, 2.0, 7.0
        t = np.arange(40000) / rate
        freqs, power = welch_psd(A * np.sin(2 * np.pi * f0 * t), rate)
        peak = band_power(freqs, power, f0 - 1.0, f0 + 1.0)
        assert peak == pytest.approx(A * A / 2.0, rel=0.01)

    def test_white_noise_flat(self):
        rng = np.random.default_rng(0)
        freqs, power = welch_psd(rng.standard_normal(200000), 200.0,
                                 segment_length=1024)
        low = band_power(freqs, power, 1.0, 40.0) / 39.0
        high = band_power(freqs, power, 50.0, 89.0) / 39.0
        assert low / high == pytest.approx(1.0, abs=0.1)

    @staticmethod
    def assert_matches_scipy(series, segment_length=None):
        from scipy import signal
        n = min(len(series), 4096) if segment_length is None else segment_length
        want_f, want_p = signal.welch(series, 200.0, window="hann", nperseg=n,
                                      noverlap=n // 2, detrend="constant",
                                      scaling="density")
        freqs, power = welch_psd(series, 200.0, segment_length=segment_length)
        assert np.array_equal(freqs, want_f)
        assert power.shape == want_p.shape
        assert np.max(np.abs(power - want_p)) <= 1e-12 * np.max(want_p)

    @pytest.mark.parametrize("length, segment_length", [
        (4000, None),   # one segment at the default length
        (24001, 4096),  # several segments, tail shorter than a step dropped
        (1000, 33),     # odd length: no unpaired Nyquist bin
        (500, 8),       # the shortest segment accepted
    ])
    def test_matches_scipy_welch(self, length, segment_length):
        rng = np.random.default_rng(length)
        self.assert_matches_scipy(3.0 + 2.0 * rng.standard_normal(length),
                                  segment_length)

    def test_constant_series_has_zero_power(self):
        series = np.full(3000, 2.5)
        self.assert_matches_scipy(series, 256)
        assert not welch_psd(series, 200.0, 256)[1].any()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(8, 5000).flatmap(
        lambda length: st.tuples(st.just(length), st.integers(8, length))),
        st.integers(0, 2**32 - 1))
    def test_matches_scipy_welch_property(self, sizes, seed):
        length, segment_length = sizes
        rng = np.random.default_rng(seed)
        self.assert_matches_scipy(
            rng.normal(rng.uniform(-5.0, 5.0), 1.0, length), segment_length)

    def test_sprc_reduces_1p_2p_band_power(self):
        base = ExperimentConfig(mode="static0", duration=60.0,
                                eval_start_s=40.0)
        ctl = replace(base, controller="sprc-1p2p")
        rb = run_experiment(base)
        rc = run_experiment(ctl)
        for band in ("load_band_power_1p", "load_band_power_2p"):
            ratio = (np.mean(rc.metrics[band]) / np.mean(rb.metrics[band]))
            assert ratio < 0.5


class TestExport:
    def test_csv_row_count(self, tmp_path):
        record = run_experiment(_fast_config())
        path = tmp_path / "run.csv"
        harness.export_csv(record, str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == int(12.0 * 200) + 1
        assert lines[0] == "time,u1,u2,y1,y2,psi,omega,wind"

    def test_csv_bytes_match_csv_writer_reference(self, tmp_path):
        record = run_experiment(_fast_config(controller="cipc",
                                             mode="lidar"))
        path = tmp_path / "run.csv"
        harness.export_csv(record, str(path))
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "u1", "u2", "y1", "y2", "psi", "omega",
                             "wind"])
            for k in range(len(record.time)):
                writer.writerow([f"{record.time[k]:.6f}"] + [
                    f"{v:.9g}" for v in (*record.pitch[k], *record.loads[k],
                                         record.azimuth[k], record.omega[k],
                                         record.wind[k])])
        assert path.read_bytes() == want.read_bytes()

    def test_json_round_trip(self, tmp_path):
        record = run_experiment(_fast_config())
        path = tmp_path / "run.json"
        harness.export_json(record, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == harness.SCHEMA_VERSION
        assert payload["metrics"] == json.loads(json.dumps(record.metrics))
        assert payload["config"] == record.config.to_dict()


class TestSweep:
    def test_sweep_configs_cover_grid(self):
        configs = sweep_configs("cipc", Seeds())
        assert len(configs) == 12
        cells = {(c.mode, c.mean_wind) for c in configs}
        assert len(cells) == 12
        assert all(c.controller == "cipc" for c in configs)


class TestWindStats:
    def test_stats_block(self):
        series = windfield.generate(windfield.GridMode.LIDAR, 5.0, 60.0,
                                    200.0, 0)
        stats = wind_stats(series)
        assert stats["mean"] == pytest.approx(5.0, abs=0.01)
        assert stats["ti_percent"] == pytest.approx(8.8, abs=0.5)
        assert abs(stats["psd_slope_above_10hz"] + 5.0 / 3.0) < 0.3
