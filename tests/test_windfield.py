"""Tests for the seeded wind synthesizer."""

import numpy as np
import pytest

from sprclab import windfield
from sprclab.spectral import loglog_slope, welch_psd
from sprclab.windfield import (GridMode, WindSeries, generate, gust_train,
                               ricker, turbulence_intensity)

RATE = 200.0


class TestTurbulenceIntensity:
    def test_constant_series_is_zero(self):
        series = WindSeries(samples=np.full(100, 5.0), rate=RATE)
        assert turbulence_intensity(series) == 0.0

    def test_two_point_series(self):
        # std/mean of {4, 6} is 1/5 with the population convention.
        assert turbulence_intensity(np.array([4.0, 6.0])) == pytest.approx(20.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            turbulence_intensity(np.array([]))


class TestGenerate:
    @pytest.mark.parametrize("mode,target", [
        (GridMode.STATIC0, 2.5), (GridMode.STATIC45, 3.7),
        (GridMode.LIDAR, 8.8), (GridMode.GUSTS, 4.2)])
    def test_ti_hits_mode_target(self, mode, target):
        series = generate(mode, 5.0, 120.0, RATE, seed=0)
        assert abs(turbulence_intensity(series) - target) < 0.5
        assert abs(series.samples.mean() - 5.0) < 0.05

    def test_bitwise_reproducible(self):
        for mode in GridMode:
            a = generate(mode, 5.0, 30.0, RATE, seed=11)
            b = generate(mode, 5.0, 30.0, RATE, seed=11)
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_seeds_differ(self):
        a = generate(GridMode.LIDAR, 5.0, 30.0, RATE, seed=0)
        b = generate(GridMode.LIDAR, 5.0, 30.0, RATE, seed=1)
        assert not np.array_equal(a.samples, b.samples)

    def test_all_samples_positive(self):
        for mode in GridMode:
            series = generate(mode, 4.0, 60.0, RATE, seed=3)
            assert np.all(series.samples > 0.0)

    def test_more_samples_than_the_cap_refused(self):
        # One sample over the cap at 200 Hz; the cap itself is allowed.
        duration = (windfield.MAX_SAMPLES + 1) / RATE
        with pytest.raises(ValueError, match=r"^duration: .* 10000001 "
                                             r"samples, more than 10000000"):
            generate(GridMode.LIDAR, 5.0, duration, RATE, seed=0)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            generate(GridMode.LIDAR, 5.0, 0.0, RATE, seed=0)
        with pytest.raises(ValueError):
            generate(GridMode.LIDAR, 5.0, 30.0, 100.0, seed=0)
        with pytest.raises(ValueError):
            generate(GridMode.LIDAR, -1.0, 30.0, RATE, seed=0)

    def test_lidar_inertial_range_slope(self):
        series = generate(GridMode.LIDAR, 5.0, 120.0, RATE, seed=0)
        freqs, power = welch_psd(series.samples, RATE)
        slope = loglog_slope(freqs, power, 10.0, 100.0)
        assert abs(slope - (-5.0 / 3.0)) < 0.3

    def test_active_modes_carry_more_low_frequency_energy(self):
        freqs = None
        low = {}
        for mode in GridMode:
            series = generate(mode, 5.0, 120.0, RATE, seed=0)
            freqs, power = welch_psd(series.samples, RATE)
            band = (freqs >= 0.1) & (freqs <= 10.0)
            low[mode] = np.trapezoid(power[band], freqs[band])
        assert low[GridMode.LIDAR] > low[GridMode.STATIC0]
        assert low[GridMode.GUSTS] > low[GridMode.STATIC0]

    def test_gusts_have_largest_excursions(self):
        gusts = generate(GridMode.GUSTS, 5.0, 120.0, RATE, seed=0)
        lidar = generate(GridMode.LIDAR, 5.0, 120.0, RATE, seed=0)
        assert abs(turbulence_intensity(gusts) - 4.2) < 0.5
        assert (np.max(np.abs(gusts.samples - 5.0))
                > np.max(np.abs(lidar.samples - 5.0)))


class TestGustTrain:
    def test_zero_amplitude_is_constant(self):
        series = gust_train(30.0, RATE, 5.0, 0.0, 0.5, 10.0, seed=0)
        np.testing.assert_array_equal(series.samples, np.full(6000, 5.0))

    def test_single_gust_matches_ricker(self):
        # Spacing beyond the duration leaves exactly one (jittered) gust;
        # align on the peak and compare against the closed-form wavelet.
        from scipy.optimize import minimize_scalar
        width, amp = 0.5, 1.0
        series = gust_train(40.0, RATE, 5.0, amp, width, 60.0, seed=4)
        dev = series.samples - 5.0
        t = np.arange(len(dev)) / RATE
        coarse = t[int(np.argmax(dev))]

        def misfit(center):
            return np.sum((dev - amp * ricker(t - center, width))**2)

        fit = minimize_scalar(misfit, bounds=(coarse - 0.01, coarse + 0.01),
                              method="bounded",
                              options={"xatol": 1e-14})
        # Parabolic polish: the misfit is locally quadratic with minimum 0.
        center = fit.x
        for h in (1e-6, 1e-9):
            f0, fm, fp = misfit(center), misfit(center - h), misfit(center + h)
            denom = fm - 2.0 * f0 + fp
            if denom > 0.0:
                center += 0.5 * h * (fm - fp) / denom
        np.testing.assert_allclose(dev, amp * ricker(t - center, width),
                                   atol=1e-9)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            gust_train(30.0, RATE, 5.0, 1.0, 0.0, 10.0, seed=0)
        with pytest.raises(ValueError):
            gust_train(30.0, RATE, 5.0, 1.0, 2.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            gust_train(30.0, RATE, 1.0, -5.0, 0.5, 10.0, seed=0)


class TestGridMode:
    def test_labels_round_trip(self):
        for mode in GridMode:
            assert GridMode.from_label(mode.label) is mode
        with pytest.raises(ValueError):
            GridMode.from_label("typhoon")

    def test_targets(self):
        assert GridMode.STATIC0.ti_percent == 2.5
        assert GridMode.STATIC45.ti_percent == 3.7
        assert GridMode.LIDAR.ti_percent == 8.8
        assert GridMode.GUSTS.ti_percent == 4.2


class TestWindSeries:
    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            WindSeries(samples=np.array([]), rate=RATE)

    def test_duration_and_time(self):
        series = windfield.generate(GridMode.STATIC0, 5.0, 10.0, RATE, 0)
        assert series.duration == pytest.approx(10.0)
        assert len(series.time()) == len(series.samples)
