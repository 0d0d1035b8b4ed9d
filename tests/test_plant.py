"""Tests for the LTI simulator and the turbine surrogate."""

from dataclasses import replace

import numpy as np
import pytest

from sprclab import windfield
from sprclab.cipc import CipcController
from sprclab.harness import (ExperimentConfig, ScenarioEvent, Seeds,
                             run_experiment)
from sprclab.plant import (LoadModel, RotorModel, RPM_TO_RADS, StateSpaceModel,
                           TurbineParams, TurbineState, make_benchmark_plant,
                           simulate_lti, spectral_radius, turbine_step)


def _reference_turbine_step(state, params, pitch_cmd, wind_sample, rng=None):
    """The per-blade loop turbine_step replaced, with np.cos throughout."""
    lm = params.loads

    def periodic_load(az, collective, amp_scale):
        shift = lm.phase_per_collective_rad_per_deg * collective
        return (lm.mean_nm
                + amp_scale * lm.amp_1p_nm
                * np.cos(az + lm.phase_1p_rad + shift)
                + amp_scale * lm.amp_2p_nm
                * np.cos(2.0 * az + lm.phase_2p_rad + shift))

    ts = params.ts
    pitch_cmd = np.asarray(pitch_cmd, dtype=float)
    a = params.servo_pole
    servo = a * state.servo_pitch + (1.0 - a) * pitch_cmd
    b = ts / params.wind_lowpass_tau_s
    wind_lp = state.wind_lp + b * (wind_sample - state.wind_lp)
    amp_scale = (wind_lp / lm.wind_ref_mps) ** 2
    fluctuation = wind_sample - wind_lp
    blade_azimuths = state.azimuth + np.arange(2) * (2.0 * np.pi / 2)
    loads = np.empty(2)
    for i, az in enumerate(blade_azimuths):
        periodic = periodic_load(az, state.collective_pitch, amp_scale)
        if i == 1:
            periodic = (lm.mean_nm + lm.blade2_amp_ratio
                        * (periodic_load(az + lm.blade2_phase_shift_rad,
                                         state.collective_pitch, amp_scale)
                           - lm.mean_nm))
        wind_factor = 1.0 + lm.wind_1p_modulation * np.cos(az)
        loads[i] = (periodic
                    + lm.pitch_gain_nm_per_deg
                    * (servo[i] - state.collective_pitch)
                    + lm.wind_gain_nm_per_mps * wind_factor * fluctuation)
    if rng is not None and lm.noise_std_nm > 0.0:
        loads += lm.noise_std_nm * rng.standard_normal(2)
    omega_ss = params.rotor.steady_rpm(wind_sample, state.collective_pitch)
    omega_ss *= RPM_TO_RADS
    omega = state.omega + ts / params.rotor.tau_s * (omega_ss - state.omega)
    azimuth = state.azimuth + omega * ts
    if azimuth >= 2.0 * np.pi:
        azimuth -= 2.0 * np.pi
    return loads, replace(state, azimuth=azimuth, omega=omega,
                          servo_pitch=servo, wind_lp=wind_lp)


def _scalar_model(a=0.5, b=1.0, c=1.0, k=0.0):
    shape = lambda v: np.array([[v]], dtype=float)
    return StateSpaceModel(A=shape(a), B=shape(b), C=shape(c),
                           E=shape(0.0), F=shape(0.0), K=shape(k))


class TestSimulateLti:
    def test_zero_system_outputs_zero(self):
        n = 3
        model = StateSpaceModel(A=np.zeros((n, n)), B=np.zeros((n, n)),
                                C=np.eye(n), E=np.zeros((n, n)),
                                F=np.zeros((n, n)), K=np.zeros((n, n)))
        u = np.random.default_rng(0).standard_normal((50, n))
        d = np.random.default_rng(1).standard_normal((50, n))
        y = simulate_lti(model, u, d, np.zeros((50, n)))
        np.testing.assert_array_equal(y, np.zeros((50, n)))

    def test_scalar_recursion_by_hand(self):
        model = _scalar_model()
        u = np.array([[1.0], [0.0], [0.0]])
        y = simulate_lti(model, u, np.zeros((3, 1)), np.zeros((3, 1)))
        np.testing.assert_allclose(y[:, 0], [0.0, 1.0, 0.5], atol=1e-15)

    def test_periodic_disturbance_gives_periodic_output(self):
        model = make_benchmark_plant(seed=3)
        period = 24
        steps = 40 * period
        k = np.arange(steps)
        d = np.column_stack([np.sin(2 * np.pi * k / period),
                             np.cos(4 * np.pi * k / period)])
        y = simulate_lti(model, np.zeros((steps, model.r)), d,
                         np.zeros((steps, model.l)))
        tail = y[-5 * period:]
        np.testing.assert_allclose(tail[period:], tail[:-period], atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        model = _scalar_model()
        with pytest.raises(ValueError):
            simulate_lti(model, np.zeros((3, 2)), np.zeros((3, 1)),
                         np.zeros((3, 1)))
        with pytest.raises(ValueError):
            simulate_lti(model, np.zeros((3, 1)), np.zeros((2, 1)),
                         np.zeros((3, 1)))


class TestBenchmarkPlant:
    def test_deterministic_per_seed(self):
        m1 = make_benchmark_plant(seed=1)
        m2 = make_benchmark_plant(seed=1)
        for name in "ABCEFK":
            np.testing.assert_array_equal(getattr(m1, name), getattr(m2, name))

    def test_stability_invariants(self):
        for seed in range(6):
            model = make_benchmark_plant(seed=seed)
            assert spectral_radius(model.A) < 1.0
            assert spectral_radius(model.A_tilde) < 1.0

    def test_markov_sequence_decays(self):
        from sprclab.sysid import choose_past_window
        model = make_benchmark_plant(seed=0, n=4, r=2, l=2)
        p = choose_past_window(model, tol=1e-6)
        base = np.linalg.norm(model.C @ model.B)
        for j in range(p, p + 10):
            power = np.linalg.matrix_power(model.A_tilde, j)
            assert np.linalg.norm(model.C @ power @ model.B) < 1e-6 * base

    def test_requires_square_io(self):
        with pytest.raises(ValueError):
            make_benchmark_plant(seed=0, r=2, l=1)


class TestTurbineSurrogate:
    def test_loads_trace_fixed_function_of_azimuth(self):
        # Constant wind, constant pitch, noise off: the measured loads must
        # equal the closed-form periodic component at the recorded azimuth.
        params = TurbineParams(loads=LoadModel(noise_std_nm=0.0))
        state = TurbineState.initial(params, 5.0)
        for _ in range(2000):
            az = state.azimuth
            loads, state = turbine_step(state, params, np.full(2, 2.0), 5.0)
            expected = params.loads.periodic_load(az, 2.0, 1.0)
            np.testing.assert_allclose(loads[0], expected, atol=1e-9)

    def test_pitch_step_response_settles_in_five_servo_constants(self):
        params = TurbineParams(loads=LoadModel(noise_std_nm=0.0,
                                               amp_1p_nm=0.0, amp_2p_nm=0.0))
        state = TurbineState.initial(params, 5.0)
        tau = 1.0 / (2.0 * np.pi * params.servo_bandwidth_hz)
        steps = int(np.ceil(5.0 * tau / params.ts))
        for _ in range(steps):
            loads, state = turbine_step(state, params, np.full(2, 3.0), 5.0)
        baseline = params.loads.mean_nm
        offset = loads[0] - baseline
        target = params.loads.pitch_gain_nm_per_deg * 1.0
        assert abs(offset - target) < 0.01 * abs(target)

    def test_calibrated_operating_point(self):
        params = TurbineParams()
        state = TurbineState.initial(params, 5.0)
        for _ in range(4000):
            _, state = turbine_step(state, params, np.full(2, 2.0), 5.0)
        rpm = state.omega / RPM_TO_RADS
        assert abs(rpm - 230.0) < 2.0

    def test_servo_attenuates_sinusoids(self):
        # First-order lag: commanded sinusoids below the bandwidth come out
        # with amplitude no larger than commanded.
        params = TurbineParams(loads=LoadModel(noise_std_nm=0.0))
        state = TurbineState.initial(params, 5.0, collective_deg=0.0)
        amps = []
        for f in (2.0, 8.0, 14.0):
            state = TurbineState.initial(params, 5.0, collective_deg=0.0)
            pitch = []
            for k in range(2000):
                cmd = np.full(2, np.sin(2 * np.pi * f * k * params.ts))
                _, state = turbine_step(state, params, cmd, 5.0)
                pitch.append(state.servo_pitch[0])
            amps.append(np.max(np.abs(pitch[1000:])))
        assert all(a <= 1.0 + 1e-9 for a in amps)
        assert amps[0] > amps[1] > amps[2]

    @pytest.mark.parametrize("seeded", [False, True])
    def test_matches_per_blade_reference_bitwise(self, seeded):
        params = TurbineParams()
        pick = np.random.default_rng(17)
        wraps = 0
        for case in range(400):
            omega = pick.uniform(10.0, 40.0)
            # Every fourth state sits just short of a full turn, so the
            # step wraps the azimuth.
            azimuth = (2.0 * np.pi - 0.5 * omega * params.ts if case % 4 == 0
                       else pick.uniform(0.0, 2.0 * np.pi))
            state = TurbineState(azimuth=azimuth, omega=omega,
                                 servo_pitch=pick.uniform(-5.0, 15.0, 2),
                                 collective_pitch=pick.uniform(0.5, 10.0),
                                 wind_lp=pick.uniform(3.0, 8.0))
            cmd = pick.uniform(-5.0, 15.0, 2)
            wind = pick.uniform(2.0, 9.0)
            noise = [np.random.default_rng(case) if seeded else None
                     for _ in range(2)]
            loads, new = turbine_step(state, params, cmd, wind, noise[0])
            want_loads, want = _reference_turbine_step(state, params, cmd,
                                                       wind, noise[1])
            np.testing.assert_array_equal(loads, want_loads)
            np.testing.assert_array_equal(new.servo_pitch, want.servo_pitch)
            for name in ("azimuth", "omega", "collective_pitch", "wind_lp"):
                assert getattr(new, name) == getattr(want, name), name
            wraps += new.azimuth < state.azimuth
        assert wraps >= 100

    def test_wrong_pitch_shape_rejected(self):
        params = TurbineParams()
        state = TurbineState.initial(params, 5.0)
        for cmd in (np.zeros(3), np.zeros((2, 1)), 2.0):
            with pytest.raises(ValueError):
                turbine_step(state, params, cmd, 5.0)

    def test_nonpositive_ts_rejected(self):
        with pytest.raises(ValueError):
            TurbineParams(ts=0.0)

    def test_time_constant_below_one_sample_rejected(self):
        # ts / tau above 1 would make a lag overshoot its target; a time
        # constant of exactly one sample moves all the way in one step.
        for kwargs, name in (({"rotor": RotorModel(tau_s=0.004)},
                              "rotor.tau_s"),
                             ({"wind_lowpass_tau_s": 0.004},
                              "wind_lowpass_tau_s")):
            with pytest.raises(ValueError, match=rf"^{name}: must be at "
                               rf"least ts \(0\.005 s\)"):
                TurbineParams(**kwargs)
        TurbineParams(wind_lowpass_tau_s=0.005, rotor=RotorModel(tau_s=0.005))

    def test_reproducible_with_equal_seeds(self):
        params = TurbineParams()
        out = []
        for _ in range(2):
            rng = np.random.default_rng(7)
            state = TurbineState.initial(params, 5.0)
            series = []
            for _ in range(500):
                loads, state = turbine_step(state, params, np.full(2, 2.0),
                                            5.0, rng)
                series.append(loads)
            out.append(np.array(series))
        np.testing.assert_array_equal(out[0], out[1])


def _reference_closed_loop(config, wind, pitch_step):
    """The run of `config` stepped through the per-blade reference.

    `wind` is the run's wind series, built by the caller, and `pitch_step`
    the (time_s, value) of its one collective-pitch event. The `none`
    controller commands zero pitch.
    """
    params = config.plant
    n = len(wind)
    time = np.arange(n) * params.ts
    t_pitch, pitch_value = pitch_step
    state = TurbineState.initial(params, config.mean_wind,
                                 config.collective_pitch_deg)
    ctrl = (CipcController(config.cipc, ts=params.ts)
            if config.controller == "cipc" else None)
    rng = np.random.default_rng(config.seeds.noise)
    want = {name: np.zeros((n, 2)) for name in ("pitch", "loads")}
    want.update(azimuth=np.zeros(n), omega=np.zeros(n))
    loads = np.zeros(2)
    for k in range(n):
        if time[k] >= t_pitch:
            state = replace(state, collective_pitch=pitch_value)
        u = (np.zeros(2) if ctrl is None
             else np.array(ctrl.step(loads, state.azimuth, state.omega)))
        want["azimuth"][k], want["omega"][k] = state.azimuth, state.omega
        want["pitch"][k] = u
        loads, state = _reference_turbine_step(
            state, params, state.collective_pitch + u, wind[k], rng)
        want["loads"][k] = loads
    return want


def _assert_record_equals(record, want):
    for name, series in want.items():
        np.testing.assert_array_equal(getattr(record, name), series,
                                      err_msg=name)


class TestOpenLoop:
    def test_cipc_run_matches_reference_loop_bitwise(self):
        # Oracle: the whole closed loop stepped through the per-blade
        # reference, with seeded noise, a collective event and a wind
        # event. Both events take effect at the first sample whose time
        # reaches them; int(t_wind * rate) is one sample earlier.
        t_wind, t_pitch = 8.03, 12.0
        config = ExperimentConfig(
            mode="gusts", controller="cipc", duration=20.0, eval_start_s=5.0,
            seeds=Seeds(wind=3, noise=4, excitation=5),
            events=(ScenarioEvent(t_wind, "wind_mean", 5.5),
                    ScenarioEvent(t_pitch, "collective_pitch", 6.0)))
        record = run_experiment(config)

        params = config.plant
        rate = 1.0 / params.ts
        n = int(round(config.duration * rate))
        time = np.arange(n) * params.ts
        mode = windfield.GridMode.from_label(config.mode)
        wind = [windfield.generate(mode, mean, config.duration, rate,
                                   seed=3).samples[:n] for mean in (5.0, 5.5)]
        wind = np.where(time >= t_wind, wind[1], wind[0])
        want = _reference_closed_loop(config, wind, (t_pitch, 6.0))
        assert np.count_nonzero(time < t_wind) == int(t_wind * rate) + 1
        np.testing.assert_array_equal(record.time, time)
        np.testing.assert_array_equal(record.wind, wind)
        _assert_record_equals(record, want)

    @pytest.mark.parametrize("controller", ["none", "cipc"])
    def test_rotor_speed_floor_matches_reference_loop_bitwise(self,
                                                              controller):
        # A collective step to 60 deg at 5 m/s sets the affine steady
        # speed to 12.5 rpm, under the 30 rpm floor. The static0
        # turbulence moves it between about -20 and 43 rpm, so the
        # open-loop clamp both engages and releases after the step.
        t_pitch = 6.0
        config = ExperimentConfig(
            mode="static0", controller=controller, duration=20.0,
            eval_start_s=5.0, seeds=Seeds(wind=3, noise=4, excitation=5),
            events=(ScenarioEvent(t_pitch, "collective_pitch", 60.0),))
        record = run_experiment(config)
        rotor = config.plant.rotor
        assert rotor.steady_rpm(5.0, 60.0) == rotor.min_rpm
        after = record.time >= t_pitch
        unclamped = (rotor.rpm_offset + rotor.rpm_per_mps * record.wind
                     + rotor.rpm_per_deg * 60.0)[after]
        assert np.mean(unclamped) == pytest.approx(12.5, abs=1.0)
        assert 0 < np.count_nonzero(unclamped < rotor.min_rpm) < len(unclamped)
        # The rotor slows to near the floor within the run.
        assert record.omega[-1] / RPM_TO_RADS < 1.05 * rotor.min_rpm
        _assert_record_equals(
            record, _reference_closed_loop(config, record.wind,
                                           (t_pitch, 60.0)))


class TestRotorModel:
    def test_pitch_sensitivity(self):
        rotor = RotorModel()
        drop = rotor.steady_rpm(5.0, 2.0) - rotor.steady_rpm(5.0, 10.0)
        assert abs(drop - 30.0) < 1e-9

    def test_floor_applied(self):
        rotor = RotorModel()
        assert rotor.steady_rpm(0.1, 10.0) == rotor.min_rpm
