"""Tests for the LTI simulator and the turbine surrogate."""

from dataclasses import replace

import numpy as np
import pytest

from sprclab import windfield
from sprclab.cipc import CipcController
from sprclab.harness import (ExperimentConfig, ScenarioEvent, Seeds,
                             run_experiment)
from sprclab.plant import (LoadModel, RotorModel, RPM_TO_RADS, StateSpaceModel,
                           TurbineParams, TurbineState, close_loop,
                           make_benchmark_plant, open_loop, simulate_lti,
                           spectral_radius)
from sprclab.sprc import SprcConfig, SprcController


def _reference_turbine_step(state, params, collective, pitch_cmd,
                            wind_sample, rng=None):
    """One sample of the turbine, blade by blade, with np.cos throughout.

    The independent oracle of `open_loop` and `close_loop`: at the
    collective set-point `collective` (deg), it returns the sample's loads
    and the state after it.
    """
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
        periodic = periodic_load(az, collective, amp_scale)
        if i == 1:
            periodic = (lm.mean_nm + lm.blade2_amp_ratio
                        * (periodic_load(az + lm.blade2_phase_shift_rad,
                                         collective, amp_scale)
                           - lm.mean_nm))
        wind_factor = 1.0 + lm.wind_1p_modulation * np.cos(az)
        loads[i] = (periodic
                    + lm.pitch_gain_nm_per_deg
                    * (servo[i] - collective)
                    + lm.wind_gain_nm_per_mps * wind_factor * fluctuation)
    if rng is not None and lm.noise_std_nm > 0.0:
        loads += lm.noise_std_nm * rng.standard_normal(2)
    omega_ss = params.rotor.steady_rpm(wind_sample, collective)
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


def _constant_wind(params, step, samples, collective_deg=2.0, rng=None):
    """`open_loop` + `close_loop` at 5 m/s and a constant collective.

    Returns the open loop, the commanded IPC pitch and the blade loads.
    """
    state = TurbineState.initial(params, 5.0, collective_deg)
    collective = np.full(samples, collective_deg)
    rotor = open_loop(params, state, np.full(samples, 5.0), collective,
                      rng or np.random.default_rng(0))
    return (rotor, *close_loop(params, rotor, collective, state.servo_pitch,
                               step))


def _hold(u):
    """A controller step that commands the IPC pitch `u` on both blades."""
    return lambda loads, azimuth, omega: (u, u)


class TestTurbineSurrogate:
    def test_loads_trace_fixed_function_of_azimuth(self):
        # Constant wind, constant pitch, noise off: the measured loads must
        # equal the closed-form periodic component at the recorded azimuth.
        params = TurbineParams(loads=LoadModel(noise_std_nm=0.0))
        rotor, _, loads = _constant_wind(params, _hold(0.0), 2000)
        expected = params.loads.periodic_load(rotor.azimuth, 2.0, 1.0)
        np.testing.assert_allclose(loads[:, 0], expected, atol=1e-9)

    def test_pitch_step_response_settles_in_five_servo_constants(self):
        params = TurbineParams(loads=LoadModel(noise_std_nm=0.0,
                                               amp_1p_nm=0.0, amp_2p_nm=0.0))
        tau = 1.0 / (2.0 * np.pi * params.servo_bandwidth_hz)
        steps = int(np.ceil(5.0 * tau / params.ts))
        # A 1 deg step from the 2 deg collective.
        _, _, loads = _constant_wind(params, _hold(1.0), steps)
        offset = loads[-1, 0] - params.loads.mean_nm
        target = params.loads.pitch_gain_nm_per_deg * 1.0
        assert abs(offset - target) < 0.01 * abs(target)

    def test_calibrated_operating_point(self):
        rotor, _, _ = _constant_wind(TurbineParams(), _hold(0.0), 4001)
        rpm = rotor.omega[-1] / RPM_TO_RADS
        assert abs(rpm - 230.0) < 2.0

    def test_servo_attenuates_sinusoids(self):
        # First-order lag: commanded sinusoids below the bandwidth come out
        # with amplitude no larger than commanded. With no load content
        # but the pitch term, the loads are the servo pitch times the gain.
        params = TurbineParams(loads=LoadModel(
            mean_nm=0.0, amp_1p_nm=0.0, amp_2p_nm=0.0, noise_std_nm=0.0))
        amps = []
        for f in (2.0, 8.0, 14.0):
            cmd = iter(np.sin(2 * np.pi * f * np.arange(2000) * params.ts)
                       .tolist())
            _, _, loads = _constant_wind(
                params, lambda y, psi, omega: (next(cmd),) * 2, 2000,
                collective_deg=0.0)
            servo = loads[:, 0] / params.loads.pitch_gain_nm_per_deg
            amps.append(np.max(np.abs(servo[1000:])))
        assert all(a <= 1.0 + 1e-9 for a in amps)
        assert amps[0] > amps[1] > amps[2]

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
        out = [_constant_wind(params, _hold(0.0), 500,
                              rng=np.random.default_rng(7))[2]
               for _ in range(2)]
        assert np.any(out[0] != _constant_wind(params, _hold(0.0), 500)[2])
        np.testing.assert_array_equal(out[0], out[1])


def _reference_closed_loop(config, wind, pitch_step):
    """The run of `config` stepped through the per-blade reference.

    `wind` is the run's wind series, built by the caller, and `pitch_step`
    the (time_s, value) of its one collective-pitch event. The `none`
    controller commands zero pitch; an SPRC controller is built as a run
    builds it, from the rotation at the initial rotor speed.
    """
    params = config.plant
    n = len(wind)
    time = np.arange(n) * params.ts
    t_pitch, pitch_value = pitch_step
    collective = config.collective_pitch_deg
    state = TurbineState.initial(params, config.mean_wind, collective)
    ctrl = None
    if config.controller == "cipc":
        ctrl = CipcController(config.cipc, ts=params.ts)
    elif config.controller.startswith("sprc"):
        harmonics = (1,) if config.controller == "sprc-1p" else (1, 2)
        ctrl = SprcController(config.sprc,
                              2.0 * np.pi / state.omega / params.ts,
                              harmonics=harmonics, ts=params.ts,
                              excitation_seed=config.seeds.excitation)
    rng = np.random.default_rng(config.seeds.noise)
    want = {name: np.zeros((n, 2)) for name in ("pitch", "loads")}
    want.update(azimuth=np.zeros(n), omega=np.zeros(n))
    loads = np.zeros(2)
    for k in range(n):
        if time[k] >= t_pitch:
            collective = pitch_value
        u = (np.zeros(2) if ctrl is None
             else np.array(ctrl.step(loads, state.azimuth, state.omega)))
        want["azimuth"][k], want["omega"][k] = state.azimuth, state.omega
        want["pitch"][k] = u
        loads, state = _reference_turbine_step(
            state, params, collective, collective + u, wind[k], rng)
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

    @pytest.mark.parametrize("controller", ["none", "cipc", "sprc-1p2p"])
    def test_rotor_speed_floor_matches_reference_loop_bitwise(self,
                                                              controller):
        # A collective step to 60 deg at 5 m/s sets the affine steady
        # speed to 12.5 rpm, under the 30 rpm floor. The static0
        # turbulence moves it between about -20 and 43 rpm, so the
        # open-loop clamp both engages and releases after the step.
        # SPRC identifies for 4 s and synthesizes from then on, through
        # rotations that grow far longer than its frozen period.
        t_pitch = 6.0
        config = ExperimentConfig(
            mode="static0", controller=controller, duration=20.0,
            eval_start_s=5.0, seeds=Seeds(wind=3, noise=4, excitation=5),
            events=(ScenarioEvent(t_pitch, "collective_pitch", 60.0),),
            sprc=SprcConfig(ident_duration_s=4.0))
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
        if controller == "sprc-1p2p":
            assert sum(np.isfinite(t.gain_norm) for t in record.rotations) >= 10
            assert not any(t.fault for t in record.rotations)
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
