"""Tests for the conventional IPC benchmark controller."""

import numpy as np
import pytest

from sprclab.cipc import CipcConfig, CipcController

TS = 1.0 / 200.0


class _ReferenceNotch:
    """The numpy notch the float channel replaced, kept as its oracle."""

    def __init__(self, pole_radius: float):
        self.pole_radius = pole_radius
        self._x = np.zeros(2)
        self._y = np.zeros(2)

    def step(self, x: float, center_rad: float) -> float:
        c = np.cos(center_rad)
        rho = self.pole_radius
        k = (1.0 - 2.0 * rho * c + rho * rho) / (2.0 - 2.0 * c)
        y = (k * (x - 2.0 * c * self._x[0] + self._x[1])
             + 2.0 * rho * c * self._y[0] - rho * rho * self._y[1])
        self._x[1], self._x[0] = self._x[0], x
        self._y[1], self._y[0] = self._y[0], y
        return y


class _ReferenceCipc:
    """The numpy CipcController.step the float step replaced."""

    def __init__(self, config: CipcConfig, ts: float):
        self.config = config
        self.ts = ts
        self.integrator = np.zeros(2)
        self.notches = [_ReferenceNotch(config.notch_pole_radius)
                        for _ in range(2)]

    def step(self, loads: np.ndarray, azimuth: float,
             omega: float) -> np.ndarray:
        cfg = self.config
        m1, m2 = loads
        tilt = float(m1 * np.cos(azimuth) + m2 * np.cos(azimuth + np.pi))
        yaw = float(m1 * np.sin(azimuth) + m2 * np.sin(azimuth + np.pi))
        center = min(2.0 * omega * self.ts, np.pi * 0.9)
        commands = np.empty(2)
        for i, raw in enumerate((tilt, yaw)):
            filtered = self.notches[i].step(raw, center)
            error = -filtered
            integ = self.integrator[i] + error * self.ts
            cmd = cfg.kp * error + cfg.ki * integ
            if abs(cmd) > cfg.pitch_limit_deg and cfg.ki != 0.0:
                integ = (np.sign(cmd) * cfg.pitch_limit_deg
                         - cfg.kp * error) / cfg.ki
                cmd = cfg.kp * error + cfg.ki * integ
            self.integrator[i] = integ
            commands[i] = cmd
        c0, c1 = commands
        return np.array([
            c0 * np.cos(azimuth) + c1 * np.sin(azimuth),
            c0 * np.cos(azimuth + np.pi) + c1 * np.sin(azimuth + np.pi)])


class TestColemanForward:
    """The forward transform as CipcController.step applies it."""

    def test_symmetric_loads_invisible(self):
        # Equal blade loads have no differential part: at every azimuth
        # the tilt and yaw inputs, and so the command, stay at rounding.
        ctrl = CipcController(ts=TS)
        psi = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, 5000)
        u = [ctrl.step((3.0, 3.0), p, 24.0) for p in psi]
        np.testing.assert_allclose(u, 0.0, atol=1e-12)


class TestColemanInverse:
    """The inverse transform as CipcController.step applies it."""

    def test_blade_symmetry(self):
        # Blade 2 sits at psi + pi, so its command is blade 1's negated.
        rng = np.random.default_rng(5)
        n = 5000
        ctrl = CipcController(ts=TS)
        u = np.array([ctrl.step(tuple(y), psi, w) for y, psi, w in zip(
            rng.standard_normal((n, 2)).tolist(),
            rng.uniform(0.0, 2.0 * np.pi, n), rng.uniform(15.0, 35.0, n))])
        np.testing.assert_allclose(u[:, 1], -u[:, 0], rtol=0.0,
                                   atol=1e-12 * np.abs(u).max())


class TestController:
    def test_zero_loads_zero_pitch(self):
        ctrl = CipcController(ts=TS)
        for k in range(100):
            u = ctrl.step(np.zeros(2), 0.1 * k, 24.0)
            np.testing.assert_array_equal(u, np.zeros(2))
        assert (ctrl.tilt.integrator, ctrl.yaw.integrator) == (0.0, 0.0)

    def test_constant_tilt_integrator_ramps_to_limit(self):
        # A persistent fixed-frame disturbance with no plant feedback makes
        # the integral action ramp until the anti-windup clamp engages.
        cfg = CipcConfig()
        ctrl = CipcController(cfg, ts=TS)
        omega = 24.0
        mags = []
        for k in range(20000):
            psi = (omega * TS * k) % (2.0 * np.pi)
            loads = np.array([np.cos(psi), -np.cos(psi)])  # constant tilt
            u = ctrl.step(loads, psi, omega)
            mags.append(np.max(np.abs(u)))
        # The clamp acts per fixed-frame channel; the recombined blade
        # pitch can exceed it only by the residual of the other channel.
        assert max(mags) <= cfg.pitch_limit_deg * 1.01
        assert mags[-1] == pytest.approx(cfg.pitch_limit_deg *
                                         abs(np.cos((omega * TS * 19999)
                                                    % (2.0 * np.pi))), rel=0.05)

    def test_closed_loop_cancels_differential_1p(self):
        # Synthetic loop: the differential 1P load responds to the blade
        # pitch through a static negative gain. Integral action drives the
        # residual 1P component down by more than 90%.
        gain = -0.8
        ctrl = CipcController(ts=TS)
        omega = 24.0
        servo_pole = np.exp(-2.0 * np.pi * 15.0 * TS)
        u = np.zeros(2)
        servo = np.zeros(2)
        residual = []
        for k in range(30000):
            psi = (omega * TS * k) % (2.0 * np.pi)
            servo = servo_pole * servo + (1.0 - servo_pole) * u
            loads = np.array([np.cos(psi + 0.4) + gain * servo[0],
                              -np.cos(psi + 0.4) + gain * servo[1]])
            residual.append(loads.copy())
            u = np.array(ctrl.step(loads, psi, omega))
        residual = np.array(residual)
        open_var = 0.5  # variance of the unit-amplitude 1P load
        closed_var = residual[-5000:].var(axis=0).mean()
        assert closed_var < 0.1 * open_var

    def test_invalid_ts_rejected(self):
        with pytest.raises(ValueError):
            CipcController(ts=0.0)

    def test_notch_removes_2p_ripple(self):
        # Pure differential 1P load: after the notch the PI sees only the
        # DC part, so the commands settle to clean 1P pitch sinusoids.
        ctrl = CipcController(ts=TS)
        omega = 24.0
        cmds = []
        for k in range(30000):
            psi = (omega * TS * k) % (2.0 * np.pi)
            loads = np.array([np.cos(psi), -np.cos(psi)])
            cmds.append(ctrl.step(loads, psi, omega)[0])
        tail = np.array(cmds[-8000:])
        spectrum = np.abs(np.fft.rfft(tail - tail.mean()))**2
        f = np.fft.rfftfreq(len(tail), TS)
        f1 = omega / (2.0 * np.pi)
        band_1p = (f > 0.8 * f1) & (f < 1.2 * f1)
        assert spectrum[band_1p].sum() / spectrum.sum() > 0.95


class TestFloatStepOracle:
    """The float step against the numpy reference, bitwise."""

    @staticmethod
    def _compare(cfg, loads, azimuth, omega):
        ctrl, ref = CipcController(cfg, ts=TS), _ReferenceCipc(cfg, TS)
        got = np.array([ctrl.step(tuple(y), psi, w)
                        for y, psi, w in zip(loads.tolist(), azimuth, omega)])
        want = np.array([ref.step(y, psi, w)
                         for y, psi, w in zip(loads, azimuth, omega)])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            [ctrl.tilt.integrator, ctrl.yaw.integrator], ref.integrator)
        return got

    def test_turbulent_loads_with_varying_omega(self):
        rng = np.random.default_rng(11)
        n = 30000
        # Rotor speed wanders over 15-35 rad/s, so the notch retunes every
        # sample; at the top the 2P center reaches the 0.9 pi cap.
        omega = 25.0 + 10.0 * np.sin(np.arange(n) * 2e-4) \
            + 0.5 * rng.standard_normal(n)
        omega[::997] = 400.0
        azimuth = np.cumsum(omega * TS) % (2.0 * np.pi)
        loads = (np.column_stack((np.cos(azimuth), -np.cos(azimuth)))
                 + 0.7 * rng.standard_normal((n, 2)))
        self._compare(CipcConfig(), loads, azimuth, omega)

    def test_anti_windup_clamp_engaged(self):
        # The constant-tilt case: the integrator ramps until the clamp
        # holds both channels at the limit, with either sign.
        cfg = CipcConfig(pitch_limit_deg=2.0)
        n = 30000
        omega = np.full(n, 24.0)
        azimuth = (omega * TS * np.arange(n)) % (2.0 * np.pi)
        sign = np.where(np.arange(n) < n // 2, 1.0, -1.0)[:, None]
        loads = sign * np.column_stack((np.cos(azimuth) + np.sin(azimuth),
                                        -np.cos(azimuth) - np.sin(azimuth)))
        got = self._compare(cfg, loads, azimuth, omega)
        # Unclamped, the integrators would ramp without bound; clamped,
        # the two channel commands recombine to at most sqrt(2) x limit.
        for half in (got[:n // 2], got[n // 2:]):
            peak = np.abs(half).max()
            assert cfg.pitch_limit_deg < peak
            assert peak <= np.sqrt(2.0) * cfg.pitch_limit_deg * (1 + 1e-12)
