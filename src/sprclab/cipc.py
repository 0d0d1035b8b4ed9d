"""Conventional IPC benchmark: Coleman transform, notch, PI, inverse.

For a two-bladed rotor the Coleman transform only sees the differential
load; symmetric components are invisible to it, which is the known
structural limitation of this benchmark. Rotating 1P loads map to DC plus
a 2P ripple in the fixed frame, so the ripple is notched before the PI
integrators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def coleman_forward(loads: np.ndarray, azimuth: float) -> tuple[float, float]:
    """Fixed-frame (tilt, yaw) moments from two blade loads at psi, psi+pi."""
    m1, m2 = loads
    tilt = m1 * np.cos(azimuth) + m2 * np.cos(azimuth + np.pi)
    yaw = m1 * np.sin(azimuth) + m2 * np.sin(azimuth + np.pi)
    return float(tilt), float(yaw)


def coleman_inverse(tilt_cmd: float, yaw_cmd: float,
                    azimuth: float) -> np.ndarray:
    """Per-blade pitch from fixed-frame commands; blade 2 sits at psi+pi."""
    b1 = tilt_cmd * np.cos(azimuth) + yaw_cmd * np.sin(azimuth)
    b2 = tilt_cmd * np.cos(azimuth + np.pi) + yaw_cmd * np.sin(azimuth + np.pi)
    return np.array([b1, b2])


class _Notch:
    """Second-order IIR notch with retunable center frequency."""

    def __init__(self, pole_radius: float):
        self.pole_radius = pole_radius
        self._x = np.zeros(2)
        self._y = np.zeros(2)

    def step(self, x: float, center_rad: float) -> float:
        """Filter one sample; `center_rad` is the notch angle omega0*Ts."""
        c = np.cos(center_rad)
        rho = self.pole_radius
        # Unity DC gain normalization.
        k = (1.0 - 2.0 * rho * c + rho * rho) / (2.0 - 2.0 * c)
        y = (k * (x - 2.0 * c * self._x[0] + self._x[1])
             + 2.0 * rho * c * self._y[0] - rho * rho * self._y[1])
        self._x[1], self._x[0] = self._x[0], x
        self._y[1], self._y[0] = self._y[0], y
        return y


@dataclass
class CipcConfig:
    """PI and notch tuning; gains are fixed across all scenarios.

    The gains were tuned once on the surrogate at the low-turbulence
    5 m/s operating point and then frozen. Their sign absorbs the
    negative pitch-to-load gain of the plant.
    """

    kp: float = -0.9
    ki: float = -2.0
    notch_pole_radius: float = 0.9
    pitch_limit_deg: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.notch_pole_radius < 1.0:
            raise ValueError("notch_pole_radius: must lie in (0, 1)")
        if self.pitch_limit_deg <= 0.0:
            raise ValueError("pitch_limit_deg: must be positive")


class CipcController:
    """Forward Coleman -> 2P notch -> PI per channel -> inverse Coleman."""

    def __init__(self, config: CipcConfig | None = None,
                 ts: float = 1.0 / 200.0):
        if ts <= 0.0:
            raise ValueError("Ts must be positive")
        self.config = config or CipcConfig()
        self.ts = ts
        self.telemetry: list = []  # CIPC keeps no per-rotation record
        # Tilt and yaw channel states.
        self.integrator = np.zeros(2)
        self.notches = [_Notch(self.config.notch_pole_radius) for _ in range(2)]

    def step(self, loads: np.ndarray, azimuth: float,
             omega: float) -> np.ndarray:
        """One control sample; omega (rad/s) sets the 2P notch center."""
        cfg = self.config
        tilt, yaw = coleman_forward(loads, azimuth)
        center = min(2.0 * omega * self.ts, np.pi * 0.9)
        commands = np.empty(2)
        for i, raw in enumerate((tilt, yaw)):
            filtered = self.notches[i].step(raw, center)
            error = -filtered
            integ = self.integrator[i] + error * self.ts
            cmd = cfg.kp * error + cfg.ki * integ
            # Anti-windup: clamp the integrator at the pitch limits.
            if abs(cmd) > cfg.pitch_limit_deg and cfg.ki != 0.0:
                integ = (np.sign(cmd) * cfg.pitch_limit_deg
                         - cfg.kp * error) / cfg.ki
                cmd = cfg.kp * error + cfg.ki * integ
            self.integrator[i] = integ
            commands[i] = cmd
        return coleman_inverse(commands[0], commands[1], azimuth)
