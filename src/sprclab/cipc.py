"""Conventional IPC benchmark: Coleman transform, notch, PI, inverse.

For a two-bladed rotor the Coleman transform only sees the differential
load; symmetric components are invisible to it, which is the known
structural limitation of this benchmark. Rotating 1P loads map to DC plus
a 2P ripple in the fixed frame, so the ripple is notched before the PI
integrators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
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


class _Channel:
    """One fixed-frame channel: a 2P notch, then PI with anti-windup.

    The notch is a second-order IIR with retunable center frequency. Its
    taps and the integrator are Python floats, and the tuning is read into
    floats once: numpy's per-call cost on scalars, or an attribute chain
    per sample, would be most of the step's time.
    """

    def __init__(self, config: CipcConfig, ts: float):
        self.ts = ts
        self._kp, self._ki = config.kp, config.ki
        self._limit = config.pitch_limit_deg
        self._rho2 = config.notch_pole_radius * config.notch_pole_radius
        self.integrator = 0.0
        self._x1 = self._x2 = self._y1 = self._y2 = 0.0

    def step(self, x: float, b1: float, a1: float, k: float) -> float:
        """Filter and integrate one sample; returns the channel command.

        With c the cosine of the notch angle omega0*Ts and rho the pole
        radius, b1 = 2c and a1 = 2 rho c are the notch's tap weights and k
        the gain that normalizes it to unity DC gain.
        """
        y = (k * (x - b1 * self._x1 + self._x2)
             + a1 * self._y1 - self._rho2 * self._y2)
        self._x2, self._x1 = self._x1, x
        self._y2, self._y1 = self._y1, y
        error = -y
        integ = self.integrator + error * self.ts
        kp, ki = self._kp, self._ki
        cmd = kp * error + ki * integ
        # Anti-windup: clamp the integrator at the pitch limits.
        if abs(cmd) > self._limit and ki != 0.0:
            integ = (math.copysign(self._limit, cmd) - kp * error) / ki
            cmd = kp * error + ki * integ
        self.integrator = integ
        return cmd


class CipcController:
    """Forward Coleman -> 2P notch -> PI per channel -> inverse Coleman."""

    def __init__(self, config: CipcConfig | None = None,
                 ts: float = 1.0 / 200.0):
        if ts <= 0.0:
            raise ValueError("Ts must be positive")
        self.config = config or CipcConfig()
        self.ts = ts
        self.telemetry: list = []  # CIPC keeps no per-rotation record
        self.tilt = _Channel(self.config, ts)
        self.yaw = _Channel(self.config, ts)
        self._tilt_step, self._yaw_step = self.tilt.step, self.yaw.step
        rho = self.config.notch_pole_radius
        self._two_rho, self._rho2 = 2.0 * rho, rho * rho
        self._max_angle = math.pi * 0.9

    def step(self, loads, azimuth: float, omega: float) -> tuple[float, float]:
        """One control sample; omega (rad/s) sets the 2P notch center.

        `loads` is any pair of floats, and so is the returned command. The
        Coleman transform and its inverse share each blade's cos and sin.
        """
        m1, m2 = loads
        c1, s1 = math.cos(azimuth), math.sin(azimuth)
        c2, s2 = math.cos(azimuth + math.pi), math.sin(azimuth + math.pi)
        # The notch coefficients both channels share; the angle is capped
        # as min(angle, cap) would, without the builtin call.
        angle, cap = 2.0 * omega * self.ts, self._max_angle
        c = math.cos(cap if cap < angle else angle)
        b1, a1 = 2.0 * c, self._two_rho * c
        k = (1.0 - a1 + self._rho2) / (2.0 - b1)
        tilt = self._tilt_step(m1 * c1 + m2 * c2, b1, a1, k)
        yaw = self._yaw_step(m1 * s1 + m2 * s2, b1, a1, k)
        return tilt * c1 + yaw * s1, tilt * c2 + yaw * s2
