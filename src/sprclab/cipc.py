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


def _blade_trig(azimuth: float) -> tuple[float, float, float, float]:
    """cos and sin of blade 1 at psi, then of blade 2 at psi + pi."""
    return (math.cos(azimuth), math.sin(azimuth),
            math.cos(azimuth + math.pi), math.sin(azimuth + math.pi))


def coleman_forward(loads, azimuth: float) -> tuple[float, float]:
    """Fixed-frame (tilt, yaw) moments from two blade loads at psi, psi+pi."""
    m1, m2 = loads
    c1, s1, c2, s2 = _blade_trig(azimuth)
    return float(m1 * c1 + m2 * c2), float(m1 * s1 + m2 * s2)


def coleman_inverse(tilt_cmd: float, yaw_cmd: float,
                    azimuth: float) -> tuple[float, float]:
    """Per-blade pitch from fixed-frame commands; blade 2 sits at psi+pi."""
    c1, s1, c2, s2 = _blade_trig(azimuth)
    return tilt_cmd * c1 + yaw_cmd * s1, tilt_cmd * c2 + yaw_cmd * s2


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
    taps and the integrator are Python floats: numpy's per-call cost on
    scalars would be most of the step's time.
    """

    def __init__(self, config: CipcConfig, ts: float):
        self.config = config
        self.ts = ts
        self.integrator = 0.0
        self._x1 = self._x2 = self._y1 = self._y2 = 0.0

    def step(self, x: float, c: float, k: float) -> float:
        """Filter and integrate one sample; returns the channel command.

        c is the cosine of the notch angle omega0*Ts and k the gain that
        normalizes the notch to unity DC gain.
        """
        cfg = self.config
        rho = cfg.notch_pole_radius
        y = (k * (x - 2.0 * c * self._x1 + self._x2)
             + 2.0 * rho * c * self._y1 - rho * rho * self._y2)
        self._x2, self._x1 = self._x1, x
        self._y2, self._y1 = self._y1, y
        error = -y
        integ = self.integrator + error * self.ts
        cmd = cfg.kp * error + cfg.ki * integ
        # Anti-windup: clamp the integrator at the pitch limits.
        if abs(cmd) > cfg.pitch_limit_deg and cfg.ki != 0.0:
            integ = (math.copysign(cfg.pitch_limit_deg, cmd)
                     - cfg.kp * error) / cfg.ki
            cmd = cfg.kp * error + cfg.ki * integ
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

    def step(self, loads, azimuth: float, omega: float) -> tuple[float, float]:
        """One control sample; omega (rad/s) sets the 2P notch center.

        `loads` is any pair of floats, and so is the returned command. The
        step applies `coleman_forward` and `coleman_inverse` inline, so
        the blade angles' cos and sin are evaluated once.
        """
        m1, m2 = loads
        c1, s1, c2, s2 = _blade_trig(azimuth)
        # The notch coefficients both channels share.
        c = math.cos(min(2.0 * omega * self.ts, math.pi * 0.9))
        rho = self.config.notch_pole_radius
        k = (1.0 - 2.0 * rho * c + rho * rho) / (2.0 - 2.0 * c)
        tilt = self.tilt.step(m1 * c1 + m2 * c2, c, k)
        yaw = self.yaw.step(m1 * s1 + m2 * s2, c, k)
        return tilt * c1 + yaw * s1, tilt * c2 + yaw * s2
