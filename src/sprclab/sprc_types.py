"""SPRC tuning and telemetry types, importable without SciPy.

Configs and records name these types at import time; only building an
`SprcController` (`sprclab.sprc`) needs `scipy.linalg`, so commands that run
no SPRC never load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SprcConfig:
    """Tuning for the SPRC loop (defaults target the surrogate turbine)."""

    past_window: int = 20
    forgetting: float = 0.99999
    r_weight: float = 3.0
    alpha: float = 1.0
    beta: float = 0.5
    ident_duration_s: float = 30.0
    excitation_amplitude_deg: float = 1.5
    period_fraction: float = 0.9

    def __post_init__(self):
        for name, ok, rule in (
                ("past_window", self.past_window >= 1, "be at least 1"),
                ("forgetting", 0.0 < self.forgetting <= 1.0, "lie in (0, 1]"),
                ("period_fraction", 0.0 < self.period_fraction <= 1.0,
                 "lie in (0, 1]"),
                ("alpha", 0.0 <= self.alpha <= 1.0, "lie in [0, 1]"),
                ("beta", 0.0 <= self.beta <= 1.0, "lie in [0, 1]"),
                ("r_weight", self.r_weight > 0.0, "be positive"),
                ("ident_duration_s", self.ident_duration_s >= 0.0,
                 "be non-negative"),
                ("excitation_amplitude_deg",
                 self.excitation_amplitude_deg >= 0.0, "be non-negative")):
            if not ok:
                raise ValueError(f"{name}: must {rule}")

    def period(self, rotation_samples: float) -> int:
        """The controller's period (samples) for a rotation that long."""
        return int(np.floor(self.period_fraction * rotation_samples))


@dataclass(frozen=True)
class RotationTelemetry:
    """Per-rotation controller telemetry, built once at the boundary.

    `dare_residual` is the rotation's Riccati step residual. It and
    `gain_norm` are NaN on a rotation that synthesized nothing: an
    identification rotation, the first control rotation, or a failed
    synthesis. `fault` flags a failed synthesis or a refused fold row.
    """

    time_s: float
    theta: np.ndarray
    delta_theta_norm: float
    dare_residual: float
    gain_norm: float
    fault: bool
