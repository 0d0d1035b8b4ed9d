"""Turbine surrogate and exact LTI simulation.

Two halves live here: a discrete innovation-form LTI model used as ground
truth for identification tests, and a physics-lite two-bladed turbine with
azimuth-periodic root-bending loads, a 15 Hz first-order pitch servo, and
a first-order rotor-speed response.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

TS_DEFAULT = 1.0 / 200.0  # 200 Hz control rate
SERVO_BANDWIDTH_HZ = 15.0
RPM_TO_RADS = 2.0 * np.pi / 60.0
N_BLADES = 2  # the loads, Coleman transform, CSV export and SPRC assume two


@dataclass(frozen=True)
class StateSpaceModel:
    """Discrete LTI innovation model x+ = Ax + Bu + Ed + Ke, y = Cx + Fd + e."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray
    F: np.ndarray
    K: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def r(self) -> int:
        return self.B.shape[1]

    @property
    def l(self) -> int:
        return self.C.shape[0]

    @property
    def m(self) -> int:
        return self.E.shape[1]

    @property
    def A_tilde(self) -> np.ndarray:
        """Predictor-form transition matrix A - K C."""
        return self.A - self.K @ self.C

    def validate(self) -> None:
        n, r, l, m = self.n, self.r, self.l, self.m
        shapes = {
            "A": (self.A, (n, n)), "B": (self.B, (n, r)), "C": (self.C, (l, n)),
            "E": (self.E, (n, m)), "F": (self.F, (l, m)), "K": (self.K, (n, l)),
        }
        for name, (mat, want) in shapes.items():
            if mat.shape != want:
                raise ValueError(f"{name} has shape {mat.shape}, expected {want}")
        if r != l:
            raise ValueError("basis projection requires r == l")
        if spectral_radius(self.A) >= 1.0:
            raise ValueError("A must be asymptotically stable")
        if spectral_radius(self.A_tilde) >= 1.0:
            raise ValueError("A - KC must be asymptotically stable")

    def markov_parameters(self, past_window: int) -> np.ndarray:
        """Exact [C At^{p-1}B ... CB | C At^{p-1}K ... CK] for comparison."""
        At = self.A_tilde
        blocks_u, blocks_y = [], []
        power = np.eye(self.n)
        for _ in range(past_window):
            blocks_u.append(self.C @ power @ self.B)
            blocks_y.append(self.C @ power @ self.K)
            power = power @ At
        return np.hstack(blocks_u[::-1] + blocks_y[::-1])


def spectral_radius(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def simulate_lti(model: StateSpaceModel, u: np.ndarray, d: np.ndarray,
                 e: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
    """Run the state recursion and return the output sequence (N x l)."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    d = np.atleast_2d(np.asarray(d, dtype=float))
    e = np.atleast_2d(np.asarray(e, dtype=float))
    steps = len(u)
    if len(d) != steps or len(e) != steps:
        raise ValueError("u, d, e must have equal length")
    if u.shape[1] != model.r or d.shape[1] != model.m or e.shape[1] != model.l:
        raise ValueError("input dimensions do not match model")
    x = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (model.n,):
        raise ValueError("x0 dimension does not match model")

    y = np.empty((steps, model.l))
    for k in range(steps):
        y[k] = model.C @ x + model.F @ d[k] + e[k]
        x = model.A @ x + model.B @ u[k] + model.E @ d[k] + model.K @ e[k]
    return y


def make_benchmark_plant(seed: int, n: int = 4, r: int = 2, l: int = 2,
                         m: int = 2, radius: float = 0.35,
                         max_tries: int = 50) -> StateSpaceModel:
    """Random stable, controllable, observable innovation model.

    Eigenvalues of both A and A - KC are scaled inside the given radius so
    Markov parameters decay fast enough for short past windows.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if r != l:
        raise ValueError("benchmark plant requires r == l")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        A = rng.standard_normal((n, n))
        A *= radius / spectral_radius(A)
        B = rng.standard_normal((n, r))
        C = rng.standard_normal((l, n))
        E = rng.standard_normal((n, m))
        F = rng.standard_normal((l, m))
        K = 0.1 * rng.standard_normal((n, l))
        model = StateSpaceModel(A=A, B=B, C=C, E=E, F=F, K=K)
        if spectral_radius(model.A_tilde) >= radius * 1.8:
            continue
        if not (_full_rank_ctrb(A, B) and _full_rank_ctrb(A.T, C.T)):
            continue
        model.validate()
        return model
    raise RuntimeError("failed to generate a valid benchmark plant")


def _full_rank_ctrb(A: np.ndarray, B: np.ndarray) -> bool:
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks)) == n


@dataclass(frozen=True)
class LoadModel:
    """Per-blade Fourier load content plus pitch/turbulence sensitivities.

    Magnitudes are surrogate choices (the paper reports loads in MFC
    volts); only relative load metrics are compared to it. Blade 2 is
    slightly heavier and phase-shifted to model rotor imbalance.
    """

    mean_nm: float = 0.5
    amp_1p_nm: float = 1.0
    amp_2p_nm: float = 0.4
    phase_1p_rad: float = 0.4
    phase_2p_rad: float = 1.1
    blade2_amp_ratio: float = 1.1
    blade2_phase_shift_rad: float = 0.1
    phase_per_collective_rad_per_deg: float = 0.3
    pitch_gain_nm_per_deg: float = -0.8
    wind_gain_nm_per_mps: float = 1.0
    # Rotational sampling: each blade sees the turbulence modulated by its
    # own azimuth, so part of the wind load is differential near 1P.
    wind_1p_modulation: float = 0.8
    noise_std_nm: float = 0.36
    wind_ref_mps: float = 5.0

    def periodic_load(self, blade_azimuth: float, collective_deg: float,
                      amp_scale: float) -> float:
        """Azimuth-periodic component for one blade at its own azimuth."""
        shift = self.phase_per_collective_rad_per_deg * collective_deg
        return (self.mean_nm
                + amp_scale * self.amp_1p_nm
                * np.cos(blade_azimuth + self.phase_1p_rad + shift)
                + amp_scale * self.amp_2p_nm
                * np.cos(2.0 * blade_azimuth + self.phase_2p_rad + shift))


@dataclass(frozen=True)
class RotorModel:
    """First-order rotor speed response toward an affine steady state.

    Calibrated so (5 m/s, 2 deg collective) sits at 230 rpm with a pitch
    sensitivity matching a 30 rpm drop over an 8 deg collective step.
    """

    tau_s: float = 2.0
    rpm_per_mps: float = 80.0
    rpm_per_deg: float = -3.75
    rpm_offset: float = 230.0 - 80.0 * 5.0 - (-3.75) * 2.0
    min_rpm: float = 30.0

    def __post_init__(self):
        if self.tau_s <= 0.0:
            raise ValueError("tau_s: must be positive")

    def steady_rpm(self, wind_mps: float, collective_deg: float) -> float:
        rpm = (self.rpm_offset + self.rpm_per_mps * wind_mps
               + self.rpm_per_deg * collective_deg)
        return max(rpm, self.min_rpm)


@dataclass(frozen=True)
class TurbineParams:
    """Full surrogate turbine parameterization (a config's `plant` block)."""

    ts: float = TS_DEFAULT
    servo_bandwidth_hz: float = SERVO_BANDWIDTH_HZ
    wind_lowpass_tau_s: float = 10.0
    loads: LoadModel = field(default_factory=LoadModel)
    rotor: RotorModel = field(default_factory=RotorModel)

    def __post_init__(self):
        for name in ("ts", "servo_bandwidth_hz", "wind_lowpass_tau_s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name}: must be positive")

    @property
    def servo_pole(self) -> float:
        """Discrete pole of the first-order pitch servo lag."""
        return float(np.exp(-2.0 * np.pi * self.servo_bandwidth_hz * self.ts))


@dataclass(frozen=True)
class TurbineState:
    """Value-semantics turbine state; stepping returns a new instance."""

    azimuth: float  # rad in [0, 2pi)
    omega: float  # rad/s
    servo_pitch: np.ndarray  # deg, one lag state per blade
    rotation_count: int
    collective_pitch: float  # deg
    wind_lp: float  # low-passed wind speed, m/s

    @classmethod
    def initial(cls, params: TurbineParams, wind_mps: float,
                collective_deg: float = 2.0) -> "TurbineState":
        omega = params.rotor.steady_rpm(wind_mps, collective_deg) * RPM_TO_RADS
        return cls(azimuth=0.0, omega=omega,
                   servo_pitch=np.full(N_BLADES, collective_deg),
                   rotation_count=0, collective_pitch=collective_deg,
                   wind_lp=wind_mps)


def turbine_step(state: TurbineState, params: TurbineParams,
                 pitch_cmd: np.ndarray, wind_sample: float,
                 rng: np.random.Generator | None = None
                 ) -> tuple[np.ndarray, TurbineState]:
    """Advance the turbine one sample; returns (blade loads, new state).

    Loads combine the azimuth-periodic Fourier content (scaled with the
    slow wind level), the pitch-to-load gain acting on the lagged servo
    pitch, the broadband wind fluctuation, and measurement noise.
    """
    ts = params.ts
    pitch_cmd = np.asarray(pitch_cmd, dtype=float)
    if pitch_cmd.shape != (N_BLADES,):
        raise ValueError("pitch command must have one entry per blade")

    loads_model = params.loads
    # Servo: first-order lag toward the command.
    a = params.servo_pole
    servo = a * state.servo_pitch + (1.0 - a) * pitch_cmd

    # Slow wind level for amplitude scaling and fluctuation reference.
    b = ts / params.wind_lowpass_tau_s
    wind_lp = state.wind_lp + b * (wind_sample - state.wind_lp)
    amp_scale = (wind_lp / loads_model.wind_ref_mps) ** 2
    fluctuation = wind_sample - wind_lp

    blade_azimuths = state.azimuth + np.arange(N_BLADES) * (
        2.0 * np.pi / N_BLADES)
    loads = np.empty(N_BLADES)
    for i, az in enumerate(blade_azimuths):
        periodic = loads_model.periodic_load(az, state.collective_pitch, amp_scale)
        if i == 1:
            periodic = (loads_model.mean_nm
                        + loads_model.blade2_amp_ratio
                        * (loads_model.periodic_load(
                            az + loads_model.blade2_phase_shift_rad,
                            state.collective_pitch, amp_scale)
                           - loads_model.mean_nm))
        wind_factor = 1.0 + loads_model.wind_1p_modulation * np.cos(az)
        loads[i] = (periodic
                    + loads_model.pitch_gain_nm_per_deg
                    * (servo[i] - state.collective_pitch)
                    + loads_model.wind_gain_nm_per_mps * wind_factor
                    * fluctuation)
    if rng is not None and loads_model.noise_std_nm > 0.0:
        loads += loads_model.noise_std_nm * rng.standard_normal(N_BLADES)

    # Rotor speed relaxes toward the affine steady state; generator torque
    # only enters through that operating point (no drivetrain elasticity).
    omega_ss = params.rotor.steady_rpm(wind_sample, state.collective_pitch)
    omega_ss *= RPM_TO_RADS
    omega = state.omega + ts / params.rotor.tau_s * (omega_ss - state.omega)

    azimuth = state.azimuth + omega * ts
    rotation_count = state.rotation_count
    if azimuth >= 2.0 * np.pi:
        azimuth -= 2.0 * np.pi
        rotation_count += 1

    new_state = replace(state, azimuth=azimuth, omega=omega, servo_pitch=servo,
                        rotation_count=rotation_count, wind_lp=wind_lp)
    return loads, new_state
