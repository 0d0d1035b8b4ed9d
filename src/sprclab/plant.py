"""Turbine surrogate and exact LTI simulation.

Two halves live here: a discrete innovation-form LTI model used as ground
truth for identification tests, and a physics-lite two-bladed turbine with
azimuth-periodic root-bending loads, a 15 Hz first-order pitch servo, and
a first-order rotor-speed response. `open_loop` computes ahead of a run
everything of it that the pitch command does not reach; `close_loop` then
runs the controller, the servo lag and the pitch term of the loads, sample
by sample.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property

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

    def __post_init__(self):
        if self.noise_std_nm < 0.0:
            raise ValueError("noise_std_nm: must be non-negative")
        if self.wind_ref_mps <= 0.0:
            raise ValueError("wind_ref_mps: must be positive")

    def periodic_load(self, blade_azimuth, collective_deg, amp_scale):
        """Azimuth-periodic component for one blade at its own azimuth.

        Takes scalars or equal-shaped arrays (one entry per sample).
        """
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
    Generator torque only enters through that operating point (no
    drivetrain elasticity).
    """

    tau_s: float = 2.0
    rpm_per_mps: float = 80.0
    rpm_per_deg: float = -3.75
    rpm_offset: float = 230.0 - 80.0 * 5.0 - (-3.75) * 2.0
    min_rpm: float = 30.0

    def __post_init__(self):
        for name in ("tau_s", "min_rpm"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name}: must be positive")

    def steady_rpm(self, wind_mps, collective_deg):
        """Steady rotor speed (rpm), floored at `min_rpm`.

        Takes scalars or equal-shaped arrays (one entry per sample).
        """
        rpm = (self.rpm_offset + self.rpm_per_mps * wind_mps
               + self.rpm_per_deg * collective_deg)
        return np.maximum(rpm, self.min_rpm)


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
        if self.ts > TS_DEFAULT:
            # The wind synthesis needs a rate of at least 200 Hz.
            raise ValueError(f"ts: must be at most {TS_DEFAULT} s")
        # A lag with ts / tau above 1 overshoots its target; above 2, diverges.
        for name, tau in (("wind_lowpass_tau_s", self.wind_lowpass_tau_s),
                          ("rotor.tau_s", self.rotor.tau_s)):
            if tau < self.ts:
                raise ValueError(f"{name}: must be at least ts ({self.ts:g} s)")

    @cached_property
    def servo_pole(self) -> float:
        """Discrete pole of the first-order pitch servo lag."""
        return float(np.exp(-2.0 * np.pi * self.servo_bandwidth_hz * self.ts))


@dataclass(frozen=True)
class TurbineState:
    """The turbine's state before a sample; a run starts from `initial`."""

    azimuth: float  # rad in [0, 2pi)
    omega: float  # rad/s
    servo_pitch: np.ndarray  # deg, one lag state per blade
    wind_lp: float  # low-passed wind speed, m/s

    @classmethod
    def initial(cls, params: TurbineParams, wind_mps: float,
                collective_deg: float = 2.0) -> "TurbineState":
        omega = params.rotor.steady_rpm(wind_mps, collective_deg) * RPM_TO_RADS
        return cls(azimuth=0.0, omega=omega,
                   servo_pitch=np.full(N_BLADES, collective_deg),
                   wind_lp=wind_mps)


def float_rows(*columns: np.ndarray):
    """Rows of equal-length arrays as Python floats, 1024 at a time.

    Per-sample loops read plain floats far faster than numpy scalars; a
    chunk at a time keeps a whole run's rows from existing as Python
    objects at once, which would take megabytes.
    """
    for start in range(0, len(columns[0]), 1024):
        yield from zip(*(c[start:start + 1024].tolist() for c in columns))


@dataclass(frozen=True)
class OpenLoop:
    """The parts of a run the pitch command does not reach, per sample.

    Row k holds the rotor state before sample k and the terms of the
    sample-k blade loads that do not depend on the servo pitch.
    `close_loop` adds the servo term between `periodic` and `wind_term`.
    """

    azimuth: np.ndarray  # rad, N
    omega: np.ndarray  # rad/s, N
    periodic: np.ndarray  # N x 2 (N m)
    wind_term: np.ndarray  # N x 2 (N m)
    noise: np.ndarray  # N x 2 (N m)


def open_loop(params: TurbineParams, initial: TurbineState, wind: np.ndarray,
              collective: np.ndarray, rng: np.random.Generator) -> OpenLoop:
    """What the turbine does under the wind and collective alone.

    The steady rotor speed reads only the inputs, so it is one array
    expression. The wind low-pass, rotor speed and azimuth are sequential,
    so they run as one scalar recursion on Python floats; the amplitude
    scale is squared there too, because `**` on a float calls libm `pow`,
    while numpy's array `** 2` multiplies and can differ in the last bit.
    The loads are then formed on whole arrays, and the noise is one draw of
    all samples, which yields the same numbers as one draw per sample.
    """
    ts = params.ts
    lm, rotor = params.loads, params.rotor
    b = ts / params.wind_lowpass_tau_s
    relax = ts / rotor.tau_s
    wind_ref = lm.wind_ref_mps
    two_pi = 2.0 * np.pi
    omega_ss = rotor.steady_rpm(wind, collective) * RPM_TO_RADS
    azimuth, omega, wind_lp = initial.azimuth, initial.omega, initial.wind_lp
    # array("d") keeps 8 bytes a sample, where a list keeps a float object.
    azimuths, omegas, lowpassed, amp_scale = (array("d") for _ in range(4))
    put_azimuth, put_omega = azimuths.append, omegas.append
    put_lowpassed, put_amp = lowpassed.append, amp_scale.append
    try:
        for wind_sample, target in float_rows(wind, omega_ss):
            put_azimuth(azimuth)
            put_omega(omega)
            wind_lp = wind_lp + b * (wind_sample - wind_lp)
            put_lowpassed(wind_lp)
            put_amp((wind_lp / wind_ref) ** 2)
            omega = omega + relax * (target - omega)
            azimuth = azimuth + omega * ts
            if azimuth >= two_pi:
                azimuth -= two_pi
    except OverflowError:  # float `**` raises it; it does not return inf
        raise ArithmeticError(f"plant.loads.wind_ref_mps: ({wind_lp:g} / "
                              f"{wind_ref:g} m/s) ** 2 overflows") from None

    azimuths = np.array(azimuths)
    # Blade 2 sits half a turn ahead; it is heavier and phase-shifted.
    blades = azimuths[:, None] + np.array([0.0, np.pi])
    amp = np.array(amp_scale)
    periodic = np.column_stack((
        lm.periodic_load(blades[:, 0], collective, amp),
        lm.mean_nm + lm.blade2_amp_ratio
        * (lm.periodic_load(blades[:, 1] + lm.blade2_phase_shift_rad,
                            collective, amp) - lm.mean_nm)))
    fluctuation = wind - np.array(lowpassed)
    wind_term = (lm.wind_gain_nm_per_mps
                 * (1.0 + lm.wind_1p_modulation * np.cos(blades))
                 * fluctuation[:, None])
    if lm.noise_std_nm > 0.0:
        noise = lm.noise_std_nm * rng.standard_normal((len(wind), N_BLADES))
    else:
        noise = np.zeros((len(wind), N_BLADES))
    return OpenLoop(azimuth=azimuths, omega=np.array(omegas),
                    periodic=periodic, wind_term=wind_term, noise=noise)


def close_loop(params: TurbineParams, rotor: OpenLoop, collective: np.ndarray,
               servo_pitch: np.ndarray, step) -> tuple[np.ndarray, np.ndarray]:
    """Run the controller through the servo lag; returns (pitch, loads).

    `step(loads, azimuth, omega)` sees the previous sample's blade loads
    (zeros before the first) and returns the IPC pitch of both blades,
    added to the collective. Each servo lags toward its command from
    `servo_pitch`, and the loads add `gain * (servo - collective)` between
    the open-loop `periodic` and `wind_term`. Both outputs are N x 2.
    """
    a = params.servo_pole
    lag = 1.0 - a
    gain = params.loads.pitch_gain_nm_per_deg
    servo1, servo2 = servo_pitch.tolist()
    n = len(collective)
    pitch = np.zeros((n, N_BLADES))
    loads = np.zeros((n, N_BLADES))
    # Element writes of Python floats through memoryviews: a numpy row
    # write per sample would cost more than the servo and load update.
    pitch_out, loads_out = memoryview(pitch), memoryview(loads)
    y1 = y2 = 0.0
    # One plain float per blade, in flat columns: numpy's per-call cost on
    # two-element arrays would be most of the loop's time.
    for k, (psi, omega, coll, p1, p2, w1, w2, e1, e2) in enumerate(
            float_rows(rotor.azimuth, rotor.omega, collective,
                       *rotor.periodic.T, *rotor.wind_term.T,
                       *rotor.noise.T)):
        u1, u2 = step((y1, y2), psi, omega)
        servo1 = a * servo1 + lag * (coll + u1)
        servo2 = a * servo2 + lag * (coll + u2)
        y1 = p1 + gain * (servo1 - coll) + w1 + e1
        y2 = p2 + gain * (servo2 - coll) + w2 + e2
        pitch_out[k, 0], pitch_out[k, 1] = u1, u2
        loads_out[k, 0], loads_out[k, 1] = y1, y2
    return pitch, loads
