"""Lifted repetitive control with sinusoidal basis projection.

Per rotation, the identified Markov parameters are lifted into a period-P
predictor, projected onto quadrature sinusoid pairs at the rotor harmonics,
and an LQR gain is synthesized by fixed-point DARE iteration. The per-sample
pitch command reconstructs the sinusoids from the measured azimuth, so the
phase reference is azimuth rather than time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .plant import N_BLADES, TS_DEFAULT
from .sysid import DeltaBuffer, MarkovEstimate, NumericError


def _quadrature_rows(angles: np.ndarray, harmonics: tuple[int, ...]) -> np.ndarray:
    """Rows [sin(h a), cos(h a) for h in harmonics] for each angle."""
    cols = []
    for h in harmonics:
        cols.append(np.sin(h * angles))
        cols.append(np.cos(h * angles))
    return np.column_stack(cols)


@dataclass(frozen=True)
class BasisMatrix:
    """Sinusoidal basis phi over one period and its pseudoinverse."""

    phi: np.ndarray
    pinv: np.ndarray
    period: int
    n_inputs: int
    harmonics: tuple[int, ...]

    @property
    def n_params(self) -> int:
        return self.phi.shape[1]


def build_basis(period: int, n_inputs: int,
                harmonics: tuple[int, ...] = (1, 2)) -> BasisMatrix:
    """Basis with row block i = [sin(2pi h i/P), cos(2pi h i/P)] kron I_r.

    Row blocks run i = 1..P, so the last block sits at the full angles
    2pi h. Requires P > 8 for the quadrature columns to be independent.
    """
    if period <= 8:
        raise ValueError("period must exceed 8 samples")
    if n_inputs < 1:
        raise ValueError("need at least one input")
    angles = 2.0 * np.pi * np.arange(1, period + 1) / period
    core = _quadrature_rows(angles, harmonics)
    phi = np.kron(core, np.eye(n_inputs))
    return BasisMatrix(phi=phi, pinv=np.linalg.pinv(phi), period=period,
                       n_inputs=n_inputs, harmonics=harmonics)


def basis_rows(angles: np.ndarray, n_channels: int,
               harmonics: tuple[int, ...] = (1, 2)) -> np.ndarray:
    """Basis rows evaluated at arbitrary azimuths (non-uniform sampling)."""
    core = _quadrature_rows(np.asarray(angles, dtype=float), harmonics)
    return np.kron(core, np.eye(n_channels))


def control_sample(theta: np.ndarray, azimuth: float, n_inputs: int,
                   harmonics: tuple[int, ...] = (1, 2)) -> np.ndarray:
    """Per-sample input u = ([sin psi, cos psi, sin 2psi, ...] kron I_r) theta.

    The kron row is never formed: theta, reshaped to one row of r
    amplitudes per basis function, is weighted by the sinusoids directly.
    """
    core = np.array([f(h * azimuth) for h in harmonics
                     for f in (math.sin, math.cos)])
    return core @ theta.reshape(-1, n_inputs)


@dataclass(frozen=True)
class LiftedPredictor:
    """Period-lifted predictor Y_{k+P} = Y_k + GKu dU_k + GKy dY_k + H dU_{k+P}.

    With Gt the strictly block-lower Toeplitz matrix of the output Markov
    blocks, GKu = (I - Gt)^{-1} GKu_t, and likewise for GKy and H. The
    predictor keeps I - Gt and the unsolved right-hand sides, so a caller
    that only needs products with a few columns solves for those alone.
    """

    ig: np.ndarray     # I - Gt, unit block-lower-triangular, (l P) x (l P)
    gku_t: np.ndarray  # (l P) x (r P)
    gky_t: np.ndarray  # (l P) x (l P)
    ht: np.ndarray     # (l P) x (r P)
    period: int
    past_window: int

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(I - Gt)^{-1} rhs by forward substitution."""
        return solve_triangular(self.ig, rhs, lower=True, unit_diagonal=True)

    @property
    def gku(self) -> np.ndarray:
        return self.solve(self.gku_t)

    @property
    def gky(self) -> np.ndarray:
        return self.solve(self.gky_t)

    @property
    def h(self) -> np.ndarray:
        return self.solve(self.ht)


def assemble_predictor(markov: np.ndarray, past_window: int, period: int,
                       n_inputs: int, n_outputs: int) -> LiftedPredictor:
    """Build the lifted predictor from the Markov estimate alone.

    Markov block q (lag q + 1) fills block subdiagonal q + 1 of Gt and H,
    and the top-right corner blocks (i, i + P - 1 - q) of GKu_t and GKy_t,
    written by index on (P, l, P, .) views of the lifted matrices.
    """
    p, P, r, l = past_window, period, n_inputs, n_outputs
    if P < p:
        raise ValueError("period must be at least the past window")
    if markov.shape != (l, (r + l) * p):
        raise ValueError("Markov matrix has the wrong shape")

    # Blocks indexed by lag - 1: the Markov matrix stores the oldest first.
    mu = markov[:, :r * p].reshape(l, p, r).transpose(1, 0, 2)[::-1]
    my = markov[:, r * p:].reshape(l, p, l).transpose(1, 0, 2)[::-1]
    i, j = np.indices((P, P))
    lag = i - j
    sub = (lag >= 1) & (lag <= p)      # strict block subdiagonals 1..p
    top = (-lag >= P - p)              # top-right corner blocks
    si, sj, sq = i[sub], j[sub], lag[sub] - 1
    ci, cj, cq = i[top], j[top], P - 1 + lag[top]

    ht = np.zeros((P, l, P, r))
    gt = np.zeros((P, l, P, l))
    gku_t = np.zeros((P, l, P, r))
    gky_t = np.zeros((P, l, P, l))
    ht[si, :, sj, :] = mu[sq]
    gt[si, :, sj, :] = my[sq]
    gku_t[ci, :, cj, :] = mu[cq]
    gky_t[ci, :, cj, :] = my[cq]
    return LiftedPredictor(ig=np.eye(l * P) - gt.reshape(l * P, l * P),
                           gku_t=gku_t.reshape(l * P, r * P),
                           gky_t=gky_t.reshape(l * P, l * P),
                           ht=ht.reshape(l * P, r * P),
                           period=P, past_window=p)


def project_predictor(lp: LiftedPredictor,
                      basis: BasisMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Project the lifted system onto the basis; returns (Abar, Bbar).

    pinv (I - Gt)^{-1} X phi is formed as pinv (I - Gt)^{-1} (X phi): one
    triangular solve against the 3 nb projected columns of GKu_t, GKy_t
    and Ht instead of three solves against their full lifted width.
    The lifted state is [Ybar; dtheta; dYbar]; with two harmonics and
    r = l the projected transition matrix is 12l x 12l.
    """
    if lp.gku_t.shape != lp.gky_t.shape:
        raise ValueError("projection requires as many inputs as outputs")
    nb = basis.n_params
    phi = basis.phi
    solved = lp.solve(np.hstack([lp.gku_t @ phi, lp.gky_t @ phi,
                                 lp.ht @ phi]))
    pu, py, ph = np.hsplit(basis.pinv @ solved, 3)
    eye = np.eye(nb)
    zero = np.zeros((nb, nb))
    abar = np.block([
        [eye, pu, py],
        [zero, zero, zero],
        [zero, pu, py],
    ])
    bbar = np.vstack([ph, eye, ph])
    return abar, bbar


def dare_step(p_riccati: np.ndarray, abar: np.ndarray, bbar: np.ndarray,
              q_weight: np.ndarray, r_weight: np.ndarray) -> np.ndarray:
    """One fixed-point iteration of the discrete algebraic Riccati recursion."""
    s = r_weight + bbar.T @ p_riccati @ bbar
    gain_term = p_riccati @ bbar @ np.linalg.solve(s, bbar.T @ p_riccati)
    nxt = q_weight + abar.T @ (p_riccati - gain_term) @ abar
    return 0.5 * (nxt + nxt.T)


def solve_dare(abar: np.ndarray, bbar: np.ndarray, q_weight: np.ndarray,
               r_weight: np.ndarray, p0: np.ndarray | None = None,
               max_iterations: int = 500,
               tol: float = 1e-10) -> tuple[np.ndarray, int, float]:
    """Iterate dare_step to a fixed point; returns (P, iterations, residual)."""
    p_riccati = q_weight.copy() if p0 is None else p0.copy()
    residual = np.inf
    for it in range(1, max_iterations + 1):
        nxt = dare_step(p_riccati, abar, bbar, q_weight, r_weight)
        residual = np.linalg.norm(nxt - p_riccati, "fro") / (
            1.0 + np.linalg.norm(p_riccati, "fro"))
        p_riccati = nxt
        if residual < tol:
            break
    return p_riccati, it, float(residual)


def feedback_gain(p_riccati: np.ndarray, abar: np.ndarray, bbar: np.ndarray,
                  r_weight: np.ndarray) -> np.ndarray:
    """K_f = (R + B'PB)^{-1} B'PA."""
    s = r_weight + bbar.T @ p_riccati @ bbar
    return np.linalg.solve(s, bbar.T @ p_riccati @ abar)


def update_theta(theta: np.ndarray, delta_theta: np.ndarray, ybar: np.ndarray,
                 delta_ybar: np.ndarray, kf: np.ndarray, alpha: float,
                 beta: float) -> tuple[np.ndarray, np.ndarray]:
    """theta_{j+1} = alpha theta_j - beta K_f [Ybar; dtheta; dYbar]."""
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError("alpha and beta must lie in [0, 1]")
    x = np.concatenate([ybar, delta_theta, delta_ybar])
    theta_next = alpha * theta - beta * (kf @ x)
    return theta_next, theta_next - theta


@dataclass
class SprcConfig:
    """Tuning for the SPRC loop (defaults target the surrogate turbine)."""

    past_window: int = 20
    forgetting: float = 0.99999
    q_weight: float = 1.0
    r_weight: float = 3.0
    alpha: float = 1.0
    beta: float = 0.5
    dare_iterations: int = 50
    ident_duration_s: float = 30.0
    excitation_amplitude_deg: float = 1.5
    period_fraction: float = 0.9


@dataclass
class RotationTelemetry:
    """Per-rotation controller telemetry streamed into experiment records."""

    time_s: float = 0.0
    theta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    delta_theta_norm: float = 0.0
    dare_residual: float = float("nan")
    gain_norm: float = float("nan")
    fault: bool = False


class SprcController:
    """Azimuth-indexed SPRC: per-sample output, per-rotation synthesis.

    The first `ident_duration_s` of a run excite the basis amplitudes with
    seeded random phases while feedback is off; afterwards each azimuth
    wrap triggers predictor assembly, projection, DARE iteration and the
    theta update, and the new sequence is swapped in for the next rotation.
    The run supplies the basis harmonics, the sample time and the
    excitation seed; `config` holds only the tuning.
    """

    def __init__(self, config: SprcConfig, nominal_rotation_samples: float,
                 *, harmonics: tuple[int, ...] = (1, 2),
                 ts: float = TS_DEFAULT, excitation_seed: int = 2):
        self.config = config
        self.harmonics = harmonics
        self.ts = ts
        if nominal_rotation_samples <= 0:
            raise ValueError("nominal rotation period must be positive")
        self.period = int(np.floor(config.period_fraction
                                   * nominal_rotation_samples))
        if self.period <= max(8, config.past_window):
            raise ValueError("rotation period too short for the basis/window")
        r = N_BLADES
        self.basis = build_basis(self.period, r, harmonics)
        nb = self.basis.n_params
        self.buffer = DeltaBuffer(self.period, config.past_window, r, r)
        self.markov = MarkovEstimate(r, r, config.past_window,
                                     forgetting=config.forgetting)
        self.theta = np.zeros(nb)
        self.delta_theta = np.zeros(nb)
        self.ybar = np.zeros(nb)
        self.delta_ybar = np.zeros(nb)
        self.p_riccati = np.eye(3 * nb) * config.q_weight
        self._q = np.eye(3 * nb) * config.q_weight
        self._r = np.eye(nb) * config.r_weight
        self._rng = np.random.default_rng(excitation_seed)
        self._prev_azimuth: float | None = None
        self._recent: list[tuple[float, np.ndarray]] = []  # (psi, y), last P
        self._sample = 0
        self._control_active = False
        self._had_control_rotation = False
        self.telemetry: list[RotationTelemetry] = []
        self._draw_excitation()

    def _draw_excitation(self) -> None:
        """Random-phase excitation at the basis harmonics, fixed amplitude."""
        amp = self.config.excitation_amplitude_deg
        r = N_BLADES
        theta = np.zeros(self.basis.n_params)
        for h in range(len(self.harmonics)):
            for i in range(r):
                phase = self._rng.uniform(0.0, 2.0 * np.pi)
                theta[(2 * h) * r + i] = amp * np.cos(phase)
                theta[(2 * h + 1) * r + i] = amp * np.sin(phase)
        self.theta = theta
        self.delta_theta = np.zeros_like(theta)

    @property
    def in_identification_phase(self) -> bool:
        return self._sample * self.ts < self.config.ident_duration_s

    def step(self, loads: np.ndarray, azimuth: float,
             omega: float) -> np.ndarray:
        """Process one sample; returns the per-blade pitch command (deg).

        Commands are indexed by azimuth alone, so `omega` is not read.
        """
        y = np.asarray(loads, dtype=float)
        wrapped = (self._prev_azimuth is not None
                   and azimuth < self._prev_azimuth)
        if wrapped:
            self._on_rotation_boundary()
        self._prev_azimuth = azimuth

        u = control_sample(self.theta, azimuth, N_BLADES, self.harmonics)
        self.buffer.push(u, y)
        if self.buffer.ready:
            try:
                self.markov.update(self.buffer.regressor(),
                                   self.buffer.delta_y())
            except NumericError:
                self._flag_fault()
        self._recent.append((azimuth, y))
        self._sample += 1
        return u

    def _on_rotation_boundary(self) -> None:
        tel = RotationTelemetry(time_s=self._sample * self.ts)
        ybar = self._estimate_ybar()
        if ybar is not None:
            self.delta_ybar = ybar - self.ybar
            self.ybar = ybar

        if self.in_identification_phase:
            self._draw_excitation()
        else:
            if not self._had_control_rotation:
                # Feedback begins from rest, not from the last excitation.
                self.theta = np.zeros_like(self.theta)
                self.delta_theta = np.zeros_like(self.theta)
                self._had_control_rotation = True
            else:
                self._synthesize(tel)
        tel.theta = self.theta.copy()
        tel.delta_theta_norm = float(np.linalg.norm(self.delta_theta))
        self.telemetry.append(tel)

    def _estimate_ybar(self) -> np.ndarray | None:
        """Project the completed rotation onto the azimuth-aligned basis.

        Rows are evaluated at the recorded azimuths (tolerating rotor speed
        variation) and a DC column is fitted alongside so the mean load
        cannot leak into the harmonic coefficients; only the harmonic part
        is returned.
        """
        if len(self._recent) < max(8, self.basis.n_params):
            self._recent.clear()
            return None
        angles = np.array([a for a, _ in self._recent])
        stacked = np.concatenate([y for _, y in self._recent])
        self._recent.clear()
        rows = basis_rows(angles, N_BLADES, self.harmonics)
        dc = np.kron(np.ones((len(angles), 1)), np.eye(N_BLADES))
        coeffs, *_ = np.linalg.lstsq(np.hstack([rows, dc]), stacked, rcond=None)
        return coeffs[:self.basis.n_params]

    def _synthesize(self, tel: RotationTelemetry) -> None:
        cfg = self.config
        try:
            markov = self.markov.estimate
            lp = assemble_predictor(markov, cfg.past_window, self.period,
                                    N_BLADES, N_BLADES)
            abar, bbar = project_predictor(lp, self.basis)
            p_r, _, residual = solve_dare(
                abar, bbar, self._q, self._r, p0=self.p_riccati,
                max_iterations=cfg.dare_iterations)
            kf = feedback_gain(p_r, abar, bbar, self._r)
            theta, dtheta = update_theta(self.theta, self.delta_theta,
                                         self.ybar, self.delta_ybar, kf,
                                         cfg.alpha, cfg.beta)
            if not np.all(np.isfinite(theta)):
                raise NumericError("non-finite theta")
        except (NumericError, np.linalg.LinAlgError):
            self._flag_fault(tel)
            return
        self.p_riccati = p_r
        self.theta = theta
        self.delta_theta = dtheta
        tel.dare_residual = residual
        tel.gain_norm = float(np.linalg.norm(kf))

    def _flag_fault(self, tel: RotationTelemetry | None = None) -> None:
        # Fail safe: hold the last good theta and mark the rotation.
        if tel is not None:
            tel.fault = True
        elif self.telemetry:
            self.telemetry[-1].fault = True
