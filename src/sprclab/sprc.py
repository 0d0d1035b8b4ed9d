"""Lifted repetitive control with sinusoidal basis projection.

Per rotation, the identified Markov parameters are lifted into a period-P
predictor, projected onto quadrature sinusoid pairs at the rotor harmonics,
and an LQR gain is synthesized by fixed-point DARE iteration. The per-sample
pitch command reconstructs the sinusoids from the measured azimuth, so the
phase reference is azimuth rather than time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .plant import N_BLADES, TS_DEFAULT
from .sysid import DeltaBuffer, MarkovEstimate, NumericError


@dataclass(frozen=True)
class BasisMatrix:
    """Sinusoidal basis phi over one period and its pseudoinverse."""

    phi: np.ndarray
    pinv: np.ndarray

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
    phi = basis_rows(angles, n_inputs, harmonics)
    return BasisMatrix(phi=phi, pinv=np.linalg.pinv(phi))


def basis_rows(angles: np.ndarray, n_channels: int,
               harmonics: tuple[int, ...] = (1, 2)) -> np.ndarray:
    """Rows [sin(h a), cos(h a) for h in harmonics] kron I_r at each azimuth.

    The azimuths may be sampled non-uniformly.
    """
    angles = np.asarray(angles, dtype=float)
    core = np.column_stack([f(h * angles) for h in harmonics
                            for f in (np.sin, np.cos)])
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

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(I - Gt)^{-1} rhs by forward substitution."""
        return solve_triangular(self.ig, rhs, lower=True, unit_diagonal=True)


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
                           ht=ht.reshape(l * P, r * P))


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
    """One fixed-point iteration of the discrete algebraic Riccati recursion.

    P is symmetric, so B'P is (PB)': PB is formed once, and
    (R + B'PB)^{-1} (PB)' takes one LU solve, LAPACK's dgesv as in
    np.linalg.solve.
    """
    pb = p_riccati @ bbar
    _, _, x, info = lapack.dgesv(r_weight + bbar.T @ pb, pb.T)
    if info > 0:
        raise np.linalg.LinAlgError("singular Riccati gain matrix")
    nxt = q_weight + abar.T @ (p_riccati - pb @ x) @ abar
    return 0.5 * (nxt + nxt.T)


def solve_dare(abar: np.ndarray, bbar: np.ndarray, q_weight: np.ndarray,
               r_weight: np.ndarray, p0: np.ndarray | None = None,
               max_iterations: int = 500,
               tol: float = 1e-10) -> tuple[np.ndarray, int, float]:
    """Iterate dare_step to a fixed point; returns (P, iterations, residual)."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    p_riccati = q_weight.copy() if p0 is None else p0.copy()
    residual = np.inf
    for it in range(1, max_iterations + 1):
        nxt = dare_step(p_riccati, abar, bbar, q_weight, r_weight)
        # Frobenius norms as in np.linalg.norm, without its dispatch.
        d, p = (nxt - p_riccati).ravel(), p_riccati.ravel()
        residual = math.sqrt(d @ d) / (1.0 + math.sqrt(p @ p))
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


@dataclass(frozen=True)
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

    def __post_init__(self):
        for name, ok, rule in (
                ("past_window", self.past_window >= 1, "be at least 1"),
                ("dare_iterations", self.dare_iterations >= 1,
                 "be at least 1"),
                ("forgetting", 0.0 < self.forgetting <= 1.0, "lie in (0, 1]"),
                ("period_fraction", 0.0 < self.period_fraction <= 1.0,
                 "lie in (0, 1]"),
                ("alpha", 0.0 <= self.alpha <= 1.0, "lie in [0, 1]"),
                ("beta", 0.0 <= self.beta <= 1.0, "lie in [0, 1]"),
                ("q_weight", self.q_weight >= 0.0, "be non-negative"),
                ("r_weight", self.r_weight > 0.0, "be positive"),
                ("ident_duration_s", self.ident_duration_s >= 0.0,
                 "be non-negative"),
                ("excitation_amplitude_deg",
                 self.excitation_amplitude_deg >= 0.0, "be non-negative")):
            if not ok:
                raise ValueError(f"{name}: must {rule}")


@dataclass(frozen=True)
class RotationTelemetry:
    """Per-rotation controller telemetry, built once at the boundary.

    `dare_residual` and `gain_norm` are NaN on a rotation that synthesized
    nothing: an identification rotation, the first control rotation, or a
    failed synthesis. `fault` flags a failed synthesis or a refused fold row.
    """

    time_s: float
    theta: np.ndarray
    delta_theta_norm: float
    dare_residual: float
    gain_norm: float
    fault: bool


class SprcController:
    """Azimuth-indexed SPRC: per-sample output, per-rotation synthesis.

    A sample only emits the pitch command and is recorded. Each azimuth
    wrap folds the completed rotation into the Markov estimate in one QR
    update and fits its load harmonics. The first `ident_duration_s` of a
    run excite the basis amplitudes with seeded random phases while
    feedback is off; afterwards each wrap also triggers predictor
    assembly, projection, DARE iteration and the theta update, and the new
    sequence is swapped in for the next rotation.
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
        self.deltas = DeltaBuffer(self.period, config.past_window, r, r)
        self.markov = MarkovEstimate(r, r, config.past_window,
                                     forgetting=config.forgetting)
        self.ybar = np.zeros(nb)
        self.delta_ybar = np.zeros(nb)
        self._q = np.eye(3 * nb) * config.q_weight
        self._r = np.eye(nb) * config.r_weight
        self.p_riccati = self._q  # solve_dare copies p0; _q is never mutated
        self._rng = np.random.default_rng(excitation_seed)
        self._prev_azimuth = -math.inf
        # (psi, u1, u2, y1, y2) of every sample since the last boundary.
        self._rotation = array("d")
        self._sample = 0
        self._had_control_rotation = False
        self.telemetry: list[RotationTelemetry] = []
        self._set_theta(self._excitation(), np.zeros(nb))

    def _set_theta(self, theta: np.ndarray, delta_theta: np.ndarray) -> None:
        """The one writer of theta, delta_theta and `_terms`: theta as one
        float tuple (h, sin amplitudes, cos amplitudes of both blades) per
        harmonic h, so the per-sample command needs no numpy call."""
        self.theta = theta
        self.delta_theta = delta_theta
        self._terms = [(h, *row) for h, row in zip(
            self.harmonics, theta.reshape(-1, 2 * N_BLADES).tolist())]

    def _excitation(self) -> np.ndarray:
        """Random-phase excitation at the basis harmonics, fixed amplitude:
        one phase per harmonic and blade, whose cos and sin fill the two
        basis functions of its harmonic."""
        phase = self._rng.uniform(0.0, 2.0 * np.pi,
                                  (len(self.harmonics), 1, N_BLADES))
        return self.config.excitation_amplitude_deg * np.concatenate(
            (np.cos(phase), np.sin(phase)), axis=1).ravel()

    def step(self, loads, azimuth: float, omega: float) -> tuple[float, float]:
        """Process one sample; returns the per-blade pitch command (deg).

        `loads` is any pair of floats, and so is the returned command.
        Commands are indexed by azimuth alone, so `omega` is not read. The
        sample is only recorded here; the rotation boundary identifies from
        the whole rotation at once. u is `control_sample` on Python floats.
        """
        if azimuth < self._prev_azimuth:
            self._on_rotation_boundary()
        self._prev_azimuth = azimuth

        u1 = u2 = 0.0
        for h, s1, s2, c1, c2 in self._terms:
            s, c = math.sin(h * azimuth), math.cos(h * azimuth)
            u1 += s * s1 + c * c1
            u2 += s * s2 + c * c2
        y1, y2 = loads
        self._rotation.extend((azimuth, u1, u2, y1, y2))
        self._sample += 1
        return u1, u2

    def _on_rotation_boundary(self) -> None:
        rows = np.frombuffer(self._rotation).reshape(-1, 5)
        self._rotation = array("d")
        psi, u, y = rows[:, 0], rows[:, 1:3], rows[:, 3:]
        # One QR fold of the rotation's rows; a refused (non-finite) row
        # flags this record.
        fault = self.markov.fold(*self.deltas.extend(u, y)) > 0
        ybar = self._estimate_ybar(psi, y)
        if ybar is not None:
            self.delta_ybar = ybar - self.ybar
            self.ybar = ybar

        residual = gain_norm = math.nan
        if self._sample * self.ts < self.config.ident_duration_s:
            self._set_theta(self._excitation(), np.zeros_like(self.theta))
        elif not self._had_control_rotation:
            # Feedback begins from rest, not from the last excitation.
            self._set_theta(np.zeros_like(self.theta),
                            np.zeros_like(self.theta))
            self._had_control_rotation = True
        else:
            try:
                residual, gain_norm = self._synthesize()
            except (NumericError, np.linalg.LinAlgError):
                # Fail safe: hold the last good theta and mark the rotation.
                fault = True
        self.telemetry.append(RotationTelemetry(
            time_s=self._sample * self.ts, theta=self.theta.copy(),
            delta_theta_norm=float(np.linalg.norm(self.delta_theta)),
            dare_residual=residual, gain_norm=gain_norm, fault=fault))

    def _estimate_ybar(self, angles: np.ndarray,
                       loads: np.ndarray) -> np.ndarray | None:
        """Project the completed rotation onto the azimuth-aligned basis.

        Rows are evaluated at the recorded azimuths (tolerating rotor speed
        variation) and a DC column is fitted alongside so the mean load
        cannot leak into the harmonic coefficients; only the harmonic part
        is returned. The kron'd basis is block-diagonal across blades, so
        one fit of the scalar rows against all blades' loads at once gives
        its coefficients, in its order once raveled.
        """
        if len(angles) < max(8, self.basis.n_params):
            return None
        rows = basis_rows(angles, 1, self.harmonics)
        dc = np.ones((len(angles), 1))
        coeffs, *_ = np.linalg.lstsq(np.hstack([rows, dc]), loads,
                                     rcond=None)
        return coeffs[:-1].ravel()

    def _synthesize(self) -> tuple[float, float]:
        """Commit the next theta and P; returns (dare_residual, gain_norm).

        Raises NumericError or LinAlgError with all state unchanged."""
        cfg = self.config
        lp = assemble_predictor(self.markov.estimate, cfg.past_window,
                                self.period, N_BLADES, N_BLADES)
        abar, bbar = project_predictor(lp, self.basis)
        p_r, _, residual = solve_dare(abar, bbar, self._q, self._r,
                                      p0=self.p_riccati,
                                      max_iterations=cfg.dare_iterations)
        kf = feedback_gain(p_r, abar, bbar, self._r)
        theta, dtheta = update_theta(self.theta, self.delta_theta, self.ybar,
                                     self.delta_ybar, kf, cfg.alpha, cfg.beta)
        if not np.all(np.isfinite(theta)):
            raise NumericError("non-finite theta")
        self.p_riccati = p_r
        self._set_theta(theta, dtheta)
        return residual, float(np.linalg.norm(kf))
