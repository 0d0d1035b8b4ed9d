"""Lifted repetitive control with sinusoidal basis projection.

Per rotation, the identified Markov parameters are lifted into a period-P
predictor, projected onto quadrature sinusoid pairs at the rotor harmonics,
and the LQR gain comes from one Riccati step from the last rotation's
solution, so the Riccati matrix tracks the moving estimate. The per-sample
pitch command reconstructs the sinusoids from the measured azimuth, so the
phase reference is azimuth rather than time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas, lapack

from .plant import N_BLADES, TS_DEFAULT
from .sprc_types import RotationTelemetry, SprcConfig
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
    predictor keeps I - Gt and the Markov matrix. The projection reads only
    those two, so the unsolved right-hand sides GKu_t, GKy_t and Ht are
    built from the Markov blocks on first access.
    """

    ig: np.ndarray      # I - Gt, unit block-lower-triangular, (l P) x (l P)
    markov: np.ndarray  # l x ((r + l) p), as `MarkovEstimate` stores it
    n_inputs: int

    @property
    def period(self) -> int:
        return len(self.ig) // len(self.markov)

    @property
    def past_window(self) -> int:
        return self.markov.shape[1] // (self.n_inputs + len(self.markov))

    def _blocks(self, inputs: bool) -> np.ndarray:
        """(l, p, .) input or output Markov blocks, oldest first."""
        l, rp = len(self.markov), self.n_inputs * self.past_window
        part = self.markov[:, :rp] if inputs else self.markov[:, rp:]
        return part.reshape(l, self.past_window, -1)

    @cached_property
    def gku_t(self) -> np.ndarray:  # (l P) x (r P)
        return _block_toeplitz(self._blocks(True), self.period,
                               1 - self.period)

    @cached_property
    def gky_t(self) -> np.ndarray:  # (l P) x (l P)
        return _block_toeplitz(self._blocks(False), self.period,
                               1 - self.period)

    @cached_property
    def ht(self) -> np.ndarray:  # (l P) x (r P)
        return _block_toeplitz(self._blocks(True), self.period, 1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(I - Gt)^{-1} rhs by forward substitution, one column at a time.

        ig.T is ig's Fortran-ordered transpose, so BLAS reads it in place
        and solves with its transpose."""
        return np.column_stack([
            blas.dtrsv(self.ig.T, col, trans=1, diag=1)
            for col in np.asarray(rhs, dtype=float).T])


def assemble_predictor(markov: np.ndarray, past_window: int, period: int,
                       n_inputs: int, n_outputs: int) -> LiftedPredictor:
    """Build the lifted predictor from the Markov estimate alone.

    Markov block q (lag q + 1) fills block subdiagonal q + 1 of Gt and H,
    and the top-right corner blocks (i, i + P - 1 - q) of GKu_t and GKy_t:
    each of the four is a block-Toeplitz view of one zero-padded sequence.
    Only I - Gt is formed here.
    """
    p, P, r, l = past_window, period, n_inputs, n_outputs
    if P < p:
        raise ValueError("period must be at least the past window")
    if markov.shape != (l, (r + l) * p):
        raise ValueError("Markov matrix has the wrong shape")

    my = markov[:, r * p:].reshape(l, p, l)
    return LiftedPredictor(ig=np.eye(l * P) - _block_toeplitz(my, P, 1),
                           markov=markov, n_inputs=r)


def _block_toeplitz(blocks: np.ndarray, period: int,
                    first_lag: int) -> np.ndarray:
    """(l P) x (m P) matrix whose block (i, j) is the lag-(q + 1) block of
    the (l, p, m) `blocks`, oldest first, where i - j = first_lag + q, else 0.

    The blocks sit in one zero sequence down the diagonals P to 1 - P, and
    block row i is its window of P entries from diagonal i, so each row of
    the result is one contiguous run of it. Diagonal P, outside the matrix,
    holds the lag-P block when p = P and first_lag = 1."""
    l, p, m = blocks.shape
    diagonals = np.zeros((l, 2 * period, m))
    diagonals[:, period + 1 - first_lag - p:period + 1 - first_lag] = blocks
    rows = sliding_window_view(diagonals[:, 1:], period, axis=1)[:, ::-1]
    return rows.transpose(1, 0, 3, 2).reshape(l * period, m * period)


def lag_map(basis: BasisMatrix, period: int, past_window: int) -> np.ndarray:
    """The map L with Markov @ L = [GKu_t phi, GKy_t phi, Ht phi], rearranged.

    Row block k (lag p - k, oldest first, as the Markov matrix stores its
    blocks) and column block (i, s, .) hold the phi block row that the
    lifted matrix s puts beside Markov block k in block row i: phi_{i+P-1-q}
    for GKu_t and GKy_t, phi_{i-1-q} for Ht, with q = p - 1 - k, or zero
    outside the period. It depends only on (P, p, phi), so a controller
    builds it once. Needs as many inputs as outputs.
    """
    P, p, nb = period, past_window, basis.n_params
    r = len(basis.phi) // P
    padded = np.zeros((3 * P, r, nb))  # phi_t at P + t, zero off 0 <= t < P
    padded[P:2 * P] = basis.phi.reshape(P, r, nb)
    i_minus_q = np.arange(P) - np.arange(p - 1, -1, -1)[:, None]  # (p, P)
    corner = padded[2 * P - 1 + i_minus_q].transpose(0, 2, 1, 3)
    lags = np.zeros((2, p, r, P, 3, nb))
    lags[0, ..., 0, :] = corner
    lags[0, ..., 2, :] = padded[P - 1 + i_minus_q].transpose(0, 2, 1, 3)
    lags[1, ..., 1, :] = corner
    return lags.reshape(2 * p * r, P * 3 * nb)


def project_predictor(lp: LiftedPredictor, basis: BasisMatrix,
                      lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project the lifted system onto the basis; returns (Abar, Bbar).

    pinv (I - Gt)^{-1} X phi is formed as Z (X phi), where the nb rows of
    Z = pinv (I - Gt)^{-1} each take one BLAS level-2 solve with
    (I - Gt)', and [GKu_t phi, GKy_t phi, Ht phi] is one product of the
    Markov matrix with `lags`, the `lag_map` of the basis. OpenBLAS runs
    a level-2 solve on the calling thread at any size, so no solve wakes
    a worker thread. The lifted state is [Ybar; dtheta; dYbar]; with two
    harmonics and r = l the projected transition matrix is 12l x 12l.
    """
    l = len(lp.markov)
    if lp.n_inputs != l:
        raise ValueError("projection requires as many inputs as outputs")
    nb = basis.n_params
    P = lp.period
    # (l, P, 3 nb) products, reordered to block rows (l P) x 3 nb.
    x_phi = (lp.markov @ lags).reshape(l, P, 3 * nb).transpose(1, 0, 2)
    # ig.T is Fortran-ordered: BLAS reads (I - Gt)' in place.
    z = np.array([blas.dtrsv(lp.ig.T, row, diag=1) for row in basis.pinv])
    pu_py, ph = np.hsplit(z @ x_phi.reshape(l * P, 3 * nb), [2 * nb])
    # Abar = [I, pu, py; 0, 0, 0; 0, pu, py] and Bbar = [ph; I; ph].
    abar = np.zeros((3 * nb, 3 * nb))
    abar[:nb, :nb] = np.eye(nb)
    abar[:nb, nb:] = abar[2 * nb:, nb:] = pu_py
    bbar = np.vstack([ph, np.eye(nb), ph])
    return abar, bbar


def dare_step(p_riccati: np.ndarray, abar: np.ndarray, bbar: np.ndarray,
              q_weight: np.ndarray, r_weight: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, float]:
    """One Riccati iteration from P; returns (P_next, K_f, residual).

    P is symmetric, so B'P is (PB)': X = (R + B'PB)^{-1} (PB)' takes one LU
    solve, LAPACK's dgesv as in np.linalg.solve, and the gain at P,
    K_f = (R + B'PB)^{-1} B'PA, is X A. The residual is
    ||P_next - P||_F / (1 + ||P||_F).
    """
    pb = p_riccati @ bbar
    _, _, x, info = lapack.dgesv(r_weight + bbar.T @ pb, pb.T)
    if info > 0:
        raise np.linalg.LinAlgError("singular Riccati gain matrix")
    nxt = q_weight + abar.T @ (p_riccati - pb @ x) @ abar
    nxt = 0.5 * (nxt + nxt.T)
    # Frobenius norms as in np.linalg.norm, without its dispatch.
    d, p = (nxt - p_riccati).ravel(), p_riccati.ravel()
    return nxt, x @ abar, math.sqrt(d @ d) / (1.0 + math.sqrt(p @ p))


def solve_dare(abar: np.ndarray, bbar: np.ndarray, q_weight: np.ndarray,
               r_weight: np.ndarray, p0: np.ndarray | None = None,
               max_iterations: int = 500,
               tol: float = 1e-10) -> tuple[np.ndarray, int, float]:
    """Iterate dare_step to a fixed point, the reference for the controller's
    one step per rotation; returns (P, iterations, residual)."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    p_riccati = q_weight if p0 is None else p0
    for it in range(1, max_iterations + 1):
        p_riccati, _, residual = dare_step(p_riccati, abar, bbar, q_weight,
                                           r_weight)
        if residual < tol:
            break
    return p_riccati, it, residual


def update_theta(theta: np.ndarray, delta_theta: np.ndarray, ybar: np.ndarray,
                 delta_ybar: np.ndarray, kf: np.ndarray, alpha: float,
                 beta: float) -> tuple[np.ndarray, np.ndarray]:
    """theta_{j+1} = alpha theta_j - beta K_f [Ybar; dtheta; dYbar]."""
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError("alpha and beta must lie in [0, 1]")
    x = np.concatenate([ybar, delta_theta, delta_ybar])
    theta_next = alpha * theta - beta * (kf @ x)
    return theta_next, theta_next - theta


class SprcController:
    """Azimuth-indexed SPRC: per-sample output, per-rotation synthesis.

    A sample only emits the pitch command and is recorded. Each azimuth
    wrap folds the completed rotation into the Markov estimate in one QR
    update. The first `ident_duration_s` of a run excite the basis
    amplitudes with seeded random phases while feedback is off; afterwards
    each wrap also fits the rotation's load harmonics and triggers
    predictor assembly, projection, one Riccati step and the theta update,
    and the new sequence is swapped in for the next rotation.
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
        self.period = config.period(nominal_rotation_samples)
        if self.period <= max(8, config.past_window):
            raise ValueError("rotation period too short for the basis/window")
        r = N_BLADES
        self.basis = build_basis(self.period, r, harmonics)
        self._lags = lag_map(self.basis, self.period, config.past_window)
        nb = self.basis.n_params
        self.deltas = DeltaBuffer(self.period, config.past_window, r, r)
        self.markov = MarkovEstimate(r, r, config.past_window,
                                     forgetting=config.forgetting)
        self.ybar = np.zeros(nb)
        self.delta_ybar = np.zeros(nb)
        self._q = np.eye(3 * nb)  # Q = I: K_f depends on R relative to Q
        self._r = np.eye(nb) * config.r_weight
        self.p_riccati = self._q  # dare_step returns a new P; _q stays
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
            # An overflow is refused below: the fold drops non-finite rows,
            # synthesis raises NumericError and the metrics are checked.
            with np.errstate(over="ignore", invalid="ignore"):
                self._on_rotation_boundary()
        self._prev_azimuth = azimuth

        u1 = u2 = 0.0
        for h, s1, s2, c1, c2 in self._terms:
            s, c = math.sin(h * azimuth), math.cos(h * azimuth)
            u1 += s * s1 + c * c1
            u2 += s * s2 + c * c2
        y1, y2 = loads
        self._rotation.extend((azimuth, u1, u2, y1, y2))
        return u1, u2

    def _on_rotation_boundary(self) -> None:
        rows = np.frombuffer(self._rotation).reshape(-1, 5)
        self._rotation = array("d")
        self._sample += len(rows)
        psi, u, y = rows[:, 0], rows[:, 1:3], rows[:, 3:]
        # One QR fold of the rotation's rows; a refused (non-finite) row
        # flags this record.
        fault = self.markov.fold(*self.deltas.extend(u, y)) > 0
        identifying = self._sample * self.ts < self.config.ident_duration_s
        # ybar and delta_ybar are first read by the synthesis of the second
        # control rotation, so no identification rotation fits them.
        ybar = None if identifying else self._estimate_ybar(psi, y)
        if ybar is not None:
            self.delta_ybar = ybar - self.ybar
            self.ybar = ybar

        residual = gain_norm = math.nan
        if identifying:
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
        # The scalar rows of `basis_rows`, built in place beside the DC
        # column: [sin(h a), cos(h a) for h in harmonics, 1], then the loads.
        k = 2 * len(self.harmonics) + 1
        phases = np.multiply.outer(angles, self.harmonics)
        design = np.empty((len(angles), k + loads.shape[1]))
        design[:, 0:k - 1:2] = np.sin(phases)
        design[:, 1:k - 1:2] = np.cos(phases)
        design[:, k - 1] = 1.0
        design[:, k:] = loads
        # The normal equations [D'D | D'y] in one product. Over a rotation
        # D'D is near diagonal (condition number about 2), so its Cholesky
        # solve loses no digits that an orthogonal fit would keep.
        gram = design[:, :k].T @ design
        _, coeffs, info = lapack.dposv(gram[:, :k], gram[:, k:])
        if info > 0:  # singular: hold ybar
            return None
        return coeffs[:-1].ravel()

    def _synthesize(self) -> tuple[float, float]:
        """Commit the next theta and P after one Riccati step from the last
        rotation's P; returns the step's residual and the gain norm.

        Raises NumericError or LinAlgError with all state unchanged."""
        cfg = self.config
        lp = assemble_predictor(self.markov.estimate, cfg.past_window,
                                self.period, N_BLADES, N_BLADES)
        abar, bbar = project_predictor(lp, self.basis, self._lags)
        p_r, kf, residual = dare_step(self.p_riccati, abar, bbar, self._q,
                                      self._r)
        theta, dtheta = update_theta(self.theta, self.delta_theta, self.ybar,
                                     self.delta_ybar, kf, cfg.alpha, cfg.beta)
        # The residual is finite only if the next P is.
        if not (math.isfinite(residual) and np.all(np.isfinite(theta))):
            raise NumericError("non-finite Riccati step or theta")
        self.p_riccati = p_r
        self._set_theta(theta, dtheta)
        return residual, float(np.linalg.norm(kf))
