"""Online identification of Markov parameters from period-differenced data.

The period-P difference operator annihilates the periodic disturbance, so
the remaining input/output behavior is captured by the Markov parameter
matrix [C At^{p-1}B ... CB | C At^{p-1}K ... CK]. Data enter one way: a
block of samples goes through `DeltaBuffer.extend`, and the rows it
returns go to `MarkovEstimate.fold`, which keeps a square-root (QR)
information factor and folds the block in with one triangular-pentagonal
QR update. A batch least-squares solver serves as its oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack


class NumericError(ArithmeticError):
    """Raised when identification or synthesis yields non-finite numbers."""


class DeltaBuffer:
    """Period differences of u and y, formed a block of samples at a time.

    With du_k = u_k - u_{k-P} and dy_k = y_k - y_{k-P}, `extend` takes the
    next samples and returns, for each one with k >= P + p, the stacked
    window [du_{k-p}; ...; du_{k-1}; dy_{k-p}; ...; dy_{k-1}] whose inner
    product with the Markov matrix predicts dy_k, and the target dy_k. The
    buffer keeps only the last P + p raw samples, which the next block's
    deltas and windows reach back to; before the first P + p samples they
    are zero, and no returned row reads them.
    """

    def __init__(self, period: int, past_window: int, n_inputs: int,
                 n_outputs: int):
        if period < 1 or past_window < 1:
            raise ValueError("period and past window must be positive")
        self.period = period
        self.past_window = past_window
        self.n_inputs = n_inputs
        self._raw = np.zeros((period + past_window, n_inputs + n_outputs))
        self._count = 0

    def extend(self, u: np.ndarray, y: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Append m samples (m x r inputs, m x l outputs).

        Returns the regressor rows and the targets of the appended samples
        that are ready, oldest first: views into one fresh block of rows.
        The u half of sample k's row, [du_{k-p}; ...; du_{k-1}], is p r
        consecutive entries of du, so all the windows are one strided view
        of du, and likewise of dy; each row is written once.
        """
        P, p, r = self.period, self.past_window, self.n_inputs
        kept = len(self._raw)  # P + p
        m = len(u)
        raw = np.empty((kept + m, self._raw.shape[1]))
        raw[:kept] = self._raw
        raw[kept:, :r] = u
        raw[kept:, r:] = y
        du = raw[P:, :r] - raw[:-P, :r]  # samples count - p, ..., count + m - 1
        dy = raw[P:, r:] - raw[:-P, r:]
        l = dy.shape[1]
        first = min(m, max(0, kept - self._count))
        n = m - first
        rows = np.empty((n, (r + l) * p + l))
        rows[:, :r * p] = _windows(du, first, n, p)
        rows[:, r * p:-l] = _windows(dy, first, n, p)
        rows[:, -l:] = dy[p + first:]
        self._raw = raw[m:]
        self._count += m
        return rows[:, :-l], rows[:, -l:]


def _windows(d: np.ndarray, first: int, n: int, p: int) -> np.ndarray:
    """Rows first, ..., first + n - 1 of C-contiguous d, each with the p - 1
    rows after it, as n flattened windows: a view, each row stride apart."""
    return np.ndarray((n, p * d.shape[1]), float, d, first * d.strides[0],
                      d.strides)


class MarkovEstimate:
    """Exponentially weighted RLS for the Markov matrix via QR updates.

    The information state is one square upper-triangular factor
    [R, rhs; 0, S] of the weighted rows [regressor, target], maintained by
    orthogonal (QR) updates; no covariance inverse is ever formed. The
    estimate solves R xi' = rhs. The l x l residual block S never reaches
    the top rows, so it does not affect the estimate. `fold` takes a block
    of rows in one QR update, which is algebraically identical to
    one-row-at-a-time updates.
    """

    def __init__(self, n_inputs: int, n_outputs: int, past_window: int,
                 forgetting: float = 0.99999):
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting factor must be in (0, 1]")
        self.n_outputs = n_outputs
        self.forgetting = forgetting
        self.dim = (n_inputs + n_outputs) * past_window
        # Ridge prior 1e-6 I on the regressor block; rhs and S start at 0.
        self._factor = np.zeros((self.dim + n_outputs,) * 2)
        self._factor[:self.dim, :self.dim] = np.sqrt(1e-6) * np.eye(self.dim)

    def fold(self, regressors: np.ndarray, targets: np.ndarray) -> int:
        """Fold a block of rows in, oldest first; returns how many it refused.

        A row with a non-finite entry is refused: it is dropped, and the
        other rows are folded as if it had never been there.
        """
        m = len(regressors)
        if (np.shape(regressors)[1:] != (self.dim,)
                or np.shape(targets) != (m, self.n_outputs)):
            raise ValueError("regressor/target dimensions do not match")
        # The weighted rows [regressor, target], in the Fortran order in
        # which dtpqrt overwrites them: the fold's one copy of the rows.
        rows = np.concatenate((regressors, targets), axis=1,
                              out=np.empty((m, len(self._factor)), order="F"))
        keep = np.isfinite(rows).all(axis=1)
        refused = m - int(np.count_nonzero(keep))
        if refused:
            rows = np.asfortranarray(rows[keep])
            m -= refused
        if m == 0:
            return refused
        lam = self.forgetting
        # Row i of the block has age m-1-i; prior data ages by m.
        rows *= np.sqrt(lam ** np.arange(m - 1, -1, -1.0))[:, None]
        # LAPACK's triangular-pentagonal QR (l = 0: the new rows are a
        # full rectangle) eliminates only the m new rows below the factor.
        nb = min(8, len(self._factor))  # block size, 1 <= nb <= dim + l
        factor, _, _, info = lapack.dtpqrt(
            0, nb, lam ** (m / 2.0) * self._factor, rows, overwrite_a=1,
            overwrite_b=1)
        if info != 0:
            raise ValueError(f"dtpqrt: illegal argument {-info}")
        self._factor = factor
        return refused

    @property
    def estimate(self) -> np.ndarray:
        """Current Markov matrix estimate, shape l x ((r+l) p).

        Each output's row is one BLAS level-2 back substitution with R,
        which OpenBLAS runs on the calling thread at any size."""
        top = self._factor[:self.dim]
        r_factor = np.asfortranarray(top[:, :self.dim])
        xi = np.array([blas.dtrsv(r_factor, rhs)
                       for rhs in top[:, self.dim:].T])
        if not np.all(np.isfinite(xi)):
            raise NumericError("estimate became non-finite")
        return xi


def batch_solve(regressors: np.ndarray, targets: np.ndarray,
                forgetting: float = 1.0) -> np.ndarray:
    """Weighted least squares over the full history (oracle for the RLS).

    Returns the Markov matrix, solved by orthogonal factorization
    (lstsq/SVD); rank deficiency yields the minimum-norm solution.
    """
    Z = np.atleast_2d(np.asarray(regressors, dtype=float))
    T = np.atleast_2d(np.asarray(targets, dtype=float))
    if len(Z) != len(T):
        raise ValueError("regressors and targets must have equal length")
    if not 0.0 < forgetting <= 1.0:
        raise ValueError("forgetting factor must be in (0, 1]")
    n = len(Z)
    weights = np.sqrt(forgetting ** np.arange(n - 1, -1, -1.0))[:, None]
    return np.linalg.lstsq(weights * Z, weights * T, rcond=None)[0].T


def persistency_metric(u: np.ndarray, order: int,
                       period: int | None = None) -> float:
    """Condition number of the block-Hankel matrix of the (differenced) input.

    Returns +inf when the Hankel matrix is rank deficient, i.e. the input
    is not persistently exciting of the requested order.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] < u.shape[1]:
        u = u.T
    if period is not None:
        if len(u) <= period:
            raise ValueError("history shorter than the differencing period")
        u = u[period:] - u[:-period]
    n, r = u.shape
    if n < order:
        raise ValueError("history shorter than the requested order")
    cols = n - order + 1
    hankel = np.empty((order * r, cols))
    for i in range(order):
        hankel[i * r:(i + 1) * r, :] = u[i:i + cols].T
    sv = np.linalg.svd(hankel, compute_uv=False)
    if sv[-1] <= max(hankel.shape) * np.finfo(float).eps * sv[0] or sv[0] == 0.0:
        return float("inf")
    return float(sv[0] / sv[-1])


def choose_past_window(model, tol: float = 1e-4, max_window: int = 200) -> int:
    """Smallest j with ||C At^j B|| below tol * ||C B|| on a given model."""
    At = model.A_tilde
    base = np.linalg.norm(model.C @ model.B)
    power = np.eye(model.n)
    for j in range(max_window + 1):
        if np.linalg.norm(model.C @ power @ model.B) < tol * base and j > 0:
            return j
        power = power @ At
    raise RuntimeError("Markov parameters do not decay within the window cap")
