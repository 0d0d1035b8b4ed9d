"""Online identification of Markov parameters from period-differenced data.

The period-P difference operator annihilates the periodic disturbance, so
the remaining input/output behavior is captured by the Markov parameter
matrix [C At^{p-1}B ... CB | C At^{p-1}K ... CK]. The recursive solver
keeps a square-root (QR) information factor; a batch least-squares solver
serves as its oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular


class NotReadyError(RuntimeError):
    """Raised when the delta buffer has not seen P + p samples yet."""


class NumericError(ArithmeticError):
    """Raised on non-finite data entering the estimator."""


class DeltaBuffer:
    """Period differences of u and y over the last p + 1 samples.

    `push` forms the delta row [du_k, dy_k] = [u_k - u_{k-P}, y_k - y_{k-P}]
    once and writes it twice into a doubled ring of 2 (p + 1) rows, so the
    last p + 1 delta rows always lie contiguously; the raw u/y ring keeps
    only the last P samples the differencing reads. After pushing sample k,
    `delta_y()` returns dy_k and `regressor()` returns the stacked window
    [du_{k-p}; ...; du_{k-1}; dy_{k-p}; ...; dy_{k-1}] whose inner product
    with the Markov matrix predicts dy_k.
    """

    def __init__(self, period: int, past_window: int, n_inputs: int,
                 n_outputs: int):
        if period < 1 or past_window < 1:
            raise ValueError("period and past window must be positive")
        self.period = period
        self.past_window = past_window
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        width = n_inputs + n_outputs
        self._raw = np.zeros((period, width))
        self._deltas = np.zeros((2 * (past_window + 1), width))
        self._count = 0

    @property
    def ready(self) -> bool:
        """True once the current sample index k satisfies k >= P + p."""
        return self._count >= self.period + self.past_window + 1

    def push(self, u: np.ndarray, y: np.ndarray) -> None:
        k = self._count
        row = np.concatenate((u, y))
        oldest = k % self.period  # holds sample k - P
        delta = row - self._raw[oldest]
        self._raw[oldest] = row
        slot = k % (self.past_window + 1)
        self._deltas[slot] = delta
        self._deltas[slot + self.past_window + 1] = delta
        self._count += 1

    def _window(self) -> np.ndarray:
        """Delta rows k-p, ..., k for the most recent sample k."""
        self._require_ready()
        slot = (self._count - 1) % (self.past_window + 1)
        return self._deltas[slot + 1:slot + self.past_window + 2]

    def delta_y(self) -> np.ndarray:
        """dy_k = y_k - y_{k-P} for the most recent sample k."""
        # A copy: callers keep the target while later pushes reuse the row.
        return self._window()[-1, self.n_inputs:].copy()

    def regressor(self) -> np.ndarray:
        """Stacked delta window aligned to predict dy_k."""
        past = self._window()[:-1]
        r = self.n_inputs
        return np.concatenate((past[:, :r], past[:, r:]), axis=None)

    def _require_ready(self) -> None:
        if not self.ready:
            raise NotReadyError(
                f"need at least P + p + 1 = {self.period + self.past_window + 1}"
                f" samples, have {self._count}")


class MarkovEstimate:
    """Exponentially weighted RLS for the Markov matrix via QR updates.

    The information state is an upper-triangular factor R and right-hand
    side maintained by orthogonal (QR) updates; no covariance inverse is
    ever formed. Incoming rows are buffered and folded in blockwise, which
    is algebraically identical to one-row-at-a-time updates.
    """

    def __init__(self, n_inputs: int, n_outputs: int, past_window: int,
                 forgetting: float = 0.99999, ridge: float = 1e-6,
                 flush_every: int = 64):
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting factor must be in (0, 1]")
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.past_window = past_window
        self.forgetting = forgetting
        self.dim = (n_inputs + n_outputs) * past_window
        self._rfac = np.sqrt(ridge) * np.eye(self.dim)
        self._rhs = np.zeros((self.dim, n_outputs))
        self._pending_z: list[np.ndarray] = []
        self._pending_t: list[np.ndarray] = []
        self._flush_every = flush_every
        self.samples = 0

    def update(self, regressor: np.ndarray, target: np.ndarray) -> None:
        regressor = np.asarray(regressor, dtype=float)
        target = np.asarray(target, dtype=float)
        if regressor.shape != (self.dim,) or target.shape != (self.n_outputs,):
            raise ValueError("regressor/target dimensions do not match")
        if not (np.all(np.isfinite(regressor)) and np.all(np.isfinite(target))):
            raise NumericError("non-finite regressor or target")
        self._pending_z.append(regressor)
        self._pending_t.append(target)
        self.samples += 1
        if len(self._pending_z) >= self._flush_every:
            self._flush()

    def _flush(self) -> None:
        if not self._pending_z:
            return
        m = len(self._pending_z)
        lam = self.forgetting
        # Row i of the pending block has age m-1-i; prior data ages by m.
        weights = np.sqrt(lam ** np.arange(m - 1, -1, -1.0))[:, None]
        rows = np.vstack([lam ** (m / 2.0) * self._rfac,
                          weights * np.asarray(self._pending_z)])
        rhs = np.vstack([lam ** (m / 2.0) * self._rhs,
                         weights * np.asarray(self._pending_t)])
        compound = np.hstack([rows, rhs])
        fac = np.linalg.qr(compound, mode="r")
        self._rfac = fac[:self.dim, :self.dim]
        self._rhs = fac[:self.dim, self.dim:]
        self._pending_z.clear()
        self._pending_t.clear()

    @property
    def estimate(self) -> np.ndarray:
        """Current Markov matrix estimate, shape l x ((r+l) p)."""
        self._flush()
        xi_t = solve_triangular(self._rfac, self._rhs)
        if not np.all(np.isfinite(xi_t)):
            raise NumericError("estimate became non-finite")
        return xi_t.T

    def snapshot(self) -> dict:
        """JSON-serializable estimator snapshot for debugging/goldens."""
        return {
            "markov": self.estimate.tolist(),
            "forgetting": self.forgetting,
            "samples": self.samples,
            "past_window": self.past_window,
            "n_inputs": self.n_inputs,
            "n_outputs": self.n_outputs,
        }


class BatchResult:
    """Batch least-squares solution with rank metadata."""

    def __init__(self, markov: np.ndarray, rank: int, dim: int):
        self.markov = markov
        self.rank = rank
        self.rank_deficient = rank < dim


def batch_solve(regressors: np.ndarray, targets: np.ndarray,
                forgetting: float = 1.0) -> BatchResult:
    """Weighted least squares over the full history (oracle for the RLS).

    Solved by orthogonal factorization (lstsq/SVD); rank deficiency yields
    the minimum-norm solution, flagged in the result metadata.
    """
    Z = np.atleast_2d(np.asarray(regressors, dtype=float))
    T = np.atleast_2d(np.asarray(targets, dtype=float))
    if len(Z) != len(T):
        raise ValueError("regressors and targets must have equal length")
    if not 0.0 < forgetting <= 1.0:
        raise ValueError("forgetting factor must be in (0, 1]")
    n = len(Z)
    weights = np.sqrt(forgetting ** np.arange(n - 1, -1, -1.0))[:, None]
    solution, _, rank, _ = np.linalg.lstsq(weights * Z, weights * T, rcond=None)
    return BatchResult(markov=solution.T, rank=int(rank), dim=Z.shape[1])


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
