"""Tests for delta buffering and recursive Markov identification."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sprclab.plant import make_benchmark_plant, simulate_lti
from sprclab.sysid import (DeltaBuffer, MarkovEstimate, batch_solve,
                           choose_past_window, persistency_metric)


class TestDeltaBuffer:
    def test_periodic_signals_annihilated(self):
        P, p = 12, 3
        phase = 2 * np.pi * np.arange(4 * P)[:, None] / P
        z, t = DeltaBuffer(P, p, 1, 1).extend(np.sin(phase), np.cos(phase))
        np.testing.assert_allclose(z, 0.0, atol=1e-12)
        np.testing.assert_allclose(t, 0.0, atol=1e-12)

    def test_scalar_single_lag_unrolled(self):
        P, p = 5, 1
        rng = np.random.default_rng(0)
        u = rng.standard_normal(20)
        y = rng.standard_normal(20)
        z, _ = DeltaBuffer(P, p, 1, 1).extend(u[:, None], y[:, None])
        k = 19
        expected = [u[k - 1] - u[k - 1 - P], y[k - 1] - y[k - 1 - P]]
        np.testing.assert_allclose(z[-1], expected, atol=1e-15)

    def test_regressor_length(self):
        z, t = DeltaBuffer(10, 4, 2, 3).extend(np.zeros((15, 2)),
                                               np.zeros((15, 3)))
        assert z.shape == (1, (2 + 3) * 4)
        assert t.shape == (1, 3)

    def test_not_ready_raises(self):
        # Before k = P + p no delta window is complete: extend returns no
        # row and no target, correctly shaped, until the sample that is.
        buf = DeltaBuffer(10, 4, 1, 1)
        for _ in range(14):  # one short of P + p + 1
            z, t = buf.extend(np.zeros((1, 1)), np.zeros((1, 1)))
            assert z.shape == (0, 8)
            assert t.shape == (0, 1)
        z, t = buf.extend(np.zeros((1, 1)), np.zeros((1, 1)))
        assert z.shape == (1, 8)
        assert t.shape == (1, 1)

    @settings(max_examples=60, deadline=None)
    @given(P=st.integers(1, 30), p=st.integers(1, 12), r=st.integers(1, 3),
           l=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_blocks_yield_the_rows_of_single_pushes(self, P, p, r, l, seed):
        # extend over blocks of random length returns, in order, exactly
        # the rows that one-sample extends make ready, bitwise.
        steps = 4 * (P + p + 1)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((steps, r))
        y = rng.standard_normal((steps, l))
        single = DeltaBuffer(P, p, r, l)
        rows = [single.extend(u[k:k + 1], y[k:k + 1]) for k in range(steps)]
        z = np.vstack([zs for zs, _ in rows])
        t = np.vstack([ts for _, ts in rows])
        cuts = np.sort(rng.choice(np.arange(1, steps), rng.integers(0, 12),
                                  replace=False))
        block = DeltaBuffer(P, p, r, l)
        rows = [block.extend(u[a:b], y[a:b])
                for a, b in zip([0, *cuts], [*cuts, steps])]
        np.testing.assert_array_equal(np.vstack([zb for zb, _ in rows]), z)
        np.testing.assert_array_equal(np.vstack([tb for _, tb in rows]), t)
        assert len(z) == steps - (P + p)

    @settings(max_examples=60, deadline=None)
    @given(P=st.integers(1, 30), p=st.integers(1, 12), r=st.integers(1, 3),
           l=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_window_matches_definition_from_full_history(self, P, p, r, l,
                                                         seed):
        # Oracle: the deltas recomputed from the whole u/y history. The
        # samples go in as blocks of random length, about half of them a
        # single sample, through at least three wraps of the P + p raw
        # samples the buffer keeps. Each block must return, bitwise and
        # oldest first, the rows of its samples with k >= P + p.
        steps = 4 * (P + p + 1)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((steps, r))
        y = rng.standard_normal((steps, l))
        buf = DeltaBuffer(P, p, r, l)
        a = 0
        while a < steps:
            m = 1 if rng.random() < 0.5 else int(rng.integers(2, P + p + 2))
            b = min(steps, a + m)
            z, t = buf.extend(u[a:b], y[a:b])
            ready = range(max(a, P + p), b)
            assert len(z) == len(t) == len(ready)
            for row, target, k in zip(z, t, ready):
                past = range(k - p, k)
                expected = np.concatenate([u[j] - u[j - P] for j in past]
                                          + [y[j] - y[j - P] for j in past])
                np.testing.assert_array_equal(row, expected)
                np.testing.assert_array_equal(target, y[k] - y[k - P])
            a = b

    def test_delta_y_is_not_overwritten_by_later_pushes(self):
        # Neither the targets nor the regressors an extend returns share
        # memory with what later extends write.
        buf = DeltaBuffer(3, 1, 1, 1)
        k = np.arange(12.0)[:, None]
        z, dy = buf.extend(-k[:5], k[:5] ** 2)
        for j in range(5, 12):
            buf.extend(-k[j:j + 1], k[j:j + 1] ** 2)
        np.testing.assert_array_equal(z, [[-3.0, 9.0]])
        np.testing.assert_array_equal(dy, [[16.0 - 1.0]])


def _random_rows(dim, outputs, count, seed):
    rng = np.random.default_rng(seed)
    xi_true = rng.standard_normal((outputs, dim))
    z = rng.standard_normal((count, dim))
    t = z @ xi_true.T
    return xi_true, z, t


class TestMarkovEstimate:
    def test_consistency_on_exact_data(self):
        r, l, p = 2, 2, 4
        dim = (r + l) * p
        xi_true, z, t = _random_rows(dim, l, dim * 10, seed=1)
        est = MarkovEstimate(r, l, p, forgetting=1.0)
        est.fold(z, t)
        err = np.linalg.norm(est.estimate - xi_true) / np.linalg.norm(xi_true)
        assert err < 1e-6

    def test_matches_batch_oracle(self):
        r, l, p = 2, 2, 3
        dim = (r + l) * p
        rng = np.random.default_rng(5)
        z = rng.standard_normal((400, dim))
        t = rng.standard_normal((400, l))  # noisy, no exact solution
        est = MarkovEstimate(r, l, p, forgetting=1.0)
        est.fold(z, t)
        batch = batch_solve(z, t, forgetting=1.0)
        gap = np.linalg.norm(est.estimate - batch)
        assert gap <= 1e-8 * (1.0 + np.linalg.norm(batch))

    def test_fold_drops_the_nonfinite_rows(self):
        r, l, p = 2, 2, 3
        dim = (r + l) * p
        rng = np.random.default_rng(13)
        z = rng.standard_normal((300, dim))
        t = rng.standard_normal((300, l))
        z[5, 0] = z[77, dim - 1] = np.nan
        t[150, 1] = -np.inf
        est = MarkovEstimate(r, l, p, forgetting=1.0)
        dropped = [est.fold(z[a:b], t[a:b])
                   for a, b in ((0, 100), (100, 250), (250, 300))]
        assert dropped == [2, 1, 0]
        keep = np.ones(300, dtype=bool)
        keep[[5, 77, 150]] = False
        batch = batch_solve(z[keep], t[keep], forgetting=1.0)
        gap = np.linalg.norm(est.estimate - batch)
        assert gap <= 1e-8 * (1.0 + np.linalg.norm(batch))

    def test_fold_refuses_by_entry_not_by_row_sum(self):
        # Rows of finite entries whose sums overflow are folded; a NaN in
        # either half of a row refuses that row alone.
        r, l, p = 1, 1, 2
        dim = (r + l) * p
        z = np.full((4, dim), 1.5e308)
        t = np.full((4, l), 1.5e308)
        z[3], t[3] = -1.5e308, -1.5e308
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.hstack([z, t]).sum(axis=1)).any()
        assert MarkovEstimate(r, l, p, forgetting=1.0).fold(z, t) == 0
        z[1, dim - 1] = t[2, 0] = np.nan
        assert MarkovEstimate(r, l, p, forgetting=1.0).fold(z, t) == 2

    # Block sizes include single rows; (1, 1, 2) has dim + l = 5, below
    # the fold's block size of 8.
    BLOCKS = (1, 7, 1, 30, 2, 45)

    @pytest.mark.parametrize("r, l, p", [(1, 1, 2), (2, 2, 3)])
    def test_factor_matches_qr_of_explicit_compound(self, r, l, p):
        # Oracle: numpy's dense QR of the whole weighted history below the
        # weighted ridge prior. Its R is unique up to the signs of its rows.
        dim = (r + l) * p
        lam = 0.97
        rng = np.random.default_rng(r + 10 * p)
        est = MarkovEstimate(r, l, p, forgetting=lam)
        z, t = [], []
        for m in self.BLOCKS:
            zb, tb = rng.standard_normal((m, dim)), rng.standard_normal((m, l))
            est.fold(zb, tb)
            z.append(zb)
            t.append(tb)
        z, t = np.vstack(z), np.vstack(t)
        n = len(z)
        weights = np.sqrt(lam ** np.arange(n - 1, -1, -1.0))[:, None]
        prior = np.hstack([np.sqrt(1e-6) * np.eye(dim), np.zeros((dim, l))])
        compound = np.vstack([lam ** (n / 2.0) * prior,
                              weights * np.hstack([z, t])])
        want = np.linalg.qr(compound, mode="r")[:dim]
        got = est._factor[:dim]
        signs = np.sign(np.diag(want)) * np.sign(np.diag(got))
        np.testing.assert_allclose(signs[:, None] * got, want, rtol=0.0,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("r, l, p", [(1, 1, 2), (2, 2, 3)])
    def test_blocks_match_batch_oracle_with_forgetting(self, r, l, p):
        dim = (r + l) * p
        rng = np.random.default_rng(7 * r + p)
        z = rng.standard_normal((600, dim))
        t = rng.standard_normal((600, l))
        est = MarkovEstimate(r, l, p, forgetting=0.999)
        cuts = np.cumsum((0, *self.BLOCKS))
        for a, b in zip(cuts, [*cuts[1:], 600]):
            est.fold(z[a:b], t[a:b])
        batch = batch_solve(z, t, forgetting=0.999)
        gap = np.linalg.norm(est.estimate - batch)
        assert gap <= 1e-8 * (1.0 + np.linalg.norm(batch))

    def test_fold_uses_no_dense_qr(self, monkeypatch):
        # The fold is LAPACK's triangular-pentagonal update, not a dense
        # QR of the stacked factor and rows.
        def refuse(*args, **kwargs):
            raise AssertionError("dense QR called")

        monkeypatch.setattr(scipy.linalg, "qr", refuse)
        monkeypatch.setattr(np.linalg, "qr", refuse)
        monkeypatch.setattr("sprclab.sysid.qr", refuse, raising=False)
        r, l, p = 2, 2, 3
        dim = (r + l) * p
        rng = np.random.default_rng(17)
        z = rng.standard_normal((200, dim))
        t = rng.standard_normal((200, l))
        est = MarkovEstimate(r, l, p, forgetting=1.0)
        assert est.fold(z, t) == 0
        batch = batch_solve(z, t, forgetting=1.0)
        gap = np.linalg.norm(est.estimate - batch)
        assert gap <= 1e-8 * (1.0 + np.linalg.norm(batch))

    def test_zero_regressors_leave_estimate_at_init(self):
        est = MarkovEstimate(1, 1, 2)
        est.fold(np.zeros((100, 4)), np.full((100, 1), 3.0))
        np.testing.assert_array_equal(est.estimate, np.zeros((1, 4)))

    def test_single_row_folds_match_one_block_fold(self):
        r, l, p = 1, 1, 3
        dim = (r + l) * p
        _, z, t = _random_rows(dim, l, 97, seed=9)
        rows = MarkovEstimate(r, l, p, forgetting=0.999)
        for i in range(len(z)):
            rows.fold(z[i:i + 1], t[i:i + 1])
        block = MarkovEstimate(r, l, p, forgetting=0.999)
        block.fold(z, t)
        np.testing.assert_allclose(rows.estimate, block.estimate, atol=1e-10)

    def test_forgetting_tracks_plant_switch(self):
        r, l, p = 1, 1, 2
        dim = (r + l) * p
        rng = np.random.default_rng(2)
        xi_old = rng.standard_normal((l, dim))
        xi_new = rng.standard_normal((l, dim))
        est = MarkovEstimate(r, l, p, forgetting=0.98)
        for xi in (xi_old, xi_new):
            z = rng.standard_normal((600, dim))
            est.fold(z, z @ xi.T)
        err = np.linalg.norm(est.estimate - xi_new) / np.linalg.norm(xi_new)
        assert err < 1e-3


class TestBatchSolve:
    def test_minimum_norm_single_sample(self):
        markov = batch_solve(np.array([[1.0, 0.0]]), np.array([[2.0]]))
        np.testing.assert_allclose(markov, [[2.0, 0.0]], atol=1e-12)

    def test_unit_forgetting_is_plain_least_squares(self):
        _, z, t = _random_rows(6, 2, 80, seed=4)
        direct = np.linalg.lstsq(z, t, rcond=None)[0].T
        np.testing.assert_allclose(batch_solve(z, t, 1.0), direct,
                                   atol=1e-10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            batch_solve(np.zeros((3, 2)), np.zeros((4, 1)))


class TestPersistencyMetric:
    def test_constant_input_not_exciting(self):
        u = np.ones(200)
        assert persistency_metric(u, order=4, period=10) == np.inf

    def test_white_noise_is_exciting(self):
        u = np.random.default_rng(0).standard_normal(2000)
        cond = persistency_metric(u, order=6)
        assert np.isfinite(cond) and cond < 100.0

    def test_single_sinusoid_rank_two(self):
        k = np.arange(3000)
        u = np.sin(2 * np.pi * k / 46.0)
        assert persistency_metric(u, order=4) == np.inf


class TestPlantIdentification:
    def test_estimate_converges_to_true_markov(self):
        # End-to-end: benchmark plant, white-noise input, periodic
        # disturbance and small innovation noise.
        model = make_benchmark_plant(seed=0, n=4, r=2, l=2)
        p, P = 6, 40
        rng = np.random.default_rng(1)
        steps = 8000
        u = rng.standard_normal((steps, model.r))
        k = np.arange(steps)
        d = np.column_stack([np.sin(2 * np.pi * k / P),
                             np.cos(2 * np.pi * k / P)])
        y = simulate_lti(model, u, d, np.zeros((steps, model.l)))
        e = 0.01 * y.std() * rng.standard_normal(y.shape)
        y = simulate_lti(model, u, d, e)

        z, t = DeltaBuffer(P, p, model.r, model.l).extend(u, y)
        est = MarkovEstimate(model.r, model.l, p)
        for a in range(0, len(z), 64):
            est.fold(z[a:a + 64], t[a:a + 64])
        xi_true = model.markov_parameters(p)
        err = (np.linalg.norm(est.estimate - xi_true)
               / np.linalg.norm(xi_true))
        assert err < 0.05

    def test_choose_past_window(self):
        model = make_benchmark_plant(seed=0, n=4, r=2, l=2)
        p = choose_past_window(model, tol=1e-4)
        At = model.A_tilde
        assert (np.linalg.norm(model.C @ np.linalg.matrix_power(At, p)
                               @ model.B)
                < 1e-4 * np.linalg.norm(model.C @ model.B))
