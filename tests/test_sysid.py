"""Tests for delta buffering and recursive Markov identification."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprclab.plant import make_benchmark_plant, simulate_lti
from sprclab.sysid import (BatchResult, DeltaBuffer, MarkovEstimate,
                           NotReadyError, NumericError, batch_solve,
                           choose_past_window, persistency_metric)


class TestDeltaBuffer:
    def test_periodic_signals_annihilated(self):
        P, p = 12, 3
        buf = DeltaBuffer(P, p, 1, 1)
        for k in range(4 * P):
            phase = 2 * np.pi * k / P
            buf.push(np.array([np.sin(phase)]), np.array([np.cos(phase)]))
        np.testing.assert_allclose(buf.regressor(), 0.0, atol=1e-12)
        np.testing.assert_allclose(buf.delta_y(), 0.0, atol=1e-12)

    def test_scalar_single_lag_unrolled(self):
        P, p = 5, 1
        buf = DeltaBuffer(P, p, 1, 1)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(20)
        y = rng.standard_normal(20)
        for uk, yk in zip(u, y):
            buf.push(np.array([uk]), np.array([yk]))
        k = 19
        expected = [u[k - 1] - u[k - 1 - P], y[k - 1] - y[k - 1 - P]]
        np.testing.assert_allclose(buf.regressor(), expected, atol=1e-15)

    def test_regressor_length(self):
        buf = DeltaBuffer(10, 4, 2, 3)
        for _ in range(15):
            buf.push(np.zeros(2), np.zeros(3))
        assert buf.regressor().shape == ((2 + 3) * 4,)

    def test_not_ready_raises(self):
        buf = DeltaBuffer(10, 4, 1, 1)
        for _ in range(14):  # one short of P + p + 1
            buf.push(np.zeros(1), np.zeros(1))
            with pytest.raises(NotReadyError):
                buf.regressor()
        buf.push(np.zeros(1), np.zeros(1))
        buf.regressor()

    @settings(max_examples=60, deadline=None)
    @given(P=st.integers(1, 30), p=st.integers(1, 12), r=st.integers(1, 3),
           l=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_window_matches_definition_from_full_history(self, P, p, r, l,
                                                         seed):
        # Oracle: the deltas recomputed from the whole u/y history, checked
        # after every sample through at least three wraps of the raw ring
        # (P rows) and of the delta ring (p + 1 rows).
        steps = 4 * (P + p + 1)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((steps, r))
        y = rng.standard_normal((steps, l))
        buf = DeltaBuffer(P, p, r, l)
        for k in range(steps):
            buf.push(u[k], y[k])
            assert buf.ready == (k >= P + p)
            if not buf.ready:
                continue
            past = range(k - p, k)
            expected = np.concatenate([u[j] - u[j - P] for j in past]
                                      + [y[j] - y[j - P] for j in past])
            np.testing.assert_array_equal(buf.regressor(), expected)
            np.testing.assert_array_equal(buf.delta_y(), y[k] - y[k - P])

    def test_delta_y_is_not_overwritten_by_later_pushes(self):
        buf = DeltaBuffer(3, 1, 1, 1)
        for k in range(5):
            buf.push(np.array([0.0]), np.array([float(k * k)]))
        dy = buf.delta_y()
        for k in range(5, 12):
            buf.push(np.array([0.0]), np.array([float(k * k)]))
        np.testing.assert_array_equal(dy, [16.0 - 1.0])


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
        for zi, ti in zip(z, t):
            est.update(zi, ti)
        err = np.linalg.norm(est.estimate - xi_true) / np.linalg.norm(xi_true)
        assert err < 1e-6

    def test_matches_batch_oracle(self):
        r, l, p = 2, 2, 3
        dim = (r + l) * p
        rng = np.random.default_rng(5)
        z = rng.standard_normal((400, dim))
        t = rng.standard_normal((400, l))  # noisy, no exact solution
        est = MarkovEstimate(r, l, p, forgetting=1.0)
        for zi, ti in zip(z, t):
            est.update(zi, ti)
        batch = batch_solve(z, t, forgetting=1.0).markov
        gap = np.linalg.norm(est.estimate - batch)
        assert gap <= 1e-8 * (1.0 + np.linalg.norm(batch))

    def test_zero_regressors_leave_estimate_at_init(self):
        est = MarkovEstimate(1, 1, 2)
        for _ in range(100):
            est.update(np.zeros(4), np.array([3.0]))
        np.testing.assert_array_equal(est.estimate, np.zeros((1, 4)))

    def test_nonfinite_input_raises(self):
        est = MarkovEstimate(1, 1, 1)
        with pytest.raises(NumericError):
            est.update(np.array([np.nan, 0.0]), np.array([0.0]))
        with pytest.raises(NumericError):
            est.update(np.array([0.0, 0.0]), np.array([np.inf]))

    def test_flush_boundary_invariance(self):
        # Blockwise QR folding must match one-row-at-a-time updates.
        r, l, p = 1, 1, 3
        dim = (r + l) * p
        _, z, t = _random_rows(dim, l, 97, seed=9)
        a = MarkovEstimate(r, l, p, forgetting=0.999, flush_every=1)
        b = MarkovEstimate(r, l, p, forgetting=0.999, flush_every=64)
        for zi, ti in zip(z, t):
            a.update(zi, ti)
            b.update(zi, ti)
        np.testing.assert_allclose(a.estimate, b.estimate, atol=1e-10)

    def test_forgetting_tracks_plant_switch(self):
        r, l, p = 1, 1, 2
        dim = (r + l) * p
        rng = np.random.default_rng(2)
        xi_old = rng.standard_normal((l, dim))
        xi_new = rng.standard_normal((l, dim))
        est = MarkovEstimate(r, l, p, forgetting=0.98)
        for _ in range(600):
            z = rng.standard_normal(dim)
            est.update(z, xi_old @ z)
        for _ in range(600):
            z = rng.standard_normal(dim)
            est.update(z, xi_new @ z)
        err = np.linalg.norm(est.estimate - xi_new) / np.linalg.norm(xi_new)
        assert err < 1e-3

    def test_snapshot_json(self):
        est = MarkovEstimate(1, 1, 2, forgetting=0.999)
        _, z, t = _random_rows(4, 1, 50, seed=3)
        for zi, ti in zip(z, t):
            est.update(zi, ti)
        snap = json.loads(json.dumps(est.snapshot()))
        assert snap["samples"] == 50
        assert snap["forgetting"] == 0.999
        np.testing.assert_allclose(np.array(snap["markov"]), est.estimate)


class TestBatchSolve:
    def test_minimum_norm_single_sample(self):
        result = batch_solve(np.array([[1.0, 0.0]]), np.array([[2.0]]))
        np.testing.assert_allclose(result.markov, [[2.0, 0.0]], atol=1e-12)
        assert result.rank_deficient

    def test_unit_forgetting_is_plain_least_squares(self):
        _, z, t = _random_rows(6, 2, 80, seed=4)
        direct = np.linalg.lstsq(z, t, rcond=None)[0].T
        np.testing.assert_allclose(batch_solve(z, t, 1.0).markov, direct,
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

        buf = DeltaBuffer(P, p, model.r, model.l)
        est = MarkovEstimate(model.r, model.l, p)
        for uk, yk in zip(u, y):
            buf.push(uk, yk)
            if buf.ready:
                est.update(buf.regressor(), buf.delta_y())
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
