"""Tests for basis projection, the lifted predictor, DARE and the controller."""

import time
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from sprclab import sprc
from sprclab.harness import (ExperimentConfig, ScenarioEvent, Seeds,
                             run_experiment, variance_reduction)
from sprclab.plant import (LoadModel, TurbineParams, TurbineState, close_loop,
                           make_benchmark_plant, open_loop, simulate_lti)
from sprclab.sprc import (BasisMatrix, SprcConfig, SprcController,
                          assemble_predictor, basis_rows, build_basis,
                          control_sample, dare_step, lag_map,
                          project_predictor, solve_dare, update_theta)
from sprclab.sysid import batch_solve, choose_past_window


class TestBasis:
    @pytest.mark.parametrize("period", [16, 52, 200])
    @pytest.mark.parametrize("r", [1, 2])
    def test_pseudoinverse_identity(self, period, r):
        basis = build_basis(period, r)
        np.testing.assert_allclose(basis.pinv @ basis.phi, np.eye(4 * r),
                                   atol=1e-10)

    def test_column_norms_for_multiple_of_four(self):
        period = 48
        basis = build_basis(period, 1)
        norms_sq = np.sum(basis.phi**2, axis=0)
        np.testing.assert_allclose(norms_sq, period / 2.0, atol=1e-9)

    def test_short_period_rejected(self):
        with pytest.raises(ValueError):
            build_basis(8, 1)

    def test_single_harmonic_band(self):
        period = 64
        basis = build_basis(period, 1)
        theta = np.array([0.3, -0.7, 0.0, 0.0])
        spectrum = np.abs(np.fft.rfft(basis.phi @ theta))**2
        assert spectrum[1] / spectrum.sum() > 0.999


class TestControlSample:
    def test_zero_theta(self):
        np.testing.assert_array_equal(
            control_sample(np.zeros(4), 1.0, 1), [0.0])

    def test_cosine_evaluation(self):
        theta = np.array([0.0, 1.0, 0.0, 0.0])  # pure cos(psi)
        assert control_sample(theta, 0.0, 1)[0] == pytest.approx(1.0)
        assert control_sample(theta, np.pi / 2.0, 1)[0] == pytest.approx(
            0.0, abs=1e-12)

    def test_full_revolution_periodicity(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(8)
        u0 = control_sample(theta, 0.25, 2)
        u1 = control_sample(theta, 0.25 + 2.0 * np.pi, 2)
        np.testing.assert_allclose(u0, u1, atol=1e-12)

    def test_azimuth_domain_band_limitation(self):
        # Power over a uniform azimuth sweep concentrates in the 1P and 2P
        # bins; the construction is exactly band-limited.
        period = 128
        theta = np.array([0.5, -1.0, 0.2, 0.9])
        sweep = np.array([control_sample(theta, 2 * np.pi * i / period, 1)[0]
                          for i in range(period)])
        spectrum = np.abs(np.fft.rfft(sweep))**2
        assert (spectrum[1] + spectrum[2]) / spectrum.sum() > 0.999

    @pytest.mark.parametrize("harmonics", [(1,), (1, 2)])
    @pytest.mark.parametrize("r", [1, 2])
    def test_matches_basis_rows(self, harmonics, r):
        # Oracle: the kron basis row at the same azimuth times theta.
        rng = np.random.default_rng(len(harmonics) * 10 + r)
        for psi in rng.uniform(-2.0 * np.pi, 4.0 * np.pi, 200):
            theta = rng.standard_normal(2 * len(harmonics) * r)
            expected = basis_rows(np.array([psi]), r, harmonics) @ theta
            np.testing.assert_allclose(
                control_sample(theta, psi, r, harmonics), expected,
                rtol=0.0, atol=1e-14)


def _contracting_markov(rng, p, l):
    """Random Markov matrix whose output blocks sum to norm 1/2, so that
    (I - Gt)^{-1} has norm at most 2 whatever the period."""
    markov = rng.standard_normal((l, 2 * l * p))
    blocks = markov[:, l * p:].reshape(l, p, l).transpose(1, 0, 2)
    markov[:, l * p:] *= 0.5 / np.linalg.norm(blocks, 2, axis=(1, 2)).sum()
    return markov


_PREDICTOR_DRAWS = dict(p=st.integers(1, 20), extra=st.integers(0, 40),
                        l=st.integers(1, 3),
                        harmonics=st.sampled_from([(1,), (1, 2)]),
                        seed=st.integers(0, 2**32 - 1))


def _project(lp, basis):
    """`project_predictor` with the lag map a controller builds once."""
    return project_predictor(lp, basis,
                             lag_map(basis, lp.period, lp.past_window))


class TestAssemblePredictor:
    def test_zero_markov_gives_open_loop_predictor(self):
        p, P = 3, 12
        lp = assemble_predictor(np.zeros((1, 2 * p)), p, P, 1, 1)
        np.testing.assert_array_equal(lp.solve(lp.ht), 0.0)
        np.testing.assert_array_equal(lp.solve(lp.gku_t), 0.0)
        np.testing.assert_array_equal(lp.solve(lp.gky_t), 0.0)

    def test_scalar_single_lag_subdiagonal(self):
        h = 2.5
        P = 6
        lp = assemble_predictor(np.array([[h, 0.0]]), 1, P, 1, 1)
        expected = np.zeros((P, P))
        for i in range(1, P):
            expected[i, i - 1] = h
        np.testing.assert_allclose(lp.solve(lp.ht), expected, atol=1e-12)

    def test_corner_columns_zero(self):
        rng = np.random.default_rng(0)
        p, P, r = 4, 20, 2
        markov = rng.standard_normal((r, 2 * r * p))
        lp = assemble_predictor(markov, p, P, r, r)
        np.testing.assert_array_equal(lp.solve(lp.gku_t)[:, :(P - p) * r], 0.0)
        np.testing.assert_array_equal(lp.solve(lp.gky_t)[:, :(P - p) * r], 0.0)

    def test_h_strictly_delayed(self):
        rng = np.random.default_rng(1)
        p, P, r = 3, 10, 2
        markov = rng.standard_normal((r, 2 * r * p))
        lp = assemble_predictor(markov, p, P, r, r)
        for i in range(P):
            block = lp.solve(lp.ht)[i * r:(i + 1) * r, i * r:]
            np.testing.assert_array_equal(block, 0.0)

    def test_period_shorter_than_window_rejected(self):
        with pytest.raises(ValueError):
            assemble_predictor(np.zeros((1, 8)), 4, 3, 1, 1)

    @pytest.mark.parametrize("p, P, r, l", [(1, 6, 1, 1), (3, 12, 2, 2),
                                            (4, 4, 2, 3), (5, 9, 3, 2),
                                            (20, 46, 2, 2)])
    def test_blocks_match_kron_reference(self, p, P, r, l):
        # Reference: Markov block q (lag q + 1) placed by Kronecker
        # products with shifted identities.
        markov = np.random.default_rng(p + P).standard_normal((l, (r + l) * p))
        mu = [markov[:, (p - 1 - q) * r:(p - q) * r] for q in range(p)]
        my = [markov[:, r * p + (p - 1 - q) * l:r * p + (p - q) * l]
              for q in range(p)]
        ht = sum(np.kron(np.eye(P, P, -(q + 1)), mu[q]) for q in range(p))
        gt = sum(np.kron(np.eye(P, P, -(q + 1)), my[q]) for q in range(p))
        gku_t = sum(np.kron(np.eye(P, P, P - 1 - q), mu[q]) for q in range(p))
        gky_t = sum(np.kron(np.eye(P, P, P - 1 - q), my[q]) for q in range(p))
        lp = assemble_predictor(markov, p, P, r, l)
        np.testing.assert_array_equal(lp.ht, ht)
        np.testing.assert_array_equal(lp.ig, np.eye(l * P) - gt)
        np.testing.assert_array_equal(lp.gku_t, gku_t)
        np.testing.assert_array_equal(lp.gky_t, gky_t)

    @settings(max_examples=60, deadline=None)
    @given(**_PREDICTOR_DRAWS)
    def test_blocks_match_kron_reference_property(self, p, extra, l,
                                                  harmonics, seed):
        # The fixed cases above, drawn over (P, p, r = l); the harmonics
        # only matter to the projection.
        P = max(p, 9) + extra
        markov = _contracting_markov(np.random.default_rng(seed), p, l)
        mu = [markov[:, (p - 1 - q) * l:(p - q) * l] for q in range(p)]
        my = [markov[:, l * p + (p - 1 - q) * l:l * p + (p - q) * l]
              for q in range(p)]
        lp = assemble_predictor(markov, p, P, l, l)
        np.testing.assert_array_equal(lp.ht, sum(
            np.kron(np.eye(P, P, -(q + 1)), mu[q]) for q in range(p)))
        np.testing.assert_array_equal(lp.ig, np.eye(l * P) - sum(
            np.kron(np.eye(P, P, -(q + 1)), my[q]) for q in range(p)))
        np.testing.assert_array_equal(lp.gku_t, sum(
            np.kron(np.eye(P, P, P - 1 - q), mu[q]) for q in range(p)))
        np.testing.assert_array_equal(lp.gky_t, sum(
            np.kron(np.eye(P, P, P - 1 - q), my[q]) for q in range(p)))

    def test_matches_lti_oracle(self):
        # With exact Markov parameters and noise-free data, the lifted
        # relation Y_{j+1} = Y_j + GKu dU_j + GKy dY_j + H dU_{j+1}
        # reproduces the simulated output.
        model = make_benchmark_plant(seed=0, n=4, r=2, l=2)
        p = choose_past_window(model, tol=1e-10)
        P = 46
        lp = assemble_predictor(model.markov_parameters(p), p, P,
                                model.r, model.l)
        rng = np.random.default_rng(3)
        periods = 12
        steps = periods * P
        u = rng.standard_normal((steps, model.r))
        k = np.arange(steps)
        d = np.column_stack([np.sin(2 * np.pi * k / P),
                             np.cos(2 * np.pi * k / P)])
        y = simulate_lti(model, u, d, np.zeros((steps, model.l)))

        def lift(series, j):
            return series[j * P:(j + 1) * P].reshape(-1)

        errs = []
        for j in range(3, periods - 1):
            du_j = lift(u, j) - lift(u, j - 1)
            du_next = lift(u, j + 1) - lift(u, j)
            dy_j = lift(y, j) - lift(y, j - 1)
            pred = (lift(y, j) + lp.solve(lp.gku_t) @ du_j
                    + lp.solve(lp.gky_t) @ dy_j + lp.solve(lp.ht) @ du_next)
            actual = lift(y, j + 1)
            errs.append(np.linalg.norm(pred - actual)
                        / np.linalg.norm(actual))
        assert max(errs) < 1e-6


class TestProjection:
    def test_zero_plant_pattern(self):
        p, P, r = 2, 16, 1
        lp = assemble_predictor(np.zeros((r, 2 * r * p)), p, P, r, r)
        basis = build_basis(P, r)
        abar, bbar = _project(lp, basis)
        nb = basis.n_params
        expected_a = np.zeros((3 * nb, 3 * nb))
        expected_a[:nb, :nb] = np.eye(nb)
        np.testing.assert_allclose(abar, expected_a, atol=1e-12)
        expected_b = np.vstack([np.zeros((nb, nb)), np.eye(nb),
                                np.zeros((nb, nb))])
        np.testing.assert_allclose(bbar, expected_b, atol=1e-12)

    def test_projected_dimension(self):
        rng = np.random.default_rng(0)
        p, P, r = 3, 24, 2
        lp = assemble_predictor(rng.standard_normal((r, 2 * r * p)), p, P, r, r)
        abar, bbar = _project(lp, build_basis(P, r))
        assert abar.shape == (12 * r, 12 * r)
        assert bbar.shape == (12 * r, 4 * r)

    @pytest.mark.parametrize("source", ["random", "lti"])
    @pytest.mark.parametrize("harmonics", [(1,), (1, 2)])
    def test_matches_projection_of_solved_predictor(self, source, harmonics):
        # Oracle: pinv @ X @ phi for the fully solved lifted blocks X.
        if source == "lti":
            model = make_benchmark_plant(seed=0, n=4, r=2, l=2)
            p, P, r = choose_past_window(model, tol=1e-10), 46, 2
            markov = model.markov_parameters(p)
        else:
            p, P, r = 6, 30, 2
            rng = np.random.default_rng(5)
            markov = 0.3 * rng.standard_normal((r, 2 * r * p))
        lp = assemble_predictor(markov, p, P, r, r)
        basis = build_basis(P, r, harmonics)
        abar, bbar = _project(lp, basis)
        nb = basis.n_params
        pu = basis.pinv @ lp.solve(lp.gku_t) @ basis.phi
        py = basis.pinv @ lp.solve(lp.gky_t) @ basis.phi
        ph = basis.pinv @ lp.solve(lp.ht) @ basis.phi
        for rows in (slice(0, nb), slice(2 * nb, 3 * nb)):
            np.testing.assert_allclose(abar[rows, nb:2 * nb], pu, rtol=0.0,
                                       atol=1e-12)
            np.testing.assert_allclose(abar[rows, 2 * nb:], py, rtol=0.0,
                                       atol=1e-12)
            np.testing.assert_allclose(bbar[rows], ph, rtol=0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(**_PREDICTOR_DRAWS)
    @example(p=12, extra=0, l=2, harmonics=(1,), seed=0)  # P = p
    @example(p=12, extra=0, l=2, harmonics=(1, 2), seed=1)
    def test_matches_projection_of_solved_predictor_property(
            self, p, extra, l, harmonics, seed):
        P = max(p, 9) + extra
        markov = _contracting_markov(np.random.default_rng(seed), p, l)
        lp = assemble_predictor(markov, p, P, l, l)
        basis = build_basis(P, l, harmonics)
        abar, bbar = _project(lp, basis)
        nb = basis.n_params
        pu = basis.pinv @ lp.solve(lp.gku_t) @ basis.phi
        py = basis.pinv @ lp.solve(lp.gky_t) @ basis.phi
        ph = basis.pinv @ lp.solve(lp.ht) @ basis.phi
        for rows in (slice(0, nb), slice(2 * nb, 3 * nb)):
            np.testing.assert_allclose(abar[rows, nb:2 * nb], pu, rtol=0.0,
                                       atol=1e-12)
            np.testing.assert_allclose(abar[rows, 2 * nb:], py, rtol=0.0,
                                       atol=1e-12)
            np.testing.assert_allclose(bbar[rows], ph, rtol=0.0, atol=1e-12)

    def test_span_signals_reconstructed_losslessly(self):
        basis = build_basis(52, 2)
        rng = np.random.default_rng(4)
        y = basis.phi @ rng.standard_normal(basis.n_params)
        np.testing.assert_allclose(basis.phi @ (basis.pinv @ y), y, atol=1e-10)


def _reference_dare_step(p_riccati, abar, bbar, q_weight, r_weight):
    """dare_step as first written: B'PB and PB formed separately."""
    s = r_weight + bbar.T @ p_riccati @ bbar
    gain_term = p_riccati @ bbar @ np.linalg.solve(s, bbar.T @ p_riccati)
    nxt = q_weight + abar.T @ (p_riccati - gain_term) @ abar
    return 0.5 * (nxt + nxt.T)


def _reference_gain(p_riccati, abar, bbar, r_weight):
    """The gain as first written: (R + B'PB)^{-1} B'PA, formed separately."""
    return np.linalg.solve(r_weight + bbar.T @ p_riccati @ bbar,
                           bbar.T @ p_riccati @ abar)


def _reference_solve_dare(abar, bbar, q_weight, r_weight, p0,
                          max_iterations, tol=1e-10):
    p_riccati = p0.copy()
    for it in range(1, max_iterations + 1):
        nxt = _reference_dare_step(p_riccati, abar, bbar, q_weight, r_weight)
        residual = np.linalg.norm(nxt - p_riccati, "fro") / (
            1.0 + np.linalg.norm(p_riccati, "fro"))
        p_riccati = nxt
        if residual < tol:
            break
    return p_riccati, it


class TestDare:
    @pytest.mark.parametrize("harmonics", [(1,), (1, 2)])
    def test_matches_first_formulation(self, harmonics):
        # A chain of warm-started solves on projected predictors: the same
        # iteration counts and P within 1e-13 of the formulation with B'PB
        # and (B'P) formed separately, and the step's gain within 1e-13 of
        # the gain formed separately at the same P.
        rng = np.random.default_rng(len(harmonics))
        basis = build_basis(46, 2, harmonics)
        nb = basis.n_params
        q, r = np.eye(3 * nb), 3.0 * np.eye(nb)
        p_new = p_ref = q
        counts = []
        for _ in range(12):
            markov = _contracting_markov(rng, 20, 2)
            markov[:, :40] *= 0.3
            abar, bbar = _project(
                assemble_predictor(markov, 20, 46, 2, 2), basis)
            for max_iterations in (50, 500):
                p_new, it_new, _ = solve_dare(abar, bbar, q, r, p0=p_new,
                                              max_iterations=max_iterations)
                p_ref, it_ref = _reference_solve_dare(abar, bbar, q, r, p_ref,
                                                      max_iterations)
                assert it_new == it_ref
                counts.append(it_new)
                np.testing.assert_allclose(p_new, p_ref, rtol=1e-13,
                                           atol=1e-13 * np.abs(p_ref).max())
                _, kf, _ = dare_step(p_new, abar, bbar, q, r)
                kf_ref = _reference_gain(p_new, abar, bbar, r)
                np.testing.assert_allclose(kf, kf_ref, rtol=1e-13,
                                           atol=1e-13 * np.abs(kf_ref).max())
        # The chain exercises the cold start, the warm starts and the bound.
        assert 50 in counts and min(counts) < 50 and max(counts) > 50

    @pytest.mark.parametrize("c", [2.0, 3.0])
    def test_gain_independent_of_weight_scale(self, c):
        # Scaling P, Q and R by c scales P_next by c and leaves K_f, so the
        # gain needs no Q weight beside R: exactly for a power of two,
        # within rounding otherwise.
        basis = build_basis(46, 2)
        nb = basis.n_params
        abar, bbar = _project(assemble_predictor(
            _contracting_markov(np.random.default_rng(9), 20, 2), 20, 46, 2,
            2), basis)
        q, r = np.eye(3 * nb), 3.0 * np.eye(nb)
        p_riccati = q
        for _ in range(5):  # a P away from Q
            p_riccati = dare_step(p_riccati, abar, bbar, q, r)[0]
        p_next, kf, _ = dare_step(p_riccati, abar, bbar, q, r)
        p_scaled, kf_scaled, _ = dare_step(c * p_riccati, abar, bbar, c * q,
                                           c * r)
        if c == 2.0:
            np.testing.assert_array_equal(p_scaled, c * p_next)
            np.testing.assert_array_equal(kf_scaled, kf)
        np.testing.assert_allclose(p_scaled, c * p_next, rtol=1e-13,
                                   atol=1e-13 * c * np.abs(p_next).max())
        np.testing.assert_allclose(kf_scaled, kf, rtol=1e-13,
                                   atol=1e-13 * np.abs(kf).max())

    def test_singular_gain_matrix_raises_linalg_error(self):
        # The controller's fail-safe catches LinAlgError from the solve.
        with pytest.raises(np.linalg.LinAlgError):
            dare_step(np.eye(2), np.eye(2), np.zeros((2, 1)), np.eye(2),
                      np.zeros((1, 1)))

    def test_zero_transition_returns_q(self):
        q = np.diag([1.0, 2.0, 3.0])
        out, _, _ = dare_step(np.eye(3), np.zeros((3, 3)), np.ones((3, 1)),
                              q, np.eye(1))
        np.testing.assert_allclose(out, q, atol=1e-12)

    def test_scalar_closed_form(self):
        a, b, q, r = 0.9, 1.0, 1.0, 1.0
        A, B = np.array([[a]]), np.array([[b]])
        Q, R = np.array([[q]]), np.array([[r]])
        p_sol, _, residual = solve_dare(A, B, Q, R, tol=1e-14)
        disc = q * b**2 - r * (1.0 - a**2)
        closed = (disc + np.sqrt(disc**2 + 4.0 * b**2 * q * r)) / (2.0 * b**2)
        assert residual < 1e-10
        assert abs(p_sol[0, 0] - closed) < 1e-10

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(2)
        n, m = 6, 2
        A = rng.standard_normal((n, n))
        A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
        B = rng.standard_normal((n, m))
        Q, R = np.eye(n), np.eye(m)
        p_sol, _, _ = solve_dare(A, B, Q, R, tol=1e-14)
        nxt, _, residual = dare_step(p_sol, A, B, Q, R)
        rel = np.linalg.norm(nxt - p_sol, "fro") / np.linalg.norm(p_sol, "fro")
        assert rel < 1e-8
        assert residual == pytest.approx(
            np.linalg.norm(nxt - p_sol, "fro")
            / (1.0 + np.linalg.norm(p_sol, "fro")), rel=1e-12)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(7)
        A = 0.5 * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        out, _, _ = dare_step(np.eye(4), A, B, np.eye(4), np.eye(2))
        np.testing.assert_allclose(out, out.T, atol=1e-14)

    def test_no_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            solve_dare(np.eye(2), np.eye(2), np.eye(2), np.eye(2),
                       max_iterations=0)

    # scipy's pencil method fails for A of vanishing scale (radius 1e-181
    # breaks its QZ reordering), so the oracle is drawn from 0.05 up;
    # test_zero_transition_returns_q covers A = 0.
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           m=st.integers(1, 4), radius=st.floats(0.05, 0.9))
    def test_matches_scipy_solve_discrete_are(self, seed, n, m, radius):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
        B = rng.standard_normal((n, m))
        L = rng.standard_normal((m, m))
        Q, R = np.eye(n), L @ L.T + 0.1 * np.eye(m)
        p_sol, _, _ = solve_dare(A, B, Q, R, tol=1e-14)
        oracle = solve_discrete_are(A, B, Q, R)
        err = (np.linalg.norm(p_sol - oracle, "fro")
               / np.linalg.norm(oracle, "fro"))
        assert err <= 1e-8


class TestFeedbackGain:
    """The gain K_f = (R + B'PB)^{-1} B'PA that dare_step yields at P."""

    def test_zero_transition_gives_zero_gain(self):
        _, kf, _ = dare_step(np.eye(3), np.zeros((3, 3)), np.ones((3, 1)),
                             np.eye(3), np.eye(1))
        np.testing.assert_array_equal(kf, 0.0)

    def test_scalar_hand_formula(self):
        a, b, p, r = 0.8, 0.5, 2.0, 1.5
        _, kf, _ = dare_step(np.array([[p]]), np.array([[a]]),
                             np.array([[b]]), np.eye(1), np.array([[r]]))
        assert kf[0, 0] == pytest.approx(b * p * a / (r + b * b * p))

    def test_projected_closed_loop_stable(self):
        model = make_benchmark_plant(seed=0, n=4, r=2, l=2)
        p = choose_past_window(model, tol=1e-8)
        P = 46
        lp = assemble_predictor(model.markov_parameters(p), p, P,
                                model.r, model.l)
        basis = build_basis(P, model.r)
        abar, bbar = _project(lp, basis)
        nb = basis.n_params
        Q, R = np.eye(3 * nb), 10.0 * np.eye(nb)
        p_sol, _, residual = solve_dare(abar, bbar, Q, R)
        assert residual < 1e-8
        _, kf, _ = dare_step(p_sol, abar, bbar, Q, R)
        closed = abar - bbar @ kf
        assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0


class TestUpdateTheta:
    def test_zero_beta_freezes_theta(self):
        theta = np.array([1.0, -2.0])
        out, dtheta = update_theta(theta, np.zeros(2), np.ones(2), np.ones(2),
                                   np.ones((2, 6)), alpha=1.0, beta=0.0)
        np.testing.assert_array_equal(out, theta)
        np.testing.assert_array_equal(dtheta, 0.0)

    def test_unit_gains_pure_state_feedback(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(2)
        dtheta = rng.standard_normal(2)
        ybar = rng.standard_normal(2)
        dybar = rng.standard_normal(2)
        kf = rng.standard_normal((2, 6))
        out, inc = update_theta(theta, dtheta, ybar, dybar, kf, 1.0, 1.0)
        x = np.concatenate([ybar, dtheta, dybar])
        np.testing.assert_allclose(inc, -kf @ x, atol=1e-12)

    def test_gain_range_enforced(self):
        with pytest.raises(ValueError):
            update_theta(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                         np.zeros((1, 3)), alpha=1.2, beta=0.5)


class TestController:
    def test_nothing_to_reject_drives_theta_to_zero(self):
        params = TurbineParams(loads=LoadModel(
            mean_nm=0.0, amp_1p_nm=0.0, amp_2p_nm=0.0, noise_std_nm=0.0,
            wind_gain_nm_per_mps=0.0))
        cfg = SprcConfig()
        ctrl = SprcController(cfg, 200.0 / (230.0 / 60.0))
        _constant_wind_loop(params, ctrl.step, int(60.0 / params.ts),
                            np.random.default_rng(0))
        assert np.linalg.norm(ctrl.theta) < 1e-3

    def test_nan_measurement_holds_theta(self):
        cfg = SprcConfig()
        ctrl = SprcController(cfg, 52.0)
        azimuths = (2 * np.pi * np.arange(400) / 52.0) % (2 * np.pi)
        omega = 2 * np.pi * 200.0 / 52.0
        for az in azimuths[:200]:
            ctrl.step(np.zeros(2), az, omega)
        for az in azimuths[200:]:
            u = ctrl.step(np.full(2, np.nan), az, omega)
            assert np.all(np.isfinite(u))
        assert np.all(np.isfinite(ctrl.theta))

    def test_period_selection(self):
        cfg = SprcConfig(period_fraction=0.9)
        ctrl = SprcController(cfg, 52.17)
        assert ctrl.period == 46

    def test_too_short_rotation_rejected(self):
        with pytest.raises(ValueError):
            SprcController(SprcConfig(), 8.0)

    def test_basis_rows_matches_uniform_grid(self):
        basis = build_basis(52, 2)
        angles = 2.0 * np.pi * np.arange(1, 53) / 52.0
        np.testing.assert_allclose(basis_rows(angles, 2), basis.phi,
                                   atol=1e-12)


class TestFloatStep:
    """SprcController.step on floats against the numpy control_sample."""

    @pytest.mark.parametrize("harmonics", [(1,), (1, 2)])
    def test_command_matches_control_sample(self, harmonics):
        # Five identification rotations, then feedback: theta is swapped
        # at every boundary (new excitation, reset to rest, synthesis).
        # Samples 700-709 carry NaN loads. One controller reads tuples,
        # its twin the same loads as arrays.
        cfg = SprcConfig(ident_duration_s=1.3)
        per_rev = 52
        ctrls = [SprcController(cfg, per_rev, harmonics=harmonics)
                 for _ in range(2)]
        rng = np.random.default_rng(3)
        n = 20 * per_rev + 7
        azimuth = (2.0 * np.pi * (np.arange(n) + 0.5) / per_rev) % (
            2.0 * np.pi)
        loads = rng.standard_normal((n, 2))
        loads[700:710] = np.nan
        swaps = 0
        for k in range(n):
            before = ctrls[0].theta
            u = ctrls[0].step(tuple(loads[k].tolist()), azimuth[k], 24.0)
            twin = ctrls[1].step(loads[k], azimuth[k], 24.0)
            swaps += ctrls[0].theta is not before
            np.testing.assert_array_equal(u, twin)
            np.testing.assert_allclose(
                u, control_sample(ctrls[0].theta, azimuth[k], 2, harmonics),
                rtol=0.0, atol=1e-14)
        # Every boundary swaps theta but the two the NaN loads fault,
        # which hold it; the last rotations synthesize again.
        telemetry = ctrls[0].telemetry
        faults = sum(tel.fault for tel in telemetry)
        assert (len(telemetry), faults, swaps) == (20, 2, 18)
        assert np.isfinite(telemetry[-1].gain_norm)
        # The residual and gain norm are NaN exactly where nothing was
        # synthesized: the identification rotations, the first control
        # rotation and the two faults.
        ident = sum(tel.time_s < cfg.ident_duration_s for tel in telemetry)
        idle = set(range(ident + 1)) | {
            i for i, tel in enumerate(telemetry) if tel.fault}
        assert (ident, len(idle)) == (4, 7)
        for i, tel in enumerate(telemetry):
            assert np.isnan(tel.dare_residual) == (i in idle)
            assert np.isnan(tel.gain_norm) == (i in idle)
        # Each record is built once and frozen.
        with pytest.raises(FrozenInstanceError):
            telemetry[-1].fault = True


class TestRotationTelemetry:
    def test_synthesis_is_one_dare_step(self):
        # The first two synthesized rotations, redone from the controller's
        # state before each boundary and its Markov estimate and load
        # harmonics after the fold: the run path's projection, with the
        # lag map the controller built once, then one dare_step from the P
        # before it and update_theta with the gain at that P, bit for bit.
        # The second starts from the P the first committed.
        cfg = SprcConfig(ident_duration_s=1.3)
        per_rev = 52
        ctrl = SprcController(cfg, per_rev)
        rng = np.random.default_rng(5)
        nb = ctrl.basis.n_params
        q, r = np.eye(3 * nb), np.eye(nb) * cfg.r_weight
        k = checked = 0
        while checked < 2:
            rotations = len(ctrl.telemetry)
            while len(ctrl.telemetry) == rotations:
                before = ctrl.p_riccati, ctrl.theta, ctrl.delta_theta
                ctrl.step(rng.standard_normal(2),
                          2.0 * np.pi * ((k + 0.5) / per_rev % 1.0), 24.0)
                k += 1
            tel = ctrl.telemetry[-1]
            if np.isnan(tel.dare_residual):
                continue
            p_before, theta_before, dtheta_before = before
            lp = assemble_predictor(ctrl.markov.estimate, cfg.past_window,
                                    ctrl.period, 2, 2)
            abar, bbar = project_predictor(lp, ctrl.basis, ctrl._lags)
            p_next, kf, residual = dare_step(p_before, abar, bbar, q, r)
            theta, dtheta = update_theta(theta_before, dtheta_before,
                                         ctrl.ybar, ctrl.delta_ybar, kf,
                                         cfg.alpha, cfg.beta)
            assert tel.dare_residual == residual
            assert tel.gain_norm == float(np.linalg.norm(kf))
            np.testing.assert_array_equal(ctrl.p_riccati, p_next)
            np.testing.assert_array_equal(ctrl.theta, theta)
            np.testing.assert_array_equal(ctrl.delta_theta, dtheta)
            checked += 1

    def test_tracked_riccati_stays_near_the_dare(self, monkeypatch):
        # sprc-1p2p at 5 m/s, seeds 0-2: at the end of each run the
        # Riccati matrix carried one step per rotation is close to the
        # fixed point of the current estimate's DARE, and the gain it
        # gives stabilizes the projected loop. The last rotations'
        # residuals read 1.35-1.80e-3 and the largest over each run's last
        # 50 rotations 3.1-5.9e-3, so the bound of 1e-2 holds for any late
        # rotation; the first step, from P = Q, reads about 1. The
        # closed-loop spectral radius reads 0.76-0.81.
        last = {}

        def recording_step(p_riccati, abar, bbar, q_weight, r_weight):
            out = dare_step(p_riccati, abar, bbar, q_weight, r_weight)
            last.update(abar=abar, bbar=bbar, kf=out[1])
            return out

        monkeypatch.setattr(sprc, "dare_step", recording_step)
        for seed in range(3):
            seeds = Seeds(wind=seed, noise=seed + 100, excitation=seed + 200)
            for mode in ("static0", "lidar"):
                last.clear()
                record = run_experiment(ExperimentConfig(
                    mode=mode, controller="sprc-1p2p", seeds=seeds))
                residual = record.rotations[-1].dare_residual
                assert residual < 1e-2, (mode, seed, residual)
                closed = last["abar"] - last["bbar"] @ last["kf"]
                assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0

    def test_rotation_time_is_the_wrap_sample(self):
        # Each record is written at the sample on which the azimuth wraps,
        # at ts times that sample's index, bit for bit.
        record = run_experiment(ExperimentConfig(controller="sprc-1p2p"))
        wraps = np.flatnonzero(np.diff(record.azimuth) < 0) + 1
        ts = record.config.plant.ts
        assert len(wraps) > 400
        assert [tel.time_s for tel in record.rotations] == [
            int(k) * ts for k in wraps]

    def test_run_path_never_solves_the_dare(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_dare called on the run path")

        monkeypatch.setattr(sprc, "solve_dare", refuse)
        record = run_experiment(ExperimentConfig(
            controller="sprc-1p", duration=12.0, eval_start_s=4.0,
            sprc=SprcConfig(ident_duration_s=2.0)))
        assert any(np.isfinite(tel.dare_residual) for tel in record.rotations)

    def test_load_harmonics_fitted_only_after_identification(
            self, monkeypatch):
        # ybar and delta_ybar are first read by the synthesis of the second
        # control rotation, so the fit runs on no identification rotation
        # and on every rotation after identification.
        fitted = []
        fit = SprcController._estimate_ybar

        def counting_fit(self, angles, loads):
            fitted.append(len(self.telemetry))  # the rotation being closed
            return fit(self, angles, loads)

        monkeypatch.setattr(SprcController, "_estimate_ybar", counting_fit)
        cfg = SprcConfig(ident_duration_s=4.0)
        record = run_experiment(ExperimentConfig(
            controller="sprc-1p2p", duration=12.0, eval_start_s=4.0,
            sprc=cfg))
        after = [i for i, tel in enumerate(record.rotations)
                 if tel.time_s >= cfg.ident_duration_s]
        assert 0 < after[0] and len(after) > 2
        assert fitted == after


class TestCallingThread:
    def test_sprc_run_keeps_its_work_on_the_calling_thread(self):
        # Every per-rotation solve is a BLAS level-2 dtrsv, which OpenBLAS
        # runs on the calling thread; its level-3 and LAPACK triangular
        # solves hand sizes as small as 80 x 2 to a worker thread, which
        # then spins on the other core. With those solves, CPU time on
        # other threads read 41-46 % of wall over such runs; without them,
        # 0.0 ms. With a one-thread OpenBLAS it reads 0.0 either way, and
        # the test shows nothing.
        time.sleep(0.3)  # a worker left spinning by an earlier test sleeps
        for controller in ("sprc-1p", "sprc-1p2p"):
            wall = time.perf_counter()
            cpu, own = time.process_time(), time.thread_time()
            run_experiment(ExperimentConfig(controller=controller,
                                            duration=40.0))
            wall = time.perf_counter() - wall
            other = (time.process_time() - cpu) - (time.thread_time() - own)
            assert other <= 0.05 * wall, (controller, other, wall)


def _kron_ybar_reference(angles, loads, harmonics):
    # The fit over all blades at once: kron'd basis rows and a DC column
    # per blade against the interleaved loads.
    rows = basis_rows(angles, 2, harmonics)
    dc = np.kron(np.ones((len(angles), 1)), np.eye(2))
    coeffs = np.linalg.lstsq(np.hstack([rows, dc]), loads.ravel(),
                             rcond=None)[0]
    return coeffs[:rows.shape[1]]


class TestHarmonicFit:
    @pytest.mark.parametrize("harmonics", [(1,), (1, 2)])
    @pytest.mark.parametrize("m", [39, 52, 81])
    def test_matches_kron_fit(self, harmonics, m):
        ctrl = SprcController(SprcConfig(), 52.0, harmonics=harmonics)
        rng = np.random.default_rng(m)
        # One rotation sampled non-uniformly, as under a changing speed.
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
        loads = (rng.standard_normal((m, 2))
                 + np.outer(np.sin(angles + 0.3), [4.0, -2.0]) + 7.0)
        want = _kron_ybar_reference(angles, loads, harmonics)
        got = ctrl._estimate_ybar(angles, loads)
        assert got.shape == (ctrl.basis.n_params,)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("harmonics", [(1,), (1, 2)])
    def test_short_rotation_gives_none(self, harmonics):
        ctrl = SprcController(SprcConfig(), 52.0, harmonics=harmonics)
        m = max(8, ctrl.basis.n_params)
        angles = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        loads = np.ones((m, 2))
        assert ctrl._estimate_ybar(angles[:-1], loads[:-1]) is None
        assert ctrl._estimate_ybar(angles, loads) is not None


class TestRotationFold:
    @pytest.mark.parametrize("per_rev", [39, 81])
    def test_estimate_matches_batch_of_row_by_row_regressors(self, per_rev):
        # Rotations shorter and longer than P = 46, with a NaN and an inf
        # burst in the loads. Oracle: the delta rows of the whole recorded
        # u/y history, less those with a non-finite entry, solved by
        # batch_solve; a rotation is faulted iff it holds such a row. A
        # dropped finite row, or a kept non-finite one, moves the estimate
        # far past the bound.
        cfg = SprcConfig(ident_duration_s=1e9, excitation_amplitude_deg=10.0)
        ctrl = SprcController(cfg, 52.0)
        P, p = ctrl.period, cfg.past_window
        assert P == 46
        rng = np.random.default_rng(per_rev)
        n = 60 * per_rev + per_rev // 2
        y = rng.standard_normal((n, 2))
        y[700, 0] = np.nan
        y[1500:1503] = np.inf
        azimuth = 2.0 * np.pi * (np.arange(n) % per_rev) / per_rev
        u = np.array([ctrl.step(y[k], azimuth[k], 0.0) for k in range(n)])

        # Only rotations that ended are folded in.
        folded = (n // per_rev) * per_rev
        du, dy = u[P:] - u[:-P], y[P:] - y[:-P]  # row j is sample j + P
        z, t, refused = [], [], set()
        for k in range(P + p, folded):
            past = slice(k - P - p, k - P)
            row = np.concatenate((du[past].ravel(), dy[past].ravel()))
            if not (np.isfinite(row).all() and np.isfinite(dy[k - P]).all()):
                refused.add(k // per_rev)
                continue
            z.append(row)
            t.append(dy[k - P])
        assert refused
        assert [tel.fault for tel in ctrl.telemetry] == [
            i in refused for i in range(n // per_rev)]
        batch = batch_solve(np.array(z), np.array(t), cfg.forgetting)
        gap = np.linalg.norm(ctrl.markov.estimate - batch)
        assert gap <= 1e-8 * (1.0 + np.linalg.norm(batch))


class TestOperatingEnvelope:
    # Static45, seeds 0-2, reduction over 80-120 s: a set-point step at
    # 40 s landed within 0.7 pp of a steady run at the destination, for
    # wind steps 4 -> 5, 5 -> 4 and 5 -> 6 m/s (P = 72, 46, 46 against
    # about 53, 81 and 39 samples per rotation after the step), and within
    # 0.12 pp for collective steps 2 -> 10, 2 -> 0 and 10 -> 2 deg at
    # 5 m/s. The 4.5 -> 5 m/s step is acceptance criterion 9's: stepped
    # and steady read 78.31/78.26, 78.23/78.15 and 78.97/78.91 %, a gap of
    # 0.06-0.08 pp, where criterion 9 itself only asks for a ratio.
    FIELDS = {"wind_mean": "mean_wind",
              "collective_pitch": "collective_pitch_deg"}

    @pytest.mark.parametrize("kind, start, end", [
        ("wind_mean", 4.0, 5.0), ("wind_mean", 4.5, 5.0),
        ("wind_mean", 5.0, 4.0),
        ("wind_mean", 5.0, 6.0), ("collective_pitch", 2.0, 10.0),
        ("collective_pitch", 2.0, 0.0), ("collective_pitch", 10.0, 2.0)])
    def test_setpoint_step_reaches_steady_reduction(self, kind, start, end):
        seeds = Seeds(wind=0, noise=100, excitation=200)

        def reduction(setpoint, events=()):
            base = ExperimentConfig(mode="static45", duration=120.0,
                                    eval_start_s=80.0, seeds=seeds,
                                    events=events,
                                    **{self.FIELDS[kind]: setpoint})
            controlled = replace(base, controller="sprc-1p2p")
            return variance_reduction(run_experiment(base),
                                      run_experiment(controlled))["pooled"]

        stepped = reduction(start, (ScenarioEvent(40.0, kind, end),))
        assert abs(stepped - reduction(end)) < 2.0


class TestZeroExcitation:
    def test_run_completes_as_a_no_op(self):
        # With no excitation the input Markov blocks are never identified,
        # the synthesized gain is zero and theta stays at zero: the run
        # completes and silently changes nothing.
        baseline = run_experiment(ExperimentConfig(duration=60.0))
        record = run_experiment(ExperimentConfig(
            duration=60.0, controller="sprc-1p2p",
            sprc=SprcConfig(excitation_amplitude_deg=0.0)))
        assert record.rotations
        for rotation in record.rotations:
            assert np.all(np.isfinite(rotation.theta))
        assert variance_reduction(baseline, record)["pooled"] >= -1.0


def _constant_wind_loop(params, step, samples, rng):
    """`open_loop` + `close_loop` at 5 m/s and 2 deg; returns the loads."""
    state = TurbineState.initial(params, 5.0)
    collective = np.full(samples, 2.0)
    rotor = open_loop(params, state, np.full(samples, 5.0), collective, rng)
    return close_loop(params, rotor, collective, state.servo_pitch, step)[1]


def _corrupted_closed_loop(kind: str):
    """SPRC on the turbine surrogate, identifying for the first 10 s.

    From 15 s on, the measured loads are corrupted once: `nan_burst` and
    `inf_burst` replace 10 consecutive samples, `nan_at_wrap` replaces the
    one sample on which the azimuth wraps. Returns the controller and the
    time of the first corrupted sample.
    """
    params = TurbineParams()
    state = TurbineState.initial(params, 5.0)
    ctrl = SprcController(SprcConfig(ident_duration_s=10.0),
                          2.0 * np.pi / state.omega / params.ts,
                          ts=params.ts)
    start = int(15.0 / params.ts)
    k, prev_azimuth, corrupted = 0, state.azimuth, []

    def step(loads, azimuth, omega):
        nonlocal k, prev_azimuth
        measured = loads
        if kind == "nan_burst" and start <= k < start + 10:
            measured = (np.nan, np.nan)
        elif kind == "inf_burst" and start <= k < start + 10:
            measured = (np.inf, -np.inf)
        elif (kind == "nan_at_wrap" and k >= start and not corrupted
              and azimuth < prev_azimuth):
            measured = (np.nan, loads[1])
        if measured is not loads:
            corrupted.append(k)
        k, prev_azimuth = k + 1, azimuth
        u = ctrl.step(measured, azimuth, omega)
        assert np.all(np.isfinite(u))
        return u

    _constant_wind_loop(params, step, int(25.0 / params.ts),
                        np.random.default_rng(1))
    return ctrl, corrupted[0] * params.ts


class TestFailSafeAfterIdentification:
    @pytest.mark.parametrize("kind", ["nan_burst", "nan_at_wrap",
                                      "inf_burst"])
    def test_faults_flagged_theta_held_then_recovered(self, kind):
        ctrl, t_bad = _corrupted_closed_loop(kind)
        tel = ctrl.telemetry
        # The last record written before the corrupted sample arrived.
        hit = max(i for i, t in enumerate(tel) if t.time_s <= t_bad)
        # No record written before the corrupted sample is flagged: the
        # first flag lands on the next rotation's record, and every record
        # from there up to the first one without a fault is flagged.
        assert not any(t.fault for t in tel[:hit + 1])
        assert tel[hit + 1].fault
        end = next(i for i in range(hit + 1, len(tel)) if not tel[i].fault)
        assert end - (hit + 1) >= 2
        assert not any(t.fault for t in tel[end:])
        # While faults persist the controller holds the last good theta,
        # the one synthesized before the corrupted sample arrived.
        held = tel[hit].theta
        assert np.all(np.isfinite(held))
        assert np.isfinite(tel[hit].gain_norm)
        for t in tel[hit + 1:end]:
            np.testing.assert_array_equal(t.theta, held)
            assert np.isnan(t.gain_norm)
        # A later rotation synthesizes again.
        assert np.isfinite(tel[end].gain_norm)
        assert not np.array_equal(tel[end].theta, held)
        assert np.all(np.isfinite(ctrl.theta))
