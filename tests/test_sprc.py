"""Tests for basis projection, the lifted predictor, DARE and the controller."""

import numpy as np
import pytest

from sprclab.plant import (LoadModel, TurbineParams, TurbineState,
                           make_benchmark_plant, simulate_lti, turbine_step)
from sprclab.sprc import (BasisMatrix, SprcConfig, SprcController,
                          assemble_predictor, basis_rows, build_basis,
                          control_sample, dare_step, feedback_gain,
                          project_predictor, solve_dare, update_theta)
from sprclab.sysid import choose_past_window


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


class TestAssemblePredictor:
    def test_zero_markov_gives_open_loop_predictor(self):
        p, P = 3, 12
        lp = assemble_predictor(np.zeros((1, 2 * p)), p, P, 1, 1)
        np.testing.assert_array_equal(lp.h, 0.0)
        np.testing.assert_array_equal(lp.gku, 0.0)
        np.testing.assert_array_equal(lp.gky, 0.0)

    def test_scalar_single_lag_subdiagonal(self):
        h = 2.5
        P = 6
        lp = assemble_predictor(np.array([[h, 0.0]]), 1, P, 1, 1)
        expected = np.zeros((P, P))
        for i in range(1, P):
            expected[i, i - 1] = h
        np.testing.assert_allclose(lp.h, expected, atol=1e-12)

    def test_corner_columns_zero(self):
        rng = np.random.default_rng(0)
        p, P, r = 4, 20, 2
        markov = rng.standard_normal((r, 2 * r * p))
        lp = assemble_predictor(markov, p, P, r, r)
        np.testing.assert_array_equal(lp.gku[:, :(P - p) * r], 0.0)
        np.testing.assert_array_equal(lp.gky[:, :(P - p) * r], 0.0)

    def test_h_strictly_delayed(self):
        rng = np.random.default_rng(1)
        p, P, r = 3, 10, 2
        markov = rng.standard_normal((r, 2 * r * p))
        lp = assemble_predictor(markov, p, P, r, r)
        for i in range(P):
            block = lp.h[i * r:(i + 1) * r, i * r:]
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
            pred = (lift(y, j) + lp.gku @ du_j + lp.gky @ dy_j
                    + lp.h @ du_next)
            actual = lift(y, j + 1)
            errs.append(np.linalg.norm(pred - actual)
                        / np.linalg.norm(actual))
        assert max(errs) < 1e-6


class TestProjection:
    def test_zero_plant_pattern(self):
        p, P, r = 2, 16, 1
        lp = assemble_predictor(np.zeros((r, 2 * r * p)), p, P, r, r)
        basis = build_basis(P, r)
        abar, bbar = project_predictor(lp, basis)
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
        abar, bbar = project_predictor(lp, build_basis(P, r))
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
        abar, bbar = project_predictor(lp, basis)
        nb = basis.n_params
        pu = basis.pinv @ lp.gku @ basis.phi
        py = basis.pinv @ lp.gky @ basis.phi
        ph = basis.pinv @ lp.h @ basis.phi
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


class TestDare:
    def test_zero_transition_returns_q(self):
        q = np.diag([1.0, 2.0, 3.0])
        out = dare_step(np.eye(3), np.zeros((3, 3)), np.ones((3, 1)), q,
                        np.eye(1))
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
        nxt = dare_step(p_sol, A, B, Q, R)
        rel = np.linalg.norm(nxt - p_sol, "fro") / np.linalg.norm(p_sol, "fro")
        assert rel < 1e-8

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(7)
        A = 0.5 * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        out = dare_step(np.eye(4), A, B, np.eye(4), np.eye(2))
        np.testing.assert_allclose(out, out.T, atol=1e-14)


class TestFeedbackGain:
    def test_zero_transition_gives_zero_gain(self):
        kf = feedback_gain(np.eye(3), np.zeros((3, 3)), np.ones((3, 1)),
                           np.eye(1))
        np.testing.assert_array_equal(kf, 0.0)

    def test_scalar_hand_formula(self):
        a, b, p, r = 0.8, 0.5, 2.0, 1.5
        kf = feedback_gain(np.array([[p]]), np.array([[a]]), np.array([[b]]),
                           np.array([[r]]))
        assert kf[0, 0] == pytest.approx(b * p * a / (r + b * b * p))

    def test_projected_closed_loop_stable(self):
        model = make_benchmark_plant(seed=0, n=4, r=2, l=2)
        p = choose_past_window(model, tol=1e-8)
        P = 46
        lp = assemble_predictor(model.markov_parameters(p), p, P,
                                model.r, model.l)
        basis = build_basis(P, model.r)
        abar, bbar = project_predictor(lp, basis)
        nb = basis.n_params
        Q, R = np.eye(3 * nb), 10.0 * np.eye(nb)
        p_sol, _, residual = solve_dare(abar, bbar, Q, R)
        assert residual < 1e-8
        kf = feedback_gain(p_sol, abar, bbar, R)
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
        state = TurbineState.initial(params, 5.0)
        prev = np.zeros(2)
        for _ in range(int(60.0 / params.ts)):
            u = 2.0 + ctrl.step(prev, state.azimuth, state.omega)
            prev, state = turbine_step(state, params, u, 5.0)
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
    rng = np.random.default_rng(1)
    start = int(15.0 / params.ts)
    loads, prev_azimuth, corrupted = np.zeros(2), state.azimuth, []
    for k in range(int(25.0 / params.ts)):
        measured = loads
        if kind == "nan_burst" and start <= k < start + 10:
            measured = np.full(2, np.nan)
        elif kind == "inf_burst" and start <= k < start + 10:
            measured = np.array([np.inf, -np.inf])
        elif (kind == "nan_at_wrap" and k >= start and not corrupted
              and state.azimuth < prev_azimuth):
            measured = np.array([np.nan, loads[1]])
        if measured is not loads:
            corrupted.append(k)
        prev_azimuth = state.azimuth
        u = ctrl.step(measured, state.azimuth, state.omega)
        assert np.all(np.isfinite(u))
        loads, state = turbine_step(state, params, 2.0 + u, 5.0, rng)
    return ctrl, corrupted[0] * params.ts


class TestFailSafeAfterIdentification:
    @pytest.mark.parametrize("kind", ["nan_burst", "nan_at_wrap",
                                      "inf_burst"])
    def test_faults_flagged_theta_held_then_recovered(self, kind):
        ctrl, t_bad = _corrupted_closed_loop(kind)
        tel = ctrl.telemetry
        # The rotation that holds the corrupted sample, and every record
        # from there up to the first one without a fault.
        hit = max(i for i, t in enumerate(tel) if t.time_s <= t_bad)
        assert not any(t.fault for t in tel[:hit])
        assert tel[hit].fault
        end = next(i for i in range(hit, len(tel)) if not tel[i].fault)
        assert end - hit >= 2
        assert not any(t.fault for t in tel[end:])
        # While faults persist the controller holds the last good theta,
        # the one synthesized before the corrupted sample arrived.
        held = tel[hit].theta
        assert np.all(np.isfinite(held))
        for t in tel[hit + 1:end]:
            np.testing.assert_array_equal(t.theta, held)
            assert np.isnan(t.gain_norm)
        # A later rotation synthesizes again.
        assert np.isfinite(tel[end].gain_norm)
        assert not np.array_equal(tel[end].theta, held)
        assert np.all(np.isfinite(ctrl.theta))
