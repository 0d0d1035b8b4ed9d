"""Acceptance gate: ten pass/fail criteria for the full pipeline.

Each test prints a single PASS line on success (and pytest -v reports one
line per criterion either way). Tolerances are part of the contract and
must not be loosened.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from sprclab import windfield
from sprclab.harness import (ExperimentConfig, ScenarioEvent, Seeds,
                             actuator_duty, run_experiment, sweep_configs,
                             variance_reduction)
from sprclab.plant import (LoadModel, TurbineParams, TurbineState, close_loop,
                           make_benchmark_plant, open_loop, simulate_lti)
from sprclab.spectral import loglog_slope, welch_psd
from sprclab.sprc import (SprcConfig, SprcController, assemble_predictor,
                          build_basis, control_sample, dare_step,
                          project_predictor, solve_dare)
from sprclab.sysid import (DeltaBuffer, MarkovEstimate, batch_solve,
                           choose_past_window)

NOMINAL_ROTATION_SAMPLES = 200.0 / (230.0 / 60.0)

_RUN_CACHE: dict = {}


def _cached_run(config: ExperimentConfig):
    key = repr(config.to_dict())
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = run_experiment(config)
    return _RUN_CACHE[key]


def test_criterion_01_identification_consistency():
    started = time.perf_counter()
    model = make_benchmark_plant(seed=0, n=4, r=2, l=2)
    p, P = 6, 40
    rng = np.random.default_rng(1)
    steps = 20000
    u = rng.standard_normal((steps, model.r))
    k = np.arange(steps)
    d = np.column_stack([np.sin(2 * np.pi * k / P),
                         np.cos(2 * np.pi * k / P)])
    clean = simulate_lti(model, u, d, np.zeros((steps, model.l)))
    e = 0.01 * clean.std() * rng.standard_normal(clean.shape)
    y = simulate_lti(model, u, d, e)

    z, t = DeltaBuffer(P, p, model.r, model.l).extend(u, y)
    est = MarkovEstimate(model.r, model.l, p)
    for a in range(0, len(z), 64):
        est.fold(z[a:a + 64], t[a:a + 64])
    xi_true = model.markov_parameters(p)
    err = np.linalg.norm(est.estimate - xi_true) / np.linalg.norm(xi_true)
    elapsed = time.perf_counter() - started
    assert err < 0.05, f"relative Markov error {err:.4f} >= 5%"
    assert elapsed < 10.0, f"identification took {elapsed:.1f} s >= 10 s"
    print(f"CRITERION 1 PASS: identification error {100 * err:.2f}% "
          f"in {elapsed:.2f} s")


def test_criterion_02_rls_batch_equivalence():
    r, l, p = 2, 2, 4
    dim = (r + l) * p
    rng = np.random.default_rng(2)
    z = rng.standard_normal((5000, dim))
    t = rng.standard_normal((5000, l))
    est = MarkovEstimate(r, l, p, forgetting=1.0)
    for a in range(0, len(z), 64):
        est.fold(z[a:a + 64], t[a:a + 64])
    batch = batch_solve(z, t, forgetting=1.0)
    gap = np.linalg.norm(est.estimate - batch)
    bound = 1e-8 * (1.0 + np.linalg.norm(batch))
    assert gap <= bound, f"RLS/batch gap {gap:.2e} > {bound:.2e}"
    print(f"CRITERION 2 PASS: RLS/batch gap {gap:.2e} <= {bound:.2e}")


def test_criterion_03_basis_exactness():
    worst = 0.0
    for period in (16, 52, 200):
        for r in (1, 2):
            basis = build_basis(period, r)
            gap = np.max(np.abs(basis.pinv @ basis.phi - np.eye(4 * r)))
            worst = max(worst, gap)
    assert worst < 1e-10, f"basis pseudoinverse defect {worst:.2e}"

    period = 128
    theta = np.array([0.5, -1.0, 0.2, 0.9])
    sweep = np.array([control_sample(theta, 2 * np.pi * i / period, 1)[0]
                      for i in range(period)])
    spectrum = np.abs(np.fft.rfft(sweep))**2
    purity = (spectrum[1] + spectrum[2]) / spectrum.sum()
    assert purity > 0.999, f"control power purity {purity:.5f}"
    print(f"CRITERION 3 PASS: basis defect {worst:.1e}, "
          f"control purity {100 * purity:.2f}%")


def test_criterion_04_dare_correctness():
    # Fixed point of the recursion on a projected surrogate-sized system.
    model = make_benchmark_plant(seed=0, n=4, r=2, l=2)
    p = choose_past_window(model, tol=1e-8)
    lp = assemble_predictor(model.markov_parameters(p), p, 46,
                            model.r, model.l)
    basis = build_basis(46, model.r)
    abar, bbar = project_predictor(lp, basis)
    nb = basis.n_params
    Q, R = np.eye(3 * nb), 10.0 * np.eye(nb)
    p_sol, _, _ = solve_dare(abar, bbar, Q, R, tol=1e-14)
    nxt, kf, _ = dare_step(p_sol, abar, bbar, Q, R)
    residual = (np.linalg.norm(nxt - p_sol, "fro")
                / np.linalg.norm(p_sol, "fro"))
    assert residual < 1e-8, f"DARE fixed-point residual {residual:.2e}"
    assert np.max(np.abs(np.linalg.eigvals(abar - bbar @ kf))) < 1.0

    a, b, q, r = 0.9, 1.0, 1.0, 1.0
    scalar, _, _ = solve_dare(np.array([[a]]), np.array([[b]]),
                              np.array([[q]]), np.array([[r]]), tol=1e-14)
    disc = q * b**2 - r * (1.0 - a**2)
    closed = (disc + np.sqrt(disc**2 + 4.0 * b**2 * q * r)) / (2.0 * b**2)
    scalar_err = abs(scalar[0, 0] - closed)
    assert scalar_err < 1e-10, f"scalar DARE error {scalar_err:.2e}"
    print(f"CRITERION 4 PASS: fixed-point residual {residual:.1e}, "
          f"scalar error {scalar_err:.1e}")


def test_criterion_05_pure_periodic_rejection():
    params = TurbineParams(loads=LoadModel(noise_std_nm=0.0,
                                           wind_gain_nm_per_mps=0.0))
    ctrl = SprcController(SprcConfig(), NOMINAL_ROTATION_SAMPLES)
    steps = int(60.0 / params.ts)
    # The run path's plant at constant wind and collective.
    state = TurbineState.initial(params, 5.0)
    collective = np.full(steps, 2.0)
    rotor = open_loop(params, state, np.full(steps, 5.0), collective,
                      np.random.default_rng(0))

    def simulate(step):
        return close_loop(params, rotor, collective, state.servo_pitch,
                          step)[1]

    controlled = simulate(ctrl.step)
    baseline = simulate(lambda loads, azimuth, omega: (0.0, 0.0))
    tail = slice(int(45.0 / params.ts), None)
    reduction = 100.0 * (1.0 - controlled[tail].var(axis=0).mean()
                         / baseline[tail].var(axis=0).mean())
    assert reduction > 99.0, f"periodic rejection {reduction:.2f}% <= 99%"
    print(f"CRITERION 5 PASS: pure-periodic rejection {reduction:.3f}%")


def test_criterion_06_band_matching():
    bands = {
        ("static0", "sprc-1p2p"): (75.0, 95.0),
        ("static0", "cipc"): (50.0, 70.0),
        ("lidar", "sprc-1p2p"): (50.0, 80.0),
    }
    results = {key: [] for key in bands}
    slowest = 0.0
    for seed in range(5):
        seeds = Seeds(wind=seed, noise=seed + 100, excitation=seed + 200)
        for mode in ("static0", "lidar"):
            base = _cached_run(ExperimentConfig(mode=mode, seeds=seeds))
            for (m, controller), _ in bands.items():
                if m != mode:
                    continue
                config = ExperimentConfig(mode=mode, controller=controller,
                                          seeds=seeds)
                started = time.perf_counter()
                record = _cached_run(config)
                slowest = max(slowest, time.perf_counter() - started)
                results[(mode, controller)].append(
                    variance_reduction(base, record)["pooled"])
    lines = []
    for (mode, controller), (lo, hi) in bands.items():
        values = results[(mode, controller)]
        lines.append(f"{mode}/{controller} mean {np.mean(values):.1f}% "
                     f"range [{min(values):.1f}, {max(values):.1f}]")
        assert lo <= np.mean(values) <= hi, (
            f"{mode}/{controller} mean reduction {np.mean(values):.1f}% "
            f"outside [{lo}, {hi}]")
    assert slowest < 30.0, f"slowest 120 s run took {slowest:.1f} s"
    print(f"CRITERION 6 PASS: {'; '.join(lines)}; "
          f"slowest run {slowest:.1f} s")


def test_criterion_07_actuator_duty_ordering():
    ratios = []
    for seed in range(3):
        seeds = Seeds(wind=seed, noise=seed + 100, excitation=seed + 200)
        duty = {"sprc-1p2p": [], "cipc": []}
        for controller in duty:
            for config in sweep_configs(controller, seeds):
                record = _cached_run(config)
                duty[controller].append(np.mean(actuator_duty(record)))
        sprc_mean = np.mean(duty["sprc-1p2p"])
        cipc_mean = np.mean(duty["cipc"])
        assert sprc_mean <= cipc_mean, (
            f"seed {seed}: SPRC duty {sprc_mean:.3f} > CIPC {cipc_mean:.3f}")
        ratios.append(sprc_mean / cipc_mean)
    print(f"CRITERION 7 PASS: SPRC/CIPC duty ratio per seed "
          f"{[f'{x:.3f}' for x in ratios]} (all <= 1)")


def test_criterion_08_wind_statistics():
    targets = {windfield.GridMode.STATIC0: 2.5,
               windfield.GridMode.STATIC45: 3.7,
               windfield.GridMode.LIDAR: 8.8,
               windfield.GridMode.GUSTS: 4.2}
    for mode, target in targets.items():
        series = windfield.generate(mode, 5.0, 120.0, 200.0, seed=0)
        ti = windfield.turbulence_intensity(series)
        assert abs(ti - target) < 0.5, (
            f"{mode.label} TI {ti:.2f}% deviates from {target}%")
        again = windfield.generate(mode, 5.0, 120.0, 200.0, seed=0)
        np.testing.assert_array_equal(series.samples, again.samples)

    lidar = windfield.generate(windfield.GridMode.LIDAR, 5.0, 120.0, 200.0, 0)
    freqs, power = welch_psd(lidar.samples, 200.0)
    slope = loglog_slope(freqs, power, 10.0, 100.0)
    assert abs(slope + 5.0 / 3.0) < 0.3, f"Lidar PSD slope {slope:.2f}"
    print(f"CRITERION 8 PASS: all TIs within 0.5 pp, Lidar slope "
          f"{slope:.2f}, generation bitwise reproducible")


def test_criterion_09_adaptivity():
    # Collective pitch 2 -> 10 degrees at t = 40 s in the gusts mode.
    config = ExperimentConfig(
        mode="gusts", duration=70.0, controller="sprc-1p2p",
        events=(ScenarioEvent(40.0, "collective_pitch", 10.0),))
    record = run_experiment(config)
    t = np.array([rot.time_s for rot in record.rotations])
    norms = np.array([rot.delta_theta_norm for rot in record.rotations])
    window = (t >= 40.0) & (t <= 60.0)
    peak_i = int(np.argmax(norms[window]))
    peak, peak_t = norms[window][peak_i], t[window][peak_i]
    settle = next((tt - 40.0 for tt, v in zip(t[window], norms[window])
                   if tt > peak_t and v < 0.05 * peak), None)
    assert settle is not None and settle < 20.0, (
        f"theta did not re-converge within 20 s (settle={settle})")

    # Wind speed 4.5 -> 5 m/s at t = 40 s in the static 45 mode.
    event = (ScenarioEvent(40.0, "wind_mean", 5.0),)
    base = ExperimentConfig(mode="static45", mean_wind=4.5, duration=100.0,
                            events=event)
    baseline = run_experiment(base)
    controlled = run_experiment(replace(base, controller="sprc-1p2p"))

    def step_increase(record):
        before = (record.time >= 30.0) & (record.time < 40.0)
        after = record.time >= 70.0
        return (record.loads[after].var(axis=0).mean()
                - record.loads[before].var(axis=0).mean())

    ratio = step_increase(controlled) / step_increase(baseline)
    assert ratio < 0.25, f"controlled variance increase ratio {ratio:.2f}"
    print(f"CRITERION 9 PASS: theta settle {settle:.1f} s, "
          f"wind-step variance ratio {ratio:.2f}")


def test_criterion_10_performance_budget():
    ctrl = SprcController(SprcConfig(ident_duration_s=2.0),
                          NOMINAL_ROTATION_SAMPLES)
    rng = np.random.default_rng(0)
    steps = 8000  # 40 s at 200 Hz, spanning many rotation boundaries
    azimuths = (2 * np.pi * np.arange(steps)
                / NOMINAL_ROTATION_SAMPLES) % (2 * np.pi)
    omega = 2 * np.pi * 200.0 / NOMINAL_ROTATION_SAMPLES
    measurements = rng.standard_normal((steps, 2))
    started = time.perf_counter()
    for k in range(steps):
        ctrl.step(measurements[k], azimuths[k], omega)
    per_sample_ms = 1000.0 * (time.perf_counter() - started) / steps
    assert per_sample_ms < 5.0, f"per-sample cost {per_sample_ms:.2f} ms"
    print(f"CRITERION 10 PASS: amortized per-sample cost "
          f"{per_sample_ms:.3f} ms < 5 ms")
