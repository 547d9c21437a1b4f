"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line on the live terminal before its
assertions run, so the full scoreboard is visible even when a criterion
fails.  Two criteria fail on the paper's gains; their lines carry the
measured evidence:

* criterion 6: the solved gains are not a stationary point of the exact
  closed-loop cost once coupling meets follower-side noise; structured
  perturbations find strictly cheaper policies.
* criterion 7: the conditional-mean stationarity identity holds to machine
  precision, the residual-part identity does not.

Both have one cause: the follower applies the mean-part gain H11 to its
own estimation error x1 - x1hat.  The exact cost splits into a
conditional-mean part, minimized by H, and an estimation-error part,
minimized by the gain J of a second Riccati equation on
(a11, b11, Q11, R11, gamma).

Criterion 2's verdict is the spectral radius of the decentralized closed
loop; the sufficient certificate margins are printed as evidence only.
"""
import json
import time
from importlib import resources

import numpy as np
import pytest

from lfns import auv
from lfns.estimator import advance
from lfns.finite_horizon import backward_riccati, discounted_backward_riccati, \
    optimal_cost, stationarity_residuals
from lfns.infinite_horizon import check_stabilizability, closed_loop_radii, \
    solve_stationary_riccati, stationary_cost
from lfns.model import assemble_compact, make_cost, model_from_dict
from lfns.oracle import StructuredPolicy, gain_gradient, kalman_oracle, \
    perturbation_sweep
from lfns.simulation import monte_carlo, mss_diagnostics, simulate, \
    simulate_batch
from pairs import coupled_noisy_model, random_pair, scalar_demo_pair

H00_REF = np.array([
    [-0.50, -0.94, -0.27, 1.48, 0.47, -0.78],
    [0.88, -0.16, 0.41, -1.80, -0.43, 1.30],
    [-1.21, 0.64, -0.40, 1.35, -0.37, -0.71]])
H01_REF = np.array([
    [0.03, 0.02, -0.01, 0.01, -0.06, -0.09],
    [-0.02, -0.02, 0.01, 0.01, 0.06, 0.09],
    [-0.01, 0.02, 0.02, 0.01, -0.03, -0.08]])
H10_REF = np.array([
    [0.76, 0.34, 0.42, -0.46, -0.08, 0.74],
    [1.81, -1.21, -0.35, -0.51, 0.87, 0.88],
    [-0.18, 1.49, -0.52, -0.05, -0.32, 1.08]])
H11_REF = np.array([
    [-0.14, 0.04, -0.01, -0.03, -0.03, -0.13],
    [-0.33, 0.09, 0.13, -0.07, -0.10, -0.37],
    [-0.03, 0.03, -0.01, -0.03, -0.11, -0.12]])
P_REF = np.hstack([
    np.array([
        [38.38, -29.39, 6.64, -11.61, 13.88, 11.58],
        [-29.39, 39.88, -11.18, 14.71, -14.83, -2.87],
        [6.64, -11.18, 15.81, -17.47, 0.96, -0.92],
        [-11.61, 14.71, -17.47, 43.38, 2.22, -15.55],
        [13.88, -14.83, 0.96, 2.22, 9.34, -0.71],
        [11.58, -2.87, -0.92, -15.55, -0.71, 20.04],
        [-1.80, 2.25, -1.18, 1.05, -1.06, 0.71],
        [0.58, -0.62, 1.17, -0.77, 0.29, -0.52],
        [0.23, 0.20, -0.08, -0.12, -0.02, 0.47],
        [-0.77, 1.55, -0.96, 0.68, -0.65, 1.01],
        [-0.71, 0.87, -2.02, 1.55, -0.39, 0.93],
        [-1.79, 1.16, -3.67, 2.85, -0.58, 0.85]]),
    np.array([
        [-1.80, 0.58, 0.23, -0.77, -0.71, -1.79],
        [2.25, -0.62, 0.20, 1.55, 0.87, 1.16],
        [-1.18, 1.17, -0.08, -0.96, -2.02, -3.67],
        [1.05, -0.77, -0.12, 0.68, 1.55, 2.85],
        [-1.06, 0.29, -0.02, -0.65, -0.39, -0.58],
        [0.71, -0.52, 0.47, 1.01, 0.93, 0.85],
        [1.50, -0.18, 0.03, 0.33, 0.30, 0.46],
        [-0.18, 1.24, 0.07, -0.11, -0.46, -0.90],
        [0.03, 0.07, 1.12, 0.11, -0.11, -0.41],
        [0.33, -0.11, 0.11, 1.31, 0.22, 0.16],
        [0.30, -0.46, -0.11, 0.22, 1.94, 1.75],
        [0.46, -0.90, -0.41, 0.16, 1.75, 4.68]])])
TOTAL_COST_REF = 6390.51


@pytest.fixture(scope="module")
def bundled():
    doc = json.loads(resources.files("lfns").joinpath(
        "data/auv-paper.json").read_text())
    return model_from_dict(doc)


@pytest.fixture(scope="module")
def bundled_solution(bundled):
    model, cost = bundled
    return solve_stationary_riccati(assemble_compact(model), cost)


def report(capsys, num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return line


def test_criterion_01_gain_reproduction(bundled, capsys):
    model, cost = bundled
    t0 = time.perf_counter()
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    elapsed = time.perf_counter() - t0
    n, m1 = model.n, model.m1
    errs = {
        "h00": np.max(np.abs(sol.h[:m1, :n] - H00_REF)),
        "h01": np.max(np.abs(sol.h[:m1, n:] - H01_REF)),
        "h10": np.max(np.abs(sol.h[m1:, :n] - H10_REF)),
        "h11": np.max(np.abs(sol.h[m1:, n:] - H11_REF))}
    worst = max(errs.values())
    ok = worst <= 0.01 and elapsed < 5.0
    # the time enters the line only when it fails, so the line repeats between runs
    slow = "" if elapsed < 5.0 else f", solve time {elapsed:.3f}s (limit 5s)"
    line = report(capsys, 1, ok,
                  f"all four gain blocks within {worst:.4f} of the reference "
                  f"print (tol 0.01){slow}")
    assert ok, line


def test_criterion_02_value_matrix_and_verdict(bundled, bundled_solution,
                                               capsys):
    model, cost = bundled
    sol = bundled_solution
    verdict = check_stabilizability(sol, cost, assemble_compact(model))
    matrix_err = np.max(np.abs(sol.p - P_REF))
    ok = matrix_err <= 0.01 and verdict.stabilizable is True
    line = report(
        capsys, 2, ok,
        f"value matrix within {matrix_err:.4f} of the reference print "
        f"(tol 0.01); stabilizable {verdict.stabilizable} from the "
        f"decentralized closed-loop radius {verdict.spectral_radius:.4f} "
        f"(limit 1); sufficient certificate reported, not gated: PD margin "
        f"{verdict.positive_definite.margin:.4f}, inequality margin "
        f"{verdict.inequality_holds.margin:.4f}")
    assert ok, line


def test_criterion_03_cost_trace_term(bundled, bundled_solution, capsys):
    model, cost = bundled
    sol = bundled_solution
    gamma = cost.gamma
    trace_term = gamma / (1.0 - gamma) * float(
        np.trace(assemble_compact(model).sigma_w @ sol.p))
    total = stationary_cost(sol, model)
    gap_pct = 100.0 * abs(total - TOTAL_COST_REF) / TOTAL_COST_REF
    ok = abs(trace_term - 1607.6) <= 0.5
    line = report(
        capsys, 3, ok,
        f"noise trace term {trace_term:.4f} within 0.5 of 1607.6; full "
        f"analytic cost {total:.2f} vs reference {TOTAL_COST_REF} "
        f"(gap {gap_pct:.1f}%, attributable to an ambiguous initial-state "
        f"and noise-weight reading in the reference; reported, not gated)")
    assert ok, line


def test_criterion_04_finite_to_stationary_convergence(bundled,
                                                       bundled_solution,
                                                       capsys):
    model, cost = bundled
    compact = assemble_compact(model)
    target = stationary_cost(bundled_solution, model)
    horizons = sorted(set(range(0, 201, 10)))
    costs = []
    for n in horizons:
        sol = discounted_backward_riccati(compact, cost, n)
        costs.append(optimal_cost(sol, model))
    monotone = all(b >= a - 1e-9 for a, b in zip(costs, costs[1:]))
    rel_gap = abs(costs[-1] - target) / abs(target)
    ok = monotone and rel_gap < 1e-4
    line = report(
        capsys, 4, ok,
        f"sweep over N=0..200 monotone={monotone}, final relative gap to "
        f"the stationary value {rel_gap:.2e} (tol 1e-4)")
    assert ok, line


def test_criterion_05_estimator_against_kalman(capsys):
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        model, _ = random_pair(rng, n=n)
        k10 = 0.2 * rng.standard_normal((n, n))
        k11 = 0.2 * rng.standard_normal((n, n))
        x0_seq = rng.standard_normal((51, n))
        u0_seq = rng.standard_normal((50, n))
        ref = kalman_oracle(model, x0_seq, u0_seq, follower_gains=(k10, k11))
        x1hat = model.xbar1
        for k in range(50):
            x1hat = advance(model, x1hat, x0_seq[k], u0_seq[k], k10, k11)
            worst = max(worst, float(np.max(np.abs(x1hat - ref[k + 1]))))
    ok = worst < 1e-9
    line = report(capsys, 5, ok,
                  f"closed-form estimate vs joint Kalman filter, 10 random "
                  f"systems, 50 steps: max deviation {worst:.2e} (tol 1e-9)")
    assert ok, line


def test_criterion_06_gradient_optimality(capsys):
    rng = np.random.default_rng(4242)
    worst_grad = 0.0
    n_lower_total = 0
    worst_drop = 0.0
    for _ in range(10):
        model, cost = random_pair(rng)
        compact = assemble_compact(model)
        stat = solve_stationary_riccati(compact, cost)
        pol_s = StructuredPolicy.from_stationary(stat)
        rep = gain_gradient(model, pol_s, cost, 300, discounted=True)
        worst_grad = max(worst_grad, rep.max_relative)
        fin = backward_riccati(compact, cost, 8)
        pol_f = StructuredPolicy.from_finite_horizon(fin, model)
        rep = gain_gradient(model, pol_f, cost, 9)
        worst_grad = max(worst_grad, rep.max_relative)
        n_lower, drop = perturbation_sweep(model, pol_s, cost, 300, True,
                                           n_directions=100, scale=1e-3,
                                           seed=7)
        n_lower_total += n_lower
        worst_drop = min(worst_drop, drop)
    ok = worst_grad < 1e-6 and n_lower_total == 0
    line = report(
        capsys, 6, ok,
        f"max relative gradient at solved gains {worst_grad:.2e} (tol 1e-6) "
        f"over 10 systems, finite and stationary; {n_lower_total}/1000 "
        f"structured perturbations beat the solved cost (worst drop "
        f"{worst_drop:.2e}): the gains are stationary only when follower "
        f"noise or coupling vanishes")
    assert ok, line


def test_criterion_07_stationarity_identities(bundled, bundled_solution,
                                              capsys):
    model, cost = bundled
    policy = StructuredPolicy.from_stationary(bundled_solution)
    trace = simulate(model, policy, cost, 60, seed=0)
    max_hat, max_tilde = stationarity_residuals(bundled_solution, policy, trace)
    ok = max_hat < 1e-9 and max_tilde < 1e-9
    line = report(
        capsys, 7, ok,
        f"conditional-mean residual {max_hat:.2e} (tol 1e-9); "
        f"residual-part identity {max_tilde:.2e}: the residual "
        f"follower control keeps a leader-row penalty the identity drops")
    assert ok, line


def test_criterion_08_monte_carlo_consistency(bundled, bundled_solution,
                                              capsys):
    sm, sc = scalar_demo_pair()
    fin = backward_riccati(assemble_compact(sm), sc, 50)
    pol = StructuredPolicy.from_finite_horizon(fin, sm)
    mc_f = monte_carlo(sm, pol, sc, 51, seed=0, trials=10000)
    z_f = (mc_f.mean_cost - optimal_cost(fin, sm)) / mc_f.standard_error

    model, cost = bundled
    policy = StructuredPolicy.from_stationary(bundled_solution)
    mc_s = monte_carlo(model, policy, cost, 200, seed=0, trials=10000,
                       discounted=True)
    target = stationary_cost(bundled_solution, model)
    band = 3.0 * mc_s.standard_error + mc_s.truncation_bound
    z_s = (mc_s.mean_cost - target) / mc_s.standard_error

    rho = max(closed_loop_radii(bundled_solution, assemble_compact(model)))
    mss = mss_diagnostics(
        monte_carlo(model, policy, cost, 100, seed=0, trials=400000,
                    discounted=True))
    ok = (abs(z_f) < 3.0 and abs(mc_s.mean_cost - target) <= band
          and mss.mss and rho < 1.0)
    line = report(
        capsys, 8, ok,
        f"finite-horizon empirical z={z_f:+.2f}, stationary empirical "
        f"z={z_s:+.2f} (3SE bands); steady-state flags decay={mss.mean_decay} "
        f"plateau={mss.second_moment_plateau} at rho={rho:.4f}")
    assert ok, line


def test_criterion_09_error_statistics(capsys):
    model = coupled_noisy_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    policy = StructuredPolicy.from_stationary(sol)
    horizon, trials = 20, 100000
    batch = simulate_batch(model, policy, cost, horizon, seed=0, trials=trials)
    err = batch.x1 - batch.x1hat
    z_max = {"cross": 0.0, "ortho_now": 0.0, "ortho_lag": 0.0}
    for k in range(1, horizon + 1):
        pairs = (("cross", batch.w0[k - 1, 0] * err[k, 0]),
                 ("ortho_now", err[k, 0] * batch.x0[k, 0]),
                 ("ortho_lag", err[k, 0] * batch.x0[k - 1, 0]))
        for name, v in pairs:
            z = abs(v.mean()) / (v.std(ddof=1) / np.sqrt(trials))
            z_max[name] = max(z_max[name], float(z))
    ok = all(z < 3.0 for z in z_max.values())
    line = report(
        capsys, 9, ok,
        f"scalar system, 1e5 trials: max |z| cross-covariance "
        f"{z_max['cross']:.2f}, orthogonality {z_max['ortho_now']:.2f} "
        f"(current leader state) / {z_max['ortho_lag']:.2f} (lagged), "
        f"all under 3")
    assert ok, line


def test_criterion_10_force_round_trip_and_tracking(bundled, bundled_solution,
                                                    capsys):
    params = auv.leader_params()
    traj = auv.leader_reference()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        rot = auv.rotation(rng.normal())
        rot_prev = auv.rotation(rng.normal())
        nu = rng.standard_normal(3)
        k = int(rng.integers(0, 60))
        u_z = rng.standard_normal(3)
        h = auv.h_term(params, rot, rot_prev, nu, 1.0)
        tau = auv.force_reconstruction(params, u_z, traj, k, rot, h, 1.0)
        back = auv.error_model_control(params, tau, traj, k, rot, h, 1.0)
        worst = max(worst, float(np.max(np.abs(back - u_z))))

    model, cost = bundled
    policy = StructuredPolicy.from_stationary(bundled_solution)
    mc = monte_carlo(model, policy, cost, 60, seed=0, trials=1000,
                     discounted=True)
    ratio = mc.mean_norm[60] / mc.mean_norm[0]
    ok = worst < 1e-10 and ratio < 0.05
    line = report(
        capsys, 10, ok,
        f"thrust reconstruction round trip max error {worst:.2e} "
        f"(tol 1e-10, 100 inputs); mean tracking-error norm at k=60 is "
        f"{100.0 * ratio:.2f}% of its initial value (limit 5%)")
    assert ok, line
