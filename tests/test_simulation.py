import numpy as np
import pytest

from lfns.estimator import advance, init, linear_mean_control
from lfns.model import assemble_compact, make_cost, make_model
from lfns.finite_horizon import backward_riccati
from lfns.infinite_horizon import solve_stationary_riccati
from lfns.oracle import StructuredPolicy, exact_cost, mean_trajectory
from lfns.simulation import (
    empirical_cost,
    monte_carlo,
    mss_diagnostics,
    psd_factor,
    simulate,
    simulate_batch,
)


def coupled_noisy_model():
    return make_model(
        a00=[[0.9]], a10=[[0.3]], a11=[[0.8]],
        b00=[[1.0]], b10=[[0.2]], b11=[[1.0]],
        sigma_w0=[[0.04]], sigma_w1=[[0.09]],
        xbar0=[1.0], xbar1=[0.5],
        sigma_x0=[[0.25]], sigma_x1=[[0.16]],
    )


def stationary_policy(model, gamma=0.9):
    cost = make_cost(q=np.eye(2 * model.n), r=np.eye(model.m1 + model.m2),
                     gamma=gamma)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    return StructuredPolicy.from_stationary(sol), cost


def test_psd_factor_cases():
    assert np.array_equal(psd_factor(np.zeros((3, 3))), np.zeros((3, 3)))
    spd = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = psd_factor(spd)
    assert np.allclose(f @ f.T, spd, atol=1e-12)
    rank1 = np.outer([1.0, -2.0], [1.0, -2.0])
    f = psd_factor(rank1)
    assert np.allclose(f @ f.T, rank1, atol=1e-12)


def test_trial_streams_are_documented_seed_sequences():
    model = coupled_noisy_model()
    policy, cost = stationary_policy(model)
    horizon, seed, trial = 5, 123, 7
    batch = simulate_batch(model, policy, cost, horizon, seed=seed, trials=9)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(trial,)))
    z0 = rng.standard_normal(1)
    z1 = rng.standard_normal(1)
    zw0 = rng.standard_normal((horizon, 1))
    zw1 = rng.standard_normal((horizon, 1))
    f_x0 = psd_factor(model.sigma_x0)
    f_x1 = psd_factor(model.sigma_x1)
    f_w0 = psd_factor(model.sigma_w0)
    f_w1 = psd_factor(model.sigma_w1)
    assert np.array_equal(batch.x0[0, :, trial], model.xbar0 + f_x0 @ z0)
    assert np.array_equal(batch.x1[0, :, trial], model.xbar1 + f_x1 @ z1)
    assert np.array_equal(batch.w0[:, 0, trial], (f_w0 @ zw0.T).ravel())
    assert np.array_equal(batch.w1[:, 0, trial], (f_w1 @ zw1.T).ravel())
    assert np.array_equal(batch.x1hat[0, :, trial], model.xbar1)


def test_repeat_runs_are_bit_identical():
    model = coupled_noisy_model()
    policy, cost = stationary_policy(model)
    a = simulate_batch(model, policy, cost, 12, seed=4, trials=50)
    b = simulate_batch(model, policy, cost, 12, seed=4, trials=50)
    for name in ("x0", "x1", "x1hat", "u0", "u1", "w0", "w1", "stage_cost"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_trials_invariant_to_batch_size():
    # per-trial streams make chunking invisible, including across the
    # internal chunk boundary
    model = coupled_noisy_model()
    policy, cost = stationary_policy(model)
    big = simulate_batch(model, policy, cost, 6, seed=11, trials=1500)
    small = simulate_batch(model, policy, cost, 6, seed=11, trials=100)
    assert np.array_equal(big.x0[:, :, :100], small.x0)
    assert np.array_equal(big.u1[:, :, :100], small.u1)
    assert np.array_equal(big.x0[:, :, 1024:1030].shape, (7, 1, 6))


def test_empirical_cost_equals_streaming_summary():
    model = coupled_noisy_model()
    policy, cost = stationary_policy(model)
    batch = simulate_batch(model, policy, cost, 20, seed=6, trials=3000)
    summary = empirical_cost(batch, cost, discounted=True)
    stream = monte_carlo(model, policy, cost, 20, seed=6, trials=3000,
                         discounted=True)
    assert summary.mean_cost == pytest.approx(stream.mean_cost, rel=1e-12)
    assert summary.standard_error == pytest.approx(stream.standard_error, rel=1e-9)
    assert np.allclose(summary.mean_state, stream.mean_state, atol=1e-12)


def test_monte_carlo_matches_exact_cost():
    model = coupled_noisy_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    sol = backward_riccati(assemble_compact(model), cost, 8)
    policy = StructuredPolicy.from_finite_horizon(sol, model)
    want = exact_cost(model, policy, cost, 9)
    mc = monte_carlo(model, policy, cost, 9, seed=0, trials=4000)
    z = (mc.mean_cost - want) / mc.standard_error
    assert abs(z) < 4.0


def test_discounted_aggregation_hand_weights():
    model = coupled_noisy_model()
    policy, cost = stationary_policy(model, gamma=0.5)
    batch = simulate_batch(model, policy, cost, 3, seed=21, trials=16)
    summary = empirical_cost(batch, cost, discounted=True)
    weights = np.array([1.0, 0.5, 0.25])
    manual = (weights[:, None] * batch.stage_cost).sum(axis=0).mean()
    assert summary.mean_cost == pytest.approx(manual, rel=1e-12)


def test_undiscounted_aggregation_applies_terminal():
    model = coupled_noisy_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.diag([2.0, 3.0]))
    sol = backward_riccati(assemble_compact(model), cost, 3)
    policy = StructuredPolicy.from_finite_horizon(sol, model)
    batch = simulate_batch(model, policy, cost, 4, seed=22, trials=16)
    summary = empirical_cost(batch, cost, discounted=False)
    terminal = (2.0 * batch.x0[4, 0] ** 2 + 3.0 * batch.x1[4, 0] ** 2)
    manual = (batch.stage_cost.sum(axis=0) + terminal).mean()
    assert summary.mean_cost == pytest.approx(manual, rel=1e-12)


def test_truncation_flag_and_rejection():
    model = make_model(a00=[[1e8]], a10=[[0.0]], a11=[[0.5]],
                       b00=[[0.0]], b10=[[0.0]], b11=[[1.0]],
                       xbar0=[1e200], xbar1=[0.0])
    cost = make_cost(q=np.eye(2), r=np.eye(2))
    policy = StructuredPolicy.constant([[0.0]], [[0.0]], [[0.0]], [[0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        batch = simulate_batch(model, policy, cost, 30, seed=0, trials=4)
        assert batch.truncated_at is not None
        with pytest.raises(ValueError):
            empirical_cost(batch, cost)
        with pytest.raises(ValueError):
            monte_carlo(model, policy, cost, 30, seed=0, trials=4)


def test_mss_flags_zero_noise_stable_loop():
    model = make_model(a00=[[0.8]], a10=[[0.0]], a11=[[0.8]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
                       xbar0=[1.0], xbar1=[1.0])
    cost = make_cost(q=np.eye(2), r=np.eye(2))
    policy = StructuredPolicy.constant([[0.3]], [[0.0]], [[0.0]], [[0.3]])
    mc = monte_carlo(model, policy, cost, 60, seed=0, trials=1000)
    rep = mss_diagnostics(mc, spectral_radius=0.5)
    assert rep.mean_decay
    assert rep.second_moment_plateau
    assert rep.mss


def test_mss_flags_unstable_loop():
    model = make_model(a00=[[2.0]], a10=[[0.0]], a11=[[0.5]],
                       b00=[[0.0]], b10=[[0.0]], b11=[[1.0]],
                       sigma_w0=[[1.0]], sigma_w1=[[1.0]],
                       xbar0=[1.0], xbar1=[0.0])
    cost = make_cost(q=np.eye(2), r=np.eye(2))
    policy = StructuredPolicy.constant([[0.0]], [[0.0]], [[0.0]], [[0.0]])
    mc = monte_carlo(model, policy, cost, 40, seed=0, trials=1000)
    rep = mss_diagnostics(mc, spectral_radius=2.0)
    assert not rep.mean_decay
    assert not rep.second_moment_plateau
    assert not rep.mss


def test_mss_second_moment_settles_at_analytic_fixed_point():
    # both closed loops contract at 0.41, so each agent's second moment has
    # fixed point 1/(1 - 0.41^2) under unit noise
    model = make_model(a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
                       sigma_w0=[[1.0]], sigma_w1=[[1.0]],
                       xbar0=[2.0], xbar1=[2.0])
    cost = make_cost(q=np.eye(2), r=np.eye(2))
    policy = StructuredPolicy.constant([[0.59]], [[0.0]], [[0.0]], [[0.59]])
    trials = 400000
    mc = monte_carlo(model, policy, cost, 40, seed=0, trials=trials)
    rep = mss_diagnostics(mc, spectral_radius=0.41)
    assert rep.mean_decay
    assert rep.second_moment_plateau
    assert rep.spectral_radius == 0.41
    fixed = 2.0 / (1.0 - 0.41 ** 2)
    band = 3.0 * fixed * np.sqrt(2.0 / trials)
    assert abs(mc.second_moment[-9:].mean() - fixed) < band


def test_sample_mean_follows_mean_recursion():
    model = coupled_noisy_model()
    policy, cost = stationary_policy(model)
    trials = 20000
    mc = monte_carlo(model, policy, cost, 30, seed=8, trials=trials)
    means = mean_trajectory(model, policy, 30)
    batch = simulate_batch(model, policy, cost, 30, seed=8, trials=trials)
    for k in (5, 15, 30):
        for col, name in ((0, "x0"), (1, "x1")):
            sample = getattr(batch, name)[k, 0]
            se = sample.std(ddof=1) / np.sqrt(trials)
            assert abs(sample.mean() - means[k, col]) < 3.5 * se
            assert mc.mean_state[k, col] == pytest.approx(sample.mean(), rel=1e-10)


def test_information_pattern_recoverable_from_trace():
    model = coupled_noisy_model()
    policy, cost = stationary_policy(model)
    trace = simulate(model, policy, cost, 15, seed=14)[0]
    k00, k01, k10, k11 = policy.at(0)
    for k in range(15):
        u0 = -k00 @ trace.x0[k] - k01 @ trace.x1hat[k]
        u1 = -k10 @ trace.x0[k] - k11 @ trace.x1[k]
        assert np.array_equal(u0, trace.u0[k])
        assert np.array_equal(u1, trace.u1[k])
    # estimator replayed offline from leader-visible data only
    state = init(model)
    mean_u1 = linear_mean_control(k10, k11)
    for k in range(1, 16):
        state = advance(state, model, trace.x0[k - 1], trace.u0[k - 1], mean_u1)
        assert np.max(np.abs(state.x1hat - trace.x1hat[k])) < 1e-12
