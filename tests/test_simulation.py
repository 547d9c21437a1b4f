import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfns.estimator import advance
from lfns.model import assemble_compact, make_cost, make_model
from lfns.finite_horizon import backward_riccati
from lfns.infinite_horizon import solve_stationary_riccati
from lfns.oracle import StructuredPolicy, exact_cost
from lfns.simulation import (
    CHUNK,
    SimulationDiverged,
    _draw_chunk,
    _simulate_chunk,
    chunks,
    monte_carlo,
    mss_diagnostics,
    psd_factor,
    reduce,
    simulate,
    simulate_batch,
)
from pairs import coupled_noisy_model, random_pair
from test_oracle import forward_means


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


def reference_draws(seed, trial, n, horizon):
    """Trial's normals from its documented stream: z0, z1, zw0, zw1."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    return (rng.standard_normal(n), rng.standard_normal(n),
            rng.standard_normal((horizon, n)), rng.standard_normal((horizon, n)))


def test_trial_streams_are_documented_seed_sequences():
    # the scalar model, and an n=2 pair read in the second chunk, where a
    # transposed (n, horizon) row layout would show
    scalar = coupled_noisy_model()
    pair, _ = random_pair(np.random.default_rng(5), n=2)
    horizon, seed = 5, 123
    for model, trials, trial in ((scalar, 9, 7), (pair, CHUNK + 6, CHUNK + 3)):
        n = model.n
        zero = np.zeros((n, n))
        policy = StructuredPolicy.constant(zero, zero, zero, zero)
        cost = make_cost(q=np.eye(2 * n), r=np.eye(2 * n))
        batch = simulate_batch(model, policy, cost, horizon, seed=seed, trials=trials)
        z0, z1, zw0, zw1 = reference_draws(seed, trial, n, horizon)
        f_x0 = psd_factor(model.sigma_x0)
        f_x1 = psd_factor(model.sigma_x1)
        f_w0 = psd_factor(model.sigma_w0)
        f_w1 = psd_factor(model.sigma_w1)
        assert np.array_equal(batch.x0[0, :, trial], model.xbar0 + f_x0 @ z0)
        assert np.array_equal(batch.x1[0, :, trial], model.xbar1 + f_x1 @ z1)
        assert np.array_equal(batch.w0[:, :, trial], (f_w0 @ zw0.T).T)
        assert np.array_equal(batch.w1[:, :, trial], (f_w1 @ zw1.T).T)
        assert np.array_equal(batch.x1hat[0, :, trial], model.xbar1)


@settings(max_examples=40, deadline=None)
@given(seed=st.one_of(st.integers(0, 2 ** 64), st.integers(2 ** 128, 2 ** 200)),
       n=st.sampled_from((1, 2, 6)), horizon=st.integers(0, 4),
       lo=st.integers(0, 2 ** 32 // CHUNK - 1).flatmap(
           lambda q: st.integers(q * CHUNK + 1, (q + 1) * CHUNK - 8)),
       width=st.integers(1, 8))
def test_draw_chunk_equals_per_trial_generators(seed, n, horizon, lo, width):
    a = np.eye(n)
    model = make_model(a00=a, a10=a, a11=a, b00=a, b10=a, b11=a)
    z0, z1, zw0, zw1 = _draw_chunk(model, horizon, seed, lo, lo + width)
    for col in range(width):
        want = reference_draws(seed, lo + col, n, horizon)
        got = (z0[:, col], z1[:, col], zw0[:, :, col], zw1[:, :, col])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_chunks_rejects_runs_it_cannot_simulate():
    model = coupled_noisy_model()
    policy, cost = stationary_policy(model)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        chunks(model, policy, cost, 0, seed=0, trials=4)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        monte_carlo(model, policy, cost, 0, seed=0, trials=4)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        chunks(model, policy, cost, 5, seed=0, trials=0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        monte_carlo(model, policy, cost, 5, seed=0, trials=0)
    # trial 2**32 would need a two-word spawn key
    with pytest.raises(ValueError, match="exceed 2"):
        chunks(model, policy, cost, 5, seed=0, trials=2 ** 32 + 1)


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
    straddle = _simulate_chunk(model, policy, cost, 6, 11, CHUNK - 4, CHUNK + 6)
    for name in ("x0", "x1", "x1hat", "u0", "u1", "w0", "w1", "stage_cost"):
        assert np.array_equal(getattr(big, name)[..., CHUNK - 4:CHUNK + 6],
                              getattr(straddle, name))


def test_stored_batch_reduces_to_streaming_summary():
    model = coupled_noisy_model()
    policy, cost = stationary_policy(model)
    batch = simulate_batch(model, policy, cost, 20, seed=6, trials=3000)
    summary = reduce([batch], cost, discounted=True)
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
    summary = reduce([batch], cost, discounted=True)
    weights = np.array([1.0, 0.5, 0.25])
    manual = (weights[:, None] * batch.stage_cost).sum(axis=0).mean()
    assert summary.mean_cost == pytest.approx(manual, rel=1e-12)


def test_undiscounted_aggregation_applies_terminal():
    model = coupled_noisy_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.diag([2.0, 3.0]))
    sol = backward_riccati(assemble_compact(model), cost, 3)
    policy = StructuredPolicy.from_finite_horizon(sol, model)
    batch = simulate_batch(model, policy, cost, 4, seed=22, trials=16)
    summary = reduce([batch], cost, discounted=False)
    terminal = (2.0 * batch.x0[4, 0] ** 2 + 3.0 * batch.x1[4, 0] ** 2)
    manual = (batch.stage_cost.sum(axis=0) + terminal).mean()
    assert summary.mean_cost == pytest.approx(manual, rel=1e-12)


def test_truncation_flag_and_rejection():
    # a loop that leaves the finite numbers raises at the first step whose
    # stage cost is not finite, or at the horizon if only the last state is
    policy = StructuredPolicy.constant([[0.0]], [[0.0]], [[0.0]], [[0.0]])
    weighted = make_cost(q=np.eye(2), r=np.eye(2))
    unweighted = make_cost(q=np.zeros((2, 2)), r=np.zeros((2, 2)))
    # x0(k) = xbar0 1e8^k: a unit weight overflows the stage cost of step 0
    # at 1e200, no weight first sees the state that overflows at step 39
    for xbar0, cost, horizon, step in ((1e200, weighted, 30, 0), (1.0, unweighted, 60, 39),
                                       (1.0, unweighted, 39, 39)):
        model = make_model(a00=[[1e8]], a10=[[0.0]], a11=[[0.5]],
                           b00=[[0.0]], b10=[[0.0]], b11=[[1.0]],
                           xbar0=[xbar0], xbar1=[0.0])
        message = rf"trial block 0\.\.3 truncated at step {step}; closed loop is destabilizing"
        with pytest.raises(SimulationDiverged, match=message):
            simulate_batch(model, policy, cost, horizon, seed=0, trials=4)
        with pytest.raises(SimulationDiverged, match=message):
            monte_carlo(model, policy, cost, horizon, seed=0, trials=4)
    # finite paths whose squares overflow the summary's sums
    model = make_model(a00=[[1.0]], a10=[[0.0]], a11=[[0.5]],
                       b00=[[0.0]], b10=[[0.0]], b11=[[1.0]],
                       xbar0=[1e154], xbar1=[0.0])
    batch = simulate_batch(model, policy, weighted, 2, seed=0, trials=4)
    assert np.isfinite(batch.stage_cost).all()
    with pytest.raises(SimulationDiverged, match=r"summary of trials 0\.\.3 is not finite"):
        reduce([batch], weighted, discounted=False)


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
    means = forward_means(model, policy, cost, 30, discounted=True)
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
    x1hat = trace.x1hat[0]
    assert np.array_equal(x1hat, model.xbar1)
    for k in range(1, 16):
        x1hat = advance(model, x1hat, trace.x0[k - 1], trace.u0[k - 1], k10, k11)
        assert np.max(np.abs(x1hat - trace.x1hat[k])) < 1e-12
