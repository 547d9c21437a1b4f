import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfns.auv import paper_model
from lfns.estimator import advance
from lfns.model import assemble_compact, make_cost, make_model
from lfns.finite_horizon import backward_riccati, controls
from lfns.infinite_horizon import solve_stationary_riccati
from lfns.oracle import StructuredPolicy, exact_cost
from lfns.simulation import (
    CHUNK,
    MonteCarloSummary,
    SimulationDiverged,
    _draw_chunk,
    _simulate_chunk,
    block_bounds,
    block_sums,
    combine,
    monte_carlo,
    mss_diagnostics,
    psd_factor,
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


ROUTE_CASES = ["scalar-stationary", "scalar-finite", "auv-paper"]


def route_case(name, horizon):
    """(model, policy, cost, discounted) of a case both routes run over horizon
    steps: a constant policy, a per-step one, and the n = 6 auv-paper loop."""
    if name == "auv-paper":
        model, cost = paper_model()
        sol = solve_stationary_riccati(assemble_compact(model), cost)
        return model, StructuredPolicy.from_stationary(sol), cost, True
    model = coupled_noisy_model()
    if name == "scalar-finite":
        cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.diag([2.0, 3.0]))
        sol = backward_riccati(assemble_compact(model), cost, horizon - 1)
        return model, StructuredPolicy.from_finite_horizon(sol, model), cost, False
    return model, *stationary_policy(model), True


def error_diverges():
    """test_cli's a11 = 10 spec: A - BH is stable, but the follower's
    estimation error grows like 10^k."""
    model = make_model(a00=[[0.5]], a10=[[0.0]], a11=[[10.0]], b00=[[1.0]], b10=[[1.0]],
                       b11=[[0.01]], sigma_w0=[[0.1]], sigma_w1=[[0.1]], xbar0=[1.0],
                       xbar1=[0.5], sigma_x0=[[0.25]], sigma_x1=[[0.25]])
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9, p_terminal=np.eye(2))
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    return model, StructuredPolicy.from_stationary(sol), cost


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
    buf = np.empty((width, 2 * horizon + 2, n))
    z0, z1, zw0, zw1 = _draw_chunk(horizon, seed, lo, lo + width, buf)
    for col in range(width):
        want = reference_draws(seed, lo + col, n, horizon)
        got = (z0[:, col], z1[:, col], zw0[:, :, col], zw1[:, :, col])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_simulate_batch_rejects_runs_it_cannot_simulate():
    model = coupled_noisy_model()
    policy, cost = stationary_policy(model)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        simulate_batch(model, policy, cost, 0, seed=0, trials=4)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        monte_carlo(model, policy, cost, 0, seed=0, trials=4)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        simulate_batch(model, policy, cost, 5, seed=0, trials=0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        monte_carlo(model, policy, cost, 5, seed=0, trials=0)
    # trial 2**32 would need a two-word spawn key
    with pytest.raises(ValueError, match="exceed 2"):
        simulate_batch(model, policy, cost, 5, seed=0, trials=2 ** 32 + 1)


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
    for case in ROUTE_CASES:
        model, policy, cost, _ = route_case(case, 6)
        big = simulate_batch(model, policy, cost, 6, seed=11, trials=1500)
        small = simulate_batch(model, policy, cost, 6, seed=11, trials=100)
        assert np.array_equal(big.x0[:, :, :100], small.x0), case
        assert np.array_equal(big.u1[:, :, :100], small.u1), case
        straddle = _simulate_chunk(model, policy, cost, 6, 11, CHUNK - 4, CHUNK + 6)
        for name in ("x0", "x1", "x1hat", "u0", "u1", "w0", "w1", "stage_cost"):
            assert np.array_equal(getattr(big, name)[..., CHUNK - 4:CHUNK + 6],
                                  getattr(straddle, name)), (case, name)


def test_simulate_is_trial_zero_of_the_batch():
    # a constant and a per-step policy; at n = 6 a one-trial block takes
    # numpy's matrix-vector products, whose sums can differ in the last bits
    for case in ("scalar-stationary", "scalar-finite"):
        model, policy, cost, _ = route_case(case, 7)
        trace = simulate(model, policy, cost, 7, seed=13)
        batch = simulate_batch(model, policy, cost, 7, seed=13, trials=3)
        for name in ("x0", "x1", "x1hat", "u0", "u1"):
            assert np.array_equal(getattr(trace, name), getattr(batch, name)[:, :, 0]), \
                (case, name)


def test_monte_carlo_equals_combined_block_sums():
    # the CLI's trace writer reduces the stored route's blocks this way;
    # monte_carlo's narrower last block steps in a prefix of its workspace
    for case in ROUTE_CASES:
        model, policy, cost, discounted = route_case(case, 5)
        blocks = (_simulate_chunk(model, policy, cost, 5, 4, lo, hi)
                  for lo, hi in block_bounds(5, 2 * CHUNK + 5))
        summary = combine((block_sums(batch.states, batch.stage_cost, cost, discounted)
                           for batch in blocks), cost, discounted)
        stream = monte_carlo(model, policy, cost, 5, seed=4, trials=2 * CHUNK + 5,
                             discounted=discounted)
        for field in dataclasses.fields(summary):
            want, got = getattr(summary, field.name), getattr(stream, field.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), (case, field.name)
            else:
                assert got == want, (case, field.name)


def test_monte_carlo_memory_does_not_grow_with_trials():
    model, policy, cost, _ = route_case("auv-paper", 100)

    def peak(trials):
        tracemalloc.start()
        try:
            monte_carlo(model, policy, cost, 100, seed=0, trials=trials, discounted=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # numpy's first-call set-up is not the run's memory
    monte_carlo(model, policy, cost, 1, seed=0, trials=1, discounted=True)
    one_block = peak(CHUNK)
    assert abs(peak(10 * CHUNK + 7) / one_block - 1.0) <= 0.05


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
    summary = monte_carlo(model, policy, cost, 3, seed=21, trials=16, discounted=True)
    weights = np.array([1.0, 0.5, 0.25])
    manual = (weights[:, None] * batch.stage_cost).sum(axis=0).mean()
    assert summary.mean_cost == pytest.approx(manual, rel=1e-12)
    with pytest.raises(ValueError, match="discounted aggregation requires cost.gamma"):
        combine([], make_cost(q=np.eye(2), r=np.eye(2)), discounted=True)


def test_undiscounted_aggregation_applies_terminal():
    model = coupled_noisy_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.diag([2.0, 3.0]))
    sol = backward_riccati(assemble_compact(model), cost, 3)
    policy = StructuredPolicy.from_finite_horizon(sol, model)
    batch = simulate_batch(model, policy, cost, 4, seed=22, trials=16)
    summary = monte_carlo(model, policy, cost, 4, seed=22, trials=16)
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
        monte_carlo(model, policy, weighted, 2, seed=0, trials=4)
    # the stage cost of step 154 overflows in the first block, on both routes:
    # simulate_batch's one block and monte_carlo's first CHUNK-wide one
    model, policy, cost = error_diverges()
    messages = []
    for run in (lambda: simulate_batch(model, policy, cost, 200, 0, 1100),
                lambda: monte_carlo(model, policy, cost, 200, 0, 1100, discounted=True)):
        with pytest.raises(SimulationDiverged) as caught:
            run()
        messages.append(str(caught.value))
    assert messages == [f"trial block 0..{hi} truncated at step 154; "
                        "closed loop is destabilizing" for hi in (1099, 1023)]


def test_mss_flags_zero_noise_stable_loop():
    model = make_model(a00=[[0.8]], a10=[[0.0]], a11=[[0.8]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
                       xbar0=[1.0], xbar1=[1.0])
    cost = make_cost(q=np.eye(2), r=np.eye(2))
    policy = StructuredPolicy.constant([[0.3]], [[0.0]], [[0.0]], [[0.3]])
    mc = monte_carlo(model, policy, cost, 60, seed=0, trials=1000)
    rep = mss_diagnostics(mc)
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
    rep = mss_diagnostics(mc)
    assert not rep.mean_decay
    assert not rep.second_moment_plateau
    assert not rep.mss


def test_mss_mean_ratio_from_a_negligible_initial_mean():
    def summary(mean_norm):
        steps = len(mean_norm)
        return MonteCarloSummary(trials=1, mean_cost=0.0, standard_error=0.0,
                                 mean_state=np.zeros((steps, 2)), mean_norm=np.array(mean_norm),
                                 second_moment=np.zeros(steps), truncation_bound=None)

    rep = mss_diagnostics(summary([0.0] * 5))
    assert rep.mean_ratio == 0.0 and rep.mean_decay and rep.mss
    rep = mss_diagnostics(summary([0.0, 1e-6, 1e-3, 1.0]))
    assert rep.mean_ratio == np.inf
    assert not rep.mean_decay and not rep.mss


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
    rep = mss_diagnostics(mc)
    assert rep.mean_decay
    assert rep.second_moment_plateau
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
    trace = simulate(model, policy, cost, 15, seed=14)
    k00, k01, k10, k11 = policy.at(0)
    for k in range(15):
        u0 = -k00 @ trace.x0[k] - k01 @ trace.x1hat[k]
        u1 = -k10 @ trace.x0[k] - k11 @ trace.x1[k]
        assert np.array_equal(u0, trace.u0[k])
        assert np.array_equal(u1, trace.u1[k])
    # the leader's information set lacks x1: with x1 unknown only u1 is lost
    u0, u1, u1hat = controls(policy.at(0), trace.x0[3], np.full(model.n, np.nan), trace.x1hat[3])
    assert np.array_equal(u0, trace.u0[3]) and np.isfinite(u1hat).all()
    assert np.isnan(u1).all()
    # estimator replayed offline from leader-visible data only
    x1hat = trace.x1hat[0]
    assert np.array_equal(x1hat, model.xbar1)
    for k in range(1, 16):
        u1hat = -(k10 @ trace.x0[k - 1] + k11 @ x1hat)
        x1hat = advance(model, x1hat, trace.x0[k - 1], trace.u0[k - 1], u1hat)
        assert np.max(np.abs(x1hat - trace.x1hat[k])) < 1e-12
