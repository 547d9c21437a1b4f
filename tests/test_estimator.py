import dataclasses

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lfns.estimator import advance
from lfns.model import assemble_compact, make_cost, make_model
from lfns.infinite_horizon import solve_stationary_riccati
from lfns.oracle import StructuredPolicy, _forward, kalman_oracle
from lfns.simulation import simulate, simulate_batch
from pairs import coupled_noisy_model, random_pair


def error_covariances(model, policy, horizon):
    """Covariances of the estimation error x1 - x1hat at k = 0..horizon, read
    off the exact moment recursion as E Sigma E' with E = [0, I, -I]."""
    n = model.n
    e = np.hstack([np.zeros((n, n)), np.eye(n), -np.eye(n)])
    cost = make_cost(q=np.eye(2 * n), r=np.eye(model.m1 + model.m2))
    return [e @ item[5] @ e.T for item in _forward(model, policy, cost, horizon, False)]


def test_init_is_prior_mean():
    model = coupled_noisy_model()
    policy = StructuredPolicy.constant([[0.3]], [[0.1]], [[0.2]], [[0.4]])
    batch = simulate_batch(model, policy, make_cost(q=np.eye(2), r=np.eye(2)), 3,
                           seed=1, trials=5)
    assert np.array_equal(batch.x1hat[0], np.full((1, 5), 0.5))


def test_advance_hand_recursion():
    model = coupled_noisy_model()
    k10, k11, x1hat, x0 = np.array([[0.1]]), np.array([[0.2]]), np.array([0.5]), np.array([2.0])
    nxt = advance(model, x1hat, x0, np.array([-1.0]), -(k10 @ x0 + k11 @ x1hat))
    # u1hat = -0.1*2 - 0.2*0.5 = -0.3
    # x1hat = 0.8*0.5 + 1.0*(-0.3) + 0.3*2.0 + 0.2*(-1.0) = 0.5
    assert np.allclose(nxt, [0.5], atol=1e-15)


def test_advance_applies_conditional_mean_control():
    # with a11 = a10 = b10 = 0 and b11 = 1 the update is u1hat itself
    model = make_model(a00=[[1.0]], a10=[[0.0]], a11=[[0.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]])
    k10, k11, x1hat, x0 = np.array([[2.0]]), np.array([[3.0]]), np.array([-1.0]), np.array([1.0])
    out = advance(model, x1hat, x0, np.array([7.0]), -(k10 @ x0 + k11 @ x1hat))
    assert np.allclose(out, [1.0], atol=1e-15)


def test_advance_ignores_follower_private_data():
    # the estimate is driven by leader data only: a wider follower prior and
    # noisier follower moves x1 but not one bit of x0, u0 or x1hat
    quiet = coupled_noisy_model()
    loud = dataclasses.replace(quiet, sigma_x1=np.array([[4.0]]),
                               sigma_w1=np.array([[2.0]]))
    policy = StructuredPolicy.constant([[0.3]], [[0.1]], [[0.2]], [[0.4]])
    cost = make_cost(q=np.eye(2), r=np.eye(2))
    a = simulate_batch(quiet, policy, cost, 20, seed=4, trials=50)
    b = simulate_batch(loud, policy, cost, 20, seed=4, trials=50)
    assert not np.array_equal(a.x1, b.x1)
    for name in ("x0", "u0", "x1hat"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_advance_affine_in_inputs():
    model = coupled_noisy_model()
    k10, k11 = np.array([[0.5]]), np.array([[0.3]])

    def push(x1hat, x0_prev, u0_prev, offset=0.0):
        # the mean control the structured law gives, moved by offset
        x1hat, x0_prev = np.array(x1hat), np.array(x0_prev)
        u1hat = -(k10 @ x0_prev + k11 @ x1hat) + offset
        return advance(model, x1hat, x0_prev, np.array(u0_prev), u1hat)

    base = push([0.0], [0.0], [0.0])
    da = push([1.0], [0.0], [0.0]) - base
    db = push([0.0], [1.0], [0.0]) - base
    dc = push([0.0], [0.0], [1.0]) - base
    dd = push([0.0], [0.0], [0.0], 1.0) - base
    got = push([2.0], [-3.0], [0.5], -1.5)
    assert np.allclose(got, base + 2.0 * da - 3.0 * db + 0.5 * dc - 1.5 * dd, atol=1e-12)


def test_estimate_matches_kalman_oracle_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(1, 3))
        model = make_model(
            a00=0.5 * rng.standard_normal((n, n)),
            a10=0.3 * rng.standard_normal((n, n)),
            a11=0.5 * rng.standard_normal((n, n)),
            b00=rng.standard_normal((n, n)),
            b10=0.2 * rng.standard_normal((n, n)),
            b11=rng.standard_normal((n, n)),
            sigma_w0=0.1 * np.eye(n), sigma_w1=0.2 * np.eye(n),
            xbar0=rng.standard_normal(n), xbar1=rng.standard_normal(n),
            sigma_x0=0.5 * np.eye(n), sigma_x1=0.4 * np.eye(n),
        )
        k10 = 0.1 * rng.standard_normal((n, n))
        k11 = 0.1 * rng.standard_normal((n, n))
        steps = 12
        x0_seq = rng.standard_normal((steps + 1, n))
        u0_seq = rng.standard_normal((steps, n))
        ref = kalman_oracle(model, x0_seq, u0_seq, follower_gains=(k10, k11))
        got = [model.xbar1]
        for k in range(steps):
            u1hat = -(k10 @ x0_seq[k] + k11 @ got[-1])
            got.append(advance(model, got[-1], x0_seq[k], u0_seq[k], u1hat))
        assert np.max(np.abs(np.asarray(got) - ref)) < 1e-9


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), horizon=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
@example(n=2, horizon=21, seed=10222)  # rho = 2.32: the gap reaches 4.64e-9, max|x1hat| 4.38
def test_simulated_estimate_is_the_kalman_oracles(n, horizon, seed):
    # the engine's estimate, driven by leader data and u1hat, is the
    # conditional mean that a joint Gaussian filter computes from x0 and u0
    rng = np.random.default_rng(seed)
    model, cost = random_pair(rng, n=n)
    k00, k01, k10, k11 = (0.5 * rng.standard_normal((n, n)) for _ in range(4))
    trace = simulate(model, StructuredPolicy.constant(k00, k01, k10, k11), cost, horizon,
                     seed=int(rng.integers(2 ** 31)))
    scale = np.max(np.abs(trace.x1hat))
    assume(np.isfinite(scale) and scale < 1e12)  # a divergent trial says nothing
    ref = kalman_oracle(model, trace.x0, trace.u0, follower_gains=(k10, k11))
    bound = 1e-9 * max(1.0, scale)
    # both read the same x0 and u0, so their gap moves by the follower's error
    # loop a11 - b11 k11; where its spectral radius rho exceeds 1, each step's
    # rounding, a few eps of the values the update reads, grows by rho a step
    rho = np.max(np.abs(np.linalg.eigvals(model.a11 - model.b11 @ k11)))
    if rho > 1.0:
        size = max(1.0, scale, np.max(np.abs(trace.x0)), np.max(np.abs(trace.u0)))
        bound += 8 * np.finfo(float).eps * size * sum(rho ** j for j in range(horizon + 1))
    assert np.max(np.abs(trace.x1hat - ref)) <= bound


def test_error_moments_zero_without_uncertainty():
    model = make_model(
        a00=[[0.9]], a10=[[0.3]], a11=[[0.8]],
        b00=[[1.0]], b10=[[0.2]], b11=[[1.0]],
        sigma_w0=[[0.04]], sigma_w1=[[0.0]],
        xbar0=[1.0], xbar1=[0.5],
        sigma_x0=[[0.25]], sigma_x1=[[0.0]],
    )
    policy = StructuredPolicy.constant([[0.5]], [[0.2]], [[0.1]], [[0.3]])
    covs = error_covariances(model, policy, 10)
    assert len(covs) == 11
    assert all(np.allclose(c, 0.0, atol=1e-15) for c in covs)


def test_error_moments_hand_recursion():
    model = coupled_noisy_model()
    # the error moves by a11 - b11 k11 whatever the other gain blocks are
    policy = StructuredPolicy.constant([[0.5]], [[0.2]], [[0.1]], [[0.25]])
    covs = error_covariances(model, policy, 2)
    f = 0.8 - 1.0 * 0.25
    c0 = 0.16
    c1 = f * c0 * f + 0.09
    c2 = f * c1 * f + 0.09
    assert np.allclose(covs[0], [[c0]], atol=1e-15)
    assert np.allclose(covs[1], [[c1]], atol=1e-14)
    assert np.allclose(covs[2], [[c2]], atol=1e-14)


def test_error_moments_match_sampled_errors():
    model = coupled_noisy_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    policy = StructuredPolicy.from_stationary(sol)
    horizon, trials = 20, 100000
    batch = simulate_batch(model, policy, cost, horizon, seed=5, trials=trials)
    covs = error_covariances(model, policy, horizon)
    err = batch.x1 - batch.x1hat
    for k in (1, 5, 10, 20):
        sample = err[k, 0]
        s2 = sample.var(ddof=1)
        # sample variance of a Gaussian has std approx s2 * sqrt(2/(T-1))
        se = s2 * np.sqrt(2.0 / (trials - 1))
        assert abs(s2 - covs[k][0, 0]) < 3.0 * se
