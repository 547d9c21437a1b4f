import numpy as np

from lfns.estimator import (
    EstimatorState,
    advance,
    error_moments,
    init,
    linear_mean_control,
)
from lfns.model import assemble_compact, make_cost, make_model
from lfns.infinite_horizon import solve_stationary_riccati
from lfns.oracle import StructuredPolicy, kalman_oracle
from lfns.simulation import simulate_batch


def coupled_scalar_model():
    return make_model(
        a00=[[0.9]], a10=[[0.3]], a11=[[0.8]],
        b00=[[1.0]], b10=[[0.2]], b11=[[1.0]],
        sigma_w0=[[0.04]], sigma_w1=[[0.09]],
        xbar0=[1.0], xbar1=[0.5],
        sigma_x0=[[0.25]], sigma_x1=[[0.16]],
    )


def test_init_is_prior_mean():
    model = coupled_scalar_model()
    state = init(model)
    assert state.k == 0
    assert np.array_equal(state.x1hat, [0.5])


def test_advance_hand_recursion():
    model = coupled_scalar_model()
    state = init(model)
    mean_u1 = linear_mean_control(k10=[[0.1]], k11=[[0.2]])
    x0_prev = np.array([2.0])
    u0_prev = np.array([-1.0])
    nxt = advance(state, model, x0_prev, u0_prev, mean_u1)
    # u1hat = -0.1*2 - 0.2*0.5 = -0.3
    # x1hat = 0.8*0.5 + 1.0*(-0.3) + 0.3*2.0 + 0.2*(-1.0) = 0.5
    assert nxt.k == 1
    assert np.allclose(nxt.x1hat, [0.5], atol=1e-15)


def test_advance_ignores_follower_private_data():
    # the update reads only x0, u0 and the estimate itself
    model = coupled_scalar_model()
    state = init(model)
    mean_u1 = linear_mean_control(k10=[[0.0]], k11=[[0.4]])
    a = advance(state, model, [1.0], [0.3], mean_u1)
    b = advance(state, model, [1.0], [0.3], mean_u1)
    assert np.array_equal(a.x1hat, b.x1hat)


def test_advance_affine_in_inputs():
    model = coupled_scalar_model()
    mean_u1 = linear_mean_control(k10=[[0.5]], k11=[[0.3]])

    def push(x1hat, x0_prev, u0_prev):
        state = EstimatorState(x1hat=np.asarray(x1hat, dtype=float), k=0)
        return advance(state, model, x0_prev, u0_prev, mean_u1).x1hat

    base = push([0.0], [0.0], [0.0])
    da = push([1.0], [0.0], [0.0]) - base
    db = push([0.0], [1.0], [0.0]) - base
    dc = push([0.0], [0.0], [1.0]) - base
    got = push([2.0], [-3.0], [0.5])
    assert np.allclose(got, base + 2.0 * da - 3.0 * db + 0.5 * dc, atol=1e-12)


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
        state = init(model)
        mean_u1 = linear_mean_control(k10, k11)
        got = [state.x1hat]
        for k in range(steps):
            state = advance(state, model, x0_seq[k], u0_seq[k], mean_u1)
            got.append(state.x1hat)
        assert np.max(np.abs(np.asarray(got) - ref)) < 1e-9


def test_error_moments_zero_without_uncertainty():
    model = make_model(
        a00=[[0.9]], a10=[[0.3]], a11=[[0.8]],
        b00=[[1.0]], b10=[[0.2]], b11=[[1.0]],
        sigma_w0=[[0.04]], sigma_w1=[[0.0]],
        xbar0=[1.0], xbar1=[0.5],
        sigma_x0=[[0.25]], sigma_x1=[[0.0]],
    )
    covs = error_moments(model, [[0.3]], horizon=10)
    assert len(covs) == 11
    assert all(np.allclose(c, 0.0, atol=1e-15) for c in covs)


def test_error_moments_hand_recursion():
    model = coupled_scalar_model()
    covs = error_moments(model, [[0.25]], horizon=2)
    f = 0.8 - 1.0 * 0.25
    c0 = 0.16
    c1 = f * c0 * f + 0.09
    c2 = f * c1 * f + 0.09
    assert np.allclose(covs[0], [[c0]], atol=1e-15)
    assert np.allclose(covs[1], [[c1]], atol=1e-14)
    assert np.allclose(covs[2], [[c2]], atol=1e-14)


def test_error_moments_match_sampled_errors():
    model = coupled_scalar_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    policy = StructuredPolicy.from_stationary(sol)
    horizon, trials = 20, 100000
    batch = simulate_batch(model, policy, cost, horizon, seed=5, trials=trials)
    covs = error_moments(model, policy.at(0)[3], horizon)
    err = batch.x1 - batch.x1hat
    for k in (1, 5, 10, 20):
        sample = err[k, 0]
        s2 = sample.var(ddof=1)
        # sample variance of a Gaussian has std approx s2 * sqrt(2/(T-1))
        se = s2 * np.sqrt(2.0 / (trials - 1))
        assert abs(s2 - covs[k][0, 0]) < 3.0 * se


def test_linear_mean_control_formula():
    mean_u1 = linear_mean_control(k10=[[2.0]], k11=[[3.0]])
    out = mean_u1(np.array([1.0]), np.array([-1.0]))
    assert np.allclose(out, [1.0], atol=1e-15)
