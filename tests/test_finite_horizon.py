import numpy as np
import pytest
from scipy.optimize import minimize

from lfns.finite_horizon import (
    RiccatiError,
    backward_riccati,
    discounted_backward_riccati,
    optimal_cost,
    split_gain,
    stationarity_residuals,
)
from lfns.model import assemble_compact, make_cost, make_model
from lfns.oracle import StructuredPolicy, exact_cost
from lfns.simulation import simulate


def decoupled_unit_model():
    # two identical uncoupled scalar agents a=b=1
    return make_model(
        a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
        b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
        sigma_w0=[[0.1]], sigma_w1=[[0.1]],
        xbar0=[1.0], xbar1=[0.5],
        sigma_x0=[[0.25]], sigma_x1=[[0.25]],
    )


def coupled_noisy_model():
    return make_model(
        a00=[[0.9]], a10=[[0.3]], a11=[[0.8]],
        b00=[[1.0]], b10=[[0.2]], b11=[[1.0]],
        sigma_w0=[[0.04]], sigma_w1=[[0.09]],
        xbar0=[1.0], xbar1=[0.5],
        sigma_x0=[[0.25]], sigma_x1=[[0.16]],
    )


def random_model(rng, n=2, follower_noise=True):
    return make_model(
        a00=0.6 * rng.standard_normal((n, n)),
        a10=0.4 * rng.standard_normal((n, n)),
        a11=0.6 * rng.standard_normal((n, n)),
        b00=rng.standard_normal((n, n)),
        b10=0.3 * rng.standard_normal((n, n)),
        b11=rng.standard_normal((n, n)),
        sigma_w0=0.1 * np.eye(n),
        sigma_w1=0.2 * np.eye(n) if follower_noise else np.zeros((n, n)),
        xbar0=rng.standard_normal(n), xbar1=rng.standard_normal(n),
        sigma_x0=0.3 * np.eye(n),
        sigma_x1=0.2 * np.eye(n) if follower_noise else np.zeros((n, n)),
    )


def test_scalar_two_step_frozen_values():
    model = decoupled_unit_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    sol = backward_riccati(assemble_compact(model), cost, 1)
    assert sol.horizon == 1
    assert len(sol.p_seq) == 3
    # hand recursion: P(2)=1, K(1)=1/2, P(1)=3/2, K(0)=3/5, P(0)=8/5 per agent
    assert np.allclose(sol.p_seq[2], np.eye(2), atol=1e-15)
    assert np.allclose(sol.k_seq[1], 0.5 * np.eye(2), atol=1e-12)
    assert np.allclose(sol.p_seq[1], 1.5 * np.eye(2), atol=1e-12)
    assert np.allclose(sol.k_seq[0], 0.6 * np.eye(2), atol=1e-12)
    assert np.allclose(sol.p_seq[0], 1.6 * np.eye(2), atol=1e-12)


def test_optimal_cost_hand_value():
    model = decoupled_unit_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    sol = backward_riccati(assemble_compact(model), cost, 1)
    # mean 1.6*(1 + 0.25) + trace 0.25*1.6*2 + noise 0.1*(1.5+1.5) + 0.1*(1+1)
    assert optimal_cost(sol, model) == pytest.approx(3.3, abs=1e-12)


def test_recursion_residual_and_psd():
    rng = np.random.default_rng(7)
    model = random_model(rng)
    comp = assemble_compact(model)
    cost = make_cost(q=np.eye(4), r=np.eye(4), p_terminal=0.5 * np.eye(4))
    sol = backward_riccati(comp, cost, 12)
    a, b = comp.a, comp.b
    for k in range(13):
        p_next = sol.p_seq[k + 1]
        lam = cost.r + b.T @ p_next @ b
        l = b.T @ p_next @ a
        rhs = cost.q + a.T @ p_next @ a - l.T @ np.linalg.solve(lam, l)
        assert np.max(np.abs(sol.p_seq[k] - rhs)) < 1e-10
        assert np.min(np.linalg.eigvalsh(sol.p_seq[k])) > -1e-9
        assert np.max(np.abs(sol.k_seq[k] - np.linalg.solve(lam, l))) < 1e-12


def test_bfgs_oracle_recovers_gains():
    # independent numerical optimizer on the exact closed-loop cost; on a
    # follower-noise-free system the estimate is exact and the backward
    # recursion is the true optimum
    model = make_model(
        a00=[[0.9]], a10=[[0.4]], a11=[[0.7]],
        b00=[[1.0]], b10=[[0.3]], b11=[[0.8]],
        sigma_w0=[[0.05]], sigma_w1=[[0.0]],
        xbar0=[1.0], xbar1=[-0.5],
        sigma_x0=[[0.2]], sigma_x1=[[0.0]],
    )
    cost = make_cost(q=np.diag([1.0, 2.0]), r=np.diag([1.0, 0.5]),
                     p_terminal=np.eye(2))
    sol = backward_riccati(assemble_compact(model), cost, 2)
    steps = 3

    def unpack(theta):
        t = theta.reshape(steps, 4)
        return StructuredPolicy(
            k00=[np.array([[t[s, 0]]]) for s in range(steps)],
            k01=[np.array([[t[s, 1]]]) for s in range(steps)],
            k10=[np.array([[t[s, 2]]]) for s in range(steps)],
            k11=[np.array([[t[s, 3]]]) for s in range(steps)])

    res = minimize(lambda th: exact_cost(model, unpack(th), cost, steps),
                   np.zeros(4 * steps), method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 2000})
    ric = np.array([[g.k00[0, 0], g.k01[0, 0], g.k10[0, 0], g.k11[0, 0]]
                    for g in (split_gain(k, 1, 1) for k in sol.k_seq)])
    assert abs(res.fun - optimal_cost(sol, model)) / res.fun < 1e-10
    assert np.max(np.abs(res.x.reshape(steps, 4) - ric)) < 1e-3


def test_optimal_cost_equals_exact_cost_when_estimate_exact():
    rng = np.random.default_rng(19)
    model = random_model(rng, follower_noise=False)
    cost = make_cost(q=np.eye(4), r=np.eye(4), p_terminal=np.eye(4))
    sol = backward_riccati(assemble_compact(model), cost, 8)
    policy = StructuredPolicy.from_finite_horizon(sol, model)
    j_closed = optimal_cost(sol, model)
    j_exact = exact_cost(model, policy, cost, 9)
    assert abs(j_closed - j_exact) / abs(j_exact) < 1e-12


def test_closed_form_cost_is_lower_bound_with_estimation_error():
    # with follower-side uncertainty the closed-form value ignores the
    # residual control penalty, so the realized cost of the policy is larger
    model = coupled_noisy_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    sol = backward_riccati(assemble_compact(model), cost, 8)
    policy = StructuredPolicy.from_finite_horizon(sol, model)
    gap = exact_cost(model, policy, cost, 9) - optimal_cost(sol, model)
    assert gap > 1e-4


def test_riccati_error_on_indefinite_r():
    model = decoupled_unit_model()
    cost = make_cost(q=np.eye(2), r=-np.eye(2), p_terminal=np.eye(2))
    with pytest.raises(RiccatiError):
        backward_riccati(assemble_compact(model), cost, 3)


def test_discounted_shift_identity():
    rng = np.random.default_rng(23)
    model = random_model(rng)
    comp = assemble_compact(model)
    cost = make_cost(q=np.eye(4), r=np.eye(4), gamma=0.9)
    long = discounted_backward_riccati(comp, cost, 8)
    short = discounted_backward_riccati(comp, cost, 5)
    # window length is all that matters: P_8(3) = P_5(0)
    assert np.max(np.abs(long.p_seq[3] - short.p_seq[0])) < 1e-12
    assert np.max(np.abs(long.k_seq[3] - short.k_seq[0])) < 1e-12


def test_discount_limit_matches_undiscounted():
    model = decoupled_unit_model()
    comp = assemble_compact(model)
    plain = backward_riccati(
        comp, make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.zeros((2, 2))), 6)
    near = discounted_backward_riccati(
        comp, make_cost(q=np.eye(2), r=np.eye(2), gamma=1.0 - 1e-12), 6)
    assert np.max(np.abs(plain.k_seq[0] - near.k_seq[0])) < 1e-8
    assert np.max(np.abs(plain.p_seq[0] - near.p_seq[0])) < 1e-8


def test_stationarity_hat_residual_vanishes_on_trajectory():
    model = coupled_noisy_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    sol = backward_riccati(assemble_compact(model), cost, 10)
    policy = StructuredPolicy.from_finite_horizon(sol, model)
    trace = simulate(model, policy, cost, 11, seed=2)[0]
    check = stationarity_residuals(sol, trace)
    assert check.max_hat < 1e-9


def test_stationarity_tilde_residual_vanishes_only_without_coupling():
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    clean = decoupled_unit_model()
    sol = backward_riccati(assemble_compact(clean), cost, 10)
    policy = StructuredPolicy.from_finite_horizon(sol, clean)
    trace = simulate(clean, policy, cost, 11, seed=3)[0]
    assert stationarity_residuals(sol, trace).max_tilde < 1e-9

    dirty = coupled_noisy_model()
    sol = backward_riccati(assemble_compact(dirty), cost, 10)
    policy = StructuredPolicy.from_finite_horizon(sol, dirty)
    trace = simulate(dirty, policy, cost, 11, seed=3)[0]
    # the residual follower control sees a leader-row penalty the recursion
    # drops, so the identity genuinely fails under coupling plus noise
    assert stationarity_residuals(sol, trace).max_tilde > 1e-6
