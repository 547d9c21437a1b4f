import numpy as np
import pytest
from scipy.optimize import minimize

from lfns.auv import paper_model
from lfns.finite_horizon import (
    RiccatiError,
    backward_riccati,
    discounted_backward_riccati,
    optimal_cost,
    stationarity_residuals,
)
from lfns.model import assemble_compact, make_cost, make_model
from lfns.oracle import StructuredPolicy, exact_cost
from lfns.simulation import simulate
from pairs import coupled_noisy_model, decoupled_unit_model, random_model


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
        # theta holds (k00, k01, k10, k11) per step: the stacked 2 x 2 gains
        return StructuredPolicy(theta.reshape(steps, 2, 2), n=1, m1=1)

    res = minimize(lambda th: exact_cost(model, unpack(th), cost, steps),
                   np.zeros(4 * steps), method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 2000})
    assert abs(res.fun - optimal_cost(sol, model)) / res.fun < 1e-10
    assert np.max(np.abs(res.x - np.ravel(sol.k_seq))) < 1e-3


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


@pytest.mark.parametrize("name", ["auv-paper", "scalar-demo"])
def test_tail_is_the_shorter_solve_bitwise(name):
    # lfns converge reads every horizon of its sweep off one N = 200 recursion
    if name == "auv-paper":
        model, cost = paper_model()
    else:
        model = decoupled_unit_model()
        cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2), gamma=0.9)
    comp = assemble_compact(model)
    for solve in (discounted_backward_riccati, backward_riccati):
        top = solve(comp, cost, 200)
        for n in range(0, 201, 10):
            tail, own = top.tail(n), solve(comp, cost, n)
            assert optimal_cost(tail, model) == optimal_cost(own, model)
            for got, want in ((tail.p_seq, own.p_seq), (tail.k_seq, own.k_seq),
                              (tail.lambda_seq, own.lambda_seq), (tail.l_seq, own.l_seq)):
                assert len(got) == len(want)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
    check = stationarity_residuals(sol, policy, trace)
    assert check.max_hat < 1e-9


def test_stationarity_tilde_residual_vanishes_only_without_coupling():
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    clean = decoupled_unit_model()
    sol = backward_riccati(assemble_compact(clean), cost, 10)
    policy = StructuredPolicy.from_finite_horizon(sol, clean)
    trace = simulate(clean, policy, cost, 11, seed=3)[0]
    assert stationarity_residuals(sol, policy, trace).max_tilde < 1e-9

    dirty = coupled_noisy_model()
    sol = backward_riccati(assemble_compact(dirty), cost, 10)
    policy = StructuredPolicy.from_finite_horizon(sol, dirty)
    trace = simulate(dirty, policy, cost, 11, seed=3)[0]
    # the residual follower control sees a leader-row penalty the recursion
    # drops, so the identity genuinely fails under coupling plus noise
    assert stationarity_residuals(sol, policy, trace).max_tilde > 1e-6
