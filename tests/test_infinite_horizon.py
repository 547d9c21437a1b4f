import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from lfns import infinite_horizon
from lfns.finite_horizon import RiccatiError, closed_loop, discounted_backward_riccati, split_gain
from lfns.infinite_horizon import (
    FIXED_POINT_TOL,
    RiccatiDivergence,
    StationarySolution,
    check_stabilizability,
    solve_stationary_riccati,
    stationary_cost,
)
from lfns.model import assemble_compact, make_cost, make_model
from lfns.oracle import StructuredPolicy, exact_cost
from pairs import coupled_noisy_model, decoupled_unit_model, random_model
from test_estimator import error_covariances


def test_scalar_closed_form_fixed_point():
    model = decoupled_unit_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    # per agent: 0.9 p^2 - 0.8 p - 1 = 0
    p = (0.8 + np.sqrt(4.24)) / 1.8
    h = 0.9 * p / (1.0 + 0.9 * p)
    assert np.max(np.abs(sol.p - p * np.eye(2))) < 1e-10
    assert np.max(np.abs(sol.h - h * np.eye(2))) < 1e-10
    assert sol.residual < FIXED_POINT_TOL
    assert sol.iterations > 0


def test_memoryless_plant_fixed_point_is_q():
    model = make_model(a00=[[0.0]], a10=[[0.0]], a11=[[0.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
                       sigma_w0=[[1.0]], sigma_w1=[[0.0]])
    cost = make_cost(q=2.0 * np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    assert np.allclose(sol.p, 2.0 * np.eye(2), atol=1e-12)
    assert np.allclose(sol.h, 0.0, atol=1e-12)
    # gamma/(1-gamma) Tr(Sigma_W P) = 9 * 2 with zero initial moments
    assert stationary_cost(sol, model) == pytest.approx(18.0, abs=1e-9)


def test_uncontrollable_unstable_plant_diverges():
    model = make_model(a00=[[2.0]], a10=[[0.0]], a11=[[0.5]],
                       b00=[[0.0]], b10=[[0.0]], b11=[[1.0]])
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    with pytest.raises(RiccatiDivergence) as exc:
        solve_stationary_riccati(assemble_compact(model), cost)
    assert exc.value.norm > 1e11


def test_iteration_cap_raises(monkeypatch):
    # no iterate short of the tolerance is ever returned
    monkeypatch.setattr(infinite_horizon, "MAX_ITERATIONS", 2)
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    with pytest.raises(RiccatiError, match=r"hit the iteration cap after 2 iterations "
                                           r"\(relative change \d\.\d{3}e[-+]\d+, tolerance 1e-12\)"):
        solve_stationary_riccati(assemble_compact(decoupled_unit_model()), cost)


def test_matches_scipy_dare_on_random_systems():
    rng = np.random.default_rng(31)
    gamma = 0.9
    for _ in range(10):
        model = random_model(rng, n=int(rng.integers(1, 3)))
        comp = assemble_compact(model)
        cost = make_cost(q=np.eye(2 * model.n),
                         r=np.eye(model.m1 + model.m2), gamma=gamma)
        sol = solve_stationary_riccati(comp, cost)
        # discounting folds into the dynamics as a sqrt(gamma) scaling
        ref = solve_discrete_are(np.sqrt(gamma) * comp.a,
                                 np.sqrt(gamma) * comp.b, cost.q, cost.r)
        assert np.max(np.abs(sol.p - ref)) / np.max(np.abs(ref)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), gamma=st.floats(0.5, 0.99), seed=st.integers(0, 2 ** 32 - 1))
def test_value_iteration_matches_scipy_dare(n, gamma, seed):
    comp = assemble_compact(random_model(np.random.default_rng(seed), n=n))
    cost = make_cost(q=np.eye(2 * n), r=np.eye(2 * n), gamma=gamma)
    sol = solve_stationary_riccati(comp, cost)
    assert sol.residual < FIXED_POINT_TOL
    ref = solve_discrete_are(np.sqrt(gamma) * comp.a, np.sqrt(gamma) * comp.b,
                             cost.q, cost.r)
    assert np.max(np.abs(sol.p - ref)) / np.max(np.abs(ref)) < 1e-8


def test_lyapunov_identity_at_fixed_point():
    rng = np.random.default_rng(37)
    model = random_model(rng)
    comp = assemble_compact(model)
    cost = make_cost(q=np.eye(4), r=np.eye(4), gamma=0.9)
    sol = solve_stationary_riccati(comp, cost)
    f = comp.a - comp.b @ sol.h
    rhs = cost.q + sol.h.T @ cost.r @ sol.h + 0.9 * f.T @ sol.p @ f
    assert np.max(np.abs(sol.p - rhs)) < 1e-10


def test_fixed_point_agrees_with_long_backward_sweep():
    rng = np.random.default_rng(41)
    model = random_model(rng)
    comp = assemble_compact(model)
    cost = make_cost(q=np.eye(4), r=np.eye(4), gamma=0.9)
    sol = solve_stationary_riccati(comp, cost)
    sweep = discounted_backward_riccati(comp, cost, 300)
    assert np.max(np.abs(sweep.p_seq[0] - sol.p)) < 1e-8


def test_stationary_cost_deterministic_case():
    model = make_model(a00=[[0.5]], a10=[[0.0]], a11=[[0.5]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
                       xbar0=[2.0], xbar1=[-1.0])
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    x = np.array([2.0, -1.0])
    assert stationary_cost(sol, model) == pytest.approx(x @ sol.p @ x, rel=1e-12)


def test_stationary_cost_matches_discounted_exact_cost_without_coupling():
    model = decoupled_unit_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    policy = StructuredPolicy.from_stationary(sol)
    # gamma^600 is far below double precision, truncation is exact here
    j_exact = exact_cost(model, policy, cost, 600, discounted=True)
    assert stationary_cost(sol, model) == pytest.approx(j_exact, rel=1e-10)


def test_stationary_cost_is_lower_bound_with_estimation_error():
    model = coupled_noisy_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    policy = StructuredPolicy.from_stationary(sol)
    gap = exact_cost(model, policy, cost, 600, discounted=True) - stationary_cost(sol, model)
    assert gap > 1e-4


def test_verdict_on_stable_system():
    model = decoupled_unit_model()
    comp = assemble_compact(model)
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(comp, cost)
    verdict = check_stabilizability(sol, cost, comp)
    assert verdict.stabilizable is True
    assert verdict.positive_definite.value is True
    assert verdict.positive_definite.margin > 0
    assert verdict.inequality_holds.value is True
    assert verdict.spectral_radius < 1.0
    assert "rho" in verdict.detail


def test_verdict_is_inconclusive_at_unit_radius():
    # no feedback on A = I leaves both closed-loop radii at exactly 1
    comp = assemble_compact(decoupled_unit_model())
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = StationarySolution(p=np.eye(2), h=np.zeros((2, 2)), psi=np.eye(2), l=np.zeros((2, 2)),
                             gamma=0.9, iterations=0, residual=0.0, n=1, m1=1)
    verdict = check_stabilizability(sol, cost, comp)
    assert verdict.spectral_radius == 1.0
    assert verdict.stabilizable is None


def test_verdict_counts_divergent_estimation_error():
    # A - BH is contractive and the sufficient inequality holds, but the
    # follower barely actuates its own unstable mode: the estimation error
    # x1 - x1hat grows under a11 - b11 h11
    model = make_model(a00=[[0.5]], a10=[[0.0]], a11=[[1.2]],
                       b00=[[1.0]], b10=[[1.0]], b11=[[0.01]],
                       sigma_w0=[[0.1]], sigma_w1=[[0.1]],
                       xbar0=[1.0], xbar1=[1.0],
                       sigma_x0=[[0.1]], sigma_x1=[[0.1]])
    comp = assemble_compact(model)
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(comp, cost)
    verdict = check_stabilizability(sol, cost, comp)
    assert np.max(np.abs(np.linalg.eigvals(comp.a - comp.b @ sol.h))) < 1.0
    assert verdict.inequality_holds.value is True
    assert verdict.stabilizable is False
    _, f = closed_loop(comp, split_gain(sol.h, model.n, model.m1))
    augmented = np.max(np.abs(np.linalg.eigvals(f)))
    assert verdict.spectral_radius == pytest.approx(augmented, abs=1e-12)
    assert verdict.spectral_radius == pytest.approx(1.1998, abs=1e-4)
    policy = StructuredPolicy.from_stationary(sol)
    assert error_covariances(model, policy, 60)[-1][0, 0] > 1e8
    assert "estimation error" in verdict.detail


@pytest.mark.parametrize("gamma", [None, 0.0, 1.0])
def test_discount_outside_the_open_unit_interval_is_refused(gamma):
    compact = assemble_compact(decoupled_unit_model())
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=gamma)
    with pytest.raises(ValueError) as stationary:
        solve_stationary_riccati(compact, cost)
    assert type(stationary.value) is ValueError
    assert str(stationary.value) == f"stationary solve requires gamma in (0, 1), got {gamma}"
    with pytest.raises(RiccatiError) as recursion:
        discounted_backward_riccati(compact, cost, 3)
    assert type(recursion.value) is RiccatiError
    assert str(recursion.value) == f"discounted recursion requires gamma in (0, 1), got {gamma}"
