import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lfns import oracle
from lfns.estimator import advance
from lfns.finite_horizon import backward_riccati, closed_loop, controls, split_gain
from lfns.infinite_horizon import solve_stationary_riccati
from lfns.model import CompactModel, assemble_compact, make_cost, make_model, model_from_dict, step
from lfns.oracle import (
    OracleError,
    StructuredPolicy,
    _forward,
    exact_cost,
    gain_gradient,
    kalman_oracle,
    perturbation_sweep,
    policy_gradient,
)
from lfns.simulation import simulate, simulate_batch
from closed_loop_reference import closed_loop as reference_closed_loop
from pairs import coupled_noisy_model, decoupled_unit_model, random_pair, scalar_demo_pair


def forward_means(model, policy, cost, horizon, discounted=False):
    """Means of (x0, x1, x1hat) at steps 0..horizon, off the exact moment recursion."""
    return np.array([item[4] for item in _forward(model, policy, cost, horizon, discounted)])


def test_initial_moments_layout():
    model = coupled_noisy_model()
    policy = StructuredPolicy.constant([[0.0]], [[0.0]], [[0.0]], [[0.0]])
    *_, mean, cov = next(_forward(model, policy, make_cost(q=np.eye(2), r=np.eye(2)), 0,
                                  False))
    assert np.array_equal(mean, [1.0, 0.5, 0.5])
    # the estimate starts at the prior mean with zero spread
    assert cov[0, 0] == 0.25
    assert cov[1, 1] == 0.16
    assert cov[2, 2] == 0.0


def test_closed_loop_matrices_zero_gain_is_plant():
    model = coupled_noisy_model()
    policy = StructuredPolicy.constant([[0.0]], [[0.0]], [[0.0]], [[0.0]])
    cu, f = closed_loop(assemble_compact(model), policy.at(0))
    assert not cu.any()
    assert f[0, 0] == 0.9
    assert f[1, 0] == 0.3
    assert f[1, 1] == 0.8
    assert f[2, 0] == 0.3
    assert f[2, 2] == 0.8
    # true follower state never feeds the estimate
    assert f[2, 1] == 0.0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_closed_loop_matches_engine_step(n, seed):
    # z is the engine's state at step 0: x0 and x1 are drawn from their
    # priors and x1hat starts at the prior mean, so x1 and x1hat differ
    rng = np.random.default_rng(seed)
    model, cost = random_pair(rng, n=n)
    policy = StructuredPolicy(rng.standard_normal((2 * n, 2 * n)), n, n)
    batch = simulate_batch(model, policy, cost, 1, seed=seed, trials=8)
    x0, x1, x1hat, u0, u1 = batch.x0[0], batch.x1[0], batch.x1hat[0], batch.u0[0], batch.u1[0]
    cu, f = closed_loop(assemble_compact(model), policy.at(0))

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    z = np.vstack([x0, x1, x1hat])
    assert close(cu @ z, np.vstack([u0, u1]))
    # the value form of the law gives the engine's controls bit for bit, and
    # its conditional-mean control moves the estimate as F's x1hat row does
    got0, got1, u1hat = controls(policy.at(0), x0, x1, x1hat)
    assert np.array_equal(got0, u0) and np.array_equal(got1, u1)
    zero = np.zeros_like(x0)
    assert close(f @ z, np.vstack([*step(model, x0, x1, u0, u1, zero, zero),
                                   advance(model, x1hat, x0, u0, u1hat)]))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), m1=st.integers(1, 3), m2=st.integers(1, 3),
       zeros=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_closed_loop_is_its_reference_bit_for_bit(n, m1, m2, zeros, seed):
    # every block of a and b is drawn, the leader's x1 and u1 blocks too,
    # which both must ignore; exact zeros of either sign in b and the gains
    # make zero terms of either sign, and zero signs reach the golden bytes
    rng = np.random.default_rng(seed)

    def draw(*shape):
        out = rng.standard_normal(shape)
        out[rng.random(shape) < zeros] = 0.0
        return out * rng.choice([-1.0, 1.0], shape)

    compact = CompactModel(a=draw(2 * n, 2 * n), b=draw(2 * n, m1 + m2), n=n, m1=m1)
    gains = split_gain(draw(m1 + m2, 2 * n), n, m1)
    for got, want in zip(closed_loop(compact, gains), reference_closed_loop(compact, gains)):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_exact_cost_terminal_only():
    model = coupled_noisy_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.diag([2.0, 3.0]))
    policy = StructuredPolicy.constant([[0.0]], [[0.0]], [[0.0]], [[0.0]])
    got = exact_cost(model, policy, cost, 0)
    want = 2.0 * (1.0 ** 2 + 0.25) + 3.0 * (0.5 ** 2 + 0.16)
    assert got == pytest.approx(want, rel=1e-14)


def test_exact_cost_one_step_hand_value():
    model = make_model(a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
                       xbar0=[2.0], xbar1=[0.0])
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    policy = StructuredPolicy.constant([[0.5]], [[0.0]], [[0.0]], [[0.0]])
    # stage 0: x0=2 -> q 4, u0=-1 -> r 1; terminal x0(1)=1 -> 1; total 6
    assert exact_cost(model, policy, cost, 1) == pytest.approx(6.0, rel=1e-14)


def test_mean_trajectory_matches_noise_free_simulation():
    model = make_model(
        a00=[[0.9]], a10=[[0.3]], a11=[[0.8]],
        b00=[[1.0]], b10=[[0.2]], b11=[[1.0]],
        xbar0=[1.0], xbar1=[0.5],
    )
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    policy = StructuredPolicy.from_stationary(sol)
    means = forward_means(model, policy, cost, 30, discounted=True)
    trace = simulate(model, policy, cost, 30, seed=0)
    assert np.max(np.abs(means[:, 0] - trace.x0[:, 0])) < 1e-12
    assert np.max(np.abs(means[:, 1] - trace.x1[:, 0])) < 1e-12
    assert np.max(np.abs(means[:, 2] - trace.x1hat[:, 0])) < 1e-12


def test_gradient_vanishes_at_optimum_without_coupling():
    model = decoupled_unit_model()
    cost_s = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost_s)
    rep = gain_gradient(model, StructuredPolicy.from_stationary(sol),
                        cost_s, 300, discounted=True)
    assert rep.max_relative < 1e-6

    cost_f = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    fin = backward_riccati(assemble_compact(model), cost_f, 8)
    rep = gain_gradient(model, StructuredPolicy.from_finite_horizon(fin, model),
                        cost_f, 9)
    assert rep.max_relative < 1e-6


def test_gradient_nonzero_under_coupling_with_noise():
    model = coupled_noisy_model()
    cost_s = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost_s)
    rep = gain_gradient(model, StructuredPolicy.from_stationary(sol),
                        cost_s, 300, discounted=True)
    assert rep.max_relative > 1e-3

    cost_f = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    fin = backward_riccati(assemble_compact(model), cost_f, 8)
    policy = StructuredPolicy.from_finite_horizon(fin, model)
    gains = policy.gains.copy()
    rep = gain_gradient(model, policy, cost_f, 9)
    assert rep.max_relative > 1e-4
    # one entry per perturbed gain entry, indexed as argmax reports it; the
    # probes perturb a copy, so the policy's own gains are untouched
    assert rep.gradient.shape == (9, 2, 2)
    step, block, i, j = rep.argmax
    blocks = dict(zip(("k00", "k01", "k10", "k11"), split_gain(rep.gradient[step], 1, 1)))
    assert blocks[block][i, j] == rep.argmax_value
    assert np.array_equal(policy.gains, gains)


def test_perturbation_sweep_confirms_optimum_without_coupling():
    model = decoupled_unit_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    policy = StructuredPolicy.from_stationary(sol)
    n_lower, worst = perturbation_sweep(model, policy, cost, 300, True,
                                        n_directions=200, scale=1e-3, seed=17)
    assert n_lower == 0
    assert worst == 0.0


def test_perturbation_sweep_finds_improvements_under_coupling():
    model = coupled_noisy_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    policy = StructuredPolicy.from_stationary(sol)
    n_lower, worst = perturbation_sweep(model, policy, cost, 300, True,
                                        n_directions=300, scale=1e-3, seed=17)
    assert n_lower > 0
    assert worst < 0.0


def test_kalman_oracle_agrees_with_recursion():
    rng = np.random.default_rng(43)
    for _ in range(5):
        n = int(rng.integers(1, 3))
        model = make_model(
            a00=0.5 * rng.standard_normal((n, n)),
            a10=0.3 * rng.standard_normal((n, n)),
            a11=0.5 * rng.standard_normal((n, n)),
            b00=rng.standard_normal((n, n)),
            b10=0.2 * rng.standard_normal((n, n)),
            b11=rng.standard_normal((n, n)),
            sigma_w0=0.2 * np.eye(n), sigma_w1=0.3 * np.eye(n),
            xbar0=rng.standard_normal(n), xbar1=rng.standard_normal(n),
            sigma_x0=0.4 * np.eye(n), sigma_x1=0.5 * np.eye(n),
        )
        k10 = 0.2 * rng.standard_normal((n, n))
        k11 = 0.2 * rng.standard_normal((n, n))
        steps = 15
        x0_seq = rng.standard_normal((steps + 1, n))
        u0_seq = rng.standard_normal((steps, n))
        ref = kalman_oracle(model, x0_seq, u0_seq, follower_gains=(k10, k11))
        x1hat = model.xbar1
        for k in range(steps):
            u1hat = -(k10 @ x0_seq[k] + k11 @ x1hat)
            x1hat = advance(model, x1hat, x0_seq[k], u0_seq[k], u1hat)
            assert np.max(np.abs(x1hat - ref[k + 1])) < 1e-9


def test_kalman_oracle_exact_when_follower_deterministic():
    model = make_model(
        a00=[[0.9]], a10=[[0.3]], a11=[[0.8]],
        b00=[[1.0]], b10=[[0.2]], b11=[[1.0]],
        sigma_w0=[[0.1]], sigma_w1=[[0.0]],
        xbar0=[1.0], xbar1=[0.5],
        sigma_x0=[[0.25]], sigma_x1=[[0.0]],
    )
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    policy = StructuredPolicy.from_stationary(sol)
    trace = simulate(model, policy, cost, 25, seed=9)
    # no follower-side randomness: the conditional mean is the exact state
    assert np.max(np.abs(trace.x1hat - trace.x1)) < 1e-12


def test_exact_cost_raises_on_divergence():
    model = make_model(a00=[[3.0]], a10=[[0.0]], a11=[[3.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
                       xbar0=[1e200], xbar1=[1e200])
    cost = make_cost(q=np.eye(2), r=np.eye(2), gamma=0.9)
    policy = StructuredPolicy.constant([[0.0]], [[0.0]], [[0.0]], [[0.0]])
    per_step = StructuredPolicy(np.stack([policy.gains] * 2000), policy.n, policy.m1)
    messages = []
    for pol in (policy, per_step):
        with np.errstate(over="ignore"), pytest.raises(OracleError) as err:
            exact_cost(model, pol, cost, 2000, discounted=True)
        messages.append(str(err.value))
    # both branches stop at the same step
    assert messages[0] == messages[1]
    assert "at step " in messages[0]


def test_cost_that_overflows_finite_moments_raises():
    # at 552 steps the moments are finite but their cost sum overflows; an
    # infinite cost read as a vanishing gradient would pass a stationarity check
    model = make_model(a00=[[2.0]], a10=[[0.0]], a11=[[2.0]], b00=[[1.0]], b10=[[0.0]],
                       b11=[[1.0]], sigma_w0=[[1.0]], sigma_w1=[[1.0]], xbar0=[1.0],
                       xbar1=[1.0], sigma_x0=[[1.0]], sigma_x1=[[1.0]])
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    policy = StructuredPolicy.constant([[0.1]], [[0.0]], [[0.0]], [[0.1]])
    assert np.isfinite(exact_cost(model, policy, cost, 551))
    assert np.isfinite(forward_means(model, policy, cost, 552)).all()
    for evaluate, extra in ((exact_cost, ()), (policy_gradient, ()), (gain_gradient, ()),
                            (perturbation_sweep, (False, 4, 0.1, 0))):
        with pytest.raises(OracleError, match="^exact cost not finite: inf$"):
            evaluate(model, policy, cost, 552, *extra)


def _no_moments(*args):
    raise AssertionError("a moment recursion started")


@pytest.mark.parametrize("horizon", [1, 5])
def test_discounted_moments_without_gamma_raise_before_any_step(monkeypatch, horizon):
    model = coupled_noisy_model()
    policy = StructuredPolicy.constant([[0.5]], [[0.0]], [[0.5]], [[0.1]])
    cost = make_cost(q=np.eye(2), r=np.eye(2))
    monkeypatch.setattr(oracle, "stacked_moments", _no_moments)
    for evaluate in (exact_cost, policy_gradient, gain_gradient):
        with pytest.raises(ValueError, match="^discounted aggregation requires cost.gamma$"):
            evaluate(model, policy, cost, horizon, discounted=True)


@pytest.mark.parametrize("name", ["exact_cost", "gain_gradient", "policy_gradient",
                                  "perturbation_sweep"])
def test_negative_horizon_raises_before_the_model_is_read(monkeypatch, name):
    # a negative horizon is no window: it would give the horizon-0 cost, an
    # empty gradient or no perturbation
    extra = (False, 4, 0.1, 0) if name == "perturbation_sweep" else ()
    model, cost = scalar_demo_pair()
    sol = backward_riccati(assemble_compact(model), cost, 8)
    policy = StructuredPolicy.from_finite_horizon(sol, model)
    monkeypatch.setattr(oracle, "stacked_moments", _no_moments)
    with pytest.raises(ValueError, match="^horizon must be >= 0, got -2$"):
        getattr(oracle, name)(model, policy, cost, -2, *extra)


@pytest.fixture(scope="module")
def auv_stationary():
    doc = json.loads(resources.files("lfns").joinpath("data/auv-paper.json").read_text())
    model, cost = model_from_dict(doc)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    return model, cost, StructuredPolicy.from_stationary(sol)


@pytest.mark.parametrize("horizon, discounted", [(300, True), (9, False)])
def test_constant_policy_matches_per_step_bitwise(auv_stationary, horizon, discounted):
    # a constant policy builds its matrices once, a per-step one at every
    # step; the moment arithmetic is the same, so the results are equal
    model, cost, policy = auv_stationary
    if not discounted:
        cost = make_cost(cost.q, cost.r, p_terminal=cost.q)
    per_step = StructuredPolicy(np.stack([policy.gains] * horizon), policy.n, policy.m1)
    assert (exact_cost(model, policy, cost, horizon, discounted)
            == exact_cost(model, per_step, cost, horizon, discounted))
    assert np.array_equal(forward_means(model, policy, cost, horizon, discounted),
                          forward_means(model, per_step, cost, horizon, discounted))


def off_optimum_policies(n, gamma, horizon, seed):
    """A random pair's solved stationary and per-step policies, each moved off
    its optimum by a random offset, where the estimator row's part of the
    gradient vanishes and settled per-step gains tie across steps."""
    rng = np.random.default_rng(seed)
    model, pair_cost = random_pair(rng, n=n)
    cost = make_cost(pair_cost.q, pair_cost.r, pair_cost.p_terminal, gamma)
    compact = assemble_compact(model)
    policies = [StructuredPolicy.from_stationary(solve_stationary_riccati(compact, cost)),
                StructuredPolicy.from_finite_horizon(
                    backward_riccati(compact, cost, horizon - 1), model)]
    moved = [StructuredPolicy(p.gains + 0.02 * rng.standard_normal(p.gains.shape), p.n, p.m1)
             for p in policies]
    return model, cost, compact, moved


def discounted_growth(compact, policy, gamma):
    """gamma rho(F)^2 for the closed loop F of a constant policy.  Below 1 the
    discounted second moments, and with them the truncated cost and its
    gradient, converge as the horizon grows."""
    _, f = closed_loop(compact, policy.at(0))
    return gamma * float(np.max(np.abs(np.linalg.eigvals(f)))) ** 2


@settings(max_examples=8, deadline=None)
@given(n=st.integers(1, 3), gamma=st.floats(0.5, 0.99), horizon=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_policy_gradient_matches_finite_differences(n, gamma, horizon, seed):
    # the finite differences of a per-step policy cost about (n * horizon)^2
    # moment steps; this bound keeps an example near a second
    assume(n * horizon <= 45)
    model, cost, compact, (stationary, per_step) = off_optimum_policies(n, gamma, horizon, seed)
    # outside this domain the 300-step cost is not near its limit, and its
    # finite differences carry rounding far above the bound below
    assume(discounted_growth(compact, stationary, gamma) < 1.0)
    for policy, steps, discounted in ((stationary, 300, True), (per_step, horizon, False)):
        exact = policy_gradient(model, policy, cost, steps, discounted)
        fd = gain_gradient(model, policy, cost, steps, discounted)
        assert exact.j_value == fd.j_value == exact_cost(model, policy, cost, steps, discounted)
        assert exact.gradient.shape == fd.gradient.shape
        assert np.all(np.abs(exact.gradient - fd.gradient)
                      <= 1e-5 * (1.0 + np.max(np.abs(fd.gradient))))
        if fd.max_relative > 1e-6:
            assert exact.argmax == fd.argmax


def test_gradient_property_rejects_a_divergent_discounted_loop():
    # an example the property once drew: rho(F) = 1.263 > gamma^(-1/2) = 1.155,
    # so the moved stationary policy's discounted cost grows with the horizon
    _, _, compact, (stationary, _) = off_optimum_policies(2, 0.75, 1, 102)
    growth = discounted_growth(compact, stationary, 0.75)
    assert growth == pytest.approx(0.75 * 1.263 ** 2, rel=1e-3)
    assert growth >= 1.0
