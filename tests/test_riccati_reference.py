"""The backward recursion with its checks stacked after the loop against the
per-step reference in riccati_reference.py: the same bits, and on failing
inputs the same exception, message and warnings, on every call of a sequence
that reads or extends the stored run."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riccati_reference as ref
from lfns import finite_horizon as fh
from lfns.auv import paper_model
from lfns.infinite_horizon import solve_stationary_riccati
from lfns.model import CostSpec, assemble_compact, make_cost, make_model
from pairs import decoupled_unit_model, random_model, random_pair

SOLVERS = {"finite": (fh.backward_riccati, ref.backward_riccati),
           "discounted": (fh.discounted_backward_riccati, ref.discounted_backward_riccati)}
FIELDS = ("p_seq", "k_seq", "lambda_seq", "l_seq")


def outcome(solve, *args):
    """(the solution, or the exception's class and message; the warnings as
    (class, message) pairs in the order they were issued)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = solve(*args)
        except Exception as exc:  # noqa: BLE001 - the class is part of what is compared
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same(model, compact, cost, mode, horizon):
    """Assert that both recursions agree; return the reference's failure, if any."""
    (got, got_warned), (want, want_warned) = (outcome(solve, compact, cost, horizon)
                                              for solve in SOLVERS[mode])
    assert got_warned == want_warned
    if isinstance(want, tuple):
        assert got == want
        return want
    for field in FIELDS:
        new, old = getattr(got, field), getattr(want, field)
        assert len(new) == len(old)
        assert all(np.array_equal(g, w) for g, w in zip(new, old))
    assert fh.optimal_cost(got, model) == ref.optimal_cost(want, model)
    return None


def assert_same_stationary(compact, cost):
    (got, got_warned), (want, want_warned) = (outcome(solve, compact, cost) for solve in
                                              (solve_stationary_riccati,
                                               ref.solve_stationary_riccati))
    assert got_warned == want_warned
    if isinstance(want, tuple):
        assert got == want
        return want
    for field in ("p", "h", "psi", "l"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert (got.iterations, got.residual) == (want.iterations, want.residual)
    return None


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), gamma=st.floats(0.5, 0.99), horizon=st.integers(0, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_recursion_equals_per_step_reference(n, gamma, horizon, seed):
    model, pair_cost = random_pair(np.random.default_rng(seed), n=n)
    cost = make_cost(pair_cost.q, pair_cost.r, pair_cost.p_terminal, gamma)
    compact = assemble_compact(model)
    for mode in SOLVERS:
        assert assert_same(model, compact, cost, mode, horizon) is None
    assert assert_same_stationary(compact, cost) is None


def test_auv_paper_equals_per_step_reference():
    # twelve states: the stacked eigvalsh and trace sums run on 12 x 12 matrices
    model, cost = paper_model()
    compact = assemble_compact(model)
    for mode in SOLVERS:
        assert assert_same(model, compact, cost, mode, 200) is None
    assert assert_same_stationary(compact, cost) is None


def _unit_b_model(rng, n):
    """random_model's a with b = I, so Psi(N) = R + P(N+1) exactly."""
    moving = random_model(rng, n=n)
    eye, zero = np.eye(n), np.zeros((n, n))
    return make_model(a00=moving.a00, a10=moving.a10, a11=moving.a11, b00=eye, b10=zero,
                      b11=eye, sigma_w0=moving.sigma_w0, sigma_w1=moving.sigma_w1,
                      xbar0=moving.xbar0, xbar1=moving.xbar1, sigma_x0=moving.sigma_x0,
                      sigma_x1=moving.sigma_x1)


def _failing_input(kind, rng, n, gamma):
    """(model, cost) of a failing-input kind.  The undiscounted recursion
    starts from a terminal weight of up to 20 I, so that an indefinite Q or R
    can first fail steps below N; the asymmetric costs bypass make_cost,
    which would symmetrize them."""
    dim = 2 * n
    eye = np.eye(dim)
    if kind == "singular-psi":
        # R = -I against P(N+1) = I and b = I: the undiscounted Psi(N) = 0,
        # which the solve rejects
        return _unit_b_model(rng, n), make_cost(eye, -eye, eye, gamma)
    model = random_model(rng, n=n)
    terminal = rng.uniform(1.0, 20.0) * eye
    if kind == "indefinite-r":
        r = eye - rng.uniform(1.0, 3.0) * np.diag(rng.permutation(dim) == 0)
        return model, make_cost(eye, r, terminal, gamma)
    if kind == "psd-loss":
        e = rng.standard_normal(dim)
        q = eye - rng.uniform(1.0, 3.0) * np.outer(e, e) / (e @ e)
        return model, make_cost(q, eye, terminal, gamma)
    skew = rng.standard_normal((dim, dim))
    q = eye + 10.0 ** rng.uniform(-7.0, -5.0) * (skew - skew.T)
    if kind == "asymmetric-psd-loss":
        q = q - 2.0 * np.diag(rng.permutation(dim) == 0)
    return model, CostSpec(q=q, r=eye, p_terminal=terminal, gamma=gamma)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["singular-psi", "indefinite-r", "psd-loss", "asymmetric",
                             "asymmetric-psd-loss"]),
       n=st.integers(1, 3), gamma=st.floats(0.5, 0.99), horizon=st.integers(0, 40),
       mode=st.sampled_from(sorted(SOLVERS)), seed=st.integers(0, 2 ** 32 - 1))
def test_failing_inputs_raise_and_warn_as_the_reference(kind, n, gamma, horizon, mode, seed):
    model, cost = _failing_input(kind, np.random.default_rng(seed), n, gamma)
    failure = assert_same(model, assemble_compact(model), cost, mode, horizon)
    if kind == "singular-psi" and mode == "finite":
        assert failure == (fh.RiccatiError, f"Psi({horizon}) not positive definite")
    if kind == "asymmetric":
        assert failure is None


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["clean", "singular-psi", "indefinite-r", "psd-loss", "asymmetric",
                             "asymmetric-psd-loss"]),
       n=st.integers(1, 3), gamma=st.floats(0.5, 0.99),
       horizons=st.lists(st.integers(0, 60), min_size=1, max_size=5),
       mode=st.sampled_from(sorted(SOLVERS)), seed=st.integers(0, 2 ** 32 - 1))
def test_horizon_sequences_equal_the_reference(kind, n, gamma, horizons, mode, seed):
    # every call of a sequence, whether it reads the stored run, extends it or
    # starts cold, gives the reference's bits, exception and warnings
    rng = np.random.default_rng(seed)
    if kind == "clean":
        model, pair_cost = random_pair(rng, n=n)
        cost = make_cost(pair_cost.q, pair_cost.r, pair_cost.p_terminal, gamma)
    else:
        model, cost = _failing_input(kind, rng, n, gamma)
    compact = assemble_compact(model)
    fh._stored = ()
    for horizon in horizons:
        assert_same(model, compact, cost, mode, horizon)


@pytest.mark.parametrize("a, q, r, message", [
    (0.0, (0.0, 1.0), (1.0, -1.0), "Psi(2) not positive definite"),
    (1.0, (1.0, -0.5), (1.0, 1.0), "Riccati iterate at step 2 lost positive semidefiniteness")])
def test_failure_past_the_stored_run_raises_as_the_reference(a, q, r, message):
    # horizon 0 stores one clean step from P(N+1) = 20 I; horizon 3 fails at its
    # second step, the first the stored run lacks: with a = 0 and b = I, Psi(2)
    # = R + Q is singular; with a = b = 1, P(2) = Q + P(3)(I + P(3))^-1 loses PSD
    one = [[1.0]]
    model = make_model(a00=[[a]], a10=[[0.0]], a11=[[a]], b00=one, b10=[[0.0]], b11=one)
    cost = CostSpec(q=np.diag(q), r=np.diag(r), p_terminal=20.0 * np.eye(2), gamma=None)
    compact = assemble_compact(model)
    assert assert_same(model, compact, cost, "finite", 0) is None
    assert assert_same(model, compact, cost, "finite", 3) == (fh.RiccatiError, message)


def test_overflowing_pair_raises_as_the_reference():
    # the CLI's divergent finite model: P grows like 9^k until step 78 overflows
    model = make_model(a00=[[3.0]], a10=[[0.3]], a11=[[0.8]], b00=[[0.0]], b10=[[0.2]],
                       b11=[[1.0]], sigma_w0=[[0.04]], sigma_w1=[[0.09]])
    cost = make_cost(np.eye(2), np.eye(2), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        failure = assert_same(model, assemble_compact(model), cost, "finite", 400)
    assert failure == (fh.RiccatiError, "non-finite Riccati iterate at step 78")


def test_singular_psi_after_a_warning():
    # Psi(N) = R + P(N+1) = 0 for the unit pair, after the asymmetric terminal
    # weight's warning
    model = decoupled_unit_model()
    p_terminal = np.array([[1.0, 1e-3], [-1e-3, 1.0]])
    cost = CostSpec(q=np.eye(2), r=-np.eye(2), p_terminal=p_terminal, gamma=None)
    compact = assemble_compact(model)
    failure = assert_same(model, compact, cost, "finite", 3)
    assert failure == (fh.RiccatiError, "Psi(3) not positive definite")
    warned = [(RuntimeWarning, "Riccati iterate at step 4 asymmetric beyond tolerance")]
    assert outcome(fh.backward_riccati, compact, cost, 3)[1] == warned


@pytest.mark.parametrize("r, skew", [((1.0, -1.0), 0.0), ((2.0, 2.0), 1e-3)])
def test_checks_stop_at_the_first_psd_loss(r, skew):
    # a = 0 and b = I: P(k) = Q for k <= N, so P(N) loses PSD and the loop
    # runs on past it, with R = diag(1, -1) to Psi(N-1) = R + Q = 0, which the
    # solve rejects, and with an asymmetric Q through steps that would each warn
    zero, one = [[0.0]], [[1.0]]
    model = make_model(a00=zero, a10=zero, a11=zero, b00=one, b10=zero, b11=one)
    cost = CostSpec(q=np.array([[-1.0, skew], [-skew, 1.0]]), r=np.diag(r),
                    p_terminal=2.0 * np.eye(2), gamma=None)
    compact = assemble_compact(model)
    failure = assert_same(model, compact, cost, "finite", 5)
    assert failure == (fh.RiccatiError, "Riccati iterate at step 5 lost positive semidefiniteness")
    warned = [(RuntimeWarning, "Riccati iterate at step 5 asymmetric beyond tolerance")]
    assert outcome(fh.backward_riccati, compact, cost, 5)[1] == (warned if skew else [])


def test_value_iteration_with_indefinite_r_raises_riccati_error():
    model, pair_cost = random_pair(np.random.default_rng(7), n=2)
    cost = make_cost(pair_cost.q, -pair_cost.r, None, 0.9)
    failure = assert_same_stationary(assemble_compact(model), cost)
    assert failure == (fh.RiccatiError, "Psi(1) not positive definite")
