import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from lfns import finite_horizon as fh
from lfns import infinite_horizon
from lfns.auv import paper_model
from lfns.finite_horizon import (
    RiccatiError,
    backward_riccati,
    discounted_backward_riccati,
    optimal_cost,
    stationarity_residuals,
)
from lfns.infinite_horizon import solve_stationary_riccati
from lfns.model import PD_TOL, PSD_TOL, CostSpec, assemble_compact, eigmins, make_cost, make_model
from lfns.oracle import StructuredPolicy, exact_cost
from lfns.simulation import simulate
from pairs import (coupled_noisy_model, decoupled_unit_model, random_model, random_pair,
                   scalar_demo_pair)


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
def test_sweep_equals_cold_solves_bitwise(name, monkeypatch):
    # a horizon sweep reads its windows off the stored run, whichever way it goes
    if name == "auv-paper":
        model, cost = paper_model()
    else:
        model, cost = scalar_demo_pair()
    comp = assemble_compact(model)
    horizons = range(0, 201, 10)
    for solve in (discounted_backward_riccati, backward_riccati):
        cold = {}
        for n in horizons:
            monkeypatch.setattr(fh, "_stored", ())
            cold[n] = solve(comp, cost, n)
        monkeypatch.setattr(fh, "_stored", ())
        for n in [*horizons, *reversed(horizons), 200, 200, 30, 30]:
            got, want = solve(comp, cost, n), cold[n]
            assert optimal_cost(got, model) == optimal_cost(want, model)
            for field in ("p_seq", "k_seq", "lambda_seq", "l_seq"):
                new, old = getattr(got, field), getattr(want, field)
                assert len(new) == len(old)
                assert all(np.array_equal(g, w) for g, w in zip(new, old))


def test_sweep_computes_each_step_once(monkeypatch):
    calls, riccati_step = [], fh.riccati_step

    def counted(*args):
        calls.append(args[-1])
        return riccati_step(*args)

    monkeypatch.setattr(fh, "riccati_step", counted)
    model, cost = paper_model()
    comp = assemble_compact(model)
    for n in range(0, 201, 10):
        discounted_backward_riccati(comp, cost, n)
    assert len(calls) == 201
    calls.clear()
    discounted_backward_riccati(comp, cost, 200)
    assert calls == []


def test_stored_run_is_keyed_by_content(monkeypatch):
    model, cost = scalar_demo_pair()
    comp = assemble_compact(model)
    before = backward_riccati(comp, cost, 20)
    cost.q[0, 0] += 1.0  # in place: the same objects, another step map
    warm = backward_riccati(comp, cost, 20)
    assert len(fh._stored) == 2  # another key: the first run is kept beside it
    monkeypatch.setattr(fh, "_stored", ())
    cold = backward_riccati(comp, cost, 20)
    assert not np.array_equal(warm.p_seq, before.p_seq)
    for field in ("p_seq", "k_seq", "lambda_seq", "l_seq"):
        assert np.array_equal(getattr(warm, field), getattr(cold, field))


def _cold(call):
    """call() with an empty store, which it leaves empty."""
    stored, fh._stored = fh._stored, ()
    try:
        return call()
    finally:
        fh._stored = stored


def assert_bit_equal(got, want):
    """Assert two finite-horizon or two stationary solutions equal, field by field, bit for bit."""
    if isinstance(want, fh.FiniteHorizonSolution):
        for field in ("p_seq", "k_seq", "lambda_seq", "l_seq"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    else:
        for field in ("p", "h", "psi", "l"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert (got.iterations, got.residual) == (want.iterations, want.residual)


@settings(max_examples=60, deadline=None)
@given(n=st.lists(st.integers(1, 3), min_size=2, max_size=2),
       gammas=st.lists(st.floats(0.5, 0.99), min_size=2, max_size=2, unique=True),
       seed=st.integers(0, 2 ** 32 - 1),
       order=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                                st.sampled_from(["finite", "sweep", "stationary"]),
                                st.integers(0, 40)), min_size=1, max_size=8))
def test_interleaved_calls_equal_cold_calls(n, gammas, seed, order):
    # two pairs at two discounts give six step maps: the undiscounted one of
    # each pair, which ignores gamma, and a discounted one per gamma.  Every
    # call gives the bits of the same call on an empty store.  A recursion
    # computes exactly the steps that a store of the STORED_RUNS most
    # recently used runs lacks: each (map, step) once unless its run was
    # evicted.  A stationary solve computes its own iterations + 1 steps and
    # leaves the store as it was
    rng = np.random.default_rng(seed)
    pairs = []
    for size in n:
        model, cost = random_pair(rng, n=size)
        pairs.append((assemble_compact(model),
                      [make_cost(cost.q, cost.r, cost.p_terminal, g) for g in gammas]))
    computed, riccati_step = [], fh.riccati_step
    counted = lambda *args: computed.append(args) or riccati_step(*args)  # noqa: E731
    warm, model_store, maps = 0, [], set()  # model_store: (map, steps held), most recent first
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fh, "_stored", ())
        patch.setattr(fh, "riccati_step", counted)
        patch.setattr(infinite_horizon, "riccati_step", counted)
        for pair, at, kind, horizon in order:
            compact, cost = pairs[pair][0], pairs[pair][1][at]
            if kind == "finite":
                calls = [(lambda: backward_riccati(compact, cost, horizon), (pair, None),
                          horizon + 1)]
            elif kind == "sweep":
                calls = [(lambda n=n: discounted_backward_riccati(compact, cost, n), (pair, at),
                          n + 1) for n in range(0, horizon + 1, 10)]
            else:
                stationary = lambda: solve_stationary_riccati(compact, cost)  # noqa: E731
                calls = [(stationary, None, _cold(stationary).iterations + 1)]
            for call, step_map, steps in calls:
                want, before, stored = _cold(call), len(computed), fh._stored
                assert_bit_equal(call(), want)
                if step_map is None:
                    assert len(computed) - before == steps
                    assert fh._stored is stored
                    continue
                warm += len(computed) - before
                held = dict(model_store).get(step_map, 0)
                assert len(computed) - before == max(0, steps - held)
                model_store = [(step_map, max(held, steps)),
                               *((m, s) for m, s in model_store if m != step_map)]
                model_store = model_store[:fh.STORED_RUNS]
                maps.add(step_map)
    if len(maps) <= fh.STORED_RUNS:  # nothing was evicted: each (map, step) once
        assert warm == sum(steps for _, steps in model_store)


def test_two_maps_in_turn_compute_each_step_once(monkeypatch):
    # synth-sweep's order at one gamma, twice: stationary solve, discounted
    # sweep, undiscounted recursion.  The recursions' second round computes
    # nothing; each solve computes its own iterations + 1 steps
    recursion, solve, riccati_step = [], [], fh.riccati_step

    def counted(calls):
        return lambda *args: calls.append(args[-1]) or riccati_step(*args)

    monkeypatch.setattr(fh, "riccati_step", counted(recursion))
    monkeypatch.setattr(infinite_horizon, "riccati_step", counted(solve))
    model, cost = paper_model()
    comp = assemble_compact(model)
    for _ in range(2):
        iterations = solve_stationary_riccati(comp, cost).iterations
        for n in range(0, 201, 10):
            discounted_backward_riccati(comp, cost, n)
        backward_riccati(comp, cost, 200)
    assert len(recursion) == 2 * 201
    assert len(solve) == 2 * (iterations + 1)


def _with_smallest_eigenvalue(rng, d, norm, smallest):
    """A symmetric d x d matrix with eigenvalues spread up to norm, the smallest exactly given."""
    eig = np.sort(rng.uniform(0.01, 1.0, d)) * norm
    eig[0] = smallest
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return fh.symmetrize((q * eig) @ q.T)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 12), log_norm=st.floats(-3.0, 9.0), log_gap=st.floats(-17.0, -8.0),
       side=st.sampled_from([-1.0, 0.0, 1.0]), bound=st.sampled_from([PD_TOL, PSD_TOL, 0.0, 1.0]),
       stack=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_certificate_is_one_sided(d, log_norm, log_gap, side, bound, stack, seed):
    # the smallest eigenvalue sits on the bound or within 1e-17..1e-8 of it,
    # relative to the norm, on either side: a certified stack never reads
    # below the bound under eigvalsh
    rng = np.random.default_rng(seed)
    norm = 10.0 ** log_norm
    smallest = bound + side * 10.0 ** log_gap * norm
    m = np.stack([_with_smallest_eigenvalue(rng, d, norm, smallest) for _ in range(stack)])
    if fh.certified_at_least(m, bound):
        assert (eigmins(m) >= bound).all()


def test_certificate_refuses_a_zero_eigenvalue_at_norm_1e8(monkeypatch):
    # a PSD P with a zero eigenvalue at norm 1e8 is within Cholesky's error
    # of the bound: the certificate refuses it and eigvalsh decides, as before
    eigen, eigmins_ = [], fh.eigmins
    monkeypatch.setattr(fh, "eigmins", lambda m: eigen.append(len(m)) or eigmins_(m))
    psi = np.eye(4)[None]
    rotated = _with_smallest_eigenvalue(np.random.default_rng(5), 4, 1e8, 0.0)
    for p in (np.diag([1e8, 3e7, 1e6, 0.0]), rotated):
        assert not fh.certified_at_least(p[None], PSD_TOL)
        eigen.clear()
        assert fh.check_iterates([0], psi, p[None]) == (eigmins_(p[None]) >= PSD_TOL).all()
        assert eigen == [1]  # Psi certified, P by eigvalsh
    assert fh.check_iterates([0], psi, np.diag([1e8, 3e7, 1e6, 0.0])[None])


def test_solution_stacks_are_read_only():
    model, cost = paper_model()
    sol = backward_riccati(assemble_compact(model), cost, 5)
    for field in ("p_seq", "k_seq", "lambda_seq", "l_seq"):
        with pytest.raises(ValueError):
            getattr(sol, field)[0, 0, 0] = 1.0


def test_run_keeps_p_and_h_and_rebuilds_lambda_and_l_when_read(monkeypatch):
    calls, psi_and_l = [], fh.psi_and_l

    def counted(*args):
        calls.append(args)
        return psi_and_l(*args)

    monkeypatch.setattr(fh, "psi_and_l", counted)
    model, cost = paper_model()
    comp = assemble_compact(model)
    sol = discounted_backward_riccati(comp, cost, 200)
    (dim, m), steps = comp.b.shape, 201
    (_, p, h), = fh._stored
    assert (p.shape, h.shape) == ((steps + 1, dim, dim), (steps, m, dim))
    assert len(calls) == steps  # one per step, from riccati_step
    calls.clear()
    assert len(sol.lambda_seq) == steps and len(calls) == steps
    assert len(sol.l_seq) == steps and len(calls) == steps  # built together, once


def test_identity_reads_the_rebuilt_stacks(monkeypatch):
    # identity(k) and lambda_seq / l_seq share one rebuild: one psi_and_l call per step
    calls, psi_and_l = [], fh.psi_and_l
    monkeypatch.setattr(fh, "psi_and_l", lambda *args: calls.append(args) or psi_and_l(*args))
    model, cost = paper_model()
    comp = assemble_compact(model)
    sol = discounted_backward_riccati(comp, cost, 200)
    calls.clear()
    pairs = [sol.identity(k) for k in range(201)]
    assert len(sol.lambda_seq) == len(sol.l_seq) == 201 and len(calls) == 201
    for (lam, l_mat), want_lam, want_l in zip(pairs, sol.lambda_seq, sol.l_seq):
        assert np.array_equal(lam, want_lam) and np.array_equal(l_mat, cost.gamma * want_l)
    plain = backward_riccati(comp, cost, 30)
    for k in range(31):
        lam, l_mat = plain.identity(k)
        assert np.array_equal(lam, plain.lambda_seq[k]) and np.array_equal(l_mat, plain.l_seq[k])


@pytest.mark.parametrize("solve", [backward_riccati, discounted_backward_riccati])
@pytest.mark.parametrize("horizon", [-1, -5])
def test_negative_horizon_raises_on_a_cold_and_a_warm_store(solve, horizon, monkeypatch):
    # a negative horizon would otherwise read a window of whatever run is stored
    model, cost = paper_model()
    comp = assemble_compact(model)
    monkeypatch.setattr(fh, "_stored", ())
    for warm in (False, True):
        if warm:
            solve(comp, cost, 200)
        stored = fh._stored
        with pytest.raises(ValueError, match=f"^horizon must be >= 0, got {horizon}$"):
            solve(comp, cost, horizon)
        assert fh._stored is stored


@pytest.mark.parametrize("solve", [backward_riccati, discounted_backward_riccati])
def test_rebuilt_stacks_ignore_later_edits_to_the_inputs(solve, monkeypatch):
    # the solution rebuilds Lambda and L from copies of a, b and R taken when
    # it was made, not from the caller's arrays
    model, cost = paper_model()
    comp = assemble_compact(model)
    sol = solve(comp, cost, 30)
    cost.r[:] *= 2.0
    comp.a[0, 0] += 1.0
    comp.b[:] *= 3.0
    monkeypatch.setattr(fh, "_stored", ())
    model, cost = paper_model()
    cold = solve(assemble_compact(model), cost, 30)
    assert np.array_equal(sol.lambda_seq, cold.lambda_seq)
    assert np.array_equal(sol.l_seq, cold.l_seq)
    for k in range(31):
        assert all(np.array_equal(g, w) for g, w in zip(sol.identity(k), cold.identity(k)))


def test_clean_recursion_checks_only_the_terminal_weight_step_by_step(monkeypatch):
    # the stacked test passes every iterate at once, so check_step runs only
    # for P(N+1); a fallback on clean iterates would still give equal results
    steps, check_step = [], fh.check_step

    def counted(k, *args, **kwargs):
        steps.append(k)
        check_step(k, *args, **kwargs)

    monkeypatch.setattr(fh, "check_step", counted)
    model, cost = paper_model()
    comp = assemble_compact(model)
    for solve in (backward_riccati, discounted_backward_riccati):
        steps.clear()
        solve(comp, cost, 200)
        assert steps == [201]


def test_policy_copies_the_solved_gains():
    model, cost = paper_model()
    sol = backward_riccati(assemble_compact(model), cost, 5)
    policy = StructuredPolicy.from_finite_horizon(sol, model)
    assert np.array_equal(policy.gains, sol.k_seq)
    assert not np.shares_memory(policy.gains, sol.k_seq)


@pytest.mark.parametrize("solve, where", [(backward_riccati, "terminal"),
                                          (backward_riccati, "iterate"),
                                          (discounted_backward_riccati, "iterate")])
def test_asymmetry_warning_points_at_the_recursions_caller(solve, where, monkeypatch):
    skewed = np.array([[1.0, 1e-3], [-1e-3, 1.0]])
    q, p_terminal = (np.eye(2), skewed) if where == "terminal" else (skewed, np.eye(2))
    cost = CostSpec(q=q, r=np.eye(2), p_terminal=p_terminal, gamma=0.9)
    steps = [4] if where == "terminal" else [3, 2, 1, 0]
    calls, riccati_step = [], fh.riccati_step
    monkeypatch.setattr(fh, "riccati_step", lambda *args: calls.append(args) or riccati_step(*args))
    for second in (False, True):
        # the run from a skewed terminal weight is clean, so the second call
        # reads it and warns from the key's hit; a run that warned is not
        # stored, so the second call computes and warns again
        calls.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(assemble_compact(decoupled_unit_model()), cost, 3)
        assert [str(w.message) for w in caught] == [
            f"Riccati iterate at step {k} asymmetric beyond tolerance" for k in steps]
        assert all(w.filename == __file__ for w in caught)
        assert (calls == []) == (second and where == "terminal")


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
    trace = simulate(model, policy, cost, 11, seed=2)
    max_hat, _ = stationarity_residuals(sol, policy, trace)
    assert max_hat < 1e-9


def test_stationarity_residual_maxima_keep_nan_and_empty_trace():
    model = coupled_noisy_model()
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    sol = backward_riccati(assemble_compact(model), cost, 10)
    policy = StructuredPolicy.from_finite_horizon(sol, model)
    trace = simulate(model, policy, cost, 11, seed=2)
    x1 = trace.x1.copy()
    x1[3, 0] = np.nan  # after finite norms, where a Python max() would drop it
    max_hat, max_tilde = stationarity_residuals(sol, policy, dataclasses.replace(trace, x1=x1))
    assert max_hat < 1e-9
    assert np.isnan(max_tilde) and not max_tilde < 1e-9
    empty = dataclasses.replace(trace, u0=trace.u0[:0], u1=trace.u1[:0])
    assert stationarity_residuals(sol, policy, empty) == (0.0, 0.0)


def test_stationarity_tilde_residual_vanishes_only_without_coupling():
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2))
    clean = decoupled_unit_model()
    sol = backward_riccati(assemble_compact(clean), cost, 10)
    policy = StructuredPolicy.from_finite_horizon(sol, clean)
    trace = simulate(clean, policy, cost, 11, seed=3)
    assert stationarity_residuals(sol, policy, trace)[1] < 1e-9

    dirty = coupled_noisy_model()
    sol = backward_riccati(assemble_compact(dirty), cost, 10)
    policy = StructuredPolicy.from_finite_horizon(sol, dirty)
    trace = simulate(dirty, policy, cost, 11, seed=3)
    # the residual follower control sees a leader-row penalty the recursion
    # drops, so the identity genuinely fails under coupling plus noise
    assert stationarity_residuals(sol, policy, trace)[1] > 1e-6
