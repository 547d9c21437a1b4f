"""Independent verification machinery.

Everything here evaluates the closed loop by a route different from the
synthesis code: costs by exact moment propagation of the augmented state
(x0, x1, x1hat), optimality by the adjoint gradient of that cost and by its
central finite differences, and the estimator by a general joint
conditional-Gaussian filter that observes the leader state exactly.  The
test suite plays these against the analytic formulas; neither side is
derived from the other.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .finite_horizon import (GAIN_BLOCKS, READS, StructuredPolicy, block_slices, closed_loop,
                             split_gain)
from .model import CostSpec, LfnsModel, assemble_compact, require_gamma, stacked_moments


class OracleError(RuntimeError):
    pass


def _forward(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec, horizon: int,
             discounted: bool):
    """The moment recursion of the augmented state under the policy.

    Yields (weight, cu, M, F, mu, Sigma) for each step k = 0..horizon-1: the
    step's weight, control map, stage matrix and closed-loop map, and the
    mean and covariance of the state entering it.  The last item is
    (1.0, None, M_T, None, mu, Sigma) at step horizon, with M_T the terminal
    stage matrix, or None when no terminal term applies.  A negative horizon,
    and then a discounted recursion without cost.gamma, raise ValueError
    before the model is read.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    require_gamma(cost, discounted)
    xbar, sigma_x, sigma_w = stacked_moments(model)
    # x1hat(0) = xbar1 exactly, so its block of the covariance is zero
    mu, sigma = np.concatenate([xbar, model.xbar1]), np.pad(sigma_x, (0, model.n))
    compact = assemble_compact(model)
    cx = np.eye(2 * model.n, 3 * model.n)  # picks (x0, x1) out of (x0, x1, x1hat)
    # the estimator is driven by leader data only, so x1hat gets no noise
    gw = np.pad(sigma_w, (0, model.n))
    weight = 1.0

    def build(gains):
        cu, f = closed_loop(compact, gains)
        return cu, cx.T @ cost.q @ cx + cu.T @ cost.r @ cu, f

    # a constant policy is built once, a per-step one as each step is reached
    if policy.is_constant:
        built = itertools.repeat(build(policy.at(0)), horizon)
    else:
        built = (build(policy.at(k)) for k in range(horizon))
    for k, (cu, m, f) in enumerate(built):
        yield weight, cu, m, f, mu, sigma
        with np.errstate(over="ignore", invalid="ignore"):
            mu = f @ mu
            sigma = f @ sigma @ f.T + gw
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise OracleError(f"closed-loop moments non-finite at step {k + 1}")
        if discounted:
            weight *= cost.gamma
    m_t = None
    if not discounted and cost.p_terminal is not None:
        m_t = cx.T @ cost.p_terminal @ cx
    yield 1.0, None, m_t, None, mu, sigma


def _total(steps) -> float:
    """Sum of weight * E[z' M z] = weight * (tr(M Sigma) + mu' M mu) over the steps."""
    total = 0.0
    for weight, _, m, _, mu, sigma in steps:
        if m is not None:
            total += weight * float(np.trace(m @ sigma) + mu @ m @ mu)
    return total


def exact_cost(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
               horizon: int, discounted: bool = False) -> float:
    """Exact expected closed-loop cost, no sampling.

    Sums stage costs for controls k = 0..horizon-1.  In the undiscounted
    case the terminal weight (if any) is applied to the state at step
    `horizon`, so comparing against a solved control window 0..N means
    calling with horizon = N + 1.  In the discounted case there is no
    terminal term; the caller picks the truncation horizon.
    """
    return _total(_forward(model, policy, cost, horizon, discounted))


def _perturbable(policy: StructuredPolicy, horizon: int) -> StructuredPolicy:
    """A policy over a copy of the gains the probes perturb: the shared gain
    of a constant policy, or the first horizon steps of a per-step one."""
    gains = policy.gains if policy.is_constant else policy.gains[:horizon]
    return StructuredPolicy(np.array(gains, dtype=float), policy.n, policy.m1)


def _steps(gains: np.ndarray) -> np.ndarray:
    """A (steps, m1+m2, 2n) view of contiguous gains; a constant gain is one step."""
    return gains.reshape(-1, *gains.shape[-2:])


@dataclass(frozen=True, eq=False)
class GradientReport:
    """Gradient of exact_cost in every gain entry, with its largest relative entry."""

    j_value: float
    gradient: np.ndarray
    max_relative: float
    argmax: tuple[int, str, int, int]
    argmax_value: float


def _gradient_report(j0: float, gains: np.ndarray, gradient: np.ndarray, n: int,
                     m1: int) -> GradientReport:
    """Report gradient at gains, with the entry of largest relative magnitude
    |g| (1 + |t|) / (1 + |J|) for an entry g at parameter value t.  Entries are
    scanned step by step, then k00..k11, each row-major; the first of equal
    entries wins."""
    max_rel = 0.0
    argmax = (0, "k00", 0, 0)
    argmax_val = 0.0
    for s, (step, grad_step) in enumerate(zip(_steps(gains), _steps(gradient))):
        for name, base, g in zip(GAIN_BLOCKS, split_gain(step, n, m1),
                                 split_gain(grad_step, n, m1)):
            for i, j in np.ndindex(base.shape):
                rel = abs(g[i, j]) * (1.0 + abs(base[i, j])) / (1.0 + abs(j0))
                if rel > max_rel:
                    max_rel = rel
                    argmax = (s, name, i, j)
                    argmax_val = g[i, j]
    return GradientReport(j_value=j0, gradient=gradient, max_relative=max_rel,
                          argmax=argmax, argmax_value=argmax_val)


def gain_gradient(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
                  horizon: int, discounted: bool = False) -> GradientReport:
    """Finite-difference gradient, step 1e-5 scaled by (1 + |entry|).

    gradient has the shape of the perturbed gains: for a constant policy it
    is the gradient with the shared gain perturbed at every step
    simultaneously; for a per-step policy each of the first horizon steps is
    perturbed independently.  This is the independent check of
    policy_gradient: it only ever calls exact_cost.
    """
    j0 = exact_cost(model, policy, cost, horizon, discounted)
    probe = _perturbable(policy, horizon)
    n, m1 = probe.n, probe.m1
    grad = np.zeros_like(probe.gains)
    for step, grad_step in zip(_steps(probe.gains), _steps(grad)):
        for base, out in zip(split_gain(step, n, m1), split_gain(grad_step, n, m1)):
            for i, j in np.ndindex(base.shape):
                theta = base[i, j]
                h = 1e-5 * (1.0 + abs(theta))
                base[i, j] = theta + h
                j_plus = exact_cost(model, probe, cost, horizon, discounted)
                base[i, j] = theta - h
                j_minus = exact_cost(model, probe, cost, horizon, discounted)
                base[i, j] = theta
                out[i, j] = (j_plus - j_minus) / (2.0 * h)
    return _gradient_report(j0, probe.gains, grad, n, m1)


def policy_gradient(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
                    horizon: int, discounted: bool = False) -> GradientReport:
    """Exact gradient of exact_cost in every gain entry, by one adjoint sweep.

    The forward pass is exact_cost's moment recursion; it keeps the second
    moments S_k = Sigma_k + mu_k mu_k' (S_{k+1} = F_k S_k F_k' + W).  The
    backward pass builds the cost-to-go matrices V_h = M_T (zero without a
    terminal term) and V_k = w_k M_k + F_k' V_{k+1} F_k, so that the part of
    the cost that depends on step k's gain is w_k tr(M_k S_k) +
    tr(V_{k+1} F_k S_k F_k').  Its derivative in a gain block goes through
    the columns of z that READS says the block reads: in the applied controls
    of the plant rows of F and of M, and in the conditional-mean controls of
    the estimator row.  This is the policy gradient of Fazel, Ge, Kakade &
    Mesbahi (ICML 2018) on the augmented loop.

    gradient, max_relative and argmax mean what they mean in gain_gradient: a
    constant policy's gradient is summed over the steps, a per-step policy's
    is given for each of the first horizon steps.  j_value is exact_cost's
    value bit for bit.
    """
    steps = list(_forward(model, policy, cost, horizon, discounted))
    j0 = _total(steps)
    n, m1 = model.n, model.m1
    m = m1 + model.m2
    b = assemble_compact(model).b  # (x0, x1) rows; b[n:] also drives x1hat

    # per_step[k] is half the derivative of the cost in step k's control map
    # cu (rows :m) and in the estimator's conditional-mean control map (rows
    # m:); each gain block enters both with a minus sign, at its READS columns
    m_t = steps[-1][2]
    v = np.zeros((3 * n, 3 * n)) if m_t is None else m_t
    per_step = np.zeros((horizon, 2 * m, 3 * n))
    for k in range(horizon - 1, -1, -1):
        weight, cu, m_k, f, mu, sigma = steps[k]
        vf = v @ f
        lhs = np.vstack([weight * (cost.r @ cu) + b.T @ vf[:2 * n], b[n:].T @ vf[2 * n:]])
        per_step[k] = lhs @ (sigma + np.outer(mu, mu))
        v = weight * m_k + f.T @ vf
    y = per_step.sum(axis=0) if policy.is_constant else per_step
    plant, estimator = y[..., :m, :], y[..., m:, :]
    gains = policy.gains if policy.is_constant else policy.gains[:horizon]
    grad = np.empty_like(gains)
    at = block_slices(n, m1)
    for name, out in zip(GAIN_BLOCKS, split_gain(grad, n, m1)):
        control, applied, mean = READS[name]
        out[...] = -2.0 * (plant[..., at[control], at[applied]]
                           + estimator[..., at[control], at[mean]])
    return _gradient_report(j0, gains, grad, n, m1)


def perturbation_sweep(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
                       horizon: int, discounted: bool, n_directions: int,
                       scale: float, seed: int) -> tuple[int, float]:
    """Evaluate exact_cost at randomly perturbed structured policies.

    Every gain entry receives an independent Gaussian perturbation of the
    given scale (per-step policies perturb every step), drawn one block at a
    time in step, then k00/k01/k10/k11 order.  Returns the number of
    perturbed policies achieving a cost strictly below the base policy and
    the most negative cost difference found (0 when none are lower).
    """
    j0 = exact_cost(model, policy, cost, horizon, discounted)
    rng = np.random.default_rng(seed)
    n_lower = 0
    worst = 0.0
    for _ in range(n_directions):
        pert = _perturbable(policy, horizon)
        for step in _steps(pert.gains):
            for block in split_gain(step, pert.n, pert.m1):
                block += scale * rng.standard_normal(block.shape)
        delta = exact_cost(model, pert, cost, horizon, discounted) - j0
        if delta < 0.0:
            n_lower += 1
            worst = min(worst, delta)
    return n_lower, worst


def kalman_oracle(model: LfnsModel, x0_seq, u0_seq, follower_gains) -> np.ndarray:
    """Conditional-mean estimate of x1 from exact observations of x0.

    Runs a general joint Gaussian filter on the stacked state: predict the
    joint mean/covariance of (x0, x1), then condition on the observed x0
    by the Gaussian conditioning formula (pseudo-inverse handles the
    degenerate exact measurement).  The cross-covariance between the two
    blocks is computed and used, not assumed zero, which is what makes this
    an independent check of the closed-form recursion.

    The realized follower control is not leader information, so it cannot
    be an input here; instead the follower's policy form enters the
    prediction.  follower_gains is (k10, k11).
    """
    x0_seq = np.asarray(x0_seq, dtype=float)
    u0_seq = np.asarray(u0_seq, dtype=float)
    n = model.n
    k10, k11 = (np.asarray(g, dtype=float) for g in follower_gains)

    def condition(mean, cov, observed):
        # condition the joint (x0, x1) Gaussian on the x0 block exactly
        s00 = cov[:n, :n]
        s10 = cov[n:, :n]
        gain = s10 @ np.linalg.pinv(s00, rcond=1e-12)
        new_mean1 = mean[n:] + gain @ (observed - mean[:n])
        new_cov11 = cov[n:, n:] - gain @ s10.T
        mean_c = np.concatenate([observed, new_mean1])
        cov_c = np.zeros_like(cov)
        cov_c[n:, n:] = 0.5 * (new_cov11 + new_cov11.T)
        return mean_c, cov_c

    mean, cov, noise = stacked_moments(model)
    mean, cov = condition(mean, cov, x0_seq[0])
    estimates = [mean[n:].copy()]
    joint = np.zeros((2 * n, 2 * n))
    joint[:n, :n] = model.a00
    joint[n:, :n] = model.a10 - model.b11 @ k10
    joint[n:, n:] = model.a11 - model.b11 @ k11
    b_u0 = np.vstack([model.b00, model.b10])
    for k in range(len(x0_seq) - 1):
        mean = joint @ mean + b_u0 @ u0_seq[k]
        cov = joint @ cov @ joint.T + noise
        mean, cov = condition(mean, cov, x0_seq[k + 1])
        estimates.append(mean[n:].copy())
    return np.array(estimates)
