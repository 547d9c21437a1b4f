"""Independent verification machinery.

Everything here evaluates the closed loop by a route different from the
synthesis code: costs by exact moment propagation of the augmented state
(x0, x1, x1hat), optimality by central finite differences, and the
estimator by a general joint conditional-Gaussian filter that observes the
leader state exactly.  The test suite plays these against the analytic
formulas; neither side is derived from the other.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .finite_horizon import DecentralizedGains, FiniteHorizonSolution, split_gain
from .model import CostSpec, LfnsModel, stacked_moments


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class StructuredPolicy:
    """Gain blocks for u0 = -k00 x0 - k01 x1hat and u1 = -k10 x0 - k11 x1.

    Each block is either a single matrix (constant policy) or a list of
    matrices indexed by step.  The information pattern is structural: there
    is no gain from x1 into u0, the leader only ever sees its estimate.
    """

    k00: object
    k01: object
    k10: object
    k11: object

    @property
    def is_constant(self) -> bool:
        return isinstance(self.k00, np.ndarray)

    def at(self, k: int) -> DecentralizedGains:
        if self.is_constant:
            return DecentralizedGains(self.k00, self.k01, self.k10, self.k11)
        return DecentralizedGains(self.k00[k], self.k01[k], self.k10[k], self.k11[k])

    @staticmethod
    def constant(k00, k01, k10, k11) -> "StructuredPolicy":
        return StructuredPolicy(*(np.asarray(b, dtype=float) for b in (k00, k01, k10, k11)))

    @staticmethod
    def from_gain_list(gains: list[DecentralizedGains]) -> "StructuredPolicy":
        return StructuredPolicy(k00=[g.k00 for g in gains], k01=[g.k01 for g in gains],
                                k10=[g.k10 for g in gains], k11=[g.k11 for g in gains])

    @staticmethod
    def from_finite_horizon(solution: FiniteHorizonSolution, model: LfnsModel) -> "StructuredPolicy":
        gains = [split_gain(k, model.n, model.m1) for k in solution.k_seq]
        return StructuredPolicy.from_gain_list(gains)

    @staticmethod
    def from_stationary(solution) -> "StructuredPolicy":
        g = split_gain(solution.h, solution.n, solution.m1)
        return StructuredPolicy.constant(g.k00, g.k01, g.k10, g.k11)


@dataclass(frozen=True, eq=False)
class AugmentedMoments:
    """Mean and covariance of the stacked analysis state (x0, x1, x1hat)."""

    mean: np.ndarray
    cov: np.ndarray


def initial_moments(model: LfnsModel) -> AugmentedMoments:
    # x1hat(0) = xbar1 exactly, so its block of the covariance is zero
    xbar, sigma_x, _ = stacked_moments(model)
    return AugmentedMoments(mean=np.concatenate([xbar, model.xbar1]),
                            cov=np.pad(sigma_x, (0, model.n)))


def closed_loop_matrices(model: LfnsModel, gains: DecentralizedGains) -> np.ndarray:
    """Affine map of (x0, x1, x1hat) one step forward under the structured policy
    with the leader-side estimator in the loop."""
    n = model.n
    f = np.zeros((3 * n, 3 * n))
    lead = model.a00 - model.b00 @ gains.k00
    f[:n, :n] = lead
    f[:n, 2 * n:] = -model.b00 @ gains.k01
    f[n:2 * n, :n] = model.a10 - model.b10 @ gains.k00 - model.b11 @ gains.k10
    f[n:2 * n, n:2 * n] = model.a11 - model.b11 @ gains.k11
    f[n:2 * n, 2 * n:] = -model.b10 @ gains.k01
    f[2 * n:, :n] = model.a10 - model.b10 @ gains.k00 - model.b11 @ gains.k10
    f[2 * n:, 2 * n:] = model.a11 - model.b11 @ gains.k11 - model.b10 @ gains.k01
    return f


def _stage_matrix(model: LfnsModel, gains: DecentralizedGains, cost: CostSpec) -> np.ndarray:
    n, m1, m2 = model.n, model.m1, model.m2
    cx = np.eye(2 * n, 3 * n)  # picks (x0, x1) out of (x0, x1, x1hat)
    cu = np.zeros((m1 + m2, 3 * n))
    cu[:m1, :n] = -gains.k00
    cu[:m1, 2 * n:] = -gains.k01
    cu[m1:, :n] = -gains.k10
    cu[m1:, n:2 * n] = -gains.k11
    return cx.T @ cost.q @ cx + cu.T @ cost.r @ cu


def _noise_cov(model: LfnsModel) -> np.ndarray:
    # the estimator is driven by leader data only, so x1hat gets no noise
    return np.pad(stacked_moments(model)[2], (0, model.n))


def _per_step(policy: StructuredPolicy, horizon: int, build):
    """build(gains) for each step 0..horizon-1.

    A constant policy is built once and the result repeated at every step;
    a per-step policy is built as each step is reached.
    """
    if policy.is_constant:
        return itertools.repeat(build(policy.at(0)), horizon)
    return (build(policy.at(k)) for k in range(horizon))


def exact_cost(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
               horizon: int, discounted: bool = False) -> float:
    """Exact expected closed-loop cost, no sampling.

    Sums stage costs for controls k = 0..horizon-1.  In the undiscounted
    case the terminal weight (if any) is applied to the state at step
    `horizon`, so comparing against a solved control window 0..N means
    calling with horizon = N + 1.  In the discounted case there is no
    terminal term; the caller picks the truncation horizon.
    """
    n = model.n
    gamma = cost.gamma if discounted else None
    moments = initial_moments(model)
    mu, sigma = moments.mean, moments.cov
    gw = _noise_cov(model)
    total = 0.0
    weight = 1.0

    def stage_and_map(gains):
        return _stage_matrix(model, gains, cost), closed_loop_matrices(model, gains)

    for k, (m, f) in enumerate(_per_step(policy, horizon, stage_and_map)):
        stage = float(np.trace(m @ sigma) + mu @ m @ mu)
        total += weight * stage
        mu = f @ mu
        sigma = f @ sigma @ f.T + gw
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise OracleError(f"closed-loop moments non-finite at step {k + 1}")
        if discounted:
            weight *= gamma
    if not discounted and cost.p_terminal is not None:
        cx = np.eye(2 * n, 3 * n)
        m_t = cx.T @ cost.p_terminal @ cx
        total += float(np.trace(m_t @ sigma) + mu @ m_t @ mu)
    return total


def mean_trajectory(model: LfnsModel, policy: StructuredPolicy, horizon: int) -> np.ndarray:
    """Deterministic mean recursion of the augmented state, steps 0..horizon."""
    moments = initial_moments(model)
    mu = moments.mean
    out = np.zeros((horizon + 1, mu.size))
    out[0] = mu
    loop = _per_step(policy, horizon, lambda gains: closed_loop_matrices(model, gains))
    for k, f in enumerate(loop):
        mu = f @ mu
        out[k + 1] = mu
    return out


_BLOCKS = ("k00", "k01", "k10", "k11")


def _policy_to_lists(policy: StructuredPolicy, steps: int) -> dict[str, list[np.ndarray]]:
    table: dict[str, list[np.ndarray]] = {b: [] for b in _BLOCKS}
    for k in range(steps):
        g = policy.at(k)
        for b in _BLOCKS:
            table[b].append(np.array(getattr(g, b), dtype=float))
    return table


def _policy_from_lists(table: dict[str, list[np.ndarray]], constant: bool) -> StructuredPolicy:
    if constant:
        return StructuredPolicy.constant(*(table[b][0] for b in _BLOCKS))
    return StructuredPolicy(**{b: table[b] for b in _BLOCKS})


@dataclass(frozen=True, eq=False)
class GradientReport:
    """Central-difference gradient of exact_cost in every gain entry."""

    j_value: float
    blocks: list[dict[str, np.ndarray]]
    max_relative: float
    argmax: tuple[int, str, int, int]
    argmax_value: float


def gain_gradient(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
                  horizon: int, discounted: bool = False) -> GradientReport:
    """Finite-difference gradient, step 1e-5 scaled by (1 + |entry|).

    For a constant policy the single entry of `blocks` is the gradient with
    the shared gain perturbed at every step simultaneously; for a per-step
    policy each step's blocks are perturbed independently.  The relative
    magnitude of an entry g at parameter value t is |g| (1 + |t|) / (1 + |J|).
    """
    j0 = exact_cost(model, policy, cost, horizon, discounted)
    constant = policy.is_constant
    steps = 1 if constant else horizon
    table = _policy_to_lists(policy, steps)

    blocks_grad: list[dict[str, np.ndarray]] = [
        {b: np.zeros_like(table[b][s]) for b in _BLOCKS} for s in range(steps)]
    max_rel = 0.0
    argmax = (0, "k00", 0, 0)
    argmax_val = 0.0
    for s in range(steps):
        for b in _BLOCKS:
            base = table[b][s]
            for i in range(base.shape[0]):
                for j in range(base.shape[1]):
                    theta = base[i, j]
                    h = 1e-5 * (1.0 + abs(theta))
                    base[i, j] = theta + h
                    j_plus = exact_cost(model, _policy_from_lists(table, constant), cost,
                                        horizon, discounted)
                    base[i, j] = theta - h
                    j_minus = exact_cost(model, _policy_from_lists(table, constant), cost,
                                         horizon, discounted)
                    base[i, j] = theta
                    g = (j_plus - j_minus) / (2.0 * h)
                    blocks_grad[s][b][i, j] = g
                    rel = abs(g) * (1.0 + abs(theta)) / (1.0 + abs(j0))
                    if rel > max_rel:
                        max_rel = rel
                        argmax = (s, b, i, j)
                        argmax_val = g
    return GradientReport(j_value=j0, blocks=blocks_grad, max_relative=max_rel,
                          argmax=argmax, argmax_value=argmax_val)


def perturbation_sweep(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
                       horizon: int, discounted: bool, n_directions: int,
                       scale: float, seed: int) -> tuple[int, float]:
    """Evaluate exact_cost at randomly perturbed structured policies.

    Every gain entry receives an independent Gaussian perturbation of the
    given scale (per-step policies perturb every step).  Returns the number
    of perturbed policies achieving a cost strictly below the base policy
    and the most negative cost difference found (0 when none are lower).
    """
    j0 = exact_cost(model, policy, cost, horizon, discounted)
    constant = policy.is_constant
    steps = 1 if constant else horizon
    rng = np.random.default_rng(seed)
    n_lower = 0
    worst = 0.0
    for _ in range(n_directions):
        table = _policy_to_lists(policy, steps)
        for s in range(steps):
            for b in _BLOCKS:
                table[b][s] = table[b][s] + scale * rng.standard_normal(table[b][s].shape)
        pert = _policy_from_lists(table, constant)
        delta = exact_cost(model, pert, cost, horizon, discounted) - j0
        if delta < 0.0:
            n_lower += 1
            worst = min(worst, delta)
    return n_lower, worst


def kalman_oracle(model: LfnsModel, x0_seq, u0_seq, follower_gains=None) -> np.ndarray:
    """Conditional-mean estimate of x1 from exact observations of x0.

    Runs a general joint Gaussian filter on the stacked state: predict the
    joint mean/covariance of (x0, x1), then condition on the observed x0
    by the Gaussian conditioning formula (pseudo-inverse handles the
    degenerate exact measurement).  The cross-covariance between the two
    blocks is computed and used, not assumed zero, which is what makes this
    an independent check of the closed-form recursion.

    The realized follower control is not leader information, so it cannot
    be an input here; instead the follower's policy form enters the
    prediction.  follower_gains is (k10, k11), an object with those
    attributes, or None for an uncontrolled follower (u1 = 0).
    """
    x0_seq = np.asarray(x0_seq, dtype=float)
    u0_seq = np.asarray(u0_seq, dtype=float)
    n = model.n
    if follower_gains is None:
        k10 = np.zeros((model.m2, model.n))
        k11 = np.zeros((model.m2, model.n))
    elif hasattr(follower_gains, "k10"):
        k10, k11 = follower_gains.k10, follower_gains.k11
    else:
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
