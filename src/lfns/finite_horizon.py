"""Finite-horizon decentralized LQ synthesis.

The gamma-discounted Riccati step for the aggregated system and the backward
recursion built on it, the decentralized policy (one stacked gain array, read
in blocks by split_gain) and its closed loop with the leader's estimator, the
analytic optimal cost, and the per-step stationarity identities used as
verification checks.  The undiscounted recursion starts from the terminal
weight with gamma = 1; the discounted one starts from zero, and its iterates
are the value-iteration sequence of the stationary problem, which iterates
the same step.

The recursion runs the bare step for k = N..0; one stacked test then decides
whether every step passes check_step (Psi(k) positive definite, P(k) finite,
symmetric and positive semidefinite).  If one fails, check_step runs step by
step in recursion order, as if each step had been checked as it was computed.
"""
from __future__ import annotations

import dataclasses
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (PD_TOL, PSD_TOL, CompactModel, CostSpec, LfnsModel, eigmin, eigmins,
                    stacked_moments, symmetrize)

ASYMMETRY_TOL = 1e-8


class RiccatiError(RuntimeError):
    """Recursion broke an assumption (indefinite Lambda, non-finite entries)."""


@dataclass(frozen=True, eq=False)
class FiniteHorizonSolution:
    """Backward-recursion output over the control window k = 0..N.

    Stacks indexed by step: p_seq is (N+2, 2n, 2n), the last the terminal
    weight (zero in the discounted variant); k_seq and l_seq are
    (N+1, m1+m2, 2n), lambda_seq (N+1, m1+m2, m1+m2).
    """

    p_seq: np.ndarray
    k_seq: np.ndarray
    lambda_seq: np.ndarray
    l_seq: np.ndarray
    discounted: bool
    gamma: float | None

    @property
    def horizon(self) -> int:
        return len(self.k_seq) - 1

    def tail(self, n: int) -> "FiniteHorizonSolution":
        """The last n + 1 steps of the window: the same recursion solved over a
        horizon of n, since the step map does not depend on k and the
        recursion starts from the same terminal weight."""
        cut = self.horizon - n
        return dataclasses.replace(self, p_seq=self.p_seq[cut:], k_seq=self.k_seq[cut:],
                                   lambda_seq=self.lambda_seq[cut:], l_seq=self.l_seq[cut:])

    def identity(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(Lambda or Psi, L or gamma L) of the stationarity identity at step k."""
        l_mat = self.l_seq[k] if self.gamma is None else self.gamma * self.l_seq[k]
        return self.lambda_seq[k], l_mat


GAIN_BLOCKS = ("k00", "k01", "k10", "k11")

# The structured policy's information pattern that closed_loop reads: for each
# gain block, its control and the block of z = (x0, x1, x1hat) it reads in
# the applied controls and in the conditional-mean controls (u0, u1hat) that
# advance the leader's estimator.  Listed by the block read, the order in
# which closed_loop subtracts their terms.
READS = {"k00": ("u0", "x0", "x0"), "k10": ("u1", "x0", "x0"),
         "k11": ("u1", "x1", "x1hat"), "k01": ("u0", "x1hat", "x1hat")}


def controls(gains, x0, x1, x1hat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u0, u1, u1hat) under gains (k00, k01, k10, k11), the values READS maps, where
    u1hat = -(k10 x0 + k11 x1hat) is u1's conditional mean; of vectors or column-stacked trials."""
    k00, k01, k10, k11 = gains
    lead = k10 @ x0
    return -(k00 @ x0 + k01 @ x1hat), -(lead + k11 @ x1), -(lead + k11 @ x1hat)


def split_gain(k: np.ndarray, n: int, m1: int) -> tuple[np.ndarray, ...]:
    """Views (k00, k01, k10, k11) of the four blocks of a stacked (m1+m2) x 2n
    gain, or of each gain in a stack of them: u0 = -k00 x0 - k01 x1hat and
    u1 = -k10 x0 - k11 x1."""
    return k[..., :m1, :n], k[..., :m1, n:], k[..., m1:, :n], k[..., m1:, n:]


def block_slices(n: int, m1: int) -> dict[str, slice]:
    """Where the blocks x0, x1, x1hat sit in z and u0, u1 sit in u."""
    return {"x0": slice(0, n), "x1": slice(n, 2 * n), "x1hat": slice(2 * n, 3 * n),
            "u0": slice(0, m1), "u1": slice(m1, None)}


def closed_loop(compact: CompactModel, gains) -> tuple[np.ndarray, np.ndarray]:
    """(cu, F) of the loop on z = (x0, x1, x1hat) under gains (k00, k01, k10, k11):
    u = cu z, and z moves to F z plus the plant noise.  Rows x0 and x1 of F
    are the plant under the applied controls; the estimator's row x1hat moves
    by the follower's rows of (a, b) under the conditional-mean controls, with
    x1hat in place of x1.  A block of F is its block of a less its b k terms.
    """
    n = compact.n
    at = block_slices(n, compact.m1)
    a, b = compact.a, compact.b
    x0, x1 = at["x0"], at["x1"]
    moved_by = {"x0": x0, "x1": x1, "x1hat": x1}
    f = {("x0", "x0"): a[x0, x0], ("x1", "x0"): a[x1, x0], ("x1", "x1"): a[x1, x1],
         ("x1hat", "x0"): a[x1, x0], ("x1hat", "x1hat"): a[x1, x1]}
    gain = dict(zip(GAIN_BLOCKS, gains))
    cu = np.zeros((b.shape[1], 3 * n))
    for name, (control, applied, mean) in READS.items():
        k = gain[name]
        cu[at[control], at[applied]] = -k
        for row, col in (("x0", applied), ("x1", applied), ("x1hat", mean)):
            if row == "x0" and control == "u1":
                continue  # u1 never drives the leader: a structural zero of b
            term = b[moved_by[row], at[control]]
            f[row, col] = f[row, col] - term @ k if (row, col) in f else -term @ k
    out = np.zeros((3 * n, 3 * n))
    for (row, col), block in f.items():
        out[at[row], at[col]] = block
    return cu, out


@dataclass(frozen=True, eq=False)
class StructuredPolicy:
    """The decentralized feedback as one stacked gain array.

    gains is (m1+m2, 2n) for a constant policy or (steps, m1+m2, 2n) for a
    per-step one; split_gain reads its blocks.  The information pattern is
    structural: there is no gain from x1 into u0, the leader only ever sees
    its estimate.
    """

    gains: np.ndarray
    n: int
    m1: int

    @property
    def is_constant(self) -> bool:
        return self.gains.ndim == 2

    def at(self, k: int) -> tuple[np.ndarray, ...]:
        """The blocks (k00, k01, k10, k11) applied at step k."""
        return split_gain(self.gains if self.is_constant else self.gains[k], self.n, self.m1)

    @staticmethod
    def constant(k00, k01, k10, k11) -> "StructuredPolicy":
        k00, k01, k10, k11 = (np.asarray(b, dtype=float) for b in (k00, k01, k10, k11))
        m1, n = k00.shape
        return StructuredPolicy(np.block([[k00, k01], [k10, k11]]), n, m1)

    @staticmethod
    def from_finite_horizon(solution: FiniteHorizonSolution, model: LfnsModel) -> "StructuredPolicy":
        return StructuredPolicy(np.array(solution.k_seq), model.n, model.m1)

    @staticmethod
    def from_stationary(solution) -> "StructuredPolicy":
        return StructuredPolicy(np.array(solution.h, dtype=float), solution.n, solution.m1)


def check_step(k: int, psi: np.ndarray | None = None, p: np.ndarray | None = None) -> None:
    """The checks of step k in order, each optional argument if given: Psi(k)
    positive definite; P(k), before symmetrization, finite, a warning if it
    is asymmetric beyond ASYMMETRY_TOL, symmetrized P(k) positive
    semidefinite.  A failure raises RiccatiError."""
    if psi is not None and eigmin(psi) < PD_TOL:
        raise RiccatiError(f"Psi({k}) not positive definite")
    if p is None:
        return
    if not np.all(np.isfinite(p)):
        raise RiccatiError(f"non-finite Riccati iterate at step {k}")
    sym = symmetrize(p)
    if np.linalg.norm(p - sym) / max(1.0, float(np.linalg.norm(sym))) > ASYMMETRY_TOL:
        frame, level = sys._getframe(), 1
        while frame.f_code.co_filename == __file__:  # warn at the recursion's caller
            frame, level = frame.f_back, level + 1
        warnings.warn(f"Riccati iterate at step {k} asymmetric beyond tolerance",
                      RuntimeWarning, stacklevel=level)
    if eigmin(sym) < PSD_TOL:
        raise RiccatiError(f"Riccati iterate at step {k} lost positive semidefiniteness")


def check_iterates(steps, psi: np.ndarray, p: np.ndarray) -> None:
    """check_step(steps[i], psi[i], p[i]) for each i in order, if one stacked
    test fails: every Psi and symmetrized P (hence P) finite before eigvalsh
    sees them, skew at most half of ASYMMETRY_TOL (stacked norms round
    differently), every smallest eigenvalue clear of PD_TOL or PSD_TOL."""
    sym = symmetrize(p)
    skew = np.linalg.norm(p - sym, axis=(1, 2)) / np.maximum(1.0, np.linalg.norm(sym, axis=(1, 2)))
    if not (np.isfinite(psi).all() and np.isfinite(sym).all() and (skew <= 0.5 * ASYMMETRY_TOL).all()
            and (eigmins(psi) >= PD_TOL).all() and (eigmins(sym) >= PSD_TOL).all()):
        for k, psi_k, p_k in zip(steps, psi, p):
            check_step(k, psi_k, p_k)


def riccati_step(compact: CompactModel, cost: CostSpec, p_next: np.ndarray, gamma: float,
                 k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One step of the gamma-discounted Riccati map from P(k+1).

        Psi(k) = R + gamma B' P(k+1) B
        L(k)   = B' P(k+1) A
        H(k)   = gamma Psi(k)^{-1} L(k)
        P(k)   = Q + gamma A' P(k+1) A - gamma^2 L(k)' Psi(k)^{-1} L(k)

    Returns (P(k), Psi(k), L(k), H(k)) with P(k) not yet symmetrized.  With
    gamma = 1.0 this is the undiscounted step (Psi is then Lambda and H is K):
    multiplying by 1.0 is exact, so the bits are those of the plain formula.
    Psi is factorized, never inverted.  The caller checks Psi positive
    definite: the backward recursion after its loop, value iteration at every
    iteration.  Only a Psi that the solve finds singular is checked here, so
    that a singular Psi that is not positive definite still raises
    RiccatiError at step k; k only labels it.
    """
    a, b = compact.a, compact.b
    bp = b.T @ p_next
    psi = symmetrize(cost.r + gamma * (bp @ b))
    l_mat = bp @ a
    try:
        x = np.linalg.solve(psi, l_mat)
    except np.linalg.LinAlgError:
        check_step(k, psi=psi)
        raise
    p = cost.q + gamma * (a.T @ p_next @ a) - gamma**2 * (l_mat.T @ x)
    return p, psi, l_mat, gamma * x


def _recursion(compact: CompactModel, cost: CostSpec, n_horizon: int,
               p_terminal: np.ndarray, gamma: float | None) -> FiniteHorizonSolution:
    dim, m = cost.q.shape[0], cost.r.shape[0]
    p_seq = np.empty((n_horizon + 2, dim, dim))
    raw = np.empty((n_horizon + 1, dim, dim))
    k_seq = np.empty((n_horizon + 1, m, dim))
    psi_seq = np.empty((n_horizon + 1, m, m))
    l_seq = np.empty((n_horizon + 1, m, dim))
    step_gamma = 1.0 if gamma is None else gamma
    lo, error = 0, None
    # the loop runs on past a non-finite iterate, which check_iterates reports;
    # numpy's warnings about it are redundant
    with np.errstate(over="ignore", invalid="ignore"):
        check_step(n_horizon + 1, p=p_terminal)
        p_seq[n_horizon + 1] = symmetrize(p_terminal)
        for k in range(n_horizon, -1, -1):
            try:
                raw[k], psi_seq[k], l_seq[k], k_seq[k] = riccati_step(
                    compact, cost, p_seq[k + 1], step_gamma, k)
            except (RiccatiError, np.linalg.LinAlgError) as exc:
                lo, error = k + 1, exc  # a failure at an earlier step comes first
                break
            p_seq[k] = symmetrize(raw[k])
        check_iterates(range(n_horizon, lo - 1, -1), psi_seq[lo:][::-1], raw[lo:][::-1])
    if error is not None:
        raise error
    return FiniteHorizonSolution(p_seq=p_seq, k_seq=k_seq, lambda_seq=psi_seq,
                                 l_seq=l_seq, discounted=gamma is not None, gamma=gamma)


def backward_riccati(compact: CompactModel, cost: CostSpec, n_horizon: int) -> FiniteHorizonSolution:
    """Undiscounted backward recursion from the terminal weight: riccati_step
    with gamma = 1 for k = N..0, so Lambda(k) = R + B' P(k+1) B takes Psi's
    place and K(k) = Lambda(k)^{-1} L(k) takes H's."""
    p_t = cost.p_terminal if cost.p_terminal is not None else np.zeros_like(cost.q)
    return _recursion(compact, cost, n_horizon, p_t, None)


def discounted_backward_riccati(compact: CompactModel, cost: CostSpec,
                                n_horizon: int) -> FiniteHorizonSolution:
    """Discounted recursion with terminal weight forced to zero: the Riccati
    step with the cost's gamma for k = N..0 (see riccati_step)."""
    if cost.gamma is None or not (0.0 < cost.gamma < 1.0):
        raise RiccatiError(f"discounted recursion requires gamma in (0, 1), got {cost.gamma}")
    return _recursion(compact, cost, n_horizon, np.zeros_like(cost.q), cost.gamma)


def optimal_cost(solution: FiniteHorizonSolution, model: LfnsModel) -> float:
    """Analytic optimal cost of the solved horizon.

    Undiscounted:  J = E[X(0)' P(0) X(0)] + sum_{k=0}^{N} tr(Sigma_W P(k+1))
    Discounted:    J = E[X(0)' P(0) X(0)] + sum_{k=0}^{N} gamma^{k+1} tr(Sigma_W P(k+1))

    with E[X(0)' P(0) X(0)] = xbar' P(0) xbar + tr(blockdiag(Sigma_x0,
    Sigma_x1) P(0)), the Gaussian second-moment expansion.  The N + 1 noise
    traces come from one product with the stacked P(1..N+1); the sum adds
    them in k order, each times gamma^{k+1} when discounted.
    """
    xbar, sigma_x, sigma_w = stacked_moments(model)
    p0 = solution.p_seq[0]
    total = float(xbar @ p0 @ xbar + np.trace(sigma_x @ p0))
    traces = np.trace(sigma_w @ solution.p_seq[1:], axis1=1, axis2=2)
    for k, term in enumerate(traces.tolist()):
        if solution.discounted:
            term *= solution.gamma ** (k + 1)
        total += term
    return total


def stationarity_residuals(solution, policy: StructuredPolicy, trace) -> tuple[float, float]:
    """Largest residual norms (max_hat, max_tilde) of the two per-step
    stationarity identities along a trace, 0.0 for a trace with no steps; a
    NaN norm at any step makes its maximum NaN.

    The conditional-mean identity uses Uhat = (u0, u1hat) and Xhat =
    (x0, x1hat); the residual identity uses Utilde = (0, u1 - u1hat) and
    Xtilde = (0, x1 - x1hat), where u1hat, from controls, is the
    conditional-mean follower control of the policy the trace ran.  For an
    undiscounted solution the identity matrices are Lambda(k), L(k); for a
    discounted or stationary solution they are Psi, gamma L.

    solution is a FiniteHorizonSolution or a StationarySolution; its
    identity(k) supplies the two identity matrices of step k, and the policy
    the gains the trace applied, which need not be the solved ones.
    """
    x0 = np.asarray(trace.x0, dtype=float)
    x1 = np.asarray(trace.x1, dtype=float)
    x1hat = np.asarray(trace.x1hat, dtype=float)
    u0 = np.asarray(trace.u0, dtype=float)
    u1 = np.asarray(trace.u1, dtype=float)
    steps = u0.shape[0]
    n = x0.shape[1]
    m1 = u0.shape[1]
    hat = np.zeros(steps)
    tilde = np.zeros(steps)
    for k in range(steps):
        lam, l_mat = solution.identity(k)
        u1hat = controls(policy.at(k), x0[k], x1[k], x1hat[k])[2]
        uhat = np.concatenate([u0[k], u1hat])
        utilde = np.concatenate([np.zeros(m1), u1[k] - u1hat])
        xhat = np.concatenate([x0[k], x1hat[k]])
        xtilde = np.concatenate([np.zeros(n), x1[k] - x1hat[k]])
        hat[k] = np.linalg.norm(lam @ uhat + l_mat @ xhat)
        tilde[k] = np.linalg.norm(lam @ utilde + l_mat @ xtilde)
    return (float(hat.max()), float(tilde.max())) if steps else (0.0, 0.0)
