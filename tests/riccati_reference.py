"""The Riccati recursion as it was before its checks were stacked: every step
checked as it is computed, Psi(k) before the solve and P(k) after it.

A reference for test_riccati_reference.py, which asserts that the library's
recursion, with its checks run as one stack after the loop, gives the same
bits, the same exception and the same warnings.  The bodies are kept as they
were, with the two model helpers they used.  The recursion returns its own
record, with all four stacks as it computed them, since the library's
solution keeps only P and H and rebuilds Lambda and L on read.
"""
import warnings
from dataclasses import dataclass

import numpy as np

from lfns.finite_horizon import ASYMMETRY_TOL, RiccatiError
from lfns.infinite_horizon import (DIVERGENCE_NORM, FIXED_POINT_TOL, MAX_ITERATIONS,
                                   RiccatiDivergence, StationarySolution)
from lfns.model import PD_TOL, PSD_TOL, CompactModel, CostSpec, LfnsModel, stacked_moments


@dataclass(frozen=True)
class Solution:
    """The per-step lists of the recursion, indexed by step."""

    p_seq: list
    k_seq: list
    lambda_seq: list
    l_seq: list
    discounted: bool
    gamma: float | None

    @property
    def horizon(self) -> int:
        return len(self.k_seq) - 1


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def eigmin(m: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized matrix."""
    return float(np.linalg.eigvalsh(symmetrize(m)).min())


def _check_step(p: np.ndarray, k: int) -> np.ndarray:
    if not np.all(np.isfinite(p)):
        raise RiccatiError(f"non-finite Riccati iterate at step {k}")
    sym = symmetrize(p)
    denom = max(1.0, float(np.linalg.norm(sym)))
    if np.linalg.norm(p - sym) / denom > ASYMMETRY_TOL:
        warnings.warn(f"Riccati iterate at step {k} asymmetric beyond tolerance",
                      RuntimeWarning, stacklevel=4)
    if eigmin(sym) < PSD_TOL:
        raise RiccatiError(f"Riccati iterate at step {k} lost positive semidefiniteness")
    return sym


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
    Psi is factorized, never inverted, and is checked positive definite
    before the solve; k only labels the error.
    """
    a, b = compact.a, compact.b
    psi = symmetrize(cost.r + gamma * (b.T @ p_next @ b))
    if eigmin(psi) < PD_TOL:
        raise RiccatiError(f"Psi({k}) not positive definite")
    l_mat = b.T @ p_next @ a
    x = np.linalg.solve(psi, l_mat)
    p = cost.q + gamma * (a.T @ p_next @ a) - gamma**2 * (l_mat.T @ x)
    return p, psi, l_mat, gamma * x


# _check_step raises at the first non-finite iterate, so numpy's warnings about it are redundant
@np.errstate(over="ignore", invalid="ignore")
def _recursion(compact: CompactModel, cost: CostSpec, n_horizon: int,
               p_terminal: np.ndarray, gamma: float | None) -> Solution:
    dim = cost.q.shape[0]
    p_seq: list[np.ndarray] = [np.zeros((dim, dim))] * (n_horizon + 2)
    k_seq: list[np.ndarray] = [np.zeros((cost.r.shape[0], dim))] * (n_horizon + 1)
    psi_seq = list(k_seq)
    l_seq = list(k_seq)
    p_seq[n_horizon + 1] = _check_step(p_terminal, n_horizon + 1)
    step_gamma = 1.0 if gamma is None else gamma
    for k in range(n_horizon, -1, -1):
        p, psi_seq[k], l_seq[k], k_seq[k] = riccati_step(compact, cost, p_seq[k + 1],
                                                         step_gamma, k)
        p_seq[k] = _check_step(p, k)
    return Solution(p_seq=p_seq, k_seq=k_seq, lambda_seq=psi_seq, l_seq=l_seq,
                    discounted=gamma is not None, gamma=gamma)


def backward_riccati(compact: CompactModel, cost: CostSpec, n_horizon: int) -> Solution:
    """Undiscounted backward recursion from the terminal weight: riccati_step
    with gamma = 1 for k = N..0, so Lambda(k) = R + B' P(k+1) B takes Psi's
    place and K(k) = Lambda(k)^{-1} L(k) takes H's."""
    p_t = cost.p_terminal if cost.p_terminal is not None else np.zeros_like(cost.q)
    return _recursion(compact, cost, n_horizon, p_t, None)


def discounted_backward_riccati(compact: CompactModel, cost: CostSpec,
                                n_horizon: int) -> Solution:
    """Discounted recursion with terminal weight forced to zero: the Riccati
    step with the cost's gamma for k = N..0 (see riccati_step)."""
    if cost.gamma is None or not (0.0 < cost.gamma < 1.0):
        raise RiccatiError(f"discounted recursion requires gamma in (0, 1), got {cost.gamma}")
    return _recursion(compact, cost, n_horizon, np.zeros_like(cost.q), cost.gamma)


def optimal_cost(solution: Solution, model: LfnsModel) -> float:
    """Analytic optimal cost of the solved horizon.

    Undiscounted:  J = E[X(0)' P(0) X(0)] + sum_{k=0}^{N} tr(Sigma_W P(k+1))
    Discounted:    J = E[X(0)' P(0) X(0)] + sum_{k=0}^{N} gamma^{k+1} tr(Sigma_W P(k+1))

    with E[X(0)' P(0) X(0)] = xbar' P(0) xbar + tr(blockdiag(Sigma_x0,
    Sigma_x1) P(0)), the Gaussian second-moment expansion.
    """
    xbar, sigma_x, sigma_w = stacked_moments(model)
    p0 = solution.p_seq[0]
    total = float(xbar @ p0 @ xbar + np.trace(sigma_x @ p0))
    n_horizon = solution.horizon
    for k in range(n_horizon + 1):
        term = float(np.trace(sigma_w @ solution.p_seq[k + 1]))
        if solution.discounted:
            term *= solution.gamma ** (k + 1)
        total += term
    return total


def solve_stationary_riccati(compact: CompactModel, cost: CostSpec) -> StationarySolution:
    """Value-iterate P <- Q + gamma A'PA - gamma^2 L' Psi^{-1} L from P = 0.

    Stops when the relative Frobenius change drops below 1e-12; raises
    RiccatiDivergence when the iterate norm passes 1e12, and RiccatiError
    when MAX_ITERATIONS iterations end before the change drops below 1e-12.
    """
    if cost.gamma is None or not (0.0 < cost.gamma < 1.0):
        raise ValueError(f"stationary solve requires gamma in (0, 1), got {cost.gamma}")
    gamma = cost.gamma
    p = np.zeros_like(cost.q)
    for iterations in range(1, MAX_ITERATIONS + 1):
        p_new = symmetrize(riccati_step(compact, cost, p, gamma, iterations)[0])
        norm = float(np.linalg.norm(p_new))
        if not np.isfinite(norm) or norm > DIVERGENCE_NORM:
            raise RiccatiDivergence(iterations, norm)
        residual = float(np.linalg.norm(p_new - p) / max(1.0, norm))
        p = p_new
        if residual < FIXED_POINT_TOL:
            break
    else:
        raise RiccatiError(f"value iteration hit the iteration cap after {iterations} iterations "
                           f"(relative change {residual:.3e}, tolerance {FIXED_POINT_TOL:.0e})")
    _, psi, l_mat, h = riccati_step(compact, cost, p, gamma, iterations)
    return StationarySolution(p=p, h=h, psi=psi, l=l_mat, gamma=gamma,
                              iterations=iterations, residual=residual,
                              n=compact.n, m1=compact.m1)
