"""Discounted stationary synthesis and the feedback-stabilizability test.

The fixed point is found by value iteration from zero, which mirrors the
constructive argument behind the stationary theory: the iterates are
exactly the finite-horizon discounted matrices with zero terminal weight,
they are monotone in the PSD order, and their limit (when it exists) is the
minimal fixed point.

The stabilizability verdict is decided on the loop the package runs.  Under
the structured policy the augmented state (x0, x1, x1hat) splits into the
conditional-mean part Xhat = (x0, x1hat), driven by A - BH, and the
follower's estimation error x1 - x1hat, driven by A11 - B11 H11 (the leader
learns nothing about x1 from x0, so the error is never corrected).  The
closed-loop spectrum is the union of the two, and the solved decentralized
feedback stabilizes the pair in mean square exactly when
max(rho(A - BH), rho(A11 - B11 H11)) < 1.  That radius is necessary and
sufficient and is what `stabilizable` reports.

The certificate P > 0 together with (1 - gamma) P < Q + H'RH is still
computed and reported with its margins, as evidence.  Via the Lyapunov
identity it is the Stein inequality (A-BH)' P (A-BH) < P for this one P:
sufficient for rho(A - BH) < 1 but not necessary, and blind to the error
block, so it does not enter the verdict.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite_horizon import RiccatiError, check_step, closed_loop, riccati_step, split_gain
from .model import (PD_TOL, CompactModel, CostSpec, LfnsModel, eigmin, stacked_moments,
                    symmetrize)

FIXED_POINT_TOL = 1e-12
MAX_ITERATIONS = 100_000
DIVERGENCE_NORM = 1e12


class RiccatiDivergence(RuntimeError):
    """Value iteration blew past the divergence threshold (non-stabilizable)."""

    def __init__(self, iterations: int, norm: float):
        super().__init__(f"stationary Riccati iteration diverged after {iterations} "
                         f"iterations (iterate norm {norm:.3e})")
        self.iterations = iterations
        self.norm = norm


@dataclass(frozen=True, eq=False)
class StationarySolution:
    """Fixed point P, gain H = gamma Psi^{-1} L, and solver telemetry."""

    p: np.ndarray
    h: np.ndarray
    psi: np.ndarray
    l: np.ndarray
    gamma: float
    iterations: int
    residual: float
    n: int
    m1: int

    def identity(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(Psi, gamma L) of the stationarity identity, the same at every step k."""
        return self.psi, self.gamma * self.l


@dataclass(frozen=True)
class CertifiedFlag:
    """Trivalent certificate: True/False when the margin is decisive, None when
    it sits inside the strictness tolerance band."""

    value: bool | None
    margin: float


@dataclass(frozen=True)
class StabilizabilityVerdict:
    positive_definite: CertifiedFlag
    inequality_holds: CertifiedFlag
    spectral_radius: float
    stabilizable: bool | None
    detail: str = ""


@np.errstate(over="ignore", invalid="ignore")
def solve_stationary_riccati(compact: CompactModel, cost: CostSpec) -> StationarySolution:
    """Value-iterate P <- Q + gamma A'PA - gamma^2 L' Psi^{-1} L from P = 0.

    Stops when the relative Frobenius change drops below 1e-12; raises
    RiccatiError when an iteration's Psi is not positive definite (checked at
    every iteration by check_step), RiccatiDivergence when the iterate norm
    passes 1e12 or overflows, without numpy's warnings, and RiccatiError when
    MAX_ITERATIONS iterations end before the change drops below 1e-12.
    """
    if cost.gamma is None or not (0.0 < cost.gamma < 1.0):
        raise ValueError(f"stationary solve requires gamma in (0, 1), got {cost.gamma}")
    gamma = cost.gamma
    p = np.zeros_like(cost.q)
    for iterations in range(1, MAX_ITERATIONS + 1):
        p_step, psi = riccati_step(compact, cost, p, gamma, iterations)[:2]
        check_step(iterations, psi=psi)
        p_new = symmetrize(p_step)
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
    check_step(iterations, psi=psi)
    return StationarySolution(p=p, h=h, psi=psi, l=l_mat, gamma=gamma,
                              iterations=iterations, residual=residual,
                              n=compact.n, m1=compact.m1)


def _flag(margin: float) -> CertifiedFlag:
    if margin >= PD_TOL:
        return CertifiedFlag(value=True, margin=margin)
    if margin <= -PD_TOL:
        return CertifiedFlag(value=False, margin=margin)
    return CertifiedFlag(value=None, margin=margin)


def closed_loop_radii(solution: StationarySolution,
                      compact: CompactModel) -> tuple[float, float]:
    """Spectral radii (rho(A - BH), rho(A11 - B11 H11)) of the two diagonal
    blocks of the decentralized closed loop: the conditional-mean part and
    the follower's estimation error, which moves by the (x1, x1) block of
    closed_loop's map.  Their maximum is the radius of the whole loop on
    (x0, x1, x1hat)."""
    n, h = compact.n, solution.h
    rho_mean = float(np.max(np.abs(np.linalg.eigvals(compact.a - compact.b @ h))))
    _, f = closed_loop(compact, split_gain(h, n, compact.m1))
    rho_err = float(np.max(np.abs(np.linalg.eigvals(f[n:2 * n, n:2 * n]))))
    return rho_mean, rho_err


def check_stabilizability(solution: StationarySolution, cost: CostSpec,
                          compact: CompactModel) -> StabilizabilityVerdict:
    """Decide whether the solved decentralized feedback stabilizes the pair.

    The verdict is rho < 1 for rho = max(rho(A - BH), rho(A11 - B11 H11)),
    the spectral radius of the closed loop the package runs; it is necessary
    and sufficient for mean-square stability.  A margin 1 - rho within 1e-9
    of zero yields an inconclusive (None) verdict instead of a forced
    boolean.  The sufficient certificates P > 0 and
    (1-gamma) P < Q + H'RH are reported with their margins as evidence but
    are not part of the verdict.
    """
    p, h, gamma = solution.p, solution.h, solution.gamma
    pd_flag = _flag(eigmin(p))
    gap = cost.q + h.T @ cost.r @ h - (1.0 - gamma) * p
    ineq_flag = _flag(eigmin(gap))
    rho_mean, rho_err = closed_loop_radii(solution, compact)
    rho = max(rho_mean, rho_err)
    detail = (f"min eig P = {pd_flag.margin:.6g}; "
              f"min eig(Q + H'RH - (1-gamma)P) = {ineq_flag.margin:.6g}; "
              f"rho(A - BH) = {rho_mean:.6g}")
    if rho_err > rho_mean:
        detail += f"; rho(A11 - B11 H11) = {rho_err:.6g} (estimation error) sets the verdict"
    return StabilizabilityVerdict(positive_definite=pd_flag, inequality_holds=ineq_flag,
                                  spectral_radius=rho, stabilizable=_flag(1.0 - rho).value,
                                  detail=detail)


def stationary_cost_terms(solution: StationarySolution, model: LfnsModel) -> tuple[float, float]:
    """The two terms of the analytic stationary cost: the initial term
    E[X(0)' P X(0)] and the noise term gamma/(1-gamma) tr(Sigma_W P)."""
    xbar, sigma_x, sigma_w = stacked_moments(model)
    p = solution.p
    quad = float(xbar @ p @ xbar + np.trace(sigma_x @ p))
    return quad, solution.gamma / (1.0 - solution.gamma) * float(np.trace(sigma_w @ p))


def stationary_cost(solution: StationarySolution, model: LfnsModel) -> float:
    """Analytic stationary cost, the sum of the two stationary_cost_terms."""
    quad, noise = stationary_cost_terms(solution, model)
    return quad + noise
