"""Leader-side recursive estimation of the follower state.

The leader observes its own state and inputs only.  Because the leader
dynamics do not depend on the follower, observing x0(k) adds nothing about
x1(k) beyond what the k-1 information already gave, so the filtered and
one-step-predicted estimates coincide and the filter is a plain mean
propagation of the follower dynamics driven by observed leader data.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import LfnsModel

# maps (x0, x1hat) to the conditional mean of the follower control; for the
# structured linear policy u1 = -k10 x0 - k11 x1 this must be
# -k10 x0 - k11 x1hat
MeanControlMap = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class EstimatorState:
    x1hat: np.ndarray
    k: int


def init(model: LfnsModel) -> EstimatorState:
    """Estimate at k=0 is the prior mean of the follower state."""
    return EstimatorState(x1hat=model.xbar1.copy(), k=0)


def advance(state: EstimatorState, model: LfnsModel, x0_prev: np.ndarray,
            u0_prev: np.ndarray, mean_u1: MeanControlMap) -> EstimatorState:
    """Advance the estimate from step k-1 to k.

    x1hat(k) = a11 x1hat(k-1) + b11 u1hat(k-1) + a10 x0(k-1) + b10 u0(k-1)

    where u1hat is the conditional mean of the follower control supplied by
    the policy.  x0_prev and u0_prev are the leader quantities observed at
    step k-1; nothing follower-private enters.
    """
    x0_prev = np.asarray(x0_prev, dtype=float)
    u0_prev = np.asarray(u0_prev, dtype=float)
    u1hat = np.asarray(mean_u1(x0_prev, state.x1hat), dtype=float)
    x1hat = (model.a11 @ state.x1hat + model.b11 @ u1hat
             + model.a10 @ x0_prev + model.b10 @ u0_prev)
    return EstimatorState(x1hat=x1hat, k=state.k + 1)


def linear_mean_control(k10: np.ndarray, k11: np.ndarray) -> MeanControlMap:
    """Conditional mean of u1 = -k10 x0 - k11 x1 given leader information."""
    k10 = np.asarray(k10, dtype=float)
    k11 = np.asarray(k11, dtype=float)
    return lambda x0, x1hat: -k10 @ x0 - k11 @ x1hat


def error_moments(model: LfnsModel, k11, horizon: int) -> list[np.ndarray]:
    """Covariances of the estimation error x1 - x1hat at k = 0..horizon.

    The leader block of the stacked error is identically zero (the leader
    state is known exactly), so only the follower block propagates:

        err(k) = (a11 - b11 k11) err(k-1) + w1(k-1)

    The residual follower control is u1 - u1hat = -k11 err; the leader
    residual control is exactly zero because u0 is measurable with respect
    to the leader information, so no other gain block of the stacked
    closed-loop gain enters.  Covariances are propagated exactly, no
    sampling.
    """
    f = model.a11 - model.b11 @ np.asarray(k11, dtype=float)
    cov = model.sigma_x1.copy()
    out = [cov]
    for _ in range(horizon):
        cov = f @ cov @ f.T + model.sigma_w1
        cov = 0.5 * (cov + cov.T)
        out.append(cov)
    return out
