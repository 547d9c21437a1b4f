"""Leader-side recursive estimation of the follower state.

The leader observes its own state and inputs only.  Because the leader
dynamics do not depend on the follower, observing x0(k) adds nothing about
x1(k) beyond what the k-1 information already gave, so the filtered and
one-step-predicted estimates coincide and the filter is a plain mean
propagation of the follower dynamics driven by observed leader data.
advance is that update, the one the Monte Carlo engine runs, and
error_moments gives the exact covariances of its error.
"""
from __future__ import annotations

import numpy as np

from .model import LfnsModel


def advance(model: LfnsModel, x1hat, x0, u0, k10, k11):
    """Advance the estimate from step k-1 to k:

        x1hat(k) = a11 x1hat(k-1) + b11 u1hat(k-1) + a10 x0(k-1) + b10 u0(k-1)

    where u1hat = -(k10 x0 + k11 x1hat) is the conditional mean of the
    follower control u1 = -(k10 x0 + k11 x1) given the leader information.
    x0 and u0 are the leader quantities observed at step k-1; nothing
    follower-private enters.  The estimate starts at the prior mean xbar1.
    Works on one trial's vectors or on column-stacked trials.
    """
    u1hat = -(k10 @ x0 + k11 @ x1hat)
    return model.a11 @ x1hat + model.b11 @ u1hat + model.a10 @ x0 + model.b10 @ u0


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
