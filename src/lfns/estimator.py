"""Leader-side recursive estimation of the follower state.

The leader observes its own state and inputs only.  Because the leader
dynamics do not depend on the follower, observing x0(k) adds nothing about
x1(k) beyond what the k-1 information already gave, so the filtered and
one-step-predicted estimates coincide and the filter is a plain mean
propagation of the follower dynamics driven by observed leader data and the
follower's conditional-mean control: advance, the engine's update.
"""
from __future__ import annotations

from .model import LfnsModel


def advance(model: LfnsModel, x1hat, x0, u0, u1hat):
    """Advance the estimate from step k-1 to k:

        x1hat(k) = a11 x1hat(k-1) + b11 u1hat(k-1) + a10 x0(k-1) + b10 u0(k-1)

    where u1hat is the conditional mean of the follower control u1 given the
    leader information, as finite_horizon.controls gives it.  x0 and u0 are
    the leader quantities observed at step k-1; nothing follower-private
    enters.  The estimate starts at the prior mean xbar1.  Works on one
    trial's vectors or on column-stacked trials.
    """
    return model.a11 @ x1hat + model.b11 @ u1hat + model.a10 @ x0 + model.b10 @ u0
