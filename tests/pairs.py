"""The leader-follower pairs the tests share.

The random builders draw from the generator they are given in a fixed
order (a00, a10, a11, b00, b10, b11, xbar0, xbar1), so a seed fixes a pair.
"""
import numpy as np

from lfns.model import make_cost, make_model


def decoupled_unit_model():
    """Two identical uncoupled scalar agents, a = b = 1: the scalar-demo model."""
    return make_model(
        a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
        b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
        sigma_w0=[[0.1]], sigma_w1=[[0.1]],
        xbar0=[1.0], xbar1=[0.5],
        sigma_x0=[[0.25]], sigma_x1=[[0.25]],
    )


def scalar_demo_pair():
    """The scalar-demo model with unit weights, a unit terminal weight and gamma 0.9."""
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2), gamma=0.9)
    return decoupled_unit_model(), cost


def coupled_noisy_model():
    """A scalar pair whose follower is driven by the leader, with noise on both."""
    return make_model(
        a00=[[0.9]], a10=[[0.3]], a11=[[0.8]],
        b00=[[1.0]], b10=[[0.2]], b11=[[1.0]],
        sigma_w0=[[0.04]], sigma_w1=[[0.09]],
        xbar0=[1.0], xbar1=[0.5],
        sigma_x0=[[0.25]], sigma_x1=[[0.16]],
    )


def random_model(rng, n=2, follower_noise=True):
    return make_model(
        a00=0.6 * rng.standard_normal((n, n)),
        a10=0.4 * rng.standard_normal((n, n)),
        a11=0.6 * rng.standard_normal((n, n)),
        b00=rng.standard_normal((n, n)),
        b10=0.3 * rng.standard_normal((n, n)),
        b11=rng.standard_normal((n, n)),
        sigma_w0=0.1 * np.eye(n),
        sigma_w1=0.2 * np.eye(n) if follower_noise else np.zeros((n, n)),
        xbar0=rng.standard_normal(n), xbar1=rng.standard_normal(n),
        sigma_x0=0.3 * np.eye(n),
        sigma_x1=0.2 * np.eye(n) if follower_noise else np.zeros((n, n)),
    )


def random_pair(rng, n=2):
    """random_model with unit weights, a unit terminal weight and gamma 0.9."""
    cost = make_cost(q=np.eye(2 * n), r=np.eye(2 * n), p_terminal=np.eye(2 * n), gamma=0.9)
    return random_model(rng, n=n), cost
