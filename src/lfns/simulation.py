"""Seeded Monte Carlo simulation of the closed loop and MSS diagnostics.

Reproducibility scheme: trial j of a run with root seed s draws from the
dedicated stream numpy.random.default_rng(SeedSequence(entropy=s,
spawn_key=(j,))), in the fixed order initial-leader z (n draws), initial
follower z (n draws), leader noise path (horizon x n), follower noise path
(horizon x n).  A trial's random inputs therefore depend only on (s, j),
never on how many trials run alongside it or how they are chunked.  Trials
are processed in column-stacked chunks of fixed width; aggregation reduces
chunks in trial order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CostSpec, LfnsModel
from .finite_horizon import StructuredPolicy

CHUNK = 1024


class SimulationDiverged(ValueError):
    """A trial block's closed loop left the finite numbers before the horizon."""


def psd_factor(sigma: np.ndarray) -> np.ndarray:
    """Factor L with L L' = sigma; tolerates semidefinite input."""
    if not np.any(sigma):
        return np.zeros_like(sigma)
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
        vals = np.clip(vals, 0.0, None)
        return vecs @ np.diag(np.sqrt(vals))


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Column-stacked sample paths for a contiguous block of trials.

    State arrays have shape (horizon+1, dim, trials); control, noise and
    stage-cost arrays cover steps 0..horizon-1.  Stage costs are stored
    undiscounted; discounting happens at aggregation.
    """

    x0: np.ndarray
    x1: np.ndarray
    x1hat: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    stage_cost: np.ndarray
    seed: int
    trial_offset: int
    truncated_at: int | None

    @property
    def trials(self) -> int:
        return self.x0.shape[2]


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Single-trial view of a batch: per-step states, controls, noises, costs."""

    x0: np.ndarray
    x1: np.ndarray
    x1hat: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    stage_cost: np.ndarray
    seed: int
    trial: int
    truncated_at: int | None = None


@dataclass(frozen=True, eq=False)
class MonteCarloSummary:
    trials: int
    horizon: int
    discounted: bool
    gamma: float | None
    mean_cost: float
    standard_error: float
    mean_state: np.ndarray
    mean_norm: np.ndarray
    second_moment: np.ndarray
    truncation_bound: float | None


@dataclass(frozen=True)
class MssReport:
    """Empirical mean-square-stability diagnostics plus the analytic certificate."""

    mean_decay: bool
    mean_ratio: float
    second_moment_plateau: bool
    plateau_relative_change: float
    spectral_radius: float | None
    mss: bool


def _draw_chunk(model: LfnsModel, horizon: int, seed: int, lo: int, hi: int):
    n = model.n
    b = hi - lo
    z0 = np.empty((n, b))
    z1 = np.empty((n, b))
    zw0 = np.empty((horizon, n, b))
    zw1 = np.empty((horizon, n, b))
    for j in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        col = j - lo
        z0[:, col] = rng.standard_normal(n)
        z1[:, col] = rng.standard_normal(n)
        zw0[:, :, col] = rng.standard_normal((horizon, n))
        zw1[:, :, col] = rng.standard_normal((horizon, n))
    return z0, z1, zw0, zw1


# a diverging loop is cut at its first non-finite state and reported through
# truncated_at, so numpy's overflow warnings on the way there are redundant
@np.errstate(over="ignore", invalid="ignore")
def _simulate_chunk(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
                    horizon: int, seed: int, lo: int, hi: int) -> BatchResult:
    n, m1, m2 = model.n, model.m1, model.m2
    b = hi - lo
    z0, z1, zw0, zw1 = _draw_chunk(model, horizon, seed, lo, hi)
    lx0 = psd_factor(model.sigma_x0)
    lx1 = psd_factor(model.sigma_x1)
    lw0 = psd_factor(model.sigma_w0)
    lw1 = psd_factor(model.sigma_w1)

    x0 = np.full((horizon + 1, n, b), np.nan)
    x1 = np.full((horizon + 1, n, b), np.nan)
    x1hat = np.full((horizon + 1, n, b), np.nan)
    u0 = np.full((horizon, m1, b), np.nan)
    u1 = np.full((horizon, m2, b), np.nan)
    w0 = np.full((horizon, n, b), np.nan)
    w1 = np.full((horizon, n, b), np.nan)
    stage = np.full((horizon, b), np.nan)

    x0[0] = model.xbar0[:, None] + lx0 @ z0
    x1[0] = model.xbar1[:, None] + lx1 @ z1
    x1hat[0] = np.repeat(model.xbar1[:, None], b, axis=1)
    truncated_at = None
    for k in range(horizon):
        k00, k01, k10, k11 = policy.at(k)
        cur0, cur1, curhat = x0[k], x1[k], x1hat[k]
        uk0 = -(k00 @ cur0 + k01 @ curhat)
        uk1 = -(k10 @ cur0 + k11 @ cur1)
        u1hat = -(k10 @ cur0 + k11 @ curhat)
        xs = np.vstack([cur0, cur1])
        us = np.vstack([uk0, uk1])
        stage[k] = (np.einsum("ib,ib->b", xs, cost.q @ xs)
                    + np.einsum("ib,ib->b", us, cost.r @ us))
        wk0 = lw0 @ zw0[k]
        wk1 = lw1 @ zw1[k]
        nxt0 = model.a00 @ cur0 + model.b00 @ uk0 + wk0
        nxt1 = (model.a10 @ cur0 + model.a11 @ cur1 + model.b11 @ uk1
                + model.b10 @ uk0 + wk1)
        # the leader-side estimator update, inlined for the whole chunk;
        # estimator.advance is kept as the per-trial reference the tests
        # compare this against
        nxthat = (model.a11 @ curhat + model.b11 @ u1hat
                  + model.a10 @ cur0 + model.b10 @ uk0)
        u0[k], u1[k], w0[k], w1[k] = uk0, uk1, wk0, wk1
        x0[k + 1], x1[k + 1], x1hat[k + 1] = nxt0, nxt1, nxthat
        if not (np.all(np.isfinite(nxt0)) and np.all(np.isfinite(nxt1))):
            truncated_at = k + 1
            break
    return BatchResult(x0=x0, x1=x1, x1hat=x1hat, u0=u0, u1=u1, w0=w0, w1=w1,
                       stage_cost=stage, seed=seed, trial_offset=lo,
                       truncated_at=truncated_at)


def chunks(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
           horizon: int, seed: int, trials: int):
    """The trials 0..trials-1 as consecutive BatchResult blocks, CHUNK wide,
    each simulated when it is reached."""
    return (_simulate_chunk(model, policy, cost, horizon, seed, lo, min(lo + CHUNK, trials))
            for lo in range(0, trials, CHUNK))


def simulate_batch(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
                   horizon: int, seed: int, trials: int) -> BatchResult:
    """Run all trials, chunked internally, and return stacked arrays."""
    blocks = list(chunks(model, policy, cost, horizon, seed, trials))
    if len(blocks) == 1:
        return blocks[0]
    cat = lambda name: np.concatenate([getattr(c, name) for c in blocks], axis=-1)
    truncations = [c.truncated_at for c in blocks if c.truncated_at is not None]
    return BatchResult(x0=cat("x0"), x1=cat("x1"), x1hat=cat("x1hat"),
                       u0=cat("u0"), u1=cat("u1"), w0=cat("w0"), w1=cat("w1"),
                       stage_cost=np.concatenate([c.stage_cost for c in blocks], axis=-1),
                       seed=seed, trial_offset=0,
                       truncated_at=min(truncations) if truncations else None)


def simulate(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
             horizon: int, seed: int, trials: int = 1) -> list[SimulationTrace]:
    """Per-trial traces; thin views over the batch arrays."""
    batch = simulate_batch(model, policy, cost, horizon, seed, trials)
    out = []
    for j in range(trials):
        out.append(SimulationTrace(
            x0=batch.x0[:, :, j], x1=batch.x1[:, :, j], x1hat=batch.x1hat[:, :, j],
            u0=batch.u0[:, :, j], u1=batch.u1[:, :, j],
            w0=batch.w0[:, :, j], w1=batch.w1[:, :, j],
            stage_cost=batch.stage_cost[:, j], seed=seed, trial=j,
            truncated_at=batch.truncated_at))
    return out


def _pathwise_costs(stage: np.ndarray, x0_last: np.ndarray, x1_last: np.ndarray,
                    cost: CostSpec, discounted: bool) -> np.ndarray:
    horizon = stage.shape[0]
    if discounted:
        weights = cost.gamma ** np.arange(horizon)
        return weights @ stage
    total = stage.sum(axis=0)
    if cost.p_terminal is not None:
        xs = np.vstack([x0_last, x1_last])
        total = total + np.einsum("ib,ib->b", xs, cost.p_terminal @ xs)
    return total


def reduce(blocks, cost: CostSpec, discounted: bool) -> MonteCarloSummary:
    """Reduce consecutive trial blocks, in trial order, to a summary.

    Only per-block accumulators are kept, never the paths, so a generator of
    blocks streams.  Sums accumulate block by block and the stage-cost tail
    behind the truncation bound is the largest per-block tail mean, so the
    summary depends on the split; monte_carlo's blocks are CHUNK trials wide.
    A truncated block raises SimulationDiverged.
    """
    if discounted and cost.gamma is None:
        raise ValueError("discounted aggregation requires cost.gamma")
    cost_parts = []
    sum_state = sum_sq = stage_tail = 0.0
    for batch in blocks:
        if batch.truncated_at is not None:
            lo = batch.trial_offset
            raise SimulationDiverged(f"trial block {lo}..{lo + batch.trials - 1} truncated at "
                                     f"step {batch.truncated_at}; closed loop is destabilizing")
        horizon = batch.stage_cost.shape[0]
        cost_parts.append(_pathwise_costs(batch.stage_cost, batch.x0[-1],
                                          batch.x1[-1], cost, discounted))
        states = np.concatenate([batch.x0, batch.x1], axis=1)
        sum_state = sum_state + states.sum(axis=2)
        sum_sq = sum_sq + np.einsum("kib,kib->k", states, states)
        window = max(1, horizon // 10)
        stage_tail = max(stage_tail, float(batch.stage_cost[-window:].mean(axis=1).max()))
    costs = np.concatenate(cost_parts)
    trials = costs.size
    mean_cost = float(costs.mean())
    se = float(costs.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    mean_state = sum_state / trials
    mean_norm = np.linalg.norm(mean_state, axis=1)
    second_moment = sum_sq / trials
    truncation_bound = None
    if discounted:
        truncation_bound = cost.gamma ** horizon / (1.0 - cost.gamma) * stage_tail
    return MonteCarloSummary(trials=trials, horizon=horizon, discounted=discounted,
                             gamma=cost.gamma if discounted else None,
                             mean_cost=mean_cost, standard_error=se,
                             mean_state=mean_state, mean_norm=mean_norm,
                             second_moment=second_moment,
                             truncation_bound=truncation_bound)


def empirical_cost(batch: BatchResult, cost: CostSpec,
                   discounted: bool = False) -> MonteCarloSummary:
    """Aggregate a stored batch as one block of the monte_carlo reduction."""
    return reduce([batch], cost, discounted)


def monte_carlo(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
                horizon: int, seed: int, trials: int,
                discounted: bool = False) -> MonteCarloSummary:
    """Streaming Monte Carlo: runs chunks, keeps accumulators, never the paths.

    Aggregation is a deterministic reduction in trial order, so the result
    for a given (seed, trials) pair is reproducible.
    """
    return reduce(chunks(model, policy, cost, horizon, seed, trials), cost, discounted)


def mss_diagnostics(summary: MonteCarloSummary, spectral_radius: float | None = None,
                    decay_fraction: float = 0.05) -> MssReport:
    """Mean-decay and second-moment-plateau flags per the MSS definition.

    The mean test asks whether the final mean norm fell below the given
    fraction of the initial one (or stayed negligible throughout).  The
    plateau test asks whether the second moment changed by less than 1%
    relative over the last 20% of the steps; a second moment that has
    decayed to zero counts as plateaued at zero.
    """
    initial = float(summary.mean_norm[0])
    final = float(summary.mean_norm[-1])
    if initial < 1e-12:
        mean_decay = final < 1e-9
        ratio = 0.0 if mean_decay else np.inf
    else:
        ratio = final / initial
        mean_decay = ratio <= decay_fraction
    steps = summary.second_moment.shape[0]
    window = summary.second_moment[-max(2, int(np.ceil(0.2 * steps))):]
    top = float(window.max())
    if top < 1e-12:
        plateau, rel_change = True, 0.0
    else:
        rel_change = float((window.max() - window.min()) / top)
        plateau = rel_change < 0.01
    return MssReport(mean_decay=bool(mean_decay), mean_ratio=float(ratio),
                     second_moment_plateau=bool(plateau),
                     plateau_relative_change=rel_change,
                     spectral_radius=spectral_radius,
                     mss=bool(mean_decay and plateau))
