"""Seeded Monte Carlo simulation of the closed loop and MSS diagnostics.

Reproducibility scheme: trial j of a run with root seed s draws from the
dedicated stream numpy.random.default_rng(SeedSequence(entropy=s,
spawn_key=(j,))), in the fixed order initial-leader z (n draws), initial
follower z (n draws), leader noise path (horizon x n), follower noise path
(horizon x n).  A trial's random inputs therefore depend only on (s, j),
never on how many trials run alongside it or how they are chunked.  Trials
are processed in column-stacked chunks of fixed width; aggregation reduces
chunks in trial order.  Each step applies the structured policy, then
model.step for the plant and estimator.advance for the leader's estimate,
the same functions a single trial's vectors go through.

The streams are produced without building a SeedSequence and a Generator
per trial: a chunk's spawn keys are hashed together in uint32 arithmetic,
each trial's PCG64 state is set on one Generator, and one
standard_normal(out=row) call fills that trial's row of one buffer.  The
default_rng(SeedSequence(...)) stream above stays the reference that the
tests compare against.  A spawn key is one 32-bit word, so trial < 2**32.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import advance
from .finite_horizon import StructuredPolicy
from .model import CostSpec, LfnsModel, step

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
    undiscounted; discounting happens at aggregation.  Every entry is
    finite: a block whose loop overflows raises SimulationDiverged instead.
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


# NEP 19's SeedSequence hash (pool of 4 words, 16-bit xorshift) and the
# 128-bit multiplier of PCG64's LCG step
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _spawned_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=(j,)).generate_state(4, uint64)
    for j = lo..hi-1, shape (hi-lo, 4), hashed for all j at once.

    The seed's own words leave the mixer at SeedSequence(seed).pool; the one
    spawn-key word is mixed into each pool word, then the pool is hashed out.
    """
    parent = np.random.SeedSequence(seed)
    seed_words = max(1, -(-int(seed).bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, seed_words - 4), 1 << 32) & _MASK32
    key = np.arange(lo, hi, dtype=np.uint32)
    pool = []
    for word in parent.pool.tolist():
        hashed = key ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        hashed *= np.uint32(hash_const)
        hashed ^= hashed >> 16
        mixed = np.uint32(_MIX_L * word & _MASK32) - np.uint32(_MIX_R) * hashed
        pool.append(mixed ^ (mixed >> 16))
    out = np.empty((hi - lo, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        out[:, i] = value ^ (value >> 16)
    return out.view(np.uint64)


def _draw_chunk(model: LfnsModel, horizon: int, seed: int, lo: int, hi: int):
    """Each trial's normals in the documented order, as views of one buffer.

    Row j - lo of the trial-major buffer holds trial j's z0, z1, zw0 and zw1
    back to back, filled by one standard_normal call from the PCG64 state
    that default_rng(SeedSequence(entropy=seed, spawn_key=(j,))) starts in.
    """
    n = model.n
    buf = np.empty((hi - lo, 2 * horizon + 2, n))
    gen = np.random.Generator(np.random.PCG64(0))
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for col, (s_hi, s_lo, q_hi, q_lo) in enumerate(_spawned_states(seed, lo, hi).tolist()):
        # pcg64_set_seed: inc = seq << 1 | 1, step, add the seed, step
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state["state"] = {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128,
                          "inc": inc}
        gen.bit_generator.state = state
        gen.standard_normal(out=buf[col])
    z0, z1 = buf[:, 0].T, buf[:, 1].T
    zw0 = buf[:, 2:horizon + 2].transpose(1, 2, 0)
    zw1 = buf[:, horizon + 2:].transpose(1, 2, 0)
    return z0, z1, zw0, zw1


# the loop raises at its first overflow, so numpy's warnings about it are redundant
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

    x0 = np.empty((horizon + 1, n, b))
    x1 = np.empty((horizon + 1, n, b))
    x1hat = np.empty((horizon + 1, n, b))
    u0 = np.empty((horizon, m1, b))
    u1 = np.empty((horizon, m2, b))
    w0 = np.empty((horizon, n, b))
    w1 = np.empty((horizon, n, b))
    stage = np.empty((horizon, b))

    x0[0] = model.xbar0[:, None] + lx0 @ z0
    x1[0] = model.xbar1[:, None] + lx1 @ z1
    x1hat[0] = model.xbar1[:, None]
    # a non-finite state or estimate makes its step's controls and stage cost
    # non-finite, so states are checked only at the horizon, where none is read
    for k in range(horizon):
        k00, k01, k10, k11 = policy.at(k)
        cur0, cur1, curhat = x0[k], x1[k], x1hat[k]
        uk0 = -(k00 @ cur0 + k01 @ curhat)
        uk1 = -(k10 @ cur0 + k11 @ cur1)
        xs = np.vstack([cur0, cur1])
        us = np.vstack([uk0, uk1])
        stage[k] = (np.einsum("ib,ib->b", xs, cost.q @ xs)
                    + np.einsum("ib,ib->b", us, cost.r @ us))
        if not np.isfinite(stage[k]).all():
            break
        wk0 = lw0 @ zw0[k]
        wk1 = lw1 @ zw1[k]
        u0[k], u1[k], w0[k], w1[k] = uk0, uk1, wk0, wk1
        x0[k + 1], x1[k + 1] = step(model, cur0, cur1, uk0, uk1, wk0, wk1)
        x1hat[k + 1] = advance(model, curhat, cur0, uk0, k10, k11)
    else:
        k = horizon
    if k < horizon or not np.isfinite([x0[k], x1[k], x1hat[k]]).all():
        raise SimulationDiverged(f"trial block {lo}..{hi - 1} truncated at step {k}; "
                                 f"closed loop is destabilizing")
    return BatchResult(x0=x0, x1=x1, x1hat=x1hat, u0=u0, u1=u1, w0=w0, w1=w1,
                       stage_cost=stage, seed=seed, trial_offset=lo)


def block_bounds(horizon: int, trials: int) -> list[tuple[int, int]]:
    """The (lo, hi) trial ranges of consecutive CHUNK-wide blocks of 0..trials-1."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 to simulate, got {horizon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1 to simulate, got {trials}")
    if trials > 2 ** 32:
        raise ValueError(f"trial indices are one 32-bit spawn-key word; {trials} trials exceed 2**32")
    return [(lo, min(lo + CHUNK, trials)) for lo in range(0, trials, CHUNK)]


def chunks(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
           horizon: int, seed: int, trials: int):
    """The trials 0..trials-1 as consecutive BatchResult blocks, CHUNK wide,
    each simulated when it is reached."""
    return (_simulate_chunk(model, policy, cost, horizon, seed, lo, hi)
            for lo, hi in block_bounds(horizon, trials))


def simulate_batch(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
                   horizon: int, seed: int, trials: int) -> BatchResult:
    """Run all trials, chunked internally, and return stacked arrays."""
    blocks = list(chunks(model, policy, cost, horizon, seed, trials))
    if len(blocks) == 1:
        return blocks[0]
    cat = lambda name: np.concatenate([getattr(c, name) for c in blocks], axis=-1)
    return BatchResult(x0=cat("x0"), x1=cat("x1"), x1hat=cat("x1hat"),
                       u0=cat("u0"), u1=cat("u1"), w0=cat("w0"), w1=cat("w1"),
                       stage_cost=cat("stage_cost"), seed=seed, trial_offset=0)


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
            stage_cost=batch.stage_cost[:, j], seed=seed, trial=j))
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


@dataclass(frozen=True, eq=False)
class BlockSums:
    """One trial block's share of a summary: what combine adds up in trial order."""

    costs: np.ndarray
    sum_state: np.ndarray
    sum_sq: np.ndarray
    stage_tail: float


# finite paths can still overflow these sums; combine raises on what overflowed
@np.errstate(over="ignore", invalid="ignore")
def block_sums(batch: BatchResult, cost: CostSpec, discounted: bool) -> BlockSums:
    """Per-trial path costs, state sums and the stage-cost tail mean of one block."""
    horizon = batch.stage_cost.shape[0]
    states = np.concatenate([batch.x0, batch.x1], axis=1)
    window = max(1, horizon // 10)
    return BlockSums(
        costs=_pathwise_costs(batch.stage_cost, batch.x0[-1], batch.x1[-1], cost, discounted),
        sum_state=states.sum(axis=2),
        sum_sq=np.einsum("kib,kib->k", states, states),
        stage_tail=float(batch.stage_cost[-window:].mean(axis=1).max()))


@np.errstate(over="ignore", invalid="ignore")
def combine(sums, cost: CostSpec, discounted: bool) -> MonteCarloSummary:
    """Add consecutive blocks' BlockSums, in trial order, into a summary.

    Sums accumulate block by block and the stage-cost tail behind the
    truncation bound is the largest per-block tail mean, so the summary
    depends on the split; monte_carlo's blocks are CHUNK trials wide.
    Finite paths can still overflow the sums, so a summary with a non-finite
    number raises SimulationDiverged, without numpy's overflow warnings.
    """
    if discounted and cost.gamma is None:
        raise ValueError("discounted aggregation requires cost.gamma")
    cost_parts = []
    sum_state = sum_sq = stage_tail = 0.0
    for part in sums:
        cost_parts.append(part.costs)
        sum_state = sum_state + part.sum_state
        sum_sq = sum_sq + part.sum_sq
        stage_tail = max(stage_tail, part.stage_tail)
    horizon = sum_sq.shape[0] - 1
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
    numbers = (mean_cost, se, mean_state, mean_norm, second_moment, truncation_bound or 0.0)
    if not all(np.isfinite(x).all() for x in numbers):
        raise SimulationDiverged(f"summary of trials 0..{trials - 1} is not finite; "
                                 f"closed loop is destabilizing")
    return MonteCarloSummary(trials=trials, horizon=horizon, discounted=discounted,
                             gamma=cost.gamma if discounted else None,
                             mean_cost=mean_cost, standard_error=se,
                             mean_state=mean_state, mean_norm=mean_norm,
                             second_moment=second_moment,
                             truncation_bound=truncation_bound)


def reduce(blocks, cost: CostSpec, discounted: bool) -> MonteCarloSummary:
    """Reduce consecutive trial blocks, in trial order, to a summary.

    Each block is turned into its BlockSums, so a generator of blocks
    streams: besides the block being drawn, only the last one reduced is
    held, never the paths of the run.  That one is released once the next
    has been drawn: releasing it first lets the allocator return its pages,
    and the next block faults them back in (about 10% slower on 1024-trial
    n=6 blocks, for a third less peak memory).
    """
    return combine((block_sums(batch, cost, discounted) for batch in blocks), cost, discounted)


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
