"""Seeded Monte Carlo simulation of the closed loop and MSS diagnostics.

Reproducibility scheme: trial j of a run with root seed s draws from the
dedicated stream numpy.random.default_rng(SeedSequence(entropy=s,
spawn_key=(j,))), in the fixed order initial-leader z (n draws), initial
follower z (n draws), leader noise path (horizon x n), follower noise path
(horizon x n).  A trial's random inputs therefore depend only on (s, j),
never on how many trials run alongside it or how they are split into
blocks.  Each step applies finite_horizon.controls, then model.step for the
plant and estimator.advance, fed u1hat, for the leader's estimate, the same
functions a single trial's vectors go through.

One function, _step_block, draws, steps and reduces every block of trials
in arrays of its own.  A stored block keeps every path in a stacked
(horizon+1, 2n, trials) states array, of which x0 and x1 are views:
simulate_batch runs all its trials as one stored block, simulate is its
first trial, and the CLI's traces store one CHUNK-wide block at a time.
Other blocks keep the draws, the stage costs and the last two states, so
monte_carlo, whose CHUNK-wide blocks are freed one by one, holds
8*CHUNK*(2n(horizon+1) + 4n + horizon) bytes of buffers whatever the
number of trials.  Every block sums its states and their squares as it
steps, and monte_carlo and the CLI's traces combine those BlockSums.

One fan-out, _run_blocks, spreads the blocks of monte_carlo and of the
CLI's traces over forked worker processes, at most one per CPU, or off
Linux over none.  The blocks are cut into one contiguous run per worker,
each worker steps its run in order and replies once, and the calling
process only waits.  The partition into blocks does not depend on the
number of processes, so no summary changes by a bit.

The streams are produced without building a SeedSequence and a Generator
per trial: a chunk's spawn keys are hashed together in uint32 arithmetic,
each trial's PCG64 state is set on one Generator, and one
standard_normal(out=row) call fills that trial's row of one buffer.  The
default_rng(SeedSequence(...)) stream above stays the reference that the
tests compare against.  A spawn key is one 32-bit word, so trial < 2**32.
"""
from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .estimator import advance
from .finite_horizon import StructuredPolicy, controls
from .model import CostSpec, LfnsModel, require_gamma, step

CHUNK = 1024
# mss_diagnostics' mean test: the final mean norm at most this share of the initial one
MEAN_DECAY_FRACTION = 0.05
# taken by the one fan-out a process runs at a time, so no worker inherits another's pipes
_FAN_OUT = threading.Lock()


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
    stage-cost arrays cover steps 0..horizon-1.  states stacks (x0, x1) as
    (horizon+1, 2n, trials), and x0 and x1 are its views.  Stage costs are
    stored undiscounted; discounting happens at aggregation.  Every entry is
    finite: a block whose loop overflows raises SimulationDiverged instead.
    """

    states: np.ndarray
    x1hat: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    stage_cost: np.ndarray
    trial_offset: int

    @property
    def x0(self) -> np.ndarray:
        return self.states[:, :self.states.shape[1] // 2]

    @property
    def x1(self) -> np.ndarray:
        return self.states[:, self.states.shape[1] // 2:]

    @property
    def trials(self) -> int:
        return self.states.shape[2]


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """One trial's states, (horizon+1, dim), and controls, (horizon, dim)."""

    x0: np.ndarray
    x1: np.ndarray
    x1hat: np.ndarray
    u0: np.ndarray
    u1: np.ndarray


@dataclass(frozen=True, eq=False)
class MonteCarloSummary:
    trials: int
    mean_cost: float
    standard_error: float | None
    mean_state: np.ndarray
    mean_norm: np.ndarray
    second_moment: np.ndarray
    truncation_bound: float | None


@dataclass(frozen=True)
class MssReport:
    """Empirical mean-square-stability diagnostics of a Monte Carlo summary."""

    mean_decay: bool
    mean_ratio: float
    second_moment_plateau: bool
    plateau_relative_change: float
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


def _draw_chunk(horizon: int, seed: int, lo: int, hi: int, buf: np.ndarray):
    """Each trial's normals in the documented order, as views of buf.

    Row j - lo of the trial-major buffer buf, shape (hi-lo, 2*horizon+2, n),
    gets trial j's z0, z1, zw0 and zw1 back to back, filled by one
    standard_normal call from the PCG64 state that
    default_rng(SeedSequence(entropy=seed, spawn_key=(j,))) starts in.
    """
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


# the loop raises at its first overflow, so numpy's warnings about it are
# redundant; finite paths can still overflow the sums, and combine raises on those
@np.errstate(over="ignore", invalid="ignore")
def _step_block(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec, horizon: int,
                seed: int, lo: int, hi: int, discounted: bool,
                stored: bool = False) -> tuple[BatchResult | None, BlockSums]:
    """Draw, step and reduce trials lo..hi-1 in new arrays: return their
    BatchResult if stored, else None, and their BlockSums.

    State k goes to row k % rows of the states: horizon+1 rows when stored,
    else 2, beside which only the estimate and the stage costs are kept.
    The loop sums states k and k+1, for k even and at the horizon, from a
    contiguous copy of the pair: einsum gives a state the same bits in any
    contiguous stack of two or more rows, but not in a single row.

    A one-trial block steps a copy of its trial beside it: alone it would
    take numpy's matrix-vector products, whose sums can differ in the last
    bits from a wider block's.  Its results and sums come from contiguous
    copies of its first column, as a strided one differs too.
    """
    n, b = model.n, hi - lo
    width, rows = max(b, 2), horizon + 1 if stored else 2
    draws = np.empty((width, 2 * horizon + 2, n))
    states, stage = np.empty((rows, 2 * n, width)), np.empty((horizon, width))
    paths = [np.empty((horizon + 1, n, width)), np.empty((horizon, model.m1, width)),
             np.empty((horizon, model.m2, width)), np.empty((horizon, n, width)),
             np.empty((horizon, n, width))] if stored else []
    z0, z1, zw0, zw1 = _draw_chunk(horizon, seed, lo, hi, draws)
    draws[b:] = draws[0]  # the copy of a one-trial block; else no row
    lx0 = psd_factor(model.sigma_x0)
    lx1 = psd_factor(model.sigma_x1)
    lw0 = psd_factor(model.sigma_w0)
    lw1 = psd_factor(model.sigma_w1)
    sum_state, sum_sq = np.empty((horizon + 1, 2 * n)), np.empty(horizon + 1)

    states[0, :n] = model.xbar0[:, None] + lx0 @ z0
    states[0, n:] = model.xbar1[:, None] + lx1 @ z1
    hat = np.repeat(model.xbar1[:, None], width, axis=1)
    if stored:
        paths[0][0] = hat
    # a non-finite state or estimate makes its step's controls and stage cost
    # non-finite, so states are checked only at the horizon, where none is read
    for k in range(horizon):
        xs, nxt = states[k % rows], states[(k + 1) % rows]
        cur0, cur1 = xs[:n], xs[n:]
        uk0, uk1, u1hat = controls(policy.at(k), cur0, cur1, hat)
        us = np.vstack([uk0, uk1])
        stage[k] = (np.einsum("ib,ib->b", xs, cost.q @ xs)
                    + np.einsum("ib,ib->b", us, cost.r @ us))
        if not np.isfinite(stage[k]).all():
            break
        wk0 = lw0 @ zw0[k]
        wk1 = lw1 @ zw1[k]
        nxt[:n], nxt[n:] = step(model, cur0, cur1, uk0, uk1, wk0, wk1)
        hat = advance(model, hat, cur0, uk0, u1hat)
        if stored:
            x1hat, u0, u1, w0, w1 = paths
            x1hat[k + 1], u0[k], u1[k], w0[k], w1[k] = hat, uk0, uk1, wk0, wk1
        if k % 2 == 0 or k + 1 == horizon:
            pair = states[[k % rows, (k + 1) % rows], :, :b]  # a contiguous copy
            sum_state[k:k + 2] = pair.sum(axis=2)
            sum_sq[k:k + 2] = np.einsum("kib,kib->k", pair, pair)
    else:
        k = horizon
    if k < horizon or not (np.isfinite(states[k % rows]).all() and np.isfinite(hat).all()):
        raise SimulationDiverged(f"trial block {lo}..{hi - 1} truncated at step {k}; "
                                 f"closed loop is destabilizing")
    states, stage, *paths = (np.ascontiguousarray(a[..., :b]) for a in (states, stage, *paths))
    sums = BlockSums(costs=_pathwise_costs(stage, states[horizon % rows], cost, discounted),
                     sum_state=sum_state, sum_sq=sum_sq,
                     stage_tail=float(stage[-max(1, horizon // 10):].mean(axis=1).max()))
    return BatchResult(states, *paths, stage, lo) if stored else None, sums


def block_bounds(horizon: int, trials: int) -> list[tuple[int, int]]:
    """The (lo, hi) trial ranges of consecutive CHUNK-wide blocks of 0..trials-1."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 to simulate, got {horizon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1 to simulate, got {trials}")
    if trials > 2 ** 32:
        raise ValueError(f"trial indices are one 32-bit spawn-key word; {trials} trials exceed 2**32")
    return [(lo, min(lo + CHUNK, trials)) for lo in range(0, trials, CHUNK)]


def simulate_batch(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
                   horizon: int, seed: int, trials: int) -> BatchResult:
    """Trials 0..trials-1 as one stored block, with every path kept."""
    block_bounds(horizon, trials)  # raises on a run it cannot simulate
    return _step_block(model, policy, cost, horizon, seed, 0, trials, False, True)[0]


def simulate(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
             horizon: int, seed: int) -> SimulationTrace:
    """Trial 0's paths, as views of a one-trial batch."""
    batch = simulate_batch(model, policy, cost, horizon, seed, 1)
    return SimulationTrace(*(getattr(batch, name)[:, :, 0]
                             for name in ("x0", "x1", "x1hat", "u0", "u1")))


def _pathwise_costs(stage: np.ndarray, last: np.ndarray, cost: CostSpec,
                    discounted: bool) -> np.ndarray:
    horizon = stage.shape[0]
    if discounted:
        weights = cost.gamma ** np.arange(horizon)
        return weights @ stage
    total = stage.sum(axis=0)
    if cost.p_terminal is not None:
        total = total + np.einsum("ib,ib->b", last, cost.p_terminal @ last)
    return total


@dataclass(frozen=True, eq=False)
class BlockSums:
    """One trial block's share of a summary: what combine adds up in trial order."""

    costs: np.ndarray
    sum_state: np.ndarray
    sum_sq: np.ndarray
    stage_tail: float


@np.errstate(over="ignore", invalid="ignore")
def combine(sums, cost: CostSpec, discounted: bool) -> MonteCarloSummary:
    """Add consecutive blocks' BlockSums, in trial order, into a summary.

    Sums accumulate block by block and the stage-cost tail behind the
    truncation bound is the largest per-block tail mean, so the summary
    depends on the split; monte_carlo's blocks are CHUNK trials wide.
    Finite paths can still overflow the sums, so a summary with a non-finite
    number raises SimulationDiverged, without numpy's overflow warnings.
    """
    require_gamma(cost, discounted)
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
    # one trial has no sample spread to estimate the error from
    se = float(costs.std(ddof=1) / np.sqrt(trials)) if trials > 1 else None
    mean_state = sum_state / trials
    mean_norm = np.linalg.norm(mean_state, axis=1)
    second_moment = sum_sq / trials
    truncation_bound = None
    if discounted:
        truncation_bound = cost.gamma ** horizon / (1.0 - cost.gamma) * stage_tail
    numbers = (mean_cost, se or 0.0, mean_state, mean_norm, second_moment,
               truncation_bound or 0.0)
    if not all(np.isfinite(x).all() for x in numbers):
        raise SimulationDiverged(f"summary of trials 0..{trials - 1} is not finite; "
                                 f"closed loop is destabilizing")
    return MonteCarloSummary(trials=trials, mean_cost=mean_cost, standard_error=se,
                             mean_state=mean_state, mean_norm=mean_norm,
                             second_moment=second_moment,
                             truncation_bound=truncation_bound)


def _cpus() -> int:
    """The number of CPUs this process may run on (Linux only)."""
    return len(os.sched_getaffinity(0))


def _serve(task, blocks, conn) -> None:
    """A worker: run task(*block) for its blocks in order, up to the first
    exception, and send (results, that exception or None) once on conn."""
    results, exc = [], None
    try:
        for block in blocks:
            results.append(task(*block))
    except Exception as error:
        exc = error
    conn.send((results, exc))


def _run_blocks(task, blocks) -> list:
    """[task(*block) for block in blocks], computed in forked worker processes.

    The blocks are cut into share = min(cpus, blocks) contiguous runs of
    near-equal length, and one worker is forked per run.  It steps its run
    in order and sends its results once, and this process only waits.  With
    a share of one, off Linux, where fork is not safe to use, or while
    another thread's fan-out runs, every block runs in this process, in
    order, and no process is started.

    The exception of the first failing block in block order is raised; the
    blocks before it all run, the ones after it may not.  Every worker is
    gone when the call returns or raises.
    """
    share = min(_cpus(), len(blocks)) if sys.platform == "linux" else 1
    if share == 1 or not _FAN_OUT.acquire(blocking=False):
        return [task(*block) for block in blocks]
    # imported here, so that a run that starts no process does not pay for it
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    cuts = [len(blocks) * i // share for i in range(share + 1)]
    workers, ends, results = [], [], []
    try:
        for lo, hi in zip(cuts, cuts[1:]):
            conn, far = ctx.Pipe(duplex=False)
            ends.append(conn)
            # closed here once the worker holds it, so a later worker does
            # not, and a worker's exit ends its conn
            with far:
                proc = ctx.Process(target=_serve, args=(task, blocks[lo:hi], far))
                proc.start()
            workers.append(proc)
        for conn in ends:
            try:
                run, exc = conn.recv()
            except EOFError:
                raise RuntimeError("a worker exited before it returned its block") from None
            if exc is not None:
                raise exc
            results += run
    except BaseException:
        for proc in workers:
            proc.terminate()
        raise
    finally:
        for conn in ends:
            conn.close()
        for proc in workers:
            proc.join()
        _FAN_OUT.release()
    return results


def monte_carlo(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
                horizon: int, seed: int, trials: int,
                discounted: bool = False) -> MonteCarloSummary:
    """Streaming Monte Carlo: keeps accumulators, never the paths.

    Each CHUNK-wide block is drawn, stepped with two state rows and reduced
    by _step_block, in a forked worker or, with one run, in this process.
    The loop reduces stored blocks the same way, so the summary equals
    combine over stored CHUNK-wide blocks bit for bit, and aggregation is a
    deterministic reduction in trial order, so the result for a given
    (seed, trials) pair is reproducible.  A discounted run without
    cost.gamma raises ValueError before any block is drawn.
    """
    require_gamma(cost, discounted)
    blocks = [(model, policy, cost, horizon, seed, lo, hi, discounted)
              for lo, hi in block_bounds(horizon, trials)]
    return combine((sums for _, sums in _run_blocks(_step_block, blocks)), cost, discounted)


def mss_diagnostics(summary: MonteCarloSummary) -> MssReport:
    """Mean-decay and second-moment-plateau flags per the MSS definition.

    The mean test asks whether the final mean norm fell to at most
    MEAN_DECAY_FRACTION of the initial one (or stayed negligible
    throughout).  The plateau test asks whether the second moment changed
    by less than 1% relative over the last 20% of the steps; a second
    moment that has decayed to zero counts as plateaued at zero.
    """
    initial = float(summary.mean_norm[0])
    final = float(summary.mean_norm[-1])
    if initial < 1e-12:
        mean_decay = final < 1e-9
        ratio = 0.0 if mean_decay else np.inf
    else:
        ratio = final / initial
        mean_decay = ratio <= MEAN_DECAY_FRACTION
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
                     mss=bool(mean_decay and plateau))
