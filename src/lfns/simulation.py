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

One step loop serves two routes.  The stored route keeps every path in a
stacked (horizon+1, 2n, trials) states array, of which x0 and x1 are
views: simulate_batch runs all its trials as one block, simulate is its
first trial, and the CLI's traces store one CHUNK-wide block at a time.
The reduce-only route keeps the draws, the stage costs and the last two
states: monte_carlo steps CHUNK-wide blocks in arrays of their own, freed
after each block, so a process's memory is 8*CHUNK*(2n(horizon+1) + 4n +
horizon) bytes of buffers whatever the number of trials.  On both routes
the loop sums each block's states and their squares as it steps, and
monte_carlo and the CLI's traces combine those BlockSums in trial order.

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
from .model import CostSpec, LfnsModel, step

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


def _block_arrays(n: int, horizon: int, b: int, rows: int) -> list[np.ndarray]:
    """A b-trial block's new draw buffer (b, 2*horizon+2, n), stacked states
    (rows, 2n, b) and stage costs (horizon, b)."""
    shapes = ((b, 2 * horizon + 2, n), (rows, 2 * n, b), (horizon, b))
    return [np.empty(shape) for shape in shapes]


# the loop raises at its first overflow, so numpy's warnings about it are
# redundant; finite paths can still overflow the sums, and combine raises on those
@np.errstate(over="ignore", invalid="ignore")
def _step_block(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec, horizon: int,
                seed: int, lo: int, hi: int, discounted: bool, arrays, paths=None) -> BlockSums:
    """Draw and step trials lo..hi-1 in arrays, _block_arrays' three for
    b = hi-lo, and return their BlockSums.

    State k goes to row k % rows of the states: all of them with horizon+1
    rows, the last two with 2.  The stage costs are written in place.  paths
    is None, or the (x1hat, u0, u1, w0, w1) arrays to store those paths in
    as well; without them the running estimate is one (n, b) array.  The
    loop sums states k and k+1, for k even and at the horizon, as the two
    contiguous rows that hold them: einsum gives a state the same bits in
    any contiguous stack of two or more rows, but not in a single row.

    A one-trial block is stepped as two copies of its trial, in arrays of
    its own: one trial alone would take numpy's matrix-vector products,
    whose sums can differ in the last bits from a wider block's.  It sums a
    contiguous copy of its column, as a strided one differs too.
    """
    n, b = model.n, hi - lo
    rows = arrays[1].shape[0]
    if b == 1:
        outs = (*arrays[1:], *(paths or ()))
        arrays = _block_arrays(n, horizon, 2, rows)
        paths = paths and [np.empty(p.shape[:-1] + (2,)) for p in paths]
    draws, states, stage = arrays
    z0, z1, zw0, zw1 = _draw_chunk(horizon, seed, lo, hi, draws)
    draws[b:] = draws[0]  # the copy of a one-trial block; else no row
    lx0 = psd_factor(model.sigma_x0)
    lx1 = psd_factor(model.sigma_x1)
    lw0 = psd_factor(model.sigma_w0)
    lw1 = psd_factor(model.sigma_w1)
    sum_state, sum_sq = np.empty((horizon + 1, 2 * n)), np.empty(horizon + 1)

    states[0, :n] = model.xbar0[:, None] + lx0 @ z0
    states[0, n:] = model.xbar1[:, None] + lx1 @ z1
    hat = np.repeat(model.xbar1[:, None], states.shape[2], axis=1)
    if paths is not None:
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
        if paths is not None:
            x1hat, u0, u1, w0, w1 = paths
            x1hat[k + 1], u0[k], u1[k], w0[k], w1[k] = hat, uk0, uk1, wk0, wk1
        if k % 2 == 0 or k + 1 == horizon:
            held = sorted((k, k + 1), key=lambda j: j % rows)  # in row order
            top = held[0] % rows
            pair = np.ascontiguousarray(states[top:top + 2, :, :b])
            sum_state[held] = pair.sum(axis=2)
            sum_sq[held] = np.einsum("kib,kib->k", pair, pair)
    else:
        k = horizon
    if k < horizon or not (np.isfinite(states[k % rows]).all() and np.isfinite(hat).all()):
        raise SimulationDiverged(f"trial block {lo}..{hi - 1} truncated at step {k}; "
                                 f"closed loop is destabilizing")
    if b == 1:
        for out, full in zip(outs, (*arrays[1:], *(paths or ()))):
            out[...] = full[..., :1]
        states, stage = outs[:2]
    tail = max(1, horizon // 10)
    return BlockSums(costs=_pathwise_costs(stage, states[horizon % rows], cost, discounted),
                     sum_state=sum_state, sum_sq=sum_sq,
                     stage_tail=float(stage[-tail:].mean(axis=1).max()))


def _simulate_chunk(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec, horizon: int,
                    seed: int, lo: int, hi: int,
                    discounted: bool = False) -> tuple[BatchResult, BlockSums]:
    """Trials lo..hi-1 with every path stored, and their BlockSums: the stored route's block."""
    n, b = model.n, hi - lo
    arrays = _block_arrays(n, horizon, b, horizon + 1)
    paths = (np.empty((horizon + 1, n, b)), np.empty((horizon, model.m1, b)),
             np.empty((horizon, model.m2, b)), np.empty((horizon, n, b)),
             np.empty((horizon, n, b)))
    sums = _step_block(model, policy, cost, horizon, seed, lo, hi, discounted, arrays, paths)
    return BatchResult(arrays[1], *paths, stage_cost=arrays[2], trial_offset=lo), sums


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
    """Trials 0..trials-1 as one stored block."""
    block_bounds(horizon, trials)  # raises on a run it cannot simulate
    return _simulate_chunk(model, policy, cost, horizon, seed, 0, trials)[0]


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


def _reduce_block(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec, horizon: int,
                  seed: int, lo: int, hi: int, discounted: bool) -> BlockSums:
    """BlockSums of trials lo..hi-1, stepped with two state rows in new
    arrays: the reduce-only route's block."""
    arrays = _block_arrays(model.n, horizon, hi - lo, 2)
    return _step_block(model, policy, cost, horizon, seed, lo, hi, discounted, arrays)


def monte_carlo(model: LfnsModel, policy: StructuredPolicy, cost: CostSpec,
                horizon: int, seed: int, trials: int,
                discounted: bool = False) -> MonteCarloSummary:
    """Streaming Monte Carlo: keeps accumulators, never the paths.

    The reduce-only route: each CHUNK-wide block draws and steps in arrays
    of its own with two state rows, in a forked worker or, with one run,
    in this process.  The step loop reduces on both routes, so the summary
    equals combine over the stored route's CHUNK-wide blocks bit for bit,
    and aggregation is a deterministic reduction in trial order, so the
    result for a given (seed, trials) pair is reproducible.
    """
    blocks = [(model, policy, cost, horizon, seed, lo, hi, discounted)
              for lo, hi in block_bounds(horizon, trials)]
    return combine(_run_blocks(_reduce_block, blocks), cost, discounted)


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
