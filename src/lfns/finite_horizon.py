"""Finite-horizon decentralized LQ synthesis.

The gamma-discounted Riccati step for the aggregated system and the backward
recursion built on it, the decentralized policy (one stacked gain array, read
in blocks by split_gain) and its closed loop with the leader's estimator, the
analytic optimal cost, and the per-step stationarity identities used as
verification checks.  The undiscounted recursion starts from the terminal
weight with gamma = 1; the discounted one starts from zero, and its iterates
are the value-iteration sequence of the stationary problem, which iterates
the same step but holds only its latest iterate.

The recursion runs the bare step for k = N..0 (N >= 0); check_iterates then
tests at once whether every step passes check_step (Psi(k) positive definite,
P(k) finite, symmetric and positive semidefinite).  If one fails, check_step
runs step by step in recursion order, as if checked as each was computed.

A run keeps only what the decoupled recursion is: the iterates P and the
gains H.  Psi(k) and L(k) enter only the stationarity identities, and both
are a function of P(k+1) alone, so the step takes them from psi_and_l, and a
solution rebuilds their stacks, which identity(k) reads, by one call of it on
its stacked P: the same operations on the same operands, the same bits.

The iterates from a terminal weight do not depend on N: P(k) of horizon N is
step N + 1 - k from it.  So the module keeps the STORED_RUNS most recently
used runs that raised nothing and passed the stacked test, in step order,
keyed by the bytes of everything the step reads (gamma, a, b, Q, R and the
terminal weight).  A call with a stored key reads its window off the run,
and computes and checks only the steps the run lacks, then stores the longer
run.  So a horizon sweep costs one recursion to its longest horizon, and two
step maps used in turn keep their runs.  A stored step needs no check again:
the stacked test is stricter than check_step, so check_step would pass it
without a warning.  Nor does a stored terminal weight, whose bytes are in the
key, but its asymmetry warning is repeated.  The stacked test runs eigvalsh
only where a Cholesky certificate fails.  Only the backward recursion reads
and writes the store.
"""
from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (PD_TOL, PSD_TOL, CompactModel, CostSpec, LfnsModel, eigmin, eigmins,
                    stacked_moments, symmetrize)

ASYMMETRY_TOL = 1e-8


class RiccatiError(RuntimeError):
    """Recursion broke an assumption (indefinite Lambda, non-finite entries)."""


@dataclass(frozen=True, eq=False)
class FiniteHorizonSolution:
    """Backward-recursion output over the control window k = 0..N.

    p_seq is (N+2, 2n, 2n), the last the terminal weight (zero in the
    discounted variant), and k_seq is (N+1, m1+m2, 2n): read-only reversed
    views of the recursion's run, which later calls with the same step map
    share; copy one before writing to it.  a, b and r are read-only copies of
    the step map's matrices, taken when the solution was made, so editing
    the model or cost in place afterwards moves nothing here.

    lambda_seq (N+1, m1+m2, m1+m2) and l_seq (N+1, m1+m2, 2n) are not kept
    by the run: on first read both are rebuilt by one psi_and_l call on the
    stacked p_seq[1:], the function the step itself calls, so they have the
    step's bits; they are read-only.  identity(k) reads step k's pair off them.
    """

    p_seq: np.ndarray
    k_seq: np.ndarray
    gamma: float | None
    a: np.ndarray
    b: np.ndarray
    r: np.ndarray

    @property
    def discounted(self) -> bool:
        return self.gamma is not None

    @property
    def horizon(self) -> int:
        return len(self.k_seq) - 1

    @cached_property
    def _rebuilt(self) -> tuple[np.ndarray, np.ndarray]:
        gamma = 1.0 if self.gamma is None else self.gamma
        psi, l_mat = psi_and_l(self.a, self.b, self.r, self.p_seq[1:], gamma)
        psi.flags.writeable = l_mat.flags.writeable = False
        return psi, l_mat

    @property
    def lambda_seq(self) -> np.ndarray:
        return self._rebuilt[0]

    @property
    def l_seq(self) -> np.ndarray:
        return self._rebuilt[1]

    def identity(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(Lambda or Psi, L or gamma L) of step k's stationarity identity, off the stacks."""
        l_mat = self.l_seq[k]
        return self.lambda_seq[k], l_mat if self.gamma is None else self.gamma * l_mat


GAIN_BLOCKS = ("k00", "k01", "k10", "k11")

# The structured policy's information pattern that closed_loop reads: for each
# gain block, its control and the block of z = (x0, x1, x1hat) it reads in
# the applied controls and in the conditional-mean controls (u0, u1hat) that
# advance the leader's estimator.  Listed by the block read, the order in
# which closed_loop subtracts their terms.
READS = {"k00": ("u0", "x0", "x0"), "k10": ("u1", "x0", "x0"),
         "k11": ("u1", "x1", "x1hat"), "k01": ("u0", "x1hat", "x1hat")}


def controls(gains, x0, x1, x1hat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u0, u1, u1hat) under gains (k00, k01, k10, k11), the values READS maps, where
    u1hat = -(k10 x0 + k11 x1hat) is u1's conditional mean; of vectors or column-stacked trials."""
    k00, k01, k10, k11 = gains
    lead = k10 @ x0
    return -(k00 @ x0 + k01 @ x1hat), -(lead + k11 @ x1), -(lead + k11 @ x1hat)


def split_gain(k: np.ndarray, n: int, m1: int) -> tuple[np.ndarray, ...]:
    """Views (k00, k01, k10, k11) of the four blocks of a stacked (m1+m2) x 2n
    gain, or of each gain in a stack of them: u0 = -k00 x0 - k01 x1hat and
    u1 = -k10 x0 - k11 x1."""
    return k[..., :m1, :n], k[..., :m1, n:], k[..., m1:, :n], k[..., m1:, n:]


def block_slices(n: int, m1: int) -> dict[str, slice]:
    """Where the blocks x0, x1, x1hat sit in z and u0, u1 sit in u."""
    return {"x0": slice(0, n), "x1": slice(n, 2 * n), "x1hat": slice(2 * n, 3 * n),
            "u0": slice(0, m1), "u1": slice(m1, None)}


def closed_loop(compact: CompactModel, gains) -> tuple[np.ndarray, np.ndarray]:
    """(cu, F) of the loop on z = (x0, x1, x1hat) under gains (k00, k01, k10, k11):
    u = cu z, and z moves to F z plus the plant noise.  Rows x0 and x1 of F
    are the plant under the applied controls; the estimator's row x1hat moves
    by the follower's rows of (a, b) under the conditional-mean controls, with
    x1hat in place of x1.  F starts from a's blocks and subtracts b k terms in READS order.
    """
    n = compact.n
    at = block_slices(n, compact.m1)
    a, b = compact.a, compact.b
    x0, x1, x1hat = at["x0"], at["x1"], at["x1hat"]
    cu = np.zeros((b.shape[1], 3 * n))
    f = np.zeros((3 * n, 3 * n))
    f[x0, x0] = a[x0, x0]
    f[x1, x0] = f[x1hat, x0] = a[x1, x0]
    f[x1, x1] = f[x1hat, x1hat] = a[x1, x1]
    for name, (control, applied, mean) in READS.items():
        k, u = gains[GAIN_BLOCKS.index(name)], at[control]
        cu[u, at[applied]] = -k
        if control == "u0":  # u1 never drives the leader: a structural zero of b
            f[x0, at[applied]] -= b[x0, u] @ k
        drive = b[x1, u] @ k
        f[x1, at[applied]] -= drive
        f[x1hat, at[mean]] -= drive
    return cu, f


@dataclass(frozen=True, eq=False)
class StructuredPolicy:
    """The decentralized feedback as one stacked gain array.

    gains is (m1+m2, 2n) for a constant policy or (steps, m1+m2, 2n) for a
    per-step one; split_gain reads its blocks.  The information pattern is
    structural: there is no gain from x1 into u0, the leader only ever sees
    its estimate.
    """

    gains: np.ndarray
    n: int
    m1: int

    @property
    def is_constant(self) -> bool:
        return self.gains.ndim == 2

    def at(self, k: int) -> tuple[np.ndarray, ...]:
        """The blocks (k00, k01, k10, k11) applied at step k."""
        return split_gain(self.gains if self.is_constant else self.gains[k], self.n, self.m1)

    @staticmethod
    def constant(k00, k01, k10, k11) -> "StructuredPolicy":
        k00, k01, k10, k11 = (np.asarray(b, dtype=float) for b in (k00, k01, k10, k11))
        m1, n = k00.shape
        return StructuredPolicy(np.block([[k00, k01], [k10, k11]]), n, m1)

    @staticmethod
    def from_finite_horizon(solution: FiniteHorizonSolution, model: LfnsModel) -> "StructuredPolicy":
        return StructuredPolicy(np.array(solution.k_seq), model.n, model.m1)

    @staticmethod
    def from_stationary(solution) -> "StructuredPolicy":
        return StructuredPolicy(np.array(solution.h, dtype=float), solution.n, solution.m1)


def _warn_if_asymmetric(k: int, p: np.ndarray, sym: np.ndarray) -> None:
    """Warn at the recursion's caller if P(k) is asymmetric beyond ASYMMETRY_TOL."""
    if np.linalg.norm(p - sym) / max(1.0, float(np.linalg.norm(sym))) > ASYMMETRY_TOL:
        frame, level = sys._getframe(), 1
        while frame.f_code.co_filename == __file__:
            frame, level = frame.f_back, level + 1
        warnings.warn(f"Riccati iterate at step {k} asymmetric beyond tolerance",
                      RuntimeWarning, stacklevel=level)


def check_step(k: int, psi: np.ndarray | None = None, p: np.ndarray | None = None) -> None:
    """The checks of step k in order, each optional argument if given: Psi(k)
    positive definite; P(k), before symmetrization, finite, a warning if it
    is asymmetric beyond ASYMMETRY_TOL, symmetrized P(k) positive
    semidefinite.  A failure raises RiccatiError."""
    if psi is not None and eigmin(psi) < PD_TOL:
        raise RiccatiError(f"Psi({k}) not positive definite")
    if p is None:
        return
    if not np.all(np.isfinite(p)):
        raise RiccatiError(f"non-finite Riccati iterate at step {k}")
    sym = symmetrize(p)
    _warn_if_asymmetric(k, p, sym)
    if eigmin(sym) < PSD_TOL:
        raise RiccatiError(f"Riccati iterate at step {k} lost positive semidefiniteness")


def certified_at_least(m: np.ndarray, bound: float) -> bool:
    """Whether every symmetric matrix M of the finite stack m certainly has
    eigvalsh(M).min() >= bound: np.linalg.cholesky factors each
    M - (bound + margin) I into finite numbers (a NaN pivot does not stop it).
    The margin 2 (d + 2)^2 eps (||M||_F + |bound|) covers the backward error
    of a completed d x d Cholesky factorization, about d (d + 1) eps times
    the norm (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10),
    plus the error of eigvalsh.  False certifies nothing either way."""
    d = m.shape[-1]
    margin = 2 * (d + 2) ** 2 * np.finfo(float).eps * (np.linalg.norm(m, axis=(-2, -1)) + abs(bound))
    shifted = m - (bound + margin)[..., None, None] * np.eye(d)
    try:
        return bool(np.isfinite(np.linalg.cholesky(shifted)).all())
    except np.linalg.LinAlgError:
        return False


def check_iterates(steps, psi: np.ndarray, p: np.ndarray) -> bool:
    """Whether one stacked test passes: every Psi and symmetrized P (hence P)
    finite before either eigenvalue test sees them, skew at most half of
    ASYMMETRY_TOL (stacked norms round differently), every smallest
    eigenvalue clear of PD_TOL or PSD_TOL, by certified_at_least or else by
    eigvalsh.  If not, check_step(steps[i], psi[i], p[i]) runs for each i in
    order."""
    sym = symmetrize(p)
    skew = np.linalg.norm(p - sym, axis=(1, 2)) / np.maximum(1.0, np.linalg.norm(sym, axis=(1, 2)))
    clean = bool(np.isfinite(psi).all() and np.isfinite(sym).all()
                 and (skew <= 0.5 * ASYMMETRY_TOL).all()
                 and (certified_at_least(psi, PD_TOL) or (eigmins(psi) >= PD_TOL).all())
                 and (certified_at_least(sym, PSD_TOL) or (eigmins(sym) >= PSD_TOL).all()))
    if not clean:
        for k, psi_k, p_k in zip(steps, psi, p):
            check_step(k, psi_k, p_k)
    return clean


def psi_and_l(a: np.ndarray, b: np.ndarray, r: np.ndarray, p_next: np.ndarray,
              gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """(Psi(k), L(k)) from P(k+1), or their stacks from a stack: Psi = R + gamma B' P(k+1) B,
    symmetrized, and L = B' P(k+1) A, both through the one product B' P(k+1)."""
    bp = b.T @ p_next
    return symmetrize(r + gamma * (bp @ b)), bp @ a


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
    Psi is factorized, never inverted.  The caller checks Psi positive
    definite: the backward recursion after its loop, value iteration at every
    iteration.  Only a Psi that the solve finds singular is checked here, so
    that a singular Psi that is not positive definite still raises
    RiccatiError at step k; k only labels it.
    """
    a, b = compact.a, compact.b
    psi, l_mat = psi_and_l(a, b, cost.r, p_next, gamma)
    try:
        x = np.linalg.solve(psi, l_mat)
    except np.linalg.LinAlgError:
        check_step(k, psi=psi)
        raise
    p = cost.q + gamma * (a.T @ p_next @ a) - gamma**2 * (l_mat.T @ x)
    return p, psi, l_mat, gamma * x


# The fewest runs that let two step maps used in turn keep theirs: a sweep at
# one gamma beside the undiscounted recursion from the terminal weight.
STORED_RUNS = 2

# Clean runs, most recently used first, each (key, p, h) in step order: p holds
# the symmetrized terminal weight and one iterate per step.
_stored: tuple = ()


def _step_key(compact: CompactModel, cost: CostSpec, p_terminal: np.ndarray, gamma: float) -> tuple:
    """Everything the step map reads: its gamma, and the shape, dtype and bytes of each matrix."""
    return (gamma, *((m.shape, m.dtype.str, m.tobytes())
                     for m in (compact.a, compact.b, cost.q, cost.r, p_terminal)))


def _frozen_copy(m: np.ndarray) -> np.ndarray:
    out = np.array(m)
    out.flags.writeable = False
    return out


def _recursion(compact: CompactModel, cost: CostSpec, n_horizon: int,
               p_terminal: np.ndarray, gamma: float | None) -> FiniteHorizonSolution:
    global _stored
    if n_horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {n_horizon}")
    dim, m = cost.q.shape[0], cost.r.shape[0]
    steps = n_horizon + 1
    step_gamma = 1.0 if gamma is None else gamma
    key = _step_key(compact, cost, p_terminal, step_gamma)
    stored = _stored  # read once, replaced in one assignment: no thread sees it half updated
    # the loop runs on past a non-finite iterate, which check_iterates reports;
    # numpy's warnings about it are redundant
    with np.errstate(over="ignore", invalid="ignore"):
        run = next((entry[1:] for entry in stored if entry[0] == key), None)
        p, h = run or (symmetrize(p_terminal)[None], np.empty((0, m, dim)))
        done = len(h)
        if done:  # a stored terminal weight passed check_step when its run was made
            _warn_if_asymmetric(steps, p_terminal, p[0])
        else:
            check_step(steps, p=p_terminal)
        clean = True
        if done < steps:
            p, h = (np.concatenate([old, np.empty((steps - done, *old.shape[1:]))])
                    for old in (p, h))
            # the new steps' Psi and raw P, kept only for check_iterates
            psi = np.empty((steps - done, m, m))
            raw = np.empty((steps - done, dim, dim))
            stop, error = steps, None
            for j in range(done, steps):  # step j computes P(N - j) from P(N + 1 - j)
                try:
                    raw[j - done], psi[j - done], _, h[j] = riccati_step(
                        compact, cost, p[j], step_gamma, n_horizon - j)
                except (RiccatiError, np.linalg.LinAlgError) as exc:
                    stop, error = j, exc  # a failure at an earlier step comes first
                    break
                p[j + 1] = symmetrize(raw[j - done])
            clean = check_iterates(range(n_horizon - done, n_horizon - stop, -1),
                                   psi[:stop - done], raw[:stop - done])
            if error is not None:
                raise error
            p.flags.writeable = h.flags.writeable = False
        if clean:
            _stored = ((key, p, h), *(entry for entry in stored if entry[0] != key))[:STORED_RUNS]
    return FiniteHorizonSolution(p_seq=p[:steps + 1][::-1], k_seq=h[:steps][::-1], gamma=gamma,
                                 a=_frozen_copy(compact.a), b=_frozen_copy(compact.b),
                                 r=_frozen_copy(cost.r))


def backward_riccati(compact: CompactModel, cost: CostSpec, n_horizon: int) -> FiniteHorizonSolution:
    """Undiscounted backward recursion from the terminal weight: riccati_step
    with gamma = 1 for k = N..0, so Lambda(k) = R + B' P(k+1) B takes Psi's
    place and K(k) = Lambda(k)^{-1} L(k) takes H's."""
    p_t = cost.p_terminal if cost.p_terminal is not None else np.zeros_like(cost.q)
    return _recursion(compact, cost, n_horizon, p_t, None)


def discounted_backward_riccati(compact: CompactModel, cost: CostSpec,
                                n_horizon: int) -> FiniteHorizonSolution:
    """Discounted recursion with terminal weight forced to zero: the Riccati
    step with the cost's gamma for k = N..0 (see riccati_step)."""
    if cost.gamma is None or not (0.0 < cost.gamma < 1.0):
        raise RiccatiError(f"discounted recursion requires gamma in (0, 1), got {cost.gamma}")
    return _recursion(compact, cost, n_horizon, np.zeros_like(cost.q), cost.gamma)


def optimal_cost(solution: FiniteHorizonSolution, model: LfnsModel) -> float:
    """Analytic optimal cost of the solved horizon.

    Undiscounted:  J = E[X(0)' P(0) X(0)] + sum_{k=0}^{N} tr(Sigma_W P(k+1))
    Discounted:    J = E[X(0)' P(0) X(0)] + sum_{k=0}^{N} gamma^{k+1} tr(Sigma_W P(k+1))

    with E[X(0)' P(0) X(0)] = xbar' P(0) xbar + tr(blockdiag(Sigma_x0,
    Sigma_x1) P(0)), the Gaussian second-moment expansion.  The N + 1 noise
    traces come from one product with the stacked P(1..N+1); the sum adds
    them in k order, each times gamma^{k+1} when discounted.
    """
    xbar, sigma_x, sigma_w = stacked_moments(model)
    p0 = solution.p_seq[0]
    total = float(xbar @ p0 @ xbar + np.trace(sigma_x @ p0))
    traces = np.trace(sigma_w @ solution.p_seq[1:], axis1=1, axis2=2)
    gamma = solution.gamma
    for k, term in enumerate(traces.tolist()):
        if gamma is not None:
            term *= gamma ** (k + 1)
        total += term
    return total


def stationarity_residuals(solution, policy: StructuredPolicy, trace) -> tuple[float, float]:
    """Largest residual norms (max_hat, max_tilde) of the two per-step
    stationarity identities along a trace, 0.0 for a trace with no steps; a
    NaN norm at any step makes its maximum NaN.

    The conditional-mean identity uses Uhat = (u0, u1hat) and Xhat =
    (x0, x1hat); the residual identity uses Utilde = (0, u1 - u1hat) and
    Xtilde = (0, x1 - x1hat), where u1hat, from controls, is the
    conditional-mean follower control of the policy the trace ran.  For an
    undiscounted solution the identity matrices are Lambda(k), L(k); for a
    discounted or stationary solution they are Psi, gamma L.

    solution is a FiniteHorizonSolution or a StationarySolution; its
    identity(k) supplies the two identity matrices of step k, and the policy
    the gains the trace applied, which need not be the solved ones.
    """
    x0 = np.asarray(trace.x0, dtype=float)
    x1 = np.asarray(trace.x1, dtype=float)
    x1hat = np.asarray(trace.x1hat, dtype=float)
    u0 = np.asarray(trace.u0, dtype=float)
    u1 = np.asarray(trace.u1, dtype=float)
    steps = u0.shape[0]
    n = x0.shape[1]
    m1 = u0.shape[1]
    hat = np.zeros(steps)
    tilde = np.zeros(steps)
    for k in range(steps):
        lam, l_mat = solution.identity(k)
        u1hat = controls(policy.at(k), x0[k], x1[k], x1hat[k])[2]
        uhat = np.concatenate([u0[k], u1hat])
        utilde = np.concatenate([np.zeros(m1), u1[k] - u1hat])
        xhat = np.concatenate([x0[k], x1hat[k]])
        xtilde = np.concatenate([np.zeros(n), x1[k] - x1hat[k]])
        hat[k] = np.linalg.norm(lam @ uhat + l_mat @ xhat)
        tilde[k] = np.linalg.norm(lam @ utilde + l_mat @ xtilde)
    return (float(hat.max()), float(tilde.max())) if steps else (0.0, 0.0)
