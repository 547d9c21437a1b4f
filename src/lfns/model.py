"""Two-agent leader-follower linear system: types, validation, dynamics.

The follower is driven by the leader state and input, the leader is
autonomous.  Everything downstream (estimation, control synthesis,
simulation) consumes the types defined here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

PSD_TOL = -1e-9
PD_TOL = 1e-9


class SpecFormatError(ValueError):
    """Model-spec document cannot be parsed into model/cost structures."""


class ModelValidationError(ValueError):
    """Model-spec document parsed but failed admissibility validation."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def symmetrize(m: np.ndarray) -> np.ndarray:
    """0.5 M + 0.5 M' of a matrix or of each in a stack; halving first cannot overflow."""
    half = 0.5 * m
    return half + half.swapaxes(-1, -2)


def eigmins(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetrized matrix in a stack."""
    return np.linalg.eigvalsh(symmetrize(m)).min(axis=-1)


def eigmin(m: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized matrix."""
    return float(eigmins(m))


def _array(value, name: str, ndim: int = 2) -> np.ndarray:
    """One spec entry as a float array with ndim dimensions (0 for a scalar)."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(f"{name} is not numeric: {exc}") from exc
    if arr.ndim != ndim:
        kind = ("scalar", "vector", "matrix")[ndim]
        raise SpecFormatError(f"{name} must be a {kind}, got shape {arr.shape}")
    return arr


def _square(value, name: str) -> np.ndarray:
    """A square matrix entry; checked before it is symmetrized, which would
    otherwise broadcast a non-square one or fail inside numpy."""
    arr = _array(value, name)
    if arr.shape[0] != arr.shape[1]:
        raise SpecFormatError(f"{name} must be square, got {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class LfnsModel:
    """Leader (agent 0) and follower (agent 1) dynamics plus noise statistics.

    x0(k+1) = a00 x0(k) + b00 u0(k) + w0(k)
    x1(k+1) = a11 x1(k) + b11 u1(k) + a10 x0(k) + b10 u0(k) + w1(k)

    Both agents share state dimension n; u0 has dimension m1, u1 has m2.
    Initial states are Gaussian with the given means and covariances, and
    the noises w0, w1 are mutually independent zero-mean Gaussians.
    """

    a00: np.ndarray
    a10: np.ndarray
    a11: np.ndarray
    b00: np.ndarray
    b10: np.ndarray
    b11: np.ndarray
    sigma_w0: np.ndarray
    sigma_w1: np.ndarray
    xbar0: np.ndarray
    xbar1: np.ndarray
    sigma_x0: np.ndarray
    sigma_x1: np.ndarray
    n: int
    m1: int
    m2: int


@dataclass(frozen=True, eq=False)
class CompactModel:
    """Aggregated form X(k+1) = a X(k) + b U(k) + W(k).

    a and b are lower block-triangular; the zero blocks are exact zeros,
    they encode that the leader never sees follower state or input.  The
    block sizes n and m1 are carried along so stacked gains can be split
    back into decentralized blocks.
    """

    a: np.ndarray
    b: np.ndarray
    n: int
    m1: int


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Quadratic stage cost X'qX + U'rU with optional terminal weight and discount."""

    q: np.ndarray
    r: np.ndarray
    p_terminal: np.ndarray | None
    gamma: float | None


def require_gamma(cost: CostSpec, discounted: bool) -> None:
    """Raise ValueError if discounted is set and cost has no gamma; cost is read only then."""
    if discounted and cost.gamma is None:
        raise ValueError("discounted aggregation requires cost.gamma")


def make_model(a00, a10, a11, b00, b10, b11, sigma_w0=None, sigma_w1=None,
               xbar0=None, xbar1=None, sigma_x0=None, sigma_x1=None) -> LfnsModel:
    """Build an LfnsModel from array-likes, defaulting moments to zero.

    Raises SpecFormatError for an entry that is not numeric, has the wrong
    number of dimensions, or (a00 and the covariances) is not square.
    Covariances are symmetrized here once; validate() reports semantic
    problems (PSD failures, dimension mismatches between blocks).
    """
    a00 = _square(a00, "a00")
    n = a00.shape[0]
    a10 = _array(a10, "a10")
    a11 = _array(a11, "a11")
    b00 = _array(b00, "b00")
    b10 = _array(b10, "b10")
    b11 = _array(b11, "b11")
    m1 = b00.shape[1]
    m2 = b11.shape[1]

    def cov(value, name):
        if value is None:
            return np.zeros((n, n))
        return symmetrize(_square(value, name))

    def mean(value, name):
        if value is None:
            return np.zeros(n)
        return _array(value, name, 1)

    return LfnsModel(
        a00=a00, a10=a10, a11=a11, b00=b00, b10=b10, b11=b11,
        sigma_w0=cov(sigma_w0, "sigma_w0"), sigma_w1=cov(sigma_w1, "sigma_w1"),
        xbar0=mean(xbar0, "xbar0"), xbar1=mean(xbar1, "xbar1"),
        sigma_x0=cov(sigma_x0, "sigma_x0"), sigma_x1=cov(sigma_x1, "sigma_x1"),
        n=n, m1=m1, m2=m2)


def make_cost(q, r, p_terminal=None, gamma=None) -> CostSpec:
    q = symmetrize(_square(q, "q"))
    r = symmetrize(_square(r, "r"))
    if p_terminal is not None:
        p_terminal = symmetrize(_square(p_terminal, "p_terminal"))
    if gamma is not None:
        gamma = float(_array(gamma, "gamma", 0))
    return CostSpec(q=q, r=r, p_terminal=p_terminal, gamma=gamma)


def validate(model: LfnsModel, cost: CostSpec | None = None) -> list[str]:
    """Admissibility diagnostics; empty list iff the model (and cost) check out.

    Returns human-readable violation strings rather than raising, so a CLI
    can surface all problems at once.
    """
    n, m1, m2 = model.n, model.m1, model.m2
    stacked, controls = (2 * n, 2 * n), (m1 + m2, m1 + m2)
    q, r, p_terminal = (None, None, None) if cost is None else (cost.q, cost.r, cost.p_terminal)
    # name, array, required shape, and the bound and fault text of its
    # definiteness test on the smallest eigenvalue; absent entries are skipped
    rows = [row for row in [
        ("a00", model.a00, (n, n), None, None),
        ("a10", model.a10, (n, n), None, None),
        ("a11", model.a11, (n, n), None, None),
        ("b00", model.b00, (n, m1), None, None),
        ("b10", model.b10, (n, m1), None, None),
        ("b11", model.b11, (n, m2), None, None),
        ("sigma_w0", model.sigma_w0, (n, n), PSD_TOL, "noise covariance not PSD: sigma_w0 has"),
        ("sigma_w1", model.sigma_w1, (n, n), PSD_TOL, "noise covariance not PSD: sigma_w1 has"),
        ("xbar0", model.xbar0, (n,), None, None),
        ("xbar1", model.xbar1, (n,), None, None),
        ("sigma_x0", model.sigma_x0, (n, n), PSD_TOL, "initial covariance not PSD: sigma_x0 has"),
        ("sigma_x1", model.sigma_x1, (n, n), PSD_TOL, "initial covariance not PSD: sigma_x1 has"),
        ("q", q, stacked, PSD_TOL, "Q not positive semidefinite:"),
        ("r", r, controls, PD_TOL, "R not positive definite:"),
        ("p_terminal", p_terminal, stacked, PSD_TOL, "terminal weight not positive semidefinite:"),
    ] if row[1] is not None]
    # a NaN or inf entry also makes every eigenvalue NaN, so the definiteness
    # tests below skip these arrays rather than report a second, garbled fault
    nonfinite = [name for name, arr, *_ in rows if not np.isfinite(arr).all()]
    v = [f"non-finite entry: {name} contains NaN or inf" for name in nonfinite]
    for name, arr, want, bound, fault in rows:
        if arr.shape != want:
            v.append(f"dimension mismatch: {name} has shape {arr.shape}, expected {want}")
        elif fault and name not in nonfinite and not (low := eigmin(arr)) >= bound:
            v.append(f"{fault} min eigenvalue {low:.3e}")
    if cost is not None and cost.gamma is not None and not (0.0 < cost.gamma < 1.0):
        v.append(f"gamma out of range (0, 1): {cost.gamma}")
    return v


def assemble_compact(model: LfnsModel) -> CompactModel:
    """Stack the two agents into the aggregated 2n-state form.

    The upper-right blocks of a and b are exact zeros by construction.
    """
    n, m1, m2 = model.n, model.m1, model.m2
    a = np.zeros((2 * n, 2 * n))
    a[:n, :n] = model.a00
    a[n:, :n] = model.a10
    a[n:, n:] = model.a11
    b = np.zeros((2 * n, m1 + m2))
    b[:n, :m1] = model.b00
    b[n:, :m1] = model.b10
    b[n:, m1:] = model.b11
    return CompactModel(a=a, b=b, n=n, m1=m1)


def stacked_moments(model: LfnsModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moments of the aggregated 2n state: the initial mean (xbar0, xbar1), the
    initial covariance blockdiag(sigma_x0, sigma_x1) and the noise covariance
    blockdiag(sigma_w0, sigma_w1).  The two agents' initial states and noises
    are independent, so the off-diagonal blocks are exact zeros."""
    n = model.n

    def blockdiag(top, bottom):
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = top
        out[n:, n:] = bottom
        return out

    return (np.concatenate([model.xbar0, model.xbar1]),
            blockdiag(model.sigma_x0, model.sigma_x1),
            blockdiag(model.sigma_w0, model.sigma_w1))


def step(model: LfnsModel, x0, x1, u0, u1, w0, w1):
    """One dynamics step of one trial's vectors or of column-stacked trials;
    the leader update never reads x1 or u1."""
    x0_next = model.a00 @ x0 + model.b00 @ u0 + w0
    x1_next = model.a10 @ x0 + model.a11 @ x1 + model.b11 @ u1 + model.b10 @ u0 + w1
    return x0_next, x1_next


_MODEL_FIELDS = ["a00", "a10", "a11", "b00", "b10", "b11", "sigma_w0", "sigma_w1",
                 "xbar0", "xbar1", "sigma_x0", "sigma_x1"]


def model_from_dict(doc: dict) -> tuple[LfnsModel, CostSpec]:
    try:
        mdoc = doc["model"]
        cdoc = doc["cost"]
        model = make_model(**{f: mdoc[f] for f in _MODEL_FIELDS})
        cost = make_cost(cdoc["q"], cdoc["r"], cdoc.get("p_terminal"), cdoc.get("gamma"))
    except (KeyError, TypeError) as exc:
        raise SpecFormatError(f"malformed model spec: {exc}") from exc
    return model, cost


def load_model_spec(path) -> tuple[LfnsModel, CostSpec]:
    """Read and parse a JSON model-spec document, without validating it.

    Raises SpecFormatError when the document cannot be read or parsed; the
    caller runs validate() on the model it will use.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecFormatError(f"cannot read model spec {path}: {exc}") from exc
    return model_from_dict(doc)
