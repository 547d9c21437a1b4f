"""Planar three-degree-of-freedom vehicle layer for two-agent tracking.

Vehicle motion splits into world-frame kinematics eta' = R(psi) nu and a
body-frame force balance M nu' + C(nu) nu + D(nu) nu = tau, with
eta = (x, y, psi) and nu = (surge, sway, yaw rate).  Sampling turns the
tracking error z = (eta - eta_d, velocity error) into a double-integrator
model driven by an abstract input u_z; feedback linearization maps u_z to
the thrust tau exactly, so thrust selection reduces to linear-quadratic
control of z.  The bundled twelve-state example couples a leader and a
follower vehicle through dense error-model matrices.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .model import CostSpec, LfnsModel, eigmin, model_from_dict

BASIS_TERMS = ("1", "u", "|u|", "v", "|v|", "r", "|r|")


@dataclass(frozen=True, eq=False)
class AuvParams:
    """Inertia plus velocity-dependent coefficient tables.

    coriolis holds (cu, cv, cr): C(nu) is the skew pattern with
    C[0,2] = -cv*v + cr*r and C[1,2] = cu*u.  damping is a (3,3,7)
    table over the basis (1, u, |u|, v, |v|, r, |r|); D(nu) is its
    contraction with that basis vector.
    """

    m: np.ndarray
    coriolis: tuple[float, float, float]
    damping: np.ndarray


@dataclass(frozen=True, eq=False)
class ReferenceTrajectory:
    """Per-channel sinusoid eta_d(k) = amplitude*sin(frequency*k) + offset.

    Defined for any integer k, negative indices included; the force map
    needs eta_d(k-1) already at k = 0.
    """

    amplitude: np.ndarray
    frequency: np.ndarray
    offset: np.ndarray


@dataclass(frozen=True, eq=False)
class AuvExample:
    """Bundled coupled leader-follower setup: error model, cost, reference
    trajectories, sampling period t and initial vehicle states; the vehicle
    data are leader_params() and follower_params()."""

    model: LfnsModel
    cost: CostSpec
    leader_ref: ReferenceTrajectory
    follower_ref: ReferenceTrajectory
    t: float
    leader_eta0: np.ndarray
    leader_nu0: np.ndarray
    follower_eta0: np.ndarray
    follower_nu0: np.ndarray


def make_auv_params(m, coriolis, damping) -> AuvParams:
    m = np.asarray(m, dtype=float)
    damping = np.asarray(damping, dtype=float)
    if m.shape != (3, 3) or damping.shape != (3, 3, 7):
        raise ValueError("inertia must be 3x3 and the damping table (3,3,7)")
    if eigmin(m) <= 0.0:
        raise ValueError("inertia matrix not positive definite")
    if abs(np.linalg.det(m)) < 1e-12:
        raise ValueError("inertia matrix not invertible")
    cu, cv, cr = (float(c) for c in coriolis)
    return AuvParams(m=m, coriolis=(cu, cv, cr), damping=damping)


def make_reference(amplitude, frequency, offset) -> ReferenceTrajectory:
    amp = np.asarray(amplitude, dtype=float)
    freq = np.asarray(frequency, dtype=float)
    off = np.asarray(offset, dtype=float)
    if amp.shape != (3,) or freq.shape != (3,) or off.shape != (3,):
        raise ValueError("reference needs three channels")
    return ReferenceTrajectory(amplitude=amp, frequency=freq, offset=off)


def reference(traj: ReferenceTrajectory, k: int | float) -> np.ndarray:
    return traj.amplitude * np.sin(traj.frequency * k) + traj.offset


def rotation(psi: float) -> np.ndarray:
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _velocity_basis(nu: np.ndarray) -> np.ndarray:
    u, v, r = nu
    return np.array([1.0, u, abs(u), v, abs(v), r, abs(r)])


def eval_coriolis(params: AuvParams, nu) -> np.ndarray:
    u, v, r = np.asarray(nu, dtype=float)
    cu, cv, cr = params.coriolis
    top = -cv * v + cr * r
    return np.array([[0.0, 0.0, top],
                     [0.0, 0.0, cu * u],
                     [-top, -cu * u, 0.0]])


def eval_damping(params: AuvParams, nu) -> np.ndarray:
    return params.damping @ _velocity_basis(np.asarray(nu, dtype=float))


def build_error_dynamics(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Canonical sampled error model: a_z = I6 + t*[[0,I3],[0,0]], b_z = t*[0;I3]."""
    if t <= 0:
        raise ValueError("sampling period must be positive")
    a_z = np.eye(6)
    a_z[:3, 3:] = t * np.eye(3)
    b_z = np.vstack([np.zeros((3, 3)), t * np.eye(3)])
    return a_z, b_z


def h_term(params: AuvParams, rot_now: np.ndarray, rot_prev: np.ndarray,
           nu, t: float) -> np.ndarray:
    """Velocity-dependent bias absorbed by the feedback linearization."""
    nu = np.asarray(nu, dtype=float)
    rate = np.linalg.solve(rot_now, (rot_now - rot_prev) @ nu) / t
    return (params.m @ rate
            - eval_coriolis(params, nu) @ nu
            - eval_damping(params, nu) @ nu)


def _reference_curvature(traj: ReferenceTrajectory, k: int) -> np.ndarray:
    return (reference(traj, k + 1) - 2.0 * reference(traj, k)
            + reference(traj, k - 1))


def force_reconstruction(params: AuvParams, u_z, traj: ReferenceTrajectory,
                         k: int, rot: np.ndarray, h: np.ndarray,
                         t: float) -> np.ndarray:
    """Thrust realizing the commanded error-model input u_z at step k."""
    u_z = np.asarray(u_z, dtype=float)
    m_rinv = params.m @ np.linalg.inv(rot)
    return m_rinv @ u_z - h + m_rinv @ _reference_curvature(traj, k) / t ** 2


def error_model_control(params: AuvParams, tau, traj: ReferenceTrajectory,
                        k: int, rot: np.ndarray, h: np.ndarray,
                        t: float) -> np.ndarray:
    """Inverse of force_reconstruction: the u_z a given thrust realizes."""
    tau = np.asarray(tau, dtype=float)
    rinv_m = rot @ np.linalg.inv(params.m)
    return (rinv_m @ tau - _reference_curvature(traj, k) / t ** 2
            + rinv_m @ h)


def error_state(eta, nu, traj: ReferenceTrajectory, k: int, t: float) -> np.ndarray:
    """Six-state tracking error (position error, velocity error) at step k.

    The velocity channel compares nu against the backward difference of the
    reference, (eta_d(k) - eta_d(k-1))/t, so it is well defined at k = 0.
    """
    eta = np.asarray(eta, dtype=float)
    nu = np.asarray(nu, dtype=float)
    ref_vel = (reference(traj, k) - reference(traj, k - 1)) / t
    return np.concatenate([eta - reference(traj, k), nu - ref_vel])


def nonlinear_step(params: AuvParams, eta, nu, tau, t: float):
    """Forward-Euler step of the vehicle: kinematics then force balance."""
    if t <= 0:
        raise ValueError("sampling period must be positive")
    eta = np.asarray(eta, dtype=float)
    nu = np.asarray(nu, dtype=float)
    tau = np.asarray(tau, dtype=float)
    eta_next = eta + t * rotation(eta[2]) @ nu
    load = tau - eval_coriolis(params, nu) @ nu - eval_damping(params, nu) @ nu
    nu_next = nu + t * np.linalg.solve(params.m, load)
    if not (np.all(np.isfinite(eta_next)) and np.all(np.isfinite(nu_next))):
        raise ValueError("vehicle state diverged to non-finite values")
    return eta_next, nu_next


def force_round_trip_error(seed: int) -> float:
    """Largest entry of |error_model_control(force_reconstruction(u_z)) - u_z|
    on the leader vehicle, over 100 random velocities, headings, steps and
    commands u_z drawn from seed."""
    lp = leader_params()
    traj = leader_reference()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        nu = rng.normal(size=3)
        rot = rotation(rng.normal())
        rot_prev = rotation(rng.normal())
        k = int(rng.integers(0, 60))
        u_z = rng.normal(size=3)
        h = h_term(lp, rot, rot_prev, nu, 1.0)
        tau = force_reconstruction(lp, u_z, traj, k, rot, h, 1.0)
        back = error_model_control(lp, tau, traj, k, rot, h, 1.0)
        worst = max(worst, float(np.max(np.abs(back - u_z))))
    return worst


def leader_params() -> AuvParams:
    m = np.array([[37.93, 0.0, 0.0],
                  [0.0, 72.5, -1.93],
                  [0.0, -1.93, 8.33]])
    d = np.zeros((3, 3, 7))
    d[0, 0] = [-13.50, -1.62, -1.62, 0.0, 0.0, 0.0, 0.0]
    d[0, 1] = [0.0, 0.0, 0.0, -4.48, 0.0, 35.50, 0.0]
    d[1, 1] = [-175.21, 0.0, 0.0, 0.0, -1310.0, 0.0, 24.96]
    d[1, 2] = [-25.06, 0.0, 0.0, 0.0, 0.0, 0.0, 0.63]
    d[2, 1] = [23.83, 0.0, 0.0, 0.0, 40.01, 0.0, 0.0]
    d[2, 2] = [31.42, 0.0, 0.0, -93.16, 0.0, 0.0, -94.0]
    return make_auv_params(m=m, coriolis=(37.93, 72.50, 1.93), damping=d)


def follower_params() -> AuvParams:
    m = np.array([[20.74, 0.0, 0.0],
                  [0.0, 38.24, -6.19],
                  [0.0, -8.97, 2.92]])
    d = np.zeros((3, 3, 7))
    d[0, 0] = [-3.00, -3.37, -1.25, 0.0, 0.0, 0.0, 0.0]
    d[0, 1] = [0.0, 0.0, 0.0, -40.99, 0.0, 17.86, 0.0]
    d[1, 1] = [-26.72, 0.0, 0.0, 0.0, -45.29, 0.0, 11.72]
    d[1, 2] = [-12.67, 0.0, 0.0, 0.0, 0.0, 0.0, 0.34]
    d[2, 1] = [26.09, 0.0, 0.0, 0.0, 24.58, 0.0, 0.0]
    d[2, 2] = [35.56, 0.0, 0.0, -0.94, 0.0, 0.0, 0.03]
    return make_auv_params(m=m, coriolis=(20.74, 38.24, 6.19), damping=d)


def leader_reference() -> ReferenceTrajectory:
    return make_reference(amplitude=[6.0, 4.0, 1.0],
                          frequency=[0.2, 0.2, 0.2],
                          offset=[1.2, 1.2, 0.0])


def follower_reference() -> ReferenceTrajectory:
    return make_reference(amplitude=[4.0, 2.0, 2.0],
                          frequency=[0.2, 0.2, 0.2],
                          offset=[1.5, 1.4, 0.0])


def paper_model() -> tuple[LfnsModel, CostSpec]:
    """Twelve-state error model and cost of the bundled example, read from
    the package's data/auv-paper.json (the one copy of these numbers)."""
    doc = json.loads(resources.files("lfns").joinpath("data/auv-paper.json").read_text())
    return model_from_dict(doc)


def bundled_example() -> AuvExample:
    """The coupled leader-follower setup shipped with the package.

    The twelve-state error model (paper_model) uses dense identified
    matrices rather than the canonical build_error_dynamics structure; both
    remain available.  Its initial mean error states are error_state at
    k = 0 of the listed initial positions and velocities; initial
    covariances are zero and both process noises are unit white.
    """
    t = 1.0
    leader_ref = leader_reference()
    follower_ref = follower_reference()
    leader_eta0 = np.array([8.0, 6.0, 1.5])
    leader_nu0 = np.array([1.0, 2.0, 0.5])
    follower_eta0 = np.array([6.0, 4.0, 1.0])
    follower_nu0 = np.array([2.1, 1.4, 0.3])
    model, cost = paper_model()
    return AuvExample(model=model, cost=cost,
                      leader_ref=leader_ref, follower_ref=follower_ref, t=t,
                      leader_eta0=leader_eta0, leader_nu0=leader_nu0,
                      follower_eta0=follower_eta0, follower_nu0=follower_nu0)
