import json
from importlib import resources

import numpy as np
import pytest

from lfns import auv
from lfns.model import validate
from pairs import model_to_dict


def lqr_gain(a, b, q, r, gamma):
    p = np.array(q, dtype=float)
    for _ in range(5000):
        lam = r + gamma * b.T @ p @ b
        l = b.T @ p @ a
        p_next = q + gamma * a.T @ p @ a - gamma ** 2 * l.T @ np.linalg.solve(lam, l)
        if np.max(np.abs(p_next - p)) < 1e-13:
            p = p_next
            break
        p = p_next
    return gamma * np.linalg.solve(r + gamma * b.T @ p @ b, b.T @ p @ a)


def run_tracking_loop(params, traj, eta, nu, t, steps):
    a_z, b_z = auv.build_error_dynamics(t)
    gain = lqr_gain(a_z, b_z, np.eye(6), np.eye(3), 0.9)
    rot_prev = auv.rotation(eta[2])
    norms = []
    for k in range(steps + 1):
        z = auv.error_state(eta, nu, traj, k, t)
        norms.append(float(np.linalg.norm(z)))
        rot_now = auv.rotation(eta[2])
        h = auv.h_term(params, rot_now, rot_prev, nu, t)
        tau = auv.force_reconstruction(params, -gain @ z, traj, k, rot_now, h, t)
        eta, nu = auv.nonlinear_step(params, eta, nu, tau, t)
        rot_prev = rot_now
    return np.array(norms)


def test_vehicle_parameter_tables_frozen():
    lead = auv.leader_params()
    assert lead.m[0, 0] == 37.93
    assert lead.m[1, 2] == -1.93
    assert lead.coriolis == (37.93, 72.50, 1.93)
    assert np.array_equal(lead.damping[0, 0],
                          [-13.50, -1.62, -1.62, 0.0, 0.0, 0.0, 0.0])
    assert lead.damping[1, 1][4] == -1310.0
    assert lead.damping[2, 2][3] == -93.16
    follow = auv.follower_params()
    assert follow.m[1, 1] == 38.24
    # the inertia table is asymmetric as printed
    assert follow.m[1, 2] == -6.19
    assert follow.m[2, 1] == -8.97
    assert follow.damping[1, 1][4] == -45.29
    assert follow.damping[2, 2][6] == 0.03
    assert auv.BASIS_TERMS == ("1", "u", "|u|", "v", "|v|", "r", "|r|")


def test_make_auv_params_rejects_bad_inertia():
    with pytest.raises(ValueError):
        auv.make_auv_params(np.diag([1.0, 1.0, 0.0]), (1.0, 1.0, 1.0),
                            np.zeros((3, 3, 7)))


def test_rotation_special_angles_and_orthogonality():
    assert np.allclose(auv.rotation(0.0), np.eye(3), atol=1e-15)
    quarter = auv.rotation(np.pi / 2.0)
    assert np.allclose(quarter,
                       [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                       atol=1e-15)
    rng = np.random.default_rng(2)
    for psi in rng.uniform(-10.0, 10.0, size=100):
        r = auv.rotation(psi)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)


def test_error_dynamics_structure():
    a_z, b_z = auv.build_error_dynamics(1.0)
    assert np.array_equal(a_z[:3, 3:], np.eye(3))
    assert np.array_equal(b_z[3:], np.eye(3))
    a_half, b_half = auv.build_error_dynamics(0.5)
    assert np.array_equal(a_half[:3, 3:], 0.5 * np.eye(3))
    assert np.array_equal(b_half[3:], 0.5 * np.eye(3))
    nil = a_z - np.eye(6)
    assert np.array_equal(nil @ nil, np.zeros((6, 6)))
    with pytest.raises(ValueError):
        auv.build_error_dynamics(0.0)


def test_coriolis_is_skew():
    params = auv.leader_params()
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = auv.eval_coriolis(params, rng.standard_normal(3))
        assert np.allclose(c, -c.T, atol=1e-12)


def test_damping_matches_basis_contraction():
    params = auv.follower_params()
    nu = np.array([1.3, -0.4, 0.7])
    basis = np.array([1.0, 1.3, 1.3, -0.4, 0.4, 0.7, 0.7])
    want = params.damping @ basis
    assert np.allclose(auv.eval_damping(params, nu), want, atol=1e-12)


def test_h_term_against_direct_formula():
    params = auv.leader_params()
    rng = np.random.default_rng(8)
    for _ in range(20):
        rot_now = auv.rotation(rng.uniform(-3.0, 3.0))
        rot_prev = auv.rotation(rng.uniform(-3.0, 3.0))
        nu = rng.standard_normal(3)
        t = 0.5
        got = auv.h_term(params, rot_now, rot_prev, nu, t)
        want = (params.m @ np.linalg.inv(rot_now) @ (rot_now - rot_prev) @ nu / t
                - auv.eval_coriolis(params, nu) @ nu
                - auv.eval_damping(params, nu) @ nu)
        assert np.allclose(got, want, atol=1e-10)


def test_force_round_trip_identity():
    params = auv.follower_params()
    traj = auv.follower_reference()
    rng = np.random.default_rng(77)
    for _ in range(100):
        k = int(rng.integers(0, 50))
        rot = auv.rotation(rng.uniform(-3.0, 3.0))
        rot_prev = auv.rotation(rng.uniform(-3.0, 3.0))
        nu = rng.standard_normal(3)
        h = auv.h_term(params, rot, rot_prev, nu, 1.0)
        u_z = rng.standard_normal(3)
        tau = auv.force_reconstruction(params, u_z, traj, k, rot, h, 1.0)
        back = auv.error_model_control(params, tau, traj, k, rot, h, 1.0)
        assert np.max(np.abs(back - u_z)) < 1e-10
        tau2 = auv.force_reconstruction(
            params, auv.error_model_control(params, tau, traj, k, rot, h, 1.0),
            traj, k, rot, h, 1.0)
        assert np.max(np.abs(tau2 - tau)) < 1e-10


def test_force_round_trip_error_is_rounding_only():
    # the leader-vehicle round trip verify reports: seeded, and only rounding
    worst = auv.force_round_trip_error(seed=0)
    assert 0.0 < worst < 1e-10
    assert auv.force_round_trip_error(seed=0) == worst


def test_surge_drag_force_frozen_values():
    # at rest frame, constant reference and zero commanded input the thrust
    # balances drag alone; drag magnitudes come straight from the table
    params = auv.leader_params()
    traj = auv.make_reference([0.0, 0.0, 0.0], [0.2, 0.2, 0.2], [1.0, 1.0, 0.0])
    rot = auv.rotation(0.0)
    for u, want in ((1.0, -16.74), (-1.0, 13.50)):
        nu = np.array([u, 0.0, 0.0])
        h = auv.h_term(params, rot, rot, nu, 1.0)
        tau = auv.force_reconstruction(params, np.zeros(3), traj, 3, rot, h, 1.0)
        assert tau[0] == pytest.approx(want, abs=1e-12)


def test_reference_trajectories_frozen():
    lead = auv.leader_reference()
    assert np.array_equal(lead.amplitude, [6.0, 4.0, 1.0])
    assert np.array_equal(lead.offset, [1.2, 1.2, 0.0])
    follow = auv.follower_reference()
    assert np.array_equal(follow.amplitude, [4.0, 2.0, 2.0])
    assert np.array_equal(follow.offset, [1.5, 1.4, 0.0])
    assert np.array_equal(lead.frequency, [0.2, 0.2, 0.2])
    for k in range(0, 200, 7):
        assert np.all(np.abs(auv.reference(lead, k) - lead.offset)
                      <= lead.amplitude + 1e-12)


def test_error_state_frozen_initial_values():
    lead = auv.error_state([8.0, 6.0, 1.5], [1.0, 2.0, 0.5],
                           auv.leader_reference(), 0, 1.0)
    assert np.allclose(lead, [6.8, 4.8, 1.5,
                              -0.19201598, 1.20532268, 0.30133067], atol=1e-8)
    follow = auv.error_state([6.0, 4.0, 1.0], [2.1, 1.4, 0.3],
                             auv.follower_reference(), 0, 1.0)
    assert np.allclose(follow, [4.5, 2.6, 1.0,
                                1.30532268, 1.00266134, -0.09733866], atol=1e-8)


def test_bundled_example_consistent():
    ex = auv.bundled_example()
    assert ex.t == 1.0
    assert ex.model.n == 6
    assert validate(ex.model, ex.cost) == []
    assert ex.cost.gamma == 0.9
    z0 = auv.error_state(ex.leader_eta0, ex.leader_nu0, ex.leader_ref, 0, ex.t)
    assert np.allclose(ex.model.xbar0, z0, atol=1e-12)
    z1 = auv.error_state(ex.follower_eta0, ex.follower_nu0, ex.follower_ref,
                         0, ex.t)
    assert np.allclose(ex.model.xbar1, z1, atol=1e-12)
    assert np.array_equal(ex.model.sigma_w0, np.eye(6))
    assert np.array_equal(ex.model.sigma_x0, np.zeros((6, 6)))


def test_bundled_example_matches_data_file():
    ex = auv.bundled_example()
    doc = model_to_dict(ex.model, ex.cost)
    data = json.loads(resources.files("lfns").joinpath(
        "data/auv-paper.json").read_text())
    assert doc == data


def test_nonlinear_step_basic_motion():
    params = auv.leader_params()
    eta, nu = auv.nonlinear_step(params, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0], 0.5)
    assert np.array_equal(eta, [0.0, 0.0, 0.0])
    assert np.array_equal(nu, [0.0, 0.0, 0.0])
    # pure surge at zero heading moves straight down the x axis
    eta, _ = auv.nonlinear_step(params, [0.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                                [0.0, 0.0, 0.0], 0.5)
    assert eta[0] == pytest.approx(1.0, abs=1e-15)
    assert eta[1] == 0.0
    with pytest.raises(ValueError):
        auv.nonlinear_step(params, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                           [np.inf, 0.0, 0.0], 0.5)


def test_tracking_loop_from_bundled_start():
    # feedback linearization plus the canonical-gain regulator: a large
    # initial heading error produces a rough transient, then the error
    # settles to a bounded residual well under the starting value
    norms = run_tracking_loop(auv.leader_params(), auv.leader_reference(),
                              np.array([8.0, 6.0, 1.5]),
                              np.array([1.0, 2.0, 0.5]), 1.0, 100)
    assert np.all(np.isfinite(norms))
    assert norms.max() < 1500.0
    assert norms[60:].max() < 8.0
    assert norms[80:].mean() < 3.5


def test_tracking_loop_near_equilibrium_is_linear():
    # constant reference, small offset: the rotation mismatch vanishes
    # quadratically and the loop contracts like its linear model
    traj = auv.make_reference([0.0, 0.0, 0.0], [0.2, 0.2, 0.2], [1.2, 1.2, 0.0])
    norms = run_tracking_loop(auv.leader_params(), traj,
                              np.array([1.6, 0.9, 0.2]), np.zeros(3), 1.0, 40)
    assert norms.max() < 1.0
    assert norms[40] < 1e-10
