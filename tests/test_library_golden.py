"""Bit-level regression test of library outputs against recorded digests.

One sha256 per library output: the Monte Carlo engine's arrays and
summaries, the leader-side estimator along criterion 5's inputs, the exact
cost and both of its gradients, every step of the exact moment recursion,
the two Riccati recursions, the stationary solve and its stabilizability
verdict.  A digest covers the dtype, shape and bytes of every
array and scalar the output holds, so any change of a single bit shows.
The digests were recorded with the numpy version stored in the fixture, and
floating-point results may legitimately differ under another one.

Regenerate (only when an output change is intended) with
    PYTHONPATH=src python tests/test_library_golden.py
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from lfns.auv import paper_model
from lfns.estimator import advance
from lfns.finite_horizon import backward_riccati, discounted_backward_riccati, optimal_cost
from lfns import oracle
from lfns.infinite_horizon import (check_stabilizability, solve_stationary_riccati,
                                   stationary_cost)
from lfns.model import assemble_compact, make_cost
from lfns.oracle import (StructuredPolicy, exact_cost, gain_gradient, kalman_oracle,
                         policy_gradient)
from lfns.simulation import monte_carlo, simulate_batch
from pairs import random_pair

FIXTURE = Path(__file__).with_name("library_golden.json")
SEEDS = (0, 2 ** 40 + 5)
MODELS = ("random-n1", "random-n2", "random-n3", "random-n6", "auv-paper")


def _model(name):
    if name == "auv-paper":
        model, cost = paper_model()
        # the bundled cost has no terminal weight; finite mode needs one
        return model, make_cost(cost.q, cost.r, np.eye(2 * model.n), cost.gamma)
    n = int(name.removeprefix("random-n"))
    return random_pair(np.random.default_rng(100 + n), n=n)


def _policy(model, cost, mode, horizon):
    """The solved policy of the mode, run over horizon steps."""
    compact = assemble_compact(model)
    if mode == "finite":
        sol = backward_riccati(compact, cost, horizon - 1)
        return StructuredPolicy.from_finite_horizon(sol, model)
    return StructuredPolicy.from_stationary(solve_stationary_riccati(compact, cost))


def _estimates(model, x0_seq, u0_seq, k10, k11):
    """The leader-side estimate x1hat(0..len(u0_seq)) along the given leader data."""
    out = [model.xbar1]
    for x0, u0 in zip(x0_seq, u0_seq):
        out.append(advance(model, out[-1], x0, u0, -(k10 @ x0 + k11 @ out[-1])))
    return out


def _batch(name, mode):
    model, cost = _model(name)
    horizon = 12
    batch = simulate_batch(model, _policy(model, cost, mode, horizon), cost, horizon,
                           seed=SEEDS[0], trials=1030)
    return [batch.x0, batch.x1, batch.x1hat, batch.u0, batch.u1, batch.w0, batch.w1,
            batch.stage_cost, batch.trial_offset]


def _summary(name, mode):
    model, cost = _model(name)
    horizon = 25
    mc = monte_carlo(model, _policy(model, cost, mode, horizon), cost, horizon,
                     seed=SEEDS[1], trials=1100, discounted=mode == "stationary")
    return [mc.trials, mc.mean_cost, mc.standard_error, mc.mean_state, mc.mean_norm,
            mc.second_moment, mc.truncation_bound]


def _criterion_05():
    # the inputs of the acceptance suite's criterion 5, drawn in its order
    rng = np.random.default_rng(2025)
    out = []
    for _ in range(10):
        n = int(rng.integers(1, 4))
        model, _ = random_pair(rng, n=n)
        k10 = 0.2 * rng.standard_normal((n, n))
        k11 = 0.2 * rng.standard_normal((n, n))
        x0_seq = rng.standard_normal((51, n))
        u0_seq = rng.standard_normal((50, n))
        out += _estimates(model, x0_seq, u0_seq, k10, k11)
        out.append(kalman_oracle(model, x0_seq, u0_seq, follower_gains=(k10, k11)))
    return out


def _gradients(fn, name, mode, horizon):
    model, cost = _model(name)
    policy = _policy(model, cost, mode, horizon)
    discounted = mode == "stationary"
    report = fn(model, policy, cost, horizon, discounted=discounted)
    return [exact_cost(model, policy, cost, horizon, discounted=discounted),
            report.j_value, report.gradient, report.max_relative, *report.argmax,
            report.argmax_value]


def _solution(sol):
    return [*sol.p_seq, *sol.k_seq, *sol.lambda_seq, *sol.l_seq]


def _recursions(name):
    model, cost = _model(name)
    compact = assemble_compact(model)
    finite = backward_riccati(compact, cost, 20)
    discounted = discounted_backward_riccati(compact, cost, 20)
    return [*_solution(finite), optimal_cost(finite, model),
            *_solution(discounted), optimal_cost(discounted, model)]


def _stationary(name):
    model, cost = _model(name)
    sol = solve_stationary_riccati(assemble_compact(model), cost)
    return [sol.p, sol.h, sol.psi, sol.l, sol.iterations, sol.residual,
            stationary_cost(sol, model)]


def _verdict(name):
    model, cost = _model(name)
    compact = assemble_compact(model)
    verdict = check_stabilizability(solve_stationary_riccati(compact, cost), cost, compact)
    return [verdict.spectral_radius, verdict.positive_definite.margin,
            verdict.inequality_holds.margin, verdict.stabilizable, verdict.detail]


def _moments(name, mode, horizon):
    """Every item of the exact moment recursion: (weight, cu, M, F, mu, Sigma) per step."""
    model, cost = _model(name)
    steps = oracle._forward(model, _policy(model, cost, mode, horizon), cost, horizon,
                            discounted=mode == "stationary")
    return [item for step in steps for item in step]


CASES = {
    **{f"simulate_batch {name} {mode}": (lambda name=name, mode=mode: _batch(name, mode))
       for name in MODELS for mode in ("stationary", "finite")},
    **{f"monte_carlo {name} {mode}": (lambda name=name, mode=mode: _summary(name, mode))
       for name in MODELS for mode in ("stationary", "finite")},
    "estimator criterion 5": _criterion_05,
    "policy_gradient random-n2 stationary":
        lambda: _gradients(policy_gradient, "random-n2", "stationary", 40),
    "policy_gradient random-n2 finite":
        lambda: _gradients(policy_gradient, "random-n2", "finite", 15),
    "gain_gradient random-n1 stationary":
        lambda: _gradients(gain_gradient, "random-n1", "stationary", 20),
    "gain_gradient random-n1 finite":
        lambda: _gradients(gain_gradient, "random-n1", "finite", 6),
    "riccati recursions random-n3": lambda: _recursions("random-n3"),
    "riccati recursions auv-paper": lambda: _recursions("auv-paper"),
    "stationary solve random-n3": lambda: _stationary("random-n3"),
    "stationary solve auv-paper": lambda: _stationary("auv-paper"),
    "stabilizability verdict auv-paper": lambda: _verdict("auv-paper"),
    "stabilizability verdict random-n3": lambda: _verdict("random-n3"),
    **{f"moment recursion {name} {mode}":
       (lambda name=name, mode=mode, h=h: _moments(name, mode, h))
       for name in ("auv-paper", "random-n2") for mode, h in (("stationary", 40), ("finite", 15))},
}


def digest(values) -> str:
    """sha256 over the type, shape and bytes of each value, in order."""
    h = hashlib.sha256()
    for value in values:
        if value is None or isinstance(value, str):
            data = repr(value).encode()
            h.update(f"str {len(data)}\n".encode() + data)
            continue
        arr = np.ascontiguousarray(value)
        h.update(f"{arr.dtype.str} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", CASES)
def test_library_output_matches_golden(name):
    fixture = _fixture()
    if fixture["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {fixture['numpy']}, "
                    f"running {np.__version__}")
    assert digest(CASES[name]()) == fixture["outputs"][name]


def test_fixture_lists_every_case():
    assert list(_fixture()["outputs"]) == list(CASES)


if __name__ == "__main__":
    outputs = {}
    for name, case in CASES.items():
        outputs[name] = digest(case())
        print(outputs[name], name, file=sys.stderr)
    FIXTURE.write_text(json.dumps({"numpy": np.__version__, "outputs": outputs}, indent=2)
                       + "\n")
