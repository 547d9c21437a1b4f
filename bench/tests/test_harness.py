"""Tests of the benchmark harness itself (not of lfns).

    python3 -m pytest -q bench/tests
"""
import sys

import numpy as np
import pytest

import spans
import workloads
from lfns import cli, oracle, simulation


def make_span(name, start, end, parent=None):
    s = spans.Span(name, parent)
    s.start, s.end = start, end
    return s


def test_self_time_is_duration_minus_child_coverage():
    root = make_span("outer", 0.0, 10.0)
    children = [make_span("a", 1.0, 3.0, root),
                make_span("b", 2.0, 4.0, root),    # overlaps a: covered once
                make_span("c", 6.0, 7.0, root),
                make_span("d", 9.5, 12.0, root)]   # clipped at the parent's end
    assert spans.self_time(root, children) == pytest.approx(10.0 - (3.0 + 1.0 + 0.5))
    assert spans.self_time(root, []) == 10.0


def test_span_set_inclusive_counts_nested_calls_once():
    outer = make_span("f", 0.0, 5.0)
    inner = make_span("f", 1.0, 2.0, outer)     # recursion: already inside outer
    other = make_span("g", 2.0, 4.0, outer)
    s = spans.SpanSet([outer, inner, other])
    assert s.inclusive("f") == 5.0
    assert s.inclusive("g") == 2.0
    assert s.self_time("f") == pytest.approx(5.0 - 3.0 + 1.0)


def _lfns_bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "lfns" or name.startswith("lfns.")
            for attr, value in vars(mod).items() if callable(value)}


def test_traced_calls_nest_and_every_name_is_restored():
    before = _lfns_bindings()
    model, cost = workloads.scalar_demo()
    policy = oracle.StructuredPolicy.constant([[0.5]], [[0.1]], [[0.2]], [[0.4]])
    tracer = spans.Tracer()
    tracer.install()
    patches = tracer.patched_names()
    try:
        # cli and simulation bind the functions they import under their own names
        assert cli.monte_carlo is simulation.monte_carlo
        assert cli.monte_carlo is not before[("lfns.simulation", "monte_carlo")]
        assert cli.gain_gradient is not before[("lfns.oracle", "gain_gradient")]
        oracle.gain_gradient(model, policy, cost, 7, discounted=True)
        simulation.monte_carlo(model, policy, cost, 5, seed=3, trials=4, discounted=True)
    finally:
        tracer.uninstall()
    recorded = tracer.take()
    assert _lfns_bindings() == before
    assert {(m.__name__, a) for m, a, _ in patches} >= {
        ("lfns.cli", "main"), ("lfns.cli", "monte_carlo"), ("lfns.simulation", "monte_carlo"),
        ("lfns.oracle", "exact_cost"), ("lfns.cli", "solve_stationary_riccati")}
    for module, attr, original in patches:
        assert getattr(module, attr) is original

    grad = [s for s in recorded if s.name == "oracle.gain_gradient"]
    exact = [s for s in recorded if s.name == "oracle.exact_cost"]
    assert len(grad) == 1 and len(exact) == 1 + 2 * 4
    assert all(s.parent is grad[0] for s in exact)
    m = spans.unit_metrics(recorded)
    assert m["oracle.exact_cost_calls"] == 9
    assert m["oracle.moment_steps"] == 9 * 7
    assert m["simulation.trial_steps"] == 4 * 5
    assert m["simulation.normals_drawn"] == 4 * 1 * (2 + 2 * 5)
    assert m["oracle.gain_gradient_s"] == pytest.approx(grad[0].duration)
    own = spans.self_time(grad[0], exact)
    assert 0.0 <= own <= grad[0].duration


def test_uninstall_restores_after_a_failing_call():
    before = _lfns_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(Exception):
            oracle.exact_cost(None, None, None, 3)
    finally:
        tracer.uninstall()
    assert _lfns_bindings() == before
    assert [s.name for s in tracer.take()] == ["oracle.exact_cost"]


def test_seed_changes_synth_sweep_inputs():
    def arrays(pairs):
        return [getattr(m, f) for m, _ in pairs for f in ("a00", "b11", "xbar0")]

    same = zip(arrays(workloads.synth_pairs(5, 4)), arrays(workloads.synth_pairs(5, 4)))
    assert all(np.array_equal(a, b) for a, b in same)
    other = zip(arrays(workloads.synth_pairs(5, 4)), arrays(workloads.synth_pairs(6, 4)))
    assert not any(np.array_equal(a, b) for a, b in other)
    assert [m.n for m, _ in workloads.synth_pairs(5, 4)] == [2, 6, 2, 6]


def test_seed_changes_mc_stream_inputs():
    assert workloads.mc_seeds(5) == workloads.mc_seeds(5)
    assert set(workloads.mc_seeds(5)).isdisjoint(workloads.mc_seeds(6))
    first, second = workloads.mc_seeds(5)
    assert first != second
