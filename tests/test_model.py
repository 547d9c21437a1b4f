import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfns.model import (
    LfnsModel,
    ModelValidationError,
    SpecFormatError,
    assemble_compact,
    eigmin,
    load_model_spec,
    make_cost,
    make_model,
    model_from_dict,
    stacked_moments,
    step,
    validate,
)
from pairs import model_to_dict, save_model_spec


def two_state_model():
    return make_model(
        a00=[[0.9, 0.1], [0.0, 0.8]], a10=[[0.2, 0.0], [0.0, 0.1]],
        a11=[[0.7, 0.0], [0.1, 0.6]],
        b00=[[1.0], [0.0]], b10=[[0.1], [0.0]], b11=[[0.0], [1.0]],
        sigma_w0=[[0.1, 0.0], [0.0, 0.1]], sigma_w1=[[0.2, 0.0], [0.0, 0.2]],
        xbar0=[1.0, -1.0], xbar1=[0.5, 0.0],
        sigma_x0=[[0.3, 0.0], [0.0, 0.3]], sigma_x1=[[0.4, 0.0], [0.0, 0.4]],
    )


def test_defaults_are_zero_moments():
    m = make_model(a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
                   b00=[[1.0]], b10=[[0.0]], b11=[[1.0]])
    assert np.array_equal(m.xbar0, [0.0])
    assert np.array_equal(m.xbar1, [0.0])
    assert np.array_equal(m.sigma_w0, [[0.0]])
    assert np.array_equal(m.sigma_x1, [[0.0]])


def test_covariances_symmetrized_on_construction():
    m = make_model(a00=[[1.0, 0.0], [0.0, 1.0]], a10=np.zeros((2, 2)),
                   a11=np.eye(2), b00=np.eye(2), b10=np.zeros((2, 2)),
                   b11=np.eye(2),
                   sigma_w0=[[1.0, 0.3 + 1e-12], [0.3, 1.0]])
    assert np.array_equal(m.sigma_w0, m.sigma_w0.T)


def test_make_model_rejects_nonsquare_a00():
    with pytest.raises(SpecFormatError):
        make_model(a00=[[1.0, 0.0]], a10=[[0.0]], a11=[[1.0]],
                   b00=[[1.0]], b10=[[0.0]], b11=[[1.0]])


def test_validate_clean_model():
    model = two_state_model()
    cost = make_cost(q=np.eye(4), r=np.eye(2), gamma=0.9)
    assert validate(model, cost) == []


def test_validate_reports_dimension_mismatch():
    model = make_model(a00=np.eye(2), a10=np.zeros((1, 2)), a11=np.eye(2),
                       b00=np.ones((2, 1)), b10=np.zeros((2, 1)),
                       b11=np.ones((2, 1)))
    msgs = validate(model)
    assert any("dimension mismatch" in m and "a10" in m for m in msgs)


def test_validate_reports_indefinite_noise():
    model = make_model(a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
                       sigma_w1=[[-0.5]])
    msgs = validate(model)
    assert any("noise covariance not PSD" in m for m in msgs)


def test_validate_reports_cost_problems():
    model = make_model(a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]])
    cost = make_cost(q=np.eye(2), r=[[1.0, 0.0], [0.0, 0.0]], gamma=1.5)
    msgs = validate(model, cost)
    assert any("R not positive definite" in m for m in msgs)
    assert any("gamma out of range" in m for m in msgs)


def test_validate_reports_indefinite_q_and_terminal():
    model = make_model(a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]])
    cost = make_cost(q=[[1.0, 0.0], [0.0, -1.0]], r=np.eye(2),
                     p_terminal=[[-1.0, 0.0], [0.0, 1.0]])
    msgs = validate(model, cost)
    assert any("Q not positive semidefinite" in m for m in msgs)
    assert any("terminal weight not positive semidefinite" in m for m in msgs)


def test_assemble_compact_zero_blocks_exact():
    model = two_state_model()
    comp = assemble_compact(model)
    n, m1 = model.n, model.m1
    assert comp.a.shape == (2 * n, 2 * n)
    # leader never sees the follower: upper-right blocks are exact zeros
    assert np.all(comp.a[:n, n:] == 0.0)
    assert np.all(comp.b[:n, m1:] == 0.0)
    assert np.array_equal(comp.a[:n, :n], model.a00)
    assert np.array_equal(comp.a[n:, :n], model.a10)
    assert np.array_equal(comp.b[n:, m1:], model.b11)
    sigma_w = stacked_moments(model)[2]
    assert np.array_equal(sigma_w[:n, :n], model.sigma_w0)
    assert np.all(sigma_w[:n, n:] == 0.0)


def test_step_leader_independent_of_follower():
    model = two_state_model()
    x0 = np.array([1.0, 2.0])
    u0 = np.array([0.5])
    w0 = np.array([0.01, -0.02])
    w1 = np.zeros(2)
    n1a, _ = step(model, x0, np.array([5.0, -3.0]), u0, np.array([1.0]), w0, w1)
    n1b, _ = step(model, x0, np.array([-9.0, 4.0]), u0, np.array([-2.0]), w0, w1)
    assert np.array_equal(n1a, n1b)


def test_step_matches_block_recursion():
    model = two_state_model()
    rng = np.random.default_rng(3)
    x0, x1 = rng.standard_normal(2), rng.standard_normal(2)
    u0, u1 = rng.standard_normal(1), rng.standard_normal(1)
    w0, w1 = rng.standard_normal(2), rng.standard_normal(2)
    x0n, x1n = step(model, x0, x1, u0, u1, w0, w1)
    assert np.allclose(x0n, model.a00 @ x0 + model.b00 @ u0 + w0, atol=1e-14)
    assert np.allclose(
        x1n,
        model.a11 @ x1 + model.b11 @ u1 + model.a10 @ x0 + model.b10 @ u0 + w1,
        atol=1e-14)


def test_json_round_trip(tmp_path):
    model = two_state_model()
    cost = make_cost(q=np.eye(4), r=np.diag([1.0, 2.0]), gamma=0.95,
                     p_terminal=2.0 * np.eye(4))
    path = tmp_path / "model.json"
    save_model_spec(path, model, cost)
    loaded, loaded_cost = load_model_spec(path)
    for name in ("a00", "a10", "a11", "b00", "b10", "b11",
                 "sigma_w0", "sigma_w1", "sigma_x0", "sigma_x1",
                 "xbar0", "xbar1"):
        assert np.array_equal(getattr(loaded, name), getattr(model, name))
    assert np.array_equal(loaded_cost.q, cost.q)
    assert np.array_equal(loaded_cost.p_terminal, cost.p_terminal)
    assert loaded_cost.gamma == cost.gamma


def test_round_trip_without_optional_fields(tmp_path):
    model = make_model(a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]])
    cost = make_cost(q=np.eye(2), r=np.eye(2))
    path = tmp_path / "bare.json"
    save_model_spec(path, model, cost)
    _, loaded_cost = load_model_spec(path)
    assert loaded_cost.gamma is None
    assert loaded_cost.p_terminal is None


def test_model_from_dict_missing_key():
    doc = model_to_dict(*_demo_pair())
    del doc["model"]["a11"]
    with pytest.raises(SpecFormatError):
        model_from_dict(doc)


def test_load_model_spec_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all {{{")
    with pytest.raises(SpecFormatError):
        load_model_spec(path)


def _demo_pair():
    model = two_state_model()
    cost = make_cost(q=np.eye(4), r=np.eye(2), gamma=0.9)
    return model, cost


def test_eig_helpers_tolerance_band():
    model = make_model(a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]])

    def faults(q, r):
        return validate(model, make_cost(q=np.diag(q), r=np.diag(r)))

    # a zero eigenvalue is PSD but not PD
    assert faults([0.0, 1.0], [1.0, 1.0]) == []
    assert faults([1.0, 1.0], [0.0, 1.0]) == ["R not positive definite: min eigenvalue 0.000e+00"]
    assert faults([1.0, 1.0], [1e-6, 1.0]) == []
    # a -1e-12 eigenvalue sits inside the PSD tolerance
    assert faults([-1e-12, 1.0], [1.0, 1.0]) == []
    assert faults([-1e-6, 1.0], [1.0, 1.0]) == [
        "Q not positive semidefinite: min eigenvalue -1.000e-06"]
    assert eigmin(np.diag([3.0, -2.0])) == pytest.approx(-2.0)


def test_model_validation_error_carries_violations():
    err = ModelValidationError(["a", "b"])
    assert err.violations == ["a", "b"]


def test_validate_reports_nonfinite_entries():
    model = make_model(a00=[[np.nan]], a10=[[0.0]], a11=[[1.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
                       sigma_w0=[[np.inf]])
    cost = make_cost(q=np.eye(2), r=[[1.0, 0.0], [0.0, -np.inf]])
    msgs = validate(model, cost)
    assert msgs == ["non-finite entry: a00 contains NaN or inf",
                    "non-finite entry: sigma_w0 contains NaN or inf",
                    "non-finite entry: r contains NaN or inf"]
    # a finite entry near the float maximum stays finite through symmetrize
    model = make_model(a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]])
    cost = make_cost(q=[[1e308, 0.0], [0.0, 1.0]], r=np.eye(2))
    assert cost.q[0, 0] == 1e308
    assert validate(model, cost) == []


def _random_spec(rng, n, m1, m2, terminal):
    def psd(k):
        f = rng.standard_normal((k, k))
        return f @ f.T

    model = make_model(a00=rng.standard_normal((n, n)), a10=rng.standard_normal((n, n)),
                       a11=rng.standard_normal((n, n)), b00=rng.standard_normal((n, m1)),
                       b10=rng.standard_normal((n, m1)), b11=rng.standard_normal((n, m2)),
                       sigma_w0=psd(n), sigma_w1=psd(n),
                       xbar0=rng.standard_normal(n), xbar1=rng.standard_normal(n),
                       sigma_x0=psd(n), sigma_x1=psd(n))
    cost = make_cost(q=psd(2 * n), r=np.eye(m1 + m2) + psd(m1 + m2),
                     p_terminal=psd(2 * n) if terminal else None,
                     gamma=rng.uniform(0.05, 0.95))
    return model, cost


def _random_spec_doc(rng, n, m1, m2, terminal):
    return model_to_dict(*_random_spec(rng, n, m1, m2, terminal))


_SQUARE_ENTRIES = [("model", "a00"), ("model", "sigma_w0"), ("model", "sigma_w1"),
                   ("model", "sigma_x0"), ("model", "sigma_x1"),
                   ("cost", "q"), ("cost", "r"), ("cost", "p_terminal")]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), m1=st.integers(1, 2), m2=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), entry=st.sampled_from(_SQUARE_ENTRIES),
       rows=st.integers(1, 4), cols=st.integers(1, 4))
def test_nonsquare_entry_is_a_spec_error(n, m1, m2, seed, entry, rows, cols):
    # symmetrizing a non-square matrix either fails inside numpy or, for one
    # row or column, broadcasts it into a square one that validates clean
    if rows == cols:
        cols += 1
    rng = np.random.default_rng(seed)
    doc = _random_spec_doc(rng, n, m1, m2, terminal=True)
    section, name = entry
    doc[section][name] = rng.standard_normal((rows, cols)).tolist()
    with pytest.raises(SpecFormatError, match=rf"^{name} must be square, got \({rows}, {cols}\)$"):
        model_from_dict(doc)


def test_every_fault_of_a_spec_in_table_order():
    doc = _random_spec_doc(np.random.default_rng(5), 2, 1, 1, terminal=True)
    doc["model"]["a10"] = [[0.0, 0.0]]
    doc["model"]["sigma_w0"] = [[-1.0, 0.0], [0.0, 1.0]]
    doc["model"]["xbar0"] = [1.0]
    doc["model"]["sigma_x1"] = [[np.nan, 0.0], [0.0, 1.0]]
    doc["cost"]["q"] = np.eye(3).tolist()
    doc["cost"]["r"] = [[1.0, 0.0], [0.0, 0.0]]
    doc["cost"]["p_terminal"] = (-np.eye(4)).tolist()
    doc["cost"]["gamma"] = 1.5
    assert validate(*model_from_dict(doc)) == [
        "non-finite entry: sigma_x1 contains NaN or inf",
        "dimension mismatch: a10 has shape (1, 2), expected (2, 2)",
        "noise covariance not PSD: sigma_w0 has min eigenvalue -1.000e+00",
        "dimension mismatch: xbar0 has shape (1,), expected (2,)",
        "dimension mismatch: q has shape (3, 3), expected (4, 4)",
        "R not positive definite: min eigenvalue 0.000e+00",
        "terminal weight not positive semidefinite: min eigenvalue -1.000e+00",
        "gamma out of range (0, 1): 1.5",
    ]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), m1=st.integers(1, 2), m2=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), terminal=st.booleans(), data=st.data())
def test_validate_rejects_any_injected_nonfinite_value(n, m1, m2, seed, terminal, data):
    doc = _random_spec_doc(np.random.default_rng(seed), n, m1, m2, terminal)
    assert validate(*model_from_dict(doc)) == []
    targets = [("model", f) for f in sorted(doc["model"])]
    targets += [("cost", c) for c in ("q", "r", "p_terminal") if doc["cost"][c] is not None]
    section, name = data.draw(st.sampled_from(targets))
    arr = np.array(doc[section][name], dtype=float)
    arr.flat[data.draw(st.integers(0, arr.size - 1))] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    doc[section][name] = arr.tolist()
    assert validate(*model_from_dict(doc)) == [f"non-finite entry: {name} contains NaN or inf"]


_COVARIANCES = ("sigma_w0", "sigma_w1", "sigma_x0", "sigma_x1")
_FAULTS = ([("indefinite", name) for name in _COVARIANCES + ("q", "p_terminal")]
           + [("singular", "r"), ("range", "gamma")]
           + [("shape", name) for name in ("a10", "a11", "b10", "b11") + _COVARIANCES
              + ("xbar0", "xbar1", "q", "r", "p_terminal")])


@pytest.mark.parametrize("fault, name", _FAULTS)
@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 3), m1=st.integers(1, 2), m2=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), terminal=st.booleans(), data=st.data())
def test_validate_names_exactly_the_injected_fault(fault, name, n, m1, m2, seed, terminal, data):
    terminal = terminal or name == "p_terminal"
    doc = _random_spec_doc(np.random.default_rng(seed), n, m1, m2, terminal)
    assert validate(*model_from_dict(doc)) == []
    section = doc["cost"] if name in ("q", "r", "p_terminal", "gamma") else doc["model"]
    if fault == "range":
        gamma = data.draw(st.floats(max_value=0.0) | st.floats(min_value=1.0))
        section[name] = gamma
        want = f"gamma out of range (0, 1): {gamma}"
    elif fault == "shape":
        arr = np.array(section[name])
        # one more row and column, so covariances stay square and symmetric;
        # b11 gets a row only, since its columns define m2
        grow = [(0, 1), (0, 0)] if name == "b11" else [(0, 1)] * arr.ndim
        section[name] = np.pad(arr, grow).tolist()
        want = f"dimension mismatch: {name} has shape "
    else:
        arr = np.array(section[name])
        # move the smallest eigenvalue to -shift: negative, or exactly zero for R
        shift = 0.0 if fault == "singular" else data.draw(st.floats(1e-6, 10.0))
        section[name] = (arr - (eigmin(arr) + shift) * np.eye(len(arr))).tolist()
        want = {"q": "Q not positive semidefinite", "r": "R not positive definite",
                "p_terminal": "terminal weight not positive semidefinite"}.get(
                    name, f"covariance not PSD: {name} has")
    violations = validate(*model_from_dict(doc))
    assert len(violations) == 1
    assert want in violations[0]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), m1=st.integers(1, 2), m2=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), terminal=st.booleans())
def test_dict_round_trip_is_exact(n, m1, m2, seed, terminal):
    model, cost = _random_spec(np.random.default_rng(seed), n, m1, m2, terminal)
    back, back_cost = model_from_dict(model_to_dict(model, cost))
    for name in ("a00", "a10", "a11", "b00", "b10", "b11", "sigma_w0", "sigma_w1",
                 "sigma_x0", "sigma_x1", "xbar0", "xbar1"):
        assert np.array_equal(getattr(back, name), getattr(model, name))
    assert (back.n, back.m1, back.m2) == (model.n, model.m1, model.m2)
    assert np.array_equal(back_cost.q, cost.q) and np.array_equal(back_cost.r, cost.r)
    if terminal:
        assert np.array_equal(back_cost.p_terminal, cost.p_terminal)
    else:
        assert back_cost.p_terminal is None
    assert back_cost.gamma == cost.gamma
