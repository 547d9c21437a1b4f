import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lfns import cli, infinite_horizon, simulation
from lfns.cli import main
from lfns.model import make_cost, make_model
from pairs import save_model_spec


def run(argv):
    return main(argv)


def write_spec(path, **overrides):
    fields = dict(a00=[[0.9]], a10=[[0.3]], a11=[[0.8]],
                  b00=[[1.0]], b10=[[0.2]], b11=[[1.0]],
                  sigma_w0=[[0.04]], sigma_w1=[[0.09]],
                  xbar0=[1.0], xbar1=[0.5],
                  sigma_x0=[[0.25]], sigma_x1=[[0.16]])
    fields.update({k: v for k, v in overrides.items() if k in fields})
    model = make_model(**fields)
    cost = make_cost(q=overrides.get("q", np.eye(2)), r=np.eye(2),
                     gamma=overrides.get("gamma", 0.9), p_terminal=np.eye(2))
    save_model_spec(path, model, cost)
    return path


def test_solve_stationary_bundled_gains(tmp_path):
    assert run(["solve", "--model", "auv-paper", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solve-auv-paper-stationary.json").read_text())
    assert doc["config"]["model"] == "auv-paper"
    assert doc["converged"] is True
    assert doc["iterations"] == 39
    h00 = np.asarray(doc["h_blocks"]["h00"])
    assert np.max(np.abs(h00[0] - [-0.50, -0.94, -0.27, 1.48, 0.47, -0.78])) <= 0.01
    assert doc["trace_term"] == pytest.approx(1607.68, abs=0.01)
    assert doc["verdict"]["spectral_radius"] < 1.0
    # the fixed point is PD and the sufficient inequality fails, yet the
    # decentralized closed loop is stable, which is what the verdict reports
    assert doc["verdict"]["positive_definite"] is True
    assert doc["verdict"]["inequality_holds"] is False
    assert doc["verdict"]["stabilizable"] is True


def test_solve_finite_scalar_demo(tmp_path):
    assert run(["solve", "--model", "scalar-demo", "--mode", "finite",
                "--horizon", "1", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solve-scalar-demo-finite.json").read_text())
    assert doc["horizon"] == 1
    assert np.allclose(doc["k0"], 0.6 * np.eye(2), atol=1e-9)
    assert doc["analytic_cost"] == pytest.approx(3.3, abs=1e-9)
    assert len(doc["gain_sequence"]) == 2


def test_unreadable_spec_exits_1(tmp_path):
    assert run(["solve", "--model", str(tmp_path / "missing.json"),
                "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv, spec, message", [
    (["solve"], {"a10": [[0.3, 0.0]]}, "validation: "),
    (["solve", "--gamma", "1.5"], None, "validation: gamma out of range (0, 1): 1.5"),
    (["solve"], {"gamma": None}, "validation: stationary mode needs a discount factor"),
    (["converge"], {"gamma": None}, "validation: convergence sweep needs a discount factor"),
], ids=["ragged-a10", "gamma-out-of-range", "solve-without-gamma", "converge-without-gamma"])
def test_invalid_model_exits_2(tmp_path, capsys, argv, spec, message):
    model = "scalar-demo" if spec is None else str(write_spec(tmp_path / "bad.json", **spec))
    out = tmp_path / "out"
    assert run(argv + ["--model", model, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_nonfinite_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    write_spec(path, a00=[[float("nan")]])
    assert run(["solve", "--model", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "validation: non-finite entry: a00" in err
    assert "diverged" not in err


@pytest.mark.parametrize("section, key, value, message", [
    ("model", "a00", "abc", "is not numeric: "),
    ("model", "sigma_w0", [[0.1], [0.2, 0.3]], "is not numeric: "),
    ("cost", "gamma", "x", "is not numeric: "),
    ("cost", "q", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "must be square, got (2, 3)"),
    ("cost", "q", [[1.0, 1.0]], "must be square, got (1, 2)"),
    ("model", "sigma_w0", [[0.1, 0.2]], "must be square, got (1, 2)"),
    ("model", "xbar0", [[1.0]], "must be a vector, got shape (1, 1)"),
    ("cost", "gamma", [0.9], "must be a scalar, got shape (1,)"),
], ids=["string-matrix", "ragged-covariance", "string-gamma", "nonsquare-q", "row-q",
        "row-covariance", "matrix-mean", "list-gamma"])
def test_malformed_spec_entry_exits_1(tmp_path, capsys, section, key, value, message):
    path = write_spec(tmp_path / "spec.json")
    doc = json.loads(path.read_text())
    doc[section][key] = value
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["solve", "--model", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"spec error: {key} {message}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "simulate", "verify"])
def test_csv_format_rejected_where_unsupported(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--model", "scalar-demo", "--format", "csv",
             "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag, value", [
    ("solve", "--trials", "5"), ("converge", "--seed", "7"), ("solve", "--format", "json")])
def test_flag_the_command_does_not_read_is_rejected(tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        run([command, "--model", "scalar-demo", flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# a numpy overflow warning would be a stderr line of its own
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, spec, message", [
    (["solve"], dict(a00=[[2.0]], b00=[[0.0]], b10=[[0.0]]),
     "solver diverged: stationary Riccati iteration diverged after "),
    # the undiscounted recursion has no divergence threshold: P grows like 9^k
    # until an iterate overflows
    (["solve", "--mode", "finite", "--horizon", "400"],
     dict(a00=[[3.0]], b00=[[0.0]], gamma=None),
     "solver failed: non-finite Riccati iterate at step 78"),
    # a finite weight whose first iterate's norm overflows
    (["solve"], dict(q=[[1e308, 0.0], [0.0, 1.0]]),
     "solver diverged: stationary Riccati iteration diverged after 1 iterations "
     "(iterate norm inf)"),
], ids=["stationary", "finite", "huge-finite-q"])
def test_divergent_model_exits_3(tmp_path, capsys, argv, spec, message):
    path = write_spec(tmp_path / "runaway.json", **spec)
    assert run(argv + ["--model", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(message)
    assert [p.name for p in tmp_path.iterdir()] == ["runaway.json"]


# a numpy overflow warning would be a stderr line of its own
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a11, argv, out, message", [
    (1.2, ["simulate", "--trials", "2", "--horizon", "4500"], ".",
     "simulation diverged: trial block 0..1 truncated at step "),
    # the paths stay finite, but the summary's standard error overflows
    (3.0, ["verify"], ".", "simulation diverged: summary of trials 0..1999 is not finite; "),
    (3.0, ["simulate", "--horizon", "200", "--trials", "100"], ".",
     "simulation diverged: summary of trials 0..99 is not finite; "),
    # the stage cost of step 155 overflows while the states are still finite
    (10.0, ["simulate", "--horizon", "200", "--trials", "3"], ".",
     "simulation diverged: trial block 0..2 truncated at step 155; "),
    (10.0, ["verify"], ".", "exact moments diverged: closed-loop moments non-finite at step 155"),
    # the directory levels the run created go too
    (1.2, ["simulate", "--trials", "2", "--horizon", "4500"], "new",
     "simulation diverged: trial block 0..1 truncated at step "),
    # two blocks in two worker processes: the first block's divergence is reported
    (10.0, ["simulate", "--horizon", "200", "--trials", "1100"], "new/sub",
     "simulation diverged: trial block 0..1023 truncated at step 154; "),
], ids=["error-1.2-simulate", "error-3-verify", "error-3-simulate", "error-10-simulate",
        "error-10-verify", "error-1.2-simulate-new-out", "error-10-simulate-workers"])
def test_diverging_simulation_exits_3(tmp_path, capfd, monkeypatch, a11, argv, out, message):
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    # A - BH is stable, but the follower's estimation error grows like a11^k
    path = tmp_path / "error-diverges.json"
    write_spec(path, a00=[[0.5]], a10=[[0.0]], a11=[[a11]], b00=[[1.0]], b10=[[1.0]],
               b11=[[0.01]], sigma_w0=[[0.1]], sigma_w1=[[0.1]], sigma_x1=[[0.25]])
    assert run(argv + ["--model", str(path), "--out", str(tmp_path / out)]) == 3
    # captured at the file descriptor, so a worker's stderr counts too
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(message)
    # no artifact, part file or created directory is left, and no traces with
    # NaN/Infinity tokens, which are not JSON
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error-diverges.json"]


def _fail(*args, **kwargs):
    raise OSError("disk full")


def _torn_json(path, doc):
    with open(path, "w") as fh:
        fh.write('{"ver')
    _fail()


@pytest.mark.parametrize("writer, fake, argv", [
    # the traces and the summary are written before the curves raise
    ("_write_csv", _fail, ["simulate", "--trials", "4", "--horizon", "5"]),
    ("_write_json", _torn_json, ["solve"]),
], ids=["simulate-curves-raise", "solve-json-torn"])
def test_command_that_raises_while_writing_leaves_nothing(tmp_path, monkeypatch, writer,
                                                          fake, argv):
    monkeypatch.setattr(cli, writer, fake)
    with pytest.raises(OSError, match="disk full"):
        run(argv + ["--model", "scalar-demo", "--out", str(tmp_path / "new")])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, trials", [([], 2000), (["--trials", "1"], 1)],
                         ids=["default", "one"])
def test_verify_runs_the_trials_it_echoes(tmp_path, monkeypatch, argv, trials):
    calls = []
    monte_carlo = cli.monte_carlo
    monkeypatch.setattr(cli, "monte_carlo", lambda *args, **kwargs: calls.append(
        kwargs["trials"]) or monte_carlo(*args, **kwargs))
    run(["verify", "--model", "scalar-demo", *argv, "--out", str(tmp_path)])
    assert calls == [trials]
    doc = json.loads((tmp_path / "verify-scalar-demo.json").read_text())
    assert doc["config"]["trials"] == trials


def test_bad_usage_exits_2(tmp_path):
    assert run(["simulate", "--model", "scalar-demo", "--trials", "0",
                "--out", str(tmp_path)]) == 2
    # the bundled marine model carries no terminal weight
    assert run(["solve", "--model", "auv-paper", "--mode", "finite",
                "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, out):
    (tmp_path / "taken").write_text("keep")
    assert run(["solve", "--model", "scalar-demo", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"output directory {tmp_path / out}: {tmp_path / 'taken'} "
                   f"is not a directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert (tmp_path / "taken").read_text() == "keep"


@pytest.mark.parametrize("argv, message", [
    (["converge", "--mode", "finite"],
     "converge sweeps the discounted recursion; it has no --mode finite"),
    (["solve", "--horizon", "30"], "solve --mode stationary takes no --horizon"),
    (["verify", "--mode", "stationary", "--horizon", "30"],
     "verify --mode stationary takes no --horizon"),
    (["solve", "--mode", "finite", "--horizon", "9", "--gamma", "0.5"],
     "solve --mode finite takes no --gamma"),
    (["simulate", "--mode", "finite", "--gamma", "0.5"], "simulate --mode finite takes no --gamma"),
    (["verify", "--mode", "finite", "--gamma", "0.5"], "verify --mode finite takes no --gamma"),
], ids=["converge-finite", "solve-stationary-horizon", "verify-stationary-horizon",
        "solve-finite-gamma", "simulate-finite-gamma", "verify-finite-gamma"])
def test_ignored_flag_exits_2(tmp_path, capsys, argv, message):
    assert run(argv + ["--model", "scalar-demo", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_trials_beyond_spawn_keys_exit_2(tmp_path, capsys, command):
    assert run([command, "--model", "scalar-demo", "--mode", "finite", "--horizon", "3",
                "--trials", str(2 ** 32 + 1), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "trials must be <= 2**32, one 32-bit spawn-key word per trial"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    assert run([command, "--model", "scalar-demo", "--seed", "-1",
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["seed must be >= 0"]
    assert list(tmp_path.iterdir()) == []


def test_stationary_simulate_needs_a_step(tmp_path, capsys):
    assert run(["simulate", "--model", "scalar-demo", "--mode", "stationary",
                "--horizon", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "simulate --mode stationary needs horizon >= 1"]
    assert list(tmp_path.iterdir()) == []
    # a finite-mode horizon counts Riccati steps, and N=0 still simulates one
    assert run(["simulate", "--model", "scalar-demo", "--mode", "finite",
                "--horizon", "0", "--out", str(tmp_path)]) == 0


def test_simulate_outputs_self_describing(tmp_path, monkeypatch):
    blocks = []
    simulate_chunk = simulation._simulate_chunk
    monkeypatch.setattr(simulation, "_simulate_chunk",
                        lambda *args: blocks.append(args[-2:]) or simulate_chunk(*args))
    assert run(["simulate", "--model", "scalar-demo", "--horizon", "20",
                "--trials", "8", "--seed", "3", "--out", str(tmp_path)]) == 0
    # each trial runs once, for the traces and the summary alike
    assert blocks == [(0, 8)]
    lines = (tmp_path / "simulate-scalar-demo-traces.jsonl").read_text().splitlines()
    meta = json.loads(lines[0])
    assert meta["kind"] == "meta"
    assert meta["config"]["seed"] == 3
    assert "version" in meta
    assert len(lines) == 1 + 8 * 21
    last = json.loads(lines[-1])
    assert last["k"] == 20
    assert last["u0"] is None and last["stage_cost"] is None
    first = json.loads(lines[1])
    assert first["k"] == 0 and len(first["x0"]) == 1

    summary = json.loads((tmp_path / "simulate-scalar-demo-summary.json").read_text())
    assert summary["trials"] == 8
    assert len(summary["mean_error_norm"]) == 21
    assert summary["mss"]["spectral_radius"] < 1.0

    with open(tmp_path / "simulate-scalar-demo-curves.csv") as fh:
        content = fh.read().splitlines()
    assert content[0].startswith("# version=")
    assert content[1].startswith("# config=")
    header = content[2].split(",")
    assert header[0] == "k"
    assert "mean_err_leader_0" in header
    assert len(content) == 3 + 21


def test_simulate_auv_curves_include_references(tmp_path):
    assert run(["simulate", "--model", "auv-paper", "--horizon", "5",
                "--trials", "2", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "simulate-auv-paper-curves.csv") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header = rows[0]
    for col in ("ref_leader_x", "ref_follower_psi", "actual_leader_x",
                "actual_follower_y"):
        assert col in header
    ref_x = float(rows[1][header.index("ref_leader_x")])
    assert ref_x == pytest.approx(1.2, abs=1e-12)


def reference_traces(batch, horizon):
    """The trace records of a batch, one json.dumps per record: the writer's reference."""
    lst = lambda a: np.asarray(a).tolist()
    lines = []
    for col in range(batch.trials):
        for k in range(horizon + 1):
            rec = {"trial": batch.trial_offset + col, "k": k,
                   "x0": lst(batch.x0[k, :, col]), "x1": lst(batch.x1[k, :, col]),
                   "x1hat": lst(batch.x1hat[k, :, col]),
                   "u0": lst(batch.u0[k, :, col]) if k < horizon else None,
                   "u1": lst(batch.u1[k, :, col]) if k < horizon else None,
                   "stage_cost": float(batch.stage_cost[k, col]) if k < horizon else None}
            lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return "".join(lines)


# 2100 trials are three blocks, 1030 are two; three workers, or none
@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("argv", [
    ["--model", "scalar-demo", "--trials", "2100", "--horizon", "3", "--seed", "4"],
    ["--model", "scalar-demo", "--mode", "finite", "--trials", "2100", "--horizon", "2"],
    ["--model", "auv-paper", "--trials", "1030", "--horizon", "3", "--seed", "7"],
], ids=["scalar-stationary", "scalar-finite", "auv"])
def test_traces_equal_json_dumps_reference(tmp_path, monkeypatch, argv, cpus):
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    assert run(["simulate", *argv, "--out", str(tmp_path)]) == 0
    args = cli.build_parser().parse_args(["simulate", *argv])
    model, cost, name = cli._load(args)
    policy, sol, _ = cli._policy_for(model, cost, args)
    horizon = sol.horizon + 1 if args.mode == "finite" else args.horizon
    batch = simulation.simulate_batch(model, policy, cost, horizon, args.seed, args.trials)
    text = (tmp_path / f"simulate-{name}-traces.jsonl").read_text()
    meta, records = text.split("\n", 1)
    assert json.loads(meta)["kind"] == "meta"
    assert records == reference_traces(batch, horizon)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"simulate-{name}-{kind}" for kind in ("curves.csv", "summary.json", "traces.jsonl")]


def test_simulate_from_a_script_on_stdin(tmp_path, monkeypatch):
    # a spawned worker cannot re-import a __main__ read from stdin, so the
    # two blocks run in the script's own process, even with two CPUs
    argv = ["simulate", "--model", "scalar-demo", "--trials", "1100", "--horizon", "4",
            "--out", "out"]
    script = f"from lfns import cli\ncli._cpus = lambda: 2\nraise SystemExit(cli.main({argv!r}))\n"
    (tmp_path / "stdin").mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-"], input=script, text=True, capture_output=True,
                          cwd=tmp_path / "stdin", env=env, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    (tmp_path / "inproc").mkdir()
    monkeypatch.chdir(tmp_path / "inproc")
    assert run(argv) == 0
    traces = "out/simulate-scalar-demo-traces.jsonl"
    assert (tmp_path / "stdin" / traces).read_bytes() == (tmp_path / "inproc" / traces).read_bytes()


# finite floats, and the ones whose repr is easy to get wrong
floats = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([-0.0, 5e-324, 1e-310, 1e16, 1e-5]))
vectors = st.lists(floats, min_size=1, max_size=6)


@given(k=st.integers(0, 10 ** 6), trial=st.integers(0, 2 ** 32 - 1), stage=floats,
       u0=vectors, u1=vectors, x0=vectors, x1=vectors, x1hat=vectors)
def test_record_templates_equal_json_dumps(k, trial, stage, u0, u1, x0, x1, x1hat):
    rec = {"trial": trial, "k": k, "x0": x0, "x1": x1, "x1hat": x1hat,
           "u0": u0, "u1": u1, "stage_cost": stage}
    assert (cli._STEP_RECORD % (k, stage, trial, u0, u1, x0, x1, x1hat)
            == json.dumps(rec, sort_keys=True) + "\n")
    rec.update(u0=None, u1=None, stage_cost=None)
    assert (cli._LAST_RECORD % (k, trial, x0, x1, x1hat)
            == json.dumps(rec, sort_keys=True) + "\n")


def test_byte_identical_rerun(tmp_path):
    args = ["simulate", "--model", "scalar-demo", "--horizon", "10",
            "--trials", "4", "--seed", "9", "--out", str(tmp_path)]
    assert run(args) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(args) == 0
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second
    assert run(["solve", "--model", "auv-paper", "--out", str(tmp_path)]) == 0
    a = (tmp_path / "solve-auv-paper-stationary.json").read_bytes()
    assert run(["solve", "--model", "auv-paper", "--out", str(tmp_path)]) == 0
    assert a == (tmp_path / "solve-auv-paper-stationary.json").read_bytes()


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("LFNS_OUT_DIR", str(tmp_path / "nested"))
    assert run(["solve", "--model", "scalar-demo"]) == 0
    assert (tmp_path / "nested" / "solve-scalar-demo-stationary.json").exists()


def test_gamma_override_echoed(tmp_path):
    assert run(["solve", "--model", "scalar-demo", "--gamma", "0.5",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solve-scalar-demo-stationary.json").read_text())
    assert doc["config"]["gamma"] == 0.5
    base = json.loads((tmp_path / "solve-scalar-demo-stationary.json").read_text())
    run(["solve", "--model", "scalar-demo", "--out", str(tmp_path)])
    other = json.loads((tmp_path / "solve-scalar-demo-stationary.json").read_text())
    assert base["p"] != other["p"]


def test_gamma_overrides_the_spec_discount(tmp_path, capsys):
    # the spec's own discount is out of range; validation sees the override
    spec = str(write_spec(tmp_path / "far.json", gamma=1.5))
    assert run(["solve", "--model", spec, "--gamma", "0.9", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solve-far-stationary.json").read_text())
    assert doc["config"]["gamma"] == 0.9
    assert run(["solve", "--model", spec, "--out", str(tmp_path)]) == 2
    assert "validation: gamma out of range (0, 1): 1.5" in capsys.readouterr().err


def test_converge_sweep_monotone(tmp_path):
    assert run(["converge", "--model", "scalar-demo", "--gamma", "0.5",
                "--horizon", "40", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "converge-scalar-demo.json").read_text())
    rows = doc["rows"]
    assert rows[0][0] == 0
    # one stage, no value-to-go: optimal control is zero and the cost is
    # the initial second moment weighted by Q
    assert rows[0][1] == pytest.approx(1.75, abs=1e-12)
    costs = [r[1] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))
    assert costs[-1] <= doc["stationary_cost"] + 1e-9

    assert run(["converge", "--model", "scalar-demo", "--gamma", "0.5",
                "--horizon", "40", "--format", "csv",
                "--out", str(tmp_path)]) == 0
    text = (tmp_path / "converge-scalar-demo.csv").read_text().splitlines()
    assert text[0].startswith("# version=")
    assert any(line.startswith("# stationary_cost=") for line in text)
    body = [line for line in text if not line.startswith("#")]
    assert body[0] == "horizon,cost"
    assert float(body[1].split(",")[1]) == pytest.approx(1.75, abs=1e-12)


def test_verify_scalar_demo_all_pass(tmp_path, capsys):
    assert run(["verify", "--model", "scalar-demo", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "pass  riccati_fixed_point" in out
    assert "FAIL" not in out
    doc = json.loads((tmp_path / "verify-scalar-demo.json").read_text())
    assert doc["all_passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"riccati_fixed_point", "closed_loop_identity",
            "gradient_stationarity", "estimator_vs_conditional_mean",
            "costate_hat_residual", "costate_tilde_residual",
            "monte_carlo_vs_analytic"} <= names


def test_verify_bundled_reports_known_failures(tmp_path):
    assert run(["verify", "--model", "auv-paper", "--trials", "500",
                "--out", str(tmp_path)]) == 4
    doc = json.loads((tmp_path / "verify-auv-paper.json").read_text())
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    # the residual follower control on a coupled noisy plant is where the
    # closed-form stationarity claims genuinely break
    assert failed == {"gradient_stationarity", "costate_tilde_residual"}
    assert doc["all_passed"] is False
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["force_round_trip"]["passed"] is True
    assert by_name["riccati_fixed_point"]["passed"] is True


def test_verify_perturbed_gains_negative_control(tmp_path):
    assert run(["verify", "--model", "scalar-demo", "--perturb-gains",
                "--out", str(tmp_path)]) == 4
    doc = json.loads((tmp_path / "verify-scalar-demo.json").read_text())
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert "gradient_stationarity" in failed
    # the costate identity is evaluated at the gains that ran, in both modes
    assert "costate_hat_residual" in failed
    assert run(["verify", "--model", "scalar-demo", "--perturb-gains", "--mode", "finite",
                "--horizon", "20", "--out", str(tmp_path)]) == 4
    doc = json.loads((tmp_path / "verify-scalar-demo.json").read_text())
    assert "costate_hat_residual" in {c["name"] for c in doc["checks"] if not c["passed"]}


def test_verify_finite_horizon_shorter_than_probe(tmp_path):
    # the trace check used to simulate 50 steps past a 6-gain policy
    assert run(["verify", "--model", "scalar-demo", "--mode", "finite",
                "--horizon", "5", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "verify-scalar-demo.json").read_text())
    assert doc["all_passed"] is True
    assert "riccati_recursion" in {c["name"] for c in doc["checks"]}


@pytest.mark.parametrize("command", ["solve", "simulate", "converge", "verify"])
def test_iteration_cap_exits_3(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(infinite_horizon, "MAX_ITERATIONS", 2)
    assert run([command, "--model", "scalar-demo", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failed: ")
    assert "hit the iteration cap after 2 iterations" in err
    assert not list(tmp_path.iterdir())
