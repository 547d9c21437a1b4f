"""Command-line front end: solve, simulate, converge, verify.

Exit codes: 0 success, 1 unreadable model spec, 2 validation or usage
failure, 3 solver or simulation divergence, 4 verification checks failed.
Same flags plus same seed produce byte-identical output files; every file
embeds the requested configuration and the package version.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .auv import (follower_reference, force_round_trip_error, leader_reference, paper_model,
                  reference)
from .finite_horizon import (RiccatiError, backward_riccati,
                             discounted_backward_riccati, optimal_cost,
                             split_gain, stationarity_residuals)
from .infinite_horizon import (RiccatiDivergence, check_stabilizability, closed_loop_radii,
                               solve_stationary_riccati, stationary_cost,
                               stationary_cost_terms)
from .model import (ModelValidationError, SpecFormatError, assemble_compact,
                    load_model_spec, make_cost, make_model, validate)
# gain_gradient is not called here; the benchmark's harness tests wrap it through this module
from .oracle import (OracleError, StructuredPolicy, gain_gradient, kalman_oracle,
                     policy_gradient)
from .simulation import (SimulationDiverged, chunks, monte_carlo, mss_diagnostics, reduce,
                         simulate)

OUT_DIR_ENV = "LFNS_OUT_DIR"
BUILTINS = ("auv-paper", "scalar-demo")


def _scalar_demo():
    model = make_model(a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
                       b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
                       sigma_w0=[[0.1]], sigma_w1=[[0.1]],
                       xbar0=[1.0], xbar1=[0.5],
                       sigma_x0=[[0.25]], sigma_x1=[[0.25]])
    cost = make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2), gamma=0.9)
    return model, cost


def _load(args):
    if args.model == "auv-paper":
        model, cost = paper_model()
        name = "auv-paper"
    elif args.model == "scalar-demo":
        model, cost = _scalar_demo()
        name = "scalar-demo"
    else:
        model, cost = load_model_spec(args.model)
        name = Path(args.model).stem
    if args.gamma is not None:
        cost = make_cost(cost.q, cost.r, cost.p_terminal, args.gamma)
    violations = validate(model, cost)
    if violations:
        raise ModelValidationError(violations)
    return model, cost, name


def _out_path(args) -> Path:
    return Path(args.out or os.environ.get(OUT_DIR_ENV) or ".")


def _out_dir(args) -> Path:
    path = _out_path(args)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _config_echo(args) -> dict:
    return {"command": args.command, "model": args.model, "mode": args.mode,
            "horizon": args.horizon, "trials": args.trials, "seed": args.seed,
            "gamma": args.gamma, "format": args.format,
            "out": args.out}


def _doc(args, **payload) -> dict:
    doc = {"version": __version__, "config": _config_echo(args)}
    doc.update(payload)
    return doc


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _lst(a):
    return np.asarray(a).tolist()


def _policy_for(model, cost, args):
    """Solve per the requested mode and return (policy, solution, discounted)."""
    compact = assemble_compact(model)
    if args.mode == "finite":
        if cost.p_terminal is None:
            raise ModelValidationError(
                ["finite mode needs a terminal weight in the cost"])
        n = args.horizon if args.horizon is not None else 50
        sol = backward_riccati(compact, cost, n)
        return StructuredPolicy.from_finite_horizon(sol, model), sol, False
    if cost.gamma is None:
        raise ModelValidationError(["stationary mode needs a discount factor"])
    sol = solve_stationary_riccati(compact, cost)
    return StructuredPolicy.from_stationary(sol), sol, True


def cmd_solve(args) -> int:
    model, cost, name = _load(args)
    compact = assemble_compact(model)
    _, sol, _ = _policy_for(model, cost, args)
    out = _out_dir(args)
    if args.mode == "finite":
        doc = _doc(args, mode="finite", horizon=sol.horizon,
                   p0=_lst(sol.p_seq[0]), k0=_lst(sol.k_seq[0]),
                   gain_sequence=[_lst(k) for k in sol.k_seq],
                   analytic_cost=optimal_cost(sol, model))
        _write_json(out / f"solve-{name}-finite.json", doc)
        return 0
    verdict = check_stabilizability(sol, cost, compact)
    mean_term, trace_term = stationary_cost_terms(sol, model)
    # the solve raises rather than return an iterate short of the tolerance
    doc = _doc(args, mode="stationary", iterations=sol.iterations,
               residual=sol.residual, converged=True,
               p=_lst(sol.p), h=_lst(sol.h),
               h_blocks=dict(zip(("h00", "h01", "h10", "h11"),
                                 map(_lst, split_gain(sol.h, model.n, model.m1)))),
               verdict={
                   "positive_definite": verdict.positive_definite.value,
                   "positive_definite_margin": verdict.positive_definite.margin,
                   "inequality_holds": verdict.inequality_holds.value,
                   "inequality_margin": verdict.inequality_holds.margin,
                   "spectral_radius": verdict.spectral_radius,
                   "stabilizable": verdict.stabilizable,
                   "detail": verdict.detail},
               analytic_cost=mean_term + trace_term,
               mean_term=mean_term, trace_term=trace_term)
    _write_json(out / f"solve-{name}-stationary.json", doc)
    return 0


def _auv_reference_columns(horizon):
    lead, foll = leader_reference(), follower_reference()
    cols = {}
    for tag, traj in (("leader", lead), ("follower", foll)):
        refs = np.stack([reference(traj, k) for k in range(horizon + 1)])
        for j, ch in enumerate(("x", "y", "psi")):
            cols[f"ref_{tag}_{ch}"] = refs[:, j]
    return cols


def cmd_simulate(args) -> int:
    model, cost, name = _load(args)
    policy, sol, discounted = _policy_for(model, cost, args)
    if args.mode == "finite":
        horizon = sol.horizon + 1
    else:
        horizon = args.horizon if args.horizon is not None else 60
    out = _out_dir(args)

    def written(blocks, fh):
        # each trial runs once: its block is written out, then reduced
        for batch in blocks:
            for col in range(batch.trials):
                for k in range(horizon + 1):
                    rec = {"trial": batch.trial_offset + col, "k": k,
                           "x0": _lst(batch.x0[k, :, col]), "x1": _lst(batch.x1[k, :, col]),
                           "x1hat": _lst(batch.x1hat[k, :, col]),
                           "u0": _lst(batch.u0[k, :, col]) if k < horizon else None,
                           "u1": _lst(batch.u1[k, :, col]) if k < horizon else None,
                           "stage_cost": float(batch.stage_cost[k, col]) if k < horizon else None}
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
            yield batch

    # the traces file appears only once every trial has been reduced, so a
    # diverging run leaves none behind
    traces = out / f"simulate-{name}-traces.jsonl"
    partial = traces.with_name(traces.name + ".partial")
    try:
        with open(partial, "w") as fh:
            meta = _doc(args, kind="meta", horizon=horizon)
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            blocks = chunks(model, policy, cost, horizon, seed=args.seed, trials=args.trials)
            summary = reduce(written(blocks, fh), cost, discounted)
        os.replace(partial, traces)
    finally:
        partial.unlink(missing_ok=True)
    rho = max(closed_loop_radii(sol, assemble_compact(model))) if discounted else None
    report = mss_diagnostics(summary, spectral_radius=rho)
    _write_json(out / f"simulate-{name}-summary.json", _doc(
        args, horizon=horizon, trials=args.trials,
        mean_cost=summary.mean_cost, standard_error=summary.standard_error,
        mean_error_norm=_lst(summary.mean_norm),
        second_moment=_lst(summary.second_moment),
        truncation_bound=summary.truncation_bound,
        mss={"mean_decay": report.mean_decay,
             "mean_ratio": report.mean_ratio,
             "second_moment_plateau": report.second_moment_plateau,
             "plateau_relative_change": report.plateau_relative_change,
             "spectral_radius": report.spectral_radius,
             "mss": report.mss}))

    csv_path = out / f"simulate-{name}-curves.csv"
    n = model.n
    cols = {"k": np.arange(horizon + 1)}
    for j in range(n):
        cols[f"mean_err_leader_{j}"] = summary.mean_state[:, j]
    for j in range(n):
        cols[f"mean_err_follower_{j}"] = summary.mean_state[:, n + j]
    if name == "auv-paper":
        refs = _auv_reference_columns(horizon)
        cols.update(refs)
        for j, ch in enumerate(("x", "y", "psi")):
            cols[f"actual_leader_{ch}"] = refs[f"ref_leader_{ch}"] + summary.mean_state[:, j]
            cols[f"actual_follower_{ch}"] = refs[f"ref_follower_{ch}"] + summary.mean_state[:, n + j]
    with open(csv_path, "w", newline="") as fh:
        fh.write(f"# version={__version__}\n")
        fh.write("# config=" + json.dumps(_config_echo(args), sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(cols.keys())
        for i in range(horizon + 1):
            writer.writerow([repr(float(cols[key][i])) for key in cols])
    return 0


def cmd_converge(args) -> int:
    model, cost, name = _load(args)
    if cost.gamma is None:
        raise ModelValidationError(["convergence sweep needs a discount factor"])
    compact = assemble_compact(model)
    top = args.horizon if args.horizon is not None else 200
    sweep = sorted(set(range(0, top + 1, 10)) | {0, top})
    sol = discounted_backward_riccati(compact, cost, top)
    rows = [[n, optimal_cost(sol.tail(n), model)] for n in sweep]
    stat = solve_stationary_riccati(compact, cost)
    stationary_value = stationary_cost(stat, model)
    out = _out_dir(args)
    if args.format == "csv":
        path = out / f"converge-{name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write(f"# version={__version__}\n")
            fh.write("# config=" + json.dumps(_config_echo(args), sort_keys=True) + "\n")
            fh.write(f"# stationary_cost={stationary_value!r}\n")
            writer = csv.writer(fh)
            writer.writerow(["horizon", "cost"])
            for n, val in rows:
                writer.writerow([n, repr(val)])
    else:
        _write_json(out / f"converge-{name}.json",
                    _doc(args, rows=rows, stationary_cost=stationary_value))
    return 0


def _verify_checks(model, cost, args):
    checks = []

    def add(name, passed, measured, tolerance, detail=""):
        checks.append({"name": name, "passed": bool(passed),
                       "measured": float(measured), "tolerance": tolerance,
                       "detail": detail})

    compact = assemble_compact(model)
    policy, sol, discounted = _policy_for(model, cost, args)
    if args.perturb_gains:
        bump = np.zeros(policy.gains.shape[-2:])
        bump[-1, -1] = 0.05
        policy = StructuredPolicy(policy.gains + bump, model.n, model.m1)

    # the Riccati map is recomputed here rather than taken from the solver,
    # so that this check is independent of the synthesis code
    a, b = compact.a, compact.b
    if discounted:
        gamma, pairs = cost.gamma, [(sol.p, sol.p)]
    else:
        gamma, pairs = 1.0, [(sol.p_seq[k + 1], sol.p_seq[k]) for k in range(len(sol.k_seq))]
    worst = 0.0
    for p_next, p in pairs:
        l = b.T @ p_next @ a
        psi = cost.r + gamma * (b.T @ p_next @ b)
        rhs = (cost.q + gamma * (a.T @ p_next @ a)
               - gamma ** 2 * l.T @ np.linalg.solve(psi, l))
        worst = max(worst, np.linalg.norm(rhs - p) / max(1.0, np.linalg.norm(p)))
    add("riccati_fixed_point" if discounted else "riccati_recursion",
        worst < 1e-10, worst, 1e-10)
    if discounted:
        f = a - b @ policy.gains
        lyap = cost.gamma * f.T @ sol.p @ f + cost.q + policy.gains.T @ cost.r @ policy.gains
        res = np.linalg.norm(lyap - sol.p) / max(1.0, np.linalg.norm(sol.p))
        add("closed_loop_identity", res < 1e-10, res, 1e-10)
    probe_horizon = 300 if discounted else sol.horizon + 1

    grad = policy_gradient(model, policy, cost, probe_horizon, discounted=discounted)
    add("gradient_stationarity", grad.max_relative < 1e-6, grad.max_relative,
        1e-6, f"worst block {grad.argmax}")

    # a finite-mode policy holds only horizon + 1 gains
    steps = min(50, probe_horizon)
    traces = simulate(model, policy, cost, steps, seed=args.seed, trials=1)
    tr = traces[0]
    if policy.is_constant:
        kf = kalman_oracle(model, tr.x0, tr.u0, follower_gains=policy.at(0)[2:])
        err = max(np.linalg.norm(tr.x1hat[k] - kf[k]) for k in range(steps + 1))
        add("estimator_vs_conditional_mean", err < 1e-9, err, 1e-9)

    check = stationarity_residuals(sol, policy, tr)
    add("costate_hat_residual", check.max_hat < 1e-9, check.max_hat, 1e-9)
    add("costate_tilde_residual", check.max_tilde < 1e-9, check.max_tilde, 1e-9)

    trials = args.trials if args.trials > 1 else 2000
    horizon = 200 if discounted else probe_horizon
    mc = monte_carlo(model, policy, cost, horizon, seed=args.seed,
                     trials=trials, discounted=discounted)
    analytic = (stationary_cost(sol, model) if discounted
                else optimal_cost(sol, model))
    gap = abs(mc.mean_cost - analytic)
    band = 3.0 * mc.standard_error + (mc.truncation_bound or 0.0)
    add("monte_carlo_vs_analytic", gap <= band, gap, band,
        f"analytic {analytic!r} empirical {mc.mean_cost!r}")

    if args.model == "auv-paper":
        worst = force_round_trip_error(args.seed)
        add("force_round_trip", worst < 1e-10, worst, 1e-10)
    return checks


def cmd_verify(args) -> int:
    model, cost, name = _load(args)
    checks = _verify_checks(model, cost, args)
    all_passed = all(c["passed"] for c in checks)
    out = _out_dir(args)
    _write_json(out / f"verify-{name}.json",
                _doc(args, checks=checks, all_passed=all_passed))
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"{status}  {c['name']}: measured {c['measured']:.3e} "
              f"(tolerance {c['tolerance']:.1e})")
    return 0 if all_passed else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfns",
        description="Decentralized leader-follower LQ control toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, blurb in (
            ("solve", cmd_solve, "solve for gains and value matrices"),
            ("simulate", cmd_simulate, "run seeded closed-loop trials"),
            ("converge", cmd_converge, "finite-horizon cost sweep vs stationary value"),
            ("verify", cmd_verify, "run the self-check property suite")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--model", required=True,
                       help=f"model-spec path or builtin: {', '.join(BUILTINS)}")
        p.add_argument("--mode", choices=("finite", "stationary"),
                       default="stationary")
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUT_DIR_ENV} or cwd)")
        # only converge writes CSV; the others reject it rather than ignore it
        p.add_argument("--format", default="json",
                       choices=("json", "csv") if name == "converge" else ("json",))
        if name == "verify":
            p.add_argument("--perturb-gains", action="store_true",
                           help="negative control: offset the solved gains")
        p.set_defaults(fn=fn)
    return parser


def _usage_error(args) -> str | None:
    """The complaint about flags that cannot run or would be ignored, if any."""
    stationary = args.mode == "stationary"
    if args.trials < 1 or (args.horizon is not None and args.horizon < 0):
        return "trials must be >= 1 and horizon >= 0"
    if args.trials > 2 ** 32:
        return "trials must be <= 2**32, one 32-bit spawn-key word per trial"
    if args.seed < 0:
        return "seed must be >= 0"
    if args.command == "simulate" and stationary and args.horizon == 0:
        return "simulate --mode stationary needs horizon >= 1"
    if args.command == "converge" and not stationary:
        return "converge sweeps the discounted recursion; it has no --mode finite"
    if args.command in ("solve", "verify") and stationary and args.horizon is not None:
        return f"{args.command} --mode stationary takes no --horizon"
    if not stationary and args.gamma is not None:
        return f"{args.command} --mode finite takes no --gamma"
    out = _out_path(args)
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            return f"output directory {out}: {path} is not a directory"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _usage_error(args)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except SpecFormatError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except ModelValidationError as exc:
        for line in exc.violations:
            print(f"validation: {line}", file=sys.stderr)
        return 2
    except RiccatiDivergence as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return 3
    except RiccatiError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 3
    except SimulationDiverged as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"exact moments diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
