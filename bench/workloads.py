"""The benchmark's four workloads.

A workload is built once from the seed (set-up: model load and validation,
input generation), then runs the same unit of work repeatedly.  ``run`` is
the timed part and calls only lfns; ``check`` is the correctness gate of
one unit and is not timed.  Workloads call lfns through module attributes
(``cli.main``, ``simulation.monte_carlo``, ...) so that the traced run's
wrappers see every call.  The model loader, the scalar-demo model and the
random-pair recipe are copied here rather than imported from the CLI's
private helpers or the tests, so that refactoring those cannot change or
break the benchmark.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from lfns import cli, finite_horizon, infinite_horizon, model, oracle, simulation

# Relative to the checkout root, which is the worker's working directory.
# The CLI echoes --out into its artifacts, so the same string must be passed
# to every unit for the artifacts to be byte-identical.
OUT = Path(".bench_tmp") / "out"


@dataclass
class UnitResult:
    """What one unit produced, as the gate saw it."""

    digest: str
    output_bytes: int
    cli_bytes: int = 0
    cli_records: int = 0
    problems: list[str] = field(default_factory=list)


def load_auv_paper():
    doc = json.loads(resources.files("lfns").joinpath("data/auv-paper.json").read_text())
    m, cost = model.model_from_dict(doc)
    violations = model.validate(m, cost)
    if violations:
        raise model.ModelValidationError(violations)
    return m, cost


def scalar_demo():
    """The CLI's builtin scalar-demo model and cost."""
    m = model.make_model(a00=[[1.0]], a10=[[0.0]], a11=[[1.0]],
                         b00=[[1.0]], b10=[[0.0]], b11=[[1.0]],
                         sigma_w0=[[0.1]], sigma_w1=[[0.1]],
                         xbar0=[1.0], xbar1=[0.5],
                         sigma_x0=[[0.25]], sigma_x1=[[0.25]])
    cost = model.make_cost(q=np.eye(2), r=np.eye(2), p_terminal=np.eye(2), gamma=0.9)
    return m, cost


def random_pair(rng: np.random.Generator, n: int):
    """The acceptance suite's random leader-follower pair (tests/test_acceptance.py).

    Square, almost surely invertible B blocks make every pair stabilizable.
    """
    m = model.make_model(
        a00=0.6 * rng.standard_normal((n, n)),
        a10=0.4 * rng.standard_normal((n, n)),
        a11=0.6 * rng.standard_normal((n, n)),
        b00=rng.standard_normal((n, n)),
        b10=0.3 * rng.standard_normal((n, n)),
        b11=rng.standard_normal((n, n)),
        sigma_w0=0.1 * np.eye(n), sigma_w1=0.2 * np.eye(n),
        xbar0=rng.standard_normal(n), xbar1=rng.standard_normal(n),
        sigma_x0=0.3 * np.eye(n), sigma_x1=0.2 * np.eye(n))
    cost = model.make_cost(q=np.eye(2 * n), r=np.eye(2 * n), p_terminal=np.eye(2 * n))
    return m, cost


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in this process, capturing what it prints."""
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        rc = cli.main(argv)
    return rc, buf.getvalue()


@dataclass
class Artifacts:
    """The files a CLI unit wrote: one digest over all of them, their total
    size, their record count, and the line count of each file."""

    digest: str
    total: int
    records: int
    lines: dict[str, int]


def _artifacts(out: Path) -> Artifacts:
    """Read the files in ``out`` in chunks, so the gate adds little to peak RSS.

    A record is a JSONL line, a CSV data row or a whole JSON document.
    """
    h = hashlib.sha256()
    total = records = 0
    lines = {}
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        newlines = 0
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
                total += len(chunk)
                newlines += chunk.count(b"\n")
        lines[path.name] = newlines
        if path.suffix == ".jsonl":
            records += newlines
        elif path.suffix == ".csv":
            rows = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
            records += len(rows) - 1
        else:
            records += 1
    return Artifacts(h.hexdigest(), total, records, lines)


def fresh_out() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)


def _riccati_map(p_next, compact, cost, gamma: float):
    """Q + g A'PA - g^2 L' (R + g B'PB)^-1 L with L = B'PA, for P = p_next."""
    a, b = compact.a, compact.b
    l_mat = b.T @ p_next @ a
    psi = cost.r + gamma * (b.T @ p_next @ b)
    return cost.q + gamma * (a.T @ p_next @ a) - gamma ** 2 * l_mat.T @ np.linalg.solve(psi, l_mat)


def _relative(value, p) -> float:
    return float(np.linalg.norm(value - p) / max(1.0, np.linalg.norm(p)))


def riccati_residual(p, compact, cost, gamma: float) -> float:
    """Relative residual of the stationary fixed point P = map(P)."""
    return _relative(_riccati_map(p, compact, cost, gamma), p)


def recursion_residual(sol, compact, cost) -> float:
    """Worst relative residual of the backward recursion P(k) = map(P(k+1))."""
    gamma = sol.gamma if sol.discounted else 1.0
    return max(_relative(_riccati_map(sol.p_seq[k + 1], compact, cost, gamma), sol.p_seq[k])
               for k in range(len(sol.k_seq)))


class VerifyAuv:
    """``lfns verify --model auv-paper``: the oracle-dominated workload."""

    # Acceptance criteria 6 and 7 are red by design; these two checks carry
    # their evidence.  The gradient figure does not depend on the seed.
    EXPECTED_FAILURES = {"gradient_stationarity", "costate_tilde_residual"}
    GRADIENT_EVIDENCE = "4.009e-03"

    def __init__(self, seed: int):
        # The CLI loads the model itself; loading it here too keeps set-up
        # (and model.load_s) the same on every workload.
        load_auv_paper()
        self.argv = ["verify", "--model", "auv-paper", "--seed", str(seed), "--out", str(OUT)]

    def run(self):
        fresh_out()
        return _quiet_main(self.argv)

    def check(self, raw) -> UnitResult:
        rc, printed = raw
        files = _artifacts(OUT)
        result = UnitResult(_hash(files.digest, printed), files.total, files.total, files.records)
        if rc != 4:
            result.problems.append(f"exit code {rc}, expected 4")
        checks = json.loads((OUT / "verify-auv-paper.json").read_text())["checks"]
        failing = {c["name"] for c in checks if not c["passed"]}
        if failing != self.EXPECTED_FAILURES:
            result.problems.append(f"failing checks {sorted(failing)}, expected "
                                   f"{sorted(self.EXPECTED_FAILURES)}")
        grad = [c["measured"] for c in checks if c["name"] == "gradient_stationarity"]
        if [f"{g:.3e}" for g in grad] != [self.GRADIENT_EVIDENCE]:
            result.problems.append(f"gradient_stationarity evidence {grad}, "
                                   f"expected {self.GRADIENT_EVIDENCE}")
        return result


class SimulateAuv:
    """``lfns simulate --model auv-paper``: the output-writing workload."""

    TRIALS, HORIZON = 2000, 60

    def __init__(self, seed: int):
        m, cost = load_auv_paper()
        sol = infinite_horizon.solve_stationary_riccati(model.assemble_compact(m), cost)
        self.reference_cost = infinite_horizon.stationary_cost(sol, m)
        self.argv = ["simulate", "--model", "auv-paper", "--trials", str(self.TRIALS),
                     "--horizon", str(self.HORIZON), "--seed", str(seed), "--out", str(OUT)]

    def run(self):
        fresh_out()
        return _quiet_main(self.argv)

    def check(self, raw) -> UnitResult:
        rc, printed = raw
        files = _artifacts(OUT)
        result = UnitResult(_hash(files.digest, printed), files.total, files.total, files.records)
        if rc != 0:
            result.problems.append(f"exit code {rc}, expected 0")
        lines = files.lines.get("simulate-auv-paper-traces.jsonl")
        want = 1 + self.TRIALS * (self.HORIZON + 1)
        if lines != want:
            result.problems.append(f"{lines} trace lines, expected {want}")
        summary = json.loads((OUT / "simulate-auv-paper-summary.json").read_text())
        gap = abs(summary["mean_cost"] - self.reference_cost)
        band = 3.0 * summary["standard_error"] + summary["truncation_bound"]
        if not gap <= band:
            result.problems.append(f"mean cost {summary['mean_cost']!r} is {gap:.4g} from "
                                   f"stationary_cost {self.reference_cost!r}, band {band:.4g}")
        return result


class McStream:
    """Library ``monte_carlo`` at two state sizes, streaming, no files."""

    # (trials, steps) of the two parts.
    AUV = (20480, 100)
    SCALAR = (10000, 51)
    # Gross-error band of the analytic check.  This workload runs two Monte
    # Carlo estimates per seed, so a 3-sigma band would fail a correct
    # program on about one seed in 200; at 5 sigma it is about one in 10**6.
    SIGMAS = 5.0

    def __init__(self, seed: int):
        self.seeds = mc_seeds(seed)
        m, cost = load_auv_paper()
        sol = infinite_horizon.solve_stationary_riccati(model.assemble_compact(m), cost)
        self.auv = (m, oracle.StructuredPolicy.from_stationary(sol), cost,
                    infinite_horizon.stationary_cost(sol, m))
        m, cost = scalar_demo()
        fsol = finite_horizon.backward_riccati(model.assemble_compact(m), cost, self.SCALAR[1] - 1)
        self.scalar = (m, oracle.StructuredPolicy.from_finite_horizon(fsol, m), cost,
                       finite_horizon.optimal_cost(fsol, m))

    def run(self):
        (trials, steps), (m, policy, cost, _) = self.AUV, self.auv
        stationary = simulation.monte_carlo(m, policy, cost, steps, seed=self.seeds[0],
                                            trials=trials, discounted=True)
        (trials, steps), (m, policy, cost, _) = self.SCALAR, self.scalar
        finite = simulation.monte_carlo(m, policy, cost, steps, seed=self.seeds[1],
                                        trials=trials, discounted=False)
        return stationary, finite

    def check(self, raw) -> UnitResult:
        parts, nbytes, problems = [], 0, []
        for summary, (_, _, _, reference) in zip(raw, (self.auv, self.scalar)):
            arrays = (summary.mean_state, summary.mean_norm, summary.second_moment)
            scalars = (summary.mean_cost, summary.standard_error, summary.truncation_bound)
            parts += [*arrays, scalars]
            nbytes += sum(a.nbytes for a in arrays) + 8 * len(scalars)
            band = self.SIGMAS * summary.standard_error + (summary.truncation_bound or 0.0)
            gap = abs(summary.mean_cost - reference)
            if not gap <= band:
                problems.append(f"mean cost {summary.mean_cost!r} is {gap:.4g} from the "
                                f"analytic {reference!r}, band {band:.4g}")
        return UnitResult(_hash(*parts), nbytes, problems=problems)


def mc_seeds(seed: int) -> tuple[int, int]:
    """Root seeds of mc-stream's two Monte Carlo parts."""
    state = np.random.SeedSequence(seed).generate_state(2)
    return int(state[0]), int(state[1])


class SynthSweep:
    """Riccati synthesis over a seeded population of random pairs."""

    PAIRS = 8
    GAMMAS = (0.9, 0.99)
    HORIZONS = range(0, 201, 10)
    FINITE_HORIZON = 200
    RESIDUAL_TOL = 1e-10

    def __init__(self, seed: int):
        load_auv_paper()
        self.inputs = []
        for m, cost in synth_pairs(seed, self.PAIRS):
            costs = [model.make_cost(cost.q, cost.r, cost.p_terminal, g) for g in self.GAMMAS]
            for c in costs:
                violations = model.validate(m, c)
                if violations:
                    raise model.ModelValidationError(violations)
            self.inputs.append((m, model.assemble_compact(m), costs))
        self.argvs = [["converge", "--model", "auv-paper", "--out", str(OUT)],
                      ["solve", "--model", "auv-paper", "--out", str(OUT)]]

    def run(self):
        results = []
        for m, compact, costs in self.inputs:
            per_gamma = []
            for cost in costs:
                sol = infinite_horizon.solve_stationary_riccati(compact, cost)
                verdict = infinite_horizon.check_stabilizability(sol, cost, compact)
                value = infinite_horizon.stationary_cost(sol, m)
                grid = []
                for n in self.HORIZONS:
                    fsol = finite_horizon.discounted_backward_riccati(compact, cost, n)
                    grid.append(finite_horizon.optimal_cost(fsol, m))
                back = finite_horizon.backward_riccati(compact, cost, self.FINITE_HORIZON)
                per_gamma.append((sol, verdict, value, grid, fsol, back))
            results.append(per_gamma)
        fresh_out()
        codes = [_quiet_main(argv) for argv in self.argvs]
        return results, codes

    def check(self, raw) -> UnitResult:
        results, codes = raw
        problems = [f"lfns {argv[0]} exit code {rc}"
                    for argv, (rc, _) in zip(self.argvs, codes) if rc != 0]
        files = _artifacts(OUT)
        parts = [files.digest, codes]
        worst = 0.0
        for (m, compact, costs), per_gamma in zip(self.inputs, results):
            for cost, (sol, verdict, value, grid, fsol, back) in zip(costs, per_gamma):
                parts += [sol.p, sol.h, sol.iterations, verdict.spectral_radius,
                          verdict.stabilizable, value, grid, fsol.p_seq[0],
                          back.p_seq[0], back.k_seq[0]]
                worst = max(worst, riccati_residual(sol.p, compact, cost, cost.gamma),
                            recursion_residual(fsol, compact, cost),
                            recursion_residual(back, compact, cost))
        if not worst < self.RESIDUAL_TOL:
            problems.append(f"Riccati residual {worst:.3e}, tolerance {self.RESIDUAL_TOL:.0e}")
        return UnitResult(_hash(*parts), files.total, files.total, files.records, problems)


def synth_pairs(seed: int, count: int):
    """The seeded pair population: n alternates between 2 and 6."""
    rng = np.random.default_rng(seed)
    return [random_pair(rng, 2 if i % 2 == 0 else 6) for i in range(count)]


WORKLOADS = {
    "verify-auv": VerifyAuv,
    "simulate-auv": SimulateAuv,
    "mc-stream": McStream,
    "synth-sweep": SynthSweep,
}
