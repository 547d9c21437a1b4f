"""Span recorder for the traced benchmark run.

The recorder wraps public lfns functions in place: each wrapper records a
span (name, start, end, parent) and, for some functions, counts read from
the call's arguments or result.  A function is replaced under every name
that refers to it in a loaded lfns module, so calls made through
``from .x import f`` in ``lfns.cli`` or ``lfns.simulation`` are recorded as
child spans too.  Spans stay in memory until the caller takes them.
``uninstall`` puts every original function object back.

Private helpers (``_draw_chunk``, ``_simulate_chunk``, ``_write_json``, ...)
are deliberately not wrapped.
"""
from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(signature: inspect.Signature, args, kwargs, name: str):
    return signature.bind(*args, **kwargs).arguments[name]


def _batch_nbytes(batch) -> int:
    return sum(getattr(batch, f).nbytes for f in
               ("x0", "x1", "x1hat", "u0", "u1", "w0", "w1", "stage_cost"))


def _trial_counts(sig, args, kwargs) -> dict[str, float]:
    trials = _arg(sig, args, kwargs, "trials")
    horizon = _arg(sig, args, kwargs, "horizon")
    n = _arg(sig, args, kwargs, "model").n
    return {"trial_steps": trials * horizon,
            "normals_drawn": trials * n * (2 + 2 * horizon)}


# Every wrapped function, as "<module>.<name>" under lfns, with an optional
# counter(signature, args, kwargs, result) -> {count name: value}.
TARGETS = {
    "model.make_model": None,
    "model.make_cost": None,
    "model.model_from_dict": None,
    "model.load_model_spec": None,
    "model.validate": None,
    "model.assemble_compact": None,
    "infinite_horizon.solve_stationary_riccati":
        lambda sig, a, k, r: {"iterations": r.iterations},
    "infinite_horizon.check_stabilizability": None,
    "infinite_horizon.stationary_cost": None,
    "finite_horizon.backward_riccati":
        lambda sig, a, k, r: {"recursion_steps": len(r.k_seq)},
    "finite_horizon.discounted_backward_riccati":
        lambda sig, a, k, r: {"recursion_steps": len(r.k_seq)},
    "finite_horizon.optimal_cost": None,
    "finite_horizon.stationarity_residuals": None,
    "oracle.gain_gradient": None,
    "oracle.exact_cost":
        lambda sig, a, k, r: {"moment_steps": _arg(sig, a, k, "horizon")},
    "oracle.kalman_oracle": None,
    "simulation.monte_carlo": lambda sig, a, k, r: _trial_counts(sig, a, k),
    "simulation.simulate_batch":
        lambda sig, a, k, r: {**_trial_counts(sig, a, k), "path_bytes": _batch_nbytes(r)},
    "simulation.simulate": None,
    "simulation.mss_diagnostics": None,
    "auv.make_auv_params": None,
    "auv.make_reference": None,
    "auv.bundled_example": None,
    "auv.reference": None,
    "auv.rotation": None,
    "auv.eval_coriolis": None,
    "auv.eval_damping": None,
    "auv.build_error_dynamics": None,
    "auv.h_term": None,
    "auv.force_reconstruction": None,
    "auv.error_model_control": None,
    "auv.error_state": None,
    "auv.nonlinear_step": None,
    "auv.leader_params": None,
    "auv.follower_params": None,
    "auv.leader_reference": None,
    "auv.follower_reference": None,
    "cli.main": None,
}


class Tracer:
    """Installs span-recording wrappers and collects the spans they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer._open[-1] if tracer._open else None)
            tracer.spans.append(span)
            tracer._open.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._open.pop()
            if counter is not None:
                span.counts = counter(signature, args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target under each name a loaded lfns module binds it to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lfns" or key.startswith("lfns."))]
        for target, counter in targets.items():
            module_name, attr = target.split(".")
            original = getattr(sys.modules[f"lfns.{module_name}"], attr)
            wrapper = self._wrap(target, original, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patches.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def patched_names(self) -> list[tuple[object, str, object]]:
        """(module, attribute, original function) for every installed wrapper."""
        return list(self._patches)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered = 0.0
    run_start = run_end = None
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, span.start), min(child.end, span.end)
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        covered += run_end - run_start
    return span.duration - covered


class SpanSet:
    """Queries over the spans of one unit of work."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self._children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self._children.setdefault(id(s.parent), []).append(s)

    def _named(self, names):
        return [s for s in self.spans if s.name in names]

    def inclusive(self, *names: str) -> float:
        """Time inside the named functions, counting nested calls among them once."""
        total = 0.0
        for s in self._named(names):
            p = s.parent
            while p is not None and p.name not in names:
                p = p.parent
            if p is None:
                total += s.duration
        return total

    def self_time(self, *names: str) -> float:
        return sum(self_time(s, self._children.get(id(s), []))
                   for s in self._named(names))

    def calls(self, name: str) -> int:
        return len(self._named((name,)))

    def count(self, key: str, *names: str) -> float:
        return sum(s.counts.get(key, 0) for s in self._named(names))

    def prefixed(self, prefix: str) -> tuple[str, ...]:
        return tuple(sorted({s.name for s in self.spans if s.name.startswith(prefix)}))


MODEL_LOAD = ("model.make_model", "model.make_cost", "model.model_from_dict",
              "model.load_model_spec", "model.validate")
BACKWARD = ("finite_horizon.backward_riccati", "finite_horizon.discounted_backward_riccati")
ENGINE = ("simulation.monte_carlo", "simulation.simulate_batch")


def unit_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one unit of work, from its spans."""
    s = SpanSet(spans)
    engine_s = s.inclusive(*ENGINE)
    trial_steps = s.count("trial_steps", *ENGINE)
    return {
        "infinite_horizon.solve_s": s.inclusive("infinite_horizon.solve_stationary_riccati"),
        "infinite_horizon.iterations":
            s.count("iterations", "infinite_horizon.solve_stationary_riccati"),
        "infinite_horizon.certify_s": s.inclusive("infinite_horizon.check_stabilizability"),
        "finite_horizon.backward_s": s.inclusive(*BACKWARD),
        "finite_horizon.recursion_steps": s.count("recursion_steps", *BACKWARD),
        "finite_horizon.optimal_cost_s": s.inclusive("finite_horizon.optimal_cost"),
        "finite_horizon.residuals_s": s.inclusive("finite_horizon.stationarity_residuals"),
        "oracle.gain_gradient_s": s.inclusive("oracle.gain_gradient"),
        "oracle.exact_cost_s": s.inclusive("oracle.exact_cost"),
        "oracle.exact_cost_calls": s.calls("oracle.exact_cost"),
        "oracle.moment_steps": s.count("moment_steps", "oracle.exact_cost"),
        "oracle.kalman_s": s.inclusive("oracle.kalman_oracle"),
        "simulation.monte_carlo_s": s.inclusive("simulation.monte_carlo"),
        "simulation.simulate_batch_s": s.inclusive("simulation.simulate_batch"),
        "simulation.simulate_s": s.self_time("simulation.simulate"),
        "simulation.trial_steps": trial_steps,
        "simulation.trial_steps_per_s": trial_steps / engine_s if engine_s > 0 else 0.0,
        "simulation.normals_drawn": s.count("normals_drawn", *ENGINE),
        "simulation.path_bytes": s.count("path_bytes", "simulation.simulate_batch"),
        "auv.self_s": s.self_time(*s.prefixed("auv.")),
        "cli.main_s": s.inclusive("cli.main"),
        "cli.self_s": s.self_time("cli.main"),
    }


def model_load_s(spans: list[Span]) -> float:
    return SpanSet(spans).inclusive(*MODEL_LOAD)


def span_records(spans: list[Span]) -> list[list]:
    """JSON-ready rows: name, start, end, parent row index (or None), counts."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [[s.name, s.start, s.end,
             index.get(id(s.parent)) if s.parent is not None else None, s.counts]
            for s in spans]
