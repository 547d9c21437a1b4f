"""One workload process: set up, run units for a fixed time, gate each unit.

Started by ``run.py``, never by hand.  Prints ``ready`` on its own line as
soon as set-up is done (``run.py`` times set-up from process start to that
line), then one JSON line: with ``--setup-only`` just a host-speed probe,
otherwise the unit samples.  The host-speed probe runs once before the
first unit and once after every unit, outside the timed part.  With
``--trace 1`` untraced and traced units alternate, so that each traced
unit has an untraced neighbour to measure the tracing overhead against.
"""
import os

# One BLAS/OpenMP thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SPANS_DIR = Path(".bench_out")


# Fixed inputs of the host-speed probe, at the program's sizes: the 36x36
# augmented moments of exact_cost, the n=6 solves of the Riccati layers and
# the JSON encoding of 6-state trace records.
_rng = np.random.default_rng(12345)
_F = _rng.standard_normal((36, 36)) / 12.0
_A6 = _rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
_B6 = _rng.standard_normal((6, 3))
_ROWS = [{"t": k, "x": [float(v) for v in _rng.standard_normal(6)]} for k in range(300)]


def host_probe() -> float:
    """Seconds of one pass of a fixed numpy and pure-Python kernel (about 0.15 s).

    It calls no lfns code, so no change to lfns can change it; ``run.py``
    scales every time of a run by how fast this probe ran in that run.
    """
    t0 = perf_counter()
    s = np.eye(36)
    for _ in range(4000):
        s = _F @ s @ _F.T + np.eye(36)
    for _ in range(4000):
        np.linalg.solve(_A6, _B6) + _A6 @ _B6
    for _ in range(15):
        json.dumps(_ROWS)
    return perf_counter() - t0


def host_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_unit(wl, tracer=None) -> dict:
    """Run one unit (traced if a tracer is given) and gate it."""
    unit = {"traced": tracer is not None}
    try:
        if tracer is not None:
            tracer.install()
            patches = tracer.patched_names()
        try:
            t0 = perf_counter()
            raw = wl.run()
            unit["wall_s"] = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
                unit["restored"] = all(getattr(mod, name) is orig
                                       for mod, name, orig in patches)
                recorded = tracer.take()
        if tracer is not None:
            unit["layers"] = spans.unit_metrics(recorded)
            unit["spans"] = spans.span_records(recorded)
        res = wl.check(raw)
        unit.update(digest=res.digest, output_bytes=res.output_bytes,
                    cli_bytes=res.cli_bytes, cli_records=res.cli_records,
                    problems=res.problems)
    except Exception:  # a unit that raises counts as failed; keep measuring
        traceback.print_exc()
        unit.update(digest=None, output_bytes=0, problems=["raised, see stderr"])
    finally:
        shutil.rmtree(workloads.OUT, ignore_errors=True)
    return unit


def run_units(wl, seconds: float, tracer=None) -> tuple[list[dict], list[float]]:
    """Run units until ``seconds`` have passed; return them and the probe times.

    With a tracer, every second unit is traced, and at least one of each kind
    runs.
    """
    units, probes = [], [host_probe()]
    deadline = perf_counter() + seconds
    while len(units) < (1 if tracer is None else 2) or perf_counter() < deadline:
        traced = tracer is not None and len(units) % 2 == 1
        units.append(run_unit(wl, tracer if traced else None))
        probes.append(host_probe())
    return units, probes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_spans = []
    if tracer is not None:
        setup_spans = tracer.take()
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"probes_s": [host_probe()]}), flush=True)
        return 0

    out = {"host": host_info()}
    units, out["probes_s"] = run_units(wl, args.seconds, tracer)
    shutil.rmtree(workloads.OUT.parent, ignore_errors=True)
    if tracer is not None:
        out["model_load_s"] = spans.model_load_s(setup_spans)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "setup": spans.span_records(setup_spans),
            "units": [u.pop("spans") for u in units if "spans" in u]}))
        out["spans_file"] = str(spans_path)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["units"] = units
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
