"""lfns benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify-auv --seed 0 --seconds 25 --trace 0

Workloads: verify-auv, simulate-auv, mc-stream, synth-sweep (see
bench/README.md).  Every workload is a closed loop: one caller in one
process runs the next unit of work only after the previous one finished.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones (setup_s, wall_s, peak_rss_mb, output_bytes,
pass_frac); with ``--trace 1`` they are the per-layer ones.  Metric names
and units come from BENCHMARK.json.  The line before it is a JSON record
of the host, the host-speed probes and the raw samples behind the figures.

This process never imports numpy.  It pins BLAS/OpenMP to one thread in
the environment its children inherit, times set-up in fresh processes
(interpreter start to first unit ready), and runs the workload in one more
fresh process, whose peak RSS it reports.

The host this runs on changes speed by tens of percent over minutes, and
the change reaches lfns and a fixed numpy kernel alike.  So every process
also times that kernel (``worker.host_probe``).  ``setup_s`` is the raw
median scaled by REFERENCE_PROBE_S over the median probe time of the
set-up processes, and ``wall_s`` likewise by the probes taken between
units: seconds on a host where the probe takes REFERENCE_PROBE_S.  The raw
medians are in the record line.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed in this many extra processes besides the measuring one,
# half before it and half after it, so that the samples span the run;
# setup_s is the median of all of them.
SETUP_PROCESSES = 6
# Probe time, in seconds, that setup_s and wall_s are scaled to: a round
# figure near the probe's median (0.15 to 0.18 s) on a 2-core Intel Xeon VM
# with one BLAS thread.
REFERENCE_PROBE_S = 0.15
# Beyond --seconds, the time set-up, the last unit and the gates may take
# before the run is stopped and fails.
SLACK_S = 150.0


class BenchError(RuntimeError):
    pass


def start_worker(args, extra=()) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; return it and its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline=perf_counter() + 10.0)
        raise BenchError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup


def setup_only(args, deadline: float) -> tuple[float, float]:
    """Set-up time and probe time of one process that only sets up."""
    proc, setup = start_worker(args, ["--setup-only"])
    rest = finish(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"set-up process exit code {proc.returncode}")
    return setup, json.loads(rest)["probes_s"][0]


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Read the worker's remaining output and wait for it to exit."""
    try:
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    return rest


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples above it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return {"percentile": round(100.0 * (k + 1) / len(ordered), 1), "value": ordered[k]}


def summarise(args, setups: list[tuple[float, float]], report: dict,
              units_of: dict[str, str]) -> tuple[dict, dict]:
    """Turn the worker's report into (final result line, info record).

    ``setups`` holds (set-up time, probe time) of every process that set up.
    """
    units = report["units"]
    reference = units[0]["digest"]
    for unit in units[1:]:
        if unit["digest"] != reference:
            unit["problems"].append("artifacts differ from the run's first unit")
    failed = sum(1 for u in units if u["problems"] or u["digest"] is None)
    problems = sorted({p for u in units for p in u["problems"]})
    untraced = [u["wall_s"] for u in units if not u["traced"] and "wall_s" in u]
    setup_probes = [p for _, p in setups]
    scale = {"setup_s": REFERENCE_PROBE_S / statistics.median(setup_probes),
             "wall_s": REFERENCE_PROBE_S / statistics.median(report["probes_s"])}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": report["host"],
        "probe_s": {"setup": setup_probes, "units": report["probes_s"]},
        "scale": scale,
        "wall_s": {"raw_median": statistics.median(untraced) if untraced else None,
                   "tail": tail_percentile(untraced), "count": len(untraced),
                   "samples": untraced},
        "setup_s": {"raw_median": statistics.median(s for s, _ in setups),
                    "samples": [s for s, _ in setups]},
        "failed_frac": failed / len(units), "problems": problems,
    }
    if args.trace:
        if any(not u.get("restored", True) for u in units):
            problems.append("tracer left a wrapped function installed")
        pairs = [(b, a) for a, b in zip(units, units[1:])
                 if b["traced"] and "layers" in b and "wall_s" in a]
        if not pairs:
            raise BenchError("traced run produced no traced unit next to an untraced one")
        traced = [b for b, _ in pairs]
        metrics = {name: statistics.median(u["layers"][name] for u in traced)
                   for name in traced[0]["layers"]}
        metrics["model.load_s"] = report["model_load_s"]
        metrics["cli.bytes_written"] = statistics.median(u["cli_bytes"] for u in traced)
        metrics["cli.records_written"] = statistics.median(u["cli_records"] for u in traced)
        # Each traced unit against the untraced unit just before it.
        metrics["trace.overhead_s"] = statistics.median(b["wall_s"] - a["wall_s"]
                                                        for b, a in pairs)
        info["spans_file"] = report["spans_file"]
    else:
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups) * scale["setup_s"],
            "wall_s": statistics.median(untraced) * scale["wall_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "output_bytes": statistics.median(u["output_bytes"] for u in units),
            "pass_frac": (len(units) - failed) / len(units),
        }
    if metrics.keys() != units_of.keys():
        raise BenchError(f"measured metrics differ from BENCHMARK.json in "
                         f"{sorted(metrics.keys() ^ units_of.keys())}")
    result = {"correct": not problems, "attempted": len(units), "failed": failed,
              "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()}}
    return result, info


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lfns" / "__init__.py").is_file():
        print(f"bench: no lfns sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        print("bench: --seconds must be a positive number", file=sys.stderr)
        return 2
    deadline = perf_counter() + args.seconds + SLACK_S
    try:
        units_of = declared_units(args.trace)
        extra = 0 if args.trace else SETUP_PROCESSES
        setups = [setup_only(args, deadline) for _ in range(extra // 2)]
        proc, setup = start_worker(args)
        lines = finish(proc, deadline).strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exit code {proc.returncode}")
        report = json.loads(lines[-1])
        setups.append((setup, report["probes_s"][0]))
        setups += [setup_only(args, deadline) for _ in range(extra - extra // 2)]
        result, info = summarise(args, setups, report, units_of)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'gate':34s} {'pass' if result['correct'] else 'FAIL'} "
          f"({result['failed']} of {result['attempted']} units failed)")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
