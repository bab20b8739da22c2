#!/usr/bin/env python3
"""dpic benchmark: the user-facing CLI operations, timed and checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; dpic is imported from src/ there.  The
CLI runs in-process (dpic.cli.main), so interpreter start-up is excluded
from wall_s.  With --trace 0 the last stdout line holds the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced operation.
Outputs and traces go to .bench_run/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from checks import check_simulate, check_sweep, feasible_segments
from probe import NOMINAL_S, timed
from tracing import Tracer
from workloads import polytope_lti_config, write_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

WORKLOADS = ("four-tank-sim", "four-tank-sweep", "polytope-lti")
SETUP_REPEATS = 5
# the outputs a simulate or sweep run writes, compared between traced and
# untraced runs
OUTPUT_FILES = {"simulate": ("trajectory.csv", "summary.json"),
                "sweep": ("sweep.csv", "sweep_summary.json")}


def load_dpic():
    """Import dpic from this checkout's src/, never from an installed copy."""
    if not (SRC / "dpic" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dpic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dpic
    import dpic.cli

    if Path(dpic.__file__).resolve().parent != (SRC / "dpic").resolve():
        raise ImportError(f"imported dpic from {dpic.__file__}, not from {SRC}")
    return dpic


class Operation:
    """One workload instance: CLI arguments, set-up source and output check."""

    def __init__(self, name: str, seed: int, work: Path, reduced: bool = False):
        import dpic

        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.command = "sweep" if name == "four-tank-sweep" else "simulate"
        if name == "polytope-lti":
            cfg = polytope_lti_config(seed, segment=100 if reduced else 200)
        else:
            cfg = dpic.preset_config("four-tank")
            cfg["seed"] = seed
        if reduced and self.command == "sweep":
            cfg["sweep"].update({"T_i": [10.0, 30.0], "lambda": [0.1, 0.5]})
        if name == "polytope-lti" or (reduced and self.command == "sweep"):
            path = write_config(cfg, work / f"{name}-{seed}.json")
            self.source = ["--config", str(path)]
        else:
            self.source = ["--preset", "four-tank", "--seed", str(seed)]
        setup = dpic.build_setup(cfg)
        if self.command == "simulate":
            feasible = feasible_segments(setup)
            self._check = lambda rc, out: check_simulate(rc, out, feasible)
        else:
            points = len(setup.sweep["T_i"]) * len(setup.sweep["lambda"])
            self._check = lambda rc, out: check_sweep(rc, out, points)

    def argv(self, out: Path) -> list[str]:
        return [self.command, *self.source, "--out", str(out)]

    def run(self, out: Path) -> int:
        """Run the CLI once into a fresh out; an escaped exception gives -1."""
        import dpic.cli

        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return dpic.cli.main(self.argv(out))
        except Exception:  # the operation failed; the run goes on and counts it
            traceback.print_exc(file=sys.stderr)
            return -1

    def check(self, rc: int, out: Path) -> list[str]:
        try:
            return self._check(rc, out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]

    def outputs(self, out: Path) -> dict[str, bytes]:
        return {f: (out / f).read_bytes() for f in OUTPUT_FILES[self.command]
                if (out / f).is_file()}


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def measure_setup(op: Operation, repeats: int) -> list[dict]:
    """Import dpic and build the run objects in fresh interpreters."""
    kind, value = op.source[0], op.source[1]
    results = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), str(SRC), kind, value],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def warm_up(work: Path) -> None:
    """One small untimed run, so that lazy imports and caches settle."""
    import dpic.cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = dpic.cli.main(["simulate", "--preset", "lti-demo",
                            "--out", str(fresh_dir(work / "warmup"))])
    if rc != 0:
        raise RuntimeError(f"warm-up run exited {rc}")


def environment() -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "probe_nominal_s": NOMINAL_S,
    }


def measure(op: Operation, seconds: float, work: Path) -> tuple[dict, dict]:
    """Untraced run: set-up, then operations until seconds have passed."""
    setups = measure_setup(op, SETUP_REPEATS)
    warm_up(work)
    runs = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        out = fresh_dir(work / "out")
        rc, elapsed, nominal = timed(op.run, out)
        runs.append({"elapsed_s": elapsed, "nominal_s": nominal,
                     "errors": op.check(rc, out)})
    failed = sum(bool(r["errors"]) for r in runs)
    metrics = {
        "wall_s": (statistics.median(r["nominal_s"] for r in runs), "s"),
        "setup_s": (statistics.median(s["nominal_s"] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": ((len(runs) - failed) / len(runs), "ratio"),
    }
    detail = {"ops": runs, "setups": setups,
              "raw_wall_s": statistics.median(r["elapsed_s"] for r in runs)}
    return metrics, detail


def _percentile_us(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q)) * 1e6 if durations.size else 0.0


def layer_metrics(tracer: Tracer, speed: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced operation; times are scaled by the
    operation's mean host speed, like the wall times."""
    summary = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "durations": np.zeros(0),
             "parent_layers": np.zeros(0, dtype=int)}

    def get(layer):
        return summary.get(layer, empty)

    out: dict[str, tuple[float, str]] = {}
    for layer in ("plants.step", "plants.pi_x", "controller.step", "sets.contains",
                  "sets.project", "sets.normal_cone", "sets.bounding_box",
                  "metric.norm"):
        out[f"{layer}.calls"] = (get(layer)["calls"], "count")
    for layer in ("plants.step", "plants.pi_x", "controller.step", "sets.contains",
                  "sets.project", "sets.normal_cone", "sets.bounding_box",
                  "vi.estimate_mu_L", "vi.solve_vi", "simulation.simulate",
                  "simulation.change_of_coordinates", "simulation.classify_convergence",
                  "simulation.gain_sweep", "config.build_setup", "cli"):
        out[f"{layer}.self_s"] = (get(layer)["self_s"] * speed, "s")
    out["metric.self_s"] = (speed * sum(v["self_s"] for k, v in summary.items()
                                        if k.startswith("metric.")), "s")
    for layer, qs in (("plants.step", (50,)), ("controller.step", (50, 99)),
                      ("sets.project", (50, 99))):
        for q in qs:
            out[f"{layer}.p{q}_us"] = (speed * _percentile_us(get(layer)["durations"], q),
                                       "us")
    steps = get("controller.step")["calls"]
    step_id = tracer.layers.index("controller.step") if steps else -2
    from_steps = int(np.count_nonzero(get("sets.project")["parent_layers"] == step_id))
    out["sets.project.frac"] = (from_steps / steps if steps else 0.0, "ratio")
    out["sets.project.dykstra_calls"] = (tracer.iterative_projections, "count")
    out["sets.project.dykstra_cycles"] = (tracer.projection_cycles, "count")
    out["sets.project.max_residual"] = (tracer.max_projection_residual, "P-norm")
    out["sets.project.errors"] = (tracer.projection_errors, "count")
    out["vi.solve_vi.iterations"] = (tracer.vi_iterations, "count")
    out["trace.spans"] = (len(tracer.start), "count")
    return out


def measure_traced(op: Operation, seconds: float, work: Path, seed: int) -> tuple[dict, dict]:
    """Pairs of one untraced and one traced operation until seconds have
    passed; per-layer metrics of the first traced operation.

    trace.wall_s is the median traced nominal time and trace.overhead_s its
    excess over the median untraced one, so that the overhead is not one
    operation's noise."""
    warm_up(work)
    pairs = []
    first = None
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        plain_out = fresh_dir(work / "out")
        rc_plain, _, plain_nominal = timed(op.run, plain_out)
        traced_out = fresh_dir(work / "out-traced")
        tracer = Tracer()
        with tracer:
            rc_traced, traced_elapsed, traced_nominal = timed(op.run, traced_out)
        errors = {"untraced": op.check(rc_plain, plain_out),
                  "traced": op.check(rc_traced, traced_out)}
        if op.outputs(plain_out) != op.outputs(traced_out):
            errors["traced"].append("traced run wrote different outputs than the untraced run")
        if first is None:
            first = (tracer, traced_nominal / traced_elapsed)
        pairs.append({"untraced_wall_s": plain_nominal, "traced_wall_s": traced_nominal,
                      "errors": errors})
    tracer, speed = first
    metrics = layer_metrics(tracer, speed)
    traced_wall = statistics.median(p["traced_wall_s"] for p in pairs)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(p["untraced_wall_s"] for p in pairs), "s")
    spans = tracer.save(work / "traces" / f"{op.name}-seed{seed}.npz")
    detail = {"pairs": pairs, "spans_file": str(spans)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_dpic()
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    fresh_dir(work)
    op = Operation(args.workload, args.seed, work)
    if args.trace:
        metrics, detail = measure_traced(op, args.seconds, work, args.seed)
        runs = [e for p in detail["pairs"] for e in p["errors"].values()]
        attempted = len(runs)
        failed = sum(bool(e) for e in runs)
    else:
        metrics, detail = measure(op, args.seconds, work)
        attempted = len(detail["ops"])
        failed = sum(bool(r["errors"]) for r in detail["ops"])
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), **detail}
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
