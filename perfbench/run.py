"""Run one dqlm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload block_sweep --seed 1 --seconds 10 --trace 0

Run from the repository root: the package is imported from ``src/``.
The seed fixes every input the program receives (see
``workloads.make_inputs``). The workload's operations run one after
another, in passes, until ``--seconds`` have gone by (at least one
pass); every result is checked against its oracle outside the timed
region.

``--trace 0`` prints the end-to-end metrics: median pass time, set-up
time (median of fresh-process imports) and peak RSS. ``--trace 1`` runs
rounds of one untraced and one traced pass, in alternating order, and
prints the per-layer metrics (median over traced passes for times,
per-pass values for counts) and the median traced-minus-untraced time
of a round, writing the spans to ``.bench_runs/``. Metric names and
units come from ``BENCHMARK.json``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``failed`` counts every
operation that raised, exited nonzero or missed its oracle. ``correct``
is false when any of those happened, except the one failure an
operation declares as known (``Operation.expect_exit``).
"""

import argparse
import itertools
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# one BLAS thread: steadier timings on a shared machine, and the load
# runs in a single process; set before numpy loads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracing import EXACT_COUNTERS, Tracer  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 11


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(repeats=SETUP_REPEATS):
    """Median time from spawning a fresh interpreter to the end of its
    ``import dqlm.cli``. The child reads the system-wide monotonic clock,
    so interpreter shutdown and the parent's wait are not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import dqlm.cli, time; print(time.monotonic())"
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        child = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                               timeout=120, stdin=subprocess.DEVNULL,
                               capture_output=True, text=True)
        times.append(float(child.stdout) - start)
    return statistics.median(times)


def metric_units(trace):
    """Metric name -> unit for one mode, as ``BENCHMARK.json`` lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


class Tally:
    """Operation outcomes across all passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures = {}

    def record(self, op, error):
        """Count a failed operation; it is unexpected unless it is the
        exit code the operation declares as known."""
        expected = (op.expect_exit is not None
                    and isinstance(error, workloads.ExitCodeError)
                    and error.code == op.expect_exit)
        self.failed += 1
        self.unexpected += int(not expected)
        note = "known failure" if expected else "unexpected"
        self.failures.setdefault(
            (op.name, expected), f"{note}: {type(error).__name__}: {error}")

    @property
    def correct(self):
        return self.unexpected == 0


def run_pass(ops, tally, tracer=None):
    """Run every operation once; return the pass's timed seconds."""
    timed = 0.0
    for op in ops:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            result = tracer.op(op.name, op.run) if tracer else op.run()
        except Exception as exc:  # a failed operation is data, not a crash
            timed += time.perf_counter() - t0
            tally.record(op, exc)
            continue
        timed += time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        try:
            op.check(result)
        except Exception as exc:  # a missed oracle or an unreadable output
            tally.record(op, exc)
        finally:
            if tracer:
                tracer.enabled = True
    return timed


def run_passes(ops, seconds, tally):
    """Untraced passes until `seconds` have elapsed; the timed length of
    each."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(run_pass(ops, tally))
        if time.perf_counter() - start >= seconds:
            return walls


def run_traced(ops, seconds, tally, tracer):
    """Rounds of one untraced and one traced pass until `seconds` have
    elapsed. The order alternates between rounds, so neither kind always
    runs first. Returns the tracer's per-layer metrics of each traced
    pass and the traced-minus-untraced time of each round."""
    layers, overheads = [], []
    start = time.perf_counter()
    for round_no in itertools.count():
        walls = {}
        for traced in (False, True) if round_no % 2 == 0 else (True, False):
            tracer.enabled = traced
            walls[traced] = run_pass(ops, tally, tracer if traced else None)
        tracer.enabled = True
        layers.append(tracer.take())
        overheads.append(walls[True] - walls[False])
        if time.perf_counter() - start >= seconds:
            return layers, overheads


def layer_metrics(layers, overheads):
    """One value per per-layer metric: median of times, per-pass counts."""
    out = {}
    for key in layers[0]:
        values = [m[key] for m in layers]
        if key in EXACT_COUNTERS and len(set(values)) != 1:
            print(f"warning: {key} differs between passes: {values}")
        out[key] = statistics.median(values)
    out["trace.overhead_s"] = statistics.median(overheads)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dqlm" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'dqlm'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    inputs = workloads.make_inputs(args.seed)
    print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")
    print(f"inputs: {inputs}")
    workdir = RUNS / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        ops = workloads.build(args.workload, inputs, workdir)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                layers, overheads = run_traced(ops, args.seconds, tally, tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(layers, overheads)
            print(f"rounds: {len(overheads)} (traced minus untraced: "
                  f"{', '.join(f'{d:.3f}' for d in overheads)} s)")
            spans_path = RUNS / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path}")
        else:
            setup = measure_setup()
            walls = run_passes(ops, args.seconds, tally)
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": setup,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            print(f"passes: {len(walls)} ({', '.join(f'{w:.3f}' for w in walls)} s)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metric_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError("metrics disagree with BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"fail_frac = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations failed, "
          f"{tally.unexpected} unexpectedly)")
    for (op_name, _), reason in tally.failures.items():
        print(f"failed: {op_name}: {reason}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
