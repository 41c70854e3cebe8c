"""The benchmark's own tests.

    python3 perfbench/selftest.py                      # every workload
    python3 perfbench/selftest.py --workloads quench,analytic --seed 3

Run from the repository root. Checks, in order:

1. definition: ``BENCHMARK.json`` names the workloads ``workloads.py``
   builds and the per-layer metrics the tracer reports;
2. outcomes: an operation that raises, exits with an undeclared code or
   misses its oracle makes the run incorrect; the declared known exit
   counts as failed but leaves it correct;
3. self time: the span arithmetic on a hand-built span tree;
4. rebinding: `Tracer.install` reaches the names ``cli`` and ``numerics``
   imported, and `uninstall` restores every one;
5. bare directory: with only ``BENCHMARK.json`` and ``perfbench/``
   present, ``run.py`` exits nonzero without printing a result;
6. exact counters: two traced runs of one seed, in separate processes,
   report identical values for every counter in
   ``tracing.EXACT_COUNTERS``.

Exits 0 when every check passes.
"""

import argparse
import json
import pathlib
import shutil
import subprocess
import sys

import run
import tracing
import workloads
from workloads import CheckFailed, ExitCodeError, Operation

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def check_definition():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(workloads.WORKLOADS), names
    reported = set(tracing.Tracer().take()) | {"trace.overhead_s"}
    assert reported == set(run.metric_units(trace=1)), reported


def check_outcomes():
    def raising(exc):
        def fn(*_args):
            raise exc
        return fn

    def rejecting(_result):
        raise CheckFailed("wrong")

    def accept(_result):
        pass

    def tally(*ops):
        t = run.Tally()
        run.run_pass(list(ops), t)
        return t

    ok = Operation("ok", lambda: 0, accept)
    known = Operation("probe", raising(ExitCodeError(3, "")), accept, expect_exit=3)
    cases = {
        "all succeed": (tally(ok), True, 0),
        "known exit": (tally(ok, known), True, 1),
        "fixed probe": (tally(Operation("probe", lambda: 0, accept, 3)), True, 0),
        "raises": (tally(ok, Operation("crash", raising(ValueError("x")), accept)),
                   False, 1),
        "other exit": (tally(Operation("probe", raising(ExitCodeError(1, "")),
                                       accept, expect_exit=3)), False, 1),
        "undeclared exit": (tally(Operation("cli", raising(ExitCodeError(3, "")),
                                            accept)), False, 1),
        "missed oracle": (tally(Operation("wrong", lambda: 0, rejecting, 3)), False, 1),
        "unreadable output": (tally(Operation("gone", lambda: 0,
                                              raising(FileNotFoundError("f")))),
                              False, 1),
    }
    for case, (t, correct, failed) in cases.items():
        assert (t.correct, t.failed) == (correct, failed), (case, t.correct, t.failed)


def check_self_time():
    spans = [("a", 0.0, 10.0, -1, True),   # children b and c
             ("b", 1.0, 4.0, 0, True),     # child d
             ("d", 2.0, 3.0, 1, True),
             ("c", 5.0, 6.0, 0, False)]
    got = dict(tracing.self_times(spans))
    want = {"a": 6.0, "b": 2.0, "d": 1.0, "c": 1.0}
    assert got == want, got
    # the same tree as the tail of a longer span list
    shifted = [(n, s, e, p + 7 if p >= 0 else p, ok) for n, s, e, p, ok in spans]
    assert dict(tracing.self_times(shifted, first=7)) == want


def check_rebinding():
    sys.path.insert(0, str(ROOT / "src"))
    from dqlm import cli, liouvillian, numerics

    originals = (cli.assemble, numerics.assemble, liouvillian.assemble,
                 numerics.spectrum_of, cli.spectrum_of)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.assemble is numerics.assemble is liouvillian.assemble
        assert cli.assemble.__wrapped__ is originals[0]
        assert cli.spectrum_of is numerics.spectrum_of is not originals[3]
    finally:
        tracer.uninstall()
    assert (cli.assemble, numerics.assemble, liouvillian.assemble,
            numerics.spectrum_of, cli.spectrum_of) == originals


def check_bare_directory():
    bare = ROOT / ".bench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "quench",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    assert '"correct"' not in proc.stdout, proc.stdout


def traced_counters(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in tracing.EXACT_COUNTERS}


def check_exact_counters(workloads, seed):
    for workload in workloads:
        first = traced_counters(workload, seed)
        second = traced_counters(workload, seed)
        differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        assert not differ, f"{workload}: counters differ between runs: {differ}"
        print(f"  {workload}: {json.dumps(first)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default="block_sweep,dense_spectra,quench,analytic")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    checks = [("definition", check_definition),
              ("outcomes", check_outcomes),
              ("self time", check_self_time),
              ("rebinding", check_rebinding),
              ("bare directory", check_bare_directory),
              ("exact counters", lambda: check_exact_counters(
                  args.workloads.split(","), args.seed))]
    failed = 0
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
