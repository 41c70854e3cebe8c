"""Run `run.py` over several seeds and summarize the spread of each metric.

    python3 perfbench/sweep.py --workloads quench,analytic --seeds 1-10
    python3 perfbench/sweep.py --workloads block_sweep --seeds 1,2 --trace 1 \
        --out perfbench/results/trace.json

Runs are sequential, one process at a time, from the repository root.
For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median. For end-to-end metrics
the spread is compared with the bound in ``BENCHMARK.json``: a benchmark
is steady when every spread stays below a third of its bound. ``--out``
writes the raw values, the summary and the machine record as JSON.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line.split(": ", 1)[1]) for line in lines
                    if line.startswith("machine: ")), None)
    return {**json.loads(lines[-1]), "elapsed_s": elapsed}, machine


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, machine = run_once(workload, seed, args.seconds, args.trace)
            report.setdefault("machine", machine)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if args.trace == 0 or not k.endswith("_s")), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"values": values, **summarize(values)}
        report["workloads"][workload] = {
            "runs": [{k: r[k] for k in
                      ("seed", "correct", "attempted", "failed", "elapsed_s")}
                     for r in runs],
            "metrics": metrics,
        }
        for name, row in metrics.items():
            verdict = ""
            if name in bounds and row["spread"] is not None:
                ok = row["spread"] < bounds[name] / 3
                steady &= ok
                verdict = f" bound {bounds[name]} {'ok' if ok else 'TOO WIDE'}"
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {workload:14s} {name:28s} median {row['median']:.6g} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {spread}{verdict}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
