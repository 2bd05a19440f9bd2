"""Pipeline benchmark for spatialspn: discover parts, train, evaluate,
ablate, classify.

    python3 perfbench/run.py --workload hier-mirror --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the program is imported from
`src/`. With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. Every result, with the machine facts and each check, is also
written to perfbench/out/.
"""

import os

# BLAS and OpenMP pinned to one thread before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_program():
    """Import spatialspn from this checkout's src/, and nowhere else."""
    init = os.path.join(SRC, "spatialspn", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no program source at {init}; run from a source checkout")
    sys.path.insert(0, SRC)
    import spatialspn

    if os.path.realpath(spatialspn.__file__) != os.path.realpath(init):
        sys.exit(f"perfbench: spatialspn imported from {spatialspn.__file__}, not {SRC}")


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    from pipeline import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:] or ["(no result)"]
        print(f"{name}: {last[0]}")
        worst = max(worst, proc.returncode)
    return worst


def run_one(args) -> int:
    from pipeline import WORKLOADS, run_workload
    from spans import Recorder

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recorder = Recorder() if args.trace else None
    run, metrics = run_workload(workload, args.seed, args.seconds, recorder,
                                os.path.join(OUT, f"work-{tag}-{os.getpid()}"))
    correct = all(ok for _, ok, _ in run.checks)
    for name, ok, detail in run.checks:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)

    if recorder is not None:
        recorder.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"))
        reported = recorder.layer_metrics()
        untraced_path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace0.json")
        if os.path.exists(untraced_path):
            with open(untraced_path, encoding="utf-8") as fh:
                untraced = json.load(fh)["end_to_end"]
            for name, (value, unit) in metrics.items():
                base = untraced[name]["value"]
                print(f"tracing overhead {name}: {value - base:+.6g} {unit} "
                      f"({(value - base) / base:+.1%})")
    else:
        reported = metrics

    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    facts = machine_facts()
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": facts, "checks": run.checks, "quality": run.quality,
            "samples": {k: v for k, v in run.samples.items() if k != "classify"},
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "result": result,
        }, fh, indent=1)
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _import_program()
    if args.workload == "all":
        return run_all(args)
    from pipeline import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choices: all, {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
