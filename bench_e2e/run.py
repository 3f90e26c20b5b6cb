#!/usr/bin/env python3
"""End-to-end benchmark of the portalloc command line.

Run from the repository root:

    python3 bench_e2e/run.py --workload compare-convex --seed 3 --seconds 30 --trace 0
    python3 bench_e2e/run.py --workload all            # every workload, one process each
    python3 bench_e2e/run.py --workload all --tiny     # smoke size, a few seconds each

One invocation runs one workload in this single process, with the BLAS thread
pools pinned to one thread. It generates the inputs from --seed (set-up, timed
several times), then calls ``portalloc.cli.main`` in process, one command at a
time, for about --seconds, and checks every execution's outputs. Command times
are reported as run_ref: divided by the time of a fixed reference task measured
around them (see bench.py). With --trace 0
it reports end-to-end metrics; with --trace 1 it alternates untraced and traced
executions and reports per-layer metrics from spans recorded around the
program's public functions (see spans.py), plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Working files,
results.json (machine facts, seeds, constraint levels, output digests, every
check) and the spans of the traced executions go to .bench_run/<workload>/.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-acceptance", "compare-convex", "compare-mixed")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            summary["correct"] = False
            code = 1
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in PINNED_THREADS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    os.chdir(ROOT)  # paths handed to the program stay relative, so manifests repeat
    if not os.path.isfile(os.path.join(SRC, "portalloc", "cli.py")):
        print(f"no portalloc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import portalloc
    if not os.path.abspath(portalloc.__file__).startswith(SRC + os.sep):
        print(f"portalloc imported from {portalloc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench import run_workload

    return run_workload(args, child_env())


if __name__ == "__main__":
    sys.exit(main())
