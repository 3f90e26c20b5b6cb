"""Runs one workload in this process: set-up, timed or traced executions of
the CLI command, output checks, and the report. run.py is the entry point;
it pins the thread pools and puts the repository's src/ first on sys.path
before this module imports numpy and portalloc."""
from __future__ import annotations

import gc
import importlib.util
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
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import numpy as np

from portalloc import cli

import checks
import spans
import workloads
from run import PINNED_THREADS

SETUP_REPEATS = 3
DEADLINE_S = 150.0        # start no execution that could end after this
IMPORT_PROBE = ("import time; t = time.perf_counter(); import portalloc.cli; "
                "print(time.perf_counter() - t)")
# the end-to-end metrics of BENCHMARK.json, reported with --trace 0
END_TO_END = ("run_ref", "cpu_per_wall", "peak_rss_mb", "setup_s")
REFERENCE_LOOPS = 1000


def layer_unit(name: str) -> str:
    if name == "cli.bytes_written":
        return "bytes"
    if name == "allocators.converged_frac":
        return "fraction"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_s") or ".solve_s." in name:
        return "s"
    return "count"


def _reference_task() -> float:
    # a small conv forward on a lag window and projected-gradient steps on a
    # 24x24 covariance, written here independently of the program's code
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 7))
    k = rng.normal(size=(10, 8, 3))
    a = rng.normal(size=(24, 48))
    sigma = a @ a.T / 48.0
    w = np.full(24, 1.0 / 24)
    total = 0.0
    for _ in range(REFERENCE_LOOPS):
        windows = np.lib.stride_tricks.sliding_window_view(x, 3, axis=1)
        y = np.maximum(np.einsum("cij,ocj->oi", windows, k), 0.0)
        e = np.exp(y.sum(axis=1) - y.sum(axis=1).max())
        total += float((e / e.sum())[0])
        w = np.maximum(w - 0.1 * (sigma @ w), 0.0)
        w /= w.sum()
    return total + float(w @ sigma @ w)


def reference_s() -> float:
    """Median of five timings of a fixed task made of what the program's hot
    loops are made of: small numpy operations and Python arithmetic. A shared
    host can change speed by a fifth within minutes; a command's time divided
    by this task's time, measured right before and after it, changes less."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _reference_task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def set_up(name: str, seed: int, tiny: bool, workdir: str, env: dict[str, str]):
    """One set-up: import of the program in a fresh interpreter, then panel
    generation, CSV write and constraint-level derivation for every panel.
    Returns the seconds it took and the prepared panels."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                           capture_output=True, text=True, timeout=120)
    import_s = float(probe.stdout.split()[-1])
    start = time.perf_counter()
    preps = [workloads.prepare(name, seed, panel, tiny, workdir)
             for panel in range(workloads.PANELS)]
    return import_s + time.perf_counter() - start, preps


def execute(prep, recorder=None) -> dict:
    """Run the command once into a fresh outdir and check what it wrote."""
    shutil.rmtree(prep.outdir, ignore_errors=True)
    gc.collect()
    sink = io.StringIO()
    error = ""
    code = None
    with spans.hooked(recorder) if recorder is not None else nullcontext([]) as absent:
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main(list(prep.argv))
        except Exception:  # a crash is a failed operation, reported below
            error = traceback.format_exc(limit=4)
        run_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
    results = [("exit_code", code == 0, f"exit code {code}; {error or sink.getvalue()[-300:]}"
                if code != 0 else "0")]
    if code == 0:
        try:
            results += checks.check_outputs(prep, workloads.COST_RATE)
        except Exception as exc:  # unreadable outputs fail the execution
            results.append(("readable_outputs", False, f"{type(exc).__name__}: {exc}"))
    files = checks.digests(prep.outdir) if os.path.isdir(prep.outdir) else {}
    record = {"panel": prep.panel, "run_s": run_s, "cpu_s": cpu_s,
              "traced": recorder is not None,
              "ok": all(ok for _, ok, _ in results),
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
              "digest": checks.combined_digest(files), "files": files}
    if recorder is not None:
        record["absent"] = list(absent)
    return record


def machine_facts(args) -> dict:
    try:
        from portalloc import _kernels
        using_numba = bool(_kernels.USING_NUMBA)
    except (ImportError, AttributeError):
        using_numba = "absent"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "kernels_using_numba": using_numba,
            "threads": {var: os.environ.get(var) for var in PINNED_THREADS},
            "workload_seed": args.seed, "tiny": args.tiny}


def measure(args, env: dict[str, str], workdir: str, recorder,
            started: float) -> tuple[list, list[float], list[dict]]:
    """Set up, then execute the command for about --seconds, cycling through
    the panels. With a recorder each round is an untraced then a traced
    execution of the same panel. Each round is bracketed by timings of the
    reference task. The set-up is repeated SETUP_REPEATS times in all, spread
    evenly over the run, so that its median does not hang on one moment's
    host speed. Returns the panels, the set-up times and the executions."""
    setup_s, preps = set_up(args.workload, args.seed, args.tiny, workdir, env)
    setups = [setup_s]
    records: list[dict] = []
    per_round = 1 if recorder is None else 2
    measure_start = time.perf_counter()
    ref_before = reference_s()
    while True:
        prep = preps[len(records) // per_round % len(preps)]
        group = [execute(prep)]
        if recorder is not None:
            group.append(execute(prep, recorder))
        ref_after = reference_s()
        for record in group:
            record["ref_s"] = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        records += group
        round_s = statistics.median(
            sum(r["run_s"] + r["ref_s"] for r in records[i:i + per_round])
            for i in range(0, len(records), per_round))
        elapsed = time.perf_counter() - measure_start
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(set_up(args.workload, args.seed, args.tiny, workdir, env)[0])
        # the rerun digest comparison needs one panel executed twice
        rerun = len(records) > len(preps) or recorder is not None
        done = rerun and elapsed + round_s > args.seconds
        if done or time.perf_counter() - started + 1.5 * round_s > DEADLINE_S:
            return preps, setups, records


def run_workload(args, env: dict[str, str]) -> int:
    started = time.perf_counter()
    workdir = os.path.join(".bench_run", "tiny" if args.tiny else "", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    recorder = spans.Recorder() if args.trace else None
    preps, setups, records = measure(args, env, workdir, recorder, started)

    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    run_s = statistics.median(r["run_s"] for r in untraced)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    # name -> (value, unit); the gated ones first, then those only printed
    metrics = {
        "run_ref": (statistics.median(r["run_s"] / r["ref_s"] for r in untraced), "ref"),
        "cpu_per_wall": (statistics.median(r["cpu_s"] / r["run_s"] for r in untraced),
                         "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in untraced), "s"),
        "ref_ms": (1000.0 * statistics.median(r["ref_s"] for r in untraced), "ms"),
        "failed_frac": (failed / attempted, "fraction"),
    }
    if preps[0].iterations:
        metrics["train_iters_per_s"] = (preps[0].iterations / run_s, "1/s")
    if preps[0].model_days:
        metrics["model_days_per_s"] = (preps[0].model_days / run_s, "1/s")
    layers: dict[str, float] = {}
    absent: list[str] = []
    if traced:
        layers = spans.layer_metrics(recorder, len(traced))
        layers["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - run_s
        absent = traced[0]["absent"]
    digests = {p.panel: sorted({r["digest"] for r in records if r["panel"] == p.panel})
               for p in preps}
    identical = all(len(d) <= 1 for d in digests.values())
    facts = machine_facts(args)

    for key, value in facts.items():
        print(f"fact {key} = {value}")
    for p in preps:
        print(f"panel {p.panel}: " + ", ".join(
            [f"data seed {p.data_seed}"] + [f"{k} = {v!r}" for k, v in p.levels.items()]))
    print(f"executions = {len(untraced)} untraced, {len(traced)} traced")
    failures = {(c["name"], c["detail"]) for r in records for c in r["checks"] if not c["ok"]}
    for name, detail in sorted(failures):
        print(f"check FAILED {name}: {detail}")
    print(f"checks run = {sum(len(r['checks']) for r in records)}, "
          f"failed executions = {failed}")
    print(f"rerun identical = {identical}; output digests = "
          + "; ".join(f"panel {k}: {' '.join(v)}" for k, v in digests.items()))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name in absent:
        print(f"layer hook absent: {name}")
    for name, value in layers.items():
        print(f"layer {name} = {value:.6g} {layer_unit(name)}")

    if recorder is not None:
        recorder.write_jsonl(os.path.join(workdir, "spans.jsonl"))
    results = {"workload": args.workload, "facts": facts,
               "panels": [{"data_seed": p.data_seed, "levels": p.levels, "argv": p.argv}
                          for p in preps],
               "setup_s": setups, "metrics": {k: v for k, (v, _) in metrics.items()},
               "layers": layers, "absent": absent, "rerun_identical": identical,
               "digests": digests, "executions": records}
    with open(os.path.join(workdir, "results.json"), "w") as fh:
        json.dump(results, fh, indent=1, default=str)

    if args.trace:
        reported = {name: {"value": value, "unit": layer_unit(name)}
                    for name, value in layers.items()}
    else:
        reported = {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0
