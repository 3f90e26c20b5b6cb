"""Smoke tests of the end-to-end benchmark.

Every workload runs at tiny size, untraced and traced, and must print every
metric of BENCHMARK.json with its unit, with all output checks passing. The
output checks themselves must reject tampered outputs.

    PYTHONPATH=src python3 -m pytest -q bench_e2e/test_smoke.py
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from portalloc import cli  # noqa: E402

WORKLOADS = ("train-acceptance", "compare-convex", "compare-mixed")
DERIVED = {"failed_frac": ("fraction", WORKLOADS),
           "train_iters_per_s": ("1/s", ("train-acceptance", "compare-mixed")),
           "model_days_per_s": ("1/s", ("compare-convex", "compare-mixed"))}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_all(trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
                           "--tiny", "--seconds", "0", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _sections(lines: list[str]) -> list[list[str]]:
    """Split the relayed output into one block per workload (each starts with facts)."""
    blocks: list[list[str]] = []
    for line in lines:
        if line.startswith("fact nproc"):
            blocks.append([])
        blocks[-1].append(line)
    return blocks


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit_and_checks_pass(trace):
    lines, summary = _run_all(trace)
    spec = _spec()
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 2 * len(WORKLOADS)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for workload in WORKLOADS:
        got = {k.split("/", 1)[1]: v for k, v in summary["metrics"].items()
               if k.startswith(workload + "/")}
        assert set(got) == {m["name"] for m in wanted}
        for metric in wanted:
            assert got[metric["name"]]["unit"] == metric["unit"]
            assert isinstance(got[metric["name"]]["value"], float)
    blocks = _sections(lines)
    assert len(blocks) == len(WORKLOADS)
    for workload, block in zip(WORKLOADS, blocks):
        text = "\n".join(block)
        assert re.search(r"^checks run = [1-9]\d*, failed executions = 0$", text, re.M)
        assert "rerun identical = True" in text
        for metric in spec["end_to_end"]:
            assert re.search(rf"^metric {re.escape(metric['name'])} = \S+ "
                             rf"{re.escape(metric['unit'])}$", text, re.M), metric
        for name, (unit, where) in DERIVED.items():
            if workload in where:
                assert re.search(rf"^metric {name} = \S+ {re.escape(unit)}$", text, re.M)
        if trace:
            for metric in spec["per_layer"]:
                assert re.search(rf"^layer {re.escape(metric['name'])} = \S+ "
                                 rf"{re.escape(metric['unit'])}$", text, re.M), metric
    if trace:
        value = {k: v["value"] for k, v in summary["metrics"].items()}
        for name in ("trainer.train_s", "trainer.rollout_s", "policy.forward_calls",
                     "autodiff.tape_ops", "kernels.conv1d_fwd_calls"):
            assert value[f"compare-convex/{name}"] == 0.0
            assert value[f"train-acceptance/{name}"] > 0.0
        for name in ("allocators.solves", "risk_models.estimate_calls", "backtest.model_days"):
            assert value[f"train-acceptance/{name}"] == 0.0
            assert value[f"compare-convex/{name}"] > 0.0
        assert value["compare-convex/allocators.binding"] > 0.0
        assert value["compare-mixed/viz.svg_s"] > 0.0


def _prepared_run(name: str, tmp_path) -> workloads.Prepared:
    prep = workloads.prepare(name, seed=3, panel=0, tiny=True, workdir=str(tmp_path))
    assert cli.main(list(prep.argv)) == 0
    assert all(ok for _, ok, _ in checks.check_outputs(prep, workloads.COST_RATE))
    return prep


def _failed(prep) -> set[str]:
    return {n for n, ok, _ in checks.check_outputs(prep, workloads.COST_RATE) if not ok}


def _rewrite_cell(path: str, row: int, col: int, transform) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(transform(float(cells[col])))
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_compare_checks_reject_tampered_outputs(tmp_path):
    prep = _prepared_run("compare-convex", tmp_path)
    curves = os.path.join(prep.outdir, "curves.csv")
    _rewrite_cell(curves, 5, 1, lambda v: v * (1 + 1e-8))
    assert _failed(prep) == {"replay_markowitz"}
    _rewrite_cell(curves, 5, 1, lambda v: v / (1 + 1e-8))
    weights = os.path.join(prep.outdir, "weights_minvariance.csv")
    _rewrite_cell(weights, 3, 1, lambda v: -v - 1e-3)
    assert {"weights_minvariance", "replay_minvariance"} <= _failed(prep)
    os.remove(weights)
    assert _failed(prep) == {"expected_files"}


def test_train_checks_reject_short_log_and_bad_checkpoint(tmp_path):
    prep = _prepared_run("train-acceptance", tmp_path)
    log = os.path.join(prep.outdir, "train_log_w00.csv")
    with open(log) as fh:
        rows = fh.read().splitlines()
    with open(log, "w") as fh:
        fh.write("\n".join(rows[:-1]) + "\n")
    checkpoint = os.path.join(prep.outdir, "checkpoint_w00.txt")
    with open(checkpoint) as fh:
        text = fh.read()
    with open(checkpoint, "w") as fh:
        fh.write(text.replace("\nend\n", "\n"))
    assert _failed(prep) == {"log_train_log_w00.csv", "load_checkpoint_w00.txt"}


def test_digests_follow_content(tmp_path):
    (tmp_path / "a.txt").write_text("x")
    first = checks.combined_digest(checks.digests(str(tmp_path)))
    assert first == checks.combined_digest(checks.digests(str(tmp_path)))
    (tmp_path / "a.txt").write_text("y")
    assert first != checks.combined_digest(checks.digests(str(tmp_path)))
