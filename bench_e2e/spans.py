"""Spans around portalloc's public functions, recorded from outside ``src/``.

A hook replaces a function by a wrapper under the name through which callers
look it up. ``from .x import f`` binds ``f`` in the importing module at import
time, so such names are patched in the importing module too; names looked up
through a module object or imported inside a function at call time are patched
in the defining module. If no binding of a hook exists any more (the function
or its module was removed), the hook is reported as absent and its metrics
read 0 instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

CONVEX_METHODS = ("markowitz", "maxreturn", "minvariance", "maxdiversification",
                  "maxdecorrelation", "riskparity")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: dict | None = None


class Recorder:
    """Spans kept in memory: name, start, end, index of the enclosing span
    (-1 at top level) and the attributes a hook measured."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.attrs = measure(args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path: str) -> None:
        import json

        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start, "end": span.end,
                                     "parent": span.parent, "attrs": span.attrs}) + "\n")


def _solve_attrs(args, kwargs, report):
    active = tuple(getattr(report, "active_constraints", ()))
    return {"method": kwargs.get("method", args[0] if args else None),
            "iterations": int(getattr(report, "iterations", 0)),
            "converged": bool(getattr(report, "converged", False)),
            "non_unique": bool(getattr(report, "non_unique", False)),
            "binding": "return_target" in active or "risk_cap" in active}


# (span name, attribute measurer, [(module under portalloc, attribute), ...])
HOOKS = (
    ("market_data.load", None, [("cli", "load_price_csv")]),
    ("market_data.returns_vol", None, [("cli", "compute_returns"), ("cli", "rolling_volatility")]),
    ("features.obs", None, [("trainer", "build_observation"), ("features", "build_observation")]),
    ("trainer.window", None, [("cli", "make_window"), ("trainer", "make_window")]),
    ("trainer.train", lambda a, k, r: {"iterations": len(r.log)},
     [("cli", "train"), ("trainer", "train")]),
    ("trainer.rollout", None, [("trainer", "run_episode")]),
    ("trainer.objective", None, [("trainer", "buffer_objective")]),
    ("trainer.adam", None, [("trainer", "adam_step")]),
    # inference forwards; the objective's taped forwards are counted separately
    ("policy.forward", None, [("trainer", "forward"), ("policy", "forward")]),
    ("policy.forward_tape", None, [("trainer", "forward_tape")]),
    ("autodiff.backward", lambda a, k, r: {"tape_ops": len(a[0])}, [("autodiff", "backward")]),
    ("kernels.conv1d_fwd", None, [("_kernels", "conv1d_fwd")]),
    ("kernels.conv1d_bwd", None, [("_kernels", "conv1d_bwd")]),
    ("risk_models.estimate", None, [("risk_models", "estimate_stats"), ("cli", "estimate_stats")]),
    ("allocators.solve", _solve_attrs, [("allocators", "solve"), ("cli", "solve")]),
    ("backtest.run_strategy", lambda a, k, r: {"model_days": len(r.weights)},
     [("backtest", "run_strategy")]),
    ("backtest.metrics", None, [("backtest", "stitch_curves"), ("backtest", "report_for_curve")]),
    ("cli.report", None, [("cli", "report_table_csv"), ("cli", "report_table_text"),
                          ("cli", "curves_csv"), ("cli", "weights_csv"),
                          ("cli", "training_log_csv")]),
    ("cli.write", lambda a, k, r: {"bytes": len(a[1].encode())}, [("cli", "atomic_write_text")]),
    ("cli.checkpoint", lambda a, k, r: {"bytes": os.path.getsize(a[1])}, [("cli", "save_params")]),
    ("viz.svg", None, [("viz", "line_chart_svg"), ("viz", "stacked_area_svg")]),
)


@contextmanager
def hooked(recorder: Recorder):
    """Install every hook for the duration of the block; yields the names of
    the hooks that found no binding."""
    patched = []
    absent = []
    try:
        for name, measure, bindings in HOOKS:
            found = False
            for module_name, attr in bindings:
                try:
                    module = importlib.import_module(f"portalloc.{module_name}")
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    continue
                setattr(module, attr, recorder.wrap(name, original, measure))
                patched.append((module, attr, original))
                found = True
            if not found:
                absent.append(name)
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


PER_SAMPLE = {"allocators.solve_ms_p50", "allocators.solve_ms_p98", "allocators.converged_frac"}


def layer_metrics(recorder: Recorder, executions: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `executions` traced executions:
    times and counts per execution, solve percentiles and the converged share
    over all solves. Times are inclusive span durations in seconds unless the
    name says self time or ms."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr_sum: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(recorder.spans)
    solves = []
    for span in recorder.spans:
        duration = span.end - span.start
        total[span.name] += duration
        calls[span.name] += 1
        if span.parent >= 0:
            child_time[span.parent] += duration
        if span.name == "allocators.solve":
            solves.append((duration, span.attrs))
        elif span.attrs:
            for key, value in span.attrs.items():
                attr_sum[f"{span.name}.{key}"] += value
    replay_self = sum(s.end - s.start - child_time[i] for i, s in enumerate(recorder.spans)
                      if s.name == "backtest.run_strategy")
    solve_ms = np.array([1000.0 * d for d, _ in solves])
    count = len(solves)
    out = {
        "market_data.load_s": total["market_data.load"],
        "market_data.returns_vol_s": total["market_data.returns_vol"],
        "features.obs_calls": calls["features.obs"],
        "features.obs_s": total["features.obs"],
        "trainer.window_s": total["trainer.window"],
        "trainer.train_s": total["trainer.train"],
        "trainer.iterations": attr_sum["trainer.train.iterations"],
        "trainer.rollout_s": total["trainer.rollout"],
        "trainer.objective_s": total["trainer.objective"],
        "trainer.adam_s": total["trainer.adam"],
        "policy.forward_calls": calls["policy.forward"],
        "policy.forward_s": total["policy.forward"],
        "policy.forward_tape_calls": calls["policy.forward_tape"],
        "autodiff.backward_s": total["autodiff.backward"],
        "autodiff.tape_ops": attr_sum["autodiff.backward.tape_ops"],
        "kernels.conv1d_fwd_calls": calls["kernels.conv1d_fwd"],
        "kernels.conv1d_bwd_calls": calls["kernels.conv1d_bwd"],
        "kernels.conv1d_s": total["kernels.conv1d_fwd"] + total["kernels.conv1d_bwd"],
        "risk_models.estimate_calls": calls["risk_models.estimate"],
        "risk_models.estimate_s": total["risk_models.estimate"],
        "allocators.solves": count,
        "allocators.solve_ms_p50": float(np.percentile(solve_ms, 50)) if count else 0.0,
        "allocators.solve_ms_p98": float(np.percentile(solve_ms, 98)) if count else 0.0,
    }
    for method in CONVEX_METHODS:
        out[f"allocators.solve_s.{method}"] = sum(d for d, a in solves if a["method"] == method)
    out.update({
        "allocators.iterations": sum(a["iterations"] for _, a in solves),
        "allocators.converged_frac": sum(a["converged"] for _, a in solves) / count if count else 0.0,
        "allocators.non_unique": sum(a["non_unique"] for _, a in solves),
        "allocators.binding": sum(a["binding"] for _, a in solves),
        "backtest.replay_self_s": replay_self,
        "backtest.model_days": attr_sum["backtest.run_strategy.model_days"],
        "backtest.metrics_s": total["backtest.metrics"],
        "cli.report_s": total["cli.report"] + total["cli.write"],
        "cli.bytes_written": attr_sum["cli.write.bytes"] + attr_sum["cli.checkpoint.bytes"],
        "cli.checkpoint_s": total["cli.checkpoint"],
        "viz.svg_s": total["viz.svg"],
        "trace.spans": len(recorder.spans),
    })
    return {k: float(v) if k in PER_SAMPLE else float(v) / executions for k, v in out.items()}
