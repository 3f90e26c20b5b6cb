"""Command-line interface.

Subcommands: ingest, synth, allocate, train, backtest, compare, plot.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.

Configuration is a flat ``key = value`` text file (see README for the key
list); command-line flags override file values. Every run writes a
``manifest.txt`` with the effective configuration, seed and versions, which
is sufficient to reproduce the outputs byte for byte.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .allocators import method_names, solve
from .backtest import (CompareConfig, DataBundle, compare_models, curves_csv,
                       make_schedule, report_table_csv, report_table_text, scaled_weights,
                       weights_csv)
from .errors import DataError, NumericError, PortallocError
from .features import LagSet, build_context_series, context_rows, load_context_csv
from .market_data import (MAX_ARRAY_SIZE, RegimeSpec, ReturnFrame, SyntheticSpec,
                          atomic_write_text, compute_returns, generate_synthetic,
                          load_price_csv, read_dated_csv, rolling_volatility, write_price_csv)
from .policy import NetworkArch, load_params, save_params
from .risk_models import estimate_stats
from .trainer import TrainConfig, train_split, training_log_csv


class UsageError(PortallocError):
    """Bad invocation: unknown flags, missing required arguments."""


@dataclass
class RunConfig:
    prices: str = ""
    context: str = ""
    outdir: str = "out"
    seed: int = 0
    lags: str = "0,1,2,3,4,20,60"
    ctx_lags: str = ""
    vol_window: int = 20
    asset_conv: str = "5:3,10:3"
    context_conv: str = "3:3"
    hidden: str = ""
    max_leverage: float = 3.0
    l2_coeff: float = 1e-8
    learning_rate: float = 0.01
    noise_std: float = 0.002
    max_iterations: int = 500
    patience: int = 50
    policy_prob: float = 0.9
    est_window: int = 0
    initial_train_end: str = "2006-12-31"
    test_span: int = 252
    rebalance: int = 21
    cost_rate: float = 0.0005
    trad_leverage: float = 3.0
    ew_leverage: float = 1.0
    horizons: str = "2y:504,5y:1260"
    r_min: str = ""
    sigma_max: str = ""
    svg: bool = False
    synth_assets: int = 2
    synth_steps: int = 1000
    regimes: str = "0.0004,0.0002|0.01,0.012|0.3|250"
    models: str = ""
    method: str = ""
    checkpoints: str = ""
    curves: str = ""
    weights: str = ""

    def lag_set(self) -> LagSet:
        return LagSet(_ints("lags", self.lags))

    def ctx_lag_set(self) -> LagSet:
        return LagSet(_ints("ctx_lags", self.ctx_lags)) if self.ctx_lags else self.lag_set()

    def arch(self) -> NetworkArch:
        def conv_pair(key: str, item: str) -> tuple[int, ...]:
            pair = _ints(key, item, ":")
            if len(pair) != 2 or item.count(":") != 1:
                raise UsageError(f"bad value for {key}: {item!r} is not filters:kernel")
            return pair

        def conv_pairs(key: str):
            return tuple(conv_pair(key, item) for item in getattr(self, key).split(",") if item)

        return NetworkArch(conv_pairs("asset_conv"), conv_pairs("context_conv"),
                           _ints("hidden", self.hidden), self.max_leverage, self.l2_coeff)

    def level(self, key: str) -> float | None:
        """The r_min or sigma_max constraint level, None when unset."""
        raw = getattr(self, key)
        return _convert(key, float, raw) if raw else None

    def train_cfg(self) -> TrainConfig:
        return TrainConfig(self.learning_rate, self.noise_std, self.max_iterations,
                           self.patience, self.policy_prob, seed=self.seed)

    def horizon_map(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for item in self.horizons.split(","):
            if not item:
                continue
            label, _, steps = item.partition(":")
            if not steps:
                raise UsageError(f"bad horizon {item!r}; expected label:steps")
            if not label or label in out:
                raise UsageError(f"bad horizon {item!r}: label {label!r} is empty or repeated")
            out[label] = _convert("horizons", int, steps)
        return out

    def compare_cfg(self) -> CompareConfig:
        return CompareConfig(
            cost_rate=self.cost_rate, rebalance=self.rebalance,
            trad_leverage=self.trad_leverage, ew_leverage=self.ew_leverage,
            est_window=self.est_window or None,
            r_min=self.level("r_min"), sigma_max=self.level("sigma_max"),
            horizons=self.horizon_map(),
        )


def _parse_regimes(raw: str) -> tuple[RegimeSpec, ...]:
    regimes = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split("|")
        if len(parts) != 4:
            raise UsageError(f"bad regime {chunk!r}; expected means|vols|corr|duration")
        mean = np.array([_convert("regimes", float, x) for x in parts[0].split(",")])
        vol = np.array([_convert("regimes", float, x) for x in parts[1].split(",")])
        regimes.append(RegimeSpec(mean, vol, _convert("regimes", float, parts[2]),
                                  _convert("regimes", int, parts[3])))
    if not regimes:
        raise UsageError("no regimes given")
    return tuple(regimes)


def _convert(key: str, kind, text: str):
    """kind(text), or a UsageError naming the key."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise UsageError(f"bad value for {key}: {text!r} is not {noun}") from None


def _size(key: str, n: int) -> int:
    """n, or a DataError naming the key if no array axis can be that long."""
    if n > MAX_ARRAY_SIZE:
        raise DataError(f"bad value for {key}: {n} exceeds numpy's maximum dimension "
                        f"{MAX_ARRAY_SIZE}")
    return n


def _ints(key: str, raw: str, sep: str = ",") -> tuple[int, ...]:
    return tuple(_size(key, _convert(key, int, x)) for x in raw.split(sep) if x != "")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 1
        raise UsageError(message)


_COMMANDS = ("ingest", "synth", "allocate", "train", "backtest", "compare", "plot")


def _build_parser(command: str | None = None) -> _Parser:
    """Every subcommand, with the config flags on `command`'s alone."""
    parser = _Parser(prog="portalloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name != command:
            continue
        p.add_argument("--config", default=None, help="flat key = value config file")
        for f in fields(RunConfig):
            flag = "--" + f.name.replace("_", "-")
            if f.type == "bool":  # every f.type is a string under the future import
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, default=None)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise DataError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise DataError(f"bad config line {i}: {line!r}")
            values[key.strip()] = value.strip()
    return values


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw) -> object:
    kind = _FIELD_TYPES[name]
    if isinstance(raw, bool):
        return raw
    text = str(raw)
    if kind == "int":
        return _convert(name, int, text)
    if kind == "float":
        return _convert(name, float, text)
    if kind == "bool":
        return text.strip().lower() in {"1", "true", "yes"}
    return text


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in _load_config_file(args.config).items():
            if key not in _FIELD_TYPES:
                raise DataError(f"unknown config key {key!r}")
            cfg = replace(cfg, **{key: _coerce(key, value)})
    for f in fields(RunConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            cfg = replace(cfg, **{f.name: _coerce(f.name, raw)})
    return cfg


def write_manifest(cfg: RunConfig, command: str) -> None:
    lines = [f"command = {command}"]
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    lines.append(f"version.portalloc = {__version__}")
    lines.append(f"version.numpy = {np.__version__}")
    atomic_write_text(os.path.join(cfg.outdir, "manifest.txt"), "\n".join(lines) + "\n")


def _bundle(cfg: RunConfig, features: bool = True) -> DataBundle:
    """The returns, plus the volatilities and context series that the
    learned model's observations read (features). Without features the
    volatility frame covers no assets and the context is None: the window
    and an external context are still checked, by the same functions, and
    min_valid_index still reads the volatility dates."""
    if not cfg.prices:
        raise UsageError("missing --prices")
    pf = load_price_csv(cfg.prices)
    rf = compute_returns(pf)
    vf = rolling_volatility(rf if features else ReturnFrame(rf.dates, (), rf.returns[:, :0]),
                            cfg.vol_window)
    extra = load_context_csv(cfg.context) if cfg.context else None
    ctx = build_context_series(rf, vf, extra) if features else None
    if not features and extra is not None:
        context_rows(extra, vf.dates)
    return DataBundle(rf, vf, ctx, cfg.lag_set(), cfg.ctx_lag_set())


def _schedule(cfg: RunConfig, bundle: DataBundle):
    try:
        train_end = np.datetime64(cfg.initial_train_end, "D")
    except ValueError:
        train_end = np.datetime64("NaT")
    if np.isnat(train_end):
        raise UsageError(f"bad value for initial_train_end: "
                         f"{cfg.initial_train_end!r} is not a date")
    return make_schedule(bundle.rf.dates, train_end, cfg.test_span)


def cmd_ingest(cfg: RunConfig) -> int:
    if not cfg.prices:
        raise UsageError("missing --prices")
    frame = load_price_csv(cfg.prices)
    write_price_csv(frame, os.path.join(cfg.outdir, "prices.csv"))
    write_manifest(cfg, "ingest")
    print(f"ingested {len(frame.dates)} rows x {frame.num_assets} assets -> "
          f"{cfg.outdir}/prices.csv")
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    assets, steps = _size("synth_assets", cfg.synth_assets), _size("synth_steps", cfg.synth_steps)
    if (steps + 1) * assets * 8 > MAX_ARRAY_SIZE:  # the float64 price panel, in bytes
        raise DataError(f"bad value for synth_steps x synth_assets: a price panel of {steps + 1} "
                        f"rows of {assets} assets exceeds numpy's maximum array size of "
                        f"{MAX_ARRAY_SIZE} bytes")
    spec = SyntheticSpec(assets, steps, _parse_regimes(cfg.regimes), cfg.seed)
    frame = generate_synthetic(spec)
    write_price_csv(frame, os.path.join(cfg.outdir, "prices.csv"))
    write_manifest(cfg, "synth")
    print(f"synthesized {len(frame.dates)} rows x {frame.num_assets} assets -> "
          f"{cfg.outdir}/prices.csv")
    return 0


def _require_levels(cfg: RunConfig, methods: list[str]) -> None:
    """A UsageError for the first of methods whose constraint level is unset."""
    for method in methods:
        key = {"markowitz": "r_min", "maxreturn": "sigma_max"}.get(method)
        if key and not getattr(cfg, key):
            raise UsageError(f"missing --{key.replace('_', '-')} (required by method {method!r})")


def cmd_allocate(cfg: RunConfig) -> int:
    if not cfg.method:
        raise UsageError(f"missing --method; valid: {', '.join(method_names())}")
    if cfg.method not in method_names():
        raise UsageError(f"unknown method {cfg.method!r}; valid: {', '.join(method_names())}")
    _require_levels(cfg, [cfg.method])
    if not cfg.prices:
        raise UsageError("missing --prices")
    rf = compute_returns(load_price_csv(cfg.prices))
    stats = estimate_stats(rf, cfg.est_window or None)
    report = solve(cfg.method, stats, r_min=cfg.level("r_min"),
                   sigma_max=cfg.level("sigma_max"))
    print(f"method = {cfg.method}")
    for asset, w in zip(rf.assets, report.weights.w):
        print(f"  {asset}: {w:.6f}")
    print(f"objective = {report.objective_value:.10g}")
    print(f"iterations = {report.iterations}, converged = {report.converged}, "
          f"non_unique = {report.non_unique}")
    if report.active_constraints:
        print("active constraints: " + ", ".join(report.active_constraints))
    lines = ["asset,weight"]
    lines += [f"{a},{float(w)!r}" for a, w in zip(rf.assets, report.weights.w)]
    atomic_write_text(os.path.join(cfg.outdir, "weights.csv"), "\n".join(lines) + "\n")
    write_manifest(cfg, "allocate")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    bundle = _bundle(cfg)
    schedule = _schedule(cfg, bundle)
    arch = cfg.arch()
    for k, split in enumerate(schedule.splits):
        trained = train_split(bundle, k, split, arch, cfg.train_cfg())
        save_params(trained.params, os.path.join(cfg.outdir, f"checkpoint_w{k:02d}.txt"))
        atomic_write_text(os.path.join(cfg.outdir, f"train_log_w{k:02d}.csv"),
                          training_log_csv(trained.log))
        print(f"window {k}: best objective {trained.best_objective:.6f} at "
              f"iteration {trained.best_iteration} ({len(trained.log)} iterations)")
    write_manifest(cfg, "train")
    return 0


def _load_checkpoints(cfg: RunConfig, count: int) -> dict[int, object] | None:
    if not cfg.checkpoints:
        return None
    out = {}
    for k in range(count):
        path = os.path.join(cfg.checkpoints, f"checkpoint_w{k:02d}.txt")
        if not os.path.exists(path):
            raise DataError(f"missing checkpoint for window {k}: {path}")
        out[k] = load_params(path)
    return out


def _run_comparison(cfg: RunConfig, models: list[str], command: str) -> int:
    _require_levels(cfg, models)
    bundle = _bundle(cfg, "drl" in models)
    schedule = _schedule(cfg, bundle)
    trained = _load_checkpoints(cfg, len(schedule.splits)) if "drl" in models else None
    reports = compare_models(models, bundle, schedule, cfg.compare_cfg(), arch=cfg.arch(),
                             train_cfg=cfg.train_cfg(), trained_params=trained)
    table_text = report_table_text(reports)
    atomic_write_text(os.path.join(cfg.outdir, "metrics.csv"), report_table_csv(reports))
    atomic_write_text(os.path.join(cfg.outdir, "metrics.txt"), table_text)
    atomic_write_text(os.path.join(cfg.outdir, "curves.csv"), curves_csv(reports))
    for rep in reports:
        atomic_write_text(os.path.join(cfg.outdir, f"weights_{rep.model}.csv"),
                          weights_csv(rep))
    if cfg.svg:
        from .viz import line_chart_svg, stacked_area_svg

        series = {r.model: r.curve.values for r in reports}
        atomic_write_text(os.path.join(cfg.outdir, "curves.svg"),
                          line_chart_svg(reports[0].curve.dates, series))
        for rep in reports:
            names, scaled = scaled_weights(rep.curve)
            atomic_write_text(os.path.join(cfg.outdir, f"weights_{rep.model}.svg"),
                              stacked_area_svg(rep.curve.dates[:-1], names, scaled))
    write_manifest(cfg, command)
    print(table_text, end="")
    return 0


def cmd_backtest(cfg: RunConfig) -> int:
    model = cfg.method or (cfg.models if "," not in cfg.models else "")
    if not model:
        raise UsageError("missing --method (one model to backtest)")
    return _run_comparison(cfg, [model], "backtest")


def cmd_compare(cfg: RunConfig) -> int:
    models = [m for m in cfg.models.split(",") if m]
    if not models:
        raise UsageError("missing --models (comma-separated list)")
    return _run_comparison(cfg, models, "compare")


def cmd_plot(cfg: RunConfig) -> int:
    from .viz import line_chart_svg, stacked_area_svg

    wrote = []
    if cfg.curves:
        dates, names, matrix = read_dated_csv(cfg.curves, "curves")
        series = {name: matrix[:, j] for j, name in enumerate(names)}
        path = os.path.join(cfg.outdir, "curves.svg")
        atomic_write_text(path, line_chart_svg(dates, series))
        wrote.append(path)
    if cfg.weights:
        dates, names, matrix = read_dated_csv(cfg.weights, "weights")
        keep = [j for j, n in enumerate(names) if n != "leverage"]
        path = os.path.join(cfg.outdir, "weights.svg")
        atomic_write_text(path, stacked_area_svg(dates, [names[j] for j in keep],
                                                 matrix[:, keep]))
        wrote.append(path)
    if not wrote:
        raise UsageError("plot needs --curves and/or --weights")
    write_manifest(cfg, "plot")
    for path in wrote:
        print(f"wrote {path}")
    return 0


_HANDLERS = {
    "ingest": cmd_ingest,
    "synth": cmd_synth,
    "allocate": cmd_allocate,
    "train": cmd_train,
    "backtest": cmd_backtest,
    "compare": cmd_compare,
    "plot": cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the subcommand is the first non-option: no top-level option takes a value
    parser = _build_parser(next((a for a in argv if not a.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        os.makedirs(cfg.outdir, exist_ok=True)
        return _HANDLERS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
