"""Walk-forward evaluation harness and performance metrics.

Decisions made at step t (weights and leverage, from information up to and
including t) earn the asset returns realized at t + 1, net of proportional
transaction costs on leverage-scaled turnover. Schedules expand the training
window: the first split trains on everything before the initial train end,
each later split absorbs the previous test span.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError, NumericError
from .market_data import ReturnFrame, dated_csv

TRADING_DAYS_PER_YEAR = 252


@dataclass(frozen=True)
class Split:
    """A test range [test_start, test_end) of return-frame indices; it trains on all before."""

    test_start: int
    test_end: int


@dataclass(frozen=True)
class WalkForwardSchedule:
    splits: tuple[Split, ...]

    def __len__(self) -> int:
        return len(self.splits)


def make_schedule(dates: np.ndarray, initial_train_end: np.datetime64,
                  test_span: int) -> WalkForwardSchedule:
    """Expanding-train splits: the first test step is the first date after
    initial_train_end; tests cover test_span rows each (last may be shorter)."""
    if test_span < 1:
        raise DataError("test_span must be >= 1")
    initial_train_end = np.datetime64(initial_train_end, "D")
    first_test = int(np.searchsorted(dates, initial_train_end, side="right"))
    if first_test >= len(dates):
        raise DataError("empty test region: initial_train_end is at or beyond the data end")
    if first_test < 1:
        raise DataError("empty train region: initial_train_end precedes the data start")
    splits = []
    start = first_test
    while start < len(dates):
        end = min(start + test_span, len(dates))
        splits.append(Split(start, end))
        start = end
    return WalkForwardSchedule(tuple(splits))


@dataclass
class EquityCurve:
    """Portfolio value path (P starts at 1.0) plus the decision paths."""

    dates: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    leverage: np.ndarray
    turnover: np.ndarray
    bankrupt: bool = False

    def step_returns(self) -> np.ndarray:
        """Simple returns per step; a step that starts from value 0 (after
        ruin) reads 0."""
        prev = self.values[:-1]
        growth = np.divide(self.values[1:], prev, out=np.ones_like(prev), where=prev != 0)
        return growth - 1.0


def run_strategy(decide: Callable[[int], tuple[np.ndarray, float]], rf: ReturnFrame,
                 t_start: int, t_end: int, cost_rate: float,
                 prev_position: np.ndarray | None = None) -> EquityCurve:
    """Replay decisions over steps t in [t_start, t_end).

    decide(t) must use information up to t only; its action earns the asset
    returns at t + 1. It is called exactly once for each t, in order, before
    any step is replayed, so also for the steps after a ruin. Step return =
    lvg_t * <w_t, r_{t+1}> minus cost_rate * sum |lvg_t w_t - lvg_{t-1} w_{t-1}|.
    The initial previous position defaults to flat (all zeros), so entering
    the market is charged. A step return of -100% or worse (an overflow to
    -inf included) terminates the curve at value 0 with bankrupt=True.
    Non-finite weights or leverage, a NaN step return or a value that
    overflows raise NumericError.
    """
    if not cost_rate >= 0:
        raise DataError("cost_rate must be >= 0")
    if t_end > len(rf.dates) - 1:
        raise DataError("t_end leaves no realized next-step return")
    if t_end <= t_start or t_start < 0:
        raise DataError("empty or invalid strategy range")
    m = rf.num_assets
    steps = t_end - t_start
    weights = np.empty((steps, m))
    leverage = np.empty(steps)
    for i, t in enumerate(range(t_start, t_end)):
        weights[i], leverage[i] = decide(t)
    if not (np.isfinite(weights).all() and np.isfinite(leverage).all()):
        raise NumericError("decision rule returned non-finite weights or leverage")
    position = np.zeros(m) if prev_position is None else np.asarray(prev_position, dtype=float)
    returns = rf.returns[t_start + 1:t_end + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        targets = leverage[:, None] * weights
        turnover = np.abs(np.diff(targets, axis=0, prepend=position[None])).sum(axis=1)
        # row-wise BLAS dot: the same bits as w @ r one step at a time
        gross = np.matmul(weights[:, None, :], returns[:, :, None])[:, 0, 0]
        step_ret = leverage * gross - cost_rate * turnover
        ruin = np.flatnonzero(step_ret <= -1.0)
        taken = int(ruin[0]) + 1 if len(ruin) else steps
        values = np.empty(taken + 1)
        values[0] = 1.0
        np.cumprod(1.0 + step_ret[:taken], out=values[1:])
    if len(ruin):
        values[taken] = 0.0
    if not np.isfinite(values).all():
        raise NumericError("replay produced a NaN step return or an overflowing value")
    dates = rf.dates[t_start:t_start + taken + 1].copy()
    return EquityCurve(dates, values, weights[:taken], leverage[:taken], turnover[:taken],
                       len(ruin) > 0)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def annualized_return(curve: EquityCurve) -> float:
    """Compounded growth rate scaled to 252 steps per year."""
    steps = len(curve.values) - 1
    if steps < 1:
        raise DataError("curve too short for metrics")
    if curve.values[-1] <= 0:
        return -1.0
    return float((curve.values[-1] / curve.values[0]) ** (TRADING_DAYS_PER_YEAR / steps) - 1.0)


def sharpe(curve: EquityCurve) -> float | None:
    """Annualized return over annualized daily volatility (sample std);
    None when the volatility is zero (undefined, never infinity). Volatility
    below 1e-12 counts as zero so constant-growth curves built in floating
    point still flag as undefined."""
    rets = curve.step_returns()
    if len(rets) < 2:
        return None
    vol = float(rets.std(ddof=1))
    if vol <= 1e-12 * max(1.0, float(np.abs(rets).max())):
        return None
    return annualized_return(curve) / (vol * math.sqrt(TRADING_DAYS_PER_YEAR))


def sortino(curve: EquityCurve) -> float | None:
    """Annualized return over annualized downside deviation
    sqrt(mean(min(r, 0)^2)); None when there are no negative returns."""
    rets = curve.step_returns()
    if len(rets) < 1:
        return None
    downside = float(np.sqrt(np.mean(np.minimum(rets, 0.0) ** 2)))
    if downside <= 0.0:
        return None
    return annualized_return(curve) / (downside * math.sqrt(TRADING_DAYS_PER_YEAR))


def max_drawdown(curve: EquityCurve) -> float:
    """Largest peak-to-trough loss: max over t of (running_max - P_t) / running_max;
    a curve that is at 0 from its start (a span after ruin) has lost everything."""
    running_max = np.maximum.accumulate(curve.values)
    drawdowns = np.divide(running_max - curve.values, running_max,
                          out=np.ones_like(running_max), where=running_max != 0)
    return float(drawdowns.max())


@dataclass(frozen=True)
class MetricSet:
    annualized_return: float
    sortino: float | None
    sharpe: float | None
    max_dd: float

    @staticmethod
    def of(curve: EquityCurve) -> "MetricSet":
        """A metric that overflows raises NumericError; an intermediate that
        overflows on the way to a finite metric takes its limit."""
        with np.errstate(over="ignore", invalid="ignore"):
            ms = MetricSet(annualized_return(curve), sortino(curve), sharpe(curve),
                           max_drawdown(curve))
        if not all(x is None or math.isfinite(x) for x in vars(ms).values()):
            raise NumericError("a performance metric overflowed")
        return ms


@dataclass
class PerformanceReport:
    model: str
    full: MetricSet
    curve: EquityCurve
    horizons: dict[str, MetricSet] = field(default_factory=dict)
    per_window: list[MetricSet] = field(default_factory=list)


def _check_horizon(steps: int, available: int) -> None:
    if steps > available:
        raise DataError(f"horizon of {steps} steps exceeds available history ({available} steps)")


def _slice_curve(curve: EquityCurve, last_steps: int) -> EquityCurve:
    _check_horizon(last_steps, len(curve.values) - 1)
    return EquityCurve(curve.dates[-(last_steps + 1):], curve.values[-(last_steps + 1):],
                       curve.weights[-last_steps:], curve.leverage[-last_steps:],
                       curve.turnover[-last_steps:], curve.bankrupt)


def report_for_curve(model: str, curve: EquityCurve, horizons: dict[str, int],
                     per_window: list[EquityCurve]) -> PerformanceReport:
    """Metrics over the full curve, its trailing horizons (given in steps)
    and each of its per-window segments."""
    return PerformanceReport(
        model, MetricSet.of(curve), curve,
        {label: MetricSet.of(_slice_curve(curve, steps)) for label, steps in horizons.items()},
        [MetricSet.of(segment) for segment in per_window])


def stitch_curves(segments: list[EquityCurve]) -> EquityCurve:
    """Chain segments, each starting on the date the one before ends on, into
    one curve. Only values compound: each segment's are scaled to continue from
    the running end value (by 0 if it starts at value 0, after ruin). Dates
    after the first segment's, weights, leverage and turnover concatenate."""
    values, end = [segments[0].values], segments[0].values[-1]
    for seg in segments[1:]:
        scale = end / seg.values[0] if seg.values[0] else 0.0
        values.append(seg.values[1:] * scale)
        end = seg.values[-1] * scale
    return EquityCurve(np.concatenate([segments[0].dates[:1]] + [s.dates[1:] for s in segments]),
                       np.concatenate(values), np.vstack([s.weights for s in segments]),
                       np.concatenate([s.leverage for s in segments]),
                       np.concatenate([s.turnover for s in segments]),
                       any(s.bankrupt for s in segments))


# ---------------------------------------------------------------------------
# model comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompareConfig:
    """Everything a multi-model walk-forward comparison needs beyond data."""

    cost_rate: float = 0.0005
    rebalance: int = 21
    trad_leverage: float = 3.0
    ew_leverage: float = 1.0
    est_window: int | None = None
    r_min: float | None = None
    sigma_max: float | None = None
    horizons: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("cost_rate", "trad_leverage", "ew_leverage"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DataError(f"{name} must be a finite number >= 0, got {value!r}")
        if self.rebalance < 1:
            raise DataError(f"rebalance must be >= 1, got {self.rebalance!r}")
        if self.est_window is not None and self.est_window < 1:
            raise DataError(f"est_window must be >= 1, got {self.est_window!r}")
        for label, steps in self.horizons.items():
            if steps < 1:
                raise DataError(f"horizons: {label} must be >= 1 step, got {steps!r}")


@dataclass
class _SplitMoments:
    """What the convex models of a comparison share on a split: its rebalance
    dates, their estimates up to the first that fails, and their
    minimum-variance reports, solved in date order on first use."""

    dates: range
    stats: list
    minvar: list = field(default_factory=list)


def _traditional_weights(method: str, rf: ReturnFrame, split: _SplitMoments, chain: dict,
                         cfg: CompareConfig) -> tuple[np.ndarray, list]:
    """Weights (steps, m) of `method` solved on each of the split's rebalance
    dates and held until the next, and its reports. chain maps a method to
    its latest report, the warm start of its next solve, across splits; with
    none yet, minimum variance guesses every asset, and markowitz and
    maxreturn the date's minimum-variance support. Risk parity solves the
    split's estimates as one stack. The first date to fail, which the stacks
    leave out, is estimated or solved alone when its turn comes, so that its
    error is raised in date order."""
    from .allocators import solve, solve_min_variance, solve_risk_parity_stack
    from .risk_models import estimate_stats

    uses_minvar = method in ("minvariance", "markowitz", "maxreturn")
    stacked = solve_risk_parity_stack(split.stats) if method == "riskparity" else []
    reports = []
    for i, t in enumerate(split.dates):
        stats = split.stats[i] if i < len(split.stats) else estimate_stats(
            rf, cfg.est_window, end=t + 1)
        if uses_minvar and i == len(split.minvar):
            chain["minvariance"] = solve_min_variance(
                stats, chain.get("minvariance", np.ones(rf.num_assets, dtype=bool)))
            split.minvar.append(chain["minvariance"])
        minvar = split.minvar[i] if uses_minvar else None
        chain[method] = stacked[i] if i < len(stacked) else solve(
            method, stats, r_min=cfg.r_min, sigma_max=cfg.sigma_max, minvar=minvar,
            start=chain.get(method, None if minvar is None else minvar.weights.w > 0))
        reports.append(chain[method])
    weights = np.repeat([r.weights.w for r in reports], split.dates.step, axis=0)
    return weights[:split.dates.stop - split.dates.start], reports


def _policy_decisions(params, bundle, t_start: int, t_end: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights and leverage for steps [t_start, t_end), made up front by one
    batched forward: an observation depends on the data up to its step only,
    never on earlier actions, so the whole test span is known before replay."""
    from .features import build_observations
    from .policy import forward

    obs = build_observations(bundle.rf, bundle.vf, bundle.ctx, bundle.lags,
                             bundle.ctx_lags, t_start, t_end)
    action = forward(params, obs)
    return action.weights, action.leverage


def _ruined_span(rf: ReturnFrame, t_start: int, t_end: int) -> EquityCurve:
    """The bankrupt, untraded curve over steps [t_start, t_end): value 0 on
    every date, and zero weights, leverage and turnover."""
    steps = t_end - t_start
    return EquityCurve(rf.dates[t_start:t_end + 1].copy(), np.zeros(steps + 1),
                       np.zeros((steps, rf.num_assets)), np.zeros(steps), np.zeros(steps), True)


@dataclass(frozen=True)
class DataBundle:
    """Return frame plus the derived feature inputs shared by every model."""

    rf: ReturnFrame
    vf: object
    ctx: object
    lags: object
    ctx_lags: object


def compare_models(models: list[str], bundle: DataBundle, schedule: WalkForwardSchedule,
                   cfg: CompareConfig, arch=None, train_cfg=None,
                   trained_params: dict[int, object] | None = None
                   ) -> list[PerformanceReport]:
    """Walk-forward every model over the schedule and report the metric table.

    Feature history (test starts increase, so split 0's) and every horizon are
    checked before any model runs. The learned model retrains per split on the
    expanding train range unless per-split parameters are supplied in
    trained_params (split index -> params). Traditional models re-solve every
    cfg.rebalance steps on trailing stats, each warm-started from its previous
    report, and share each split's _SplitMoments; models run in turn, so the
    first listed one's error is raised. No decision depends on the replayed
    path, so each split is decided whole and then replayed by run_strategy. A
    model that loses 100% on a step is ruined: the rest of its split is stitched
    on as a flat curve at value 0, with zero weights, leverage and turnover, and
    every later split is that flat curve, not traded.
    """
    from .allocators import method_names
    from .features import min_valid_index
    from .policy import NetworkArch
    from .risk_models import estimate_stats
    from .trainer import TrainConfig, train_split

    if not models:
        raise DataError("empty model list")
    valid = set(method_names()) | {"drl", "equalweight"}
    for i, name in enumerate(models):
        if name not in valid:
            raise DataError(f"unknown model {name!r}; valid: {', '.join(sorted(valid))}")
        if name in models[:i]:
            raise DataError(f"model {name!r} is listed more than once")
    arch = arch or NetworkArch()
    train_cfg = train_cfg or TrainConfig()
    rf = bundle.rf
    m = rf.num_assets
    lo, first = min_valid_index(bundle.vf, rf, bundle.lags, bundle.ctx_lags), schedule.splits[0]
    if first.test_start - 1 < lo:
        raise DataError(f"split 0 starts testing at index {first.test_start}, before "
                        f"the first index with full feature history ({lo + 1})")
    for steps in cfg.horizons.values():
        _check_horizon(steps, schedule.splits[-1].test_end - first.test_start)
    records, chain = {}, {}
    reports = []
    for model in models:
        segments = []
        position = None
        for k, split in enumerate(schedule.splits):
            first_decision = split.test_start - 1
            t_end = split.test_end - 1
            if segments and segments[-1].bankrupt:
                segments.append(_ruined_span(rf, first_decision, t_end))
                continue
            steps = t_end - first_decision
            if model == "drl":
                if trained_params is not None and k in trained_params:
                    params = trained_params[k]
                else:
                    params = train_split(bundle, k, split, arch, train_cfg).params
                weights, leverage = _policy_decisions(params, bundle, first_decision, t_end)
            elif model == "equalweight":
                weights, leverage = np.full((steps, m), 1.0 / m), np.full(steps, cfg.ew_leverage)
            else:
                if k not in records:
                    dates = range(first_decision, t_end, cfg.rebalance)
                    records[k] = _SplitMoments(dates, estimate_stats(
                        rf, cfg.est_window, ends=[t + 1 for t in dates]))
                weights, _ = _traditional_weights(model, rf, records[k], chain, cfg)
                leverage = np.full(steps, cfg.trad_leverage)
            seg = run_strategy(lambda t: (weights[t - first_decision],
                                          leverage[t - first_decision]),
                               rf, first_decision, t_end, cfg.cost_rate, prev_position=position)
            if seg.bankrupt:
                seg = stitch_curves([seg, _ruined_span(rf, first_decision + len(seg.weights),
                                                       t_end)])
            position = seg.leverage[-1] * seg.weights[-1]
            segments.append(seg)
        stitched = stitch_curves(segments)
        reports.append(report_for_curve(model, stitched, cfg.horizons, segments))
    return reports


def _fmt_metric(x: float | None) -> str:
    return "undef" if x is None else f"{x:.4f}"


def _report_rows(reports: list[PerformanceReport]):
    """(model, horizon, formatted metrics in MetricSet's field order) per table
    row: each model's full curve, then its horizons in label order."""
    for rep in reports:
        for label, ms in [("full", rep.full)] + sorted(rep.horizons.items()):
            yield rep.model, label, [_fmt_metric(x) for x in vars(ms).values()]


def report_table_csv(reports: list[PerformanceReport]) -> str:
    """Metric table, one row per (model, horizon): return / Sortino / Sharpe /
    max DD column order."""
    lines = ["model,horizon,annualized_return,sortino,sharpe,max_dd"]
    lines += [",".join([model, label, *cells]) for model, label, cells in _report_rows(reports)]
    return "\n".join(lines) + "\n"


def report_table_text(reports: list[PerformanceReport]) -> str:
    header = f"{'model':<20}{'horizon':<10}{'return':>10}{'Sortino':>10}{'Sharpe':>10}{'max DD':>10}"
    lines = [header, "-" * len(header)]
    lines += [f"{model:<20}{label:<10}" + "".join(f"{c:>10}" for c in cells)
              for model, label, cells in _report_rows(reports)]
    return "\n".join(lines) + "\n"


def curves_csv(reports: list[PerformanceReport]) -> str:
    """Wide CSV of stitched out-of-sample curves: date, then one value column
    per model. compare_models stitches every model over the same splits, a
    ruined one padded to the end of its split, so all share one date axis."""
    return dated_csv(reports[0].curve.dates, [r.model for r in reports],
                     np.column_stack([r.curve.values for r in reports]))


def scaled_weights(curve: EquityCurve) -> tuple[list[str], np.ndarray]:
    """The names w1..wm and the leverage-scaled weight path of a curve."""
    names = [f"w{i + 1}" for i in range(curve.weights.shape[1])]
    return names, curve.leverage[:, None] * curve.weights


def weights_csv(report: PerformanceReport) -> str:
    """Leverage-scaled weight path of one model plus the leverage column."""
    curve = report.curve
    names, scaled = scaled_weights(curve)
    return dated_csv(curve.dates[:len(curve.weights)], names + ["leverage"],
                     np.column_stack([scaled, curve.leverage]))
