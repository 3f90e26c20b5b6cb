"""Long-only portfolio construction on the simplex {w : w >= 0, sum w = 1}.

Six programs over window moments (mu, Sigma, C, sigma):

* min-risk with a return floor     min w'Sw   s.t. mu'w >= r_min
* max-return with a risk cap       max mu'w   s.t. w'Sw <= sigma_max^2
* minimum variance                 min w'Sw
* maximum diversification          max (w'sigma) / sqrt(w'Sw)
* maximum decorrelation            min w'Cw
* risk parity                      min 1/2 w'Sw - (1/l) sum ln w_i, renormalized

The first five share one exact primal active-set solver for
min 1/2 y'Qy + c'y s.t. Ay = b (one or two rows), y >= 0. Maximum
diversification is the QP min y'Sy, sigma'y = 1 with w = y / sum y
(Choueifaty & Coignard 2008). A binding return floor is a second equality
row. A risk cap is met on the efficient frontier argmin 1/2 w'Sw - lam mu'w,
walked up in lam: between turning points the weights are affine in lam, so
the variance meets the cap at an exact root (the critical line algorithm;
Bailey & Lopez de Prado 2013). converged means a KKT residual <= 1e-10 with
Q scaled to a largest entry of 1; non_unique means a zero eigenvalue of the
reduced Hessian: Q on the assets held or priced at zero, projected onto the
null space of the equality rows. Risk parity runs cyclic coordinate descent
on its barrier objective, each coordinate update a closed-form positive root.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InfeasibleError, NumericError
from .risk_models import CovarianceStats

_SUM_TOL = 1e-8
_TOL = 1e-10  # certificate tolerance, relative to the largest entry of |Q|
_EPS = 1e-12  # step and pricing tolerance inside the solver


@dataclass(frozen=True)
class Weights:
    """Allocation fractions on the simplex: 0 <= w_i <= 1, sum w = 1."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.ndim != 1 or w.size < 1:
            raise DataError("weights must be a non-empty vector")
        if not np.all(np.isfinite(w)):
            raise DataError("weights contain non-finite entries")
        if np.any(w < -_SUM_TOL) or np.any(w > 1.0 + _SUM_TOL):
            raise DataError("weights outside [0, 1]")
        if abs(float(w.sum()) - 1.0) > _SUM_TOL:
            raise DataError(f"weights sum to {w.sum():.12f}, not 1")


@dataclass(frozen=True)
class SolverConfig:
    """max_iters caps the risk-parity coordinate-descent sweeps."""

    max_iters: int = 3000

    def __post_init__(self):
        if self.max_iters < 1:
            raise DataError("max_iters must be >= 1")


@dataclass(frozen=True)
class SolveReport:
    weights: Weights
    objective_value: float
    iterations: int
    converged: bool
    active_constraints: tuple[str, ...] = field(default_factory=tuple)
    non_unique: bool = False


def project_to_simplex(v: np.ndarray) -> Weights:
    """Euclidean projection onto the simplex (sort-and-threshold)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DataError("projection input must be a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise DataError("projection input has non-finite entries")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = int(np.nonzero(u - css / np.arange(1, v.size + 1) > 0)[0][-1])
    return Weights(np.maximum(v - css[rho] / (rho + 1), 0.0))


def _finish(w: np.ndarray, objective: float, iterations: int, converged: bool,
            active: tuple[str, ...] = (), non_unique: bool = False) -> SolveReport:
    w = w / w.sum()  # unit sum to rounding; the solvers' exact zeros stay zero
    active = active + tuple(f"w[{i}]=0" for i in np.nonzero(w <= 1e-12)[0])
    return SolveReport(Weights(w), float(objective), iterations, converged, active, non_unique)


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis, as columns, of {p : a p = 0}."""
    _, s, vt = np.linalg.svd(a)
    return vt[int(np.sum(s > _EPS * s.max())):].T


def _multipliers(q, c, a, y, free):
    """Equality multipliers nu fitted to stationarity on the free assets, and
    the bound multipliers z = Qy + c - A'nu (zero on the free assets)."""
    g = q @ y + c
    nu = np.linalg.lstsq(a[:, free].T, g[free], rcond=None)[0]
    return nu, g - a.T @ nu


def _face_direction(q, a, free, g):
    """(p, flat): for the gradient g, the Newton step p within the face of the
    free assets and the null space of the equality rows, or descent along a
    flat direction of a singular Q that g slopes along (flat). p = 0 where the
    reduced gradient vanishes."""
    basis = _null_space(a[:, free])
    curv, vecs = np.linalg.eigh(basis.T @ q[np.ix_(free, free)] @ basis)
    slope = vecs.T @ (basis.T @ g[free])
    p = np.zeros(g.size)
    if np.abs(slope).max(initial=0.0) <= _EPS:
        return p, False
    flat = curv <= _TOL
    along_flat = np.abs(slope[flat]).max(initial=0.0) > _EPS
    p[free] = basis @ (vecs @ (-slope * flat if along_flat
                               else -slope / np.where(flat, np.inf, curv)))
    return p, along_flat


def _active_set(q, c, a, b, y):
    """Primal active-set method from the feasible point y. Each step
    minimizes over the face of the free assets up to the first asset it
    drives to zero; an optimal face frees the asset with the most negative
    bound multiplier. Returns (y, free mask, iterations)."""
    free = y > 0
    for it in range(1, 10 * y.size + 100):
        g = q @ y + c
        p, _ = _face_direction(q, a, free, g)
        if p.any():
            pqp = float(p @ q @ p)
            alpha = -float(g @ p) / pqp if pqp > 0 else np.inf
            ratios = np.divide(y, -p, out=np.full(y.size, np.inf), where=p < 0)
            block = int(np.argmin(ratios))
            y = np.maximum(y + min(alpha, ratios[block]) * p, 0.0)
            if ratios[block] < alpha:
                y[block], free[block] = 0.0, False
            continue
        z = np.where(free, np.inf, _multipliers(q, c, a, y, free)[1])
        if z.min() >= -_EPS:
            break
        free[np.argmin(z)] = True
    return y, free, it


def _certify(q, c, a, b, y, free):
    """(KKT residual, equality multipliers, non-unique flag) of y."""
    nu, z = _multipliers(q, c, a, y, free)
    kkt = max(float(np.abs(a @ y - b).max()),                # equality rows
              float(np.abs(z[y > 0]).max(initial=0.0)),     # stationarity
              max(-float(z.min()), 0.0),                    # dual feasibility
              float(np.abs(y * z).max()))                   # complementary slackness
    face = free | (z <= _TOL)
    basis = _null_space(a[:, face])
    reduced = basis.T @ q[np.ix_(face, face)] @ basis
    non_unique = reduced.size > 0 and float(np.linalg.eigvalsh(reduced)[0]) <= _TOL
    return kkt, nu, non_unique


def _qp(q, a, b, y0=None):
    """min 1/2 y'Qy s.t. Ay = b, y >= 0 from the feasible point y0 (by default
    the vertex of a one-row problem with the least y'Qy), with Q and each row
    of A scaled to a largest entry of 1 so that the tolerances are relative.
    Returns (y, iterations, converged, non_unique, nu)."""
    if y0 is None:
        k = int(np.argmin(np.diag(q) / a[0] ** 2))
        y0 = np.zeros(len(q))
        y0[k] = b[0] / a[0, k]
    norms = np.abs(a).max(axis=1)
    q, a, b, c = q / np.abs(q).max(), a / norms[:, None], b / norms, np.zeros(y0.size)
    y, free, iters = _active_set(q, c, a, b, y0.copy())
    kkt, nu, non_unique = _certify(q, c, a, b, y, free)
    return y, iters, kkt <= _TOL, non_unique, nu


def _variance(w: np.ndarray, q: np.ndarray) -> float:
    """w'Qw for a PSD Q, clamped at 0: on a singular Q rounding can leave it
    slightly negative, and its square root is reported as a volatility."""
    return max(float(w @ q @ w), 0.0)


def _min_quadratic(q: np.ndarray) -> SolveReport:
    w, iters, conv, non_unique, _ = _qp(q, np.ones((1, len(q))), np.ones(1))
    return _finish(w, _variance(w, q), iters, conv, non_unique=non_unique)


def solve_min_variance(stats: CovarianceStats, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Minimize portfolio variance w'Sw on the simplex."""
    return _min_quadratic(stats.sigma_mat)


def solve_max_decorrelation(stats: CovarianceStats, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Minimize w'Cw (C the correlation matrix) on the simplex."""
    return _min_quadratic(stats.corr)


def solve_max_diversification(stats: CovarianceStats, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Maximize the diversification ratio (w'sigma) / sqrt(w'Sw) through the
    QP min y'Sy, sigma'y = 1, y >= 0 and w = y / sum y."""
    sigma, vols = stats.sigma_mat, stats.vols
    y, iters, conv, non_unique, _ = _qp(sigma, vols[None], np.ones(1))
    w = y / y.sum()
    quad = float(w @ sigma @ w)
    # below this, w'Sw is float noise around zero for this matrix scale
    if quad <= 1e-12 * float(np.max(np.diag(sigma))):
        raise NumericError("degenerate risk: portfolio volatility is zero")
    return _finish(w, float(vols @ w) / np.sqrt(quad), iters, conv, non_unique=non_unique)


def solve_markowitz_min_risk(stats: CovarianceStats, r_min: float,
                             cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Minimize w'Sw subject to mu'w >= r_min on the simplex.

    If the minimum-variance portfolio misses the floor, the floor binds and
    the solve adds mu'w = r_min as a second equality row. Infeasible targets
    (r_min above every asset mean) are rejected, never clamped.
    """
    mu, sigma = stats.mu, stats.sigma_mat
    if r_min > float(np.max(mu)) + 1e-12:
        raise InfeasibleError(
            f"infeasible return target: r_min={r_min} exceeds max mean {np.max(mu):.6g}"
        )
    if r_min >= float(np.max(mu)) - 1e-12:
        # only the best-mean face attains the floor: min variance over it
        face = np.nonzero(mu >= r_min - 1e-12)[0]
        on_face = _min_quadratic(sigma[np.ix_(face, face)])
        w = np.zeros(stats.num_assets)
        w[face] = on_face.weights.w
        return _finish(w, _variance(w, sigma), on_face.iterations, on_face.converged,
                       ("return_target",), on_face.non_unique)
    minvar = solve_min_variance(stats)
    w0 = minvar.weights.w
    if float(mu @ w0) >= r_min:
        active = ("return_target",) if float(mu @ w0) - r_min <= _TOL * np.abs(mu).max() else ()
        return _finish(w0, minvar.objective_value, minvar.iterations, minvar.converged,
                       active, minvar.non_unique)
    # start on the segment from w0 to the best-mean vertex where the floor holds
    t = (r_min - float(mu @ w0)) / (float(np.max(mu)) - float(mu @ w0))
    y0 = (1.0 - t) * w0 + t * (np.arange(mu.size) == np.argmax(mu))
    w, iters, conv, non_unique, nu = _qp(sigma, np.vstack([np.ones_like(mu), mu]),
                                         np.array([1.0, r_min]), y0)
    # the floor is an inequality: its multiplier must not be negative
    conv = conv and nu[1] >= -_TOL
    return _finish(w, _variance(w, sigma), minvar.iterations + iters, conv,
                   ("return_target",), non_unique)


def solve_markowitz_max_return(stats: CovarianceStats, sigma_max: float,
                               cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Maximize mu'w subject to w'Sw <= sigma_max^2 on the simplex.

    sigma_max is a volatility; the cap applies to portfolio variance
    sigma_max^2. Unless the frontier top (least variance among the best-mean
    assets) meets it, the cap binds on the frontier below the top.
    """
    mu, sigma = stats.mu, stats.sigma_mat
    if not sigma_max >= 0:
        raise DataError(f"sigma_max must be >= 0, got {sigma_max}")
    cap = sigma_max ** 2
    top = solve_markowitz_min_risk(stats, float(np.max(mu)))
    if top.objective_value <= cap:
        # the linear objective is flat on the best-mean face: several
        # best-mean assets leave a family of optima inside the cap
        ties = int(np.sum(mu >= float(np.max(mu)) - 1e-12)) > 1
        return _finish(top.weights.w, float(mu @ top.weights.w), top.iterations,
                       top.converged, (), ties)
    minvar = solve_min_variance(stats)
    scale = float(np.abs(sigma).max())
    if cap < minvar.objective_value - _TOL * scale:
        raise InfeasibleError(
            f"infeasible risk cap: sigma_max^2={cap:.6g} is below the minimum "
            f"attainable variance {minvar.objective_value:.6g}"
        )
    # walk up from lam = 0 with the minimum-variance assets as the first face
    q, v, cap_q = sigma / scale, mu / (np.abs(mu).max() or 1.0), cap / scale
    ones, never = np.ones((1, stats.num_assets)), np.full(stats.num_assets, np.inf)
    y, lam, first = minvar.weights.w, 0.0, minvar.iterations + 1
    free = y > 0
    for iters in range(first, first + 4 * stats.num_assets + 4):  # one per face
        # dy/dlam on this face; along a flat direction of a singular S the
        # return rises at constant variance, so y moves there at fixed lam
        d, flat = _face_direction(q, ones, free, -v)
        leave = np.divide(y, -d, out=never.copy(), where=free & (d < 0))
        if flat:
            y = np.maximum(y + leave.min() * d, 0.0)
            y[np.argmin(leave)], free[np.argmin(leave)] = 0.0, False
            continue
        # the bound multipliers and their slopes, and the variance
        # y'Qy + 2 s t + d'Qd t^2 at lam + t
        z, dz = _multipliers(q, -lam * v, ones, y, free)[1], _multipliers(q, -v, ones, d, free)[1]
        gap, s, dqd = cap_q - float(y @ q @ y), float(d @ q @ y), float(d @ q @ d)
        with np.errstate(divide="ignore"):
            root = np.float64(gap) / (s + np.sqrt(s * s + dqd * gap)) if gap > 0 else 0.0
        enter = np.divide(np.maximum(z, 0.0), -dz, out=never.copy(), where=~free & (dz < 0))
        turn = min(leave.min(), enter.min())
        if not np.isfinite(min(root, turn)):
            break
        lam, y = lam + min(root, turn), np.maximum(y + min(root, turn) * d, 0.0)
        if root < turn:  # a turning point at the cap may still raise the return
            break
        if leave.min() <= enter.min():
            y[np.argmin(leave)], free[np.argmin(leave)] = 0.0, False
        else:
            free[np.argmin(enter)] = True
    # y minimizes 1/2 y'Qy - lam v'y on the simplex with y'Qy at the cap:
    # by Lagrangian sufficiency it maximizes the return within the cap
    kkt, _, non_unique = _certify(q, -lam * v, ones, np.ones(1), y, free)
    conv = max(kkt, abs(cap_q - float(y @ q @ y))) <= _TOL
    return _finish(y, float(mu @ y), iters, conv, ("risk_cap",), non_unique)


def _erc_coordinate_descent(sigma: np.ndarray, max_sweeps: int = 2000) -> tuple[np.ndarray, int]:
    """Minimize 1/2 x'Sx - (1/l) sum ln x_i over x > 0 by cyclic coordinate
    descent; each coordinate update is the positive root of a quadratic."""
    l = sigma.shape[0]
    x = 1.0 / np.sqrt(np.diag(sigma) * l)
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        max_rel = 0.0
        for i in range(l):
            cross = float(sigma[i] @ x) - sigma[i, i] * x[i]
            new = (-cross + np.sqrt(cross * cross + 4.0 * sigma[i, i] / l)) / (2.0 * sigma[i, i])
            max_rel = max(max_rel, abs(new - x[i]) / max(x[i], 1e-300))
            x[i] = new
        if max_rel < 1e-14:
            break
    return x, sweeps


def risk_contributions(w: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per-asset contribution to portfolio variance: w_i * (S w)_i."""
    w = np.asarray(w, dtype=float)
    return w * (sigma @ w)


def solve_risk_parity(stats: CovarianceStats, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Equal-risk-contribution portfolio via the log-barrier program.

    Minimizes 1/2 x'Sx - (1/l) sum ln x_i over x > 0, then renormalizes to
    the simplex; at the renormalized point the contributions w_i (Sw)_i are
    equal. Reported objective is the barrier objective reduced over positive
    rescalings: 1/2 + 1/2 ln(w'Sw) - (1/l) sum ln w_i.
    """
    sigma = stats.sigma_mat
    eig = np.linalg.eigvalsh(sigma)
    if eig[0] <= 1e-10 * max(eig[-1], 1e-300):
        raise DataError(
            "singular covariance matrix: apply shrink_covariance before solving risk parity"
        )
    x, sweeps = _erc_coordinate_descent(sigma, max_sweeps=cfg.max_iters)
    w = x / x.sum()
    contrib = risk_contributions(w, sigma)
    converged = float(contrib.max() / contrib.min()) - 1.0 <= 1e-6
    objective = 0.5 + 0.5 * np.log(float(w @ sigma @ w)) - float(np.log(w).sum()) / len(w)
    return _finish(w, objective, sweeps, converged)


_METHODS = {
    "markowitz": solve_markowitz_min_risk,
    "maxreturn": solve_markowitz_max_return,
    "minvariance": solve_min_variance,
    "maxdiversification": solve_max_diversification,
    "maxdecorrelation": solve_max_decorrelation,
    "riskparity": solve_risk_parity,
}


def method_names() -> tuple[str, ...]:
    return tuple(_METHODS)


def solve(method: str, stats: CovarianceStats, cfg: SolverConfig = SolverConfig(),
          r_min: float | None = None, sigma_max: float | None = None) -> SolveReport:
    """Dispatch over the named programs. markowitz requires r_min and
    maxreturn requires sigma_max."""
    if method not in _METHODS:
        raise DataError(f"unknown method {method!r}; valid: {', '.join(_METHODS)}")
    if method == "markowitz":
        if r_min is None:
            raise DataError("method 'markowitz' requires r_min")
        return solve_markowitz_min_risk(stats, r_min, cfg)
    if method == "maxreturn":
        if sigma_max is None:
            raise DataError("method 'maxreturn' requires sigma_max")
        return solve_markowitz_max_return(stats, sigma_max, cfg)
    return _METHODS[method](stats, cfg)
