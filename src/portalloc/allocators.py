"""Long-only portfolio construction on the simplex {w : w >= 0, sum w = 1}.

Six programs over window moments (mu, Sigma, C, sigma):

* min-risk with a return floor     min w'Sw   s.t. mu'w >= r_min
* max-return with a risk cap       max mu'w   s.t. w'Sw <= sigma_max^2
* minimum variance                 min w'Sw
* maximum diversification          max (w'sigma) / sqrt(w'Sw)
* maximum decorrelation            min w'Cw
* risk parity                      min 1/2 w'Sw - (1/l) sum ln w_i, renormalized

The first five are solved exactly by one critical-line walk (Markowitz
1956; Bailey & Lopez de Prado 2013), which follows y(lam) = argmin
1/2 y'Qy - lam v'y on the simplex face by face; it is affine in lam between
turning points. Minimum variance (Q = S) and maximum decorrelation (Q = C)
walk from a vertex to lam = 0. Maximum diversification needs no walk of its
own: with x = sigma * w / sigma'w its ratio is 1 / sqrt(x'Cx), so its
weights are the maximum-decorrelation weights rescaled by 1 / sigma
(Choueifaty & Coignard 2008). The frontier argmin 1/2 w'Sw - lam mu'w is
walked up from the minimum-variance portfolio until mu'w meets a return
floor or w'Sw a risk cap, at an exact root; a caller that already holds the
minimum-variance report of the same moments (the walk-forward comparison
solves it once per rebalance date) passes it in as minvar. On a face whose
Q_FF is positive definite beyond the certificate tolerance, one
factorization of the bordered KKT system [Q_FF 1; 1' 0] gives the face's
critical line y0 + lam d; otherwise the reduced Hessian is eigen-decomposed
to find the flat directions. Minimum variance, markowitz and maxreturn take
the previous rebalance date's report as start and guess its support as the
optimal face (a parametric warm start, Best & Ritter 1985): the point where
that face's line meets lam = 0, the floor or the cap is kept if the KKT
certificate passes. A failed guess is usually one asset off, so up to
_SWAP_ROUNDS primal-dual swaps repair it: the next face keeps the assets
held above zero at the point and adds those whose bound multiplier there
is below zero. The walk runs only if no face passes. With no report yet
(a comparison's first date) start is a support mask, kept only if its
optimum is unique: the walk may settle on another of several. Every walk
ends with the same solve on its final face, so a guess and a walk that
end on one face return the same bits. iterations counts the faces walked
(a kept guess is one, repaired or not), plus those of the minimum-variance
solve for markowitz and maxreturn; maxdiversification reports its
maximum-decorrelation solve's count and flags. converged means a KKT
residual <= 1e-10 with Q scaled to a largest entry of 1; non_unique means a
zero eigenvalue of the reduced Hessian: Q on the assets held or priced at
zero, projected onto the sum-zero directions. A face whose Q_FF - _TOL I
has a Cholesky factor (_on_face) certifies that check itself when no asset
off it is priced at zero: by Cauchy interlacing every eigenvalue of the
reduced Hessian then exceeds _TOL, so the eigen check runs only on faces
widened by such assets and on walk ends that settle on no face. Risk
parity runs damped Newton on its barrier objective scaled to be
self-concordant, which converges with no step-size rule to tune (Spinu
2013), from the minimizer of that objective on the inverse-volatility ray;
iterations counts its Newton steps. Its test for a positive-definite S
reads the eigenvalues CovarianceStats keeps from its own PSD check. The
walk-forward comparison solves a split's rebalance dates for risk parity as
one stack (solve_risk_parity_stack): the dates share one stacked solve per
Newton step and each stops on its own, so every report equals its one-date
solve's bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InfeasibleError, NumericError
from .risk_models import CovarianceStats

_SUM_TOL = 1e-8
_TOL = 1e-10  # certificate tolerance, relative to the largest entry of |Q|
_EPS = 1e-12  # step and pricing tolerance inside the solver
_NEWTON_STEPS = 100  # risk parity's damped Newton converges well within this
_SWAP_ROUNDS = 2  # face swaps that repair a failed warm guess before the walk runs


@dataclass(frozen=True)
class Weights:
    """Allocation fractions on the simplex: 0 <= w_i <= 1, sum w = 1."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.ndim != 1 or w.size < 1:
            raise DataError("weights must be a non-empty vector")
        low, high = float(w.min()), float(w.max())  # NaN if any entry is
        if not (math.isfinite(low) and math.isfinite(high)):
            raise DataError("weights contain non-finite entries")
        if low < -_SUM_TOL or high > 1.0 + _SUM_TOL:
            raise DataError("weights outside [0, 1]")
        if abs(float(w.sum()) - 1.0) > _SUM_TOL:
            raise DataError(f"weights sum to {w.sum():.12f}, not 1")


@dataclass(frozen=True)
class SolveReport:
    weights: Weights
    objective_value: float
    iterations: int
    converged: bool
    active_constraints: tuple[str, ...] = field(default_factory=tuple)
    non_unique: bool = False


# a warm start: a report on earlier moments of the same assets, or a support mask
Start = SolveReport | np.ndarray | None


def _finish(w: np.ndarray, objective: float, iterations: int, converged: bool,
            active: tuple[str, ...] = (), non_unique: bool = False) -> SolveReport:
    w = w / w.sum()  # unit sum to rounding; the solvers' exact zeros stay zero
    active = active + tuple(map("w[{}]=0".format, (w <= 1e-12).nonzero()[0].tolist()))
    return SolveReport(Weights(w), float(objective), iterations, converged, active, non_unique)


def _null_space(k: int) -> np.ndarray:
    """Orthonormal basis, as columns, of {p in R^k : sum p = 0}."""
    return np.linalg.svd(np.ones((1, k)))[2][1:].T


def _multipliers(q, c, y, free):
    """The bound multipliers z = Qy + c - nu, with the sum multiplier nu the
    mean of the gradient over the free assets (where z is zero)."""
    g = q @ y + c
    gf = g[free]
    return g - gf.sum() / gf.size  # np.mean's arithmetic


def _on_face(q, v, face):
    """(y0, d): the critical line y(lam) = y0 + lam d of argmin
    1/2 y'Qy - lam v'y with the assets off the face at zero and no bounds on
    the face, from one factorization of the bordered KKT system
    [Q_FF 1; 1' 0] solved for [0; 1] (y0) and [v_F; 0] (d). None if
    Q_FF - _TOL I has no Cholesky factor, so that the system may be singular."""
    held = face.nonzero()[0]
    k = held.size
    bordered, rhs = np.ones((k + 1, k + 1)), np.zeros((k + 1, 2))
    shifted = q.take(held, 0).take(held, 1, out=bordered[:k, :k]).copy()
    shifted.reshape(-1)[::k + 1] -= _TOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None
    bordered[k, k], rhs[k, 0], rhs[:k, 1] = 0.0, 1.0, v[held]
    line = np.zeros((len(v), 2))
    line[held] = np.linalg.solve(bordered, rhs)[:k]
    return line[:, 0], line[:, 1]


def _face_direction(q, free, g):
    """(p, flat): for the gradient g, the Newton step p within the face of the
    free assets at constant sum, or descent along a flat direction of a
    singular Q that g slopes along (flat). p = 0 where the reduced gradient
    vanishes.

    If Q_FF - _TOL I has a Cholesky factor, every eigenvalue of Q_FF, and so
    (by Cauchy interlacing) of the reduced Hessian, exceeds _TOL: no
    direction is flat, and p is the direction d of _on_face(q, -g, free).
    Otherwise the reduced Hessian is eigen-decomposed
    (_eigen_face_direction)."""
    line = _on_face(q, -g, free)
    if line is None:
        return _eigen_face_direction(q, free, g)
    gf = g[free]
    if np.abs(gf - gf.mean()).max() <= _EPS:
        return np.zeros(g.size), False
    return line[1], False


def _eigen_face_direction(q, free, g):
    """_face_direction through the eigen-decomposition of the reduced
    Hessian, which finds the flat directions of a singular one."""
    basis = _null_space(int(free.sum()))
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


def _walk(q, v, y, lam, stop):
    """Follow the critical line y(lam) = argmin 1/2 y'Qy - lam v'y on the
    simplex up in lam from its point y at lam, face by face. Between turning
    points (a held asset falls to zero, or the bound multiplier of another
    reaches zero) y moves along d = dy/dlam; along a flat direction of a
    singular Q that v slopes along, v'y rises at constant y'Qy, so y moves
    there at fixed lam (flat). stop(y, d, lam, flat) is the step along the
    current segment to the caller's stopping point, inf if it has none there;
    a turning point at the same step is taken first. Returns (y, lam, free
    mask, faces walked, stopped); stopped is False when no turning point is
    left."""
    never = np.full(y.size, np.inf)
    free = y > 0
    for faces in range(1, 10 * y.size + 100):
        d, flat = _face_direction(q, free, -v)
        leave = np.divide(y, -d, out=never.copy(), where=free & (d < 0))
        enter = never
        if not flat:
            # multipliers within the tolerance of zero enter at once: at lam = 0
            # on a singular Q the walk so reaches the best v'y among the
            # minimizers (the lam -> 0+ limit) before a stop there
            z, dz = _multipliers(q, -lam * v, y, free), _multipliers(q, -v, d, free)
            enter = np.divide(np.where(z > _TOL, z, 0.0), -dz, out=never.copy(),
                              where=~free & (dz < 0))
        turn, t = min(leave.min(), enter.min()), stop(y, d, lam, flat)
        step = min(turn, t)
        if not np.isfinite(step):
            return y, lam, free, faces, False
        y, lam = np.maximum(y + step * d, 0.0), lam + (0.0 if flat else step)
        if t < turn:
            return y, lam, free, faces, True
        if leave.min() <= enter.min():
            y[np.argmin(leave)], free[np.argmin(leave)] = 0.0, False
        else:
            free[np.argmin(enter)] = True
    return y, lam, free, faces, False


def _kkt(y, z):
    """KKT residual of y for min 1/2 y'Qy + c'y on the simplex, given its
    bound multipliers z (_multipliers); y >= 0, so that |y z| = y |z|."""
    magnitude = np.abs(z)
    return max(abs(float(y.sum()) - 1.0),                   # unit sum
               float(magnitude[y > 0].max(initial=0.0)),    # stationarity
               max(-float(z.min()), 0.0),                   # dual feasibility
               float((y * magnitude).max()))                # complementary slackness


def _non_unique(q, face):
    """Whether the reduced Hessian on face, the assets held or priced at
    zero, has a zero eigenvalue, so that the optimum is not unique."""
    basis = _null_space(int(face.sum()))
    reduced = basis.T @ q[np.ix_(face, face)] @ basis
    return reduced.size > 0 and float(np.linalg.eigvalsh(reduced)[0]) <= _TOL


def _certify(q, c, y, free):
    """(KKT residual, non-unique flag) of y for min 1/2 y'Qy + c'y on the
    simplex."""
    z = _multipliers(q, c, y, free)
    return _kkt(y, z), _non_unique(q, free | (z <= _TOL))


def _warm_or_walk(q, v, stop, gap, start, walk):
    """(y, kkt, non_unique, faces, stopped) at the caller's stop. A face
    F settles at the point y where its critical line (_on_face) meets stop,
    if lam > 0 (or v = 0: on the frontier lam = 0 is the minimum-variance
    report, kept as it is), y_F > 0, and the KKT residual and gap(y), the
    floor or cap residual, are within _TOL. start's support, or start if it
    is a mask (then kept only if unique), is tried first; if it fails, up to
    _SWAP_ROUNDS primal-dual swaps repair it, each trying F' = {i in F :
    y_i > 0} + {i not in F : z_i < -_TOL}, z the bound multipliers at y,
    until F' is empty or F, or its line has no stop. A guess kept with or
    without swaps counts as one face. Otherwise walk() ->
    (y, lam, free, faces, stopped) runs and a stopped walk settles on its
    final support, so that a guess and a walk that end on one face return
    the same bits. The non-unique check runs only on the point returned, and
    on a settled face only if an asset off it is priced at zero: meet has
    factored Q_FF - _TOL I, so no eigenvalue of the face's reduced Hessian is
    within _TOL of zero."""
    v_zero = not v.any()

    def meet(face):
        # (y, z) on face's line at stop, or None if it has no valid stop
        line = _on_face(q, v, face)
        lam = -1.0 if line is None else stop(*line, 0.0, False)
        if not (0.0 < lam < np.inf or (lam == 0.0 and v_zero)):
            return None
        y = line[0] + lam * line[1]
        return y, _multipliers(q, -lam * v, y, face)

    def settle(face, y, z):
        if y[face].min() <= 0.0:
            return None
        kkt = _kkt(y, z)
        if max(kkt, gap(y)) > _TOL:
            return None
        off = (z <= _TOL) > face  # priced at zero off the face
        return y, kkt, bool(off.any()) and _non_unique(q, face | off)

    guess = start.weights.w > 0 if isinstance(start, SolveReport) else start
    if guess is not None and guess.size == v.size:
        face = guess
        for _ in range(_SWAP_ROUNDS + 1):
            met = meet(face)
            if met is None:
                break
            point = settle(face, *met)
            # a mask (guess is start) has no report behind it: kept only if unique
            if point is not None and not (point[2] and guess is start):
                return (*point, 1, True)
            y, z = met
            swapped = (face & (y > 0)) | (~face & (z < -_TOL))
            if not swapped.any() or (swapped == face).all():
                break
            face = swapped
    y, lam, free, faces, stopped = walk()
    met = meet(y > 0) if stopped else None
    point = None if met is None else settle(y > 0, *met)
    if point is None:
        point = (y, *_certify(q, -lam * v, y, free))
    return (*point, faces, stopped)


def _variance(w: np.ndarray, q: np.ndarray) -> float:
    """w'Qw for a PSD Q, clamped at 0: on a singular Q rounding can leave it
    slightly negative, and its square root is reported as a volatility."""
    return max(float(w @ q @ w), 0.0)


def _min_quadratic(q: np.ndarray, start: Start = None) -> SolveReport:
    """min y'Qy on the simplex, with Q scaled to a largest entry of 1 so that
    the tolerances are relative. The vertex k with the least q_kk minimizes
    1/2 y'Qy + lam y_k for every lam up to min_i (q_ik - q_kk), where the
    first bound multiplier reaches zero; the walk goes from there to lam = 0."""
    scaled = q / np.abs(q).max()

    def walk():
        k = int(np.argmin(np.diag(scaled)))
        vertex = np.eye(len(q))[k]
        lam = float(np.min(scaled[:, k] - scaled[k, k]))
        # stop at lam = 0; a flat step before it runs to its turning point
        y, _, free, faces, _ = _walk(scaled, -vertex, vertex, lam, lambda y, d, lam, flat: (
            np.inf if flat and lam < 0 else -lam))
        return y, 0.0, free, faces, True

    y, kkt, non_unique, faces, _ = _warm_or_walk(
        scaled, np.zeros(len(q)), lambda *_: 0.0, lambda y: 0.0, start, walk)
    return _finish(y, _variance(y, q), faces, kkt <= _TOL, non_unique=non_unique)


def solve_min_variance(stats: CovarianceStats, start: Start = None) -> SolveReport:
    """Minimize portfolio variance w'Sw on the simplex, warm-started from start."""
    return _min_quadratic(stats.sigma_mat, start)


def solve_max_decorrelation(stats: CovarianceStats) -> SolveReport:
    """Minimize w'Cw (C the correlation matrix) on the simplex."""
    return _min_quadratic(stats.corr)


def solve_max_diversification(stats: CovarianceStats) -> SolveReport:
    """Maximize the diversification ratio (w'sigma) / sqrt(w'Sw). With
    x = sigma * w / sigma'w the ratio is 1 / sqrt(x'Cx), so w is the
    maximum-decorrelation portfolio rescaled by 1 / sigma."""
    sigma, vols = stats.sigma_mat, stats.vols
    decorrelated = solve_max_decorrelation(stats)
    w = decorrelated.weights.w / vols
    w = w / w.sum()
    quad = float(w @ sigma @ w)
    # below this, w'Sw is float noise around zero for this matrix scale
    if quad <= 1e-12 * float(np.max(np.diag(sigma))):
        raise NumericError("degenerate risk: portfolio volatility is zero")
    return _finish(w, float(vols @ w) / np.sqrt(quad), decorrelated.iterations,
                   decorrelated.converged, non_unique=decorrelated.non_unique)


def solve_markowitz_min_risk(stats: CovarianceStats, r_min: float,
                             minvar: SolveReport | None = None,
                             start: Start = None) -> SolveReport:
    """Minimize w'Sw subject to mu'w >= r_min on the simplex.

    If the minimum-variance portfolio misses the floor, the floor binds: the
    frontier is walked up from it until mu'w = r_min, where the frontier
    multiplier lam >= 0 is the floor's. Infeasible targets (r_min above every
    asset mean) are rejected, never clamped. minvar, if given, is
    solve_min_variance(stats), which is then not solved again. start
    warm-starts the solve (see solve).
    """
    mu, sigma = stats.mu, stats.sigma_mat
    if np.isnan(r_min):
        raise DataError(f"r_min must be a number, got {r_min}")
    top = float(mu.max())
    if r_min > top + 1e-12:
        raise InfeasibleError(
            f"infeasible return target: r_min={r_min} exceeds max mean {top:.6g}"
        )
    minvar = solve_min_variance(stats) if minvar is None else minvar
    w0 = minvar.weights.w
    mean0 = float(mu @ w0)
    if mean0 >= r_min:
        active = ("return_target",) if mean0 - r_min <= _TOL * np.abs(mu).max() else ()
        return _finish(w0, minvar.objective_value, minvar.iterations, minvar.converged,
                       active, minvar.non_unique)
    # S and mu scaled to a largest entry of 1, and the floor with mu
    scale = np.abs(mu).max() or 1.0
    q, v, r = sigma / np.abs(sigma).max(), mu / scale, min(r_min, top) / scale

    def floor_root(y, d, lam, flat):
        slope = v @ d
        return (r - v @ y) / slope if slope > 0 else np.inf

    y, kkt, non_unique, faces, _ = _warm_or_walk(
        q, v, floor_root, lambda y: abs(r - float(v @ y)), start,
        lambda: _walk(q, v, w0, 0.0, floor_root))
    conv = max(kkt, abs(r - float(v @ y))) <= _TOL
    return _finish(y, _variance(y, sigma), minvar.iterations + faces, conv,
                   ("return_target",), non_unique)


def solve_markowitz_max_return(stats: CovarianceStats, sigma_max: float,
                               minvar: SolveReport | None = None,
                               start: Start = None) -> SolveReport:
    """Maximize mu'w subject to w'Sw <= sigma_max^2 on the simplex.

    sigma_max is a volatility; the cap applies to portfolio variance
    sigma_max^2. The frontier is walked up from the minimum-variance
    portfolio until its variance meets the cap, or to the frontier top (least
    variance among the best-mean assets) if that is within the cap. minvar,
    if given, is solve_min_variance(stats), which is then not solved again.
    start warm-starts the solve (see solve); a report's support is tried only
    if the cap bound it.
    """
    mu, sigma = stats.mu, stats.sigma_mat
    if not sigma_max >= 0:
        raise DataError(f"sigma_max must be >= 0, got {sigma_max}")
    try:
        cap = float(sigma_max) ** 2
    except OverflowError:  # a finite volatility whose square exceeds the float range
        cap = np.inf
    minvar = solve_min_variance(stats) if minvar is None else minvar
    scale = float(np.abs(sigma).max())
    if cap < minvar.objective_value - _TOL * scale:
        raise InfeasibleError(
            f"infeasible risk cap: sigma_max^2={cap:.6g} is below the minimum "
            f"attainable variance {minvar.objective_value:.6g}"
        )
    q, v, cap_q = sigma / scale, mu / (np.abs(mu).max() or 1.0), cap / scale
    rounding = 4 * len(mu) * np.finfo(float).eps

    def variance_root(y, d, lam, flat):
        # the variance y'Qy + 2 s t + d'Qd t^2 at lam + t meets the cap;
        # along a flat step the return rises at constant variance, and an
        # infinite cap is never met
        if flat or cap_q == np.inf:
            return np.inf
        # a gap within the rounding of y'Qy (entries of Q and y at most 1) is
        # met: at the min-variance point s is about 0, and the root would
        # turn that rounding into a step of ~sqrt(gap / d'Qd)
        dq = d @ q
        gap, s, dqd = cap_q - float(y @ q @ y), float(dq @ y), float(dq @ d)
        with np.errstate(divide="ignore"):
            return (np.float64(gap) / (s + np.sqrt(s * s + dqd * gap))
                    if gap > rounding else 0.0)

    if isinstance(start, SolveReport) and "risk_cap" not in start.active_constraints:
        start = None
    y, kkt, non_unique, faces, stopped = _warm_or_walk(
        q, v, variance_root, lambda y: abs(cap_q - float(y @ q @ y)), start,
        lambda: _walk(q, v, minvar.weights.w, 0.0, variance_root))
    iters = minvar.iterations + faces
    if not stopped:
        # the frontier top meets the cap; the linear objective is flat on the
        # best-mean face: several best-mean assets leave a family of optima
        ties = int(np.sum(mu >= float(np.max(mu)) - 1e-12)) > 1
        conv = max(kkt, float(v.max() - v @ y)) <= _TOL
        return _finish(y, float(mu @ y), iters, conv, (), ties)
    # y minimizes 1/2 y'Qy - lam v'y on the simplex with y'Qy at the cap:
    # by Lagrangian sufficiency it maximizes the return within the cap
    conv = max(kkt, abs(cap_q - float(y @ q @ y))) <= _TOL
    return _finish(y, float(mu @ y), iters, conv, ("risk_cap",), non_unique)


def _erc_start(sigma: np.ndarray) -> np.ndarray:
    """The minimizer of F(x) = l/2 x'Sx - sum ln x_i on the inverse-volatility
    ray x = t s, s = 1 / sqrt(diag S): F' = l (t s'Ss - 1/t) is zero at
    t = 1 / sqrt(s'Ss). On a diagonal S it is the minimizer of F. sigma may
    be a stack (..., l, l)."""
    s = 1.0 / np.sqrt(np.diagonal(sigma, axis1=-2, axis2=-1))
    return s / np.sqrt(np.matmul(np.matmul(s[..., None, :], sigma), s[..., :, None])[..., 0])


def _erc_newton(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the self-concordant F(x) = l/2 x'Sx - sum ln x_i over x > 0,
    whose minimizer is that of the risk-parity barrier program, by damped
    Newton (Spinu 2013), for each S of a stack sigma (k, l, l): returns x
    (k, l) and the steps taken (k,). In the variables scaled by x, the
    residual is r = l x * (Sx) - 1, the Newton step u solves
    (l xx' * S + I) u = r, and delta = sqrt(r'u) is the Newton decrement;
    |u_i| <= delta, so the damped step x * (1 - u / (1 + delta)) stays
    positive. Starts at _erc_start, cold and so the same for every caller:
    the damped steps are bounded by a multiple of F(x0) - F* (Boyd &
    Vandenberghe 2004, 9.6.4), and the ray's line minimum has F no higher
    than its point 1 / sqrt(l diag S), which is the minimizer for
    uncorrelated assets. Each S stops after its own step with
    delta <= 1e-8, or after _NEWTON_STEPS steps; the live ones share one
    stacked solve per step, with the arithmetic each would have alone."""
    k, l = sigma.shape[:2]
    x = _erc_start(sigma)[:, :, None]  # columns (k, l, 1), as the stacked products take them
    steps = np.full(k, _NEWTON_STEPS)
    eye = np.eye(l)
    live, s, y = np.arange(k), sigma, x
    for step in range(1, _NEWTON_STEPS + 1):
        r = l * y * (s @ y) - 1.0
        u = np.linalg.solve(l * (y * y.transpose(0, 2, 1)) * s + eye, r)
        delta = np.sqrt(r.transpose(0, 2, 1) @ u)
        y = y * (1.0 - u / (1.0 + delta))
        done = delta.ravel() <= 1e-8
        if done.any():
            ended, keep = live[done], ~done
            x[ended], steps[ended] = y[done], step
            live, s, y = live[keep], s[keep], y[keep]
            if not live.size:
                break
    else:  # dates still live after _NEWTON_STEPS steps
        x[live] = y
    return x[:, :, 0], steps


def risk_contributions(w: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per-asset contribution to portfolio variance: w_i * (S w)_i. w and
    sigma may be stacks (..., l) and (..., l, l)."""
    w = np.asarray(w, dtype=float)
    return w * (sigma @ w[..., None])[..., 0]


def _singular(stats: CovarianceStats) -> bool:
    """Whether S is too close to singular for risk parity."""
    eig = stats.eig
    return bool(eig[0] <= 1e-10 * max(eig[-1], 1e-300))


def solve_risk_parity(stats: CovarianceStats) -> SolveReport:
    """Equal-risk-contribution portfolio via the log-barrier program.

    Minimizes 1/2 x'Sx - (1/l) sum ln x_i over x > 0, then renormalizes to
    the simplex; at the renormalized point the contributions w_i (Sw)_i are
    equal. Reported objective is the barrier objective reduced over positive
    rescalings: 1/2 + 1/2 ln(w'Sw) - (1/l) sum ln w_i.
    """
    reports = solve_risk_parity_stack([stats])
    if not reports:
        raise DataError("singular covariance matrix: risk parity needs a positive-definite one")
    return reports[0]


def solve_risk_parity_stack(stats: list[CovarianceStats]) -> list[SolveReport]:
    """solve_risk_parity of each of a sequence of moments of the same assets
    (a walk-forward split's rebalance dates), by one damped Newton over their
    stack; each report equals the one-date solve's bit for bit. The list
    stops before the first singular covariance, so that the caller, having
    used the reports before it, solves that one alone and reports its error
    there."""
    stats = stats[:next((i for i, st in enumerate(stats) if _singular(st)), len(stats))]
    if not stats:
        return []
    sigma = np.array([st.sigma_mat for st in stats])
    x, steps = _erc_newton(sigma)
    # each date's one-date arithmetic, as stacked products and row reductions
    w = x / x.sum(axis=1, keepdims=True)
    contrib = risk_contributions(w, sigma)
    converged = contrib.max(axis=1) / contrib.min(axis=1) - 1.0 <= 1e-6
    quad = (w[:, None, :] @ sigma @ w[:, :, None])[:, 0, 0]
    objective = 0.5 + 0.5 * np.log(quad) - np.log(w).sum(axis=1) / w.shape[1]
    return list(map(_finish, w, objective.tolist(), steps.tolist(), converged.tolist()))


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


def solve(method: str, stats: CovarianceStats, r_min: float | None = None,
          sigma_max: float | None = None, minvar: SolveReport | None = None,
          start: Start = None) -> SolveReport:
    """Dispatch over the named programs. markowitz requires r_min and
    maxreturn requires sigma_max. minvar, if given, is
    solve_min_variance(stats): minvariance returns it, and markowitz and
    maxreturn start from it. start, if given, is the method's report on
    earlier moments of the same assets, whose support minvariance, markowitz
    and maxreturn try as their optimal face, or a support to try (a boolean
    mask over the assets) with no report behind it, which is kept only where
    the optimum is unique. A face that fails is repaired by up to
    _SWAP_ROUNDS face swaps before the walk runs; a guess kept with or
    without swaps counts as one iteration. The other programs use neither."""
    if method not in _METHODS:
        raise DataError(f"unknown method {method!r}; valid: {', '.join(_METHODS)}")
    if method == "markowitz":
        if r_min is None:
            raise DataError("method 'markowitz' requires r_min")
        return solve_markowitz_min_risk(stats, r_min, minvar, start)
    if method == "maxreturn":
        if sigma_max is None:
            raise DataError("method 'maxreturn' requires sigma_max")
        return solve_markowitz_max_return(stats, sigma_max, minvar, start)
    if method == "minvariance":
        return solve_min_variance(stats, start) if minvar is None else minvar
    return _METHODS[method](stats)
