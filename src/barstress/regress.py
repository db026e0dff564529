"""Stress-curve models: symmetric 4PL sigmoid and quartic polynomial.

The sigmoid y = d + (a - d)/(1 + (x/c)^b) is linear in the asymptotes
(a, d), so they are solved in closed form at every (b, c) and the fit is a
2-D search over (log b, log c): variable projection (Golub & Pereyra 1973;
O'Leary & Rust 2013). The best points of a coarse log-spaced (b, c) grid
start a damped Gauss-Newton descent with Kaufman's projected Jacobian,
all starts in lockstep: every evaluation is one array operation over the
starts and their step halvings, and a start that has converged drops
out. The grid matters because the RSS landscape is multimodal and has a
flat power-law ridge as c grows large, where the optimum sits on the c
bound.

The quartic is an ordinary least-squares solve on a scaled monomial basis.
Model ranking uses AIC in the full Gaussian form n*ln(2*pi*rss/n) + n + 2k,
with the error variance not counted in k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# The LAPACK gelsd gufunc that np.linalg.lstsq calls once per matrix; imported
# here so that a numpy without it fails at import, not in the middle of a fit.
from numpy.linalg._umath_linalg import lstsq as _gelsd

from .errors import (
    DegenerateX,
    MismatchedData,
    NonPositiveRss,
    TooFewPoints,
    UndefinedAtZero,
    ValidationError,
)

_EXP_CLAMP = 700.0
_EXACT_FIT_REL = 1e-12
# In (log b, log c), a coordinate this close to a bound counts as on it. A
# Gauss-Newton step clipped at a bound a hair away keeps only the other
# coordinate's component, which need not lower the RSS, and the descent
# stalls short of the optimum on the bound.
_BOUND_SNAP = 1e-6

# fit_4pl's budget, tolerance and box. Each start may take _MAX_ITERATIONS
# Gauss-Newton steps; a relative RSS drop of at most _TOLERANCE ends it as
# converged. _box gives the (b, c) box; the factor of its c bound is
# generous because near-power-law data pushes c orders of magnitude past the
# sample range, and such a series converges with c on this bound.
_MAX_ITERATIONS = 500
_TOLERANCE = 1e-12
_B_MIN, _B_MAX = 0.01, 50.0
_C_MIN = 0.1
_C_MAX_FACTOR = 1e6


@dataclass(frozen=True)
class FourPLModel:
    """Four-parameter logistic: a, d asymptotes, c inflection, b slope."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"non-finite sigmoid parameters {vals}")
        if self.c <= 0:
            raise ValidationError(f"inflection c must be > 0, got {self.c}")


@dataclass(frozen=True)
class QuarticModel:
    """Degree-4 polynomial a + b x + c x^2 + d x^3 + e x^4."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d, self.e)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"non-finite polynomial coefficients {vals}")

    @property
    def coefficients(self) -> tuple[float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.e)


@dataclass(frozen=True)
class FitResult:
    """A fitted model with its goodness-of-fit summary."""

    model: FourPLModel | QuarticModel
    rss: float
    r_squared: float
    aic: float
    k: int
    n: int
    converged: bool
    iterations: int
    exact_fit: bool = False

    @property
    def model_type(self) -> str:
        return "4pl" if isinstance(self.model, FourPLModel) else "quartic"


def _as_xy(points) -> tuple[np.ndarray, np.ndarray]:
    pts = list(points)
    xs = np.asarray([p[0] for p in pts], dtype=np.float64)
    ys = np.asarray([p[1] for p in pts], dtype=np.float64)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValidationError("points must be finite")
    return xs, ys


def _sigmoid_t(xs: np.ndarray, b, c) -> tuple[np.ndarray, np.ndarray]:
    """t = (x/c)^b, overflow clamped, and b*ln(x/c); both are 0 at x = 0."""
    pos = xs > 0
    log_t = b * np.log(np.where(pos, xs, c) / c)
    t = np.where(pos, np.exp(np.minimum(np.maximum(log_t, -_EXP_CLAMP), _EXP_CLAMP)), 0.0)
    return t, log_t


def eval_4pl(model: FourPLModel, x) -> np.ndarray | float:
    """Evaluate the sigmoid at x >= 0 (scalar or array)."""
    xs = np.asarray(x, dtype=np.float64)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if np.any(xs < 0):
        raise ValidationError("sigmoid evaluation requires x >= 0")
    if model.b <= 0 and np.any(xs == 0):
        raise UndefinedAtZero(f"x = 0 with slope b = {model.b}")
    t, _ = _sigmoid_t(xs, model.b, model.c)
    y = model.d + (model.a - model.d) / (1.0 + t)
    return float(y[0]) if scalar else y


def eval_quartic(model: QuarticModel, x) -> np.ndarray | float:
    """Evaluate the polynomial at x (scalar or array), Horner order."""
    xs = np.asarray(x, dtype=np.float64)
    scalar = xs.ndim == 0
    y = model.a + xs * (model.b + xs * (model.c + xs * (model.d + xs * model.e)))
    return float(y) if scalar else y


def aic(rss: float, n: int, k: int) -> float:
    """n*ln(2*pi*rss/n) + n + 2k (Gaussian likelihood, variance profiled)."""
    if not rss > 0:
        raise NonPositiveRss(f"AIC needs rss > 0, got {rss}")
    if n < 1 or k < 1:
        raise ValidationError(f"need n >= 1 and k >= 1, got n={n} k={k}")
    return n * math.log(2.0 * math.pi * rss / n) + n + 2 * k


def _fit_r2(ys: np.ndarray, rss: float) -> float:
    tss = float(np.sum((ys - ys.mean()) ** 2))
    if tss == 0.0:
        return 1.0 if rss <= _EXACT_FIT_REL * max(1.0, float(np.sum(ys * ys))) else 0.0
    return 1.0 - rss / tss


def _finish(model, ys, rss, k, converged, iterations) -> FitResult:
    scale = max(1.0, float(np.sum(ys * ys)))
    exact = rss <= _EXACT_FIT_REL * scale
    value = -math.inf if exact else aic(rss, len(ys), k)
    return FitResult(
        model=model,
        rss=float(rss),
        r_squared=_fit_r2(ys, rss),
        aic=value,
        k=k,
        n=len(ys),
        converged=converged,
        iterations=iterations,
        exact_fit=exact,
    )


# ------------------------------------------------------------------ quartic

def fit_quartic(points) -> FitResult:
    """Least squares on the degree-4 monomial basis.

    x is scaled to [-1, 1] before the orthogonal-decomposition solve and
    the coefficients are unscaled afterwards; with five distinct x the
    result interpolates.
    """
    xs, ys = _as_xy(points)
    if len(xs) < 5:
        raise TooFewPoints(f"quartic needs >= 5 points, got {len(xs)}")
    if np.all(xs == xs[0]):
        raise DegenerateX("all x values identical")
    s = float(np.max(np.abs(xs)))
    if s == 0.0:
        raise DegenerateX("all x values zero")
    basis = np.vander(xs / s, 5, increasing=True)
    scaled, *_ = np.linalg.lstsq(basis, ys, rcond=None)
    fitted = basis @ scaled
    rss = float(np.sum((ys - fitted) ** 2))
    coef = scaled / s ** np.arange(5)
    model = QuarticModel(*(float(v) for v in coef))
    return _finish(model, ys, rss, k=5, converged=True, iterations=1)


# ---------------------------------------------------------------------- 4PL

def _basis(xs: np.ndarray, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sigmoid columns u = 1/(1 + t), w = t/(1 + t) and log t, t = (x/c)^b.

    w is built from t, not as 1 - u: for t near 1e-14, 1 - u keeps about two
    significant digits. b and c broadcast against xs.
    """
    t, log_t = _sigmoid_t(xs, b, c)
    u = 1.0 / (1.0 + t)
    return u, t * u, log_t


# A sum of squares below this may have lost its terms to underflow.
_SQUARES_BELOW = 2.0**-1000


def _linear_fit(u: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares (p, q) in v = p*u + q*w along the last axis, u, w >= 0.

    The 2x2 normal equations are solved by Cramer's rule, which is exact up
    to round-off whatever the scales of u and w; NaN where the two columns
    are parallel to within 1e-6 rad. w is as small as t = (x/c)^b, which
    falls below 1e-154 at every x when c is far above the data (u, when c
    is far below), and then its squares underflow. So where a sum of
    squares is below _SQUARES_BELOW, the fit is solved again with u and w
    scaled up by powers of two, each column's largest value into
    [0.5, 1). That is exact: where nothing underflows, no bit changes.
    """
    p, q, g11, g22 = _cramer(u, w, v)
    if np.minimum(g11, g22).min() >= _SQUARES_BELOW:
        return p, q
    bad = np.broadcast_to((g11 < _SQUARES_BELOW) | (g22 < _SQUARES_BELOW), p.shape)
    u, w, v = (np.broadcast_to(a, p.shape + a.shape[-1:])[bad] for a in (u, w, v))
    su, sw = (-np.frexp(np.minimum(col.max(axis=-1), 0.5))[1] for col in (u, w))
    pb, qb, _, _ = _cramer(np.ldexp(u, su[:, None]), np.ldexp(w, sw[:, None]), v)
    p[bad], q[bad] = np.ldexp(pb, su), np.ldexp(qb, sw)
    return p, q


def _cramer(u: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """_linear_fit's (p, q) as solved, with the sums of squares of u and w."""
    g11 = np.add.reduce(u * u, axis=-1)
    g12 = np.add.reduce(u * w, axis=-1)
    g22 = np.add.reduce(w * w, axis=-1)
    h1 = np.add.reduce(u * v, axis=-1)
    h2 = np.add.reduce(w * v, axis=-1)
    det = g11 * g22 - g12 * g12
    ok = det > 1e-12 * g11 * g22
    p = np.where(ok, (g22 * h1 - g12 * h2) / det, np.nan)
    q = np.where(ok, (g11 * h2 - g12 * h1) / det, np.nan)
    return p, q, g11, g22


def _grid_starts(
    xs: np.ndarray, ys: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """(log b, log c) of the six best (a, d)-profiled points of a log-spaced grid,
    best first, as a (starts, 2) stack; points without a finite fit are left out.

    b (24, 1, 1) broadcasts against c (48, 1), so log(x/c) is taken once per c.
    """
    bs = np.geomspace(lower[0], upper[0], 24)
    cs = np.geomspace(lower[1], upper[1], 48)
    u, w, _ = _basis(xs, bs[:, None, None], cs[:, None])
    a, d = _linear_fit(u, w, ys)
    rss = np.add.reduce((a[..., None] * u + d[..., None] * w - ys) ** 2, axis=-1).ravel()
    rss = np.where(np.isfinite(rss), rss, np.inf)
    order = np.argsort(rss, kind="stable")[:6]
    order = order[np.isfinite(rss[order])]
    return np.log(np.column_stack([bs[order // cs.size], cs[order % cs.size]]))


def _evaluate(
    theta: np.ndarray, xs: np.ndarray, ys: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """RSS and fit state at every theta = (log b, log c) of a (..., 2) stack.

    b and c are clamped to the box after exp, and (a, d) are solved in
    closed form. The state is (a, b, c, d, u, w, log t, r), each with
    theta's leading shape; a non-finite RSS reads as infinite. Dot products
    are matmuls, which give each stacked value the bits a single theta's
    1-D dot product gives.
    """
    bc = np.minimum(np.maximum(np.exp(theta), lower), upper)
    u, w, log_t = _basis(xs, bc[..., :1], bc[..., 1:])
    a, d = _linear_fit(u, w, ys)
    r = a[..., None] * u + d[..., None] * w - ys
    rss = (r[..., None, :] @ r[..., None])[..., 0, 0]
    return np.where(np.isfinite(rss), rss, np.inf), (a, bc[..., 0], bc[..., 1], d, u, w, log_t, r)


_EPS = np.finfo(np.float64).eps


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(a[i], rhs[i], rcond=None)[0] for every i of a (k, n, m)
    stack and its (k, n) right-hand sides, bit for bit, in one call.

    lstsq solves one matrix by one call to the gelsd gufunc; this calls it once
    for the whole stack, with lstsq's rcond, signature and error state, so a
    failed SVD raises LinAlgError as lstsq does.
    """
    rcond = _EPS * max(a.shape[-2:])
    with np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _gelsd(a, rhs[..., None], rcond, signature="ddd->ddid")[0][..., 0]


# Step factors 1, 1/2, ..., 2**-39: every halving of a step, tried at once.
_HALVINGS = 0.5 ** np.arange(40)


def _lockstep_descent(
    thetas: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Gauss-Newton in theta = (log b, log c) from a (starts, 2)
    stack of starts, all stepped together.

    (a, d) are solved in closed form at every theta, and the Jacobian is
    Kaufman's: the theta-derivative of the model projected off the span of
    u and w. theta is clipped to the box; a coordinate on a bound whose
    gradient points outward is held there for that step, and the step of
    the free coordinates is the one np.linalg.lstsq gives, bit for bit: one
    gelsd call takes every start with both coordinates free, and one every
    start with one held. Each start takes the first of its
    step's 40 halvings that lowers its RSS; a relative drop within the
    tolerance, or no drop at all, ends that start as converged, and it
    leaves the active set. Starts do not interact: each ends as it would
    alone. One iteration evaluates every halving of every
    active start at once, so a descent makes at most _MAX_ITERATIONS + 1
    evaluations, however many starts it carries.

    Returns, per start, (a, b, c, d) as a (starts, 4) array, the RSS,
    converged and the iterations used.
    """
    lo, hi = np.log(lower), np.log(upper)
    theta = np.array(thetas, dtype=np.float64)
    rss, state = _evaluate(theta, xs, ys, lower, upper)
    converged = np.zeros(len(theta), dtype=bool)
    iterations = np.zeros(len(theta), dtype=np.int64)
    active = np.arange(len(theta))
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if active.size == len(theta):
            # Every start is active: read the state as it is, not copies of it.
            here, (a, b, _, d, u, w, log_t, r) = theta, state
        else:
            here = theta[active]
            a, b, _, d, u, w, log_t, r = (s[active] for s in state)
        now = rss[active]
        slope = (a - d)[:, None] * u * w
        deriv = np.empty((len(here), 2, len(xs)))
        np.multiply(-slope, log_t, out=deriv[:, 0])
        np.multiply(b[:, None], slope, out=deriv[:, 1])
        p, q = _linear_fit(u[:, None], w[:, None], deriv)
        jac = deriv - p[..., None] * u[:, None] - q[..., None] * w[:, None]
        grad = (jac @ r[..., None])[..., 0]
        outward = np.where(grad > 0, lo, hi)
        held = (grad != 0) & (np.abs(here - outward) <= _BOUND_SNAP)
        # Each start's step is the gelsd solve np.linalg.lstsq makes for it
        # alone, not a closed-form 2x2 solve or one through np.linalg.svd: those
        # differ in the last bits, and on the flat plateaus of a near-step fit
        # such bits decide where a descent ends (2 of 300 random series ended up
        # to 1.5e-4 higher). gelsd solves each matrix of a stack as it would
        # alone, so one call covers every start with both coordinates free and
        # one every start with one held.
        step, rhs = np.zeros(here.shape), -r
        held_b, held_c = held.T
        both = (~(held_b | held_c)).nonzero()[0]
        if both.size:
            step[both] = _lstsq_stack(jac[both].transpose(0, 2, 1), rhs[both])
        one = (held_b != held_c).nonzero()[0]
        if one.size:
            # the free coordinate: c where b is held, b where c is
            col = held_b[one].astype(np.intp)
            step[one, col] = _lstsq_stack(jac[one, col, :, None], rhs[one])[:, 0]
        # Unlike np.clip, this may give a zero that lands on a zero bound (a
        # bound of 1) the other sign; theta is only used through exp, a sum
        # with a step and a distance to a bound, which a zero's sign leaves alone.
        trial = np.where(
            held[:, None],
            outward[:, None],
            np.minimum(np.maximum(here[:, None] + _HALVINGS[:, None] * step[:, None], lo), hi),
        )
        trial_rss, trial_state = _evaluate(trial, xs, ys, lower, upper)
        drops = trial_rss < now[:, None]
        moved = drops.any(axis=1)
        pick = moved.nonzero()[0], drops[moved].argmax(axis=1)
        target = active[moved]
        theta[target] = trial[pick]
        rss[target] = trial_rss[pick]
        for s, t in zip(state, trial_state):
            s[target] = t[pick]
        done = ~moved
        done[moved] = now[moved] - rss[target] <= _TOLERANCE * rss[target]
        iterations[active] = iteration
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    return np.column_stack(state[:4]), rss, converged, iterations


def _box(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (lower, upper) bounds of (b, c) for a fit to the x values xs:
    b in [_B_MIN, _B_MAX], c in [_C_MIN, max(10 * _C_MIN, _C_MAX_FACTOR * max x)]."""
    c_max = max(_C_MIN * 10.0, _C_MAX_FACTOR * float(xs.max()))
    return np.array([_B_MIN, _C_MIN]), np.array([_B_MAX, c_max])


def fit_4pl(points) -> FitResult:
    """Least-squares sigmoid by variable projection over (log b, log c).

    The best profiled grid points start one lockstep damped Gauss-Newton
    descent; the lowest RSS wins, ties by start order. b and c lie inside
    _box exactly. converged and iterations are the winning start's:
    converged=False means it used up _MAX_ITERATIONS.
    """
    xs, ys = _as_xy(points)
    if len(xs) < 4:
        raise TooFewPoints(f"sigmoid needs >= 4 points, got {len(xs)}")
    if np.all(xs == xs[0]):
        raise DegenerateX("all x values identical")
    if np.any(xs < 0):
        raise ValidationError("sigmoid fit requires x >= 0")
    lower, upper = _box(xs)
    # Degenerate grid cells and trial points divide by zero and overflow on
    # purpose; their RSS reads as infinite.
    with np.errstate(all="ignore"):
        starts = _grid_starts(xs, ys, lower, upper)
        if not len(starts):
            raise ValidationError("no point of the (b, c) grid gives a finite fit")
        params, rss, converged, iterations = _lockstep_descent(starts, xs, ys, lower, upper)
    best = int(np.argmin(rss))
    model = FourPLModel(*(float(v) for v in params[best]))
    return _finish(
        model, ys, float(rss[best]), k=4,
        converged=bool(converged[best]), iterations=int(iterations[best]),
    )


# ------------------------------------------------------------------ ranking

@dataclass(frozen=True)
class RankedModel:
    """compare_models entry: rank 0 is the preferred model."""

    rank: int
    fit: FitResult
    overfit_warning: bool


def compare_models(fits) -> list[RankedModel]:
    """Ascending AIC; ties broken by smaller k, then smaller rss.

    An exact-interpolation fit carries the -infinity AIC sentinel, ranks
    first, and is flagged as an overfit warning rather than a win.
    """
    fits = list(fits)
    if len(fits) < 2:
        raise MismatchedData("need >= 2 fits to rank")
    if len({f.n for f in fits}) != 1:
        raise MismatchedData(f"fits cover different point counts {[f.n for f in fits]}")
    ordered = sorted(fits, key=lambda f: (f.aic, f.k, f.rss))
    return [
        RankedModel(rank=i, fit=f, overfit_warning=f.exact_fit)
        for i, f in enumerate(ordered)
    ]


def fit_result_to_dict(fit: FitResult) -> dict:
    if isinstance(fit.model, FourPLModel):
        params = {"a": fit.model.a, "b": fit.model.b, "c": fit.model.c, "d": fit.model.d}
    else:
        params = dict(zip("abcde", fit.model.coefficients))
    return {
        "model_type": fit.model_type,
        "params": params,
        "rss": fit.rss,
        "r_squared": fit.r_squared,
        "aic": None if math.isinf(fit.aic) else fit.aic,
        "exact_fit": fit.exact_fit,
        "n": fit.n,
        "k": fit.k,
        "converged": fit.converged,
        "iterations": fit.iterations,
    }

