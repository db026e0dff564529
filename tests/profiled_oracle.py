"""Profiled-grid 4PL oracle, independent of barstress.regress.

(a, d) are profiled out in closed form (variable projection, Golub & Pereyra
1973), which leaves a 2-D search over log b and log c that a dense grid and
a local refinement settle without any solver.
"""

import math

import numpy as np

# Default search box; wider than fit_4pl's box (b <= regress._B_MAX = 50,
# c <= regress._C_MAX_FACTOR * max x = 1e6 * max x) so that an oracle run on
# it does not share its bounds.
ORACLE_B_RANGE = (1e-2, 2e3)
ORACLE_C_RANGE = (1e-2, 1e8)


def profiled_4pl_rss(xs, ys, log_b, log_c):
    """RSS of the best 4PL at each (log b, log c), with (a, d) in closed form.

    With t = (x/c)^b, u = 1/(1 + t) and w = t/(1 + t) = 1 - u, the model
    y = a + (d - a)*w = d + (a - d)*u is a straight line in either column,
    so its least-squares RSS is that of regressing y on one of them. Each
    column keeps its digits only where it is small: w where t is, u where t
    is large (at t = 1e15, w keeps about one digit of 1 - w, and from about
    1e16 on it rounds to 1). So the regression is on u where the
    median of log t over the points is > 0, and on w otherwise. w is built
    from t, not as 1 - u: for t near 1e-14 that difference keeps about two
    significant digits.
    """
    log_x = np.log(np.where(xs > 0, xs, 1.0))
    log_t = np.where(xs > 0, np.exp(log_b)[..., None] * (log_x - log_c[..., None]), -np.inf)
    t = np.where(xs > 0, np.exp(np.clip(log_t, -700.0, 700.0)), 0.0)
    column = np.where(
        np.median(log_t, axis=-1, keepdims=True) > 0, 1.0 / (1.0 + t), t / (1.0 + t)
    )
    cc = column - column.mean(axis=-1, keepdims=True)
    yc = ys - ys.mean()
    scc = np.sum(cc * cc, axis=-1)
    slope = np.divide(cc @ yc, scc, out=np.zeros_like(scc), where=scc > 0)
    resid = yc - slope[..., None] * cc
    return np.sum(resid * resid, axis=-1)


def profiled_grid_optimum(points, b_range=ORACLE_B_RANGE, c_range=ORACLE_C_RANGE):
    """Global least-squares 4PL optimum on `points` over a (b, c) box, as
    (rss, r_squared).

    A dense 240 x 480 grid over the box in (log b, log c) picks the basins;
    from each of its eight best points an 11 x 11 local grid follows the
    minimum, halving its span in a coordinate while the best point lies
    inside and doubling it while the best point sits on the window's edge.
    """
    xs, ys = (np.asarray(v, dtype=np.float64) for v in zip(*points))
    lo = np.log([b_range[0], c_range[0]])
    hi = np.log([b_range[1], c_range[1]])
    shape = np.array([240, 480])
    grid = np.meshgrid(*(np.linspace(lo[k], hi[k], shape[k]) for k in range(2)), indexing="ij")
    coarse = profiled_4pl_rss(xs, ys, *grid)
    steps = np.linspace(-1.0, 1.0, 11)
    best = math.inf
    for flat in np.argsort(coarse, axis=None)[:8]:
        centre = np.array([g.flat[flat] for g in grid])
        half = (hi - lo) / (shape - 1)
        value = coarse.flat[flat]
        for _ in range(1000):
            if np.all(half < 1e-10):
                break
            axes = [np.clip(centre[k] + half[k] * steps, lo[k], hi[k]) for k in range(2)]
            local = profiled_4pl_rss(xs, ys, *np.meshgrid(*axes, indexing="ij"))
            i, j = np.unravel_index(np.argmin(local), local.shape)
            value = local[i, j]
            centre = np.array([axes[0][i], axes[1][j]])
            first = np.array([ax[0] for ax in axes])
            last = np.array([ax[-1] for ax in axes])
            on_edge = ((centre == first) & (first > lo)) | ((centre == last) & (last < hi))
            half = np.where(on_edge, np.minimum(2.0 * half, hi - lo), 0.5 * half)
        best = min(best, float(value))
    tss = float(np.sum((ys - ys.mean()) ** 2))
    return best, 1.0 - best / tss
