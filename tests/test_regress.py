import math
from fractions import Fraction

import numpy as np
import pytest

from barstress import cli, regress
from barstress.errors import (
    DegenerateX,
    MismatchedData,
    NonPositiveRss,
    TooFewPoints,
    UndefinedAtZero,
    ValidationError,
)
from profiled_oracle import profiled_4pl_rss, profiled_grid_optimum
from published_series import (
    GAMEPLAY_SERIES,
    GAMEPLAY_SIGMOID,
    RELAXATION_SERIES,
    gameplay_points,
    relaxation_points,
)

PUBLISHED_SERIES = [("gameplay", *key) for key in GAMEPLAY_SERIES] + [
    ("relaxation", *key) for key in RELAXATION_SERIES
]


def published_points(series):
    protocol, *key = series
    return gameplay_points(*key) if protocol == "gameplay" else relaxation_points(*key)


def fit_box(points, opts):
    """The (b, c) box fit_4pl searches under opts, as (b_range, c_range)."""
    c_max = max(opts.c_min * 10.0, opts.c_max_factor * max(x for x, _ in points))
    return (opts.b_min, opts.b_max), (opts.c_min, c_max)


def box_arrays(points, opts):
    """fit_box as the (lower, upper) arrays of (b, c) that fit_4pl uses."""
    b_range, c_range = fit_box(points, opts)
    return np.array([b_range[0], c_range[0]]), np.array([b_range[1], c_range[1]])


def seeded_corpus(count, seed):
    """Random fit inputs: 4-9 points on x in [0, 60), a third each a 4PL
    plus noise, a power law plus noise and pure noise."""
    rng = np.random.default_rng(seed)
    series = []
    for i in range(count):
        n = int(rng.integers(4, 10))
        xs = np.sort(rng.uniform(0.0, 60.0, n))
        if i % 3 == 0:
            a, d = rng.uniform(0.5, 1.5), rng.uniform(1.5, 3.0)
            b, c = rng.uniform(0.5, 8.0), rng.uniform(5.0, 55.0)
            ys = d + (a - d) / (1 + (xs / c) ** b) + rng.normal(0, 0.05, n)
        elif i % 3 == 1:
            offset = rng.uniform(0.5, 1.0)
            scale, power = rng.uniform(0.001, 0.1), rng.uniform(0.3, 2.0)
            ys = offset + scale * xs**power + rng.normal(0, 0.05, n)
        else:
            ys = rng.normal(1.0, 0.2, n)
        series.append(list(zip(xs.tolist(), ys.tolist())))
    return series


CORPUS = seeded_corpus(40, seed=2024)


def reference_descend(theta, xs, ys, options, lower, upper):
    """The sequential damped Gauss-Newton descent from one start, step
    halvings tried one at a time: the reference for the lockstep descent.

    Returns the start's (rss, converged, iterations).
    """
    lo, hi = np.log(lower), np.log(upper)

    def evaluate(theta):
        b, c = np.clip(np.exp(theta), lower, upper)
        u, w, log_t = regress._basis(xs, b, c)
        a, d = regress._linear_fit(u, w, ys)
        r = a * u + d * w - ys
        rss = float(r @ r)
        return (rss if math.isfinite(rss) else math.inf), (a, b, c, d, u, w, log_t, r)

    rss, state = evaluate(theta)
    converged = False
    iterations = 0
    for iterations in range(1, options.max_iterations + 1):
        a, b, _, d, u, w, log_t, r = state
        slope = (a - d) * u * w
        deriv = np.stack([-slope * log_t, b * slope])
        p, q = regress._linear_fit(u, w, deriv)
        jac = (deriv - p[:, None] * u - q[:, None] * w).T
        grad = jac.T @ r
        outward = np.where(grad > 0, lo, hi)
        held = (grad != 0) & (np.abs(theta - outward) <= regress._BOUND_SNAP)
        step = np.zeros(2)
        if not held.all():
            step[~held] = np.linalg.lstsq(jac[:, ~held], -r, rcond=None)[0]
        for halving in range(40):
            trial = np.where(held, outward, np.clip(theta + 0.5**halving * step, lo, hi))
            trial_rss, trial_state = evaluate(trial)
            if trial_rss < rss:
                converged = rss - trial_rss <= options.tolerance * trial_rss
                theta, rss, state = trial, trial_rss, trial_state
                break
        else:
            converged = True
        if converged:
            break
    return rss, converged, iterations


# The 4PL helpers run under fit_4pl's np.errstate; callers of the helpers
# themselves set it too.
@np.errstate(all="ignore")
def reference_fit_4pl(points, opts):
    """(rss, converged) of fit_4pl with each grid start descended alone:
    the lowest RSS wins, ties by start order."""
    xs, ys = regress._as_xy(points)
    lower, upper = box_arrays(points, opts)
    best = None
    for theta in regress._grid_starts(xs, ys, lower, upper):
        rss, converged, _ = reference_descend(theta, xs, ys, opts, lower, upper)
        if best is None or rss < best[0]:
            best = (rss, converged)
    return best


def exact_quartic_lsq(points):
    """Least squares on the monomial basis in exact rational arithmetic.

    Solves the normal equations with Fractions, so conditioning cannot
    perturb the answer; returns (coefficients, rss) as floats.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    a = [[sum(x ** (i + j) for x in xs) for j in range(5)] for i in range(5)]
    rhs = [sum(x**i * y for x, y in zip(xs, ys)) for i in range(5)]
    for col in range(5):
        piv = max(range(col, 5), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(col + 1, 5):
            f = a[r][col] / a[col][col]
            for c in range(col, 5):
                a[r][c] -= f * a[col][c]
            rhs[r] -= f * rhs[col]
    coef = [Fraction(0)] * 5
    for r in range(4, -1, -1):
        acc = rhs[r] - sum(a[r][c] * coef[c] for c in range(r + 1, 5))
        coef[r] = acc / a[r][r]
    rss = sum(
        (y - sum(coef[j] * x**j for j in range(5))) ** 2 for x, y in zip(xs, ys)
    )
    return [float(c) for c in coef], float(rss)


class TestEval4pl:
    def test_zero_is_lower_asymptote(self):
        m = regress.FourPLModel(a=0.7, b=2.0, c=30.0, d=2.4)
        assert regress.eval_4pl(m, 0.0) == 0.7

    def test_inflection_is_midpoint(self):
        m = regress.FourPLModel(a=0.7, b=3.3, c=31.7, d=2.4)
        assert regress.eval_4pl(m, 31.7) == pytest.approx((0.7 + 2.4) / 2, abs=1e-15)

    def test_reference_trajectory_endpoint(self):
        m = regress.FourPLModel(a=0.7113, b=5.0082, c=41.0507, d=1.6653)
        assert regress.eval_4pl(m, 60.0) == pytest.approx(1.541, abs=1e-3)

    def test_array_input(self):
        m = regress.FourPLModel(a=0.0, b=1.0, c=1.0, d=1.0)
        out = regress.eval_4pl(m, np.array([0.0, 1.0, 3.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 0.75], atol=1e-15)

    def test_negative_x_rejected(self):
        m = regress.FourPLModel(a=0.0, b=1.0, c=1.0, d=1.0)
        with pytest.raises(ValidationError):
            regress.eval_4pl(m, -0.5)

    def test_zero_with_nonpositive_slope(self):
        m = regress.FourPLModel(a=0.0, b=-1.0, c=1.0, d=1.0)
        with pytest.raises(UndefinedAtZero):
            regress.eval_4pl(m, 0.0)

    def test_extreme_slope_saturates_without_overflow(self):
        m = regress.FourPLModel(a=0.5, b=50.0, c=1.0, d=2.0)
        assert regress.eval_4pl(m, 1e6) == pytest.approx(2.0)
        assert regress.eval_4pl(m, 1e-6) == pytest.approx(0.5)

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            regress.FourPLModel(a=0.0, b=1.0, c=-1.0, d=1.0)
        with pytest.raises(ValidationError):
            regress.FourPLModel(a=math.nan, b=1.0, c=1.0, d=1.0)


class TestEvalQuartic:
    def test_matches_power_expansion(self):
        m = regress.QuarticModel(a=0.701, b=0.0118, c=-0.0014, d=5.4e-5, e=-5.1e-7)
        for x in (0.0, 7.5, 60.0):
            direct = sum(c * x**j for j, c in enumerate(m.coefficients))
            assert regress.eval_quartic(m, x) == pytest.approx(direct, rel=1e-14)

    def test_array_input(self):
        m = regress.QuarticModel(a=1.0, b=0.0, c=1.0, d=0.0, e=0.0)
        np.testing.assert_allclose(
            regress.eval_quartic(m, np.array([0.0, 2.0])), [1.0, 5.0]
        )

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            regress.QuarticModel(a=1.0, b=math.inf, c=0.0, d=0.0, e=0.0)


class TestGoodnessOfFit:
    def test_aic_unit_identity(self):
        # rss = n / (2 pi) makes the log term vanish: aic = n + 2k
        n = 7
        assert regress.aic(n / (2 * math.pi), n, 1) == pytest.approx(9.0, abs=1e-12)

    def test_aic_parameter_penalty(self):
        lo = regress.aic(0.37, 9, 4)
        hi = regress.aic(0.37, 9, 5)
        assert hi - lo == pytest.approx(2.0, abs=1e-12)

    def test_aic_rejects_nonpositive_rss(self):
        with pytest.raises(NonPositiveRss):
            regress.aic(0.0, 5, 4)
        with pytest.raises(NonPositiveRss):
            regress.aic(-1.0, 5, 4)

    def test_aic_argument_validation(self):
        with pytest.raises(ValidationError):
            regress.aic(1.0, 0, 4)
        with pytest.raises(ValidationError):
            regress.aic(1.0, 5, 0)


class TestFitQuartic:
    def test_matches_exact_rational_solution(self):
        rng = np.random.default_rng(31)
        xs = np.array([0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 11.0, 12.0])
        truth = regress.QuarticModel(a=0.7, b=0.12, c=-0.01, d=3e-4, e=-1e-5)
        ys = regress.eval_quartic(truth, xs) + 0.05 * rng.normal(size=len(xs))
        pts = list(zip(xs.tolist(), ys.tolist()))
        want_coef, want_rss = exact_quartic_lsq(pts)
        fit = regress.fit_quartic(pts)
        assert fit.rss == pytest.approx(want_rss, rel=1e-10)
        for got, want in zip(fit.model.coefficients, want_coef):
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_five_points_interpolate(self):
        truth = regress.QuarticModel(a=0.701, b=0.0118, c=-0.0014, d=5.4e-5, e=-5.1e-7)
        xs = [0.0, 15.0, 30.0, 45.0, 60.0]
        pts = [(x, float(regress.eval_quartic(truth, x))) for x in xs]
        fit = regress.fit_quartic(pts)
        assert fit.rss < 1e-12
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.exact_fit
        assert fit.aic == -math.inf
        for got, want in zip(fit.model.coefficients, truth.coefficients):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-12)

    def test_constant_data(self):
        fit = regress.fit_quartic([(x, 3.0) for x in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)])
        assert fit.model.a == pytest.approx(3.0, abs=1e-9)
        for c in fit.model.coefficients[1:]:
            assert abs(c) < 1e-9
        assert fit.r_squared == 1.0

    def test_collinear_data_kills_high_orders(self):
        pts = [(x, 0.5 + 0.25 * x) for x in (0.0, 3.0, 6.0, 9.0, 12.0)]
        fit = regress.fit_quartic(pts)
        assert fit.model.a == pytest.approx(0.5, abs=1e-9)
        assert fit.model.b == pytest.approx(0.25, abs=1e-9)
        for c in fit.model.coefficients[2:]:
            assert abs(c) < 1e-9

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            regress.fit_quartic([(0, 1), (1, 2), (2, 3), (3, 4)])

    def test_degenerate_x(self):
        with pytest.raises(DegenerateX):
            regress.fit_quartic([(2.0, v) for v in (1, 2, 3, 4, 5)])
        with pytest.raises(DegenerateX):
            regress.fit_quartic([(0.0, v) for v in (1, 2, 3, 4, 5)])


class TestFit4pl:
    def test_recovers_forward_model(self):
        truth = regress.FourPLModel(a=0.7, b=2.5, c=30.0, d=2.4)
        xs = [0.0, 10.0, 20.0, 30.0, 45.0, 60.0]
        pts = [(x, float(regress.eval_4pl(truth, x))) for x in xs]
        fit = regress.fit_4pl(pts)
        assert fit.converged
        assert fit.rss < 1e-16
        assert fit.model.a == pytest.approx(truth.a, rel=1e-6)
        assert fit.model.b == pytest.approx(truth.b, rel=1e-6)
        assert fit.model.c == pytest.approx(truth.c, rel=1e-6)
        assert fit.model.d == pytest.approx(truth.d, rel=1e-6)

    def test_noisy_series_refits_close(self):
        truth = regress.FourPLModel(a=0.7, b=2.0, c=28.0, d=2.3)
        xs = np.linspace(0.0, 60.0, 9)
        ys = regress.eval_4pl(truth, xs) + np.random.default_rng(4).normal(0.0, 0.01, xs.size)
        fit = regress.fit_4pl(list(zip(xs.tolist(), ys.tolist())))
        assert fit.model.c == pytest.approx(truth.c, rel=0.1)
        assert fit.r_squared > 0.99

    @pytest.mark.parametrize("key", [("combinational", "gamer"), ("combinational", "non_gamer")])
    def test_measured_series_quality(self, key):
        printed_r2 = GAMEPLAY_SIGMOID[key][4]
        fit = regress.fit_4pl(gameplay_points(*key))
        assert fit.r_squared >= printed_r2 - 5e-5

    def test_flat_ridge_reports_iteration_exhaustion(self):
        # near-linear data puts the optimum on the power-law ridge (c -> inf);
        # a budget too small to get there must say so, the default one reaches
        # the c bound and converges there
        pts = gameplay_points("combinational", "non_gamer")
        capped = regress.fit_4pl(pts, regress.FitOptions(max_iterations=1))
        assert not capped.converged
        assert capped.iterations == 1
        opts = regress.FitOptions()
        fit = regress.fit_4pl(pts, opts)
        assert fit.converged
        assert fit.model.c == opts.c_max_factor * 60.0
        assert fit.rss <= 1.0335215e-2

    @pytest.mark.parametrize("series", PUBLISHED_SERIES, ids="/".join)
    def test_reaches_profiled_grid_optimum(self, series):
        points = published_points(series)
        opts = regress.FitOptions()
        b_range, c_range = fit_box(points, opts)
        oracle_rss, _ = profiled_grid_optimum(points, b_range, c_range)
        fit = regress.fit_4pl(points, opts)
        assert fit.rss <= oracle_rss * (1.0 + 1e-6)
        assert b_range[0] <= fit.model.b <= b_range[1]
        assert c_range[0] <= fit.model.c <= c_range[1]
        # the reported RSS is that of the returned model, evaluated in a form
        # free of cancellation when c is huge: (a + d*t)/(1 + t)
        m = fit.model
        xs, ys = (np.array(v) for v in zip(*points))
        t = (xs / m.c) ** m.b
        assert fit.rss == pytest.approx(np.sum(((m.a + m.d * t) / (1.0 + t) - ys) ** 2), rel=1e-12)

    def test_optimum_on_slope_bound(self):
        # a sharp late rise puts the optimum on b = b_max; a step clipped at
        # that bound must not stall the descent short of it
        points = [(6.0, 0.7913), (27.0, 0.7933), (36.0, 0.7832), (46.5, 0.8843), (57.0, 1.0589)]
        opts = regress.FitOptions()
        oracle_rss, _ = profiled_grid_optimum(points, *fit_box(points, opts))
        fit = regress.fit_4pl(points, opts)
        assert fit.rss <= oracle_rss * (1.0 + 1e-6)
        assert fit.model.b == pytest.approx(opts.b_max)
        assert fit.converged

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            regress.fit_4pl([(0, 1), (1, 2), (2, 3)])

    def test_degenerate_x(self):
        with pytest.raises(DegenerateX):
            regress.fit_4pl([(5.0, v) for v in (1, 2, 3, 4)])

    def test_no_finite_fit_rejected(self):
        # the squared residuals overflow at every (b, c) of the start grid
        pts = [(0.0, 1e200), (1.0, -1e200), (2.0, 3e200), (3.0, -2e200), (4.0, 1e199)]
        with pytest.raises(ValidationError):
            regress.fit_4pl(pts)

    def test_negative_x_rejected(self):
        with pytest.raises(ValidationError):
            regress.fit_4pl([(-1.0, 1.0), (0.0, 1.1), (1.0, 1.3), (2.0, 1.4)])

    def test_options_validation(self):
        with pytest.raises(ValidationError):
            regress.FitOptions(max_iterations=0)
        with pytest.raises(ValidationError):
            regress.FitOptions(tolerance=0.0)
        with pytest.raises(ValidationError):
            regress.FitOptions(b_min=2.0, b_max=1.0)
        with pytest.raises(ValidationError):
            regress.FitOptions(c_max_factor=0.0)

    def test_deterministic(self):
        pts = gameplay_points("puzzle", "non_gamer")
        one = regress.fit_4pl(pts)
        two = regress.fit_4pl(pts)
        assert one == two


class TestLockstepDescent:
    def test_published_series_match_sequential_reference(self):
        opts = regress.FitOptions()
        for series in PUBLISHED_SERIES:
            points = published_points(series)
            want_rss, want_converged = reference_fit_4pl(points, opts)
            fit = regress.fit_4pl(points, opts)
            assert fit.rss <= want_rss * (1.0 + 1e-12), series
            assert fit.converged == want_converged, series

    def test_seeded_corpus_matches_sequential_reference(self):
        # a budget of 10 keeps the reference's stalled starts cheap; some
        # fits end on it, so both values of converged are compared
        opts = regress.FitOptions(max_iterations=10)
        outcomes = set()
        for i, points in enumerate(CORPUS):
            want_rss, want_converged = reference_fit_4pl(points, opts)
            fit = regress.fit_4pl(points, opts)
            assert fit.rss <= want_rss * (1.0 + 1e-9), i
            assert fit.converged == want_converged, i
            outcomes.add(fit.converged)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "points",
        [published_points(s) for s in PUBLISHED_SERIES[:6]] + CORPUS[:12],
    )
    @np.errstate(all="ignore")
    def test_each_start_ends_as_it_would_alone(self, points):
        opts = regress.FitOptions(max_iterations=25)
        xs, ys = regress._as_xy(points)
        lower, upper = box_arrays(points, opts)
        starts = regress._grid_starts(xs, ys, lower, upper)
        _, rss, converged, iterations = regress._lockstep_descent(
            starts, xs, ys, opts, lower, upper
        )
        for k in range(len(starts)):
            one = regress._lockstep_descent(starts[k : k + 1], xs, ys, opts, lower, upper)
            assert one[1][0] == pytest.approx(rss[k], rel=1e-12, abs=0.0)
            assert one[2][0] == converged[k]
            assert one[3][0] == iterations[k]

    def test_stalled_starts_share_one_budget(self, monkeypatch):
        # every halving of every active start is one evaluation, so a fit
        # costs at most the budget plus one, not the budget once per start
        opts = regress.FitOptions(max_iterations=20)
        calls = []
        evaluate = regress._evaluate

        def counted(theta, *args):
            calls.append(theta.shape)
            return evaluate(theta, *args)

        monkeypatch.setattr(regress, "_evaluate", counted)
        exhausted = 0
        for points in CORPUS:
            calls.clear()
            fit = regress.fit_4pl(points, opts)
            assert len(calls) <= opts.max_iterations + 1
            assert calls[0][1:] == (2,) and all(shape[1:] == (40, 2) for shape in calls[1:])
            exhausted += not fit.converged
        assert exhausted > 0


def lstsq_per_matrix(a, rhs):
    """np.linalg.lstsq on each matrix of a stack, one call per matrix."""
    return np.array([np.linalg.lstsq(a[i], rhs[i], rcond=None)[0] for i in range(len(a))])


class TestLstsqStack:
    """The descent's one gelsd call per stack gives each matrix the bytes its
    own np.linalg.lstsq call gives; a numpy whose gufunc differs fails here."""

    @pytest.mark.parametrize("columns", [1, 2])
    def test_random_stacks_bit_identical(self, columns):
        rng = np.random.default_rng(18)
        for k in range(1, 9):
            for n in range(4, 10):
                # (k, columns, n) transposed, as the descent passes its Jacobian
                scale = 10.0 ** rng.uniform(-150, 150, (k, columns, 1))
                a = (rng.standard_normal((k, columns, n)) * scale).transpose(0, 2, 1)
                rhs = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-150, 150, (k, 1))
                got = regress._lstsq_stack(a, rhs)
                assert got.shape == (k, columns)
                assert got.tobytes() == lstsq_per_matrix(a, rhs).tobytes(), (k, n)

    def test_rank_deficient_stacks_bit_identical(self):
        rng = np.random.default_rng(5)
        a, rhs = rng.standard_normal((3, 7, 2)), rng.standard_normal((3, 7))
        zero = a.copy()
        zero[1, :, 0] = 0.0
        parallel = a.copy()
        parallel[2, :, 1] = -3.0 * parallel[2, :, 0]
        for stack in (zero, parallel):
            assert regress._lstsq_stack(stack, rhs).tobytes() == lstsq_per_matrix(stack, rhs).tobytes()

    def test_nan_raises_like_lstsq(self):
        rng = np.random.default_rng(6)
        a, rhs = rng.standard_normal((2, 6, 2)), rng.standard_normal((2, 6))
        a[1, 4, 0] = np.nan
        # fit_4pl runs the descent with every floating-point error ignored
        with np.errstate(all="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.lstsq(a[1], rhs[1], rcond=None)
            with pytest.raises(np.linalg.LinAlgError):
                regress._lstsq_stack(a, rhs)


def unscaled_linear_fit(u, w, v):
    """regress._linear_fit's normal equations on u and w as given."""
    with np.errstate(all="ignore"):
        g11, g12, g22 = np.sum(u * u, -1), np.sum(u * w, -1), np.sum(w * w, -1)
        h1, h2 = np.sum(u * v, -1), np.sum(w * v, -1)
        det = g11 * g22 - g12 * g12
        ok = det > 1e-12 * g11 * g22
        p = np.where(ok, (g22 * h1 - g12 * h2) / det, np.nan)
        q = np.where(ok, (g11 * h2 - g12 * h1) / det, np.nan)
    return p, q


class TestLinearFitScaling:
    def test_underflowing_column_fits_as_prescaled(self):
        # t = (x/c)^b < 1e-161 at every x, so the sum of w^2 underflows
        # unscaled: the objective read 0.0600 where the exact one is 0.0519755
        xs, ys = regress._as_xy(seeded_corpus(300, 2024)[137])
        u, w, _ = regress._basis(xs, 50.0, 6.88e4)
        assert np.max(w) < 1e-161
        a, d = regress._linear_fit(u, w, ys)
        top = np.max(w)
        a2, d2 = regress._linear_fit(u, w / top, ys)
        assert a == pytest.approx(a2, rel=1e-12)
        assert d == pytest.approx(d2 / top, rel=1e-12)
        # the same point in a stack with one that needs no scaling
        stacked = regress._basis(xs, np.array([[50.0], [2.0]]), np.array([[6.88e4], [20.0]]))
        a3, d3 = regress._linear_fit(stacked[0], stacked[1], ys)
        assert (a3[0], d3[0]) == (a, d)
        objective = float(np.sum((a * u + d * w - ys) ** 2))
        exact = exact_two_column_rss(u, w, ys)
        assert objective == pytest.approx(exact, rel=1e-12)
        assert exact == pytest.approx(0.0519755, abs=1e-7)

    @np.errstate(all="ignore")
    def test_published_grid_cells_bit_identical(self):
        # the grid of _grid_starts, built flat from a meshgrid, on every
        # published series: where no square or product underflows, the
        # power-of-two scaling is exact, and _grid_starts' broadcast grid
        # picks the same starts
        opts = regress.FitOptions()
        compared = 0
        for series in PUBLISHED_SERIES:
            points = published_points(series)
            xs, ys = regress._as_xy(points)
            lower, upper = box_arrays(points, opts)
            bs = np.geomspace(lower[0], upper[0], 24)
            cs = np.geomspace(lower[1], upper[1], 48)
            bb, cc = (g.ravel()[:, None] for g in np.meshgrid(bs, cs, indexing="ij"))
            u, w, _ = regress._basis(xs, bb, cc)
            normal = np.all((u == 0) | (np.abs(u) >= 1e-150), axis=1) & np.all(
                (w == 0) | (np.abs(w) >= 1e-150), axis=1
            )
            got = regress._linear_fit(u, w, ys)
            want = unscaled_linear_fit(u, w, ys)
            for g, r in zip(got, want):
                assert g[normal].tobytes() == r[normal].tobytes(), series
            compared += normal.sum()
            # the six best cells of this flat b-major grid, picked as
            # _grid_starts picks them from its broadcast one
            a, d = got
            rss = np.sum((a[:, None] * u + d[:, None] * w - ys) ** 2, axis=1)
            rss = np.where(np.isfinite(rss), rss, np.inf)
            order = np.argsort(rss, kind="stable")[:6]
            order = order[np.isfinite(rss[order])]
            starts = np.log(np.column_stack([bb[order, 0], cc[order, 0]]))
            got_starts = regress._grid_starts(xs, ys, lower, upper)
            assert got_starts.shape == starts.shape, series
            assert got_starts.tobytes() == starts.tobytes(), series
        assert compared >= 0.9 * len(PUBLISHED_SERIES) * 24 * 48


def exact_two_column_rss(u, w, v):
    """The least-squares RSS of v on the columns u and w, in exact rational
    arithmetic on their float values."""
    u, w, v = ([Fraction(float(x)) for x in col] for col in (u, w, v))
    g11 = sum(x * x for x in u)
    g12 = sum(x * y for x, y in zip(u, w))
    g22 = sum(y * y for y in w)
    h1 = sum(x * z for x, z in zip(u, v))
    h2 = sum(y * z for y, z in zip(w, v))
    det = g11 * g22 - g12 * g12
    p, q = (g22 * h1 - g12 * h2) / det, (g11 * h2 - g12 * h1) / det
    return float(sum((p * x + q * y - z) ** 2 for x, y, z in zip(u, w, v)))


class TestProfiledOracle:
    @pytest.mark.parametrize("b, c", [(10.8, 1.33), (12.0, 1.0)])
    def test_matches_fit_objective_when_c_is_far_below_the_data(self, b, c):
        # t = (x/c)^b is at least 3e14 at every x: w = t/(1 + t) keeps at most
        # one digit of 1 - w, and an intercept regression on w reported
        # 3.10e-3 against the true 3.40e-3 at (10.8, 1.33), and the total sum
        # of squares 2.42e-2 against 3.98e-3 at (12, 1), where w is 1
        xs = np.array([29.5, 32.0, 33.1, 37.3])
        ys = np.array([2.0614, 2.1336, 2.1723, 2.2767])
        u, w, _ = regress._basis(xs, b, c)
        a, d = regress._linear_fit(u, w, ys)
        objective = float(np.sum((a * u + d * w - ys) ** 2))
        oracle = profiled_4pl_rss(xs, ys, np.log([b]), np.log([c]))[0]
        assert oracle == pytest.approx(objective, rel=1e-9)


class TestCompareModels:
    def fit_both(self, pts):
        return [regress.fit_4pl(pts), regress.fit_quartic(pts)]

    def test_ranked_ascending(self):
        rng = np.random.default_rng(40)
        truth = regress.FourPLModel(a=0.7, b=2.0, c=25.0, d=2.2)
        xs = np.linspace(0.0, 60.0, 9)
        pts = [
            (float(x), float(regress.eval_4pl(truth, x)) + 0.03 * float(e))
            for x, e in zip(xs, rng.normal(size=9))
        ]
        ranked = regress.compare_models(self.fit_both(pts))
        assert [r.rank for r in ranked] == [0, 1]
        assert ranked[0].fit.aic <= ranked[1].fit.aic

    def test_interpolating_fit_flagged_not_trusted(self):
        # five points: the quartic always interpolates and outranks on AIC,
        # but carries the warning rather than a clean win
        ranked = regress.compare_models(self.fit_both(gameplay_points("puzzle", "gamer")))
        assert ranked[0].fit.model_type == "quartic"
        assert ranked[0].fit.aic == -math.inf
        assert ranked[0].overfit_warning
        assert not ranked[1].overfit_warning

    def test_tie_broken_by_parameter_count_then_rss(self):
        model4 = regress.FourPLModel(a=0.0, b=1.0, c=1.0, d=1.0)
        model5 = regress.QuarticModel(a=0.0, b=1.0, c=0.0, d=0.0, e=0.0)

        def result(model, k, rss):
            return regress.FitResult(
                model=model, rss=rss, r_squared=0.5, aic=10.0, k=k, n=6,
                converged=True, iterations=3,
            )

        lean = result(model4, 4, 0.2)
        fat = result(model5, 5, 0.1)
        ranked = regress.compare_models([fat, lean])
        assert ranked[0].fit is lean
        a = result(model4, 4, 0.3)
        b = result(model4, 4, 0.1)
        ranked = regress.compare_models([a, b])
        assert ranked[0].fit is b

    def test_requires_two_fits_same_data(self):
        pts = gameplay_points("puzzle", "gamer")
        fit = regress.fit_4pl(pts)
        with pytest.raises(MismatchedData):
            regress.compare_models([fit])
        other = regress.fit_quartic(
            [(x, y) for x, y in zip((0, 3, 6, 9, 12, 15), (1, 2, 3, 4, 5, 6))]
        )
        with pytest.raises(MismatchedData):
            regress.compare_models([fit, other])


class TestSerialization:
    def test_dict_round_trip_fields(self):
        fit = regress.fit_4pl(gameplay_points("strategic", "gamer"))
        d = regress.fit_result_to_dict(fit)
        assert set(d) == {
            "model_type", "params", "rss", "r_squared", "aic",
            "exact_fit", "n", "k", "converged", "iterations",
        }
        assert d["model_type"] == "4pl"
        assert set(d["params"]) == {"a", "b", "c", "d"}
        assert d["k"] == 4 and d["n"] == 5

    def test_infinite_aic_serializes_as_null(self):
        fit = regress.fit_quartic(gameplay_points("puzzle", "gamer"))
        d = regress.fit_result_to_dict(fit)
        assert d["exact_fit"] is True
        assert d["aic"] is None
        assert '"aic": null' in cli._json_indent2(d)
