import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from exocast.errors import (
    ConvergenceFailureError,
    GridSearchError,
    InsufficientDataError,
    MissingValueError,
    SchemaError,
    SelectionError,
)
from exocast.sarimax import (
    COORD_BOUND,
    MAX_ITER,
    R_MAX,
    SarimaxOrder,
    SarimaxParams,
    css_residuals,
    extrapolate_regressor,
    fit,
    fitted_from_params,
    forecast,
    round_forecaster,
)
from exocast import additive as additive_module
from exocast import models
from exocast import sarimax as sarimax_module
from exocast.sarimax import _css_and_gradient
from exocast.selection import CandidateSet, forward_select
from exocast.series import (
    Month, MonthlySeries, align_merge, difference, least_squares_line, mae, split_train_test,
)

M = Month


def ms(vals, id="t", start=M(2016, 1)):
    return MonthlySeries(id, start, vals)


def frame(target_vals, indicators=(), start=M(2016, 1)):
    return align_merge(
        ms(target_vals, start=start),
        [ms(v, id=i, start=start) for i, v in indicators],
    )


def simulate_ar1(seed, n=300, phi=0.7, sigma=1.0):
    rng = np.random.default_rng(seed)
    e = rng.normal(0, sigma, n)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = phi * y[t - 1] + e[t]
    return y


def ols_ar1(y):
    X = np.column_stack([np.ones(len(y) - 1), y[:-1]])
    return float(np.linalg.lstsq(X, y[1:], rcond=None)[0][1])


class TestCssResiduals:
    def test_ar_hand_recursion(self):
        residuals, css = css_residuals(
            SarimaxOrder(p=1),
            SarimaxParams(c=0.0, ar=(0.5,)),
            ms([1, 2, 3]),
            mean_conditioning=False,
        )
        assert residuals == pytest.approx([1.5, 2.0], abs=1e-12)
        assert css == pytest.approx(1.5**2 + 2.0**2, abs=1e-12)

    def test_ma_hand_recursion(self):
        residuals, _ = css_residuals(
            SarimaxOrder(q=1), SarimaxParams(c=0.0, ma=(0.5,)), ms([1, 1])
        )
        assert residuals == pytest.approx([1.0, 0.5], abs=1e-12)

    def test_pure_regression_fit(self):
        f = frame([1, 2, 3], indicators=[("x", [1, 2, 3])])
        residuals, css = css_residuals(
            SarimaxOrder(), SarimaxParams(c=0.0, beta=(1.0,)), f.target, f.indicators
        )
        assert residuals == [0.0, 0.0, 0.0]
        assert css == 0.0

    def test_zero_beta_equals_no_regressor_exactly(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0, 1, 40).tolist()
        x = rng.normal(0, 1, 40).tolist()
        f = frame(y, indicators=[("x", x)])
        order = SarimaxOrder(p=2, d=1, q=1)
        with_reg = css_residuals(
            order, SarimaxParams(c=0.1, ar=(0.3, 0.1), ma=(0.2,), beta=(0.0,)),
            f.target, f.indicators,
        )
        without = css_residuals(
            order, SarimaxParams(c=0.1, ar=(0.3, 0.1), ma=(0.2,)), f.target
        )
        assert with_reg[0] == without[0]
        assert with_reg[1] == without[1]

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            css_residuals(SarimaxOrder(p=3), SarimaxParams(c=0, ar=(0.1, 0.1, 0.1)), ms([1, 2]))

    def test_param_length_mismatch(self):
        with pytest.raises(ValueError):
            css_residuals(SarimaxOrder(p=2), SarimaxParams(c=0, ar=(0.5,)), ms([1, 2, 3, 4]))

    def test_seasonal_residual_start(self):
        # With P=1, s=4 scored residuals start at t=4 on the differenced scale.
        y = list(range(1, 11))
        residuals, _ = css_residuals(
            SarimaxOrder(P=1, s=4), SarimaxParams(c=0.0, seasonal_ar=(0.0,)), ms(y)
        )
        assert len(residuals) == 10 - 4


class TestFit:
    def test_ar1_recovery_ten_seeds(self):
        # CSS estimate must track the independent OLS oracle; the recovery
        # bound is a property of the draws (seeds fixed here).
        seeds = range(2, 12)
        errors = []
        for seed in seeds:
            y = simulate_ar1(seed)
            fitted = fit(frame(y.tolist()), SarimaxOrder(p=1))
            alpha = fitted.params.ar[0]
            assert abs(alpha - ols_ar1(y)) < 0.05
            errors.append(abs(alpha - 0.7))
        assert np.mean(errors) < 0.05
        assert max(errors) < 0.1

    def test_white_noise_alpha_near_zero(self):
        y = np.random.default_rng(42).normal(0, 1, 300)
        fitted = fit(frame(y.tolist()), SarimaxOrder(p=1))
        assert abs(fitted.params.ar[0]) < 0.1
        assert abs(fitted.params.ar[0] - ols_ar1(y)) < 0.05

    def test_exogenous_beta_recovery(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 300)
        u = np.zeros(300)
        e = rng.normal(0, 0.1, 300)
        for t in range(1, 300):
            u[t] = 0.5 * u[t - 1] + e[t]
        y = 2.0 * x + u
        # Two-stage OLS oracle: regress y on x first.
        X = np.column_stack([np.ones(300), x])
        beta_ols = float(np.linalg.lstsq(X, y, rcond=None)[0][1])
        fitted = fit(frame(y.tolist(), indicators=[("x", x.tolist())]), SarimaxOrder(p=1))
        assert 1.8 <= fitted.params.beta[0] <= 2.2
        assert abs(fitted.params.beta[0] - beta_ols) < 0.05

    def test_css_never_worse_than_zero_start(self):
        rng = np.random.default_rng(3)
        y = rng.normal(2, 1, 60).tolist()
        order = SarimaxOrder(p=2, q=1)
        fitted = fit(frame(y), order)
        zero = SarimaxParams(c=0.0, ar=(0.0, 0.0), ma=(0.0,))
        _, css_zero = css_residuals(order, zero, ms(y))
        assert fitted.css <= css_zero

    def test_deterministic(self):
        y = simulate_ar1(7, n=120).tolist()
        f1 = fit(frame(y), SarimaxOrder(p=1, d=1))
        f2 = fit(frame(y), SarimaxOrder(p=1, d=1))
        assert f1.params == f2.params
        assert f1.css == f2.css

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit(frame([1, 2, 3, 4, 5]), SarimaxOrder(p=3, d=1))

    def test_paper_scale_order_rejected_on_short_train(self):
        # 62 AR lags cannot be estimated from 64 observations here.
        y = simulate_ar1(0, n=64).tolist()
        with pytest.raises(InsufficientDataError):
            fit(frame(y), SarimaxOrder(p=62, d=1, q=4, s=4))

    def test_convergence_failure_names_the_budget(self):
        y = simulate_ar1(1, n=200).tolist()
        with pytest.raises(ConvergenceFailureError, match=r"iteration budget \(1\) for order "
                           r"\(2, 0, 2, 0, 0, 0, 12\)"):
            fit(frame(y), SarimaxOrder(p=2, q=2), max_iter=1)

    def test_target_differenced_once(self, monkeypatch):
        calls = []

        def counting(values, *args):
            calls.append(values.tolist())
            return difference(values, *args)

        monkeypatch.setattr(sarimax_module, "difference", counting)
        y = simulate_ar1(5, n=80).tolist()
        x = np.random.default_rng(5).normal(0, 1, 80).tolist()
        fit(frame(y, indicators=[("x", x)]), SarimaxOrder(p=1, d=1))
        assert calls == [y]

    def test_stored_css_matches_recomputation(self):
        y = simulate_ar1(4, n=150).tolist()
        fitted = fit(frame(y), SarimaxOrder(p=1, q=1))
        _, css = css_residuals(fitted.order, fitted.params, ms(y))
        assert css == pytest.approx(fitted.css, rel=1e-8)


class TestExactFit:
    @pytest.mark.parametrize(
        "order",
        [
            SarimaxOrder(p=1),
            SarimaxOrder(p=2, q=1),
            SarimaxOrder(p=1, q=2, P=1, Q=1, s=4),
            SarimaxOrder(p=3, P=2, s=4),
        ],
        ids=["ar1", "arma21", "seasonal-arma", "seasonal-ar"],
    )
    def test_gradient_matches_central_differences(self, order):
        rng = np.random.default_rng(order.p + 10 * order.q + 100 * order.P)
        m = 80
        w = np.cumsum(rng.normal(0, 0.1, m)) + rng.normal(0, 1, m)
        X = rng.normal(0, 1, (m, 2))
        n_coeff = 1 + order.p + order.q + order.P + order.Q + 2
        x = rng.normal(0, 0.7, n_coeff)
        _, grad = _css_and_gradient(x, order, w, X, 0.3)
        h = 1e-6
        numeric = [
            (_css_and_gradient(x + h * e, order, w, X, 0.3)[0]
             - _css_and_gradient(x - h * e, order, w, X, 0.3)[0]) / (2 * h)
            for e in np.eye(n_coeff)
        ]
        assert grad == pytest.approx(numeric, rel=1e-7, abs=1e-7 * np.max(np.abs(grad)))

    def test_stationary_ar1_with_regressors_is_least_squares(self):
        rng = np.random.default_rng(11)
        n = 120
        X = rng.normal(0, 1, (n, 3))
        u = simulate_ar1(11, n=n, phi=0.6, sigma=0.5)
        y = 1.0 + X @ np.array([1.5, -0.8, 0.3]) + u
        f = frame(y.tolist(), indicators=[(f"x{i}", X[:, i].tolist()) for i in range(3)])
        fitted = fit(f, SarimaxOrder(p=1))
        design = np.column_stack([np.ones(n - 1), y[:-1], X[1:]])
        oracle = np.linalg.lstsq(design, y[1:], rcond=None)[0]
        got = [fitted.params.c, *fitted.params.ar, *fitted.params.beta]
        assert got == pytest.approx(oracle, rel=0, abs=1e-9)
        assert fitted.optimizer["start"] == "least_squares"
        assert fitted.optimizer["nit"] == 0
        assert not fitted.optimizer["at_bound"]

    def test_trending_series_pins_ar_at_bound(self):
        # Explosive growth: the free least-squares ar exceeds 1, so the
        # bounded optimum fixes ar at R_MAX and fits c by least squares.
        rng = np.random.default_rng(2)
        t = np.arange(60)
        y = np.exp(0.03 * t) + rng.normal(0, 0.01, 60)
        fitted = fit(frame(y.tolist()), SarimaxOrder(p=1))
        assert fitted.params.ar[0] == R_MAX
        face = y[1:] - R_MAX * y[:-1]
        resid = face - face.mean()
        assert fitted.css == pytest.approx(float(resid @ resid), rel=1e-12)
        assert fitted.optimizer["start"] == "bounded_least_squares"
        assert fitted.optimizer["at_bound"]

    def test_ma_order_starts_from_zero(self):
        y = simulate_ar1(4, n=150).tolist()
        fitted = fit(frame(y), SarimaxOrder(p=1, q=1))
        assert fitted.optimizer["start"] == "zero"
        assert fitted.optimizer["status"] == 0
        assert fitted.optimizer["nit"] > 0


class TestExtrapolate:
    def test_exact_line(self):
        future = extrapolate_regressor(ms([1, 2, 3, 4], id="x"), 2)
        assert future.tolist() == pytest.approx([5, 6])

    def test_constant(self):
        future = extrapolate_regressor(ms([7, 7, 7], id="x"), 3)
        assert future.tolist() == pytest.approx([7, 7, 7])

    def test_least_squares_oracle(self):
        # Normal equations on x = 0..3, y = [0, 1.1, 1.9, 3.05]:
        # slope = 19.9/20 = 0.995, intercept = 0.02, value at x=4 is 4.00.
        values = [0, 1.1, 1.9, 3.05]
        assert least_squares_line(values) == pytest.approx((0.995, 0.02))
        assert extrapolate_regressor(ms(values, id="x"), 1).tolist() == pytest.approx([4.0])

    def test_future_matches_line_exactly(self):
        values = [3.0, 1.5, 2.5, 4.0, 3.5]
        future = extrapolate_regressor(ms(values, id="x"), 4)
        slope, intercept = least_squares_line(values)
        assert future.tolist() == [intercept + slope * (5 + j) for j in range(4)]

    def test_future_is_a_read_only_float_array(self):
        future = extrapolate_regressor(ms([1, 2, 3], id="x"), 2)
        assert future.dtype == np.float64 and future.shape == (2,)
        with pytest.raises(ValueError):
            future[0] = 0.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            extrapolate_regressor(ms([1], id="x"), 2)


class TestForecast:
    def test_pure_constant(self):
        fitted = fitted_from_params(
            SarimaxOrder(), SarimaxParams(c=0.3), frame([0.0, 0.0])
        )
        assert forecast(fitted, 4).values == pytest.approx((0.3, 0.3, 0.3, 0.3))

    def test_ar_hand_recursion(self):
        fitted = fitted_from_params(
            SarimaxOrder(p=1),
            SarimaxParams(c=0.0, ar=(0.5,)),
            frame([0.0, 0.0, 4.0]),
        )
        assert forecast(fitted, 3).values == pytest.approx((2.0, 1.0, 0.5), abs=1e-12)

    def test_beta_contribution_is_additive(self):
        base = frame([1.0, 2.0, 1.5, 2.5])
        with_reg = align_merge(base.target, [ms([0.5, 1.0, 1.5, 2.0], id="x")])
        f_beta = fitted_from_params(SarimaxOrder(), SarimaxParams(c=0.0, beta=(1.0,)), with_reg)
        f_none = fitted_from_params(SarimaxOrder(), SarimaxParams(c=0.0), base)
        got = forecast(f_beta, 2, np.array([[5.0], [6.0]]))
        plain = forecast(f_none, 2)
        delta = [a - b for a, b in zip(got.values, plain.values)]
        assert delta == pytest.approx([5.0, 6.0], abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_naive_continuation_matches_inversion_oracle(self, d):
        rng = np.random.default_rng(d)
        y = rng.normal(10, 2, 30).tolist()
        fitted = fitted_from_params(SarimaxOrder(d=d), SarimaxParams(c=0.0), frame(y))
        got = forecast(fitted, 6).values
        # Hand-rolled oracle: integrate a zero sequence d times from the tail.
        expected = list(y)
        for _ in range(6):
            if d == 1:
                expected.append(expected[-1])
            else:
                expected.append(2 * expected[-1] - expected[-2])
        assert got == pytest.approx(expected[-6:], abs=1e-9)

    def test_seasonal_difference_inversion(self):
        # (0,0,0)(0,1,0)_4 with c=0 forecasts a repeat of the last season.
        y = [1.0, 2.0, 3.0, 4.0, 1.5, 2.5, 3.5, 4.5]
        fitted = fitted_from_params(SarimaxOrder(D=1, s=4), SarimaxParams(c=0.0), frame(y))
        assert forecast(fitted, 4).values == pytest.approx([1.5, 2.5, 3.5, 4.5])

    def test_forecast_starts_after_training(self):
        fitted = fitted_from_params(SarimaxOrder(), SarimaxParams(c=1.0), frame([1.0, 1.0]))
        out = forecast(fitted, 2)
        assert out.start == M(2016, 3)

    def test_missing_regressor_forecast_rejected(self):
        f = frame([1.0, 2.0, 3.0], indicators=[("x", [1.0, 2.0, 3.0])])
        fitted = fitted_from_params(SarimaxOrder(), SarimaxParams(c=0.0, beta=(1.0,)), f)
        with pytest.raises(ValueError, match=r"shape \(2, 0\), not \(2, 1\)"):
            forecast(fitted, 2)

    def test_mismatched_regressor_order_rejected(self):
        # models.forecast reads each fitted regressor's future by id, and
        # names every one that lacks `horizon` values.
        f = frame([1.0, 2.0, 3.0], indicators=[("x", [1.0, 2.0, 3.0])])
        fitted = fitted_from_params(SarimaxOrder(), SarimaxParams(c=0.0, beta=(1.0,)), f)
        for futures in ({"y": np.ones(2)}, {"x": np.ones(1), "y": np.ones(2)}):
            with pytest.raises(ValueError, match=r"without 2 future values: \['x'\]"):
                models.forecast(fitted, 2, futures)
        expected = forecast(fitted, 2, np.array([[4.0], [5.0]])).values
        longer = {"y": np.ones(2), "x": np.array([4.0, 5.0, 6.0])}
        assert models.forecast(fitted, 2, longer).values == expected

    def test_deterministic_bits(self):
        y = simulate_ar1(3, n=100).tolist()
        fitted = fit(frame(y), SarimaxOrder(p=2, d=1))
        a = forecast(fitted, 12).values
        b = forecast(fitted, 12).values
        assert a == b  # bitwise


class TestGridSearch:
    # `models.with_order` scores each order of a grid with `models.Validation`
    # on the target alone, over the last `horizon` months of the frame, and
    # returns the spec of the best one.
    @staticmethod
    def _chosen(train, grid):
        spec = models.with_order(models.ModelSpec("sarimax", grid=tuple(grid)), train, 12)
        assert not spec.grid
        return spec.order

    def test_a_spec_without_a_grid_comes_back_as_it_is(self):
        train = frame(simulate_ar1(0, n=60).tolist())
        for spec in (models.ModelSpec("sarimax", order=SarimaxOrder(p=1)),
                     models.ModelSpec("additive")):
            assert models.with_order(spec, train, 12) is spec

    def test_singleton(self):
        y = simulate_ar1(0, n=60).tolist()
        assert self._chosen(frame(y), [SarimaxOrder(p=1)]) == SarimaxOrder(p=1)

    def test_ar1_data_prefers_ar1(self):
        # Persistent AR so the 12-month validation window still carries signal.
        wins = 0
        grid = [SarimaxOrder(), SarimaxOrder(p=1)]
        for seed in range(10):
            y = simulate_ar1(seed, n=160, phi=0.95).tolist()
            wins += self._chosen(frame(y), grid) == SarimaxOrder(p=1)
        assert wins >= 9

    def test_all_fail_raises_with_reasons(self):
        y = simulate_ar1(0, n=30).tolist()
        grid = [SarimaxOrder(p=25), SarimaxOrder(p=1, d=1, q=20)]
        with pytest.raises(GridSearchError) as excinfo:
            self._chosen(frame(y), grid)
        reasons = str(excinfo.value).split(": ", 1)[1].split("; ")
        assert [r.split(" -> ")[0] for r in reasons] == [str(o.as_tuple()) for o in grid]
        assert all(" -> InsufficientDataError: " in r for r in reasons)

    def test_tie_breaks_lexicographically(self):
        # With P=D=Q=0 the season length changes nothing structurally, so
        # the two orders score exactly equal and only the tie-break differs.
        y = simulate_ar1(2, n=60).tolist()
        grid = [SarimaxOrder(s=12), SarimaxOrder(s=4)]
        validation = models.Validation(frame(y), 12)
        scores = [validation.score(models.ModelSpec("sarimax", order=o), ()) for o in grid]
        assert scores[0] == scores[1]
        assert self._chosen(frame(y), grid) == SarimaxOrder(s=4)  # (...,4) < (...,12)

    def _grid_frame(self):
        rng = np.random.default_rng(3)
        y = simulate_ar1(3, n=72).tolist()
        return frame(y, indicators=[(f"x{i}", rng.normal(0, 1, 72).tolist()) for i in range(3)])

    def test_orders_are_scored_on_the_target_alone(self):
        train = self._grid_frame()
        grid = [SarimaxOrder(), SarimaxOrder(p=1), SarimaxOrder(p=2)]
        # Reference: each order fitted on the target of the first 60 months.
        sub_train, validation = split_train_test(train.with_indicators(()), 12)
        expected = [mae(validation.target.require_complete(),
                        forecast(fit(sub_train, order), 12).require_complete()) for order in grid]
        assert self._chosen(train, grid) == grid[int(np.argmin(expected))]
        assert self._chosen(train.with_indicators(()), grid) == grid[int(np.argmin(expected))]
        # Scored on every indicator, another order would win on this frame.
        validation = models.Validation(train, 12)
        with_all = [validation.score(models.ModelSpec("sarimax", order=o), train.indicator_ids)
                    for o in grid]
        assert np.argmin(with_all) != np.argmin(expected)

    def test_the_search_continues_no_regressor(self, monkeypatch):
        def broken(series, horizon):
            raise AssertionError("a regressor was continued")

        train = self._grid_frame()
        grid = [SarimaxOrder(), SarimaxOrder(p=1)]
        expected = self._chosen(train, grid)
        monkeypatch.setattr(sarimax_module, "extrapolate_regressor", broken)
        assert self._chosen(train, grid) == expected

    def test_a_held_out_gap_raises_before_any_order_is_fitted(self, monkeypatch):
        # The held-out target is required once for every order, so a gap in
        # it is its own error, not a GridSearchError repeating it per order.
        y = simulate_ar1(0, n=60).tolist()
        y[55] = None
        monkeypatch.setattr(sarimax_module, "fit", None)  # an order's fit would fail
        with pytest.raises(MissingValueError):
            self._chosen(frame(y), [SarimaxOrder(), SarimaxOrder(p=1)])


def subset_frame(seed, n=60, n_indicators=5, growth=0.0):
    """AR(1) noise around two planted drivers; `growth` > 0 adds explosive
    growth, which pins the AR coefficient of a (1,0,0) fit at its bound."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, n_indicators))
    y = 1.0 + X[:, :2] @ np.array([1.2, -0.7]) + simulate_ar1(seed, n=n, phi=0.5, sigma=0.5)
    y = y + np.exp(growth * np.arange(n)) if growth else y
    return frame(y.tolist(), indicators=[(f"x{i}", X[:, i].tolist()) for i in range(n_indicators)])


def fitted_forecast(train, order, subset, horizon, futures):
    """What forward selection computed before sharing: a fit of its own."""
    fitted = fit(train.with_indicators(subset), order)
    return models.forecast(fitted, horizon, futures).require_complete()


def continuations(train, horizon):
    return models.regressor_forecasts(train, horizon)


def recorded_minimize_calls(monkeypatch):
    """Record each `minimize` call as (args, kwargs, result), passing it on."""
    calls = []
    minimize = sarimax_module.minimize

    def recording(*args, **kwargs):
        result = minimize(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(sarimax_module, "minimize", recording)
    return calls


def counted_scipy_calls(monkeypatch):
    """Count the calls that reach `scipy.optimize.minimize`."""
    import scipy.optimize

    calls = []
    scipy_minimize = scipy.optimize.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return scipy_minimize(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", counting)
    return calls


def stage_histories(tail, d, D, s):
    """Each differencing stage's lag and the values it differences, taken
    from `tail` as lists, and the fully differenced tail."""
    stages = []
    cur = [float(v) for v in tail]
    for _ in range(d):
        stages.append((1, cur))
        cur = [cur[i + 1] - cur[i] for i in range(len(cur) - 1)]
    for _ in range(D):
        stages.append((s, cur))
        cur = [cur[i + s] - cur[i] for i in range(len(cur) - s)]
    return stages, cur


def integrate_forward(history, lag, fc):
    """`fc`'s values each added to the value `lag` steps before it: the end
    of `history`, then the values integrated so far."""
    buf = list(history[-lag:])
    out = []
    for v in fc:
        nxt = buf[-lag] + v
        buf.append(nxt)
        out.append(nxt)
    return out


def scalar_forecast_path(order, params, tail, tail_residuals, x_future):
    """`_forecast_path` as a scalar loop on lists, the reference for the
    vectorised one: each row of `x_future` holds one step's regressor
    values. It never reads before the differenced tail: that tail holds
    every AR lag."""
    stages, w_hist = stage_histories(tail, order.d, order.D, order.s)
    eps_hist = list(tail_residuals)
    n_w, n_e = len(w_hist), len(eps_hist)
    ar, ma = params.ar + params.seasonal_ar, params.ma + params.seasonal_ma
    ar_lags = sarimax_module._lags(len(params.ar), len(params.seasonal_ar), order.s)
    ma_lags = sarimax_module._lags(len(params.ma), len(params.seasonal_ma), order.s)
    w_fc = []
    for j in range(len(x_future)):
        acc = params.c + sum(b * x for b, x in zip(params.beta, x_future[j]))
        for a, lag in zip(ar, ar_lags):
            u = j - lag
            if u >= 0:
                acc += a * w_fc[u]
            else:
                assert n_w + u >= 0, f"lag {lag} reads before the tail of {n_w} values"
                acc += a * w_hist[n_w + u]
        for th, lag in zip(ma, ma_lags):
            u = j - lag
            if u < 0 and n_e + u >= 0:
                acc += th * eps_hist[n_e + u]
        w_fc.append(acc)
    values = w_fc
    for lag, past in reversed(stages):
        values = integrate_forward(past, lag, values)
    return values


class TestForecastPath:
    # The regression term is summed over the whole horizon one regressor at
    # a time; every value must still be that of the scalar loop, bit for bit.
    # Each case is (order, regressors, constant, months), where months, if
    # given, sets the tails' lengths as `from_doc` takes them.
    CASES = {
        "no-regressors": (SarimaxOrder(p=1), 0, 0.4, None),
        "c-negative-zero": (SarimaxOrder(p=1), 0, -0.0, None),
        "c-negative-zero-regressors": (SarimaxOrder(), 3, -0.0, None),
        "differenced": (SarimaxOrder(p=2, d=1, D=1, s=4), 3, 0.2, None),
        "seasonal-ar": (SarimaxOrder(p=1, P=2, s=4), 2, -0.3, None),
        "ma-tails": (SarimaxOrder(p=1, q=2, Q=1, s=4), 2, 0.1, None),
        # The shortest frames `from_doc` accepts, of the orders of
        # `test_tails_cut_by_a_short_frame_reload`: the differenced tail
        # holds max(p, P*s) values, the largest AR lag, and no more.
        "shortest-ma": (SarimaxOrder(q=4), 1, 0.1, 1),
        "shortest-arma": (SarimaxOrder(p=2, q=5), 1, 0.1, 2),
        "shortest-seasonal": (SarimaxOrder(p=1, d=1, D=1, Q=2, s=3), 2, 0.1, 5),
    }

    @staticmethod
    def _case(seed, order, k, c, m=None, months=None):
        """Seeded coefficients, target tail, residual tail and futures: one
        fit, or with `m` a stack of m fits whose last regressor differs.
        With `months`, the tails are as long as `from_doc` takes them from a
        frame of that many months."""
        rng = np.random.default_rng(seed)
        lead = () if m is None else (m,)

        def coeffs(n, scale):
            drawn = [rng.uniform(-scale, scale, lead) for _ in range(n)]
            return tuple(float(v) for v in drawn) if m is None else tuple(drawn)

        params = SarimaxParams(
            c=c if m is None else np.full(m, c), ar=coeffs(order.p, 0.4),
            ma=coeffs(order.q, 0.4), seasonal_ar=coeffs(order.P, 0.2),
            seasonal_ma=coeffs(order.Q, 0.2), beta=coeffs(k, 2.0),
        )
        n_values, n_residuals = sarimax_module._tail_lengths(order)
        if months is None:
            n_values += 2
        else:
            n_values = min(n_values, months)
            n_residuals = min(n_residuals, months - order.dropped - order.presample)
        tail = tuple(rng.normal(5.0, 1.0, n_values).tolist())
        residuals = tuple(rng.normal(0.0, 0.5, n_residuals).tolist())
        columns = [rng.normal(0.0, 1.0, 12) for _ in range(k)]
        if m is not None and k:
            columns[-1] = rng.normal(0.0, 1.0, (12, m))
        return params, tail, residuals, columns

    @pytest.mark.parametrize("name", CASES)
    def test_equals_the_scalar_loop(self, name):
        order, k, c, months = self.CASES[name]
        for seed in range(5):
            params, tail, residuals, columns = self._case(seed, order, k, c, months=months)
            got = sarimax_module._forecast_path(order, params, tail, residuals, columns, 12)
            rows = [[float(x[j]) for x in columns] for j in range(12)]
            expected = np.asarray(scalar_forecast_path(order, params, tail, residuals, rows), dtype=float)
            assert np.asarray(got).tobytes() == expected.tobytes(), seed
            if months:  # a document of these tails loads, and forecasts the same
                fitted = sarimax_module.FittedSarimax(
                    order=order, params=params, regressor_ids=tuple(f"x{i}" for i in range(k)),
                    target_id="t", train_start=M(2016, 1), train_end=M(2016, 1).shift(months - 1),
                    tail_values=tail, tail_residuals=residuals, css=0.0, optimizer=None,
                )
                loaded = models.from_doc(json.loads(json.dumps(models.to_doc(fitted))))
                assert loaded == fitted
                assert forecast(loaded, 12, np.column_stack(columns)).array.tobytes() == expected.tobytes()

    def test_stacked_fits_equal_the_scalar_loop(self):
        # A round's fits share the current regressors' values and each
        # adds its own candidate's: columns (12, 1) and (12, m). A
        # differenced order integrates the m paths from one tail.
        for order in (SarimaxOrder(p=1, P=1, s=4), SarimaxOrder(p=1, d=1, D=1, s=4)):
            params, tail, _, columns = self._case(11, order, 3, 0.3, m=4)
            columns = [columns[0][:, None], columns[1][:, None], columns[2]]
            got = sarimax_module._forecast_path(order, params, tail, (), columns, 12)
            rows = [[columns[0][j, 0], columns[1][j, 0], columns[2][j]] for j in range(12)]
            expected = scalar_forecast_path(order, params, tail, (), rows)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), order


class TestValidation:
    # `models.Validation` scores one subset with `models.fit` and
    # `models.forecast`, and only a whole round through the model module.
    SUBSETS = [(), ("x1",), ("x3", "x0"), ("x4", "x2", "x0"), ("x4", "x3", "x2", "x1", "x0")]

    @pytest.mark.parametrize(
        "spec",
        [models.ModelSpec("sarimax", order=SarimaxOrder(p=1)),
         models.ModelSpec("sarimax", order=SarimaxOrder(p=1, P=1, s=4)),
         models.ModelSpec("sarimax", order=SarimaxOrder(p=1, q=1))],
        ids=["100", "100x100_4", "101"],
    )
    def test_a_subset_scores_as_models_fit_and_forecast(self, spec):
        train = subset_frame(1)
        sub_train, held_out = split_train_test(train, 12)
        future = models.regressor_forecasts(sub_train, 12)
        actual = held_out.target.require_complete()
        validation = models.Validation(train, 12)
        assert np.array_equal(validation.actual, actual)
        for subset in self.SUBSETS:
            fitted = models.fit(spec, sub_train.with_indicators(subset))
            expected = models.forecast(fitted, 12, future).require_complete()
            own = models.fit(spec, validation.train.with_indicators(subset))
            got = models.forecast(own, 12, validation.future).require_complete()
            assert np.array_equal(got, expected), subset
            assert validation.score(spec, subset) == mae(actual, expected), subset

    def test_a_round_is_served_without_fit(self, monkeypatch):
        validation = models.Validation(subset_frame(3), 12)
        train, futures = validation.train, validation.future
        config = additive_module.AdditiveConfig(
            n_changepoints=1, ar_lags=1, regressor_lags=1, ridge_lambda=0.1)
        specs = [models.ModelSpec("sarimax", order=SarimaxOrder(p=1)),
                 models.ModelSpec("additive", additive_config=config)]
        current, candidates = ("x1",), ("x0", "x2", "x3", "x4")
        expected, scores = [], []
        for spec in specs:
            fits = [models.fit(spec, train.with_indicators(current + (cid,)))
                    for cid in candidates]
            expected.append([models.forecast(f, 12, validation.future).require_complete()
                             for f in fits])
            scores.append([validation.score(spec, current + (cid,)) for cid in candidates])
        monkeypatch.setattr(sarimax_module, "fit", None)  # a per-subset fit would fail
        monkeypatch.setattr(additive_module, "fit", None)
        rounds = [sarimax_module.round_forecaster(train, SarimaxOrder(p=1), 12, futures),
                  additive_module.round_forecaster(train, config, 12, futures)]
        for spec, forecast_round, direct, direct_scores in zip(specs, rounds, expected, scores):
            columns = forecast_round(current, candidates)
            assert not np.isnan(columns).any(), spec.label
            for j, values in enumerate(direct):
                assert np.max(np.abs(columns[:, j] - values)) <= 1e-9 * np.max(np.abs(values))
            got = validation.round_scorer(spec)(current, candidates)
            assert not np.isnan(got).any(), spec.label
            assert np.max(np.abs(got - direct_scores) / direct_scores) <= 1e-9, spec.label


def round_evaluators(train, order, actual, futures):
    """A per-subset evaluator, each subset fitted on its own, and the round
    scorer forward selection takes beside it, or None."""
    forecast_round = round_forecaster(train, order, len(actual), futures)

    def per_subset(subset):
        return mae(actual, fitted_forecast(train, order, subset, len(actual), futures))

    if forecast_round is None:
        return per_subset, None
    return per_subset, lambda current, candidates: mae(actual, forecast_round(current, candidates))


class TestRoundForecast:
    # A greedy round forecasts every candidate at once; each column must
    # match that subset's own fit and forecast to rounding.
    def test_a_bounded_start_is_scored_in_batch(self):
        train = subset_frame(2, growth=0.08)
        order = SarimaxOrder(p=1)
        futures = continuations(train, 12)
        forecast_round = round_forecaster(train, order, 12, futures)
        ids = train.indicator_ids
        for current in [(), ("x1",), ("x3", "x0")]:
            candidates = tuple(i for i in ids if i not in current)
            columns = forecast_round(current, candidates)
            assert not np.isnan(columns).any()
            for j, cid in enumerate(candidates):
                fitted = fit(train.with_indicators(current + (cid,)), order)
                assert fitted.optimizer["start"] == "bounded_least_squares"
                expected = fitted_forecast(train, order, current + (cid,), 12, futures)
                gap = np.max(np.abs(columns[:, j] - expected))
                assert gap <= 1e-9 * np.max(np.abs(expected)), cid

    def test_an_ma_order_has_no_round(self):
        train = subset_frame(1)
        assert round_forecaster(train, SarimaxOrder(p=1, q=1), 12, continuations(train, 12)) is None


class TestSubsetFailures:
    def test_a_target_that_cannot_be_differenced_has_no_round(self):
        base = subset_frame(6, n=20, n_indicators=3)
        target = list(base.target.values)
        target[7] = None
        ids = base.indicator_ids
        train = frame(target, indicators=[(i, base.indicator(i).values) for i in ids])
        order = SarimaxOrder(p=1, d=1)
        futures = {i: extrapolate_regressor(base.indicator(i), 6) for i in ids}
        assert round_forecaster(train, order, 6, futures) is None
        spec = models.ModelSpec("sarimax", order=order)
        validation = models.Validation(train, 6)
        assert validation.round_scorer(spec) is None
        with pytest.raises(MissingValueError) as shared:
            validation.score(spec, ("x1", "x0"))
        with pytest.raises(MissingValueError) as direct:
            fit(validation.train.with_indicators(("x1", "x0")), order)
        assert str(shared.value) == str(direct.value)

    def test_forward_traces_keep_every_failure_string(self):
        # Subsets of 11 or more regressors are too long for 14 months, and
        # x5 has a gap; then the target gets one, which fails every subset.
        base = subset_frame(7, n=14, n_indicators=12)
        futures = continuations(base, 4)
        x5 = base.indicator("x5").values
        columns = [(i, base.indicator(i).values) for i in base.indicator_ids]
        columns[5] = ("x5", x5[:6] + (None,) + x5[7:])
        target = list(base.target.values)
        order = SarimaxOrder(p=1, d=1)
        actual = np.linspace(0, 1, 4)
        for gap in (None, 3):
            if gap is not None:
                target[gap] = None
            train = frame(target, indicators=columns)
            evaluate, _ = round_evaluators(train, order, actual, futures)
            if gap is None:
                trace = forward_select(CandidateSet(train), evaluate, cap=12).trace
                reasons = {reason.split(":")[0] for _, reason in trace.failures}
                assert reasons == {"InsufficientDataError", "MissingValueError"}
                continue
            with pytest.raises(SelectionError, match="MissingValueError"):
                forward_select(CandidateSet(train), evaluate, cap=12)

    def test_a_round_leaves_failing_candidates_to_the_per_subset_path(self):
        # As above: x5 has a gap and 11 regressors are too many for 14
        # months; then a gap in the target leaves no round at all.
        base = subset_frame(7, n=14, n_indicators=12)
        futures = continuations(base, 4)
        x5 = base.indicator("x5").values
        columns = [(i, base.indicator(i).values) for i in base.indicator_ids]
        columns[5] = ("x5", x5[:6] + (None,) + x5[7:])
        train = frame(base.target.values, indicators=columns)
        order = SarimaxOrder(p=1, d=1)
        actual = np.linspace(0, 1, 4)
        per_subset, score_round = round_evaluators(train, order, actual, futures)
        ids = train.indicator_ids
        scores = score_round(("x0",), ids[1:])
        assert [np.isnan(v) for v in scores] == [i == "x5" for i in ids[1:]]
        assert np.isnan(score_round(ids[:11], ids[11:])).all()
        own = forward_select(CandidateSet(train), per_subset, cap=12)
        via_round = forward_select(CandidateSet(train), per_subset, cap=12, score_round=score_round)
        assert via_round.trace.failures == own.trace.failures
        assert [s for s, _ in via_round.trace.entries] == [s for s, _ in own.trace.entries]
        for (_, got), (_, expected) in zip(via_round.trace.entries, own.trace.entries):
            assert abs(got - expected) <= 1e-9 * expected
        counts = via_round.diagnostics["round_scoring"]
        assert counts["batch"] > 0 and counts["per_subset"] == len(own.trace.failures)

        target = list(base.target.values)
        target[3] = None
        train = frame(target, indicators=columns)
        per_subset, score_round = round_evaluators(train, order, actual, futures)
        assert score_round is None
        with pytest.raises(SelectionError, match="MissingValueError"):
            forward_select(CandidateSet(train), per_subset, cap=12)


class TestStartCertificate:
    # A least-squares start that passes L-BFGS-B's own iteration-0 test is
    # the fit: the shared path takes it as it is, and `minimize` returns it
    # without scipy. scipy's L-BFGS-B must stop there too, with that result.
    @staticmethod
    def _problem(train, order, subset):
        exog = train.with_indicators(subset).indicators
        w = sarimax_module._differenced_target(order, train.target)
        X = sarimax_module._regressor_matrix(order, train.target, exog)
        wbar = float(w.mean())
        t0 = order.presample
        design = np.column_stack([sarimax_module._lagged_block(order, w), X[t0:]])
        x0, _ = sarimax_module._least_squares_start(order, design, w[t0:])
        return x0, (order, w, X, wbar)

    @pytest.mark.parametrize("growth", [0.0, 0.08], ids=["free", "bounded"])
    def test_an_accepted_start_is_where_lbfgsb_stops(self, growth, monkeypatch):
        from scipy.optimize import minimize as scipy_minimize

        train = subset_frame(8, n_indicators=10, growth=growth)
        order = SarimaxOrder(p=1)
        calls = recorded_minimize_calls(monkeypatch)
        accepted = 0
        for size in range(11):
            for subset in itertools.combinations(train.indicator_ids, size):
                x0, args = self._problem(train, order, subset)
                css, grad = _css_and_gradient(x0, *args)
                bounds = sarimax_module._bounds(order, size)
                if not sarimax_module._at_optimum(x0, css, grad, bounds, sarimax_module.PGTOL):
                    continue
                accepted += 1
                best_x, _ = sarimax_module._lbfgsb(x0, *args, MAX_ITER)
                assert np.array_equal(best_x, x0), subset
                lbfgsb_args, lbfgsb_kwargs, _ = calls.pop()
                result = scipy_minimize(*lbfgsb_args, **lbfgsb_kwargs)
                assert result.nit == 0, subset
                assert np.array_equal(result.x, x0), subset
        assert accepted == 2 ** 10
        if growth:
            assert abs(x0[1]) == COORD_BOUND

    @pytest.mark.parametrize(
        "order, growth",
        [(SarimaxOrder(p=1), 0.0), (SarimaxOrder(p=2), 0.0),
         (SarimaxOrder(p=1, P=1, s=12), 0.0), (SarimaxOrder(p=1), 0.08)],
        ids=["100", "200", "100x100_12", "bounded"],
    )
    def test_a_certified_start_returns_what_scipy_returns(self, order, growth, monkeypatch):
        from scipy.optimize import minimize as scipy_minimize

        train = subset_frame(10, n=96, growth=growth)
        calls = recorded_minimize_calls(monkeypatch)
        reached = counted_scipy_calls(monkeypatch)
        for subset in TestValidation.SUBSETS:
            fitted = fit(train.with_indicators(subset), order)
            assert fitted.optimizer["nit"] == 0, subset
            expected_start = "bounded_least_squares" if growth else "least_squares"
            assert fitted.optimizer["start"] == expected_start, subset
        assert reached == [] and len(calls) == len(TestValidation.SUBSETS)
        for args, kwargs, certified in calls:
            reference = scipy_minimize(*args, **kwargs)
            for key in ("x", "jac"):
                got, want = getattr(certified, key), getattr(reference, key)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key
            assert type(certified.fun) is type(reference.fun)
            assert np.float64(certified.fun).tobytes() == np.float64(reference.fun).tobytes()
            for key in ("nit", "nfev", "njev", "status", "success", "message"):
                assert getattr(certified, key) == getattr(reference, key), key
            assert certified.x is not args[1]

    def test_a_refused_start_runs_lbfgsb(self, monkeypatch):
        train = subset_frame(9)
        order = SarimaxOrder(p=1)
        x0, args = self._problem(train, order, ("x0", "x1"))
        css, grad = _css_and_gradient(x0 + 1e-3, *args)
        bounds = sarimax_module._bounds(order, 2)
        assert not sarimax_module._at_optimum(x0 + 1e-3, css, grad, bounds, sarimax_module.PGTOL)

        least_squares_start = sarimax_module._least_squares_start

        def perturbed(*args):
            x0, start = least_squares_start(*args)
            return x0 + 1e-3, start

        monkeypatch.setattr(sarimax_module, "_least_squares_start", perturbed)
        reached = counted_scipy_calls(monkeypatch)
        for subset in TestValidation.SUBSETS:
            fitted = fit(train.with_indicators(subset), order)
            assert fitted.optimizer["nit"] > 0
        assert len(reached) == len(TestValidation.SUBSETS)

    def test_an_end_point_above_the_start_keeps_the_start(self, monkeypatch):
        # L-BFGS-B may stop above its start, as after a failed line search;
        # the fit then keeps the start, and records what the optimizer did.
        train = frame(simulate_ar1(9, n=80).tolist())
        order = SarimaxOrder(p=1, q=1)

        def worse(fun, x0, args=(), **kwargs):
            x = x0 + 5.0
            css, grad = fun(x, *args)
            assert css > fun(x0, *args)[0]
            return SimpleNamespace(x=x, fun=css, jac=grad, nit=7, nfev=11, njev=11, status=2,
                                   success=False, message="ABNORMAL_TERMINATION_IN_LNSRCH")

        monkeypatch.setattr(sarimax_module, "minimize", worse)
        fitted = fit(train, order)
        start, _ = sarimax_module._unpack(np.zeros(3), order, 0)
        assert fitted.params == start
        assert fitted.css == css_residuals(order, start, train.target)[1]
        assert fitted.optimizer == {"start": "zero", "status": 2, "nit": 7, "nfev": 11,
                                    "at_bound": False}

    def test_a_start_outside_the_bounds_reaches_scipy(self, monkeypatch):
        # Stationary beyond the bound: L-BFGS-B first moves x0 onto the box.
        def beyond(x):
            return float((x[0] - 60.0) ** 2), np.array([2.0 * (x[0] - 60.0)])

        reached = counted_scipy_calls(monkeypatch)
        result = sarimax_module.minimize(
            beyond, np.array([60.0]), method="L-BFGS-B", jac=True,
            bounds=[(-COORD_BOUND, COORD_BOUND)], options={"gtol": sarimax_module.PGTOL},
        )
        assert len(reached) == 1 and result.x[0] == COORD_BOUND

    def test_an_ma_order_reaches_scipy(self, monkeypatch):
        reached = counted_scipy_calls(monkeypatch)
        fitted = fit(subset_frame(9), SarimaxOrder(p=1, q=1))
        assert fitted.optimizer["start"] == "zero" and fitted.optimizer["nit"] > 0
        assert len(reached) == 1


class TestSerialization:
    def test_round_trip(self, tmp_path):
        y = simulate_ar1(6, n=100).tolist()
        x = np.random.default_rng(6).normal(0, 1, 100).tolist()
        fitted = fit(frame(y, indicators=[("x", x)]), SarimaxOrder(p=1, d=1, q=1))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(models.to_doc(fitted), indent=2))
        loaded = models.from_doc(json.loads(path.read_text()))
        assert loaded == fitted

    def test_loaded_params_reproduce_css(self, tmp_path):
        y = simulate_ar1(8, n=90).tolist()
        fitted = fit(frame(y), SarimaxOrder(p=1, q=1))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(models.to_doc(fitted), indent=2))
        loaded = models.from_doc(json.loads(path.read_text()))
        _, css = css_residuals(loaded.order, loaded.params, ms(y))
        assert css == pytest.approx(loaded.css, rel=1e-8)

    @pytest.mark.parametrize("order, n, tails", [
        (SarimaxOrder(q=4), 3, (3, 3)),
        (SarimaxOrder(p=2, q=5), 4, (4, 2)),
        (SarimaxOrder(p=1, d=1, D=1, Q=2, s=3), 9, (9, 4)),
    ])
    def test_tails_cut_by_a_short_frame_reload(self, order, n, tails):
        # A tail holds all the months, or all the scored residuals, when
        # the frame has fewer than the order reads.
        y = simulate_ar1(3, n=n).tolist()
        params = SarimaxParams(c=0.1, ar=(0.2,) * order.p, ma=(0.1,) * order.q,
                               seasonal_ma=(0.1,) * order.Q)
        given = fitted_from_params(order, params, frame(y))
        assert (len(given.tail_values), len(given.tail_residuals)) == tails
        assert models.from_doc(json.loads(json.dumps(models.to_doc(given)))) == given

    def test_optimizer_record_round_trips_null_too_and_is_required(self):
        y = simulate_ar1(9, n=80).tolist()
        fitted = fit(frame(y), SarimaxOrder(p=1))
        doc = json.loads(json.dumps(models.to_doc(fitted)))
        assert doc["optimizer"] == fitted.optimizer
        given = fitted_from_params(fitted.order, fitted.params, frame(y))
        assert given.optimizer is None
        assert models.from_doc(json.loads(json.dumps(models.to_doc(given)))) == given
        del doc["optimizer"]
        with pytest.raises(SchemaError, match="model lacks optimizer"):
            models.from_doc(doc)

    # `expected` below is the forecast the code computed from this document
    # when it was written.
    DOC = {
        "schema": "exocast.sarimax.fitted/3", "order": [1, 1, 1, 0, 0, 0, 12],
        "params": {"c": -0.5387024904566525, "ar": [-0.6836865754831113],
                   "ma": [0.9998000599800071], "seasonal_ar": [], "seasonal_ma": [],
                   "beta": [0.45484736109984814]},
        "regressor_ids": ["x"], "target_id": "t", "train_start": "2016-01",
        "train_end": "2019-04", "tail_values": [1.566968804950033, 3.0935937758020198],
        "tail_residuals": [1.3124011461813367], "css": 15.988249352796473,
        "optimizer": {"start": "zero", "status": 0, "nit": 38, "nfev": 45, "at_bound": True},
    }
    # The same model as exocast.sarimax.fitted/2 wrote it: besides, the
    # pre-sample mean, whether the fit used it, and params.sigma2, the css
    # over the number of scored residuals. No forecast read them.
    DOC_2 = {
        **DOC, "schema": "exocast.sarimax.fitted/2",
        "params": {**DOC["params"], "sigma2": 0.42074340402095983},
        "mean_conditioning": True, "presample_mean": 0.025034751060470744,
    }

    def test_a_document_forecasts_as_when_written(self):
        loaded = models.from_doc(json.loads(json.dumps(self.DOC)))
        x = np.array([[0.004222348164778733], [-0.06516001328167453], [-0.1345423747281278]])
        expected = [2.825217555566893, 2.440362423973495, 2.103583976391839]
        assert list(forecast(loaded, 3, x).values) == expected
        assert json.loads(json.dumps(models.to_doc(loaded))) == self.DOC

    def test_retired_schema_refused_by_name(self):
        # A /1 document besides recorded the target's normalization, and may
        # lack its training start; no reader of either version is kept.
        first = {**self.DOC_2, "schema": "exocast.sarimax.fitted/1", "normalization": None}
        for doc in (first, self.DOC_2):
            with pytest.raises(SchemaError) as raised:
                models.from_doc(doc, "model.json")
            assert str(raised.value) == (
                f"model.json: schema '{doc['schema']}' is not exocast.sarimax.fitted/3 or "
                "exocast.additive.fitted/3; fit the model again"
            )

    @pytest.mark.parametrize("doc, message", [
        ([], "JSON object, not list"),
        ({**DOC, "schema": "something-else"}, "schema 'something-else' is not"),
        ({k: v for k, v in DOC.items() if k != "params"}, "model lacks params"),
        ({k: v for k, v in DOC.items() if k != "train_start"}, "model lacks train_start"),
        ({**DOC, "order": [1, 0]}, r"order must be \[p,d,q,P,D,Q,s\], got \[1, 0\]"),
        ({**DOC, "params": {k: v for k, v in DOC["params"].items() if k != "c"}},
         "params lacks c"),
        ({**DOC, "order": [2, 1, 1, 0, 0, 0, 12]}, "do not match order"),
        ({**DOC, "tail": []}, "unknown model keys: tail"),
        ({**DOC, "normalization": None}, "unknown model keys: normalization"),
        ({**DOC, "tail_values": []}, "hold 0 and 1 values, not the 2 and 1 that order"),
        ({**DOC, "tail_values": DOC["tail_values"][1:]}, "hold 1 and 1 values, not the 2 and 1"),
        ({**DOC, "tail_values": [0.5, *DOC["tail_values"]]}, "hold 3 and 1 values, not the 2"),
        ({**DOC, "tail_residuals": []}, "hold 2 and 0 values, not the 2 and 1"),
        ({**DOC, "regressor_ids": ["x", "x"], "params": {**DOC["params"], "beta": [0.5, 0.5]}},
         r"duplicate regressor_ids: \['x', 'x'\]"),
        ({"schema": "exocast.additive.fitted/3", "config": {}}, "model lacks coefficients"),
    ], ids=["not-an-object", "schema", "missing-key", "missing-start", "short-order",
            "missing-param", "params-of-another-order", "unknown-key", "normalization",
            "no-tail", "short-tail", "long-tail", "no-residual-tail", "repeated-regressor",
            "additive-missing-key"])
    def test_malformed_document_rejected(self, doc, message):
        with pytest.raises(SchemaError, match=message) as raised:
            models.from_doc(doc, "model.json")
        assert str(raised.value).startswith("model.json: ")


class TestOrderValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SarimaxOrder(p=-1)

    def test_zero_season_rejected(self):
        with pytest.raises(ValueError):
            SarimaxOrder(s=0)

    def test_reference_paper_order_is_representable(self):
        # The published search outcome is recorded as a config, not refit.
        order = SarimaxOrder(p=62, d=1, q=4, P=0, D=0, Q=0, s=4)
        assert order.min_train_length() == 1 + 62 + 4 + 1
