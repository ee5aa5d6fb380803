import json
import math

import numpy as np
import pytest

from exocast.additive import (
    AdditiveConfig,
    auto_config,
    build_design,
    fit,
    forecast,
)
from exocast import models
from exocast.errors import InsufficientDataError, SchemaError
from exocast.sarimax import extrapolate_regressor
from exocast.series import Month, MonthlySeries, align_merge, mae

M = Month


def ms(vals, id="t", start=M(2016, 1)):
    return MonthlySeries(id, start, vals)


def frame(target_vals, indicators=(), start=M(2016, 1)):
    return align_merge(
        ms(target_vals, start=start),
        [ms(v, id=i, start=start) for i, v in indicators],
    )


def trend_features(t: float, changepoints) -> list[float]:
    """Base slope plus one hinge per changepoint: [t, max(0, t-c1), ...]."""
    return [t] + [max(0.0, t - c) for c in changepoints]


def fourier_features(t_month: int, period: float, order: int) -> list[float]:
    """[sin(2*pi*k*t/period), cos(...)] for k = 1..order."""
    out = []
    for k in range(1, order + 1):
        angle = 2.0 * math.pi * k * t_month / period
        out.extend([math.sin(angle), math.cos(angle)])
    return out


def reference_row(config, indicator_ids, start, n, i, target, regressors, pos):
    """Design row of frame position `i`, column by column from the scalar
    feature functions above; `target` and `regressors` are read at `pos`."""
    row = [1.0] + trend_features(i / max(n - 1, 1), config.changepoints())
    for period, order in config.seasonalities:
        row += fourier_features(i, period, order)
    row += [1.0 if start.shift(i) in months else 0.0 for _, months in config.events]
    row += [regressors[k][pos] for k in indicator_ids if k in config.future_known]
    row += [target[pos - lag] for lag in range(1, config.ar_lags + 1)]
    for k in indicator_ids:
        if k not in config.future_known:
            row += [regressors[k][pos - lag] for lag in range(config.regressor_lags + 1)]
    return row


def reference_forecast(fitted, horizon, future):
    """Step-by-step forecast, one reference row a month."""
    n, tail_len = fitted.train_length, len(fitted.target_tail)
    target = list(fitted.target_tail)
    regressors = {
        k: [*tail, *future[k]]
        for k, tail in zip(fitted.regressor_ids, fitted.regressor_tails)
    }
    for h in range(horizon):
        row = reference_row(fitted.config, fitted.regressor_ids, fitted.train_start, n, n + h,
                            target, regressors, tail_len + h)
        target.append(sum(coeff * x for coeff, x in zip(fitted.coefficients, row)))
    return target[tail_len:]


def in_sample(fitted, train):
    """The fit of `fitted` over the design rows of `train`, its training frame."""
    layout, values = build_design(train, fitted.config)
    assert layout == fitted.layout
    return values @ np.asarray(fitted.coefficients)


RICH = AdditiveConfig(
    n_changepoints=3, seasonalities=((12.0, 2), (6.0, 1)), ar_lags=3, regressor_lags=2,
    # 2019-05 falls in the forecast horizon of `rich_frame`.
    events=(("fair", frozenset({M(2016, 5), M(2017, 5), M(2018, 5), M(2019, 5)})),
            ("promo", frozenset({M(2017, 2)}))),
    ridge_lambda=0.3, future_known=("x",),
)
LAGGED = AdditiveConfig(n_changepoints=2, seasonalities=((12.0, 3),), ar_lags=2, regressor_lags=4)


def rich_frame(n=40):
    rng = np.random.default_rng(11)
    y = (np.linspace(0, 3, n) + rng.normal(0, 0.3, n)).tolist()
    return frame(y, indicators=[(k, rng.normal(0, 1, n).tolist()) for k in ("w", "x", "z")])


class TestTrendFeatures:
    def test_no_changepoints(self):
        assert trend_features(0.25, []) == [0.25]

    def test_hinge_active(self):
        assert trend_features(0.75, [0.5]) == [0.75, 0.25]

    def test_hinge_inactive(self):
        assert trend_features(0.25, [0.5]) == [0.25, 0.0]

    def test_continuity_at_changepoints(self):
        cps = [0.3, 0.6]
        for c in cps:
            below = trend_features(c - 1e-6, cps)
            above = trend_features(c + 1e-6, cps)
            for a, b in zip(below, above):
                assert abs(a - b) < 1e-5


class TestFourierFeatures:
    def test_phase_zero(self):
        assert fourier_features(0, 12, 1) == pytest.approx([0.0, 1.0])

    def test_quarter_period(self):
        assert fourier_features(3, 12, 1) == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_width(self):
        assert len(fourier_features(5, 12, 2)) == 4

    def test_period_shift_invariance(self):
        for t in range(0, 30, 7):
            a = fourier_features(t, 12, 3)
            b = fourier_features(t + 12, 12, 3)
            for x, y in zip(a, b):
                assert abs(x - y) < 1e-9


class TestBuildDesign:
    def test_trend_only_shape(self):
        config = AdditiveConfig()
        layout, values = build_design(frame(list(range(10))), config)
        assert values.shape == (10, 2)
        assert layout == (("intercept", "intercept"), ("T", "t"))

    def test_ar_lag_alignment(self):
        config = AdditiveConfig(ar_lags=2)
        vals = [float(i) for i in range(10)]
        layout, values = build_design(frame(vals), config)
        assert len(values) == 8
        lag1 = layout.index(("A", "lag01"))
        for r in range(8):
            assert values[r, lag1] == vals[r + 2 - 1]

    def test_regressor_lag_width(self):
        config = AdditiveConfig(regressor_lags=1)
        layout, _ = build_design(
            frame(list(range(10)), indicators=[("x", list(range(10)))]), config
        )
        l_cols = [name for tag, name in layout if tag == "L"]
        assert l_cols == ["x_lag00", "x_lag01"]

    def test_future_known_goes_to_f_block(self):
        config = AdditiveConfig(regressor_lags=1, future_known=("x",))
        layout, _ = build_design(
            frame(list(range(10)), indicators=[("x", list(range(10))), ("z", list(range(10)))]),
            config,
        )
        assert [name for tag, name in layout if tag == "F"] == ["x"]
        assert [name for tag, name in layout if tag == "L"] == ["z_lag00", "z_lag01"]

    def test_event_column(self):
        months = frozenset({M(2016, 3)})
        config = AdditiveConfig(events=(("fair", months),))
        layout, values = build_design(frame(list(range(6))), config)
        col = layout.index(("E", "fair"))
        assert values[:, col].tolist() == [0, 0, 1, 0, 0, 0]

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            build_design(frame(list(range(5))), AdditiveConfig(ar_lags=3))

    def test_column_count_invariant(self):
        config = AdditiveConfig(
            n_changepoints=3, seasonalities=((12.0, 2),), ar_lags=2, regressor_lags=1,
            events=(("e", frozenset({M(2016, 5)})),),
        )
        layout, values = build_design(
            frame(list(range(20)), indicators=[("x", list(range(20)))]), config
        )
        # intercept + (1 + 3) trend + 4 fourier + 1 event + 2 AR + 2 lagged
        assert len(layout) == values.shape[1] == 1 + 4 + 4 + 1 + 2 + 2

    @pytest.mark.parametrize("config", [RICH, LAGGED], ids=["rich", "lagged"])
    def test_block_design_matches_row_by_row_reference(self, config):
        f = rich_frame()
        _, values = build_design(f, config)
        y = f.target.require_complete()
        regressors = {s.id: s.require_complete() for s in f.indicators}
        expected = [
            reference_row(config, f.indicator_ids, f.start, len(f), i, y, regressors, i)
            for i in range(config.dropped_rows, len(f))
        ]
        assert np.max(np.abs(values - np.array(expected))) <= 1e-12


class TestFit:
    def test_exact_linear(self):
        y = [0.5 + 0.25 * i for i in range(24)]
        fitted = fit(frame(y), AdditiveConfig())
        residuals = [a - b for a, b in zip(in_sample(fitted, frame(y)), y)]
        assert max(abs(r) for r in residuals) < 1e-8

    def test_pure_sinusoid_in_fourier_span(self):
        y = [math.sin(2 * math.pi * i / 12 + 0.4) for i in range(48)]
        fitted = fit(frame(y), AdditiveConfig(seasonalities=((12.0, 3),), ridge_lambda=1e-6))
        assert mae(y, in_sample(fitted, frame(y))) < 1e-6

    def test_ridge_limit_kills_penalized_coefficients(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(0, 1, 24)
        # Remove the projection onto centred time so the OLS slope is zero
        # and the unpenalised block reduces to the intercept = mean.
        t = np.arange(24) - 11.5
        raw = raw - (raw @ t) / (t @ t) * t
        y = (raw + 5.0).tolist()
        config = AdditiveConfig(
            n_changepoints=3, seasonalities=((12.0, 2),), ridge_lambda=1e12
        )
        fitted = fit(frame(y), config)
        for (tag, name), coeff in zip(fitted.layout, fitted.coefficients):
            if tag == "intercept" or (tag == "T" and name == "t"):
                continue
            assert abs(coeff) < 1e-6
        intercept = fitted.coefficients[fitted.layout.index(("intercept", "intercept"))]
        assert intercept == pytest.approx(np.mean(y), abs=1e-4)

    def test_coefficients_solve_penalised_normal_equations(self):
        rng = np.random.default_rng(1)
        y = rng.normal(10, 2, 36).tolist()
        config = AdditiveConfig(n_changepoints=2, seasonalities=((12.0, 2),), ar_lags=3, ridge_lambda=0.5)
        fitted = fit(frame(y), config)
        layout, values = build_design(frame(y), config)
        penalty = [0.0 if col in (("intercept", "intercept"), ("T", "t")) else 0.5 for col in layout]
        normal = values.T @ values + np.diag(penalty)
        residual = normal @ np.asarray(fitted.coefficients) - values.T @ np.asarray(y[3:])
        assert np.max(np.abs(residual)) < 1e-9

    def test_ridge_monotonicity(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 1, 40).tolist()
        x = rng.normal(0, 1, 40).tolist()
        f = frame(y, indicators=[("x", x)])
        norms = []
        for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
            config = AdditiveConfig(
                n_changepoints=4, seasonalities=((12.0, 2),), ar_lags=2,
                regressor_lags=2, ridge_lambda=lam,
            )
            fitted = fit(f, config)
            penalized = [
                c for (tag, name), c in zip(fitted.layout, fitted.coefficients)
                if not (tag == "intercept" or (tag == "T" and name == "t"))
            ]
            norms.append(math.sqrt(sum(c * c for c in penalized)))
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-10


class TestForecast:
    def test_intercept_only(self):
        # Flat series fits intercept 0.4 with zero trend.
        fitted = fit(frame([0.4] * 12), AdditiveConfig())
        out = forecast(fitted, 3)
        assert out.values == pytest.approx((0.4, 0.4, 0.4), abs=1e-9)
        assert out.start == M(2017, 1)

    def test_non_recursive_equals_direct_evaluation(self):
        y = [1.0 + 0.1 * i + math.sin(2 * math.pi * i / 12) for i in range(36)]
        config = AdditiveConfig(seasonalities=((12.0, 2),))
        fitted = fit(frame(y), config)
        out = forecast(fitted, 6)
        # ar_lags = 0: forecast must equal the direct sum of T+S(+intercept).
        for j in range(6):
            row = reference_row(config, (), M(2016, 1), 36, 36 + j, [], {}, 0)
            total = sum(c * x for c, x in zip(fitted.coefficients, row))
            assert out.values[j] == pytest.approx(total, abs=1e-9)

    def test_zero_ar_coefficient_equivalence(self):
        y = [2.0 + 0.05 * i for i in range(30)]
        f = frame(y)
        fitted_ar = fit(f, AdditiveConfig(ar_lags=1))
        # Force the AR coefficient to exactly zero, keep everything else.
        idx = fitted_ar.layout.index(("A", "lag01"))
        coeffs = list(fitted_ar.coefficients)
        coeffs[idx] = 0.0
        import dataclasses

        zeroed = dataclasses.replace(fitted_ar, coefficients=tuple(coeffs))
        out_zero = forecast(zeroed, 5)
        # Build the matching non-AR model with identical coefficients.
        coeffs_no_ar = tuple(c for c, col in zip(coeffs, fitted_ar.layout) if col[0] != "A")
        plain = dataclasses.replace(zeroed, config=AdditiveConfig(), coefficients=coeffs_no_ar)
        out_plain = forecast(plain, 5)
        assert out_zero.values == out_plain.values

    def test_recursive_consumes_own_forecasts(self):
        # y_t = 0.5 * y_{t-1}; with lag-1-only fit the forecast halves each step.
        y = [64.0 * (0.5**i) for i in range(12)]
        config = AdditiveConfig(ar_lags=1)
        fitted = fit(frame(y), config)
        out = forecast(fitted, 3)
        last = y[-1]
        # Trend/intercept are nearly zero; dominant behaviour is halving.
        assert out.values[0] == pytest.approx(last * 0.5, rel=0.05)
        assert out.values[1] == pytest.approx(last * 0.25, rel=0.2)

    @pytest.mark.parametrize("config", [RICH, LAGGED], ids=["rich", "lagged"])
    def test_precomputed_forecast_matches_step_by_step_reference(self, config):
        f = rich_frame()
        fitted = fit(f, config)
        future = {s.id: extrapolate_regressor(s, 9) for s in f.indicators}
        out = forecast(fitted, 9, np.column_stack(list(future.values())))
        expected = reference_forecast(fitted, 9, future)
        assert np.max(np.abs(np.array(out.values) - expected)) <= 1e-12

    def test_configured_event_month_in_horizon_affects_forecast(self):
        y = [1.0] * 18
        y[3] = 2.0  # the event month
        quiet, busy = (
            forecast(fit(frame(y), AdditiveConfig(events=(("promo", frozenset(months)),))), 3)
            for months in ({M(2016, 4)}, {M(2016, 4), M(2017, 8)})
        )
        assert busy.values[1] > quiet.values[1] + 0.5
        assert busy.values[0] == pytest.approx(quiet.values[0], abs=1e-9)

    def test_future_known_block_uses_supplied_values(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, 30).tolist()
        y = [2.0 * v for v in x]
        f = frame(y, indicators=[("x", x)])
        fitted = fit(f, AdditiveConfig(future_known=("x",), ridge_lambda=0.0))
        out = forecast(fitted, 3, np.array([[40.0], [40.0], [50.0]]))
        assert out.values == pytest.approx((80.0, 80.0, 100.0), abs=1e-6)

    def test_missing_future_regressor_rejected(self):
        f = frame(list(range(20)), indicators=[("x", list(range(20)))])
        fitted = fit(f, AdditiveConfig(regressor_lags=1))
        with pytest.raises(ValueError):
            forecast(fitted, 3)

    def test_short_regressor_forecast_rejected(self):
        f = frame(list(range(20)), indicators=[("x", list(range(20)))])
        fitted = fit(f, AdditiveConfig())
        with pytest.raises(ValueError, match=r"shape \(1, 1\), not \(3, 1\)"):
            forecast(fitted, 3, np.array([[1.0]]))


class TestAutoConfig:
    def test_64_month_train(self):
        config = auto_config(frame([0.0] * 64))
        assert config.seasonalities == ((12.0, 3),)
        assert config.n_changepoints == 8
        assert config.ar_lags == 12
        assert config.regressor_lags == 12
        assert config.changepoint_range == 0.8
        assert config.ridge_lambda == 0.1

    def test_28_month_train(self):
        config = auto_config(frame([0.0] * 28))
        assert config.seasonalities == ((12.0, 3),)
        assert config.n_changepoints == 3
        assert config.ar_lags == 7

    def test_20_month_train_no_yearly(self):
        config = auto_config(frame([0.0] * 20))
        assert config.seasonalities == ()

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            auto_config(frame([0.0] * 11))


class TestSerialize:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        y = rng.normal(0, 1, 30).tolist()
        x = rng.normal(0, 1, 30).tolist()
        f = frame(y, indicators=[("x", x)])
        config = AdditiveConfig(
            n_changepoints=2, seasonalities=((12.0, 2),), ar_lags=2, regressor_lags=1,
            ridge_lambda=0.3, events=(("e", frozenset({M(2016, 4)})),),
        )
        fitted = fit(f, config)
        path = tmp_path / "additive.json"
        path.write_text(json.dumps(models.to_doc(fitted), indent=2))
        loaded = models.from_doc(json.loads(path.read_text()))
        assert loaded == fitted

    def test_round_trip_forecast_identical(self, tmp_path):
        y = [1.0 + 0.2 * i for i in range(24)]
        fitted = fit(frame(y), AdditiveConfig(ar_lags=2))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(models.to_doc(fitted), indent=2))
        loaded = models.from_doc(json.loads(path.read_text()))
        assert forecast(loaded, 6).values == forecast(fitted, 6).values

    def test_document_holds_what_forecast_reads(self):
        f = frame([1.0 + 0.2 * i for i in range(24)], indicators=[("x", [0.1 * i for i in range(24)])])
        doc = models.to_doc(fit(f, AdditiveConfig(ar_lags=2, regressor_lags=1)))
        assert doc["schema"] == "exocast.additive.fitted/3"
        assert list(doc) == ["schema", "config", "coefficients", "target_id", "regressor_ids",
                             "train_start", "train_length", "target_tail", "regressor_tails"]
        assert doc["regressor_ids"] == ("x",)

    @pytest.mark.parametrize("key, cut, message", [
        ("target_tail", lambda tail: tail[1:], r"target_tail holds 1 values and regressor_tails \[2\]"),
        ("target_tail", lambda tail: [], r"target_tail holds 0 values"),
        ("regressor_tails", lambda tails: [tails[0][1:]], r"regressor_tails \[1\] for regressors"),
        ("regressor_tails", lambda tails: [tails[0], tails[0]], r"regressor_tails \[2, 2\] for "
                                                                r"regressors \['x'\]; fit leaves 2 each"),
        ("regressor_tails", lambda tails: [], r"regressor_tails \[\] for regressors \['x'\]"),
    ], ids=["short-target", "no-target", "short-regressor", "extra-regressor", "no-regressor"])
    def test_tails_of_another_length_refused(self, key, cut, message):
        f = frame([1.0 + 0.2 * i for i in range(24)], indicators=[("x", [0.1 * i for i in range(24)])])
        doc = json.loads(json.dumps(models.to_doc(fit(f, AdditiveConfig(ar_lags=2, regressor_lags=1)))))
        with pytest.raises(SchemaError, match=message) as raised:
            models.from_doc({**doc, key: cut(doc[key])}, "model.json")
        assert str(raised.value).startswith("model.json: ")

    def test_retired_schema_refused_by_name(self):
        y = [1.0 + 0.2 * i for i in range(24)]
        fitted = fit(frame(y), AdditiveConfig())
        for version in (1, 2):
            doc = {**models.to_doc(fitted), "schema": f"exocast.additive.fitted/{version}",
                   "layout": fitted.layout}
            with pytest.raises(SchemaError, match=rf"model\.json: schema 'exocast\.additive\."
                                                  rf"fitted/{version}' is not .*; fit the model again$"):
                models.from_doc(doc, "model.json")
