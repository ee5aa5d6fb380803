import json
import math

import numpy as np
import pytest

from exocast.additive import (
    AdditiveConfig,
    auto_config,
    build_design,
    decompose,
    export_components_csv,
    fit,
    forecast,
    forecast_with_components,
    fourier_features,
    trend_features,
)
from exocast import additive as additive_module
from exocast import models
from exocast.errors import InsufficientDataError
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


def reference_row(config, indicator_ids, start, n, i, events, target, regressors, pos):
    """Design row of frame position `i`, column by column from the public
    feature functions; `target` and `regressors` are read at `pos`."""
    row = [1.0] + trend_features(i / max(n - 1, 1), config.changepoints())
    for period, order in config.seasonalities:
        row += fourier_features(i, period, order)
    row += [1.0 if start.shift(i) in months else 0.0 for months in events]
    row += [regressors[k][pos] for k in indicator_ids if k in config.future_known]
    row += [target[pos - lag] for lag in range(1, config.ar_lags + 1)]
    for k in indicator_ids:
        if k not in config.future_known:
            row += [regressors[k][pos - lag] for lag in range(config.regressor_lags + 1)]
    return row


def reference_forecast(fitted, horizon, future, future_events=None):
    """Step-by-step forecast and per-tag parts, one reference row a month."""
    config = fitted.config
    n, tail_len = fitted.train_length, len(fitted.target_tail)
    target = list(fitted.target_tail)
    regressors = {
        k: [*tail, *future[k]]
        for k, tail in zip(fitted.indicator_ids, fitted.regressor_tails)
    }
    events = [set(m) | set((future_events or {}).get(e, ())) for e, m in config.events]
    parts = {tag: [0.0] * horizon for tag, _ in fitted.layout}
    for h in range(horizon):
        row = reference_row(config, fitted.indicator_ids, fitted.train_start, n, n + h, events,
                            target, regressors, tail_len + h)
        total = 0.0
        for (tag, _), coeff, x in zip(fitted.layout, fitted.coefficients, row):
            parts[tag][h] += coeff * x
            total += coeff * x
        target.append(total)
    return target[tail_len:], parts


RICH = AdditiveConfig(
    n_changepoints=3, seasonalities=((12.0, 2), (6.0, 1)), ar_lags=3, regressor_lags=2,
    events=(("fair", frozenset({M(2016, 5), M(2017, 5), M(2018, 5)})),
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
        design = build_design(frame(list(range(10))), config)
        assert design.width == 2
        assert design.height == 10
        assert design.layout == (("intercept", "intercept"), ("T", "t"))

    def test_ar_lag_alignment(self):
        config = AdditiveConfig(ar_lags=2)
        vals = [float(i) for i in range(10)]
        design = build_design(frame(vals), config)
        assert design.height == 8
        lag1 = design.layout.index(("A", "lag01"))
        for r in range(8):
            assert design.values[r, lag1] == vals[r + 2 - 1]

    def test_regressor_lag_width(self):
        config = AdditiveConfig(regressor_lags=1)
        design = build_design(
            frame(list(range(10)), indicators=[("x", list(range(10)))]), config
        )
        l_cols = [name for tag, name in design.layout if tag == "L"]
        assert l_cols == ["x_lag00", "x_lag01"]

    def test_future_known_goes_to_f_block(self):
        config = AdditiveConfig(regressor_lags=1, future_known=("x",))
        design = build_design(
            frame(list(range(10)), indicators=[("x", list(range(10))), ("z", list(range(10)))]),
            config,
        )
        assert [name for tag, name in design.layout if tag == "F"] == ["x"]
        assert [name for tag, name in design.layout if tag == "L"] == ["z_lag00", "z_lag01"]

    def test_event_column(self):
        months = frozenset({M(2016, 3)})
        config = AdditiveConfig(events=(("fair", months),))
        design = build_design(frame(list(range(6))), config)
        col = design.layout.index(("E", "fair"))
        assert design.values[:, col].tolist() == [0, 0, 1, 0, 0, 0]

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            build_design(frame(list(range(5))), AdditiveConfig(ar_lags=3))

    def test_column_count_invariant(self):
        config = AdditiveConfig(
            n_changepoints=3, seasonalities=((12.0, 2),), ar_lags=2, regressor_lags=1,
            events=(("e", frozenset({M(2016, 5)})),),
        )
        design = build_design(
            frame(list(range(20)), indicators=[("x", list(range(20)))]), config
        )
        # intercept + (1 + 3) trend + 4 fourier + 1 event + 2 AR + 2 lagged
        assert design.width == 1 + 4 + 4 + 1 + 2 + 2


    @pytest.mark.parametrize("config", [RICH, LAGGED], ids=["rich", "lagged"])
    def test_block_design_matches_row_by_row_reference(self, config):
        f = rich_frame()
        design = build_design(f, config)
        y = f.target.require_complete()
        regressors = {s.id: s.require_complete() for s in f.indicators}
        events = [months for _, months in config.events]
        expected = [
            reference_row(config, f.indicator_ids, f.start, len(f), i, events, y, regressors, i)
            for i in range(config.dropped_rows, len(f))
        ]
        assert np.max(np.abs(design.values - np.array(expected))) <= 1e-12


class TestFit:
    def test_exact_linear(self):
        y = [0.5 + 0.25 * i for i in range(24)]
        fitted = fit(frame(y), AdditiveConfig())
        residuals = [a - b for a, b in zip(fitted.fitted_values, y)]
        assert max(abs(r) for r in residuals) < 1e-8

    def test_pure_sinusoid_in_fourier_span(self):
        y = [math.sin(2 * math.pi * i / 12 + 0.4) for i in range(48)]
        fitted = fit(frame(y), AdditiveConfig(seasonalities=((12.0, 3),), ridge_lambda=1e-6))
        assert mae(y, fitted.fitted_values) < 1e-6

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

    def test_fitted_values_match_design_product(self):
        rng = np.random.default_rng(1)
        y = rng.normal(10, 2, 36).tolist()
        config = AdditiveConfig(n_changepoints=2, seasonalities=((12.0, 2),), ar_lags=3, ridge_lambda=0.5)
        f = frame(y)
        fitted = fit(f, config)
        design = build_design(f, config)
        recomputed = design.values @ np.asarray(fitted.coefficients)
        assert np.max(np.abs(recomputed - np.asarray(fitted.fitted_values))) < 1e-9

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
        out, parts = forecast_with_components(fitted, 6)
        # ar_lags = 0: forecast must equal the direct sum of T+S(+intercept).
        for j in range(6):
            total = sum(parts[tag][j] for tag in parts)
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
        layout_no_ar = tuple(c for c in fitted_ar.layout if c[0] != "A")
        coeffs_no_ar = tuple(c for c, col in zip(coeffs, fitted_ar.layout) if col[0] != "A")
        plain = dataclasses.replace(
            zeroed, config=AdditiveConfig(), layout=layout_no_ar, coefficients=coeffs_no_ar
        )
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

    def test_component_additivity(self):
        rng = np.random.default_rng(3)
        y = (np.linspace(0, 5, 40) + rng.normal(0, 0.1, 40)).tolist()
        x = rng.normal(0, 1, 40).tolist()
        f = frame(y, indicators=[("x", x)])
        config = AdditiveConfig(
            n_changepoints=2, seasonalities=((12.0, 2),), ar_lags=2,
            regressor_lags=1, ridge_lambda=0.1,
        )
        fitted = fit(f, config)
        rf = extrapolate_regressor(f.indicator("x"), 6)
        out, parts = forecast_with_components(fitted, 6, rf[:, None])
        for j in range(6):
            assert out.values[j] == pytest.approx(
                sum(parts[tag][j] for tag in parts), abs=1e-9
            )

    @pytest.mark.parametrize("config", [RICH, LAGGED], ids=["rich", "lagged"])
    def test_precomputed_forecast_matches_step_by_step_reference(self, config):
        f = rich_frame()
        fitted = fit(f, config)
        future = {s.id: extrapolate_regressor(s, 9) for s in f.indicators}
        events = {"fair": frozenset({M(2019, 5)})}
        out, parts = forecast_with_components(fitted, 9, np.column_stack(list(future.values())),
                                              events)
        expected, expected_parts = reference_forecast(fitted, 9, future, events)
        assert np.max(np.abs(np.array(out.values) - expected)) <= 1e-12
        for tag, values in expected_parts.items():
            assert np.max(np.abs(np.array(parts[tag]) - values)) <= 1e-12, tag
        totals = [sum(parts[tag][h] for tag in parts) for h in range(9)]
        assert np.max(np.abs(np.array(out.values) - totals)) <= 1e-12

    def test_future_event_affects_forecast(self):
        months = frozenset({M(2016, 4)})
        config = AdditiveConfig(events=(("promo", months),))
        y = [1.0] * 18
        y[3] = 2.0  # the event month
        fitted = fit(frame(y), config)
        quiet = forecast(fitted, 3)
        busy = forecast(fitted, 3, future_events={"promo": frozenset({M(2017, 8)})})
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


class TestDecomposeAndSerialize:
    def test_decompose_sums_to_fitted(self):
        rng = np.random.default_rng(4)
        y = rng.normal(5, 1, 36).tolist()
        f = frame(y)
        config = AdditiveConfig(n_changepoints=2, seasonalities=((12.0, 2),), ar_lags=2)
        fitted = fit(f, config)
        parts = decompose(fitted, f)
        for i in range(len(fitted.fitted_values)):
            total = sum(parts[tag][i] for tag in parts)
            assert total == pytest.approx(fitted.fitted_values[i], abs=1e-9)

    def test_components_csv(self, tmp_path):
        y = [1.0 * i for i in range(24)]
        f = frame(y)
        fitted = fit(f, AdditiveConfig(seasonalities=((12.0, 1),)))
        path = tmp_path / "components.csv"
        export_components_csv(fitted, f, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "period,fitted,intercept,T,S"
        assert len(lines) == 25

    def test_components_csv_builds_design_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        f = frame(rng.normal(5, 1, 36).tolist())
        fitted = fit(f, AdditiveConfig(n_changepoints=2, seasonalities=((12.0, 2),), ar_lags=2))
        calls = []

        def counting(train, config):
            calls.append(len(train))
            return build_design(train, config)

        monkeypatch.setattr(additive_module, "build_design", counting)
        path = tmp_path / "components.csv"
        export_components_csv(fitted, f, path)
        assert calls == [36]
        parts = decompose(fitted, f)
        months = build_design(f, fitted.config).months
        rows = path.read_text().splitlines()
        assert rows[0] == ",".join(["period", "fitted", *parts])
        assert rows[1:] == [
            ",".join([str(m), repr(fitted.fitted_values[i])] + [repr(v[i]) for v in parts.values()])
            for i, m in enumerate(months)
        ]

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
