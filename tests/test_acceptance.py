"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines live.
"""

import json
import math
import socket
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from exocast.additive import AdditiveConfig, build_design
from exocast.additive import fit as additive_fit
from exocast.additive import forecast as additive_forecast
from exocast.errors import DegenerateRangeError
from exocast.eurostat import (
    fetch_catalog,
    filter_catalog,
    list_cached_series,
    run_funnel,
)
from exocast.experiment import (
    DatasetSpec,
    ExperimentConfig,
    MethodSpec,
    ModelSpec,
    RangeSpec,
    emit_plot_data,
    emit_table,
    run_experiment,
)
from exocast.sarimax import (
    SarimaxOrder,
    SarimaxParams,
    css_residuals,
    fit as sarimax_fit,
)
from exocast.selection import (
    CandidateSet,
    correlation_select,
    forward_select,
    lasso_select,
    soft_threshold,
)
from exocast.series import (
    Month,
    MonthlySeries,
    align_merge,
    denormalize,
    difference,
    integrate,
    linear_detrend,
    mae,
    min_max_normalize,
    pearson_correlation,
)
from exocast.synth import SyntheticSpec, generate_synthetic

M = Month


@contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} PASS: {description} ({elapsed:.1f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"


def ms(vals, id="t", start=M(2016, 1)):
    return MonthlySeries(id, start, vals)


def frame_of(target_vals, indicators=()):
    return align_merge(ms(target_vals), [ms(v, id=i) for i, v in indicators])


def test_criterion_01_metric_and_transform_suite():
    with criterion(1, "metric/transform suite", budget_seconds=5):
        assert mae([1, 2, 3], [1, 2, 3]) == 0
        assert mae([1, 2, 3], [2, 3, 4]) == 1
        assert mae([0, 0, 4], [1, 1, 1]) == pytest.approx(5 / 3)

        rng = np.random.default_rng(0)
        vals = rng.normal(5, 3, 40).tolist()
        normalized, params = min_max_normalize(ms(vals))
        back = denormalize(normalized, params)
        for a, b in zip(back.values, vals):
            assert a == pytest.approx(b, rel=1e-12)
        with pytest.raises(DegenerateRangeError):
            min_max_normalize(ms([5, 5, 5]))

        # Exact round trip on a dyadic grid where float ops are lossless.
        for d in (0, 1, 2):
            for D in (0, 1):
                for s in (2, 4, 12):
                    grid_vals = rng.integers(0, 2**30, size=50) / 2**10
                    head = grid_vals[: d + D * s]
                    back = integrate(difference(grid_vals, d, D, s), head, d, D, s)
                    assert np.concatenate((head, back)).tobytes() == grid_vals.tobytes()

        resid, slope, intercept = linear_detrend(ms(rng.normal(0, 2, 60).tolist()))
        n = len(resid)
        t = [i - (n - 1) / 2 for i in range(n)]
        dot = sum(a * b for a, b in zip(resid.values, t))
        scale = math.sqrt(sum(a * a for a in resid.values) * sum(b * b for b in t))
        assert abs(dot) / scale < 1e-6
        assert abs(sum(resid.values)) < 1e-9

        a = rng.normal(0, 1, 30).tolist()
        b = rng.normal(0, 1, 30).tolist()
        r = pearson_correlation(a, b)
        assert pearson_correlation(b, a) == pytest.approx(r, abs=1e-12)
        assert pearson_correlation([2.5 * x + 7 for x in a], b) == pytest.approx(r, abs=1e-12)


def test_criterion_02_sarimax_recovery():
    with criterion(2, "SARIMAX parameter recovery", budget_seconds=60):
        errors = []
        for seed in range(2, 12):
            rng = np.random.default_rng(seed)
            e = rng.normal(0, 1, 300)
            y = np.zeros(300)
            for t in range(1, 300):
                y[t] = 0.7 * y[t - 1] + e[t]
            fitted = sarimax_fit(frame_of(y.tolist()), SarimaxOrder(p=1))
            errors.append(abs(fitted.params.ar[0] - 0.7))
        assert np.mean(errors) < 0.05, f"mean recovery error {np.mean(errors):.4f}"
        assert max(errors) < 0.1, f"max recovery error {max(errors):.4f}"

        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 300)
        u = np.zeros(300)
        e = rng.normal(0, 0.1, 300)
        for t in range(1, 300):
            u[t] = 0.5 * u[t - 1] + e[t]
        y = 2.0 * x + u
        fitted = sarimax_fit(
            frame_of(y.tolist(), indicators=[("x", x.tolist())]), SarimaxOrder(p=1)
        )
        assert abs(fitted.params.beta[0] - 2.0) < 0.2


def test_criterion_03_sarimax_hand_recursion_oracle():
    with criterion(3, "SARIMAX hand-recursion oracle"):
        residuals, css = css_residuals(
            SarimaxOrder(p=1), SarimaxParams(c=0.0, ar=(0.5,)), ms([1, 2, 3]),
            mean_conditioning=False,
        )
        assert abs(residuals[0] - 1.5) < 1e-12 and abs(residuals[1] - 2.0) < 1e-12
        assert abs(css - 6.25) < 1e-12

        residuals, _ = css_residuals(
            SarimaxOrder(q=1), SarimaxParams(c=0.0, ma=(0.5,)), ms([1, 1])
        )
        assert abs(residuals[0] - 1.0) < 1e-12 and abs(residuals[1] - 0.5) < 1e-12

        f = frame_of([1, 2, 3], indicators=[("x", [1, 2, 3])])
        residuals, css = css_residuals(
            SarimaxOrder(), SarimaxParams(c=0.0, beta=(1.0,)), f.target, f.indicators
        )
        assert residuals == [0.0, 0.0, 0.0] and css == 0.0

        rng = np.random.default_rng(1)
        y = rng.normal(0, 1, 40).tolist()
        x = rng.normal(0, 1, 40).tolist()
        f = frame_of(y, indicators=[("x", x)])
        order = SarimaxOrder(p=2, d=1, q=1)
        with_zero_beta = css_residuals(
            order, SarimaxParams(c=0.1, ar=(0.3, 0.1), ma=(0.2,), beta=(0.0,)),
            f.target, f.indicators,
        )
        without = css_residuals(order, SarimaxParams(c=0.1, ar=(0.3, 0.1), ma=(0.2,)), f.target)
        assert with_zero_beta == without  # element-wise exact


def test_criterion_04_additive_model():
    with criterion(4, "additive model fits and equivalences", budget_seconds=10):
        def in_sample(y, config):
            _, values = build_design(frame_of(y), config)
            return values @ np.asarray(additive_fit(frame_of(y), config).coefficients)

        y_linear = [0.5 + 0.25 * i for i in range(24)]
        assert mae(y_linear, in_sample(y_linear, AdditiveConfig())) < 1e-6

        y_sin = [math.sin(2 * math.pi * i / 12 + 0.3) for i in range(48)]
        config = AdditiveConfig(seasonalities=((12.0, 3),), ridge_lambda=1e-6)
        assert mae(y_sin, in_sample(y_sin, config)) < 1e-6

        rng = np.random.default_rng(0)
        raw = rng.normal(0, 1, 24)
        t = np.arange(24) - 11.5
        raw = raw - (raw @ t) / (t @ t) * t
        y = (raw + 5.0).tolist()
        fitted = additive_fit(
            frame_of(y),
            AdditiveConfig(n_changepoints=3, seasonalities=((12.0, 2),), ridge_lambda=1e12),
        )
        for (tag, name), coeff in zip(fitted.layout, fitted.coefficients):
            if tag == "intercept" or (tag == "T" and name == "t"):
                continue
            assert abs(coeff) < 1e-6
        intercept = fitted.coefficients[0]
        assert intercept == pytest.approx(np.mean(y), abs=1e-4)

        # Zero AR coefficient behaves exactly like no AR block.
        import dataclasses

        y2 = [2.0 + 0.05 * i for i in range(30)]
        fitted_ar = additive_fit(frame_of(y2), AdditiveConfig(ar_lags=1))
        idx = fitted_ar.layout.index(("A", "lag01"))
        coeffs = list(fitted_ar.coefficients)
        coeffs[idx] = 0.0
        zeroed = dataclasses.replace(fitted_ar, coefficients=tuple(coeffs))
        plain = dataclasses.replace(
            zeroed,
            config=AdditiveConfig(),
            coefficients=tuple(c for c, col in zip(coeffs, fitted_ar.layout) if col[0] != "A"),
        )
        assert additive_forecast(zeroed, 5).values == additive_forecast(plain, 5).values


def test_criterion_05_lasso_oracle():
    with criterion(5, "LASSO solver oracles", budget_seconds=10):
        from scipy.linalg import hadamard

        H = hadamard(8).astype(float)
        X = H[:, 1:5]
        rng = np.random.default_rng(2)
        y = X @ np.array([1.0, -0.8, 0.3, 0.0]) + rng.normal(0, 0.2, 8)
        cands = CandidateSet(
            frame_of(y.tolist(), indicators=[(f"x{j}", X[:, j].tolist()) for j in range(4)])
        )
        result = lasso_select(cands, lam=0.5)
        z = X.T @ (y - y.mean()) / 8
        for j in range(4):
            expected = soft_threshold(float(z[j]), 0.5)
            assert result.diagnostics["coefficients"][f"x{j}"] == pytest.approx(expected, abs=1e-6)

        lam_max = lasso_select(cands).diagnostics["lambda_max"]
        assert lasso_select(cands, lam=lam_max).selected_ids == ()

        rng = np.random.default_rng(1)
        X2 = rng.normal(0, 1, (30, 3))
        y2 = X2 @ np.array([1.5, -2.0, 0.5]) + rng.normal(0, 0.1, 30)
        cands2 = CandidateSet(
            frame_of(y2.tolist(), indicators=[(f"x{j}", X2[:, j].tolist()) for j in range(3)])
        )
        result = lasso_select(cands2, lam=0.0)
        Xs = (X2 - X2.mean(axis=0)) / X2.std(axis=0)
        ols = np.linalg.lstsq(Xs, y2 - y2.mean(), rcond=None)[0]
        for j in range(3):
            assert result.diagnostics["coefficients"][f"x{j}"] == pytest.approx(
                float(ols[j]), abs=1e-6
            )


def test_criterion_06_correlation_selection_fixtures():
    with criterion(6, "correlation selection fixtures"):
        rng = np.random.default_rng(0)
        t = rng.normal(0, 1, 30).tolist()
        result = correlation_select(
            CandidateSet(frame_of(t, indicators=[("x1", t), ("x2", t)]))
        )
        assert result.selected_ids == ("x1",)

        def orthonormal(n, k, seed):
            r = np.random.default_rng(seed)
            A = r.normal(0, 1, (n, k))
            A -= A.mean(axis=0)
            Q, _ = np.linalg.qr(A)
            return [Q[:, j] for j in range(k)]

        e0, e1, e2 = orthonormal(24, 3, 1)
        result = correlation_select(
            CandidateSet(frame_of(e0.tolist(), indicators=[("a", e1.tolist()), ("b", e2.tolist())]))
        )
        assert result.selected_ids == ()

        f0, f1 = orthonormal(40, 2, 2)
        x1 = 0.80 * f0 + 0.60 * f1
        x2 = 0.76 * f0 - np.sqrt(1 - 0.76**2) * f1
        cands = CandidateSet(
            frame_of(f0.tolist(), indicators=[("x2", x2.tolist()), ("x1", x1.tolist())])
        )
        result = correlation_select(cands)  # defaults 0.75 / 0.30
        assert result.selected_ids == ("x1", "x2")
        assert result.diagnostics["target_threshold"] == 0.75
        assert result.diagnostics["mutual_threshold"] == 0.30
        strict = correlation_select(cands, target_threshold=0.78)
        assert strict.selected_ids == ("x1",)


def test_criterion_07_ffs_oracle_equivalence():
    with criterion(7, "forward selection oracle equivalence", budget_seconds=60):
        rng = np.random.default_rng(0)
        vals = rng.normal(0, 1, (5, 30))
        cands = CandidateSet(
            frame_of(vals[0].tolist(), indicators=[(f"c{j}", vals[j + 1].tolist()) for j in range(4)])
        )
        ids = list(cands.candidate_ids)

        def evaluator(subset):
            bonus = {"c0": 3.0, "c1": 2.0, "c2": 0.5, "c3": -1.0}
            return round(10.0 - sum(bonus[c] for c in subset) + 0.3 * len(subset) ** 1.5, 9)

        entries = [((), evaluator(()))]
        current, remaining = [], list(ids)
        while len(current) < 4 and remaining:
            scored = []
            for cid in remaining:
                subset = tuple(current) + (cid,)
                score = evaluator(subset)
                entries.append((subset, score))
                scored.append((score, ids.index(cid), cid))
            best = min(scored)
            current.append(best[2])
            remaining.remove(best[2])
        naive_best = min(entries, key=lambda e: (e[1], len(e[0])))

        result = forward_select(cands, evaluator, cap=4)
        assert list(result.trace.entries) == entries
        assert (result.selected_ids, result.score) == naive_best
        assert result.score == min(s for _, s in result.trace.entries)


LEAN_ADDITIVE = AdditiveConfig(
    n_changepoints=2, seasonalities=((12.0, 2),), ar_lags=2,
    regressor_lags=8, ridge_lambda=1.0,
)


def test_criterion_08_qualitative_table_reproduction():
    with criterion(8, "forward selection beats no-exogenous baseline", budget_seconds=300):
        sarimax_wins = additive_wins = recoveries = 0
        for seed in range(10):
            config = ExperimentConfig(
                datasets=(
                    DatasetSpec(
                        f"synth-{seed}", "synthetic",
                        synthetic=SyntheticSpec(
                            n_months=76, n_indicators=10, n_drivers=2,
                            driver_betas=(1.5, 1.0), noise_sigma=0.5, seed=seed,
                        ),
                    ),
                ),
                ranges=(RangeSpec(M(2016, 1), M(2021, 4)),),
                methods=(MethodSpec("none"), MethodSpec("forward")),
                models=(
                    ModelSpec("sarimax", order=SarimaxOrder(p=1)),
                    ModelSpec("additive", additive_config=LEAN_ADDITIVE),
                ),
                horizon=12,
                forward_cap=10,
            )
            table, artifacts = run_experiment(config)
            truth = set(artifacts.truths[f"synth-{seed}"].driver_ids)

            def lookup(method, model):
                for key, cell in table.cells.items():
                    if key[2] == method and key[3].startswith(model):
                        return cell, artifacts.cells[key]
                raise KeyError((method, model))

            none_sar, _ = lookup("none", "sarimax")
            fwd_sar, art_sar = lookup("forward", "sarimax")
            none_add, _ = lookup("none", "additive")
            fwd_add, art_add = lookup("forward", "additive")
            for cell in (none_sar, fwd_sar, none_add, fwd_add):
                assert cell.error is None, cell.error
            sarimax_wins += fwd_sar.mae <= none_sar.mae
            additive_wins += fwd_add.mae <= none_add.mae
            selected = set(art_sar.selection.selected_ids) | set(art_add.selection.selected_ids)
            recoveries += len(truth & selected) >= 1
        print(
            f"    forward vs none: sarimax {sarimax_wins}/10, additive "
            f"{additive_wins}/10, driver recovery {recoveries}/10"
        )
        assert sarimax_wins >= 8
        assert additive_wins >= 7
        assert recoveries >= 8


def test_criterion_09_isolation_and_determinism(tmp_path):
    with criterion(9, "test isolation and full-run determinism"):
        from exocast.series import write_series_csv

        frame, _ = generate_synthetic(
            SyntheticSpec(n_months=40, n_indicators=3, n_drivers=1, driver_betas=(1.5,), seed=5)
        )

        def dataset(poison):
            folder = tmp_path / ("poisoned" if poison else "clean")
            folder.mkdir(exist_ok=True)
            for s in (frame.target, *frame.indicators):
                values = list(s.values)
                if poison:
                    for i in range(28, len(values)):
                        values[i] = 1e12
                write_series_csv(MonthlySeries(s.id, s.start, values), folder / f"{s.id}.csv")
            return DatasetSpec(
                "demand", "csv",
                target_csv=str(folder / "target.csv"),
                indicator_csvs=tuple(str(folder / f"{s.id}.csv") for s in frame.indicators),
            )

        def build(ds):
            return ExperimentConfig(
                datasets=(ds,),
                ranges=(RangeSpec(M(2016, 1), M(2018, 4)),),
                methods=(MethodSpec("none"), MethodSpec("correlation"),
                         MethodSpec("lasso"), MethodSpec("forward")),
                models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),
                        ModelSpec("additive", additive_config=LEAN_ADDITIVE)),
                horizon=12,
                forward_cap=3,
            )

        _, clean = run_experiment(build(dataset(False)))
        _, poisoned = run_experiment(build(dataset(True)))
        for key in clean.cells:
            a, b = clean.cells[key], poisoned.cells[key]
            sel_a = None if a.selection is None else a.selection.selected_ids
            sel_b = None if b.selection is None else b.selection.selected_ids
            assert sel_a == sel_b, f"selection changed for {key}"
            assert a.model_doc == b.model_doc, f"fitted parameters changed for {key}"

        config = ExperimentConfig(
            datasets=(
                DatasetSpec("synth-0", "synthetic",
                            synthetic=SyntheticSpec(n_months=76, n_indicators=6, n_drivers=2,
                                                    driver_betas=(1.5, 1.0), noise_sigma=0.5, seed=0)),
            ),
            ranges=(RangeSpec(M(2016, 1), M(2021, 4)),),
            methods=(MethodSpec("none"), MethodSpec("forward")),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),),
            horizon=12,
            forward_cap=6,
        )
        outputs = []
        for i in range(2):
            table, _ = run_experiment(config)
            path = tmp_path / f"det{i}.csv"
            emit_table(table, "csv", path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


def test_criterion_10_eurostat_offline_funnel(tmp_path):
    with criterion(10, "offline catalog funnel with zero network", budget_seconds=5):
        fixtures = tmp_path / "fx"
        fixtures.mkdir()
        entries = [
            {"code": "STS_A", "title": "industry trade", "frequency": "monthly",
             "dimensions": ["geo"], "earliest_period": "2015-01", "parameters": ["business"]},
            {"code": "STS_B", "title": "tourism", "frequency": "monthly",
             "dimensions": ["geo"], "earliest_period": "2018-03", "parameters": ["tourism"]},
            {"code": "STS_C", "title": "energy", "frequency": "monthly",
             "dimensions": ["geo"], "earliest_period": "2015-01", "parameters": ["energy"]},
            {"code": "NAMA_D", "title": "gdp", "frequency": "quarterly",
             "dimensions": ["geo"], "earliest_period": "2010-01", "parameters": ["business"]},
            {"code": "NAMA_E", "title": "trade yearly", "frequency": "annual",
             "dimensions": ["geo"], "earliest_period": "1995", "parameters": ["trade"]},
        ]
        (fixtures / "toc.json").write_text(json.dumps({"datasets": entries}))
        months = [str(M(2015, 1).shift(i)) for i in range(30)]
        rng = np.random.default_rng(0)
        values = {code: rng.normal(0, 1, 60).tolist() for code in ("STS_A", "STS_C")}
        for code in ("STS_A", "STS_C"):
            payload = {
                "id": ["geo", "time"],
                "size": [2, 30],
                "dimension": {
                    "geo": {"category": {"index": {"AT": 0, "DE": 1}}},
                    "time": {"category": {"index": {m: i for i, m in enumerate(months)}}},
                },
                "value": dict(enumerate(values[code])),
            }
            (fixtures / f"{code}.json").write_text(json.dumps(payload))

        snapshot = fetch_catalog(offline_fixture=fixtures / "toc.json")
        assert len(snapshot) == 5
        assert len(filter_catalog(snapshot, "monthly")) == 3
        kept = filter_catalog(snapshot, "parameters", keywords=("business", "energy"))
        assert kept.codes() == ("STS_A", "STS_C", "NAMA_D")
        assert len(filter_catalog(snapshot, "coverage", since=M(2016, 1))) == 4

        cache = tmp_path / "cache"

        def no_network(*args, **kwargs):
            raise AssertionError("socket opened in offline mode")

        with mock.patch.object(socket, "socket", no_network), mock.patch.object(
            socket, "create_connection", no_network
        ):
            report = run_funnel(
                cache, since=M(2016, 1), keywords=("business", "energy"),
                offline=True,
                catalog_fixture=fixtures / "toc.json",
                dataset_fixture_dir=fixtures,
            )
        assert report.initial == 5
        assert report.after_monthly == 3
        assert report.after_parameters == 2
        assert report.after_coverage == 2
        assert report.stored == ["STS_A", "STS_C"]
        assert not report.failures

        cached = list_cached_series(cache)
        assert [c.dataset_code for c in cached] == ["STS_A", "STS_C"]
        for c in cached:
            # the AT row (flat indices 0..29) from 2016-01, its month 12, bit-exact
            assert c.dimension_values == (("geo", "AT"),)
            assert c.start == M(2016, 1)
            assert c.values == tuple(values[c.dataset_code][12:30])


def test_criterion_11_report_shape(tmp_path):
    with criterion(11, "report and plot-data shapes"):
        config = ExperimentConfig(
            datasets=(
                DatasetSpec("synth-0", "synthetic",
                            synthetic=SyntheticSpec(n_months=76, n_indicators=6, n_drivers=2,
                                                    driver_betas=(1.5, 1.0), noise_sigma=0.5, seed=0)),
            ),
            ranges=(RangeSpec(M(2016, 1), M(2021, 4)),),
            methods=(MethodSpec("none"), MethodSpec("forward")),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),),
            horizon=12,
            forward_cap=6,
        )
        table, artifacts = run_experiment(config)
        csv_path = emit_table(table, "csv", tmp_path / "results.csv")
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 4 + 1  # header, 2 x (score + count sub-row), best
        assert lines[2].startswith("  Nbr. Exogenous variables")
        md = emit_table(table, "markdown", tmp_path / "results.md").read_text()
        assert "Nbr. Exogenous variables" in md
        import csv as _csv

        rows = list(_csv.reader(lines))
        for row in rows[1:-1]:
            if not row[0].startswith(" "):
                assert row[1] in md  # identical numeric strings in both formats

        written = emit_plot_data(artifacts, tmp_path / "plots")
        names = {p.name for p in written}
        forecasts = next(p for p in written if p.name.startswith("forecasts_"))
        fc_rows = list(_csv.reader(forecasts.read_text().strip().splitlines()))
        assert len(fc_rows) == 13
        assert len(fc_rows[0]) == 2 + 2  # period, actual, one column per configuration
        assert "score_development.csv" in names
        errors = (tmp_path / "plots" / "errors.csv").read_text().strip().splitlines()
        assert len(errors) == 1 + 12 * 2
