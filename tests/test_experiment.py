import json
import traceback
from collections import Counter

import numpy as np
import pytest

from exocast import experiment, models
from exocast.additive import AdditiveConfig
from exocast.errors import ConfigError, DegenerateRangeError, InsufficientDataError, SelectionError
from exocast.experiment import (
    DatasetSpec,
    ExperimentConfig,
    MethodSpec,
    ModelSpec,
    PreprocessingSpec,
    RangeSpec,
    emit_plot_data,
    emit_table,
    load_config,
    reload_run,
    run_experiment,
    config_schema_text,
    training_frames,
)
from exocast.sarimax import SarimaxOrder
from exocast.sarimax import fit as sarimax_fit
from exocast.sarimax import forecast as sarimax_forecast
from exocast.series import (
    Month,
    MonthlySeries,
    SplitSpec,
    align_merge,
    interpolate_missing,
    linear_detrend,
    mae,
    min_max_normalize,
    read_series_csv,
    smooth,
    split_train_test,
    write_series_csv,
)
from exocast.synth import SyntheticSpec, generate_synthetic

M = Month

LEAN_ADDITIVE = AdditiveConfig(
    n_changepoints=2, seasonalities=((12.0, 2),), ar_lags=2,
    regressor_lags=8, ridge_lambda=1.0,
)


def synth_dataset(seed=0, label=None, **kwargs):
    spec = SyntheticSpec(
        n_months=kwargs.pop("n_months", 76),
        n_indicators=kwargs.pop("n_indicators", 6),
        n_drivers=kwargs.pop("n_drivers", 2),
        driver_betas=kwargs.pop("driver_betas", (1.5, 1.0)),
        noise_sigma=kwargs.pop("noise_sigma", 0.5),
        seed=seed,
        **kwargs,
    )
    return DatasetSpec(label or f"synth-{seed}", "synthetic", synthetic=spec)


def quick_config(**overrides):
    defaults = dict(
        datasets=(synth_dataset(),),
        ranges=(RangeSpec(M(2016, 1), M(2021, 4)),),
        methods=(MethodSpec("none"),),
        models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),),
        horizon=12,
        forward_cap=6,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestMinimalRun:
    def test_single_cell_finite_mae(self):
        table, artifacts = run_experiment(quick_config())
        assert len(table.cells) == 1
        cell = next(iter(table.cells.values()))
        assert cell.error is None
        assert cell.mae is not None and np.isfinite(cell.mae)
        assert cell.n_exog == 0

    def test_none_method_equals_direct_invocation(self):
        # With all transforms off the harness must add nothing.
        config = quick_config(
            preprocessing=PreprocessingSpec(smooth_window=1, detrend=False, normalize=False)
        )
        table, artifacts = run_experiment(config)
        harness_mae = next(iter(table.cells.values())).mae

        frame, _ = generate_synthetic(config.datasets[0].synthetic)
        sliced = frame.slice_months(M(2016, 1), M(2022, 4))
        train, test = split_train_test(sliced, SplitSpec(12))
        fitted = sarimax_fit(align_merge(train.target, []), SarimaxOrder(p=1))
        predicted = sarimax_forecast(fitted, 12)
        direct = mae(test.target.require_complete(), predicted.require_complete())
        assert harness_mae == pytest.approx(direct, abs=1e-12)

    def test_unresolvable_range_fails_before_work(self):
        config = quick_config(ranges=(RangeSpec(M(2016, 1), M(2022, 1)),))
        with pytest.raises(ValueError, match="does not cover"):
            run_experiment(config)

    def test_failed_cell_recorded_run_continues(self):
        config = quick_config(
            models=(
                ModelSpec("sarimax", order=SarimaxOrder(p=70)),  # too big for 64 months
                ModelSpec("sarimax", order=SarimaxOrder(p=1)),
            ),
        )
        table, _ = run_experiment(config)
        cells = list(table.cells.values())
        assert sum(c.failed for c in cells) == 1
        assert sum(not c.failed for c in cells) == 1
        failed = next(c for c in cells if c.failed)
        assert failed.error == "InsufficientData"


def series_preprocess(series, prep):
    """Preprocessing one series at a time, as the grid did before it
    transformed whole matrices: the oracle for each column."""
    steps = []
    out = interpolate_missing(series) if series.has_missing else series
    if prep.smooth_window > 1:
        out = smooth(out, prep.smooth_window)
    if prep.detrend:
        out, slope, intercept = linear_detrend(out)
        steps.append(("detrend", slope, intercept))
    if prep.normalize:
        try:
            out, params = min_max_normalize(out)
            steps.append(("normalize", params))
        except DegenerateRangeError:
            pass
    return out, tuple(steps)


class TestPreprocessTrain:
    PREPS = [
        PreprocessingSpec(1, False, False),
        PreprocessingSpec(1, False, True),
        PreprocessingSpec(3, True, True),
        PreprocessingSpec(5, False, True),
        PreprocessingSpec(7, True, False),
    ]

    @staticmethod
    def gappy_frame(seed, n=30, constant_target=False):
        rng = np.random.default_rng(seed)
        target = [2.0] * n if constant_target else rng.normal(50, 5, n).tolist()
        target[n // 3] = None
        columns = {f"x{j}": rng.normal(0, 10, n).tolist() for j in range(4)}
        for j, gaps in enumerate([(0, 1), (n // 2,), (n - 2, n - 1), ()]):
            for i in gaps:
                columns[f"x{j}"][i] = None
        columns["flat"] = [7.25] * n
        indicators = [MonthlySeries(i, M(2016, 1), v) for i, v in columns.items()]
        return align_merge(MonthlySeries("y", M(2016, 1), target), indicators)

    @pytest.mark.parametrize("prep", PREPS, ids=str)
    @pytest.mark.parametrize("seed", range(3))
    def test_each_column_as_its_own_series(self, seed, prep):
        frame = self.gappy_frame(seed)
        train, transform = experiment._preprocess_train(frame, prep)
        target, steps = series_preprocess(frame.target, prep)
        assert train.target == target and transform.steps == steps
        assert transform.train_length == len(frame)
        assert train.indicator_ids == frame.indicator_ids and train.index == frame.index
        for series in frame.indicators:
            assert train.indicator(series.id) == series_preprocess(series, prep)[0], series.id

    def test_a_constant_column_stays_unnormalised(self):
        frame = self.gappy_frame(0, constant_target=True)
        train, transform = experiment._preprocess_train(frame, PreprocessingSpec(3, False, True))
        assert transform.steps == ()
        assert np.array_equal(train.target.array, np.full(len(frame), 2.0))
        assert np.array_equal(train.indicator("flat").array, np.full(len(frame), 7.25))
        assert train.indicator("x0").array.max() == 1.0

    def test_an_all_gap_column_fails_its_group(self, tmp_path):
        frame, _ = generate_synthetic(SyntheticSpec(n_months=76, n_indicators=3, seed=1))
        paths = []
        for series in (frame.target, *frame.indicators):
            values = list(series.values)
            if series.id == "ind02":  # known in 2016-2018 only
                values[36:] = [None] * (len(values) - 36)
            paths.append(tmp_path / f"{series.id}.csv")
            write_series_csv(MonthlySeries(series.id, series.start, values), paths[-1])
        config = quick_config(
            datasets=(DatasetSpec("demand", "csv", target_csv=str(paths[0]),
                                  indicator_csvs=tuple(map(str, paths[1:]))),),
            ranges=(RangeSpec(M(2016, 1), M(2021, 4)), RangeSpec(M(2019, 1), M(2021, 4))),
            methods=(MethodSpec("none"), MethodSpec("correlation")),
        )
        table, _ = run_experiment(config)
        for key, cell in table.cells.items():
            if key[1] == "2019-01..2021-04":
                assert cell.error == "MissingValue", key
            else:
                assert not cell.failed, key


class TestIsolationAndDeterminism:
    def _csv_dataset(self, tmp_path, poison=False):
        frame, _ = generate_synthetic(
            SyntheticSpec(n_months=40, n_indicators=3, n_drivers=1, driver_betas=(1.5,), seed=5)
        )
        folder = tmp_path / ("poisoned" if poison else "clean")
        folder.mkdir()
        test_start = 28  # train 2016-01..2018-04, test the final 12 months
        def dump(series, name):
            values = list(series.values)
            if poison:
                for i in range(test_start, len(values)):
                    values[i] = 1e12
            write_series_csv(
                MonthlySeries(series.id, series.start, values), folder / f"{name}.csv"
            )
        dump(frame.target, "target")
        for s in frame.indicators:
            dump(s, s.id)
        return DatasetSpec(
            "demand",
            "csv",
            target_csv=str(folder / "target.csv"),
            indicator_csvs=tuple(str(folder / f"{s.id}.csv") for s in frame.indicators),
        )

    def _config(self, dataset):
        return ExperimentConfig(
            datasets=(dataset,),
            ranges=(RangeSpec(M(2016, 1), M(2018, 4)),),
            methods=(MethodSpec("none"), MethodSpec("correlation"), MethodSpec("lasso"),
                     MethodSpec("forward")),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),
                    ModelSpec("additive", additive_config=LEAN_ADDITIVE)),
            horizon=12,
            forward_cap=3,
        )

    def test_sentinel_poisoned_test_window_changes_nothing_upstream(self, tmp_path):
        _, clean_art = run_experiment(self._config(self._csv_dataset(tmp_path)))
        _, poisoned_art = run_experiment(self._config(self._csv_dataset(tmp_path, poison=True)))
        assert set(clean_art.cells) == set(poisoned_art.cells)
        for key in clean_art.cells:
            a, b = clean_art.cells[key], poisoned_art.cells[key]
            sel_a = None if a.selection is None else a.selection.selected_ids
            sel_b = None if b.selection is None else b.selection.selected_ids
            assert sel_a == sel_b, key
            assert a.model_doc == b.model_doc, key
            assert a.forecast == b.forecast, key

    def test_full_run_determinism_byte_exact(self, tmp_path):
        config = quick_config(
            methods=(MethodSpec("none"), MethodSpec("forward")),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),),
        )
        paths = []
        for i in range(2):
            table, _ = run_experiment(config)
            path = tmp_path / f"results{i}.csv"
            emit_table(table, "csv", path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_jobs_do_not_change_results(self, tmp_path):
        base = dict(
            datasets=(synth_dataset(),),
            ranges=(RangeSpec(M(2016, 1), M(2021, 4)),),
            methods=(MethodSpec("none"), MethodSpec("correlation"), MethodSpec("lasso")),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),
                    ModelSpec("additive", additive_config=LEAN_ADDITIVE)),
            horizon=12,
        )
        t1, _ = run_experiment(ExperimentConfig(**base, jobs=1))
        t8, _ = run_experiment(ExperimentConfig(**base, jobs=8))
        p1, p8 = tmp_path / "j1.csv", tmp_path / "j8.csv"
        emit_table(t1, "csv", p1)
        emit_table(t8, "csv", p8)
        assert p1.read_bytes() == p8.read_bytes()

    def test_n_exog_matches_persisted_selection(self, tmp_path):
        config = quick_config(
            methods=(MethodSpec("forward"),),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),),
            out_dir=str(tmp_path / "run"),
        )
        table, artifacts = run_experiment(config)
        for key, cell in table.cells.items():
            stored = artifacts.cells[key].selection
            assert cell.n_exog == len(stored.selected_ids)
        from exocast.selection import load_result

        folder = next((tmp_path / "run" / "cells").iterdir())
        loaded = load_result(folder / "selection.json")
        assert len(loaded.selected_ids) == next(iter(table.cells.values())).n_exog


class TestTableAndPlots:
    @pytest.fixture()
    def small_run(self):
        config = quick_config(
            methods=(MethodSpec("none"), MethodSpec("correlation")),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),),
        )
        return run_experiment(config)

    def test_table_layout_two_methods_one_column(self, small_run, tmp_path):
        table, _ = small_run
        path = emit_table(table, "csv", tmp_path / "t.csv")
        lines = path.read_text().strip().splitlines()
        # header + (2 methods x [score row + count sub-row]) + best row
        assert len(lines) == 1 + 4 + 1
        assert lines[2].startswith("  Nbr. Exogenous variables")
        assert lines[-1].startswith("best,")

    def test_markdown_reuses_csv_numbers_and_flags_best(self, small_run, tmp_path):
        table, _ = small_run
        csv_text = emit_table(table, "csv", tmp_path / "t.csv").read_text()
        md_text = emit_table(table, "markdown", tmp_path / "t.md").read_text()
        import csv as _csv

        rows = list(_csv.reader(csv_text.splitlines()))
        scores = [row[1] for row in rows[1:-1] if not row[0].startswith(" ")]
        for value in scores:
            assert value in md_text
        best_label = rows[-1][1]
        best_value = next(row[1] for row in rows[1:] if row[0] == best_label)
        assert f"**{best_value}**" in md_text

    def test_failed_cell_rendering(self, tmp_path):
        config = quick_config(models=(ModelSpec("sarimax", order=SarimaxOrder(p=70)),))
        table, _ = run_experiment(config)
        text = emit_table(table, "csv", tmp_path / "t.csv").read_text()
        assert "FAIL(InsufficientData)" in text

    def test_plot_data_shapes(self, tmp_path):
        config = quick_config(
            methods=(MethodSpec("none"), MethodSpec("forward")),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),),
        )
        table, artifacts = run_experiment(config)
        written = emit_plot_data(artifacts, tmp_path)
        names = {p.name for p in written}
        forecast_file = next(p for p in written if p.name.startswith("forecasts_"))
        lines = forecast_file.read_text().strip().splitlines()
        assert len(lines) == 13  # header + 12 horizon months
        import csv as _csv

        header = next(_csv.reader([lines[0]]))
        assert len(header) == 2 + 2  # period, actual, 2 configurations
        assert "score_development.csv" in names
        sd = (tmp_path / "score_development.csv").read_text().strip().splitlines()
        assert len(sd) > 1
        errors = (tmp_path / "errors.csv").read_text().strip().splitlines()
        assert len(errors) == 1 + 12 * 2  # header + horizon x configurations

    def test_persist_and_reload(self, tmp_path):
        config = quick_config(
            methods=(MethodSpec("none"), MethodSpec("forward")),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),),
            out_dir=str(tmp_path / "run"),
        )
        table, artifacts = run_experiment(config)
        reloaded_table, reloaded_art = reload_run(tmp_path / "run")
        a = emit_table(table, "csv", tmp_path / "a.csv").read_bytes()
        b = emit_table(reloaded_table, "csv", tmp_path / "b.csv").read_bytes()
        assert a == b
        assert reloaded_art.traces  # forward traces reload for score development


class TestConfigFile:
    def test_load_and_run(self, tmp_path):
        doc = {
            "datasets": [
                {"label": "synth-0", "kind": "synthetic",
                 "spec": {"n_months": 76, "n_indicators": 4, "n_drivers": 1,
                          "driver_betas": [1.5], "noise_sigma": 0.5, "seed": 0,
                          "start": "2016-01"}}
            ],
            "ranges": [{"start": "2016-01", "end": "2021-04"}],
            "horizon": 12,
            "methods": ["none", {"name": "manual", "ids": ["ind01"]}],
            "models": [{"name": "sarimax", "order": [1, 0, 0, 0, 0, 0, 12]},
                       {"name": "additive", "auto": True}],
            "preprocessing": {"smooth_window": 1, "detrend": False, "normalize": True},
            "forward_cap": 5,
            "out_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = load_config(path)
        assert config.methods[1].manual_ids == ("ind01",)
        table, _ = run_experiment(config)
        assert len(table.cells) == 4
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "artifacts.json").exists()

    def test_seed_override(self, tmp_path):
        doc = {
            "datasets": [{"label": "s", "kind": "synthetic",
                          "spec": {"n_months": 30, "seed": 0}}],
            "ranges": [{"start": "2016-01", "end": "2017-04"}],
            "horizon": 12,
            "methods": ["none"],
            "models": [{"name": "sarimax", "order": [0, 0, 0, 0, 0, 0, 12]}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert load_config(path).datasets[0].synthetic.seed == 0
        assert load_config(path, seed_override=9).datasets[0].synthetic.seed == 9

    def test_partial_additive_config_defaults_missing_keys(self, tmp_path):
        doc = {
            "datasets": [{"label": "s", "kind": "synthetic",
                          "spec": {"n_months": 40, "seed": 0}}],
            "ranges": [{"start": "2016-01", "end": "2017-04"}],
            "methods": ["none"],
            "models": [{"name": "additive",
                        "config": {"ar_lags": 2, "seasonalities": [[12, 2]]}}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path).models[0].additive_config
        assert cfg == AdditiveConfig(ar_lags=2, seasonalities=((12.0, 2),))

    def test_unknown_additive_config_key_rejected(self, tmp_path):
        doc = {
            "datasets": [{"label": "s", "kind": "synthetic",
                          "spec": {"n_months": 40, "seed": 0}}],
            "ranges": [{"start": "2016-01", "end": "2017-04"}],
            "methods": ["none"],
            "models": [{"name": "additive", "config": {"ar_lag": 2}}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="ar_lag"):
            load_config(path)

    def _doc(self, **changes):
        doc = {
            "datasets": [{"label": "s", "kind": "synthetic", "spec": {"n_months": 40, "seed": 0}}],
            "ranges": [{"start": "2016-01", "end": "2017-04"}],
            "methods": ["none"],
            "models": [{"name": "sarimax", "order": [0, 0, 0, 0, 0, 0, 12]}],
        }
        return {**doc, **changes}

    @pytest.mark.parametrize("changes, message", [
        ({"rolling_origin": 6}, "unknown config keys: rolling_origin"),
        ({"preprocessing": {"window": 3, "normalise": False}},
         "unknown preprocessing keys: normalise, window"),
        ({"datasets": [{"label": "s", "kind": "synthetic", "spec": {"months": 40}}]},
         "unknown dataset 's' spec keys: months"),
        ({"datasets": [{"label": "s", "kind": "synthetic", "spec": {"seed": 0}}]},
         "dataset 's' spec lacks n_months"),
        ({"ranges": None}, "config lacks ranges"),
        ({"preprocessing": [3]}, "preprocessing must be a JSON object"),
    ])
    def test_malformed_config_names_the_file_and_the_field(self, tmp_path, changes, message):
        path = tmp_path / "config.json"
        doc = {k: v for k, v in self._doc(**changes).items() if v is not None}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(caught.value) == f"config {path}: {message}"

    def test_jobs_key_is_accepted(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self._doc(jobs=2)))
        assert load_config(path).jobs == 2

    def test_schema_text_mentions_all_sections(self):
        text = config_schema_text()
        for word in ("datasets", "ranges", "horizon", "methods", "models",
                     "preprocessing", "out_dir"):
            assert word in text


class TestGridModel:
    def test_sarimax_grid_cell(self):
        config = quick_config(
            models=(ModelSpec("sarimax", grid=(SarimaxOrder(), SarimaxOrder(p=1))),),
        )
        table, _ = run_experiment(config)
        cell = next(iter(table.cells.values()))
        assert cell.error is None
        assert np.isfinite(cell.mae)


class TestRollingOrigins:
    def test_mean_of_single_origin_runs(self):
        # k origins must equal the mean of k single-origin runs whose
        # training ranges step back one month at a time.
        rolling = quick_config(rolling_origins=2)
        rolled_mae = next(iter(run_experiment(rolling)[0].cells.values())).mae

        singles = []
        for back in range(2):
            config = quick_config(ranges=(RangeSpec(M(2016, 1), M(2021, 4).shift(-back)),))
            singles.append(next(iter(run_experiment(config)[0].cells.values())).mae)
        assert rolled_mae == pytest.approx(sum(singles) / 2, abs=1e-12)

    def test_default_is_single_origin(self):
        a = next(iter(run_experiment(quick_config())[0].cells.values())).mae
        b = next(iter(run_experiment(quick_config(rolling_origins=1))[0].cells.values())).mae
        assert a == b

    def test_origin_must_fit_range(self):
        config = quick_config(
            ranges=(RangeSpec(M(2021, 4), M(2021, 4)),), rolling_origins=3
        )
        with pytest.raises(ValueError, match="origin"):
            run_experiment(config)


class TestProtocolShape:
    def test_dual_range_five_method_two_model_grid(self, tmp_path):
        # The study-protocol shape: long and short training ranges sharing
        # one endpoint, every selection method, both models.
        config = ExperimentConfig(
            datasets=(synth_dataset(seed=0, n_indicators=6),),
            ranges=(RangeSpec(M(2016, 1), M(2021, 4)),   # 64 months
                    RangeSpec(M(2019, 1), M(2021, 4))),  # 28 months
            methods=(MethodSpec("none"), MethodSpec("correlation"), MethodSpec("lasso"),
                     MethodSpec("forward"),
                     MethodSpec("manual", manual_ids=("ind01", "ind02"))),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),
                    ModelSpec("additive")),
            horizon=12,
            forward_cap=4,
            out_dir=str(tmp_path / "run"),
        )
        table, artifacts = run_experiment(config)
        assert len(table.cells) == 5 * 2 * 2
        failed = {k: c.error for k, c in table.cells.items() if c.failed}
        assert not failed, failed
        text = (tmp_path / "run" / "results.csv").read_text()
        assert text.count("@") >= 2  # two range columns
        manual_cells = [c for k, c in table.cells.items() if k[2] == "manual"]
        assert all(c.n_exog == 2 for c in manual_cells)


class TestSharedStages:
    # Preprocessing depends on neither method nor model, and only forward
    # selection depends on the model: each runs once per origin it serves.
    MODELS = (ModelSpec("sarimax", order=SarimaxOrder(p=1)),
              ModelSpec("additive", additive_config=LEAN_ADDITIVE))

    def _count(self, monkeypatch, names):
        counts = Counter()
        for name in names:
            def counting(*args, _name=name, _original=getattr(experiment, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(experiment, name, counting)
        return counts

    def test_each_stage_runs_once_per_origin(self, monkeypatch):
        config = ExperimentConfig(
            datasets=(synth_dataset(seed=0, n_indicators=6),),
            ranges=(RangeSpec(M(2016, 1), M(2021, 4)), RangeSpec(M(2019, 1), M(2021, 4))),
            methods=(MethodSpec("none"), MethodSpec("correlation"), MethodSpec("lasso"),
                     MethodSpec("forward"), MethodSpec("manual", manual_ids=("ind01", "ind02"))),
            models=self.MODELS,
            forward_cap=2,
            rolling_origins=3,
        )
        names = ("_preprocess_train", "correlation_select", "lasso_select",
                 "validate_manual", "forward_select")
        counts = self._count(monkeypatch, names)
        table, _ = run_experiment(config)
        assert not [k for k, c in table.cells.items() if c.failed]
        per_origin = 2 * 3  # ranges x origins
        assert counts == {
            "_preprocess_train": per_origin,
            "correlation_select": per_origin,
            "lasso_select": per_origin,
            "validate_manual": per_origin,
            "forward_select": per_origin * len(self.MODELS),
        }

    def _failure_config(self):
        return quick_config(
            ranges=(RangeSpec(M(2016, 1), M(2021, 4)), RangeSpec(M(2019, 1), M(2021, 4))),
            methods=(MethodSpec("none"), MethodSpec("correlation"), MethodSpec("lasso"),
                     MethodSpec("manual", manual_ids=("ind01", "ind02"))),
            models=self.MODELS,
            rolling_origins=2,
        )

    def _raise_when(self, monkeypatch, name, when):
        original = getattr(experiment, name)

        def flaky(*args, **kwargs):
            if when(args[0]):
                raise InsufficientDataError("planted failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, name, flaky)

    def test_shared_selection_failure_fails_its_method_only(self, monkeypatch, caplog):
        config = self._failure_config()
        base_table, base_artifacts = run_experiment(config)
        # Origin 1 of either range ends one month before the range does.
        self._raise_when(monkeypatch, "correlation_select", lambda c: c.frame.end == M(2021, 3))
        with caplog.at_level("WARNING", logger="exocast.experiment"):
            table, artifacts = run_experiment(config)
        failed = [k for k in table.cells if k[2] == "correlation"]
        assert len(failed) == 4
        assert [r.message.count("planted failure") for r in caplog.records] == [1] * 4
        for key, cell in table.cells.items():
            if key in failed:
                assert cell.error == "InsufficientData", key
                # Origin 0 finished, so it still supplies the artifacts.
                assert artifacts.cells[key].forecast == base_artifacts.cells[key].forecast
            else:
                assert cell == base_table.cells[key], key

    def test_preprocessing_failure_fails_its_group_only(self, monkeypatch):
        config = self._failure_config()
        base_table, _ = run_experiment(config)
        self._raise_when(
            monkeypatch, "_preprocess_train", lambda f: (f.start, f.end) == (M(2019, 1), M(2021, 3))
        )
        table, _ = run_experiment(config)
        for key, cell in table.cells.items():
            if key[1] == "2019-01..2021-04":
                assert cell.error == "InsufficientData", key
            else:
                assert cell == base_table.cells[key], key


    def test_a_stored_failure_is_raised_with_the_same_traceback_each_time(self, monkeypatch):
        def failing():
            raise InsufficientDataError("planted failure")

        stages, depths = {}, []
        for _ in range(50):
            with pytest.raises(InsufficientDataError) as caught:
                experiment._once(stages, "stage", failing)
            depths.append(len(traceback.extract_tb(caught.value.__traceback__)))
        assert len(set(depths)) == 1, depths[:4]
        # Every cell that shares the failed stage keeps its failure code.
        config = self._failure_config()
        self._raise_when(monkeypatch, "_preprocess_train", lambda f: True)
        table, _ = run_experiment(config)
        assert {cell.error for cell in table.cells.values()} == {"InsufficientData"}


class TestPersistedModels:
    def test_every_cell_model_reloads_to_its_stored_forecast(self, tmp_path):
        # Each cell's model.json is the full fitted document: reloaded and
        # run on the cell's training frame, it reproduces the stored
        # forecast bit for bit, for either model.
        config = ExperimentConfig(
            datasets=(synth_dataset(seed=0, n_indicators=6),),
            ranges=(RangeSpec(M(2016, 1), M(2021, 4)), RangeSpec(M(2019, 1), M(2021, 4))),
            methods=(MethodSpec("none"), MethodSpec("correlation"), MethodSpec("forward"),
                     MethodSpec("manual", manual_ids=("ind01", "ind02"))),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)), ModelSpec("additive")),
            horizon=12,
            forward_cap=2,
            out_dir=str(tmp_path / "run"),
        )
        table, _ = run_experiment(config)
        frames = {(d, rng.label): (train, t) for d, rng, train, t in training_frames(config)}
        folders = sorted((tmp_path / "run" / "cells").glob("*/model.json"))
        assert len(folders) == sum(not c.failed for c in table.cells.values()) == 16
        schemas = set()
        for path in folders:
            doc = json.loads(path.read_text())
            schemas.add(doc["schema"])
            dataset, rng = path.parent.name.split("__")[:2]
            train, transform = frames[(dataset, rng)]
            future = models.regressor_forecasts(train, config.horizon)
            fitted = models.from_doc(doc)
            predicted = transform.invert(models.forecast(fitted, config.horizon, future))
            stored = read_series_csv(path.parent / "forecast.csv")
            assert predicted.values == stored.values, path.parent.name
        assert schemas == {"exocast.sarimax.fitted/1", "exocast.additive.fitted/1"}


class TestSharedForwardDesign:
    # Forward selection scores every additive subset of one validation split
    # from one design; each subset must forecast as its own fit does.
    SPECS = {
        "ridge0": ModelSpec("additive", additive_config=AdditiveConfig(
            n_changepoints=1, seasonalities=((12.0, 1),), ar_lags=1, regressor_lags=1)),
        "ridge": ModelSpec("additive", additive_config=LEAN_ADDITIVE),
        "auto": ModelSpec("additive"),
        "known-events": ModelSpec("additive", additive_config=AdditiveConfig(
            n_changepoints=2, seasonalities=((12.0, 2), (6.0, 1)), ar_lags=2, regressor_lags=3,
            events=(("fair", frozenset({M(2016, 5), M(2017, 5), M(2018, 5), M(2019, 5)})),),
            ridge_lambda=0.5, future_known=("ind02",))),
    }

    @pytest.mark.parametrize("name", SPECS)
    def test_each_subset_forecasts_as_its_own_fit(self, name):
        spec = self.SPECS[name]
        _, _, train, _ = next(training_frames(quick_config()))
        selection = experiment.select(MethodSpec("forward"), spec, train, 12, forward_cap=3)
        subsets = [subset for subset, _ in selection.trace.entries]
        assert len(subsets) == 1 + 6 + 5 + 4 and not selection.trace.failures
        sub_train, _ = split_train_test(train, SplitSpec(12))
        future = models.regressor_forecasts(sub_train, 12)
        forecast_subset = models.subset_forecaster(spec, sub_train, 12, future)
        for subset in subsets:
            fitted = models.fit(spec, sub_train.with_indicators(subset), 12, None)
            direct = models.forecast(fitted, 12, future).require_complete()
            assert np.max(np.abs(np.asarray(forecast_subset(subset)) - direct)) <= 1e-9, subset

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec("additive", additive_config=AdditiveConfig(ar_lags=14)), ModelSpec("additive")],
        ids=["ar-lags", "auto"],
    )
    def test_frame_too_short_for_the_design_fails_every_subset(self, spec):
        # 23 training months leave 11 for forward selection's fits: too few
        # for 14 AR lags or for an auto config, yet enough for the final fit.
        config = quick_config(ranges=(RangeSpec(M(2019, 6), M(2021, 4)),),
                              methods=(MethodSpec("none"), MethodSpec("forward")), models=(spec,))
        table, _ = run_experiment(config)
        errors = {key[2]: cell.error for key, cell in table.cells.items()}
        assert errors == {"none": None, "forward": "Selection"}
        _, _, train, _ = next(training_frames(config))
        with pytest.raises(SelectionError) as raised:
            experiment.select(MethodSpec("forward"), spec, train, 12, forward_cap=2)
        listed = str(raised.value).split(": ", 1)[1].split("; ")
        reasons = {item.split(" -> ")[1] for item in listed}
        assert len(listed) > 1 and len(reasons) == 1
        assert reasons.pop().startswith("InsufficientDataError: ")


class TestConfigValidation:
    def test_duplicate_method_labels_rejected(self):
        with pytest.raises(ValueError, match="method labels"):
            quick_config(
                methods=(MethodSpec("manual", manual_ids=("ind01",)),
                         MethodSpec("manual", manual_ids=("ind02",))),
            )

    def test_duplicate_model_labels_rejected(self):
        with pytest.raises(ValueError, match="model labels"):
            quick_config(
                models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),
                        ModelSpec("sarimax", order=SarimaxOrder(p=1))),
            )

    def test_dataset_label_with_separator_rejected(self):
        with pytest.raises(ValueError, match="may not contain"):
            quick_config(datasets=(synth_dataset(label="a @ b"),))
