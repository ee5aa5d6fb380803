import json
import traceback
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from exocast import experiment, models
from exocast.additive import AdditiveConfig
from exocast.errors import (
    ConfigError,
    DegenerateRangeError,
    InsufficientDataError,
    SchemaError,
    SelectionError,
)
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
from exocast.selection import CandidateSet, forward_select
from exocast.sarimax import fit as sarimax_fit
from exocast.sarimax import forecast as sarimax_forecast
from exocast.series import (
    Month,
    MonthlySeries,
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
        train, test = split_train_test(sliced, 12)
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
    transformed whole matrices: the oracle for each column. Gives the series,
    the trend taken out and the normalization applied, each None if none."""
    trend = params = None
    out = interpolate_missing(series) if series.has_missing else series
    if prep.smooth_window > 1:
        out = smooth(out, prep.smooth_window)
    if prep.detrend:
        out, slope, intercept = linear_detrend(out)
        trend = (slope, intercept)
    if prep.normalize:
        try:
            out, params = min_max_normalize(out)
        except DegenerateRangeError:
            pass
    return out, trend, params


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
        target, trend, normalization = series_preprocess(frame.target, prep)
        assert train.target == target
        assert (transform.trend, transform.normalization) == (trend, normalization)
        assert transform.train_length == len(frame)
        assert train.indicator_ids == frame.indicator_ids and train.index == frame.index
        for series in frame.indicators:
            assert train.indicator(series.id) == series_preprocess(series, prep)[0], series.id

    def test_invert_undoes_the_normalization_then_the_trend(self):
        # The months after the training frame, taken to the model's scale
        # as preprocessing takes the frame, come back as they were.
        frame = self.gappy_frame(1)
        _, transform = experiment._preprocess_train(frame, PreprocessingSpec(1, True, True))
        (slope, intercept), scale, n = transform.trend, transform.normalization, len(frame)
        raw = np.array([40.0, 55.0, 61.0])
        scaled = (raw - (intercept + slope * np.arange(n, n + 3)) - scale.min) / (scale.max - scale.min)
        future = MonthlySeries("y", frame.end.shift(1), scaled)
        assert np.allclose(transform.invert(future).array, raw, rtol=0, atol=1e-12)

    def test_a_constant_column_stays_unnormalised(self):
        frame = self.gappy_frame(0, constant_target=True)
        train, transform = experiment._preprocess_train(frame, PreprocessingSpec(3, False, True))
        assert (transform.trend, transform.normalization) == (None, None)
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

    def _gappy_window_config(self, tmp_path, gaps):
        """A csv dataset whose target lacks the months `gaps` (positions in
        its 40 months; the test window is the last 12)."""
        tmp_path.mkdir()
        dataset = self._csv_dataset(tmp_path)
        target = read_series_csv(dataset.target_csv)
        values = [None if i in gaps else v for i, v in enumerate(target.values)]
        write_series_csv(MonthlySeries(target.id, target.start, values), dataset.target_csv)
        return replace(self._config(dataset), methods=(MethodSpec("none"),),
                       models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),))

    def test_a_gap_in_the_test_window_is_filled_from_the_window_and_scored(self, tmp_path):
        (clean,) = run_experiment(self._gappy_window_config(tmp_path / "a", set()))[0].cells.values()
        (cell,) = run_experiment(self._gappy_window_config(tmp_path / "b", {33}))[0].cells.values()
        assert cell.actual[:5] + cell.actual[6:] == clean.actual[:5] + clean.actual[6:]
        # 2018-10, halfway between its neighbours in the window
        assert cell.actual[5] == pytest.approx((clean.actual[4] + clean.actual[6]) / 2)
        assert cell.actual[5] != clean.actual[5]
        assert cell.forecast == clean.forecast
        assert cell.mae == mae(cell.actual, cell.forecast)

    def test_a_test_window_without_an_observed_month_stops_the_run(self, tmp_path):
        config = self._gappy_window_config(tmp_path / "a", set(range(28, 40)))
        with pytest.raises(ConfigError, match=r"^dataset 'demand': the test window 2018-05\.\.2019-04 "
                           r"of range 2016-01\.\.2018-04 holds no observed target month$"):
            run_experiment(config)

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

    def test_n_exog_matches_persisted_selection(self, tmp_path):
        config = quick_config(
            methods=(MethodSpec("forward"),),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),),
            out_dir=str(tmp_path / "run"),
        )
        table, _ = run_experiment(config)
        for cell in table.cells.values():
            assert cell.n_exog == len(cell.selected_ids) == len(cell.selection.selected_ids)
        # The count is derived from selected_ids, never stored beside them.
        doc = json.loads((tmp_path / "run" / "artifacts.json").read_text())
        assert len(doc["cells"]) == len(table.cells)
        for cell in doc["cells"]:
            assert "n_exog" not in cell
            assert cell["selected_ids"] == cell["selection"]["selected_ids"]


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
        reloaded = reload_run(tmp_path / "run")
        a = emit_table(table, "csv", tmp_path / "a.csv").read_bytes()
        b = emit_table(reloaded, "csv", tmp_path / "b.csv").read_bytes()
        assert a == b
        # The forward cells' traces reload for score development.
        traces = {k: c.selection.trace for k, c in artifacts.cells.items() if k[2] == "forward"}
        assert traces and all(traces.values())
        assert {k: reloaded.cells[k].selection.trace for k in traces} == traces

    def test_reloaded_selections_and_models_equal_the_run(self, tmp_path):
        # Every method's selection, diagnostics and trace included, and every
        # fitted document come back from artifacts.json as the run made them.
        config = quick_config(
            methods=(MethodSpec("none"), MethodSpec("correlation", target_threshold=0.3),
                     MethodSpec("lasso"), MethodSpec("forward"),
                     MethodSpec("manual", manual_ids=("ind01",))),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),
                    ModelSpec("additive", additive_config=LEAN_ADDITIVE)),
            forward_cap=2, out_dir=str(tmp_path / "run"),
        )
        table, artifacts = run_experiment(config)
        reloaded = reload_run(tmp_path / "run")
        # The table and the artifacts share one dict of records.
        assert table.cells is artifacts.cells
        assert list(reloaded.cells) == list(artifacts.cells)
        assert all(cell.selection is not None for cell in artifacts.cells.values())
        assert {key[2] for key, cell in artifacts.cells.items() if cell.selection.trace} == {"forward"}
        for key, cell in artifacts.cells.items():
            assert cell.key == key
            assert reloaded.cells[key].selection == cell.selection, key
            # Arrays read back as lists; the values are bit for bit the same.
            assert reloaded.cells[key].model_doc == json.loads(json.dumps(cell.model_doc)), key
            # The record reloaded is the record the run built.
            assert reloaded.cells[key] == replace(cell, model_doc=reloaded.cells[key].model_doc), key

    def test_the_run_directory_holds_the_documented_files(self, tmp_path):
        # artifacts.json, the tables, the plot data and one forecast CSV per
        # successful cell; a run in the earlier layout, a folder per cell,
        # loses that tree when a run is persisted over it.
        run = tmp_path / "run"
        old_cell = run / "cells" / "synth-0__2016-01..2021-04__none__sarimax_1_0_0_"
        old_cell.mkdir(parents=True)
        for name in ("selection.json", "model.json", "forecast.csv", "trace.csv"):
            (old_cell / name).write_text("{}")
        config = quick_config(methods=(MethodSpec("none"), MethodSpec("forward")),
                              forward_cap=2, out_dir=str(run))
        table, _ = run_experiment(config)
        cells = ["__".join(map(experiment._safe, key)) for key in table.cells]
        files = sorted(str(p.relative_to(run)) for p in run.rglob("*"))
        assert files == sorted([
            "artifacts.json", "cells", *(f"cells/{name}.csv" for name in cells), "errors.csv",
            "forecasts_synth-0_2016-01..2021-04.csv", "results.csv", "results.md",
            "score_development.csv",
        ])

    def test_a_persist_that_fails_leaves_no_document(self, tmp_path, monkeypatch):
        # The earlier run's artifacts.json goes before anything is written,
        # so a report cannot re-emit it over the failed run's tables.
        config = quick_config(out_dir=str(tmp_path / "run"))
        run_experiment(config)
        assert (tmp_path / "run" / "artifacts.json").exists()

        def planted(*args):
            raise OSError("planted failure")

        monkeypatch.setattr(experiment, "emit_plot_data", planted)
        with pytest.raises(OSError, match="planted failure"):
            run_experiment(config)
        assert not (tmp_path / "run" / "artifacts.json").exists()
        assert list((tmp_path / "run").glob("*.tmp")) == []


    def test_reloaded_plot_data_equals_the_persisted_one(self, tmp_path):
        # Three forward traces, and forecast columns, whose config order is
        # not their sorted order: the mean score is summed in sorted order
        # both times, and the forecast columns keep the config order.
        config = quick_config(
            datasets=tuple(synth_dataset(seed) for seed in (2, 0, 1)),
            methods=(MethodSpec("none"), MethodSpec("forward")), forward_cap=3,
            out_dir=str(tmp_path / "run"),
        )
        run_experiment(config)
        written = emit_plot_data(reload_run(tmp_path / "run"), tmp_path / "report")
        assert len(written) == 5 and (tmp_path / "report" / "score_development.csv") in written
        for path in written:
            assert path.read_bytes() == (tmp_path / "run" / path.name).read_bytes(), path.name

    def test_a_rerun_into_the_same_directory_leaves_no_stale_file(self, tmp_path):
        # The first run writes a forward cell's directory, trace and
        # score_development.csv, and a second range's forecasts file; the
        # second run writes none of them.
        first = quick_config(
            methods=(MethodSpec("none"), MethodSpec("forward")), forward_cap=2,
            ranges=(RangeSpec(M(2016, 1), M(2021, 4)), RangeSpec(M(2017, 1), M(2021, 4))),
            out_dir=str(tmp_path / "run"),
        )
        second = replace(first, methods=(MethodSpec("none"),), ranges=first.ranges[:1])
        run_experiment(first)
        run_experiment(second)
        run_experiment(replace(second, out_dir=str(tmp_path / "fresh")))
        files = sorted(p.relative_to(tmp_path / "fresh") for p in (tmp_path / "fresh").rglob("*"))
        assert sorted(p.relative_to(tmp_path / "run") for p in (tmp_path / "run").rglob("*")) == files
        for path in files:
            if (tmp_path / "fresh" / path).is_file():
                assert (tmp_path / "run" / path).read_bytes() == (tmp_path / "fresh" / path).read_bytes()

    def test_a_reloaded_run_is_the_run_and_persists_byte_for_byte(self, tmp_path):
        # artifacts.json holds the table: a run with a forward cell, failed
        # cells and two origins reloads as the table run_experiment gave,
        # and persisted again it writes every file of the run byte for byte.
        config = quick_config(
            methods=(MethodSpec("none"), MethodSpec("forward")),
            models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),
                    ModelSpec("sarimax", order=SarimaxOrder(p=70))),
            forward_cap=2, rolling_origins=2, out_dir=str(tmp_path / "run"),
        )
        table, _ = run_experiment(config)
        states = {(key[2], cell.failed) for key, cell in table.cells.items()}
        assert {("forward", False), ("forward", True)} <= states
        reloaded = reload_run(tmp_path / "run")
        assert (reloaded.horizon, reloaded.row_keys, reloaded.col_keys) == (
            table.horizon, table.row_keys, table.col_keys)
        assert list(reloaded.cells) == list(table.cells)
        for key, cell in table.cells.items():
            # Arrays in a fitted document read back as lists.
            assert reloaded.cells[key] == replace(cell, model_doc=json.loads(json.dumps(cell.model_doc)))
        experiment.persist_run(tmp_path / "again", reloaded)
        files = sorted(p.relative_to(tmp_path / "run") for p in (tmp_path / "run").rglob("*"))
        assert files == sorted(p.relative_to(tmp_path / "again") for p in (tmp_path / "again").rglob("*"))
        assert "artifacts.json" in map(str, files)
        for path in files:
            if (tmp_path / "run" / path).is_file():
                assert (tmp_path / "run" / path).read_bytes() == (tmp_path / "again" / path).read_bytes(), path

    ARTIFACTS = {"schema": "exocast.experiment.artifacts/3", "horizon": 1,
                 "row_keys": [["none", "additive"]], "col_keys": ["d @ 2016-01..2016-12"],
                 "cells": [{"dataset": "d", "range": "2016-01..2016-12", "method": "none",
                            "model": "additive", "mae": 1.0, "error": None,
                            "months": ["2017-01"], "actual": [1.0], "forecast": [2.0],
                            "selected_ids": [], "fitted": None,
                            "selection": {"method": "none", "selected_ids": [], "score": None,
                                          "diagnostics": {}}}]}

    @pytest.mark.parametrize("doc, message", [
        ([], "JSON object, not list"),
        ("{", "Expecting property name"),
        ({**ARTIFACTS, "schema": "x"}, "schema 'x' is not"),
        ({**ARTIFACTS, "schema": "exocast.experiment.artifacts/1"},
         "schema 'exocast.experiment.artifacts/1' is not exocast.experiment.artifacts/3; "
         "that run kept its cells in folders; run the experiment again"),
        ({**ARTIFACTS, "schema": "exocast.experiment.artifacts/2"},
         "schema 'exocast.experiment.artifacts/2' is not exocast.experiment.artifacts/3; "
         "that run stored n_exog and kept origin 0's forecast for a cell that failed later; "
         "run the experiment again"),
        ({k: v for k, v in ARTIFACTS.items() if k != "cells"}, "lacks cells"),
        ({**ARTIFACTS, "cells": [{**ARTIFACTS["cells"][0], "selection": {"selected_ids": []}}]},
         "selection result lacks method"),
        ({**ARTIFACTS, "cells": [{**ARTIFACTS["cells"][0], "months": ["2017"]}]}, "'2017'"),
        ({**ARTIFACTS, "rows": []}, "unknown artifacts keys: rows"),
        ({**ARTIFACTS, "cells": [{**ARTIFACTS["cells"][0], "maes": [1.0]}]}, "unknown cell keys: maes"),
        ({**ARTIFACTS, "cells": [{**ARTIFACTS["cells"][0], "n_exog": 0}]}, "unknown cell keys: n_exog"),
        ({**ARTIFACTS, "cells": [ARTIFACTS["cells"][0], {**ARTIFACTS["cells"][0], "mae": 5.0}]},
         "cell d / 2016-01..2016-12 / none / additive is listed twice"),
        ({**ARTIFACTS, "cells": [ARTIFACTS["cells"][0], {**ARTIFACTS["cells"][0], "dataset": "e"}]},
         "cell e / 2016-01..2016-12 / none / additive is not in row_keys x col_keys"),
        ({**ARTIFACTS, "row_keys": [["none", "additive"], ["none", "sarimax"]]},
         "cell d / 2016-01..2016-12 / none / sarimax is missing from row_keys x col_keys"),
        ({**ARTIFACTS, "horizon": 2}, "cell d / 2016-01..2016-12 / none / additive holds 1 months, "
                                      "not the horizon's 2"),
        ({**ARTIFACTS, "cells": [{**ARTIFACTS["cells"][0], "mae": "1.0"}]},
         'has no error, so its mae must be a number, not "1.0"'),
        ({**ARTIFACTS, "cells": [{**ARTIFACTS["cells"][0], "forecast": [None]}]},
         "cell forecast must be an array of numbers"),
        ({**ARTIFACTS, "cells": [{**ARTIFACTS["cells"][0], "months": [202105]}]},
         "cell months must be an array of YYYY-MM strings, got"),
        ({**ARTIFACTS, "cells": [{**ARTIFACTS["cells"][0], "selection": {
            "method": "forward", "selected_ids": [], "trace": {"entries": ["x"]}}}]},
         "trace entries must be an array of .ids, score. pairs"),
        ({**ARTIFACTS, "cells": [{**ARTIFACTS["cells"][0], "selection": {
            "method": "forward", "selected_ids": [], "trace": {"entries": [[5, 1.0]]}}}]},
         "trace entries must be an array of .ids, score. pairs"),
        ({**ARTIFACTS, "cells": [{**ARTIFACTS["cells"][0], "selection": {
            "method": "forward", "selected_ids": [], "trace": {"entries": [],
                                                               "failures": [[["ind01"], 5]]}}}]},
         "trace failures must be an array of .ids, message. pairs"),
    ], ids=["not-an-object", "not-json", "schema", "retired-schema", "retired-schema-2",
            "missing-key", "selection-missing-key", "malformed", "unknown-key", "unknown-cell-key",
            "stored-n_exog", "repeated-cell", "extra-cell", "missing-cell", "other-horizon",
            "mae-not-a-number", "forecast-not-a-number", "month-not-a-string",
            "trace-entry-not-a-pair", "trace-entry-ids-not-strings", "trace-failure-not-a-message"])
    def test_reload_of_malformed_artifacts(self, tmp_path, doc, message):
        path = tmp_path / "artifacts.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(SchemaError, match=message) as raised:
            reload_run(tmp_path)
        assert str(raised.value).startswith(f"{path}: ")


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
        ({"models": [{"name": "sarimx", "order": [0, 0, 0, 0, 0, 0, 12]}]},
         "unknown model 'sarimx'"),
        ({"models": [{"name": "sarimax", "order": [0, 0, 0, 0, 0, 0, 12],
                      "grid": [[1, 0, 0, 0, 0, 0, 12]]}]},
         "sarimax model needs an order or a grid, not both"),
        ({"models": [{"name": "additive", "auto": True, "config": {"ar_lags": 2}}]},
         'additive model cannot take "auto": true'),
        ({"methods": [{"name": "correlation", "target_treshold": 0.1}]},
         "unknown method keys: target_treshold"),
        ({"ranges": [{"start": "2016-01", "end": "2017-04", "step": 1}]},
         "unknown range keys: step"),
        ({"datasets": [{"label": "d", "kind": "csv", "target": "t.csv", "cache_root": "cache"}]},
         "csv dataset 'd' takes no cache_root"),
        ({"jobs": 2}, "jobs is 2; the grid runs one group at a time, so drop the key"),
        ({"forward_cap": 0}, "forward_cap must be an integer >= 1, got 0"),
        ({"forward_cap": True}, "config forward_cap must be an integer, got true"),
        ({"forward_cap": 2.5}, "config forward_cap must be an integer, got 2.5"),
        ({"horizon": 2.5}, "config horizon must be an integer, got 2.5"),
        ({"horizon": True}, "config horizon must be an integer, got true"),
        ({"rolling_origins": 2.0}, "config rolling_origins must be an integer, got 2.0"),
        ({"preprocessing": {"smooth_window": 3.0}},
         "preprocessing smooth_window must be an integer, got 3.0"),
        ({"datasets": [{"label": "s", "kind": "synthetic", "spec": {"n_months": 76.0}}]},
         "dataset 's' spec n_months must be an integer, got 76.0"),
        ({"models": [{"name": "additive", "config": {"ar_lags": 2.0}}]},
         "additive config ar_lags must be an integer, got 2.0"),
        ({"preprocessing": {"detrend": "false"}},
         'preprocessing detrend must be true or false, got "false"'),
        ({"models": [{"name": "additive", "auto": "false"}]},
         'model auto must be true or false, got "false"'),
        ({"datasets": [{"label": "d", "kind": "csv", "target": 5}]},
         "dataset target must be a string or null, got 5"),
        ({"datasets": [{"label": "m", "kind": "eurostat_cache", "target": "t.csv", "cache_root": 5}]},
         "dataset cache_root must be a string or null, got 5"),
        ({"out_dir": 5}, "config out_dir must be a string or null, got 5"),
        ({"datasets": [{"label": "d", "kind": "csv", "target": "t.csv",
                        "indicators": "data/ind01.csv"}]},
         'dataset indicators must be an array of strings, got "data/ind01.csv"'),
        ({"methods": [{"name": "manual", "ids": "ind01"}]},
         'method ids must be an array of strings, got "ind01"'),
        ({"datasets": [{"label": 5, "kind": "synthetic", "spec": {"n_months": 40}}]},
         "dataset label must be a string, got 5"),
        ({"methods": [{"name": "correlation", "target_threshold": True}]},
         "method target_threshold must be a number, got true"),
        ({"methods": [{"name": "forward", "ids": ["ind01"], "target_threshold": 0.9}]},
         "forward method takes no ids"),
        ({"methods": [{"name": "correlation", "ids": ["ind01"]}]}, "correlation method takes no ids"),
        ({"methods": [{"name": "lasso", "mutual_threshold": 0.1}]},
         "lasso method takes no mutual_threshold"),
        ({"methods": [{"name": "none", "target_threshold": 0.5}]},
         "none method takes no target_threshold"),
        ({"methods": ["forwrd"]}, "unknown method 'forwrd'"),
        ({"methods": [{"name": "correlation", "target_threshold": 1.5}]},
         "correlation method target_threshold must be in [0, 1], got 1.5"),
        ({"methods": [{"name": "correlation", "target_threshold": -1.0}]},
         "correlation method target_threshold must be in [0, 1], got -1.0"),
        ({"methods": [{"name": "correlation", "mutual_threshold": 7.0}]},
         "correlation method mutual_threshold must be in [0, 1], got 7.0"),
        ({"methods": [{"name": "correlation", "mutual_threshold": -0.2}]},
         "correlation method mutual_threshold must be in [0, 1], got -0.2"),
        ({"models": [{"name": "sarimax", "order": [0, 0, 0, 0, 0, 0, 12], "config": {"ar_lags": 2}}]},
         "sarimax model takes no config"),
        ({"models": [{"name": "additive", "order": [0, 0, 0, 0, 0, 0, 12]}]},
         "additive model takes no order"),
        ({"datasets": [{"label": "d", "kind": "cvs", "target": "t.csv"}]},
         "dataset 'd' has unknown kind 'cvs'"),
        ({"datasets": [{"label": "d", "kind": "eurostat_cache", "target": "t.csv"}]},
         "eurostat_cache dataset 'd' needs cache_root"),
        ({"ranges": [{"start": 201601, "end": "2017-04"}]},
         "range start must be a YYYY-MM string, got 201601"),
        ({"ranges": [{"start": "2016-01", "end": None}]}, "range end must be a YYYY-MM string, got null"),
        ({"datasets": [{"label": "s", "kind": "synthetic", "spec": {"n_months": 40, "start": 2016}}]},
         "dataset 's' spec start must be a YYYY-MM string, got 2016"),
        ({"models": [{"name": "additive", "config": {"events": [["x", [201801]]]}}]},
         "not a YYYY-MM period: 201801"),
        ({"datasets": [{"label": "s", "kind": "synthetic", "spec": {"n_months": 40, "seed": -1}}]},
         "seed must be nonnegative, got -1"),
        ({"datasets": [{"label": "s", "kind": "synthetic",
                        "spec": {"n_months": 40, "noise_sigma": 10 ** 400}}]},
         f"the number 1{'0' * 400} is beyond the float range"),
        ({"datasets": [{"label": "s", "kind": "synthetic",
                        "spec": {"n_months": 40, "n_drivers": 1, "driver_betas": ["x"]}}]},
         'dataset \'s\' spec driver_betas must be an array of numbers, got ["x"]'),
    ])
    def test_malformed_config_names_the_file_and_the_field(self, tmp_path, changes, message):
        path = tmp_path / "config.json"
        doc = {k: v for k, v in self._doc(**changes).items() if v is not None}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(caught.value) == f"config {path}: {message}"

    def test_jobs_key_is_accepted(self, tmp_path):
        """Configs written for the removed thread pool say "jobs": 1."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self._doc(jobs=1)))
        without = tmp_path / "without.json"
        without.write_text(json.dumps(self._doc()))
        assert load_config(path) == load_config(without)

    def test_schema_text_mentions_all_sections(self):
        text = config_schema_text()
        for word in ("datasets", "ranges", "horizon", "methods", "models",
                     "preprocessing", "out_dir"):
            assert word in text


class TestGridModel:
    GRID = ModelSpec("sarimax", grid=(SarimaxOrder(), SarimaxOrder(p=1)))

    def test_sarimax_grid_cell(self):
        config = quick_config(models=(self.GRID,))
        table, _ = run_experiment(config)
        cell = next(iter(table.cells.values()))
        assert cell.error is None
        assert np.isfinite(cell.mae)

    def test_a_grid_runs_as_the_order_it_chooses(self, monkeypatch):
        # The order is chosen once per frame, before selection; every cell
        # of the grid then equals the cell of that order, and forward
        # selection runs once for both.
        methods = (MethodSpec("none"), MethodSpec("correlation"), MethodSpec("lasso"),
                   MethodSpec("forward"), MethodSpec("manual", manual_ids=("ind01", "ind02")))
        _, _, train, _ = next(training_frames(quick_config()))
        fixed = models.with_order(self.GRID, train, 12)
        config = quick_config(methods=methods, models=(self.GRID, fixed), forward_cap=3)
        calls = Counter()
        original = experiment.forward_select

        def counting(*args, **kwargs):
            calls["forward_select"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "forward_select", counting)
        table, _ = run_experiment(config)
        assert calls == {"forward_select": 1}
        for method in methods:
            grid_key, fixed_key = (("synth-0", "2016-01..2021-04", method.label, spec.label)
                                   for spec in (self.GRID, fixed))
            grid_cell, fixed_cell = table.cells[grid_key], table.cells[fixed_key]
            # A record holds its own key, so the two compare by their results.
            assert ((grid_cell.mae, grid_cell.n_exog, grid_cell.error)
                    == (fixed_cell.mae, fixed_cell.n_exog, fixed_cell.error)), method.label
            assert grid_cell.error is None, method.label
            assert grid_cell.selection == fixed_cell.selection, method.label
            assert grid_cell.model_doc == fixed_cell.model_doc, method.label
            assert tuple(grid_cell.model_doc["order"]) == fixed.order.as_tuple()


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

    def test_a_cell_that_fails_at_a_later_origin_is_a_failed_cell(self, tmp_path):
        # Origin 0's five training months hold sarimax(1,0,0) with two
        # regressors; origin 1's four do not. The manual cell fails at
        # origin 1 and, like a cell that fails at origin 0, leaves no
        # forecast, selection or model in any of the run's files.
        run = tmp_path / "run"
        config = quick_config(
            datasets=(synth_dataset(n_months=40),),
            ranges=(RangeSpec(M(2016, 1), M(2016, 5)),),
            methods=(MethodSpec("none"), MethodSpec("manual", manual_ids=("ind01", "ind02"))),
            rolling_origins=2, out_dir=str(run),
        )
        table, _ = run_experiment(config)
        none, manual = table.cells.values()
        assert (none.error, manual.error) == (None, "InsufficientData")
        assert (manual.mae, manual.n_exog, manual.forecast, manual.selected_ids, manual.selection,
                manual.model_doc) == (None, None, (), (), None, None)
        forecasts = (run / "forecasts_synth-0_2016-01..2016-05.csv").read_text().splitlines()
        assert forecasts[0] == 'period,actual,"none / sarimax(1,0,0)(0,0,0)_12"'
        errors = (run / "errors.csv").read_text().splitlines()
        assert len(errors) == 1 + 12 and not [line for line in errors if ",manual," in line]
        assert [p.name for p in (run / "cells").iterdir()] == [f"{experiment.file_stem(*none.key)}.csv"]
        stored = next(c for c in json.loads((run / "artifacts.json").read_text())["cells"]
                      if c["method"] == "manual")
        assert (stored["fitted"], stored["selection"], stored["forecast"]) == (None, None, [])
        assert reload_run(run).cells[manual.key] == manual

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
        base_table, _ = run_experiment(config)
        # Origin 1 of either range ends one month before the range does.
        self._raise_when(monkeypatch, "correlation_select", lambda c: c.frame.end == M(2021, 3))
        with caplog.at_level("WARNING", logger="exocast.experiment"):
            table, _ = run_experiment(config)
        failed = [k for k in table.cells if k[2] == "correlation"]
        assert len(failed) == 4
        assert [r.message.count("planted failure") for r in caplog.records] == [1] * 4
        for key, cell in table.cells.items():
            if key in failed:
                assert cell.error == "InsufficientData", key
                # Origin 0 finished, yet a cell that fails at any origin
                # keeps none of what it made there.
                assert (cell.mae, cell.forecast, cell.selected_ids, cell.selection,
                        cell.model_doc) == (None, (), (), None, None), key
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
        # Each cell's fitted document in artifacts.json is the full model:
        # reloaded and run on the cell's training frame, it reproduces the
        # cell's forecast CSV bit for bit, for either model.
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
        cells = json.loads((tmp_path / "run" / "artifacts.json").read_text())["cells"]
        fitted_cells = [cell for cell in cells if cell["fitted"] is not None]
        assert len(fitted_cells) == sum(not c.failed for c in table.cells.values()) == 16
        schemas = set()
        for cell in fitted_cells:
            schemas.add(cell["fitted"]["schema"])
            train, transform = frames[(cell["dataset"], cell["range"])]
            future = models.regressor_forecasts(train, config.horizon)
            fitted = models.from_doc(cell["fitted"])
            predicted = transform.invert(models.forecast(fitted, config.horizon, future))
            key = (cell["dataset"], cell["range"], cell["method"], cell["model"])
            name = experiment.file_stem(*key)
            stored = read_series_csv(tmp_path / "run" / "cells" / f"{name}.csv")
            assert predicted.values == stored.values, name
        assert schemas == {"exocast.sarimax.fitted/3", "exocast.additive.fitted/3"}


class TestSharedForwardDesign:
    # Forward selection scores each subset of one validation split with its
    # own fit, and a whole round from one design of every subset.
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
        sub_train, held_out = split_train_test(train, 12)
        future = models.regressor_forecasts(sub_train, 12)
        actual = held_out.target.require_complete()
        validation = models.Validation(train, 12)
        for subset in subsets:
            fitted = models.fit(spec, sub_train.with_indicators(subset))
            direct = models.forecast(fitted, 12, future).require_complete()
            own = models.fit(spec, validation.train.with_indicators(subset))
            got = models.forecast(own, 12, validation.future).require_complete()
            assert np.array_equal(got, direct), subset
            assert validation.score(spec, subset) == mae(actual, direct), subset

    ROUND_SPECS = {
        **SPECS,
        "100": ModelSpec("sarimax", order=SarimaxOrder(p=1)),
        "100x100_12": ModelSpec("sarimax", order=SarimaxOrder(p=1, P=1)),
        "200": ModelSpec("sarimax", order=SarimaxOrder(p=2)),
        "101": ModelSpec("sarimax", order=SarimaxOrder(p=1, q=1)),
    }

    @pytest.mark.parametrize("name", ROUND_SPECS)
    def test_every_round_scores_as_the_per_subset_path(self, name):
        # Least squares without a ridge and MA orders have no round scorer.
        spec = self.ROUND_SPECS[name]
        _, _, train, _ = next(training_frames(quick_config()))
        validation = models.Validation(train, 12)
        score_round = validation.round_scorer(spec)
        assert (score_round is None) == (name in ("ridge0", "101"))
        selection = forward_select(CandidateSet(train), lambda s: validation.score(spec, s),
                                   cap=4, score_round=score_round)
        counts = selection.diagnostics["round_scoring"]
        assert counts["batch"] + counts["per_subset"] == 6 + 5 + 4 + 3
        if score_round is None:
            assert counts["batch"] == 0
            return
        assert counts["batch"] > 0
        path = selection.diagnostics["greedy_path"]
        for size in range(len(path)):
            current = tuple(path[:size])
            remaining = tuple(i for i in train.indicator_ids if i not in current)
            for cid, score in zip(remaining, score_round(current, remaining)):
                expected = validation.score(spec, current + (cid,))
                assert np.isnan(score) or abs(score - expected) <= 1e-9 * expected, (current, cid)

    def test_a_near_duplicate_is_left_to_the_per_subset_path(self):
        # Next to ind01, a copy of it plus 1e-7 noise makes the normal
        # equations too ill-conditioned to stand in for least squares: solved
        # in the batch, its score would be off by about 1e-4.
        _, _, train, _ = next(training_frames(quick_config()))
        x = np.asarray(train.indicator("ind01").values)
        near = x + 1e-7 * np.random.default_rng(0).normal(size=len(x))
        near = MonthlySeries("near", train.start, near)
        frame = align_merge(train.target, [*train.indicators, near])
        spec = ModelSpec("sarimax", order=SarimaxOrder(p=1))
        validation = models.Validation(frame, 12)
        candidates = frame.indicator_ids[1:]
        scores = validation.round_scorer(spec)(("ind01",), candidates)
        assert [np.isnan(score) for score in scores] == [i == "near" for i in candidates]
        for cid, score in zip(candidates[:-1], scores):
            expected = validation.score(spec, ("ind01", cid))
            assert abs(score - expected) <= 1e-9 * expected, cid

    def test_exact_ties_choose_alike_through_both_paths(self):
        # A copy of ind01 scores as ind01, and a constant adds nothing to the
        # intercept; the two paths round such ties differently, by 5e-14.
        config = quick_config(datasets=(synth_dataset(0, n_indicators=10),))
        _, _, train, _ = next(training_frames(config))
        ind01 = train.indicator("ind01")
        frame = align_merge(train.target, [
            *train.indicators, MonthlySeries("dup", train.start, ind01.values),
            MonthlySeries("const", train.start, [0.5] * len(train)),
        ])
        for spec in (ModelSpec("sarimax", order=SarimaxOrder(p=1)),
                     ModelSpec("additive", additive_config=LEAN_ADDITIVE)):
            validation = models.Validation(frame, 12)

            def score(subset):
                return validation.score(spec, subset)

            batched = forward_select(CandidateSet(frame), score, cap=10,
                                     score_round=validation.round_scorer(spec))
            per_subset = forward_select(CandidateSet(frame), score, cap=10)
            assert batched.diagnostics["round_scoring"]["batch"] > 0
            assert batched.selected_ids == per_subset.selected_ids, spec.label
            path = batched.diagnostics["greedy_path"]
            assert path == per_subset.diagnostics["greedy_path"], spec.label
            assert path.index("ind01") < path.index("dup"), spec.label
            assert "const" not in batched.selected_ids, spec.label

    def test_criterion_08_selections_match_the_per_subset_path(self):
        models_ = (ModelSpec("sarimax", order=SarimaxOrder(p=1)),
                   ModelSpec("additive", additive_config=LEAN_ADDITIVE))
        for seed in range(10):
            config = quick_config(datasets=(synth_dataset(seed, n_indicators=10),))
            _, _, train, _ = next(training_frames(config))
            for spec in models_:
                batched = experiment.select(MethodSpec("forward"), spec, train, 12, forward_cap=10)
                validation = models.Validation(train, 12)
                per_subset = forward_select(
                    CandidateSet(train), lambda s: validation.score(spec, s), cap=10)
                assert batched.selected_ids == per_subset.selected_ids, (seed, spec.label)
                assert ([s for s, _ in batched.trace.entries]
                        == [s for s, _ in per_subset.trace.entries]), (seed, spec.label)
                assert batched.diagnostics["round_scoring"] == {"batch": 55, "per_subset": 0}

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
    @pytest.mark.parametrize("key", ["target_threshold", "mutual_threshold"])
    def test_a_nan_threshold_is_refused(self, key):
        with pytest.raises(ValueError, match=fr"correlation method {key} must be in \[0, 1\], got nan"):
            MethodSpec("correlation", **{key: float("nan")})

    @pytest.mark.parametrize("name", ["correlation", "forward"])
    def test_a_threshold_at_its_default_is_taken_by_any_method(self, name):
        # A field holding its default is a key the entry did not give.
        assert MethodSpec(name, target_threshold=0.75) == MethodSpec(name)

    def test_only_forward_selection_reads_the_model(self):
        methods = [MethodSpec(n) for n in ("none", "correlation", "lasso", "forward")]
        methods.append(MethodSpec("manual", manual_ids=("x",)))
        assert [m.name for m in methods if m.reads_model] == ["forward"]

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

    def test_duplicate_range_labels_rejected(self):
        with pytest.raises(ValueError, match="range labels must be unique"):
            quick_config(ranges=(RangeSpec(M(2016, 1), M(2021, 4)),) * 2)

    def test_dataset_labels_that_name_the_same_files_rejected(self):
        # Both would write forecasts_a_b_<range>.csv and cells/a_b__....csv.
        with pytest.raises(ValueError, match="dataset labels 'a/b' and 'a_b' name the same files"):
            quick_config(datasets=(synth_dataset(label="a/b"), synth_dataset(seed=1, label="a_b")))

    def test_two_grids_of_one_size_share_a_config(self):
        grids = (ModelSpec("sarimax", grid=(SarimaxOrder(), SarimaxOrder(p=1))),
                 ModelSpec("sarimax", grid=(SarimaxOrder(), SarimaxOrder(p=2))))
        config = quick_config(models=grids)
        assert [m.label for m in config.models] == [
            "sarimax[grid:(0,0,0)(0,0,0)_12;(1,0,0)(0,0,0)_12]",
            "sarimax[grid:(0,0,0)(0,0,0)_12;(2,0,0)(0,0,0)_12]",
        ]

    def test_dataset_label_with_separator_rejected(self):
        with pytest.raises(ValueError, match="may not contain"):
            quick_config(datasets=(synth_dataset(label="a @ b"),))
