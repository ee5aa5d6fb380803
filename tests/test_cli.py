import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exocast
from exocast import models as models_module
from exocast.cli import main
from exocast.errors import parse_json
from exocast.eurostat import list_cached_series
from exocast.experiment import MethodSpec, file_stem, load_config, select, training_frames
from exocast.selection import save_result
from exocast.series import Month, MonthlySeries, read_series_csv, write_series_csv


SARIMAX = {"name": "sarimax", "order": [1, 0, 0, 0, 0, 0, 12]}
ADDITIVE = {"name": "additive", "auto": True}
LEAN_ADDITIVE = {"name": "additive", "config": {
    "n_changepoints": 2, "seasonalities": [[12.0, 2]], "ar_lags": 2, "regressor_lags": 8,
    "ridge_lambda": 1.0}}


def write_experiment_config(tmp_path, out_dir=None, methods=None, months=76, models=(SARIMAX,),
                            ranges=(("2016-01", "2021-04"),)):
    doc = {
        "datasets": [
            {"label": "synth-0", "kind": "synthetic",
             "spec": {"n_months": months, "n_indicators": 4, "n_drivers": 1,
                      "driver_betas": [1.5], "noise_sigma": 0.5, "seed": 0}}
        ],
        "ranges": [{"start": start, "end": end} for start, end in ranges],
        "horizon": 12,
        "methods": methods or ["none", "correlation"],
        "models": list(models),
        "forward_cap": 4,
    }
    if out_dir:
        doc["out_dir"] = str(out_dir)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def with_seeds(config, *seeds):
    """Rewrite `config` to hold its synthetic dataset once per seed, labelled
    synth-<seed>; the new document."""
    doc = json.loads(config.read_text())
    dataset = doc["datasets"][0]
    doc["datasets"] = [{**dataset, "label": f"synth-{seed}", "spec": {**dataset["spec"], "seed": seed}}
                       for seed in seeds]
    config.write_text(json.dumps(doc))
    return doc


def test_import_loads_no_scipy():
    # scipy is most of the start-up time and memory; only a SARIMAX start
    # that fails L-BFGS-B's iteration-0 test needs it. requests costs tens of
    # milliseconds more; only a live fetch needs it.
    src = str(Path(exocast.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, exocast.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'requests')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_experiment_loads_no_scipy(tmp_path):
    # The paper's grid fits SARIMAX(1,0,0) from certified least-squares
    # starts and the additive model by a ridge solve: neither needs scipy.
    config = write_experiment_config(tmp_path, methods=["none", "forward"],
                                     models=(SARIMAX, LEAN_ADDITIVE))
    src = str(Path(exocast.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys; from exocast.cli import main; "
        f"rc = main(['experiment', '--config', {str(config)!r}, '--out', {str(tmp_path / 'run')!r}]); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "0 []"
    assert len(list((tmp_path / "run" / "cells").iterdir())) == 4


class TestSynthCommand:
    def test_writes_series_and_truth(self, tmp_path, capsys):
        out = tmp_path / "data"
        rc = main([
            "synth", "--out", str(out), "--months", "30", "--indicators", "3",
            "--drivers", "1", "--betas", "2.0", "--seed", "4",
        ])
        assert rc == 0
        target = read_series_csv(out / "target.csv")
        assert len(target) == 30
        truth = json.loads((out / "truth.json").read_text())
        assert truth["schema"] == "exocast.synth.truth/1"
        assert len(truth["driver_ids"]) == 1
        assert (out / "ind01.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--drivers", "2", "--betas", "1.0"], "error: synth: driver_betas has 1 entries for 2 drivers"),
        (["--betas", "x"], "error: --betas 'x' is not a comma-separated list of numbers"),
        (["--months", "0"], "error: synth: n_months and n_indicators must be positive"),
        (["--noise", "nan"], "error: synth: noise_sigma must be finite, got nan"),
        (["--drivers", "1", "--betas", "inf"], "error: synth: driver_betas must be finite, got inf"),
    ], ids=["too-few-betas", "betas-not-numbers", "no-months", "nan-noise", "infinite-beta"])
    def test_a_bad_spec_is_one_error_line(self, tmp_path, capsys, flags, message):
        rc = main(["synth", "--out", str(tmp_path / "data"), *flags])
        assert (rc, capsys.readouterr().err) == (2, message + "\n")
        assert not (tmp_path / "data").exists()

    def test_deterministic_via_seed(self, tmp_path):
        for name in ("a", "b"):
            main(["synth", "--out", str(tmp_path / name), "--months", "24",
                  "--indicators", "2", "--drivers", "0", "--seed", "7"])
        assert (tmp_path / "a" / "target.csv").read_bytes() == (
            tmp_path / "b" / "target.csv"
        ).read_bytes()


class TestExperimentCommand:
    def test_full_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        config = write_experiment_config(tmp_path, out_dir=out)
        rc = main(["experiment", "--config", str(config)])
        assert rc == 0
        assert (out / "results.csv").exists()
        assert (out / "results.md").exists()
        assert (out / "artifacts.json").exists()
        printed = capsys.readouterr().out
        assert "none / sarimax" in printed

    def test_failed_cell_exit_nonzero(self, tmp_path):
        doc = json.loads(write_experiment_config(tmp_path).read_text())
        doc["models"] = [{"name": "sarimax", "order": [70, 0, 0, 0, 0, 0, 12]}]
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        rc = main(["experiment", "--config", str(config), "--out", str(tmp_path / "r")])
        assert rc == 1

    def test_print_schema(self, capsys):
        rc = main(["experiment", "--print-schema"])
        assert rc == 0
        assert "datasets" in capsys.readouterr().out

    def test_missing_config_is_an_error(self, capsys):
        rc = main(["experiment"])
        assert rc == 2
        assert "config" in capsys.readouterr().err


class TestSelectFitForecast:
    def test_select_writes_results(self, tmp_path, capsys):
        config = write_experiment_config(tmp_path, methods=["correlation", "forward"])
        out = tmp_path / "sel"
        rc = main(["select", "--config", str(config), "--out", str(out)])
        assert rc == 0
        files = sorted(p.name for p in out.iterdir())
        assert any("correlation" in n for n in files)
        assert any("forward" in n for n in files)

    def test_select_writes_one_file_per_model_for_forward_only(self, tmp_path):
        # Forward selection reads the model, so it is run and named once per
        # model; a method that does not read it is run once.
        config = write_experiment_config(tmp_path, methods=["none", "forward"],
                                         models=(SARIMAX, LEAN_ADDITIVE))
        out = tmp_path / "sel"
        assert main(["select", "--config", str(config), "--out", str(out)]) == 0
        stem = "synth-0__2016-01..2021-04"
        assert sorted(p.name for p in out.iterdir()) == [
            f"{stem}__forward__additive.json",
            f"{stem}__forward__sarimax_1_0_0__0_0_0__12.json",
            f"{stem}__none.json",
        ]
        _, _, train, _ = next(training_frames(load_config(config)))
        expected = tmp_path / "expected.json"
        for model in (SARIMAX, LEAN_ADDITIVE):
            spec = models_module.spec_from_config(model)
            save_result(select(MethodSpec("forward"), spec, train, 12, 4), expected)
            written = out / f"{stem}__forward__{file_stem(spec.label)}.json"
            assert written.read_bytes() == expected.read_bytes()

    def test_select_and_fit_choose_a_grid_order_first(self, tmp_path):
        # Both commands turn the grid into the order `models.with_order`
        # chooses on the training frame, then select and fit as that order.
        grid = {"name": "sarimax", "grid": [[0, 0, 0, 0, 0, 0, 12], [1, 0, 0, 0, 0, 0, 12]]}
        config = write_experiment_config(tmp_path, methods=["none", "forward"], models=[grid])
        _, _, train, _ = next(training_frames(load_config(config)))
        chosen = models_module.with_order(models_module.spec_from_config(grid), train, 12).order
        (tmp_path / "fixed").mkdir()
        fixed = write_experiment_config(tmp_path / "fixed", methods=["none", "forward"],
                                        models=[{"name": "sarimax", "order": list(chosen.as_tuple())}])
        for path, out in ((config, "sel"), (fixed, "fixed-sel")):
            assert main(["select", "--config", str(path), "--out", str(tmp_path / out)]) == 0
        (selected,) = (tmp_path / "sel").glob("*__forward__*.json")
        (expected,) = (tmp_path / "fixed-sel").glob("*__forward__*.json")
        assert selected.read_bytes() == expected.read_bytes()
        out = tmp_path / "models"
        assert main(["fit", "--config", str(config), "--method", "forward", "--out", str(out)]) == 0
        (model_file,) = (p for p in out.iterdir() if not p.name.endswith("selection.json"))
        assert json.loads(model_file.read_text())["order"] == list(chosen.as_tuple())
        (selection,) = out.glob("*.selection.json")
        assert selection.read_bytes() == selected.read_bytes()

    @pytest.mark.parametrize("model", [SARIMAX, ADDITIVE], ids=["sarimax", "additive"])
    def test_fit_then_forecast(self, tmp_path, model):
        config = write_experiment_config(tmp_path, methods=["correlation"], models=[model])
        models = tmp_path / "models"
        rc = main(["fit", "--config", str(config), "--out", str(models)])
        assert rc == 0
        model_file = next(p for p in models.iterdir() if not p.name.endswith("selection.json"))
        fc_dir = tmp_path / "fc"
        rc = main([
            "forecast", "--config", str(config), "--model-file", str(model_file),
            "--out", str(fc_dir), "--horizon", "6",
        ])
        assert rc == 0
        forecast = read_series_csv(fc_dir / "forecast.csv")
        assert len(forecast) == 6
        assert str(forecast.start) == "2021-05"

    @pytest.mark.parametrize("model", [SARIMAX, ADDITIVE], ids=["sarimax", "additive"])
    def test_forecast_continues_the_frame_the_model_was_fitted_on(self, tmp_path, model):
        config = write_experiment_config(
            tmp_path, methods=["correlation"], models=[model],
            ranges=(("2016-01", "2021-04"), ("2017-01", "2020-12")),
        )
        out = tmp_path / "models"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
        frames = {rng.label: train for _, rng, train, _ in training_frames(load_config(config))}
        assert len(frames) == 2
        for label, train in frames.items():
            model_file = next(p for p in out.glob(f"synth-0__{label}__*.json")
                              if not p.name.endswith("selection.json"))
            fc_dir = tmp_path / f"fc-{label}"
            assert main(["forecast", "--config", str(config), "--model-file", str(model_file),
                         "--out", str(fc_dir), "--horizon", "6"]) == 0
            fitted = models_module.from_doc(json.loads(model_file.read_text()))
            expected = models_module.forecast(fitted, 6, models_module.regressor_forecasts(train, 6))
            write_series_csv(expected, tmp_path / "expected.csv")
            assert (fc_dir / "forecast.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("model", [SARIMAX, ADDITIVE], ids=["sarimax", "additive"])
    def test_forecast_tells_apart_ranges_that_share_their_end(self, tmp_path, model):
        # The study protocol's dual-range grid: both frames end in 2021-04
        # and hold the same indicators, so only the range start tells them apart.
        config = write_experiment_config(
            tmp_path, methods=["correlation"], models=[model],
            ranges=(("2016-01", "2021-04"), ("2019-01", "2021-04")),
        )
        out = tmp_path / "models"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
        frames = {rng.label: train for _, rng, train, _ in training_frames(load_config(config))}
        for label, train in frames.items():
            model_file = next(p for p in out.glob(f"synth-0__{label}__*.json")
                              if not p.name.endswith("selection.json"))
            fc_dir = tmp_path / f"fc-{label}"
            assert main(["forecast", "--config", str(config), "--model-file", str(model_file),
                         "--out", str(fc_dir)]) == 0
            fitted = models_module.from_doc(json.loads(model_file.read_text()))
            expected = models_module.forecast(fitted, 12, models_module.regressor_forecasts(train, 12))
            assert read_series_csv(fc_dir / "forecast.csv").values == expected.values

    @pytest.mark.parametrize("model", [SARIMAX, ADDITIVE], ids=["sarimax", "additive"])
    def test_forecast_tells_apart_datasets_by_their_target_tail(self, tmp_path, model):
        # Synthetic datasets share their indicator ids, so two of them over
        # one range leave only the end of each target to tell the frames
        # apart: seed 3's ends on 0.485..., seed 4's on 1.0.
        config = write_experiment_config(tmp_path, methods=[{"name": "manual", "ids": ["ind01"]}],
                                         models=(model,))
        doc = with_seeds(config, 3, 4)
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "models")]) == 0
        for i, label in enumerate(("synth-3", "synth-4")):
            alone = tmp_path / label
            alone.mkdir()
            (alone / "config.json").write_text(json.dumps({**doc, "datasets": doc["datasets"][i:i + 1]}))
            model_file = next(p for p in (tmp_path / "models").glob(f"{label}__*.json")
                              if not p.name.endswith("selection.json"))
            for path, out in ((config, tmp_path / f"fc-{label}"), (alone / "config.json", alone / "fc")):
                assert main(["forecast", "--config", str(path), "--model-file", str(model_file),
                             "--out", str(out)]) == 0
            assert (tmp_path / f"fc-{label}" / "forecast.csv").read_bytes() == \
                (alone / "fc" / "forecast.csv").read_bytes()

    def test_forecast_refuses_a_retired_sarimax_document(self, tmp_path, capsys):
        config = write_experiment_config(tmp_path, methods=["none"])
        out = tmp_path / "models"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
        (model_file,) = out.glob("*__none__sarimax*[0-9].json")
        doc = json.loads(model_file.read_text())
        assert doc["schema"] == "exocast.sarimax.fitted/3"
        # A /2 document also held the pre-sample mean, whether the fit used
        # it, and params.sigma2; a /1 document besides recorded the target's
        # normalization.
        second = {**doc, "schema": "exocast.sarimax.fitted/2", "mean_conditioning": True,
                  "presample_mean": 0.0, "params": {**doc["params"], "sigma2": 1.0}}
        first = {**second, "schema": "exocast.sarimax.fitted/1", "normalization": None}
        for retired in (first, second):
            model_file.write_text(json.dumps(retired))
            capsys.readouterr()
            rc = main(["forecast", "--config", str(config), "--model-file", str(model_file),
                       "--out", str(tmp_path / "fc")])
            assert (rc, capsys.readouterr().err) == (2, (
                f"error: {model_file}: schema '{retired['schema']}' is not "
                "exocast.sarimax.fitted/3 or exocast.additive.fitted/3; fit the model again\n"))
            assert not (tmp_path / "fc").exists()

    def test_forecast_refuses_a_retired_additive_document(self, tmp_path, capsys):
        config = write_experiment_config(tmp_path, methods=["correlation"], models=(ADDITIVE,))
        out = tmp_path / "models"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
        model_file = next(p for p in out.iterdir() if not p.name.endswith("selection.json"))
        doc = json.loads(model_file.read_text())
        assert doc["schema"] == "exocast.additive.fitted/3"
        # A /2 document also stored its design columns, `layout`; a /1
        # document besides named its regressors `indicator_ids` and held the
        # in-sample fit.
        layout = [list(column) for column in models_module.from_doc(doc).layout]
        second = {**doc, "schema": "exocast.additive.fitted/2", "layout": layout}
        first = {("indicator_ids" if key == "regressor_ids" else key): value
                 for key, value in second.items()}
        first.update(schema="exocast.additive.fitted/1", fitted_values=[0.0], fitted_start="2016-02")
        for retired in (first, second):
            model_file.write_text(json.dumps(retired))
            capsys.readouterr()
            rc = main(["forecast", "--config", str(config), "--model-file", str(model_file),
                       "--out", str(tmp_path / "fc")])
            assert (rc, capsys.readouterr().err) == (2, (
                f"error: {model_file}: schema '{retired['schema']}' is not "
                "exocast.sarimax.fitted/3 or exocast.additive.fitted/3; fit the model again\n"))
            assert not (tmp_path / "fc").exists()

    def test_select_and_fit_name_their_files_as_the_run_names_its_cells(self, tmp_path):
        # A label may hold characters a file name cannot, NUL and "/" among
        # them; every command names its files by `experiment.file_stem`.
        config = write_experiment_config(tmp_path, out_dir=tmp_path / "run",
                                         methods=["none", "forward"])
        doc = json.loads(config.read_text())
        doc["datasets"][0]["label"] = "syn\u0000th/0"
        config.write_text(json.dumps(doc))
        assert main(["experiment", "--config", str(config)]) == 0
        assert main(["select", "--config", str(config), "--out", str(tmp_path / "sel")]) == 0
        assert main(["fit", "--config", str(config), "--method", "forward",
                     "--out", str(tmp_path / "models")]) == 0
        (none_cell,), (forward_cell,) = (
            [p.stem for p in (tmp_path / "run" / "cells").glob(f"*__{method}__*")]
            for method in ("none", "forward"))
        selected = {p.name.removesuffix(".json") for p in (tmp_path / "sel").iterdir()}
        assert selected == {forward_cell, none_cell.split("__none__")[0] + "__none"}
        fitted = {p.name.removesuffix(".json") for p in (tmp_path / "models").iterdir()}
        assert fitted == {forward_cell, forward_cell + ".selection"}

    def test_forecast_rejects_an_ambiguous_training_frame(self, tmp_path, capsys):
        # Two datasets with the same range and indicators: nothing in the
        # model file tells their frames apart.
        config = write_experiment_config(tmp_path, methods=["none"])
        doc = json.loads(config.read_text())
        doc["datasets"].append({**doc["datasets"][0], "label": "synth-0b"})
        config.write_text(json.dumps(doc))
        out = tmp_path / "models"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
        model_file = next(p for p in out.glob("synth-0__2016-01..2021-04__*.json")
                          if not p.name.endswith("selection.json"))
        rc = main(["forecast", "--config", str(config), "--model-file", str(model_file),
                   "--out", str(tmp_path / "fc")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "synth-0 @ 2016-01..2021-04" in err and "synth-0b @ 2016-01..2021-04" in err
        assert not (tmp_path / "fc").exists()

    def test_forecast_rejects_frames_an_empty_tail_cannot_tell_apart(self, tmp_path, capsys):
        # SARIMAX(0,0,0) keeps no target value, so the datasets' different
        # ends cannot place it.
        config = write_experiment_config(tmp_path, methods=["none"], models=[
            {"name": "sarimax", "order": [0, 0, 0, 0, 0, 0, 12]}])
        with_seeds(config, 3, 4)
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "models")]) == 0
        model_file = next(p for p in (tmp_path / "models").glob("synth-3__*.json")
                          if not p.name.endswith("selection.json"))
        assert json.loads(model_file.read_text())["tail_values"] == []
        capsys.readouterr()
        rc = main(["forecast", "--config", str(config), "--model-file", str(model_file),
                   "--out", str(tmp_path / "fc")])
        assert (rc, capsys.readouterr().err) == (2, (
            "error: 2 training frames span 2016-01..2021-04, hold regressors [] and end with "
            "the model's target tail; need exactly one of: synth-3 @ 2016-01..2021-04, "
            "synth-4 @ 2016-01..2021-04\n"))
        assert not (tmp_path / "fc").exists()

    def test_forecast_refuses_a_sole_frame_that_does_not_end_with_the_tail(self, tmp_path, capsys):
        # A model fitted on seed 3 is not placed on the one frame of a config
        # that holds only seed 4, though range and regressor ids match.
        config = write_experiment_config(tmp_path, methods=[{"name": "manual", "ids": ["ind01"]}],
                                         models=(SARIMAX,))
        with_seeds(config, 3)
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "models")]) == 0
        model_file = next(p for p in (tmp_path / "models").glob("synth-3__*.json")
                          if not p.name.endswith("selection.json"))
        with_seeds(config, 4)
        capsys.readouterr()
        rc = main(["forecast", "--config", str(config), "--model-file", str(model_file),
                   "--out", str(tmp_path / "fc")])
        assert (rc, capsys.readouterr().err) == (2, (
            "error: 0 training frames span 2016-01..2021-04, hold regressors ['ind01'] and end "
            "with the model's target tail; need exactly one of: synth-4 @ 2016-01..2021-04\n"))
        assert not (tmp_path / "fc").exists()

    def test_fit_rejects_unconfigured_method(self, tmp_path, capsys):
        config = write_experiment_config(tmp_path)  # methods: none, correlation
        rc = main(["fit", "--config", str(config), "--method", "lasso",
                   "--out", str(tmp_path / "models")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "lasso" in err and "none, correlation" in err

    def test_fit_rejects_out_of_range_model_index(self, tmp_path, capsys):
        config = write_experiment_config(tmp_path, models=(SARIMAX, ADDITIVE))
        rc = main(["fit", "--config", str(config), "--model-index", "2",
                   "--out", str(tmp_path / "models")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--model-index 2" in err and "0 (sarimax" in err and "1 (additive" in err

    def test_forecast_rejects_unknown_schema(self, tmp_path, capsys):
        config = write_experiment_config(tmp_path)
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({"schema": "exocast.unknown/1"}))
        rc = main(["forecast", "--config", str(config), "--model-file", str(model_file),
                   "--out", str(tmp_path / "fc")])
        assert rc == 2
        assert "schema" in capsys.readouterr().err


class TestReportCommand:
    def test_report_round_trip(self, tmp_path):
        out = tmp_path / "run"
        config = write_experiment_config(tmp_path, out_dir=out, methods=["none", "forward"])
        assert main(["experiment", "--config", str(config)]) == 0
        before = (out / "results.csv").read_bytes()
        rerun = tmp_path / "report"
        rc = main(["report", "--run-dir", str(out), "--out", str(rerun)])
        assert rc == 0
        assert (rerun / "results.csv").read_bytes() == before
        assert (rerun / "score_development.csv").exists()

    def test_report_re_emits_a_run_without_parsing_its_fitted_documents(self, tmp_path):
        # A run written before exocast.sarimax.fitted/3 and
        # exocast.additive.fitted/3 still reports the same table: only
        # `forecast --model-file` checks a fitted document.
        out = tmp_path / "run"
        config = write_experiment_config(tmp_path, out_dir=out, models=(SARIMAX, ADDITIVE))
        assert main(["experiment", "--config", str(config)]) == 0
        doc = json.loads((out / "artifacts.json").read_text())
        schemas = [cell["fitted"]["schema"] for cell in doc["cells"]]
        assert sorted(schemas) == ["exocast.additive.fitted/3"] * 2 + ["exocast.sarimax.fitted/3"] * 2
        for cell, schema in zip(doc["cells"], schemas):
            cell["fitted"] = {"schema": schema.replace("/3", "/2")}
        old = tmp_path / "old"
        old.mkdir()
        (old / "artifacts.json").write_text(json.dumps(doc))
        assert main(["report", "--run-dir", str(old)]) == 0
        assert (old / "results.csv").read_bytes() == (out / "results.csv").read_bytes()

    def test_report_into_an_earlier_report_leaves_no_stale_plot_file(self, tmp_path):
        # The first run has two ranges and a forward cell; the second has
        # one range and no trace, so its report writes one forecasts file
        # and no score_development.csv.
        runs = []
        for name, methods, ranges in [
            ("two", ["none", "forward"], (("2016-01", "2021-04"), ("2017-01", "2021-04"))),
            ("one", ["none"], (("2016-01", "2021-04"),)),
        ]:
            (tmp_path / name).mkdir()
            config = write_experiment_config(tmp_path / name, out_dir=tmp_path / name / "run",
                                             methods=methods, ranges=ranges)
            assert main(["experiment", "--config", str(config)]) == 0
            runs.append(tmp_path / name / "run")
        for run in runs:
            assert main(["report", "--run-dir", str(run), "--out", str(tmp_path / "report")]) == 0
        assert main(["report", "--run-dir", str(runs[1]), "--out", str(tmp_path / "fresh")]) == 0
        listing = sorted(p.name for p in (tmp_path / "report").iterdir())
        assert listing == sorted(p.name for p in (tmp_path / "fresh").iterdir())
        assert "score_development.csv" not in listing
        assert len([name for name in listing if name.startswith("forecasts_")]) == 1


@pytest.mark.parametrize("text", ["[1e999]", "[-1e999]", '{"x": 1.0e400}', "[1.8e308]",
                                  f"[1{'0' * 400}]", f"[-1{'0' * 400}]"])
def test_parse_json_refuses_a_number_beyond_the_float_range(text):
    with pytest.raises(ValueError, match="beyond the float range"):
        parse_json(text)


def test_parse_json_reads_the_extremes_of_the_float_range():
    assert parse_json("[1.7976931348623157e308, -5e-324, 1e-999]") == [sys.float_info.max, -5e-324, 0.0]


class TestMalformedInput:
    """Bad input ends with exit code 2 and one `error:` line, never a
    traceback and never exit 1, which means that some cells failed."""

    def _fails_cleanly(self, capsys, argv, *words):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for word in words:
            assert word in err

    def _config(self, tmp_path, **changes):
        path = write_experiment_config(tmp_path)
        doc = json.loads(path.read_text())
        doc.update(changes)
        path.write_text(json.dumps(doc))
        return path

    def test_synthetic_spec_without_n_months(self, tmp_path, capsys):
        config = self._config(tmp_path, datasets=[
            {"label": "synth-0", "kind": "synthetic", "spec": {"n_indicators": 4, "seed": 0}}
        ])
        self._fails_cleanly(capsys, ["experiment", "--config", str(config)], str(config), "n_months")

    def test_synthetic_spec_with_a_non_finite_value(self, tmp_path, capsys):
        config = self._config(tmp_path, datasets=[
            {"label": "synth-0", "kind": "synthetic", "spec": {"n_months": 76, "noise_sigma": math.nan}}
        ])
        argv = ["experiment", "--config", str(config), "--out", str(tmp_path / "out")]
        self._fails_cleanly(capsys, argv, str(config), "the non-finite value NaN is not JSON")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["experiment", "select"])
    @pytest.mark.parametrize("cap", [0, True], ids=["zero", "true"])
    def test_forward_cap_that_is_not_a_positive_integer(self, tmp_path, capsys, command, cap):
        config = self._config(tmp_path, methods=["none", "forward"], forward_cap=cap)
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        message = ("forward_cap must be an integer >= 1, got 0" if cap == 0
                   else "config forward_cap must be an integer, got true")
        self._fails_cleanly(capsys, argv, str(config), message)
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        config = tmp_path / "absent.json"
        self._fails_cleanly(capsys, ["experiment", "--config", str(config)], str(config))

    def test_config_that_is_not_json(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{")
        self._fails_cleanly(capsys, ["select", "--config", str(config)], str(config))

    @pytest.mark.parametrize("changes, key", [
        ({"rolling_origin": 6}, "rolling_origin"),
        ({"preprocessing": {"smooth_window": 3, "detrended": True}}, "detrended"),
    ])
    def test_unknown_config_key(self, tmp_path, capsys, changes, key):
        config = self._config(tmp_path, **changes)
        self._fails_cleanly(capsys, ["experiment", "--config", str(config)], str(config), key)

    def test_report_on_an_unknown_schema(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "artifacts.json").write_text(json.dumps({"schema": "exocast.unknown/1"}))
        self._fails_cleanly(capsys, ["report", "--run-dir", str(run)], "exocast.unknown/1")

    @pytest.mark.parametrize("text, message", [
        ("[]", "JSON object"),
        ("{", "Expecting property name"),
        ('{"schema": "exocast.experiment.artifacts/3", "horizon": 12, "row_keys": [], '
         '"col_keys": []}', "lacks cells"),
    ], ids=["not-an-object", "not-json", "missing-key"])
    def test_report_on_malformed_artifacts(self, tmp_path, capsys, text, message):
        run = tmp_path / "run"
        run.mkdir()
        (run / "artifacts.json").write_text(text)
        self._fails_cleanly(capsys, ["report", "--run-dir", str(run)], "artifacts.json", message)

    def test_report_on_a_run_of_the_retired_layout(self, tmp_path, capsys):
        # A run written before selections and models moved into
        # artifacts.json is refused by its version, not read.
        run = tmp_path / "run"
        run.mkdir()
        (run / "artifacts.json").write_text(json.dumps({
            "schema": "exocast.experiment.artifacts/1", "horizon": 12, "row_keys": [],
            "col_keys": [], "cells": []}))
        self._fails_cleanly(capsys, ["report", "--run-dir", str(run), "--out", str(tmp_path / "r")],
                            str(run / "artifacts.json"), "'exocast.experiment.artifacts/1'",
                            "run the experiment again")
        assert not (tmp_path / "r").exists()

    def test_report_on_a_selection_without_its_method(self, tmp_path, capsys):
        run = tmp_path / "run"
        config = write_experiment_config(tmp_path, out_dir=run, methods=["none"])
        assert main(["experiment", "--config", str(config)]) == 0
        artifacts = run / "artifacts.json"
        doc = json.loads(artifacts.read_text())
        del doc["cells"][0]["selection"]["method"]
        artifacts.write_text(json.dumps(doc))
        self._fails_cleanly(capsys, ["report", "--run-dir", str(run), "--out", str(tmp_path / "r")],
                            str(artifacts), "lacks method")

    @pytest.mark.parametrize("edit, message", [
        (lambda cell: cell.update(forecast=cell["forecast"][:-1]),
         "holds 11 forecast values for 12 months"),
        (lambda cell: cell.update(error=None, mae=None), "has no error, so its mae must be a number, not null"),
        (lambda cell: cell.update(actual=cell["actual"][:-1]), "holds 11 actual values for 12 months"),
        (lambda cell: cell.update(months=cell["months"][:-1]), "holds 12 actual values for 11 months"),
        (lambda cell: cell.update(error="Planted"), "failed (Planted) but keeps an mae, forecast"),
    ], ids=["short-forecast", "no-error-and-no-mae", "short-actual", "short-months",
            "failed-with-a-forecast"])
    def test_report_on_a_cell_it_cannot_render(self, tmp_path, capsys, edit, message):
        # The first cell, forward / sarimax, succeeded; each edit leaves it
        # in neither of a cell's two states, and report writes nothing.
        run = tmp_path / "run"
        config = write_experiment_config(tmp_path, out_dir=run, methods=["none", "forward"])
        assert main(["experiment", "--config", str(config)]) == 0
        artifacts = run / "artifacts.json"
        doc = json.loads(artifacts.read_text())
        assert (doc["cells"][0]["method"], doc["cells"][0]["error"]) == ("forward", None)
        edit(doc["cells"][0])
        artifacts.write_text(json.dumps(doc))
        self._fails_cleanly(capsys, ["report", "--run-dir", str(run), "--out", str(tmp_path / "r")],
                            str(artifacts), message)
        assert not (tmp_path / "r").exists()

    def test_report_without_a_run(self, tmp_path, capsys):
        self._fails_cleanly(capsys, ["report", "--run-dir", str(tmp_path / "absent")], "artifacts.json")

    @pytest.mark.parametrize("flag", ["--keywords", "--catalog-fixture"])
    def test_fetch_with_a_missing_input_file(self, tmp_path, capsys, flag):
        absent = str(tmp_path / "absent.txt")
        argv = ["fetch", "--cache-dir", str(tmp_path / "cache"), "--since", "2016-01", "--offline",
                flag, absent]
        self._fails_cleanly(capsys, argv, flag, absent)
        assert not (tmp_path / "cache").exists()

    def test_fetch_with_an_empty_keyword_file(self, tmp_path, capsys):
        keywords = tmp_path / "kw.txt"
        keywords.write_text("\n  \n")
        argv = ["fetch", "--cache-dir", str(tmp_path / "cache"), "--since", "2016-01", "--offline",
                "--keywords", str(keywords)]
        self._fails_cleanly(capsys, argv, "--keywords", str(keywords))

    @pytest.mark.parametrize("text", [None, "{"])
    def test_forecast_with_a_missing_or_non_json_model_file(self, tmp_path, capsys, text):
        model_file = tmp_path / "model.json"
        if text is not None:
            model_file.write_text(text)
        argv = ["forecast", "--config", str(write_experiment_config(tmp_path)),
                "--model-file", str(model_file), "--out", str(tmp_path / "fc")]
        self._fails_cleanly(capsys, argv, "--model-file", str(model_file))

    def test_forecast_with_a_non_finite_constant_in_the_model_file(self, tmp_path, capsys):
        config = write_experiment_config(tmp_path, methods=["none"])
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "models")]) == 0
        model_file = next(p for p in (tmp_path / "models").iterdir()
                          if not p.name.endswith("selection.json"))
        doc = json.loads(model_file.read_text())
        doc["params"]["c"] = math.nan
        model_file.write_text(json.dumps(doc))
        assert '"c": NaN' in model_file.read_text()
        argv = ["forecast", "--config", str(config), "--model-file", str(model_file),
                "--out", str(tmp_path / "fc")]
        self._fails_cleanly(capsys, argv, str(model_file), "the non-finite value NaN is not JSON")
        assert not (tmp_path / "fc").exists()

    def test_forecast_with_a_model_file_that_is_not_an_object(self, tmp_path, capsys):
        model_file = tmp_path / "model.json"
        model_file.write_text("[]")
        argv = ["forecast", "--config", str(write_experiment_config(tmp_path)),
                "--model-file", str(model_file), "--out", str(tmp_path / "fc")]
        self._fails_cleanly(capsys, argv, "JSON object")

    @pytest.mark.parametrize("model, changes, message", [
        (SARIMAX, {"difference_regressors": True}, "difference_regressors"),
        (SARIMAX, {"params": None}, "lacks params"),
        (SARIMAX, {"order": [1, 0]}, "order must be [p,d,q,P,D,Q,s], got [1, 0]"),
        (SARIMAX, {"train_start": 2016}, "model train_start must be a YYYY-MM string, got 2016"),
        (SARIMAX, {"train_end": 2016}, "model train_end must be a YYYY-MM string, got 2016"),
        (SARIMAX, {"params": {"c": 0.0, "ar": ["x"]}},
         'params ar must be an array of numbers, got ["x"]'),
        (SARIMAX, {"params": {"c": 0.0, "beta": ["x"]}},
         'params beta must be an array of numbers, got ["x"]'),
        (SARIMAX, {"params": {"c": 0.0, "seasonal_ar": ""}},
         'params seasonal_ar must be an array of numbers, got ""'),
        (SARIMAX, {"params": {"c": 10 ** 400}}, f"the number 1{'0' * 400} is beyond the float range"),
        (SARIMAX, {"tail_residuals": ["x"]},
         'model tail_residuals must be an array of numbers, got ["x"]'),
        (ADDITIVE, {"train_start": 2016}, "model train_start must be a YYYY-MM string, got 2016"),
        (ADDITIVE, {"coefficients": ["x"]}, 'model coefficients must be an array of numbers, got ["x"]'),
        (ADDITIVE, {"coefficients": [[]]}, "model coefficients must be an array of numbers, got [[]]"),
        (ADDITIVE, {"regressor_tails": [["x"]]},
         'model regressor_tails must be an array of arrays of numbers, got [["x"]]'),
    ], ids=["differenced-regressors", "missing-key", "short-order", "sarimax-train-start-number",
            "sarimax-train-end-number", "ar-not-numbers", "beta-not-numbers", "seasonal-ar-a-string",
            "c-beyond-the-float-range", "tail-residuals-not-numbers", "additive-train-start-number",
            "coefficients-not-numbers", "coefficient-an-array", "regressor-tails-not-numbers"])
    def test_forecast_with_a_malformed_model_file(self, tmp_path, capsys, model, changes, message):
        config = write_experiment_config(tmp_path, methods=["correlation"], models=(model,))
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "models")]) == 0
        model_file = next(p for p in (tmp_path / "models").iterdir()
                          if not p.name.endswith("selection.json"))
        doc = {**json.loads(model_file.read_text()), **changes}
        model_file.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        argv = ["forecast", "--config", str(config), "--model-file", str(model_file),
                "--out", str(tmp_path / "fc")]
        self._fails_cleanly(capsys, argv, str(model_file), message)
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize("model, key, keep, message", [
        ({"name": "sarimax", "order": [1, 1, 0, 0, 0, 0, 12]}, "tail_values", 0,
         "tail_values and tail_residuals hold 0 and 0 values, not the 2 and 0"),
        ({"name": "sarimax", "order": [1, 1, 0, 0, 0, 0, 12]}, "tail_values", 1,
         "tail_values and tail_residuals hold 1 and 0 values, not the 2 and 0"),
        (ADDITIVE, "regressor_tails", 2, "fit leaves 12 each"),
        (ADDITIVE, "target_tail", 1, "target_tail holds 1 values"),
    ], ids=["sarimax-no-tail", "sarimax-short-tail", "additive-short-regressor-tails",
            "additive-short-target-tail"])
    def test_forecast_with_tails_other_than_fit_leaves(self, tmp_path, capsys, model, key, keep,
                                                       message):
        # A forecast reads exactly the tails a fit leaves: shorter ones
        # crashed it or continued from the wrong months.
        config = write_experiment_config(tmp_path, methods=["correlation"], models=(model,))
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "models")]) == 0
        model_file = next(p for p in (tmp_path / "models").iterdir()
                          if not p.name.endswith("selection.json"))
        doc = json.loads(model_file.read_text())
        if key == "regressor_tails":
            assert doc["regressor_ids"]
            doc[key] = [tail[len(tail) - keep:] for tail in doc[key]]
        else:
            doc[key] = doc[key][len(doc[key]) - keep:]
        model_file.write_text(json.dumps(doc))
        argv = ["forecast", "--config", str(config), "--model-file", str(model_file),
                "--out", str(tmp_path / "fc")]
        self._fails_cleanly(capsys, argv, str(model_file), message)
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize("method, model", [
        ({"name": "correlation", "target_threshold": "HUGE"}, SARIMAX),
        ("none", {"name": "additive", "config": {"ridge_lambda": "HUGE"}}),
    ], ids=["correlation-threshold", "ridge-lambda"])
    def test_config_number_beyond_the_float_range(self, tmp_path, capsys, method, model):
        config = write_experiment_config(tmp_path, methods=[method], models=(model,))
        config.write_text(config.read_text().replace('"HUGE"', "1e999"))
        argv = ["experiment", "--config", str(config), "--out", str(tmp_path / "out")]
        self._fails_cleanly(capsys, argv, str(config), "the number 1e999 is beyond the float range")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, edit, message", [
        (ADDITIVE, "cut-seasonal", "40 coefficients for the 41 design columns"),
        (ADDITIVE, "stored-layout", "unknown model keys: layout"),
        (ADDITIVE, "repeated-id", "duplicate regressor_ids: ['ind01', 'ind01']"),
        (SARIMAX, "repeated-id", "duplicate regressor_ids: ['ind01', 'ind01']"),
    ], ids=["additive-cut-seasonal", "additive-stored-layout", "additive-repeated-id",
            "sarimax-repeated-id"])
    def test_forecast_with_a_model_file_that_does_not_fit_its_design(self, tmp_path, capsys,
                                                                      model, edit, message):
        # An additive document stores no design columns: they follow from
        # its config and regressor_ids, which a forecast reads alone.
        config = write_experiment_config(tmp_path, methods=[{"name": "manual", "ids": ["ind01"]}],
                                         models=(model,))
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "models")]) == 0
        model_file = next(p for p in (tmp_path / "models").iterdir()
                          if not p.name.endswith("selection.json"))
        doc = json.loads(model_file.read_text())
        if edit == "cut-seasonal":
            layout = models_module.from_doc(doc).layout
            del doc["coefficients"][[tag for tag, _ in layout].index("S")]
        elif edit == "stored-layout":
            layout = [list(column) for column in models_module.from_doc(doc).layout]
            doc["layout"] = [["level", "intercept"], *layout[1:]]
        elif model is ADDITIVE:
            lags = 1 + doc["config"]["regressor_lags"]  # the L columns of ind01 end the design
            doc.update(regressor_ids=["ind01"] * 2, regressor_tails=doc["regressor_tails"] * 2,
                       coefficients=doc["coefficients"] + doc["coefficients"][-lags:])
        else:
            doc["regressor_ids"] *= 2
            doc["params"]["beta"] *= 2
        model_file.write_text(json.dumps(doc))
        argv = ["forecast", "--config", str(config), "--model-file", str(model_file),
                "--out", str(tmp_path / "fc")]
        self._fails_cleanly(capsys, argv, str(model_file), message)
        assert not (tmp_path / "fc").exists()

    def test_forecast_with_a_coefficient_beyond_the_float_range(self, tmp_path, capsys):
        config = write_experiment_config(tmp_path, methods=["none"], models=(ADDITIVE,))
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "models")]) == 0
        model_file = next(p for p in (tmp_path / "models").iterdir()
                          if not p.name.endswith("selection.json"))
        doc = json.loads(model_file.read_text())
        doc["coefficients"] = ["HUGE", *doc["coefficients"][1:]]
        model_file.write_text(json.dumps(doc).replace('"HUGE"', "1e999"))
        argv = ["forecast", "--config", str(config), "--model-file", str(model_file),
                "--out", str(tmp_path / "fc")]
        self._fails_cleanly(capsys, argv, str(model_file), "the number 1e999 is beyond the float range")
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_forecast_with_a_horizon_below_one(self, tmp_path, capsys, horizon):
        config = write_experiment_config(tmp_path, methods=["none"])
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "models")]) == 0
        model_file = next(p for p in (tmp_path / "models").iterdir()
                          if not p.name.endswith("selection.json"))
        argv = ["forecast", "--config", str(config), "--model-file", str(model_file),
                "--out", str(tmp_path / "fc"), "--horizon", horizon]
        self._fails_cleanly(capsys, argv, f"--horizon must be at least 1, got {horizon}")
        assert not (tmp_path / "fc").exists()


    @pytest.mark.parametrize("command", ["synth", "experiment", "select"])
    def test_negative_seed(self, tmp_path, capsys, command):
        argv = [command, "--seed", "-1", "--out", str(tmp_path / "out")]
        if command != "synth":
            argv += ["--config", str(write_experiment_config(tmp_path))]
        self._fails_cleanly(capsys, argv, "seed must be nonnegative, got -1")
        assert not (tmp_path / "out").exists()

    def test_repeated_range(self, tmp_path, capsys):
        range_ = {"start": "2016-01", "end": "2021-04"}
        config = self._config(tmp_path, ranges=[range_, range_])
        self._fails_cleanly(capsys, ["experiment", "--config", str(config)], str(config),
                            "range labels must be unique")

    @pytest.mark.parametrize("command", ["experiment", "select", "fit", "forecast"])
    def test_range_the_dataset_does_not_cover(self, tmp_path, capsys, command):
        # The dataset spans 2016-01..2019-04; the range starts two years earlier.
        config = write_experiment_config(tmp_path, months=40, ranges=(("2014-01", "2017-12"),))
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command == "forecast":
            (tmp_path / "full").mkdir()
            full = write_experiment_config(tmp_path / "full")
            assert main(["fit", "--config", str(full), "--out", str(tmp_path / "models")]) == 0
            model_file = next(p for p in (tmp_path / "models").iterdir()
                              if not p.name.endswith("selection.json"))
            argv += ["--model-file", str(model_file)]
        self._fails_cleanly(capsys, argv, "'synth-0' (2016-01..2019-04)",
                            "does not cover range 2014-01..2017-12")

    @pytest.mark.parametrize("command", ["experiment", "select"])
    @pytest.mark.parametrize("fault", ["missing", "non-consecutive", "disjoint", "non-finite"])
    def test_unreadable_dataset_file(self, tmp_path, capsys, command, fault):
        target, indicator = tmp_path / "target.csv", tmp_path / "ind01.csv"
        for path, first in ((target, 2016), (indicator, 2030 if fault == "disjoint" else 2016)):
            months = [f"{first + k // 12}-{k % 12 + 1:02d}" for k in range(76)]
            path.write_text("period,value\n" + "".join(f"{m},{k}\n" for k, m in enumerate(months)))
        if fault == "missing":
            target.unlink()
            message = f"cannot read {target}: [Errno 2] No such file or directory: '{target}'"
        elif fault == "non-consecutive":
            lines = indicator.read_text().splitlines(keepends=True)
            indicator.write_text("".join(lines[:5] + lines[6:]))
            message = f"cannot read {indicator}: {indicator}: non-consecutive period 2016-06 at row 6"
        elif fault == "non-finite":
            indicator.write_text(indicator.read_text().replace("2016-05,4\n", "2016-05,inf\n"))
            message = f"cannot read {indicator}: {indicator}: value 'inf' at row 6 is not a finite number"
        else:
            message = f"cannot align {target} with its indicators: month ranges have an empty"
        config = self._config(tmp_path, datasets=[
            {"label": "csv-0", "kind": "csv", "target": str(target), "indicators": [str(indicator)]}
        ])
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        self._fails_cleanly(capsys, argv, f"dataset 'csv-0': {message}")


class TestFlags:
    @pytest.mark.parametrize("argv, ignored", [
        (["report", "--run-dir", "run", "--config", "x.json"], "--config x.json"),
        (["experiment", "--config", "x.json", "--offline"], "--offline"),
    ], ids=["report-config", "experiment-offline"])
    def test_a_flag_the_command_does_not_read_exits_2(self, capsys, argv, ignored):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert f"unrecognized arguments: {ignored}" in capsys.readouterr().err


def fetch_argv(tmp_path, cache):
    """`exocast fetch` of one monthly dataset, STS_A, from fixtures into `cache`."""
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    catalog = {
        "datasets": [
            {"code": "STS_A", "title": "t", "frequency": "monthly",
             "dimensions": ["geo"], "earliest_period": "2015-01",
             "parameters": ["business"]},
            {"code": "NAMA_Q", "title": "q", "frequency": "quarterly",
             "dimensions": ["geo"], "earliest_period": "2010-01",
             "parameters": ["business"]},
        ]
    }
    (fixtures / "toc.json").write_text(json.dumps(catalog))
    months = [f"2015-{m:02d}" for m in range(1, 13)] + [f"2016-{m:02d}" for m in range(1, 13)]
    payload = {
        "id": ["geo", "time"],
        "size": [1, 24],
        "dimension": {
            "geo": {"category": {"index": {"AT": 0}}},
            "time": {"category": {"index": {m: i for i, m in enumerate(months)}}},
        },
        "value": {str(i): float(i) for i in range(24)},
    }
    (fixtures / "STS_A.json").write_text(json.dumps(payload))
    keywords = tmp_path / "kw.txt"
    keywords.write_text("business\n")
    return [
        "fetch", "--cache-dir", str(cache), "--since", "2016-01",
        "--keywords", str(keywords), "--offline",
        "--catalog-fixture", str(fixtures / "toc.json"),
        "--dataset-fixture-dir", str(fixtures),
    ]


class TestFetchCommand:
    def test_offline_fetch_with_fixtures(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(fetch_argv(tmp_path, cache)) == 0
        printed = capsys.readouterr().out
        assert "monthly      -> 1" in printed
        assert [p.name for p in cache.iterdir()] == ["cache.json"]
        assert [c.dataset_code for c in list_cached_series(cache)] == ["STS_A"]

    def test_a_write_that_fails_exits_2_naming_the_path(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        (cache / "cache.json.tmp").mkdir(parents=True)
        assert main(fetch_argv(tmp_path, cache)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert f"{cache / 'cache.json.tmp'}: Is a directory" in captured.err
        assert [p.name for p in cache.iterdir()] == ["cache.json.tmp"]

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(datasets=5), "catalog payload 'datasets' is not an array: 5"),
        (lambda doc: doc["datasets"][0].update(dimensions=5),
         "catalog entry 0 dimensions must be an array of strings, got 5"),
        (lambda doc: doc["datasets"][0].update(parameters=5),
         "catalog entry 0 parameters must be an array of strings, got 5"),
        (lambda doc: doc["datasets"][0].update(parameters="business"),
         'catalog entry 0 parameters must be an array of strings, got "business"'),
    ], ids=["datasets", "dimensions", "parameters", "parameters-a-string"])
    def test_catalog_array_that_is_not_an_array_exits_2(self, tmp_path, capsys, edit, message):
        cache = tmp_path / "cache"
        argv = fetch_argv(tmp_path, cache)
        catalog = Path(argv[argv.index("--catalog-fixture") + 1])
        doc = json.loads(catalog.read_text())
        edit(doc)
        catalog.write_text(json.dumps(doc))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {catalog}: {message}\n"
        assert not cache.exists()

    def test_since_that_is_not_a_month_exits_2(self, tmp_path, capsys):
        argv = ["fetch", "--cache-dir", str(tmp_path / "cache"), "--since", "2015-13", "--offline"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'2015-13'" in err
        assert not (tmp_path / "cache").exists()


# Each leaf of a document the commands read is replaced in turn by each of
# these; whatever the command makes of it, it must exit 0, 1 or 2.
MUTANTS = (5, "x", [], {}, None, True)


def leaves(doc, path=()):
    """The path of each leaf of `doc`: each key's value and each of the
    first two items of each array, and theirs in turn."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc[:2]) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from leaves(value, path + (key,))


def mutated(doc, path, value):
    """A copy of `doc` with `value` at `path`."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Each document the mutation test reads, by name: the document, the
    path of the part of it whose leaves are mutated, the file it is read
    from and the command that reads that file."""
    work = tmp_path_factory.mktemp("documents")
    additive = {"name": "additive", "config": {
        "seasonalities": [[12.0, 1]], "ar_lags": 1, "regressor_lags": 1, "ridge_lambda": 1.0,
        "events": [["promo", ["2017-12", "2018-12"]]], "future_known": ["ind02"]}}
    config = write_experiment_config(
        work, methods=[{"name": "manual", "ids": ["ind01", "ind02"]}, "forward"], months=52,
        models=({"name": "sarimax", "order": [1, 0, 1, 0, 0, 0, 12]}, additive),
        ranges=(("2016-01", "2018-04"),))
    found = {}
    for index, name in enumerate(("sarimax", "additive")):
        out = work / name
        assert main(["fit", "--config", str(config), "--method", "manual",
                     "--model-index", str(index), "--out", str(out)]) == 0
        model = next(p for p in out.iterdir() if not p.name.endswith(".selection.json"))
        found[name] = (json.loads(model.read_text()), (), model,
                       ["forecast", "--config", str(config), "--model-file", str(model),
                        "--out", str(work / "fc")])

    run = work / "run"
    assert main(["experiment", "--config", str(config), "--out", str(run)]) == 0
    artifacts = json.loads((run / "artifacts.json").read_text())
    for cell in artifacts["cells"]:  # report does not parse them; the fitted ones above cover them
        cell["fitted"] = {"schema": cell["fitted"]["schema"]}
    i = next(i for i, cell in enumerate(artifacts["cells"]) if cell["method"] == "forward")
    assert artifacts["cells"][i]["selection"]["trace"]["entries"]
    found["artifacts"] = (artifacts, ("cells", i), run / "artifacts.json",
                          ["report", "--run-dir", str(run), "--out", str(work / "report")])

    cache = work / "cache"
    argv = fetch_argv(work, cache)
    assert main(argv) == 0
    catalog = Path(argv[argv.index("--catalog-fixture") + 1])
    found["catalog"] = (json.loads(catalog.read_text()), ("datasets", 0), catalog, argv)

    # The cache holds STS_A over 2016, the one indicator of a target over
    # the same months.
    target = work / "target.csv"
    write_series_csv(MonthlySeries("target", Month(2016, 1), [math.sin(k) for k in range(12)]), target)
    (work / "cached").mkdir()
    cached = work / "cached" / "config.json"
    cached.write_text(json.dumps({
        "datasets": [{"label": "m", "kind": "eurostat_cache", "target": str(target),
                      "cache_root": str(cache)}],
        "ranges": [{"start": "2016-01", "end": "2016-09"}], "horizon": 3,
        "methods": [{"name": "manual", "ids": ["STS_A"]}],
        "models": [{"name": "sarimax", "order": [1, 0, 0, 0, 0, 0, 12]}]}))
    argv = ["experiment", "--config", str(cached), "--out", str(work / "cached" / "run")]
    assert main(argv) == 0
    doc = json.loads((cache / "cache.json").read_text())
    for part in ("datasets", "series"):
        found[part] = (doc, (part, 0), cache / "cache.json", argv)
    return found


@pytest.mark.parametrize("value", MUTANTS, ids=json.dumps)
@pytest.mark.parametrize("name", ["sarimax", "additive", "artifacts", "catalog", "datasets", "series"])
def test_no_mutated_document_ends_in_a_traceback(documents, name, value, capsys):
    doc, part, path, argv = documents[name]
    inner = doc
    for key in part:
        inner = inner[key]
    failures = []
    for leaf in leaves(inner, part):
        path.write_text(json.dumps(mutated(doc, leaf, value)))
        try:
            rc = main(argv)
        except Exception as exc:  # noqa: BLE001 - every traceback is a failure
            failures.append(f"{'.'.join(map(str, leaf))}: {type(exc).__name__}: {exc}")
        else:
            if rc not in (0, 1, 2):
                failures.append(f"{'.'.join(map(str, leaf))}: exit {rc}")
    capsys.readouterr()
    assert not failures, "\n".join(failures)
