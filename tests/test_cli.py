import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exocast
from exocast import models as models_module
from exocast.cli import main
from exocast.experiment import load_config, training_frames
from exocast.series import read_series_csv, write_series_csv


SARIMAX = {"name": "sarimax", "order": [1, 0, 0, 0, 0, 0, 12]}
ADDITIVE = {"name": "additive", "auto": True}


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


def test_import_loads_no_scipy():
    # scipy.optimize is most of the start-up time; only a SARIMAX fit needs
    # it. requests costs tens of milliseconds more; only a live fetch needs it.
    src = str(Path(exocast.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, exocast.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'requests')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
        assert len(truth["driver_ids"]) == 1
        assert (out / "ind01.csv").exists()

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

    def test_forecast_matches_a_document_without_a_start_on_its_end(self, tmp_path):
        config = write_experiment_config(
            tmp_path, methods=["none"], ranges=(("2016-01", "2021-04"), ("2017-01", "2020-12")),
        )
        out = tmp_path / "models"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
        model_file = next(p for p in out.glob("synth-0__2016-01..2021-04__*.json")
                          if not p.name.endswith("selection.json"))
        doc = json.loads(model_file.read_text())
        del doc["train_start"]  # as written before the start was recorded
        model_file.write_text(json.dumps(doc))
        assert main(["forecast", "--config", str(config), "--model-file", str(model_file),
                     "--out", str(tmp_path / "fc")]) == 0

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


class TestFetchCommand:
    def test_offline_fetch_with_fixtures(self, tmp_path, capsys):
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
        cache = tmp_path / "cache"
        rc = main([
            "fetch", "--cache-dir", str(cache), "--since", "2016-01",
            "--keywords", str(keywords), "--offline",
            "--catalog-fixture", str(fixtures / "toc.json"),
            "--dataset-fixture-dir", str(fixtures),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "monthly      -> 1" in printed
        assert (cache / "manifest.json").exists()
        assert (cache / "series" / "STS_A.json").is_file()
