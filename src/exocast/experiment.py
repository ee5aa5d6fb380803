"""Experiment orchestration: datasets x training ranges x selection methods
x models, scored by out-of-sample MAE on the held-back terminal window.

Test isolation is structural: the held-out window is separated before any
preprocessing, selection or fitting happens, so nothing downstream can read
it until scoring. All transforms are fitted on the training range only and
inverted on the forecast before scoring on the raw scale.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Iterator

import numpy as np

from . import models
from .errors import ConfigError, ExocastError, SchemaError
from .eurostat import list_cached_series
from .models import ModelSpec  # re-exported: experiment configs are built from here
from .selection import (
    CandidateSet,
    SelectionResult,
    SelectionTrace,
    correlation_select,
    export_trace_csv,
    forward_select,
    lasso_select,
    save_result,
    validate_manual,
)
from .series import (
    AlignedFrame,
    Month,
    MonthlySeries,
    NormalizationParams,
    SplitSpec,
    align_merge,
    denormalize,
    interpolate_missing,
    linear_detrend,
    mae,
    min_max_normalize,
    read_series_csv,
    retrend,
    smooth,
    split_train_test,
    write_series_csv,
)
from .synth import SyntheticSpec, SyntheticTruth, generate_synthetic

__all__ = [
    "PreprocessingSpec",
    "RangeSpec",
    "MethodSpec",
    "ModelSpec",
    "DatasetSpec",
    "ExperimentConfig",
    "CellResult",
    "ResultsTable",
    "RunArtifacts",
    "run_experiment",
    "training_frames",
    "select",
    "render_grid",
    "emit_table",
    "emit_plot_data",
    "load_config",
    "config_schema_text",
]

log = logging.getLogger(__name__)

METHOD_NAMES = ("none", "correlation", "lasso", "forward", "manual")


@dataclass(frozen=True)
class PreprocessingSpec:
    smooth_window: int = 1
    detrend: bool = False
    normalize: bool = True

    def __post_init__(self):
        if self.smooth_window < 1 or self.smooth_window % 2 == 0:
            raise ValueError("smooth_window must be odd and positive")


@dataclass(frozen=True)
class RangeSpec:
    start: Month
    end: Month

    def __post_init__(self):
        if self.start.months_until(self.end) < 0:
            raise ValueError(f"range {self.start}..{self.end} is empty")

    @property
    def label(self) -> str:
        return f"{self.start}..{self.end}"

    @property
    def length(self) -> int:
        return self.start.months_until(self.end) + 1


@dataclass(frozen=True)
class MethodSpec:
    name: str
    manual_ids: tuple[str, ...] = ()
    target_threshold: float = 0.75
    mutual_threshold: float = 0.30

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.name!r}")
        if self.name == "manual" and not self.manual_ids:
            raise ValueError("manual method needs ids")

    @property
    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class DatasetSpec:
    label: str
    kind: str  # synthetic | csv | eurostat_cache
    synthetic: SyntheticSpec | None = None
    target_csv: str | None = None
    indicator_csvs: tuple[str, ...] = ()
    cache_root: str | None = None

    def __post_init__(self):
        if self.kind == "synthetic" and self.synthetic is None:
            raise ValueError("synthetic dataset needs a spec")
        if self.kind == "csv" and self.target_csv is None:
            raise ValueError("csv dataset needs a target path")
        if self.kind == "eurostat_cache" and (self.cache_root is None or self.target_csv is None):
            raise ValueError("eurostat_cache dataset needs cache_root and target")
        if self.kind not in ("synthetic", "csv", "eurostat_cache"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetSpec, ...]
    ranges: tuple[RangeSpec, ...]
    methods: tuple[MethodSpec, ...]
    models: tuple[ModelSpec, ...]
    horizon: int = 12
    preprocessing: PreprocessingSpec = PreprocessingSpec()
    forward_cap: int = 20
    jobs: int = 1
    out_dir: str | None = None
    # Off by default: the protocol scores one terminal window. With k > 1
    # each cell is re-run at k one-month-stepped origins (training end moved
    # back) and the reported MAE is their mean; artifacts keep origin 0.
    rolling_origins: int = 1

    def __post_init__(self):
        if not (self.datasets and self.ranges and self.methods and self.models):
            raise ValueError("config needs at least one dataset, range, method and model")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.rolling_origins < 1:
            raise ValueError("rolling_origins must be at least 1")
        for name, labels in (
            ("dataset", [d.label for d in self.datasets]),
            ("method", [m.label for m in self.methods]),
            ("model", [m.label for m in self.models]),
        ):
            if len(set(labels)) != len(labels):
                raise ValueError(f"{name} labels must be unique, got {labels}")
        for d in self.datasets:
            if " @ " in d.label:
                raise ValueError(f"dataset label {d.label!r} may not contain ' @ '")


@dataclass(frozen=True)
class CellResult:
    mae: float | None
    n_exog: int | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


CellKey = tuple[str, str, str, str]  # dataset, range, method, model


@dataclass
class CellArtifacts:
    key: CellKey
    selection: SelectionResult | None = None
    months: tuple[Month, ...] = ()
    actual: tuple[float, ...] = ()
    forecast: tuple[float, ...] = ()
    model_doc: dict | None = None


@dataclass
class ResultsTable:
    row_keys: tuple[tuple[str, str], ...]  # (method, model)
    col_keys: tuple[str, ...]  # "dataset @ range"
    cells: dict[CellKey, CellResult]


@dataclass
class RunArtifacts:
    horizon: int
    cells: dict[CellKey, CellArtifacts] = field(default_factory=dict)
    truths: dict[str, SyntheticTruth] = field(default_factory=dict)
    traces: list[SelectionTrace] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Dataset resolution and preprocessing

def _resolve_dataset(spec: DatasetSpec) -> tuple[AlignedFrame, SyntheticTruth | None]:
    if spec.kind == "synthetic":
        frame, truth = generate_synthetic(spec.synthetic)
        return frame, truth
    if spec.kind == "csv":
        target = read_series_csv(spec.target_csv)
        indicators = [read_series_csv(p) for p in spec.indicator_csvs]
        return align_merge(target, indicators), None
    target = read_series_csv(spec.target_csv)
    cached = [series for _, series in list_cached_series(spec.cache_root)]
    if not cached:
        raise ExocastError(f"no cached indicator series under {spec.cache_root}")
    return align_merge(target, cached), None


@dataclass(frozen=True)
class TargetTransform:
    """Inverse-transform recipe from model scale back to the raw scale."""

    steps: tuple[tuple, ...]  # ("normalize", params) / ("detrend", slope, intercept)
    train_length: int

    @property
    def normalization(self) -> NormalizationParams | None:
        return next((s[1] for s in self.steps if s[0] == "normalize"), None)

    def invert(self, series: MonthlySeries) -> MonthlySeries:
        out = series
        for step in reversed(self.steps):
            if step[0] == "normalize":
                out = denormalize(out, step[1])
            elif step[0] == "detrend":
                out = retrend(out, step[1], step[2], offset=self.train_length)
        return out


def _preprocess_train(frame: AlignedFrame, prep: PreprocessingSpec):
    """`frame` with the target and every indicator preprocessed as the columns
    of one matrix, and the transform that takes the target back. A constant
    column is not normalised."""
    values = frame.stacked()  # column 0 is the target
    if np.isnan(values).any():
        values = interpolate_missing(values)
    steps: list[tuple] = []
    if prep.smooth_window > 1:
        values = smooth(values, prep.smooth_window)
    if prep.detrend:
        values, slope, intercept = linear_detrend(values)
        steps.append(("detrend", float(slope[0]), float(intercept[0])))
    if prep.normalize:
        values, (lo, hi) = min_max_normalize(values)
        if hi[0] > lo[0]:
            steps.append(("normalize", NormalizationParams(float(lo[0]), float(hi[0]))))
        else:
            log.debug("target %s is constant; skipping normalization", frame.target.id)
    return frame.with_stacked(values), TargetTransform(tuple(steps), len(frame))


def training_frames(
    config: ExperimentConfig,
) -> Iterator[tuple[str, RangeSpec, AlignedFrame, TargetTransform]]:
    """(dataset label, range, preprocessed training frame, target transform)
    for each dataset x range, built lazily. The frame spans the whole range,
    as the grid's first origin does."""
    for spec in config.datasets:
        frame, _ = _resolve_dataset(spec)
        for rng in config.ranges:
            train_raw = frame.slice_months(rng.start, rng.end)
            yield (spec.label, rng, *_preprocess_train(train_raw, config.preprocessing))


# ---------------------------------------------------------------------------
# Selection

def _forward_evaluator(model: ModelSpec, train: AlignedFrame, horizon: int):
    """Subset -> MAE on the last `horizon` months of the training range."""
    sub_train, validation = split_train_test(train, SplitSpec(horizon))
    actual = validation.target.require_complete()
    future = models.regressor_forecasts(sub_train, horizon)
    forecast_subset = models.subset_forecaster(model, sub_train, horizon, future)
    return lambda subset: mae(actual, forecast_subset(subset))


def select(
    method: MethodSpec,
    model: ModelSpec,
    train: AlignedFrame,
    horizon: int,
    forward_cap: int,
) -> SelectionResult:
    """Run `method` on `train`; forward selection scores subsets with
    `model`, the other methods ignore it."""
    candidates = CandidateSet(train)
    if method.name == "none":
        return SelectionResult(method="none", selected_ids=())
    if method.name == "correlation":
        return correlation_select(
            candidates,
            target_threshold=method.target_threshold,
            mutual_threshold=method.mutual_threshold,
        )
    if method.name == "lasso":
        return lasso_select(candidates)
    if method.name == "manual":
        return validate_manual(candidates, list(method.manual_ids))
    evaluator = _forward_evaluator(model, train, horizon)
    return forward_select(candidates, evaluator, cap=forward_cap)


# ---------------------------------------------------------------------------
# The grid runner

def _failure_code(exc: Exception) -> str:
    name = type(exc).__name__
    return name[:-5] if name.endswith("Error") else name


def _once(stages: dict, key, fn, *args):
    """`fn(*args)`, computed once per key of `stages`: later calls get the
    stored result, or the stored exception raised again with its original
    traceback (not one grown by each earlier raise)."""
    if key not in stages:
        try:
            stages[key] = fn(*args), None
        except Exception as exc:  # noqa: BLE001 - raised below, to every caller
            stages[key] = exc, exc.__traceback__
    result, origin = stages[key]
    if origin is not None:
        raise result.with_traceback(origin)
    return result


def _score_cell(config, method, model, origin, stages, keep: CellArtifacts | None) -> float:
    """One cell's MAE at one origin. `stages` shares the origin's
    preprocessing and model-independent selections between its cells;
    `keep`, if given, receives the selection, model and forecast."""
    train_raw, test_actual, _ = origin
    train, transform = _once(stages, "preprocess", _preprocess_train, train_raw, config.preprocessing)
    # Only forward selection depends on the model.
    by = (method.label, model.label if method.name == "forward" else None)
    selection = _once(stages, by, select, method, model, train, config.horizon, config.forward_cap)
    model_frame = train.with_indicators(selection.selected_ids)
    fitted = models.fit(model, model_frame, config.horizon, transform.normalization)
    future = models.regressor_forecasts(model_frame, config.horizon)
    predicted = transform.invert(models.forecast(fitted, config.horizon, future))
    score = mae(test_actual, predicted.require_complete())
    if keep is not None:
        keep.selection = selection
        keep.model_doc = models.to_doc(fitted)
        keep.forecast = predicted.values
    return score


def _run_group(config: ExperimentConfig, group) -> list[tuple[CellResult, CellArtifacts]]:
    """Every (method, model) cell of one (dataset label, range, origins)
    group, origin by origin, so that one preprocessed frame is alive at a
    time. A cell fails on its first exception and is skipped at later
    origins; origin 0 supplies its artifacts."""
    dataset_label, range_spec, origins = group
    cells = {
        (dataset_label, range_spec.label, method.label, model.label): (method, model)
        for method in config.methods
        for model in config.models
    }
    artifacts = {k: CellArtifacts(key=k, months=origins[0][2], actual=origins[0][1]) for k in cells}
    scores: dict[CellKey, list[float]] = {key: [] for key in cells}
    results: dict[CellKey, CellResult] = {}  # failed cells, until the last origin
    for i, origin in enumerate(origins):
        stages: dict = {}  # this origin's preprocessing and selections
        for key, (method, model) in cells.items():
            if key in results:
                continue
            keep = artifacts[key] if i == 0 else None
            try:
                scores[key].append(_score_cell(config, method, model, origin, stages, keep))
            except Exception as exc:  # noqa: BLE001 - a failed cell never aborts the grid
                log.warning("cell %s failed: %s", key, exc)
                results[key] = CellResult(mae=None, n_exog=None, error=_failure_code(exc))
    for key, cell_scores in scores.items():
        if key not in results:
            n_exog = len(artifacts[key].selection.selected_ids)
            results[key] = CellResult(mae=sum(cell_scores) / len(cell_scores), n_exog=n_exog)
    return [(results[key], artifacts[key]) for key in cells]


def run_experiment(config: ExperimentConfig) -> tuple[ResultsTable, RunArtifacts]:
    # Resolve everything up front so a bad config fails before any work.
    artifacts = RunArtifacts(horizon=config.horizon)
    groups = []
    for spec in config.datasets:
        frame, truth = _resolve_dataset(spec)
        if truth is not None:
            artifacts.truths[spec.label] = truth
        for rng in config.ranges:
            origins = []
            for origin in range(config.rolling_origins):
                train_end = rng.end.shift(-origin)
                test_end = train_end.shift(config.horizon)
                if (
                    frame.start.months_until(rng.start) < 0
                    or test_end.months_until(frame.end) < 0
                    or rng.start.months_until(train_end) < 0
                ):
                    raise ValueError(
                        f"dataset {spec.label!r} ({frame.start}..{frame.end}) does not "
                        f"cover range {rng.label} plus a {config.horizon}-month test "
                        f"window at origin {origin}"
                    )
                # The held-out window is separated here, before anything
                # else runs; only its raw target values survive, for scoring.
                train_raw = frame.slice_months(rng.start, train_end)
                test_target = frame.target.slice_months(train_end.shift(1), test_end)
                if test_target.has_missing:
                    test_target = interpolate_missing(test_target)
                origins.append((train_raw, test_target.values, test_target.months))
            groups.append((spec.label, rng, origins))

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(partial(_run_group, config), groups))
    else:
        outcomes = [_run_group(config, group) for group in groups]

    cells: dict[CellKey, CellResult] = {}
    for result, cell_art in (outcome for group in outcomes for outcome in group):
        cells[cell_art.key] = result
        artifacts.cells[cell_art.key] = cell_art
        if cell_art.selection is not None and cell_art.selection.trace is not None:
            artifacts.traces.append(cell_art.selection.trace)

    table = ResultsTable(
        row_keys=tuple((m.label, mo.label) for m in config.methods for mo in config.models),
        col_keys=tuple(
            f"{d.label} @ {r.label}" for d in config.datasets for r in config.ranges
        ),
        cells=cells,
    )
    if config.out_dir:
        persist_run(Path(config.out_dir), config, table, artifacts)
    return table, artifacts


# ---------------------------------------------------------------------------
# Rendering and persistence

def _format_score(value: float) -> str:
    return f"{value:.4g}"


def _cell_key(row: tuple[str, str], col: str) -> CellKey:
    dataset, rng = col.split(" @ ")
    return (dataset, rng, row[0], row[1])


def render_grid(table: ResultsTable) -> tuple[list[str], list[list[str]], list[list[str]]]:
    """Header, score rows (one per row key, plus count sub-rows), and the
    per-column best row labels."""
    header = ["forecasting setting", *table.col_keys]
    rows: list[list[str]] = []
    best: dict[str, tuple[float, str]] = {}
    for method, model in table.row_keys:
        label = f"{method} / {model}"
        score_row = [label]
        count_row = ["  Nbr. Exogenous variables"]
        for col in table.col_keys:
            cell = table.cells.get(_cell_key((method, model), col))
            if cell is None or cell.failed:
                code = "unknown" if cell is None else cell.error
                score_row.append(f"FAIL({code})")
                count_row.append("-")
                continue
            text = _format_score(cell.mae)
            score_row.append(text)
            count_row.append(str(cell.n_exog))
            if col not in best or cell.mae < best[col][0]:
                best[col] = (cell.mae, label)
        rows.append(score_row)
        rows.append(count_row)
    best_row = ["best"] + [best.get(col, (None, "-"))[1] for col in table.col_keys]
    return header, rows, [best_row]


def emit_table(table: ResultsTable, fmt: str, path: str | Path) -> Path:
    """Write the results grid as CSV or markdown; the numeric strings are
    identical in both formats and the per-column best cell is flagged."""
    header, rows, extra = render_grid(table)
    path = Path(path)
    if fmt == "csv":
        import csv as _csv

        with path.open("w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
            writer.writerows(extra)
    elif fmt == "markdown":
        best_labels = {col: extra[0][i + 1] for i, col in enumerate(table.col_keys)}
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join([" --- "] * len(header)) + "|"]
        for row in rows:
            cells = [row[0]]
            is_score_row = not row[0].startswith(" ")
            for col, value in zip(table.col_keys, row[1:]):
                if is_score_row and best_labels.get(col) == row[0] and not value.startswith("FAIL"):
                    cells.append(f"**{value}**")
                else:
                    cells.append(value)
            lines.append("| " + " | ".join(cells) + " |")
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    return path


def emit_plot_data(artifacts: RunArtifacts, out_dir: str | Path) -> list[Path]:
    """Long-format CSVs for external plotting: per-group forecasts, the
    score-development curve, and per-period absolute errors."""
    import csv as _csv
    from .selection import score_development

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    groups: dict[tuple[str, str], list[CellArtifacts]] = {}
    for key, cell in artifacts.cells.items():
        groups.setdefault((key[0], key[1]), []).append(cell)

    for (dataset, rng), cell_list in sorted(groups.items()):
        ok = [c for c in cell_list if c.forecast]
        if not ok:
            continue
        path = out_dir / f"forecasts_{_safe(dataset)}_{_safe(rng)}.csv"
        with path.open("w", newline="") as fh:
            writer = _csv.writer(fh)
            labels = [f"{c.key[2]} / {c.key[3]}" for c in ok]
            writer.writerow(["period", "actual", *labels])
            months = ok[0].months
            for i, month in enumerate(months):
                writer.writerow(
                    [str(month), repr(ok[0].actual[i])] + [repr(c.forecast[i]) for c in ok]
                )
        written.append(path)

    if artifacts.traces:
        path = out_dir / "score_development.csv"
        with path.open("w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["n_vars", "mean_oos_mae"])
            for n_vars, mean_score in score_development(artifacts.traces):
                writer.writerow([n_vars, repr(mean_score)])
        written.append(path)

    path = out_dir / "errors.csv"
    with path.open("w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["dataset", "range", "method", "model", "period", "abs_error"])
        for key in sorted(artifacts.cells):
            cell = artifacts.cells[key]
            if not cell.forecast:
                continue
            for month, actual, predicted in zip(cell.months, cell.actual, cell.forecast):
                writer.writerow([*key, str(month), repr(abs(actual - predicted))])
    written.append(path)
    return written


def _safe(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in text)


def persist_run(
    out_dir: Path,
    config: ExperimentConfig,
    table: ResultsTable,
    artifacts: RunArtifacts,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_table(table, "csv", out_dir / "results.csv")
    emit_table(table, "markdown", out_dir / "results.md")
    emit_plot_data(artifacts, out_dir)
    cell_root = out_dir / "cells"
    for key, cell in artifacts.cells.items():
        folder = cell_root / "__".join(_safe(part) for part in key)
        folder.mkdir(parents=True, exist_ok=True)
        if cell.selection is not None:
            save_result(cell.selection, folder / "selection.json")
            if cell.selection.trace is not None:
                export_trace_csv(cell.selection.trace, folder / "trace.csv")
        if cell.model_doc is not None:
            (folder / "model.json").write_text(json.dumps(cell.model_doc, indent=2))
        if cell.forecast:
            write_series_csv(
                MonthlySeries("forecast", cell.months[0], cell.forecast),
                folder / "forecast.csv",
            )
    doc = {
        "schema": "exocast.experiment.artifacts/1",
        "horizon": artifacts.horizon,
        "row_keys": [list(k) for k in table.row_keys],
        "col_keys": list(table.col_keys),
        "cells": [
            {
                "dataset": key[0],
                "range": key[1],
                "method": key[2],
                "model": key[3],
                "mae": table.cells[key].mae,
                "n_exog": table.cells[key].n_exog,
                "error": table.cells[key].error,
                "months": [str(m) for m in artifacts.cells[key].months],
                "actual": list(artifacts.cells[key].actual),
                "forecast": list(artifacts.cells[key].forecast),
                "selected_ids": list(
                    artifacts.cells[key].selection.selected_ids
                    if artifacts.cells[key].selection is not None
                    else ()
                ),
            }
            for key in sorted(artifacts.cells)
        ],
    }
    (out_dir / "artifacts.json").write_text(json.dumps(doc, indent=2))


def reload_run(out_dir: str | Path) -> tuple[ResultsTable, RunArtifacts]:
    """Rebuild the table and (score-bearing) artifacts from a persisted run."""
    out_dir = Path(out_dir)
    path = out_dir / "artifacts.json"
    if not path.is_file():
        raise ExocastError(f"no finished run in {out_dir}: {path.name} is missing")
    doc = json.loads(path.read_text())
    if doc.get("schema") != "exocast.experiment.artifacts/1":
        raise SchemaError(f"{path}: unknown artifacts schema {doc.get('schema')!r}")
    artifacts = RunArtifacts(horizon=doc["horizon"])
    cells: dict[CellKey, CellResult] = {}
    row_keys = [tuple(k) for k in doc["row_keys"]]
    col_keys = list(doc["col_keys"])
    for entry in doc["cells"]:
        key = (entry["dataset"], entry["range"], entry["method"], entry["model"])
        cells[key] = CellResult(entry["mae"], entry["n_exog"], entry["error"])
        artifacts.cells[key] = CellArtifacts(
            key=key,
            months=tuple(Month.parse(m) for m in entry["months"]),
            actual=tuple(entry["actual"]),
            forecast=tuple(entry["forecast"]),
        )
    # Selection traces for the score-development plot live in the cell dirs.
    from .selection import load_result

    for key in sorted(artifacts.cells):
        folder = out_dir / "cells" / "__".join(_safe(part) for part in key)
        selection_path = folder / "selection.json"
        if selection_path.exists():
            selection = load_result(selection_path)
            artifacts.cells[key].selection = selection
            if selection.trace is not None:
                artifacts.traces.append(selection.trace)
    return ResultsTable(tuple(row_keys), tuple(col_keys), cells), artifacts


# ---------------------------------------------------------------------------
# Config file loading (schema printed by `exocast experiment --print-schema`)

CONFIG_KEYS = ("datasets", "ranges", "horizon", "methods", "models", "preprocessing",
               "forward_cap", "jobs", "out_dir", "rolling_origins")


def _checked(doc, where: str, allowed, required=()) -> dict:
    """`doc`, a JSON object whose keys are all `allowed` and include `required`."""
    if not isinstance(doc, dict):
        raise TypeError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(missing)}")
    return doc


def load_config(path: str | Path, *, seed_override: int | None = None) -> ExperimentConfig:
    """The experiment config in the JSON file `path`. A file that cannot be
    read or is not a valid config raises ConfigError naming it."""
    try:
        return _config_from_doc(json.loads(Path(path).read_text()), seed_override)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except KeyError as exc:
        raise ConfigError(f"config {path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:  # a JSON syntax error is a ValueError
        raise ConfigError(f"config {path}: {exc}") from exc


def _config_from_doc(doc, seed_override: int | None) -> ExperimentConfig:
    _checked(doc, "config", CONFIG_KEYS, required=("datasets", "ranges", "methods", "models"))
    datasets = []
    for entry in doc["datasets"]:
        kind = entry["kind"]
        if kind == "synthetic":
            spec_fields = fields(SyntheticSpec)
            spec_doc = dict(_checked(entry["spec"], f"dataset {entry['label']!r} spec",
                                     [f.name for f in spec_fields],
                                     required=[f.name for f in spec_fields if f.default is MISSING]))
            if seed_override is not None:
                spec_doc["seed"] = seed_override
            start = Month.parse(spec_doc.pop("start", "2016-01"))
            spec_doc["driver_betas"] = tuple(spec_doc.get("driver_betas", ()))
            synth = SyntheticSpec(start=start, **spec_doc)
            datasets.append(DatasetSpec(entry["label"], "synthetic", synthetic=synth))
        elif kind == "csv":
            datasets.append(
                DatasetSpec(
                    entry["label"],
                    "csv",
                    target_csv=entry["target"],
                    indicator_csvs=tuple(entry.get("indicators", ())),
                )
            )
        elif kind == "eurostat_cache":
            datasets.append(
                DatasetSpec(
                    entry["label"],
                    "eurostat_cache",
                    target_csv=entry["target"],
                    cache_root=entry["cache_root"],
                )
            )
        else:
            raise ValueError(f"unknown dataset kind {kind!r}")

    methods = []
    for entry in doc["methods"]:
        if isinstance(entry, str):
            methods.append(MethodSpec(entry))
        else:
            methods.append(
                MethodSpec(
                    entry["name"],
                    manual_ids=tuple(entry.get("ids", ())),
                    target_threshold=entry.get("target_threshold", 0.75),
                    mutual_threshold=entry.get("mutual_threshold", 0.30),
                )
            )

    prep_doc = _checked(doc.get("preprocessing", {}), "preprocessing",
                        [f.name for f in fields(PreprocessingSpec)])
    return ExperimentConfig(
        datasets=tuple(datasets),
        ranges=tuple(
            RangeSpec(Month.parse(r["start"]), Month.parse(r["end"])) for r in doc["ranges"]
        ),
        methods=tuple(methods),
        models=tuple(models.spec_from_config(entry) for entry in doc["models"]),
        horizon=doc.get("horizon", 12),
        preprocessing=PreprocessingSpec(
            smooth_window=prep_doc.get("smooth_window", 1),
            detrend=prep_doc.get("detrend", False),
            normalize=prep_doc.get("normalize", True),
        ),
        forward_cap=doc.get("forward_cap", 20),
        jobs=doc.get("jobs", 1),
        out_dir=doc.get("out_dir"),
        rolling_origins=doc.get("rolling_origins", 1),
    )


CONFIG_SCHEMA_TEXT = """\
Experiment config (JSON object):
{
  "datasets": [                      // one or more, each uniquely labelled
    {"label": "synth-0", "kind": "synthetic",
     "spec": {"n_months": 76, "ar_coefficient": 0.6, "seasonal_amplitude": 1.0,
              "n_indicators": 10, "n_drivers": 2, "driver_betas": [1.5, 1.0],
              "noise_sigma": 0.5, "seed": 0, "start": "2016-01"}},
    {"label": "demand", "kind": "csv",
     "target": "data/target.csv", "indicators": ["data/x1.csv", "data/x2.csv"]},
    {"label": "market", "kind": "eurostat_cache",
     "target": "data/target.csv", "cache_root": "cache/"}
  ],
  "ranges": [{"start": "2016-01", "end": "2021-04"}],   // training ranges
  "horizon": 12,                     // held-out months after each range end
  "methods": ["none", "correlation", "lasso", "forward",
              {"name": "manual", "ids": ["x1", "x2"]}],
              // correlation accepts target_threshold / mutual_threshold
  "models": [{"name": "sarimax", "order": [1,0,0,0,0,0,12]},
             {"name": "sarimax", "grid": [[0,0,0,0,0,0,12],[1,0,0,0,0,0,12]]},
             {"name": "additive", "auto": true},
             {"name": "additive", "config": { ... additive config ... }}],
              // an additive "config" may omit keys (they default); unknown keys are errors
  "preprocessing": {"smooth_window": 1, "detrend": false, "normalize": true},
  "forward_cap": 20,                 // greedy ladder cap
  "jobs": 1,                         // thread pool over dataset x range groups
  "rolling_origins": 1,              // >1 averages MAE over stepped-back origins
  "out_dir": "runs/exp1"             // artifacts land here (optional)
}
"datasets", "ranges", "methods" and "models" are required. An unknown key at
the top level, in "preprocessing" or in a synthetic "spec" is an error, as is
a "spec" without "n_months".
Series CSV format: header "period,value"; period is YYYY-MM; empty value
field marks a gap. One series per file; the file stem is the series id.
"""


def config_schema_text() -> str:
    return CONFIG_SCHEMA_TEXT
