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
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from . import models
from .errors import (
    ConfigError, ExocastError, check_kind, from_object, parse_json, read_document, to_object,
    write_document,
)
from .eurostat import list_cached_series
from .models import ModelSpec  # re-exported: experiment configs are built from here
from .selection import (
    FORWARD_CAP,
    MUTUAL_CORRELATION_THRESHOLD,
    TARGET_CORRELATION_THRESHOLD,
    CandidateSet,
    SelectionResult,
    correlation_select,
    forward_select,
    lasso_select,
    result_from_object,
    result_object,
    score_development,
    validate_manual,
)
from .series import (
    AlignedFrame,
    Month,
    MonthlySeries,
    NormalizationParams,
    align_merge,
    denormalize,
    interpolate_missing,
    linear_detrend,
    mae,
    min_max_normalize,
    read_series_csv,
    retrend,
    smooth,
    write_csv,
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
    "CellRecord",
    "ResultsTable",
    "RunArtifacts",
    "run_experiment",
    "training_frames",
    "select",
    "file_stem",
    "render_grid",
    "emit_table",
    "emit_plot_data",
    "emit_report",
    "load_config",
    "config_schema_text",
]

log = logging.getLogger(__name__)


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


# The MethodSpec fields each method reads besides its name; it takes no other.
METHOD_KINDS = {"none": (), "correlation": ("target_threshold", "mutual_threshold"),
                "lasso": (), "forward": (), "manual": ("manual_ids",)}
METHOD_KEYS = {"manual_ids": "ids"}  # the config key of each field named otherwise


@dataclass(frozen=True)
class MethodSpec:
    name: str  # a key of METHOD_KINDS
    manual_ids: tuple[str, ...] = ()
    target_threshold: float = TARGET_CORRELATION_THRESHOLD
    mutual_threshold: float = MUTUAL_CORRELATION_THRESHOLD

    def __post_init__(self):
        check_kind(self, self.name, METHOD_KINDS, "method", renamed=METHOD_KEYS)
        if self.name == "manual" and not self.manual_ids:
            raise ValueError("manual method needs ids")
        for key in ("target_threshold", "mutual_threshold"):
            if not 0 <= (value := getattr(self, key)) <= 1:  # NaN too
                raise ValueError(f"{self.name} method {key} must be in [0, 1], got {value}")

    @property
    def label(self) -> str:
        return self.name

    @property
    def reads_model(self) -> bool:  # forward selection scores subsets by fitting the model
        return self.name == "forward"


# The DatasetSpec fields each dataset kind reads besides its label and kind;
# it needs those that default to None and takes no other.
DATASET_KINDS = {
    "synthetic": ("synthetic",),
    "csv": ("target_csv", "indicator_csvs"),
    "eurostat_cache": ("target_csv", "cache_root"),
}
# The config key of each DatasetSpec field whose name differs from it.
DATASET_KEYS = {"synthetic": "spec", "target_csv": "target", "indicator_csvs": "indicators"}


@dataclass(frozen=True)
class DatasetSpec:
    label: str
    kind: str  # a key of DATASET_KINDS
    synthetic: SyntheticSpec | None = None
    target_csv: str | None = None
    indicator_csvs: tuple[str, ...] = ()
    cache_root: str | None = None

    def __post_init__(self):
        check_kind(self, self.kind, DATASET_KINDS, "dataset", self.label, DATASET_KEYS)
        for name in DATASET_KINDS[self.kind]:
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind} dataset {self.label!r} needs {DATASET_KEYS.get(name, name)}")


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetSpec, ...]
    ranges: tuple[RangeSpec, ...]
    methods: tuple[MethodSpec, ...]
    models: tuple[ModelSpec, ...]
    horizon: int = 12
    preprocessing: PreprocessingSpec = PreprocessingSpec()
    forward_cap: int = FORWARD_CAP
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
        if self.forward_cap < 1:
            raise ValueError(f"forward_cap must be an integer >= 1, got {self.forward_cap}")
        for name in ("dataset", "range", "method", "model"):
            labels = [spec.label for spec in getattr(self, f"{name}s")]
            if len(set(labels)) != len(labels):
                raise ValueError(f"{name} labels must be unique, got {labels}")
            first: dict[str, str] = {}  # the run's files are named by each label's _safe form
            for label in labels:
                if (other := first.setdefault(_safe(label), label)) != label:
                    raise ValueError(f"{name} labels {other!r} and {label!r} name the same files")
        for d in self.datasets:
            if " @ " in d.label:
                raise ValueError(f"dataset label {d.label!r} may not contain ' @ '")


CellKey = tuple[str, str, str, str]  # dataset, range, method, model


ARTIFACTS_SCHEMA = "exocast.experiment.artifacts/3"
CELL_KEYS = {"model_doc": "fitted"}  # the JSON key of each CellRecord field named otherwise
# Each earlier schema, with what to do instead of reading it: no reader is kept.
RETIRED_ARTIFACTS = {
    "exocast.experiment.artifacts/1": "that run kept its cells in folders; run the experiment again",
    "exocast.experiment.artifacts/2": "that run stored n_exog and kept origin 0's forecast for a "
                                      "cell that failed later; run the experiment again",
}


@dataclass(frozen=True)
class CellRecord:
    """One cell of the grid, as the runner builds it and artifacts.json
    holds it: its key and result, origin 0's test months and actual values,
    and what the cell made at origin 0: its forecast, the indicators it
    selected, its selection and its fitted model document (JSON key
    "fitted"). A cell is in one of two states, checked here for the runner
    and the reader alike. Failed, at any origin: an error code, and no mae;
    its forecast and indicators are empty and the documents None.
    Succeeded: no error, an mae, and a forecast of each test month."""

    dataset: str
    range: str
    method: str
    model: str
    mae: float | None
    error: str | None
    months: tuple[Month, ...]
    actual: tuple[float, ...]
    forecast: tuple[float, ...]
    selected_ids: tuple[str, ...]
    selection: SelectionResult | None
    model_doc: dict | None

    def __post_init__(self):
        kept = (self.mae, self.forecast, self.selected_ids, self.selection, self.model_doc)
        if self.failed and kept != (None, (), (), None, None):
            problem = (f"failed ({self.error}) but keeps an mae, forecast, selected_ids, "
                       f"selection or fitted")
        elif not self.failed and type(self.mae) not in (int, float):
            problem = f"has no error, so its mae must be a number, not {json.dumps(self.mae)}"
        elif len(self.actual) != len(self.months):
            problem = f"holds {len(self.actual)} actual values for {len(self.months)} months"
        elif not self.failed and len(self.forecast) != len(self.months):
            problem = f"holds {len(self.forecast)} forecast values for {len(self.months)} months"
        else:
            return
        raise ValueError(f"cell {' / '.join(self.key)} {problem}")

    @property
    def key(self) -> CellKey:
        return (self.dataset, self.range, self.method, self.model)

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def n_exog(self) -> int | None:
        return None if self.failed else len(self.selected_ids)


@dataclass
class ResultsTable:
    """A run, as `run_experiment` returns it and artifacts.json holds it:
    the test window's length, the row and column order, and one cell for
    each row and column, held in that order (by column, then row) and
    each with `horizon` test months."""

    horizon: int
    row_keys: tuple[tuple[str, str], ...]  # (method, model)
    col_keys: tuple[str, ...]  # "dataset @ range"
    cells: dict[CellKey, CellRecord]

    def __post_init__(self):
        keys = [_cell_key(row, col) for col in self.col_keys for row in self.row_keys]
        odd = sorted(self.cells.keys() ^ set(keys))
        if odd:
            where = "not in" if odd[0] in self.cells else "missing from"
            raise ValueError(f"cell {' / '.join(odd[0])} is {where} row_keys x col_keys")
        for cell in self.cells.values():
            if len(cell.months) != self.horizon:
                raise ValueError(f"cell {' / '.join(cell.key)} holds {len(cell.months)} "
                                 f"months, not the horizon's {self.horizon}")
        self.cells = {key: self.cells[key] for key in keys}


@dataclass
class RunArtifacts:
    """What `run_experiment` gives besides the table: its cells (the
    table's own dict) and the truth of each synthetic dataset."""

    cells: dict[CellKey, CellRecord]
    truths: dict[str, SyntheticTruth]


# ---------------------------------------------------------------------------
# Dataset resolution and preprocessing

def _resolve_dataset(spec: DatasetSpec) -> tuple[AlignedFrame, SyntheticTruth | None]:
    """The dataset's frame, and its truth if synthetic. A series file that
    cannot be read, or series that cannot be aligned, raise ConfigError
    naming the dataset and the file."""
    if spec.kind == "synthetic":
        frame, truth = generate_synthetic(spec.synthetic)
        return frame, truth

    def read(path: str) -> MonthlySeries:
        try:
            return read_series_csv(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"dataset {spec.label!r}: cannot read {path}: {exc}") from exc

    target = read(spec.target_csv)
    if spec.kind == "csv":
        indicators = [read(p) for p in spec.indicator_csvs]
    else:
        indicators = [cached.series for cached in list_cached_series(spec.cache_root)]
        if not indicators:
            raise ExocastError(f"no cached indicator series under {spec.cache_root}")
    try:
        return align_merge(target, indicators), None
    except ValueError as exc:
        raise ConfigError(
            f"dataset {spec.label!r}: cannot align {spec.target_csv} with its indicators: {exc}"
        ) from exc


def _require_coverage(
    label: str, frame: AlignedFrame, rng: RangeSpec, horizon: int = 0, origins: int = 1
) -> None:
    """ConfigError unless the dataset `label`'s `frame` holds every month of
    `rng` and the `horizon` test months after it, and `rng` holds a training
    end at each of `origins` one-month-stepped origins."""
    if (frame.start.months_until(rng.start) < 0 or rng.length < origins
            or rng.end.shift(horizon).months_until(frame.end) < 0):
        window = f" plus a {horizon}-month test window" if horizon else ""
        at = f" at each of {origins} origins" if origins > 1 else ""
        raise ConfigError(
            f"dataset {label!r} ({frame.start}..{frame.end}) does not cover range "
            f"{rng.label}{window}{at}"
        )


@dataclass(frozen=True)
class TargetTransform:
    """How preprocessing changed the target of a `train_length`-month
    training frame: the linear trend it took out, as (slope, intercept),
    then the min-max normalization it applied, each None where it did not.
    Only the experiment knows it; the models fit and forecast on the
    changed scale."""

    trend: tuple[float, float] | None
    normalization: NormalizationParams | None
    train_length: int

    def invert(self, series: MonthlySeries) -> MonthlySeries:
        """`series`, months after the training frame on the model's scale,
        on the raw scale: the normalization undone, then the trend."""
        if self.normalization is not None:
            series = denormalize(series, self.normalization)
        if self.trend is not None:
            series = retrend(series, *self.trend, offset=self.train_length)
        return series


def _preprocess_train(frame: AlignedFrame, prep: PreprocessingSpec):
    """`frame` with the target and every indicator preprocessed as the columns
    of one matrix, and the transform that takes the target back. A constant
    column is not normalised."""
    values = frame.stacked()  # column 0 is the target
    if np.isnan(values).any():
        values = interpolate_missing(values)
    trend = normalization = None
    if prep.smooth_window > 1:
        values = smooth(values, prep.smooth_window)
    if prep.detrend:
        values, slope, intercept = linear_detrend(values)
        trend = (float(slope[0]), float(intercept[0]))
    if prep.normalize:
        values, (lo, hi) = min_max_normalize(values)
        if hi[0] > lo[0]:
            normalization = NormalizationParams(float(lo[0]), float(hi[0]))
        else:
            log.debug("target %s is constant; skipping normalization", frame.target.id)
    return frame.with_stacked(values), TargetTransform(trend, normalization, len(frame))


def training_frames(
    config: ExperimentConfig,
) -> Iterator[tuple[str, RangeSpec, AlignedFrame, TargetTransform]]:
    """(dataset label, range, preprocessed training frame, target transform)
    for each dataset x range, built lazily. The frame spans the whole range,
    as the grid's first origin does."""
    for spec in config.datasets:
        frame, _ = _resolve_dataset(spec)
        for rng in config.ranges:
            _require_coverage(spec.label, frame, rng)
            train_raw = frame.slice_months(rng.start, rng.end)
            yield (spec.label, rng, *_preprocess_train(train_raw, config.preprocessing))


# ---------------------------------------------------------------------------
# Selection

def select(
    method: MethodSpec,
    model: ModelSpec,
    train: AlignedFrame,
    horizon: int,
    forward_cap: int,
) -> SelectionResult:
    """Run `method` on `train`; forward selection scores subsets with
    `model`, of a fixed order (`models.with_order`), the others ignore it."""
    candidates = CandidateSet(train)
    if method.name == "none":
        return SelectionResult(method="none", selected_ids=())
    if method.name == "correlation":
        return correlation_select(candidates, method.target_threshold, method.mutual_threshold)
    if method.name == "lasso":
        return lasso_select(candidates)
    if method.name == "manual":
        return validate_manual(candidates, list(method.manual_ids))
    validation = models.Validation(train, horizon)
    return forward_select(candidates, lambda subset: validation.score(model, subset),
                          cap=forward_cap, score_round=validation.round_scorer(model))


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


def _score_cell(config, method, model, origin, stages):
    """One cell at one origin: its MAE, selection, fitted model and forecast
    on the raw scale. `stages` shares the origin's preprocessing, each
    model's order and the selections between its cells."""
    train_raw, test_actual, _ = origin
    train, transform = _once(stages, "preprocess", _preprocess_train, train_raw, config.preprocessing)
    model = _once(stages, ("order", model.label), models.with_order, model, train, config.horizon)
    by = (method.label, model.label if method.reads_model else None)
    selection = _once(stages, by, select, method, model, train, config.horizon, config.forward_cap)
    model_frame = train.with_indicators(selection.selected_ids)
    fitted = models.fit(model, model_frame)
    future = models.regressor_forecasts(model_frame, config.horizon)
    predicted = transform.invert(models.forecast(fitted, config.horizon, future))
    return mae(test_actual, predicted.require_complete()), selection, fitted, predicted


def _run_group(config: ExperimentConfig, group) -> list[CellRecord]:
    """Every (method, model) cell of one (dataset label, range, origins)
    group, origin by origin, so that one preprocessed frame is alive at a
    time. A cell that fails at any origin is skipped at later ones and
    recorded as failed; one that never fails keeps origin 0's selection,
    model and forecast, and the mean of its MAEs."""
    dataset_label, range_spec, origins = group
    cells = {
        (dataset_label, range_spec.label, method.label, model.label): (method, model)
        for method in config.methods
        for model in config.models
    }
    # Each cell's one outcome: (failure code, None, None, (), ()) once it
    # fails, else (None, origin 0's selection, model document and forecast,
    # its MAE at each origin so far).
    outcomes: dict[CellKey, tuple] = {}
    for origin in origins:
        stages: dict = {}  # this origin's preprocessing and selections
        for key, (method, model) in cells.items():
            if key in outcomes and outcomes[key][0] is not None:
                continue
            try:
                score, selection, fitted, predicted = _score_cell(
                    config, method, model, origin, stages)
            except Exception as exc:  # noqa: BLE001 - a failed cell never aborts the grid
                log.warning("cell %s failed: %s", key, exc)
                outcomes[key] = (_failure_code(exc), None, None, (), ())
                continue
            if key not in outcomes:
                outcomes[key] = (None, selection, models.to_doc(fitted), predicted.values, [])
            outcomes[key][4].append(score)
    _, actual, months = origins[0]
    return [
        CellRecord(*key, mae=None if error else sum(scores) / len(scores), error=error,
                   months=months, actual=actual, forecast=forecast,
                   selected_ids=selection.selected_ids if selection else (),
                   selection=selection, model_doc=model_doc)
        for key, (error, selection, model_doc, forecast, scores) in outcomes.items()
    ]


def run_experiment(config: ExperimentConfig) -> tuple[ResultsTable, RunArtifacts]:
    # Resolve everything up front so a bad config fails before any work.
    truths: dict[str, SyntheticTruth] = {}
    groups = []
    for spec in config.datasets:
        frame, truth = _resolve_dataset(spec)
        if truth is not None:
            truths[spec.label] = truth
        for rng in config.ranges:
            _require_coverage(spec.label, frame, rng, config.horizon, config.rolling_origins)
            origins = []
            for origin in range(config.rolling_origins):
                train_end = rng.end.shift(-origin)
                test_end = train_end.shift(config.horizon)
                # The held-out window is separated here, before anything
                # else runs; only its raw target values survive, for scoring.
                train_raw = frame.slice_months(rng.start, train_end)
                test_target = frame.target.slice_months(train_end.shift(1), test_end)
                if test_target.has_missing:
                    if np.isnan(test_target.array).all():
                        raise ConfigError(
                            f"dataset {spec.label!r}: the test window {test_target.start}..{test_end} "
                            f"of range {rng.label} holds no observed target month"
                        )
                    test_target = interpolate_missing(test_target)
                origins.append((train_raw, test_target.values, test_target.months))
            groups.append((spec.label, rng, origins))

    table = ResultsTable(
        horizon=config.horizon,
        row_keys=tuple((m.label, mo.label) for m in config.methods for mo in config.models),
        col_keys=tuple(
            f"{d.label} @ {r.label}" for d in config.datasets for r in config.ranges
        ),
        cells={record.key: record for group in groups for record in _run_group(config, group)},
    )
    if config.out_dir:
        persist_run(Path(config.out_dir), table)
    return table, RunArtifacts(table.cells, truths)


# ---------------------------------------------------------------------------
# Rendering and persistence

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
            cell = table.cells[_cell_key((method, model), col)]
            if cell.failed:
                score_row.append(f"FAIL({cell.error})")
                count_row.append("-")
                continue
            score_row.append(f"{cell.mae:.4g}")
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
        write_csv(path, [header, *rows, *extra])
    elif fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join([" --- "] * len(header)) + "|"]
        for label, *values in rows:
            # The best row names the score row of each column's best cell.
            values = [f"**{v}**" if best == label else v for v, best in zip(values, extra[0][1:])]
            lines.append("| " + " | ".join([label, *values]) + " |")
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    return path


def emit_plot_data(table: ResultsTable, out_dir: str | Path) -> list[Path]:
    """Long-format CSVs for external plotting: per-group forecasts, the
    score-development curve, and per-period absolute errors. The forecast
    and score-development files an earlier run left in `out_dir` go first.
    Only `table.cells` is read, which run_experiment's RunArtifacts also has."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in [*out_dir.glob("forecasts_*.csv"), out_dir / "score_development.csv"]:
        stale.unlink(missing_ok=True)
    written: list[Path] = []

    groups: dict[tuple[str, str], list[CellRecord]] = {}  # the cells that did not fail
    for key, cell in table.cells.items():
        if not cell.failed:
            groups.setdefault(key[:2], []).append(cell)

    for (dataset, rng), ok in sorted(groups.items()):
        labels = [f"{c.key[2]} / {c.key[3]}" for c in ok]
        written.append(write_csv(out_dir / f"forecasts_{_safe(dataset)}_{_safe(rng)}.csv", [
            ["period", "actual", *labels],
            *([str(month), repr(ok[0].actual[i]), *(repr(c.forecast[i]) for c in ok)]
              for i, month in enumerate(ok[0].months)),
        ]))

    selections = (table.cells[key].selection for key in sorted(table.cells))
    traces = [s.trace for s in selections if s is not None and s.trace is not None]
    if traces:
        written.append(write_csv(out_dir / "score_development.csv", [
            ["n_vars", "mean_oos_mae"],
            *([n_vars, repr(mean_score)] for n_vars, mean_score in score_development(traces)),
        ]))

    written.append(write_csv(out_dir / "errors.csv", [
        ["dataset", "range", "method", "model", "period", "abs_error"],
        *([*key, str(month), repr(abs(actual - predicted))]
          for key, cell in sorted(table.cells.items()) if not cell.failed
          for month, actual, predicted in zip(cell.months, cell.actual, cell.forecast)),
    ]))
    return written


def emit_report(table: ResultsTable, out_dir: str | Path) -> list[Path]:
    """Write a run's report files into `out_dir`: results.csv, results.md
    and the plot data of emit_plot_data. Gives the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [emit_table(table, "csv", out_dir / "results.csv"),
            emit_table(table, "markdown", out_dir / "results.md"),
            *emit_plot_data(table, out_dir)]


def _safe(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in text)


def file_stem(*labels: str) -> str:
    """The stem of a file named by `labels`, such as a cell's key: each
    label's characters other than letters, digits, "-", "_" and "." become
    "_", and "__" joins them. A run's cells/ and the files of `exocast
    select` and `exocast fit` are named by it."""
    return "__".join(map(_safe, labels))


def persist_run(out_dir: Path, table: ResultsTable) -> None:
    """Write the run into `out_dir`: the report files (emit_report), the
    forecast of each cell that did not fail under cells/ and, last,
    artifacts.json, the table with its cells in sorted key order. The
    artifacts.json and cells/ an earlier run left there go first, and
    emit_plot_data clears its plot files, so every file names a cell of
    this run, and a persist that fails midway leaves no document for
    `reload_run` to read."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "artifacts.json").unlink(missing_ok=True)
    if (out_dir / "cells").is_dir():
        shutil.rmtree(out_dir / "cells")
    emit_report(table, out_dir)
    (out_dir / "cells").mkdir()
    for key, cell in table.cells.items():
        if not cell.failed:
            write_series_csv(MonthlySeries("forecast", cell.months[0], cell.forecast),
                             out_dir / "cells" / f"{file_stem(*key)}.csv")
    doc = to_object(table, {"cells": lambda cells: [
        to_object(cells[key], {"selection": result_object}, CELL_KEYS) for key in sorted(cells)]})
    write_document(out_dir / "artifacts.json", ARTIFACTS_SCHEMA, doc, listed="cells")


def reload_run(out_dir: str | Path) -> ResultsTable:
    """The table of a persisted run, selections and fitted documents
    included, read from its artifacts.json."""
    out_dir = Path(out_dir)
    path = out_dir / "artifacts.json"
    if not path.is_file():
        raise ExocastError(f"no finished run in {out_dir}: {path.name} is missing")

    def cells(docs) -> dict[CellKey, CellRecord]:
        records: dict[CellKey, CellRecord] = {}
        for doc in docs:
            record = from_object(CellRecord, doc, "cell", {"selection": result_from_object}, CELL_KEYS)
            if record.key in records:
                raise ValueError(f"cell {' / '.join(record.key)} is listed twice")
            records[record.key] = record
        return records

    return read_document(path, ARTIFACTS_SCHEMA,
                         lambda doc: from_object(ResultsTable, doc, "artifacts", {"cells": cells}),
                         retired=RETIRED_ARTIFACTS)


# ---------------------------------------------------------------------------
# Config file loading (schema printed by `exocast experiment --print-schema`)

def load_config(path: str | Path, *, seed_override: int | None = None) -> ExperimentConfig:
    """The experiment config in the JSON file `path`. A file that cannot be
    read or is not a valid config raises ConfigError naming it."""
    try:
        return _config_from_doc(parse_json(Path(path).read_text()), seed_override)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except (TypeError, ValueError) as exc:  # a JSON syntax error is a ValueError
        raise ConfigError(f"config {path}: {exc}") from exc


def _config_from_doc(doc, seed_override: int | None) -> ExperimentConfig:
    """Each entry is its spec's dataclass, built by `from_object`."""
    if isinstance(doc, dict) and "jobs" in doc:
        # "jobs": 1 is what the grid does, one group at a time; configs
        # written when it took a thread count may still say so.
        if doc["jobs"] != 1:
            raise ValueError(
                f"jobs is {doc['jobs']!r}; the grid runs one group at a time, so drop the key"
            )
        doc = {key: value for key, value in doc.items() if key != "jobs"}

    def synthetic(entry, spec_doc) -> SyntheticSpec:
        spec = from_object(SyntheticSpec, spec_doc, f"dataset {entry['label']!r} spec")
        return spec if seed_override is None else replace(spec, seed=seed_override)

    def dataset(entry) -> DatasetSpec:
        return from_object(DatasetSpec, entry, "dataset", renamed=DATASET_KEYS, convert={
            "spec": lambda spec_doc: synthetic(entry, spec_doc),
        })

    def method(entry) -> MethodSpec:  # a bare name is a method with no other key
        entry = {"name": entry} if isinstance(entry, str) else entry
        return from_object(MethodSpec, entry, "method", renamed=METHOD_KEYS)

    def each(build):
        return lambda entries: tuple(map(build, entries))

    return from_object(ExperimentConfig, doc, "config", convert={
        "datasets": each(dataset),
        "ranges": each(lambda entry: from_object(RangeSpec, entry, "range")),
        "methods": each(method),
        "models": each(models.spec_from_config),
        "preprocessing": lambda entry: from_object(PreprocessingSpec, entry, "preprocessing"),
    })


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
  "ranges": [{"start": "2016-01", "end": "2021-04"}],   // training ranges, none repeated
  "horizon": 12,                     // held-out months after each range end
  "methods": ["none", "lasso", "forward", {"name": "manual", "ids": ["x1", "x2"]},
              {"name": "correlation", "target_threshold": 0.75, "mutual_threshold": 0.3}],
  "models": [{"name": "sarimax", "order": [1,0,0,0,0,0,12]},
             {"name": "sarimax", "grid": [[0,0,0,0,0,0,12],[1,0,0,0,0,0,12]]},
              // a grid's order is chosen once per training frame, on the target alone
             {"name": "additive", "auto": true},
             {"name": "additive", "config": { ... additive config ... }}],
              // an additive "config" may omit keys (they default); unknown keys are errors
  "preprocessing": {"smooth_window": 1, "detrend": false, "normalize": true},
  "forward_cap": 20,                 // greedy ladder cap
  "rolling_origins": 1,              // >1 averages MAE over stepped-back origins
  "out_dir": "runs/exp1"             // artifacts land here (optional)
}
"datasets", "ranges", "methods" and "models" are required. An unknown key in
any entry, a key its dataset kind, method or model does not read ("ids" is
manual's alone, the thresholds, in [0, 1], correlation's), an unknown model
name, a sarimax model with both or neither of "order" and "grid", and an
additive model with "auto": true and a "config" are errors, as is a "spec"
without "n_months".
Series CSV format: header "period,value"; period is YYYY-MM; empty value
field marks a gap. One series per file; the file stem is the series id.
"""


def config_schema_text() -> str:
    return CONFIG_SCHEMA_TEXT
