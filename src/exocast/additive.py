"""Additive decomposition model: trend + seasonality + events + future-known
regressors + target autoregression + lagged indicators.

Fitting is ridge-regularised linear least squares on an explicit design
matrix, built one column block at a time; the intercept and the base trend
slope stay unpenalised. A forecast takes every column that does not depend
on the target for the whole horizon at once, one matrix product per
component, and steps only the autoregressive block month by month, so that
it consumes its own predictions. With a ridge penalty, `round_forecaster`
scores a whole greedy round of forward selection at once from a single
design of every indicator of the frame: every candidate's penalised normal
equations come from one Gram matrix and are solved in one stacked call,
and every forecast steps at once, equal to `fit` and `forecast` to
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InsufficientDataError, from_object, to_object
from .series import AlignedFrame, Month, MonthlySeries, distinct_ids, future_matrix

__all__ = [
    "AdditiveConfig",
    "FittedAdditive",
    "build_design",
    "fit",
    "forecast",
    "round_forecaster",
    "auto_config",
    "config_from_doc",
    "to_doc",
    "from_doc",
]

SCHEMA = "exocast.additive.fitted/3"
# Each earlier schema, with what to do instead of reading it: no reader is kept.
RETIRED = {f"exocast.additive.fitted/{v}": "fit the model again" for v in (1, 2)}

COMPONENT_TAGS = ("intercept", "T", "S", "E", "F", "A", "L")


@dataclass(frozen=True)
class AdditiveConfig:
    n_changepoints: int = 0
    changepoint_range: float = 0.8
    seasonalities: tuple[tuple[float, int], ...] = ()
    ar_lags: int = 0
    regressor_lags: int = 0
    events: tuple[tuple[str, frozenset[Month]], ...] = ()
    ridge_lambda: float = 0.0
    # Indicator ids treated as future-known contemporaneous columns (the F
    # block) instead of lagged ones.
    future_known: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n_changepoints < 0:
            raise ValueError("n_changepoints must be nonnegative")
        if not 0 < self.changepoint_range <= 1:
            raise ValueError("changepoint_range must be in (0, 1]")
        for period, order in self.seasonalities:
            if period <= 0 or order < 1:
                raise ValueError(f"bad seasonality ({period}, {order})")
        if self.ar_lags < 0 or self.regressor_lags < 0:
            raise ValueError("lag counts must be nonnegative")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be nonnegative")

    @property
    def dropped_rows(self) -> int:
        return max(self.ar_lags, self.regressor_lags)

    def changepoints(self) -> tuple[float, ...]:
        """Evenly spaced over the first changepoint_range of training time."""
        m = self.n_changepoints
        return tuple(self.changepoint_range * j / (m + 1) for j in range(1, m + 1))


@dataclass(frozen=True)
class FittedAdditive:
    config: AdditiveConfig
    coefficients: tuple[float, ...]
    target_id: str
    regressor_ids: tuple[str, ...]
    train_start: Month
    train_length: int
    target_tail: tuple[float, ...]
    regressor_tails: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.coefficients) != len(self.layout):
            raise ValueError(f"{len(self.coefficients)} coefficients for the {len(self.layout)} "
                             "design columns of config and regressor_ids")

    @property
    def layout(self) -> tuple[tuple[str, str], ...]:
        """The design columns `coefficients` follow, as `config` and
        `regressor_ids` lay them out."""
        return _layout_for(self.config, self.regressor_ids)

    @property
    def train_end(self) -> Month:
        return self.train_start.shift(self.train_length - 1)


def _layout_for(config: AdditiveConfig, indicator_ids: Sequence[str]) -> tuple[tuple[str, str], ...]:
    layout: list[tuple[str, str]] = [("intercept", "intercept"), ("T", "t")]
    layout += [("T", f"cp{j:02d}") for j in range(1, config.n_changepoints + 1)]
    for period, order in config.seasonalities:
        for k in range(1, order + 1):
            layout += [("S", f"p{period:g}_sin{k}"), ("S", f"p{period:g}_cos{k}")]
    layout += [("E", event_id) for event_id, _ in config.events]
    lagged_ids = [i for i in indicator_ids if i not in config.future_known]
    layout += [("F", i) for i in indicator_ids if i in config.future_known]
    layout += [("A", f"lag{lag:02d}") for lag in range(1, config.ar_lags + 1)]
    for ind in lagged_ids:
        layout += [("L", f"{ind}_lag{lag:02d}") for lag in range(0, config.regressor_lags + 1)]
    return tuple(layout)


def _known_rows(
    config: AdditiveConfig, start: Month, n: int, rows: np.ndarray,
    regressors: Mapping[str, np.ndarray], at: np.ndarray,
) -> np.ndarray:
    """Design rows, in `_layout_for(config, regressors)` order, of the
    positions `rows` of a frame that starts at `start` and trains on `n`
    months, with zeros in the A (AR-lag) columns: every other column is
    known without the target. `regressors[id][at]` is each indicator's
    value at `rows`."""
    t = rows / max(n - 1, 1)
    columns = [np.ones(len(rows)), t]
    columns += [np.maximum(0.0, t - c) for c in config.changepoints()]
    for period, order in config.seasonalities:
        for k in range(1, order + 1):
            angle = 2.0 * math.pi * k * rows / period
            columns += [np.sin(angle), np.cos(angle)]
    for _, event in config.events:
        columns.append(np.array([start.shift(int(i)) in event for i in rows], dtype=float))
    columns += [regressors[i][at] for i in regressors if i in config.future_known]
    columns += [np.zeros(len(rows))] * config.ar_lags
    for i in regressors:
        if i not in config.future_known:
            columns += [regressors[i][at - lag] for lag in range(config.regressor_lags + 1)]
    return np.column_stack(columns)


def build_design(
    train: AlignedFrame, config: AdditiveConfig
) -> tuple[tuple[tuple[str, str], ...], np.ndarray]:
    """The column layout and the (rows x columns) design of `config` on
    `train`, one row per month after the first `config.dropped_rows`."""
    n = len(train)
    drop = config.dropped_rows
    if config.ar_lags >= n:
        raise InsufficientDataError(f"ar_lags {config.ar_lags} >= training length {n}")
    if n - drop < 3:
        raise InsufficientDataError(
            f"only {n - drop} usable rows after dropping {drop}; need at least 3"
        )
    y = np.asarray(train.target.require_complete())
    regressors = {s.id: np.asarray(s.require_complete()) for s in train.indicators}
    layout = _layout_for(config, train.indicator_ids)
    rows = np.arange(drop, n)
    values = _known_rows(config, train.start, n, rows, regressors, rows)
    for lag in range(1, config.ar_lags + 1):
        values[:, layout.index(("A", f"lag{lag:02d}"))] = y[drop - lag : n - lag]
    return layout, values


def _ridge_solver(
    layout: Sequence[tuple[str, str]], values: np.ndarray, y: np.ndarray, ridge_lambda: float
):
    """`columns -> coefficients` of the ridge fit of `y` on those columns of
    the design `values`, laid out as `layout`. Only the intercept and base
    trend slope go unpenalised, so for ridge_lambda > 0 the normal
    equations, taken from one penalised Gram matrix for every subset, are
    positive definite and solved by LU; a (subsets x columns) stack of
    column lists is solved in one stacked call. At 0 least squares copes
    with a rank-deficient design."""
    if ridge_lambda == 0:
        return lambda columns: np.linalg.lstsq(values[:, columns], y, rcond=None)[0]
    penalty = np.array(
        [0.0 if (tag == "intercept" or (tag == "T" and name == "t")) else ridge_lambda
         for tag, name in layout]
    )
    gram = values.T @ values
    gram.flat[:: len(layout) + 1] += penalty
    moment = values.T @ y

    def solve(columns):
        columns = np.asarray(columns)
        normal = gram[columns[..., :, None], columns[..., None, :]]
        return np.linalg.solve(normal, moment[columns][..., None])[..., 0]

    return solve


def _tail_length(config: AdditiveConfig) -> int:
    """How many of the last target and regressor values a forecast reads."""
    return max(config.ar_lags, config.regressor_lags, 1)


def fit(train: AlignedFrame, config: AdditiveConfig) -> FittedAdditive:
    layout, values = build_design(train, config)
    y_full = np.asarray(train.target.require_complete())
    y = y_full[config.dropped_rows :]
    coeffs = _ridge_solver(layout, values, y, config.ridge_lambda)(np.arange(len(layout)))
    tail = _tail_length(config)
    return FittedAdditive(
        config=config,
        coefficients=tuple(float(c) for c in coeffs),
        target_id=train.target.id,
        regressor_ids=train.indicator_ids,
        train_start=train.start,
        train_length=len(train),
        target_tail=tuple(y_full[-tail:]),
        regressor_tails=tuple(
            tuple(s.require_complete()[-tail:].tolist()) for s in train.indicators
        ),
    )


def _ar_steps(
    exogenous: np.ndarray, ar: np.ndarray, target: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """The forecast and its A (AR-lag) part. Each step adds to `exogenous`
    the `ar` coefficients (lag 1 first) times the values before it: the end
    of `target`, then the forecast so far. With one column of `exogenous`
    and of `ar` per fit, every fit steps at once."""
    p = len(ar)
    lags = list(ar[::-1])  # lag p first, as `path` runs
    path = [float(v) for v in target[len(target) - p :]]
    part = []
    for exog in exogenous:
        part.append(sum((c * v for c, v in zip(lags, path[len(path) - p :])), 0.0))
        path.append(exog + part[-1])
    return np.array(path[p:]), np.array(part)


def forecast(
    fitted: FittedAdditive, horizon: int, future_regressors: np.ndarray | None = None
) -> MonthlySeries:
    """Recursive forecast of the `horizon` months past the training end.
    `future_regressors` is a `future_matrix` of the fitted regressors, in
    fitted order."""
    future = future_matrix(future_regressors, horizon, fitted.regressor_ids)
    tails = zip(fitted.regressor_ids, fitted.regressor_tails)
    regressors = {i: np.concatenate([tail, future[:, j]]) for j, (i, tail) in enumerate(tails)}
    n, tail_len = fitted.train_length, len(fitted.target_tail)  # a tail ends at row n - 1
    rows = np.arange(n, n + horizon)
    at = rows - (n - tail_len)
    known = _known_rows(fitted.config, fitted.train_start, n, rows, regressors, at)
    coeffs = np.asarray(fitted.coefficients)
    tags = np.array([tag for tag, _ in fitted.layout])
    # One product per tag, added in tag order; the A columns of `known` are
    # zero until stepped.
    exogenous = sum(known[:, tags == tag] @ coeffs[tags == tag] for tag in COMPONENT_TAGS)
    values = _ar_steps(exogenous, coeffs[tags == "A"], fitted.target_tail)[0]
    return MonthlySeries(fitted.target_id, fitted.train_end.shift(1), values)


def round_forecaster(
    train: AlignedFrame, config: AdditiveConfig, horizon: int, futures: Mapping[str, np.ndarray]
) -> Callable[[Sequence[str], Sequence[str]], np.ndarray] | None:
    """`forecast_round(current, candidates)`, which forecasts a greedy
    round of `config` on `train` at once, or None without a ridge penalty.
    `futures` holds each indicator's `horizon` future values by id. The
    design, its Gram matrix and the forecast rows are built once for every
    indicator of `train`; each round selects its columns of them."""
    if config.ridge_lambda == 0:
        return None
    layout, values = build_design(train, config)
    y = np.asarray(train.target.require_complete())
    solve = _ridge_solver(layout, values, y[config.dropped_rows :], config.ridge_lambda)
    regressors = {s.id: np.concatenate([s.require_complete(), futures[s.id]])
                  for s in train.indicators}
    n = len(train)
    rows = np.arange(n, n + horizon)
    known = _known_rows(config, train.start, n, rows, regressors, rows)
    column = {col: j for j, col in enumerate(layout)}
    ar_columns = [column["A", f"lag{lag:02d}"] for lag in range(1, config.ar_lags + 1)]
    shared = set(_layout_for(config, ()))
    own = {i: sorted(column[col] for col in _layout_for(config, (i,)) if col not in shared)
           for i in train.indicator_ids}

    def forecast_round(current: Sequence[str], candidates: Sequence[str]) -> np.ndarray:
        """One column per candidate: to rounding, the forecast of `fit` on
        `current` plus that candidate, whose own columns follow those of
        `current`. The candidates that add as many columns (lagged or
        future-known) are solved in one stacked call, and every forecast
        steps at once. A group whose stacked solve fails is NaN, left to
        each candidate's own fit."""
        out = np.full((horizon, len(candidates)), np.nan)
        base = [column[col] for col in _layout_for(config, current)]
        by_width: dict[int, list[int]] = {}
        for j, cid in enumerate(candidates):
            by_width.setdefault(len(own[cid]), []).append(j)
        for group in by_width.values():
            at = np.array([base + own[candidates[j]] for j in group])
            coeffs = np.zeros((len(group), len(layout)))
            try:
                np.put_along_axis(coeffs, at, solve(at), axis=1)
            except np.linalg.LinAlgError:
                continue
            out[:, group] = _ar_steps(known @ coeffs.T, coeffs[:, ar_columns].T, y)[0]
        return out

    return forecast_round


def auto_config(train: AlignedFrame) -> AdditiveConfig:
    """Deterministic defaults scaled to the training length."""
    n = len(train)
    if n < 12:
        raise InsufficientDataError(f"auto_config needs at least 12 months, got {n}")
    seasonalities = ((12.0, 3),) if n >= 24 else ()
    ar_lags = min(12, n // 4)
    return AdditiveConfig(
        n_changepoints=min(10, n // 8),
        changepoint_range=0.8,
        seasonalities=seasonalities,
        ar_lags=ar_lags,
        regressor_lags=ar_lags,
        ridge_lambda=0.1,
    )


# ---------------------------------------------------------------------------
# JSON serialization (schema documented in docs/schemas.md)

def config_from_doc(doc: dict) -> AdditiveConfig:
    """Config from its JSON form. Missing keys take AdditiveConfig's
    defaults; unknown keys are rejected."""
    return from_object(AdditiveConfig, doc, "additive config", convert={
        "seasonalities": lambda v: tuple((float(p), int(o)) for p, o in v),
        "events": lambda v: tuple(
            (eid, frozenset(Month.parse(m) for m in months)) for eid, months in v
        ),
    })


def to_doc(fitted: FittedAdditive) -> dict:
    events = {"events": lambda v: [[eid, sorted(map(str, months))] for eid, months in v]}
    return {"schema": SCHEMA, **to_object(fitted, convert={
        "config": lambda config: to_object(config, convert=events),
    })}


def from_doc(doc: dict) -> FittedAdditive:
    """Inverse of `to_doc`, given the document without its schema. A
    repeated regressor id, coefficients that do not fit the design, and
    tails of other lengths than `fit` writes are refused."""
    fitted = from_object(FittedAdditive, doc, "model", convert={
        "config": config_from_doc,
        "regressor_ids": lambda ids: distinct_ids(ids, "regressor_ids"),
    })
    n = min(_tail_length(fitted.config), fitted.train_length)
    lengths = [len(tail) for tail in fitted.regressor_tails]
    if len(fitted.target_tail) != n or lengths != [n] * len(fitted.regressor_ids):
        raise ValueError(f"target_tail holds {len(fitted.target_tail)} values and "
                         f"regressor_tails {lengths} for regressors "
                         f"{list(fitted.regressor_ids)}; fit leaves {n} each")
    return fitted
