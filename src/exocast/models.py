"""The one interface to both forecasting models.

Everything outside this module treats a model as a `ModelSpec` to fit, a
fitted object to forecast from, and a JSON document to persist and reload.
Only this module knows that the spec names SARIMAX or the additive model and
which module serves each; reloading dispatches on the document's `schema`.
Forward selection scores a single subset with `fit` and `forecast` alone;
only a whole greedy round goes to a model module's `round_forecaster`,
which this module alone calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from . import additive, sarimax
from .errors import InsufficientDataError, MissingValueError, from_object, read_document
from .series import AlignedFrame, Month, MonthlySeries, NormalizationParams
from .sarimax import RegressorForecast

__all__ = [
    "ModelSpec",
    "Fitted",
    "spec_from_config",
    "fit",
    "regressor_forecasts",
    "trained_on",
    "forecast",
    "subset_forecaster",
    "to_doc",
    "from_doc",
]

Fitted = Union[sarimax.FittedSarimax, additive.FittedAdditive]


@dataclass(frozen=True)
class ModelSpec:
    name: str  # sarimax | additive
    order: sarimax.SarimaxOrder | None = None
    grid: tuple[sarimax.SarimaxOrder, ...] = ()
    additive_config: additive.AdditiveConfig | None = None  # None -> auto

    def __post_init__(self):
        if self.name not in ("sarimax", "additive"):
            raise ValueError(f"unknown model {self.name!r}")
        if self.name == "sarimax" and (self.order is None) == (not self.grid):
            raise ValueError("sarimax model needs an order or a grid, not both")
        if self.name == "sarimax" and self.additive_config is not None:
            raise ValueError("sarimax model takes no additive config")
        if self.name == "additive" and (self.order is not None or self.grid):
            raise ValueError("additive model takes no order or grid")

    @property
    def label(self) -> str:
        if self.name == "sarimax":
            if self.order is not None:
                o = self.order
                return f"sarimax({o.p},{o.d},{o.q})({o.P},{o.D},{o.Q})_{o.s}"
            return f"sarimax[grid:{len(self.grid)}]"
        return "additive[auto]" if self.additive_config is None else "additive"


def spec_from_config(entry: dict) -> ModelSpec:
    """One entry of an experiment config's "models" list. "auto", if given,
    says whether an additive entry lacks a "config"."""
    doc = dict(entry) if isinstance(entry, dict) else entry
    auto = doc.pop("auto", None) if isinstance(doc, dict) else None
    spec = from_object(ModelSpec, doc, "model", renamed={"additive_config": "config"}, convert={
        "order": sarimax.SarimaxOrder.from_list,
        "grid": lambda orders: tuple(map(sarimax.SarimaxOrder.from_list, orders)),
        "config": additive.config_from_doc,
    })
    if auto is not None and (spec.name, bool(auto)) != ("additive", spec.additive_config is None):
        raise ValueError(f'{spec.label} model cannot take "auto": {json.dumps(auto)}')
    return spec


def fit(
    spec: ModelSpec,
    train: AlignedFrame,
    horizon: int,
    normalization: NormalizationParams | None,
) -> Fitted:
    """Fit `spec` on every indicator of `train`. A SARIMAX order grid is
    searched on the last `horizon` training months; an additive spec without
    a config takes `additive.auto_config`. `normalization` is recorded on
    SARIMAX fits only."""
    if spec.name == "sarimax":
        order = spec.order or sarimax.grid_search_order(train, spec.grid, horizon)[0]
        return sarimax.fit(train, order, normalization=normalization)
    return additive.fit(train, spec.additive_config or additive.auto_config(train))


def regressor_forecasts(train: AlignedFrame, horizon: int) -> dict[str, RegressorForecast]:
    """The straight-line continuation of each indicator of `train`, by id."""
    return {s.id: sarimax.extrapolate_regressor(s, horizon) for s in train.indicators}


def subset_forecaster(
    spec: ModelSpec, train: AlignedFrame, horizon: int, future: Mapping[str, RegressorForecast]
) -> Callable[[tuple[str, ...]], Sequence[float]]:
    """`subset -> forecast values` of `spec` fitted on those indicators of
    `train`: `fit`, then `forecast`, which must be complete. A SARIMAX spec
    of one order without MA terms and an additive spec with a ridge penalty
    also forecast a whole greedy round at once: the callable then has the
    model's `forecast_round(current, candidates)` method. A frame whose
    shared design cannot be built has no round; each subset's fit raises
    why."""
    def forecast_subset(subset: tuple[str, ...]) -> Sequence[float]:
        fitted = fit(spec, train.with_indicators(subset), horizon, None)
        return forecast(fitted, horizon, future).require_complete()

    futures, forecast_round = list(future.values()), None
    if spec.name == "sarimax" and spec.order is not None:
        forecast_round = sarimax.round_forecaster(train, spec.order, horizon, futures)
    elif spec.name == "additive":
        try:
            config = spec.additive_config or additive.auto_config(train)
            forecast_round = additive.round_forecaster(train, config, horizon, futures)
        except (InsufficientDataError, MissingValueError):
            pass  # the frame is too short or gappy for the design
    if forecast_round is not None:
        forecast_subset.forecast_round = forecast_round
    return forecast_subset


def _module(fitted: Fitted):
    """The model module that produced `fitted`."""
    return sarimax if isinstance(fitted, sarimax.FittedSarimax) else additive


def trained_on(fitted: Fitted) -> tuple[Month | None, Month, tuple[str, ...]]:
    """The first and last training months of `fitted` and the ids of the
    regressors it was fitted on, in order. The first month is None for a
    SARIMAX document written before it was recorded."""
    ids = fitted.regressor_ids if _module(fitted) is sarimax else fitted.indicator_ids
    return fitted.train_start, fitted.train_end, ids


def forecast(
    fitted: Fitted,
    horizon: int,
    regressor_forecasts_by_id: Mapping[str, RegressorForecast],
) -> MonthlySeries:
    """`horizon` months past the training end, on the fitted scale. Only the
    regressors the model was fitted on are read from the mapping; the model
    rejects a forecast that lacks one."""
    *_, ids = trained_on(fitted)
    future = [regressor_forecasts_by_id[i] for i in ids if i in regressor_forecasts_by_id]
    return _module(fitted).forecast(fitted, horizon, future)


def to_doc(fitted: Fitted) -> dict:
    """The fitted model's JSON document; `from_doc` reloads it exactly."""
    return _module(fitted).to_doc(fitted)


def from_doc(doc: dict, path: str = "model document") -> Fitted:
    """Reload a `to_doc` document, parsed from the file `path`; a document
    of neither model's schema, or one its model cannot read, raises
    SchemaError naming the file."""
    modules = {sarimax.SCHEMA: sarimax, additive.SCHEMA: additive}
    return read_document(path, tuple(modules),
                         lambda body: modules[doc["schema"]].from_doc(body), doc=doc)
