"""The one interface to both forecasting models.

Everything outside this module treats a model as a `ModelSpec` to fit, a
fitted object to forecast from, and a JSON document to persist and reload.
Every fitted object names the first and last months it trained on
`train_start` and `train_end`, and its regressors, in order, `regressor_ids`;
`ends_with_tail` alone reads which field holds the end of its target.
Only this module knows that the spec names SARIMAX or the additive model and
which module serves each; reloading dispatches on the document's `schema`.
`Validation` is the one out-of-sample scorer: forward selection and
`with_order`, the one place a SARIMAX order grid becomes an order, score
through it. It scores a single subset with `fit` and `forecast` alone; only
a whole greedy round goes to a model module's `round_forecaster`, which this
module alone calls. A regressor's future is a plain array of its values over
the horizon, and `forecast` is the one place that checks that every fitted
regressor has one long enough.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import additive, sarimax
from .errors import (
    GridSearchError, InsufficientDataError, MissingValueError, check_kind, from_object,
    read_document,
)
from .series import AlignedFrame, MonthlySeries, mae, split_train_test

__all__ = [
    "ModelSpec",
    "Fitted",
    "spec_from_config",
    "with_order",
    "fit",
    "regressor_forecasts",
    "ends_with_tail",
    "forecast",
    "Validation",
    "to_doc",
    "from_doc",
]

Fitted = Union[sarimax.FittedSarimax, additive.FittedAdditive]


# The ModelSpec fields each model reads besides its name; it takes no other.
MODEL_KINDS = {"sarimax": ("order", "grid"), "additive": ("additive_config",)}
MODEL_KEYS = {"additive_config": "config"}  # the config key of each field named otherwise


@dataclass(frozen=True)
class ModelSpec:
    name: str  # a key of MODEL_KINDS
    order: sarimax.SarimaxOrder | None = None
    grid: tuple[sarimax.SarimaxOrder, ...] = ()
    additive_config: additive.AdditiveConfig | None = None  # None -> auto

    def __post_init__(self):
        check_kind(self, self.name, MODEL_KINDS, "model", renamed=MODEL_KEYS)
        if self.name == "sarimax" and (self.order is None) == (not self.grid):
            raise ValueError("sarimax model needs an order or a grid, not both")

    @property
    def label(self) -> str:
        if self.name == "sarimax":
            text = [f"({o.p},{o.d},{o.q})({o.P},{o.D},{o.Q})_{o.s}" for o in self.grid or (self.order,)]
            return f"sarimax[grid:{';'.join(text)}]" if self.grid else f"sarimax{text[0]}"
        return "additive[auto]" if self.additive_config is None else "additive"


def spec_from_config(entry: dict) -> ModelSpec:
    """One entry of an experiment config's "models" list. "auto", if given,
    is true or false and says whether an additive entry lacks a "config"."""
    doc = dict(entry) if isinstance(entry, dict) else entry
    auto = doc.pop("auto", None) if isinstance(doc, dict) else None
    spec = from_object(ModelSpec, doc, "model", renamed=MODEL_KEYS, convert={
        "order": sarimax.SarimaxOrder.from_list,
        "grid": lambda orders: tuple(map(sarimax.SarimaxOrder.from_list, orders)),
        "config": additive.config_from_doc,
    })
    if auto is not None and not isinstance(auto, bool):
        raise TypeError(f"model auto must be true or false, got {json.dumps(auto)}")
    if auto is not None and (spec.name, auto) != ("additive", spec.additive_config is None):
        raise ValueError(f'{spec.label} model cannot take "auto": {json.dumps(auto)}')
    return spec


def with_order(spec: ModelSpec, train: AlignedFrame, horizon: int) -> ModelSpec:
    """`spec` with its SARIMAX order grid replaced by the order that scores
    lowest on the target of `train` alone, held out over its last `horizon`
    months (a tie goes to the smallest `as_tuple()`); any other spec as it
    is. GridSearchError, listing each order's reason, when every order fails."""
    if not spec.grid:
        return spec
    validation = Validation(train.with_indicators(()), horizon)
    scored, failures = [], []
    for order in spec.grid:
        try:
            scored.append((validation.score(ModelSpec("sarimax", order=order), ()), order))
        except Exception as exc:  # noqa: BLE001 - per-order failures are data
            failures.append(f"{order.as_tuple()} -> {type(exc).__name__}: {exc}")
    if not scored:
        raise GridSearchError("every order failed: " + "; ".join(failures))
    return ModelSpec("sarimax", order=min(scored, key=lambda e: (e[0], e[1].as_tuple()))[1])


def fit(spec: ModelSpec, train: AlignedFrame) -> Fitted:
    """Fit `spec`, of a fixed order if SARIMAX (see `with_order`), on every
    indicator of `train`. An additive spec without a config takes
    `additive.auto_config`."""
    if spec.name == "sarimax":
        return sarimax.fit(train, spec.order)
    return additive.fit(train, spec.additive_config or additive.auto_config(train))


def regressor_forecasts(train: AlignedFrame, horizon: int) -> dict[str, np.ndarray]:
    """Each indicator of `train` continued over the next `horizon` months
    (`sarimax.extrapolate_regressor`), by id."""
    return {s.id: sarimax.extrapolate_regressor(s, horizon) for s in train.indicators}


class Validation:
    """Out-of-sample scoring on the last `horizon` months of `train`: the
    months before them are the training frame, and every indicator is
    continued over the held-out months once, for every subset and spec."""

    def __init__(self, train: AlignedFrame, horizon: int):
        self.train, held_out = split_train_test(train, horizon)
        self.horizon = horizon
        self.actual = held_out.target.require_complete()
        self.future = regressor_forecasts(self.train, horizon)

    def score(self, spec: ModelSpec, subset: Sequence[str]) -> float:
        """MAE of `spec` fitted on the indicators `subset` of the training
        frame, forecast over the held-out months."""
        fitted = fit(spec, self.train.with_indicators(subset))
        return mae(self.actual, forecast(fitted, self.horizon, self.future).require_complete())

    def round_scorer(
        self, spec: ModelSpec
    ) -> Callable[[Sequence[str], Sequence[str]], np.ndarray] | None:
        """`score_round(current, candidates)`, every candidate's MAE in one
        call, each equal to `score(spec, current + (candidate,))` to
        rounding and NaN where the round leaves it to that call; None for a
        spec without a batched round: an MA order, an additive model without
        ridge, or a frame whose shared design cannot be built (each subset's
        fit then raises why)."""
        rounds = None
        if spec.name == "sarimax":
            rounds = sarimax.round_forecaster(self.train, spec.order, self.horizon, self.future)
        elif spec.name == "additive":
            try:
                config = spec.additive_config or additive.auto_config(self.train)
                rounds = additive.round_forecaster(self.train, config, self.horizon, self.future)
            except (InsufficientDataError, MissingValueError):
                pass  # the frame is too short or gappy for the design
        if rounds is None:
            return None
        return lambda current, candidates: mae(self.actual, rounds(current, candidates))


def _module(fitted: Fitted):
    """The model module that produced `fitted`."""
    return sarimax if isinstance(fitted, sarimax.FittedSarimax) else additive


def ends_with_tail(fitted: Fitted, train: AlignedFrame) -> bool:
    """Whether the target of `train` ends with the target values `fitted`
    keeps for its forecast, exactly; the frame it was fitted on does, and
    every frame ends with an empty tail."""
    tail = fitted.tail_values if isinstance(fitted, sarimax.FittedSarimax) else fitted.target_tail
    values = train.target.array.tolist()
    return values[len(values) - len(tail):] == list(tail)


def forecast(fitted: Fitted, horizon: int, futures: Mapping[str, np.ndarray]) -> MonthlySeries:
    """`horizon` months past the training end, on the fitted scale, from
    `futures`, each regressor's future values by id. The first `horizon`
    values of each regressor the model was fitted on are read, in fitted
    order; a ValueError names those with fewer."""
    ids = fitted.regressor_ids
    short = [i for i in ids if len(futures.get(i, ())) < horizon]
    if short:
        raise ValueError(f"regressors without {horizon} future values: {short}")
    matrix = np.array([futures[i][:horizon] for i in ids]).T if ids else None
    return _module(fitted).forecast(fitted, horizon, matrix)


def to_doc(fitted: Fitted) -> dict:
    """The fitted model's JSON document; `from_doc` reloads it exactly."""
    return _module(fitted).to_doc(fitted)


def from_doc(doc: dict, path: str = "model document") -> Fitted:
    """Reload a `to_doc` document, parsed from the file `path`; a document
    of neither model's schema, or one its model cannot read, raises
    SchemaError naming the file, and a retired schema says what to do instead."""
    modules = {sarimax.SCHEMA: sarimax, additive.SCHEMA: additive}
    return read_document(path, tuple(modules), lambda body: modules[doc["schema"]].from_doc(body),
                         doc=doc, retired={**sarimax.RETIRED, **additive.RETIRED})
