"""Which exocast functions the traced run wraps, and the per-layer metrics
read from the spans, counts and counters they record."""

from __future__ import annotations

import math

from tracing import Tracer, outermost_seconds, self_times

PREPROCESS = ("interpolate_missing", "smooth", "linear_detrend", "min_max_normalize")
SERIES_IO = ("read_series_csv", "write_series_csv")


def _fingerprint(value):
    """A hashable stand-in for an argument; series, frames and candidate
    sets are reduced to their ids and values."""
    from exocast.selection import CandidateSet
    from exocast.series import AlignedFrame, MonthlySeries

    if isinstance(value, MonthlySeries):
        return ("series", value.id, str(value.start), value.values)
    if isinstance(value, AlignedFrame):
        return ("frame", _fingerprint(value.target), tuple(_fingerprint(s) for s in value.indicators))
    if isinstance(value, CandidateSet):
        return ("candidates", _fingerprint(value.frame), value.candidate_ids)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _input_key(tag: str):
    def key(*args, **kwargs) -> int:
        return hash(
            (
                tag,
                tuple(_fingerprint(a) for a in args),
                tuple(sorted((k, _fingerprint(v)) for k, v in kwargs.items())),
            )
        )

    return key


def _optimizer_result(counters, result, args, kwargs) -> None:
    counters["optimizer.results"] += 1
    counters["optimizer.nfev"] += int(result.nfev)
    counters["optimizer.nit"] += int(result.nit)
    counters["optimizer.not_converged"] += not result.success
    bounds = kwargs.get("bounds") or ()
    at_bound = any(
        bound is not None and abs(x - bound) <= 1e-8 * max(1.0, abs(bound))
        for x, pair in zip(result.x, bounds)
        for bound in pair
    )
    counters["optimizer.at_bound"] += at_bound


def _forward_result(counters, result, args, kwargs) -> None:
    counters["forward.evaluations"] += result.diagnostics["evaluations"]
    counters["forward.failed_evaluations"] += result.diagnostics["failed_evaluations"]


def _funnel_result(counters, result, args, kwargs) -> None:
    counters["funnel.stored"] += len(result.stored)
    counters["funnel.candidates"] += result.after_coverage


def install(tracer: Tracer) -> None:
    """Wrap every traced function at all of its exocast bindings."""
    wrap = tracer.wrap
    wrap("exocast.selection", "lasso_select", "selection.lasso_select", key=_input_key("lasso"))
    wrap("exocast.selection", "lasso_coordinate_descent", "selection.lasso_coordinate_descent")
    wrap("exocast.selection", "correlation_select", "selection.correlation_select",
         key=_input_key("correlation"))
    wrap("exocast.selection", "forward_select", "selection.forward_select",
         on_result=_forward_result)
    wrap("exocast.series", "pearson_correlation", "series.pearson_correlation")
    for attr in PREPROCESS:
        wrap("exocast.experiment", attr, "series.preprocess", key=_input_key(attr),
             only_in=("exocast.experiment",))
    for attr in SERIES_IO:
        wrap("exocast.series", attr, "series.io")
    wrap("exocast.sarimax", "fit", "sarimax.fit")
    wrap("exocast.sarimax", "forecast", "sarimax.forecast")
    wrap("exocast.sarimax", "extrapolate_regressor", "sarimax.extrapolate_regressor")
    wrap("exocast.sarimax", "minimize", "sarimax.optimizer", on_result=_optimizer_result)
    wrap("exocast.additive", "fit", "additive.fit")
    wrap("exocast.additive", "forecast", "additive.forecast")
    wrap("exocast.additive", "auto_config", "additive.auto_config")
    wrap("exocast.eurostat", "run_funnel", "eurostat.run_funnel", on_result=_funnel_result)
    wrap("exocast.eurostat", "fetch_dataset", "eurostat.fetch_dataset")
    wrap("exocast.eurostat", "pick_representative", "eurostat.pick_representative")
    wrap("exocast.eurostat", "store_series", "eurostat.store_series")
    wrap("exocast.eurostat", "list_cached_series", "eurostat.list_cached_series")
    wrap("exocast.synth", "generate_synthetic", "synth.generate_synthetic")
    wrap("exocast.experiment", "run_experiment", "experiment.run_experiment")
    wrap("exocast.experiment", "persist_run", "experiment.persist_run")
    wrap("exocast.experiment", "reload_run", "experiment.reload_run")
    wrap("exocast.experiment", "emit_plot_data", "experiment.emit_plot_data")
    for command in ("fetch", "experiment", "report"):
        wrap("exocast.cli", f"cmd_{command}", f"cli.{command}")


# (name, unit, better). "<span>.calls", "<span>.s" and "<span>.distinct_ratio"
# are read from the spans of that name; the rest come from result counters,
# or from the untraced passes: the selection.forward quality ratios and the
# experiment.* sizes are printed here because they read 0 or are undefined on
# some workloads, which an end-to-end metric may not.
PER_LAYER = (
    ("selection.lasso_select.calls", "count", "lower"),
    ("selection.lasso_select.s", "s", "lower"),
    ("selection.lasso_select.distinct_ratio", "ratio", "higher"),
    ("selection.lasso_coordinate_descent.calls", "count", "lower"),
    ("selection.lasso_coordinate_descent.s", "s", "lower"),
    ("sarimax.fit.calls", "count", "lower"),
    ("sarimax.fit.s", "s", "lower"),
    ("sarimax.forecast.s", "s", "lower"),
    ("sarimax.extrapolate_regressor.calls", "count", "lower"),
    ("sarimax.extrapolate_regressor.s", "s", "lower"),
    ("sarimax.optimizer.nfev", "count", "lower"),
    ("sarimax.optimizer.nit", "count", "lower"),
    ("sarimax.optimizer.not_converged_frac", "ratio", "lower"),
    ("sarimax.optimizer.at_bound_frac", "ratio", "lower"),
    ("additive.fit.calls", "count", "lower"),
    ("additive.fit.s", "s", "lower"),
    ("additive.forecast.s", "s", "lower"),
    ("additive.auto_config.s", "s", "lower"),
    ("selection.forward_select.calls", "count", "lower"),
    ("selection.forward_select.s", "s", "lower"),
    ("selection.forward.evaluations", "count", "lower"),
    ("selection.forward.failed_frac", "ratio", "lower"),
    ("selection.forward.win_frac", "ratio", "higher"),
    ("selection.forward.driver_recovery_frac", "ratio", "higher"),
    ("selection.correlation_select.calls", "count", "lower"),
    ("selection.correlation_select.s", "s", "lower"),
    ("selection.correlation_select.distinct_ratio", "ratio", "higher"),
    ("series.pearson_correlation.calls", "count", "lower"),
    ("series.pearson_correlation.s", "s", "lower"),
    ("series.preprocess.calls", "count", "lower"),
    ("series.preprocess.s", "s", "lower"),
    ("series.preprocess.distinct_ratio", "ratio", "higher"),
    ("series.io.calls", "count", "lower"),
    ("series.io.s", "s", "lower"),
    ("eurostat.run_funnel.s", "s", "lower"),
    ("eurostat.fetch_dataset.calls", "count", "lower"),
    ("eurostat.fetch_dataset.s", "s", "lower"),
    ("eurostat.pick_representative.s", "s", "lower"),
    ("eurostat.store_series.calls", "count", "lower"),
    ("eurostat.store_series.s", "s", "lower"),
    ("eurostat.list_cached_series.s", "s", "lower"),
    ("eurostat.funnel.stored_frac", "ratio", "higher"),
    ("synth.generate_synthetic.s", "s", "lower"),
    ("experiment.run_experiment.s", "s", "lower"),
    ("experiment.run_experiment.self_s", "s", "lower"),
    ("experiment.persist_run.s", "s", "lower"),
    ("experiment.reload_run.s", "s", "lower"),
    ("experiment.emit_plot_data.s", "s", "lower"),
    ("experiment.run_dir_bytes", "bytes", "lower"),
    ("experiment.run_dir_files", "count", "lower"),
    ("experiment.cell_fail_frac", "ratio", "lower"),
    ("cli.fetch.s", "s", "lower"),
    ("cli.experiment.s", "s", "lower"),
    ("cli.report.s", "s", "lower"),
    ("trace.grid_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def trace_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers read from one traced pass."""
    seconds = outermost_seconds(tracer.spans)
    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = tracer.calls[span]
        elif kind == "s":
            out[metric] = seconds.get(span, 0.0)
        elif kind == "distinct_ratio":
            out[metric] = _ratio(len(tracer.inputs[span]), tracer.calls[span])
    self_s = self_times(tracer.spans)
    out["experiment.run_experiment.self_s"] = math.fsum(
        s for span, s in zip(tracer.spans, self_s) if span.name == "experiment.run_experiment"
    )
    c = tracer.counters
    out["sarimax.optimizer.nfev"] = c["optimizer.nfev"]
    out["sarimax.optimizer.nit"] = c["optimizer.nit"]
    out["sarimax.optimizer.not_converged_frac"] = _ratio(c["optimizer.not_converged"], c["optimizer.results"])
    out["sarimax.optimizer.at_bound_frac"] = _ratio(c["optimizer.at_bound"], c["optimizer.results"])
    out["selection.forward.evaluations"] = c["forward.evaluations"]
    out["selection.forward.failed_frac"] = _ratio(
        c["forward.failed_evaluations"], c["forward.evaluations"] + c["forward.failed_evaluations"]
    )
    out["eurostat.funnel.stored_frac"] = _ratio(c["funnel.stored"], c["funnel.candidates"])
    return out
