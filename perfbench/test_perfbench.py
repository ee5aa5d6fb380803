"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import run

run._import_exocast()

import layers  # noqa: E402
from tracing import Span, Tracer, installed_wrappers, outermost_seconds, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    names = [m[0] for m in run.END_TO_END] + [m[0] for m in layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better, *_ in (*run.END_TO_END, *layers.PER_LAYER):
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")


def test_benchmark_json_lists_what_the_command_prints():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    from workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_self_time_subtracts_covered_child_time():
    # root 0..10 with children 1..3 and 2..6 (overlapping: 1..6 covered)
    # and 8..9; the 2..6 child has a grandchild 3..4.
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 6.0, 0),
        Span("c", 3.0, 4.0, 2),
        Span("d", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    spans = [Span("p", 0.0, 2.0, None), Span("c", 1.5, 3.0, 0)]
    assert self_times(spans) == pytest.approx([1.5, 1.5])


def test_outermost_seconds_does_not_count_recursion_twice():
    spans = [
        Span("f", 0.0, 4.0, None),
        Span("g", 1.0, 3.0, 0),
        Span("f", 1.5, 2.5, 1),
        Span("f", 5.0, 6.0, None),
    ]
    assert outermost_seconds(spans) == pytest.approx({"f": 5.0, "g": 2.0})


def _tiny_config():
    from exocast.experiment import DatasetSpec, ExperimentConfig, MethodSpec, ModelSpec, RangeSpec
    from exocast.sarimax import SarimaxOrder
    from exocast.series import Month
    from exocast.synth import SyntheticSpec

    spec = SyntheticSpec(n_months=40, n_indicators=3, n_drivers=1, driver_betas=(1.5,), seed=1)
    return ExperimentConfig(
        datasets=(DatasetSpec("s", "synthetic", synthetic=spec),),
        ranges=(RangeSpec(Month(2016, 1), Month(2018, 4)),),
        methods=(MethodSpec("none"), MethodSpec("lasso")),
        models=(ModelSpec("sarimax", order=SarimaxOrder(p=1)),),
        horizon=6,
    )


def test_wrappers_reach_from_imports_and_leave_nothing_installed():
    from exocast import cli, experiment, selection  # noqa: F401 - cli's bindings are wrapped too

    original = selection.lasso_select
    tracer = Tracer()
    try:
        layers.install(tracer)
        # The name experiment imported is replaced, not only the definition.
        assert experiment.lasso_select is not original
        assert "exocast.experiment.lasso_select" in tracer.sites
        assert "exocast.cli.COMMANDS[report]" in tracer.sites
        experiment.run_experiment(_tiny_config())
    finally:
        tracer.restore()
    assert tracer.reached["exocast.selection.lasso_select"] == 1
    assert tracer.calls["selection.lasso_select"] == 1
    assert tracer.counters["optimizer.results"] == 2
    assert tracer.check_restored() == []
    assert experiment.lasso_select is original and selection.lasso_select is original

    # An untraced run afterwards records nothing.
    spans = len(tracer.spans)
    experiment.run_experiment(_tiny_config())
    assert len(tracer.spans) == spans
    assert installed_wrappers() == []


def test_expected_calls_are_wrapped_functions():
    from workloads import WORKLOADS

    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.restore()
    for workload in WORKLOADS.values():
        assert set(workload.expected_calls) <= tracer.targets, workload.name


def test_wrapping_an_unbound_name_fails_loudly():
    tracer = Tracer()
    with pytest.raises(LookupError):
        tracer.wrap("exocast.experiment", "run_experiment", "x", only_in=("exocast.nowhere",))
    assert tracer.sites == []
