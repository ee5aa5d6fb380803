"""Command-line entry point: fetch, synth, select, fit, forecast, experiment,
report."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import models
from .errors import ExocastError, parse_json, to_object, write_document
from .eurostat import DEFAULT_KEYWORDS, run_funnel
from .experiment import (
    config_schema_text,
    emit_report,
    file_stem,
    load_config,
    reload_run,
    render_grid,
    run_experiment,
    select,
    training_frames,
)
from .selection import save_result
from .series import Month, write_series_csv
from .synth import TRUTH_SCHEMA, SyntheticSpec, generate_synthetic

log = logging.getLogger("exocast")


COMMON_FLAGS = {
    "--config": {"help": "experiment config JSON"},
    "--seed": {"type": int, "help": "override the synthetic seed"},
    "--out": {"help": "output directory"},
    "--offline": {"action": "store_true", "help": "never touch the network"},
}
CONFIG_FLAGS = ("--config", "--seed", "--out")  # the flags of the commands that run a config


def _common_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """The shared flags `names`, which the subcommand reads, and -v."""
    for name in names:
        parser.add_argument(name, **COMMON_FLAGS[name])
    parser.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exocast",
        description="Monthly demand forecasting with exogenous market indicators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="run the catalog funnel and cache one series per dataset")
    _common_flags(p, "--offline")
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--since", required=True, help="coverage cutoff, YYYY-MM")
    p.add_argument("--keywords", help="file with one parameter keyword per line")
    p.add_argument("--endpoint", help="catalog URL override")
    p.add_argument("--catalog-fixture", help="local catalog payload (no network)")
    p.add_argument("--dataset-fixture-dir", help="directory of <code>.json payloads")

    p = sub.add_parser("synth", help="generate a synthetic dataset as CSV files")
    _common_flags(p, "--seed", "--out")
    p.add_argument("--months", type=int, default=76)
    p.add_argument("--indicators", type=int, default=10)
    p.add_argument("--drivers", type=int, default=2)
    p.add_argument("--betas", default="1.5,1.0", help="comma-separated driver betas")
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--ar", type=float, default=0.6)
    p.add_argument("--start", default="2016-01")

    p = sub.add_parser("select", help="run the configured selection methods only")
    _common_flags(p, *CONFIG_FLAGS)

    p = sub.add_parser("fit", help="fit one configured model on the training range")
    _common_flags(p, *CONFIG_FLAGS)
    p.add_argument("--method", default=None, help="selection method (default: first configured)")
    p.add_argument("--model-index", type=int, default=0)

    p = sub.add_parser("forecast", help="forecast from a saved model file")
    _common_flags(p, *CONFIG_FLAGS)
    p.add_argument("--model-file", required=True)
    p.add_argument("--horizon", type=int, default=None)

    p = sub.add_parser("experiment", help="run the full grid from a config file")
    _common_flags(p, *CONFIG_FLAGS)
    p.add_argument("--print-schema", action="store_true", help="print the config schema and exit")

    p = sub.add_parser("report", help="re-emit tables and plot data from a finished run")
    _common_flags(p, "--out")
    p.add_argument("--run-dir", required=True)
    return parser


def _load(args) -> "ExperimentConfig":
    if not args.config:
        raise ExocastError("this command needs --config")
    config = load_config(args.config, seed_override=args.seed)
    if args.out:
        config = dataclasses.replace(config, out_dir=args.out)
    return config


def _read_input(path: str, flag: str) -> str:
    """The text of the file given to `flag`; an error naming it when it cannot be read."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ExocastError(f"cannot read {flag} {path}: {exc.strerror}") from exc


def cmd_fetch(args) -> int:
    keywords = DEFAULT_KEYWORDS
    if args.keywords:
        lines = _read_input(args.keywords, "--keywords").splitlines()
        keywords = tuple(k.strip() for k in lines if k.strip())
        if not keywords:
            raise ExocastError(f"--keywords {args.keywords} lists no keyword")
    if args.catalog_fixture and not Path(args.catalog_fixture).is_file():
        raise ExocastError(f"cannot read --catalog-fixture {args.catalog_fixture}: no such file")
    try:
        since = Month.parse(args.since)
    except ValueError as exc:
        raise ExocastError(f"fetch: --since: {exc}") from exc
    report = run_funnel(
        args.cache_dir,
        since=since,
        keywords=keywords,
        endpoint=args.endpoint,
        offline=args.offline,
        catalog_fixture=args.catalog_fixture,
        dataset_fixture_dir=args.dataset_fixture_dir,
    )
    print(f"catalog: {report.initial} datasets from {report.endpoint}")
    print(f"  monthly      -> {report.after_monthly}")
    print(f"  parameters   -> {report.after_parameters}")
    print(f"  coverage     -> {report.after_coverage}")
    print(f"  cached       -> {len(report.stored)} series under {args.cache_dir}")
    for code, reason in report.failures.items():
        print(f"  FAILED {code}: {reason}")
    return 0 if not report.failures else 1


def cmd_synth(args) -> int:
    if not args.out:
        raise ExocastError("synth needs --out")
    try:
        betas = tuple(float(b) for b in args.betas.split(",") if b) if args.drivers else ()
    except ValueError as exc:
        raise ExocastError(f"--betas {args.betas!r} is not a comma-separated list of numbers") from exc
    try:
        spec = SyntheticSpec(
            n_months=args.months,
            ar_coefficient=args.ar,
            seasonal_amplitude=args.amplitude,
            n_indicators=args.indicators,
            n_drivers=args.drivers,
            driver_betas=betas[: args.drivers],
            noise_sigma=args.noise,
            seed=args.seed or 0,
            start=Month.parse(args.start),
        )
    except ValueError as exc:
        raise ExocastError(f"synth: {exc}") from exc
    frame, truth = generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_series_csv(frame.target, out / "target.csv")
    for s in frame.indicators:
        write_series_csv(s, out / f"{s.id}.csv")
    write_document(out / "truth.json", TRUTH_SCHEMA, to_object(truth))
    print(f"wrote target + {len(frame.indicators)} indicators to {out}")
    return 0


def cmd_select(args) -> int:
    config = _load(args)
    out = Path(config.out_dir or "selections")
    out.mkdir(parents=True, exist_ok=True)
    for label, rng, train, _ in training_frames(config):
        for method in config.methods:
            for model in config.models if method.reads_model else config.models[:1]:
                fixed = models.with_order(model, train, config.horizon) if method.reads_model else model
                result = select(method, fixed, train, config.horizon, config.forward_cap)
                labels = (label, rng.label, method.label) + ((model.label,) if method.reads_model else ())
                name = file_stem(*labels) + ".json"
                save_result(result, out / name)
                print(f"{name}: {len(result.selected_ids)} selected")
    return 0


def cmd_fit(args) -> int:
    config = _load(args)
    method = next((m for m in config.methods if args.method in (None, m.name)), None)
    if method is None:
        names = ", ".join(m.name for m in config.methods)
        raise ExocastError(f"--method {args.method} is not configured; choose one of: {names}")
    if not 0 <= args.model_index < len(config.models):
        choices = ", ".join(f"{i} ({m.label})" for i, m in enumerate(config.models))
        raise ExocastError(f"--model-index {args.model_index} out of range; choose from: {choices}")
    model = config.models[args.model_index]
    out = Path(config.out_dir or "models")
    out.mkdir(parents=True, exist_ok=True)
    for label, rng, train, _ in training_frames(config):
        fixed = models.with_order(model, train, config.horizon)
        selection = select(method, fixed, train, config.horizon, config.forward_cap)
        name = file_stem(label, rng.label, method.label, model.label)
        fitted = models.fit(fixed, train.with_indicators(selection.selected_ids))
        doc = models.to_doc(fitted)  # it names its own schema
        write_document(out / f"{name}.json", doc["schema"], doc)
        save_result(selection, out / f"{name}.selection.json")
        print(f"fitted {name} ({len(selection.selected_ids)} regressors)")
    return 0


def _training_frame_of(fitted, config) -> "AlignedFrame":
    """The one configured training frame that spans the months `fitted` was
    trained on, holds its regressors and whose target ends with the model's
    stored tail."""
    start, end, ids = fitted.train_start, fitted.train_end, fitted.regressor_ids
    frames = {f"{label} @ {rng.label}": train for label, rng, train, _ in training_frames(config)}
    matches = [name for name, train in frames.items() if (train.start, train.end) == (start, end)
               and set(ids) <= set(train.indicator_ids) and models.ends_with_tail(fitted, train)]
    if len(matches) == 1:
        return frames[matches[0]]
    raise ExocastError(
        f"{len(matches)} training frames span {start}..{end}, hold regressors "
        f"{list(ids)} and end with the model's target tail; need exactly one of: "
        f"{', '.join(matches or frames)}"
    )


def cmd_forecast(args) -> int:
    if args.horizon is not None and args.horizon < 1:
        raise ExocastError(f"--horizon must be at least 1, got {args.horizon}")
    config = _load(args)
    horizon = config.horizon if args.horizon is None else args.horizon
    try:
        doc = parse_json(_read_input(args.model_file, "--model-file"))
    except ValueError as exc:
        raise ExocastError(f"--model-file {args.model_file} is not JSON: {exc}") from exc
    fitted = models.from_doc(doc, args.model_file)
    train = _training_frame_of(fitted, config)
    out = Path(config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    predicted = models.forecast(fitted, horizon, models.regressor_forecasts(train, horizon))
    path = out / "forecast.csv"
    write_series_csv(predicted, path)
    print(f"wrote {horizon}-month forecast (model scale) to {path}")
    return 0


def cmd_experiment(args) -> int:
    if args.print_schema:
        print(config_schema_text())
        return 0
    config = _load(args)
    table, artifacts = run_experiment(config)
    out = config.out_dir
    if out:
        print(f"artifacts under {out}")
    failures = [k for k, c in table.cells.items() if c.failed]
    header, rows, extra = render_grid(table)
    width = max(len(r[0]) for r in rows + [header])
    print("  ".join([header[0].ljust(width), *header[1:]]))
    for row in rows + extra:
        print("  ".join([row[0].ljust(width), *row[1:]]))
    if failures:
        print(f"{len(failures)} of {len(table.cells)} cells failed")
        return 1
    return 0


def cmd_report(args) -> int:
    out = args.out or args.run_dir
    written = emit_report(reload_run(args.run_dir), out)
    print(f"re-emitted {', '.join(path.name for path in written)} to {out}")
    return 0


COMMANDS = {
    "fetch": cmd_fetch,
    "synth": cmd_synth,
    "select": cmd_select,
    "fit": cmd_fit,
    "forecast": cmd_forecast,
    "experiment": cmd_experiment,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return COMMANDS[args.command](args)
    except ExocastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file or directory the command could not read or write
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
