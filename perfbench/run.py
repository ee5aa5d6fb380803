"""exocast benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Prints a human-readable summary, then as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). Scratch files go under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: exocast's matrices are tiny, and on a small shared machine
# OpenBLAS's extra threads spin, doubling CPU time and tying wall time to the
# neighbours' load. Set before numpy is first imported, here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5  # fewest set-up samples per run
SETUP_CODE = "import exocast.cli; exocast.cli.build_parser()"
MIN_PASSES = 2  # the determinism check compares repeats

# (name, unit, better, bound). grid_s and setup_s are medians over a run's
# untraced passes and set-up samples, peak_rss_mb is read after the first
# pass, and oos_mae_mean averages the first pass's successful cells.
END_TO_END = (
    ("grid_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("oos_mae_mean", "target-units", "lower", 0.05),
)


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_exocast() -> None:
    """Import exocast from this checkout's src/, never from elsewhere."""
    package = SRC / "exocast"
    if not (package / "__init__.py").is_file():
        _die(f"no exocast source at {package}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import exocast

    if Path(exocast.__file__).resolve().parent != package.resolve():
        _die(f"imported exocast from {exocast.__file__}, not {package}")


def measure_setup() -> float:
    """Wall seconds for a fresh interpreter to import exocast.cli and build
    its parser, as every CLI invocation does."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _summary(name: str, values: list[float], unit: str) -> str:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{name:<14} median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  (n={len(values)})"


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_exocast()
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    work = WORK / workload_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[workload_name](seed, work)

    # Set-up samples are taken between passes, so they meet the same
    # machine load as the passes do. Another pass starts only if, at the
    # average length of those so far, it ends within `seconds`.
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        setup.append(measure_setup())
        passes.append(workload.run_pass())
        if len(passes) == 1:
            # The high-water mark creeps up with each further pass, and how
            # many fit in `seconds` depends on the machine's speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup())
    first = passes[0]
    grid_s = statistics.median(result.seconds for result in passes)
    oos_mae_mean = math.fsum(first.maes) / len(first.maes) if first.maes else math.nan

    print(f"{workload_name} seed {seed}: {len(passes)} passes")
    print(_summary("grid_s", [result.seconds for result in passes], "s"))
    print(_summary("setup_s", setup, "s"))
    print(f"{'peak_rss_mb':<14} {peak_rss_mb:.6g} MiB")
    print(f"{'oos_mae_mean':<14} {oos_mae_mean:.6g} over {len(first.maes)} cells")

    problems = []
    if not trace:
        values = {
            "grid_s": grid_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "oos_mae_mean": oos_mae_mean,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    else:
        tracer = Tracer()
        try:
            layers.install(tracer)
            traced = workload.run_pass()
        finally:
            tracer.restore()
        tracer.write(work / "spans.jsonl")
        passes.append(traced)
        problems += tracer.check_restored()
        problems += [
            f"no call to {target} went through a wrapper"
            for target in workload.expected_calls
            if tracer.reached[target] == 0
        ]
        values = layers.trace_metrics(tracer)
        values.update({
            "selection.forward.win_frac": first.forward_wins / first.forward_pairs
            if first.forward_pairs else 0.0,
            "selection.forward.driver_recovery_frac": first.drivers_recovered / first.driver_datasets
            if first.driver_datasets else 0.0,
            "experiment.run_dir_bytes": first.run_dir_bytes,
            "experiment.run_dir_files": first.run_dir_files,
            "experiment.cell_fail_frac": first.failed_cells / first.cells,
            "trace.grid_s": traced.seconds,
            "trace.overhead_s": traced.seconds - grid_s,
        })
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
        print(f"{'trace.grid_s':<14} {traced.seconds:.6g} s, overhead {traced.seconds - grid_s:+.6g} s")
        print(f"wrapped {len(tracer.sites)} bindings, {len(tracer.spans)} spans")

    for i, result in enumerate(passes, start=1):
        problems += result.problems
        problems += [
            f"pass {i} wrote a different {name} than pass 1"
            for name, data in first.outputs.items()
            if result.outputs.get(name) != data
        ]
    problems = list(dict.fromkeys(problems))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.cells + r.datasets for r in passes),
        "failed": sum(r.failed_cells + r.failed_datasets for r in passes),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-forward", "protocol-grid", "market-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
