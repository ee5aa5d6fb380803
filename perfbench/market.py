"""Seeded inputs for the market-cli workload.

Writes, from one seed, everything `exocast fetch --offline` and
`exocast experiment` read: a catalog fixture, one JSON-stat payload per
dataset that survives the funnel, a keyword file, a target CSV and an
experiment config. The seed draws values and order; every count (catalog
entries, survivors per stage, series per payload, gaps per series) is fixed,
so the work per pass stays the same across seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SINCE = "2015-01"
LAST_YEAR, LAST_MONTH = 2022, 12  # target and payloads end here
TARGET_MONTHS = 96  # 2015-01 .. 2022-12

N_MONTHLY = 600  # then 250 quarterly and 150 annual
N_KEYWORD = 300  # monthly entries carrying a funnel keyword
N_SURVIVORS = 200  # monthly, keyword, and coverage from SINCE or earlier
N_DRIVERS = 2  # survivors planted in the target, used as the manual list
N_RELATED = 10  # survivors correlated with the target, but not planted
GEOS = ("AT", "DE", "FR", "IT")
GAPS_PER_SERIES = (2, 3, 4, 5)  # the first geo has the fewest gaps
PLANTED_STREAM = 0x6D6B74  # seeds the target, the drivers and the related series

KEYWORDS = ("business", "trade", "industry", "retail", "construction", "energy")
OTHER_PARAMETERS = ("health", "education", "population", "crime")

# Every key of the additive config: `additive._config_from_dict` rejects a
# partial document.
LEAN_ADDITIVE = {
    "n_changepoints": 2,
    "changepoint_range": 0.8,
    "seasonalities": [[12.0, 2]],
    "ar_lags": 2,
    "regressor_lags": 8,
    "events": [],
    "ridge_lambda": 1.0,
    "future_known": [],
}


@dataclass(frozen=True)
class MarketInputs:
    catalog: Path
    fixture_dir: Path
    keywords: Path
    config: Path
    cache_dir: Path
    run_dir: Path
    report_dir: Path
    survivors: tuple[str, ...]
    drivers: tuple[str, ...]


def _month_label(offset: int, year: int = 2015, month: int = 1) -> str:
    """YYYY-MM of the month `offset` months after `year-month`."""
    y, m = divmod(year * 12 + month - 1 + offset, 12)
    return f"{y:04d}-{m + 1:02d}"


def _months_between(year: int, month: int) -> int:
    """Months from `year-month` up to and including 2022-12."""
    return (LAST_YEAR - year) * 12 + (LAST_MONTH - month) + 1


def _jsonstat(code: str, times: list[str], rows: list[list[float | None]]) -> str:
    """One dataset payload: freq x unit x geo x time, row-major, nulls dropped."""
    n_time = len(times)
    values = {}
    for g, row in enumerate(rows):
        for t, value in enumerate(row):
            if value is not None:
                values[str(g * n_time + t)] = round(value, 6)
    return json.dumps(
        {
            "label": code,
            "id": ["freq", "unit", "geo", "time"],
            "size": [1, 1, len(GEOS), n_time],
            "dimension": {
                "freq": {"category": {"index": {"M": 0}}},
                "unit": {"category": {"index": {"I15": 0}}},
                "geo": {"category": {"index": {g: i for i, g in enumerate(GEOS)}}},
                "time": {"category": {"index": {t: i for i, t in enumerate(times)}}},
            },
            "value": values,
        }
    )


def _catalog_entries(rng: np.random.Generator) -> tuple[list[dict], list[str]]:
    """1,000 entries whose three funnel stages keep exactly N_SURVIVORS."""
    entries = []
    survivors = []
    frequencies = ["M"] * N_MONTHLY + ["Q"] * 250 + ["A"] * 150
    for i, frequency in enumerate(frequencies):
        code = f"MKT_{i:04d}"
        keyword = frequency == "M" and i < N_KEYWORD
        covered = keyword and i < N_SURVIVORS
        if keyword:
            params = [str(rng.choice(KEYWORDS)), str(rng.choice(OTHER_PARAMETERS))]
        else:
            params = [str(rng.choice(OTHER_PARAMETERS))]
        if covered or not keyword:
            earliest = f"{2008 + int(rng.integers(0, 7)):04d}-{1 + int(rng.integers(0, 12)):02d}"
        else:
            earliest = f"{2015 + int(rng.integers(1, 5)):04d}-{1 + int(rng.integers(0, 12)):02d}"
        long_label = {"M": "monthly", "Q": "quarterly", "A": "annual"}[frequency]
        entries.append(
            {
                "code": code,
                "title": f"market indicator {i}",
                "frequency": long_label if i % 2 else frequency,  # both spellings occur
                "dimensions": ["freq", "unit", "geo", "time"],
                "earliest_period": earliest,
                "parameters": params,
            }
        )
        if covered:
            survivors.append(code)
    order = rng.permutation(len(entries))
    return [entries[i] for i in order], survivors


def _payload_rows(core: np.ndarray, lead: int, rng: np.random.Generator) -> list[list[float | None]]:
    """Four geo variants of `core` (the 2015-01..2022-12 window), each with
    its own noise and interior gaps, preceded by `lead` earlier months. The
    window is drawn before the lead, so it does not depend on the lead."""
    windows = []
    for n_gaps in GAPS_PER_SERIES:
        values = core + 50.0 + rng.normal(0.0, 0.05, TARGET_MONTHS)
        holes = set(rng.choice(np.arange(1, TARGET_MONTHS - 1), size=n_gaps, replace=False).tolist())
        windows.append([None if i in holes else float(v) for i, v in enumerate(values)])
    leads = core[0] + 50.0 + rng.normal(0.0, 0.5, (len(GEOS), lead))
    return [lead_values + window for lead_values, window in zip(leads.tolist(), windows)]


def generate(seed: int, work: Path) -> MarketInputs:
    """Write the workload's inputs under `work` and describe them.

    The seed draws the catalog and the 188 unrelated indicator series. The
    target, its two planted drivers and the ten related series come from a
    fixed stream, so the cells' selections and scores, and with them the
    solver work, change little with the seed.
    """
    rng = np.random.default_rng([seed, PLANTED_STREAM + 1])
    work.mkdir(parents=True, exist_ok=True)
    fixture_dir = work / "fixtures"
    fixture_dir.mkdir(exist_ok=True)

    entries, survivors = _catalog_entries(rng)
    catalog = work / "toc.json"
    catalog.write_text(json.dumps({"datasets": entries}))
    keywords = work / "keywords.txt"
    keywords.write_text("\n".join(KEYWORDS) + "\n")

    fixed = np.random.default_rng(PLANTED_STREAM)
    t = np.arange(TARGET_MONTHS)
    drivers = [np.cumsum(fixed.normal(0.3, 1.0, TARGET_MONTHS)) for _ in range(N_DRIVERS)]
    target = 100.0 + 0.05 * t + 3.0 * np.sin(2 * np.pi * t / 12) + fixed.normal(0.0, 0.8, TARGET_MONTHS)
    for beta, driver in zip((1.5, 1.0), drivers):
        target = target + beta * driver

    by_code = {e["code"]: e for e in entries}
    for k, code in enumerate(survivors):
        year, month = (int(p) for p in by_code[code]["earliest_period"].split("-"))
        n = _months_between(year, month)
        planted = k < N_DRIVERS + N_RELATED
        series_rng = np.random.default_rng([PLANTED_STREAM if planted else seed, k])
        if k < N_DRIVERS:
            core = drivers[k]
        elif planted:
            core = drivers[0] + drivers[1] + series_rng.normal(0.0, 1.0, TARGET_MONTHS)
        else:
            core = np.zeros(TARGET_MONTHS)
            for i in range(1, TARGET_MONTHS):
                core[i] = 0.5 * core[i - 1] + series_rng.normal()
            core = core + 2.0 * np.sin(2 * np.pi * (t + k) / 12)
        rows = _payload_rows(core, n - TARGET_MONTHS, series_rng)
        times = [_month_label(i, year, month) for i in range(n)]
        (fixture_dir / f"{code}.json").write_text(_jsonstat(code, times, rows))

    target_csv = work / "target.csv"
    lines = ["period,value"] + [f"{_month_label(i)},{v!r}" for i, v in enumerate(target.tolist())]
    target_csv.write_text("\n".join(lines) + "\n")

    pass_dir = work / "pass"
    cache_dir = pass_dir / "cache"
    config = work / "experiment.json"
    config.write_text(
        json.dumps(
            {
                "datasets": [
                    {
                        "label": "market",
                        "kind": "eurostat_cache",
                        "target": str(target_csv),
                        "cache_root": str(cache_dir),
                    }
                ],
                "ranges": [
                    {"start": "2015-01", "end": "2021-12"},
                    {"start": "2019-01", "end": "2021-12"},
                ],
                "horizon": 12,
                "rolling_origins": 6,
                "methods": [
                    "none",
                    "correlation",
                    {"name": "manual", "ids": list(survivors[:N_DRIVERS])},
                ],
                "models": [
                    {"name": "sarimax", "order": [1, 0, 0, 0, 0, 0, 12]},
                    {"name": "additive", "config": LEAN_ADDITIVE},
                ],
                "preprocessing": {"smooth_window": 3, "detrend": True, "normalize": True},
                "jobs": 1,
            },
            indent=2,
        )
    )
    return MarketInputs(
        catalog=catalog,
        fixture_dir=fixture_dir,
        keywords=keywords,
        config=config,
        cache_dir=cache_dir,
        run_dir=pass_dir / "run",
        report_dir=pass_dir / "report",
        survivors=tuple(survivors),
        drivers=tuple(survivors[:N_DRIVERS]),
    )
