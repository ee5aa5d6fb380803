"""Statistical-office catalog and dataset client with an offline-first cache.

The funnel mirrors a three-stage narrowing of the full dataset catalog:
monthly frequency, relevant indicator parameters, and coverage since a cutoff
month; one representative series per surviving dataset is extracted and
cached. All parsing sits behind two functions (`_parse_catalog_payload`,
`_parse_dataset_payload`) so a wire-format migration touches only this
module. Cached runs make zero network calls.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import NotCachedError, PayloadError, SchemaError
from .series import Month, MonthlySeries

__all__ = [
    "DatasetDescriptor",
    "CatalogSnapshot",
    "SeriesKey",
    "RawDataset",
    "FunnelReport",
    "fetch_catalog",
    "filter_catalog",
    "fetch_dataset",
    "pick_representative",
    "store_catalog",
    "load_catalog",
    "store_series",
    "load_series",
    "list_cached_series",
    "write_manifest",
    "read_manifest",
    "run_funnel",
    "DEFAULT_KEYWORDS",
]

log = logging.getLogger(__name__)

BASE_URL_ENV = "EXOCAST_EUROSTAT_BASE"
DEFAULT_BASE_URL = "https://ec.europa.eu/eurostat/api/dissemination"
CATALOG_PATH = "/catalogue/toc.json"
DATA_PATH = "/statistics/1.0/data/{code}?format=JSON&lang=en"
REQUEST_TIMEOUT = 30.0
MIN_REQUEST_INTERVAL = 0.25

# Default indicator-parameter keywords; a replacement list can be supplied
# per run. These mirror the broad business/economy categories a demand
# forecaster cares about.
DEFAULT_KEYWORDS = (
    "business",
    "trade",
    "industry",
    "producer prices",
    "import prices",
    "retail",
    "consumer",
    "construction",
    "energy",
    "finance",
    "interest rate",
    "tourism",
    "turnover",
    "employment",
)

MANIFEST_SCHEMA = "exocast.eurostat.manifest/2"
CATALOG_SCHEMA = "exocast.eurostat.catalog/1"
SERIES_SCHEMA = "exocast.eurostat.series/2"


@dataclass(frozen=True)
class DatasetDescriptor:
    code: str
    title: str
    frequency: str  # monthly | quarterly | annual | other
    dimension_names: tuple[str, ...]
    earliest_period: Month | None
    source_parameters: tuple[str, ...]


@dataclass(frozen=True)
class CatalogSnapshot:
    fetched_at: str
    descriptors: tuple[DatasetDescriptor, ...]

    def __len__(self) -> int:
        return len(self.descriptors)

    def codes(self) -> tuple[str, ...]:
        return tuple(d.code for d in self.descriptors)


@dataclass(frozen=True)
class SeriesKey:
    dataset_code: str
    dimension_values: tuple[tuple[str, str], ...]

    def canonical(self) -> str:
        return "|".join(f"{name}={value}" for name, value in self.dimension_values)


@dataclass(frozen=True, eq=False)
class RawDataset:
    """Row r of `values` is the series at coordinates `keys[r]` (one category
    per dimension name), column t is `periods[t]`, NaN is a missing value;
    rows without any value are left out."""

    code: str
    dimension_names: tuple[str, ...]  # excluding the time axis
    periods: tuple[Month, ...]
    keys: tuple[tuple[str, ...], ...]
    values: np.ndarray = field(repr=False)


@dataclass
class FunnelReport:
    endpoint: str
    initial: int = 0
    after_monthly: int = 0
    after_parameters: int = 0
    after_coverage: int = 0
    stored: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)


class _Throttle:
    """Spacing between live requests; polite batch client."""

    def __init__(self, interval: float = MIN_REQUEST_INTERVAL):
        self.interval = interval
        self._lock = threading.Lock()
        self._last = 0.0

    def wait(self) -> None:
        with self._lock:
            now = time.monotonic()
            delta = self._last + self.interval - now
            if delta > 0:
                time.sleep(delta)
            self._last = time.monotonic()


_throttle = _Throttle()


def base_url() -> str:
    return os.environ.get(BASE_URL_ENV, DEFAULT_BASE_URL).rstrip("/")


def _http_get(url: str, timeout: float) -> str:
    import requests  # only a live fetch needs it, and it slows every start-up

    _throttle.wait()
    log.info("GET %s", url)
    response = requests.get(url, timeout=timeout)
    response.raise_for_status()
    return response.text


def _now_utc() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@functools.lru_cache(maxsize=4096)  # payloads repeat the same period labels
def _parse_period(text: str) -> Month | None:
    text = text.strip()
    if not text:
        return None
    if "-Q" in text or "Q" in text and "-" not in text:
        text = text.replace("-", "")
        year, _, quarter = text.partition("Q")
        try:
            return Month(int(year), (int(quarter) - 1) * 3 + 1)
        except ValueError:
            return None
    if "-" in text:
        try:
            return Month.parse(text)
        except ValueError:
            return None
    try:
        return Month(int(text), 1)
    except ValueError:
        return None


def _parse_frequency(text: str) -> str:
    norm = text.strip().lower()
    if norm in ("m", "monthly"):
        return "monthly"
    if norm in ("q", "quarterly"):
        return "quarterly"
    if norm in ("a", "annual", "annually", "yearly"):
        return "annual"
    return "other"


def _check_code(code: str) -> str:
    """A dataset code names a file in the cache, so it must be one plain
    file-name component."""
    if code in ("", ".", "..") or any(c in code for c in "/\\\0"):
        raise PayloadError(f"dataset code {code!r} is not a plain file name")
    return code


def _parse_catalog_payload(payload: str) -> tuple[DatasetDescriptor, ...]:
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise PayloadError(f"catalog payload is not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        entries = doc.get("datasets")
        if entries is None:
            raise PayloadError("catalog payload has no 'datasets' key")
    elif isinstance(doc, list):
        entries = doc
    else:
        raise PayloadError(f"unexpected catalog payload type: {type(doc).__name__}")

    descriptors: list[DatasetDescriptor] = []
    seen: set[str] = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not entry.get("code"):
            raise PayloadError(f"catalog entry {i} has no dataset code")
        code = str(entry["code"])
        try:
            _check_code(code)
        except PayloadError as exc:
            log.warning("%s; skipping catalog entry %d", exc, i)
            continue
        if code in seen:
            log.warning("duplicate dataset code %r in catalog; keeping first", code)
            continue
        seen.add(code)
        descriptors.append(
            DatasetDescriptor(
                code=code,
                title=str(entry.get("title", "")),
                frequency=_parse_frequency(str(entry.get("frequency", ""))),
                dimension_names=tuple(entry.get("dimensions", ())),
                earliest_period=_parse_period(str(entry.get("earliest_period", ""))),
                source_parameters=tuple(entry.get("parameters", ())),
            )
        )
    return tuple(descriptors)


def fetch_catalog(
    endpoint: str | None = None,
    offline_fixture: str | Path | None = None,
    *,
    timeout: float = REQUEST_TIMEOUT,
) -> CatalogSnapshot:
    """Fetch and parse the dataset catalog; a fixture file bypasses the network."""
    if offline_fixture is not None:
        payload = Path(offline_fixture).read_text()
        source = str(offline_fixture)
    else:
        url = endpoint or (base_url() + CATALOG_PATH)
        payload = _http_get(url, timeout)
        source = url
    descriptors = _parse_catalog_payload(payload)
    log.info("catalog from %s: %d datasets", source, len(descriptors))
    return CatalogSnapshot(fetched_at=_now_utc(), descriptors=descriptors)


def filter_catalog(
    snapshot: CatalogSnapshot,
    stage: str,
    *,
    keywords: Iterable[str] = (),
    since: Month | None = None,
) -> CatalogSnapshot:
    """Apply one funnel stage: 'monthly', 'parameters' or 'coverage'."""
    if stage == "monthly":
        kept = tuple(d for d in snapshot.descriptors if d.frequency == "monthly")
    elif stage == "parameters":
        wanted = {k.strip().lower() for k in keywords}
        if not wanted:
            raise ValueError("parameters stage needs a keyword list")
        kept = tuple(
            d
            for d in snapshot.descriptors
            if wanted & {p.strip().lower() for p in d.source_parameters}
        )
    elif stage == "coverage":
        if since is None:
            raise ValueError("coverage stage needs a cutoff month")
        kept = tuple(
            d
            for d in snapshot.descriptors
            if d.earliest_period is not None and d.earliest_period <= since
        )
    else:
        raise ValueError(f"unknown filter stage {stage!r}")
    return CatalogSnapshot(fetched_at=snapshot.fetched_at, descriptors=kept)


def _parse_dataset_payload(code: str, payload: str) -> RawDataset:
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise PayloadError(f"dataset {code}: payload is not valid JSON: {exc}") from exc
    try:
        dim_order = list(doc["id"])
        sizes = [int(v) for v in doc["size"]]
        dimensions = doc["dimension"]
        values = doc["value"]
    except (KeyError, TypeError) as exc:
        raise PayloadError(f"dataset {code}: missing JSON-stat field {exc}") from exc
    if len(dim_order) != len(sizes):
        raise PayloadError(f"dataset {code}: id/size length mismatch")
    if "time" not in dim_order:
        raise PayloadError(f"dataset {code}: no time dimension")

    def categories(name: str) -> list[str]:
        index = dimensions[name]["category"]["index"]
        if isinstance(index, dict):
            return sorted(index, key=index.get)
        return list(index)

    labels = {name: categories(name) for name in dim_order}
    for name, cats in labels.items():
        if len(cats) != sizes[dim_order.index(name)]:
            raise PayloadError(f"dataset {code}: size mismatch for dimension {name!r}")

    periods = tuple(map(_parse_period, labels["time"]))
    for text, month in zip(labels["time"], periods):
        if month is None:
            raise PayloadError(f"dataset {code}: unparseable period {text!r}")

    # Split each flat row-major index into its time digit and the index of
    # its other coordinates, then scatter into one row per occupied tuple:
    # memory grows with the values given, not with the declared cube.
    if isinstance(values, list):  # JSON-stat's dense form
        values = dict(enumerate(values))
    flat = np.array(list(values), dtype=np.int64)
    data = np.array(list(values.values()), dtype=float)  # explicit nulls -> NaN
    if len(flat) and (flat.min() < 0 or flat.max() >= math.prod(sizes)):
        raise PayloadError(f"dataset {code}: value index outside the {sizes} cube")
    flat, data = flat[~np.isnan(data)], data[~np.isnan(data)]
    if not len(flat):
        raise PayloadError(f"dataset {code}: no observations")
    axis = dim_order.index("time")
    stride = math.prod(sizes[axis + 1 :])
    outer, inner = np.divmod(flat, stride)
    occupied, row = np.unique(outer // sizes[axis] * stride + inner, return_inverse=True)
    rows = np.full((len(occupied), sizes[axis]), np.nan)
    rows[row, outer % sizes[axis]] = data
    rows.flags.writeable = False
    non_time = [name for name in dim_order if name != "time"]
    # The leading axis of size 1 lets a time-only dataset, one row keyed (), through.
    digits = np.unravel_index(occupied, [1, *(sizes[dim_order.index(name)] for name in non_time)])[1:]
    keys = tuple(zip(*(np.array(labels[name], dtype=object)[d] for name, d in zip(non_time, digits))))
    return RawDataset(code, tuple(non_time), periods, keys or ((),), rows)


def fetch_dataset(
    code: str,
    offline_fixture: str | Path | None = None,
    *,
    base: str | None = None,
    timeout: float = REQUEST_TIMEOUT,
) -> RawDataset:
    """Fetch one dataset's observations; a fixture file bypasses the network."""
    if offline_fixture is not None:
        payload = Path(offline_fixture).read_text()
    else:
        url = (base or base_url()) + DATA_PATH.format(code=code)
        payload = _http_get(url, timeout)
    return _parse_dataset_payload(code, payload)


def pick_representative(dataset: RawDataset, since: Month) -> tuple[SeriesKey, MonthlySeries]:
    """One series per dataset: complete coverage from `since` wins, then
    fewest gaps, ties broken by lexicographically smallest coordinates."""
    offsets = np.array([since.months_until(p) for p in dataset.periods])
    observed = offsets[~np.isnan(dataset.values).all(axis=0)]
    if not len(observed) or observed.max() < 0:
        raise PayloadError(f"dataset {dataset.code}: no values at or after {since}")
    span = int(observed.max()) + 1  # since .. the last month any row observes
    inside = (offsets >= 0) & (offsets < span)
    window = np.full((len(dataset.keys), span), np.nan)
    window[:, offsets[inside]] = dataset.values[:, inside]
    gaps = np.isnan(window).sum(axis=1).tolist()  # `span` for an empty row, fewer for the last-seen one
    best = min(range(len(gaps)), key=lambda r: (gaps[r], dataset.keys[r]))
    key = SeriesKey(dataset.code, tuple(zip(dataset.dimension_names, dataset.keys[best])))
    return key, MonthlySeries(dataset.code, since, window[best])


# ---------------------------------------------------------------------------
# Cache: catalog.json + manifest.json + series/<dataset_code>.json

def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _descriptor_to_dict(d: DatasetDescriptor) -> dict:
    return {
        "code": d.code,
        "title": d.title,
        "frequency": d.frequency,
        "dimensions": list(d.dimension_names),
        "earliest_period": None if d.earliest_period is None else str(d.earliest_period),
        "parameters": list(d.source_parameters),
    }


def store_catalog(root: str | Path, snapshot: CatalogSnapshot) -> Path:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / "catalog.json"
    doc = {
        "schema": CATALOG_SCHEMA,
        "fetched_at": snapshot.fetched_at,
        "datasets": [_descriptor_to_dict(d) for d in snapshot.descriptors],
    }
    _atomic_write(path, json.dumps(doc, indent=2))
    return path


def load_catalog(root: str | Path) -> CatalogSnapshot:
    path = Path(root) / "catalog.json"
    if not path.exists():
        raise NotCachedError(f"no catalog cached under {root}")
    doc = json.loads(path.read_text())
    if doc.get("schema") != CATALOG_SCHEMA:
        raise PayloadError(f"unknown catalog schema {doc.get('schema')!r}")
    descriptors = tuple(
        DatasetDescriptor(
            code=e["code"],
            title=e["title"],
            frequency=e["frequency"],
            dimension_names=tuple(e["dimensions"]),
            earliest_period=None
            if e["earliest_period"] is None
            else Month.parse(e["earliest_period"]),
            source_parameters=tuple(e["parameters"]),
        )
        for e in doc["datasets"]
    )
    return CatalogSnapshot(fetched_at=doc["fetched_at"], descriptors=descriptors)


def store_series(root: str | Path, key: SeriesKey, series: MonthlySeries) -> Path:
    path = _series_path(root, key.dataset_code)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": SERIES_SCHEMA,
        "dataset_code": key.dataset_code,
        "dimension_values": [list(p) for p in key.dimension_values],
        "series_id": series.id,
        "start": str(series.start),
        "values": list(series.values),  # floats by repr, so bit-exact; null for a gap
    }
    _atomic_write(path, json.dumps(doc))
    return path


def _series_path(root: str | Path, dataset_code: str) -> Path:
    return Path(root) / "series" / f"{_check_code(dataset_code)}.json"


def _read_series(path: Path) -> tuple[SeriesKey, MonthlySeries]:
    doc = json.loads(path.read_text())
    if doc.get("schema") != SERIES_SCHEMA:
        raise SchemaError(f"{path}: unknown cached series schema {doc.get('schema')!r}")
    key = SeriesKey(doc["dataset_code"], tuple((n, v) for n, v in doc["dimension_values"]))
    return key, MonthlySeries(doc["series_id"], Month.parse(doc["start"]), doc["values"])


def _require_this_format(root: Path) -> None:
    if (root / "manifest.json").exists():
        read_manifest(root)


def load_series(
    root: str | Path, dataset_code: str, key: SeriesKey | None = None
) -> tuple[SeriesKey, MonthlySeries]:
    _require_this_format(Path(root))
    path = _series_path(root, dataset_code)
    if not path.exists():
        raise NotCachedError(f"no cached series for {dataset_code} under {root}")
    stored, series = _read_series(path)
    if key is not None and stored != key:
        raise NotCachedError(f"series {key.canonical()} not cached for {dataset_code}")
    return stored, series


def list_cached_series(root: str | Path) -> list[tuple[SeriesKey, MonthlySeries]]:
    """Every cached series, ordered by dataset code."""
    root = Path(root)
    _require_this_format(root)
    return [_read_series(p) for p in sorted((root / "series").glob("*.json"), key=lambda p: p.stem)]


def write_manifest(
    root: str | Path, endpoint: str, fetched_at: str, filters: Sequence[str]
) -> Path:
    path = Path(root) / "manifest.json"
    doc = {
        "schema": MANIFEST_SCHEMA,
        "endpoint": endpoint,
        "fetched_at": fetched_at,
        "filters": list(filters),
    }
    _atomic_write(path, json.dumps(doc, indent=2))
    return path


def read_manifest(root: str | Path) -> dict:
    path = Path(root) / "manifest.json"
    if not path.exists():
        raise NotCachedError(f"no manifest under {root}")
    doc = json.loads(path.read_text())
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise SchemaError(f"{path}: cache format {doc.get('schema')!r} is not {MANIFEST_SCHEMA}")
    return doc


def run_funnel(
    cache_root: str | Path,
    since: Month,
    keywords: Iterable[str] = DEFAULT_KEYWORDS,
    *,
    endpoint: str | None = None,
    offline: bool = False,
    catalog_fixture: str | Path | None = None,
    dataset_fixture_dir: str | Path | None = None,
) -> FunnelReport:
    """Catalog -> monthly -> parameters -> coverage -> one cached series per
    dataset. Offline mode never opens a connection: it uses fixtures or the
    existing cache and fails a dataset otherwise."""
    cache_root = Path(cache_root)
    _require_this_format(cache_root)
    keywords = tuple(keywords)
    source = endpoint or (base_url() + CATALOG_PATH)
    if catalog_fixture is not None:
        snapshot = fetch_catalog(offline_fixture=catalog_fixture)
        source = str(catalog_fixture)
    elif offline:
        snapshot = load_catalog(cache_root)
        source = f"cache:{cache_root}"
    else:
        snapshot = fetch_catalog(endpoint)

    report = FunnelReport(endpoint=source, initial=len(snapshot))
    snapshot = filter_catalog(snapshot, "monthly")
    report.after_monthly = len(snapshot)
    snapshot = filter_catalog(snapshot, "parameters", keywords=keywords)
    report.after_parameters = len(snapshot)
    snapshot = filter_catalog(snapshot, "coverage", since=since)
    report.after_coverage = len(snapshot)

    store_catalog(cache_root, snapshot)
    fixture_dir = None if dataset_fixture_dir is None else Path(dataset_fixture_dir)
    for descriptor in snapshot.descriptors:
        code = descriptor.code
        try:
            fixture = None
            if fixture_dir is not None and (fixture_dir / f"{code}.json").exists():
                fixture = fixture_dir / f"{code}.json"
            if fixture is None and offline:
                try:
                    load_series(cache_root, code)
                    report.stored.append(code)
                    continue
                except NotCachedError:
                    raise NotCachedError(
                        f"offline mode: no fixture or cache for dataset {code}"
                    )
            dataset = fetch_dataset(code, offline_fixture=fixture)
            key, series = pick_representative(dataset, since)
            store_series(cache_root, key, series)
            report.stored.append(code)
        except Exception as exc:  # noqa: BLE001 - recorded per dataset
            report.failures[code] = f"{type(exc).__name__}: {exc}"
            log.warning("dataset %s failed: %s", code, exc)
    write_manifest(
        cache_root,
        endpoint=source,
        fetched_at=snapshot.fetched_at,
        filters=[
            "monthly",
            f"parameters:{','.join(keywords)}",
            f"coverage:{since}",
        ],
    )
    return report
