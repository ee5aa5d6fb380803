"""Monthly time-series value types, preprocessing transforms and the MAE metric.

Everything downstream (models, selection, the experiment harness) works in
terms of :class:`MonthlySeries` and :class:`AlignedFrame`. All operations are
pure: inputs are never mutated and every value type is immutable after
construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    DegenerateRangeError,
    MissingValueError,
    UndefinedCorrelationError,
)

__all__ = [
    "Month",
    "MonthlySeries",
    "NormalizationParams",
    "AlignedFrame",
    "SplitSpec",
    "DifferenceInitials",
    "month_range",
    "mae",
    "min_max_normalize",
    "denormalize",
    "interpolate_missing",
    "difference",
    "difference_with_initials",
    "undifference",
    "linear_detrend",
    "retrend",
    "least_squares_line",
    "smooth",
    "pearson_correlation",
    "align_merge",
    "split_train_test",
    "read_series_csv",
    "write_series_csv",
]


@dataclass(frozen=True, order=True)
class Month:
    """A calendar month; ordered and hashable."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month}")

    def shift(self, n: int) -> "Month":
        total = self.year * 12 + (self.month - 1) + n
        return Month(total // 12, total % 12 + 1)

    def months_until(self, other: "Month") -> int:
        """Number of steps from self to other (negative if other is earlier)."""
        return (other.year - self.year) * 12 + (other.month - self.month)

    @staticmethod
    def parse(text: str) -> "Month":
        """Parse 'YYYY-MM'."""
        year_s, _, month_s = text.partition("-")
        try:
            return Month(int(year_s), int(month_s))
        except ValueError as exc:
            raise ValueError(f"not a YYYY-MM period: {text!r}") from exc

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def month_range(start: Month, length: int) -> tuple[Month, ...]:
    return tuple(start.shift(i) for i in range(length))


@dataclass(frozen=True)
class MonthlySeries:
    """A regularly sampled monthly sequence.

    The index has no gaps; individual values may be missing (``None``) until
    :func:`interpolate_missing` has run. Model-facing transforms reject series
    that still contain gaps.
    """

    id: str
    start: Month
    values: tuple[float | None, ...]

    def __init__(self, id: str, start: Month, values: Iterable[float | None]):
        vals = tuple(None if v is None else float(v) for v in values)
        if len(vals) == 0:
            raise ValueError(f"series {id!r} must have at least one value")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "values", vals)
        # Not a field: equality and repr stay those of (id, start, values).
        object.__setattr__(self, "_has_missing", None in vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> Month:
        return self.start.shift(len(self.values) - 1)

    @property
    def months(self) -> tuple[Month, ...]:
        return month_range(self.start, len(self.values))

    @property
    def has_missing(self) -> bool:
        return self._has_missing

    def value_at(self, month: Month) -> float | None:
        i = self.start.months_until(month)
        if not 0 <= i < len(self.values):
            raise KeyError(f"{month} outside series {self.id!r} range")
        return self.values[i]

    def slice_months(self, start: Month, end: Month) -> "MonthlySeries":
        """Sub-series covering start..end inclusive; both must be in range."""
        i = self.start.months_until(start)
        j = self.start.months_until(end)
        if i < 0 or j >= len(self.values) or i > j:
            raise ValueError(
                f"slice {start}..{end} outside series {self.id!r} "
                f"({self.start}..{self.end})"
            )
        return MonthlySeries(self.id, start, self.values[i : j + 1])

    def with_values(self, values: Iterable[float | None], start: Month | None = None) -> "MonthlySeries":
        return MonthlySeries(self.id, self.start if start is None else start, values)

    def require_complete(self) -> tuple[float, ...]:
        if self.has_missing:
            raise MissingValueError(
                f"series {self.id!r} has missing values; interpolate first"
            )
        return self.values  # type: ignore[return-value]


@dataclass(frozen=True)
class NormalizationParams:
    """Observed range of a series; maps [min, max] onto [0, 1]."""

    min: float
    max: float

    def __post_init__(self):
        if not self.max > self.min:
            raise DegenerateRangeError(
                f"degenerate range: max ({self.max}) must exceed min ({self.min})"
            )


@dataclass(frozen=True)
class AlignedFrame:
    """A target plus indicator series sharing one month index."""

    index: tuple[Month, ...]
    target: MonthlySeries
    indicators: tuple[MonthlySeries, ...]

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(self.index))
        object.__setattr__(self, "indicators", tuple(self.indicators))
        if not self.index:
            raise ValueError("frame index must be nonempty")
        for s in (self.target, *self.indicators):
            if s.start != self.index[0] or len(s) != len(self.index):
                raise ValueError(
                    f"series {s.id!r} does not cover the frame index exactly"
                )
        ids = [s.id for s in self.indicators]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate indicator ids: {ids}")

    def __len__(self) -> int:
        return len(self.index)

    @property
    def start(self) -> Month:
        return self.index[0]

    @property
    def end(self) -> Month:
        return self.index[-1]

    @property
    def indicator_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.indicators)

    def indicator(self, id: str) -> MonthlySeries:
        for s in self.indicators:
            if s.id == id:
                return s
        raise KeyError(f"no indicator {id!r} in frame")

    def with_indicators(self, ids: Sequence[str]) -> "AlignedFrame":
        """Frame restricted to the given indicators, in the given order."""
        return AlignedFrame(self.index, self.target, tuple(self.indicator(i) for i in ids))

    def slice_months(self, start: Month, end: Month) -> "AlignedFrame":
        n = start.months_until(end) + 1
        return AlignedFrame(
            month_range(start, n),
            self.target.slice_months(start, end),
            tuple(s.slice_months(start, end) for s in self.indicators),
        )


@dataclass(frozen=True)
class SplitSpec:
    """How many months to hold out at the end of a frame."""

    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


def mae(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute error between two equal-length sequences."""
    if len(actual) != len(predicted):
        raise ValueError(
            f"length mismatch: {len(actual)} actual vs {len(predicted)} predicted"
        )
    if len(actual) == 0:
        raise ValueError("mae of empty sequences is undefined")
    return sum(abs(float(a) - float(p)) for a, p in zip(actual, predicted)) / len(actual)


def min_max_normalize(series: MonthlySeries) -> tuple[MonthlySeries, NormalizationParams]:
    """Rescale onto [0, 1]; the returned params invert the map exactly enough
    for a 1e-12-relative round trip."""
    vals = series.require_complete()
    lo, hi = min(vals), max(vals)
    params = NormalizationParams(lo, hi)  # raises DegenerateRangeError if flat
    span = hi - lo
    return series.with_values((v - lo) / span for v in vals), params


def denormalize(series: MonthlySeries, params: NormalizationParams) -> MonthlySeries:
    vals = series.require_complete()
    span = params.max - params.min
    return series.with_values(v * span + params.min for v in vals)


def interpolate_missing(series: MonthlySeries) -> MonthlySeries:
    """Fill gaps: interior ones linearly between the nearest known neighbours,
    leading/trailing ones with the nearest known value."""
    vals = list(series.values)
    known = [i for i, v in enumerate(vals) if v is not None]
    if not known:
        raise MissingValueError(f"series {series.id!r} is entirely missing")
    first, last = known[0], known[-1]
    for i in range(first):
        vals[i] = vals[first]
    for i in range(last + 1, len(vals)):
        vals[i] = vals[last]
    for a, b in zip(known, known[1:]):
        if b - a > 1:
            ya, yb = vals[a], vals[b]
            step = (yb - ya) / (b - a)
            for k in range(1, b - a):
                vals[a + k] = ya + step * k
    return series.with_values(vals)


@dataclass(frozen=True)
class DifferenceInitials:
    """Values dropped by each differencing stage, in application order.

    Each entry is ("d", (first value,)) for a regular difference or
    ("s", (first s values,)) for a seasonal one. Keeping them makes the
    transform invertible.
    """

    stages: tuple[tuple[str, tuple[float, ...]], ...]

    @property
    def total_dropped(self) -> int:
        return sum(len(init) for _, init in self.stages)


def _diff_once(vals: list[float], lag: int) -> list[float]:
    return [vals[i + lag] - vals[i] for i in range(len(vals) - lag)]


def difference_with_initials(
    series: MonthlySeries, d: int = 0, D: int = 0, s: int = 12
) -> tuple[MonthlySeries, DifferenceInitials]:
    """Apply d regular then D seasonal (lag s) differences, keeping the
    dropped leading values so :func:`undifference` can reconstruct."""
    if d < 0 or D < 0 or s < 1:
        raise ValueError(f"bad differencing spec d={d} D={D} s={s}")
    vals = list(series.require_complete())
    if len(vals) <= d + D * s:
        raise ValueError(
            f"series {series.id!r} too short ({len(vals)}) for d={d}, D={D}, s={s}"
        )
    stages: list[tuple[str, tuple[float, ...]]] = []
    for _ in range(d):
        stages.append(("d", tuple(vals[:1])))
        vals = _diff_once(vals, 1)
    for _ in range(D):
        stages.append(("s", tuple(vals[:s])))
        vals = _diff_once(vals, s)
    out = series.with_values(vals, start=series.start.shift(d + D * s))
    return out, DifferenceInitials(tuple(stages))


def difference(series: MonthlySeries, d: int = 0, D: int = 0, s: int = 12) -> MonthlySeries:
    return difference_with_initials(series, d, D, s)[0]


def undifference(series: MonthlySeries, initials: DifferenceInitials) -> MonthlySeries:
    """Invert :func:`difference_with_initials`."""
    vals = list(series.require_complete())
    for kind, init in reversed(initials.stages):
        out = list(init)
        if kind == "d":
            for v in vals:
                out.append(out[-1] + v)
        else:
            for i, v in enumerate(vals):
                out.append(out[i] + v)
        vals = out
    start = series.start.shift(-initials.total_dropped)
    return series.with_values(vals, start=start)


def least_squares_line(values: Sequence[float]) -> tuple[float, float]:
    """Slope and intercept of the least-squares line over index 0..n-1."""
    n = len(values)
    if n < 2:
        raise ValueError("need at least two points to fit a line")
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    sxx = sum((i - mean_x) ** 2 for i in range(n))
    sxy = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


def linear_detrend(series: MonthlySeries) -> tuple[MonthlySeries, float, float]:
    """Subtract the least-squares line; returns (residual series, slope, intercept)."""
    vals = series.require_complete()
    slope, intercept = least_squares_line(vals)
    resid = [v - (intercept + slope * i) for i, v in enumerate(vals)]
    return series.with_values(resid), slope, intercept


def retrend(series: MonthlySeries, slope: float, intercept: float, offset: int = 0) -> MonthlySeries:
    """Add a line back; offset is the index of the first value on the
    original fitting axis (e.g. training length for a forecast)."""
    vals = series.require_complete()
    return series.with_values(
        v + intercept + slope * (offset + i) for i, v in enumerate(vals)
    )


def smooth(series: MonthlySeries, window: int = 1) -> MonthlySeries:
    """Centred moving average; the window is truncated to what exists near
    the edges. window=1 is the identity."""
    if window % 2 == 0 or window < 1:
        raise ValueError(f"window must be odd and positive, got {window}")
    vals = series.require_complete()
    n = len(vals)
    if window > n:
        raise ValueError(f"window {window} exceeds series length {n}")
    half = window // 2
    out = []
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        out.append(sum(vals[lo:hi]) / (hi - lo))
    return series.with_values(out)


def pearson_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("need at least two points")
    mean_a = sum(a) / n
    mean_b = sum(b) / n
    da = [x - mean_a for x in a]
    db = [x - mean_b for x in b]
    var_a = sum(x * x for x in da)
    var_b = sum(x * x for x in db)
    if var_a == 0.0 or var_b == 0.0:
        raise UndefinedCorrelationError("correlation with a constant input is undefined")
    r = sum(x * y for x, y in zip(da, db)) / math.sqrt(var_a * var_b)
    return max(-1.0, min(1.0, r))


def align_merge(target: MonthlySeries, indicators: Sequence[MonthlySeries]) -> AlignedFrame:
    """Trim everything to the intersection of month ranges."""
    all_series = [target, *indicators]
    start = max(s.start for s in all_series)
    end = min(s.end for s in all_series)
    if start.months_until(end) < 0:
        raise ValueError("month ranges have an empty intersection")
    n = start.months_until(end) + 1
    return AlignedFrame(
        month_range(start, n),
        target.slice_months(start, end),
        tuple(s.slice_months(start, end) for s in indicators),
    )


def split_train_test(frame: AlignedFrame, spec: SplitSpec) -> tuple[AlignedFrame, AlignedFrame]:
    """Final `horizon` months become the test frame, everything before trains."""
    if spec.horizon >= len(frame):
        raise ValueError(
            f"horizon {spec.horizon} must be smaller than frame length {len(frame)}"
        )
    cut = frame.index[len(frame) - spec.horizon]
    train = frame.slice_months(frame.start, cut.shift(-1))
    test = frame.slice_months(cut, frame.end)
    return train, test


def read_series_csv(path: str | Path, id: str | None = None) -> MonthlySeries:
    """Read the `period,value` format; empty value fields become gaps.

    The id defaults to the file stem. Periods must be consecutive months.
    """
    path = Path(path)
    rows: list[tuple[Month, float | None]] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["period", "value"]:
            raise ValueError(f"{path}: expected header 'period,value', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            period = Month.parse(row[0].strip())
            raw = row[1].strip() if len(row) > 1 else ""
            rows.append((period, float(raw) if raw else None))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    start = rows[0][0]
    for i, (m, _) in enumerate(rows):
        if start.shift(i) != m:
            raise ValueError(f"{path}: non-consecutive period {m} at row {i + 2}")
    return MonthlySeries(id or path.stem, start, (v for _, v in rows))


def write_series_csv(series: MonthlySeries, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "value"])
        for m, v in zip(series.months, series.values):
            writer.writerow([str(m), "" if v is None else repr(v)])
