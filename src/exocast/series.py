"""Monthly time-series value types, preprocessing transforms and the MAE metric.

Everything downstream (models, selection, the experiment harness) works in
terms of :class:`MonthlySeries` and :class:`AlignedFrame`. Inside the program
a series is a read-only float64 array with NaN for a missing value, and a
frame is its target plus one (T x k) indicator matrix; both carry only their
start month and length. At the edges, ``MonthlySeries.values`` is a tuple
view with ``None`` for a missing value, and ``months``/``AlignedFrame.index``
build tuples of :class:`Month` when asked for.

A transform takes a series, or a float array: 1-D, or (T x k) with each
column transformed as its own series. An array comes back as an array, a
series as a series. Sums run down axis 0 and add left to right, as a plain
loop does, where numpy's ``sum`` would add pairwise; so every column of a
matrix result is bit for bit the result for that column alone.

Differencing is one array pair, shared by every SARIMAX path: `difference`
takes d regular and D seasonal differences down axis 0, and `integrate`
runs them back from the values before a forecast, one path per column.

All operations are pure: inputs are never mutated.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateRangeError, MissingValueError, UndefinedCorrelationError

__all__ = [
    "Month",
    "MonthlySeries",
    "NormalizationParams",
    "AlignedFrame",
    "month_range",
    "mae",
    "min_max_normalize",
    "denormalize",
    "interpolate_missing",
    "difference",
    "integrate",
    "linear_detrend",
    "retrend",
    "least_squares_line",
    "smooth",
    "pearson_correlation",
    "align_merge",
    "split_train_test",
    "future_matrix",
    "distinct_ids",
    "read_series_csv",
    "write_csv",
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
        ordinal = _ordinal(text)
        return Month(ordinal // 12, ordinal % 12 + 1)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def month_range(start: Month, length: int) -> tuple[Month, ...]:
    return tuple(start.shift(i) for i in range(length))


def _ordinal(text: str) -> int:
    """Months since year 0 of a 'YYYY-MM' period."""
    if not isinstance(text, str):
        raise ValueError(f"not a YYYY-MM period: {text!r}")
    year, _, month = text.strip().partition("-")
    try:
        if 1 <= int(month) <= 12:
            return int(year) * 12 + int(month) - 1
    except ValueError:
        pass
    raise ValueError(f"not a YYYY-MM period: {text.strip()!r}")


def _readonly(array: np.ndarray) -> np.ndarray:
    """`array`, marked read-only."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False, repr=False)
class MonthlySeries:
    """A regularly sampled monthly sequence. The index has no gaps; values
    may be missing (NaN in the read-only `array`, None in `values`) until
    :func:`interpolate_missing` has run, and model-facing transforms reject
    series that still have gaps. Equality, hash and repr are those of
    ``(id, start, values)``."""

    id: str
    start: Month
    array: np.ndarray

    def __init__(self, id: str, start: Month, values: Iterable[float | None]):
        array = values  # a read-only float64 array is shared, anything else copied
        if not (isinstance(values, np.ndarray) and values.dtype == float and not values.flags.writeable):
            array = _readonly(np.array(values if hasattr(values, "__len__") else list(values), dtype=float))
        if array.ndim != 1 or not len(array):
            raise ValueError(f"series {id!r} must have at least one value")
        vars(self).update(id=id, start=start, array=array, _missing=None)  # past the frozen __setattr__

    def __reduce__(self):
        return MonthlySeries, (self.id, self.start, self.array)

    @property
    def values(self) -> tuple[float | None, ...]:
        """The values as Python floats, ``None`` where missing; built anew."""
        values = self.array.tolist()
        if self.has_missing:
            for i in np.isnan(self.array).nonzero()[0].tolist():
                values[i] = None
        return tuple(values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = (self.id, self.start) == (other.id, other.start)
        return same and np.array_equal(self.array, other.array, equal_nan=True)

    def __hash__(self) -> int:
        return hash((self.id, self.start, self.values))

    def __repr__(self) -> str:
        return f"MonthlySeries(id={self.id!r}, start={self.start!r}, values={self.values!r})"

    def __len__(self) -> int:
        return len(self.array)

    @property
    def end(self) -> Month:
        return self.start.shift(len(self.array) - 1)

    @property
    def months(self) -> tuple[Month, ...]:
        return month_range(self.start, len(self.array))

    @property
    def has_missing(self) -> bool:
        if self._missing is None:
            vars(self)["_missing"] = bool(np.isnan(self.array).any())
        return self._missing

    def slice_months(self, start: Month, end: Month) -> "MonthlySeries":
        """Sub-series covering start..end inclusive; both must be in range."""
        i = self.start.months_until(start)
        j = self.start.months_until(end)
        if i < 0 or j >= len(self.array) or i > j:
            span = f"{self.start}..{self.end}"
            raise ValueError(f"slice {start}..{end} outside series {self.id!r} ({span})")
        if i == 0 and j == len(self.array) - 1:
            return self
        return MonthlySeries(self.id, start, self.array[i : j + 1])

    def require_complete(self) -> np.ndarray:
        """The read-only values; a series with gaps is an error."""
        if self.has_missing:
            raise _gaps_error(self.id)
        return self.array


def _gaps_error(id: str) -> MissingValueError:
    return MissingValueError(f"series {id!r} has missing values; interpolate first")


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


@dataclass(frozen=True, init=False, eq=False, repr=False)
class AlignedFrame:
    """A target plus indicator series sharing one month index: the target
    series and one read-only (T x k) `matrix` whose column j is indicator
    `indicator_ids[j]`."""

    target: MonthlySeries
    matrix: np.ndarray
    indicator_ids: tuple[str, ...]

    def __new__(cls, index: Sequence[Month], target: MonthlySeries, indicators: Sequence[MonthlySeries]):
        index, indicators = tuple(index), tuple(indicators)
        if not index:
            raise ValueError("frame index must be nonempty")
        for s in (target, *indicators):
            if s.start != index[0] or len(s) != len(index):
                raise ValueError(f"series {s.id!r} does not cover the frame index exactly")
        return _frame(target, indicators)

    def __reduce__(self):  # copy and pickle rebuild through `_frame`, not `__new__`
        return _frame, (self.target, self.indicator_ids, self.matrix)

    def __len__(self) -> int:
        return len(self.target)

    @property
    def start(self) -> Month:
        return self.target.start

    @property
    def end(self) -> Month:
        return self.target.end

    @property
    def index(self) -> tuple[Month, ...]:
        return self.target.months

    @property
    def indicators(self) -> tuple[MonthlySeries, ...]:
        if self._indicators is None:
            columns = zip(self.indicator_ids, self.matrix.T)
            indicators = tuple(MonthlySeries(i, self.start, column) for i, column in columns)
            for series, gaps in zip(indicators, np.isnan(self.matrix).any(axis=0).tolist()):
                vars(series)["_missing"] = gaps  # every column's flag from one reduction
            vars(self)["_indicators"] = indicators
        return self._indicators

    def indicator(self, id: str) -> MonthlySeries:
        if id not in self._column:
            raise KeyError(f"no indicator {id!r} in frame")
        return self.indicators[self._column[id]]

    def with_indicators(self, ids: Sequence[str]) -> "AlignedFrame":
        """Frame restricted to the given indicators, in the given order."""
        ids = tuple(ids)
        for i in ids:
            if i not in self._column:
                raise KeyError(f"no indicator {i!r} in frame")
        return _frame(self.target, ids, self.matrix[:, [self._column[i] for i in ids]])

    def slice_months(self, start: Month, end: Month) -> "AlignedFrame":
        target = self.target.slice_months(start, end)  # checks the range
        i = self.start.months_until(start)
        return _frame(target, self.indicator_ids, self.matrix[i : i + len(target)])

    def require_complete(self) -> np.ndarray:
        """The read-only indicator matrix; a gap in it or in the target is an error."""
        self.target.require_complete()
        gaps = np.isnan(self.matrix).any(axis=0)
        if gaps.any():
            raise _gaps_error(self.indicator_ids[int(gaps.argmax())])
        return self.matrix

    def stacked(self) -> np.ndarray:
        """A new column-major (T x (1 + k)) array: the target, then each indicator."""
        return np.vstack((self.target.array, self.matrix.T)).T

    def with_stacked(self, values: np.ndarray) -> "AlignedFrame":
        """This frame's months and ids over `values`, laid out as by :meth:`stacked`."""
        if np.shape(values) != (len(self), 1 + len(self.indicator_ids)):
            raise ValueError(f"expected a {len(self)} x {1 + len(self.indicator_ids)} array")
        values = _readonly(np.array(values, dtype=float, order="F"))  # columns contiguous
        target = MonthlySeries(self.target.id, self.start, values[:, 0])
        return _frame(target, self.indicator_ids, values[:, 1:])


def distinct_ids(ids: Iterable[str], what: str) -> tuple[str, ...]:
    """`ids` as a tuple; a ValueError naming `what` when one repeats."""
    ids = tuple(ids)
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate {what}: {list(ids)}")
    return ids


def _frame(target: MonthlySeries, indicators, matrix: np.ndarray | None = None) -> AlignedFrame:
    """A frame over `target`'s months of `indicators`, series or `matrix`'s column ids."""
    if matrix is None:
        shape = (len(indicators), len(target))
        matrix = np.array([s.array for s in indicators], dtype=float).reshape(shape).T
        indicators = tuple(s.id for s in indicators)
    indicators = distinct_ids(indicators, "indicator ids")
    frame = object.__new__(AlignedFrame)
    column = {i: j for j, i in enumerate(indicators)}
    vars(frame).update(target=target, matrix=_readonly(matrix), indicator_ids=indicators,
                       _column=column, _indicators=None)
    return frame


def _sum(values: np.ndarray):
    """Left-to-right sum down axis 0 of a nonempty array: a scalar, or one
    per column."""
    return np.add.accumulate(values, axis=0)[-1]


def _down(vector: np.ndarray, like: np.ndarray) -> np.ndarray:
    """A length-n `vector` shaped to run down axis 0 of `like`."""
    return vector if like.ndim == 1 else vector[:, None]


def _values(data: MonthlySeries | np.ndarray) -> np.ndarray:
    """The values of a series or an array; a gap in either is an error."""
    if isinstance(data, MonthlySeries):
        return data.require_complete()
    values = np.asarray(data, dtype=float)
    if np.isnan(values).any():
        raise MissingValueError("array has missing values; interpolate first")
    return values


def _like(data: MonthlySeries | np.ndarray, values: np.ndarray) -> MonthlySeries | np.ndarray:
    """`values` in the form `data` came in: a series keeps its id and start."""
    if isinstance(data, MonthlySeries):
        return MonthlySeries(data.id, data.start, _readonly(values))
    return values


def mae(actual: Sequence[float], predicted: Sequence[float] | np.ndarray):
    """Mean absolute error between two equal-length sequences; a 2-D
    `predicted` gives one per column."""
    if len(actual) != len(predicted):
        raise ValueError(f"length mismatch: {len(actual)} actual vs {len(predicted)} predicted")
    if len(actual) == 0:
        raise ValueError("mae of empty sequences is undefined")
    predicted = np.asarray(predicted, dtype=float)
    errors = np.abs(_down(np.asarray(actual, dtype=float), predicted) - predicted)
    means = _sum(errors) / len(errors)
    return float(means) if predicted.ndim == 1 else means


def min_max_normalize(data: MonthlySeries | np.ndarray):
    """Rescale onto [0, 1]. A series gives (series, NormalizationParams),
    whose inverse map round-trips to 1e-12 relative, and a constant series is
    an error. An array gives (array, (column minima, column maxima)), and a
    constant column is left as it is."""
    vals = _values(data)
    lo, hi = vals.min(axis=0), vals.max(axis=0)
    flat = ~(hi > lo)
    out = (vals - np.where(flat, 0.0, lo)) / np.where(flat, 1.0, hi - lo)
    if not isinstance(data, MonthlySeries):
        return out, (lo, hi)
    params = NormalizationParams(float(lo), float(hi))  # raises DegenerateRangeError if flat
    return _like(data, out), params


def denormalize(series: MonthlySeries, params: NormalizationParams) -> MonthlySeries:
    vals = series.require_complete()
    return MonthlySeries(series.id, series.start, _readonly(vals * (params.max - params.min) + params.min))


def interpolate_missing(data: MonthlySeries | np.ndarray) -> MonthlySeries | np.ndarray:
    """Fill gaps, in each column of an array on its own: interior ones
    linearly between the nearest known neighbours, leading/trailing ones
    with the nearest known value."""
    vals = data.array if isinstance(data, MonthlySeries) else np.asarray(data, dtype=float)
    out = vals.copy(order="K")
    columns = out[:, None] if out.ndim == 1 else out  # a view: filling it fills `out`
    for j in np.isnan(columns).any(axis=0).nonzero()[0].tolist():
        missing = np.isnan(columns[:, j])
        known = (~missing).nonzero()[0]
        if not len(known):
            name = f"series {data.id!r}" if isinstance(data, MonthlySeries) else f"column {j}"
            raise MissingValueError(f"{name} is entirely missing")
        gaps = missing.nonzero()[0]
        columns[gaps, j] = np.interp(gaps, known, columns[known, j])
    return _like(data, out)


def _lags(d: int, D: int, s: int) -> list[int]:
    """The lag of each differencing stage, in the order taken: d regular
    (lag 1), then D seasonal (lag s)."""
    if d < 0 or D < 0 or s < 1:
        raise ValueError(f"bad differencing spec d={d} D={D} s={s}")
    return [1] * d + [s] * D


def difference(values: Sequence[float] | np.ndarray, d: int = 0, D: int = 0,
               s: int = 12) -> np.ndarray:
    """d regular then D seasonal (lag s) differences down axis 0 of a (T,)
    or (T x k) array: T - d - D*s rows, none for T = d + D*s. Fewer than
    d + D*s rows, or a gap, is an error."""
    lags = _lags(d, D, s)
    vals = _values(values)
    if len(vals) < sum(lags):
        raise ValueError(f"{len(vals)} values are too few for d={d}, D={D}, s={s}")
    for lag in lags:
        vals = vals[lag:] - vals[:-lag]
    return vals


def integrate(diffs: np.ndarray, tail: Sequence[float] | np.ndarray, d: int = 0, D: int = 0,
              s: int = 12) -> np.ndarray:
    """The inverse of :func:`difference`: the values that follow `tail`, the
    last (at least d + D*s) values of a series, whose differences are
    `diffs`, (h,) or (h x m) with one column per path. Each stage, last
    first, adds a value to the one a lag before it, as a running sum down
    each lag's column, so every column of an (h x m) result is bit for bit
    the result for that column alone."""
    lags = _lags(d, D, s)
    past = np.asarray(tail, dtype=float)
    if len(past) < sum(lags):
        raise ValueError(f"a tail of {len(past)} values is too short for d={d}, D={D}, s={s}")
    histories = []  # the last `lag` values each stage differences
    for lag in lags:
        histories.append(past[len(past) - lag :])
        past = past[lag:] - past[:-lag]
    values = np.asarray(diffs, dtype=float)
    for lag, history in zip(reversed(lags), reversed(histories)):
        n, width = lag + len(values), values.shape[1:]
        rows = np.zeros((-(-n // lag) * lag, *width))
        rows[:lag], rows[lag:n] = _down(history, values), values
        values = rows.reshape(-1, lag, *width).cumsum(axis=0).reshape(rows.shape)[lag:n]
    return values


def least_squares_line(values: Sequence[float] | np.ndarray):
    """Slope and intercept of the least-squares line over index 0..n-1: two
    floats, or two arrays with one entry per column of an (n x k) array."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2:
        raise ValueError("need at least two points to fit a line")
    centred = _down(np.arange(n) - (n - 1) / 2.0, values)
    mean_y = _sum(values) / n
    slope = _sum(centred * (values - mean_y)) / (n * (n * n - 1) / 12)  # / sum(centred**2), exactly
    intercept = mean_y - slope * ((n - 1) / 2.0)
    return (float(slope), float(intercept)) if values.ndim == 1 else (slope, intercept)


def linear_detrend(data: MonthlySeries | np.ndarray):
    """Subtract the least-squares line; returns (residuals, slope, intercept),
    with one slope and intercept per column of an array."""
    vals = _values(data)
    slope, intercept = least_squares_line(vals)
    out = vals - (intercept + slope * _down(np.arange(len(vals)), vals))
    return _like(data, out), slope, intercept


def retrend(series: MonthlySeries, slope: float, intercept: float, offset: int = 0) -> MonthlySeries:
    """Add a line back; offset is the index of the first value on the
    original fitting axis (e.g. training length for a forecast)."""
    vals = series.require_complete()
    out = vals + intercept + slope * np.arange(offset, offset + len(vals))
    return MonthlySeries(series.id, series.start, _readonly(out))


def smooth(data: MonthlySeries | np.ndarray, window: int = 1) -> MonthlySeries | np.ndarray:
    """Centred moving average down axis 0; the window is truncated to what
    exists near the edges. window=1 is the identity."""
    if window % 2 == 0 or window < 1:
        raise ValueError(f"window must be odd and positive, got {window}")
    vals = _values(data)
    n = len(vals)
    if window > n:
        raise ValueError(f"window {window} exceeds series length {n}")
    half = window // 2
    # Each window summed from its left end, as a running total from zero.
    total = np.zeros_like(vals)
    for offset in range(-half, half + 1):
        if offset < 0:
            total[-offset:] += vals[:offset]
        else:
            total[: n - offset] += vals[offset:]
    out = total / window
    for i in range(half):  # the truncated windows at both edges hold half + 1 + i values
        out[i], out[n - 1 - i] = total[i] / (half + 1 + i), total[n - 1 - i] / (half + 1 + i)
    return _like(data, out)


def pearson_correlation(a: Sequence[float], b: Sequence[float] | np.ndarray):
    """Pearson's r of `a` and `b`: a float, or an array with one r per
    column of an (n x k) `b`. A constant input, or column, is an error."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("need at least two points")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    da, db = a - _sum(a) / n, b - _sum(b) / n
    var_a, var_b = _sum(da * da), _sum(db * db)
    if var_a == 0.0 or np.any(var_b == 0.0):
        raise UndefinedCorrelationError("correlation with a constant input is undefined")
    r = np.clip(_sum(_down(da, b) * db) / np.sqrt(var_a * var_b), -1.0, 1.0)
    return float(r) if b.ndim == 1 else r


def align_merge(target: MonthlySeries, indicators: Sequence[MonthlySeries]) -> AlignedFrame:
    """Trim everything to the intersection of month ranges."""
    all_series = [target, *indicators]
    start = max(s.start for s in all_series)
    end = min(s.end for s in all_series)
    if start.months_until(end) < 0:
        raise ValueError("month ranges have an empty intersection")
    return _frame(target.slice_months(start, end), [s.slice_months(start, end) for s in indicators])


def split_train_test(frame: AlignedFrame, horizon: int) -> tuple[AlignedFrame, AlignedFrame]:
    """Final `horizon` months become the test frame, everything before trains."""
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if horizon >= len(frame):
        raise ValueError(f"horizon {horizon} must be smaller than frame length {len(frame)}")
    cut = frame.start.shift(len(frame) - horizon)
    return frame.slice_months(frame.start, cut.shift(-1)), frame.slice_months(cut, frame.end)


def future_matrix(values: np.ndarray | None, horizon: int, ids: Sequence[str]) -> np.ndarray:
    """`values` as the (horizon x k) float matrix a model forecasts from:
    the values of the regressors `ids` over the next `horizon` months, one
    column each; None for a model without regressors. A horizon below 1 or
    any other shape is a ValueError."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    matrix = np.zeros((horizon, 0)) if values is None else np.asarray(values, dtype=float)
    if matrix.shape != (horizon, len(ids)):
        raise ValueError(f"future regressors have shape {matrix.shape}, not "
                         f"({horizon}, {len(ids)}) for {list(ids)}")
    return matrix


def read_series_csv(path: str | Path, id: str | None = None) -> MonthlySeries:
    """Read the `period,value` format; empty value fields become gaps. The id
    defaults to the file stem. Periods must be consecutive months, and every
    value given must be a finite number."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["period", "value"]:
            raise ValueError(f"{path}: expected header 'period,value', got {header}")
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    first = _ordinal(rows[0][0])
    for i, row in enumerate(rows):
        if _ordinal(row[0]) != first + i:
            raise ValueError(f"{path}: non-consecutive period {Month.parse(row[0])} at row {i + 2}")
    values = []
    for i, row in enumerate(rows, 2):
        text = row[1].strip() if len(row) > 1 else ""
        try:
            value = float(text) if text else None
        except ValueError:
            value = math.nan
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{path}: value {text!r} at row {i} is not a finite number")
        values.append(value)
    return MonthlySeries(id or path.stem, Month(first // 12, first % 12 + 1), values)


def write_csv(path: str | Path, rows: Iterable[Sequence]) -> Path:
    """Write `rows`, the header row first, to the CSV file `path`."""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return Path(path)


def write_series_csv(series: MonthlySeries, path: str | Path) -> None:
    first = series.start.year * 12 + series.start.month - 1
    write_csv(path, [("period", "value"), *(
        (f"{k // 12:04d}-{k % 12 + 1:02d}", "" if v != v else repr(v))
        for k, v in enumerate(series.array.tolist(), first))])
