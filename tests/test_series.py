import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exocast.errors import (
    DegenerateRangeError,
    MissingValueError,
    UndefinedCorrelationError,
)
from exocast.series import (
    AlignedFrame,
    Month,
    MonthlySeries,
    SplitSpec,
    align_merge,
    denormalize,
    difference,
    difference_with_initials,
    interpolate_missing,
    linear_detrend,
    mae,
    min_max_normalize,
    month_range,
    pearson_correlation,
    read_series_csv,
    smooth,
    split_train_test,
    undifference,
    write_series_csv,
)

M = Month


def ms(values, start=M(2016, 1), id="s"):
    return MonthlySeries(id, start, values)


class TestMonth:
    def test_shift_and_distance(self):
        assert M(2016, 1).shift(12) == M(2017, 1)
        assert M(2016, 11).shift(3) == M(2017, 2)
        assert M(2017, 2).shift(-3) == M(2016, 11)
        assert M(2016, 1).months_until(M(2017, 3)) == 14

    def test_parse_round_trip(self):
        assert Month.parse("2021-04") == M(2021, 4)
        assert str(M(2021, 4)) == "2021-04"

    def test_rejects_bad_month(self):
        with pytest.raises(ValueError):
            M(2020, 13)


class TestMonthlySeries:
    def test_missing_flag_is_not_a_field(self):
        gappy = ms([1.0, None, 3.0])
        assert gappy.has_missing and not ms([1.0, 2.0]).has_missing
        assert gappy == MonthlySeries("s", M(2016, 1), (1, None, 3))
        assert "missing" not in repr(gappy)
        assert hash(gappy) == hash(ms([1.0, None, 3.0]))


class TestMae:
    def test_identical(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0

    def test_unit_offset(self):
        assert mae([1, 2, 3], [2, 3, 4]) == 1

    def test_arithmetic(self):
        assert mae([0, 0, 4], [1, 1, 1]) == pytest.approx(5 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae([1, 2], [1])

    def test_empty(self):
        with pytest.raises(ValueError):
            mae([], [])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40), st.floats(-100, 100))
    def test_constant_offset_property(self, y, c):
        assert mae(y, [v + c for v in y]) == pytest.approx(abs(c), abs=1e-9)


class TestNormalize:
    def test_linear_map(self):
        out, params = min_max_normalize(ms([2, 4, 6]))
        assert out.values == (0.0, 0.5, 1.0)
        assert (params.min, params.max) == (2, 6)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateRangeError):
            min_max_normalize(ms([5, 5, 5]))

    def test_round_trip(self):
        original = ms([3, 1, 7, 7])
        normalized, params = min_max_normalize(original)
        back = denormalize(normalized, params)
        for a, b in zip(back.values, original.values):
            assert a == pytest.approx(b, rel=1e-12)

    @given(st.lists(st.floats(-1e8, 1e8), min_size=2, max_size=50).filter(lambda v: max(v) > min(v)))
    def test_round_trip_property(self, vals):
        normalized, params = min_max_normalize(ms(vals))
        back = denormalize(normalized, params)
        for a, b in zip(back.values, vals):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12 * (abs(params.max) + abs(params.min)))
        assert min(normalized.values) == 0.0
        assert max(normalized.values) == 1.0


class TestInterpolate:
    def test_midpoint(self):
        assert interpolate_missing(ms([1, None, 3])).values == (1, 2, 3)

    def test_edge_fill(self):
        assert interpolate_missing(ms([None, 2, 4])).values == (2, 2, 4)

    def test_two_step(self):
        assert interpolate_missing(ms([1, None, None, 4])).values == (1, 2, 3, 4)

    def test_trailing_fill(self):
        assert interpolate_missing(ms([1, 3, None, None])).values == (1, 3, 3, 3)

    def test_all_missing(self):
        with pytest.raises(MissingValueError):
            interpolate_missing(ms([None, None]))

    def test_complete_is_identity(self):
        s = ms([1.5, 2.5])
        assert interpolate_missing(s).values == s.values


class TestDifference:
    def test_first_difference(self):
        out = difference(ms([1, 2, 4]), d=1)
        assert out.values == (1, 2)
        assert out.start == M(2016, 2)

    def test_constant(self):
        assert difference(ms([3, 3, 3, 3]), d=1).values == (0, 0, 0)

    def test_seasonal(self):
        assert difference(ms([1, 2, 3, 4]), D=1, s=2).values == (2, 2)

    def test_too_short(self):
        with pytest.raises(ValueError):
            difference(ms([1, 2]), d=1, D=1, s=2)

    def test_rejects_missing(self):
        with pytest.raises(MissingValueError):
            difference(ms([1, None, 3]), d=1)

    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("D", [0, 1])
    @pytest.mark.parametrize("s", [2, 4, 12])
    def test_round_trip_exact(self, d, D, s):
        # Values on a dyadic grid so every difference and running sum is
        # exactly representable: the round trip must then be bit-exact.
        rng = np.random.default_rng(7 * d + 3 * D + s)
        vals = (rng.integers(0, 2**30, size=50) / 2**10).tolist()
        s50 = ms(vals)
        diffed, initials = difference_with_initials(s50, d=d, D=D, s=s)
        assert len(diffed) == 50 - d - D * s
        back = undifference(diffed, initials)
        assert back.values == s50.values
        assert back.start == s50.start

    def test_round_trip_close_on_arbitrary_floats(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(0, 1, 50).tolist()
        diffed, initials = difference_with_initials(ms(vals), d=2, D=1, s=12)
        back = undifference(diffed, initials)
        for a, b in zip(back.values, vals):
            assert a == pytest.approx(b, abs=1e-10)


class TestDetrend:
    def test_exact_line(self):
        resid, slope, intercept = linear_detrend(ms([1, 2, 3]))
        assert slope == pytest.approx(1)
        assert intercept == pytest.approx(1)
        assert all(abs(v) < 1e-12 for v in resid.values)

    def test_constant(self):
        resid, slope, _ = linear_detrend(ms([5, 5, 5, 5]))
        assert slope == 0
        assert all(v == 0 for v in resid.values)

    def test_least_squares_oracle(self):
        # Closed form over x = 0..3, y = [0,2,1,3]:
        # slope = Sxy/Sxx = 4/5, intercept = ybar - slope*xbar = 0.3.
        resid, slope, intercept = linear_detrend(ms([0, 2, 1, 3]))
        assert slope == pytest.approx(0.8)
        assert intercept == pytest.approx(0.3)
        expected = [-0.3, 0.9, -0.9, 0.3]
        for a, b in zip(resid.values, expected):
            assert a == pytest.approx(b)

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(1)
        resid, _, _ = linear_detrend(ms(rng.normal(0, 10, 80).tolist()))
        assert abs(sum(resid.values)) < 1e-9

    def test_residuals_orthogonal_to_time(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(0, 5, 60).tolist()
        resid, _, _ = linear_detrend(ms(vals))
        n = len(vals)
        t = [i - (n - 1) / 2 for i in range(n)]
        dot = sum(a * b for a, b in zip(resid.values, t))
        scale = math.sqrt(sum(a * a for a in resid.values) * sum(b * b for b in t)) or 1.0
        assert abs(dot) / scale < 1e-6


class TestSmooth:
    def test_identity_window(self):
        assert smooth(ms([1, 2, 3]), 1).values == (1, 2, 3)

    def test_edge_shrunk(self):
        assert smooth(ms([1, 2, 3]), 3).values == (1.5, 2, 2.5)

    def test_constant_invariance(self):
        assert smooth(ms([4, 4, 4, 4, 4]), 3).values == (4, 4, 4, 4, 4)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            smooth(ms([1, 2, 3, 4]), 2)

    def test_window_longer_than_series(self):
        with pytest.raises(ValueError):
            smooth(ms([1, 2]), 3)


class TestPearson:
    def test_self(self):
        x = [1.0, 4.0, 2.0, 8.0]
        assert pearson_correlation(x, x) == pytest.approx(1)

    def test_negated(self):
        x = [1.0, 4.0, 2.0, 8.0]
        assert pearson_correlation(x, [-v for v in x]) == pytest.approx(-1)

    def test_closed_form(self):
        # Independent evaluation: r = 3 / sqrt(2 * 14/3).
        expected = 3 / math.sqrt(2 * 14 / 3)
        assert expected == pytest.approx(0.9820, abs=1e-4)
        assert pearson_correlation([1, 2, 3], [1, 2, 4]) == pytest.approx(expected)

    def test_constant_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson_correlation([1, 1, 1], [1, 2, 3])

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=30),
        st.lists(st.floats(-100, 100), min_size=3, max_size=30),
        st.floats(0.01, 50),
        st.floats(-40, 40),
    )
    @settings(max_examples=60)
    def test_symmetry_and_affine_invariance(self, a, b, scale, offset):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        if len(set(a)) < 2 or len(set(b)) < 2:
            return

        def variance(v):
            m = sum(v) / len(v)
            return sum((x - m) ** 2 for x in v)

        # Tiny variances underflow to zero when squared; not a data regime
        # the metric is defined for.
        if variance(a) < 1e-12 or variance(b) < 1e-12:
            return
        r1 = pearson_correlation(a, b)
        assert pearson_correlation(b, a) == pytest.approx(r1, abs=1e-12)
        r2 = pearson_correlation([scale * v + offset for v in a], b)
        assert r2 == pytest.approx(r1, abs=1e-9)


class TestAlignMerge:
    def test_intersection(self):
        target = ms([0] * 76, start=M(2016, 1), id="t")
        ind = ms([0] * 88, start=M(2015, 1), id="x")
        frame = align_merge(target, [ind])
        assert frame.start == M(2016, 1)
        assert frame.end == M(2022, 4)

    def test_disjoint(self):
        with pytest.raises(ValueError):
            align_merge(ms([1, 2], start=M(2016, 1), id="t"), [ms([1, 2], start=M(2020, 1), id="x")])

    def test_triple_intersection(self):
        target = ms([0] * 76, start=M(2016, 1), id="t")  # ..2022-04
        a = ms([0] * 72, start=M(2016, 1), id="a")  # ..2021-12
        b = ms([0] * 64, start=M(2017, 1), id="b")  # ..2022-04
        frame = align_merge(target, [a, b])
        assert frame.start == M(2017, 1)
        assert frame.end == M(2021, 12)
        assert frame.indicator_ids == ("a", "b")


class TestSplit:
    def _frame(self, n):
        return align_merge(ms(list(range(n)), id="t"), [])

    @pytest.mark.parametrize("n,train_len", [(76, 64), (40, 28), (13, 1)])
    def test_split_lengths(self, n, train_len):
        train, test = split_train_test(self._frame(n), SplitSpec(12))
        assert len(train) == train_len
        assert len(test) == 12
        assert train.end.shift(1) == test.start
        assert train.target.values + test.target.values == self._frame(n).target.values

    def test_horizon_too_large(self):
        with pytest.raises(ValueError):
            split_train_test(self._frame(12), SplitSpec(12))


class TestCsvRoundTrip:
    def test_round_trip_with_missing(self, tmp_path):
        s = MonthlySeries("demand", M(2019, 11), (1.5, None, -2.25, 1e-9))
        path = tmp_path / "demand.csv"
        write_series_csv(s, path)
        back = read_series_csv(path)
        assert back == s

    def test_id_from_stem(self, tmp_path):
        path = tmp_path / "sts_trtu_m.csv"
        write_series_csv(ms([1, 2]), path)
        assert read_series_csv(path).id == "sts_trtu_m"

    def test_gap_in_index_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("period,value\n2016-01,1\n2016-03,2\n")
        with pytest.raises(ValueError):
            read_series_csv(path)

    def test_bit_exact_values(self, tmp_path):
        rng = np.random.default_rng(3)
        s = ms(rng.normal(0, 1, 30).tolist())
        path = tmp_path / "s.csv"
        write_series_csv(s, path)
        assert read_series_csv(path).values == s.values


class TestFrameInvariants:
    def test_duplicate_indicator_ids_rejected(self):
        a = ms([1, 2], id="x")
        with pytest.raises(ValueError):
            AlignedFrame(month_range(M(2016, 1), 2), ms([1, 2], id="t"), (a, a))

    def test_mismatched_coverage_rejected(self):
        with pytest.raises(ValueError):
            AlignedFrame(
                month_range(M(2016, 1), 3),
                ms([1, 2, 3], id="t"),
                (ms([1, 2], id="x"),),
            )

    def test_with_indicators_preserves_order(self):
        frame = align_merge(
            ms([1, 2], id="t"),
            [ms([1, 2], id="a"), ms([3, 4], id="b"), ms([5, 6], id="c")],
        )
        sub = frame.with_indicators(["c", "a"])
        assert sub.indicator_ids == ("c", "a")

    def test_copies_and_pickles(self):
        frame = align_merge(ms([1, 2, 3], id="t"), [ms([1, None, 3], id="a"), ms([3, 4, 5], id="b")])
        for other in (copy.copy(frame), copy.deepcopy(frame), pickle.loads(pickle.dumps(frame))):
            assert other.target == frame.target and other.indicators == frame.indicators
            assert not other.matrix.flags.writeable


# ---------------------------------------------------------------------------
# The transforms as pure-Python loops over tuples, the form they had before
# the array core, kept as oracles. Sums run left to right from 0.0, the
# order of Python's `sum` over floats before 3.12 added compensation.

def _loop_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def oracle_interpolate(vals):
    vals = list(vals)
    known = [i for i, v in enumerate(vals) if v is not None]
    if not known:
        raise MissingValueError("entirely missing")
    first, last = known[0], known[-1]
    for i in range(first):
        vals[i] = vals[first]
    for i in range(last + 1, len(vals)):
        vals[i] = vals[last]
    for a, b in zip(known, known[1:]):
        ya, yb = vals[a], vals[b]
        step = (yb - ya) / (b - a)
        for k in range(1, b - a):
            vals[a + k] = ya + step * k
    return vals


def oracle_smooth(vals, window):
    if window > len(vals):
        raise ValueError("window exceeds series length")
    n, half = len(vals), window // 2
    out = []
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        out.append(_loop_sum(vals[lo:hi]) / (hi - lo))
    return out


def oracle_detrend(vals):
    n = len(vals)
    mean_x = (n - 1) / 2.0
    mean_y = _loop_sum(vals) / n
    sxx = _loop_sum((i - mean_x) ** 2 for i in range(n))
    sxy = _loop_sum((i - mean_x) * (v - mean_y) for i, v in enumerate(vals))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    return [v - (intercept + slope * i) for i, v in enumerate(vals)], slope, intercept


def oracle_normalize(vals):
    lo, hi = min(vals), max(vals)
    if not hi > lo:
        raise DegenerateRangeError("flat")
    return [(v - lo) / (hi - lo) for v in vals]


def oracle_pearson(a, b):
    n = len(a)
    da = [x - _loop_sum(a) / n for x in a]
    db = [x - _loop_sum(b) / n for x in b]
    var_a, var_b = _loop_sum(x * x for x in da), _loop_sum(x * x for x in db)
    if var_a == 0.0 or var_b == 0.0:
        raise UndefinedCorrelationError("constant input")
    return max(-1.0, min(1.0, _loop_sum(x * y for x, y in zip(da, db)) / math.sqrt(var_a * var_b)))


def assert_within_ulps(actual, expected, ulps=4):
    actual, expected = np.atleast_1d(actual), np.atleast_1d(np.asarray(expected, dtype=float))
    scale = np.spacing(np.maximum(np.abs(actual), np.abs(expected)))
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= ulps * scale), (actual, expected)


def gappy_series(seed, n):
    """Seeded values with a leading, an interior and a trailing gap where
    the length allows, and at least one known value."""
    rng = np.random.default_rng([seed, n])
    vals = (rng.normal(0, 10, n) + rng.normal(0, 100)).tolist()
    for i in {0, n // 2, n - 1} if n >= 4 else {seed % n} if seed else ():
        vals[i] = None
    return vals


class TestArrayTransformsMatchLoopOracles:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 30, 96])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_series(self, seed, n):
        raw = gappy_series(seed, n)
        filled = interpolate_missing(ms(raw))
        assert_within_ulps(filled.array, oracle_interpolate(raw))
        vals = oracle_interpolate(raw)
        s = ms(vals)
        for window in (1, 3, 5):
            if window <= n:
                assert smooth(s, window).values == tuple(oracle_smooth(vals, window))
            else:
                with pytest.raises(ValueError):
                    smooth(s, window)
        resid, slope, intercept = linear_detrend(s)
        expected, e_slope, e_intercept = oracle_detrend(vals)
        assert_within_ulps(resid.array, expected)
        assert_within_ulps([slope, intercept], [e_slope, e_intercept])
        other = oracle_interpolate(gappy_series(seed + 10, n))
        if len(set(vals)) > 1:
            assert_within_ulps(min_max_normalize(s)[0].array, oracle_normalize(vals))
        else:  # a length-2 series with one gap is constant
            with pytest.raises(DegenerateRangeError):
                min_max_normalize(s)
        if len(set(vals)) > 1 and len(set(other)) > 1:
            assert_within_ulps(pearson_correlation(vals, other), oracle_pearson(vals, other))
        else:
            with pytest.raises(UndefinedCorrelationError):
                pearson_correlation(vals, other)

    def test_same_exceptions(self):
        with pytest.raises(MissingValueError):
            oracle_interpolate([None, None])
        with pytest.raises(MissingValueError):
            interpolate_missing(ms([None, None]))
        with pytest.raises(DegenerateRangeError):
            oracle_normalize([2.0, 2.0, 2.0])
        with pytest.raises(DegenerateRangeError):
            min_max_normalize(ms([2.0, 2.0, 2.0]))
        with pytest.raises(UndefinedCorrelationError):
            oracle_pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedCorrelationError):
            pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            oracle_smooth([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            smooth(ms([1.0, 2.0]), 3)


def gappy_matrix(seed, n, k=5):
    """Seeded (n x k) values: column j has the gaps of gappy_series(seed + j, n),
    and a constant column is appended."""
    columns = [[np.nan if v is None else v for v in gappy_series(seed + j, n)] for j in range(k)]
    return np.array(columns + [[3.5] * n]).T


class TestColumnKernelsMatchSeriesTransforms:
    """A transform given a (T x k) matrix returns, in each column, exactly
    what it returns for that column as a series."""

    @staticmethod
    def column(values, j):
        return MonthlySeries(f"c{j}", M(2016, 1), values[:, j])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 31])
    @pytest.mark.parametrize("seed", range(3))
    def test_every_column_bit_for_bit(self, seed, n, order):
        raw = np.array(gappy_matrix(seed, n), order=order)
        k = raw.shape[1]
        filled = interpolate_missing(raw)
        assert filled.shape == raw.shape and not np.isnan(filled).any()
        for j in range(k):
            assert np.array_equal(filled[:, j], interpolate_missing(self.column(raw, j)).array)
        for window in (1, 3, 5, n if n % 2 else n - 1, n + 1 + n % 2):
            if window > n:
                with pytest.raises(ValueError, match="exceeds"):
                    smooth(filled, window)
                continue
            smoothed = smooth(filled, window)
            for j in range(k):
                assert np.array_equal(smoothed[:, j], smooth(self.column(filled, j), window).array)
        resid, slopes, intercepts = linear_detrend(filled)
        for j in range(k):
            expected, slope, intercept = linear_detrend(self.column(filled, j))
            assert np.array_equal(resid[:, j], expected.array)
            assert (slopes[j], intercepts[j]) == (slope, intercept)
        scaled, (lo, hi) = min_max_normalize(filled)
        for j in range(k):
            if hi[j] > lo[j]:
                expected, params = min_max_normalize(self.column(filled, j))
                assert np.array_equal(scaled[:, j], expected.array)
                assert (lo[j], hi[j]) == (params.min, params.max)
            else:  # the constant column, and any column a short length leaves flat
                assert np.array_equal(scaled[:, j], filled[:, j])
                with pytest.raises(DegenerateRangeError):
                    min_max_normalize(self.column(filled, j))
        assert np.array_equal(scaled[:, -1], np.full(n, 3.5))

    @pytest.mark.parametrize("n", [2, 3, 12, 64])
    def test_pearson_down_columns(self, n):
        rng = np.random.default_rng(n)
        target = rng.normal(0, 1, n)
        X = np.asfortranarray(rng.normal(5, 3, (n, 7)))
        X[:, 3] = -2.0 * target + 1.0  # exactly anti-correlated: r clips to -1
        X[:, 4] = target  # r clips to 1
        r = pearson_correlation(target, X)
        assert r.shape == (7,)
        for j in range(7):
            assert r[j] == pearson_correlation(target, X[:, j])
            assert r[j] == pearson_correlation(target.tolist(), X[:, j].tolist())

    def test_pearson_with_a_constant_column_is_undefined(self):
        X = np.column_stack([np.arange(6.0), np.full(6, 2.0), np.arange(6.0) ** 2])
        with pytest.raises(UndefinedCorrelationError):
            pearson_correlation(np.linspace(0, 1, 6), X)
        with pytest.raises(UndefinedCorrelationError):
            pearson_correlation(np.full(6, 1.0), X[:, [0, 2]])

    def test_all_gap_column_names_its_index(self):
        raw = gappy_matrix(0, 8)
        raw[:, 2] = np.nan
        with pytest.raises(MissingValueError, match="column 2 is entirely missing"):
            interpolate_missing(raw)

    @pytest.mark.parametrize("transform", [smooth, linear_detrend, min_max_normalize])
    def test_gaps_are_rejected(self, transform):
        with pytest.raises(MissingValueError):
            transform(gappy_matrix(1, 8))

    def test_inputs_are_not_mutated(self):
        raw = gappy_matrix(2, 12)
        before = raw.copy()
        filled = interpolate_missing(raw)
        kept = filled.copy()
        smooth(filled, 3)
        linear_detrend(filled)
        min_max_normalize(filled)
        assert np.array_equal(raw, before, equal_nan=True) and np.array_equal(filled, kept)
        assert raw.flags.writeable and filled.flags.writeable


class TestStackedFrame:
    def frame(self):
        return align_merge(ms([1, 2, 3], id="t"), [ms([4, None, 6], id="a"), ms([7, 8, 9.5], id="b")])

    def test_round_trip(self):
        frame = self.frame()
        values = frame.stacked()
        assert values.shape == (3, 3) and values.flags.f_contiguous
        assert np.array_equal(values[:, 0], frame.target.array)
        assert np.array_equal(values[:, 1:], frame.matrix, equal_nan=True)
        again = frame.with_stacked(values)
        assert again.target == frame.target and again.indicators == frame.indicators
        assert again.start == frame.start and again.indicator_ids == ("a", "b")
        assert not again.matrix.flags.writeable and not again.target.array.flags.writeable
        assert values.flags.writeable  # the caller's array is copied, not frozen

    def test_shape_must_match(self):
        with pytest.raises(ValueError, match="3 x 3"):
            self.frame().with_stacked(np.zeros((3, 2)))

    def test_require_complete_names_the_gappy_indicator(self):
        frame = self.frame()
        with pytest.raises(MissingValueError, match="'a'"):
            frame.require_complete()
        assert frame.with_indicators(["b"]).require_complete() is not None


@dataclasses.dataclass(frozen=True)
class TupleSeries:
    """A series as a frozen dataclass over a tuple of values: the reference
    for equality, hash and repr."""

    id: str
    start: Month
    values: tuple


class TestSeriesValueSemantics:
    CASES = [("s", M(2016, 1), (1.0, None, 3.0)), ("x", M(2019, 11), (1.5, -2.25, 1e-9)),
             ("y", M(2020, 2), (None,)), ("z", M(2020, 2), (0.0, -0.0))]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_as_a_tuple_dataclass(self, case):
        series, reference = MonthlySeries(*case), TupleSeries(*case)
        assert series.values == reference.values
        assert repr(series) == repr(reference).replace("TupleSeries", "MonthlySeries")
        assert hash(series) == hash(reference)
        for other in self.CASES:
            assert (series == MonthlySeries(*other)) == (reference == TupleSeries(*other))

    def test_array_is_read_only_and_shared_only_when_read_only(self):
        values = np.array([1.0, 2.0])
        s = MonthlySeries("s", M(2016, 1), values)
        values[0] = 9.0  # a writeable input is copied
        assert s.values == (1.0, 2.0)
        with pytest.raises(ValueError):
            s.array[0] = 5.0
        assert MonthlySeries("t", M(2016, 1), s.array).array is s.array

    def test_series_and_frames_reject_assignment_as_frozen_dataclasses_did(self):
        s = MonthlySeries("s", M(2016, 1), (1.0, None, 3.0))
        frame = align_merge(ms([1, 2, 3], id="t"), [s, ms([3, 4, 5], id="b")])
        before = hash(s)
        for obj, name in [(s, "array"), (s, "id"), (s, "start"), (frame, "matrix"), (frame, "target")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        assert hash(s) == before and frame.indicator("s") == s
        for other in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert other == s and hash(other) == before and not other.array.flags.writeable


class TestCsvBytes:
    EXPECTED = "period,value\r\n2019-11,1.5\r\n2019-12,\r\n2020-01,-2.25\r\n2020-02,1e-09\r\n"

    def test_written_bytes_and_round_trip(self, tmp_path):
        path = tmp_path / "demand.csv"
        write_series_csv(MonthlySeries("demand", M(2019, 11), (1.5, None, -2.25, 1e-9)), path)
        assert path.read_bytes() == self.EXPECTED.encode()
        back = read_series_csv(path)
        write_series_csv(back, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == self.EXPECTED.encode()
        assert back.values == (1.5, None, -2.25, 1e-9)

    def test_non_canonical_periods_are_read_by_value(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("period,value\n2019-12,1\n 2020-1,2\n2020-02 ,3\n")
        assert read_series_csv(path).start == M(2019, 12)
        path.write_text("period,value\n2019-12,1\n2020-13,2\n")
        with pytest.raises(ValueError, match="not a YYYY-MM period"):
            read_series_csv(path)
