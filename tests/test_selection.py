import numpy as np
import pytest

from exocast.errors import SelectionError, UndefinedCorrelationError
from exocast.selection import (
    CandidateSet,
    SelectionTrace,
    _lasso_active_set,
    correlation_select,
    export_trace_csv,
    forward_select,
    lasso_coordinate_descent,
    lasso_select,
    load_result,
    save_result,
    score_development,
    soft_threshold,
    validate_manual,
)
from exocast.series import Month, MonthlySeries, align_merge, min_max_normalize, pearson_correlation
from exocast.synth import SyntheticSpec, generate_synthetic

M = Month


def ms(vals, id="t", start=M(2016, 1)):
    return MonthlySeries(id, start, vals)


def make_candidates(target_vals, indicator_pairs):
    frame = align_merge(
        ms(target_vals), [ms(v, id=i) for i, v in indicator_pairs]
    )
    return CandidateSet(frame)


def orthonormal_centered(n, k, seed=0):
    """k orthonormal mean-zero vectors of length n."""
    rng = np.random.default_rng(seed)
    A = rng.normal(0, 1, (n, k))
    A -= A.mean(axis=0)
    Q, _ = np.linalg.qr(A)
    return [Q[:, j] for j in range(k)]


class TestCorrelationSelect:
    def test_exact_copy_deduplicated(self):
        rng = np.random.default_rng(0)
        t = rng.normal(0, 1, 30).tolist()
        result = correlation_select(make_candidates(t, [("x1", t), ("x2", t)]))
        assert result.selected_ids == ("x1",)
        assert result.diagnostics["target_correlations"]["x2"] == pytest.approx(1.0)

    def test_nothing_reaches_threshold(self):
        e0, e1, e2 = orthonormal_centered(24, 3)
        result = correlation_select(
            make_candidates(e0.tolist(), [("a", e1.tolist()), ("b", e2.tolist())])
        )
        assert result.selected_ids == ()

    def test_two_admitted_in_descending_order(self):
        # Constructed geometry: target correlations 0.80 and 0.76 with the
        # candidates' orthogonal parts anti-aligned, so their mutual
        # correlation is 0.8*0.76 - 0.6*sqrt(1-0.76^2) ~= 0.218 < 0.30.
        e0, e1 = orthonormal_centered(40, 2, seed=1)
        x1 = 0.80 * e0 + 0.60 * e1
        x2 = 0.76 * e0 - np.sqrt(1 - 0.76**2) * e1
        result = correlation_select(
            make_candidates(e0.tolist(), [("x2", x2.tolist()), ("x1", x1.tolist())])
        )
        corr = result.diagnostics["target_correlations"]
        assert corr["x1"] == pytest.approx(0.80, abs=1e-9)
        assert corr["x2"] == pytest.approx(0.76, abs=1e-9)
        assert result.selected_ids == ("x1", "x2")

    def test_thresholds_configurable(self):
        e0, e1 = orthonormal_centered(40, 2, seed=2)
        x1 = 0.9 * e0 + np.sqrt(1 - 0.81) * e1
        x2 = 0.8 * e0 - 0.6 * e1  # mutual corr = 0.72 - 0.436*0.6 ~= 0.458
        cands = make_candidates(e0.tolist(), [("x1", x1.tolist()), ("x2", x2.tolist())])
        strict = correlation_select(cands)  # default 0.30 mutual: x2 blocked
        assert strict.selected_ids == ("x1",)
        loose = correlation_select(cands, mutual_threshold=0.5)
        assert loose.selected_ids == ("x1", "x2")
        high_bar = correlation_select(cands, target_threshold=0.85)
        assert high_bar.selected_ids == ("x1",)

    def test_negative_correlation_counts(self):
        rng = np.random.default_rng(3)
        t = rng.normal(0, 1, 30)
        result = correlation_select(
            make_candidates(t.tolist(), [("neg", (-t).tolist())])
        )
        assert result.selected_ids == ("neg",)

    def test_affine_rescaling_invariance(self):
        e0, e1 = orthonormal_centered(40, 2, seed=4)
        x1 = 0.9 * e0 + np.sqrt(0.19) * e1
        before = correlation_select(make_candidates(e0.tolist(), [("x1", x1.tolist())]))
        after = correlation_select(
            make_candidates(e0.tolist(), [("x1", (3.5 * x1 + 11.0).tolist())])
        )
        assert before.selected_ids == after.selected_ids

    def test_constant_candidate_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            correlation_select(make_candidates([1, 2, 3, 4], [("flat", [5, 5, 5, 5])]))
        rng = np.random.default_rng(4)
        pairs = [(f"x{j}", rng.normal(0, 1, 12).tolist()) for j in range(5)]
        pairs.insert(3, ("flat", [5.0] * 12))
        with pytest.raises(UndefinedCorrelationError):
            correlation_select(make_candidates(rng.normal(0, 1, 12).tolist(), pairs))

    @pytest.mark.parametrize("ids", [None, ("x4", "x0", "x2", "x7")])
    def test_correlations_equal_one_call_per_pair(self, ids):
        # One column-wise call gives every target correlation; each must be
        # what a call on that candidate alone gives, bit for bit.
        rng = np.random.default_rng(7)
        target = rng.normal(0, 1, 40)
        drivers = {f"x{j}": (target * rng.uniform(0.5, 2) + rng.normal(0, 0.4, 40)).tolist()
                   for j in range(8)}
        frame = make_candidates(target.tolist(), list(drivers.items())).frame
        result = correlation_select(CandidateSet(frame, ids or ()), target_threshold=0.5,
                                    mutual_threshold=0.99)
        chosen = ids or frame.indicator_ids
        corr = result.diagnostics["target_correlations"]
        assert list(corr) == list(chosen)
        for cid in chosen:
            assert corr[cid] == pearson_correlation(target.tolist(), drivers[cid])
            assert type(corr[cid]) is float
        pairs = result.diagnostics["pairwise_correlations"]
        assert pairs and all(type(r) is float for r in pairs.values())
        for key, r in pairs.items():
            a, b = key.split("|")
            assert r == pearson_correlation(drivers[a], drivers[b])


def short_normalized_candidates(seed):
    """The 28-month range of a collinear six-indicator synthetic frame,
    min-max normalised the way the experiment grid prepares it."""
    frame, _ = generate_synthetic(SyntheticSpec(
        n_months=76, n_indicators=6, n_drivers=2,
        driver_betas=(1.5, 1.0), noise_sigma=0.5, seed=seed,
    ))
    sliced = frame.slice_months(M(2019, 1), M(2021, 4))
    target, _ = min_max_normalize(sliced.target)
    normalized = [min_max_normalize(s)[0] for s in sliced.indicators]
    return make_candidates(list(target.values), [(s.id, list(s.values)) for s in normalized])


def standardized_gram(X, y):
    """The standardized design, centred target, X'X/n and X'y/n that
    lasso_select solves on."""
    sd = X.std(axis=0)
    Xs = (X - X.mean(axis=0)) / np.where(sd == 0.0, 1.0, sd)
    yc = y - y.mean()
    n = len(y)
    return Xs, yc, Xs.T @ Xs / n, Xs.T @ yc / n


def oracle_frames():
    """Near-collinear frames with a constant column, and one frame with more
    columns than rows."""
    frames = []
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        n, p = 40, 6
        X = rng.normal(0, 1, (n, 1)) + 0.1 * rng.normal(0, 1, (n, p))
        X[:, 2] = 3.0
        y = X @ np.array([1.0, -0.5, 0.0, 0.8, 0.0, 0.3]) + rng.normal(0, 0.3, n)
        frames.append((X, y))
    rng = np.random.default_rng(200)
    X = rng.normal(0, 1, (20, 30))
    X[:, 7] = -1.0
    y = X[:, :3] @ np.array([2.0, -1.5, 1.0]) + rng.normal(0, 0.2, 20)
    frames.append((X, y))
    return frames


class TestLasso:
    def test_soft_threshold(self):
        assert soft_threshold(1.2, 0.5) == pytest.approx(0.7)
        assert soft_threshold(-1.2, 0.5) == pytest.approx(-0.7)
        assert soft_threshold(0.3, 0.5) == 0.0

    def test_lambda_max_kills_everything(self):
        rng = np.random.default_rng(0)
        t = rng.normal(0, 1, 40)
        xs = [("a", rng.normal(0, 1, 40)), ("b", rng.normal(0, 1, 40))]
        cands = make_candidates(t.tolist(), [(i, v.tolist()) for i, v in xs])
        # Recompute lambda_max the way the solver defines it.
        probe = lasso_select(cands, lam=1e9)
        assert probe.selected_ids == ()
        lam_max = lasso_select(cands).diagnostics["lambda_max"]
        at_max = lasso_select(cands, lam=lam_max)
        assert at_max.selected_ids == ()
        assert all(c == 0.0 for c in at_max.diagnostics["coefficients"].values())

    def test_zero_lambda_matches_ols(self):
        rng = np.random.default_rng(1)
        n = 30
        X = rng.normal(0, 1, (n, 3))
        y = X @ np.array([1.5, -2.0, 0.5]) + rng.normal(0, 0.1, n)
        cands = make_candidates(
            y.tolist(), [(f"x{j}", X[:, j].tolist()) for j in range(3)]
        )
        result = lasso_select(cands, lam=0.0)
        # OLS oracle on the standardized system.
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        yc = y - y.mean()
        ols = np.linalg.lstsq(Xs, yc, rcond=None)[0]
        got = [result.diagnostics["coefficients"][f"x{j}"] for j in range(3)]
        assert got == pytest.approx(ols.tolist(), abs=1e-6)

    def test_orthonormal_soft_threshold_oracle(self):
        from scipy.linalg import hadamard

        H = hadamard(8).astype(float)
        X = H[:, 1:5]  # mean-zero, orthogonal, column norm^2 = n = 8
        rng = np.random.default_rng(2)
        y = X @ np.array([1.0, -0.8, 0.3, 0.0]) + rng.normal(0, 0.2, 8)
        cands = make_candidates(
            y.tolist(), [(f"x{j}", X[:, j].tolist()) for j in range(4)]
        )
        result = lasso_select(cands, lam=0.5)
        yc = y - y.mean()
        z = X.T @ yc / 8  # OLS values under X'X/n = I
        expected = [soft_threshold(float(v), 0.5) for v in z]
        got = [result.diagnostics["coefficients"][f"x{j}"] for j in range(4)]
        assert got == pytest.approx(expected, abs=1e-6)

    def test_selection_count_monotone_in_lambda(self):
        rng = np.random.default_rng(3)
        n, p = 60, 5
        X = rng.normal(0, 1, (n, p))
        y = X @ np.array([2.0, 1.0, 0.5, 0.0, 0.0]) + rng.normal(0, 0.3, n)
        cands = make_candidates(
            y.tolist(), [(f"x{j}", X[:, j].tolist()) for j in range(p)]
        )
        lam_max = lasso_select(cands).diagnostics["lambda_max"]
        counts = []
        for lam in np.geomspace(1e-4 * lam_max, lam_max, 50):
            counts.append(len(lasso_select(cands, lam=float(lam)).selected_ids))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_grid_policy_recovers_true_support(self):
        rng = np.random.default_rng(4)
        n = 60
        X = rng.normal(0, 1, (n, 6))
        y = X @ np.array([3.0, -2.5, 0.0, 0.0, 0.0, 0.0]) + rng.normal(0, 0.2, n)
        cands = make_candidates(
            y.tolist(), [(f"x{j}", X[:, j].tolist()) for j in range(6)]
        )
        result = lasso_select(cands)
        assert "x0" in result.selected_ids
        assert "x1" in result.selected_ids
        assert result.diagnostics["lambda"] > 0

    def test_constant_column_never_selected(self):
        rng = np.random.default_rng(5)
        t = rng.normal(0, 1, 30)
        cands = make_candidates(
            t.tolist(), [("flat", [2.0] * 30), ("x", t.tolist())]
        )
        result = lasso_select(cands, lam=0.01)
        assert "flat" not in result.selected_ids

    def test_coordinate_descent_converges_flag(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        beta = lasso_coordinate_descent(X - X.mean(axis=0), y - y.mean(), 0.01)
        assert beta.shape == (2,)

    def test_warm_start_matches_cold_solution(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (40, 4))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        y = X @ np.array([1.0, -0.5, 0.0, 0.2]) + rng.normal(0, 0.1, 40)
        y = y - y.mean()
        cold = lasso_coordinate_descent(X, y, 0.05)
        warm = lasso_coordinate_descent(X, y, 0.05, beta0=cold + rng.normal(0, 0.3, 4))
        assert warm == pytest.approx(cold.tolist(), abs=1e-6)

    def test_grid_policy_survives_short_collinear_frames(self):
        # Short window over highly collinear walk candidates: each grid fit
        # is solved exactly, so its coordinate-descent certificate settles
        # far inside the sweep cap.
        cands = short_normalized_candidates(seed=0)
        result = lasso_select(cands)
        assert result.diagnostics["lambda"] > 0

    def test_grid_policy_certifies_seed_7_short_range(self):
        # Plain coordinate descent over this grid hits the 10,000-sweep cap.
        cands = short_normalized_candidates(seed=7)
        result = lasso_select(cands)
        ids = cands.candidate_ids
        X = np.column_stack([np.asarray(cands.frame.indicator(i).values) for i in ids])
        _, _, G, c = standardized_gram(X, np.asarray(cands.frame.target.values))
        beta = np.array([result.diagnostics["coefficients"][i] for i in ids])
        lam = result.diagnostics["lambda"]
        grad = G @ beta - c
        for j in range(len(ids)):
            if beta[j] != 0.0:
                assert abs(grad[j] + lam * np.sign(beta[j])) <= 1e-9
            else:
                assert abs(grad[j]) <= lam + 1e-9
        assert result.diagnostics["solver"]["kkt_max_violation"] <= 1e-9
        assert result.diagnostics["solver"]["active_set_steps"] > 0

    @pytest.mark.parametrize("frame_index", range(4))
    def test_active_set_matches_coordinate_descent_oracle(self, frame_index):
        X, y = oracle_frames()[frame_index]
        Xs, yc, G, c = standardized_gram(X, y)
        lam_max = float(np.max(np.abs(c)))
        warm = np.zeros(X.shape[1])
        for lam in np.geomspace(lam_max, 1e-3 * lam_max, 10):
            warm, _ = _lasso_active_set(G, c, float(lam), warm)
            cold, _ = _lasso_active_set(G, c, float(lam), np.zeros(X.shape[1]))
            oracle = lasso_coordinate_descent(Xs, yc, float(lam), tol=1e-12, max_iter=10**6)
            for got in (warm, cold):
                assert got == pytest.approx(oracle.tolist(), abs=1e-6)
                assert np.array_equal(np.abs(got) > 1e-10, np.abs(oracle) > 1e-10)
                assert not np.any(got[np.ptp(X, axis=0) == 0.0])


def naive_greedy(candidate_ids, evaluator, cap):
    """Independent brute-force reference for the greedy ladder."""
    entries = [((), evaluator(()))]
    current = []
    remaining = list(candidate_ids)
    while len(current) < cap and remaining:
        scored = []
        for cid in remaining:
            subset = tuple(current) + (cid,)
            score = evaluator(subset)
            entries.append((subset, score))
            scored.append((score, candidate_ids.index(cid), cid))
        best = min(scored)
        current.append(best[2])
        remaining.remove(best[2])
    best_subset, best_score = min(entries, key=lambda e: (e[1], len(e[0])))
    return entries, best_subset, best_score


class TestForwardSelect:
    def _simple_candidates(self, k=4):
        rng = np.random.default_rng(0)
        vals = rng.normal(0, 1, (k + 1, 30))
        return make_candidates(
            vals[0].tolist(), [(f"c{j}", vals[j + 1].tolist()) for j in range(k)]
        )

    def test_single_improving_candidate(self):
        cands = make_candidates([1.0, 2.0, 3.0, 4.0], [("c0", [0.0, 1.0, 0.0, 1.0])])
        scores = {(): 10.0, ("c0",): 8.0}
        result = forward_select(cands, lambda s: scores[s], cap=5)
        assert result.selected_ids == ("c0",)
        assert result.score == 8.0
        assert len(result.trace.entries) == 2

    def test_empty_set_can_win(self):
        cands = self._simple_candidates(2)
        scores = {(): 1.0, ("c0",): 2.0, ("c1",): 3.0, ("c0", "c1"): 4.0, ("c1", "c0"): 4.0}
        result = forward_select(cands, lambda s: scores[s], cap=2)
        assert result.selected_ids == ()
        assert result.score == 1.0

    def test_matches_naive_reference_exactly(self):
        cands = self._simple_candidates(4)
        ids = list(cands.candidate_ids)

        def evaluator(subset):
            # Deterministic synthetic landscape with interactions.
            base = 10.0
            bonus = {"c0": 3.0, "c1": 2.0, "c2": 0.5, "c3": -1.0}
            value = base - sum(bonus[c] for c in subset) + 0.3 * len(subset) ** 1.5
            return round(value, 9)

        expected_entries, expected_subset, expected_score = naive_greedy(ids, evaluator, 4)
        result = forward_select(cands, evaluator, cap=4)
        assert list(result.trace.entries) == expected_entries
        assert result.selected_ids == expected_subset
        assert result.score == expected_score

    def test_score_is_min_over_trace(self):
        cands = self._simple_candidates(3)
        rng = np.random.default_rng(7)
        table = {}

        def evaluator(subset):
            key = tuple(sorted(subset))
            if key not in table:
                table[key] = float(rng.uniform(1, 10))
            return table[key]

        result = forward_select(cands, evaluator, cap=3)
        assert result.score == min(s for _, s in result.trace.entries)

    def test_greedy_path_nested_and_grows_by_one(self):
        cands = self._simple_candidates(5)
        rng = np.random.default_rng(8)
        cache = {}

        def evaluator(subset):
            key = tuple(sorted(subset))
            if key not in cache:
                cache[key] = float(rng.uniform(1, 10))
            return cache[key]

        result = forward_select(cands, evaluator, cap=5)
        path = result.diagnostics["greedy_path"]
        assert len(set(path)) == len(path)
        # Reconstruct the path subsets from the trace: they must be nested.
        for k in range(1, len(path) + 1):
            prefix = tuple(path[:k])
            assert any(e[0] == prefix for e in result.trace.entries)

    def test_cap_respected(self):
        cands = self._simple_candidates(6)
        result = forward_select(cands, lambda s: 10.0 - len(s), cap=3)
        assert all(len(s) <= 3 for s, _ in result.trace.entries)
        assert len(result.diagnostics["greedy_path"]) == 3

    def test_failed_subset_recorded_and_skipped(self):
        cands = self._simple_candidates(3)

        def evaluator(subset):
            if "c1" in subset:
                raise RuntimeError("model exploded")
            return 10.0 - len(subset)

        result = forward_select(cands, evaluator, cap=3)
        assert all("c1" not in s for s, _ in result.trace.entries)
        assert any("c1" in s for s, _ in result.trace.failures)
        assert "model exploded" in result.trace.failures[0][1]

    def test_all_fail_raises(self):
        cands = self._simple_candidates(2)

        def evaluator(subset):
            raise RuntimeError("nope")

        with pytest.raises(SelectionError):
            forward_select(cands, evaluator, cap=2)

    def test_planted_drivers_recovered(self):
        # Lag-aware linear evaluator on a time-ordered holdout (drivers lead
        # the target); both planted drivers should be found in at least 8 of
        # 10 seeds.
        max_lag = 8
        hits = 0
        for seed in range(10):
            spec = SyntheticSpec(
                n_months=120, n_indicators=10, n_drivers=2,
                driver_betas=(1.5, 1.0), noise_sigma=0.5, seed=seed,
            )
            frame, truth = generate_synthetic(spec)
            cands = CandidateSet(frame)
            y = np.asarray(frame.target.values)[max_lag:]
            lagged = {
                i: np.column_stack(
                    [np.asarray(frame.indicator(i).values)[max_lag - l : len(frame) - l]
                     for l in range(max_lag + 1)]
                )
                for i in cands.candidate_ids
            }
            split = 88

            def evaluator(subset, y=y, lagged=lagged, split=split):
                blocks = [np.ones((len(y), 1))] + [lagged[c] for c in subset]
                X = np.column_stack(blocks)
                coef, *_ = np.linalg.lstsq(X[:split], y[:split], rcond=None)
                pred = X[split:] @ coef
                return float(np.mean(np.abs(pred - y[split:])))

            result = forward_select(cands, evaluator, cap=10)
            hits += set(truth.driver_ids) <= set(result.selected_ids)
        assert hits >= 8


class TestValidateManual:
    def _cands(self):
        rng = np.random.default_rng(0)
        return make_candidates(
            rng.normal(0, 1, 10).tolist(),
            [(f"c{j}", rng.normal(0, 1, 10).tolist()) for j in range(3)],
        )

    def test_passthrough(self):
        result = validate_manual(self._cands(), ["c2", "c0"])
        assert result.selected_ids == ("c2", "c0")
        assert result.method == "manual"

    def test_unknown_id_named(self):
        with pytest.raises(SelectionError, match="xyz"):
            validate_manual(self._cands(), ["c0", "xyz"])

    def test_duplicates_removed_keeping_order(self):
        result = validate_manual(self._cands(), ["c1", "c0", "c1"])
        assert result.selected_ids == ("c1", "c0")


class TestScoreDevelopment:
    def test_single_trace(self):
        trace = SelectionTrace(((("",) * 0, 10.0), (("a",), 8.0), (("a", "b"), 9.0)))
        assert score_development([trace]) == [(0, 10.0), (1, 8.0), (2, 9.0)]

    def test_two_traces_mean_at_shared_sizes(self):
        t1 = SelectionTrace((((), 10.0), (("a",), 8.0)))
        t2 = SelectionTrace((((), 6.0), (("b",), 4.0)))
        assert score_development([t1, t2]) == [(0, 8.0), (1, 6.0)]

    def test_best_per_size_within_trace(self):
        trace = SelectionTrace((((), 10.0), (("a",), 8.0), (("b",), 5.0), (("a", "c"), 7.0)))
        assert score_development([trace]) == [(0, 10.0), (1, 5.0), (2, 7.0)]

    def test_sizes_missing_from_one_trace(self):
        t1 = SelectionTrace((((), 10.0), (("a",), 8.0), (("a", "b"), 6.0)))
        t2 = SelectionTrace((((), 4.0), (("b",), 2.0)))
        assert score_development([t1, t2]) == [(0, 7.0), (1, 5.0), (2, 6.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score_development([])


class TestPersistence:
    def test_result_round_trip(self, tmp_path):
        cands = make_candidates(
            [1.0, 2.0, 3.0, 4.0], [("c0", [0.0, 1.0, 0.0, 1.0])]
        )
        result = forward_select(cands, lambda s: 10.0 - len(s), cap=1)
        path = tmp_path / "selection.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.method == result.method
        assert loaded.selected_ids == result.selected_ids
        assert loaded.score == result.score
        assert loaded.trace == result.trace

    def test_trace_csv(self, tmp_path):
        trace = SelectionTrace((((), 10.0), (("a",), 8.0), (("a", "b"), 9.0)))
        path = tmp_path / "trace.csv"
        export_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n_vars,subset,oos_mae"
        assert lines[1] == "0,,10.0"
        assert lines[3] == "2,a|b,9.0"
