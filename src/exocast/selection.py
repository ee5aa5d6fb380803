"""Exogenous-variable selection: correlation filtering, LASSO, greedy
forward selection against an out-of-sample evaluator, and a validated
manual list.

The wrapper method treats the downstream model as a black box: callers hand
in an evaluator mapping a subset of candidate ids to an out-of-sample MAE.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceFailureError, SchemaError, SelectionError
from .series import AlignedFrame, pearson_correlation

__all__ = [
    "CandidateSet",
    "SelectionResult",
    "SelectionTrace",
    "correlation_select",
    "lasso_select",
    "lasso_coordinate_descent",
    "soft_threshold",
    "forward_select",
    "validate_manual",
    "score_development",
    "save_result",
    "load_result",
    "export_trace_csv",
]

TARGET_CORRELATION_THRESHOLD = 0.75
MUTUAL_CORRELATION_THRESHOLD = 0.30
FORWARD_CAP = 20
LASSO_TOL = 1e-8
LASSO_MAX_ITER = 10_000
LASSO_NONZERO = 1e-10
KKT_TOL = 1e-12  # relative to max|X'y/n|
ACTIVE_SET_MAX_STEPS = 1_000


@dataclass(frozen=True)
class CandidateSet:
    """A target frame plus the indicator ids eligible for selection."""

    frame: AlignedFrame
    candidate_ids: tuple[str, ...] = ()

    def __post_init__(self):
        ids = tuple(self.candidate_ids) or self.frame.indicator_ids
        object.__setattr__(self, "candidate_ids", ids)
        known = set(self.frame.indicator_ids)
        unknown = [i for i in ids if i not in known]
        if unknown:
            raise ValueError(f"candidate ids not in frame: {unknown}")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate candidate ids")


@dataclass(frozen=True)
class SelectionTrace:
    """Every subset evaluation made by a wrapper run, in evaluation order."""

    entries: tuple[tuple[tuple[str, ...], float], ...]
    failures: tuple[tuple[tuple[str, ...], str], ...] = ()


@dataclass(frozen=True)
class SelectionResult:
    method: str
    selected_ids: tuple[str, ...]
    score: float | None = None
    trace: SelectionTrace | None = None
    diagnostics: dict = field(default_factory=dict)


def correlation_select(
    candidates: CandidateSet,
    target_threshold: float = TARGET_CORRELATION_THRESHOLD,
    mutual_threshold: float = MUTUAL_CORRELATION_THRESHOLD,
) -> SelectionResult:
    """Keep candidates strongly correlated with the target, then greedily
    drop mutually redundant ones in descending |target correlation| order."""
    ids = candidates.candidate_ids
    frame = candidates.frame.with_indicators(ids)
    X = frame.require_complete()
    order = {cid: i for i, cid in enumerate(ids)}
    r = pearson_correlation(frame.target.array, X).tolist() if ids else []
    target_corr = dict(zip(ids, r))

    survivors = [cid for cid in ids if abs(target_corr[cid]) >= target_threshold]
    survivors.sort(key=lambda cid: (-abs(target_corr[cid]), order[cid]))

    pairwise: dict[str, float] = {}
    for i, a in enumerate(survivors):
        for b in survivors[i + 1 :]:
            pairwise[f"{a}|{b}"] = pearson_correlation(X[:, order[a]], X[:, order[b]])

    def mutual(a: str, b: str) -> float:
        return pairwise.get(f"{a}|{b}", pairwise.get(f"{b}|{a}", 0.0))

    admitted: list[str] = []
    for cid in survivors:
        if all(abs(mutual(cid, kept)) < mutual_threshold for kept in admitted):
            admitted.append(cid)

    return SelectionResult(
        method="correlation",
        selected_ids=tuple(admitted),
        diagnostics={
            "target_correlations": target_corr,
            "pairwise_correlations": pairwise,
            "target_threshold": target_threshold,
            "mutual_threshold": mutual_threshold,
        },
    )


def soft_threshold(value: float, amount: float) -> float:
    if value > amount:
        return value - amount
    if value < -amount:
        return value + amount
    return 0.0


def lasso_coordinate_descent(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = LASSO_TOL,
    max_iter: int = LASSO_MAX_ITER,
    beta0: np.ndarray | None = None,
) -> np.ndarray:
    """Cyclic coordinate descent for (1/2n)||y - Xb||^2 + lam*||b||_1.

    Stops when the largest single-coefficient change in a sweep is <= tol,
    and raises ConvergenceFailureError if that takes more than max_iter
    sweeps. beta0 warm-starts the iteration.

    lasso_select uses it as the certificate of every active-set solution:
    started from the optimum it settles in a sweep or two, and its verdict
    decides whether a fit converged. Tests use it, run to a tight tol, as
    the reference optimum.
    """
    n, p = X.shape
    col_norm2 = (X * X).sum(axis=0) / n
    col_norm2[col_norm2 == 0.0] = 1.0  # dead column; its coefficient stays 0
    beta = np.zeros(p) if beta0 is None else beta0.astype(float).copy()
    residual = y.astype(float) - (X @ beta if beta.any() else 0.0)
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(p):
            old = beta[j]
            if old != 0.0:
                residual += X[:, j] * old
            rho = float(X[:, j] @ residual) / n
            new = soft_threshold(rho, lam) / col_norm2[j]
            if new != 0.0:
                residual -= X[:, j] * new
            beta[j] = new
            max_delta = max(max_delta, abs(new - old))
        if max_delta <= tol:
            return beta
    raise ConvergenceFailureError(
        f"coordinate descent did not converge within {max_iter} sweeps", best=beta
    )


def _lasso_objective(G: np.ndarray, c: np.ndarray, lam: float, b: np.ndarray) -> float:
    return float(0.5 * b @ G @ b - c @ b + lam * np.abs(b).sum())


def _kkt_violation(G: np.ndarray, c: np.ndarray, lam: float, beta: np.ndarray) -> float:
    """Largest breach of the LASSO optimality conditions in the Gram form:
    grad_j = -lam*sign(b_j) where b_j != 0, and |grad_j| <= lam where b_j = 0."""
    grad = G @ beta - c
    breach = np.where(
        beta != 0.0,
        np.abs(grad + lam * np.sign(beta)),
        np.maximum(np.abs(grad) - lam, 0.0),
    )
    return float(breach.max(initial=0.0))


def _lasso_active_set(
    G: np.ndarray, c: np.ndarray, lam: float, beta0: np.ndarray
) -> tuple[np.ndarray, int]:
    """Feature-sign search (Lee, Battle, Raina & Ng 2007) for
    1/2 b'Gb - c'b + lam*||b||_1, with G = X'X/n and c = X'y/n.

    Each step solves G_SS b_S = c_S - lam*theta_S on the support S with sign
    vector theta, then keeps the best of the new point and the points where a
    coefficient crosses zero on the way there. A zero coefficient whose
    gradient exceeds lam joins S only once the nonzero ones are optimal, so
    it moves in the direction of its sign. Returns the iterate and the number
    of steps taken. The iterate is exact when the KKT conditions hold; when a
    solve is singular or a step cannot lower the objective, the last iterate
    is returned as is and the caller's certificate finishes the fit.
    """
    beta = beta0.astype(float).copy()
    tol = KKT_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
    steps = 0
    settled = False  # the last step landed on its face optimum
    while steps < ACTIVE_SET_MAX_STEPS:
        grad = G @ beta - c
        theta = np.sign(beta)
        nonzero = theta != 0.0
        if settled or np.all(np.abs(grad[nonzero] + lam * theta[nonzero]) <= tol):
            outside = np.where(nonzero, 0.0, np.abs(grad))
            j = int(np.argmax(outside))
            if outside[j] <= lam + tol:
                break
            theta[j] = -np.sign(grad[j])
        S = np.flatnonzero(theta)
        G_SS, c_S = G[np.ix_(S, S)], c[S]
        try:
            target = np.linalg.solve(G_SS, c_S - lam * theta[S])
        except np.linalg.LinAlgError:
            break
        steps += 1
        old = beta[S]
        best, best_obj = target, _lasso_objective(G_SS, c_S, lam, target)
        settled = bool(np.all(np.sign(target) == theta[S]))  # no zero crossings
        for k in np.flatnonzero((old != 0.0) & (np.sign(target) != np.sign(old))):
            t = old[k] / (old[k] - target[k])
            point = old + t * (target - old)
            point[k] = 0.0
            obj = _lasso_objective(G_SS, c_S, lam, point)
            if obj < best_obj:
                best, best_obj = point, obj
        if best_obj >= _lasso_objective(G_SS, c_S, lam, old):
            break
        beta[S] = best
    return beta, steps


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return (X - mu) / sd, mu, sd


def lasso_select(
    candidates: CandidateSet,
    lam: float | None = None,
    tol: float = LASSO_TOL,
    max_iter: int = LASSO_MAX_ITER,
) -> SelectionResult:
    """L1-penalised selection on standardized features and a centred target.

    With lam=None the penalty comes from a 50-point log grid on
    [1e-4*lam_max, lam_max], scored by MAE on the final 20% of the training
    range; ties resolve toward the larger (sparser) value.

    Each fit is solved exactly by an active-set (feature-sign) solver on the
    Gram form, warm-started down the grid, and then certified by
    lasso_coordinate_descent(tol, max_iter) started from that solution: the
    certificate returns the coefficients or raises ConvergenceFailureError.
    """
    frame = candidates.frame
    ids = candidates.candidate_ids
    y_raw = np.asarray(frame.target.require_complete())
    n = len(y_raw)
    if n < 3:
        raise SelectionError("lasso needs at least 3 training rows")
    X_raw = np.ascontiguousarray(frame.with_indicators(ids).require_complete())

    steps = 0

    def fit(X: np.ndarray, y: np.ndarray, G: np.ndarray, c: np.ndarray, g: float, warm):
        # G and c are X'X/n and X'y/n, built once per window.
        nonlocal steps
        beta, taken = _lasso_active_set(G, c, g, warm)
        steps += taken
        return lasso_coordinate_descent(X, y, g, tol, max_iter, beta0=beta)

    Xs, _, _ = _standardize(X_raw)
    yc = y_raw - y_raw.mean()
    G_full, c_full = Xs.T @ Xs / n, Xs.T @ yc / n
    lam_max = float(np.max(np.abs(c_full))) if ids else 0.0

    chosen = lam
    grid_scores: list[tuple[float, float]] = []
    if lam is None:
        if lam_max == 0.0:
            chosen = 0.0
        else:
            grid = np.geomspace(1e-4 * lam_max, lam_max, 50)
            n_val = max(1, n // 5)
            X_fit, X_val = X_raw[: n - n_val], X_raw[n - n_val :]
            y_fit, y_val = y_raw[: n - n_val], y_raw[n - n_val :]
            Xf, mu, sd = _standardize(X_fit)
            yf = y_fit - y_fit.mean()
            G_fit, c_fit = Xf.T @ Xf / len(yf), Xf.T @ yf / len(yf)
            best_score, chosen = None, None
            warm = np.zeros(Xf.shape[1])
            for g in grid[::-1]:  # descending: ties keep the larger lambda
                warm = fit(Xf, yf, G_fit, c_fit, float(g), warm)
                pred = y_fit.mean() + ((X_val - mu) / sd) @ warm
                score = float(np.mean(np.abs(pred - y_val)))
                grid_scores.append((float(g), score))
                if best_score is None or score < best_score:
                    best_score, chosen = score, float(g)

    if ids:
        beta = fit(Xs, yc, G_full, c_full, float(chosen), np.zeros(len(ids)))
    else:
        beta = np.zeros(0)
    selected = tuple(cid for cid, b in zip(ids, beta) if abs(b) > LASSO_NONZERO)
    return SelectionResult(
        method="lasso",
        selected_ids=selected,
        diagnostics={
            "coefficients": {cid: float(b) for cid, b in zip(ids, beta)},
            "lambda": float(chosen),
            "lambda_max": lam_max,
            "grid_scores": grid_scores,
            "solver": {
                "active_set_steps": steps,
                "kkt_max_violation": _kkt_violation(G_full, c_full, float(chosen), beta),
            },
        },
    )


def forward_select(
    candidates: CandidateSet,
    evaluator: Callable[[tuple[str, ...]], float],
    cap: int = FORWARD_CAP,
) -> SelectionResult:
    """Greedy wrapper selection: grow the subset one best candidate at a
    time, record every evaluation, return the best subset seen anywhere.
    Each round is recorded and reduced in candidate order."""
    if cap < 1:
        raise ValueError("cap must be positive")
    ids = candidates.candidate_ids
    index_of = {cid: i for i, cid in enumerate(ids)}
    entries: list[tuple[tuple[str, ...], float]] = []
    failures: list[tuple[tuple[str, ...], str]] = []

    def evaluate(subset: tuple[str, ...]) -> tuple[float | None, str | None]:
        try:
            return float(evaluator(subset)), None
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            return None, f"{type(exc).__name__}: {exc}"

    def record(subset: tuple[str, ...], outcome: tuple[float | None, str | None]):
        score, error = outcome
        if error is None:
            entries.append((subset, score))
        else:
            failures.append((subset, error))

    record((), evaluate(()))

    current: list[str] = []
    remaining = list(ids)
    while len(current) < cap and remaining:
        round_best: tuple[float, int, str] | None = None
        for cid in remaining:
            subset = tuple(current) + (cid,)
            outcome = evaluate(subset)
            record(subset, outcome)
            if outcome[1] is None:
                key = (outcome[0], index_of[cid], cid)
                if round_best is None or key < round_best:
                    round_best = key
        if round_best is None:
            break  # the whole round failed; keep what we have
        current.append(round_best[2])
        remaining.remove(round_best[2])

    if not entries:
        raise SelectionError(
            "every evaluation failed: "
            + "; ".join(f"{list(s)} -> {r}" for s, r in failures[:5])
        )
    best_subset, best_score = min(entries, key=lambda e: (e[1], len(e[0])))
    return SelectionResult(
        method="forward",
        selected_ids=best_subset,
        score=best_score,
        trace=SelectionTrace(tuple(entries), tuple(failures)),
        diagnostics={
            "evaluations": len(entries),
            "failed_evaluations": len(failures),
            "greedy_path": list(current),
            "cap": cap,
        },
    )


def validate_manual(candidates: CandidateSet, chosen: Sequence[str]) -> SelectionResult:
    """Check a hand-picked list against the candidate pool; dedupe in order."""
    known = set(candidates.candidate_ids)
    seen: list[str] = []
    for cid in chosen:
        if cid not in known:
            raise SelectionError(f"unknown candidate id: {cid!r}")
        if cid not in seen:
            seen.append(cid)
    return SelectionResult(method="manual", selected_ids=tuple(seen))


def score_development(traces: Sequence[SelectionTrace]) -> list[tuple[int, float]]:
    """Best score per subset size in each trace, averaged across the traces
    that reach that size."""
    if not traces:
        raise ValueError("need at least one trace")
    per_size: dict[int, list[float]] = {}
    for trace in traces:
        best: dict[int, float] = {}
        for subset, score in trace.entries:
            size = len(subset)
            if size not in best or score < best[size]:
                best[size] = score
        for size, score in best.items():
            per_size.setdefault(size, []).append(score)
    return [(size, sum(v) / len(v)) for size, v in sorted(per_size.items())]


# ---------------------------------------------------------------------------
# Persistence

def _result_to_dict(result: SelectionResult) -> dict:
    doc = {
        "schema": "exocast.selection.result/1",
        "method": result.method,
        "selected_ids": list(result.selected_ids),
        "score": result.score,
        "diagnostics": result.diagnostics,
    }
    if result.trace is not None:
        doc["trace"] = {
            "entries": [[list(s), score] for s, score in result.trace.entries],
            "failures": [[list(s), reason] for s, reason in result.trace.failures],
        }
    return doc


def save_result(result: SelectionResult, path: str | Path) -> None:
    Path(path).write_text(json.dumps(_result_to_dict(result), indent=2))


def load_result(path: str | Path) -> SelectionResult:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != "exocast.selection.result/1":
        raise SchemaError(f"{path}: unknown selection-result schema {doc.get('schema')!r}")
    trace = None
    if "trace" in doc:
        trace = SelectionTrace(
            entries=tuple((tuple(s), score) for s, score in doc["trace"]["entries"]),
            failures=tuple((tuple(s), reason) for s, reason in doc["trace"]["failures"]),
        )
    return SelectionResult(
        method=doc["method"],
        selected_ids=tuple(doc["selected_ids"]),
        score=doc["score"],
        trace=trace,
        diagnostics=doc.get("diagnostics", {}),
    )


def export_trace_csv(trace: SelectionTrace, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_vars", "subset", "oos_mae"])
        for subset, score in trace.entries:
            writer.writerow([len(subset), "|".join(subset), repr(score)])
