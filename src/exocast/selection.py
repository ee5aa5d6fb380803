"""Exogenous-variable selection: correlation filtering, LASSO, greedy
forward selection against an out-of-sample evaluator, and a validated
manual list.

The wrapper method treats the downstream model as a black box: callers hand
in an evaluator mapping a subset of candidate ids to an out-of-sample MAE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConvergenceFailureError, SelectionError, from_object, read_document, to_object, write_document,
)
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
    "result_object",
    "result_from_object",
    "save_result",
    "load_result",
]

TARGET_CORRELATION_THRESHOLD = 0.75
MUTUAL_CORRELATION_THRESHOLD = 0.30
FORWARD_CAP = 20
LASSO_TOL = 1e-8
LASSO_MAX_ITER = 10_000
LASSO_NONZERO = 1e-10
KKT_TOL = 1e-12  # relative to max|X'y/n|
SPAN_TOL = 1e-12  # relative to the column's own X'X/n: a column this close is in a span
# Forward scores this close to the lowest are tied: a batched round agrees
# with the per-subset path to about this, so rounding may order them either
# way. Seeds 0-9 and 100-139 separate distinct subsets by 1.9e-5 or more.
SCORE_TIE_RTOL = 1e-9


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
    diagnostics: dict = field(default_factory=dict)
    trace: SelectionTrace | None = None


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

    # One call per survivor against every later one: each column's sums run
    # as they would alone, so every r equals its one-pair value bit for bit.
    pairwise: dict[str, float] = {}
    for i, a in enumerate(survivors[:-1]):
        later = survivors[i + 1 :]
        r = pearson_correlation(X[:, order[a]], X[:, [order[b] for b in later]])
        pairwise.update((f"{a}|{b}", float(rb)) for b, rb in zip(later, r))

    admitted: list[str] = []  # each precedes every later survivor
    for cid in survivors:
        if all(abs(pairwise[f"{kept}|{cid}"]) < mutual_threshold for kept in admitted):
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

    lasso_select uses it as the certificate of its final fit: started from
    the optimum it settles in a sweep or two. Tests use it, run to a tight
    tol, as the reference.
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
    raise ConvergenceFailureError(f"coordinate descent did not converge within {max_iter} sweeps")


def _kkt_violation(G: np.ndarray, c: np.ndarray, lams: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Largest breach of the LASSO optimality conditions in the Gram form, one
    per row b of B at its penalty lam: grad_j = -lam*sign(b_j) where b_j != 0,
    and |grad_j| <= lam where b_j = 0."""
    grad, lam = B @ G - c, lams[:, None]  # G is symmetric
    breach = np.where(B != 0.0, np.abs(grad + lam * np.sign(B)), np.maximum(np.abs(grad) - lam, 0))
    return breach.max(axis=1, initial=0.0)


def _lasso_path(G: np.ndarray, c: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimisers of 1/2 b'Gb - c'b + lam*||b||_1 (G = X'X/n, c = X'y/n) at
    each penalty of the descending `lams`, and the number of breakpoints
    passed: the homotopy from lam_max = max|c| down (Osborne, Presnell &
    Turlach 2000; LARS-lasso, Efron et al. 2004).

    Between breakpoints the active set A and its signs s are fixed: b_A =
    u - lam*v with G_AA [u v] = [c_A s_A], and r = c - Gb = p + lam*q. The
    next one is the largest lower penalty where an inactive |r_j| reaches
    lam (j joins) or an active b_j reaches 0 (it drops), counted only if lam
    falling on would breach it: what just joined does not drop at once, nor
    what just dropped rejoin. A join rounding put at or above the current
    penalty is a tie and happens at once; a column in the span of A's never
    joins. A singular solve ends the path; the penalties left keep the last
    minimiser for the caller's KKT check.
    """
    B = np.zeros((len(lams), len(c)))
    beta, sign, active = np.zeros(len(c)), np.zeros(len(c)), []
    lam0, k, steps = np.inf, 0, 0
    while k < len(lams):
        A = np.array(active, dtype=int)
        try:
            W = np.linalg.solve(G[np.ix_(A, A)], np.column_stack([c[A], sign[A], G[A]]))
        except np.linalg.LinAlgError:
            break
        u, v, W = W[:, 0], W[:, 1], W[:, 2:]
        p, q = c - c[A] @ W, sign[A] @ W
        outside_span = np.diag(G) - np.einsum("ij,ij->j", G[A], W) > SPAN_TOL * np.diag(G)
        # Rows: r_j reaches +lam, r_j reaches -lam, b_j reaches 0. A rate is
        # how fast the breach grows as lam falls past the event.
        rates = np.stack([1.0 - q, 1.0 + q, np.zeros(len(c))])
        rates[2, A] = -sign[A] * v
        with np.errstate(divide="ignore", invalid="ignore"):
            events = np.stack([p, -p, np.zeros(len(c))]) / rates
        events[:, ~outside_span], events[2, A] = 0.0, u / v
        events[~((events > 0.0) & (rates > 0.0))] = 0.0
        events[2, events[2] >= lam0] = 0.0
        kind, j = np.unravel_index(int(np.argmax(events)), events.shape)
        lam0 = min(float(events[kind, j]), lam0)
        while k < len(lams) and lams[k] >= lam0:
            B[k, A] = u - lams[k] * v
            k += 1
        if k == len(lams):
            break
        beta[:] = 0.0
        beta[A] = u - lam0 * v
        if kind == 2:
            active.remove(j)
            beta[j] = 0.0
        else:
            active.append(j)
            sign[j] = 1.0 if kind == 0 else -1.0
        steps += 1
    B[k:] = beta
    return B, steps


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return (X - mu) / sd, mu, sd


def lasso_select(candidates: CandidateSet, lam: float | None = None) -> SelectionResult:
    """L1-penalised selection on standardized features and a centred target.

    With lam=None the penalty comes from a 50-point log grid on
    [1e-4*lam_max, lam_max], scored by MAE on the final 20% of the training
    range; ties resolve toward the larger (sparser) value.

    One regularisation path gives every grid point, and one stacked KKT
    check certifies them: a point that breaches its conditions by more than
    KKT_TOL raises ConvergenceFailureError naming its penalty and the
    breach. The final fit at the chosen (or given) penalty is the path's
    point on the full range, certified by coordinate descent started there:
    it returns the coefficients or ConvergenceFailureError.
    """
    frame = candidates.frame
    ids = candidates.candidate_ids
    y_raw = np.asarray(frame.target.require_complete())
    n = len(y_raw)
    if n < 3:
        raise SelectionError("lasso needs at least 3 training rows")
    X_raw = np.ascontiguousarray(frame.with_indicators(ids).require_complete())

    Xs, _, _ = _standardize(X_raw)
    yc = y_raw - y_raw.mean()
    G_full, c_full = Xs.T @ Xs / n, Xs.T @ yc / n
    lam_max = float(np.max(np.abs(c_full))) if ids else 0.0

    chosen = lam
    grid_scores: list[list[float]] = []  # [lambda, validation MAE] pairs, as JSON reads them back
    steps = 0
    if lam is None:
        if lam_max == 0.0:
            chosen = 0.0
        else:
            # Descending, so that the first lowest score keeps the larger lambda.
            grid = np.geomspace(1e-4 * lam_max, lam_max, 50)[::-1]
            n_val = max(1, n // 5)
            X_fit, X_val = X_raw[: n - n_val], X_raw[n - n_val :]
            y_fit, y_val = y_raw[: n - n_val], y_raw[n - n_val :]
            Xf, mu, sd = _standardize(X_fit)
            yf = y_fit - y_fit.mean()
            G_fit, c_fit = Xf.T @ Xf / len(yf), Xf.T @ yf / len(yf)
            B, steps = _lasso_path(G_fit, c_fit, grid)
            violation = _kkt_violation(G_fit, c_fit, grid, B)
            failed = np.flatnonzero(~(violation <= KKT_TOL * max(1.0, float(np.abs(c_fit).max()))))
            if len(failed):
                k = failed[0]
                raise ConvergenceFailureError(
                    f"lasso path at penalty {float(grid[k])!r} breaches its optimality "
                    f"conditions by {float(violation[k])!r}"
                )
            pred = y_fit.mean() + ((X_val - mu) / sd) @ B.T
            scores = np.mean(np.abs(pred - y_val[:, None]), axis=0)
            chosen = float(grid[int(np.argmin(scores))])
            grid_scores = [[float(g), float(score)] for g, score in zip(grid, scores)]

    final = np.array([float(chosen)])
    if ids:
        start, taken = _lasso_path(G_full, c_full, final)
        steps += taken
        beta = lasso_coordinate_descent(Xs, yc, final[0], beta0=start[0])
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
                "path_steps": steps,
                "kkt_max_violation": float(_kkt_violation(G_full, c_full, final, beta[None])[0]),
            },
        },
    )


def forward_select(
    candidates: CandidateSet,
    evaluator: Callable[[tuple[str, ...]], float],
    cap: int = FORWARD_CAP,
    score_round: Callable[[tuple[str, ...], tuple[str, ...]], Sequence[float]] | None = None,
) -> SelectionResult:
    """Greedy wrapper selection: grow the subset one best candidate at a
    time, record every evaluation, return the best subset seen anywhere.
    Each round is recorded and reduced in candidate order. Scores within
    SCORE_TIE_RTOL of the lowest are tied, so that no choice rests on
    rounding: a round's tie goes to the first candidate, and a tie for the
    best subset to the shortest, then to the first evaluated.

    `score_round(current, candidates)`, if given, scores a whole round in
    one call, one score per candidate, each equal to the per-subset score
    to rounding; a candidate it scores NaN, every candidate without it and
    the empty subset are scored by `evaluator(subset)`, whose failure is
    recorded."""
    if type(cap) is not int or cap < 1:
        raise ValueError(f"cap must be an integer >= 1, got {cap!r}")
    ids = candidates.candidate_ids
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

    scored = {"batch": 0, "per_subset": 0}
    current: list[str] = []
    remaining = list(ids)
    while len(current) < cap and remaining:
        round_scores: list[tuple[float, str]] = []
        batch = score_round(tuple(current), tuple(remaining)) if score_round else None
        for n, cid in enumerate(remaining):
            subset = tuple(current) + (cid,)
            if batch is None or math.isnan(batch[n]):
                outcome = evaluate(subset)
                scored["per_subset"] += 1
            else:
                outcome = float(batch[n]), None
                scored["batch"] += 1
            record(subset, outcome)
            if outcome[1] is None:
                round_scores.append((outcome[0], cid))
        if not round_scores:
            break  # the whole round failed; keep what we have
        best = _tied([score for score, _ in round_scores])[0]
        current.append(round_scores[best][1])
        remaining.remove(round_scores[best][1])

    if not entries:
        raise SelectionError(
            "every evaluation failed: "
            + "; ".join(f"{list(s)} -> {r}" for s, r in failures[:5])
        )
    best_subset, best_score = entries[
        min(_tied([score for _, score in entries]), key=lambda n: len(entries[n][0]))
    ]
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
            "round_scoring": scored,
        },
    )


def _tied(scores: Sequence[float]) -> list[int]:
    """Positions, in order, of the scores within SCORE_TIE_RTOL of the
    lowest; NaN scores tie only when every score is NaN."""
    low = min((score for score in scores if not math.isnan(score)), default=math.nan)
    if math.isnan(low):
        return list(range(len(scores)))
    return [n for n, score in enumerate(scores) if score <= low + SCORE_TIE_RTOL * abs(low)]


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

RESULT_SCHEMA = "exocast.selection.result/1"


def result_object(result: SelectionResult) -> dict:
    """`result` as a JSON object; a result without a trace has no "trace"."""
    doc = to_object(result)
    if result.trace is None:
        del doc["trace"]
    return doc


def result_from_object(doc) -> SelectionResult:
    """The selection result `result_object` wrote as `doc`."""
    return from_object(SelectionResult, doc, "selection result",
                       convert={"trace": lambda trace: from_object(SelectionTrace, trace, "trace")})


def save_result(result: SelectionResult, path: str | Path) -> None:
    write_document(path, RESULT_SCHEMA, result_object(result))


def load_result(path: str | Path) -> SelectionResult:
    return read_document(path, RESULT_SCHEMA, result_from_object)
