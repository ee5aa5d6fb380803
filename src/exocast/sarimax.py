"""Seasonal ARMA modelling with exogenous regressors on the differenced scale.

The model for the (d, D)-differenced target w is

    w_t = c + beta . x_t + sum_i ar_i * w_{t-i} + sum_j sar_j * w_{t-j*s}
          + sum_i ma_i * eps_{t-i} + sum_j sma_j * eps_{t-j*s} + eps_t

with exogenous values x entering undifferenced, aligned to the differenced
index. Seasonal and non-seasonal terms add; they are not multiplied. MA
terms carry a positive sign in the model (the statsmodels convention), so
the residual recursion subtracts them. `series.difference` differences the
target for the fit and a forecast's tail, and `series.integrate` turns a
forecast of w back into target values, in `forecast` and
`round_forecaster` alike.

Estimation minimises the conditional sum of squared residuals (CSS) from
t = max(p, P*s) onward, conditioning on pre-sample w at its sample mean and
pre-sample residuals at zero. That mean enters only an MA order's
pre-sample residuals, which the recursion carries into the scored ones: an
order without MA terms scores no row that reads it, and a forecast never
reads it, since the tail it runs from holds every AR lag. Stationarity
and invertibility are enforced by optimising in unconstrained coordinates x
that map to partial autocorrelations r = x / sqrt(1 + x^2) and, by
Durbin-Levinson, to polynomial coefficients; |x| <= COORD_BOUND keeps
|r| <= R_MAX.

`fit` gives L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) the CSS together with
its exact gradient: the adjoint of the residual recursion, chained through
the coordinate map. When q = Q = 0 the CSS is linear least squares in
(c, ar, sar, beta), so the optimum is solved directly and passed as the
starting point: the unconstrained solution when its partial
autocorrelations lie within R_MAX, the bounded solution in closed form when
p <= 1 and P <= 1, and zero otherwise. `minimize` first runs L-BFGS-B's
own stopping test at iteration 0 on the start (inside the bounds, projected
gradient at most PGTOL) and returns a start that passes as L-BFGS-B returns
it, without loading scipy. Any other start goes to L-BFGS-B, which alone
decides convergence.

`round_forecaster` scores a whole greedy round of forward selection at
once, for an order without MA terms: the differenced target and the lagged
design are built once for every indicator of the frame, every candidate's
start solves its normal equations, taken from one Gram matrix of that
design, in one stacked call, with the bounded faces where p <= 1 and
P <= 1, and every forecast runs as one recursion. Such a start must pass
the same iteration-0 test, from normal equations no worse conditioned than
NORMAL_COND_MAX; its forecast then equals `fit`'s to rounding, and any
other candidate is left to its own `fit` and `forecast`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConvergenceFailureError,
    InsufficientDataError,
    MissingValueError,
    from_object,
    to_object,
)
from .series import (
    AlignedFrame,
    Month,
    MonthlySeries,
    difference,
    distinct_ids,
    future_matrix,
    integrate,
    least_squares_line,
)

__all__ = [
    "SarimaxOrder",
    "SarimaxParams",
    "FittedSarimax",
    "css_residuals",
    "fit",
    "fitted_from_params",
    "forecast",
    "round_forecaster",
    "extrapolate_regressor",
    "to_doc",
    "from_doc",
]

SCHEMA = "exocast.sarimax.fitted/3"
# Each earlier schema, with what to do instead of reading it: no reader is kept.
RETIRED = {f"exocast.sarimax.fitted/{v}": "fit the model again" for v in (1, 2)}

MAX_ITER = 500
CSS_TOL = 1e-8
# Bound on the unconstrained coordinates; maps to |pacf| <= R_MAX ~ 0.9998.
COORD_BOUND = 50.0
R_MAX = COORD_BOUND / math.sqrt(1.0 + COORD_BOUND * COORD_BOUND)
# L-BFGS-B stops when the sup norm of the projected gradient is at most this.
PGTOL = 1e-10
# `_css_and_gradient`'s value where the residuals overflow.
NON_FINITE_CSS = 1e300
# A normal-equations solve loses about cond * machine epsilon of relative
# accuracy, where least squares on the design loses its square root. A
# batched round keeps a candidate only where that loss is at most 1e-9.
NORMAL_COND_MAX = 1e-9 / np.finfo(float).eps


# L-BFGS-B's message for a start that passes its iteration-0 test.
CONVERGED_AT_START = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"


def minimize(fun, x0, args=(), *, bounds, options, **kwargs):
    """`scipy.optimize.minimize` with L-BFGS-B on `fun`, which returns the
    CSS and its gradient, certified first without scipy. A start that
    passes L-BFGS-B's own test at iteration 0 (`_at_optimum` with
    `options["gtol"]`) is returned as scipy returns it, from the one
    evaluation scipy makes there: `x` a copy of x0, `fun`, `jac`, nit 0,
    nfev and njev 1, status 0. Any other start goes to scipy unchanged, and
    only then is scipy imported: it is most of a fit's start-up time and
    memory."""
    css, grad = fun(x0, *args)
    if _at_optimum(x0, css, grad, bounds, options["gtol"]):
        return SimpleNamespace(
            x=np.array(x0, dtype=float), fun=css, jac=np.array(grad, dtype=float),
            nit=0, nfev=1, njev=1, status=0, success=True, message=CONVERGED_AT_START,
        )
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, args, bounds=bounds, options=options, **kwargs)


@dataclass(frozen=True, order=True)
class SarimaxOrder:
    """(p, d, q) plus seasonal (P, D, Q) at season length s."""

    p: int = 0
    d: int = 0
    q: int = 0
    P: int = 0
    D: int = 0
    Q: int = 0
    s: int = 12

    def __post_init__(self):
        for name in ("p", "d", "q", "P", "D", "Q"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.s < 1:
            raise ValueError("season length s must be positive")

    @property
    def presample(self) -> int:
        """Index of the first scored residual on the differenced scale."""
        return max(self.p, self.P * self.s)

    @property
    def dropped(self) -> int:
        return self.d + self.D * self.s

    def min_train_length(self, n_regressors: int = 0) -> int:
        return self.dropped + self.presample + self.q + 1 + n_regressors

    def as_tuple(self) -> tuple[int, ...]:
        return (self.p, self.d, self.q, self.P, self.D, self.Q, self.s)

    @classmethod
    def from_list(cls, values) -> SarimaxOrder:
        """The order a JSON `[p,d,q,P,D,Q,s]` list gives, as configs and
        model documents write it."""
        if not (isinstance(values, (list, tuple)) and len(values) == 7
                and all(type(v) is int for v in values)):
            raise ValueError(f"order must be [p,d,q,P,D,Q,s], got {json.dumps(values)}")
        return cls(*values)


@dataclass(frozen=True)
class SarimaxParams:
    """Fitted coefficients; vector lengths must match the order."""

    c: float
    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    seasonal_ar: tuple[float, ...] = ()
    seasonal_ma: tuple[float, ...] = ()
    beta: tuple[float, ...] = ()

    def check_against(self, order: SarimaxOrder, n_regressors: int) -> None:
        expected = (order.p, order.q, order.P, order.Q, n_regressors)
        got = (
            len(self.ar),
            len(self.ma),
            len(self.seasonal_ar),
            len(self.seasonal_ma),
            len(self.beta),
        )
        if expected != got:
            raise ValueError(f"parameter lengths {got} do not match order {expected}")


@dataclass(frozen=True)
class FittedSarimax:
    order: SarimaxOrder
    params: SarimaxParams
    regressor_ids: tuple[str, ...]
    target_id: str
    train_start: Month
    train_end: Month
    tail_values: tuple[float, ...]
    tail_residuals: tuple[float, ...]
    css: float
    # What `fit` did: {"start", "status", "nit", "nfev", "at_bound"}; None
    # for models assembled from given coefficients.
    optimizer: dict | None


def _pacf_to_poly_jacobian(pacf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Durbin-Levinson: partial autocorrelations in (-1, 1) to the
    coefficients of a stationary polynomial 1 - a1*B - ... - ak*B^k, and
    d coeffs / d pacf, carried through the same recursion; a stack of pacf
    rows gives a stack of each."""
    lead, n = pacf.shape[:-1], pacf.shape[-1]
    coeffs = np.zeros(lead + (0,))
    jac = np.zeros(lead + (0, n))
    for k in range(n):
        r = pacf[..., k, None]
        step = np.zeros(lead + (k + 1, n))
        step[..., :k, :] = jac - r[..., None] * jac[..., ::-1, :]
        step[..., :k, k] = -coeffs[..., ::-1]
        step[..., k, k] = 1.0
        coeffs = np.concatenate([coeffs - r * coeffs[..., ::-1], r], axis=-1)
        jac = step
    return coeffs, jac


def _poly_to_pacf(coeffs: np.ndarray) -> np.ndarray:
    """Step-down (inverse Durbin-Levinson) along the last axis: the partial
    autocorrelations of each polynomial, NaN from the first one outside
    (-1, 1) onward."""
    a = np.asarray(coeffs, dtype=float)
    pacf = np.empty_like(a)
    for k in range(a.shape[-1] - 1, -1, -1):
        r = np.where(np.abs(a[..., k]) < 1.0, a[..., k], np.nan)
        pacf[..., k] = r
        head = a[..., :k]
        a = (head + r[..., None] * head[..., ::-1]) / (1.0 - r * r)[..., None]
    return pacf


def _unconstrained_to_coeffs(x: np.ndarray, invertible: bool) -> tuple[np.ndarray, np.ndarray]:
    """A lag-polynomial block's coefficients at unconstrained coordinates x,
    and d coeffs / d r, where r = x / sqrt(1 + x^2) are its partial
    autocorrelations."""
    coeffs, jac = _pacf_to_poly_jacobian(x / np.sqrt(1.0 + x * x))
    # The MA polynomial 1 + m1*B + ... is invertible iff (-m) is stationary.
    return (-coeffs, -jac) if invertible else (coeffs, jac)


def _ar_to_unconstrained(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of `_unconstrained_to_coeffs` for an AR block along the last
    axis; all NaN for a block with a partial autocorrelation beyond R_MAX.
    |r| = R_MAX maps to the bound exactly."""
    r = _poly_to_pacf(coeffs)
    inside = np.all(np.abs(r) <= R_MAX, axis=-1, keepdims=True)
    r = np.where(inside, r, np.nan)
    x = np.where(np.abs(r) == R_MAX, np.sign(r) * COORD_BOUND, r / np.sqrt(1.0 - r * r))
    return np.clip(x, -COORD_BOUND, COORD_BOUND)


def _lags(regular: int, seasonal: int, s: int) -> list[int]:
    """Lags of a block with `regular` terms at 1.. and `seasonal` at s, 2s..."""
    return list(range(1, regular + 1)) + [j * s for j in range(1, seasonal + 1)]


def _lagged(v: np.ndarray, lag: int, fill: float) -> np.ndarray:
    """v delayed by `lag` steps; the first `lag` entries are `fill`."""
    out = np.full(len(v), fill)
    if lag < len(v):
        out[lag:] = v[: len(v) - lag]
    return out


def _residual_recursion(
    w: np.ndarray,
    xb: np.ndarray,
    params: SarimaxParams,
    s: int,
    wbar: float,
) -> np.ndarray:
    """Residuals for all t, conditioning on pre-sample w = wbar, eps = 0."""
    eps = w - params.c - xb
    ar = params.ar + params.seasonal_ar
    for a, lag in zip(ar, _lags(len(params.ar), len(params.seasonal_ar), s)):
        eps -= a * _lagged(w, lag, wbar)
    ma = params.ma + params.seasonal_ma
    if not ma:
        return eps
    ma_lags = _lags(len(params.ma), len(params.seasonal_ma), s)
    out = eps.tolist()
    for t in range(len(out)):
        acc = out[t]
        for th, lag in zip(ma, ma_lags):
            if t >= lag:
                acc -= th * out[t - lag]
        out[t] = acc
    return np.asarray(out)


def _differenced_target(order: SarimaxOrder, target: MonthlySeries) -> np.ndarray:
    """The (d, D)-differenced target w."""
    n = len(target)
    if n < order.dropped + order.presample + 1:
        raise InsufficientDataError(
            f"need more than {order.dropped + order.presample} observations "
            f"for order {order.as_tuple()}, got {n}"
        )
    return difference(target.require_complete(), order.d, order.D, order.s)


def _regressor_matrix(
    order: SarimaxOrder, target: MonthlySeries, exog: Sequence[MonthlySeries]
) -> np.ndarray:
    """One column per regressor, undifferenced and aligned to w's index."""
    for x in exog:
        if x.start != target.start or len(x) != len(target):
            raise ValueError(f"regressor {x.id!r} is not aligned to the target")
    if not exog:
        return np.zeros((len(target) - order.dropped, 0))
    return np.column_stack([x.require_complete()[order.dropped :] for x in exog])


def css_residuals(
    order: SarimaxOrder,
    params: SarimaxParams,
    target: MonthlySeries,
    exog: Sequence[MonthlySeries] = (),
    *,
    mean_conditioning: bool = True,
) -> tuple[list[float], float]:
    """Conditional residuals from t = max(p, P*s) onward, and their sum of squares."""
    params.check_against(order, len(exog))
    w = _differenced_target(order, target)
    X = _regressor_matrix(order, target, exog)
    scored = _scored(order, params, w, X, float(w.mean()) if mean_conditioning else 0.0)
    return scored.tolist(), float(scored @ scored)


def _scored(
    order: SarimaxOrder, params: SarimaxParams, w: np.ndarray, X: np.ndarray, wbar: float
) -> np.ndarray:
    """The residuals of `params` on w and X from t = max(p, P*s) onward."""
    xb = X @ np.asarray(params.beta) if len(params.beta) else np.zeros(len(w))
    return _residual_recursion(w, xb, params, order.s, wbar)[order.presample :]


def _tail(values: np.ndarray, n: int) -> tuple[float, ...]:
    """The last `n` of `values`, or all of them when there are fewer."""
    return tuple(values[len(values) - min(n, len(values)) :].tolist())


def _poly_blocks(order: SarimaxOrder) -> tuple[tuple[int, list[int], bool, str], ...]:
    """(offset in x, lags, invertible, params field) for each lag-polynomial
    block of the coordinates x = [c, ar, ma, sar, sma, beta]. The invertible
    (MA) blocks act on lagged residuals, the others on lagged w."""
    p, q, sp, sq, s = order.p, order.q, order.P, order.Q, order.s
    return (
        (1, _lags(p, 0, s), False, "ar"),
        (1 + p, _lags(q, 0, s), True, "ma"),
        (1 + p + q, _lags(0, sp, s), False, "seasonal_ar"),
        (1 + p + q + sp, _lags(0, sq, s), True, "seasonal_ma"),
    )


def _unpack(x: np.ndarray, order: SarimaxOrder, k: int) -> tuple[SarimaxParams, list[np.ndarray]]:
    """The params at unconstrained coordinates x, and each lag-polynomial
    block's d coeffs / d r (see `_unconstrained_to_coeffs`)."""
    blocks = {name: _unconstrained_to_coeffs(x[pos : pos + len(lags)], invertible)
              for pos, lags, invertible, name in _poly_blocks(order)}
    beta = x[len(x) - k :]
    params = SarimaxParams(c=float(x[0]), beta=tuple(float(b) for b in beta),
                           **{name: tuple(coeffs) for name, (coeffs, _) in blocks.items()})
    return params, [jac for _, jac in blocks.values()]


def _css_and_gradient(
    x: np.ndarray, order: SarimaxOrder, w: np.ndarray, X: np.ndarray, wbar: float
) -> tuple[float, np.ndarray]:
    """The CSS at unconstrained coordinates x and its exact gradient in x."""
    k = X.shape[1]
    params, jacobians = _unpack(x, order, k)
    eps = _residual_recursion(w, X @ np.asarray(params.beta), params, order.s, wbar)
    t0 = order.presample
    scored = eps[t0:]
    css = float(scored @ scored)
    if not math.isfinite(css):
        return NON_FINITE_CSS, np.zeros_like(x)
    # Adjoint of the recursion, run backwards:
    # g_u = 2 eps_u [u >= t0] - sum_i ma_i g_{u+i} - sum_j sma_j g_{u+js}.
    g = 2.0 * eps
    g[:t0] = 0.0
    ma = params.ma + params.seasonal_ma
    if ma:
        ma_lags = _lags(order.q, order.Q, order.s)
        adj = g.tolist()
        for u in range(len(adj) - 1, -1, -1):
            acc = adj[u]
            for th, lag in zip(ma, ma_lags):
                if u + lag < len(adj):
                    acc -= th * adj[u + lag]
            adj[u] = acc
        g = np.asarray(adj)
    grad = np.empty_like(x)
    grad[0] = -g.sum()
    for (pos, lags, invertible, _), jac in zip(_poly_blocks(order), jacobians):
        if not lags:
            continue
        source, fill = (eps, 0.0) if invertible else (w, wbar)
        d_coeffs = np.array([-(g @ _lagged(source, lag, fill)) for lag in lags])
        xs = x[pos : pos + len(lags)]
        grad[pos : pos + len(lags)] = (jac.T @ d_coeffs) * (1.0 + xs * xs) ** -1.5
    grad[len(x) - k :] = -(X.T @ g)
    return css, grad


def _box_faces(bounded: list[int]):
    """(indices, values) of the coefficients each face of the box
    |theta_i| <= R_MAX, i in `bounded`, fixes at +-R_MAX, in a fixed order;
    the all-free face is skipped."""
    for fixed in itertools.product((None, R_MAX, -R_MAX), repeat=len(bounded)):
        at = [i for i, v in zip(bounded, fixed) if v is not None]
        if at:
            yield at, [v for v in fixed if v is not None]


def _bounded_least_squares(design: np.ndarray, y: np.ndarray, bounded: list[int]) -> np.ndarray:
    """argmin |y - design @ theta|^2 subject to |theta_i| <= R_MAX for i in
    `bounded`. The problem is convex, so the optimum is the best feasible
    solution over the faces of the box: each bounded coefficient either
    free or fixed at +-R_MAX. Called only when the free solution is
    infeasible, so the all-free face is skipped."""
    n = design.shape[1]
    best, best_css = np.zeros(n), math.inf
    for at, values in _box_faces(bounded):
        theta = np.zeros(n)
        theta[at] = values
        free = [j for j in range(n) if j not in at]
        rhs = y - design[:, at] @ theta[at]
        theta[free] = np.linalg.lstsq(design[:, free], rhs, rcond=None)[0]
        if np.any(np.abs(theta[bounded]) > R_MAX):
            continue
        resid = y - design @ theta
        css = float(resid @ resid)
        if css < best_css:
            best, best_css = theta, css
    return best


def _stacked_residuals(design_t: np.ndarray, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """y less each design of the stack `design_t` (m x n x rows, each one
    transposed) times its row of theta (m x n)."""
    return y - (theta[:, None, :] @ design_t)[:, 0]


def _bounded_normal_equations(
    design_t: np.ndarray, y: np.ndarray, normal: np.ndarray, moment: np.ndarray, bounded: list[int]
) -> np.ndarray:
    """`_bounded_least_squares` for each design of the stack `design_t`
    (m x n x rows, each one transposed), whose normal equations are
    `normal` (m x n x n) and `moment` (m x n): on each face the free
    coefficients of every design solve their normal equations in one
    stacked call. A row without a feasible face is NaN."""
    m, n, _ = design_t.shape
    best, best_css = np.full((m, n), np.nan), np.full(m, math.inf)
    for at, values in _box_faces(bounded):
        free = [j for j in range(n) if j not in at]
        theta = np.zeros((m, n))
        theta[:, at] = values
        rhs = moment[:, free] - normal[:, free][:, :, at] @ values
        theta[:, free] = np.linalg.solve(normal[:, free][:, :, free], rhs[..., None])[..., 0]
        resid = _stacked_residuals(design_t, y, theta)
        css = np.einsum("ij,ij->i", resid, resid)
        better = np.all(np.abs(theta[:, bounded]) <= R_MAX, axis=-1) & (css < best_css)
        best[better], best_css[better] = theta[better], css[better]
    return best


def _theta_to_unconstrained(theta: np.ndarray, p: int, sp: int) -> np.ndarray:
    """Least-squares (c, ar, sar, beta) to coordinates along the last axis;
    NaN in an AR block that lies outside the bounded region."""
    ar, sar = theta[..., 1 : 1 + p], theta[..., 1 + p : 1 + p + sp]
    return np.concatenate([
        theta[..., :1],
        _ar_to_unconstrained(ar) if p else ar,
        _ar_to_unconstrained(sar) if sp else sar,
        theta[..., 1 + p + sp :],
    ], axis=-1)


def _lagged_block(order: SarimaxOrder, w: np.ndarray) -> np.ndarray:
    """[1, lags of w] over the rows of w from max(p, P*s) onward, the scored
    ones: the columns of the least-squares design that come before the
    regressors."""
    t0, n = order.presample, len(w)
    lagged = [w[t0 - lag : n - lag] for lag in _lags(order.p, order.P, order.s)]
    return np.column_stack([np.ones(n - t0), *lagged])


def _least_squares_start(
    order: SarimaxOrder, design: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, str]:
    """Starting coordinates for L-BFGS-B and how they were found.

    With q = Q = 0 the CSS is linear least squares in (c, ar, sar, beta) on
    `design`, the rows from max(p, P*s) of [1, lags of w, X], against y, w
    from that row. So its optimum is solved directly: unconstrained when
    stationary within R_MAX, else in closed form on the box when p <= 1 and
    P <= 1. Otherwise: zero."""
    p, sp = order.p, order.P
    zero = np.zeros(order.q + order.Q + design.shape[1])
    if order.q or order.Q:
        return zero, "zero"
    theta = np.linalg.lstsq(design, y, rcond=None)[0]
    x0 = _theta_to_unconstrained(theta, p, sp)
    if not np.isnan(x0).any():
        return x0, "least_squares"
    if p <= 1 and sp <= 1:
        theta = _bounded_least_squares(design, y, list(range(1, 1 + p + sp)))
        return _theta_to_unconstrained(theta, p, sp), "bounded_least_squares"
    return zero, "zero"


def _tail_lengths(order: SarimaxOrder) -> tuple[int, int]:
    """How many of the last target values and of the last residuals a
    forecast reads."""
    n_values = max(order.p, order.q, order.P * order.s, order.Q * order.s) + order.dropped
    return n_values, max(order.q, order.Q * order.s)


def _bounds(order: SarimaxOrder, k: int) -> list[tuple[float | None, float | None]]:
    """L-BFGS-B's bounds on the coordinates: the lag polynomials' within
    +-COORD_BOUND, the constant's and the k regressors' free (None)."""
    n_poly = order.p + order.q + order.P + order.Q
    return [(None, None)] + [(-COORD_BOUND, COORD_BOUND)] * n_poly + [(None, None)] * k


def _lbfgsb(
    x0: np.ndarray, order: SarimaxOrder, w: np.ndarray, X: np.ndarray, wbar: float, max_iter: int
):
    """L-BFGS-B on the CSS from x0 within `_bounds`. Returns the better of
    its end point and x0, and the optimizer's result."""
    args = (order, w, X, wbar)
    result = minimize(
        _css_and_gradient,
        x0,
        args=args,
        method="L-BFGS-B",
        jac=True,
        bounds=_bounds(order, X.shape[1]),
        options={"maxiter": max_iter, "ftol": CSS_TOL, "gtol": PGTOL},
    )
    if np.array_equal(result.x, x0) or result.fun <= _css_and_gradient(x0, *args)[0]:
        return np.asarray(result.x), result
    return x0, result


def _at_optimum(x0: np.ndarray, css, grad: np.ndarray, bounds, gtol: float):
    """L-BFGS-B's stopping test at iteration 0: x0 lies within `bounds`
    (pairs, None where a side is free), its CSS is finite and the sup norm
    of its projected gradient is at most gtol. L-BFGS-B returns such a
    start as it is, without a step. A gradient component that points out of
    the box through a near bound is cut to the distance to that bound, as
    L-BFGS-B's projection does. Stacked starts (rows of x0 and grad,
    entries of css) are tested row by row."""
    lo = np.array([-math.inf if b is None else b for b, _ in bounds])
    hi = np.array([math.inf if b is None else b for _, b in bounds])
    g = np.where(grad < 0, np.maximum(x0 - hi, grad), np.minimum(x0 - lo, grad))
    return (np.all((lo <= x0) & (x0 <= hi), axis=-1) & (css < NON_FINITE_CSS)
            & (np.max(np.abs(g), axis=-1) <= gtol))


def _assemble(
    order: SarimaxOrder, params: SarimaxParams, train: AlignedFrame, scored: np.ndarray,
    optimizer: dict | None = None,
) -> FittedSarimax:
    """The forecast-ready state of `params` on `train`, whose scored
    residuals are given."""
    n_tail, n_resid_tail = _tail_lengths(order)
    return FittedSarimax(
        order=order,
        params=params,
        regressor_ids=train.indicator_ids,
        target_id=train.target.id,
        train_start=train.start,
        train_end=train.end,
        tail_values=_tail(train.target.require_complete(), n_tail),
        tail_residuals=_tail(scored, n_resid_tail),
        css=float(scored @ scored),
        optimizer=optimizer,
    )


def fitted_from_params(
    order: SarimaxOrder, params: SarimaxParams, train: AlignedFrame
) -> FittedSarimax:
    """Assemble the forecast-ready state for explicitly given coefficients."""
    residuals, _ = css_residuals(order, params, train.target, train.indicators)
    return _assemble(order, params, train, np.array(residuals))


def fit(train: AlignedFrame, order: SarimaxOrder, *, max_iter: int = MAX_ITER) -> FittedSarimax:
    """Minimise the conditional sum of squares with L-BFGS-B on the exact
    gradient, through `minimize`. For q = Q = 0 the run starts from the
    least-squares optimum (bounded in closed form when p <= 1 and P <= 1),
    which `minimize` certifies without scipy, as L-BFGS-B would at
    iteration 0; otherwise it starts from zero. Raises
    ConvergenceFailureError when the iteration budget runs out. The result
    records the start and the optimizer's status, iterations, evaluations
    and whether a coefficient sits at its bound. Deterministic for identical
    inputs."""
    k = len(train.indicators)
    if len(train) <= order.min_train_length(k):
        raise InsufficientDataError(
            f"order {order.as_tuple()} with {k} regressors needs more than "
            f"{order.min_train_length(k)} observations, got {len(train)}"
        )
    w = _differenced_target(order, train.target)
    X = _regressor_matrix(order, train.target, train.indicators)
    wbar = float(w.mean())
    t0 = order.presample
    design = np.column_stack([_lagged_block(order, w), X[t0:]])
    x0, start = _least_squares_start(order, design, w[t0:])
    n_poly = order.p + order.q + order.P + order.Q
    best_x, result = _lbfgsb(x0, order, w, X, wbar, max_iter)
    if result.status == 1:  # iteration/function budget exhausted
        raise ConvergenceFailureError(
            f"optimizer hit the iteration budget ({max_iter}) for order "
            f"{order.as_tuple()}: {result.message}"
        )
    params, _ = _unpack(best_x, order, k)
    return _assemble(
        order, params, train, _scored(order, params, w, X, wbar),
        optimizer={
            "start": start,
            "status": int(result.status),
            "nit": int(result.nit),
            "nfev": int(result.nfev),
            "at_bound": bool(np.any(np.abs(best_x[1 : 1 + n_poly]) >= COORD_BOUND * (1 - 1e-8))),
        },
    )


def extrapolate_regressor(series: MonthlySeries, horizon: int) -> np.ndarray:
    """The `series`'s values over the next `horizon` months, read-only: its
    ordinary least-squares line over the training index, evaluated at the
    next `horizon` indices."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    vals = series.require_complete()
    slope, intercept = least_squares_line(vals)
    future = intercept + slope * np.arange(len(vals), len(vals) + horizon, dtype=float)
    future.flags.writeable = False
    return future


def forecast(
    fitted: FittedSarimax,
    horizon: int,
    future_exog: np.ndarray | None = None,
) -> MonthlySeries:
    """Iterate the recursion forward with future residuals at zero, then
    invert the differencing. `future_exog` is a `future_matrix` of the
    fitted regressors, in fitted order. Output stays on the fitted (possibly
    normalized) scale."""
    order, params = fitted.order, fitted.params
    x = future_matrix(future_exog, horizon, fitted.regressor_ids)
    values = _forecast_path(order, params, fitted.tail_values, fitted.tail_residuals, x.T, horizon)
    return MonthlySeries(fitted.target_id, fitted.train_end.shift(1), values)


def _forecast_path(
    order: SarimaxOrder,
    params: SarimaxParams,
    tail: Sequence[float],
    tail_residuals: Sequence[float],
    x_future: Sequence[np.ndarray],
    horizon: int,
) -> np.ndarray:
    """The recursion run forward `horizon` steps from `tail`, the target's
    last values, differenced by `series.difference`, then integrated back to
    the target's scale after `tail` by `series.integrate`. The differenced
    tail holds at least max(p, P*s) values, every AR lag: `fit` takes more
    than `min_train_length` months and `from_doc` refuses a shorter tail.
    `x_future` holds each regressor's first `horizon` future values, in the
    order of `params.beta`. Each step's regression term adds every beta * x
    to 0 in that order, then the constant, as a scalar loop would; with
    stacked coefficients (one entry per fit) every fit runs at once."""
    w_hist = difference(tail, order.d, order.D, order.s)
    eps_hist = list(tail_residuals)
    n_w = len(w_hist)
    n_e = len(eps_hist)
    ar, ma = params.ar + params.seasonal_ar, params.ma + params.seasonal_ma
    ar_lags = _lags(len(params.ar), len(params.seasonal_ar), order.s)
    ma_lags = _lags(len(params.ma), len(params.seasonal_ma), order.s)
    xb = np.zeros((horizon,) + np.shape(params.c))
    for b, x in zip(params.beta, x_future):
        xb = xb + b * x
    w_fc: list[float] = []
    for j in range(horizon):
        acc = params.c + xb[j]
        for a, lag in zip(ar, ar_lags):
            u = j - lag
            acc += a * (w_fc[u] if u >= 0 else w_hist[n_w + u])
        for th, lag in zip(ma, ma_lags):
            u = j - lag
            if u < 0 and n_e + u >= 0:
                acc += th * eps_hist[n_e + u]  # future residuals are zero
        w_fc.append(acc)
    return integrate(np.array(w_fc), tail, order.d, order.D, order.s)


def round_forecaster(
    train: AlignedFrame, order: SarimaxOrder, horizon: int, futures: Mapping[str, np.ndarray]
) -> Callable[[Sequence[str], Sequence[str]], np.ndarray] | None:
    """`forecast_round(current, candidates)`, which forecasts a greedy
    round of `order` on `train` at once, or None for an order with MA terms
    or a target that cannot be differenced. `futures` holds each indicator's
    `horizon` future values by id. The differenced target, each indicator's
    aligned column, the [1, lags of w] design and its Gram matrix are built
    once; each round takes its columns of them."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if order.q or order.Q:
        return None
    try:
        w = _differenced_target(order, train.target)
    except (InsufficientDataError, MissingValueError):  # every subset's fit raises it
        return None
    gappy = {x.id for x in train.indicators if x.has_missing}  # fail the subsets holding them
    complete = [x for x in train.indicators if x.id not in gappy]
    slot = {x.id: j for j, x in enumerate(complete)}
    t0 = order.presample
    block = _lagged_block(order, w)
    width = block.shape[1]
    design = np.column_stack([block, _regressor_matrix(order, train.target, complete)[t0:]])
    y = w[t0:]
    tail = _tail(train.target.require_complete(), _tail_lengths(order)[0])
    n, p, sp = len(train), order.p, order.P
    gram, moment = design.T @ design, design.T @ y
    bounded = list(range(1, 1 + p + sp)) if p <= 1 and sp <= 1 else None

    def forecast_round(current: Sequence[str], candidates: Sequence[str]) -> np.ndarray:
        """One column per candidate: to rounding, the forecast of `fit` on
        `current` plus that candidate. Every candidate's least-squares start
        comes from the normal equations of its columns of one Gram matrix,
        all solved in one stacked call, with the bounded faces solved the
        same way where p <= 1 and P <= 1; every forecast recursion runs at
        once. A column is NaN, left to its own fit, where its start fails
        `_at_optimum`, its normal equations are conditioned worse than
        NORMAL_COND_MAX, or its subset cannot be fitted."""
        out = np.full((horizon, len(candidates)), np.nan)
        cols = [j for j, i in enumerate(candidates) if i not in gappy]
        if (not cols or n <= order.min_train_length(len(current) + 1)
                or any(i in gappy for i in current)):
            return out
        base = [*range(width), *(width + slot[i] for i in current)]
        at = np.array([[*base, width + slot[candidates[j]]] for j in cols])
        normal = gram[at[:, :, None], at[:, None, :]]
        try:
            eig = np.linalg.eigvalsh(normal)  # ascending
            posed = eig[:, 0] * NORMAL_COND_MAX > eig[:, -1]
            if not posed.any():
                return out
            cols, at, normal = [j for j, ok in zip(cols, posed) if ok], at[posed], normal[posed]
            rhs, design_t = moment[at], design.T[at]
            theta = np.linalg.solve(normal, rhs[..., None])[..., 0]
            x0 = _theta_to_unconstrained(theta, p, sp)
            outside = np.isnan(x0).any(axis=-1)
            if bounded is not None and outside.any():
                theta[outside] = _bounded_normal_equations(
                    design_t[outside], y, normal[outside], rhs[outside], bounded
                )
                x0[outside] = _theta_to_unconstrained(theta[outside], p, sp)
        except np.linalg.LinAlgError:  # LAPACK failed: every subset fits on its own
            return out
        resid = _stacked_residuals(design_t, y, theta)
        grad = -2.0 * (design_t @ resid[..., None])[..., 0]
        for lo, hi in ((1, 1 + p), (1 + p, 1 + p + sp)):  # chained into the AR coordinates
            if hi > lo:
                xs = x0[:, lo:hi]
                jac_t = np.swapaxes(_pacf_to_poly_jacobian(xs / np.sqrt(1.0 + xs * xs))[1], -1, -2)
                grad[:, lo:hi] = (jac_t @ grad[:, lo:hi, None])[..., 0] * (1.0 + xs * xs) ** -1.5
        css = np.einsum("ij,ij->i", resid, resid)
        certified = np.flatnonzero(_at_optimum(x0, css, grad, _bounds(order, len(current) + 1), PGTOL))
        if not certified.size:
            return out
        theta = theta[certified]
        params = SarimaxParams(
            c=theta[:, 0],
            ar=tuple(theta[:, 1 : 1 + p].T),
            seasonal_ar=tuple(theta[:, 1 + p : 1 + p + sp].T),
            beta=tuple(theta[:, 1 + p + sp :].T),
        )
        kept = [cols[j] for j in certified]
        x_future = [futures[i][:, None] for i in current]
        x_future.append(np.array([futures[candidates[j]] for j in kept]).T)
        out[:, kept] = _forecast_path(order, params, tail, (), x_future, horizon)
        return out

    return forecast_round


# ---------------------------------------------------------------------------
# JSON serialization (schema documented in docs/schemas.md)

def to_doc(fitted: FittedSarimax) -> dict:
    return {"schema": SCHEMA, **to_object(fitted, convert={"order": SarimaxOrder.as_tuple})}


def from_doc(doc: dict) -> FittedSarimax:
    """Inverse of `to_doc`, given the document without its schema, in which
    every key is required. A repeated regressor id, coefficients that do not
    match the order, and tails of other lengths than `fit` writes are refused."""
    fitted = from_object(FittedSarimax, doc, "model", convert={
        "order": SarimaxOrder.from_list,
        "params": lambda params: from_object(SarimaxParams, params, "params"),
        "regressor_ids": lambda ids: distinct_ids(ids, "regressor_ids"),
    })
    order = fitted.order
    fitted.params.check_against(order, len(fitted.regressor_ids))
    n = fitted.train_start.months_until(fitted.train_end) + 1
    n_values, n_residuals = _tail_lengths(order)
    expected = (min(n_values, n), min(n_residuals, n - order.dropped - order.presample))
    got = (len(fitted.tail_values), len(fitted.tail_residuals))
    if got != expected:
        raise ValueError(f"tail_values and tail_residuals hold {got[0]} and {got[1]} values, "
                         f"not the {expected[0]} and {expected[1]} that order "
                         f"{order.as_tuple()} fitted on {n} months leaves")
    return fitted
