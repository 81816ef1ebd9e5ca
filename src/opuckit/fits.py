"""Regression helpers shared by the experiment runner: log-log exponent
fits with R^2, the constant-plus-power model for Steklov quantities,
growth-class classification by residual comparison, and the x-intercept
estimate for empirical boundedness thresholds."""

import numpy as np


def fit_loglog(x, y) -> tuple:
    """Least-squares (slope, intercept, R^2) of log y against log x; all three are
    NaN when no line is determined: fewer than two distinct x, or some y <= 0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.unique(x).size < 2 or not np.all(y > 0):
        return float("nan"), float("nan"), float("nan")
    lx, ly = np.log(x), np.log(y)
    a, b = np.polyfit(lx, ly, 1)
    resid = ly - (a * lx + b)
    total = ly - ly.mean()
    denom = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0
    return float(a), float(b), float(r2)


def _linear_ssr(design: np.ndarray, y: np.ndarray) -> tuple:
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(resid @ resid), coef


def regression_ssr(n, y, regressor: str, eps: float = 0.0) -> float:
    """SSR of y against {1} (bounded), {1, log n} (log) or {1, n^eps} (power-eps)."""
    n = np.asarray(n, dtype=float)
    y = np.asarray(y, dtype=float)
    ones = np.ones_like(n)
    if regressor == "bounded":
        design = ones[:, None]
    elif regressor == "log":
        design = np.column_stack([ones, np.log(n)])
    elif regressor == "power":
        design = np.column_stack([ones, n ** eps])
    else:
        raise ValueError(f"unknown regressor {regressor!r}")
    return _linear_ssr(design, y)[0]


def fit_const_plus_power(n, y) -> tuple:
    """Fit y ~ c1 + c2 n^e by grid search on e with linear least squares inside:
    301 exponents on [-1.5, 1.5], then twice 41 around the best one.

    This is the finite-n shape of the Steklov quantities (a power term plus a
    constant transient), so the extracted e is the growth exponent without
    the slow bias a plain log-log fit picks up from the constant.  Returns
    (e, (c1, c2), ssr, r2); deterministic.
    """
    n = np.asarray(n, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("fit_const_plus_power needs finite y")
    lo, hi, steps = -1.5, 1.5, 301
    best_ssr, best_e = np.inf, 0.0
    for _ in range(3):
        grid = np.linspace(lo, hi, steps)
        ssr = _power_ssr(n, y, grid)
        j = int(np.argmin(ssr))  # first minimum, as a scan with strict < keeps
        if ssr[j] < best_ssr:
            best_ssr, best_e = ssr[j], float(grid[j])
        step = (hi - lo) / (steps - 1)
        lo, hi, steps = best_e - step, best_e + step, 41

    ssr, coef = _linear_ssr(np.column_stack([np.ones_like(n), n ** best_e]), y)
    total = y - y.mean()
    denom = float(total @ total)
    r2 = 1.0 - ssr / denom if denom > 0 else 1.0
    return best_e, (float(coef[0]), float(coef[1])), ssr, float(r2)


def _power_ssr(n: np.ndarray, y: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """SSR of y against {1, n^e} for every e at once (inf at e = 0, where the
    design is singular), from the explicit residuals of the centered fit."""
    yc = y - y.mean()
    singular = np.abs(exponents) < 1e-12
    if np.ptp(n) == 0:  # one distinct n: every design has rank one, the mean fit
        return np.where(singular, np.inf, float(yc @ yc))
    x = n[None, :] ** exponents[:, None]
    xc = x - x.mean(axis=1, keepdims=True)
    sxx = np.einsum("ij,ij->i", xc, xc)
    sxx[singular] = 1.0
    resid = yc - ((xc @ yc) / sxx)[:, None] * xc
    ssr = np.einsum("ij,ij->i", resid, resid)
    ssr[singular] = np.inf
    return ssr


def growth_exponent(n, norms, p: float) -> dict:
    """Growth exponent of the Steklov quantity int |Phi_n|^p w dtheta.

    Fits the p-th power of the norms with the constant-plus-power model and
    reports max(0, e) as the growth exponent (a decaying transient is not
    growth); the raw log-log slope of the same quantity is kept for
    comparison.
    """
    y = np.asarray(norms, dtype=float) ** p
    e, coefs, _, r2 = fit_const_plus_power(n, y)
    raw_slope, _, raw_r2 = fit_loglog(n, y)
    return {"exponent": max(0.0, e), "e_model": e, "coeffs": coefs, "r2": r2,
            "loglog_slope": raw_slope, "loglog_r2": raw_r2}


def classify_growth(n, norms, p: float) -> str:
    """'bounded' | 'log' | 'power' for ||.||^p along n, by residual comparison.

    Power growth requires a model exponent above 0.04 that also beats the
    logarithmic regression; logarithmic growth requires the log model to beat
    the constant one with a fitted log amplitude above 10% of the mean.
    """
    n = np.asarray(n, dtype=float)
    y = np.asarray(norms, dtype=float) ** p
    e, _, ssr_power, _ = fit_const_plus_power(n, y)
    ssr_log, coef_log = _linear_ssr(np.column_stack([np.ones_like(n), np.log(n)]), y)
    ssr_const, _ = _linear_ssr(np.ones_like(n)[:, None], y)
    if e > 0.04 and ssr_power < ssr_log:
        return "power"
    rel_span = abs(coef_log[1]) * (np.log(n.max()) - np.log(n.min())) / max(abs(y.mean()), 1e-300)
    if ssr_log < 0.5 * ssr_const and rel_span > 0.1:
        return "log"
    return "bounded"


def threshold_intercept(p_grid, slopes, floor: float = 0.03) -> float:
    """x-intercept of the growing branch of measured exponents e(p).

    Above the boundedness threshold the exponent law is linear in p, so the
    zero crossing of the regression line through the clearly growing points
    estimates the threshold; needs at least two growing points.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    grow = slopes > floor
    if np.sum(grow) < 2:
        raise ValueError("not enough growing points to locate the threshold")
    a, b = np.polyfit(p_grid[grow], slopes[grow], 1)
    if a <= 0:
        raise ValueError("growing branch has nonpositive slope; classification ambiguous")
    return float(-b / a)
