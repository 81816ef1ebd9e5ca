import numpy as np
import pytest
from numpy.testing import assert_allclose

import opuckit as ok
from opuckit import fits
from opuckit.fits import (classify_growth, fit_const_plus_power, fit_loglog, growth_exponent,
                          regression_ssr, threshold_intercept)

N_GRID = np.array([64, 91, 128, 181, 256, 362, 512], dtype=float)
NOISE = 1.0 + 1e-2 * np.random.default_rng(5).standard_normal(len(N_GRID))


def lstsq_line(x, y):
    """Oracle: (c1, c2, ssr) of lstsq on the design [1, x]."""
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return coef[0], coef[1], float(resid @ resid)


def _assert_lstsq_ssr(got, x, y):
    # both sides of an exact fit are roundoff, so the floor scales with y
    assert_allclose(got, lstsq_line(x, y)[2], rtol=1e-9, atol=1e-24 * float(y @ y))


def test_fit_loglog_recovers_power_law():
    y = 3.7 * N_GRID ** -0.62
    slope, intercept, r2 = fit_loglog(N_GRID, y)
    assert_allclose(slope, -0.62, atol=1e-12)
    assert_allclose(np.exp(intercept), 3.7, rtol=1e-12)
    assert r2 > 1.0 - 1e-12
    # exact and noisy, the lstsq line of log y on the design [1, log x]
    for yy in (y, y * NOISE):
        b, a, ssr = lstsq_line(np.log(N_GRID), np.log(yy))
        slope, intercept, r2 = fit_loglog(N_GRID, yy)
        assert_allclose([slope, intercept], [a, b], rtol=1e-12)
        ly = np.log(yy) - np.log(yy).mean()
        assert_allclose(r2, 1.0 - ssr / (ly @ ly), rtol=1e-12)


def test_fit_const_plus_power_recovery():
    e, (c1, c2), _, r2 = fit_const_plus_power(N_GRID, 3.0 + 2.0 * N_GRID ** 0.3)
    assert abs(e - 0.3) < 0.01
    assert abs(c1 - 3.0) < 0.1 and abs(c2 - 2.0) < 0.1
    assert r2 > 0.9999
    e2, _, _, _ = fit_const_plus_power(N_GRID, 5.0 - 2.0 * N_GRID ** -0.4)
    assert abs(e2 + 0.4) < 0.02


def test_classify_growth_synthetic():
    rng = np.random.default_rng(0)
    noise = 1.0 + 0.001 * rng.standard_normal(len(N_GRID))
    p = 4.0
    bounded = (2.0 + 1.5 * N_GRID ** -0.5) ** (1 / p) * noise
    log_like = (1.0 + 2.0 * np.log(N_GRID)) ** (1 / p) * noise
    power = (0.5 * N_GRID ** 0.3 - 1.0) ** (1 / p) * noise
    assert classify_growth(N_GRID, bounded, p) == "bounded"
    assert classify_growth(N_GRID, log_like, p) == "log"
    assert classify_growth(N_GRID, power, p) == "power"


def test_regression_ssr_models():
    y = 2.0 + 3.0 * np.log(N_GRID)
    assert regression_ssr(N_GRID, y, "log") < 1e-20
    assert regression_ssr(N_GRID, y, "bounded") > 1.0
    assert regression_ssr(N_GRID, y, "power", 0.05) > regression_ssr(N_GRID, y, "log")
    with pytest.raises(ValueError):
        regression_ssr(N_GRID, y, "quadratic")
    # each regressor is the lstsq line on its design, exact and noisy; {1} is the mean fit
    for yy in (y, y * NOISE):
        yc = yy - yy.mean()
        assert_allclose(regression_ssr(N_GRID, yy, "bounded"), yc @ yc, rtol=1e-14)
        _assert_lstsq_ssr(regression_ssr(N_GRID, yy, "log"), np.log(N_GRID), yy)
        for eps in (-0.5, 0.05, 0.3):
            _assert_lstsq_ssr(regression_ssr(N_GRID, yy, "power", eps), N_GRID ** eps, yy)


@pytest.mark.parametrize("n, regressor, eps", [(N_GRID[:4], "bounded", 0.0), (N_GRID[:4], "power", 0.0),
                                               ([64.0] * 4, "log", 0.0), ([64.0] * 4, "power", 0.3)])
def test_regression_ssr_on_one_distinct_regressor_is_the_mean_fit(n, regressor, eps):
    # the design has rank one, and lstsq solves it to the mean
    y = np.array([1.0, 2.0, 4.0, 3.0])
    assert_allclose(regression_ssr(n, y, regressor, eps), 5.0, rtol=1e-14)


def test_threshold_intercept():
    p = np.array([4.0, 5.0, 6.0, 7.0, 8.0])
    slopes = 0.25 * (p - 6.0)
    assert_allclose(threshold_intercept(p, slopes), 6.0, atol=1e-12)
    with pytest.raises(ValueError):
        threshold_intercept(p, -np.ones_like(p))
    # the zero crossing of the lstsq line through the growing points
    noisy = slopes + np.array([0.0, 0.0, 0.004, -0.003, 0.002])
    b, a, _ = lstsq_line(p[3:], noisy[3:])
    assert_allclose(threshold_intercept(p, noisy), -b / a, rtol=1e-12)
    # growing points at one distinct p: the mean fit has slope 0
    with pytest.raises(ValueError, match="nonpositive slope"):
        threshold_intercept([7.0, 7.0, 4.0], [0.2, 0.3, 0.0])


@pytest.mark.parametrize("y", [2.0 + 3.0 * np.log(N_GRID), (2.0 + 3.0 * np.log(N_GRID)) * NOISE])
def test_line_fit_is_lstsq_row_by_row(y):
    # a stack of regressors, the last with one distinct x: that row is the mean fit
    x = np.stack([np.log(N_GRID), N_GRID ** 0.3, N_GRID ** -1.0, np.full(len(N_GRID), 5.0)])
    c1, c2, ssr = fits._line_fit(x, y)
    assert c1.shape == c2.shape == ssr.shape == (4,)
    for row in range(3):
        b, a, _ = lstsq_line(x[row], y)
        assert_allclose([c1[row], c2[row]], [b, a], rtol=1e-10)
        _assert_lstsq_ssr(ssr[row], x[row], y)
    assert c2[3] == 0.0 and c1[3] == y.mean()
    assert_allclose(ssr[3], (y - y.mean()) @ (y - y.mean()), rtol=1e-14)
    if y[0] == 2.0 + 3.0 * np.log(64.0):  # exact in log n
        assert_allclose([c1[0], c2[0]], [2.0, 3.0], rtol=1e-13)


def test_every_fit_goes_through_the_line_fit(monkeypatch):
    # each call of the kernel, row by row, is the lstsq line on the same design; the
    # grid search's stacks of 301 and 41 rows, where lstsq is the less accurate side on
    # the near-constant n^e around e = 0, are checked against a loop of lstsq by e below
    calls, kernel = [], fits._line_fit

    def checked(x, y):
        got = kernel(x, y)
        x, y = np.atleast_2d(x), np.asarray(y, dtype=float)
        for row, c1, c2, ssr in zip(x, *(np.atleast_1d(v) for v in got)):
            if np.ptp(row) > 0 and len(x) <= 2:
                b, a, _ = lstsq_line(row, y)
                assert_allclose([c1, c2], [b, a], rtol=1e-8, atol=1e-12 * np.abs(y).max())
                _assert_lstsq_ssr(ssr, row, y)
        calls.append(x)
        return got

    monkeypatch.setattr(fits, "_line_fit", checked)
    y = (0.5 * N_GRID ** 0.3 - 1.0) * NOISE
    assert classify_growth(N_GRID, y, 1.0) == "power"
    assert classify_growth(N_GRID, np.log(N_GRID), 1.0) == "log"  # an exact log fit
    # classify_growth's log and constant fits are the kernel's rows log n and 1
    assert any(len(x) == 2 and np.array_equal(x[0], np.log(N_GRID)) for x in calls)
    growth_exponent(N_GRID, y, 2.0)
    fit_loglog(N_GRID, y)
    for regressor in ("bounded", "log", "power"):
        regression_ssr(N_GRID, y, regressor, 0.2)
    threshold_intercept([4.0, 5.0, 6.0, 7.0], [0.0, 0.1, 0.21, 0.3])
    # three grid stacks per fit_const_plus_power, then one call per line fit
    assert len(calls) == 2 * (3 + 1) + (3 + 1) + 1 + 3 + 1


def fit_const_plus_power_loop(n, y, e_lo=-1.5, e_hi=1.5, coarse=301, refine=2):
    """Oracle: one lstsq per exponent, scanned in order with a strict <."""
    n = np.asarray(n, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi, steps = e_lo, e_hi, coarse
    best = (np.inf, 0.0, None)
    for _ in range(refine + 1):
        for e in np.linspace(lo, hi, steps):
            if abs(e) < 1e-12:
                continue
            design = np.column_stack([np.ones_like(n), n ** e])
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            resid = y - design @ coef
            if float(resid @ resid) < best[0]:
                best = (float(resid @ resid), float(e), coef)
        step = (hi - lo) / (steps - 1)
        lo, hi, steps = best[1] - step, best[1] + step, 41
    ssr, e, coef = best
    total = y - y.mean()
    return e, (float(coef[0]), float(coef[1])), ssr, 1.0 - ssr / float(total @ total)


def _assert_same_fit(got, want):
    assert got[0] == want[0]
    assert_allclose([*got[1], got[2], got[3]], [*want[1], want[2], want[3]], rtol=1e-12)


def test_fit_const_plus_power_matches_loop_synthetic():
    rng = np.random.default_rng(1)
    for e in (-1.2, -0.4, 0.07, 0.3, 0.95, 1.4):
        clean = 2.0 - 1.5 * N_GRID ** e
        _assert_same_fit(fit_const_plus_power(N_GRID, clean), fit_const_plus_power_loop(N_GRID, clean))
        noisy = clean * (1.0 + 1e-3 * rng.standard_normal(len(N_GRID)))
        _assert_same_fit(fit_const_plus_power(N_GRID, noisy), fit_const_plus_power_loop(N_GRID, noisy))
    log_like = 1.0 + 2.0 * np.log(N_GRID)
    _assert_same_fit(fit_const_plus_power(N_GRID, log_like), fit_const_plus_power_loop(N_GRID, log_like))


def test_fit_const_plus_power_matches_loop_on_steklov_norms(grid12):
    n_grid = [64, 91, 128, 181, 256, 362, 512]
    for beta in (0.2, 0.3, 0.45):
        w = ok.make_weight("fisher_hartwig", {"beta": beta}, grid12)
        p_grid = [3.0, 4.5, 6.0, 8.0]
        for p, norms in zip(p_grid, ok.steklov_norms(w, n_grid, p_grid)):
            y = norms ** p
            _assert_same_fit(fit_const_plus_power(n_grid, y), fit_const_plus_power_loop(n_grid, y))


def test_fit_const_plus_power_rejects_non_finite_y():
    with pytest.raises(ValueError, match="finite y"):
        fit_const_plus_power(N_GRID, np.full(len(N_GRID), np.nan))


@pytest.mark.parametrize("n, y", [([64.0], [2.0]), ([64.0] * 4, [1.0, 2.0, 4.0, 3.0])])
def test_fit_const_plus_power_one_distinct_n_is_the_mean_fit(n, y):
    # every design {1, n^e} has rank one: all e tie, the first grid e is kept
    e, coef, ssr, r2 = fit_const_plus_power(n, y)
    yc = np.asarray(y) - np.mean(y)
    assert e == -1.5
    assert_allclose(ssr, yc @ yc, atol=1e-12)
    assert_allclose(coef[0] + coef[1] * 64.0 ** e, np.mean(y), rtol=1e-12)


def test_fit_loglog_undetermined_on_one_distinct_x():
    for x in ([48.0], [48.0, 48.0]):
        assert all(np.isnan(v) for v in fit_loglog(x, [2.0] * len(x)))
