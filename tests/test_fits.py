import numpy as np
import pytest
from numpy.testing import assert_allclose

import opuckit as ok
from opuckit.fits import (classify_growth, fit_const_plus_power, fit_loglog,
                          regression_ssr, threshold_intercept)

N_GRID = np.array([64, 91, 128, 181, 256, 362, 512], dtype=float)


def test_fit_loglog_recovers_power_law():
    y = 3.7 * N_GRID ** -0.62
    slope, intercept, r2 = fit_loglog(N_GRID, y)
    assert_allclose(slope, -0.62, atol=1e-12)
    assert_allclose(np.exp(intercept), 3.7, rtol=1e-12)
    assert r2 > 1.0 - 1e-12


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


def test_threshold_intercept():
    p = np.array([4.0, 5.0, 6.0, 7.0, 8.0])
    slopes = 0.25 * (p - 6.0)
    assert_allclose(threshold_intercept(p, slopes), 6.0, atol=1e-12)
    with pytest.raises(ValueError):
        threshold_intercept(p, -np.ones_like(p))


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
        sys = ok.system_from_weight(w, max(n_grid))
        for p, norms in zip(p_grid, ok.steklov_norms(sys, n_grid, p_grid)):
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
