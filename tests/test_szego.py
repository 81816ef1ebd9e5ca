import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import opuckit as ok


def test_szego_function_constant(grid12):
    w = ok.make_weight("constant", {}, grid12)
    sz = ok.szego_function(w)
    assert_allclose(sz.D.values, 1.0, atol=1e-14)
    assert sz.D0 == 1.0


def test_szego_function_bernstein_szego(grid14):
    a = 0.5
    w = ok.make_weight("bernstein_szego", {"a": a}, grid14)
    sz = ok.szego_function(w)
    exact = np.sqrt(1.0 - a * a) / (1.0 - a * np.exp(1j * grid14.nodes))
    assert np.max(np.abs(sz.D.values - exact)) < 1e-8
    assert abs(sz.D0 - np.sqrt(1.0 - a * a)) < 1e-13


def test_szego_function_fisher_hartwig(grid14):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid14, normalize=False)
    sz = ok.szego_function(w)
    # |D|^2 = w pointwise
    assert np.max(np.abs(np.abs(sz.D.values) ** 2 - w.values) / w.values) < 1e-8
    # principal branch of (1 - xi)^beta away from the singularity
    exact = (1.0 - np.exp(1j * grid14.nodes)) ** 0.3
    away = (grid14.nodes > 0.3) & (grid14.nodes < 2.0 * np.pi - 0.3)
    assert np.max(np.abs(sz.D.values - exact)[away]) < 1e-3


def test_szego_d0_matches_sandwich_bound(fh02_system):
    w, sys = fh02_system
    sz = ok.szego_function(w)
    assert_allclose(sz.D0, np.exp(0.5 * np.mean(np.log(w.values))), rtol=1e-13)
    # D0 is the lower end of the 1/k_n sandwich
    assert np.min(1.0 / sys.kappa) >= sz.D0 - 1e-12


@pytest.mark.parametrize("family, params", [("fisher_hartwig", {"beta": 0.3}),
                                            ("bernstein_szego", {"a": 0.5})])
def test_szego_derived_traces_equal_eager_formulas_bitwise(grid12, family, params):
    w = ok.make_weight(family, params, grid12)
    logw = np.log(w.values)
    conj = ok.conjugate_function(ok.GridFunction(grid12, 0.5 * logw)).values
    d = np.exp(0.5 * logw + 1j * conj)
    sz = ok.szego_function(w)
    assert np.array_equal(sz.D.values, d)
    assert sz.D0 == float(np.exp(0.5 * np.mean(logw)))
    assert np.array_equal(sz.Dinv.values, 1.0 / d)
    assert sz.Dinv is sz.Dinv  # built once, then cached


def test_szego_function_keeps_only_its_trace():
    grid = ok.CircleGrid(14)
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid)
    ok.szego_function(w)  # the grid's cached frequencies are not the result's memory
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sz = ok.szego_function(w)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sz.D.values.dtype == complex
    assert held <= (1 + 0.25) * 16 * grid.size


def test_estimate_qcr_fisher_hartwig(grid14):
    for beta in (0.1, 0.2, 0.3):
        w = ok.make_weight("fisher_hartwig", {"beta": beta}, grid14)
        q = ok.estimate_qcr(w)
        true = 1.0 / (2.0 * beta)
        assert q <= true + 0.01       # never overshoots the divergence point
        assert q >= 0.6 * true        # and is not hopelessly conservative


def test_estimate_qcr_smooth_weight(grid14):
    w = ok.make_weight("bernstein_szego", {"a": 0.5}, grid14)
    assert ok.estimate_qcr(w) >= 32.0


def test_estimate_qcr_needs_parametric_family(grid12):
    w = ok.make_weight("user", {"values": np.ones(grid12.size)}, grid12)
    with pytest.raises(ValueError):
        ok.estimate_qcr(w)


def test_strong_szego_error_constant(grid12):
    w = ok.make_weight("constant", {}, grid12)
    sys = ok.system_from_weight(w, 16)
    sz = ok.szego_function(w)
    for n in (0, 1, 8, 16):
        assert ok.strong_szego_error(sys, sz, n) < 1e-12


def test_strong_szego_error_bernstein_szego(bs05_system):
    w, sys = bs05_system
    sz = ok.szego_function(w)
    for n in (1, 2, 32):
        assert ok.strong_szego_error(sys, sz, n) < 1e-8


def test_strong_szego_error_decreasing_fh(fh02_system):
    w, sys = fh02_system
    sz = ok.szego_function(w)
    errs = [ok.strong_szego_error(sys, sz, n) for n in (32, 128, 512)]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.05


def test_strong_szego_error_preconditions(grid12, fh02_system):
    w_un = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12, normalize=False)
    sys_un = ok.system_from_weight(w_un, 8)
    sz_un = ok.szego_function(w_un)
    with pytest.raises(ValueError):
        ok.strong_szego_error(sys_un, sz_un, 4)

    w, sys = fh02_system
    sz = ok.szego_function(w)
    with pytest.raises(ValueError):
        ok.strong_szego_error(sys, sz, 32, p=1.5)
    # p beyond the 2(1 + q_cr) cap is rejected (q_cr(w_0.2) = 2.5)
    with pytest.raises(ValueError):
        ok.strong_szego_error(sys, sz, 32, p=8.0)
    # a p slightly above 2 is admissible and finite
    assert np.isfinite(ok.strong_szego_error(sys, sz, 32, p=2.1))


def test_entropy_constant_zero(grid12):
    w = ok.make_weight("constant", {}, grid12)
    sys = ok.system_from_weight(w, 64)
    for n in (1, 16, 64):
        assert abs(ok.entropy(sys, w, n)) < 1e-12


def test_entropy_bernstein_szego_settles(bs05_system):
    w, sys = bs05_system
    target = ok.entropy_limit_target(w)
    assert_allclose(target, -0.5 * np.log(1.0 - 0.25), rtol=1e-12)
    for n in (2, 8, 64):
        assert abs(ok.entropy(sys, w, n) - target) < 1e-6


def test_entropy_gap_controlled_by_szego_error(fh02_system):
    w, sys = fh02_system
    sz = ok.szego_function(w)
    target = ok.entropy_limit_target(w)
    for n in (128, 512):
        gap = abs(ok.entropy(sys, w, n) - target)
        assert gap < 10.0 * ok.strong_szego_error(sys, sz, n)


def test_entropy_requires_normalized(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12, normalize=False)
    sys = ok.system_from_weight(w, 8)
    with pytest.raises(ValueError):
        ok.entropy(sys, w, 4)
    with pytest.raises(ValueError):
        ok.entropy_limit_target(w)
