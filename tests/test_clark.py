import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import opuckit as ok

ALPHAS = (-1.0, 1j, np.exp(1j * np.pi / 3.0))


def test_caratheodory_constant(grid12):
    w = ok.make_weight("constant", {}, grid12)
    F = ok.caratheodory_boundary(w)
    assert_allclose(F.values, 1.0, atol=1e-13)


def test_caratheodory_cosine(grid12):
    vals = 1.0 + np.cos(grid12.nodes)
    w = ok.make_weight("user", {"values": vals}, grid12, normalize=False)
    assert w.normalized
    F = ok.caratheodory_boundary(w)
    assert_allclose(F.values, 1.0 + np.exp(1j * grid12.nodes), atol=1e-12)


def test_caratheodory_structure(fh02_system):
    w, _ = fh02_system
    F = ok.caratheodory_boundary(w)
    assert_allclose(F.values.real, w.values, atol=1e-10)
    assert abs(np.mean(F.values.imag)) < 1e-10  # F(0) = 1 surrogate


def test_caratheodory_requires_normalized(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12, normalize=False)
    with pytest.raises(ValueError):
        ok.caratheodory_boundary(w)


def test_schur_constant_weight(grid12):
    w = ok.make_weight("constant", {}, grid12)
    f = ok.schur_from_caratheodory(ok.caratheodory_boundary(w))
    assert np.max(np.abs(f.values)) < 1e-13


def test_schur_bernstein_szego_is_constant(grid14):
    a = 0.5
    w = ok.make_weight("bernstein_szego", {"a": a}, grid14)
    F = ok.caratheodory_boundary(w)
    f = ok.schur_from_caratheodory(F)
    assert np.max(np.abs(f.values - a)) < 1e-8
    # defining identity F = (1 + xi f)/(1 - xi f) holds on the grid
    xi_f = grid14.points * f.values
    assert np.max(np.abs((1.0 + xi_f) / (1.0 - xi_f) - F.values)) < 1e-8


def test_schur_modulus_bound(fh02_system):
    w, _ = fh02_system
    f = ok.schur_from_caratheodory(ok.caratheodory_boundary(w))
    assert np.max(np.abs(f.values)) <= 1.0 + 1e-8


def test_clark_weight_constant_fixed_point(grid12):
    w = ok.make_weight("constant", {}, grid12)
    for alpha in ALPHAS:
        cd = ok.clark_weight(w, alpha)
        assert_allclose(cd.w_alpha.values, 1.0, atol=1e-12)
        assert abs(cd.mass - 1.0) < 1e-12


def test_clark_weight_rejects_bad_alpha(grid12):
    w = ok.make_weight("constant", {}, grid12)
    # NaN fails the unimodular check too, before the Moebius map can warn
    for alpha, modulus in ((0.5, "0.5"), (float("nan"), "nan"), (complex(1.0, float("nan")), "nan")):
        with pytest.raises(ValueError, match=rf"alpha must be unimodular, got \|alpha\| = {modulus}$"):
            ok.clark_weight(w, alpha)


@pytest.mark.parametrize("tiny,count", [(1e-310, 1), (1e-306, 2048)])
def test_clark_weight_rejects_weight_outside_a2_at_working_precision(grid12, tiny, count):
    # 1/w overflows at one node, or its mean overflows although 1/w does not
    vals = np.ones(grid12.size)
    vals[:count] = tiny
    w = ok.make_weight("user", {"values": vals}, grid12)
    message = r"user weight \(min w = .*e-3\d\d\) is not A_2 at working precision"
    with pytest.raises(ValueError, match=message):
        ok.clark_weight(w, 1j)


def test_clark_weight_warns_outside_a2(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.6}, grid12)
    with pytest.warns(UserWarning, match="clark_weight: Fisher-Hartwig beta = 0.6"):
        ok.clark_weight(w, 1j)


def test_clark_mass_smooth_families(grid14):
    w = ok.make_weight("bernstein_szego", {"a": 0.5}, grid14)
    for alpha in ALPHAS:
        assert abs(ok.clark_weight(w, alpha).mass - 1.0) < 1e-6


def test_clark_mass_fisher_hartwig_noninverting(grid14):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid14)
    for alpha in (1j, np.exp(1j * np.pi / 3.0)):
        assert abs(ok.clark_weight(w, alpha).mass - 1.0) < 1e-6


def test_clark_dual_mass_defect_shrinks_under_refinement():
    # w_dual ~ |theta|^{-2 beta} near the singularity: the node quadrature
    # misses h^{1-2 beta} of the peak mass, decreasing under refinement
    defects = []
    for m in (10, 12, 14):
        w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, ok.CircleGrid(m))
        defects.append(abs(ok.clark_weight(w, -1.0).mass - 1.0))
    assert defects[2] < 0.8 * defects[1] < 0.8 * 0.8 * defects[0]
    assert defects[2] < 0.01


def test_dual_formula_consistency(fh02_system):
    # direct w/(w^2 + Hw^2) equals Re(1/F) pointwise
    w, _ = fh02_system
    F = ok.caratheodory_boundary(w)
    cd = ok.clark_weight(w, -1.0)
    assert_allclose(cd.w_alpha.values, (1.0 / F.values).real, rtol=1e-11)


def test_dual_of_dual_smooth(grid14):
    w = ok.make_weight("bernstein_szego", {"a": 0.5}, grid14)
    dd = ok.clark_weight(ok.clark_weight(w, -1.0).w_alpha, -1.0)
    assert np.max(np.abs(dd.w_alpha.values - w.values)) < 1e-6


def test_dual_of_dual_fisher_hartwig_trend(grid12):
    # the inverted singularity caps the accuracy at the h^{1-2 beta} scale
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12)
    wd = ok.weights.renormalized(ok.clark_weight(w, -1.0).w_alpha)
    dd = ok.clark_weight(wd, -1.0)
    assert np.max(np.abs(dd.w_alpha.values - w.values)) < 0.05


def test_schur_invariance_of_clark_family(grid14):
    # f_alpha = alpha f: exact on smooth weights, and away from the
    # singularity for Fisher-Hartwig
    wb = ok.make_weight("bernstein_szego", {"a": 0.5}, grid14)
    fb = ok.schur_from_caratheodory(ok.caratheodory_boundary(wb))
    for alpha in (1j, np.exp(1j * np.pi / 3.0)):
        wa = ok.weights.renormalized(ok.clark_weight(wb, alpha).w_alpha)
        fa = ok.schur_from_caratheodory(ok.caratheodory_boundary(wa))
        assert np.max(np.abs(fa.values - alpha * fb.values)) < 1e-6

    wf = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid14)
    ff = ok.schur_from_caratheodory(ok.caratheodory_boundary(wf))
    wa = ok.weights.renormalized(ok.clark_weight(wf, 1j).w_alpha)
    fa = ok.schur_from_caratheodory(ok.caratheodory_boundary(wa))
    err = np.abs(fa.values - 1j * ff.values)
    away = (grid14.nodes > 0.1) & (grid14.nodes < 2.0 * np.pi - 0.1)
    assert np.max(err[away]) < 1e-6
    assert np.max(err) < 1e-4


def test_psi_gram_identity_under_dual(grid14):
    w = ok.make_weight("bernstein_szego", {"a": 0.5}, grid14)
    sys = ok.system_from_weight(w, 16)
    psi = ok.second_kind(sys)
    w_dual = ok.weights.renormalized(ok.clark_weight(w, -1.0).w_alpha)
    gram = ok.gram_matrix(psi, 8, weight=w_dual)
    assert np.max(np.abs(gram - np.eye(9))) < 1e-6


def test_generalized_entropy_constant(grid12):
    w = ok.make_weight("constant", {}, grid12)
    zs = np.concatenate([0.5 * np.exp(1j * np.linspace(0, 6, 7)),
                         [1.0 - 2.0 ** -10]])
    assert np.max(np.abs(ok.generalized_entropy(w, zs))) < 1e-13


def test_generalized_entropy_nonnegative(grid12):
    for family, params in (("bernstein_szego", {"a": 0.5}),
                           ("fisher_hartwig", {"beta": 0.3})):
        w = ok.make_weight(family, params, grid12)
        radii = 1.0 - 2.0 ** -np.arange(1, 11)
        zs = (radii[:, None] * np.exp(1j * np.linspace(0, 2 * np.pi, 9)[:-1])[None, :]).ravel()
        K = ok.generalized_entropy(w, zs)
        assert np.min(K) > -1e-12


def test_generalized_entropy_invariance_smooth(grid14):
    w = ok.make_weight("bernstein_szego", {"a": 0.5}, grid14)
    zs = 0.9 * np.exp(1j * np.linspace(0.1, 2 * np.pi - 0.1, 12))
    base = ok.generalized_entropy(w, zs)
    for alpha in (-1.0, 1j):
        wa = ok.weights.renormalized(ok.clark_weight(w, alpha).w_alpha)
        assert np.max(np.abs(ok.generalized_entropy(wa, zs) - base)) < 1e-10


def test_generalized_entropy_rejects_outside_disk(grid12):
    w = ok.make_weight("constant", {}, grid12)
    with pytest.raises(ValueError):
        ok.generalized_entropy(w, [0.5, 1.5])


@pytest.mark.parametrize("family, params", [("fisher_hartwig", {"beta": 0.3}),
                                            ("bernstein_szego", {"a": 0.5})])
def test_clark_derived_traces_equal_eager_formulas_bitwise(grid12, family, params):
    w = ok.make_weight(family, params, grid12)
    F = w.values + 1j * ok.conjugate_function(w).values
    for alpha in ALPHAS:
        cd = ok.clark_weight(w, alpha)
        assert cd.base is w
        assert np.array_equal(cd.F_boundary.values, F)
        if alpha == -1.0:
            vals = w.values / (w.values ** 2 + F.imag ** 2)
        else:
            zeta = (1.0 - alpha) / (1.0 + alpha)
            vals = ((zeta + F) / (1.0 + zeta * F)).real
        assert np.array_equal(cd.w_alpha.values, vals)
        assert cd.F_boundary is cd.F_boundary  # built once, then cached


def test_clark_results_keep_no_boundary_traces():
    # three results hold their three real Clark weights and no copy of F or f
    grid = ok.CircleGrid(14)
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid)
    ok.clark_weight(w, 1j)  # the grid's cached frequencies are not the results' memory
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [ok.clark_weight(w, alpha) for alpha in ALPHAS]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 3
    assert held <= (3 + 0.25) * 8 * grid.size
