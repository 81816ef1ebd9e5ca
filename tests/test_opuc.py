import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import binom, hyp2f1

import opuckit as ok
from opuckit import opuc
from opuckit.operators import materialize_full
from opuckit.opuc import RecursionBreakdownError

from conftest import (check_linearity, orthonormal_values_table, psi_integral_form,
                      quadrature_gram)


def test_lebesgue_system(grid12):
    w = ok.make_weight("constant", {}, grid12)
    sys = ok.system_from_weight(w, 16)
    assert np.max(np.abs(sys.verblunsky)) < 1e-14
    assert_allclose(sys.kappa, 1.0, atol=1e-14)
    # phi_n = z^n
    vals = ok.phi_values(sys, grid12, 7)
    assert_allclose(vals, np.exp(7j * grid12.nodes), atol=1e-12)


def test_bernstein_szego_closed_form(grid12):
    w = ok.make_weight("bernstein_szego", {"a": 0.5}, grid12, normalize=False)
    sys = ok.system_from_weight(w, 8)
    assert_allclose(sys.verblunsky[0], 0.5, atol=1e-13)
    assert np.max(np.abs(sys.verblunsky[1:])) < 1e-13
    assert_allclose(sys.monic[1, :2], [-0.5, 1.0], atol=1e-13)
    assert_allclose(sys.kappa[1], 1.0 / np.sqrt(0.75), rtol=1e-13)


def test_fisher_hartwig_moments_closed_form(grid14):
    beta = 0.25
    w = ok.make_weight("fisher_hartwig", {"beta": beta}, grid14, normalize=False)
    m = w.moments(16)
    ks = np.arange(17)
    exact = (-1.0) ** ks * binom(2 * beta, beta + ks)
    # difference is the N^{-1-2 beta} aliasing of the grid moments
    assert np.max(np.abs(m.c.real - exact)) < 1e-6
    assert np.max(np.abs(m.c.imag)) < 1e-14


def test_fisher_hartwig_verblunsky_closed_form():
    # w = |1 - e^{i theta}|^{2 beta} has alpha_n = -beta/(n + beta + 1) (Simon, OPUC 1,
    # 2005): an oracle at every degree.  The grid moments alias at the singularity, so
    # the recursion's relative error grows as (n/N)^{1 + 2 beta}; measured at beta = 0.3:
    # 1.70e-4 (m = 14) and 1.85e-5 (m = 16) over n < 64, 4.71e-3 and 5.12e-4 at n = 511.
    # Bounds: the measured levels plus 25%, and the ratio within 1% of 4^{1 + 2 beta}
    beta, n = 0.3, np.arange(512)
    exact = -beta / (n + beta + 1.0)
    rel = {}
    for m in (14, 16):
        w = ok.make_weight("fisher_hartwig", {"beta": beta}, ok.CircleGrid(m))
        rel[m] = np.abs(ok.system_from_weight(w, 512).verblunsky - exact) / -exact
    assert np.max(rel[14][:64]) <= 1.25 * 1.70e-4 and np.max(rel[16][:64]) <= 1.25 * 1.85e-5
    assert rel[14][511] <= 1.25 * 4.71e-3 and rel[16][511] <= 1.25 * 5.12e-4
    assert_allclose(rel[14][511] / rel[16][511], 4.0 ** (1.0 + 2.0 * beta), rtol=0.01)


@pytest.mark.parametrize("family,params", [
    ("bernstein_szego", {"a": 0.5}),
    ("fisher_hartwig", {"beta": 0.25}),
    ("fisher_hartwig", {"beta": 0.4}),
])
def test_recursion_matches_gram_schmidt(grid12, family, params):
    w = ok.make_weight(family, params, grid12)
    nmax = 8
    sys = ok.system_from_weight(w, nmax)
    oracle = ok.gram_schmidt_monic(w.moments(nmax), nmax)
    assert np.max(np.abs(oracle - sys.monic)) < 1e-8


def test_recursion_breakdown_reports_index():
    # c_k = 1 for all k is the Dirac mass at 1: degenerate at the first step
    m = ok.MomentSequence(np.ones(4))
    with pytest.raises(RecursionBreakdownError) as err:
        ok.szego_recursion(m, 3)
    assert err.value.index == 0


def test_recursion_needs_enough_moments(grid12):
    w = ok.make_weight("constant", {}, grid12)
    with pytest.raises(ValueError):
        ok.szego_recursion(w.moments(4), 8)
    with pytest.raises(ValueError, match="nmax must be nonnegative"):
        ok.szego_recursion(w.moments(4), -1)


def test_evaluation_preconditions_are_named(grid12):
    w = ok.make_weight("bernstein_szego", {"a": 0.5}, grid12)
    sys = ok.system_from_weight(w, 4)
    with pytest.raises(ValueError, match="the integral form applies for n >= 1"):
        psi_integral_form(sys, w, 0, 0.3)
    for k in (grid12.size // 2 + 1, grid12.size):
        with pytest.raises(ValueError, match="polynomial degree must stay below N/2"):
            ok.poly_values(grid12, np.ones(k))
    # the second-kind system carries no weight of its own
    with pytest.raises(ValueError, match="no weight attached to the system; pass one explicitly"):
        ok.gram_matrix(ok.second_kind(sys), 2)


def test_kappa_product_identity(fh02_system):
    # k_n = c_0^{-1/2} prod_{j<n} (1 - |alpha_j|^2)^{-1/2}, non-decreasing
    w, sys = fh02_system
    c0 = w.moments(0).c[0].real
    gaps = np.concatenate(([1.0], 1.0 - np.abs(sys.verblunsky) ** 2))
    expected = np.cumprod(gaps) ** -0.5 / np.sqrt(c0)
    assert_allclose(sys.kappa, expected, rtol=1e-12)
    assert np.all(np.diff(sys.kappa) >= -1e-12)


def test_reversed_same_modulus_on_circle(fh02_system, grid14):
    w, sys = fh02_system
    for n in (3, 17, 64):
        phi = ok.phi_values(sys, grid14, n)
        phi_star = ok.phi_values(sys, grid14, n, reverse=True)
        assert_allclose(np.abs(phi), np.abs(phi_star), rtol=1e-10)
        # phi_n(xi) = xi^n conj(phi_n^*(xi)) on the circle
        assert_allclose(phi, np.exp(1j * n * grid14.nodes) * np.conj(phi_star), atol=1e-10)


def test_second_kind_trivial(grid12):
    w = ok.make_weight("constant", {}, grid12)
    sys = ok.system_from_weight(w, 8)
    psi = ok.second_kind(sys)
    assert np.max(np.abs(psi.verblunsky)) < 1e-14
    assert_allclose(psi.monic[8, :9], np.eye(9)[8], atol=1e-14)


@pytest.mark.parametrize("z", [0.0, 0.3, 0.5j])
def test_second_kind_integral_definition_bs(grid14, z):
    w = ok.make_weight("bernstein_szego", {"a": 0.5}, grid14)
    sys = ok.system_from_weight(w, 4)
    psi = ok.second_kind(sys)
    via_integral = psi_integral_form(sys, w, 1, z)
    direct = ok.poly_eval(psi.orthonormal_coeffs(1), np.array([z]))[0]
    assert abs(via_integral - direct) < 1e-6


def test_second_kind_integral_definition_fh(fh02_system):
    w, sys = fh02_system
    psi = ok.second_kind(sys)
    for n in (1, 2, 5):
        for z in (0.2, 0.4j, -0.3 + 0.1j):
            via = psi_integral_form(sys, w, n, z)
            direct = ok.poly_eval(psi.orthonormal_coeffs(n), np.array([z]))[0]
            assert abs(via - direct) < 1e-6


def test_cd_kernel_lebesgue(grid12):
    w = ok.make_weight("constant", {}, grid12)
    sys = ok.system_from_weight(w, 8)
    assert_allclose(ok.cd_kernel(sys, 5, 0.0, 0.0), 1.0, atol=1e-14)
    z, zeta = 0.3 + 0.1j, -0.2 + 0.5j
    expected = sum((z * np.conj(zeta)) ** k for k in range(6))
    assert_allclose(ok.cd_kernel(sys, 5, z, zeta), expected, rtol=1e-12)
    with pytest.raises(ValueError, match=r"degree 9 out of range \[0, 8\]"):
        ok.cd_kernel(sys, 9, z, zeta)


@pytest.mark.parametrize("call, bad", [
    (lambda sys, w, n: ok.phi_values(sys, w.grid, n), 2.5),
    (lambda sys, w, n: ok.entropy(sys, w, n), 2.5),
    (lambda sys, w, n: ok.gram_matrix(sys, n), 2.5),
    (lambda sys, w, n: w.moments(n).c, 1.5),
    (lambda sys, w, n: w.moments(4).toeplitz_gram(n), 2.5),
    (lambda sys, w, n: ok.cd_kernel(sys, n, 0.3 + 0.1j, -0.2j), True),
], ids=["phi_values", "entropy", "gram_matrix", "moments", "toeplitz_gram", "cd_kernel"])
def test_degree_checks_name_a_non_integer(call, bad):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, ok.CircleGrid(10))
    sys = ok.system_from_weight(w, 8)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        call(sys, w, bad)
    # an integer-valued float is that degree
    assert np.array_equal(call(sys, w, 2.0), call(sys, w, 2))


def test_cd_kernel_hermitian_and_positive(fh02_system):
    w, sys = fh02_system
    pts = [0.0, 0.5, 0.3 - 0.6j, 0.9j]
    for z in pts:
        for zeta in pts:
            k1 = ok.cd_kernel(sys, 12, z, zeta)
            k2 = ok.cd_kernel(sys, 12, zeta, z)
            assert_allclose(k1, np.conj(k2), rtol=1e-10, atol=1e-12)
        assert ok.cd_kernel(sys, 12, z, z).real > 0


def test_cd_kernel_is_the_defining_sum(fh02_system):
    _, sys = fh02_system
    for n in (0, 3, 12, 40):
        for z, zeta in ((0.3 + 0.1j, -0.2 + 0.5j), (0.9j, 0.9j), (0.0, -0.7)):
            direct = sum(ok.poly_eval(sys.orthonormal_coeffs(k), z)
                         * np.conj(ok.poly_eval(sys.orthonormal_coeffs(k), zeta))
                         for k in range(n + 1))
            assert_allclose(ok.cd_kernel(sys, n, z, zeta), direct, rtol=1e-12, atol=1e-14)


def test_poly_eval_table_rows_equal_row_calls(fh02_system):
    _, sys = fh02_system
    table = sys.orthonormal_table(40)
    zs = np.array([0.0, 0.3 + 0.1j, -0.95j, 1.2])
    for z in zs:
        rows = ok.poly_eval(table, z)
        assert rows.shape == (41,)
        for k in range(41):
            assert np.array_equal(rows[k], ok.poly_eval(table[k], z))
    # a 1-D table at an array of points: one value per point
    assert np.array_equal(ok.poly_eval(table[7], zs), [ok.poly_eval(table[7], z) for z in zs])


def test_cd_kernel_reproduces_monomials(fh02_system, grid14):
    # q(z) = (1/2pi) int K_n(z, xi) q(xi) w dtheta for deg q <= n
    w, sys = fh02_system
    n = 4
    table = sys.orthonormal_table(n)
    vals = orthonormal_values_table(sys, grid14, n)
    for z in (0.3, 0.5j, -0.2 - 0.4j):
        pz = ok.poly_eval(table, z)
        kern = pz @ np.conj(vals)  # K_n(z, xi_j)
        for deg in (0, 1, 2):
            q = np.exp(1j * deg * grid14.nodes)
            got = np.mean(kern * q * w.values)
            assert abs(got - z ** deg) < 1e-8


@pytest.mark.parametrize("n", [0, 15, 16, 40])
def test_values_table_rows_equal_per_row_synthesis(fh02_system, grid14, n):
    _, sys = fh02_system
    table = sys.orthonormal_table(n)
    vals = orthonormal_values_table(sys, grid14, n)
    for k in range(n + 1):
        assert np.array_equal(vals[k], ok.poly_values(grid14, table[k, : k + 1]))


def test_projection_on_basis(fh02_system, grid14):
    w, sys = fh02_system
    phi3 = ok.phi_values(sys, grid14, 3)
    proj = opuc._project_values(sys.orthonormal_table(5), w, phi3)
    assert np.max(np.abs(proj - phi3)) < 1e-8
    phi5 = ok.phi_values(sys, grid14, 5)
    proj3 = opuc._project_values(sys.orthonormal_table(3), w, phi5)
    assert np.max(np.abs(proj3)) < 1e-8


def test_projection_kills_antianalytic(grid12):
    w = ok.make_weight("constant", {}, grid12)
    sys = ok.system_from_weight(w, 8)
    f = np.exp(-1j * grid12.nodes)
    for n in (0, 3, 8):
        assert np.max(np.abs(opuc._project_values(sys.orthonormal_table(n), w, f))) < 1e-12


def test_projection_norm_probe_lebesgue(grid14):
    w = ok.make_weight("constant", {}, grid14)
    sys = ok.system_from_weight(w, 64)
    assert abs(ok.projection_norm_probe(sys, 32, 2.0).value - 1.0) < 1e-10
    # bounded by the Riesz-projection L^4 norm
    assert ok.projection_norm_probe(sys, 32, 4.0).value <= 3.0


def _projection_probe(monkeypatch, sys, n, p):
    """(the OperatorProbe that projection_norm_probe builds, its NormEstimate)."""
    probes = []
    norm = opuc.operator_norm
    monkeypatch.setattr(opuc, "operator_norm", lambda probe: probes.append(probe) or norm(probe))
    est = ok.projection_norm_probe(sys, n, p)
    return probes[0], est


@pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
def test_projection_probe_rank_one_is_one(grid12, p):
    # P_0^w f = the w-mean of f: a rank-one map with ||P_0^w||_{L^p_w} = 1 for normalized w
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    est = ok.projection_norm_probe(ok.system_from_weight(w, 8), 0, p)
    assert est.converged and est.method == "power_method_p"
    assert abs(est.value - 1.0) < 1e-12


def test_projection_probe_at_p2_is_one(grid12):
    # at p = 2, P^w is an orthogonal projection of L^2_w
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    sys = ok.system_from_weight(w, 64)
    for n in (1, 16, 64):
        est = ok.projection_norm_probe(sys, n, 2.0)
        assert est.method == "exact_svd_p2" and abs(est.value - 1.0) < 1e-12


@pytest.mark.parametrize("p", [2.1, 4.0])
@pytest.mark.parametrize("n", [8, 32])
def test_projection_probe_p2_pair_matches_full_svd(monkeypatch, p, n):
    # the (n+1)^2 generalized eigenproblem against the SVD of the probe's N x N matrix
    g = ok.CircleGrid(10)
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, g)
    probe, _ = _projection_probe(monkeypatch, ok.system_from_weight(w, n), n, p)
    top, v = probe.p2_pair()
    sigma = np.linalg.svd(materialize_full(probe), compute_uv=False)[0]
    assert_allclose(np.sqrt(top), sigma, rtol=1e-12)
    # v is the top right singular vector: its Rayleigh quotient reaches sigma
    assert_allclose(np.linalg.norm(probe.apply(v)) / np.linalg.norm(v), sigma, rtol=1e-12)


def test_projection_probe_p2_pair_in_the_p2_cluster(grid12, monkeypatch):
    # at p = 2 the top eigenvalue is (n+1)-fold; the pair still has a unit ratio vector
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    for n in (16, 64):
        probe, _ = _projection_probe(monkeypatch, ok.system_from_weight(w, n), n, 2.0)
        top, v = probe.p2_pair()
        assert abs(top - 1.0) < 1e-12
        assert abs(np.linalg.norm(probe.apply(v)) / np.linalg.norm(v) - 1.0) < 1e-12


def test_projection_probe_p2_pair_memory(fh02_system, monkeypatch):
    # the Cholesky-reduced pair keeps at most four (n+1)^2 complex matrices alive at once
    # (4.0 measured); keeping K, L, X, G X and C alive at once reads 6.1
    w, sys = fh02_system
    n, probes = 512, []
    monkeypatch.setattr(opuc, "operator_norm", probes.append)
    ok.projection_norm_probe(sys, n, 2.1)
    tracemalloc.start()
    try:
        probes[0].p2_pair()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 16 * (n + 1) ** 2


def test_projection_probe_stacks_and_adjoint(grid12, monkeypatch):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    probe, _ = _projection_probe(monkeypatch, ok.system_from_weight(w, 24), 24, 3.0)
    t = grid12.nodes
    x = np.array([np.exp(1j * t * t), np.cos(5 * t) + 1j * np.sin(t) ** 3, (1.0 + t) ** -2])
    y = np.array([np.exp(-2j * t * t), np.sign(np.sin(3 * t)), t * np.exp(7j * t)])
    for fn in (probe.apply, probe.adjoint):
        stacked = fn(x)
        assert stacked.shape == x.shape
        # equal up to BLAS blocking, which may differ between one row and three
        assert_allclose(stacked, [fn(row) for row in x], rtol=0,
                        atol=1e-14 * np.max(np.abs(stacked)))
    # <Tx, y> = <x, T*y> in the unweighted pairing
    lhs = np.sum(probe.apply(x) * np.conj(y), axis=-1)
    rhs = np.sum(x * np.conj(probe.adjoint(y)), axis=-1)
    assert_allclose(lhs, rhs, rtol=1e-12)
    assert check_linearity(probe)


def test_weighted_lp_norms(fh02_system, grid14):
    w, sys = fh02_system
    for n in (0, 5, 60):
        phi = ok.phi_values(sys, grid14, n)
        assert abs(ok.weighted_lp_norm(phi, w, 2.0) - 1.0) < 1e-8
    w1 = ok.make_weight("constant", {}, grid14)
    zn = np.exp(16j * grid14.nodes)
    for p in (1.0, 2.0, 8.0, 40.0):
        assert_allclose(ok.weighted_lp_norm(zn, w1, p), 1.0, rtol=1e-10)
    # rescaling keeps huge values finite at large p
    big = ok.weighted_lp_norm(1e150 * zn, w1, 30.0)
    assert np.isfinite(big) and abs(big - 1e150) / 1e150 < 1e-9


def _clark_second_kind(grid, n):
    """clark_duality's second-kind system of the smooth Bernstein-Szego weight,
    with the renormalized alpha = -1 dual weight it is orthonormal for."""
    wb = ok.make_weight("bernstein_szego", {"a": 0.5}, grid)
    dual = ok.renormalized(ok.clark_weight(wb, -1.0).w_alpha)
    return ok.second_kind(ok.system_from_weight(wb, n)), dual


@pytest.mark.parametrize("case", ["fisher_hartwig", "bernstein_szego", "clark_second_kind"])
def test_gram_matrix_equals_quadrature_gram(grid14, case):
    # the Toeplitz form table G table^H against the quadrature of the grid values
    n = 64
    if case == "clark_second_kind":
        sys, w = _clark_second_kind(grid14, n)
    else:
        w = ok.make_weight(case, {"fisher_hartwig": {"beta": 0.3},
                                  "bernstein_szego": {"a": 0.5}}[case], grid14)
        sys = ok.system_from_weight(w, n)
    got = ok.gram_matrix(sys, n, weight=w)
    assert got.shape == (n + 1, n + 1)
    assert np.max(np.abs(got - quadrature_gram(sys, w, n))) <= 1e-14


def test_gram_identity_all_families(grid12):
    for family, params in (("constant", {}), ("bernstein_szego", {"a": 0.5}),
                           ("fisher_hartwig", {"beta": 0.4}),
                           ("fisher_hartwig", {"beta": 0.45})):
        w = ok.make_weight(family, params, grid12)
        sys = ok.system_from_weight(w, 32)
        dev = np.max(np.abs(ok.gram_matrix(sys, 32) - np.eye(33)))
        assert dev < 1e-10


def test_monic_representation_identity(fh02_system, grid14):
    # Phi_n + w^{-1} [P_{n-1}, w] Phi_n = z^n on the grid
    w, sys = fh02_system
    for n in (4, 16, 48):
        phi = ok.poly_values(grid14, sys.monic[n, : n + 1])
        wphi = ok.GridFunction(grid14, w.values * phi)
        commutator = (ok.band_project(wphi, 0, n - 1).values
                      - w.values * ok.band_project(ok.GridFunction(grid14, phi), 0, n - 1).values)
        lhs = phi + commutator / w.values
        assert np.max(np.abs(lhs - np.exp(1j * n * grid14.nodes))) < 1e-6


def test_normalization_sandwich(fh02_system, bs05_system):
    for w, sys in (fh02_system, bs05_system):
        inv_kappa = 1.0 / sys.kappa
        lower = np.exp(0.5 * np.mean(np.log(w.values)))
        assert np.all(inv_kappa <= 1.0 + 1e-10)
        assert np.all(inv_kappa >= lower - 1e-12)


# ---------------------------------------------------------------------------
# the streamed recursion and steklov_norms
# ---------------------------------------------------------------------------

STREAM_CASES = [("fisher_hartwig", {"beta": 0.0}), ("fisher_hartwig", {"beta": 0.2}),
                ("fisher_hartwig", {"beta": 0.4}), ("bernstein_szego", {"a": 0.5})]


@pytest.mark.parametrize("family,params", STREAM_CASES)
def test_streamed_rows_equal_table_rows(grid12, family, params):
    w = ok.make_weight(family, params, grid12)
    nmax, wanted = 300, (0, 1, 64, 181, 300)
    table = ok.szego_recursion(w.moments(nmax), nmax).monic
    alphas, norms_sq = np.zeros(nmax, dtype=complex), np.zeros(nmax + 1)
    streamed = {n: b.copy() for n, b in ok.opuc._monic_rows(nmax, alphas, w.moments(nmax), norms_sq)
                if n in wanted}
    for n in wanted:
        assert np.array_equal(streamed[n], table[n, : n + 1])


EPS = np.finfo(float).eps


@pytest.mark.parametrize("family,params", STREAM_CASES)
def test_steklov_norms_equal_weighted_lp_norm(grid12, family, params):
    # equal up to rounding to the complex route: |Phi_n| from poly_values, not |Phi_n|^2
    # from _abs2_values
    w = ok.make_weight(family, params, grid12)
    n_grid, p_grid = [181, 64, 0, 256, 64], [1.0, 2.0, 3.5, 6.0, 8]
    got = ok.steklov_norms(w, n_grid, p_grid)
    sys = ok.system_from_weight(w, max(n_grid))
    assert got.shape == (len(p_grid), len(n_grid))
    for i, p in enumerate(p_grid):
        for j, n in enumerate(n_grid):
            expected = ok.weighted_lp_norm(ok.poly_values(grid12, sys.monic[n, : n + 1]), w, float(p))
            assert abs(got[i, j] - expected) <= 8 * EPS * expected


@pytest.mark.parametrize("family,params", STREAM_CASES)
def test_steklov_norms_at_p2_are_the_recursion_norms(grid12, family, params):
    # ||Phi_n||_2^2 = E_n, the recursion's own product of (1 - |alpha_k|^2): no grid values
    w = ok.make_weight(family, params, grid12)
    n_grid = [181, 64, 0, 256, 1]
    got = ok.steklov_norms(w, n_grid, [2.0])[0]
    norms_sq = ok.system_from_weight(w, max(n_grid)).norms_sq[n_grid]
    assert_allclose(got ** 2, norms_sq, rtol=4e-15, atol=0)


@pytest.mark.parametrize("a", [0.5, 0.9, 0.99, -0.7])
def test_steklov_norms_match_the_bernstein_szego_closed_form(grid12, a):
    # w = (1 - a^2)/|1 - a z|^2 has Phi_n = z^(n-1) (z - a) for n >= 1, so
    # ||Phi_n||_p^p = (1 - a^2) mean |1 - a z|^(2s) = (1 - a^2) 2F1(-s, -s; 1; a^2),
    # s = (p - 2)/2, by the binomial series of (1 - a z)^s (1 - a conj(z))^s
    w = ok.make_weight("bernstein_szego", {"a": a}, grid12)
    p_grid = [1.0, 2.1, 4.0, 6.0, 8.0]
    got = ok.steklov_norms(w, [1, 64, 1000], p_grid)
    for p, row in zip(p_grid, got):
        s = (p - 2.0) / 2.0
        assert_allclose(row ** p, (1.0 - a * a) * hyp2f1(-s, -s, 1.0, a * a), rtol=1e-12, atol=0)


def test_steklov_norms_run_one_recursion_pass(grid12, monkeypatch):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    entered, rows = [], opuc._monic_rows

    def counting(*args, **kwargs):
        entered.append(args[0])
        return rows(*args, **kwargs)

    monkeypatch.setattr(opuc, "_monic_rows", counting)
    ok.steklov_norms(w, [16, 128, 64], [3.0, 6.0])
    assert entered == [128]


@pytest.mark.parametrize("family,params", STREAM_CASES)
def test_on_row_sees_the_table_rows(grid12, family, params):
    w = ok.make_weight(family, params, grid12)
    nmax, seen = 128, {}
    sys = ok.szego_recursion(w.moments(nmax), nmax, w, lambda n, b: seen.setdefault(n, b.copy()))
    assert sorted(seen) == list(range(nmax + 1))
    for n, b in seen.items():
        assert np.array_equal(b, sys.monic[n, : n + 1])


def test_steklov_norms_follow_the_weight(grid12):
    # a perturbed weight moves every norm, and they stay those of its own system
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    moved = ok.make_weight("user", {"values": w.values * (1.0 + 0.01 * np.cos(grid12.nodes))}, grid12)
    n_grid, p_grid = [8, 64, 128], [2.0, 4.0]
    got, clean = ok.steklov_norms(moved, n_grid, p_grid), ok.steklov_norms(w, n_grid, p_grid)
    assert np.all(got != clean)
    sys = ok.system_from_weight(moved, max(n_grid))
    for i, p in enumerate(p_grid):
        for j, n in enumerate(n_grid):
            expected = ok.weighted_lp_norm(ok.poly_values(grid12, sys.monic[n, : n + 1]), moved, p)
            assert abs(got[i, j] - expected) <= 8 * EPS * expected


def test_steklov_norms_name_a_non_weight(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    with pytest.raises(TypeError, match=r"w must be a Weight, got OPUCSystem; pass system\.weight"):
        ok.steklov_norms(ok.system_from_weight(w, 16), [8], [4.0])
    with pytest.raises(TypeError, match="w must be a Weight, got ndarray"):
        ok.steklov_norms(w.values, [8], [4.0])


@pytest.mark.parametrize("n_grid", [[8.5], [8, float("nan")], [float("inf")], [-1], [2048],
                                    [True], [8, False], ["8"], [np.array(8)]])
def test_steklov_norms_name_a_degree_that_is_no_integer_in_range(grid12, n_grid):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    with pytest.raises(ValueError, match=r"n_grid must be a non-empty list of integer degrees "
                                         r"in \[0, 2047\]"):
        ok.steklov_norms(w, n_grid, [3.0])
    # a float that is an integer is that degree
    assert ok.steklov_norms(w, [8.0], [3.0]) == ok.steklov_norms(w, [8], [3.0])


def test_second_kind_matches_explicit_loop(grid12):
    # oracle: the recursion with alpha_n -> -alpha_n, written out
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    sys = ok.system_from_weight(w, 64)
    monic = np.zeros((65, 65), dtype=complex)
    monic[0, 0] = 1.0
    for n in range(64):
        b = monic[n, : n + 1]
        abar = -np.conj(sys.verblunsky[n])
        monic[n + 1, 1: n + 2] = b
        monic[n + 1, : n + 1] -= abar * np.conj(b[::-1])
    psi = ok.second_kind(sys)
    assert np.array_equal(psi.monic, monic)
    assert np.array_equal(psi.verblunsky, -sys.verblunsky)
    assert np.array_equal(psi.norms_sq, sys.norms_sq)


def test_breakdown_reports_index_on_both_paths(grid12):
    # c = (1, 0, 1): alpha_0 = 0, then |alpha_1| = 1
    with pytest.raises(RecursionBreakdownError) as err:
        ok.szego_recursion(ok.MomentSequence(np.array([1.0, 0.0, 1.0, 0.0])), 3)
    assert err.value.index == 1
    # nearly a two-point measure: Phi_2 has (almost) zero norm
    vals = np.full(grid12.size, 1e-200)
    vals[[0, grid12.size // 4]] = 1.0
    w = ok.make_weight("user", {"values": vals}, grid12)
    with pytest.raises(RecursionBreakdownError) as err:
        ok.system_from_weight(w, 8)
    assert err.value.index == 1


@pytest.mark.parametrize("n_grid", [[], [-1, 8], [16, 2048]])
def test_steklov_norms_rejects_bad_n_grid(grid12, n_grid):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12)
    with pytest.raises(ValueError, match="n_grid"):
        ok.steklov_norms(w, n_grid, [4.0])


def test_steklov_norms_rejects_degrees_beyond_half_grid():
    # a weight on N = 64 nodes: degree 32 is not below N/2
    coarse = ok.make_weight("fisher_hartwig", {"beta": 0.2}, ok.CircleGrid(6))
    with pytest.raises(ValueError, match="N/2 = 32"):
        ok.steklov_norms(coarse, [8, 32], [4.0])


@pytest.mark.parametrize("p_grid", [[], [0.5, 4.0], [3.0, float("nan")], [3.0, float("inf")],
                                    ["3"], [3.0, True]])
def test_steklov_norms_rejects_bad_p_grid(grid12, p_grid):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12)
    with pytest.raises(ValueError, match="p_grid"):
        ok.steklov_norms(w, [8], p_grid)


def test_steklov_norms_memory_stays_below_table(grid14):
    import tracemalloc

    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid14)
    nmax = 2048
    table_bytes = (nmax + 1) ** 2 * 16
    tracemalloc.start()
    try:
        ok.steklov_norms(w, [256, 1024, nmax], [3.0, 6.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # O(N + nmax): a few grid-sized arrays, against the 67 MB table
    assert peak < table_bytes / 20


def test_steklov_norms_peak_is_a_few_grid_arrays(grid14):
    # the 2N-float workspace, the moments' real FFT and small arrays; the 4N-float
    # workspace with a complex transform per degree peaked at 5.1 * 8N bytes here
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid14)
    tracemalloc.start()
    try:
        ok.steklov_norms(w, [64, 91, 128, 181, 256, 362, 512], [3.5, 6.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * grid14.size


@pytest.mark.parametrize("m", [8, 12])
def test_abs2_values_equal_the_squared_complex_values(m):
    g = ok.CircleGrid(m)
    rng = np.random.default_rng(m)
    for n in (0, 1, 63, g.size // 2 - 1):
        b = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        got = opuc._abs2_values(g, b)
        assert got.dtype == np.float64 and got.shape == (g.size,)
        # each route rounds to a few eps of the largest value: the sum of the two here,
        # the kernel's own share against the long-double transform
        want = np.abs(g.synthesize(b)) ** 2
        assert np.max(np.abs(got - want)) <= 8 * EPS * np.max(want)
        if np.finfo(np.longdouble).eps < EPS:
            pi = 4 * np.arctan(np.longdouble(1))
            unphase = np.exp(1j * (pi * np.arange(n + 1, dtype=np.longdouble) / g.size))
            exact = np.abs(np.fft.ifft(b.astype(np.clongdouble) * unphase, n=g.size,
                                       norm="forward")) ** 2
            assert np.max(np.abs(got - exact)) <= 4 * EPS * np.max(exact)
        out = np.empty(g.size)
        assert opuc._abs2_values(g, b, out=out) is out
        assert np.array_equal(out, got)


def _two_point_weight(grid):
    # nearly a two-point measure: Phi_2 has (almost) zero norm, so the recursion breaks at 1
    vals = np.full(grid.size, 1e-200)
    vals[[0, grid.size // 4]] = 1.0
    return ok.make_weight("user", {"values": vals}, grid)


def test_steklov_norms_reraise_a_breakdown_in_the_worker(grid12):
    threads = threading.active_count()
    with pytest.raises(RecursionBreakdownError) as err:
        ok.steklov_norms(_two_point_weight(grid12), [1, 8], [3.0])
    assert err.value.index == 1
    assert threading.active_count() == threads


def test_steklov_norms_reraise_an_evaluation_error_and_leave_no_thread(grid12, monkeypatch):
    # the evaluation fails on its second degree while the worker still has rows to hand over
    w, lp_norms, calls = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12), opuc.lp_norms, []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise FloatingPointError("planted in the evaluation")
        return lp_norms(*args, **kwargs)

    monkeypatch.setattr(opuc, "lp_norms", failing)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="planted in the evaluation"):
        ok.steklov_norms(w, range(0, 2048, 8), [3.0])
    assert len(calls) == 2
    assert threading.active_count() == threads


def test_steklov_norms_hand_off_stays_bounded_for_every_degree(grid14):
    # every degree 0..nmax wanted: the rows cross between the threads two at a time,
    # not queued up, so memory stays O(N + nmax) against the 67 MB table
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid14)
    nmax = 2048
    table_bytes = (nmax + 1) ** 2 * 16
    tracemalloc.start()
    try:
        got = ok.steklov_norms(w, range(0, nmax + 1), [3.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == (1, nmax + 1)
    assert peak < table_bytes / 20


def test_steklov_norms_from_threads_at_once_equal_the_serial_answer(grid12):
    # three callers at once, each with its own worker, on two cores and with frequent
    # thread switches: a queue or workspace shared between calls would mix their rows
    weights = [ok.make_weight(family, params, grid12) for family, params in STREAM_CASES[1:]]
    n_grid, p_grid = list(range(0, 2048, 31)), [2.0, 3.5]
    serial = [ok.steklov_norms(w, n_grid, p_grid) for w in weights]
    start, interval = threading.Barrier(len(weights)), sys.getswitchinterval()

    def call(w):
        start.wait(timeout=60)
        return ok.steklov_norms(w, n_grid, p_grid)

    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(weights)) as pool:
            concurrent = list(pool.map(call, weights, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for got, expected in zip(concurrent, serial):
        assert np.array_equal(got, expected)
