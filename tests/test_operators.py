import numpy as np
import pytest
from numpy.testing import assert_allclose

import opuckit as ok
from opuckit.operators import OperatorProbe, materialize_full, power_method_lp


def _inner(grid, f, g):
    return np.mean(f * np.conj(g))


def test_weighted_riesz_linearity_and_adjoint(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.1}, grid12)
    probe = ok.weighted_riesz(w, 2.5, band=32)
    assert probe.check_linearity()
    rng = np.random.default_rng(0)
    f = rng.standard_normal(grid12.size) + 1j * rng.standard_normal(grid12.size)
    g = rng.standard_normal(grid12.size) + 1j * rng.standard_normal(grid12.size)
    lhs = _inner(grid12, probe.apply(f), g)
    rhs = _inner(grid12, f, probe.adjoint(g))
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_weighted_riesz_norm_lebesgue(grid14):
    w = ok.make_weight("constant", {}, grid14)
    probe = ok.weighted_riesz(w, 2.0, band=32)
    est = ok.operator_norm(probe)
    assert est.method == "exact_svd_p2"
    assert abs(est.value - 1.0) < 1e-8


def test_weighted_riesz_norm_fh(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.1}, grid12)
    est = ok.operator_norm(ok.weighted_riesz(w, 2.0, band=48))
    assert np.isfinite(est.value)
    assert est.value >= 1.0 - 1e-10


def test_operator_norm_identity_all_p(grid12):
    ident = OperatorProbe(grid12, lambda x: x, lambda x: x, band=16, p=3.0,
                          description="identity")
    est = ok.operator_norm(ident, trials=3, seed=1)
    assert abs(est.value - 1.0) < 1e-9


def test_operator_norm_rank_one_exact():
    g = ok.CircleGrid(8)  # small grid: full node-basis materialization
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    v = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    probe = OperatorProbe(g, lambda x: np.mean(x * np.conj(u), axis=-1, keepdims=True) * v,
                          lambda x: np.mean(x * np.conj(v), axis=-1, keepdims=True) * u,
                          band=None, p=2.0, description="rank one")
    est = ok.operator_norm(probe)
    nu = np.sqrt(np.mean(np.abs(u) ** 2))
    nv = np.sqrt(np.mean(np.abs(v) ** 2))
    assert_allclose(est.value, nu * nv, rtol=1e-10)


def test_power_method_against_bruteforce_sphere():
    # dense sphere sample on a small matrix; both sides are lower bounds
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 5))
    probe = OperatorProbe(None, lambda x: A @ x, lambda x: A.T @ x,
                          band=None, p=3.0, description="random 5x5")
    pm = 0.0
    for s in range(20):
        x0 = np.random.default_rng(s).standard_normal(5)
        val, _, _ = power_method_lp(probe, 3.0, x0)
        pm = max(pm, val)
    X = np.random.default_rng(7).standard_normal((1_000_000, 5))
    num = (np.abs(X @ A.T) ** 3).mean(axis=1) ** (1.0 / 3.0)
    den = (np.abs(X) ** 3).mean(axis=1) ** (1.0 / 3.0)
    brute = float(np.max(num / den))
    assert pm >= brute - 1e-12          # the iteration can only do better
    assert (pm - brute) / pm < 0.02


def test_build_q_trivial_weight(grid12):
    w = ok.make_weight("constant", {}, grid12)
    q = ok.build_Q(w, 2.0, 16)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(grid12.size) + 1j * rng.standard_normal(grid12.size)
    assert np.max(np.abs(q.apply(x))) < 1e-12


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_q_fixed_point_identity(grid14, p):
    # zeta_n = w^{1/p} z^n + Q zeta_n with zeta_n = w^{1/p} Phi_n
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid14)
    sys = ok.system_from_weight(w, 16)
    n = 16
    q = ok.build_Q(w, p, n)
    zeta = w.values ** (1.0 / p) * ok.poly_values(grid14, sys.monic_coeffs(n))
    rhs = w.values ** (1.0 / p) * np.exp(1j * n * grid14.nodes) + q.apply(zeta)
    assert np.max(np.abs(zeta - rhs)) < 1e-6


@pytest.mark.parametrize("family,params", [
    ("constant", {}),
    ("bernstein_szego", {"a": 0.5}),
    ("fisher_hartwig", {"beta": 0.1}),
    ("fisher_hartwig", {"beta": 0.4}),
])
def test_q_fixed_point_identity_all_families(grid12, family, params):
    # the identity is algebraic: it must hold for every family and band cap
    w = ok.make_weight(family, params, grid12)
    sys = ok.system_from_weight(w, 64)
    p = 2.0
    u = w.values ** (1.0 / p)
    for n in (8, 32, 64):
        q = ok.build_Q(w, p, n)
        zeta = u * ok.poly_values(grid12, sys.monic_coeffs(n))
        resid = zeta - q.apply(zeta) - u * np.exp(1j * n * grid12.nodes)
        assert np.max(np.abs(resid)) < 1e-6


def test_q_antisymmetric_at_p2(grid14):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid14)
    q = ok.build_Q(w, 2.0, 16)
    rng = np.random.default_rng(4)
    for _ in range(4):
        f = rng.standard_normal(grid14.size) + 1j * rng.standard_normal(grid14.size)
        g = rng.standard_normal(grid14.size) + 1j * rng.standard_normal(grid14.size)
        lhs = _inner(grid14, q.apply(f), g) + _inner(grid14, f, q.apply(g))
        scale = np.sqrt(abs(_inner(grid14, f, f)) * abs(_inner(grid14, g, g)))
        assert abs(lhs) < 1e-8 * scale


def test_q_resolvent_bounds(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12)
    q = ok.build_Q(w, 2.0, 16)
    M = ok.compress_band(q, 40)
    # antisymmetry survives compression
    assert np.max(np.abs(M + M.conj().T)) < 1e-12
    eye = np.eye(len(M))
    sv = np.linalg.svd(eye - M, compute_uv=False)
    assert 1.0 / sv[-1] <= 1.0 + 1e-8
    # Neumann bound ||(I - tQ)^{-1}|| <= 1/(1 - t ||Q||) while t ||Q|| < 1
    qn = np.linalg.svd(M, compute_uv=False)[0]
    for t in (0.1, 0.5, 0.9 / qn):
        res = np.linalg.svd(np.linalg.inv(eye - t * M), compute_uv=False)[0]
        assert res <= 1.0 / (1.0 - t * qn) + 1e-10


def test_duality_of_norm_estimates(grid14):
    # ||O||_{p,p} = ||O*||_{p',p'}: power-method estimates agree within 5%
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid14)
    p = 3.0
    T = ok.weighted_riesz(w, p, band=48)
    T_adj = OperatorProbe(T.grid, T.adjoint, T.apply, T.band, p / (p - 1.0),
                          description="adjoint probe")
    n1 = ok.operator_norm(T, trials=6, seed=5).value
    n2 = ok.operator_norm(T_adj, trials=6, seed=5).value
    assert abs(n1 - n2) / max(n1, n2) < 0.05


def test_materialize_band_shapes(grid12):
    w = ok.make_weight("constant", {}, grid12)
    probe = ok.weighted_riesz(w, 2.0, band=8)
    mat = ok.materialize_band(probe, 8)
    assert mat.shape == (grid12.size, 17)
    with pytest.raises(ValueError):
        materialize_full(probe)  # grid too large


def test_continuity_zero_direction(grid12):
    w = ok.make_weight("constant", {}, grid12)
    f = ok.GridFunction(grid12, np.zeros(grid12.size))
    res = ok.continuity_experiment(w, f, 2.0, [1e-2, 1e-1], band=16)
    assert all(dist < 1e-13 for _, dist in res["rows"])


def test_continuity_slope_small_grid():
    g = ok.CircleGrid(10)
    w = ok.make_weight("constant", {}, g)
    f = ok.GridFunction(g, np.cos(g.nodes))
    res = ok.continuity_experiment(w, f, 2.0, [1e-3, 1e-2, 1e-1], band=16)
    assert abs(res["slope"] - 1.0) < 0.2
    assert res["r2"] > 0.98


def test_continuity_power_method_path():
    g = ok.CircleGrid(10)
    w = ok.make_weight("constant", {}, g)
    f = ok.GridFunction(g, np.cos(g.nodes))
    res = ok.continuity_experiment(w, f, 2.5, [1e-2, 1e-1], band=16, trials=3)
    d = [dist for _, dist in res["rows"]]
    assert d[0] > d[1] > 0  # rows sorted by decreasing delta


def test_perturbed_weight_overflow_guard(grid12):
    w = ok.make_weight("constant", {}, grid12)
    f = np.full(grid12.size, 4000.0)
    with pytest.raises(ValueError, match="overflows"):
        ok.make_weight("perturbed", {"base": w, "f": f, "delta": 0.1}, grid12, normalize=False)


def test_norm_estimate_metadata(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.1}, grid12)
    probe = ok.weighted_riesz(w, 2.5, band=16)
    est = ok.operator_norm(probe, trials=4, seed=9)
    assert est.method == "power_method_p"
    assert est.trials == 4 and est.seed == 9
    est_r = ok.operator_norm(probe, method="random_probe", trials=4, seed=9)
    assert est_r.value <= est.value + 1e-9


def test_blocked_materializers_match_column_loop(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12)
    probe = ok.build_Q(w, 2.5, 16)
    band = 20  # 41 columns: two full blocks and a partial one
    ks = np.arange(-band, band + 1)
    cols = np.column_stack([probe.apply(np.exp(1j * k * grid12.nodes)) for k in ks])
    assert_allclose(ok.materialize_band(probe, band), cols / np.sqrt(grid12.size), atol=1e-13)
    comp = np.column_stack([grid12.analyze(cols[:, i])[ks] for i in range(len(ks))])
    assert_allclose(ok.compress_band(probe, band), comp, atol=1e-13)

    g = ok.CircleGrid(8)
    small = ok.weighted_riesz(ok.make_weight("fisher_hartwig", {"beta": 0.2}, g), 2.0)
    eye = np.eye(g.size, dtype=complex)
    full = np.column_stack([small.apply(eye[:, j]) for j in range(g.size)])
    assert_allclose(materialize_full(small), full, atol=1e-13)


def test_materialize_rejects_probe_without_stacks(grid12):
    probe = OperatorProbe(grid12, lambda x: np.ravel(x)[: grid12.size], lambda x: x,
                          band=4, p=2.0, description="row-only probe")
    for p in (2.0, 3.0):  # the materializer and the batched power method
        probe.p = p
        with pytest.raises(ValueError, match="row-only probe"):
            ok.operator_norm(probe)


def test_batched_power_method_matches_single_starts(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12)
    # Q converges after 8, 10 and 11 iterations from these starts; P+ at p = 3 runs out
    for p, probe in [(2.5, ok.build_Q(w, 2.5, 8)), (3.0, ok.weighted_riesz(w, 3.0, band=16))]:
        rng = np.random.default_rng(8)
        starts = rng.standard_normal((3, grid12.size)) + 1j * rng.standard_normal((3, grid12.size))
        single = [power_method_lp(probe, p, x0, max_iters=30) for x0 in starts]
        best, conv, iters = power_method_lp(probe, p, starts, max_iters=30)
        assert_allclose(best, max(s[0] for s in single), rtol=1e-12)
        assert conv == all(s[1] for s in single)
        assert iters == max(s[2] for s in single)
        # each start leaves the stack after the iteration where it stops alone
        heights = []
        counted = OperatorProbe(grid12, lambda x: heights.append(len(x)) or probe.apply(x),
                                probe.adjoint, probe.band, p, "counted")
        power_method_lp(counted, p, starts, max_iters=30)
        applies = sorted((s[2] + 1 if s[1] else 30) for s in single)
        assert heights == [sum(a > i for a in applies) for i in range(applies[-1])]


def test_gram_eigvalsh_norm_matches_svd(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    probe = ok.weighted_riesz(w, 2.0, band=24)
    svd = np.linalg.svd(ok.materialize_band(probe, 24), compute_uv=False)[0]
    assert_allclose(ok.operator_norm(probe).value, svd, rtol=1e-13)
    g = ok.CircleGrid(8)
    small = ok.weighted_riesz(ok.make_weight("fisher_hartwig", {"beta": 0.3}, g), 2.0)
    svd = np.linalg.svd(materialize_full(small), compute_uv=False)[0]  # square: N x N
    assert_allclose(ok.operator_norm(small).value, svd, rtol=1e-13)
    zero = OperatorProbe(grid12, lambda x: 0.0 * x, lambda x: 0.0 * x, 8, 2.0, "zero")
    assert ok.operator_norm(zero).value == 0.0


def test_continuity_carries_convergence_state():
    g = ok.CircleGrid(10)
    w = ok.make_weight("constant", {}, g)
    f = ok.GridFunction(g, np.cos(g.nodes))
    exact = ok.continuity_experiment(w, f, 2.0, [1e-2, 1e-1], band=16)
    assert [(e.converged, e.iterations) for e in exact["estimates"]] == [(True, 0)] * 2
    power = ok.continuity_experiment(w, f, 2.5, [1e-2, 1e-1], band=16, trials=3)
    assert [e.value for e in power["estimates"]] == [dist for _, dist in power["rows"]]
    assert all(1 <= e.iterations <= 100 for e in power["estimates"])
