import numpy as np
import pytest
from numpy.testing import assert_allclose

import opuckit as ok
from opuckit.grid import fourier_multiplier
from opuckit.operators import OperatorProbe, _top_eigenpair, materialize_full, power_method_lp


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
    est = ok.operator_norm(ident)
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
    n1 = ok.operator_norm(T).value
    n2 = ok.operator_norm(T_adj).value
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
    res = ok.continuity_experiment(w, f, 2.5, [1e-2, 1e-1], band=16)
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
    est = ok.operator_norm(probe)
    assert est.method == "power_method_p"


def test_blocked_materializers_match_column_loop(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12)
    probe = ok.build_Q(w, 2.5, 16)
    band = 20  # 41 columns: two full blocks and a partial one
    ks = np.arange(-band, band + 1)
    cols = np.column_stack([probe.apply(np.exp(1j * k * grid12.nodes)) for k in ks])
    assert_allclose(ok.materialize_band(probe, band), cols / np.sqrt(grid12.size),
                    rtol=0, atol=1e-14)
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
    power = ok.continuity_experiment(w, f, 2.5, [1e-2, 1e-1], band=16)
    assert [e.value for e in power["estimates"]] == [dist for _, dist in power["rows"]]
    assert all(1 <= e.iterations <= 100 for e in power["estimates"])


@pytest.mark.parametrize("direction", ["cos", "log_singular"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_spectral_columns_match_apply_path(grid12, direction, p):
    # the continuity probe: the constant-weight base P+ is the term that needs no FFT
    w = ok.make_weight("constant", {}, grid12)
    f = np.cos(grid12.nodes) if direction == "cos" else np.log(np.abs(1.0 - grid12.points))
    band = 20
    ks = np.arange(-band, band + 1)
    for delta in (1e-3, 0.1):
        wd = ok.make_weight("perturbed", {"base": w, "f": f, "delta": delta}, grid12,
                            normalize=False)
        probe = ok.probe_difference(ok.weighted_riesz(wd, p, band=band),
                                    ok.weighted_riesz(w, p, band=band))
        cols = np.column_stack([probe.apply(np.exp(1j * k * grid12.nodes)) for k in ks])
        assert_allclose(ok.materialize_band(probe, band), cols / np.sqrt(grid12.size),
                        rtol=0, atol=1e-14)


def test_probe_difference_needs_terms(grid12):
    ident = OperatorProbe(grid12, lambda x: x, lambda x: x, 8, 2.0, "identity")
    with pytest.raises(ValueError, match="terms"):
        ok.probe_difference(ident, ident)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_exact_lp_norms(p):
    # operators whose l^p(Z_N) norm is known for every p
    g = ok.CircleGrid(10)
    h = np.zeros(g.size)
    h[[0, 1, 5]] = [0.5, 0.3, 0.2]  # a nonnegative kernel: the norm is its sum, at constants
    spec = np.fft.fft(h)
    conv = OperatorProbe(g, lambda x: fourier_multiplier(x, spec),
                         lambda x: fourier_multiplier(x, spec.conj()), 8, p, "convolution")
    shift = OperatorProbe(g, lambda x: np.roll(x, 3, axis=-1),
                          lambda x: np.roll(x, -3, axis=-1), 8, p, "translation")
    for probe, exact in ((conv, h.sum()), (shift, 1.0)):  # band path, warm start only
        est = ok.operator_norm(probe)
        assert est.converged and est.iterations <= 2
        assert_allclose(est.value, exact, rtol=1e-13)
    # full path, from the warm start and two random starts; the random starts drive
    # entries of the iterate to subnormal moduli, where u = 1 + cos nearly vanishes
    u = 1.0 + np.cos(g.nodes)
    mult = OperatorProbe(g, lambda x: u * x, lambda x: u * x, None, p, "multiplication")
    assert_allclose(ok.operator_norm(mult).value, np.max(u), rtol=1e-13)
    draws = np.random.default_rng(1).standard_normal((2, 2, g.size))
    starts = np.vstack([_top_eigenpair(mult)[1], draws[:, 0] + 1j * draws[:, 1]])
    assert_allclose(power_method_lp(mult, p, starts)[0], np.max(u), rtol=1e-13)


def test_warm_start_converges_where_random_starts_do_not(grid12):
    w = ok.make_weight("constant", {}, grid12)
    wd = ok.make_weight("perturbed", {"base": w, "f": np.cos(grid12.nodes), "delta": 1e-3},
                        grid12, normalize=False)
    probe = ok.probe_difference(ok.weighted_riesz(wd, 2.5, band=64),
                                ok.weighted_riesz(w, 2.5, band=64))
    warm = ok.operator_norm(probe)
    assert warm.converged and warm.iterations <= 5
    rng = np.random.default_rng(3)
    coeffs = np.zeros((3, grid12.size), dtype=complex)
    coeffs[:, np.arange(-64, 65)] = rng.standard_normal((3, 129)) + 1j * rng.standard_normal((3, 129))
    best, converged, _ = power_method_lp(probe, 2.5, grid12.synthesize(coeffs))
    assert not converged and best <= warm.value


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_norm_needs_band_or_small_grid(grid12, p):
    # no band and N > 2^10: no p = 2 matrix, so neither the value nor the start
    ident = OperatorProbe(grid12, lambda x: x, lambda x: x, None, p, "unbanded identity")
    with pytest.raises(ValueError, match="'unbanded identity' has no band.*band or N <= 2\\^10"):
        ok.operator_norm(ident)
