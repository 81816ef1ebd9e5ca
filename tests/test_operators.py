import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg.blas import zherk

import opuckit as ok
from opuckit import operators
from opuckit.grid import fourier_multiplier
from opuckit.operators import (OperatorProbe, _commutator_pair, _top_eigenpair, materialize_full,
                               power_method_lp)

from conftest import check_linearity


def _inner(grid, f, g):
    return np.mean(f * np.conj(g))


def test_weighted_riesz_linearity_and_adjoint(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.1}, grid12)
    probe = ok.weighted_riesz(w, 2.5, band=32)
    assert check_linearity(probe)
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


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9, -0.7])
def test_weighted_riesz_norm_bernstein_szego_exact(a):
    # w_a = (1 - a^2)/|1 - a e^{i theta}|^2 = |D|^2 with conj(D)/D = (1 - a z)/(1 - a conj z),
    # whose Hankel operator is rank one of norm |a|: by Helson-Szego the norm of P+ on
    # L^2(w_a) is (1 - a^2)^{-1/2} exactly, at a weight that is not constant
    exact = 1.0 / np.sqrt(1.0 - a * a)
    w = ok.make_weight("bernstein_szego", {"a": a}, ok.CircleGrid(9))
    full = ok.operator_norm(ok.weighted_riesz(w, 2.0)).value  # the full node basis
    assert abs(full - exact) <= 1e-14 * exact


@pytest.mark.parametrize("a", [0.5, 0.9])
def test_weighted_riesz_band_norms_approach_the_exact_value_from_below(grid14, a):
    # a band restricts the inputs, so its norm is a lower bound that grows with the band
    # (at a = 0.9 band 16 is 1.9e-4 low and band 64 2.2e-9 low)
    exact = 1.0 / np.sqrt(1.0 - a * a)
    w = ok.make_weight("bernstein_szego", {"a": a}, grid14)
    b16, b64 = (ok.operator_norm(ok.weighted_riesz(w, 2.0, band=band)).value for band in (16, 64))
    assert b16 <= b64 <= exact * (1.0 + 1e-14)


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


def test_power_method_stops_at_an_iterate_of_norm_zero():
    # the adjoint maps everything to 0, so the first dual step has norm 0
    probe = OperatorProbe(None, lambda x: 2.0 * x, lambda x: 0.0 * x,
                          band=None, p=3.0, description="zero adjoint")
    # iteration 0 returns: the stop on no gain would come one step later
    ratio, converged, iters = power_method_lp(probe, np.array([1.0, -2.0, 0.5]))
    assert_allclose(ratio, 2.0, rtol=1e-15)
    assert converged and iters == 0


def test_power_method_against_bruteforce_sphere():
    # dense sphere sample on a small matrix; both sides are lower bounds
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 5))
    probe = OperatorProbe(None, lambda x: A @ x, lambda x: A.T @ x,
                          band=None, p=3.0, description="random 5x5")
    pm = 0.0
    for s in range(20):
        x0 = np.random.default_rng(s).standard_normal(5)
        val, _, _ = power_method_lp(probe, x0)
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
    band = 20  # 41 columns: two full blocks and a partial one
    probe = ok.build_Q(w, 2.5, 16)
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
    for p in (2.0, 3.0):  # both need the p = 2 materialization
        probe.p = p
        with pytest.raises(ValueError, match="row-only probe"):
            ok.operator_norm(probe)


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
    assert all(1 <= e.iterations <= operators._POWER_STEPS for e in power["estimates"])


def _continuity_probe(grid, direction, p, delta, band, base=None):
    """The difference T(w e^{delta f}) - T(w) of `continuity_experiment`, without a pair."""
    w = base or ok.make_weight("constant", {}, grid)
    f = np.cos(grid.nodes) if direction == "cos" else np.log(np.abs(1.0 - grid.points))
    wd = ok.make_weight("perturbed", {"base": w, "f": f, "delta": delta}, grid, normalize=False)
    return ok.probe_difference(ok.weighted_riesz(wd, p, band=band),
                               ok.weighted_riesz(w, p, band=band))


@pytest.mark.parametrize("direction", ["cos", "log_singular"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_spectral_columns_match_apply_path(grid12, direction, p):
    # the continuity probe's band columns, the difference of two probes over a constant
    # base, against the probe applied to each e^{ik theta} by itself
    band = 20
    ks = np.arange(-band, band + 1)
    for delta in (1e-3, 0.1):
        probe = _continuity_probe(grid12, direction, p, delta, band)
        cols = np.column_stack([probe.apply(np.exp(1j * k * grid12.nodes)) for k in ks])
        assert_allclose(ok.materialize_band(probe, band), cols / np.sqrt(grid12.size),
                        rtol=0, atol=1e-14)
        comp = np.column_stack([grid12.analyze(cols[:, i])[ks] for i in range(len(ks))])
        assert_allclose(ok.compress_band(probe, band), comp, atol=1e-13)


def test_probe_difference_needs_terms(grid12):
    ident = OperatorProbe(grid12, lambda x: x, lambda x: x, 8, 2.0, "identity")
    with pytest.raises(ValueError, match="terms"):
        ok.probe_difference(ident, ident)
    # the second probe's terms are w^(+-1/2): no p = 3 operator
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    with pytest.raises(ValueError, match="p = 3.0 and p = 2.0"):
        ok.probe_difference(ok.weighted_riesz(w, 3.0, band=8), ok.weighted_riesz(w, 2.0, band=8))


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
    starts = [_top_eigenpair(mult)[1], *(draws[:, 0] + 1j * draws[:, 1])]
    assert_allclose(max(power_method_lp(mult, x0)[0] for x0 in starts), np.max(u), rtol=1e-13)


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
    runs = [power_method_lp(probe, x0) for x0 in grid12.synthesize(coeffs)]
    assert not all(conv for _, conv, _ in runs) and max(best for best, _, _ in runs) <= warm.value


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_norm_needs_band_or_small_grid(grid12, p):
    # no band and N > 2^10: no p = 2 matrix, so neither the value nor the start
    ident = OperatorProbe(grid12, lambda x: x, lambda x: x, None, p, "unbanded identity")
    with pytest.raises(ValueError, match="'unbanded identity' has no band.*band or N <= 2\\^10"):
        ok.operator_norm(ident)


@pytest.mark.parametrize("band", [-1, 4.5])
def test_probe_band_is_checked_before_lapack(grid12, band, capfd):
    # the check comes before zherk, which prints its own error for an empty band
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12)
    with pytest.raises(ValueError) as exc:
        ok.operator_norm(ok.weighted_riesz(w, 2.0, band=band))
    assert str(exc.value) == ("probe 'w^(1/p) P+ w^(-1/p), p=2.0, family=fisher_hartwig' needs an "
                              f"integer band with 0 <= band < N/2 = 2048, got band = {band}")
    assert "On entry to" not in capfd.readouterr().err


def test_materializer_arguments_name_probe_and_grid(grid12, capfd):
    probe = ok.weighted_riesz(ok.make_weight("constant", {}, grid12), 2.0, band=8)
    name = "probe 'w^(1/p) P+ w^(-1/p), p=2.0, family=constant'"
    for materialize in (ok.materialize_band, ok.compress_band):
        with pytest.raises(ValueError) as exc:
            materialize(probe, 2048)
        assert str(exc.value) == (f"{materialize.__name__} of {name} needs an integer band with "
                                  "0 <= band < N/2 = 2048, got band = 2048")
    with pytest.raises(ValueError) as exc:
        materialize_full(probe)
    assert str(exc.value) == f"materialize_full of {name} needs N <= 2^10, got N = 4096"
    assert "On entry to" not in capfd.readouterr().err


def test_top_eigenpair_matches_numpy_eigh(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    g = ok.CircleGrid(8)
    for probe, mat in ((ok.weighted_riesz(w, 2.0, band=24), None),
                       (ok.weighted_riesz(ok.make_weight("fisher_hartwig", {"beta": 0.3}, g), 2.0),
                        "full")):
        mat = materialize_full(probe) if mat else ok.materialize_band(probe, probe.band)
        vals, vecs = np.linalg.eigh(zherk(1.0, mat, trans=2), UPLO="U")
        top, v = _top_eigenpair(probe)
        assert_allclose(top, vals[-1], rtol=1e-14)
        phase = np.vdot(vecs[:, -1], v)
        assert_allclose(abs(phase), 1.0, rtol=1e-12)
        assert_allclose(v, phase * vecs[:, -1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_norms_never_call_numpy_lapack(grid12, monkeypatch, p):
    # the Gram product is scipy's zherk: an eigensolver from numpy's separate OpenBLAS
    # would switch thread pools on every probe
    def numpy_lapack(*args, **kwargs):
        raise AssertionError("numpy.linalg eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", numpy_lapack)
    monkeypatch.setattr(np.linalg, "eigvalsh", numpy_lapack)
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12)
    g = ok.CircleGrid(8)
    small = ok.weighted_riesz(ok.make_weight("fisher_hartwig", {"beta": 0.2}, g), p)
    for probe in (ok.weighted_riesz(w, p, band=16), small):  # band and materialize_full paths
        est = ok.operator_norm(probe)
        assert est.value >= 1.0 - 1e-10
    # the continuity probe's own pair: its eigensolver is scipy's too
    const = ok.make_weight("constant", {}, grid12)
    f = ok.GridFunction(grid12, np.cos(grid12.nodes))
    res = ok.continuity_experiment(const, f, p, [1e-2, 1e-1], band=16)
    assert all(dist > 0 for _, dist in res["rows"])


@pytest.mark.parametrize("m", [10, 12])
@pytest.mark.parametrize("direction", ["cos", "log_singular"])
def test_commutator_pair_matches_top_eigenpair(m, direction):
    grid = ok.CircleGrid(m)
    for band in (0, 1, 16, 40):
        for p in (2.0, 3.0):
            for delta in (1e-3, 0.1):
                probe = _continuity_probe(grid, direction, p, delta, band)
                top_ref, v_ref = _top_eigenpair(probe)
                top, v = _commutator_pair(probe)
                assert_allclose(top, top_ref, rtol=1e-11)
                # the materialized columns lose ~4e-16/delta to cancellation, so v_ref
                # is off by up to 4e-10 where the top gap is small (log_singular, band
                # 40, delta 1e-3): compare the angle and v's residual in the reference Gram
                assert abs(np.vdot(v_ref, v)) == pytest.approx(1.0, abs=1e-10)
                mat = ok.materialize_band(probe, band)
                resid = mat.conj().T @ (mat @ v) - top_ref * v
                assert np.linalg.norm(resid) <= 1e-10 * top_ref


def test_continuity_first_order_oracle():
    # w = 1, f = cos: u [P+, u^-1] has d(delta) = delta/4 + delta^2/16 + O(delta^3) at p = 2
    g = ok.CircleGrid(10)
    w = ok.make_weight("constant", {}, g)
    f = ok.GridFunction(g, np.cos(g.nodes))
    res = ok.continuity_experiment(w, f, 2.0, [1e-6, 1e-5], band=16)
    for delta, dist in res["rows"]:
        assert abs(dist / (delta / 4 + delta ** 2 / 16) - 1.0) <= 5e-11


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_continuity_base_decides_the_p2_path(grid12, monkeypatch, p):
    f = ok.GridFunction(grid12, np.cos(grid12.nodes))
    deltas = [1e-2, 1e-1]
    # a non-constant base materializes the band, bitwise as operator_norm does it
    fh = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid12)
    res = ok.continuity_experiment(fh, f, p, deltas, band=16)
    for (delta, dist), est in zip(res["rows"], res["estimates"]):
        ref = ok.operator_norm(_continuity_probe(grid12, "cos", p, delta, 16, base=fh))
        assert (dist, est) == (ref.value, ref)

    # a constant base never materializes it
    def no_band(*args, **kwargs):
        raise AssertionError("band materialized")

    monkeypatch.setattr(operators, "materialize_band", no_band)
    const = ok.make_weight("constant", {}, grid12)
    res = ok.continuity_experiment(const, f, p, deltas, band=16)
    assert all(dist > 0 for _, dist in res["rows"])
