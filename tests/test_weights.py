import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import roots_jacobi

import opuckit as ok
from opuckit.grid import poisson_extend_circles
from opuckit.weights import _gauss_jacobi01


def test_make_weight_constant(grid12):
    w = ok.make_weight("constant", {}, grid12)
    assert w.normalized
    assert_allclose(w.values, 1.0)
    with pytest.raises(ValueError):
        ok.make_weight("constant", {"value": -1.0}, grid12)


@pytest.mark.parametrize("family, params, named", [
    ("fisher_hartwig", {"beta": float("nan")}, "'fisher_hartwig' needs beta >= 0, got beta = nan"),
    ("fisher_hartwig", {"beta": -0.1}, "'fisher_hartwig' needs beta >= 0, got beta = -0.1"),
    ("constant", {"value": float("nan")}, "'constant' needs value > 0, got value = nan"),
    ("bernstein_szego", {"a": float("nan")}, "'bernstein_szego' needs |a| < 1, got a = nan"),
    ("perturbed", {"f": np.cos, "delta": float("nan")},
     "'perturbed' needs a finite delta, got delta = nan")])
def test_bad_family_parameter_is_named(grid12, family, params, named):
    if family == "perturbed":
        params = {**params, "base": ok.make_weight("constant", {}, grid12)}
    with pytest.raises(ValueError, match=re.escape(named)):
        ok.make_weight(family, params, grid12)


def test_bernstein_szego_already_normalized(grid12):
    w = ok.make_weight("bernstein_szego", {"a": 0.5}, grid12, normalize=False)
    assert w.normalized  # Poisson-kernel mass
    assert abs(np.mean(w.values) - 1.0) < 1e-13


def test_perturbed_family_shape(grid12):
    base = ok.make_weight("constant", {}, grid12)
    f = lambda th: np.log(np.abs(1.0 - np.exp(1j * th)))
    w = ok.make_weight("perturbed", {"base": base, "f": f, "delta": 0.3}, grid12,
                       normalize=False)
    expected = np.abs(1.0 - np.exp(1j * grid12.nodes)) ** 0.3
    assert_allclose(w.values, expected, rtol=1e-13)


@pytest.mark.parametrize("family,params,m", [("user", {"values": np.full(256, 1e306)}, 8),
                                             ("constant", {"value": 1e305}, 11)])
def test_normalize_names_an_overflowing_mean(family, params, m):
    # the sample mean is inf; dividing by it would report "not strictly positive"
    with pytest.raises(ValueError, match=f"'{family}' weight: its sample mean overflows"):
        ok.make_weight(family, params, ok.CircleGrid(m))
    w = ok.make_weight(family, params, ok.CircleGrid(m), normalize=False)
    assert not w.normalized
    with pytest.raises(ValueError, match=f"'{family}' weight: its sample mean overflows"):
        ok.renormalized(w)


def test_normalize_divides_by_the_sample_mean(grid12):
    base = ok.make_weight("constant", {}, grid12)
    rng = np.random.default_rng(4)
    for family, params in [("constant", {"value": 1e300}), ("fisher_hartwig", {"beta": 0.3}),
                           ("bernstein_szego", {"a": 0.5}),
                           ("user", {"values": rng.uniform(0.1, 1e304, grid12.size)}),
                           ("perturbed", {"base": base, "f": np.cos(grid12.nodes), "delta": 2.0})]:
        raw = ok.make_weight(family, params, grid12, normalize=False).values
        w = ok.make_weight(family, params, grid12)
        assert w.normalized and np.array_equal(w.values, raw / raw.mean()), family


def test_user_weight_rejects_nonpositive(grid12):
    vals = np.ones(grid12.size)
    vals[3] = 0.0
    with pytest.raises(ValueError):
        ok.make_weight("user", {"values": vals}, grid12)


def test_weight_is_a_grid_function_that_reads_its_normalization(grid12):
    w = ok.Weight(grid12, np.full(grid12.size, 1.0 + 1e-13))
    assert isinstance(w, ok.GridFunction) and w.normalized and w.family == "user"
    assert not ok.Weight(grid12, np.full(grid12.size, 1.0 + 1e-11)).normalized
    # an overflowing mean is not 1, and a real-valued complex array is stored real
    assert not ok.Weight(grid12, np.full(grid12.size, 1e305)).normalized
    assert ok.Weight(grid12, np.ones(grid12.size, dtype=complex)).is_real
    with pytest.raises(ValueError, match="strictly positive"):
        ok.Weight(grid12, -np.ones(grid12.size))


def test_unknown_family(grid12):
    with pytest.raises(ValueError):
        ok.make_weight("jacobi", {}, grid12)


@pytest.mark.parametrize("family,params,missing", [
    ("user", {}, "values"), ("fisher_hartwig", {}, "beta"), ("bernstein_szego", {}, "a"),
    ("perturbed", {"f": np.zeros(4), "delta": 0.1}, "base")])
def test_missing_parameter_is_named(grid12, family, params, missing):
    with pytest.raises(ValueError, match=f"'{family}' needs parameter '{missing}'"):
        ok.make_weight(family, params, grid12)


def test_fisher_hartwig_beyond_half_is_moments_only(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.7}, grid12)
    assert not w.a2_ok
    with pytest.warns(UserWarning):
        ok.ap_characteristic(w, 2.0)
    # moment generation still works
    m = w.moments(8)
    assert m.c[0].real > 0


def test_ap_characteristic_trivial(grid12):
    w = ok.make_weight("constant", {}, grid12)
    rep = ok.ap_characteristic(w, 2.0)
    assert_allclose(rep.value, 1.0, atol=1e-12)
    w5 = ok.make_weight("constant", {"value": 5.0}, grid12, normalize=False)
    assert_allclose(ok.ap_characteristic(w5, 2.0).value, 1.0, atol=1e-9)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**16))
def test_ap_scale_invariance(scale, seed):
    g = ok.CircleGrid(8)
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.standard_normal() * np.cos(g.nodes + rng.uniform(0, 2 * np.pi)))
    w1 = ok.make_weight("user", {"values": vals}, g, normalize=False)
    w2 = ok.make_weight("user", {"values": scale * vals}, g, normalize=False)
    v1 = ok.ap_characteristic(w1, 2.0).value
    v2 = ok.ap_characteristic(w2, 2.0).value
    assert_allclose(v1, v2, rtol=1e-11)
    assert v1 >= 1.0 - 1e-12  # discrete Jensen


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("value", [1e305, 1e-305, 1.0])
def test_ap_scale_invariance_at_the_float_range_ends(grid12, value, p):
    # two-lap sums of w or of w^{1/(1-p)}, or their window products, overflow
    w = ok.make_weight("constant", {"value": value}, grid12, normalize=False)
    assert abs(ok.ap_characteristic(w, p).value - 1.0) <= 1e-12


def test_ap_fisher_hartwig_quarter(grid14):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.25}, grid14, normalize=False)
    v = ok.ap_characteristic(w, 2.0).value
    assert v >= 4.0 / 3.0
    assert v <= 2.0 * 4.0 / 3.0


def test_ap_rejects_bad_exponent(grid12):
    w = ok.make_weight("constant", {}, grid12)
    with pytest.raises(ValueError):
        ok.ap_characteristic(w, 1.0)


def test_ap_refinement_monotone():
    vals = [ok.ap_characteristic(ok.make_weight("fisher_hartwig", {"beta": 0.3}, ok.CircleGrid(m),
                                                normalize=False), 2.0).value
            for m in (8, 10, 12)]
    assert all(vals[i + 1] >= vals[i] - 1e-9 for i in range(len(vals) - 1))


def test_full_arc_family_dominates_dyadic():
    g = ok.CircleGrid(8)
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, g, normalize=False)
    dy = ok.ap_characteristic(w, 2.0, "dyadic").value
    full = ok.ap_characteristic(w, 2.0, "full").value
    assert full >= dy - 1e-12
    assert full <= 4.0 * dy  # doubling heuristic for A_2-type averages


def test_arc_kinds(grid12):
    assert ok.arc_lengths(grid12, "dyadic").tolist() == [1 << k for k in range(13)]
    assert ok.arc_lengths(grid12, "full").tolist() == list(range(1, grid12.size + 1))
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    named = r"arc kind must be one of \('dyadic', 'full'\), got 'sparse'"
    for call in (ok.arc_lengths, lambda g, kind: ok.ap_characteristic(w, 2.0, kind),
                 lambda g, kind: ok.bmo_norm(w, kind)):
        with pytest.raises(ValueError, match=named):
            call(grid12, "sparse")


def test_argmax_arc_is_reported(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.4}, grid12, normalize=False)
    rep = ok.ap_characteristic(w, 2.0)
    offset, length = rep.argmax_arc
    assert 0 <= offset < grid12.size and 1 <= length <= grid12.size
    # maximizing arc hugs the singularity at theta = 0
    start = grid12.nodes[offset]
    dist = min(start, 2 * np.pi - start)
    assert dist < 0.1 or (offset + length) % grid12.size < grid12.size // 64


@pytest.mark.parametrize("p", [1.5, 2.0, 3.7])
def test_ap_matches_per_length_prefix_sums(grid12, p):
    # oracle: a fresh circular prefix sum for every arc length
    w = ok.make_weight("fisher_hartwig", {"beta": 0.35}, grid12, normalize=False)
    vals, dual, n = w.values, w.values ** (1.0 / (1.0 - p)), grid12.size

    def window_sums(v, length):
        cs = np.concatenate(([0.0], np.cumsum(np.concatenate([v, v[:length]]))))
        return cs[length: length + n] - cs[:n]

    best, best_arc = -np.inf, None
    for length in ok.arc_lengths(grid12, "dyadic"):
        prod = window_sums(vals, length) * window_sums(dual, length) ** (p - 1.0)
        prod /= float(length) ** p
        j = int(np.argmax(prod))
        if prod[j] > best:
            best, best_arc = float(prod[j]), (j, int(length))
    rep = ok.ap_characteristic(w, p)
    assert rep.value == best and rep.argmax_arc == best_arc


def test_fh_a2_exact_values():
    assert ok.fh_a2_exact(0.0) == 1.0
    assert_allclose(ok.fh_a2_exact(0.25), 4.0 / 3.0, rtol=1e-15)
    assert_allclose(ok.fh_a2_exact(0.4), 1.0 / (1.0 - 0.64), rtol=1e-15)
    with pytest.raises(ValueError):
        ok.fh_a2_exact(0.5)


@pytest.mark.parametrize("beta", [0.1, 0.25, 0.4])
def test_fh_subarc_product_matches_exact(beta):
    q = ok.fh_subarc_product(beta, 0.1)
    assert abs(q / ok.fh_a2_exact(beta) - 1.0) < 0.02


def _subarc_product_quad_alg(beta, a):
    """The same product by QUADPACK's algebraic-weight rule (QAWS), an independent oracle."""
    g = lambda x: np.sinc(a * x / (2.0 * np.pi)) ** (2.0 * beta)  # (2 sin(t/2)/t)^{2 beta}, t = a x
    avg_w = quad(g, 0.0, 1.0, weight="alg", wvar=(2.0 * beta, 0.0))[0]
    avg_inv = quad(lambda x: 1.0 / g(x), 0.0, 1.0, weight="alg", wvar=(-2.0 * beta, 0.0))[0]
    return avg_w * avg_inv


@pytest.mark.parametrize("a", [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, np.pi])
@pytest.mark.parametrize("beta", [0.01, 0.1, 0.25, 0.3, 0.4, 0.45, 0.49])
def test_fh_subarc_product_matches_quad_alg(beta, a):
    q = ok.fh_subarc_product(beta, a)
    assert abs(q / _subarc_product_quad_alg(beta, a) - 1.0) < 1e-13


@pytest.mark.parametrize("c", [-0.98, -0.8, -0.2, -0.02, 0.02, 0.2, 0.8, 0.98])
def test_gauss_jacobi_rule_matches_scipy(c):
    nodes, weights = _gauss_jacobi01(c)
    x, wx = roots_jacobi(len(nodes), 0.0, c)  # weight (1 + x)^c on [-1, 1]
    assert_allclose(nodes, (1.0 + x) / 2.0, rtol=0, atol=1e-15)
    # scipy's weights are the less accurate pair near c = -1: at c = -0.98 they
    # integrate x^k, k < 64, only to 1.6e-11 relative, the Golub-Welsch ones to 1.1e-14
    assert_allclose(weights, wx / 2.0 ** (c + 1.0), rtol=2e-11, atol=0)


@pytest.mark.parametrize("c", [-0.98, -0.5, 0.3, 0.98])
def test_gauss_jacobi_rule_exact_on_monomials(c):
    nodes, weights = _gauss_jacobi01(c)
    k = np.arange(2 * len(nodes))
    got = (nodes ** k[:, None]) @ weights
    assert_allclose(got, 1.0 / (c + k + 1.0), rtol=2e-14)


@pytest.mark.parametrize("beta, a, message", [
    (0.5, 0.1, "need 0 < beta < 1/2, got beta = 0.5"),
    (0.0, 0.1, "need 0 < beta < 1/2, got beta = 0.0"),
    (float("nan"), 0.1, "need 0 < beta < 1/2, got beta = nan"),
    (0.3, 4.0, "need 0 < a <= pi, got a = 4.0"),
    (0.3, 0.0, "need 0 < a <= pi, got a = 0.0"),
    (0.3, float("nan"), "need 0 < a <= pi, got a = nan"),
])
def test_fh_subarc_product_names_bad_input(beta, a, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ok.fh_subarc_product(beta, a)


def test_poisson_characteristics_constant(grid12):
    w = ok.make_weight("constant", {}, grid12)
    a2p, ainfp = ok.poisson_characteristics(w)
    assert_allclose([a2p, ainfp], [1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("beta", [0.05, 0.2, 0.45])
def test_poisson_characteristics_jensen_and_comparability(grid12, beta):
    w = ok.make_weight("fisher_hartwig", {"beta": beta}, grid12, normalize=False)
    a2p, ainfp = ok.poisson_characteristics(w)
    assert ainfp <= a2p * (1.0 + 1e-12)
    ap = ok.ap_characteristic(w, 2.0).value
    assert 1.0 / 20.0 <= a2p / ap <= 20.0


def test_poisson_profiles_equal_single_vector_calls(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    radii = [0.5, 0.9, 0.99]
    vals = (w.values, 1.0 / w.values, np.log(w.values))
    profiles = list(poisson_extend_circles(np.stack(vals), radii))
    for k, v in enumerate(vals):
        for r, got in zip(radii, profiles):
            assert np.array_equal(got[k], next(poisson_extend_circles(v, [r])))


def test_poisson_characteristics_explicit_samples(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12, normalize=False)
    zs = 0.7 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 17)[:-1])
    a2p, ainfp = ok.poisson_characteristics(w, zs)
    assert 1.0 <= ainfp <= a2p
    with pytest.raises(ValueError):
        ok.poisson_characteristics(w, [1.0 + 0j])


def test_bmo_constant_is_zero(grid12):
    f = ok.GridFunction(grid12, np.full(grid12.size, 3.3))
    assert ok.bmo_norm(f) < 1e-12  # prefix-sum roundoff only


def test_bmo_scaling_exact(grid12):
    f = ok.GridFunction(grid12, np.log(np.abs(1.0 - np.exp(1j * grid12.nodes))))
    base = ok.bmo_norm(f)
    for c in (0.1, 2.0, 7.5):
        scaled = ok.GridFunction(grid12, c * f.values)
        assert_allclose(ok.bmo_norm(scaled), c * base, rtol=1e-12)


def test_bmo_linear_in_beta(grid12):
    # log w_beta = 2 beta log|1 - e^{i theta}|: exact homogeneity in beta
    base = ok.bmo_norm(ok.GridFunction(grid12, np.log(np.abs(1.0 - np.exp(1j * grid12.nodes)))))
    for beta in (0.05, 0.1, 0.2, 0.4):
        w = ok.make_weight("fisher_hartwig", {"beta": beta}, grid12, normalize=False)
        v = ok.bmo_norm(ok.GridFunction(grid12, np.log(w.values)))
        assert abs(v / (2.0 * beta * base) - 1.0) < 0.05


def test_bmo_peak_memory_is_bounded():
    # at N = 2^14 a chunk of 1024 offsets of the longest arcs makes two 134 MB
    # temporaries; chunks of 2^20 elements keep each at 8 MB
    g = ok.CircleGrid(14)
    f = ok.GridFunction(g, np.log(ok.make_weight("fisher_hartwig", {"beta": 0.3}, g).values))
    tracemalloc.start()
    try:
        ok.bmo_norm(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_bmo_full_family_peak_memory_is_bounded():
    # bounds are recomputed per length: a table of them for all 1023 lengths
    # of the full family at N = 2^10 would alone take 8.4 MB
    g = ok.CircleGrid(10)
    f = ok.GridFunction(g, np.log(ok.make_weight("fisher_hartwig", {"beta": 0.3}, g).values))
    tracemalloc.start()
    try:
        ok.bmo_norm(f, "full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _bmo_full_scan(f, arcs="dyadic"):
    """Reference: <|f - <f>_I|>_I averaged over every window of every length."""
    vals = f.real_values()
    n = f.grid.size
    doubled = np.concatenate([vals, vals])
    prefix = np.concatenate(([0.0], np.cumsum(doubled)))
    best = 0.0
    for length in ok.arc_lengths(f.grid, arcs):
        length = int(length)
        if length == 1:
            continue
        means = (prefix[length: length + n] - prefix[:n]) / length
        windows = np.lib.stride_tricks.sliding_window_view(doubled, length)[:n]
        chunk = max(1, ok.weights._BMO_CHUNK // length)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            dev = np.abs(windows[lo:hi] - means[lo:hi, None]).mean(axis=1)
            best = max(best, float(dev.max()))
    return best


def _bmo_inputs(g):
    rng = np.random.default_rng(5)
    out = {f"log fisher_hartwig {b}": np.log(ok.make_weight("fisher_hartwig", {"beta": b}, g).values)
           for b in (0.1, 0.2734, 0.4)}
    out["N(0,1)"] = rng.standard_normal(g.size)
    out["1e8 + N(0,1)"] = 1e8 + rng.standard_normal(g.size)
    out["constant"] = np.full(g.size, 3.3)
    out["step"] = np.where(g.nodes < np.pi, 1.0, -2.0)
    out["spike"] = np.where(np.arange(g.size) == g.size // 3, 5.0, 0.0)
    return out


@pytest.mark.parametrize("m", [8, 9, 10, 11, 12])
def test_pruned_bmo_equals_full_scan(m):
    g = ok.CircleGrid(m)
    for name, vals in _bmo_inputs(g).items():
        f = ok.GridFunction(g, vals)
        assert ok.bmo_norm(f) == _bmo_full_scan(f), name


@pytest.mark.parametrize("m", [6, 7, 8])
def test_pruned_bmo_equals_full_scan_on_full_family(m):
    g = ok.CircleGrid(m)
    for name, vals in _bmo_inputs(g).items():
        f = ok.GridFunction(g, vals)
        assert ok.bmo_norm(f, "full") == _bmo_full_scan(f, "full"), name


def test_pruned_bmo_averages_a_sixth_of_the_windows(grid12, monkeypatch):
    # log w_beta is homogeneous in beta, so the share does not depend on it
    averaged = []
    evaluate = ok.weights._window_deviations

    def counting(doubled, length, means, offsets):
        averaged.append(len(offsets) * length)
        return evaluate(doubled, length, means, offsets)

    monkeypatch.setattr(ok.weights, "_window_deviations", counting)
    f = ok.GridFunction(grid12, _bmo_inputs(grid12)["log fisher_hartwig 0.1"])
    ok.bmo_norm(f)
    full = sum(grid12.size * int(length) for length in ok.arc_lengths(grid12, "dyadic")[1:])
    assert sum(averaged) < 0.2 * full


def test_bmo_rejects_overflowing_prefix_sums(grid12):
    f = ok.GridFunction(grid12, np.full(grid12.size, 1e305))
    with pytest.raises(ValueError, match=r"N = 4096 \(max \|f\| = 1e\+305\)"):
        ok.bmo_norm(f)


def test_bmo_against_bruteforce_oracle():
    g = ok.CircleGrid(8)
    rng = np.random.default_rng(3)
    f = ok.GridFunction(g, rng.standard_normal(g.size))
    assert_allclose(ok.bmo_norm(f), ok.bmo_norm_bruteforce(f), rtol=1e-13)


def test_bmo_sqrt_tau_trend(grid12):
    # [w]_{A_2} = 1 + tau small forces ||log w||_BMO <= C sqrt(tau)
    base = ok.make_weight("constant", {}, grid12)
    for delta in (0.05, 0.1, 0.2):
        w = ok.make_weight("perturbed",
                           {"base": base, "f": lambda th: np.cos(th), "delta": delta},
                           grid12, normalize=False)
        tau = ok.ap_characteristic(w, 2.0).value - 1.0
        bmo = ok.bmo_norm(ok.GridFunction(grid12, np.log(w.values)))
        assert bmo <= 2.0 * np.sqrt(tau)


def test_renormalized(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12, normalize=False)
    assert not w.normalized
    wn = ok.renormalized(w)
    assert wn.normalized
    assert_allclose(np.mean(wn.values), 1.0, atol=1e-14)


def test_resample(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    w8 = ok.resample(w, ok.CircleGrid(8))
    assert w8.grid.size == 256
    user = ok.make_weight("user", {"values": np.ones(grid12.size)}, grid12)
    with pytest.raises(ValueError):
        ok.resample(user, ok.CircleGrid(8))
    # a perturbed weight moves with its base when f is a rule, not when it is samples
    moved = ok.make_weight("perturbed", {"base": w, "f": np.cos, "delta": 0.2}, grid12)
    m8 = ok.resample(moved, ok.CircleGrid(8))
    assert m8.params["base"].grid.size == 256 and m8.params["f"] is np.cos
    assert_allclose(m8.values, ok.make_weight("perturbed", {"base": w8, "f": np.cos, "delta": 0.2},
                                              ok.CircleGrid(8)).values, rtol=1e-15)
    sampled = ok.make_weight("perturbed", {"base": w, "f": np.cos(grid12.nodes), "delta": 0.2}, grid12)
    with pytest.raises(ValueError, match="array-valued f cannot be resampled"):
        ok.resample(sampled, ok.CircleGrid(8))


@pytest.mark.parametrize("base, error, named", [
    (np.ones(4096), TypeError, "perturbed weight needs a base Weight"),
    ("coarse", ValueError, "base weight lives on a different grid")])
def test_perturbed_base_must_be_a_weight_on_the_grid(grid12, base, error, named):
    if isinstance(base, str):
        base = ok.make_weight("constant", {}, ok.CircleGrid(8))
    with pytest.raises(error, match=named):
        ok.make_weight("perturbed", {"base": base, "f": np.cos, "delta": 0.1}, grid12)


def test_ap_characteristic_names_a_dual_power_that_overflows(grid12):
    # w^(1/(1-p)) = w^-2 at p = 1.5 reaches 1e600, even after w is scaled to max 1
    vals = np.geomspace(1e-300, 1.0, grid12.size)
    w = ok.make_weight("user", {"values": vals}, grid12, normalize=False)
    with pytest.raises(ValueError, match=r"w\^\(1/\(1-p\)\) overflows for p = 1.5; "
                                         "weight dynamic range too large"):
        ok.ap_characteristic(w, 1.5)
