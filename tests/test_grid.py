import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import opuckit as ok
from opuckit.grid import (GridSizeError, MomentError, duality_map, fourier_multiplier, lp_norms,
                         poisson_extend_circles, poisson_probabilities)

from conftest import random_bandlimited


def test_grid_basics():
    g = ok.CircleGrid(10)
    assert g.size == 1024
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 0 and g.nodes[-1] < 2 * np.pi
    # half-step offset keeps theta = 0 off the grid
    assert np.min(np.abs(g.nodes)) > 1e-6


def test_grid_size_bounds():
    with pytest.raises(GridSizeError):
        ok.CircleGrid(5)
    with pytest.raises(GridSizeError):
        ok.CircleGrid(25)
    # numpy integers are integers
    assert ok.CircleGrid(np.int64(10)) == ok.CircleGrid(10)
    assert ok.CircleGrid(np.int32(10)).size == 1024


def test_gridfunction_validation(grid12):
    with pytest.raises(GridSizeError):
        ok.GridFunction(grid12, np.ones(7))
    with pytest.raises(ValueError):
        ok.GridFunction(grid12, np.full(grid12.size, np.nan))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_analyze_synthesize_roundtrip(seed):
    g = ok.CircleGrid(8)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    assert_allclose(g.synthesize(g.analyze(v)), v, atol=1e-12)


def test_quadrature_constants_and_frequencies(grid12):
    one = ok.GridFunction(grid12, np.ones(grid12.size))
    assert_allclose(ok.mean(one), 1.0, rtol=1e-14)
    cosine = ok.GridFunction(grid12, np.cos(grid12.nodes))
    assert abs(ok.mean(cosine)) < 1e-12 / (2 * np.pi)


def test_quadrature_exact_for_all_resolved_frequencies():
    g = ok.CircleGrid(8)
    for k in (1, 7, 100, g.size - 1, -(g.size - 1)):
        f = ok.GridFunction(g, np.exp(1j * k * g.nodes))
        assert abs(ok.mean(f)) < 1e-12 / (2 * np.pi)


def test_quadrature_against_adaptive_oracle():
    # int |1 - e^{i theta}| dtheta = 8; the kink at 0 costs O(1/N^2)
    g = ok.CircleGrid(16)
    f = ok.GridFunction(g, np.abs(1.0 - np.exp(1j * g.nodes)))
    oracle = quad(lambda t: 2.0 * np.sin(t / 2.0), 0.0, 2.0 * np.pi)[0]
    assert_allclose(oracle, 8.0, atol=1e-10)
    assert abs(ok.mean(f) - oracle / (2 * np.pi)) < 1e-6 / (2 * np.pi)


def test_trig_moments_trivial(grid12):
    n = grid12.size
    m1 = ok.trig_moments(ok.GridFunction(grid12, np.ones(n)), 4)
    assert_allclose(m1.c[0], 1.0, atol=1e-14)
    assert np.max(np.abs(m1.c[1:])) < 1e-14

    m2 = ok.trig_moments(ok.GridFunction(grid12, 1.0 + np.cos(grid12.nodes)), 4)
    assert_allclose(m2.c[:3], [1.0, 0.5, 0.0], atol=1e-14)


def test_trig_moments_squared_distance(grid12):
    # |1 - e^{i theta}|^2 = 2 - 2 cos(theta)
    w = ok.GridFunction(grid12, np.abs(1.0 - np.exp(1j * grid12.nodes)) ** 2)
    m = ok.trig_moments(w, 3)
    assert_allclose(m.c[:3], [2.0, -1.0, 0.0], atol=1e-13)
    # quadrature oracle for the same integrals
    for k in range(3):
        direct = np.mean(w.values * np.exp(-1j * k * grid12.nodes))
        assert_allclose(m.c[k], direct, atol=1e-13)


@pytest.mark.parametrize("kmax", [0, 7, 2047])
def test_trig_moments_equal_analyze_bins(grid12, kmax):
    # real samples take the real FFT, complex ones analyze: both are analyze's bins
    rng = np.random.default_rng(4)
    x = rng.standard_normal(grid12.size) + 2.0
    m = ok.trig_moments(ok.GridFunction(grid12, x), kmax)
    want = grid12.analyze(x)[: kmax + 1]
    assert m.c[0].imag == 0.0
    assert_allclose(m.c, want, rtol=0, atol=1e-15 * np.max(np.abs(want)))
    z = x + 1j * np.sin(3.0 * grid12.nodes)  # complex, with a real c_0
    assert np.array_equal(ok.trig_moments(ok.GridFunction(grid12, z), kmax).c,
                          grid12.analyze(z)[: kmax + 1])


@pytest.mark.parametrize("k", [1, 7, 129, 2048, 4096])
def test_analyze_prefix_is_the_slice_bitwise(grid12, k):
    rng = np.random.default_rng(11)
    real = rng.standard_normal((3, grid12.size))
    for values in (real, real + 1j * rng.standard_normal(real.shape), real[0]):
        got = grid12.analyze(values, k)
        assert got.shape == values.shape[:-1] + (k,)
        assert np.array_equal(got, grid12.analyze(values)[..., :k])
    for bad in (0, grid12.size + 1, 2.5, True, "8"):
        with pytest.raises(GridSizeError, match="bins"):
            grid12.analyze(real, bad)


def test_trig_moments_preconditions(grid12):
    f = ok.GridFunction(grid12, np.ones(grid12.size))
    with pytest.raises(MomentError):
        ok.trig_moments(f, grid12.size // 2)
    with pytest.raises(MomentError):
        ok.MomentSequence(np.array([-1.0, 0.3]))
    for c in (np.array([]), np.ones((2, 2))):
        with pytest.raises(MomentError, match="one-dimensional and non-empty"):
            ok.MomentSequence(c)
    m = ok.MomentSequence(np.array([1.0, 0.5j]))
    with pytest.raises(MomentError, match="need moments up to 2, have 1"):
        m.toeplitz_gram(2)


def test_moment_hermitian_extension(grid12):
    w = ok.GridFunction(grid12, np.exp(np.cos(grid12.nodes) + 0.3 * np.sin(grid12.nodes)))
    m = ok.trig_moments(w, 8)
    g = m.toeplitz_gram(5)
    assert_allclose(g, g.conj().T, atol=1e-15)
    assert np.all(np.linalg.eigvalsh(g) > 0)


def test_conjugate_function_multiplier(grid12):
    cosine = ok.GridFunction(grid12, np.cos(grid12.nodes))
    assert_allclose(ok.conjugate_function(cosine).values, np.sin(grid12.nodes), atol=1e-13)
    const = ok.GridFunction(grid12, np.full(grid12.size, 2.7))
    assert np.max(np.abs(ok.conjugate_function(const).values)) < 1e-13


@pytest.mark.parametrize("family, params", [("fisher_hartwig", {"beta": 0.3}),
                                            ("bernstein_szego", {"a": 0.5})])
def test_conjugate_function_owns_a_float_array(grid12, family, params):
    f = ok.GridFunction(grid12, np.log(ok.make_weight(family, params, grid12).values))
    got = ok.conjugate_function(f).values
    assert got.dtype == float and got.flags.c_contiguous and got.flags.owndata
    # the complex-FFT form: multiplier -i sgn(k), Nyquist bin zeroed
    mult = -1j * np.sign(np.fft.fftfreq(grid12.size))
    mult[grid12.size // 2] = 0.0
    expected = np.fft.ifft(np.fft.fft(f.values) * mult).real
    assert np.max(np.abs(got - expected)) <= 4e-15 * np.max(np.abs(f.values))


def test_conjugate_function_rejects_complex(grid12):
    f = ok.GridFunction(grid12, np.exp(1j * grid12.nodes))
    with pytest.raises(ValueError):
        ok.conjugate_function(f)


def test_conjugate_of_log_singular_kernel(grid14):
    # boundary value of Im log(1 - z): arg(1 - e^{i theta}) = (theta - pi)/2
    f = ok.GridFunction(grid14, np.log(np.abs(1.0 - np.exp(1j * grid14.nodes))))
    conj = ok.conjugate_function(f).values
    target = (grid14.nodes - np.pi) / 2.0
    away = (grid14.nodes > 0.3) & (grid14.nodes < 2.0 * np.pi - 0.3)
    assert np.max(np.abs(conj - target)[away]) < 1e-3


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_double_conjugation_involution(seed):
    g = ok.CircleGrid(8)
    f = random_bandlimited(g, np.random.default_rng(seed), g.size // 4, real=True)
    twice = ok.conjugate_function(ok.conjugate_function(f))
    assert_allclose(twice.values, -f.values + ok.mean(f), atol=1e-11)


def test_poisson_extend(grid12):
    # P(f, z) = lambda_z @ f with the Poisson probabilities lambda_z
    zs = (0.0, 0.5, 0.3 + 0.4j)
    for lam in poisson_probabilities(grid12, zs):
        assert_allclose(lam @ np.ones(grid12.size), 1.0, atol=1e-12)
    f = ok.GridFunction(grid12, np.cos(grid12.nodes) + 2.0)
    assert_allclose(next(poisson_probabilities(grid12, [0.0])) @ f.values, ok.mean(f), atol=1e-12)
    rs = (0.1, 0.5, 0.9)
    for r, lam in zip(rs, poisson_probabilities(grid12, rs)):
        assert_allclose(lam @ np.cos(grid12.nodes), r, atol=1e-10)
    with pytest.raises(ValueError):
        poisson_probabilities(grid12, [1.0])


def test_poisson_boundary_limit(grid14):
    # P(f, r xi_j) -> f(xi_j) at r = 1 - 2pi/N within O(1/N) for trig polys
    n = grid14.size
    f = ok.GridFunction(grid14, np.cos(3.0 * grid14.nodes))
    r = 1.0 - 2.0 * np.pi / n
    ext = next(poisson_extend_circles(f.values, [r]))
    assert np.max(np.abs(ext - f.values)) < 200.0 / n


def test_harmonic_extension_multiplier_is_exact_on_constants(grid12):
    ext = next(poisson_extend_circles(np.ones(grid12.size), [1.0 - 2.0 ** -10]))
    assert_allclose(ext, 1.0, atol=1e-14)


@pytest.mark.parametrize("family, params, radii", [
    ("bernstein_szego", {"a": 0.5}, [0.5, 0.9, 0.99]),
    # the discrete kernel aliases frequency N/2 by r^(N/2), 1.2e-9 at r = 0.99 and
    # N = 4096, which the cusp of w^-1 lifts to 6e-12 relative: smooth data covers 0.99
    ("fisher_hartwig", {"beta": 0.3}, [0.5, 0.9]),
])
def test_poisson_extend_circles_matches_explicit_kernel(grid12, family, params, radii):
    # independent oracle: the normalized discrete Poisson kernel at r zeta_j, every 8th node
    w = ok.make_weight(family, params, grid12)
    stack = np.stack([w.values, 1.0 / w.values, np.log(w.values)])
    pts, sub = grid12.points, slice(None, None, 8)
    for r, got in zip(radii, poisson_extend_circles(stack, radii)):
        assert got.shape == stack.shape
        kern = (1.0 - r ** 2) / np.abs(1.0 - np.conj(pts)[None, :] * r * pts[sub, None]) ** 2
        expect = ((kern / kern.sum(axis=1, keepdims=True)) @ stack.T).T
        err = np.max(np.abs(got[:, sub] - expect), axis=1)
        assert np.all(err <= 1e-12 * np.max(np.abs(expect), axis=1))


def test_harmonic_extension_on_circle_uses_the_real_kernel(grid12):
    rng = np.random.default_rng(5)
    f = random_bandlimited(grid12, rng, 40, real=True)
    g = random_bandlimited(grid12, rng, 40, real=True)
    for r in (0.0, 0.5, 0.99):
        ext = next(poisson_extend_circles(np.stack([f.values, g.values]), [r]))
        assert not np.iscomplexobj(ext)
        # the real kernel on the real and imaginary parts is the complex multiplier r^|k|
        mult = r ** np.abs(np.fft.fftfreq(grid12.size, 1.0 / grid12.size))
        expect = np.fft.ifft(np.fft.fft(f.values + 1j * g.values) * mult)
        assert_allclose(ext[0] + 1j * ext[1], expect, rtol=0, atol=1e-13)


def test_riesz_projection(grid12):
    e_plus = ok.GridFunction(grid12, np.exp(1j * grid12.nodes))
    assert_allclose(ok.riesz_project(e_plus).values, e_plus.values, atol=1e-12)
    e_minus = ok.GridFunction(grid12, np.exp(-1j * grid12.nodes))
    assert np.max(np.abs(ok.riesz_project(e_minus).values)) < 1e-12
    two_cos = ok.GridFunction(grid12, 2.0 * np.cos(grid12.nodes))
    assert_allclose(ok.riesz_project(two_cos).values, e_plus.values, atol=1e-12)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_riesz_projection_idempotent(seed):
    g = ok.CircleGrid(8)
    rng = np.random.default_rng(seed)
    f = ok.GridFunction(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
    once = ok.riesz_project(f)
    twice = ok.riesz_project(once)
    assert_allclose(twice.values, once.values, atol=1e-13)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60))
def test_band_truncation_via_riesz_identity(seed, n):
    # P_n = P+ - z^{n+1} P+ z^{-(n+1)} on functions with |k| <= N/4, n < N/4
    g = ok.CircleGrid(10)
    f = random_bandlimited(g, np.random.default_rng(seed), g.size // 4)
    lhs = ok.band_project(f, 0, n).values
    zshift = np.exp(-1j * (n + 1) * g.nodes)
    inner = ok.riesz_project(ok.GridFunction(g, zshift * f.values)).values
    rhs = ok.riesz_project(f).values - np.conj(zshift) * inner
    assert_allclose(lhs, rhs, atol=1e-11)


def test_stacked_analyze_synthesize_match_rows():
    g = ok.CircleGrid(8)
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((5, g.size)) + 1j * rng.standard_normal((5, g.size))
    coeffs = g.analyze(stack)
    vals = g.synthesize(coeffs)
    assert coeffs.shape == vals.shape == stack.shape
    for r in range(len(stack)):
        assert np.array_equal(coeffs[r], g.analyze(stack[r]))
        assert np.array_equal(vals[r], g.synthesize(coeffs[r]))
    for bad in (np.ones(g.size + 1), np.ones((3, g.size + 1)), np.float64(1.0)):
        with pytest.raises(GridSizeError):
            g.analyze(bad)
        with pytest.raises(GridSizeError):
            g.synthesize(bad)


@pytest.mark.parametrize("k", [1, 128, 256])
def test_synthesize_prefix_equals_padded_call(k):
    g = ok.CircleGrid(8)
    rng = np.random.default_rng(k)
    prefix = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
    padded = np.zeros((4, g.size), dtype=complex)
    padded[:, :k] = prefix
    assert np.array_equal(g.synthesize(prefix), g.synthesize(padded))
    assert np.array_equal(g.synthesize(prefix[0]), g.synthesize(padded[0]))
    assert g.synthesize(prefix).shape == (4, g.size)


@pytest.mark.parametrize("k", [1, 7, 129, 2048, 2049, 4096])
def test_synthesize_phases_equal_full_frequency_table(grid12, k):
    # synthesize phases only its k bins; the N-bin table's first k entries are bitwise the same
    rng = np.random.default_rng(k)
    coeffs = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
    freqs = np.fft.fftfreq(grid12.size, 1.0 / grid12.size).astype(np.int64)
    unphase = np.exp(1j * np.pi * freqs / grid12.size)
    want = np.fft.ifft(coeffs * unphase[:k], n=grid12.size, axis=-1, norm="forward")
    assert np.array_equal(grid12.synthesize(coeffs), want)


def test_synthesize_builds_no_frequency_table():
    # nor does any transform: each phases the bins it touches and caches nothing
    g = ok.CircleGrid(10)
    g.synthesize(np.ones(g.size))
    g.synthesize(np.ones((2, g.size // 2)), hermitian=True)
    g.analyze(np.ones(g.size), 3)
    ok.trig_moments(ok.GridFunction(g, np.ones(g.size)), 4)
    assert set(vars(g)) == {"log2_size"}


@pytest.mark.parametrize("k", [1, 2, 100, 512])
def test_hermitian_synthesize_is_the_real_complex_call(k):
    # bins 0..k-1 and their mirrors -1..-(k-1), conjugated: a real trigonometric polynomial
    g = ok.CircleGrid(10)
    rng = np.random.default_rng(k)
    coeffs = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
    coeffs[:, 0] = coeffs[:, 0].real
    full = np.zeros((3, g.size), dtype=complex)
    full[:, :k] = coeffs
    full[:, g.size - k + 1:] = np.conj(coeffs[:, :0:-1])
    got = g.synthesize(coeffs, hermitian=True)
    assert got.dtype == np.float64 and got.shape == (3, g.size)
    assert_allclose(got, g.synthesize(full).real, rtol=0, atol=1e-13 * np.max(np.abs(got)))
    out = np.empty((3, g.size))
    assert g.synthesize(coeffs, out=out, hermitian=True) is out
    assert np.array_equal(out, got)
    assert np.array_equal(got[1], g.synthesize(coeffs[1], hermitian=True))


def test_hermitian_synthesize_rejects_the_nyquist_bin_naming_k():
    g = ok.CircleGrid(8)
    with pytest.raises(GridSizeError, match=r"1 to 128 .*\(k = 129\)"):
        g.synthesize(np.ones(g.size // 2 + 1), hermitian=True)


@pytest.mark.parametrize("shape", [(0,), (3, 0), (257,), (2, 257), ()])
def test_synthesize_rejects_bad_prefix_naming_shape(shape):
    g = ok.CircleGrid(8)
    with pytest.raises(GridSizeError, match=f"1 to 256 .*got shape {re.escape(str(shape))}"):
        g.synthesize(np.ones(shape))


def test_fourier_multiplier_stack_and_phase_free_form():
    # the kernel skips analyze/synthesize's half-step phase, which cancels
    g = ok.CircleGrid(8)
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((4, g.size)) + 1j * rng.standard_normal((4, g.size))
    freqs = np.fft.fftfreq(g.size, 1.0 / g.size)
    mask = ((freqs >= -3) & (freqs <= 40)).astype(float)
    out = fourier_multiplier(stack, (-3, 40))
    for r in range(len(stack)):
        assert np.array_equal(out[r], fourier_multiplier(stack[r], (-3, 40)))
        assert_allclose(out[r], g.synthesize(g.analyze(stack[r]) * mask), atol=1e-13)


@pytest.mark.parametrize("lo, hi", [(0, 127), (0, 0), (0, 15), (-3, 5), (-10, -3),
                                    (-128, 127), (-500, 500), (5, 3), (100, 200)])
def test_fourier_multiplier_band_equals_mask(lo, hi):
    g = ok.CircleGrid(8)
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((3, g.size)) + 1j * rng.standard_normal((3, g.size))
    freqs = np.fft.fftfreq(g.size, 1.0 / g.size)
    mask = ((freqs >= lo) & (freqs <= hi)).astype(float)
    want = np.fft.ifft(np.fft.fft(stack, axis=-1) * mask, axis=-1)
    assert np.array_equal(fourier_multiplier(stack, (lo, hi)), want)


def test_duality_map_rows_and_zero_row():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    stack[1] = 0.0
    out = duality_map(stack, 3.0)
    for r in range(len(stack)):
        assert np.array_equal(out[r], duality_map(stack[r], 3.0))
    assert np.array_equal(out[1], np.zeros(64))
    # |y|^{p-1} sign(y) up to the row scale max|y|^{p-1}
    expect = np.abs(stack[0]) ** 2 * stack[0] / np.abs(stack[0]) / np.max(np.abs(stack[0])) ** 2
    assert_allclose(out[0], expect, rtol=1e-13)


def test_lp_norms_rows_equal_weighted_lp_norm_and_zero_row(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((4, grid12.size)) + 1j * rng.standard_normal((4, grid12.size))
    stack[1] = 0.0
    # moduli spanning 1e-300..1: exp(p log) must keep the tiny entries' terms, or drop
    # them to 0 where pow does too
    stack[3] = np.logspace(-300, 0, grid12.size) * np.exp(1j * rng.uniform(0, 6.3, grid12.size))
    p_grid = [1.0, 2.0, 3.5, 30.0]
    got = lp_norms(stack, p_grid, w.values)
    assert got.shape == (len(p_grid), len(stack))
    for i, p in enumerate(p_grid):
        for r in range(len(stack)):
            assert got[i, r] == ok.weighted_lp_norm(stack[r], w, p)
            # the direct pow form, unscaled: no entry here overflows at p = 30
            direct = np.mean(np.abs(stack[r]) ** p * w.values) ** (1.0 / p)
            assert abs(got[i, r] - direct) <= 1e-13 * direct
    assert np.all(got[:, 1] == 0.0)
    # lent buffers change nothing but where the work happens
    work = (np.empty(stack.shape), np.empty(stack.shape))
    assert np.array_equal(lp_norms(stack, p_grid, w.values, work), got)
    # no weight is the weight 1, bitwise, in any stack shape
    plain = lp_norms(stack.reshape(4, 1, -1), p_grid)
    assert plain.shape == (len(p_grid), 4, 1)
    assert np.array_equal(plain[..., 0], lp_norms(stack, p_grid, np.ones(grid12.size)))
    expect = np.mean(np.abs(stack[0]) ** 3.5) ** (1.0 / 3.5)
    assert_allclose(plain[2, 0, 0], expect, rtol=1e-13)


def test_poisson_probabilities_shared_by_both_callers(grid12):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.3}, grid12)
    zs = 0.8 * np.exp(1j * np.linspace(0.1, 6.0, 5))
    lams = list(poisson_probabilities(grid12, zs))
    for z, lam in zip(zs, lams):
        kern = (1.0 - abs(z) ** 2) / np.abs(1.0 - np.conj(grid12.points) * z) ** 2
        assert np.array_equal(lam, kern / kern.sum())
    logw = np.log(w.values)
    pw = [float(lam @ w.values) for lam in lams]
    assert ok.poisson_characteristics(w, zs) == (
        max(a * float(lam @ (1.0 / w.values)) for a, lam in zip(pw, lams)),
        max(a * float(np.exp(-(lam @ logw))) for a, lam in zip(pw, lams)))
    assert np.array_equal(ok.generalized_entropy(w, zs),
                          [np.log(a) - float(lam @ logw) for a, lam in zip(pw, lams)])
    # every point is checked before any probability is made, and the message names it
    with pytest.raises(ValueError, match=r"z = \(0\.3\+1\.1j\)"):
        poisson_probabilities(grid12, [0.5, 0.3 + 1.1j])
    for caller in (ok.poisson_characteristics, ok.generalized_entropy):
        for bad, named in ((1.0, r"z = \(1\+0j\)"), (np.nan, r"z = \(nan\+0j\)")):
            with pytest.raises(ValueError, match=named):
                caller(w, [0.2j, bad])
    # no points at all is an error naming the argument, in both callers
    with pytest.raises(ValueError, match="z_samples"):
        poisson_probabilities(grid12, [])
    for caller in (ok.poisson_characteristics, ok.generalized_entropy):
        with pytest.raises(ValueError, match="z_samples"):
            caller(w, [])


def test_duality_map_subnormal_moduli():
    y = np.array([3e-310 + 3e-310j, 1.0 - 2.0j, 0.0, -5e-320])
    for p in (1.5, 3.0):
        out = duality_map(y, p)
        assert np.all(np.isfinite(out))
        nonzero = out != 0
        units = np.array([(1.0 + 1.0j) / np.sqrt(2.0), (1.0 - 2.0j) / np.sqrt(5.0), 0.0, -1.0])
        assert_allclose(out[nonzero] / np.abs(out[nonzero]), units[nonzero], rtol=1e-12)
    assert abs(duality_map(y, 1.5)[0]) > 0
    # normal moduli keep every bit of the unguarded formula
    rng = np.random.default_rng(2)
    z = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    az = np.abs(z)
    ref = (az / az.max(axis=-1, keepdims=True)) ** 2.0 * (z / az)
    assert np.array_equal(duality_map(z, 3.0), ref)
