"""Weighted Riesz projections, the commutator-difference operator Q_{w,p},
and induced L^p operator-norm estimation.

All operators act on grid functions in the *unweighted* L^p(T); the weight enters
through conjugation, e.g. T_w f = w^{1/p} P^+ (w^{-1/p} f).  For p = 2 norms are exact
largest singular values of materialized matrices (band-restricted inputs, or the full
node basis on small grids); for p != 2 the dual-norm power iteration, started from the
top p = 2 right singular vector, reports a lower bound with its convergence state.  Both
need a p = 2 matrix (a band, or N <= 2^10) or the probe's own p = 2 pair.  One
materializer builds every such matrix, each column through the probe's `apply`.  The
continuity difference u P+ u^{-1} - P+ over a constant base weight has such a pair,
`_commutator_pair`: its band Gram has displacement rank 4, so a few length-N FFTs give
it; any other base materializes the band (0.25 s per distance at N = 2^14, band 64).
Every exact p = 2 pair, the projection probe's in `opuc` too, ends in one subset
eigensolve of the top index only, `_top_pair`, or in the full solve where that returns
no eigenvalue inside an exact top cluster.  numpy and scipy bundle separate
OpenBLAS builds, and alternating calls between their thread pools cost about 6x on
2 cores, so the Gram product and the eigensolver are both scipy's.
"""

import dataclasses
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import LinAlgError, blas, eigh

from .fits import fit_loglog
from .grid import (CircleGrid, GridFunction, _is_integer, _is_real, duality_map,
                   fourier_multiplier, lp_norms,
                   riesz_project)  # noqa: F401  (riesz_project: the GridFunction form of P+)
from .weights import Weight, make_weight

_BLOCK = 16  # inputs per probe call when materializing; 16 x 2^14 complex is 4 MB
_POWER_STEPS = 20  # power_method_lp's cap on steps


def check_exponent(p: float, what: str):
    """The one exponent check of every probe: p in (1, inf)."""
    if not (_is_real(p) and 1.0 < p < np.inf):
        raise ValueError(f"{what} needs p in (1, inf), got p = {p!r}")


def check_band(band, n: int, what: str):
    """The one band check of every probe: an integer 0 <= band < N/2."""
    if not (_is_integer(band) and 0 <= band < n // 2):
        raise ValueError(f"{what} needs an integer band with 0 <= band < N/2 = {n // 2}, "
                         f"got band = {band!r}")


@dataclass
class OperatorProbe:
    """A linear operator on grid values and its adjoint, both mapping a (..., N)
    stack to a stack of the same shape, row by row along the last axis.  A probe with
    `terms` ((left, (lo, hi), right), ...) is x -> sum of left * F^-1 1_[lo, hi] F(right * x),
    F the DFT and 1_[lo, hi] the mask of signed frequencies lo..hi.  A probe with
    `p2_pair` supplies its own exact p = 2 pair for `operator_norm`."""

    grid: CircleGrid
    apply: callable                 # values (..., N) -> values (..., N)
    adjoint: callable               # adjoint w.r.t. the unweighted L^2 pairing
    band: int | None
    p: float
    description: str
    terms: tuple = ()
    p2_pair: callable = None        # () -> (lambda, v), as `_top_eigenpair` returns them

    def __post_init__(self):
        check_exponent(self.p, f"probe '{self.description}'")
        if self.band is not None:
            check_band(self.band, self.grid.size, f"probe '{self.description}'")


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str                     # exact_svd_p2 | power_method_p
    converged: bool = True
    iterations: int = 0             # power-method iterations

    def __post_init__(self):
        if self.method == "exact_svd_p2" and self.value < 0:
            raise ValueError("singular values are nonnegative")


def _term_probe(grid: CircleGrid, terms: tuple, band, p: float, description: str):
    def apply(x):
        return sum(left * fourier_multiplier(right * x, bd) for left, bd, right in terms)

    def adjoint(x):  # the band mask is self-adjoint
        return sum(np.conj(right) * fourier_multiplier(np.conj(left) * x, bd)
                   for left, bd, right in terms)

    return OperatorProbe(grid, apply, adjoint, band, p, description, tuple(terms))


def weighted_riesz(w: Weight, p: float, band: int | None = None) -> OperatorProbe:
    """f -> w^{1/p} P^+ (w^{-1/p} f) on grid functions."""
    check_exponent(p, "weighted_riesz")
    u = w.values ** (1.0 / p)
    return _term_probe(w.grid, ((u, (0, w.grid.size // 2 - 1), 1.0 / u),), band, p,
                       f"w^(1/p) P+ w^(-1/p), p={p}, family={w.family}")


def probe_difference(a: OperatorProbe, b: OperatorProbe) -> OperatorProbe:
    if a.grid.log2_size != b.grid.log2_size or not (a.terms and b.terms) or a.p != b.p:
        raise ValueError(f"probe_difference takes two probes built from terms on one grid "
                         f"at one exponent, got p = {a.p} and p = {b.p}")
    return _term_probe(a.grid, a.terms + tuple((-left, bd, right) for left, bd, right in b.terms),
                       a.band if a.band is not None else b.band, a.p,
                       f"({a.description}) - ({b.description})")


def build_Q(w: Weight, p: float, n: int) -> OperatorProbe:
    """Q_{w,p} = -w^{-1/p'} P_{n-1} w^{1/p'} + w^{1/p} P_{n-1} w^{-1/p},

    with P_{n-1} the band truncation to frequencies 0..n-1.  Antisymmetric
    at p = 2; satisfies zeta_n = w^{1/p} z^n + Q zeta_n for zeta_n = w^{1/p} Phi_n.
    """
    check_exponent(p, "build_Q")
    if not (_is_integer(n) and 0 <= n < w.grid.size // 4):
        raise ValueError(f"band cap n must be an integer with 0 <= n < N/4, got n = {n!r} "
                         f"with N = {w.grid.size}")
    q = p / (p - 1.0)
    u = w.values ** (1.0 / p)        # w^{1/p}
    v = w.values ** (1.0 / q)        # w^{1/p'}
    band = (0, n - 1)
    return _term_probe(w.grid, ((-1.0 / v, band, v), (u, band, 1.0 / u)), 2 * n, p,
                       f"Q_(w,p) with band {n}, p={p}, family={w.family}")


def _on_stack(probe: OperatorProbe, fn, x: np.ndarray) -> np.ndarray:
    # fn is probe.apply or probe.adjoint; a probe that ignores the stack axis
    # would otherwise return wrong numbers without an error
    y = fn(x)
    if np.shape(y) != x.shape:
        raise ValueError(f"probe '{probe.description}' must map a stack of shape "
                         f"{x.shape} to the same shape, got {np.shape(y)}")
    return y


def _materialize(probe: OperatorProbe, k: int, rows) -> np.ndarray:
    """(N, k) matrix of the probe on k inputs; rows(lo, hi) builds inputs lo..hi-1."""
    out = np.empty((k, probe.grid.size), dtype=complex)
    for lo in range(0, k, _BLOCK):
        hi = min(lo + _BLOCK, k)
        out[lo:hi] = _on_stack(probe, probe.apply, rows(lo, hi))
    return out.T


def materialize_band(probe: OperatorProbe, band: int) -> np.ndarray:
    """Matrix of the probe restricted to inputs e^{ik theta}, |k| <= band.

    Columns are scaled by 1/sqrt(N) so singular values equal operator norms
    between the discrete L^2 spaces.
    """
    grid = probe.grid
    check_band(band, grid.size, f"materialize_band of probe '{probe.description}'")
    # inputs lo..hi-1: e^{ij theta}/sqrt(N), j < _BLOCK, times e^{i k_lo theta}
    steps = np.exp(1j * np.arange(_BLOCK)[:, None] * grid.nodes) / np.sqrt(grid.size)
    return _materialize(probe, 2 * band + 1,
                        lambda lo, hi: steps[: hi - lo] * np.exp(1j * (lo - band) * grid.nodes))


def compress_band(probe: OperatorProbe, band: int) -> np.ndarray:
    """Square compression <T e_b, e_a> for |a|, |b| <= band (discrete L^2 pairing)."""
    check_band(band, probe.grid.size, f"compress_band of probe '{probe.description}'")
    ks = np.arange(-band, band + 1)
    scale = np.sqrt(probe.grid.size)
    return probe.grid.analyze(materialize_band(probe, band).T)[:, ks].T * scale


def materialize_full(probe: OperatorProbe) -> np.ndarray:
    n = probe.grid.size
    if n > 1024:
        raise ValueError(f"materialize_full of probe '{probe.description}' needs N <= 2^10, "
                         f"got N = {n}")
    return _materialize(probe, n, lambda lo, hi: np.eye(hi - lo, n, lo, dtype=complex))


def power_method_lp(probe: OperatorProbe, x0: np.ndarray) -> tuple:
    """Boyd's dual-norm iteration at p = probe.p from one start x0 (N,).

    The ratio ||Tx||_p / ||x||_p is monotone non-decreasing, so the result is
    a certified lower bound.  The iteration stops as converged once the ratio
    gains less than a factor 1 + 1e-11, or at an iterate of norm 0 (or NaN);
    else after _POWER_STEPS steps.  Returns (best ratio, converged, iterations).
    """
    p = probe.p
    q = p / (p - 1.0)
    x, best = x0 / lp_norms(x0, (p,))[0], 0.0
    for it in range(_POWER_STEPS):
        y = _on_stack(probe, probe.apply, x)
        r = lp_norms(y, (p,))[0]
        if r <= best * (1.0 + 1e-11):
            return float(max(best, r)), True, it
        best = r
        x = duality_map(_on_stack(probe, probe.adjoint, duality_map(y, p)), q)
        nx = lp_norms(x, (p,))[0]
        if not nx > 0.0:
            return float(best), True, it
        x = x / nx
    return float(best), False, _POWER_STEPS


def _top_pair(form) -> tuple:
    """(largest eigenvalue clipped at 0, its unit eigenvector) of the Hermitian matrix
    that `form()` returns, from its upper triangle; the matrix is overwritten.  The `evr`
    driver solves for the top index only.  Inside an exact top cluster, such as the
    (n+1)-fold top eigenvalue of a projection at p = 2, it may return no eigenvalue or
    fail; then the matrix is formed again, not copied beforehand, for the full `evd` solve."""
    gram = form()
    k = gram.shape[0]
    try:
        vals, vecs = eigh(gram, lower=False, overwrite_a=True, driver="evr",
                          subset_by_index=[k - 1, k - 1])
    except LinAlgError:
        vals = ()
    if len(vals):
        return max(vals[0], 0.0), vecs[:, 0]
    del gram
    vals, vecs = eigh(form(), lower=False, overwrite_a=True, driver="evd")
    return max(vals[-1], 0.0), vecs[:, -1]


def _top_eigenpair(probe: OperatorProbe) -> tuple:
    """Top eigenpair (lambda, v) of M^H M, M the probe's band restriction, or its full
    node-basis matrix for N <= 2^10 without a band: sqrt(lambda) is the exact p = 2
    norm and v the top right singular vector of M, in M's column basis."""
    if probe.band is not None:
        mat = materialize_band(probe, probe.band)
    elif probe.grid.size <= 1024:
        mat = materialize_full(probe)
    else:
        raise ValueError(f"probe '{probe.description}' has no band and N = {probe.grid.size} "
                         f"> 2^10: the p = 2 norm and the p != 2 start both need a band "
                         f"or N <= 2^10")
    return _top_pair(partial(blas.zherk, 1.0, mat, trans=2))  # one OpenBLAS: scipy's


def _commutator_pair(probe: OperatorProbe) -> tuple:
    """`_top_eigenpair` of u P+ u^{-1} - P+ on the probe's band, without the band matrix.

    (u, P+, 1/u) is probe.terms[0].  With R = fft(1/u), W = fft(u^2), m the mask of bins
    0..N/2-1 and phi_k = e^{i pi k/N}, the half-step grid's shift identity for inputs
    x_k = e^{ik theta}/sqrt(N), fft(x_k / u) = phi_k/sqrt(N) roll(R, k), gives column
    k = s_k phi_k/sqrt(N) u ifft(A_k), A_k = mask_k * roll(R, k): mask 1 - m and s = -1 for
    k >= 0 (x_k - u P+ u^{-1} x_k = u (1 - P+) u^{-1} x_k), mask m and s = +1 for k < 0.
    So G_jk = s_j s_k conj(phi_j) phi_k N^-3 A_j^H C A_k with C[a, b] = W[a - b] =
    N F diag(u^2) F^-1 circulant.  Within a sign half, A_{k+1} = Z A_k + d_k, Z the cyclic
    shift and d_k = s_k (R[-1-k] e_0 - R[N/2-1-k] e_{N/2}), and Z^H C Z = C, so

        A_{j+1}^H C A_{k+1} - A_j^H C A_k = d_j^H y_k + y_j^H d_k + d_j^H C d_k,  y_k = C Z A_k,

    of rank <= 4, reading y_k at bins 0 and N/2 only.  Those, and the first row of
    each block, are correlations sum_b h[b] R[b - k] = N ifft(fft(h) / u)[k]; the rest
    of the upper triangle follows by one row update per input.
    """
    u, _, rinv = probe.terms[0]
    n, band = u.size, probe.band
    half = n // 2
    u2 = u * u
    spec, w_hat = np.fft.fft(rinv), np.fft.fft(u2)
    low = np.arange(n) < half
    # C A_k at the first input of each half: k = -band under m, k = 0 under 1 - m
    firsts = np.array([np.where(low, np.roll(spec, -band), 0.0), np.where(low, 0.0, spec)])
    c_first = n * np.fft.fft(u2 * np.fft.ifft(firsts, axis=-1), axis=-1)
    w_rev = w_hat[::-1]  # y_k[a] = sum_c W[a - 1 - c] A_k[c]
    h = [np.roll(w_rev, a) * mask for mask in (low, ~low) for a in (0, half)]
    h += [np.conj(c) * mask for c in c_first for mask in (low, ~low)]
    corr = n * np.fft.ifft(np.fft.fft(h, axis=-1) * rinv, axis=-1)

    ks = np.arange(-band, band + 1)
    s = np.where(ks < 0, 1.0, -1.0)
    d = s[:, None] * np.stack([spec[-1 - ks], -spec[(half - 1 - ks) % n]], axis=-1)
    y = np.where((ks < 0)[:, None], corr[[0, 1]][:, ks].T, corr[[2, 3]][:, ks].T)
    w2 = np.array([[w_hat[0], w_hat[half]], [w_hat[half], w_hat[0]]])
    upd = np.conj(d) @ (y + d @ w2).T + np.conj(y) @ d.T  # w2 is symmetric: W[N/2] is real

    def form():
        # the lower triangle is never written, but eigh checks all of it for NaN and inf
        gram = np.zeros((2 * band + 1, 2 * band + 1), dtype=complex)
        for r in range(2 * band + 1):
            if r == band:  # first row of the k >= 0 block
                gram[r, r:] = corr[7, ks[band:]]
            elif r == 0:  # first rows of the k < 0 and the (k < 0, k >= 0) blocks
                gram[r] = np.concatenate([corr[4, ks[:band]], corr[5, ks[band:]]])
            else:
                gram[r, r:] = gram[r - 1, r - 1:-1] + upd[r - 1, r - 1:-1]
                if r < band:  # first column of the (k < 0, k >= 0) block
                    gram[r, band] = np.conj(corr[6, ks[r]])
        gram /= float(n) ** 3
        return gram

    top, v = _top_pair(form)
    return top, s * np.exp(-1j * np.pi * ks / n) * v


def operator_norm(probe: OperatorProbe) -> NormEstimate:
    """Induced L^p -> L^p norm of the probe, p = probe.p.

    p = 2: the exact largest singular value, from the probe's `p2_pair` or
    else `_top_eigenpair`.  p != 2: the dual-norm power method started from
    that pair's right singular vector, a lower bound; non-convergence returns
    the best ratio so far, flagged.
    """
    top, v = probe.p2_pair() if probe.p2_pair else _top_eigenpair(probe)
    if probe.p == 2.0:
        return NormEstimate(float(np.sqrt(top)), "exact_svd_p2")
    if probe.band is not None:  # v holds band coefficients; the start is node values
        coeffs = np.zeros(probe.grid.size, dtype=complex)
        coeffs[np.arange(-probe.band, probe.band + 1)] = v
        v = probe.grid.synthesize(coeffs)
    best, converged, iters = power_method_lp(probe, v)
    return NormEstimate(best, "power_method_p", converged=converged, iterations=iters)


# ---------------------------------------------------------------------------
# weight-continuity experiment
# ---------------------------------------------------------------------------

def continuity_experiment(w: Weight, f: GridFunction, p: float, deltas,
                          band: int = 64) -> dict:
    """Distances d(delta) = ||T(w e^{delta f}) - T(w)||_{p,p} and the log-log slope.

    Exact band-restricted norms at p = 2, power-method lower bounds otherwise.
    With a constant base the difference is u P+ u^{-1} - P+, and its p = 2 pair
    (also the p != 2 start) is `_commutator_pair`; any other base materializes
    the band.  Rows are (delta, distance); the caller wraps them into experiment
    records.  `estimates` holds each row's NormEstimate, with its convergence state.
    """
    raw = np.asarray(deltas, dtype=float)
    if not (raw.ndim == 1 and np.all(np.isfinite(raw)) and np.all(raw > 0)):
        raise ValueError(f"continuity_experiment needs every delta finite and > 0, "
                         f"got deltas = {raw.tolist()}")
    if len(set(raw.tolist())) < 2:
        raise ValueError(f"continuity_experiment fits a slope and needs at least two distinct "
                         f"deltas, got deltas = {raw.tolist()}")
    deltas = np.sort(raw)[::-1]
    fv = f.real_values()
    base = weighted_riesz(w, p, band=band)
    constant = np.all(w.values == w.values[0])
    estimates = []
    for delta in deltas:
        wd = make_weight("perturbed", {"base": w, "f": fv, "delta": delta}, w.grid,
                         normalize=False)
        diff = probe_difference(weighted_riesz(wd, p, band=band), base)
        if constant:
            diff = dataclasses.replace(diff, p2_pair=partial(_commutator_pair, diff))
        estimates.append(operator_norm(diff))
    rows = [(float(delta), est.value) for delta, est in zip(deltas, estimates)]
    slope, intercept, r2 = fit_loglog(deltas, [r[1] for r in rows])
    return {"rows": rows, "estimates": estimates, "slope": slope, "intercept": intercept,
            "r2": r2, "p": p, "band": band}
