"""Weighted Riesz projections, the commutator-difference operator Q_{w,p},
and induced L^p operator-norm estimation.

All operators act on grid functions in the *unweighted* L^p(T); the weight
enters through conjugation, e.g. T_w f = w^{1/p} P^+ (w^{-1/p} f).  For
p = 2 norms are exact largest singular values of materialized matrices
(band-restricted inputs, or the full node basis on small grids); for
p != 2 the dual-norm power iteration, started from the top p = 2 right
singular vector, reports a lower bound with its convergence state.  Both
need a p = 2 matrix: a band, or N <= 2^10.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zherk

from .fits import fit_loglog
from .grid import (CircleGrid, GridFunction, duality_map, fourier_multiplier, lp_norms,
                   riesz_project)  # noqa: F401  (riesz_project: the GridFunction form of P+)
from .weights import Weight, make_weight

_BLOCK = 16  # inputs per probe call when materializing; 16 x 2^14 complex is 4 MB


@dataclass
class OperatorProbe:
    """A linear operator on grid values and its adjoint, both mapping a (..., N)
    stack to a stack of the same shape, row by row along the last axis.  A probe with
    `terms` ((left, (lo, hi), right), ...) is x -> sum of left * F^-1 1_[lo, hi] F(right * x),
    F the DFT and 1_[lo, hi] the mask of signed frequencies lo..hi."""

    grid: CircleGrid
    apply: callable                 # values (..., N) -> values (..., N)
    adjoint: callable               # adjoint w.r.t. the unweighted L^2 pairing
    band: int | None
    p: float
    description: str
    terms: tuple = ()

    def check_linearity(self) -> bool:
        """apply(a f + b g) = a apply(f) + b apply(g) to 1e-10 relative, on two chirps
        that fill the whole spectrum."""
        t = self.grid.nodes
        f, g = np.exp(1j * t * t), (1.0 + t) * np.exp(-3j * t * t)
        a, b = 0.7 - 0.3j, -1.2 + 0.4j
        lhs = self.apply(a * f + b * g)
        rhs = a * self.apply(f) + b * self.apply(g)
        scale = max(np.max(np.abs(lhs)), 1.0)
        return bool(np.max(np.abs(lhs - rhs)) < 1e-10 * scale)


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
    if p <= 1.0:
        raise ValueError("p > 1 required")
    u = w.values ** (1.0 / p)
    return _term_probe(w.grid, ((u, (0, w.grid.size // 2 - 1), 1.0 / u),), band, p,
                       f"w^(1/p) P+ w^(-1/p), p={p}, family={w.family}")


def probe_difference(a: OperatorProbe, b: OperatorProbe) -> OperatorProbe:
    if a.grid.log2_size != b.grid.log2_size or not (a.terms and b.terms):
        raise ValueError("probe_difference takes two probes built from terms on one grid")
    return _term_probe(a.grid, a.terms + tuple((-left, bd, right) for left, bd, right in b.terms),
                       a.band if a.band is not None else b.band, a.p,
                       f"({a.description}) - ({b.description})")


def build_Q(w: Weight, p: float, n: int) -> OperatorProbe:
    """Q_{w,p} = -w^{-1/p'} P_{n-1} w^{1/p'} + w^{1/p} P_{n-1} w^{-1/p},

    with P_{n-1} the band truncation to frequencies 0..n-1.  Antisymmetric
    at p = 2; satisfies zeta_n = w^{1/p} z^n + Q zeta_n for zeta_n = w^{1/p} Phi_n.
    """
    if p <= 1.0:
        raise ValueError("p > 1 required")
    if n >= w.grid.size // 4:
        raise ValueError("band cap n must stay below N/4")
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


def _materialize(probe: OperatorProbe, inputs) -> np.ndarray:
    """(N, k) matrix of the probe applied to inputs (k, rows), where rows(lo, hi)
    returns the stack of inputs lo..hi-1; only one _BLOCK of them is built at a time."""
    k, rows = inputs
    out = np.empty((k, probe.grid.size), dtype=complex)
    for lo in range(0, k, _BLOCK):
        hi = min(lo + _BLOCK, k)
        out[lo:hi] = _on_stack(probe, probe.apply, rows(lo, hi))
    return out.T


def _materialize_terms(probe: OperatorProbe, band: int, rows) -> np.ndarray:
    """materialize_band of a probe with terms, on inputs x_k = e^{ik theta}/sqrt(N).

    On the half-step grid fft(right x_k)[j] = e^{i pi k/N} fft(right)[j - k] / sqrt(N):
    a block of a term's columns is a shifted view of one spectrum, masked, and one
    in-place inverse FFT.  A term with constant left and right maps x_k, which
    rows(lo, hi, out) writes, to left right x_k in its band and to 0 outside."""
    n, freqs = probe.grid.size, probe.grid.freqs
    ks = np.arange(-band, band + 1)
    phase = np.exp(1j * np.pi * ks / n)[:, None] / np.sqrt(n)
    out = np.zeros((len(ks), n), dtype=complex)
    buf = np.empty((_BLOCK, n), dtype=complex)
    for left, (blo, bhi), right in probe.terms:
        const = np.all(left == left[0]) and np.all(right == right[0])
        # row n - k of `shifted` is fft(right) rolled by k
        shifted = None if const else np.lib.stride_tricks.sliding_window_view(
            np.tile(np.fft.fft(right), 3), n)
        for lo in range(0, len(ks), _BLOCK):
            hi = min(lo + _BLOCK, len(ks))
            blk = buf[: hi - lo]
            if const:
                rows(lo, hi, blk)
                blk *= left[0] * right[0] * ((ks[lo:hi, None] >= blo) & (ks[lo:hi, None] <= bhi))
            else:
                np.multiply(shifted[n - ks[lo]: n - ks[hi - 1] - 1: -1], phase[lo:hi], out=blk)
                blk *= (freqs >= blo) & (freqs <= bhi)
                np.fft.ifft(blk, axis=-1, out=blk)
                blk *= left
            out[lo:hi] += blk
    return out.T


def materialize_band(probe: OperatorProbe, band: int) -> np.ndarray:
    """Matrix of the probe restricted to inputs e^{ik theta}, |k| <= band.

    Columns are scaled by 1/sqrt(N) so singular values equal operator norms
    between the discrete L^2 spaces.  A probe with terms takes `_materialize_terms`.
    """
    grid = probe.grid
    if band >= grid.size // 2:
        raise ValueError("band exceeds the grid Nyquist range")
    # a block of consecutive k is a fixed table of e^{ij theta}, j < _BLOCK,
    # times one row e^{i k_lo theta}: one complex exponential row per block
    steps = np.exp(1j * np.arange(_BLOCK)[:, None] * grid.nodes) / np.sqrt(grid.size)

    def rows(lo, hi, out=None):
        return np.multiply(steps[: hi - lo], np.exp(1j * (lo - band) * grid.nodes), out=out)

    if probe.terms:
        return _materialize_terms(probe, band, rows)
    return _materialize(probe, (2 * band + 1, rows))


def compress_band(probe: OperatorProbe, band: int) -> np.ndarray:
    """Square compression <T e_b, e_a> for |a|, |b| <= band (discrete L^2 pairing)."""
    ks = np.arange(-band, band + 1)
    scale = np.sqrt(probe.grid.size)
    return probe.grid.analyze(materialize_band(probe, band).T)[:, ks].T * scale


def materialize_full(probe: OperatorProbe) -> np.ndarray:
    n = probe.grid.size
    if n > 1024:
        raise ValueError("full materialization is restricted to N <= 2^10")
    return _materialize(probe, (n, lambda lo, hi: np.eye(hi - lo, n, lo, dtype=complex)))


def power_method_lp(probe: OperatorProbe, p: float, x0: np.ndarray,
                    max_iters: int = 100) -> tuple:
    """Boyd's dual-norm iteration from one start (N,) or a stack of starts (T, N).

    Each start stops on its own test and then leaves the stack.  For every
    start the ratio ||Tx||_p / ||x||_p is monotone non-decreasing, so the
    result is a certified lower bound; a start stops once the ratio gains less
    than a factor 1 + 1e-11.  Returns (best ratio over starts,
    all starts converged, most iterations any start used).
    """
    q = p / (p - 1.0)
    stack = np.ndim(x0) == 2  # a single start reaches the probe as a single vector
    call = (lambda f, x: _on_stack(probe, f, x) if stack else f(x[0])[None])
    x = np.atleast_2d(x0)
    x = x / lp_norms(x, (p,))[0][:, None]
    best = np.zeros(len(x))
    iters = np.full(len(x), max_iters)
    live = np.arange(len(x))  # start index of each row of x
    for it in range(max_iters):
        y = call(probe.apply, x)
        r = lp_norms(y, (p,))[0]
        stop = r <= best[live] * (1.0 + 1e-11)
        best[live] = np.where(stop, np.maximum(best[live], r), r)
        if not stop.all():
            x = duality_map(call(probe.adjoint, duality_map(y[~stop], p)), q)
            nx = lp_norms(x, (p,))[0]
            keep = nx > 0.0  # a start whose iterate has norm 0 (or NaN) stops here
            stop[~stop] = ~keep
            x = x[keep] / nx[keep, None]
        iters[live[stop]] = it
        live = live[~stop]
        if live.size == 0:
            break
    return float(best.max()), bool(np.all(iters < max_iters)), int(iters.max())


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
    vals, vecs = np.linalg.eigh(zherk(1.0, mat, trans=2), UPLO="U")  # zherk: upper triangle
    return max(vals[-1], 0.0), vecs[:, -1]


def operator_norm(probe: OperatorProbe) -> NormEstimate:
    """Induced L^p -> L^p norm of the probe, p = probe.p.

    p = 2: the exact largest singular value, from `_top_eigenpair`.  p != 2:
    the dual-norm power method started from that pair's right singular
    vector, a lower bound; non-convergence returns the best ratio so far,
    flagged.
    """
    top, v = _top_eigenpair(probe)
    if probe.p == 2.0:
        return NormEstimate(float(np.sqrt(top)), "exact_svd_p2")
    x0 = np.array([v])  # a stack of one start: band coefficients, or node values
    if probe.band is not None:
        coeffs = np.zeros((1, probe.grid.size), dtype=complex)
        coeffs[:, np.arange(-probe.band, probe.band + 1)] = x0
        x0 = probe.grid.synthesize(coeffs)
    best, converged, iters = power_method_lp(probe, probe.p, x0)
    return NormEstimate(best, "power_method_p", converged=converged, iterations=iters)


# ---------------------------------------------------------------------------
# weight-continuity experiment
# ---------------------------------------------------------------------------

def continuity_experiment(w: Weight, f: GridFunction, p: float, deltas,
                          band: int = 64) -> dict:
    """Distances d(delta) = ||T(w e^{delta f}) - T(w)||_{p,p} and the log-log slope.

    Exact band-restricted norms at p = 2, power-method lower bounds otherwise.
    Rows are (delta, distance); the caller wraps them into experiment records.
    `estimates` holds each row's NormEstimate, with its convergence state.
    """
    deltas = np.asarray(sorted(deltas, reverse=True), dtype=float)
    if np.any(deltas <= 0):
        raise ValueError("deltas must be positive")
    fv = f.real_values()
    base = weighted_riesz(w, p, band=band)
    estimates = []
    for delta in deltas:
        wd = make_weight("perturbed", {"base": w, "f": fv, "delta": delta}, w.grid,
                         normalize=False)
        diff = probe_difference(weighted_riesz(wd, p, band=band), base)
        estimates.append(operator_norm(diff))
    rows = [(float(delta), est.value) for delta, est in zip(deltas, estimates)]
    slope, intercept, r2 = fit_loglog(deltas, [r[1] for r in rows])
    return {"rows": rows, "estimates": estimates, "slope": slope, "intercept": intercept,
            "r2": r2, "p": p, "band": band}
