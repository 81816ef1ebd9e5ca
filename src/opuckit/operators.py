"""Weighted Riesz projections, the commutator-difference operator Q_{w,p},
and induced L^p operator-norm estimation.

All operators act on grid functions in the *unweighted* L^p(T); the weight
enters through conjugation, e.g. T_w f = w^{1/p} P^+ (w^{-1/p} f).  For
p = 2 norms are exact largest singular values of materialized matrices
(band-restricted inputs, or the full node basis on small grids); for
p != 2 the dual-norm power iteration reports certified lower bounds with
trial metadata.
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
    stack to a stack of the same shape, row by row along the last axis."""

    grid: CircleGrid
    apply: callable                 # values (..., N) -> values (..., N)
    adjoint: callable               # adjoint w.r.t. the unweighted L^2 pairing
    band: int | None
    p: float
    description: str

    def check_linearity(self, seed: int = 0, tol: float = 1e-10) -> bool:
        rng = np.random.default_rng(seed)
        n = self.grid.size
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a, b = 0.7 - 0.3j, -1.2 + 0.4j
        lhs = self.apply(a * f + b * g)
        rhs = a * self.apply(f) + b * self.apply(g)
        scale = max(np.max(np.abs(lhs)), 1.0)
        return bool(np.max(np.abs(lhs - rhs)) < tol * scale)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str                     # exact_svd_p2 | power_method_p | random_probe
    trials: int
    seed: int
    converged: bool = True
    iterations: int = 0             # most power-method iterations any trial used

    def __post_init__(self):
        if self.method == "exact_svd_p2" and self.value < 0:
            raise ValueError("singular values are nonnegative")


def weighted_riesz(w: Weight, p: float, band: int | None = None) -> OperatorProbe:
    """f -> w^{1/p} P^+ (w^{-1/p} f) on grid functions."""
    if p <= 1.0:
        raise ValueError("p > 1 required")
    u = w.values ** (1.0 / p)
    keep = (0, w.grid.size // 2 - 1)

    def apply(x):
        return u * fourier_multiplier(x / u, keep)

    def adjoint(x):
        return (1.0 / u) * fourier_multiplier(u * x, keep)

    return OperatorProbe(w.grid, apply, adjoint, band, p,
                         f"w^(1/p) P+ w^(-1/p), p={p}, family={w.family}")


def probe_difference(a: OperatorProbe, b: OperatorProbe) -> OperatorProbe:
    if a.grid.log2_size != b.grid.log2_size:
        raise ValueError("probes live on different grids")
    return OperatorProbe(
        a.grid,
        lambda x: a.apply(x) - b.apply(x),
        lambda x: a.adjoint(x) - b.adjoint(x),
        a.band if a.band is not None else b.band,
        a.p,
        f"({a.description}) - ({b.description})",
    )


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

    def apply(x):
        return -fourier_multiplier(v * x, band) / v + u * fourier_multiplier(x / u, band)

    def adjoint(x):
        return -v * fourier_multiplier(x / v, band) + fourier_multiplier(u * x, band) / u

    return OperatorProbe(w.grid, apply, adjoint, 2 * n, p,
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


def materialize_band(probe: OperatorProbe, band: int) -> np.ndarray:
    """Matrix of the probe restricted to inputs e^{ik theta}, |k| <= band.

    Columns are scaled by 1/sqrt(N) so singular values equal operator norms
    between the discrete L^2 spaces.
    """
    grid = probe.grid
    if band >= grid.size // 2:
        raise ValueError("band exceeds the grid Nyquist range")
    # a block of consecutive k is a fixed table of e^{ij theta}, j < _BLOCK,
    # times one row e^{i k_lo theta}: one complex exponential row per block
    steps = np.exp(1j * np.arange(_BLOCK)[:, None] * grid.nodes) / np.sqrt(grid.size)
    return _materialize(probe, (2 * band + 1, lambda lo, hi: (
        steps[: hi - lo] * np.exp(1j * (lo - band) * grid.nodes))))


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
                    max_iters: int = 100, tol: float = 1e-11) -> tuple:
    """Boyd's dual-norm iteration from one start (N,) or a stack of starts (T, N).

    Each start stops on its own test and then leaves the stack.  For every
    start the ratio ||Tx||_p / ||x||_p is monotone non-decreasing, so the
    result is a certified lower bound.  Returns (best ratio over starts,
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
        stop = r <= best[live] * (1.0 + tol)
        best[live] = np.where(stop, np.maximum(best[live], r), r)
        if not stop.all():
            x = duality_map(call(probe.adjoint, duality_map(y[~stop], p)), q)
            nx = lp_norms(x, (p,))[0]
            stop[~stop] = nx == 0.0
            x = x[nx > 0.0] / nx[nx > 0.0, None]
        iters[live[stop]] = it
        live = live[~stop]
        if live.size == 0:
            break
    return float(best.max()), bool(np.all(iters < max_iters)), int(iters.max())


def operator_norm(probe: OperatorProbe, method: str = "auto", trials: int = 8,
                  seed: int = 0) -> NormEstimate:
    """Induced L^p -> L^p norm estimate.

    p = 2: exact largest singular value, as the root of the top eigenvalue
    of M^H M (M the full node-basis matrix for N <= 2^10, else the band
    restriction from probe.band).  p != 2: dual-norm power method over
    `trials` random starts, iterated as one stack and reported as a lower
    bound; non-convergence returns best-so-far flagged.
    """
    grid = probe.grid
    p = probe.p
    if method == "auto":
        method = "exact_svd_p2" if p == 2.0 else "power_method_p"

    if method == "exact_svd_p2":
        if p != 2.0:
            raise ValueError("exact SVD applies at p = 2 only")
        if grid.size <= 1024 and probe.band is None:
            mat = materialize_full(probe)
        elif probe.band is None:
            raise ValueError("probe needs a band for exact p=2 norms on large grids")
        else:
            mat = materialize_band(probe, probe.band)
        # sqrt of the top eigenvalue of M^H M (zherk fills its upper triangle)
        top = np.linalg.eigvalsh(zherk(1.0, mat, trans=2), UPLO="U")[-1]
        return NormEstimate(float(np.sqrt(max(top, 0.0))), "exact_svd_p2", trials=0, seed=seed)

    # per trial, in trial order: the real parts, then the imaginary parts of
    # the band coefficients (or of the node values when there is no band)
    ks = np.arange(grid.size) if probe.band is None else np.arange(-probe.band, probe.band + 1)
    draws = np.random.default_rng(seed).standard_normal((max(trials, 1), 2, len(ks)))
    x0 = draws[:, 0] + 1j * draws[:, 1]
    if probe.band is not None:
        coeffs = np.zeros((len(x0), grid.size), dtype=complex)
        coeffs[:, ks] = x0
        x0 = grid.synthesize(coeffs)
    if method == "random_probe":
        best = float(np.max(lp_norms(_on_stack(probe, probe.apply, x0), (p,))[0]
                             / lp_norms(x0, (p,))[0]))
        return NormEstimate(best, method, trials=trials, seed=seed)
    best, converged, iters = power_method_lp(probe, p, x0)
    return NormEstimate(best, method, trials=trials, seed=seed, converged=converged,
                        iterations=iters)


# ---------------------------------------------------------------------------
# weight-continuity experiment
# ---------------------------------------------------------------------------

def continuity_experiment(w: Weight, f: GridFunction, p: float, deltas,
                          seed: int = 0, band: int = 64, trials: int = 6) -> dict:
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
        estimates.append(operator_norm(diff, method="auto", trials=trials, seed=seed))
    rows = [(float(delta), est.value) for delta, est in zip(deltas, estimates)]
    d = np.array([r[1] for r in rows])
    if np.all(d > 0):
        slope, intercept, r2 = fit_loglog(deltas, d)
    else:
        slope, intercept, r2 = float("nan"), float("nan"), float("nan")
    return {"rows": rows, "estimates": estimates, "slope": slope, "intercept": intercept,
            "r2": r2, "p": p, "band": band, "seed": seed}
