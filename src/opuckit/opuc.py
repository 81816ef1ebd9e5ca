"""Szego recursion, Verblunsky coefficients, CD kernels, and finite projections.

The recursion is driven by moments, not samples: with monic polynomials
Phi_n and reversed polynomials Phi_n^* = z^n conj(Phi_n(1/conj(z))),

    Phi_{n+1}(z) = z Phi_n(z) - conj(alpha_n) Phi_n^*(z),
    conj(alpha_n) = <z Phi_n, 1> / E_n,      E_{n+1} = (1 - |alpha_n|^2) E_n,

where E_n = ||Phi_n||^2 and <f, g> = int f conj(g) dmu.  This is the
Levinson-Durbin recursion on the Toeplitz moment matrix; each step costs
one O(n) dot product, so a run to degree nmax is O(nmax^2) work.  The loop
exists once, in `_monic_rows`, which keeps only the current Phi_n in one
buffer, right-aligned so that z Phi_n is the same coefficients one slot
further left.  `szego_recursion` keeps the Verblunsky coefficients and
E_n, O(nmax) memory, and hands each row to an optional `on_row` callback as
the moment-driven pass makes it; `OPUCSystem.monic`, the O(nmax^2) table of
every row, is rebuilt on first use.  `steklov_norms` runs that pass in a
worker thread, which queues a copy of each wanted row (two at most), and
synthesizes and norms the rows on the calling thread in one O(N) workspace.

Because the moments come from grid samples, the polynomials are exactly
orthonormal for the discrete node measure, and every quadrature inner
product below inherits that exactness for degrees < N/2.  So `gram_matrix`
needs no grid values: it is table G table^H with G the Toeplitz matrix of
those moments.
"""

import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import blas, eigh

from .grid import (CircleGrid, GridFunction, MomentSequence, _is_degree, _is_real,
                   lp_norms, trig_moments)
from .operators import NormEstimate, OperatorProbe, check_exponent, operator_norm
from .weights import Weight


class RecursionBreakdownError(RuntimeError):
    """Loss of positive definiteness in the moment data (1 - |alpha_n|^2 <= 1e-13)."""

    def __init__(self, index: int, alpha: complex):
        self.index = index
        self.alpha = alpha
        super().__init__(
            f"Szego recursion broke down at step {index}: |alpha| = {abs(alpha):.17g}; "
            "the input is not a weight's moment sequence or is catastrophically conditioned"
        )


POSITIVITY_FLOOR = 1e-13


@dataclass
class OPUCSystem:
    """Verblunsky coefficients plus, on first use, the monic coefficient table.

    monic[n, :n+1] holds the coefficients of Phi_n (degree-n monic);
    kappa[n] = coeff_n(phi_n) = E_n^{-1/2} is the orthonormal leading
    coefficient, non-decreasing in n once c_0 <= 1.
    """

    nmax: int
    verblunsky: np.ndarray
    norms_sq: np.ndarray = field(repr=False)  # E_n = ||Phi_n||^2, n = 0..nmax
    weight: Weight | None = field(default=None, repr=False)

    @cached_property
    def monic(self) -> np.ndarray:
        """(nmax+1)^2 table, rebuilt from `verblunsky` (bitwise the rows the
        moment-driven run produced, since the update arithmetic is shared)."""
        monic = np.zeros((self.nmax + 1, self.nmax + 1), dtype=complex)
        for n, b in _monic_rows(self.nmax, self.verblunsky):
            monic[n, : n + 1] = b
        return monic

    @property
    def kappa(self) -> np.ndarray:
        return 1.0 / np.sqrt(self.norms_sq)

    def monic_coeffs(self, n: int) -> np.ndarray:
        self._check_degree(n)
        return self.monic[n, : n + 1]

    def orthonormal_coeffs(self, n: int) -> np.ndarray:
        self._check_degree(n)
        return self.monic[n, : n + 1] / np.sqrt(self.norms_sq[n])

    def orthonormal_table(self, n: int) -> np.ndarray:
        """Rows k = 0..n: coefficients of phi_k, zero padded to length n+1."""
        self._check_degree(n)
        return self.monic[: n + 1, : n + 1] / np.sqrt(self.norms_sq[: n + 1, None])

    def _check_degree(self, n: int):
        if not 0 <= n <= self.nmax:
            raise ValueError(f"degree {n} out of range [0, {self.nmax}]")


def _monic_rows(nmax: int, alphas: np.ndarray, moments: MomentSequence | None = None,
                norms_sq: np.ndarray | None = None):
    """Yield (n, coefficients of Phi_n) for n = 0..nmax: the one Szego recursion loop.

    Phi_n lives in buf[nmax - n:] of one buffer of length nmax + 1, so a
    yielded view is valid only until the next step, and z Phi_n is
    buf[nmax - n - 1:] once its first slot is zeroed: no copy.  With `moments`,
    each alpha_n comes from the Levinson-Durbin step and is written into
    `alphas`, and E_{n+1} into `norms_sq`; without, `alphas` is read.
    """
    buf = np.zeros(nmax + 1, dtype=complex)
    buf[nmax] = 1.0
    if moments is not None:
        cc = np.conj(moments.c)
        norms_sq[0] = moments.c[0].real
    for n in range(nmax + 1):
        b = buf[nmax - n:]
        yield n, b
        if n == nmax:
            return
        if moments is None:
            abar = np.conj(alphas[n])
        else:
            # <z Phi_n, 1> = sum_j b_j conj(c_{j+1})
            abar = np.dot(b, cc[1: n + 2]) / norms_sq[n]
            gap = 1.0 - abs(abar) ** 2
            if gap <= POSITIVITY_FLOOR:
                raise RecursionBreakdownError(n, np.conj(abar))
            alphas[n] = np.conj(abar)
            norms_sq[n + 1] = norms_sq[n] * gap
        # Phi_{n+1} = z Phi_n - conj(alpha_n) Phi_n^*; the right side is formed
        # before b is overwritten
        zb = buf[nmax - n - 1:]
        zb[0] = 0.0
        zb[: n + 1] -= abar * np.conj(b[::-1])


def _check_nmax(nmax) -> int:
    """nmax as an int, if it is an integer degree >= 0."""
    if not (_is_degree(nmax) and nmax >= 0):
        raise ValueError(f"nmax must be nonnegative and an integer, got nmax = {nmax!r}")
    return int(nmax)


def szego_recursion(moments: MomentSequence, nmax: int, weight: Weight | None = None,
                    on_row=None) -> OPUCSystem:
    """Run the moment-driven recursion up to degree nmax (needs kmax >= nmax).

    `on_row(n, b)` is called with the coefficients b of each Phi_n, n = 0..nmax,
    as they are made; b is a view, valid only during the call.
    """
    nmax = _check_nmax(nmax)
    if moments.kmax < nmax:
        raise ValueError(f"need moments up to order {nmax}, have kmax = {moments.kmax}")
    alphas = np.zeros(nmax, dtype=complex)
    norms_sq = np.zeros(nmax + 1)
    for n, b in _monic_rows(nmax, alphas, moments, norms_sq):
        if on_row is not None:
            on_row(n, b)
    return OPUCSystem(nmax=nmax, verblunsky=alphas, norms_sq=norms_sq, weight=weight)


def system_from_weight(w: Weight, nmax: int) -> OPUCSystem:
    nmax = _check_nmax(nmax)
    return szego_recursion(w.moments(nmax), nmax, weight=w)


def gram_schmidt_monic(moments: MomentSequence, nmax: int) -> np.ndarray:
    """Brute-force monic coefficients from the Toeplitz Gram matrix.

    Independent of the recursion: solves <Phi_n, z^k> = 0, k < n, directly.
    Oracle for small n.
    """
    out = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    out[0, 0] = 1.0
    for n in range(1, nmax + 1):
        g = moments.toeplitz_gram(n)
        # coefficients b with sum_j G[k, j] b_j = 0 for k < n, b_n = 1
        rhs = -g[:n, n]
        out[n, :n] = np.linalg.solve(g[:n, :n], rhs)
        out[n, n] = 1.0
    return out


def second_kind(system: OPUCSystem) -> OPUCSystem:
    """Second-kind system: same recursion with alpha_n -> -alpha_n.

    The resulting orthonormal polynomials psi_n are orthonormal for the dual
    measure; leading coefficients coincide with the original system's.
    """
    alphas = -system.verblunsky
    return OPUCSystem(nmax=system.nmax, verblunsky=alphas, norms_sq=system.norms_sq.copy())


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def poly_values(grid: CircleGrid, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Values of sum_m coeffs[m] z^m at the grid nodes, by one zero-padded inverse FFT,
    written into `out` (a complex N-array, returned) when given."""
    if len(coeffs) > grid.size // 2:
        raise ValueError("polynomial degree must stay below N/2")
    return grid.synthesize(coeffs, out=out)


def poly_eval(coeffs: np.ndarray, z) -> np.ndarray:
    """Values at arbitrary complex points (off the grid) of each row polynomial
    sum_m coeffs[..., m] z^m of a (..., k) coefficient table, by Horner along the
    last axis; z broadcasts against the leading axes, so a 1-D table takes an
    array of points and a table takes one point.  Row r is the call on row r alone."""
    coeffs, z = np.asarray(coeffs, dtype=complex), np.asarray(z, dtype=complex)
    out = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], z.shape), dtype=complex)
    for m in range(coeffs.shape[-1] - 1, -1, -1):
        out = out * z + coeffs[..., m]
    return out


def phi_values(system: OPUCSystem, grid: CircleGrid, n: int, reverse: bool = False) -> np.ndarray:
    """Grid values of phi_n (or phi_n^* with reverse=True)."""
    coeffs = system.orthonormal_coeffs(n)
    if reverse:
        coeffs = np.conj(coeffs[::-1])
    return poly_values(grid, coeffs)


def _weight_of(system: OPUCSystem, weight: Weight | None) -> Weight:
    w = weight or system.weight
    if w is None:
        raise ValueError("no weight attached to the system; pass one explicitly")
    return w


def gram_matrix(system: OPUCSystem, n: int, weight: Weight | None = None) -> np.ndarray:
    """Gram matrix of phi_0..phi_n under (w/2pi) dtheta, as table G table^H with
    G[j, k] = <z^j, z^k>_w = c_{k-j} the Toeplitz matrix of the weight's grid
    moments and table = orthonormal_table(n).  For n < N/2 this is the
    quadrature Gram of the grid values, with no grid-sized array."""
    w = _weight_of(system, weight)
    table = system.orthonormal_table(n)
    return table @ w.moments(n).toeplitz_gram(n) @ np.conj(table.T)


# ---------------------------------------------------------------------------
# CD kernel and projections
# ---------------------------------------------------------------------------

def cd_kernel(system: OPUCSystem, n: int, z: complex, zeta: complex) -> complex:
    """K_n(z, zeta) = sum_{k<=n} phi_k(z) conj(phi_k(zeta)); Hermitian in (z, zeta)."""
    table = system.orthonormal_table(n)
    return complex(np.dot(poly_eval(table, z), np.conj(poly_eval(table, zeta))))


def _project_values(table: np.ndarray, w: Weight, values: np.ndarray) -> np.ndarray:
    """Grid values of the L^2_w projection of each row of a (..., N) stack onto the
    rows of `table` = orthonormal_table(n): one analyze, the inner products
    <f, phi_k>_w = conj(table) <f, z^m>_w, the coefficients table^T <f, phi_k>_w,
    one synthesize.  O(n^2) per row."""
    grid, k, t = w.grid, len(table), table.T  # Fortran order: scipy's BLAS takes t uncopied
    h = grid.analyze(values * w.values)[..., :k].reshape(-1, k)  # <f, z^m>_w
    coeffs = blas.zgemm(1.0, t, blas.zgemm(1.0, t, h.T, trans_a=2))  # one column per row of h
    return grid.synthesize(coeffs.T).reshape(np.shape(values))


def weighted_lp_norm(f: GridFunction | np.ndarray, w: Weight, p: float) -> float:
    """((1/2pi) int |f|^p w dtheta)^{1/p}, rescaled to avoid overflow at large p."""
    if not 1.0 <= p < np.inf:
        raise ValueError(f"finite p >= 1 required, got p = {p}")
    vals = f.values if isinstance(f, GridFunction) else np.asarray(f)
    return float(lp_norms(vals, (p,), w.values)[0])


def steklov_norms(w: Weight, n_grid, p_grid) -> np.ndarray:
    """(len(p_grid), len(n_grid)) table of ||Phi_n||_{L^p_w} for the monic Phi_n of a weight.

    A worker thread runs one moment-driven recursion to max(n_grid) and hands a
    copy of each requested row to the calling thread through a queue of two.
    The caller evaluates each row (one synthesize and one `lp_norms` call,
    whatever the number of p) in one workspace of 4N floats while the recursion
    runs on: O(N + nmax) memory.  The N-sized work stays on the caller: in the
    worker, its own malloc arena put pocketfft's scratch in fresh pages (peak
    RSS +6.8% at m = 18).  A breakdown in the worker is re-raised here; a failed
    evaluation drains the queue first, so no thread outlives the call.  Each entry equals, bitwise,
    weighted_lp_norm(poly_values(w.grid, system_from_weight(w, nmax).monic_coeffs(n)), w, p).
    """
    if not isinstance(w, Weight):
        hint = "; pass system.weight" if isinstance(w, OPUCSystem) else ""
        raise TypeError(f"steklov_norms: w must be a Weight, got {type(w).__name__}{hint}")
    n_grid, top = list(n_grid), w.grid.size // 2 - 1
    if not n_grid or not all(_is_degree(n) and 0 <= n <= top for n in n_grid):
        raise ValueError(f"n_grid must be a non-empty list of integer degrees in [0, {top}] "
                         f"(N/2 = {w.grid.size // 2}), got {n_grid}")
    n_grid, p_grid = [int(n) for n in n_grid], list(p_grid)
    if not p_grid or not all(_is_real(p) and 1.0 <= p < np.inf for p in p_grid):
        raise ValueError(f"p_grid must be a non-empty list of finite p >= 1, got {p_grid}")
    p_grid = [float(p) for p in p_grid]
    wanted, by_degree, rows = set(n_grid), {}, queue.Queue(maxsize=2)
    # One workspace serves every degree: the N values and lp_norms' two buffers.  It is
    # one block, not three, on purpose: freeing it lifts glibc's dynamic mmap threshold
    # to its size, which for N <= 2^19 keeps the two N-point scratch blocks of every
    # later complex ifft on the heap instead of in fresh pages (README)
    work = np.empty((4, w.grid.size))
    vals, bufs = work[:2].reshape(-1).view(complex), (work[2], work[3])
    nmax = max(n_grid)
    moments = w.moments(nmax)

    def on_row(n, b):
        if n in wanted:
            rows.put((n, b.copy()))

    def recurse():
        try:
            szego_recursion(moments, nmax, on_row=on_row)
        finally:
            rows.put(None)

    with ThreadPoolExecutor(max_workers=1) as pool:
        done, row = pool.submit(recurse), None
        try:
            while (row := rows.get()) is not None:
                n, b = row
                by_degree[n] = lp_norms(poly_values(w.grid, b, out=vals), p_grid, w.values, bufs)
        finally:
            while row is not None:  # the evaluation failed: unblock the worker
                row = rows.get()
        done.result()
    return np.array([by_degree[n] for n in n_grid]).T


def projection_norm_probe(system: OPUCSystem, n: int, p: float) -> NormEstimate:
    """||P^w_{[0,n]}||_{L^p_w -> L^p_w}, w the system's weight, by `operator_norm`.

    The probe is T = u P^w u^-1, u = w^{1/p}, on unweighted L^p, so that
    ||T||_p is the weighted norm; its adjoint is v P^w v^-1, v = w^{1/q}.
    T has rank n + 1 and its right singular vectors are v times polynomials
    of degree <= n, so the exact p = 2 pair that starts the power method is
    the top eigenpair of an (n+1)^2 generalized Hermitian problem.
    """
    check_exponent(p, "projection_norm_probe")
    w = _weight_of(system, None)
    grid = w.grid
    u, v = w.values ** (1.0 / p), w.values ** (1.0 - 1.0 / p)
    table = system.orthonormal_table(n)
    t = table.T  # Fortran order: scipy's BLAS takes it uncopied

    def p2_pair():
        # ||v g||_2^2 = a^H K a and ||T v g||_2^2 = a^H M^H G M a for g = sum_m a_m z^m, with
        # K, G the conjugated Toeplitz Grams of v^2, u^2 (the transposes of the Hermitian
        # grams: Fortran-order views, taken uncopied) and M = table^T (conj(table) K), which
        # maps a to the projection's coefficients.  Products and eigh in scipy; not a
        # subset solver: at p = 2 the top eigenvalue is (n+1)-fold, and zhegvx then
        # returns no vector
        gram = [trig_moments(GridFunction(grid, x * x), n).toeplitz_gram(n).T for x in (v, u)]
        m = blas.zgemm(1.0, t, blas.zgemm(1.0, t, gram[0], trans_a=2))
        m = blas.zgemm(1.0, m, blas.zgemm(1.0, gram.pop(), m), trans_a=2)
        vals, vecs = eigh(m, gram.pop(), lower=False, overwrite_a=True, overwrite_b=True,
                          driver="gvd")
        return max(vals[-1], 0.0), v * grid.synthesize(vecs[:, -1])  # node values: no band

    probe = OperatorProbe(grid, lambda x: u * _project_values(table, w, x / u),
                          lambda x: v * _project_values(table, w, x / v), None, p,
                          f"w^(1/p) P^w_[0,{n}] w^(-1/p), p={p}, family={w.family}",
                          p2_pair=p2_pair)
    return operator_norm(probe)
