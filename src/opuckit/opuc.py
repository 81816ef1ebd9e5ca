"""Szego recursion, Verblunsky coefficients, CD kernels, and finite projections.

The recursion is driven by moments, not samples: with monic polynomials
Phi_n and reversed polynomials Phi_n^* = z^n conj(Phi_n(1/conj(z))),

    Phi_{n+1}(z) = z Phi_n(z) - conj(alpha_n) Phi_n^*(z),
    conj(alpha_n) = <z Phi_n, 1> / E_n,      E_{n+1} = (1 - |alpha_n|^2) E_n,

where E_n = ||Phi_n||^2 and <f, g> = int f conj(g) dmu.  This is the
Levinson-Durbin recursion on the Toeplitz moment matrix; each step costs
one O(n) dot product, so a run to degree nmax is O(nmax^2) work.  The loop
exists once, in `_monic_rows`, which keeps only the current Phi_n in two
rolling buffers.  `szego_recursion` keeps the Verblunsky coefficients and
E_n, O(nmax) memory; `OPUCSystem.monic`, the O(nmax^2) table of every row,
is rebuilt from the coefficients on first use, and `steklov_norms` streams
the rows instead, in O(N + nmax) memory.

Because the moments come from grid samples, the polynomials are exactly
orthonormal for the discrete node measure, and every quadrature inner
product below inherits that exactness for degrees < N/2.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import CircleGrid, GridFunction, MomentSequence, duality_map, lp_norms
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

    Phi_n lives in one of two rolling buffers of length nmax + 1, so a
    yielded view is valid only until the next step.  With `moments`, each
    alpha_n comes from the Levinson-Durbin step and is written into
    `alphas`, and E_{n+1} into `norms_sq`; without, `alphas` is read.
    """
    cur = np.zeros(nmax + 1, dtype=complex)
    nxt = np.zeros(nmax + 1, dtype=complex)
    cur[0] = 1.0
    if moments is not None:
        cc = np.conj(moments.c)
        norms_sq[0] = moments.c[0].real
    for n in range(nmax + 1):
        b = cur[: n + 1]
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
        nxt[0] = 0.0
        nxt[1: n + 2] = b
        nxt[: n + 1] -= abar * np.conj(b[::-1])
        cur, nxt = nxt, cur


def szego_recursion(moments: MomentSequence, nmax: int, weight: Weight | None = None) -> OPUCSystem:
    """Run the moment-driven recursion up to degree nmax (needs kmax >= nmax)."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if moments.kmax < nmax:
        raise ValueError(f"need moments up to order {nmax}, have kmax = {moments.kmax}")
    alphas = np.zeros(nmax, dtype=complex)
    norms_sq = np.zeros(nmax + 1)
    for _ in _monic_rows(nmax, alphas, moments, norms_sq):
        pass
    return OPUCSystem(nmax=nmax, verblunsky=alphas, norms_sq=norms_sq, weight=weight)


def system_from_weight(w: Weight, nmax: int) -> OPUCSystem:
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


def reversed_poly(coeffs: np.ndarray, n: int | None = None) -> np.ndarray:
    """Q*(z) = z^n conj(Q(1/conj(z))): conjugate and reverse, padding to degree n."""
    coeffs = np.asarray(coeffs, dtype=complex)
    deg = len(coeffs) - 1
    if n is None:
        n = deg
    if n < deg:
        raise ValueError(f"cannot reverse a degree-{deg} polynomial at degree {n}")
    padded = np.concatenate([coeffs, np.zeros(n - deg, dtype=complex)])
    return np.conj(padded[::-1])


def second_kind(system: OPUCSystem) -> OPUCSystem:
    """Second-kind system: same recursion with alpha_n -> -alpha_n.

    The resulting orthonormal polynomials psi_n are orthonormal for the dual
    measure; leading coefficients coincide with the original system's.
    """
    alphas = -system.verblunsky
    return OPUCSystem(nmax=system.nmax, verblunsky=alphas, norms_sq=system.norms_sq.copy())


def psi_integral_form(system: OPUCSystem, w: Weight, n: int, z: complex) -> complex:
    """Quadrature of the defining integral of the second-kind polynomial,

        psi_n(z) = int (1 + z conj(xi)) / (1 - z conj(xi)) (phi_n(xi) - phi_n(z)) dmu,

    for n >= 1 and z strictly inside the disk.  Cross-check for `second_kind`.
    """
    if n < 1:
        raise ValueError("the integral form applies for n >= 1")
    if abs(z) >= 1.0:
        raise ValueError("z must lie strictly inside the disk")
    grid = w.grid
    coeffs = system.orthonormal_coeffs(n)
    phi_vals = poly_values(grid, coeffs)
    phi_at_z = poly_eval(coeffs, np.array([z]))[0]
    zeta_bar = np.conj(grid.points)
    kern = (1.0 + z * zeta_bar) / (1.0 - z * zeta_bar)
    return complex(np.sum(kern * (phi_vals - phi_at_z) * w.values) / grid.size)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def poly_values(grid: CircleGrid, coeffs: np.ndarray) -> np.ndarray:
    """Values of sum_m coeffs[m] z^m at the grid nodes, by padded FFT."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(coeffs) > grid.size // 2:
        raise ValueError("polynomial degree must stay below N/2")
    full = np.zeros(grid.size, dtype=complex)
    full[: len(coeffs)] = coeffs
    return grid.synthesize(full)


def poly_eval(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation at arbitrary complex points (off the grid)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for c in np.asarray(coeffs, dtype=complex)[::-1]:
        out = out * z + c
    return out


def phi_values(system: OPUCSystem, grid: CircleGrid, n: int, reverse: bool = False) -> np.ndarray:
    """Grid values of phi_n (or phi_n^* with reverse=True)."""
    coeffs = system.orthonormal_coeffs(n)
    if reverse:
        coeffs = reversed_poly(coeffs, n)
    return poly_values(grid, coeffs)


def orthonormal_values_table(system: OPUCSystem, grid: CircleGrid, n: int) -> np.ndarray:
    """(n+1) x N matrix of phi_k(theta_j) values."""
    table = system.orthonormal_table(n)
    out = np.empty((n + 1, grid.size), dtype=complex)
    for k in range(n + 1):
        out[k] = poly_values(grid, table[k, : k + 1])
    return out


def _weight_of(system: OPUCSystem, weight: Weight | None) -> Weight:
    w = weight or system.weight
    if w is None:
        raise ValueError("no weight attached to the system; pass one explicitly")
    return w


def gram_matrix(system: OPUCSystem, n: int, weight: Weight | None = None) -> np.ndarray:
    """Gram matrix of phi_0..phi_n under (w/2pi) dtheta by quadrature."""
    w = _weight_of(system, weight)
    vals = orthonormal_values_table(system, w.grid, n)
    return (vals * w.values) @ np.conj(vals.T) / w.grid.size


# ---------------------------------------------------------------------------
# CD kernel and projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CDKernelHandle:
    system: OPUCSystem
    n: int

    def __post_init__(self):
        self.system._check_degree(self.n)


def cd_kernel(handle: CDKernelHandle, z: complex, zeta: complex) -> complex:
    """K_n(z, zeta) = sum_{k<=n} phi_k(z) conj(phi_k(zeta)); Hermitian in (z, zeta)."""
    table = handle.system.orthonormal_table(handle.n)
    pz = poly_eval_table(table, complex(z))
    pzeta = poly_eval_table(table, complex(zeta))
    return complex(np.dot(pz, np.conj(pzeta)))


def poly_eval_table(table: np.ndarray, z: complex) -> np.ndarray:
    """Evaluate every row polynomial of a triangular coefficient table at z."""
    powers = z ** np.arange(table.shape[1])
    return table @ powers


def project(system: OPUCSystem, f: GridFunction, n: int, weight: Weight | None = None) -> GridFunction:
    """Orthogonal projection onto span{phi_0..phi_n} in L^2_w, by quadrature.

    Works in coefficient space: two FFTs plus two triangular products.
    """
    w = _weight_of(system, weight)
    return GridFunction(w.grid, _project_values(system.orthonormal_table(n), w, f.values))


def _project_values(table: np.ndarray, w: Weight, values: np.ndarray) -> np.ndarray:
    # grid values of the projection onto the rows of an orthonormal table
    grid = w.grid
    h = grid.analyze(values * w.values)[: len(table)]
    inner = np.conj(table) @ h              # <f, phi_k>_w
    coeffs = table.T @ inner                # coefficients of the projection
    return poly_values(grid, coeffs)


def weighted_lp_norm(f: GridFunction | np.ndarray, w: Weight, p: float) -> float:
    """((1/2pi) int |f|^p w dtheta)^{1/p}, rescaled to avoid overflow at large p."""
    if p < 1.0:
        raise ValueError("p >= 1 required")
    vals = f.values if isinstance(f, GridFunction) else np.asarray(f)
    return float(lp_norms(vals, (p,), w.values)[0])


def steklov_norms(system: OPUCSystem, n_grid, p_grid, weight: Weight | None = None) -> np.ndarray:
    """(len(p_grid), len(n_grid)) table of ||Phi_n||_{L^p_w} for the monic Phi_n of a system.

    Streams the recursion from the system's Verblunsky coefficients up to
    max(n_grid) in O(N + nmax) memory: `system.monic` is not built, and
    each requested degree costs one synthesize whatever the number of p.
    Every entry equals
    weighted_lp_norm(poly_values(w.grid, system.monic_coeffs(n)), w, p) bitwise.
    """
    w = _weight_of(system, weight)
    n_grid = [int(n) for n in n_grid]
    top = min(system.nmax, w.grid.size // 2 - 1)
    if not n_grid or min(n_grid) < 0 or max(n_grid) > top:
        raise ValueError(f"n_grid must be a non-empty list of degrees in [0, {top}] "
                         f"(nmax = {system.nmax}, N/2 = {w.grid.size // 2}), got {n_grid}")
    p_grid = [float(p) for p in p_grid]
    if not p_grid or min(p_grid) < 1.0:
        raise ValueError(f"p_grid must be a non-empty list of exponents p >= 1, got {p_grid}")
    wanted, by_degree = set(n_grid), {}
    for n, b in _monic_rows(max(n_grid), system.verblunsky):
        if n in wanted:
            by_degree[n] = lp_norms(poly_values(w.grid, b), p_grid, w.values)
    return np.array([by_degree[n] for n in n_grid]).T


def projection_norm_probe(system: OPUCSystem, n: int, p: float, trials: int = 8,
                          seed: int = 0) -> float:
    """Lower bound for ||P^w_{[0,n]}||_{L^p_w -> L^p_w}, w the system's weight.

    Random band-limited starts refined by at most 40 steps of the dual-norm
    power iteration (the projection is self-adjoint in the weighted pairing,
    so the adjoint step reuses the same application).
    """
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")
    w = _weight_of(system, None)
    grid = w.grid
    rng = np.random.default_rng(seed)
    q = p / (p - 1.0)
    table = system.orthonormal_table(n)

    def apply_p(x):
        return _project_values(table, w, x)

    def ratio(x):
        # ||Px||/||x|| and Px, which the next power step reuses
        px = apply_p(x)
        nx = weighted_lp_norm(x, w, p)
        return (weighted_lp_norm(px, w, p) / nx if nx > 0 else 0.0), px

    best = 0.0
    for _ in range(max(trials, 1)):
        # random coefficients on frequencies -n..2n (negative indices wrap
        # into the negative-frequency FFT slots)
        lo, hi = -n, min(2 * n, grid.size // 2 - 1)
        coeffs = np.zeros(grid.size, dtype=complex)
        idx = np.arange(lo, hi + 1)
        coeffs[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        r, px = ratio(grid.synthesize(coeffs))
        best = max(best, r)

        for _ in range(40):
            z = apply_p(duality_map(px, p))  # self-adjoint in <.,.>_w
            x_new = duality_map(z, q)
            nx = weighted_lp_norm(x_new, w, p)
            if nx == 0.0:
                break
            r, px = ratio(x_new / nx)
            if r <= best * (1.0 + 1e-12):
                best = max(best, r)
                break
            best = r
    return best
