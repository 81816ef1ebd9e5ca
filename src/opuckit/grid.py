"""Uniform grids on the unit circle and discrete Fourier analysis.

Everything downstream lives on the half-step grid

    theta_j = 2*pi*(j + 1/2)/N,   j = 0..N-1,   N = 2^m,

so that theta = 0 is never a node and weights like |1 - e^{i theta}|^{2b}
(and their reciprocals) are finite at every sample.  Equal-weight
(trapezoid) quadrature on this grid integrates e^{ik theta} exactly for
|k| < N, which makes it spectrally accurate for periodic integrands.

Frequencies are kept in numpy FFT order throughout; `analyze` returns the
coefficients c_k = (1/N) sum_j f(theta_j) e^{-ik theta_j}, which for
band-limited f coincide with (1/2pi) int f e^{-ik theta} d theta.

`CircleGrid.analyze`/`synthesize`, `fourier_multiplier`, `duality_map` and
`lp_norms` act on (..., N) stacks along the last axis: k vectors go through
one call as a (k, N) stack, and row r of the result is the call on row r alone.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


class GridSizeError(ValueError):
    pass


@dataclass(frozen=True)
class CircleGrid:
    """Dyadic half-step sample grid on the unit circle."""

    log2_size: int = 14

    def __post_init__(self):
        if not 6 <= self.log2_size <= 24:
            raise GridSizeError(f"log2_size must be in [6, 24], got {self.log2_size}")

    @property
    def size(self) -> int:
        return 1 << self.log2_size

    @cached_property
    def nodes(self) -> np.ndarray:
        n = self.size
        return TWO_PI * (np.arange(n) + 0.5) / n

    @cached_property
    def points(self) -> np.ndarray:
        """e^{i theta_j}, the nodes as points on the circle."""
        return np.exp(1j * self.nodes)

    @cached_property
    def freqs(self) -> np.ndarray:
        """Signed integer frequencies in FFT order: 0..N/2-1, -N/2..-1."""
        return np.fft.fftfreq(self.size, 1.0 / self.size).astype(np.int64)

    @cached_property
    def _phase(self) -> np.ndarray:
        # e^{-i pi k / N}: carries the half-step offset through the FFT.
        return np.exp(-1j * np.pi * self.freqs / self.size)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Fourier coefficients (FFT order) of samples on this grid, shape (..., N)."""
        values = np.asarray(values)
        if values.shape[-1:] != (self.size,):
            raise GridSizeError(f"expected {self.size} samples, got shape {values.shape}")
        return np.fft.fft(values, axis=-1) / self.size * self._phase

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of `analyze`: samples at the grid nodes, shape (..., N)."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape[-1:] != (self.size,):
            raise GridSizeError(f"expected {self.size} coefficients, got shape {coeffs.shape}")
        return np.fft.ifft(coeffs / self._phase, axis=-1) * self.size


@dataclass
class GridFunction:
    """Samples of a boundary function at the nodes of a CircleGrid."""

    grid: CircleGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.size,):
            raise GridSizeError(
                f"values shape {self.values.shape} does not match grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridFunction values must be finite")

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def real_values(self) -> np.ndarray:
        """Values as a real array; rejects imaginary parts above 1e-10 relative."""
        if self.is_real:
            return self.values
        scale = max(np.max(np.abs(self.values)), 1.0)
        if np.max(np.abs(self.values.imag)) > 1e-10 * scale:
            raise ValueError("expected a real-valued grid function")
        return self.values.real


def quadrature(f: GridFunction) -> complex:
    """Equal-weight quadrature: (2 pi / N) * sum f(theta_j) ~ int_T f dtheta.

    Exact (to roundoff) for trigonometric polynomials of degree < N.
    """
    out = TWO_PI * np.sum(f.values) / f.grid.size
    return float(out) if f.is_real else complex(out)


def mean(f: GridFunction) -> complex:
    """(1/2pi) int f dtheta by quadrature."""
    out = np.sum(f.values) / f.grid.size
    return float(out) if f.is_real else complex(out)


def fourier_multiplier(values: np.ndarray, multiplier) -> np.ndarray:
    """Apply a Fourier multiplier along the last axis of a (..., N) stack of samples.

    `multiplier` is an array m(k) in FFT order, or a band (lo, hi) standing
    for the 0/1 mask of lo <= k <= hi, which zeroes slices instead of
    multiplying.  `synthesize(analyze(v) * m)` scales bin k by e^{-i pi k/N}/N
    and back by N e^{i pi k/N}; both are diagonal, commute with m and cancel,
    so ifft(fft(v) m) is the same operator without two passes (up to rounding).
    """
    spec = np.fft.fft(values, axis=-1)
    if isinstance(multiplier, tuple):
        lo, hi = multiplier
        n = spec.shape[-1]
        half = n // 2
        # bins 0..N/2-1 hold k = 0..N/2-1 and bins N/2..N-1 hold k = -N/2..-1,
        # so each sign half loses at most a slice below lo and one above hi
        spec[..., : min(max(lo, 0), half)] = 0.0
        spec[..., min(max(hi + 1, 0), half): half] = 0.0
        spec[..., half: n + min(max(lo, -half), 0)] = 0.0
        spec[..., n + min(max(hi + 1, -half), 0):] = 0.0
    else:
        spec *= multiplier
    return np.fft.ifft(spec, axis=-1)


def duality_map(values: np.ndarray, p: float) -> np.ndarray:
    """L^p duality map |y|^{p-1} sign(y) of each row of a (..., N) stack, scaled
    by the row's max |y|^{1-p} against overflow; a zero row maps to zeros."""
    ay = np.abs(values)
    m = ay.max(axis=-1, keepdims=True)
    num, den = np.where(ay > 0, values, 0.0), np.where(ay > 0, ay, 1.0)
    sub = den < np.finfo(float).tiny  # complex / real multiplies by 1/den, which overflows here
    num[sub], den[sub] = num[sub] * 2.0 ** 54, den[sub] * 2.0 ** 54
    return (ay / np.where(m > 0, m, 1.0)) ** (p - 1.0) * (num / den)


def lp_norms(values: np.ndarray, p_grid, weight: np.ndarray | None = None) -> np.ndarray:
    """Discrete L^p norms ((1/N) sum_j |y_j|^p w_j)^{1/p} of each row of a (..., N)
    stack for every p in p_grid, shape (len(p_grid), ...), w = 1 without a weight.
    |y| and its row maxima are taken once; each row is rescaled by its max against
    overflow at large p, and a zero row has norm 0."""
    a = np.abs(values)
    m = a.max(axis=-1, keepdims=True)
    scaled = a / np.where(m > 0, m, 1.0)
    out = np.empty((len(p_grid), *m.shape[:-1]))
    for i, p in enumerate(p_grid):
        means = np.mean(scaled ** p if weight is None else scaled ** p * weight, axis=-1)
        # scalar libm roots: numpy's SIMD power loop differs in the last bit by CPU
        out[i] = np.reshape([s ** (1.0 / p) for s in means.flat], means.shape)
    return out * m[..., 0]


def apply_multiplier(f: GridFunction, multiplier) -> GridFunction:
    """Apply a Fourier multiplier: an array m(k) in FFT order, or a band (lo, hi)."""
    return GridFunction(f.grid, fourier_multiplier(f.values, multiplier))


def conjugate_function(f: GridFunction) -> GridFunction:
    """Boundary harmonic conjugate: multiplier -i*sgn(k), constants -> 0.

    The Nyquist bin (k = -N/2) is zeroed so that real input maps to real
    output and the conjugate of a conjugate is -f + mean(f) on the
    |k| < N/2 band.
    """
    vals = f.real_values()
    grid = f.grid
    k = grid.freqs
    mult = -1j * np.sign(k).astype(complex)
    mult[k == -(grid.size // 2)] = 0.0
    return GridFunction(grid, fourier_multiplier(vals, mult).real)


def riesz_project(f: GridFunction) -> GridFunction:
    """Riesz projection: keep frequencies k >= 0, kill k < 0. Idempotent."""
    return apply_multiplier(f, (0, f.grid.size // 2 - 1))


def band_project(f: GridFunction, lo: int, hi: int) -> GridFunction:
    """Keep frequencies lo <= k <= hi (signed), zero the rest."""
    return apply_multiplier(f, (lo, hi))


def _check_in_disk(z: complex):
    if abs(z) >= 1.0:
        raise ValueError(f"point must lie strictly inside the unit disk, got z = {z}")


def poisson_extend(f: GridFunction, z: complex) -> complex:
    """Poisson integral P(f, z) = (1/2pi) int (1-|z|^2)/|1 - conj(zeta) z|^2 f dtheta."""
    _check_in_disk(z)
    kern = (1.0 - abs(z) ** 2) / np.abs(1.0 - np.conj(f.grid.points) * z) ** 2
    out = np.sum(kern * f.values) / f.grid.size
    return float(out.real) if f.is_real else complex(out)


def poisson_probabilities(grid: CircleGrid, z_samples):
    """Check every disk point z, then yield for each the normalized Poisson kernel
    (1-|z|^2)/|1 - conj(zeta_j) z|^2 at the nodes: exact probability weights."""
    z_samples = np.asarray(z_samples, dtype=complex).ravel()
    for z in z_samples:
        _check_in_disk(z)
    kernels = ((1.0 - abs(z) ** 2) / np.abs(1.0 - np.conj(grid.points) * z) ** 2 for z in z_samples)
    return (kern / kern.sum() for kern in kernels)


def cauchy_integral(f: GridFunction, z: complex) -> complex:
    """Cauchy integral C(f, z) = (1/2pi) int f(zeta)/(1 - conj(zeta) z) dtheta."""
    _check_in_disk(z)
    return complex(np.sum(f.values / (1.0 - np.conj(f.grid.points) * z)) / f.grid.size)


def harmonic_extension_on_circle(f: GridFunction, r: float) -> GridFunction:
    """P(f, r e^{i theta_j}) for all nodes at once, via the r^{|k|} multiplier.

    This is the exact harmonic extension of the band-limited interpolant,
    so P(1, z) = 1 identically.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    out = apply_multiplier(f, r ** np.abs(f.grid.freqs).astype(float))
    return GridFunction(f.grid, out.values.real) if f.is_real else out


class MomentError(ValueError):
    pass


@dataclass
class MomentSequence:
    """Trigonometric moments c_k = (1/2pi) int e^{-ik theta} w dtheta, k = 0..kmax.

    Negative indices are implied by the Hermitian extension c_{-k} = conj(c_k).
    """

    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=complex)
        if self.c.ndim != 1 or len(self.c) == 0:
            raise MomentError("moment array must be one-dimensional and non-empty")
        if not (abs(self.c[0].imag) <= 1e-12 * max(abs(self.c[0]), 1.0) and self.c[0].real > 0):
            raise MomentError(f"c_0 must be real and positive, got {self.c[0]}")

    @property
    def kmax(self) -> int:
        return len(self.c) - 1

    def at(self, k: int) -> complex:
        """c_k for any |k| <= kmax, using the Hermitian extension."""
        if abs(k) > self.kmax:
            raise MomentError(f"moment index {k} out of range (kmax = {self.kmax})")
        return complex(self.c[k]) if k >= 0 else complex(np.conj(self.c[-k]))

    def toeplitz_gram(self, n: int) -> np.ndarray:
        """Gram matrix G[j, k] = <z^j, z^k> = c_{k-j}, size (n+1) x (n+1)."""
        if n > self.kmax:
            raise MomentError(f"need moments up to {n}, have {self.kmax}")
        from scipy.linalg import toeplitz

        return toeplitz(np.conj(self.c[: n + 1]), self.c[: n + 1])


def trig_moments(f: GridFunction, kmax: int) -> MomentSequence:
    """Moments of the samples by FFT, scaled so c_k = (1/2pi) int e^{-ik theta} f dtheta.

    Requires kmax < N/2.  For a positive weight these are exactly the moments
    of the discrete measure sum_j (f(theta_j)/N) delta_{theta_j}, which is what
    keeps quadrature inner products of the resulting polynomials consistent.
    """
    n = f.grid.size
    if not 0 <= kmax < n // 2:
        raise MomentError(f"kmax must satisfy 0 <= kmax < N/2 = {n // 2}, got {kmax}")
    coeffs = f.grid.analyze(f.values)
    c = coeffs[: kmax + 1].copy()
    if f.is_real:
        c[0] = c[0].real
    return MomentSequence(c)
