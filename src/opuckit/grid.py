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

`CircleGrid.analyze`/`synthesize`, `fourier_multiplier`, `duality_map`, `lp_norms`
and `poisson_extend_circles` act on (..., N) stacks along the last axis: k vectors
go through one call as a (k, N) stack, and row r of the result is the call on row r
alone.  `synthesize` also takes a (..., k) prefix, 1 <= k <= N, of bins 0..k-1 with
the rest zero: the coefficients of polynomials of degree < k, valued at the nodes
without building the padded spectrum; with `hermitian=True`, k <= N/2 bins of a
conjugate-symmetric spectrum give real values by one real inverse FFT.
`analyze(values, k)` returns that prefix, scaling and phasing bins 0..k-1 only.
"""

import numbers
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
        m = self.log2_size
        if not (_is_integer(m) and 6 <= m <= 24):
            raise GridSizeError(f"log2_size must be an integer in [6, 24], got {m!r}")

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

    def _phase(self, k: int, sign: float) -> np.ndarray:
        """e^{sign i pi j / N} for the signed frequencies j of bins 0..k-1 (FFT order:
        0..N/2-1, then -N/2..-1): the half-step offset, carried through the FFT by
        sign = -1 and undone by sign = +1, for the k bins a call touches only."""
        j = np.arange(k)
        j[self.size // 2:] -= self.size
        return np.exp(sign * 1j * np.pi * j / self.size)

    def analyze(self, values: np.ndarray, k: int | None = None) -> np.ndarray:
        """Fourier coefficients (FFT order) of samples on this grid, shape (..., N).

        With k, 1 <= k <= N, only bins 0..k-1 are scaled and phased and returned,
        shape (..., k): bitwise the slice [..., :k] of the full call.
        """
        values = np.asarray(values)
        if values.shape[-1:] != (self.size,):
            raise GridSizeError(f"expected {self.size} samples, got shape {values.shape}")
        k = self.size if k is None else k
        if not (_is_degree(k) and 1 <= k <= self.size):
            raise GridSizeError(f"expected 1 to {self.size} bins, got k = {k!r}")
        k = int(k)
        return np.fft.fft(values, axis=-1)[..., :k] / self.size * self._phase(k, -1.0)

    def synthesize(self, coeffs: np.ndarray, out: np.ndarray | None = None,
                   hermitian: bool = False) -> np.ndarray:
        """Inverse of `analyze`: samples at the grid nodes, shape (..., N).

        `coeffs` is a (..., k) stack, 1 <= k <= N, holding bins 0..k-1 in FFT
        order; the bins above are zero.  Only the k given bins are phased, and
        the inverse FFT zero-pads them to N and does the scaling, so a
        polynomial of degree k - 1 costs no full-length pass before the transform.
        With `out`, a complex (..., N) array, the samples are written there and
        `out` is returned: a caller that synthesizes many rows reuses one buffer.

        With `hermitian`, `coeffs` holds bins 0..k-1, k <= N/2, of a spectrum with
        c_{-j} = conj(c_j) (the imaginary part of c_0 is dropped), and the samples
        are real: one real inverse FFT, into `out`, a float (..., N) array, if given.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        k = coeffs.shape[-1] if coeffs.ndim else 0
        top = self.size // 2 if hermitian else self.size
        if not 1 <= k <= top:
            raise GridSizeError(f"expected 1 to {top} coefficients along the last axis, "
                                f"got shape {coeffs.shape} (k = {k})")
        # bound to a name: an unnamed temporary operand lets numpy multiply in place, by a
        # loop that rounds differently in the last bit
        unphase = self._phase(k, 1.0)
        transform = np.fft.irfft if hermitian else np.fft.ifft
        return transform(coeffs * unphase, n=self.size, axis=-1, norm="forward", out=out)


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


def mean(f: GridFunction) -> complex:
    """(1/2pi) int f dtheta by quadrature."""
    out = np.sum(f.values) / f.grid.size
    return float(out) if f.is_real else complex(out)


def fourier_multiplier(values: np.ndarray, band: tuple) -> np.ndarray:
    """Keep the signed frequencies lo <= k <= hi, band = (lo, hi), of each row of a
    (..., N) stack of samples and zero the rest: slices of the spectrum are zeroed,
    nothing is multiplied.  `synthesize(analyze(v) * mask)` scales bin k by
    e^{-i pi k/N}/N and back by N e^{i pi k/N}; both are diagonal, commute with the
    mask and cancel, so ifft(fft(v) mask) is the same operator without two passes
    (up to rounding)."""
    spec = np.fft.fft(values, axis=-1)
    lo, hi = band
    n = spec.shape[-1]
    half = n // 2
    # bins 0..N/2-1 hold k = 0..N/2-1 and bins N/2..N-1 hold k = -N/2..-1,
    # so each sign half loses at most a slice below lo and one above hi
    spec[..., : min(max(lo, 0), half)] = 0.0
    spec[..., min(max(hi + 1, 0), half): half] = 0.0
    spec[..., half: n + min(max(lo, -half), 0)] = 0.0
    spec[..., n + min(max(hi + 1, -half), 0):] = 0.0
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


def lp_norms(values: np.ndarray, p_grid, weight: np.ndarray | None = None,
             work: tuple | None = None) -> np.ndarray:
    """Discrete L^p norms ((1/N) sum_j |y_j|^p w_j)^{1/p} of each row of a (..., N)
    stack for every p in p_grid, shape (len(p_grid), ...), w = 1 without a weight.

    Each row is rescaled by its max against overflow at large p.  log(|y|/max)
    is taken once, and each p costs one exp(p log) in a second reused buffer,
    so the whole call holds two float arrays of the stack's shape; `work`, a
    pair of such arrays, lends them, for a caller that norms many stacks.  A
    zero entry has log -inf and exp gives 0 back exactly, so a zero row has
    norm 0."""
    logs, terms = work or (None, None)
    logs = np.abs(values, out=logs, dtype=float)  # float64 whatever the input type
    m = logs.max(axis=-1, keepdims=True)
    logs /= np.where(m > 0, m, 1.0)
    with np.errstate(divide="ignore"):
        np.log(logs, out=logs)
    terms = np.empty_like(logs) if terms is None else terms
    out = np.empty((len(p_grid), *m.shape[:-1]))
    for i, p in enumerate(p_grid):
        np.exp(np.multiply(logs, p, out=terms), out=terms)
        if weight is not None:
            terms *= weight
        means = np.mean(terms, axis=-1)
        # scalar libm roots: numpy's SIMD loops differ in the last bit by CPU
        out[i] = np.reshape([s ** (1.0 / p) for s in means.flat], means.shape)
    return out * m[..., 0]


def conjugate_function(f: GridFunction) -> GridFunction:
    """Boundary harmonic conjugate: multiplier -i*sgn(k), constants -> 0.

    The Nyquist bin (k = -N/2) is zeroed so that real input maps to real
    output and the conjugate of a conjugate is -f + mean(f) on the
    |k| < N/2 band.  By real FFT: bins k = 1..N/2-1 times -i, bins 0 and N/2 zeroed, so the
    result is a float array of its own, not the real part of a complex one.
    """
    spec = np.fft.rfft(f.real_values())
    spec *= -1j
    spec[0] = spec[-1] = 0.0
    return GridFunction(f.grid, np.fft.irfft(spec, f.grid.size))


def riesz_project(f: GridFunction) -> GridFunction:
    """Riesz projection: keep frequencies k >= 0, kill k < 0. Idempotent."""
    return band_project(f, 0, f.grid.size // 2 - 1)


def band_project(f: GridFunction, lo: int, hi: int) -> GridFunction:
    """Keep frequencies lo <= k <= hi (signed), zero the rest."""
    return GridFunction(f.grid, fourier_multiplier(f.values, (lo, hi)))


def _is_real(x) -> bool:
    """A real number given as one: not a bool, a string or an array."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_integer(n) -> bool:
    """An integer given as one: numpy integers pass; a bool, a float or a string does not."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _is_degree(n) -> bool:
    """The one degree test: an integer-valued real number, so no bool, string or NaN."""
    return _is_real(n) and float(n).is_integer()


def _check_in_disk(z: complex):
    """The one disk check: |z| < 1, which NaN fails."""
    if not abs(z) < 1.0:
        raise ValueError(f"point must lie strictly inside the unit disk, got z = {complex(z)}")


def poisson_probabilities(grid: CircleGrid, z_samples):
    """Check every disk point z, then yield for each the normalized Poisson kernel
    (1-|z|^2)/|1 - conj(zeta_j) z|^2 at the nodes: exact probability weights."""
    z_samples = np.asarray(z_samples, dtype=complex).ravel()
    if z_samples.size == 0:
        raise ValueError("z_samples must hold at least one disk point, got none")
    for z in z_samples:
        _check_in_disk(z)
    kernels = ((1.0 - abs(z) ** 2) / np.abs(1.0 - np.conj(grid.points) * z) ** 2 for z in z_samples)
    return (kern / kern.sum() for kern in kernels)


def poisson_extend_circles(values: np.ndarray, radii):
    """For each r in radii, yield P(v, r e^{i theta_j}) at the nodes for every row v of a
    real (..., N) stack: rfft bins k = 0..N/2 times r^k, then one irfft.  The half-step
    phase and the 1/N, N scalings cancel as in `fourier_multiplier`, so none is applied."""
    spec = np.fft.rfft(values, axis=-1)
    k = np.arange(spec.shape[-1], dtype=float)
    for r in radii:
        yield np.fft.irfft(spec * r ** k, values.shape[-1], axis=-1)


class MomentError(ValueError):
    pass


@dataclass
class MomentSequence:
    """Trigonometric moments c_k = (1/2pi) int e^{-ik theta} w dtheta, k = 0..kmax.

    Negative indices follow from c_{-k} = conj(c_k), which `toeplitz_gram` applies.
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

    def toeplitz_gram(self, n: int) -> np.ndarray:
        """Gram matrix G[j, k] = <z^j, z^k> = c_{k-j}, size (n+1) x (n+1)."""
        if not (_is_degree(n) and 0 <= n <= self.kmax):
            raise MomentError(f"need moments up to {n!r}, have {self.kmax}; n must be an "
                              f"integer in [0, {self.kmax}]")
        n = int(n)
        from scipy.linalg import toeplitz

        return toeplitz(np.conj(self.c[: n + 1]), self.c[: n + 1])


def trig_moments(f: GridFunction, kmax: int) -> MomentSequence:
    """Moments of the samples by FFT, scaled so c_k = (1/2pi) int e^{-ik theta} f dtheta.

    Requires kmax < N/2.  For a positive weight these are exactly the moments
    of the discrete measure sum_j (f(theta_j)/N) delta_{theta_j}, which is what
    keeps quadrature inner products of the resulting polynomials consistent.
    The samples are real (`real_values` names a complex f): one real FFT, and only
    bins 0..kmax are phased.
    """
    grid, n = f.grid, f.grid.size
    if not (_is_degree(kmax) and 0 <= kmax < n // 2):
        raise MomentError(f"kmax must be an integer with 0 <= kmax < N/2 = {n // 2}, "
                          f"got kmax = {kmax!r}")
    kmax = int(kmax)
    c = np.fft.rfft(f.real_values())[: kmax + 1] / n * grid._phase(kmax + 1, -1.0)
    c[0] = c[0].real
    return MomentSequence(c)
