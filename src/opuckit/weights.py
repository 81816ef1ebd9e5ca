"""Weight families on the circle, Muckenhoupt characteristics, and BMO norms.

A Weight is a strictly positive grid function with a normalization flag
(||w/2pi||_1 = 1) and family metadata.  The arc machinery evaluates

    [w]_{A_p} = sup_I <w>_I <w^{1/(1-p)}>_I^{p-1},   <w>_I = (1/|I|) int_I w,

over the dyadic arc family {[theta_j, theta_j + 2^k 2pi/N)} by circular
prefix sums.  The supremum over a finite arc family is a lower bound for
the true characteristic; enlarging the family (grid refinement) drives it
upward.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .grid import CircleGrid, GridFunction, mean, poisson_probabilities, trig_moments

FAMILIES = ("constant", "fisher_hartwig", "bernstein_szego", "perturbed", "user")
_REQUIRED = {"fisher_hartwig": ("beta",), "bernstein_szego": ("a",),
             "perturbed": ("base", "f", "delta"), "user": ("values",)}
_BMO_CHUNK = 1 << 20  # elements per (offsets, L) temporary in bmo_norm: 8 MB of float64


@dataclass(frozen=True)
class FisherHartwigParams:
    """Exponent of the model weight |z - 1|^{2 beta}.

    beta < 1/2 is required for the A_2 statements; larger beta is allowed
    for moment generation only.
    """

    beta: float

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")


@dataclass
class Weight:
    samples: GridFunction
    normalized: bool
    family: str = "user"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = self.samples.real_values()
        if np.any(vals <= 0.0):
            raise ValueError("weight samples must be strictly positive")
        self.samples = GridFunction(self.samples.grid, vals)
        if self.normalized and abs(mean(self.samples) - 1.0) > 1e-12:
            raise ValueError("normalized flag set but ||w/2pi||_1 != 1")

    @property
    def grid(self) -> CircleGrid:
        return self.samples.grid

    @property
    def values(self) -> np.ndarray:
        return self.samples.values

    @property
    def a2_ok(self) -> bool:
        """False only for Fisher-Hartwig samples with beta >= 1/2."""
        if self.family == "fisher_hartwig":
            return self.params["beta"] < 0.5
        return True

    def moments(self, kmax: int):
        return trig_moments(self.samples, kmax)


def _warn_outside_a2(w: Weight, where: str):
    if not w.a2_ok:
        warnings.warn(
            f"{where}: Fisher-Hartwig beta = {w.params['beta']} >= 1/2 lies outside A_2;"
            " result is outside the supported regime",
            stacklevel=3,
        )


def fisher_hartwig_values(theta: np.ndarray, beta: float) -> np.ndarray:
    # |1 - e^{i theta}|^{2 beta} = (2 sin(theta/2))^{2 beta} on (0, 2 pi)
    return (2.0 * np.sin(theta / 2.0)) ** (2.0 * beta)


def bernstein_szego_values(theta: np.ndarray, a: float) -> np.ndarray:
    return (1.0 - a * a) / np.abs(1.0 - a * np.exp(1j * theta)) ** 2


def make_weight(family: str, params: dict | None = None, grid: CircleGrid | None = None,
                normalize: bool = True) -> Weight:
    """Sample a weight family on the grid; optionally rescale to ||w/2pi||_1 = 1."""
    params = dict(params or {})
    grid = grid or CircleGrid()
    theta = grid.nodes
    missing = [k for k in _REQUIRED.get(family, ()) if k not in params]
    if missing:
        raise ValueError(f"weight family {family!r} needs parameter {missing[0]!r}")

    if family == "constant":
        c = float(params.setdefault("value", 1.0))
        if c <= 0:
            raise ValueError("constant weight must be positive")
        vals = np.full(grid.size, c)
    elif family == "fisher_hartwig":
        fh = FisherHartwigParams(float(params["beta"]))
        vals = fisher_hartwig_values(theta, fh.beta)
    elif family == "bernstein_szego":
        a = float(params["a"])
        if not -1.0 < a < 1.0:
            raise ValueError("bernstein_szego parameter must satisfy |a| < 1")
        vals = bernstein_szego_values(theta, a)
    elif family == "perturbed":
        base = params["base"]
        if not isinstance(base, Weight):
            raise TypeError("perturbed weight needs a base Weight")
        if base.grid.log2_size != grid.log2_size:
            raise ValueError("base weight lives on a different grid")
        f = params["f"]
        fvals = f(theta) if callable(f) else np.asarray(f)
        scaled = float(params["delta"]) * fvals
        if np.max(scaled) > 300.0 or np.min(scaled) < -300.0:
            raise ValueError("exp(delta f) overflows or underflows; shrink delta or f")
        vals = base.values * np.exp(scaled)
    elif family == "user":
        vals = np.asarray(params["values"], dtype=float)
        if np.any(vals <= 0):
            raise ValueError("user weight samples must be strictly positive")
    else:
        raise ValueError(f"unknown weight family {family!r}; expected one of {FAMILIES}")

    if normalize:
        vals = vals / vals.mean()
        normalized = True
    else:
        normalized = bool(abs(vals.mean() - 1.0) <= 1e-12)
    return Weight(GridFunction(grid, vals), normalized, family, params)


def renormalized(w: Weight) -> Weight:
    """Copy of w rescaled to ||w/2pi||_1 = 1 (no-op when already flagged)."""
    if w.normalized:
        return w
    vals = w.values / w.values.mean()
    return Weight(GridFunction(w.grid, vals), True, w.family, dict(w.params))


def resample(w: Weight, grid: CircleGrid) -> Weight:
    """Re-sample a parametric weight on another grid. 'user' weights cannot move."""
    if w.family == "user":
        raise ValueError("user weights carry no sampling rule and cannot be resampled")
    if w.family == "perturbed" and not callable(w.params["f"]):
        raise ValueError("perturbed weight with array-valued f cannot be resampled")
    params = dict(w.params)
    if w.family == "perturbed":
        params["base"] = resample(w.params["base"], grid)
    return make_weight(w.family, params, grid, normalize=w.normalized)


# ---------------------------------------------------------------------------
# arc families and Muckenhoupt characteristics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArcFamily:
    """All grid offsets x a set of arc lengths (node counts).

    kind='dyadic' uses lengths 2^k, k = 0..m (N(m+1) arcs); kind='full' uses
    every length 1..N (O(N^2) arcs, for validation at small N).
    """

    grid: CircleGrid
    kind: str = "dyadic"

    def __post_init__(self):
        if self.kind not in ("dyadic", "full"):
            raise ValueError("arc family kind must be 'dyadic' or 'full'")

    @property
    def lengths(self) -> np.ndarray:
        if self.kind == "dyadic":
            return np.array([1 << k for k in range(self.grid.log2_size + 1)])
        return np.arange(1, self.grid.size + 1)

    def __len__(self) -> int:
        return int(len(self.lengths)) * self.grid.size


@dataclass(frozen=True)
class ApReport:
    p: float
    value: float
    argmax_arc: tuple  # (node offset, length in nodes)


def _circular_prefix(vals: np.ndarray) -> np.ndarray:
    """Prefix sums of two laps of vals, so every circular window is one difference."""
    return np.concatenate(([0.0], np.cumsum(np.concatenate([vals, vals]))))


def _window_sums(prefix: np.ndarray, length: int) -> np.ndarray:
    """Circular sums over windows of `length` consecutive nodes, all offsets."""
    n = (len(prefix) - 1) // 2
    return prefix[length: length + n] - prefix[:n]


def ap_characteristic(w: Weight, p: float, arcs: ArcFamily | None = None) -> ApReport:
    """Muckenhoupt characteristic over the arc family (a monotone lower bound).

    Scale invariant in w; >= 1 by the discrete Jensen inequality.  Cost is
    O(N) per arc length via one circular prefix sum per input.
    """
    if p <= 1.0:
        raise ValueError(f"A_p requires p > 1, got p = {p}")
    arcs = arcs or ArcFamily(w.grid)
    if arcs.grid.log2_size != w.grid.log2_size:
        raise ValueError("arc family grid does not match weight grid")
    _warn_outside_a2(w, "ap_characteristic")

    vals = w.values
    with np.errstate(over="raise"):
        try:
            dual = vals ** (1.0 / (1.0 - p))
        except FloatingPointError:
            raise ValueError(
                f"w^(1/(1-p)) overflows for p = {p}; weight dynamic range too large"
            ) from None

    cw, cd = _circular_prefix(vals), _circular_prefix(dual)
    best = -np.inf
    best_arc = (0, 1)
    for length in arcs.lengths:
        prod = _window_sums(cw, int(length)) * _window_sums(cd, int(length)) ** (p - 1.0)
        # <w>_I <w^{1/(1-p)}>_I^{p-1} = (S_w / L) * (S_dual / L)^{p-1}
        prod /= float(length) ** p
        j = int(np.argmax(prod))
        if prod[j] > best:
            best = float(prod[j])
            best_arc = (j, int(length))
    return ApReport(p=p, value=best, argmax_arc=best_arc)


def ap_refinement_curve(family: str, params: dict, p: float, log2_sizes) -> list:
    """[ (m, ap value) ] across grid resolutions; the values are lower bounds
    that should be non-decreasing toward the true supremum."""
    out = []
    for m in log2_sizes:
        w = make_weight(family, params, CircleGrid(m), normalize=False)
        out.append((int(m), ap_characteristic(w, p).value))
    return out


def fh_a2_exact(beta: float) -> float:
    """Sub-arc identity for the model weight |theta|^{2 beta} on I = [0, a]:
    <w>_I <w^{-1}>_I = 1/(1 - 4 beta^2), independent of a."""
    if not 0.0 <= beta < 0.5:
        raise ValueError(f"the arc product diverges for beta >= 1/2 (got {beta})")
    return 1.0 / (1.0 - 4.0 * beta * beta)


def fh_subarc_product(beta: float, a: float) -> float:
    """<w>_[0,a] <w^{-1}>_[0,a] for the circle weight |1 - e^{i theta}|^{2 beta},
    by adaptive quadrature (independent of the grid machinery).

    The singular factor theta^{-2 beta} is removed with the substitution
    u = theta^{1-2 beta}, which leaves smooth integrands.
    """
    if not 0.0 < beta < 0.5:
        raise ValueError("need 0 < beta < 1/2")
    if not 0.0 < a <= np.pi:
        raise ValueError("need an arc [0, a] with 0 < a <= pi")
    two_beta = 2.0 * beta
    avg_w = quad(lambda t: (2.0 * np.sin(t / 2.0)) ** two_beta, 0.0, a, limit=200)[0] / a

    s = 1.0 - two_beta

    def smooth(u):
        t = u ** (1.0 / s)
        return (2.0 * np.sin(t / 2.0) / t) ** (-two_beta)

    avg_inv = quad(smooth, 0.0, a ** s, limit=200)[0] / (s * a)
    return avg_w * avg_inv


# ---------------------------------------------------------------------------
# Poisson-type characteristics
# ---------------------------------------------------------------------------

def _poisson_profiles(w: Weight, radii):
    """Yield the rows P(w, r e^{i theta_j}), P(w^{-1}, .), P(log w, .) for each
    radius, by the r^{|k|} multiplier (exact extension of the interpolant, so
    P(1, .) = 1): one (3, N) synthesize per radius.  No (radii, N) array is
    built; at large N its allocation and release raise the peak memory of
    later large temporaries."""
    grid = w.grid
    absk = np.abs(grid.freqs).astype(float)
    spectra = grid.analyze(np.stack([w.values, 1.0 / w.values, np.log(w.values)]))
    for r in radii:
        yield grid.synthesize(spectra * r ** absk).real


def poisson_characteristics(w: Weight, z_samples=None) -> tuple:
    """(sup P(w,z) P(w^{-1},z),  sup P(w,z) exp(-P(log w,z))) over the samples.

    With the default sample set (radii 1 - 2^{-k} times all grid angles) the
    profiles are computed by FFT.  By Jensen, the second component never
    exceeds the first.
    """
    grid = w.grid
    a2p = ainfp = -np.inf
    if z_samples is None:
        for pw, pinv, plog in _poisson_profiles(w, 1.0 - 2.0 ** -np.arange(1, grid.log2_size - 1)):
            a2p = max(a2p, float(np.max(pw * pinv)))
            ainfp = max(ainfp, float(np.max(pw * np.exp(-plog))))
        return a2p, ainfp

    logw = np.log(w.values)
    for lam in poisson_probabilities(grid, z_samples):
        pw = float(lam @ w.values)
        a2p = max(a2p, pw * float(lam @ (1.0 / w.values)))
        ainfp = max(ainfp, pw * float(np.exp(-(lam @ logw))))
    return a2p, ainfp


# ---------------------------------------------------------------------------
# BMO norm and dyadic approximants
# ---------------------------------------------------------------------------

def bmo_norm(f: GridFunction, arcs: ArcFamily | None = None) -> float:
    """sup over arcs of <|f - <f>_I|>_I, exactly per arc.

    Sliding windows are materialized in chunks of offsets, _BMO_CHUNK
    elements each, so the cost is O(N * L) work per length class at a
    memory bound that does not grow with N.
    """
    vals = f.real_values()
    arcs = arcs or ArcFamily(f.grid)
    n = f.grid.size
    doubled = np.concatenate([vals, vals])
    prefix = _circular_prefix(vals)
    best = 0.0
    for length in arcs.lengths:
        length = int(length)
        if length == 1:
            continue  # single-node arcs have zero oscillation
        means = _window_sums(prefix, length) / length
        windows = np.lib.stride_tricks.sliding_window_view(doubled, length)[:n]
        chunk = max(1, _BMO_CHUNK // length)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            dev = np.abs(windows[lo:hi] - means[lo:hi, None]).mean(axis=1)
            m = float(dev.max())
            if m > best:
                best = m
    return best


def bmo_norm_bruteforce(f: GridFunction) -> float:
    """Direct per-arc evaluation over the dyadic family; oracle for small N."""
    vals = f.real_values()
    n = f.grid.size
    if n > 4096:
        raise ValueError("brute-force BMO is for N <= 2^12")
    best = 0.0
    for k in range(f.grid.log2_size + 1):
        length = 1 << k
        for j in range(n):
            idx = (j + np.arange(length)) % n
            window = vals[idx]
            best = max(best, float(np.abs(window - window.mean()).mean()))
    return best


def dyadic_approximant(w: Weight, level: int) -> Weight:
    """Piecewise-constant weight equal to <w>_I on each of the 2^level arcs
    I_j = 2^{-level} (2 pi) [j, j+1).  Preserves c_0 exactly."""
    if not 0 <= level <= w.grid.log2_size:
        raise ValueError(f"level must be in [0, {w.grid.log2_size}], got {level}")
    n = w.grid.size
    block = n >> level
    means = w.values.reshape(1 << level, block).mean(axis=1)
    vals = np.repeat(means, block)
    return Weight(GridFunction(w.grid, vals), w.normalized,
                  family="user", params={"values": vals, "approximant_of": w.family, "level": level})
