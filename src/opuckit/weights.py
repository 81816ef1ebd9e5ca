"""Weight families on the circle, Muckenhoupt characteristics, and BMO norms.

A Weight is a strictly positive grid function with family metadata that
reads off its samples whether it is normalized (||w/2pi||_1 = 1).  The arc
machinery evaluates

    [w]_{A_p} = sup_I <w>_I <w^{1/(1-p)}>_I^{p-1},   <w>_I = (1/|I|) int_I w,

over the dyadic arc family {[theta_j, theta_j + 2^k 2pi/N)} by circular
prefix sums.  The supremum over a finite arc family is a lower bound for
the true characteristic; enlarging the family (grid refinement) drives it
upward.  The BMO norm sup_I <|f - <f>_I|>_I over the same families averages
only the windows whose Cauchy-Schwarz bound sqrt(Var_I), inflated by every
rounding error, still reaches the running maximum; the pruning is exact,
returning the float of the full scan.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import (CircleGrid, GridFunction, _is_real, poisson_extend_circles,
                   poisson_probabilities, trig_moments)

FAMILIES = ("constant", "fisher_hartwig", "bernstein_szego", "perturbed", "user")
ARC_KINDS = ("dyadic", "full")
_REQUIRED = {"fisher_hartwig": ("beta",), "bernstein_szego": ("a",),
             "perturbed": ("base", "f", "delta"), "user": ("values",)}
_BMO_CHUNK = 1 << 20  # elements per (offsets, L) temporary in bmo_norm: 8 MB of float64
_SUBARC_NODES = 32  # Gauss-Jacobi nodes per sub-arc average: 12 already reach roundoff at a = pi


@dataclass
class Weight(GridFunction):
    """Strictly positive real samples; `normalized` is derived from them."""

    family: str = "user"
    params: dict = field(default_factory=dict)
    normalized: bool = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        self.values = self.real_values()
        if np.any(self.values <= 0.0):
            raise ValueError("weight samples must be strictly positive")
        self.normalized = bool(abs(_sample_mean(self.values) - 1.0) <= 1e-12)

    @property
    def a2_ok(self) -> bool:
        """False only for Fisher-Hartwig samples with beta >= 1/2."""
        if self.family == "fisher_hartwig":
            return self.params["beta"] < 0.5
        return True

    def moments(self, kmax: int):
        return trig_moments(self, kmax)


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
        if not c > 0:
            raise ValueError(f"weight family 'constant' needs value > 0, got value = {c}")
        vals = np.full(grid.size, c)
    elif family == "fisher_hartwig":
        # beta < 1/2 is required for the A_2 statements; larger beta serves moments only
        beta = float(params["beta"])
        if not beta >= 0:
            raise ValueError(f"weight family 'fisher_hartwig' needs beta >= 0, got beta = {beta}")
        vals = fisher_hartwig_values(theta, beta)
    elif family == "bernstein_szego":
        a = float(params["a"])
        if not -1.0 < a < 1.0:
            raise ValueError(f"weight family 'bernstein_szego' needs |a| < 1, got a = {a}")
        vals = bernstein_szego_values(theta, a)
    elif family == "perturbed":
        base = params["base"]
        if not isinstance(base, Weight):
            raise TypeError("perturbed weight needs a base Weight")
        if base.grid.log2_size != grid.log2_size:
            raise ValueError("base weight lives on a different grid")
        f = params["f"]
        fvals = f(theta) if callable(f) else np.asarray(f)
        delta = float(params["delta"])
        if not np.isfinite(delta):
            raise ValueError(f"weight family 'perturbed' needs a finite delta, got delta = {delta}")
        scaled = delta * fvals
        if np.max(scaled) > 300.0 or np.min(scaled) < -300.0:
            raise ValueError("exp(delta f) overflows or underflows; shrink delta or f")
        vals = base.values * np.exp(scaled)
    elif family == "user":
        vals = np.asarray(params["values"], dtype=float)
        if np.any(vals <= 0):
            raise ValueError("user weight samples must be strictly positive")
    else:
        raise ValueError(f"unknown weight family {family!r}; expected one of {FAMILIES}")

    return Weight(grid, _rescaled(vals, family) if normalize else vals, family, params)


def _sample_mean(vals: np.ndarray) -> float:
    """The mean of the samples, inf where it overflows."""
    with np.errstate(over="ignore"):
        return vals.mean()


def _rescaled(vals: np.ndarray, family: str) -> np.ndarray:
    """The samples divided by their mean; a mean that overflows is an error (the
    quotient would be 0)."""
    mean = _sample_mean(vals)
    if np.isinf(mean):
        raise ValueError(f"cannot normalize the {family!r} weight: its sample mean overflows")
    return vals / mean


def renormalized(w: Weight) -> Weight:
    """Copy of w rescaled to ||w/2pi||_1 = 1 (w itself when already normalized)."""
    if w.normalized:
        return w
    return Weight(w.grid, _rescaled(w.values, w.family), w.family, dict(w.params))


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

def arc_lengths(grid: CircleGrid, kind: str) -> np.ndarray:
    """The arc lengths in nodes of an arc family, whose arcs start at every node.

    kind='dyadic' uses lengths 2^k, k = 0..m (N(m+1) arcs); kind='full' uses
    every length 1..N (O(N^2) arcs, for validation at small N).
    """
    if kind not in ARC_KINDS:
        raise ValueError(f"arc kind must be one of {ARC_KINDS}, got {kind!r}")
    if kind == "dyadic":
        return np.array([1 << k for k in range(grid.log2_size + 1)])
    return np.arange(1, grid.size + 1)


@dataclass(frozen=True)
class ApReport:
    p: float
    value: float
    argmax_arc: tuple  # (node offset, length in nodes)


def _circular_prefix(vals: np.ndarray) -> np.ndarray:
    """Prefix sums of two laps of vals, so every circular window is one difference;
    built in one buffer."""
    n = len(vals)
    out = np.empty(2 * n + 1)
    out[0], out[1: n + 1], out[n + 1:] = 0.0, vals, vals
    np.cumsum(out[1:], out=out[1:])
    return out


def _window_sums(prefix: np.ndarray, length: int, out: np.ndarray | None = None) -> np.ndarray:
    """Circular sums over windows of `length` consecutive nodes, all offsets."""
    n = (len(prefix) - 1) // 2
    return np.subtract(prefix[length: length + n], prefix[:n], out=out)


def _ap_inputs(vals: np.ndarray, p: float) -> tuple:
    """(w, w^{1/(1-p)}, s) for the prefix-sum sweep: the arc products come out
    multiplied by 2^s.

    s = 0 and the inputs are untouched unless a two-lap sum, the dual power
    or a window product would leave the float range.  Then w is rescaled by a
    power of two (the characteristic is scale invariant, so that needs no
    undoing) and so is its dual, whose factor 2^e becomes s = e (p - 1).
    """
    with np.errstate(all="ignore"):
        dual = vals ** (1.0 / (1.0 - p))
        tw, td = 2.0 * vals.sum(), 2.0 * dual.sum()
        if np.isfinite(tw * td ** (p - 1.0)) and dual.min() >= np.finfo(float).tiny:
            return vals, dual, 0.0
    vals = np.ldexp(vals, -np.frexp(vals.max())[1])
    with np.errstate(over="raise"):
        try:
            dual = vals ** (1.0 / (1.0 - p))
        except FloatingPointError:
            raise ValueError(
                f"w^(1/(1-p)) overflows for p = {p}; weight dynamic range too large"
            ) from None
    e = -int(np.frexp(dual.max())[1])
    return vals, np.ldexp(dual, e), e * (p - 1.0)


def ap_characteristic(w: Weight, p: float, arcs: str = "dyadic") -> ApReport:
    """Muckenhoupt characteristic over the arc family (a monotone lower bound).

    Scale invariant in w, also where sums of w or of its dual would overflow;
    >= 1 by the discrete Jensen inequality.  Cost is O(N) per arc length via
    one circular prefix sum per input.
    """
    if not (_is_real(p) and p > 1.0):
        raise ValueError(f"A_p requires p > 1, got p = {p!r}")
    if p == np.inf:
        raise ValueError(f"A_p requires a finite p, got p = {p}")
    lengths = arc_lengths(w.grid, arcs)
    _warn_outside_a2(w, "ap_characteristic")

    vals, dual, shift = _ap_inputs(w.values, p)
    cw, cd = _circular_prefix(vals), _circular_prefix(dual)
    prod, sd = np.empty(len(vals)), np.empty(len(vals))  # reused for every length
    best = -np.inf
    best_arc = (0, 1)
    for length in lengths:
        # <w>_I <w^{1/(1-p)}>_I^{p-1} = (S_w / L) * (S_dual / L)^{p-1}
        _window_sums(cw, int(length), out=prod)
        _window_sums(cd, int(length), out=sd)
        if p != 2.0:  # x ** 1.0 is x
            np.power(sd, p - 1.0, out=sd)
        prod *= sd
        prod /= float(length) ** p
        j = int(np.argmax(prod))
        if prod[j] > best:
            best = float(prod[j])
            best_arc = (j, int(length))
    return ApReport(p=p, value=best * 2.0 ** -shift, argmax_arc=best_arc)


def fh_a2_exact(beta: float) -> float:
    """Sub-arc identity for the model weight |theta|^{2 beta} on I = [0, a]:
    <w>_I <w^{-1}>_I = 1/(1 - 4 beta^2), independent of a."""
    if not 0.0 <= beta < 0.5:
        raise ValueError(f"the arc product diverges for beta >= 1/2 (got {beta})")
    return 1.0 / (1.0 - 4.0 * beta * beta)


def _gauss_jacobi01(c: float) -> tuple:
    """(nodes, weights) of the _SUBARC_NODES-point Gauss rule for int_0^1 x^c f(x) dx,
    c > -1, exact for polynomials f of degree < 2 _SUBARC_NODES.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the Jacobi(0, c) polynomials, weight (1 + x)^c on [-1, 1],
    mapped by t = (1 + x)/2; the weights are the squared first components of
    the eigenvectors times the mass 1/(c + 1).
    """
    k = np.arange(1, _SUBARC_NODES, dtype=float)
    s = 2.0 * k + c
    diag = np.concatenate(([c / (c + 2.0)], c * c / (s * (s + 2.0))))
    off = 2.0 * k * (k + c) / (s * np.sqrt(s * s - 1.0))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return (1.0 + x) / 2.0, vecs[0] ** 2 / (c + 1.0)


def fh_subarc_product(beta: float, a: float) -> float:
    """<w>_[0,a] <w^{-1}>_[0,a] for the circle weight |1 - e^{i theta}|^{2 beta},
    by Gauss-Jacobi quadrature (independent of the grid machinery).

    With theta = a x and g(t) = 2 sin(t/2)/t, the two averages are
    int_0^1 x^c g(a x)^c dx for c = 2 beta and c = -2 beta.  The singular
    factor x^c is the rule's weight, and g^c is analytic for |t| < 2 pi, so
    the rule converges geometrically on 0 < a <= pi.
    """
    if not 0.0 < beta < 0.5:
        raise ValueError(f"need 0 < beta < 1/2, got beta = {beta}")
    if not 0.0 < a <= np.pi:
        raise ValueError(f"need 0 < a <= pi, got a = {a}")
    product = 1.0
    for c in (2.0 * beta, -2.0 * beta):
        x, q = _gauss_jacobi01(c)
        product *= q @ np.sinc(a * x / (2.0 * np.pi)) ** c  # np.sinc(t / 2 pi) = g(t)
    return float(product)


# ---------------------------------------------------------------------------
# Poisson-type characteristics
# ---------------------------------------------------------------------------

def poisson_characteristics(w: Weight, z_samples=None) -> tuple:
    """(sup P(w,z) P(w^{-1},z),  sup P(w,z) exp(-P(log w,z))) over the samples, by
    default radii 1 - 2^{-k} times all grid angles, whose profiles come by FFT.  By
    Jensen, the second component never exceeds the first."""
    a2p = ainfp = -np.inf
    vals = (w.values, 1.0 / w.values, np.log(w.values))
    if z_samples is None:
        # streamed, one (3, N) stack per radius: a (radii, N) array raises later peak memory
        radii = 1.0 - 2.0 ** -np.arange(1, w.grid.log2_size - 1)
        profiles = poisson_extend_circles(np.stack(vals), radii)
    else:
        profiles = ([float(lam @ v) for v in vals] for lam in poisson_probabilities(w.grid, z_samples))
    for pw, pinv, plog in profiles:
        a2p = max(a2p, float(np.max(pw * pinv)))
        ainfp = max(ainfp, float(np.max(pw * np.exp(-plog))))
    return a2p, ainfp


# ---------------------------------------------------------------------------
# BMO norm
# ---------------------------------------------------------------------------

_U = np.finfo(float).eps / 2.0  # unit roundoff


def _gamma(k: int) -> float:
    """Relative error bound of k roundings, k u / (1 - k u) (Higham's gamma_k)."""
    return k * _U / (1.0 - k * _U)


def _bmo_bound(vals: np.ndarray, total: float):
    """length -> (means, bound): the window means the scan subtracts, and for
    every offset an upper bound on that window's computed <|f - <f>_I|>_I.

    Cauchy-Schwarz gives <|f - mu_I|>_I <= sqrt(Var_I), and Var_I is O(1) per
    window from circular prefix sums of c = f - mean(f) and c^2.  The bound
    adds the rounding of those prefix sums (gamma_{3N} times the two-lap
    totals), of the centering, of the means taken from the uncentered prefix
    sums, and of the row mean itself (gamma_{L+16}).  `total` is the two-lap
    sum of |f|.
    """
    prefix = _circular_prefix(vals)
    c = vals - vals.mean()
    cp, qp = _circular_prefix(c), _circular_prefix(c * c)
    g = 2.0 * _gamma(3 * len(vals))
    e0, e1, e2 = g * total, g * 2.0 * np.abs(c).sum(), g * 2.0 * (c * c).sum()

    def bound(length: int):
        means = _window_sums(prefix, length) / length
        # m1 <= |<c>_I| and m2 >= <c^2>_I; 32 u m2 covers the rounding of
        # m1^2 and m2, which can be far above Var_I <= m2 - m1^2
        m1 = np.maximum(np.abs(_window_sums(cp, length)) * (1.0 - 2.0 * _U) - e1, 0.0) / length
        m2 = (_window_sums(qp, length) * (1.0 + 2.0 * _U) + e2) * (1.0 + 2.0 * _U) / length
        sd = np.sqrt(np.maximum(m2 * (1.0 + 32.0 * _U) - m1 * m1, 0.0))
        slack = 2.0 * _U * np.sqrt(m2) + e0 / length + 4.0 * _U * np.abs(means)
        return means, (sd + slack) * (1.0 + _gamma(length + 16))

    return bound


def _window_deviations(doubled: np.ndarray, length: int, means: np.ndarray,
                       offsets) -> np.ndarray:
    """<|f - means[j]|>_I over the windows I of `length` nodes at `offsets` j
    of two laps of f, as the full scan's np.abs(windows - means).mean(axis=1)."""
    rows = np.lib.stride_tricks.sliding_window_view(doubled, length)[offsets]
    rows -= means[offsets, None]
    np.abs(rows, out=rows)
    return rows.mean(axis=1)


def bmo_norm(f: GridFunction, arcs: str = "dyadic") -> float:
    """sup over arcs of <|f - <f>_I|>_I, exactly per arc.

    Only windows that can still win are averaged.  Each window has an O(1)
    upper bound on its computed average (see _bmo_bound) that holds with
    every rounding error counted, so a window whose bound is below a value
    already attained is skipped, and the result is the float the full scan
    over all N offsets x every length returns.  The running maximum starts
    from the highest-bound window of each length.  Averaged windows are
    gathered in chunks of _BMO_CHUNK elements, and bounds are recomputed per
    length, so memory does not grow with N or with the number of lengths.
    A constant, whose averages are all roundoff, is scanned in full.
    """
    vals = f.real_values()
    n = f.grid.size
    with np.errstate(over="ignore"):
        total = 2.0 * float(np.abs(vals).sum())
    if not np.isfinite(total):
        raise ValueError(f"bmo_norm: the two-lap prefix sum of |f| overflows at N = {n}"
                         f" (max |f| = {np.max(np.abs(vals)):.3g})")
    doubled = np.concatenate([vals, vals])
    bound = _bmo_bound(vals, total)
    lengths = [int(length) for length in arc_lengths(f.grid, arcs) if length > 1]  # one node: zero
    best = 0.0
    for length in lengths:
        means, b = bound(length)
        seed = _window_deviations(doubled, length, means, [int(np.argmax(b))])
        best = max(best, float(seed[0]))
    for length in lengths:
        means, b = bound(length)
        live = np.flatnonzero(~(b < best))  # a NaN bound is live too
        chunk = max(1, _BMO_CHUNK // length)
        for lo in range(0, len(live), chunk):
            dev = _window_deviations(doubled, length, means, live[lo: lo + chunk])
            best = max(best, float(dev.max()))
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
