"""Szego (outer) function on the boundary, strong convergence errors, entropy.

The outer function with |D|^2 = w and D(0) > 0 has boundary trace

    D(xi) = exp( (1/2) log w(xi) + i H((1/2) log w)(xi) ),

with H the harmonic conjugation normalized to kill constants, so
D0 = exp(mean(log w)/2) = exp((1/4pi) int log w dtheta).
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import CircleGrid, GridFunction, _is_real, conjugate_function, mean
from .opuc import OPUCSystem, _abs2_values, poly_values, weighted_lp_norm
from .weights import Weight, resample


@dataclass
class SzegoData:
    """The boundary trace D of the Szego function of `weight` and D0 = D(0);
    1/D is derived on first access, not kept."""

    weight: Weight
    D: GridFunction = field(repr=False)
    D0: float

    @cached_property
    def Dinv(self) -> GridFunction:
        return GridFunction(self.weight.grid, 1.0 / self.D.values)


def szego_function(w: Weight) -> SzegoData:
    """Boundary Szego data; |D|^2 = w holds pointwise by construction."""
    logw = np.log(w.values)
    half = 0.5 * logw
    d = np.exp(half + 1j * conjugate_function(GridFunction(w.grid, half)).values)
    return SzegoData(weight=w, D=GridFunction(w.grid, d), D0=float(np.exp(0.5 * np.mean(logw))))


def _require_normalized(w: Weight, what: str):
    if not w.normalized:
        raise ValueError(f"{what} requires a normalized weight (||w/2pi||_1 = 1)")


def estimate_qcr(w: Weight) -> float:
    """Lower bound for q_cr(w) = sup{q : ||w^{-1}||_{L^q} < infty}.

    Scans quadrature of w^{-q}, q = 33 geometric steps from 1/4 to 64, across
    grid resolutions m-2, m-1, m; a q is classified divergent when the value
    grows by more than 5% under a refinement.
    Needs a re-samplable (parametric) family.
    """
    m = w.grid.log2_size
    if m < 8:
        raise ValueError("q_cr scan needs log2_size >= 8")
    samples = [resample(w, CircleGrid(mm)).values for mm in (m - 2, m - 1, m)]
    best = 0.0
    for q in np.geomspace(0.25, 64.0, 33):
        with np.errstate(over="ignore"):
            ints = [float(np.mean(s ** (-q))) for s in samples]
        if not all(np.isfinite(ints)):
            break
        if ints[1] > 1.05 * ints[0] or ints[2] > 1.05 * ints[1]:
            break
        best = float(q)
    if best == 0.0:
        raise ValueError("w^{-q} diverges already at the smallest scanned q")
    return best


def strong_szego_error(system: OPUCSystem, szego: SzegoData, n: int, p: float = 2.0) -> float:
    """||phi_n^* - D^{-1}||_{L^p_w} by quadrature (normalized weights only).

    For p > 2 the exponent is capped at 2(1 + q_cr(w)) when the family can
    be re-sampled; beyond the cap ||D^{-1}||_{L^p_w} itself diverges.
    """
    w = szego.weight
    _require_normalized(w, "strong_szego_error")
    if not (_is_real(p) and p >= 2.0):
        raise ValueError(f"strong_szego_error needs p >= 2, got p = {p!r}")
    if p > 2.0:
        try:
            cap = 2.0 * (1.0 + estimate_qcr(w))
        except ValueError:
            warnings.warn("q_cr estimate unavailable for this weight; p-cap check skipped",
                          stacklevel=2)
            cap = np.inf
        if p > cap:
            raise ValueError(f"p = {p} exceeds the admissible cap 2(1 + q_cr) ~ {cap:.3g}")
    diff = poly_values(w.grid, np.conj(system.orthonormal_coeffs(n)[::-1])) - szego.Dinv.values
    return weighted_lp_norm(diff, w, p)


def entropy(system: OPUCSystem, w: Weight, n: int) -> float:
    """E(n, w) = (1/2pi) int |phi_n|^2 log|phi_n| w dtheta.

    s = |phi_n|^2 comes from `_abs2_values` (one real inverse FFT), and
    |phi_n|^2 log|phi_n| = s log(s) / 2.  s is floored at the smallest normal
    float in the logarithm, so a polynomial zero landing on a node cannot
    produce -inf.
    """
    _require_normalized(w, "entropy")
    s = _abs2_values(w.grid, system.orthonormal_coeffs(n))
    return float(np.mean(s * (0.5 * np.log(np.maximum(s, np.finfo(float).tiny))) * w.values))


def entropy_limit_target(w: Weight) -> float:
    """-(1/4pi) int log w dtheta, the entropy limit for A_2 weights."""
    _require_normalized(w, "entropy_limit_target")
    return float(-0.5 * mean(GridFunction(w.grid, np.log(w.values))))
