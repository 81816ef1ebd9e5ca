"""Caratheodory boundary data, Schur functions, and Aleksandrov-Clark weights.

For a normalized weight the boundary Caratheodory trace is F = w + i H(w)
(so F(0) = 1 and Re F = w), the Schur function is

    f(xi) = (F(xi) - 1) / (xi (F(xi) + 1)),

and the Clark family comes from the Moebius map F_a = (zeta + F)/(1 + zeta F)
with zeta = (1-a)/(1+a) purely imaginary for unimodular a.  The dual case
a = -1 degenerates to F_{-1} = 1/F, i.e. w_dual = w/(w^2 + H(w)^2).
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import GridFunction, conjugate_function, mean, poisson_probabilities
from .weights import Weight, _warn_outside_a2

DENOM_FLOOR = 1e-280
DEGENERACY_FRACTION = 1e-4  # guarded divisions allowed on at most this node fraction


class DegenerateInputError(ValueError):
    pass


@dataclass
class ClarkData:
    """The Clark weight of `base` at `alpha`; the boundary trace F of `base`
    is derived from it on first access, not kept."""

    alpha: complex
    w_alpha: Weight
    mass: float  # mean(w_alpha), a probability/absolute-continuity diagnostic
    base: Weight = field(repr=False)

    @cached_property
    def F_boundary(self) -> GridFunction:
        return caratheodory_boundary(self.base)


def caratheodory_boundary(w: Weight) -> GridFunction:
    """F = w + i H(w) on the boundary; H kills constants so mean(Im F) = 0."""
    if not w.normalized:
        raise ValueError("caratheodory_boundary requires a normalized weight")
    wt = conjugate_function(w)
    return GridFunction(w.grid, w.values + 1j * wt.values)


def schur_from_caratheodory(F: GridFunction) -> GridFunction:
    """Pointwise boundary Schur function f = (F - 1)/(xi (F + 1))."""
    if np.min(F.values.real) <= 0.0:
        warnings.warn("Re F is not strictly positive on the grid", stacklevel=2)
    denom = F.values + 1.0
    if np.min(np.abs(denom)) < DENOM_FLOOR:
        raise DegenerateInputError("F + 1 vanishes on the grid")
    return GridFunction(F.grid, (F.values - 1.0) / (F.grid.points * denom))


def _moebius_clark(F_vals: np.ndarray, alpha: complex) -> np.ndarray:
    zeta = (1.0 - alpha) / (1.0 + alpha)
    return (zeta + F_vals) / (1.0 + zeta * F_vals)


def clark_weight(w: Weight, alpha: complex) -> ClarkData:
    """Aleksandrov-Clark weight w_alpha = Re F_alpha on the boundary.

    For alpha = -1 the direct dual formula w/(w^2 + H(w)^2) is used (the
    Moebius form has zeta = infinity there).  The mass diagnostic should be
    1 for weights in A_2 where mu_alpha stays absolutely continuous; its
    distance from 1 measures the discretization of any near-singular peak.
    """
    if not abs(abs(alpha) - 1.0) <= 1e-12:  # NaN fails
        raise ValueError(f"alpha must be unimodular, got |alpha| = {abs(alpha)}")
    _warn_outside_a2(w, "clark_weight")
    # for a normalized w, [w]_{A_2} is finite at working precision exactly
    # when the mean of 1/w is
    with np.errstate(over="ignore", divide="ignore"):
        inv_mean = float(np.mean(1.0 / w.values))
    if not np.isfinite(inv_mean):
        raise ValueError(f"{w.family} weight (min w = {np.min(w.values):.3g}) is not A_2"
                         " at working precision: the mean of 1/w overflows")

    F = caratheodory_boundary(w)
    if abs(alpha + 1.0) <= 1e-12:
        wt = F.values.imag
        denom = w.values ** 2 + wt ** 2
        n_guarded = int(np.sum(denom < DENOM_FLOOR))
        if n_guarded > DEGENERACY_FRACTION * w.grid.size:
            raise DegenerateInputError(
                f"|F|^2 below floor at {n_guarded} nodes; dual weight degenerate")
        vals = w.values / np.maximum(denom, DENOM_FLOOR)
    else:
        # a contiguous copy: the real view would keep the complex result alive
        vals = _moebius_clark(F.values, complex(alpha)).real.copy()
        if np.any(vals <= 0.0):
            raise DegenerateInputError("Clark weight lost positivity on the grid")

    w_alpha = Weight(w.grid, vals, "user",
                     {"values": vals, "clark_alpha": complex(alpha), "clark_base": w.family})
    return ClarkData(alpha=complex(alpha), w_alpha=w_alpha, mass=float(mean(w_alpha)), base=w)


def generalized_entropy(w: Weight, z_samples) -> np.ndarray:
    """K(mu, z) = log P(w, z) - P(log w, z) at each sample point.

    The Poisson values use exact probability weights at every z (normalized
    discrete kernel), so K >= 0 holds to roundoff by Jensen.
    """
    logw = np.log(w.values)
    return np.array([np.log(float(lam @ w.values)) - float(lam @ logw)
                     for lam in poisson_probabilities(w.grid, z_samples)])
