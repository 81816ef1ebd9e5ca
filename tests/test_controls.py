"""Negative controls: one plausible bug per acceptance gate, planted by monkeypatch.

Each case runs its experiment at the default grid (m = 14) clean and asserts that
it passes, then runs it with the bug and asserts that exactly the named checks
fail.  A bug that no gate sees is pinned as a blind spot, next to the test that
does see it.  The README table "Which gate sees which bug" lists these cases with
the bugs that have no control yet.
"""

import numpy as np
import pytest

import opuckit.operators
import opuckit.szego
import opuckit.weights
from opuckit.experiments import ExperimentSpec, run
from opuckit.grid import CircleGrid, GridFunction
from opuckit.weights import Weight

# experiment -> (module, attribute, bug(original) -> replacement, checks that fail)
CONTROLS = {
    # criterion 6: the Szego function built from the negated conjugate of log w / 2
    "strong_szego": (opuckit.szego, "conjugate_function",
                     lambda conj: lambda f: GridFunction(f.grid, -conj(f).values),
                     {"fh_decreasing", "fh_final", "bs_exact"}),
    # criterion 4: Fisher-Hartwig weights sampled as |1 - z|^(2.1 beta), not |1 - z|^(2 beta)
    "fh_growth": (opuckit.weights, "fisher_hartwig_values",
                  lambda fh: lambda theta, beta: fh(theta, 1.05 * beta),
                  {"exponent[beta=0.3,p=6.0]", "exponent[beta=0.2,p=8.0]",
                   "critical_log_class"}),
}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_planted_bug_fails_the_gate(name, monkeypatch):
    module, attr, bug, fails = CONTROLS[name]
    clean = run(ExperimentSpec(name=name))
    assert clean.passed and all(c["pass"] for c in clean.checks.values())
    monkeypatch.setattr(module, attr, bug(getattr(module, attr)))
    planted = run(ExperimentSpec(name=name))
    assert not planted.passed
    assert {k for k, c in planted.checks.items() if not c["pass"]} == fails


def _first_order_defects():
    """d / (delta/4 + delta^2/16) - 1 for w = 1, f = cos, p = 2 (m = 10, band 16)."""
    g = CircleGrid(10)
    res = opuckit.operators.continuity_experiment(opuckit.weights.make_weight("constant", {}, g),
                                                  GridFunction(g, np.cos(g.nodes)), 2.0,
                                                  [1e-6, 1e-5], band=16)
    return [dist / (delta / 4 + delta ** 2 / 16) - 1.0 for delta, dist in res["rows"]]


def test_continuity_u_equals_w_is_a_blind_spot_the_oracle_sees(monkeypatch):
    # criterion 8: weighted_riesz with u = w, not w^(1/p), doubles every distance
    # but keeps the log-log slope 1; the first-order oracle reads the perturbed
    # term that the commutator pair takes its u from
    assert run(ExperimentSpec(name="continuity")).passed
    assert all(abs(e) <= 5e-11 for e in _first_order_defects())
    riesz = opuckit.operators.weighted_riesz
    monkeypatch.setattr(opuckit.operators, "weighted_riesz", lambda w, p, band=None: riesz(
        Weight(w.grid, w.values ** p, w.family), p, band=band))
    assert run(ExperimentSpec(name="continuity")).passed  # the blind spot
    assert all(abs(e - 1.0) < 1e-4 for e in _first_order_defects())
