"""Negative controls: one plausible bug per acceptance gate, planted by monkeypatch.

Each case runs its experiment at the default grid (m = 14) clean and asserts that
it passes, then runs it with the bug and asserts that exactly the named checks
fail.  The README table "Which gate sees which bug" lists these cases with the
bugs that no gate sees yet.
"""

import pytest

import opuckit.szego
import opuckit.weights
from opuckit.experiments import ExperimentSpec, run
from opuckit.grid import GridFunction

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
