import numpy as np
import pytest

import opuckit as ok


def pytest_addoption(parser):
    parser.addoption("--update-goldens", action="store_true",
                     help="rewrite tests/golden/*.json from the records the acceptance tests build")


@pytest.fixture(scope="session")
def grid12():
    return ok.CircleGrid(12)


@pytest.fixture(scope="session")
def grid14():
    return ok.CircleGrid(14)


@pytest.fixture(scope="session")
def fh02_system(grid14):
    w = ok.make_weight("fisher_hartwig", {"beta": 0.2}, grid14)
    return w, ok.system_from_weight(w, 512)


@pytest.fixture(scope="session")
def bs05_system(grid14):
    w = ok.make_weight("bernstein_szego", {"a": 0.5}, grid14)
    return w, ok.system_from_weight(w, 512)


def random_bandlimited(grid, rng, kmax, real=False):
    """Random trigonometric polynomial with frequencies |k| <= kmax."""
    coeffs = np.zeros(grid.size, dtype=complex)
    ks = np.arange(-kmax, kmax + 1)
    coeffs[ks] = rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks))
    vals = grid.synthesize(coeffs)
    if real:
        return ok.GridFunction(grid, vals.real)
    return ok.GridFunction(grid, vals)
