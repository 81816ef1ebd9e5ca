import numpy as np
import pytest

import opuckit as ok
from opuckit.grid import _check_in_disk

_TABLE_BLOCK = 16  # rows per stacked synthesize in orthonormal_values_table


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


def orthonormal_values_table(system, grid, n):
    """(n+1) x N matrix of phi_k(theta_j) values, from one stacked synthesize
    per _TABLE_BLOCK rows (row k equals poly_values of phi_k bitwise)."""
    table = system.orthonormal_table(n)
    if n + 1 > grid.size // 2:
        raise ValueError("polynomial degree must stay below N/2")
    out = np.empty((n + 1, grid.size), dtype=complex)
    for lo in range(0, n + 1, _TABLE_BLOCK):
        block = np.zeros((min(_TABLE_BLOCK, n + 1 - lo), grid.size), dtype=complex)
        block[:, : n + 1] = table[lo: lo + len(block)]
        out[lo: lo + len(block)] = grid.synthesize(block)
    return out


def quadrature_gram(system, w, n):
    """Gram matrix of phi_0..phi_n under (w/2pi) dtheta by quadrature of their grid
    values: the oracle of the Toeplitz form in `opuc.gram_matrix`."""
    vals = orthonormal_values_table(system, w.grid, n)
    return (vals * w.values) @ np.conj(vals.T) / w.grid.size


def psi_integral_form(system, w, n, z):
    """Quadrature of the defining integral of the second-kind polynomial,

        psi_n(z) = int (1 + z conj(xi)) / (1 - z conj(xi)) (phi_n(xi) - phi_n(z)) dmu,

    for n >= 1 and z strictly inside the disk: the oracle of `opuc.second_kind`."""
    if n < 1:
        raise ValueError("the integral form applies for n >= 1")
    _check_in_disk(z)
    grid = w.grid
    coeffs = system.orthonormal_coeffs(n)
    phi_vals = ok.poly_values(grid, coeffs)
    phi_at_z = ok.poly_eval(coeffs, z)
    zeta_bar = np.conj(grid.points)
    kern = (1.0 + z * zeta_bar) / (1.0 - z * zeta_bar)
    return complex(np.sum(kern * (phi_vals - phi_at_z) * w.values) / grid.size)


def check_linearity(probe):
    """apply(a f + b g) = a apply(f) + b apply(g) to 1e-10 relative, on two chirps
    that fill the whole spectrum."""
    t = probe.grid.nodes
    f, g = np.exp(1j * t * t), (1.0 + t) * np.exp(-3j * t * t)
    a, b = 0.7 - 0.3j, -1.2 + 0.4j
    lhs = probe.apply(a * f + b * g)
    rhs = a * probe.apply(f) + b * probe.apply(g)
    scale = max(np.max(np.abs(lhs)), 1.0)
    return bool(np.max(np.abs(lhs - rhs)) < 1e-10 * scale)
