"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest

from gradobs.spectral import SpectralField


@pytest.fixture
def psi():
    """psi = sin(pi x) sin(3 pi y) / pi**2 = xi_(1,3) / (2 pi**2), the
    counterexample's potential, as a field on a given 2-D basis: its gradient
    is invisible to the midline filament on the whole domain."""
    def on(basis):
        coefficients = np.zeros(len(basis))
        coefficients[basis.index_of((1, 3))] = 1.0 / (2.0 * math.pi**2)
        return SpectralField(basis, coefficients)
    return on
