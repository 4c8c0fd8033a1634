"""Shared cached builders: eigensolves, operators and oracles are reused
across test modules to keep the suite fast."""

from __future__ import annotations

import numpy as np
import pytest

from prolate_calculus import (
    OperatorMatrix,
    finite_fourier_direct,
    nystrom_sinc_eigen,
    reconstruct_fourier,
    reconstruct_sinc,
    sinc_kernel_direct,
    solve_prolate,
)


class OpCache:
    def __init__(self):
        self._store = {}

    def _get(self, key, builder):
        if key not in self._store:
            self._store[key] = builder()
        return self._store[key]

    def basis(self, c, n_dim=None):
        return self._get(("basis", c, n_dim), lambda: solve_prolate(c, n_dim))

    def nystrom(self, c):
        return self._get(("ny", c), lambda: nystrom_sinc_eigen(c))

    def fourier(self, c, n_dim):
        return self._get(("F", c, n_dim), lambda: finite_fourier_direct(c, n_dim))

    def sinc(self, c, n_dim):
        return self._get(("Q", c, n_dim), lambda: sinc_kernel_direct(c, n_dim))

    def fourier_recon(self, c, n_dim, variant="folded"):
        return self._get(
            ("Fr", c, n_dim, variant),
            lambda: reconstruct_fourier(self.basis(c, n_dim), variant),
        )

    def sinc_recon(self, c, n_dim, variant="folded"):
        return self._get(
            ("Qr", c, n_dim, variant),
            lambda: reconstruct_sinc(self.basis(c, n_dim), variant),
        )


@pytest.fixture(scope="session")
def ops() -> OpCache:
    return OpCache()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def reflect():
    """R: x -> -x as an operator builder; diagonal (-1)^n on the Legendre
    basis, so its blocks are I and -I."""
    return lambda n_dim: OperatorMatrix(np.eye((n_dim + 1) // 2), -np.eye(n_dim // 2))


@pytest.fixture(scope="session")
def legendre_recurrence():
    """The orthonormal Legendre table by whole-array arithmetic, one new array
    per degree: the bit-for-bit reference of ``legendre_table``'s scalar and
    in-place paths."""

    def table(n_max, x):
        x = np.asarray(x, dtype=float)
        out = np.empty((n_max + 1,) + x.shape)
        out[0] = 1.0
        if n_max >= 1:
            out[1] = x
        for n in range(2, n_max + 1):
            out[n] = ((2 * n - 1) * x * out[n - 1] - (n - 1) * out[n - 2]) / n
        norms = np.sqrt((2 * np.arange(n_max + 1) + 1) / 2.0)
        return out * norms.reshape((-1,) + (1,) * x.ndim)

    return table
