"""Orthonormal Legendre basis with Gauss-Legendre quadrature on [-a, a].

The basis functions are phi_i(x) = sqrt((2i+1)/(2a)) * P_i(x/a) so the
Galerkin mass matrix is the identity under the quadrature rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SpectralBasis", "build_basis", "legendre_rows", "legendre_values"]


def legendre_values(t: np.ndarray, n: int) -> np.ndarray:
    """P_0..P_{n-1} at points t (reference interval) by the three-term
    recurrence, valid for any real t, including |t| > 1 (polynomial
    extrapolation).  Returns an (n, M) array: one contiguous row per degree.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float)).reshape(-1)
    vals = np.zeros((n, t.size))
    vals[0] = 1.0
    if n > 1:
        vals[1] = t
    for k in range(1, n - 1):
        vals[k + 1] = ((2 * k + 1) * t * vals[k] - k * vals[k - 1]) / (k + 1)
    return vals


def legendre_rows(t: np.ndarray, n: int):
    """Values and derivatives of P_0..P_{n-1} at points t, (n, M) each.

    The derivatives follow P'_{k+1} = (2k+1) P_k + P'_{k-1} from the values.
    """
    vals = legendre_values(t, n)
    ders = np.zeros_like(vals)
    if n > 1:
        ders[1] = 1.0
    for k in range(1, n - 1):
        ders[k + 1] = (2 * k + 1) * vals[k] + ders[k - 1]
    return vals, ders


@dataclass(frozen=True)
class SpectralBasis:
    """Univariate Legendre basis of degree n-1 on [-a, a] with m quadrature points."""

    n: int
    a: float
    m: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)     # (m, n) values at nodes
    dphi: np.ndarray = field(repr=False)    # (m, n) derivatives at nodes
    wphi: np.ndarray = field(repr=False)    # (m, n) weights[:, None] * phi

    def scale(self) -> np.ndarray:
        return np.sqrt((2 * np.arange(self.n) + 1) / (2 * self.a))


def build_basis(n: int, a: float) -> SpectralBasis:
    """Degree n-1 on [-a, a] with m = 2n Gauss-Legendre points, which integrate
    every Galerkin product of the assembly exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if a <= 0:
        raise ValueError("a must be positive")
    m = 2 * n
    t, w = np.polynomial.legendre.leggauss(m)
    nodes = a * t
    weights = a * w
    vals, ders = legendre_rows(t, n)
    scale = np.sqrt((2 * np.arange(n) + 1) / (2 * a))
    phi = np.ascontiguousarray(vals.T * scale)
    dphi = np.ascontiguousarray(ders.T * scale / a)
    return SpectralBasis(n=n, a=float(a), m=m, nodes=nodes, weights=weights, phi=phi, dphi=dphi,
                         wphi=weights[:, None] * phi)

