"""Orthonormal Legendre basis with Gauss-Legendre quadrature on [-a, a].

The basis functions are phi_i(x) = sqrt((2i+1)/(2a)) * P_i(x/a) so the
Galerkin mass matrix is the identity under the quadrature rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SpectralBasis", "build_basis", "legendre_table", "legendre_rows", "eval_point", "eval_deriv_point"]


def legendre_table(t: np.ndarray, n: int):
    """Values and derivatives of P_0..P_{n-1} at points t (reference interval).

    Uses the three-term recurrence for values and
    P'_{k+1} = (2k+1) P_k + P'_{k-1} for derivatives; both are valid for any
    real t, including |t| > 1 (polynomial extrapolation).  Returns (M, n)
    arrays; legendre_rows has the same numbers as (n, M).
    """
    vals, ders = legendre_rows(t, n)
    return np.ascontiguousarray(vals.T), np.ascontiguousarray(ders.T)


def legendre_rows(t: np.ndarray, n: int):
    """legendre_table as (n, M) arrays: one contiguous row per degree."""
    t = np.atleast_1d(np.asarray(t, dtype=float)).reshape(-1)
    vals = np.zeros((n, t.size))
    ders = np.zeros((n, t.size))
    vals[0] = 1.0
    if n > 1:
        vals[1] = t
        ders[1] = 1.0
    for k in range(1, n - 1):
        vals[k + 1] = ((2 * k + 1) * t * vals[k] - k * vals[k - 1]) / (k + 1)
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

    def scale(self) -> np.ndarray:
        return np.sqrt((2 * np.arange(self.n) + 1) / (2 * self.a))

    def eval(self, x: float):
        """phi_i(x) for i = 0..n-1; flags extrapolation beyond [-a, a]."""
        vals, _ = legendre_table(np.atleast_1d(x) / self.a, self.n)
        return vals[0] * self.scale(), bool(abs(x) > self.a)

    def eval_deriv(self, x: float):
        _, ders = legendre_table(np.atleast_1d(x) / self.a, self.n)
        return ders[0] * self.scale() / self.a, bool(abs(x) > self.a)


def build_basis(n: int, a: float, m: int | None = None) -> SpectralBasis:
    """Gauss-Legendre nodes come from the Jacobi-matrix eigenvalue method."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if a <= 0:
        raise ValueError("a must be positive")
    if m is None:
        m = 2 * n
    if m < n:
        raise ValueError("m must be >= n")
    t, w = np.polynomial.legendre.leggauss(m)
    nodes = a * t
    weights = a * w
    vals, ders = legendre_table(t, n)
    scale = np.sqrt((2 * np.arange(n) + 1) / (2 * a))
    phi = vals * scale
    dphi = ders * scale / a
    return SpectralBasis(n=n, a=float(a), m=m, nodes=nodes, weights=weights, phi=phi, dphi=dphi)


def eval_point(basis: SpectralBasis, coeffs: np.ndarray, x: float):
    """Sum_i coeffs_i phi_i(x); returns (value, extrapolated flag)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size != basis.n:
        raise ValueError("coefficient vector has wrong length")
    vals, flag = basis.eval(x)
    return float(vals @ coeffs), flag


def eval_deriv_point(basis: SpectralBasis, coeffs: np.ndarray, x: float):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size != basis.n:
        raise ValueError("coefficient vector has wrong length")
    ders, flag = basis.eval_deriv(x)
    return float(ders @ coeffs), flag
