import numpy as np
import pytest

from tthjb.basis import build_basis, legendre_rows
from tthjb.policy import ValueFunction
from tthjb.tt import TTTensor


class TestQuadrature:
    def test_two_point_rule(self):
        b = build_basis(1, 1.0)
        assert np.allclose(np.sort(b.nodes), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert np.allclose(b.weights, [1.0, 1.0])

    def test_integrates_x_squared(self):
        b = build_basis(1, 1.0)
        assert np.isclose(np.sum(b.weights * b.nodes**2), 2.0 / 3.0)

    def test_exact_up_to_degree_2m_minus_1(self):
        for n, a in ((3, 1.0), (5, 3.0)):
            b = build_basis(n, a)
            for p in range(2 * b.m):
                got = np.sum(b.weights * b.nodes**p)
                want = 0.0 if p % 2 else 2.0 * a ** (p + 1) / (p + 1)
                assert abs(got - want) <= 1e-12 * 2.0 * a ** (p + 1)

    def test_default_m_is_2n(self):
        assert build_basis(5, 3.0).m == 10


class TestOrthonormality:
    @pytest.mark.parametrize("n,a", [(7, 3.0), (4, 1.0), (6, 20.0)])
    def test_gram_identity(self, n, a):
        b = build_basis(n, a)
        gram = b.phi.T @ (b.weights[:, None] * b.phi)
        assert np.allclose(gram, np.eye(n), atol=1e-12)


def value_1d(basis, coeffs):
    """sum_i coeffs_i phi_i as a d = 1 value function."""
    return ValueFunction(TTTensor.rank_one([np.asarray(coeffs, dtype=float)]), basis)


class TestEvaluation:
    def test_constant_mode(self):
        b = build_basis(4, 2.0)
        X = np.array([[-1.5], [0.0], [0.7]])
        V = value_1d(b, np.eye(4)[0])
        assert np.allclose(V.eval(X), 1.0 / np.sqrt(4.0))
        assert not np.any(V.gradient(X)[1])

    def test_linear_reproduction(self):
        b = build_basis(4, 3.0)
        # project f(x) = 2x + 1 by quadrature, then evaluate off-grid
        f = 2.0 * b.nodes + 1.0
        coeffs = b.phi.T @ (b.weights * f)
        X = np.array([[-2.4], [0.3], [1.9]])
        assert np.allclose(value_1d(b, coeffs).eval(X), 2.0 * X[:, 0] + 1.0, atol=1e-12)

    def test_cubic_derivative(self):
        b = build_basis(5, 1.0)
        coeffs = b.phi.T @ (b.weights * b.nodes**3)
        grads, flags = value_1d(b, coeffs).gradient(np.array([[0.5]]))
        assert abs(grads[0, 0] - 0.75) <= 1e-10
        assert not flags[0]

    def test_extrapolation_flag(self):
        b = build_basis(3, 1.0)
        _, flags = value_1d(b, np.ones(3)).gradient(np.array([[1.5]]))
        assert flags[0]

    def test_derivative_matches_finite_differences(self):
        b = build_basis(6, 2.0)
        h = 1e-6
        X = np.array([[-1.0], [0.2], [1.3]])
        for i in range(b.n):
            V = value_1d(b, np.eye(b.n)[i])
            d = V.gradient(X)[0][:, 0]
            fd = (V.eval(X + h) - V.eval(X - h)) / (2 * h)
            assert np.all(np.abs(d - fd) <= 1e-5 * np.maximum(1.0, np.abs(d)))


class TestLegendreTable:
    def test_recurrence_against_numpy(self):
        t = np.linspace(-1, 1, 11)
        vals, _ = legendre_rows(t, 6)
        for k in range(6):
            ref = np.polynomial.legendre.Legendre.basis(k)(t)
            assert np.allclose(vals[k], ref, atol=1e-12)

    def test_invalid_build_args(self):
        with pytest.raises(ValueError):
            build_basis(0, 1.0)
        with pytest.raises(ValueError):
            build_basis(3, -1.0)
