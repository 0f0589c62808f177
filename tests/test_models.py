import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from tthjb.models import (
    MODELS,
    _bernoulli,
    _control_potential_deriv,
    _diff_matrix,
    _fp_operators,
    _ground_potential_deriv,
    _neumann_closure,
    allen_cahn_1d,
    fokker_planck,
    fokker_planck_unshifted,
    lq,
    solve_riccati,
)


def ac_nodes(d):
    """The interior Chebyshev nodes of allen_cahn_1d(d)."""
    return _neumann_closure(d)[2][1 : d + 1]


def fp_pieces(D, nu=1.0):
    """h, L, x_inf, Z and P of fokker_planck(D, nu), rebuilt as it builds them:
    the cell width, the drift operator, the steady state, an orthonormal
    basis of the zero-mass vectors and the projection onto them along x_inf."""
    _, h, L, _, x_inf = _fp_operators(D, nu)
    Z = scipy.linalg.null_space((np.ones((D, 1)) / np.sqrt(D)).T)
    P = np.eye(D) - np.outer(x_inf, np.ones(D)) * h / (np.sum(x_inf) * h)
    return h, L, x_inf, Z, P


def fd_jacobian(f, d, h=1e-7):
    J = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        J[:, j] = (f((e).reshape(1, -1))[0] - f((-e).reshape(1, -1))[0]) / (2 * h)
    return J


class TestAllenCahn1D:
    def test_equilibria(self):
        m = allen_cahn_1d(10)
        for x in (np.zeros(10), np.ones(10), -np.ones(10)):
            assert np.max(np.abs(m.drift(x.reshape(1, -1)))) <= 1e-9

    def test_zero_state_cost(self):
        m = allen_cahn_1d(8)
        assert m.state_cost(np.zeros((1, 8)))[0] == 0.0

    def test_linearization_is_a_plus_identity(self):
        m = allen_cahn_1d(8)
        J = fd_jacobian(m.drift, 8)
        assert np.allclose(J, m.lin_A, atol=1e-5)
        # lin_A less the reaction's identity is the diffusion operator alone
        sigma_L = m.lin_A - np.eye(8)
        assert np.allclose(J - np.eye(8), sigma_L, atol=1e-5)

    def test_uncontrolled_flows_to_ones(self):
        m = allen_cahn_1d(10)
        sol = solve_ivp(lambda t, x: m.drift(x.reshape(1, -1))[0], (0, 20.0),
                        m.x0_default, rtol=1e-8, atol=1e-10)
        assert np.allclose(sol.y[:, -1], 1.0, atol=1e-3)

    def test_actuator_support(self):
        m = allen_cahn_1d(10)
        xi = ac_nodes(10)
        B = m.lin_B.reshape(-1)
        inside = (xi >= -0.5 - 1e-9) & (xi <= 0.2 + 1e-9)
        assert np.array_equal(B != 0.0, inside)

    def test_state_cost_is_l2_quadrature(self):
        # constant state 1 has squared L2 norm 2 on (-1, 1)
        m = allen_cahn_1d(12)
        assert np.isclose(m.state_cost(np.ones((1, 12)))[0], 2.0, atol=1e-6)

    def test_pseudospectral_derivative_exactness(self):
        d, sigma = 10, 0.2
        m = allen_cahn_1d(d, sigma=sigma)
        xi = ac_nodes(d)
        # quadratic with zero Neumann data at +-1: p(x) = 1 (trivial) is too
        # weak; use the sigma-Laplacian on cos(pi x), whose derivative
        # vanishes at the boundary
        x = np.cos(np.pi * xi)
        lap = m.lin_A - np.eye(d)   # sigma * D2 with Neumann closure
        want = sigma * (-np.pi**2) * np.cos(np.pi * xi)
        got = lap @ x
        assert np.max(np.abs(got - want)) <= 1e-3 * np.max(np.abs(want))

    def test_cos_bump_initial_state(self):
        m = allen_cahn_1d(10)
        xi = ac_nodes(10)
        assert np.allclose(m.x0_default,
                           2.0 + np.cos(2 * np.pi * xi) * np.cos(np.pi * xi))

    @pytest.mark.parametrize("d", [3, 4, 9, 20])
    def test_diff_matrix_entries(self, d):
        # entry by entry: (w_j / w_i) / (x_i - x_j) off the diagonal, minus
        # the row sum on it, with the barycentric weights of second-kind
        # Chebyshev points; the vectorized matrix holds the same bits
        x = _neumann_closure(d)[2]
        n = x.size
        w = (-1.0) ** np.arange(n)
        w[0] *= 0.5
        w[-1] *= 0.5
        want = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    want[i, j] = (w[j] / w[i]) / (x[i] - x[j])
            want[i, i] = -np.sum(want[i, :])
        assert np.array_equal(_diff_matrix(x), want)
        # exact on the quadratic x^2
        assert np.allclose(_diff_matrix(x) @ x**2, 2 * x, atol=1e-12)

    def test_constrained_variant(self):
        m = allen_cahn_1d(10, u_max=2.0)
        assert m.penalty.u_max == 2.0
        assert m.penalty.clip == pytest.approx(0.99 * 2.0)
        assert allen_cahn_1d(10).penalty.clip is None


class TestFokkerPlanck:
    def test_steady_state_annihilated(self):
        _, L, x_inf, _, _ = fp_pieces(32)
        assert np.linalg.norm(L @ x_inf) <= 1e-8 * np.linalg.norm(x_inf)

    def test_projection_is_zero_mass(self, rng):
        m = fokker_planck(D=16)
        _, _, _, Z, P = fp_pieces(16)
        y = Z @ rng.standard_normal(m.dim)
        assert abs(np.sum(y)) <= 1e-10
        w = rng.standard_normal(16)
        assert abs(np.sum(P @ w)) <= 1e-9 * np.linalg.norm(w)

    def test_shift_enters_drift(self):
        m = fokker_planck(D=16, sigma_shift=0.2)
        m0 = fokker_planck_unshifted(m)
        assert np.allclose(m.lin_A - m0.lin_A, 0.2 * np.eye(m.dim), atol=1e-10)

    def test_x0_presets_are_zero_mass(self):
        m = fokker_planck(D=16)
        Z = fp_pieces(16)[3]
        assert abs(np.sum(Z @ m.x0_default)) <= 1e-8

    def test_unshifted_drift_is_the_projected_operator(self):
        # the closed loop is judged on Z' P L Z, bit for bit, and the
        # unshifted model is judged on its own drift
        m = fokker_planck(D=16)
        _, L, _, Z, P = fp_pieces(16)
        m0 = fokker_planck_unshifted(m)
        assert np.array_equal(m.unshifted_A, Z.T @ P @ L @ Z)
        assert np.array_equal(m0.lin_A, Z.T @ P @ L @ Z)
        assert m0.unshifted_A is None
        assert allen_cahn_1d(5).unshifted_A is None and lq(3).unshifted_A is None

    def test_non_finite_unshifted_drift_rejected(self):
        m = fokker_planck(D=8)
        with pytest.raises(ValueError, match="unshifted_A"):
            dataclasses.replace(m, unshifted_A=np.full_like(m.lin_A, np.nan))

    @pytest.mark.parametrize("D, nu", [(8, 1.0), (11, 1.0), (40, 0.3), (255, 1.0)])
    def test_operators_are_face_fluxes(self, D, nu):
        # entry by entry, face by face: the three-diagonal build holds the
        # same bits
        h = 12.0 / D
        faces = -6.0 + np.arange(1, D) * h
        z = _ground_potential_deriv(faces) * h / nu
        bp, bm = _bernoulli(z), _bernoulli(-z)
        hp = _control_potential_deriv(faces)
        L, N = np.zeros((D, D)), np.zeros((D, D))
        for j in range(D - 1):
            c = nu / (h * h)
            L[j, j] -= c * bp[j]
            L[j, j + 1] += c * bm[j]
            L[j + 1, j] += c * bp[j]
            L[j + 1, j + 1] -= c * bm[j]
            c = hp[j] / (2.0 * h)
            N[j, j] -= c
            N[j, j + 1] -= c
            N[j + 1, j] += c
            N[j + 1, j + 1] += c
        _, _, L_got, N_got, _ = _fp_operators(D, nu)
        assert np.array_equal(L_got, L)
        assert np.array_equal(N_got, N)

    def test_uncontrolled_reference_decay_rate(self):
        # high-resolution reference: squared deviation decays near exp(-0.29 t).
        # The uncontrolled drift is linear (no cubic term), so BDF gets its
        # Jacobian lin_A instead of estimating it by finite differences
        m = fokker_planck(D=255)
        m0 = fokker_planck_unshifted(m)
        sol = solve_ivp(lambda t, z: m0.drift(z.reshape(1, -1))[0], (0, 9.2),
                        m.x0_default, method="BDF", rtol=1e-8, atol=1e-10,
                        jac=m0.lin_A, dense_output=True)
        ts = np.linspace(2.0, 9.2, 200)
        e2 = np.sum(sol.sol(ts) ** 2, axis=0) * fp_pieces(255)[0]
        rate = np.polyfit(ts, np.log(e2), 1)[0]
        assert -0.40 <= rate <= -0.20

    def test_min_cells(self):
        with pytest.raises(ValueError):
            fokker_planck(D=4)


class TestTwoForms:
    """The flag fields and the batch evaluators describe the same f and g."""

    @staticmethod
    def _sample(model, rng, points=40):
        grids = [np.sort(rng.uniform(-1.0, 1.0, 3)) for _ in range(model.dim)]
        idx = rng.integers(0, 3, size=(points, model.dim))
        X = np.stack([grids[k][idx[:, k]] for k in range(model.dim)], axis=1)
        return grids, idx, X

    @staticmethod
    def _check(fields, idx, want, total):
        """Each field's components at the grid points, (N, d), against want,
        and their sum against total."""
        got = []
        for g, h in fields:
            G = np.stack([gk[idx[:, k]] for k, gk in enumerate(g)], axis=1)
            H = np.stack([hk[idx[:, k]] for k, hk in enumerate(h)], axis=1)
            # component p is h_p(x_p) times the product of g_k(x_k), k != p
            got.append(H * np.stack([np.prod(np.delete(G, p, axis=1), axis=1)
                                     for p in range(G.shape[1])], axis=1))
        assert len(got) == len(want)
        scale = np.max(np.abs(total))
        for q, (a, b) in enumerate(zip(got, want)):
            assert np.max(np.abs(a - b)) <= 1e-12 * scale, q
        assert np.max(np.abs(sum(got) - total)) <= 1e-12 * scale

    def test_drift(self, small_model, rng):
        m = small_model
        grids, idx, X = self._sample(m, rng)
        want = [X[:, q, None] * m.lin_A[:, q] for q in range(m.dim)]
        if m.cubic:
            want.append(-m.cubic * X**3)
        self._check(m.f_tt_builder(grids), idx, want, m.drift(X))

    def test_channel(self, small_model, rng):
        m = small_model
        grids, idx, X = self._sample(m, rng)
        want = [np.broadcast_to(m.lin_B.reshape(-1), X.shape)]
        if m.channel_slope is not None:
            want += [X[:, q, None] * m.channel_slope[:, q] for q in range(m.dim)]
        self._check(m.channel_builder(grids), idx, want, m.channel_eval(X))
        if m.channel_slope is None:
            # a constant channel repeats B0 in each of the N rows
            for N in (1, 3):
                rows = m.channel_eval(X[:N])
                assert rows.shape == (N, m.dim)
                assert np.array_equal(rows, np.tile(m.lin_B.reshape(-1), (N, 1)))


class TestRiccati:
    def test_scalar_quadratic_formula(self):
        sol = solve_riccati(np.array([[1.0]]), np.array([[1.0]]),
                            np.array([[2.0]]), 1.0)
        assert np.isclose(sol.Pi[0, 0], 1.0 + np.sqrt(3.0))

    def test_stable_no_control_is_lyapunov(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        Q = np.eye(2)
        sol = solve_riccati(A, np.zeros((2, 1)), Q, 1.0)
        want = scipy.linalg.solve_continuous_lyapunov(A.T, -Q)
        assert np.allclose(sol.Pi, want, atol=1e-8)
        assert np.allclose(sol.K, 0.0, atol=1e-10)

    @pytest.mark.parametrize("make", [lambda: lq(6), lambda: allen_cahn_1d(14),
                                      lambda: fokker_planck(11)],
                             ids=["lq6", "ac14", "fp11"])
    def test_laplacian_chain(self, make):
        m = make()
        sol = solve_riccati(m.lin_A, m.lin_B, m.cost_matrix, m.gamma)
        res = (m.lin_A.T @ sol.Pi + sol.Pi @ m.lin_A
               - sol.Pi @ m.lin_B @ m.lin_B.T @ sol.Pi / m.gamma + m.cost_matrix)
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(m.cost_matrix)
        cl = m.lin_A - m.lin_B @ sol.K
        assert np.max(np.linalg.eigvals(cl).real) < 0

    def test_unstabilizable_pair_raises(self):
        # dy/dt = y with no control: no gain stabilizes it, so CARE fails
        with pytest.raises(ValueError):
            solve_riccati(np.array([[1.0]]), np.array([[0.0]]), np.eye(1), 1.0)

    def test_unstable_stiff_system_warm_start(self):
        # Chebyshev diffusion with an unstable reaction: the stiff spectrum
        # must not keep CARE from a stabilizing gain
        m = allen_cahn_1d(10)
        sol = solve_riccati(m.lin_A, m.lin_B, m.cost_matrix, m.gamma)
        cl = m.lin_A - m.lin_B @ sol.K
        assert np.max(np.linalg.eigvals(cl).real) < 0


class TestRegistry:
    def test_names(self):
        assert set(MODELS) == {"allen_cahn_1d", "fokker_planck", "lq"}

    def test_equilibrium_invariants(self):
        built = [allen_cahn_1d(8), fokker_planck(D=12), lq(6)]
        for m in built:
            z = np.zeros((1, m.dim))
            assert np.max(np.abs(m.drift(z))) <= 1e-9
            assert abs(m.state_cost(z)[0]) <= 1e-12

    def test_interior_nodes(self):
        xi = ac_nodes(5)
        assert np.all(np.diff(xi) > 0)
        assert np.all(np.abs(xi) < 1)

    @pytest.mark.parametrize("a", [True, 0.0, np.inf])
    def test_domain_must_be_a_positive_number(self, a):
        # a json true is a bool, which python counts as the number 1
        with pytest.raises(ValueError, match="a must be"):
            lq(3, a=a)
