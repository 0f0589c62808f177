"""Benchmark controlled dynamics and the Riccati baseline.

Every model is f(x) = A x - kappa x^3 with control direction g(x) = B0 + M x,
held as those matrices; the origin is an equilibrium with zero state cost.

On a tensor grid each of f and g is a list of flag fields (g, h) of
per-dimension node vectors; component p of a flag field is
h_p(x_p) prod_{k != p} g_k(x_k), and the components of f (of g) are the sums
over its fields.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .assembly import ControlPenalty
from .tt import TTTensor, quadratic_to_tt

__all__ = [
    "ControlledDynamics",
    "LQRSolution",
    "allen_cahn_1d",
    "fokker_planck",
    "lq",
    "solve_riccati",
    "MODELS",
]


def _count(name: str, value, least: int) -> None:
    """A size parameter: an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _reals(**values) -> None:
    """Real parameters: a bool (a JSON true or false) is none."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass
class ControlledDynamics:
    """dx/dt = f(x) + g(x) u with f(x) = A x - kappa x^3, g(x) = B0 + M x.

    The matrices are the model: A is ``lin_A``, kappa ``cubic`` (entrywise
    cube), B0 = g(0) the column ``lin_B`` and M ``channel_slope`` (None for
    a constant channel).  The batch evaluators used by rollouts and the
    flag-field builders used by the Galerkin assembly are both derived from
    them.
    """

    name: str
    a: float
    penalty: ControlPenalty
    lin_A: np.ndarray
    lin_B: np.ndarray
    cost_matrix: np.ndarray
    admissible_uncontrolled: bool
    cubic: float = 0.0
    channel_slope: np.ndarray | None = None
    x0_default: np.ndarray | None = None
    horizon: float = 3.2
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.a, bool) or not (np.isfinite(self.a) and self.a > 0):
            raise ValueError(f"a must be finite and positive, got {self.a!r}")
        for name in ("lin_A", "lin_B", "cost_matrix", "channel_slope"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} has non-finite entries")

    @property
    def dim(self) -> int:
        return self.lin_A.shape[0]

    @property
    def gamma(self) -> float:
        return self.penalty.gamma

    def drift(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        out = X @ self.lin_A.T
        if self.cubic:
            out = out - self.cubic * X**3
        return out

    def channel_eval(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        B = self.lin_B.reshape(-1)
        if self.channel_slope is None:
            return np.tile(B, (len(X), 1))
        return X @ self.channel_slope.T + B

    def f_tt_builder(self, grids) -> list:
        """The drift on a tensor grid as flag fields: one per column of A
        (x_q times A[:, q]) and, when kappa is nonzero, the cubic field."""
        x = [np.asarray(g, dtype=float) for g in grids]
        fields = [_column_field(self.lin_A[:, q], q, x) for q in range(self.dim)]
        if self.cubic:
            fields.append(([np.ones(len(g)) for g in x], [-self.cubic * g**3 for g in x]))
        return fields

    def channel_builder(self, grids) -> list:
        """The channel on a tensor grid as flag fields: B0, then one per
        column of M (x_q times M[:, q]) for an affine channel."""
        x = [np.asarray(g, dtype=float) for g in grids]
        fields = [([np.ones(len(g)) for g in x],
                   [np.full(len(g), b) for g, b in zip(x, self.lin_B.reshape(-1))])]
        if self.channel_slope is not None:
            fields += [_column_field(self.channel_slope[:, q], q, x) for q in range(self.dim)]
        return fields

    def state_cost(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.sum((X @ self.cost_matrix) * X, axis=1)

    def ell_tt(self, grids) -> TTTensor:
        return quadratic_to_tt(self.cost_matrix, grids)


def _column_field(col, q: int, x: list) -> tuple:
    """The flag field x_q col: g is x_q along q and 1 elsewhere, h_p is the
    constant col[p] for p != q and col[q] x_q along q."""
    g = [xk if k == q else np.ones(len(xk)) for k, xk in enumerate(x)]
    h = [c * xk if k == q else np.full(len(xk), c) for k, (xk, c) in enumerate(zip(x, col))]
    return g, h


# ---------------------------------------------------------------------------
# Chebyshev pseudospectral pieces of Allen-Cahn

def _chebyshev_full_nodes(d: int) -> np.ndarray:
    k = np.arange(0, d + 2)
    return -np.cos(np.pi * k / (d + 1))


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    # second-kind Chebyshev points: w_k = (-1)^k, halved at the ends
    n = nodes.size
    w = (-1.0) ** np.arange(n)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """Barycentric differentiation matrix with negative-sum-trick diagonal."""
    n = nodes.size
    w = _barycentric_weights(nodes)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (nodes[i] - nodes[j])
        D[i, i] = -np.sum(D[i, :])
    return D


def _clenshaw_curtis_weights(nodes: np.ndarray) -> np.ndarray:
    """Weights exact for polynomials up to the node count on [-1, 1].

    Solved from moment conditions in the Chebyshev basis, which is perfectly
    conditioned on these nodes (the collocation matrix is a cosine table).
    """
    n = nodes.size
    theta = np.arccos(np.clip(nodes, -1.0, 1.0))
    C = np.cos(np.outer(np.arange(n), theta))  # C[j, k] = T_j(x_k)
    moments = np.zeros(n)
    j = np.arange(n)
    even = j % 2 == 0
    moments[even] = 2.0 / (1.0 - j[even] ** 2)
    return scipy.linalg.solve(C, moments)


def _neumann_closure(d: int):
    """Extension matrix expressing boundary values from interior ones.

    Boundary bordering: the two rows of the first-derivative matrix at the
    endpoints are set to zero and solved for the endpoint values.
    """
    full = _chebyshev_full_nodes(d)
    D = _diff_matrix(full)
    bnd = [0, d + 1]
    interior = np.arange(1, d + 1)
    M = D[np.ix_(bnd, bnd)]
    rhs = -D[np.ix_(bnd, interior)]
    corr = scipy.linalg.solve(M, rhs)  # (2, d)
    E = np.zeros((d + 2, d))
    E[interior, np.arange(d)] = 1.0
    E[0] = corr[0]
    E[d + 1] = corr[1]
    lap_full = D @ D
    L = lap_full[interior] @ E
    return E, L, full


def allen_cahn_1d(
    d: int,
    sigma: float = 0.2,
    omega=(-0.5, 0.2),
    gamma: float = 0.1,
    u_max: float | None = None,
    a: float = 3.0,
) -> ControlledDynamics:
    """Controlled reaction-diffusion chain on d interior Chebyshev nodes.

    dX/dt = A X + X (1 - X^2) + B u with A the sigma-scaled pseudospectral
    Laplacian under homogeneous Neumann conditions and B the indicator of
    the actuated subinterval.
    """
    _count("d", d, 3)     # the boundary closure needs 3 interior nodes
    lo, hi = omega
    _reals(sigma=sigma, omega_lo=lo, omega_hi=hi)
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"omega must be two finite numbers lo < hi, got {omega!r}")
    E, L, full = _neumann_closure(d)
    xi = full[1 : d + 1]
    # tolerance so nodes landing exactly on the actuated boundary stay inside
    ind = ((xi >= lo - 1e-12) & (xi <= hi + 1e-12)).astype(float)
    if not ind.any():
        raise ValueError(f"omega {omega!r} holds no interior node, so no node is actuated")
    w_full = _clenshaw_curtis_weights(full)
    Q = E.T @ (w_full[:, None] * E)
    return ControlledDynamics(
        name="allen_cahn_1d",
        a=a,
        penalty=ControlPenalty(gamma=gamma, u_max=u_max),
        lin_A=sigma * L + np.eye(d),     # the reaction x - x^3 is this identity
        lin_B=ind.reshape(-1, 1),
        cost_matrix=0.5 * (Q + Q.T),
        admissible_uncontrolled=False,
        cubic=1.0,                       # and this cube
        x0_default=2.0 + np.cos(2 * np.pi * xi) * np.cos(np.pi * xi),
        horizon=3.2,
        extras={"xi": xi, "sigma": sigma},
    )


# ---------------------------------------------------------------------------
# Fokker-Planck chain

def _ground_potential_deriv(xi):
    xi = np.asarray(xi, dtype=float)
    return ((3.0 * xi**4 - 60.0 * xi**2 + 238.0) * xi + 28.0) / 200.0


def _control_potential_deriv(xi):
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.full_like(xi, 1.0 / 12.0)
    out = np.where(np.abs(xi) >= 5.9, 0.0, out)
    for lo, hi, v_out in ((-5.9, -5.8, -0.5), (5.8, 5.9, 0.5)):
        mask = (xi > lo) & (xi < hi)
        if not np.any(mask):
            continue
        if v_out < 0:
            x0, y0, m0 = lo, v_out, 0.0
            x1, y1, m1 = hi, hi / 12.0, 1.0 / 12.0
        else:
            x0, y0, m0 = lo, lo / 12.0, 1.0 / 12.0
            x1, y1, m1 = hi, v_out, 0.0
        t = (xi[mask] - x0) / (x1 - x0)
        h = x1 - x0
        d00 = (6 * t**2 - 6 * t) / h
        d10 = 3 * t**2 - 4 * t + 1
        d01 = (-6 * t**2 + 6 * t) / h
        d11 = 3 * t**2 - 2 * t
        out[mask] = d00 * y0 + d10 * m0 + d01 * y1 + d11 * m1
    return out


def _bernoulli(z):
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = np.abs(z) > 1e-10
    out[nz] = z[nz] / np.expm1(z[nz])
    out[~nz] = 1.0 - z[~nz] / 2.0
    return out


def _fp_operators(D: int, nu: float):
    """Drift and control operators of the finite-volume chain on (-6, 6).

    The diffusion-plus-ground-drift flux uses exponential fitting, which is
    stable at coarse resolutions where the cell Peclet number is large and
    whose discrete kernel is a positive steady state by construction.
    """
    h = 12.0 / D
    centers = -6.0 + (np.arange(D) + 0.5) * h
    faces = -6.0 + np.arange(1, D) * h
    z = _ground_potential_deriv(faces) * h / nu
    bp = _bernoulli(z)      # weight of the left cell
    bm = _bernoulli(-z)     # weight of the right cell
    L = np.zeros((D, D))
    for j in range(D - 1):
        # S_{j+1/2} = (nu/h) (bm x_{j+1} - bp x_j); dx_j/dt += S_{j+1/2}/h
        c = nu / (h * h)
        L[j, j] -= c * bp[j]
        L[j, j + 1] += c * bm[j]
        L[j + 1, j] += c * bp[j]
        L[j + 1, j + 1] -= c * bm[j]
    hp = _control_potential_deriv(faces)
    N = np.zeros((D, D))
    for j in range(D - 1):
        c = hp[j] / (2.0 * h)
        N[j, j] -= c
        N[j, j + 1] -= c
        N[j + 1, j] += c
        N[j + 1, j + 1] += c
    # discrete steady state from the zero-flux recurrence, L2-normalized
    x_inf = np.ones(D)
    for j in range(D - 1):
        x_inf[j + 1] = x_inf[j] * bp[j] / bm[j]
    x_inf /= np.sqrt(np.sum(x_inf**2) * h)
    return centers, h, L, N, x_inf


def fokker_planck(
    D: int = 12,
    nu: float = 1.0,
    sigma_shift: float = 0.2,
    gamma: float = 1e-2,
    a: float = 20.0,
) -> ControlledDynamics:
    """Shifted, projected density-deviation chain in D-1 coordinates.

    The physical density x relaxes to x_inf; the deviation y = x - x_inf is
    projected onto the zero-mass subspace along x_inf and expressed in an
    orthonormal basis Z of that subspace, giving a linear drift (with the
    destabilizing shift included) and a single affine control channel.
    """
    _count("D", D, 8)
    _reals(nu=nu, sigma_shift=sigma_shift)
    centers, h, L, N, x_inf = _fp_operators(D, nu)
    if not np.all(np.isfinite(x_inf)) or np.linalg.norm(x_inf) == 0:
        raise ValueError("steady state is not normalizable")
    d = D - 1
    # orthonormal basis of {y : sum(y) = 0}
    ones = np.ones((D, 1)) / np.sqrt(D)
    Z = scipy.linalg.null_space(ones.T)
    mass_inf = np.sum(x_inf) * h

    # oblique projection onto zero-mass vectors along x_inf
    P = np.eye(D) - np.outer(x_inf, np.ones(D)) * h / mass_inf

    # right-sided density preset, mass-matched to the steady state so the
    # deviation lies in the zero-mass subspace
    x0_phys = np.exp(-2.0 * (centers - 3.8) ** 2)
    x0_phys *= mass_inf / (np.sum(x0_phys) * h)
    z0 = Z.T @ (x0_phys - x_inf)

    uniform = np.full(D, 1.0 / 12.0)
    uniform *= mass_inf / (np.sum(uniform) * h)
    z0_uniform = Z.T @ (uniform - x_inf)

    return ControlledDynamics(
        name="fokker_planck",
        a=a,
        penalty=ControlPenalty(gamma=gamma),
        lin_A=Z.T @ P @ (L + sigma_shift * np.eye(D)) @ Z,
        lin_B=(Z.T @ P @ N @ x_inf).reshape(-1, 1),
        cost_matrix=h * np.eye(d),
        admissible_uncontrolled=False,
        channel_slope=Z.T @ P @ N @ Z,
        x0_default=z0,
        horizon=9.2,
        extras={"h": h, "L": L, "x_inf": x_inf, "Z": Z, "P": P,
                "F_unshifted": Z.T @ P @ L @ Z, "x0_uniform": z0_uniform},
    )


def fokker_planck_unshifted(model: ControlledDynamics) -> ControlledDynamics:
    """Physical (shift-free) variant used for closed-loop evaluation."""
    return replace(model, name="fokker_planck_unshifted",
                   lin_A=model.extras["F_unshifted"],
                   admissible_uncontrolled=True, extras=dict(model.extras))


# ---------------------------------------------------------------------------
# Linear-quadratic instance and Riccati baseline

def lq(d: int = 6, gamma: float = 1.0, a: float = 3.0) -> ControlledDynamics:
    """Stable tridiagonal chain with a single two-node actuator."""
    _count("d", d, 1)
    A = np.diag(-2.0 * np.ones(d)) + np.diag(np.ones(d - 1), 1) + np.diag(np.ones(d - 1), -1)
    B = np.zeros((d, 1))
    B[d // 2] = 1.0
    return ControlledDynamics(
        name="lq",
        a=a,
        penalty=ControlPenalty(gamma=gamma),
        lin_A=A,
        lin_B=B,
        cost_matrix=np.eye(d),
        admissible_uncontrolled=True,
        x0_default=np.ones(d),
        horizon=10.0,
    )


@dataclass(frozen=True)
class LQRSolution:
    Pi: np.ndarray
    K: np.ndarray

    def value(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.sum((X @ self.Pi) * X, axis=1)

    def feedback(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return -(X @ self.K.reshape(-1))


def solve_riccati(A: np.ndarray, B: np.ndarray, Q: np.ndarray, gamma: float) -> LQRSolution:
    """Stabilizing Riccati solution by scipy's CARE (a Schur/QZ solve).

    Solves A' Pi + Pi A - (1/gamma) Pi B B' Pi + Q = 0 with the cost
    convention l(x) + gamma u^2, so the gain is K = (1/gamma) B' Pi.  Raises
    ValueError when the pair is not stabilizable: CARE fails, its relative
    residual exceeds 1e-8 or its closed loop is not stable.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    Q = np.asarray(Q, dtype=float)
    try:
        Pi = scipy.linalg.solve_continuous_are(A, B, Q, gamma * np.eye(B.shape[1]))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"Riccati solve failed: {exc}") from exc
    K = (1.0 / gamma) * (B.T @ Pi)
    res = A.T @ Pi + Pi @ A - Pi @ B @ K + Q
    if not np.linalg.norm(res) <= 1e-8 * np.linalg.norm(Q):  # NaN fails too
        raise ValueError("Riccati residual above 1e-8 relative")
    if np.max(np.linalg.eigvals(A - B @ K).real) >= 0:
        raise ValueError("computed Riccati solution is not stabilizing")
    return LQRSolution(Pi=Pi, K=K)


MODELS = {
    "allen_cahn_1d": allen_cahn_1d,
    "fokker_planck": fokker_planck,
    "lq": lq,
}
