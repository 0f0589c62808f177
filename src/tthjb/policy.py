"""Outer policy iteration fused with the shifted alternating linear solver.

Each iteration refreshes the feedback from the current value gradient,
assembles the linearized equation, and performs one (configurable) sweep of
the shifted solver seeded with the previous value tensor.  Each row is one
step of pseudo-transient continuation, and its shift follows the lagged
residual by switched evolution relaxation; it never drops below _MIN_SHIFT.
"""
from __future__ import annotations

import csv
import logging
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .amen import amen_solve_shifted
from .assembly import (
    GalerkinSystem,
    assemble_drift,
    control_map,
    penalty_cost,
    project_to_basis,
)
from .basis import SpectralBasis, build_basis, legendre_rows, legendre_values
from .models import ControlledDynamics, solve_riccati
from .tt import (
    Accuracy,
    TTTensor,
    linear_to_tt,
    tt_dot,
    tt_matvec,
    tt_norm,
    tt_round,
    tt_scale,
)

__all__ = [
    "SolverConfig",
    "PolicyIterationState",
    "ValueFunction",
    "PolicyDivergence",
    "initial_policy",
    "solver_basis",
    "policy_iterate",
    "feedback",
    "hjb_residual",
    "history_to_csv",
]

log = logging.getLogger(__name__)

_MIN_SHIFT = 1e-6          # floor of the shift
_FASTEST_FALL = 0.9        # smallest factor of the shift in one row
_DIVERGENCE_WINDOW = 10    # growing iterations in a row that raise PolicyDivergence

_PHASE_FIELDS = ("feedback_s", "operator_s", "rhs_s", "solve_s", "u_rank", "A_rank", "b_rank",
                 "max_local_res", "gmres_fallbacks", "gmres_unconverged")
# the constraint cross of the tanh feedback, then the right-hand-side cross
_CROSS_FIELDS = tuple(f"{prefix}_{key}" for prefix in ("constraint", "cross")
                      for key in ("evals", "sweeps", "converged"))


def _cross_record(prefix: str, res) -> dict:
    """History cells of one cross call; empty (None) when it did not run."""
    return {f"{prefix}_evals": res.n_evals if res else None,
            f"{prefix}_sweeps": res.sweeps if res else None,
            f"{prefix}_converged": res.converged if res else None}


class PolicyDivergence(RuntimeError):
    """Raised when, for too many iterations in a row, the residual grows, the
    norm of the value tensor more than doubles or the shift exceeds mu0."""


@dataclass(frozen=True)
class SolverConfig:
    """Settings of a solve.  q is the slowest fall of the shift per row while
    the residual falls, and the fixed factor of rows 0 and 1."""
    delta: float = 1e-3
    mu0: float = 50.0
    q: float = 0.98
    max_policy_iters: int = 400
    n: int = 5
    max_rank: int = 60
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if isinstance(self.mu0, bool) or not (np.isfinite(self.mu0) and self.mu0 > 0):
            raise ValueError(f"mu0 must be finite and positive, got {self.mu0!r}")
        for name, low in (("n", 1), ("max_rank", 1), ("max_policy_iters", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")

    @property
    def value_accuracy(self) -> Accuracy:
        return Accuracy(delta=self.delta, max_rank=self.max_rank)


@dataclass
class PolicyIterationState:
    iteration: int = 0
    history: list = field(default_factory=list)
    converged: bool = False


class ValueFunction:
    """Value approximation V(x) = sum_i v_i prod_k phi_{i_k}(x_k).

    The per-degree scale of the basis is folded into the blocks once, so
    evaluation meets them with plain Legendre tables.  Points run along the
    last axis of every intermediate, so each block is met by one GEMM and
    one contraction with its table instead of one small product per point.
    """

    def __init__(self, v: TTTensor, basis: SpectralBasis):
        self.v = v
        self.basis = basis
        scale = basis.scale()[None, :, None]
        self._blocks = [blk * scale for blk in v.blocks]

    @property
    def d(self) -> int:
        return self.v.d

    def _push_left(self, k: int, left: np.ndarray):
        """Block k met by the left interfaces (r_k, N): (n, r_{k+1}, N)."""
        r, n, s = self._blocks[k].shape
        return (self._blocks[k].reshape(r, n * s).T @ left).reshape(n, s, -1)

    def eval(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        N, d = X.shape
        vals = legendre_values(X.T.reshape(-1) / self.basis.a, self.basis.n).reshape(-1, d, N)
        left = np.ones((1, N))
        for k in range(self.d):
            left = np.einsum("isn,in->sn", self._push_left(k, left), vals[:, k])
        return left[0]

    def gradient(self, X: np.ndarray):
        """All d partial derivatives from one pass of shared contractions.

        Returns (grads (N, d), extrapolated flags (N,)).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        N, d = X.shape
        vals, ders = legendre_rows(X.T.reshape(-1) / self.basis.a, self.basis.n)
        vals = vals.reshape(-1, d, N)
        ders = (ders / self.basis.a).reshape(-1, d, N)
        right = np.ones((1, N))
        mids = [None] * d                   # block k met by right interfaces, (r_k, n, N)
        for k in range(d - 1, -1, -1):
            r, n, s = self._blocks[k].shape
            mids[k] = (self._blocks[k].reshape(r * n, s) @ right).reshape(r, n, N)
            if k:
                right = np.einsum("rin,in->rn", mids[k], vals[:, k])
        grads = np.empty((N, d))
        left = np.ones((1, N))
        for k in range(d):
            grads[:, k] = np.einsum("rn,rin,in->n", left, mids[k], ders[:, k])
            if k < d - 1:
                left = np.einsum("isn,in->sn", self._push_left(k, left), vals[:, k])
        flags = np.any(np.abs(X) > self.basis.a, axis=1)
        return grads, flags

    def anchored(self) -> "ValueFunction":
        """Shift the constant mode so V(0) = 0, exact up to the rounding of
        eval."""
        v0 = float(self.eval(np.zeros((1, self.d)))[0])
        if v0 == 0.0:
            return self
        coeff = v0 * (2.0 * self.basis.a) ** (self.d / 2.0)
        e0 = _constant_mode(self.basis.n, self.d)
        return ValueFunction(
            tt_round(self.v - tt_scale(e0, coeff), Accuracy(1e-14)), self.basis
        )


def _constant_mode(n: int, d: int) -> TTTensor:
    """Coefficient tensor of the constant basis function."""
    return TTTensor.rank_one([np.eye(n, 1).reshape(-1) for _ in range(d)])


def _control(model: ControlledDynamics, X: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Minimizing (possibly saturated) controls (N,) from value gradients (N, d)."""
    u = -(0.5 / model.gamma) * np.sum(model.channel_eval(X) * grads, axis=1)
    return model.penalty.saturate(u)


def _control_value(V: ValueFunction, model: ControlledDynamics) -> ValueFunction:
    """-(1/2 gamma) sum_p B0_p dV/dx_p for a constant channel g = B0, as a
    polynomial in V's own basis.

    The solver's control map gives the law's values on the nodes, and the
    projection takes them back to coefficients; both are exact under the
    basis's Gauss rule of 2n points, as the law has V's degree.
    """
    basis = V.basis
    bmap = control_map(model.channel_builder([basis.nodes] * V.d), basis, model.gamma,
                       Accuracy(1e-12))
    c = project_to_basis(tt_matvec(bmap, V.v), basis)
    return ValueFunction(tt_round(c, Accuracy(1e-14)), basis)


def _at_one_state(U: ValueFunction):
    """U at a single state (1, d), as an array (1,).

    The scaled blocks are zero-padded to the largest rank R and stacked as
    (d, n, R R) once, so a call is one Legendre table, one product giving
    the d R x R matrices at the state and d - 1 vector-matrix products,
    without the batch path's per-block reshapes and contractions.
    """
    d, n, a = U.d, U.basis.n, U.basis.a
    R = U.v.max_rank
    stacked = np.zeros((d, n, R, R))
    for k, blk in enumerate(U._blocks):
        r, _, s = blk.shape
        stacked[k, :, :r, :s] = blk.transpose(1, 0, 2)
    stacked = stacked.reshape(d, n, R * R)

    def at(X):
        vals = legendre_values(X[0] / a, n)             # (n, d)
        mats = (vals.T[:, None, :] @ stacked).reshape(d, R, R)
        row = mats[0, 0]
        for k in range(1, d):
            row = row @ mats[k]
        return row[:1]

    return at


def feedback(V: ValueFunction, model: ControlledDynamics):
    """The optimal (possibly saturated) scalar control law of V.

    Returns a batch map from states (N, d) to controls (N,); a single state
    (d,) gives a float.  For a constant channel the law is one TT in V's
    basis, so each call is one evaluation; a state-dependent channel costs
    one gradient pass per call.  One state of a constant channel, what a
    rollout asks for at each right-hand side, takes _at_one_state's path.
    """
    if model.channel_slope is None:
        U = _control_value(V, model)
        at_one = _at_one_state(U)

        def controls(X):
            return model.penalty.saturate(at_one(X) if len(X) == 1 else U.eval(X))
    else:
        def controls(X):
            return _control(model, X, V.gradient(X)[0])

    def law(X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            return float(controls(X.reshape(1, -1))[0])
        return controls(X)

    return law


def hjb_residual(V: ValueFunction, model: ControlledDynamics, seed: int = 0) -> float:
    """Sampled HJB residual RMS(grad V.(f + g u*) + l + W(u*)) / RMS(l + W(u*)).

    The 1,000 states are drawn uniformly from [-a/2, a/2]^d of the solve's
    basis, seeded.  It needs only the model's dynamics and costs, no
    reference solution.
    """
    a = V.basis.a
    X = np.random.default_rng(seed).uniform(-0.5 * a, 0.5 * a, size=(1000, V.d))
    grads, _ = V.gradient(X)
    u = _control(model, X, grads)
    running = model.state_cost(X) + penalty_cost(u, model.penalty)
    flow = model.drift(X) + model.channel_eval(X) * u[:, None]
    res = np.sum(grads * flow, axis=1) + running
    return float(np.sqrt(np.mean(res**2) / np.mean(running**2)))


def _needs_warm_start(model: ControlledDynamics) -> bool:
    return (not model.admissible_uncontrolled
            and np.max(np.linalg.eigvals(model.lin_A).real) >= 0)


def solver_basis(model: ControlledDynamics, config: SolverConfig) -> SpectralBasis:
    """The Legendre basis of a solve: degree n - 1 on the model's [-a, a]."""
    return build_basis(config.n, model.a)


def initial_policy(model: ControlledDynamics, basis: SpectralBasis) -> TTTensor:
    """Nodal-grid TT of the starting feedback (zero or LQR warm start)."""
    grids = [basis.nodes] * model.dim
    if not _needs_warm_start(model):
        return TTTensor.zeros(tuple(len(g) for g in grids))
    try:
        sol = solve_riccati(model.lin_A, model.lin_B, model.cost_matrix, model.gamma)
    except ValueError as exc:
        raise ValueError(
            "uncontrolled dynamics inadmissible and linearization not "
            "stabilizable; supply a custom initial policy"
        ) from exc
    return linear_to_tt(-sol.K.reshape(-1), grids)


def _build_system(model: ControlledDynamics, basis: SpectralBasis,
                  config: SolverConfig) -> GalerkinSystem:
    grids = [basis.nodes] * model.dim
    op_acc = Accuracy(delta=1e-12)
    drift = assemble_drift(model.f_tt_builder(grids), basis, op_acc)
    bmap = control_map(model.channel_builder(grids), basis, model.gamma, op_acc)
    ell_proj = project_to_basis(model.ell_tt(grids), basis)
    return GalerkinSystem(
        basis=basis,
        drift=drift,
        bmap=bmap,
        ell_proj=ell_proj,
        penalty=model.penalty,
        acc=config.value_accuracy,
        seed=config.seed,
    )


def policy_iterate(model: ControlledDynamics, config: SolverConfig):
    """Run the policy iteration to convergence.

    Returns (ValueFunction anchored at the origin, PolicyIterationState).
    """
    basis = solver_basis(model, config)
    system = _build_system(model, basis, config)
    acc = config.value_accuracy
    rng = np.random.default_rng(config.seed)
    d = model.dim

    w0 = initial_policy(model, basis)
    v = tt_scale(
        TTTensor.random((basis.n,) * d, [1] + [2] * (d - 1) + [1], rng), 1e-3
    )
    # the operator annihilates constant coefficients, so the constant mode is
    # pure gauge; leaving it free lets the shifted iteration drift along it by
    # O(1/shift) per step and the relative change never falls below 1 - q.
    # Zeroing that coefficient after every solve fixes the gauge (the value is
    # re-anchored to V(0) = 0 at the end regardless).
    e0 = _constant_mode(basis.n, d)
    state = PolicyIterationState()
    constraint = cross = None
    res = []            # lagged residuals mu_k ||v_{k+1} - v_k||, one per row
    grow_count = 0
    prev_norm = np.inf
    mu = config.mu0
    for s in range(config.max_policy_iters):
        t0 = time.perf_counter()
        v_prev = v
        # switched evolution relaxation: the shift follows the ratio of the
        # last two residuals, by the whole rise, or by a fall clamped to
        # [_FASTEST_FALL, q]
        r = res[-1] / max(res[-2], 1e-300) if s >= 2 else config.q
        mu = max(mu * (r if r > 1.0 else min(max(r, _FASTEST_FALL), config.q)), _MIN_SHIFT)
        w = system.feedback(v) if s > 0 else w0
        u, constraint = system.policy(w, constraint)
        t1 = time.perf_counter()
        A = system.operator(u)
        t2 = time.perf_counter()
        b, cross = system.rhs(u, cross)
        t3 = time.perf_counter()
        solve_stats = {}
        v = amen_solve_shifted(A, b, v_prev, mu, acc, stats=solve_stats, seed=config.seed)
        t4 = time.perf_counter()
        c0 = tt_dot(v, e0)
        if c0 != 0.0:
            v = tt_round(v - tt_scale(e0, c0), acc)
        nv, step = tt_norm(v), tt_norm(v - v_prev)
        rel = step / max(nv, 1e-300)
        res.append(mu * step)
        seconds = time.perf_counter() - t0
        state.history.append(
            {"iteration": s, "rel_change": rel, "max_rank": v.max_rank,
             "shift": mu, "residual": res[-1], "seconds": seconds,
             "feedback_s": t1 - t0, "operator_s": t2 - t1, "rhs_s": t3 - t2,
             "solve_s": t4 - t3,
             "u_rank": u.max_rank, "A_rank": A.max_rank, "b_rank": b.max_rank,
             **solve_stats,
             **_cross_record("constraint", constraint), **_cross_record("cross", cross)}
        )
        state.iteration = s + 1
        capped = [name for name, t in (("A", A), ("b", b)) if t.max_rank == acc.max_rank]
        if capped:
            log.warning("policy iter %d: %s reached the rank cap %d, so the truncation "
                        "is no longer bounded by delta", s, " and ".join(capped), acc.max_rank)
        log.info("policy iter %3d: rel=%.3e rank=%d shift=%.3g (%.2fs)",
                 s, rel, v.max_rank, mu, seconds)
        # a blow-up drives the shift up, which shrinks the step and rel: no row
        # above mu0 converges, and every such row counts as growing
        if rel <= config.delta and mu <= config.mu0:
            state.converged = True
            break
        # the first iteration grows from the tiny random start and is not counted
        grows = (s > 0 and res[-1] > res[-2]) or nv > 2.0 * prev_norm or mu > config.mu0
        grow_count = grow_count + 1 if grows else 0
        prev_norm = nv
        if grow_count >= _DIVERGENCE_WINDOW:
            raise PolicyDivergence(
                f"the residual grew, the value norm more than doubled or the shift "
                f"exceeded mu0 for {grow_count} consecutive iterations (last residual "
                f"{res[-1]:.3e}, norm {nv:.3e}, shift {mu:.3e})"
            )
    if state.iteration and not state.converged:
        log.warning("policy iteration stopped unconverged after %d iterations "
                    "(last rel %.3e, shift %.3g)", state.iteration, rel, mu)
    # drop enrichment leftovers the stopping tolerance cannot distinguish
    v = tt_round(v, acc)
    V = ValueFunction(v, basis).anchored()
    return V, state


def history_to_csv(rows: list, path) -> None:
    """Write the history rows of a solve as CSV.

    The columns of each cross (the constraint and the right-hand side) are
    written only when some iteration ran it; empty cells mark iterations
    that did not.
    """
    fields = ["iteration", "rel_change", "max_rank", "shift", "residual", "seconds",
              *_PHASE_FIELDS]
    fields += [key for key in _CROSS_FIELDS
               if any(row.get(key) is not None for row in rows)]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
