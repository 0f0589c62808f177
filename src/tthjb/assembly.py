"""Galerkin assembly of the policy-linearized value equation in TT format.

For a fixed feedback u the value function solves A(u) v = b(u) with

    A(u)[i, j] = -< (f(x) + g(x) u(x)) . grad phi_j, phi_i >
    b(u)[i]    =  < l(x) + W(u(x)), phi_i >

over the tensor-product Legendre basis; W is the control penalty (gamma u^2
in the unconstrained case).  With the minus sign the operator of a stable
closed loop has spectrum in the right half plane, so positive shifts
regularize rather than destabilize the linear solves.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SpectralBasis
from .cross import CrossResult, TTMap, tt_cross
from .tt import (Accuracy, TTMatrix, TTTensor, tt_hadamard, tt_matvec, tt_round,
                 tt_square_sum, tt_sum_round)

__all__ = [
    "ControlPenalty",
    "ControlChannel",
    "GalerkinSystem",
    "project_to_basis",
    "assemble_drift_part",
    "assemble_drift",
    "control_map",
    "apply_constraint",
    "penalty_cost",
    "tt_matmat",
    "diag_matrix",
]

@dataclass(frozen=True)
class ControlPenalty:
    """Running-cost penalty on the control.

    kind "unconstrained" charges gamma u^2.  kind "tanh" charges the convex
    penalty whose pointwise minimizer is u_max tanh(w / u_max), which keeps
    the feedback strictly inside [-u_max, u_max]; the realized controls are
    soft-clipped at (1 - margin) u_max so the penalty stays finite.
    """

    gamma: float
    kind: str = "unconstrained"
    u_max: float | None = None
    margin: float = 0.01

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.kind not in ("unconstrained", "tanh"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.kind == "tanh" and (self.u_max is None or self.u_max <= 0):
            raise ValueError("tanh penalty needs a positive u_max")

    @property
    def clip(self) -> float | None:
        if self.kind == "unconstrained":
            return None
        return (1.0 - self.margin) * self.u_max


def penalty_cost(u, penalty: ControlPenalty):
    """Pointwise running-cost contribution W(u) of the control."""
    u = np.asarray(u, dtype=float)
    if penalty.kind == "unconstrained":
        return penalty.gamma * u * u
    um = penalty.u_max
    z = np.clip(u / um, -1.0 + 1e-12, 1.0 - 1e-12)
    return 2.0 * penalty.gamma * (
        um * u * np.arctanh(z) + 0.5 * um * um * np.log1p(-z * z)
    )


@dataclass(frozen=True)
class ControlChannel:
    """Control direction g(x) for a scalar control.

    Either a constant vector (one coefficient per state dimension) or a list
    of grid TT tensors g_p, one per dimension, with None for identically
    zero components.
    """

    constant: np.ndarray | None = None
    g_tts: tuple | None = None

    def __post_init__(self):
        if (self.constant is None) == (self.g_tts is None):
            raise ValueError("exactly one of constant / g_tts must be given")


def project_to_basis(t: TTTensor, basis: SpectralBasis) -> TTTensor:
    """Quadrature projection of grid values onto basis coefficients."""
    wphi = basis.weights[:, None] * basis.phi
    return TTTensor([np.einsum("aqb,qi->aib", blk, wphi) for blk in t.blocks])


def _weighted_block(blk, basis: SpectralBasis, deriv: bool):
    right = basis.dphi if deriv else basis.phi
    wphi = basis.weights[:, None] * basis.phi
    out = np.tensordot(blk, wphi[:, :, None] * right[:, None, :], axes=(1, 0))
    return out.transpose(0, 2, 3, 1)


def assemble_drift_part(f_tt: TTTensor, p: int, basis: SpectralBasis) -> TTMatrix:
    """TT operator -< f_p d/dx_p phi_j, phi_i > for one drift component."""
    blocks = [
        _weighted_block(blk, basis, deriv=(k == p))
        for k, blk in enumerate(f_tt.blocks)
    ]
    blocks[0] = -blocks[0]
    return TTMatrix(blocks)


def _component_sum(tts, part, acc: Accuracy, what: str) -> TTMatrix:
    """Sum of part(p, t) over the components t = tts[p] that are not None,
    rounded after each addition."""
    total = None
    for p, t in enumerate(tts):
        if t is None:
            continue
        term = part(p, t)
        total = term if total is None else (total + term).round(acc)
    if total is None:
        raise ValueError(f"{what} has no nonzero components")
    return total


def assemble_drift(f_tts, basis: SpectralBasis, acc: Accuracy) -> TTMatrix:
    """Sum of all drift components with intermediate rounding."""
    return _component_sum(f_tts, lambda p, f: assemble_drift_part(f, p, basis), acc,
                          "drift")


def _flag_chain(G: list, H: list) -> TTMatrix:
    """sum_k G_0 x .. x H_k x .. x G_{d-1} from per-dimension operator blocks.

    The chain carries a single flag for whether the H factor has been spent,
    giving blocks [[G, H], [0, G]] instead of a d-term sum; ranks only double.
    """
    if len(G) == 1:
        return TTMatrix(H)
    blocks = [np.concatenate([G[0], H[0]], axis=3)]
    for g, h in zip(G[1:-1], H[1:-1]):
        r0, n, m, r1 = g.shape
        blk = np.zeros((2 * r0, n, m, 2 * r1))
        blk[:r0, :, :, :r1] = g
        blk[:r0, :, :, r1:] = h
        blk[r0:, :, :, r1:] = g
        blocks.append(blk)
    blocks.append(np.concatenate([H[-1], G[-1]], axis=0))
    return TTMatrix(blocks)


def assemble_coupling(u_tt: TTTensor, g: np.ndarray, basis: SpectralBasis) -> TTMatrix:
    """-< g u grad ., . > for a constant direction g: the drift assembly of
    the components g_p u, summed exactly by one flag chain."""
    G = [_weighted_block(blk, basis, deriv=False) for blk in u_tt.blocks]
    H = [g[k] * _weighted_block(blk, basis, deriv=True) for k, blk in enumerate(u_tt.blocks)]
    return -1.0 * _flag_chain(G, H)


def tt_matmat(A: TTMatrix, B: TTMatrix) -> TTMatrix:
    """Exact operator product; ranks multiply."""
    if A.col_dims != B.row_dims:
        raise ValueError("dimension mismatch in operator product")
    blocks = []
    for ab, bb in zip(A.blocks, B.blocks):
        R0, n, _, R1 = ab.shape
        S0, _, q, S1 = bb.shape
        blk = np.tensordot(ab, bb, axes=(2, 1)).transpose(0, 3, 1, 4, 2, 5)
        blocks.append(blk.reshape(R0 * S0, n, q, R1 * S1))
    return TTMatrix(blocks)


def diag_matrix(t: TTTensor) -> TTMatrix:
    """Diagonal operator with the entries of t."""
    blocks = []
    for blk in t.blocks:
        r0, n, r1 = blk.shape
        out = np.zeros((r0, n, n, r1))
        out[:, np.arange(n), np.arange(n), :] = blk
        blocks.append(out)
    return TTMatrix(blocks)


def _evaluation_matrix(basis: SpectralBasis, d: int, p: int) -> TTMatrix:
    """Coefficients -> nodal values of d/dx_p of the expansion."""
    blocks = []
    for k in range(d):
        tab = basis.dphi if k == p else basis.phi
        blocks.append(tab.reshape(1, basis.m, basis.n, 1))
    return TTMatrix(blocks)


def control_map(channel: ControlChannel, basis: SpectralBasis, gamma: float,
                d: int, acc: Accuracy) -> TTMatrix:
    """Operator taking value coefficients to nodal values of the minimizing
    control, u(x) = -(1 / 2 gamma) g(x) . grad V(x)."""
    if channel.constant is not None:
        P = basis.phi.reshape(1, basis.m, basis.n, 1)
        D = basis.dphi.reshape(1, basis.m, basis.n, 1)
        bmap = _flag_chain([P] * d, [channel.constant[k] * D for k in range(d)])
    else:
        bmap = _component_sum(
            channel.g_tts,
            lambda p, g_tt: tt_matmat(diag_matrix(g_tt), _evaluation_matrix(basis, d, p)),
            acc, "control channel")
    return (-0.5 / gamma) * bmap


def _cross_map(u_tt: TTTensor, func, acc: Accuracy, grid, initial, seed) -> CrossResult:
    """TT-cross of the entrywise map func(u_tt) on the nodal grid."""
    return tt_cross(TTMap(u_tt, func, grid), acc, initial=initial, seed=seed,
                    initial_rank=min(u_tt.max_rank + 2, 10))


def apply_constraint(u_tt: TTTensor, penalty: ControlPenalty, acc: Accuracy,
                     grid, initial=None, seed=0) -> CrossResult | None:
    """Soft-clip the feedback through the saturating reparametrization."""
    if penalty.kind == "unconstrained":
        return None
    cap = penalty.clip
    return _cross_map(u_tt, lambda u: cap * np.tanh(u / cap), acc, grid, initial, seed)


@dataclass
class GalerkinSystem:
    """Precomputed pieces of the policy-linearized equation for one model."""

    basis: SpectralBasis
    d: int
    drift: TTMatrix
    channel: ControlChannel
    bmap: TTMatrix
    ell_proj: TTTensor
    penalty: ControlPenalty
    acc: Accuracy
    seed: int = 0

    @property
    def grid(self) -> list:
        return [self.basis.nodes] * self.d

    def feedback(self, v: TTTensor) -> TTTensor:
        """Nodal values of the unconstrained minimizing control."""
        return tt_round(tt_matvec(self.bmap, v), self.acc)

    def operator(self, u_tt: TTTensor | None) -> TTMatrix:
        """drift - < g u grad ., . >, rounded.  A state-dependent channel
        gives one exact term per component g_p u; the drift and those terms
        are rounded together by one sketch (tt_sum_round)."""
        if u_tt is None:
            return self.drift
        if self.channel.constant is not None:
            coupling = assemble_coupling(u_tt, self.channel.constant, self.basis)
            return (self.drift + coupling).round(self.acc)
        terms = [self.drift.fuse()] + [
            assemble_drift_part(tt_hadamard(g_tt, u_tt), p, self.basis).fuse()
            for p, g_tt in enumerate(self.channel.g_tts) if g_tt is not None]
        return TTMatrix.unfuse(tt_sum_round(terms, self.acc, self.seed),
                               self.drift.row_dims, self.drift.col_dims)

    def rhs(self, u_tt: TTTensor | None, initial=None):
        """(b, CrossResult or None).  The quadratic penalty is sketched from
        the blocks of u (tt_square_sum); the tanh penalty goes through cross,
        started from the index sets ``initial`` when given."""
        if u_tt is None:
            return self.ell_proj, None
        if self.penalty.kind == "unconstrained":
            wphi = self.basis.weights[:, None] * self.basis.phi
            b = tt_square_sum(self.ell_proj, u_tt, wphi, self.penalty.gamma, self.acc,
                              self.seed)
            return b, None
        res = _cross_map(u_tt, lambda u: penalty_cost(u, self.penalty), self.acc,
                         self.grid, initial, self.seed)
        b = tt_round(self.ell_proj + project_to_basis(res.tensor, self.basis), self.acc)
        return b, res
