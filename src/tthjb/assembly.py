"""Galerkin assembly of the policy-linearized value equation in TT format.

For a fixed feedback u the value function solves A(u) v = b(u) with

    A(u)[i, j] = -< (f(x) + g(x) u(x)) . grad phi_j, phi_i >
    b(u)[i]    =  < l(x) + W(u(x)), phi_i >

over the tensor-product Legendre basis; W is the control penalty (gamma u^2
in the unconstrained case).  With the minus sign the operator of a stable
closed loop has spectrum in the right half plane, so positive shifts
regularize rather than destabilize the linear solves.

f and g come as flag fields (see models).  The F fields of each are one
exact flag chain of rank 2F, weighted in one batch: the drift's against the
basis, the control map's against the nodes.  The coupling -< (g u) . grad
phi_j, phi_i > is then 2 gamma wphi^T diag(u) bmap, for wphi the weighted
basis on the nodes and bmap the control map: one TT of ranks r_u r_bmap per
feedback, formed only while its sum with the drift is within the rank cap.
Over the cap the sketch meets it as a product term of u and bmap
(tt._product_term), as it meets the penalty gamma P(u^2) of the right-hand side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SpectralBasis
from .cross import tt_cross
from .tt import (_OVERSAMPLE, Accuracy, TTMatrix, TTTensor, _capacity, _product_term,
                 _sketch_round, _tt_term, flag_chain, tt_add, tt_matvec, tt_round, tt_scale)

__all__ = [
    "ControlPenalty",
    "GalerkinSystem",
    "project_to_basis",
    "assemble_drift",
    "control_map",
    "penalty_cost",
]

_CLIP_MARGIN = 0.01    # bounded controls are soft-clipped at (1 - this) u_max
# oversampling p of the operator's sketch: on the Fokker-Planck d=10 operator
# the sketch alone lost 1.4 delta at an oversampling of 5, and 0.45 delta at 20
_SUM_OVERSAMPLE = 20


@dataclass(frozen=True)
class ControlPenalty:
    """Running-cost penalty on the control.

    Without u_max it charges gamma u^2.  With u_max it is bounded: it charges
    the convex penalty whose pointwise minimizer is u_max tanh(w / u_max),
    which keeps the feedback strictly inside [-u_max, u_max]; the realized
    controls are soft-clipped at (1 - _CLIP_MARGIN) u_max so the penalty
    stays finite.
    """

    gamma: float
    u_max: float | None = None

    def __post_init__(self):
        if isinstance(self.gamma, bool) or not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma!r}")
        if self.u_max is not None and (isinstance(self.u_max, bool) or not (
                math.isfinite(self.u_max) and self.u_max > 0)):
            raise ValueError(f"u_max must be finite and positive, got {self.u_max!r}")

    @property
    def clip(self) -> float | None:
        if self.u_max is None:
            return None
        return (1.0 - _CLIP_MARGIN) * self.u_max

    def saturate(self, u):
        """The tanh cap clip tanh(u / clip); unbounded controls pass through."""
        cap = self.clip
        return u if cap is None else cap * np.tanh(u / cap)


def penalty_cost(u, penalty: ControlPenalty):
    """Pointwise running-cost contribution W(u) of the control."""
    u = np.asarray(u, dtype=float)
    if penalty.u_max is None:
        return penalty.gamma * u * u
    um = penalty.u_max
    z = np.clip(u / um, -1.0 + 1e-12, 1.0 - 1e-12)
    return 2.0 * penalty.gamma * (
        um * u * np.arctanh(z) + 0.5 * um * um * np.log1p(-z * z)
    )


def project_to_basis(t: TTTensor, basis: SpectralBasis) -> TTTensor:
    """Quadrature projection of grid values onto basis coefficients."""
    return TTTensor([np.einsum("aqb,qi->aib", blk, basis.wphi) for blk in t.blocks])


def _fields_chain(fields, test, trial, dtrial) -> TTMatrix:
    """sum over the flag fields and over p of the operators that meet
    component p of the field by test and, along every dimension k, trial
    (dtrial for k = p).

    Component p of field (g, h) is h_p(x_p) prod_{k != p} g_k(x_k): a flag
    chain of rank 2.  The F fields' node vectors, stacked (F, d, m), are
    weighted by one GEMM against test x trial and one against test x dtrial,
    and the exact sum is one flag chain of rank 2F whose G and H blocks are
    block-diagonal over the fields.
    """
    g, h = (np.array([f[i] for f in fields], dtype=float) for i in (0, 1))
    F, d, m = g.shape
    eye = np.eye(F)

    def weighted(x, right):
        kernel = (test[:, :, None] * right[:, None, :]).reshape(m, -1)
        w = (x.reshape(F * d, m) @ kernel).reshape(F, d, test.shape[1], right.shape[1])
        return list(w.transpose(1, 0, 2, 3)[..., None] * eye[:, None, None, :])

    return TTMatrix(flag_chain(weighted(g, trial), weighted(h, dtrial)))


def _coupling(bmap: TTMatrix, u: TTTensor, wphi) -> TTMatrix:
    """wphi^T diag(u) bmap: blocks sum_q wphi[q, i] u[a, q, b] bmap[c, q, j, e],
    one GEMM over the nodes q each, of ranks u's times bmap's."""
    blocks = []
    for ub, mb in zip(u.blocks, bmap.blocks):
        (a, m, b), (c, _, n, e) = ub.shape, mb.shape
        left = (ub[:, :, :, None] * wphi[None, :, None, :]).transpose(0, 2, 3, 1)  # (a, b, i, q)
        blk = left.reshape(-1, m) @ mb.transpose(1, 0, 2, 3).reshape(m, -1)
        blocks.append(blk.reshape(a, b, n, c, n, e).transpose(0, 3, 2, 4, 1, 5)
                      .reshape(a * c, n, n, b * e))
    return TTMatrix(blocks)


def assemble_drift(fields, basis: SpectralBasis, acc: Accuracy) -> TTMatrix:
    """-< f . grad phi_j, phi_i > for the drift's flag fields, rounded."""
    return -1.0 * tt_round(_fields_chain(fields, basis.wphi, basis.phi, basis.dphi), acc)


def control_map(fields, basis: SpectralBasis, gamma: float, acc: Accuracy) -> TTMatrix:
    """Operator taking value coefficients to nodal values of the minimizing
    control, u(x) = -(1 / 2 gamma) g(x) . grad V(x), for the channel's flag
    fields: the chain meets the nodes by the identity."""
    chain = _fields_chain(fields, np.eye(basis.m), basis.phi, basis.dphi)
    return (-0.5 / gamma) * tt_round(chain, acc)


@dataclass
class GalerkinSystem:
    """Precomputed pieces of the policy-linearized equation for one model."""

    basis: SpectralBasis
    drift: TTMatrix
    bmap: TTMatrix
    ell_proj: TTTensor
    penalty: ControlPenalty
    acc: Accuracy
    seed: int = 0

    def feedback(self, v: TTTensor) -> TTTensor:
        """Nodal values of the unconstrained minimizing control."""
        return tt_round(tt_matvec(self.bmap, v), self.acc)

    def operator(self, u_tt: TTTensor) -> TTMatrix:
        """drift - < g u grad ., . >: the drift plus the coupling
        2 gamma wphi^T diag(u) bmap, rounded.

        Where the summed ranks (or the mode products, if smaller) stay within
        max_rank + p for the oversampling p at every interface, or there is
        no max_rank, the coupling is formed and the exact sum rounded.  Over
        that cap the sum is sketched once at its ranks capped at max_rank + p
        (tt._sketch_round with ell = cap), the coupling met through the
        blocks of u and bmap as a product term (_product_term) and never
        formed; the Gaussian draws come from seed.
        """
        drift, bmap, acc = self.drift, self.bmap, self.acc
        u = tt_scale(u_tt, 2.0 * self.penalty.gamma)
        dims = tuple(r * c for r, c in zip(drift.row_dims, drift.col_dims))
        full = [min(drift.ranks[k] + u.ranks[k] * bmap.ranks[k], m)
                for k, m in enumerate(_capacity(dims))]
        if acc.max_rank is None or max(full) <= acc.max_rank + _SUM_OVERSAMPLE:
            return tt_round(tt_add(drift, _coupling(bmap, u, self.basis.wphi)), acc)
        cap = [min(f, acc.max_rank + _SUM_OVERSAMPLE) for f in full]
        terms = [_tt_term(drift), _product_term(u, bmap.blocks, [self.basis.wphi] * u.d)]
        return _sketch_round(terms, drift, cap, cap, acc, self.seed)

    def policy(self, u_tt: TTTensor, previous=None):
        """(u, CrossResult or None): the control a row runs on, the initial
        policy's included.  A bounded penalty caps u by cross of its tanh cap,
        started from the index sets of the previous row's CrossResult."""
        if self.penalty.u_max is None:
            return u_tt, None
        res = tt_cross(u_tt, self.penalty.saturate, self.acc,
                       previous and previous.index_sets, self.seed)
        return res.tensor, res

    def rhs(self, u_tt: TTTensor, previous=None):
        """(b, CrossResult or None).  The tanh penalty goes through cross,
        started as policy's is.  The quadratic penalty gamma P(u^2), P the
        projection wphi on every mode, is a product term of the blocks of u,
        summed with ell_proj by tt._sketch_round and never formed.  With e
        the ranks of ell_proj and p the oversampling, the sketch rank at
        interface k starts at min(r_k + e_k + p, e_k + r_k (r_k + 1) / 2),
        the upper value the exact range of the sum, and is capped at
        max_rank + p.
        """
        if self.penalty.u_max is None:
            c, d, acc = self.ell_proj, u_tt.d, self.acc
            e, r = c.ranks, u_tt.ranks
            full = [min(e[k] + r[k] * (r[k] + 1) // 2, m) for k, m in enumerate(_capacity(c.dims))]
            cap = [f if acc.max_rank is None else min(f, acc.max_rank + _OVERSAMPLE) for f in full]
            ell = [min(r[k] + e[k] + _OVERSAMPLE, cap[k]) for k in range(d + 1)]
            square = _product_term(tt_scale(u_tt, self.penalty.gamma),
                                   [blk[:, :, None] for blk in u_tt.blocks], [self.basis.wphi] * d)
            return _sketch_round([_tt_term(c), square], c, ell, cap, acc, self.seed), None
        res = tt_cross(u_tt, lambda u: penalty_cost(u, self.penalty), self.acc,
                       previous and previous.index_sets, self.seed)
        b = tt_round(self.ell_proj + project_to_basis(res.tensor, self.basis), self.acc)
        return b, res
