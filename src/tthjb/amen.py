"""Alternating low-rank solver for shifted linear systems in TT format.

Solves (A + mu I) v = b + mu v_prev one dimension at a time.  Each sweep
projects the full system onto the orthonormal frames around one TT block,
solves the small local system, and enriches the basis with a projection of
the current global residual so the iteration can escape a bad subspace.
The shift is never formed explicitly: the projected operator picks it up as
mu times the identity because the frames are orthonormal.
"""
from __future__ import annotations

import logging

import numpy as np
import scipy.sparse.linalg
from scipy.linalg.lapack import dgetrf, dgetrs

from .tt import (
    Accuracy,
    TTMatrix,
    TTTensor,
    orthogonalize_right,
    _svd,
    _chop,
)

__all__ = ["amen_solve_shifted"]

log = logging.getLogger(__name__)

# local systems with more unknowns than this go to preconditioned GMRES,
# which is cheaper than dense LU from about this size on
_GMRES_CROSSOVER = 325
# largest local matrix formed: the dense fallback of an unconverged GMRES
_DENSE_LIMIT = 2000
# alternating sweeps of the rank-rho residual fit that drives enrichment
_FIT_SWEEPS = 2


# Index names in the comments: a, b, c, d frame ranks; A, B operator ranks;
# p, q vector ranks; i, j mode indices.

def _advance_op(L, vb, Ab, wb):
    """Push an operator interface through one block triple: (r,R,r') frames."""
    tmp = np.tensordot(L, vb, axes=(0, 0))                        # A c i b
    tmp = np.tensordot(tmp, Ab, axes=((0, 2), (0, 1)))            # c b j B
    return np.tensordot(tmp, wb, axes=((0, 2), (0, 1)))           # b B d


def _advance_vec(L, vb, bb):
    """Push a vector interface (r, rho) through one block pair."""
    tmp = np.tensordot(L, vb, axes=(0, 0))                        # p i b
    return np.tensordot(tmp, bb, axes=((0, 1), (0, 1)))           # b q


def _retreat_op(R, vb, Ab, wb):
    tmp = np.tensordot(vb, R, axes=(2, 0))                        # a i B d
    tmp = np.tensordot(tmp, Ab, axes=((1, 2), (1, 3)))            # a d A j
    return np.tensordot(tmp, wb, axes=((1, 3), (2, 1)))           # a A c


def _retreat_vec(R, vb, bb):
    tmp = np.tensordot(vb, R, axes=(2, 0))                        # a i q
    return np.tensordot(tmp, bb, axes=((1, 2), (1, 2)))           # a p


def _right_interfaces(x: TTTensor, A: TTMatrix, w: TTTensor, vecs):
    """Right interfaces against the frames of x: of A (with w) and of vecs.

    Entry j contracts blocks j..d-1, so block k meets entry k + 1; entry d is
    the empty product.  Returns (interfaces of A, one list per vector).
    """
    d = x.d
    RA = [None] * d + [np.ones((1, 1, 1))]
    Rs = [[None] * d + [np.ones((1, 1))] for _ in vecs]
    for j in range(d - 1, 0, -1):
        RA[j] = _retreat_op(RA[j + 1], x.blocks[j], A.blocks[j], w.blocks[j])
        for R, t in zip(Rs, vecs):
            R[j] = _retreat_vec(R[j + 1], x.blocks[j], t.blocks[j])
    return RA, Rs


def _local_matrix(LA, Ab, RA):
    r0 = LA.shape[0]
    r1 = RA.shape[0]
    n = Ab.shape[1]
    H = np.tensordot(np.tensordot(LA, Ab, axes=(1, 0)), RA, axes=(4, 1))
    H = H.transpose(0, 2, 4, 1, 3, 5)                             # a i b c j d
    return H.reshape(r0 * n * r1, r0 * n * r1)


def _project(terms, Ls, Rs, k):
    """Block (a, i, b) of sum_i c_i t_i projected onto the frames around k.

    Ls holds each term's left interface at k, Rs its right interface list;
    the terms are summed in order.
    """
    out = None
    for (coef, t), L, R in zip(terms, Ls, Rs):
        piece = coef * np.tensordot(np.tensordot(L, t.blocks[k], axes=(1, 0)),
                                    R[k + 1], axes=(2, 1))
        out = piece if out is None else out + piece
    return out


def _apply_local(LA, Ab, RA, x):
    """Local operator applied to a block x (c, j, d) -> (a, i, b)."""
    tmp = np.tensordot(LA, x, axes=(2, 0))                        # a A j d
    tmp = np.tensordot(tmp, Ab, axes=((1, 2), (0, 2)))            # a d i B
    return np.tensordot(tmp, RA, axes=((1, 3), (2, 1)))           # a i b


def _fit_combination(A: TTMatrix, v: TTTensor, terms, rho: int, rng) -> TTTensor:
    """Rank-rho alternating fit of sum_i c_i t_i - A v.

    The product A v is never materialized: every local update only needs
    interface contractions of A and v against the orthonormal frames of the
    iterate, so the cost stays linear in d even when A v has huge ranks.
    """
    dims = v.dims
    d = len(dims)
    ranks = [1] + [rho] * (d - 1) + [1]
    z = TTTensor.random(dims, ranks, rng)
    vecs = [t for _, t in terms]
    for _ in range(_FIT_SWEEPS):
        z = orthogonalize_right(z, 1)
        RA, Rs = _right_interfaces(z, A, v, vecs)
        LA = np.ones((1, 1, 1))
        Ls = [np.ones((1, 1)) for _ in vecs]
        blocks = list(z.blocks)
        for k in range(d):
            blk = (_project(terms, Ls, Rs, k)
                   - _apply_local(LA, A.blocks[k], RA[k + 1], v.blocks[k]))
            if k == d - 1:
                blocks[k] = blk
                break
            r0, _, r1 = blk.shape
            q, _ = np.linalg.qr(blk.reshape(r0 * dims[k], r1))
            blocks[k] = q.reshape(r0, dims[k], q.shape[1])
            LA = _advance_op(LA, blocks[k], A.blocks[k], v.blocks[k])
            Ls = [_advance_vec(L, blocks[k], t.blocks[k]) for L, t in zip(Ls, vecs)]
        z = TTTensor(blocks)
    return z


def _block_jacobi(LA, Ab, RA, shift):
    """Diagonal blocks of H + shift I in the right frame index, and inverse.

    Block b is sum_{A,B} LA[:, A, :] (x) Ab[A, :, :, B] RA[b, B, b] + shift I,
    one (r0 n)^2 matrix per b, LU-factored once.  Returns the maps applying
    the block-diagonal matrix and its inverse to a flat (a, i, b) vector.
    """
    r0, n, r1 = LA.shape[0], Ab.shape[1], RA.shape[0]
    rdiag = np.einsum("bBb->bB", RA)
    M = np.tensordot(rdiag, np.tensordot(LA, Ab, axes=(1, 0)), axes=(1, 4))  # b a c i j
    M = M.transpose(0, 1, 3, 2, 4).reshape(r1, r0 * n, r0 * n)
    M += shift * np.eye(r0 * n)
    factors = [dgetrf(blk)[:2] for blk in M]

    def apply(x):
        return np.einsum("bij,jb->ib", M, x.reshape(r0 * n, r1)).reshape(-1)

    def solve(y):
        y = y.reshape(r0 * n, r1)
        cols = [dgetrs(lu, piv, y[:, b])[0] for b, (lu, piv) in enumerate(factors)]
        return np.stack(cols, axis=1).reshape(-1)

    return apply, solve


def _solve_local(H_parts, g, shift, x0, delta):
    """Solve (H + shift I) x = g.

    Up to _GMRES_CROSSOVER unknowns by dense LU; above, by one cycle of GMRES
    right-preconditioned with the block Jacobi, warm-started from x0.  An
    unconverged GMRES falls back to dense LU when the system has at most
    _DENSE_LIMIT unknowns.  Returns (x, norm of the local residual).
    """
    LA, Ab, RA = H_parts
    size = g.size
    if size > _GMRES_CROSSOVER:
        r0, n, r1 = LA.shape[0], Ab.shape[1], RA.shape[0]

        def matvec(x):
            y = _apply_local(LA, Ab, RA, x.reshape(r0, n, r1))
            return y.reshape(-1) + shift * x

        apply_M, solve_M = _block_jacobi(LA, Ab, RA, shift)
        # GMRES on (H + shift I) M^-1 y = g minimizes the true residual
        op = scipy.sparse.linalg.LinearOperator(
            (size, size), matvec=lambda y: matvec(solve_M(y)), dtype=float)
        tol = min(1e-8, 1e-2 * delta)
        y, info = scipy.sparse.linalg.gmres(op, g, x0=apply_M(x0), rtol=tol,
                                            atol=0.0, restart=60, maxiter=1)
        x = solve_M(y)
        if info == 0 or size > _DENSE_LIMIT:
            if info:
                log.warning("local GMRES stopped at maxiter (size %d)", size)
            return x, float(np.linalg.norm(matvec(x) - g))
    H = _local_matrix(LA, Ab, RA)
    H[np.diag_indices_from(H)] += shift
    try:
        x = np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        x = np.linalg.lstsq(H, g, rcond=None)[0]
    return x, float(np.linalg.norm(H @ x - g))


def amen_solve_shifted(
    A: TTMatrix,
    b: TTTensor,
    v_prev: TTTensor,
    shift: float,
    acc: Accuracy,
    sweeps: int = 1,
    rho: int = 4,
) -> TTTensor:
    """Sweeps of alternating solves for (A + shift I) v = b + shift v_prev.

    v_prev seeds the iteration.  Each sweep runs left to right: local solve,
    SVD truncation to acc, residual-based enrichment (rank at most rho),
    then an interface update.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if sweeps < 1:
        raise ValueError("need at least one sweep")
    v = v_prev
    d = v.d
    rng = np.random.default_rng(1)
    rhs = [(1.0, b), (shift, v_prev)]
    vecs = [b, v_prev]
    for sweep in range(sweeps):
        v = orthogonalize_right(v, 1)
        # residual of the shifted system without forming (A + shift I) v;
        # the first sweep starts from v_prev itself, so its shift terms cancel
        terms = rhs + [(-shift, v)] if sweep else rhs[:1]
        res = _fit_combination(A, v, terms, rho, rng)
        RA, Rs = _right_interfaces(v, A, v, vecs)
        LA = np.ones((1, 1, 1))
        Ls = [np.ones((1, 1)) for _ in vecs]
        Lz = np.ones((1, 1))
        blocks = list(v.blocks)
        max_local_res = 0.0
        for k in range(d):
            g = _project(rhs, Ls, Rs, k).reshape(-1)
            x, local_res = _solve_local((LA, A.blocks[k], RA[k + 1]), g, shift,
                                        blocks[k], acc.delta)
            max_local_res = max(max_local_res, local_res)
            r0, n, r1 = blocks[k].shape
            if k == d - 1:
                blocks[k] = x.reshape(r0, n, r1)
                break
            u, s, vt = _svd(x.reshape(r0 * n, r1))
            keep = _chop(s, acc.delta * np.linalg.norm(s) / np.sqrt(d - 1),
                         acc.max_rank)
            u = u[:, :keep]
            carry = s[:keep, None] * vt[:keep]
            # enrichment: project the global residual onto the left frame
            zb = np.tensordot(Lz, res.blocks[k], axes=(1, 0))
            aug = np.concatenate([u, zb.reshape(r0 * n, -1)], axis=1)
            rho_k = aug.shape[1] - keep
            q, rm = np.linalg.qr(aug)
            blocks[k] = q.reshape(r0, n, q.shape[1])
            carry = rm @ np.vstack([carry, np.zeros((rho_k, r1))])
            blocks[k + 1] = np.tensordot(carry, blocks[k + 1], axes=(1, 0))
            LA = _advance_op(LA, blocks[k], A.blocks[k], blocks[k])
            Ls = [_advance_vec(L, blocks[k], t.blocks[k]) for L, t in zip(Ls, vecs)]
            Lz = _advance_vec(Lz, blocks[k], res.blocks[k])
        v = TTTensor(blocks)
        log.debug(
            "amen sweep %d: shift=%.3g max_rank=%d max_local_res=%.3g",
            sweep, shift, v.max_rank, max_local_res,
        )
    return v
