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
from scipy.linalg.lapack import dgesv, dgetrf, dgetrs, dlartg, dtrtrs

from .tt import (
    Accuracy,
    TTMatrix,
    TTTensor,
    orthogonalize_right,
    tt_scale,
    _capacity,
    _carry_left,
    _check,
    _chop,
    _product_term,
    _qr,
    _sketch,
    _svd,
    _tt_term,
)

__all__ = ["amen_solve_shifted"]

log = logging.getLogger(__name__)

# local systems with more unknowns than this go to preconditioned GMRES,
# which is cheaper than dense LU from about this size on
_GMRES_CROSSOVER = 325
# largest local matrix formed: the dense fallback of an unconverged GMRES
_DENSE_LIMIT = 2000
# rank of the residual sketch that drives enrichment
_RHO = 4


# Index names in the comments: a, b, c, d frame ranks; A, B operator ranks;
# p, q vector ranks; i, j mode indices.  Every contraction is a reshape and
# one matrix product: at the small ranks of a sweep, np.tensordot's argument
# handling costs several times the arithmetic.

def _advance_op(L, vb, Ab, wb):
    """Push an operator interface (a, A, c) through one block triple to
    (b, B, d); blocks with reversed rank axes push a right interface left."""
    a, A, c = L.shape
    _, n, b = vb.shape
    _, m, d = wb.shape
    B = Ab.shape[3]
    tmp = L.reshape(a, A * c).T @ vb.reshape(a, n * b)            # A c i b
    tmp = tmp.reshape(A, c, n, b).transpose(1, 3, 0, 2).reshape(c * b, A * n)
    tmp = tmp @ Ab.reshape(A * n, m * B)                          # c b j B
    tmp = tmp.reshape(c, b, m, B).transpose(1, 3, 0, 2).reshape(b * B, c * m)
    return (tmp @ wb.reshape(c * m, d)).reshape(b, B, d)


def _advance_vec(L, vb, bb):
    """Push a vector interface (a, p) through one block pair to (b, q)."""
    a, p = L.shape
    _, n, b = vb.shape
    tmp = L.T @ vb.reshape(a, n * b)                              # p i b
    return tmp.reshape(p * n, b).T @ bb.reshape(p * n, -1)


def _right_interfaces(x: TTTensor, A: TTMatrix, f: TTTensor):
    """Right interfaces against the frames of x: of A and of f.

    Entry j contracts blocks j..d-1, so block k meets entry k + 1; entry d is
    the empty product.  Each is the advance kernel on blocks whose rank axes
    are reversed.  Returns (interfaces of A, interfaces of f).
    """
    d = x.d
    RA = [None] * d + [np.ones((1, 1, 1))]
    Rf = [None] * d + [np.ones((1, 1))]
    for j in range(d - 1, 0, -1):
        xb = x.blocks[j].transpose(2, 1, 0)
        RA[j] = _advance_op(RA[j + 1], xb, A.blocks[j].transpose(3, 1, 2, 0), xb)
        Rf[j] = _advance_vec(Rf[j + 1], xb, f.blocks[j].transpose(2, 1, 0))
    return RA, Rf


def _left_op(LA, Ab):
    """LA contracted with Ab over the left operator rank: (a c i j, B)."""
    r0, R0, _ = LA.shape
    tmp = LA.transpose(0, 2, 1).reshape(r0 * r0, R0) @ Ab.reshape(R0, -1)
    return tmp.reshape(-1, Ab.shape[3])


def _local_matrix(LA, Ab, RA):
    r0, n, r1, R1 = LA.shape[0], Ab.shape[1], RA.shape[0], RA.shape[1]
    H = _left_op(LA, Ab) @ RA.transpose(1, 0, 2).reshape(R1, r1 * r1)
    H = H.reshape(r0, r0, n, n, r1, r1).transpose(0, 2, 4, 1, 3, 5)  # a i b c j d
    return H.reshape(r0 * n * r1, r0 * n * r1)


def _apply_local(LA, Ab, RA, x):
    """Local operator applied to a block x (c, j, d) -> (a, i, b)."""
    a, A, c = LA.shape
    _, n, m, B = Ab.shape
    b, _, d = RA.shape
    tmp = LA.reshape(a * A, c) @ x.reshape(c, m * d)              # a A j d
    tmp = tmp.reshape(a, A, m, d).transpose(0, 3, 1, 2).reshape(a * d, A * m)
    tmp = tmp @ Ab.transpose(0, 2, 1, 3).reshape(A * m, n * B)    # a d i B
    tmp = tmp.reshape(a, d, n, B).transpose(0, 2, 1, 3).reshape(a * n, d * B)
    return (tmp @ RA.transpose(2, 1, 0).reshape(d * B, b)).reshape(a, n, b)


def _block_jacobi(LA, Ab, RA, shift):
    """Inverse of the diagonal blocks of H + shift I in the right frame index.

    Block b is sum_{A,B} LA[:, A, :] (x) Ab[A, :, :, B] RA[b, B, b] + shift I,
    one (r0 n)^2 matrix per b, LU-factored once.  Returns the map applying
    the inverse of the block-diagonal matrix to a flat (a, i, b) vector.
    """
    r0, n, r1 = LA.shape[0], Ab.shape[1], RA.shape[0]
    size = r0 * n
    rdiag = np.einsum("bBb->bB", RA)
    M = (rdiag @ _left_op(LA, Ab).T).reshape(r1, r0, r0, n, n)             # b a c i j
    # each block stored transposed, (c j, a i): M[b].T is the block in
    # Fortran order, which dgetrf factors in place
    M = M.transpose(0, 2, 4, 1, 3).reshape(r1, size * size)
    M[:, ::size + 1] += shift
    factors = [dgetrf(blk.reshape(size, size).T, overwrite_a=True)[:2] for blk in M]

    def solve(y):
        y = y.reshape(size, r1)
        cols = [dgetrs(lu, piv, y[:, b])[0] for b, (lu, piv) in enumerate(factors)]
        return np.stack(cols, axis=1).reshape(-1)

    return solve


def _gmres(matvec, psolve, g, x0, tol, restart=60):
    """One cycle of right-preconditioned GMRES for A x = g, started at x0.

    Minimizes ||g - A x|| over x = x0 + M^-1 V z, where V spans the Krylov
    space of A M^-1 on the residual of x0, so the start makes no trip
    through M.  The basis is orthogonalized by classical Gram-Schmidt twice,
    as products with the whole basis, and the Hessenberg matrix is reduced
    by LAPACK rotations.  A start whose residual exceeds ||g|| is worse than
    zero, and the cycle starts from zero instead.  The cycle stops when the
    residual estimate reaches tol ||g||, on a breakdown (the Krylov space is
    invariant and the estimate exact), or after restart steps.  Returns
    (x, ||g - A x||), at most ||g||; a residual above tol ||g|| means the
    cycle did not converge.
    """
    gnorm = np.linalg.norm(g)
    if not gnorm:
        return np.zeros_like(g), 0.0
    target = tol * gnorm
    r = g - matvec(x0)
    beta = np.linalg.norm(r)
    if beta > gnorm:                              # zero's residual is g itself
        x0, r, beta = np.zeros_like(g), g, gnorm
    if beta <= target:
        return x0, float(beta)
    m = min(restart, g.size)
    eps = np.finfo(float).eps
    V = np.empty((m + 1, g.size))
    Z = np.empty((m, g.size))                     # M^-1 V
    R = np.zeros((m, m))                          # the rotated Hessenberg matrix
    rotations = []
    e = [float(beta)] + [0.0] * m                 # the rotated residual
    V[0] = r / beta
    for j in range(m):
        Z[j] = psolve(V[j])
        w = matvec(Z[j])
        wnorm = np.linalg.norm(w)
        h = V[:j + 1] @ w
        w -= h @ V[:j + 1]
        h2 = V[:j + 1] @ w
        w -= h2 @ V[:j + 1]
        col = (h + h2).tolist()
        hnorm = np.linalg.norm(w)
        if hnorm <= eps * wnorm:                  # breakdown: A M^-1 v_j in span V
            hnorm = 0.0
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        c, s, col[j] = dlartg(col[j], hnorm)
        rotations.append((c, s))
        R[:j + 1, j] = col
        e[j], e[j + 1] = c * e[j], -s * e[j]
        if abs(e[j + 1]) <= target:               # a breakdown makes it 0
            break
        V[j + 1] = w / hnorm
    k = j + 1 if R[j, j] else j                   # a zero pivot adds no direction
    if not k:
        return x0, float(beta)
    y, info = dtrtrs(R[:k, :k], e[:k])
    _check(info, "dtrtrs", (k, k))
    x = x0 + y @ Z[:k]
    return x, float(np.linalg.norm(g - matvec(x)))


def _solve_local(H_parts, g, shift, x0, delta, stats):
    """Solve (H + shift I) x = g.

    Up to _GMRES_CROSSOVER unknowns by dense LU; above, by one cycle of GMRES
    right-preconditioned with the block Jacobi, warm-started from x0.  An
    unconverged GMRES falls back to dense LU when the system has at most
    _DENSE_LIMIT unknowns, counted in stats["gmres_fallbacks"]; a larger one
    keeps its iterate, counted in stats["gmres_unconverged"].  Returns
    (x, norm of the local residual).
    """
    LA, Ab, RA = H_parts
    size = g.size
    if size > _GMRES_CROSSOVER:
        r0, n, r1 = LA.shape[0], Ab.shape[1], RA.shape[0]

        def matvec(x):
            y = _apply_local(LA, Ab, RA, x.reshape(r0, n, r1))
            return y.reshape(-1) + shift * x

        tol = min(1e-8, 1e-2 * delta)
        x, res = _gmres(matvec, _block_jacobi(LA, Ab, RA, shift), g,
                        x0.reshape(-1), tol)
        converged = res <= tol * np.linalg.norm(g)
        if converged or size > _DENSE_LIMIT:
            if not converged:
                log.warning("local GMRES stopped at maxiter (size %d)", size)
                stats["gmres_unconverged"] += 1
            return x, res
        stats["gmres_fallbacks"] += 1
    H = _local_matrix(LA, Ab, RA)
    H.flat[::size + 1] += shift
    _, _, x, info = dgesv(H, g)
    if info > 0:  # an exactly zero pivot: H + shift I is singular
        x = np.linalg.lstsq(H, g, rcond=None)[0]
    else:
        _check(info, "dgesv", H.shape)
    return x, float(np.linalg.norm(H @ x - g))


def amen_solve_shifted(
    A: TTMatrix,
    b: TTTensor,
    v_prev: TTTensor,
    shift: float,
    acc: Accuracy,
    stats: dict | None = None,
    seed: int = 0,
) -> TTTensor:
    """One sweep of alternating solves for (A + shift I) v = b + shift v_prev.

    v_prev seeds the sweep, which runs left to right: local solve, SVD
    truncation to acc, residual-based enrichment (rank at most _RHO), then
    an interface update.  From v_prev the shift terms of the residual
    cancel, so the residual that enriches v is b - A v_prev, sketched once
    by a Gaussian drawn from seed + 1.  A given stats dict is filled with
    the health of the local solves: max_local_res, the largest relative
    residual ||(H + shift I) x - g|| / ||g||; gmres_fallbacks, the GMRES
    solves that stopped at maxiter and were redone by dense LU; and
    gmres_unconverged, those too large for that, which kept their iterate.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    v = orthogonalize_right(v_prev)
    d = v.d
    ell = [min(_RHO, m) for m in _capacity(v.dims)]
    f = b + v_prev * shift
    stats = {} if stats is None else stats
    stats.update(max_local_res=0.0, gmres_fallbacks=0, gmres_unconverged=0)
    # A v as a product term: A's columns are the contracted axis q, its rows j
    A_qj = [blk.transpose(0, 2, 1, 3) for blk in A.blocks]
    ones = [np.ones((m, 1)) for m in A.col_dims]
    res = _sketch([_tt_term(b), _product_term(tt_scale(v, -1.0), A_qj, ones)], v, ell,
                  np.random.default_rng(seed + 1))
    RA, Rf = _right_interfaces(v, A, f)
    LA = np.ones((1, 1, 1))
    Lf = np.ones((1, 1))
    Lz = np.ones((1, 1))
    blocks = list(v.blocks)
    for k in range(d):
        # f projected onto the frames around block k: (a, i, b), flat
        fb = Lf @ f.blocks[k].reshape(Lf.shape[1], -1)
        g = (fb.reshape(-1, Rf[k + 1].shape[1]) @ Rf[k + 1].T).reshape(-1)
        x, local_res = _solve_local((LA, A.blocks[k], RA[k + 1]), g, shift,
                                    blocks[k], acc.delta, stats)
        # relative to ||g||; absolute for a zero right-hand side
        gnorm = np.linalg.norm(g)
        stats["max_local_res"] = max(stats["max_local_res"],
                                     local_res / gnorm if gnorm else local_res)
        r0, n, r1 = blocks[k].shape
        if k == d - 1:
            blocks[k] = x.reshape(r0, n, r1)
            break
        u, s, vt = _svd(x.reshape(r0 * n, r1))
        keep = _chop(s, acc.delta * np.linalg.norm(s) / np.sqrt(d - 1), acc.max_rank)
        u = u[:, :keep]
        carry = s[:keep, None] * vt[:keep]
        # enrichment: project the global residual onto the left frame
        zb = Lz @ res.blocks[k].reshape(Lz.shape[1], -1)
        aug = np.concatenate([u, zb.reshape(r0 * n, -1)], axis=1)
        rho_k = aug.shape[1] - keep
        q, rm = _qr(aug)
        blocks[k] = q.reshape(r0, n, q.shape[1])
        carry = rm @ np.vstack([carry, np.zeros((rho_k, r1))])
        blocks[k + 1] = _carry_left(carry, blocks[k + 1])
        LA = _advance_op(LA, blocks[k], A.blocks[k], blocks[k])
        Lf = _advance_vec(Lf, blocks[k], f.blocks[k])
        Lz = _advance_vec(Lz, blocks[k], res.blocks[k])
    v = TTTensor(blocks)
    log.debug("amen sweep: shift=%.3g max_rank=%d max_local_res=%.3g",
              shift, v.max_rank, stats["max_local_res"])
    return v
