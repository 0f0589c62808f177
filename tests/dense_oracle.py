"""Dense oracles of the tests: TT chains to and from full arrays, and the
per-field reference of the operator builder.

The library never forms a dense tensor; the tests compare against one on
small cases only.
"""
import functools
import math

import numpy as np

from tthjb.tt import TTMatrix, TTTensor, flag_chain, tt_add


def full(t):
    """The full array of a TT tensor, shape dims, or the matrix of a TT
    operator, rows by columns."""
    cur = np.ones((1, 1))
    for b in t.blocks:
        cur = (cur @ b.reshape(b.shape[0], -1)).reshape(-1, b.shape[-1])
    if isinstance(t, TTMatrix):
        d = t.d
        cur = cur.reshape(sum((b.shape[1:3] for b in t.blocks), ()))
        cur = cur.transpose(*range(0, 2 * d, 2), *range(1, 2 * d, 2))
        return cur.reshape(math.prod(t.row_dims), math.prod(t.col_dims))
    return cur.reshape(t.dims)


def unfuse(t: TTTensor, row_dims, col_dims) -> TTMatrix:
    """The operator whose block k is t's with its mode split (row, col)."""
    return TTMatrix([b.reshape(b.shape[0], row_dims[k], col_dims[k], b.shape[-1])
                     for k, b in enumerate(t.blocks)])


def identity(dims) -> TTMatrix:
    """The identity operator on dims, of rank 1."""
    return TTMatrix([np.eye(n).reshape(1, n, n, 1) for n in dims])


def from_full(array, delta) -> TTTensor:
    """TT-SVD of a full array: d - 1 sequential truncated SVDs, each with the
    share delta / sqrt(d - 1) of the relative error."""
    array = np.asarray(array, dtype=float)
    dims = array.shape
    budget = delta * np.linalg.norm(array) / math.sqrt(max(len(dims) - 1, 1))
    blocks, cur = [], array.reshape(1, -1)
    for n in dims[:-1]:
        u, s, vt = np.linalg.svd(cur.reshape(cur.shape[0] * n, -1), full_matrices=False)
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]   # tail[k]: error of keeping k
        keep = max(1, int(np.sum(tail > budget)))
        blocks.append(u[:, :keep].reshape(-1, n, keep))
        cur = s[:keep, None] * vt[:keep]
    blocks.append(cur.reshape(-1, dims[-1], 1))
    return TTTensor(blocks)


def weighted_block(blk, test, trial):
    """Block (r0, q, r1) met along its node mode q by test[q, i] trial[q, j]:
    an operator block (r0, i, j, r1)."""
    out = np.tensordot(blk, test[:, :, None] * trial[:, None, :], axes=(1, 0))
    return out.transpose(0, 2, 3, 1)


def field_sum(fields, test, trial, dtrial) -> TTMatrix:
    """The exact sum over the flag fields (g, h) of their rank-2 flag
    chains, each weighted one dimension at a time (test x trial for g,
    test x dtrial for h) and summed pairwise by tt_add."""
    return functools.reduce(tt_add, [TTMatrix(flag_chain(
        [weighted_block(gk.reshape(1, -1, 1), test, trial) for gk in g],
        [weighted_block(hk.reshape(1, -1, 1), test, dtrial) for hk in h]))
        for g, h in fields])
