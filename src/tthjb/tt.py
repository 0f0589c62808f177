"""Tensor-train tensors and operators.

A d-way tensor is stored as a chain of 3-way blocks, block k shaped
``(r_{k-1}, n_k, r_k)`` with boundary ranks ``r_0 = r_d = 1``.  Operators use
4-way blocks ``(R_{k-1}, n_k, n'_k, R_k)`` with paired row/column indices.
All values are immutable by convention: every operation returns new block
lists, so tensors can be shared freely across threads.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf as _dgeqrf, dgesdd as _dgesdd, dorgqr as _dorgqr

__all__ = [
    "Accuracy",
    "TTTensor",
    "TTMatrix",
    "tt_round",
    "tt_add",
    "tt_scale",
    "tt_matvec",
    "tt_dot",
    "tt_norm",
    "tt_hadamard",
    "orthogonalize_right",
    "flag_chain",
    "quadratic_to_tt",
    "linear_to_tt",
    "save_tt",
    "load_tt",
]

_MAGIC = b"TTHJB1"
# oversampling p of a randomized sketch; _sketch_round grows a rank within p
_OVERSAMPLE = 5


@dataclass(frozen=True)
class Accuracy:
    """Relative truncation/stopping threshold plus an optional hard rank cap."""

    delta: float = 1e-12
    max_rank: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        rank = self.max_rank
        if rank is not None and (not isinstance(rank, numbers.Integral)
                                 or isinstance(rank, bool) or rank < 1):
            raise ValueError(f"max_rank must be None or an integer >= 1, got {rank!r}")


def _chop(s: np.ndarray, budget: float, max_rank: int | None) -> int:
    """Smallest kept rank whose discarded singular-value tail is <= budget.

    The tail is summed in Python floats from the smallest value up, in the
    order of a cumulative sum; at these lengths numpy's temporaries cost
    several times the loop.
    """
    discard, tail = 0, 0.0
    for x in reversed(s.tolist()):
        tail += x * x
        if math.sqrt(tail) > budget:
            break
        discard += 1
    keep = max(1, len(s) - discard)
    if max_rank is not None:
        keep = min(keep, max_rank)
    return keep


def _check(info: int, routine: str, shape) -> None:
    if info:
        raise np.linalg.LinAlgError(f"{routine} failed (info {info}) on a matrix of shape {shape}")


@functools.cache
def _upper(k: int, n: int) -> np.ndarray:
    """Mask of the upper triangle of a (k, n) matrix."""
    return ~np.tri(k, n, -1, dtype=bool)


def _qr(a: np.ndarray, mode: str = "qr"):
    """Reduced QR of a matrix by LAPACK (dgeqrf, then dorgqr for Q).

    With k = min(m, n), Q is (m, k) with orthonormal columns and R is (k, n),
    exactly zero below its diagonal.  mode "qr" returns (Q, R), "q" Q alone
    and "r" R alone; a factor not asked for is never formed.  Called
    directly, LAPACK costs half of np.linalg.qr at the ranks of a sweep.
    """
    k = min(a.shape)
    qr, tau, _, info = _dgeqrf(a)
    _check(info, "dgeqrf", a.shape)
    if mode != "q":
        r = np.where(_upper(k, a.shape[1]), qr[:k], 0.0)
        if mode == "r":
            return r
    q, _, info = _dorgqr(qr[:, :k], tau, overwrite_a=1)
    _check(info, "dorgqr", a.shape)
    return q if mode == "q" else (q, r)


def _svd(mat: np.ndarray):
    """Reduced SVD by LAPACK's dgesdd, retried on the transposed unfolding;
    failure here must not pass silently."""
    u, s, vt, info = _dgesdd(mat, full_matrices=0)
    if not info:
        return u, s, vt
    u, s, vt, info = _dgesdd(mat.T, full_matrices=0)
    _check(info, "dgesdd", mat.shape)
    return vt.T, s, u.T


class _Chain:
    """Chain of blocks whose first and last axes are the TT ranks: 3-way
    blocks for a tensor, 4-way for an operator.  Rank-axis arithmetic (add,
    scale, round) reads only those two axes, so it serves both."""

    __slots__ = ("blocks",)
    _ndim = 0

    def __init__(self, blocks):
        blocks = tuple(np.asarray(b, dtype=float) for b in blocks)
        if not blocks:
            raise ValueError(f"{type(self).__name__} needs at least one block")
        for k, b in enumerate(blocks):
            if b.ndim != self._ndim:
                raise ValueError(f"block {k} must be {self._ndim}-way, got shape {b.shape}")
            if min(b.shape[1:-1]) < 1:
                raise ValueError(f"block {k} has empty mode")
            if k + 1 < len(blocks) and b.shape[-1] != blocks[k + 1].shape[0]:
                raise ValueError(
                    f"rank mismatch between blocks {k} and {k + 1}: "
                    f"{b.shape[-1]} != {blocks[k + 1].shape[0]}"
                )
        if blocks[0].shape[0] != 1 or blocks[-1].shape[-1] != 1:
            raise ValueError("boundary ranks must be 1")
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def d(self) -> int:
        return len(self.blocks)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(b.shape[-1] for b in self.blocks)

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

    @property
    def _modes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b.shape[1:-1] for b in self.blocks)

    def __add__(self, other):
        return tt_add(self, other)

    def __mul__(self, c):
        return tt_scale(self, c)

    __rmul__ = __mul__


class TTTensor(_Chain):
    """d-dimensional tensor in TT format."""

    __slots__ = ()
    _ndim = 3

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.shape[1] for b in self.blocks)

    @classmethod
    def zeros(cls, dims) -> "TTTensor":
        # all-rank-1 zero blocks, not empty blocks: arithmetic needs no special case
        return cls([np.zeros((1, n, 1)) for n in dims])

    @classmethod
    def rank_one(cls, factors) -> "TTTensor":
        return cls([np.asarray(f, dtype=float).reshape(1, -1, 1) for f in factors])

    @classmethod
    def random(cls, dims, ranks, rng=None) -> "TTTensor":
        rng = np.random.default_rng(rng)
        ranks = list(ranks)
        if len(ranks) != len(dims) + 1 or ranks[0] != 1 or ranks[-1] != 1:
            raise ValueError("ranks must have length d+1 with unit boundaries")
        return cls(
            [
                rng.standard_normal((ranks[k], n, ranks[k + 1]))
                for k, n in enumerate(dims)
            ]
        )

    def eval(self, indices: np.ndarray) -> np.ndarray:
        """Entries at a batch of multi-indices, shape (N, d) -> (N,)."""
        indices = np.atleast_2d(np.asarray(indices, dtype=int))
        if indices.shape[1] != self.d:
            raise ValueError("index batch has wrong dimensionality")
        cur = np.ones((indices.shape[0], 1, 1))
        for k, b in enumerate(self.blocks):
            cur = cur @ b[:, indices[:, k], :].transpose(1, 0, 2)
        return cur[:, 0, 0]

    def __sub__(self, other):
        return tt_add(self, tt_scale(other, -1.0))

    def __repr__(self):
        return f"TTTensor(dims={self.dims}, ranks={self.ranks})"


class TTMatrix(_Chain):
    """Operator in matrix-TT format with paired row/column indices."""

    __slots__ = ()
    _ndim = 4

    @property
    def row_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[1] for b in self.blocks)

    @property
    def col_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[2] for b in self.blocks)

    def __repr__(self):
        return (
            f"TTMatrix(row_dims={self.row_dims}, col_dims={self.col_dims}, "
            f"ranks={self.ranks})"
        )


def tt_add(a: _Chain, b: _Chain) -> _Chain:
    """Exact sum of two tensors or two operators; interior ranks add.  Block
    k is diag(a_k, b_k); blocks 0 and d-1 sum their two unit boundary states."""
    if a._modes != b._modes:
        raise ValueError(f"mode mismatch: {a!r} vs {b!r}")
    blocks = []
    for ab, bb in zip(a.blocks, b.blocks):
        ra0, ra1 = ab.shape[0], ab.shape[-1]
        blk = np.zeros((ra0 + bb.shape[0], *ab.shape[1:-1], ra1 + bb.shape[-1]))
        blk[:ra0, ..., :ra1] = ab
        blk[ra0:, ..., ra1:] = bb
        blocks.append(blk)
    blocks[0] = blocks[0].sum(axis=0, keepdims=True)
    blocks[-1] = blocks[-1].sum(axis=-1, keepdims=True)
    return type(a)(blocks)


def tt_scale(a: _Chain, c: float) -> _Chain:
    blocks = list(a.blocks)
    blocks[0] = blocks[0] * float(c)
    return type(a)(blocks)


def tt_dot(a: _Chain, b: _Chain) -> float:
    if a._modes != b._modes:
        raise ValueError(f"mode mismatch: {a!r} vs {b!r}")
    cur = np.ones((1, 1))
    for ab, bb in zip(a.blocks, b.blocks):
        p, r = cur.shape[0], ab.shape[-1]
        cur = (cur.T @ ab.reshape(p, -1)).reshape(-1, r).T @ bb.reshape(-1, bb.shape[-1])
    return float(cur[0, 0])


def tt_norm(a: _Chain) -> float:
    """2-norm of block 0 after right-orthogonalization: policy_iterate and
    tt_cross stop on near-equal differences.

    The sweep is orthogonalize_right's, but the norm needs only the R
    factors, so no Q factor is formed.
    """
    carry = a.blocks[-1]
    for blk in a.blocks[-2::-1]:
        rm = _qr(carry.reshape(carry.shape[0], -1).T, "r")
        carry = _carry_right(blk, rm.T)
    return float(np.linalg.norm(carry))


def tt_matvec(A: TTMatrix, v: TTTensor) -> TTTensor:
    if A.col_dims != v.dims:
        raise ValueError(f"dimension mismatch: {A.col_dims} vs {v.dims}")
    blocks = []
    for ab, vb in zip(A.blocks, v.blocks):
        R0, n, m, R1 = ab.shape
        r0, _, r1 = vb.shape
        blk = ab.transpose(0, 1, 3, 2).reshape(-1, m) @ vb.transpose(1, 0, 2).reshape(m, -1)
        blk = blk.reshape(R0, n, R1, r0, r1).transpose(0, 3, 1, 2, 4)
        blocks.append(blk.reshape(R0 * r0, n, R1 * r1))
    return TTTensor(blocks)


def tt_hadamard(a: TTTensor, b: TTTensor) -> TTTensor:
    """Exact entrywise product; ranks multiply."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    blocks = []
    for ab, bb in zip(a.blocks, b.blocks):
        ra0, n, ra1 = ab.shape
        rb0, _, rb1 = bb.shape
        blk = ab[:, None, :, :, None] * bb[None, :, :, None, :]
        blocks.append(blk.reshape(ra0 * rb0, n, ra1 * rb1))
    return TTTensor(blocks)


def _carry_left(m: np.ndarray, blk: np.ndarray) -> np.ndarray:
    """m (s, r) times block (r, ..., r') along its left rank: (s, ..., r')."""
    return (m @ blk.reshape(blk.shape[0], -1)).reshape(m.shape[0], *blk.shape[1:])


def _carry_right(blk: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Block (r, ..., r') times m (r', s) along its right rank: (r, ..., s)."""
    return (blk.reshape(-1, blk.shape[-1]) @ m).reshape(*blk.shape[:-1], m.shape[1])


def orthogonalize_right(t: _Chain) -> _Chain:
    """Make blocks 1..d-1 right-orthonormal without changing the chain."""
    blocks = list(t.blocks)
    for k in range(t.d - 1, 0, -1):
        q, rm = _qr(blocks[k].reshape(blocks[k].shape[0], -1).T)
        blocks[k] = q.T.reshape(q.shape[1], *blocks[k].shape[1:])
        blocks[k - 1] = _carry_right(blocks[k - 1], rm.T)
    return type(t)(blocks)


def tt_round(t: _Chain, acc: Accuracy) -> _Chain:
    """Truncate TT ranks to the relative tolerance acc.delta in the 2-norm."""
    return _svd_sweep(orthogonalize_right(t), acc)


def _svd_sweep(t: _Chain, acc: Accuracy) -> _Chain:
    """tt_round's SVD sweep, left to right, over a chain whose blocks 1..d-1
    are right-orthonormal, so block 0 carries its norm."""
    nrm = np.linalg.norm(t.blocks[0])
    budget = acc.delta * nrm / np.sqrt(max(t.d - 1, 1))
    blocks = list(t.blocks)
    for k in range(t.d - 1):
        u, s, vt = _svd(blocks[k].reshape(-1, blocks[k].shape[-1]))
        rk = _chop(s, budget, acc.max_rank)
        blocks[k] = u[:, :rk].reshape(*blocks[k].shape[:-1], rk)
        blocks[k + 1] = _carry_left(s[:rk, None] * vt[:rk], blocks[k + 1])
    # never exceed the input ranks: exact nullspaces aside, _chop keeps rk <= r1
    return type(t)(blocks)


def _round_sketch(s: _Chain, acc: Accuracy) -> _Chain:
    """round(s, acc) for a _sketch output, whose blocks 0..d-2 are already
    left-orthonormal: the SVD sweep alone, run from the last block.

    Read backwards, each block's rank axes swapped, s is right-orthonormal.
    The flip is read as views (a copy would hold a second sketch); the result
    is copied back to C-contiguous blocks, as tt_round returns, so that later
    reshapes stay views.
    """
    def flip(blocks):
        return [b.transpose(-1, *range(1, b.ndim - 1), 0) for b in reversed(blocks)]

    r = _svd_sweep(type(s)(flip(s.blocks)), acc)
    return type(s)([np.ascontiguousarray(b) for b in flip(r.blocks)])


def _tt_term(t: _Chain):
    """The sketch maps (right, left) of a TT tensor or operator, from its
    blocks; an operator's mode is its (row, col) pair."""

    def right(k, w, g):
        blk = t.blocks[k]
        sketch = (blk.reshape(-1, blk.shape[-1]) @ w).reshape(blk.shape[0], -1)
        return sketch @ g.reshape(-1, g.shape[2])

    def left(k, f):
        blk = t.blocks[k]
        return (f @ blk.reshape(blk.shape[0], -1)).reshape(-1, blk.shape[-1])

    return right, left


def _product_term(x: TTTensor, y: list, ws: list):
    """The sketch maps (right, left) of the TT whose block k is
    sum_q w_k[q, i] x_k[a, q, b] y_k[c, q, j, e], from x's blocks, the 4-way
    blocks y and the matrices ws (m_k, n_k); no block of the product is
    formed.  Its fused mode is (i, j), its rank index (a, c).

    The penalty gamma P(u * u) is x = gamma u, y = u with a unit j axis and
    w = proj; the coupling 2 gamma wphi^T diag(u) bmap is x = 2 gamma u,
    y = bmap and w = wphi; A v is x = v, y = A with its columns as q and its
    rows as j, and w a column of ones.
    """

    def right(k, w, g):
        (a, m, b), (c, _, nj, e), ni = x.blocks[k].shape, y[k].shape, ws[k].shape[1]
        l1, l0 = g.shape[1:]
        t = (x.blocks[k].reshape(a * m, b) @ w.reshape(b, e * l1)).reshape(a, m, e, l1)
        t = t.transpose(1, 2, 0, 3).reshape(m, e, a * l1)
        t = y[k].transpose(1, 0, 2, 3).reshape(m, c * nj, e) @ t              # (q, c j, a t)
        t = (ws[k].T @ t.reshape(m, -1)).reshape(ni, c, nj, a, l1)             # (i, c, j, a, t)
        return t.transpose(3, 1, 0, 2, 4).reshape(a * c, -1) @ g.reshape(-1, l0)

    def left(k, f):
        (a, m, b), (c, _, nj, e), ni = x.blocks[k].shape, y[k].shape, ws[k].shape[1]
        s = f.shape[0]
        t = f.reshape(s, a, c).transpose(0, 2, 1).reshape(s * c, a) @ x.blocks[k].reshape(a, m * b)
        t = t.reshape(s, c, m, b).transpose(2, 0, 3, 1).reshape(m, s * b, c)
        t = t @ y[k].transpose(1, 0, 2, 3).reshape(m, c, nj * e)               # (q, s b, j e)
        t = (ws[k].T @ t.reshape(m, -1)).reshape(ni, s, b, nj, e)              # (i, s, b, j, e)
        return t.transpose(1, 0, 3, 2, 4).reshape(-1, b * e)

    return right, left


def _sketch(terms, like: _Chain, ell: list, rng) -> _Chain:
    """Left-orthonormal chain of ranks ell in the modes of like, whose range
    holds that of the sum of the terms, by randomize-then-orthogonalize (Al
    Daas et al., SIAM J. Sci. Comput. 2023); its last block is the sum met by
    the left frames.

    A term is a pair of maps of its blocks, which need never be formed
    (_tt_term of a TT chain, _product_term of a product): right(k, w, g)
    meets block k by the term's right sketch w (r_{k+1}, l_{k+1}) and the
    Gaussian g (n_k, l_{k+1}, l_k), giving (r_k, l_k); left(k, f) meets it by
    the term's left frame f (s, r_k), giving (s n_k, r_{k+1}), with n_k
    like's fused mode size.  The sum's rank index is the terms' in turn.
    """
    d, modes = like.d, like._modes
    right = [None] * d + [[np.ones((1, 1))] * len(terms)]
    for k in range(d - 1, 0, -1):
        g = rng.standard_normal((math.prod(modes[k]), ell[k + 1], ell[k]))
        sketch = [r(k, w, g) for (r, _), w in zip(terms, right[k + 1])]
        # a common scale keeps d products of Gaussian blocks in range
        scale = max(math.hypot(*(np.linalg.norm(w) for w in sketch)), np.finfo(float).tiny)
        right[k] = [w / scale for w in sketch]
    frames = [np.ones((1, 1))] * len(terms)
    blocks = []
    for k in range(d):
        cores = [left(k, f) for (_, left), f in zip(terms, frames)]
        if k == d - 1:
            blocks.append(sum(cores).reshape(-1, *modes[k], 1))
            break
        q = _qr(sum(c @ w for c, w in zip(cores, right[k + 1])), "q")
        blocks.append(q.reshape(-1, *modes[k], q.shape[1]))
        frames = [q.T @ c for c in cores]
    return type(like)(blocks)


def _sketch_round(terms, like: _Chain, ell: list, cap: list, acc: Accuracy,
                  seed: int) -> _Chain:
    """round(sum of the terms, acc): a _sketch at ranks ell, rounded on its
    own frames (_round_sketch).  Where the rounded rank comes within
    _OVERSAMPLE of ell, ell doubles, up to cap, and the sum is sketched
    again, so ell = cap is one pass.  The Gaussian draws come from seed."""
    ell = list(ell)
    rng = np.random.default_rng(seed)
    while True:
        # rounded as it comes: a name held on the sketch keeps its blocks
        # through the round, 5 MB more peak on Fokker-Planck d=10
        t = _round_sketch(_sketch(terms, like, ell, rng), acc)
        grow = [k for k in range(1, like.d)
                if t.ranks[k] > ell[k] - _OVERSAMPLE and ell[k] < cap[k]]
        if not grow:
            return t
        for k in grow:
            ell[k] = min(2 * ell[k], cap[k])


def flag_chain(G: list, H: list) -> list:
    """Blocks of sum_k G_0 x .. x H_k x .. x G_{d-1} from per-dimension
    blocks whose ranks are the first and last axes (TTTensor or TTMatrix
    blocks alike).

    The chain carries a single flag for whether the H factor has been spent,
    giving blocks [[G, H], [0, G]] instead of a d-term sum; ranks only double.
    Block 0 keeps its unflagged row and block d-1 its flagged column.
    """
    blocks = []
    for g, h in zip(G, H):
        r0, r1 = g.shape[0], g.shape[-1]
        blk = np.zeros((2 * r0, *g.shape[1:-1], 2 * r1))
        blk[:r0, ..., :r1] = g
        blk[:r0, ..., r1:] = h
        blk[r0:, ..., r1:] = g
        blocks.append(blk)
    blocks[0] = blocks[0][:1]
    blocks[-1] = np.ascontiguousarray(blocks[-1][..., -1:])
    return blocks


def linear_to_tt(c, grids) -> TTTensor:
    """Exact TT tensor of the linear form sum_p c_p x_p on a tensor grid:
    the flag chain of 1 and c_k x_k."""
    c = np.asarray(c, dtype=float).reshape(-1)
    if len(grids) != c.size:
        raise ValueError("need one grid per dimension")
    x = [np.asarray(g, dtype=float).reshape(1, -1, 1) for g in grids]
    return TTTensor(flag_chain([np.ones_like(g) for g in x], [ck * g for ck, g in zip(c, x)]))


def quadratic_to_tt(P: np.ndarray, grids) -> TTTensor:
    """Exact TT tensor of the quadratic form x^T P x sampled on a tensor grid.

    After compression the interior ranks are bounded by the ranks of the
    off-diagonal blocks of P plus two, hence by min(k, d-k) + 2.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("P must be square")
    if not np.allclose(P, P.T, atol=1e-12 * max(1.0, np.abs(P).max())):
        raise ValueError("P must be symmetric")
    d = P.shape[0]
    if len(grids) != d:
        raise ValueError("need one grid per dimension")
    blocks = []
    for k in range(d):     # states [1, x_0..x_{k-1}, s] to [1, x_0..x_k, s]
        g = np.asarray(grids[k], dtype=float)
        blk = np.zeros((k + 2, g.size, k + 3))
        blk[0, :, 0] = 1.0
        for j in range(k):
            blk[1 + j, :, 1 + j] = 1.0
        blk[0, :, k + 1] = g
        blk[k + 1, :, k + 2] = 1.0
        blk[0, :, k + 2] = P[k, k] * g * g
        for j in range(k):
            blk[1 + j, :, k + 2] = 2.0 * P[j, k] * g
        blocks.append(blk)
    blocks[0] = blocks[0][:1]             # from state 1 to state s
    blocks[-1] = np.ascontiguousarray(blocks[-1][..., -1:])
    return tt_round(TTTensor(blocks), Accuracy(1e-14))


def save_tt(t: TTTensor, path) -> None:
    """Binary serialization: magic, d, dims, ranks as int64 LE, then blocks."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC + np.array([t.d, *t.dims, *t.ranks], dtype="<i8").tobytes())
        for b in t.blocks:
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_tt(path) -> TTTensor:
    """The tensor save_tt wrote to path; a truncated file raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:len(_MAGIC)]
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    pos = len(_MAGIC)

    def take(count, dtype):
        nonlocal pos
        out = np.frombuffer(data, dtype, count, pos)   # ValueError past the end
        pos += 8 * count
        return out

    d = int(take(1, "<i8")[0])
    dims, ranks = take(d, "<i8").astype(int), take(d + 1, "<i8").astype(int)
    return TTTensor([take(ranks[k] * dims[k] * ranks[k + 1], "<f8")
                     .reshape(ranks[k], dims[k], ranks[k + 1]).copy() for k in range(d)])
