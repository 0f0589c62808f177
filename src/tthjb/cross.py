"""TT-Cross of entrywise maps of TT tensors, with maxvol pivoting.

tt_cross(t, func, acc) approximates func(t), the map func applied to each
entry of the TT tensor t.  The cross iteration alternates left-to-right and
right-to-left passes over the dimensions, keeping nested index sets whose
intersection matrices are kept well conditioned by maxvol.  Blocks are
assembled in interpolation form ``F * inv(F[selected rows])`` computed
through a QR factorization.  The entries of t on a fibre come from
interface products of its blocks, never from point-by-point evaluation.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .tt import Accuracy, TTTensor, _capacity, _svd, tt_norm

__all__ = ["CrossIndexSets", "CrossResult", "maxvol", "tt_cross", "rank_adapt",
           "random_index_sets"]

log = logging.getLogger(__name__)

_MAX_SWEEPS = 20       # sweeps before a cross stops unconverged
_MAXVOL_TOL = 5e-2     # maxvol stops once no entry of F inv(F[rows]) exceeds 1 + this
_MAXVOL_ITERS = 500    # row swaps before maxvol stops regardless
_RANK_STEP = 2         # rows added to each right set by one rank adaptation


def _fibres(t: TTTensor, func, left_rows: np.ndarray, k: int,
            right_rows: np.ndarray) -> np.ndarray:
    """func(t) on left rows x {0..n_k-1} x right rows, flattened row-major.

    Fibres come from interface products instead of point-by-point
    evaluation: the left rows pushed through blocks 0..k-1, the right rows
    through blocks k+1..d-1, and two GEMMs with block k in between.
    """
    blocks = t.blocks
    rl, rr = left_rows.shape[0], right_rows.shape[0]
    left = np.ones((rl, 1, 1))                                     # row, 1, r_j
    for j in range(k):
        left = left @ blocks[j][:, left_rows[:, j], :].transpose(1, 0, 2)
    right = np.ones((rr, 1, 1))                                    # row, r_j, 1
    for j in range(t.d - 1, k, -1):
        right = blocks[j][:, right_rows[:, j - k - 1], :].transpose(1, 0, 2) @ right
    left, right = left[:, 0, :], right[:, :, 0].T
    r0, m, r1 = blocks[k].shape
    mid = (left @ blocks[k].reshape(r0, m * r1)).reshape(rl * m, r1)
    return np.asarray(func((mid @ right).reshape(-1)), dtype=float)


@dataclass(frozen=True)
class CrossIndexSets:
    """Right partial multi-index sets for a d-dimensional grid.

    ``right[k]`` has shape (R_{k+1}, d-k-1) for k = 0..d-2; the left sets
    are rebuilt from them by every forward pass.
    """

    dims: tuple
    right: tuple


def random_index_sets(dims, rank: int, rng) -> CrossIndexSets:
    """Uniform random distinct right sets at the given rank: empty sets
    grown to it."""
    dims = tuple(int(n) for n in dims)
    empty = [np.zeros((0, len(dims) - k - 1), dtype=int) for k in range(len(dims) - 1)]
    return _grow(dims, empty, [rank] * len(empty), rng)


def _grow(dims: tuple, right, targets, rng) -> CrossIndexSets:
    """The right sets grown to the target row counts, each capped by the
    capacity of its interface, by distinct random rows drawn set by set
    from k = 0; then cut to the nestedness-compatible chain
    R_k <= R_{k-1} m_k, left to right, and R_k <= R_{k+1} m_{k+1}, right to
    left."""
    d, cap = len(dims), _capacity(dims)
    grown = []
    for k, (rows, target) in enumerate(zip(right, targets)):
        target = min(target, cap[k + 1])
        if target > rows.shape[0]:
            extra = _distinct_rows(dims[k + 1 :], target - rows.shape[0], rng, rows)
            rows = np.vstack([rows, extra])
        grown.append(rows)
    for k in range(d - 1):
        grown[k] = grown[k][: (grown[k - 1].shape[0] if k > 0 else 1) * dims[k]]
    for k in range(d - 2, -1, -1):
        grown[k] = grown[k][: (grown[k + 1].shape[0] if k < d - 2 else 1) * dims[k + 1]]
    return CrossIndexSets(dims=dims, right=tuple(grown))


def _distinct_rows(dims, count, rng, existing):
    """count distinct random multi-indices over dims, avoiding existing rows."""
    seen = set(map(tuple, existing))
    rows = []
    attempts = 0
    while len(rows) < count:
        cand = tuple(int(rng.integers(0, n)) for n in dims)
        attempts += 1
        if cand not in seen:
            seen.add(cand)
            rows.append(cand)
        if attempts > 1000 * max(count, 1):
            raise RuntimeError("could not sample enough distinct multi-indices")
    return np.array(rows, dtype=int).reshape(count, len(dims))


def maxvol(F: np.ndarray) -> np.ndarray:
    """Rows of a dominant (locally maximum-volume) square submatrix of F.

    On exit every entry of F @ inv(F[rows]) has magnitude <= 1 + _MAXVOL_TOL,
    unless _MAXVOL_ITERS swaps ran out first.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise ValueError("F must be a matrix")
    nrows, r = F.shape
    if nrows < r:
        raise ValueError(f"need at least {r} rows, got {nrows}")
    # pivoted QR detects rank deficiency before any inversion happens
    _, rq, _ = scipy.linalg.qr(F, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rq))
    if diag[0] == 0.0 or diag[-1] < 1e-12 * diag[0]:
        raise ValueError("maxvol requires a full-column-rank matrix")
    _, piv = scipy.linalg.lu_factor(F, check_finite=False)
    perm = np.arange(nrows)
    for i, p in enumerate(piv[:r]):
        perm[i], perm[p] = perm[p], perm[i]
    rows = perm[:r].copy()
    B = F @ np.linalg.inv(F[rows])
    for _ in range(_MAXVOL_ITERS):
        flat = np.argmax(np.abs(B))
        i, j = np.unravel_index(flat, B.shape)
        if abs(B[i, j]) <= 1.0 + _MAXVOL_TOL:
            break
        # swap row rows[j] <- i with a rank-1 update of B
        ej = np.zeros(r)
        ej[j] = 1.0
        B = B - np.outer(B[:, j], (B[i, :] - ej) / B[i, j])
        rows[j] = i
    return np.sort(rows)


@dataclass
class CrossResult:
    tensor: TTTensor
    index_sets: CrossIndexSets
    n_evals: int
    sweeps: int
    converged: bool


def rank_adapt(state: CrossIndexSets, error_estimate: float, acc: Accuracy, rng):
    """Grow every right index set by _RANK_STEP rows when the sweep-to-sweep
    change exceeds delta.

    Returns the new state; ranks never exceed acc.max_rank nor the
    combinatorial capacity of the grid.
    """
    if error_estimate <= acc.delta:
        return state
    targets = [rows.shape[0] + _RANK_STEP for rows in state.right]
    if acc.max_rank is not None:
        targets = [min(t, acc.max_rank) for t in targets]
    return _grow(state.dims, state.right, targets, rng)


def _trimmed_basis(F: np.ndarray, delta: float) -> np.ndarray:
    """Orthonormal column basis of F trimmed to its numerical rank.

    Keeping exactly-zero directions would inject arbitrary noise into the
    interpolant, which stalls convergence and inflates ranks, so singular
    values below a small fraction of the truncation target are dropped.
    """
    u, s, _ = _svd(F)
    tol = max(1e-14, 1e-2 * delta) * (s[0] if s[0] > 0 else 1.0)
    keep = max(int(np.sum(s > tol)), 1)
    return u[:, :keep]


def _forward_pass(fibres, dims, right_sets, delta: float):
    """Left-to-right pass: assemble interpolation cores, refresh left sets."""
    d = len(dims)
    cores = []
    left_sets = []
    left_rows = np.zeros((1, 0), dtype=int)
    for k in range(d):
        right_rows = right_sets[k] if k < d - 1 else np.zeros((1, 0), dtype=int)
        F = fibres(left_rows, k, right_rows).reshape(-1, right_rows.shape[0])
        rl = left_rows.shape[0]
        if k == d - 1:
            cores.append(F.reshape(rl, dims[k], 1))
            break
        q = _trimmed_basis(F, delta)
        sel = maxvol(q)
        core = q @ np.linalg.inv(q[sel])
        cores.append(core.reshape(rl, dims[k], q.shape[1]))
        # rows of F enumerate (left, i_k) pairs in row-major order
        left_rows = np.column_stack([left_rows[sel // dims[k]], sel % dims[k]])
        left_sets.append(left_rows)
    return cores, left_sets


def _backward_pass(fibres, dims, left_sets, delta: float):
    """Right-to-left pass refreshing the right index sets."""
    d = len(dims)
    new_right = [None] * (d - 1)
    right_rows = np.zeros((1, 0), dtype=int)
    for k in range(d - 1, 0, -1):
        left_rows = left_sets[k - 1]
        rr = right_rows.shape[0]
        F = fibres(left_rows, k, right_rows).reshape(left_rows.shape[0], dims[k] * rr)
        q = _trimmed_basis(F.T, delta)
        sel = maxvol(q)
        # columns of F enumerate (i_k, right) pairs in row-major order
        right_rows = np.column_stack([sel // rr, right_rows[sel % rr]])
        new_right[k - 1] = right_rows
    return tuple(new_right)


def tt_cross(t: TTTensor, func, acc: Accuracy, initial: CrossIndexSets | None = None,
             seed: int = 0) -> CrossResult:
    """TT-Cross of func(t), the entrywise map of t, with maxvol pivot
    selection and rank adaptation.

    One sweep is a full left-to-right pass (which also assembles the TT
    blocks from the inverted intersection matrices) followed by a
    right-to-left pass.  Convergence is declared when the relative change of
    the assembled iterate drops below acc.delta; a cross still unconverged
    after _MAX_SWEEPS sweeps logs a warning.  Without ``initial`` the index
    sets start at random at rank min(t.max_rank + 2, 10).  Values are
    requested fibre by fibre, and the evaluations of this call are counted
    from the fibre blocks' sizes.
    """
    rng = np.random.default_rng(seed)
    dims = t.dims
    state = (initial if initial is not None
             else random_index_sets(dims, min(t.max_rank + 2, 10), rng))
    if state.dims != dims:
        raise ValueError("initial index sets built for a different grid")
    n_evals = 0

    def fibres(left_rows, k, right_rows):
        nonlocal n_evals
        vals = _fibres(t, func, left_rows, k, right_rows)
        n_evals += vals.size
        return vals

    prev = None
    tensor = None
    converged = False
    sweeps = 0
    for sweep in range(_MAX_SWEEPS):
        sweeps = sweep + 1
        cores, left_sets = _forward_pass(fibres, dims, state.right, acc.delta)
        tensor = TTTensor(cores)
        change = None
        if prev is not None:
            denom = max(tt_norm(tensor), 1e-300)
            change = tt_norm(tensor - prev) / denom
            if change <= acc.delta:
                converged = True
                break
        state = replace(state, right=_backward_pass(fibres, dims, left_sets, acc.delta))
        # expansion must come after the backward pass: the maxvol reselection
        # sizes right sets by the left ranks, so earlier growth would be lost
        state = rank_adapt(state, np.inf if change is None else change, acc, rng)
        prev = tensor
    if not converged:
        log.warning("TT-cross stopped unconverged after %d sweeps (%d evaluations, rank %d)",
                    sweeps, n_evals, tensor.max_rank)
    return CrossResult(tensor=tensor, index_sets=state, n_evals=n_evals, sweeps=sweeps,
                       converged=converged)

