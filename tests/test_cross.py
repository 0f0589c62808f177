import itertools

import numpy as np
import pytest

from tthjb import cross, tt
from tthjb.cross import _fibres, maxvol, random_index_sets, rank_adapt, tt_cross
from tthjb.tt import Accuracy, TTTensor, linear_to_tt, quadratic_to_tt, tt_norm

from dense_oracle import full


def _all_indices(dims):
    return np.array(list(itertools.product(*[range(n) for n in dims])))


class TestMaxvol:
    def test_identity_extended(self):
        F = np.zeros((4, 2))
        F[0, 0] = F[1, 1] = 1.0
        sel = maxvol(F)
        assert set(sel) == {0, 1}

    def test_three_rows(self):
        F = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        sel = set(maxvol(F))
        assert 2 in sel
        best = max(abs(np.linalg.det(F[list(pair)]))
                   for pair in itertools.combinations(range(3), 2))
        assert np.isclose(abs(np.linalg.det(F[sorted(sel)])), best)

    def test_dominance_and_random_lower_bound(self, rng):
        F = rng.standard_normal((50, 5))
        sel = maxvol(F)
        C = F @ np.linalg.inv(F[sel])
        assert np.max(np.abs(C)) <= 1.0 + cross._MAXVOL_TOL + 1e-12
        vol = abs(np.linalg.det(F[sel]))
        for _ in range(1000):
            rows = rng.choice(50, size=5, replace=False)
            assert vol >= abs(np.linalg.det(F[rows])) - 1e-9


class TestCross:
    def test_separable_function(self):
        # exp(x_1 + .. + x_4) is a product of one-dimensional factors
        grid = [np.linspace(0.1, 1.0, 6)] * 4
        res = tt_cross(linear_to_tt(np.ones(4), grid), np.exp, Accuracy(1e-10))
        assert all(r == 1 for r in res.tensor.ranks[1:-1])
        idx = _all_indices((6,) * 4)
        pts = np.stack([grid[k][idx[:, k]] for k in range(4)], axis=1)
        want = np.exp(np.sum(pts, axis=1))
        assert np.max(np.abs(res.tensor.eval(idx) - want)) <= 1e-10

    def test_quadratic_matches_direct_construction(self, rng):
        # (c . x)^2 is the quadratic form of c c^T
        d = 5
        c = rng.standard_normal(d)
        grid = [np.linspace(-1, 1, 3)] * d
        direct = quadratic_to_tt(np.outer(c, c), grid)
        res = tt_cross(linear_to_tt(c, grid), np.square, Accuracy(1e-10))
        idx = rng.integers(0, 3, size=(200, d))
        assert np.allclose(res.tensor.eval(idx), direct.eval(idx), atol=1e-8)

    def test_generic_function_with_adaptation(self):
        # 1 / (1 + |x|^2) has no exact low-rank TT
        grid = [np.linspace(-1, 1, 8)] * 3
        res = tt_cross(quadratic_to_tt(np.eye(3), grid), lambda s: 1.0 / (1.0 + s),
                       Accuracy(1e-4))
        idx = _all_indices((8,) * 3)
        pts = np.stack([grid[k][idx[:, k]] for k in range(3)], axis=1)
        want = 1.0 / (1.0 + np.sum(pts**2, axis=1))
        err = np.linalg.norm(res.tensor.eval(idx) - want) / np.linalg.norm(want)
        assert err <= 1e-3

    def test_exact_recovery_of_low_rank_tensor(self, rng):
        t = TTTensor.random((5, 5, 5, 5), [1, 3, 3, 3, 1], rng)
        res = tt_cross(t, lambda s: s, Accuracy(1e-12), seed=1)
        assert tt_norm(res.tensor - t) <= 1e-10 * tt_norm(t)

    def test_determinism(self):
        t = quadratic_to_tt(np.eye(3), [np.linspace(-1, 1, 5)] * 3)

        def func(s):
            return 1.0 / (1.0 + s)

        a = tt_cross(t, func, Accuracy(1e-6), seed=7)
        b = tt_cross(t, func, Accuracy(1e-6), seed=7)
        assert a.tensor.ranks == b.tensor.ranks
        for x, y in zip(a.tensor.blocks, b.tensor.blocks):
            assert np.array_equal(x, y)

    def test_evaluation_counting(self, monkeypatch):
        # every value of every fibre block is one evaluation
        sizes = []

        def recorded(*args):
            vals = _fibres(*args)
            sizes.append(vals.size)
            return vals

        monkeypatch.setattr(cross, "_MAX_SWEEPS", 3)
        monkeypatch.setattr(cross, "_fibres", recorded)
        t = linear_to_tt(np.ones(3), [np.arange(4.0)] * 3)
        res = tt_cross(t, lambda s: s, Accuracy(1e-10))
        assert all(c > 0 for c in sizes)
        assert res.n_evals == sum(sizes)

    def test_counts_are_per_call(self, monkeypatch):
        # the counts belong to one cross, not to the tensor it samples
        monkeypatch.setattr(cross, "_MAX_SWEEPS", 2)
        t = linear_to_tt(np.ones(3), [np.arange(4.0)] * 3)
        first = tt_cross(t, lambda s: 1.0 / (1.0 + s), Accuracy(1e-10))
        second = tt_cross(t, lambda s: 1.0 / (1.0 + s), Accuracy(1e-10))
        assert second.n_evals == first.n_evals > 0
        assert second.sweeps == first.sweeps

    def test_mismatched_initial_sets(self, rng):
        t = linear_to_tt(np.ones(3), [np.arange(4.0)] * 3)
        bad = random_index_sets((5, 5, 5), 2, rng)
        with pytest.raises(ValueError):
            tt_cross(t, lambda s: s, Accuracy(1e-6), initial=bad)

    def test_unconverged_cross_warns(self, rng, caplog, monkeypatch):
        monkeypatch.setattr(cross, "_MAX_SWEEPS", 1)
        t = TTTensor.random((4, 5, 3, 6, 4), [1, 3, 4, 4, 3, 1], rng)
        with caplog.at_level("WARNING", logger="tthjb.cross"):
            res = tt_cross(t, np.tanh, Accuracy(1e-10))
        assert not res.converged
        assert "unconverged" in caplog.text


class TestRankAdapt:
    @pytest.mark.parametrize("dims, rank", [((4, 4, 4), 3), ((2, 3, 2, 5), 10),
                                            ((5,) * 6, 4), ((3, 1, 3), 2)])
    def test_random_sets_are_grown_empty_sets(self, dims, rank):
        # set k holds min(rank, capacity of interface k + 1) distinct rows,
        # drawn set by set in order, as an explicit draw from the same seed
        got = random_index_sets(dims, rank, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        cap = tt._capacity(dims)
        for k, rows in enumerate(got.right):
            want = cross._distinct_rows(dims[k + 1 :], min(rank, cap[k + 1]), rng,
                                        np.zeros((0, len(dims) - k - 1), dtype=int))
            assert np.array_equal(rows, want) and rows.dtype == want.dtype
            assert len(set(map(tuple, rows))) == len(rows)

    def test_growth_keeps_rows_and_nestedness(self, rng):
        dims = (2, 5, 5, 2)
        state = random_index_sets(dims, 1, rng)
        for _ in range(4):
            new = rank_adapt(state, 1.0, Accuracy(1e-6), rng)
            counts = [rows.shape[0] for rows in new.right]
            for k, (old, rows) in enumerate(zip(state.right, new.right)):
                # old rows stay first; a set grows by the step, up to its
                # interface's capacity
                assert np.array_equal(rows[: len(old)], old)
                assert len(old) <= len(rows) <= len(old) + cross._RANK_STEP
                assert len(rows) <= tt._capacity(dims)[k + 1]
            # the nestedness chain, both ways
            for k in range(len(dims) - 1):
                assert counts[k] <= (counts[k - 1] if k else 1) * dims[k]
                assert counts[k] <= (counts[k + 1] if k < len(dims) - 2 else 1) * dims[k + 1]
            state = new
        assert [rows.shape[0] for rows in state.right] == [2, 9, 2]

    def test_cut_to_the_nestedness_chain(self, rng):
        # a set above max_rank does not grow, and its neighbours' counts
        # times the mode sizes cut it: 7 rows > 2 * 3
        dims = (3, 3, 3, 3)
        rows = np.array([(i, j) for i in range(3) for j in range(3)][:7])
        state = cross.CrossIndexSets(dims=dims, right=(np.array([[0, 0, 0]]), rows,
                                                       np.array([[1]])))
        new = rank_adapt(state, 1.0, Accuracy(1e-6, max_rank=2), rng)
        assert [r.shape[0] for r in new.right] == [2, 6, 2]
        assert np.array_equal(new.right[1], rows[:6])

    def test_error_below_delta_keeps_ranks(self, rng):
        state = random_index_sets((4, 4, 4), 2, rng)
        new = rank_adapt(state, 1e-9, Accuracy(1e-6), rng)
        assert all(a.shape == b.shape for a, b in zip(new.right, state.right))

    def test_saturation_at_max_rank(self, rng):
        state = random_index_sets((4, 4, 4), 3, rng)
        new = rank_adapt(state, 1.0, Accuracy(1e-6, max_rank=3), rng)
        assert all(a.shape == b.shape for a, b in zip(new.right, state.right))

    def test_reaches_target_rank(self, rng, monkeypatch):
        # (c . x)^5 has ranks (1, 6, 6, 1) on 6 nodes; the cross of a rank-2
        # tensor starts at rank 2 + 2 = 4 and must grow past it
        c = rng.standard_normal(3)
        t = linear_to_tt(c, [np.linspace(-1, 1, 6)] * 3)
        monkeypatch.setattr(cross, "_MAX_SWEEPS", 1)
        first = tt_cross(t, lambda s: s**5, Accuracy(1e-10))
        assert first.tensor.ranks == (1, 4, 4, 1)
        monkeypatch.setattr(cross, "_MAX_SWEEPS", 4)
        res = tt_cross(t, lambda s: s**5, Accuracy(1e-10))
        assert res.converged and res.tensor.ranks == (1, 6, 6, 1)
        want = full(t) ** 5
        assert np.max(np.abs(full(res.tensor) - want)) <= 1e-10 * np.max(np.abs(want))


class TestFibres:
    """Fibres of an entrywise map of a TT tensor from interface products."""

    def test_fibres_match_dense_at_every_position(self, rng):
        dims = (4, 5, 3, 6, 4)
        t = TTTensor.random(dims, [1, 3, 4, 4, 3, 1], rng)
        dense = np.tanh(full(t))
        d = t.d
        for k in range(d):
            left = (rng.integers(0, np.array(dims[:k]), size=(7, k)) if k
                    else np.zeros((1, 0), dtype=int))
            right = (rng.integers(0, np.array(dims[k + 1:]), size=(5, d - k - 1))
                     if k < d - 1 else np.zeros((1, 0), dtype=int))
            got = _fibres(t, np.tanh, left, k, right)
            # left rows x {0..n_k-1} x right rows, row-major
            want = np.array([dense[tuple(lr) + (i,) + tuple(rr)]
                             for lr in left for i in range(dims[k]) for rr in right])
            assert got.shape == want.shape == (left.shape[0] * dims[k] * right.shape[0],)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
