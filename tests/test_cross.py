import itertools

import numpy as np
import pytest

from tthjb.cross import (
    GridFunction,
    TTMap,
    grid_function_from_pointwise,
    maxvol,
    random_index_sets,
    rank_adapt,
    tt_cross,
    tt_function_cross,
)
from tthjb.tt import Accuracy, TTTensor, quadratic_to_tt, tt_norm


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
        assert np.max(np.abs(C)) <= 1.0 + 5e-2 + 1e-12
        vol = abs(np.linalg.det(F[sel]))
        for _ in range(1000):
            rows = rng.choice(50, size=5, replace=False)
            assert vol >= abs(np.linalg.det(F[rows])) - 1e-9


class TestCross:
    def test_separable_function(self):
        grid = [np.linspace(0.1, 1.0, 6)] * 4
        res = tt_function_cross(
            lambda pts: np.prod(np.sin(pts), axis=1), grid, Accuracy(1e-10)
        )
        assert all(r == 1 for r in res.tensor.ranks[1:-1])
        idx = np.array(list(itertools.product(range(6), repeat=4)))
        pts = np.stack([grid[k][idx[:, k]] for k in range(4)], axis=1)
        want = np.prod(np.sin(pts), axis=1)
        assert np.max(np.abs(res.tensor.eval(idx) - want)) <= 1e-10

    def test_quadratic_matches_direct_construction(self, rng):
        d = 5
        P = rng.standard_normal((d, d))
        P = 0.5 * (P + P.T)
        grid = [np.linspace(-1, 1, 3)] * d
        direct = quadratic_to_tt(P, grid)
        res = tt_function_cross(
            lambda pts: np.einsum("ni,ij,nj->n", pts, P, pts), grid, Accuracy(1e-10)
        )
        idx = rng.integers(0, 3, size=(200, d))
        assert np.allclose(res.tensor.eval(idx), direct.eval(idx), atol=1e-8)

    def test_generic_function_with_adaptation(self, rng):
        grid = [np.linspace(-1, 1, 8)] * 3

        def func(pts):
            return np.exp(-np.sum(pts**2, axis=1)) + np.sin(pts[:, 0] * pts[:, 2])

        res = tt_function_cross(func, grid, Accuracy(1e-4))
        idx = np.array(list(itertools.product(range(8), repeat=3)))
        pts = np.stack([grid[k][idx[:, k]] for k in range(3)], axis=1)
        want = func(pts)
        err = np.linalg.norm(res.tensor.eval(idx) - want) / np.linalg.norm(want)
        assert err <= 1e-3

    def test_exact_recovery_of_low_rank_tensor(self, rng):
        t = TTTensor.random((5, 5, 5, 5), [1, 3, 3, 3, 1], rng)
        grid = [np.arange(5.0)] * 4
        f = GridFunction(evaluator=t.eval, grid=grid)
        res = tt_cross(f, Accuracy(1e-12), seed=1)
        assert tt_norm(res.tensor - t) <= 1e-10 * tt_norm(t)

    def test_determinism(self, rng):
        grid = [np.linspace(-1, 1, 5)] * 3

        def func(pts):
            return 1.0 / (1.0 + np.sum(pts**2, axis=1))

        a = tt_function_cross(func, grid, Accuracy(1e-6), seed=7)
        b = tt_function_cross(func, grid, Accuracy(1e-6), seed=7)
        assert a.tensor.ranks == b.tensor.ranks
        for x, y in zip(a.tensor.blocks, b.tensor.blocks):
            assert np.array_equal(x, y)

    def test_evaluation_counting(self):
        grid = [np.arange(4.0)] * 3
        f = grid_function_from_pointwise(lambda pts: np.sum(pts, axis=1), grid)
        res = tt_cross(f, Accuracy(1e-10), max_sweeps=3)
        assert res.n_evals == sum(res.per_sweep_evals)
        assert all(c > 0 for c in res.per_sweep_evals)

    def test_counts_are_per_call(self):
        # the counts belong to one cross, not to the function it samples
        grid = [np.arange(4.0)] * 3
        f = grid_function_from_pointwise(lambda pts: 1.0 / (1.0 + np.sum(pts, axis=1)), grid)
        first = tt_cross(f, Accuracy(1e-10), max_sweeps=2)
        second = tt_cross(f, Accuracy(1e-10), max_sweeps=2)
        assert second.n_evals == first.n_evals > 0
        assert second.per_sweep_evals == first.per_sweep_evals
        assert len(second.per_sweep_evals) == second.sweeps

    def test_mismatched_initial_sets(self, rng):
        grid = [np.arange(4.0)] * 3
        f = grid_function_from_pointwise(lambda pts: np.sum(pts, axis=1), grid)
        bad = random_index_sets((5, 5, 5), 2, rng)
        with pytest.raises(ValueError):
            tt_cross(f, Accuracy(1e-6), initial=bad)


class TestRankAdapt:
    def test_error_below_delta_keeps_ranks(self, rng):
        state = random_index_sets((4, 4, 4), 2, rng)
        new = rank_adapt(state, 1e-9, Accuracy(1e-6), rng)
        assert all(a.shape == b.shape for a, b in zip(new.right, state.right))

    def test_saturation_at_max_rank(self, rng):
        state = random_index_sets((4, 4, 4), 3, rng)
        new = rank_adapt(state, 1.0, Accuracy(1e-6, max_rank=3), rng)
        assert all(a.shape == b.shape for a, b in zip(new.right, state.right))

    def test_reaches_target_rank(self, rng):
        # rank-5 tensor approximated starting from rank 2
        t = TTTensor.random((6, 6, 6), [1, 5, 5, 1], rng)
        grid = [np.arange(6.0)] * 3
        f = GridFunction(evaluator=t.eval, grid=grid)
        res = tt_cross(f, Accuracy(1e-10), seed=0, max_sweeps=4, initial_rank=2)
        assert max(res.tensor.ranks) >= 5


class TestTTMap:
    """Fibres of an entrywise map of a TT tensor from interface products."""

    @staticmethod
    def _pair(rng, func=np.tanh):
        dims = (4, 5, 3, 6, 4)
        t = TTTensor.random(dims, [1, 3, 4, 4, 3, 1], rng)
        grid = [np.arange(float(n)) for n in dims]
        pointwise = GridFunction(evaluator=lambda idx: func(t.eval(idx)), grid=grid)
        return t, TTMap(t, func, grid), pointwise

    def test_fibres_match_pointwise_at_every_position(self, rng):
        t, fmap, pointwise = self._pair(rng)
        d = t.d
        for k in range(d):
            left = (rng.integers(0, np.array(t.dims[:k]), size=(7, k)) if k
                    else np.zeros((1, 0), dtype=int))
            right = (rng.integers(0, np.array(t.dims[k + 1:]), size=(5, d - k - 1))
                     if k < d - 1 else np.zeros((1, 0), dtype=int))
            got = fmap.fibres(left, k, right)
            want = pointwise.fibres(left, k, right)
            assert got.shape == (left.shape[0] * t.dims[k] * right.shape[0],)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_cross_picks_same_pivots_as_pointwise(self, rng):
        t, fmap, pointwise = self._pair(rng, func=lambda v: v * v)
        a = tt_cross(fmap, Accuracy(1e-10), seed=2)
        b = tt_cross(pointwise, Accuracy(1e-10), seed=2)
        assert a.n_evals == b.n_evals and a.n_evals > 0
        assert a.per_sweep_evals == b.per_sweep_evals
        assert a.sweeps == b.sweeps and a.converged == b.converged
        for x, y in zip(a.index_sets.left + a.index_sets.right,
                        b.index_sets.left + b.index_sets.right):
            assert np.array_equal(x, y)
        assert tt_norm(a.tensor - b.tensor) <= 1e-12 * tt_norm(b.tensor)

    def test_unconverged_cross_warns(self, rng, caplog):
        _, fmap, _ = self._pair(rng)
        with caplog.at_level("WARNING", logger="tthjb.cross"):
            res = tt_cross(fmap, Accuracy(1e-10), max_sweeps=1)
        assert not res.converged
        assert "unconverged" in caplog.text
