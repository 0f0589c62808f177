import functools
import types

import numpy as np
import pytest

from tthjb import tt
from tthjb.tt import (
    Accuracy,
    TTMatrix,
    TTTensor,
    flag_chain,
    linear_to_tt,
    load_tt,
    orthogonalize_right,
    quadratic_to_tt,
    save_tt,
    tt_add,
    tt_dot,
    tt_hadamard,
    tt_matvec,
    tt_norm,
    tt_round,
    tt_scale,
)

from dense_oracle import full, identity, unfuse


def square_sum(c, u, W, gamma, acc, seed=0):
    """c + gamma P(u * u), P meeting every mode by W (m, n), as
    GalerkinSystem.rhs sketches the quadratic penalty: a system whose
    basis is W alone."""
    from tthjb.assembly import ControlPenalty, GalerkinSystem

    system = GalerkinSystem(types.SimpleNamespace(wphi=W), None, None, c,
                            ControlPenalty(gamma), acc, seed)
    return system.rhs(u)[0]


def fused(op):
    """The TT tensor whose block k is op's with its (row, col) pair as one mode."""
    return TTTensor([b.reshape(b.shape[0], -1, b.shape[-1]) for b in op.blocks])


def same_fused_bits(op, t):
    """Whether the operator op holds the blocks of the tensor t, bit for bit."""
    return type(op) is TTMatrix and all(
        np.array_equal(x.reshape(y.shape), y) for x, y in zip(op.blocks, t.blocks))


class TestToDense:
    def test_rank_one_ones(self):
        t = TTTensor.rank_one([np.ones(3), np.ones(2), np.ones(4)])
        assert np.all(full(t) == 1.0)

    def test_matches_triple_loop(self, rng):
        t = TTTensor.random((3, 4, 2), [1, 2, 3, 1], rng)
        X = full(t)
        b0, b1, b2 = t.blocks
        for i in range(3):
            for j in range(4):
                for k in range(2):
                    ref = b0[:, i, :] @ b1[:, j, :] @ b2[:, k, :]
                    assert abs(X[i, j, k] - ref[0, 0]) <= 1e-12


class TestRound:
    def test_redundant_rank_collapses(self, rng):
        x = TTTensor.rank_one([rng.standard_normal(4) for _ in range(3)])
        doubled = tt_scale(tt_add(x, x), 0.5)
        assert doubled.max_rank == 2
        r = tt_round(doubled, Accuracy(1e-12))
        assert r.max_rank == 1
        assert np.allclose(full(r), full(x))

    def test_delta_zero_preserves_values(self, rng):
        t = TTTensor.random((3, 3, 3), [1, 3, 3, 1], rng)
        r = tt_round(t, Accuracy(0.0))
        assert np.allclose(full(r), full(t), atol=1e-12)

    def test_relative_error_contract(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            t = TTTensor.random((4, 4, 4, 4), [1, 6, 6, 6, 1], rng)
            for delta in (1e-3, 1e-1):
                r = tt_round(t, Accuracy(delta))
                err = tt_norm(t - r) / tt_norm(t)
                assert err <= delta

    def test_rank_monotone(self, rng):
        t = TTTensor.random((4, 4, 4), [1, 6, 6, 1], rng)
        r = tt_round(t, Accuracy(1e-2))
        assert all(rr <= tr for rr, tr in zip(r.ranks, t.ranks))

    def test_max_rank_cap(self, rng):
        t = TTTensor.random((5, 5, 5, 5), [1, 8, 8, 8, 1], rng)
        r = tt_round(t, Accuracy(0.0, max_rank=3))
        assert r.max_rank <= 3


def chop_by_cumsum(s, budget, max_rank):
    """_chop's rank as a cumulative sum and a sorted search."""
    if s.size == 0:
        return 1
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))
    keep = max(1, s.size - int(np.searchsorted(tail, budget, side="right")))
    return keep if max_rank is None else min(keep, max_rank)


class TestChop:
    @staticmethod
    def budgets(s):
        """Every tail of s exactly, and its neighbouring floats."""
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))
        return [0.0, *tail, *np.nextafter(tail, 0.0), *np.nextafter(tail, np.inf)]

    def check(self, s):
        for budget in self.budgets(s):
            for max_rank in (None, 1, 2, s.size):
                assert tt._chop(s, budget, max_rank) == chop_by_cumsum(s, budget, max_rank)

    def test_random_spectra(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 40))
            s = np.sort(rng.random(k) * 10.0 ** rng.uniform(-8, 2, k))[::-1]
            self.check(s)

    def test_exact_ties(self):
        self.check(np.array([3.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0]))
        self.check(np.full(6, 0.1))

    def test_all_zero_spectrum(self):
        self.check(np.zeros(5))
        assert tt._chop(np.zeros(5), 0.0, None) == 1

    def test_binding_max_rank(self):
        s = np.logspace(0, -12, 13)
        assert tt._chop(s, 1e-14, None) == 13
        assert tt._chop(s, 1e-14, 4) == 4

    def test_empty_spectrum(self):
        assert tt._chop(np.zeros(0), 1.0, None) == 1


class TestAddScale:
    def test_self_cancellation(self, rng):
        a = TTTensor.random((3, 4, 3), [1, 2, 2, 1], rng)
        z = tt_round(tt_add(a, tt_scale(a, -1.0)), Accuracy(1e-13))
        assert tt_norm(z) <= 1e-12 * tt_norm(a)

    def test_structural_rank_sum(self, rng):
        a = TTTensor.random((4, 4), [1, 2, 1], rng)
        b = TTTensor.random((4, 4), [1, 3, 1], rng)
        assert tt_add(a, b).ranks == (1, 5, 1)

    def test_dense_oracle(self, rng):
        a = TTTensor.random((3, 4, 2), [1, 2, 3, 1], rng)
        b = TTTensor.random((3, 4, 2), [1, 3, 2, 1], rng)
        assert np.allclose(full(tt_add(a, b)),
                           full(a) + full(b))
        assert np.allclose(full(tt_scale(a, -2.5)), -2.5 * full(a))

    def test_dim_mismatch(self, rng):
        a = TTTensor.random((3, 4), [1, 2, 1], rng)
        b = TTTensor.random((3, 5), [1, 2, 1], rng)
        with pytest.raises(ValueError):
            tt_add(a, b)
        # an operator's modes are (row, col) pairs: never a tensor's, nor a
        # transposed operator's, even where the fused sizes agree; a unit
        # mode, or a single block, would broadcast silently in numpy
        for x, y in ((TTTensor.random((9, 4), [1, 2, 1], rng), identity((3, 2))),
                     (TTTensor.random((3,), [1, 1], rng), identity((3,))),
                     (TTTensor.random((3, 5, 4), [1, 2, 2, 1], rng),
                      TTTensor.random((3, 1, 4), [1, 2, 2, 1], rng)),
                     (unfuse(a, (1, 2), (3, 2)), unfuse(a, (3, 2), (1, 2))),
                     (identity((3, 4)), identity((3, 5)))):
            with pytest.raises(ValueError):
                tt_add(x, y)
            with pytest.raises(ValueError):
                tt_add(y, x)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_operator_matches_fused_blocks(self, rng, d):
        # add, scale, round, norm and dot read only the rank axes: on an operator
        # they give the bits of the same call on its fused blocks
        ranks = [1] + [3] * (d - 1) + [1]
        a, b = TTTensor.random((6,) * d, ranks, rng), TTTensor.random((6,) * d, ranks, rng)
        A, B = (unfuse(t, (2,) * d, (3,) * d) for t in (a, b))
        assert same_fused_bits(tt_add(A, B), tt_add(a, b))
        assert same_fused_bits(A + B, a + b)
        assert same_fused_bits(tt_scale(A, -2.5), tt_scale(a, -2.5))
        assert same_fused_bits(0.5 * A, 0.5 * a)
        for acc in (Accuracy(1e-2), Accuracy(0.0, max_rank=2)):
            assert same_fused_bits(tt_round(A + B, acc), tt_round(a + b, acc))
        assert tt_norm(A + B) == tt_norm(a + b)
        assert tt_dot(A, B) == tt_dot(a, b)


class TestMatvec:
    def test_identity(self, rng):
        v = TTTensor.random((3, 4, 5), [1, 2, 2, 1], rng)
        A = identity((3, 4, 5))
        assert np.allclose(full(tt_matvec(A, v)), full(v))

    def test_zero_matrix(self, rng):
        v = TTTensor.random((3, 3), [1, 2, 1], rng)
        A = TTMatrix([np.zeros((1, 3, 3, 1)), np.zeros((1, 3, 3, 1))])
        assert tt_norm(tt_matvec(A, v)) <= 1e-14

    def test_dense_oracle(self, rng):
        A = TTMatrix([rng.standard_normal((1, 4, 4, 2)),
                      rng.standard_normal((2, 4, 4, 3)),
                      rng.standard_normal((3, 4, 4, 1))])
        v = TTTensor.random((4, 4, 4), [1, 3, 3, 1], rng)
        got = full(tt_matvec(A, v)).reshape(-1)
        want = full(A) @ full(v).reshape(-1)
        assert np.allclose(got, want, atol=1e-12 * np.linalg.norm(want))

    def test_rectangular_dense_oracle(self, rng):
        # rows, columns and the ranks of A and v all differ, so a swapped
        # axis fails
        A = TTMatrix([rng.standard_normal((1, 2, 3, 4)),
                      rng.standard_normal((4, 5, 6, 7)),
                      rng.standard_normal((7, 3, 2, 1))])
        v = TTTensor.random((3, 6, 2), [1, 5, 2, 1], rng)
        got = tt_matvec(A, v)
        assert got.ranks == (1, 20, 14, 1)
        want = full(A) @ full(v).reshape(-1)
        assert np.allclose(full(got).reshape(-1), want,
                           atol=1e-12 * np.linalg.norm(want))


class TestDotNorm:
    def test_dot_is_norm_squared(self, rng):
        a = TTTensor.random((3, 4, 3), [1, 2, 2, 1], rng)
        assert np.isclose(tt_dot(a, a), tt_norm(a) ** 2)

    def test_orthogonal_rank_ones(self):
        e1 = np.eye(3)[0]
        e2 = np.eye(3)[1]
        a = TTTensor.rank_one([e1, e1])
        b = TTTensor.rank_one([e2, e2])
        assert tt_dot(a, b) == 0.0

    def test_dense_oracle(self, rng):
        a = TTTensor.random((3, 3, 3, 3), [1, 2, 3, 2, 1], rng)
        b = TTTensor.random((3, 3, 3, 3), [1, 3, 2, 3, 1], rng)
        want = np.sum(full(a) * full(b))
        assert abs(tt_dot(a, b) - want) <= 1e-12 * abs(want)

    def test_distinct_sizes_dense_oracle(self, rng):
        a = TTTensor.random((2, 3, 4, 5), [1, 6, 7, 3, 1], rng)
        b = TTTensor.random((2, 3, 4, 5), [1, 2, 4, 5, 1], rng)
        want = np.sum(full(a) * full(b))
        assert abs(tt_dot(a, b) - want) <= 1e-12 * np.linalg.norm(full(a)) * \
            np.linalg.norm(full(b))
        assert tt_norm(a) == pytest.approx(np.linalg.norm(full(a)), rel=1e-12)

    def test_norm_of_near_equal_difference(self, rng):
        # the policy and cross stopping tests take norms of v - v_prev, two
        # nearly equal tensors in different gauges
        a = TTTensor.random((3, 4, 3, 2), [1, 3, 4, 2, 1], rng)
        c = TTTensor.random(a.dims, [1, 2, 2, 2, 1], rng)
        eps = 1e-12 * tt_norm(a) / tt_norm(c)
        b = tt_round(a, Accuracy(0.0)) + eps * c
        want = np.linalg.norm(full(a - b))
        assert abs(tt_norm(a - b) - want) <= 16 * np.finfo(float).eps * tt_norm(a)


class TestHadamard:
    def test_dense_oracle(self, rng):
        a = TTTensor.random((3, 4), [1, 2, 1], rng)
        b = TTTensor.random((3, 4), [1, 3, 1], rng)
        assert np.allclose(full(tt_hadamard(a, b)),
                           full(a) * full(b))

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_symmetric_square(self, rng, d, r):
        # ranks r(r+1)/2, or the mode-count bound, instead of the r^2 of
        # tt_hadamard(t, t)
        t = TTTensor.random((4,) * d, [1] + [r] * (d - 1) + [1], rng)
        sq = square_sum(TTTensor.zeros((4,) * d), t, np.eye(4), 1.0, Accuracy(1e-14))
        want = full(t) ** 2
        assert np.linalg.norm(full(sq) - want) <= 1e-13 * np.linalg.norm(want)
        assert sq.ranks == tuple(min(r * (r + 1) // 2, 4**k, 4 ** (d - k))
                                 for k in range(d + 1))


def decaying_tt(dims, r, rng, ratio=0.3):
    """Random TT of interface ranks r whose k-th rank direction is scaled by
    ratio**k, so the square has a decaying spectrum."""
    ranks = [1] + [r] * (len(dims) - 1) + [1]
    t = TTTensor.random(dims, ranks, rng)
    return TTTensor([blk * ratio ** np.arange(blk.shape[2]) for blk in t.blocks])


def sketch_ranks(monkeypatch):
    """The sketch ranks of every tt._sketch call, in order."""
    from tthjb import tt

    ranks = []
    original = tt._sketch
    monkeypatch.setattr(tt, "_sketch", lambda terms, like, ell, rng: ranks.append(list(ell))
                        or original(terms, like, ell, rng))
    return ranks


class TestSquareSum:
    """The quadratic penalty's right-hand side, c + gamma W(u^2) sketched by
    tt._sketch_round at GalerkinSystem.rhs's ranks, against the dense sum."""

    N, M, GAMMA = 6, 12, 0.7

    def _case(self, rng, d, r, flat=False):
        W = rng.standard_normal((self.M, self.N))
        u = (TTTensor.random((self.M,) * d, [1] + [r] * (d - 1) + [1], rng) if flat
             else decaying_tt((self.M,) * d, r, rng))
        c = TTTensor.random((self.N,) * d, [1] + [2] * (d - 1) + [1], rng)
        dense = self.GAMMA * full(u) ** 2
        for _ in range(d):
            dense = np.tensordot(dense, W, axes=(0, 0))
        return c, u, W, full(c) + dense

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("r", [4, 13, 20])
    @pytest.mark.parametrize("delta", [1e-3, 1e-6])
    def test_dense_oracle(self, rng, d, r, delta):
        c, u, W, want = self._case(rng, d, r)
        b = square_sum(c, u, W, self.GAMMA, Accuracy(delta))
        assert np.linalg.norm(full(b) - want) <= delta * np.linalg.norm(want)

    def test_sketch_below_full_rank_is_not_exact(self, rng, monkeypatch):
        # rank 13 at d=4: the middle sketch of rank 13+2+5 stays below the
        # 36 of the full range, is not doubled, and still meets delta
        sketches = sketch_ranks(monkeypatch)
        c, u, W, want = self._case(rng, 4, 13)
        b = square_sum(c, u, W, self.GAMMA, Accuracy(1e-3))
        assert sketches == [[1, 6, 20, 6, 1]]
        assert np.linalg.norm(full(b) - want) <= 1e-3 * np.linalg.norm(want)

    def test_saturated_sketch_doubles(self, rng, monkeypatch):
        # a flat spectrum saturates the middle sketch of rank 20, which
        # doubles, capped at the full 36 and then exact
        sketches = sketch_ranks(monkeypatch)
        c, u, W, want = self._case(rng, 4, 13, flat=True)
        b = square_sum(c, u, W, self.GAMMA, Accuracy(1e-6))
        assert sketches == [[1, 6, 20, 6, 1], [1, 6, 36, 6, 1]]
        assert np.linalg.norm(full(b) - want) <= 1e-6 * np.linalg.norm(want)

    def test_bitwise_repeatable(self, rng):
        c, u, W, _ = self._case(rng, 4, 20, flat=True)
        b1 = square_sum(c, u, W, self.GAMMA, Accuracy(1e-3), seed=3)
        b2 = square_sum(c, u, W, self.GAMMA, Accuracy(1e-3), seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(b1.blocks, b2.blocks))

    def test_ranks_respect_max_rank(self, rng, monkeypatch):
        sketches = sketch_ranks(monkeypatch)
        c, u, W, _ = self._case(rng, 4, 20, flat=True)
        b = square_sum(c, u, W, self.GAMMA, Accuracy(1e-12, max_rank=4))
        assert b.max_rank <= 4
        # no sketch is wider than max_rank plus the oversampling
        assert sketches == [[1, 6, 9, 6, 1]]


class TestRoundSketch:
    """tt._round_sketch, the SVD sweep alone on a _sketch output, which is
    left-orthonormal already; a TT term plus a product term as in the
    quadratic penalty, sketched below the full range of the sum."""

    N, M, ELL = 6, 12, [1, 6, 20, 6, 1]

    @pytest.fixture
    def sketch(self, rng):
        d = len(self.ELL) - 1
        W = rng.standard_normal((self.M, self.N))
        u = decaying_tt((self.M,) * d, 13, rng)
        c = TTTensor.random((self.N,) * d, [1] + [2] * (d - 1) + [1], rng)
        square = tt._product_term(tt_scale(u, 0.7), [b[:, :, None] for b in u.blocks], [W] * d)
        return tt._sketch([tt._tt_term(c), square], c, self.ELL, np.random.default_rng(0))

    def test_operator_template(self, rng):
        # a TTMatrix template gives a TTMatrix in its (row, col) modes, the
        # bits of the same sketch taken on the fused tensor, then split
        d = len(self.ELL) - 1
        ops = [unfuse(TTTensor.random((6,) * d, [1] + [4] * (d - 1) + [1], rng),
                      (2,) * d, (3,) * d) for _ in range(3)]
        terms = [tt._tt_term(op) for op in ops]
        got = tt._sketch(terms, ops[0], self.ELL, np.random.default_rng(0))
        want = tt._sketch(terms, fused(ops[0]), self.ELL, np.random.default_rng(0))
        assert got.row_dims == ops[0].row_dims and got.col_dims == ops[0].col_dims
        assert same_fused_bits(got, want)
        assert same_fused_bits(tt._round_sketch(got, Accuracy(1e-3)),
                               tt._round_sketch(want, Accuracy(1e-3)))

    def test_sketch_round_at_its_cap_is_one_pass(self, rng, monkeypatch):
        # tt._sketch_round with ell = cap, as the operator calls it, is one
        # sketch rounded on its own frames, bit for bit, however close the
        # rounded ranks come to ell
        d = len(self.ELL) - 1
        W = rng.standard_normal((self.M, self.N))
        u = TTTensor.random((self.M,) * d, [1] + [13] * (d - 1) + [1], rng)
        c = TTTensor.random((self.N,) * d, [1] + [2] * (d - 1) + [1], rng)
        square = tt._product_term(tt_scale(u, 0.7), [b[:, :, None] for b in u.blocks], [W] * d)
        terms, acc = [tt._tt_term(c), square], Accuracy(1e-6)
        want = tt._round_sketch(tt._sketch(terms, c, self.ELL, np.random.default_rng(4)), acc)
        assert want.ranks[2] > self.ELL[2] - tt._OVERSAMPLE   # a lower cap would grow
        sketches = sketch_ranks(monkeypatch)
        got = tt._sketch_round(terms, c, self.ELL, self.ELL, acc, 4)
        assert sketches == [self.ELL]
        assert all(np.array_equal(x, y) for x, y in zip(got.blocks, want.blocks))

    def test_sketch_is_left_orthonormal(self, sketch):
        for b in sketch.blocks[:-1]:
            mat = b.reshape(-1, b.shape[-1])
            assert np.abs(mat.T @ mat - np.eye(mat.shape[1])).max() <= 1e-12

    @pytest.mark.parametrize("delta", [1e-1, 1e-3])
    def test_relative_error_contract(self, sketch, delta):
        r = tt._round_sketch(sketch, Accuracy(delta))
        assert r.max_rank < sketch.max_rank
        assert np.linalg.norm(full(r) - full(sketch)) <= delta * np.linalg.norm(full(sketch))

    def test_binding_max_rank(self, sketch):
        r = tt._round_sketch(sketch, Accuracy(1e-12, max_rank=3))
        assert sketch.max_rank > 3 and r.max_rank == 3

    def test_delta_zero_preserves_values(self, sketch):
        r = tt._round_sketch(sketch, Accuracy(0.0))
        assert np.linalg.norm(full(r) - full(sketch)) <= 1e-13 * np.linalg.norm(full(sketch))

    def test_blocks_are_c_contiguous(self, sketch):
        r = tt._round_sketch(sketch, Accuracy(1e-3))
        assert all(b.flags.c_contiguous for b in r.blocks)

    def test_round_is_qr_sweep_then_svd_sweep(self, rng):
        # on a chain that is not orthogonal, tt_round is the QR sweep, then
        # the same SVD sweep, bit for bit
        t = TTTensor.random((4, 5, 3, 4), [1, 4, 6, 4, 1], rng)
        for acc in (Accuracy(1e-2), Accuracy(0.0, max_rank=3)):
            want = tt._svd_sweep(orthogonalize_right(t), acc)
            got = tt_round(t, acc)
            assert all(np.array_equal(x, y) for x, y in zip(got.blocks, want.blocks))


class TestSumRound:
    """assembly._sum_round(ops), the exact sum of TT operators rounded once,
    against the dense sum of the operators; a fused mode of 12 is a 3 x 4
    operator block."""

    N = 12

    def _case(self, rng, d, terms=16, r=6, ratio=0.03, flat=False):
        ranks = [1] + [r] * (d - 1) + [1]
        terms = [TTTensor.random((self.N,) * d, ranks, rng) if flat
                 else decaying_tt((self.N,) * d, r, rng, ratio) for _ in range(terms)]
        ops = [unfuse(t, (3,) * d, (4,) * d) for t in terms]
        return ops, sum(full(t) for t in terms)

    @staticmethod
    def _exact(ops, acc, monkeypatch):
        # the rounded sum, checked never to be sketched, against the
        # rounded sum of the fused blocks
        from tthjb import assembly

        def no_sketch(*args):
            raise AssertionError("an exact sum was sketched")

        monkeypatch.setattr(tt, "_sketch", no_sketch)
        want = tt_round(functools.reduce(tt_add, [fused(op) for op in ops]), acc)
        return same_fused_bits(assembly._sum_round(ops, acc), want)

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("delta", [1e-3, 1e-6])
    def test_dense_oracle(self, rng, d, delta):
        from tthjb.assembly import _sum_round

        ops, want = self._case(rng, d)
        b = full(fused(_sum_round(ops, Accuracy(delta))))
        assert np.linalg.norm(b - want) <= 1.25 * delta * np.linalg.norm(want)

    @pytest.mark.parametrize("count, r", [(2, 6), (3, 6), (3, 20)])
    def test_exact_range_rounds_the_sum(self, rng, monkeypatch, count, r):
        # summed ranks 12, 18 and 60 under a cap: the exact sum is rounded,
        # unsketched (the operator sketches its own sums over the cap)
        ops, _ = self._case(rng, 4, terms=count, r=r, flat=True)
        assert self._exact(ops, Accuracy(1e-3, max_rank=max(7, count * r - 20)), monkeypatch)

    def test_uncapped_terms_are_not_sketched(self, rng, monkeypatch):
        # sixteen terms (summed rank 96) without a max_rank: the exact sum
        # is rounded, whatever its rank
        ops, _ = self._case(rng, 4, terms=16)
        assert self._exact(ops, Accuracy(1e-3), monkeypatch)

    def test_mismatched_modes(self):
        from tthjb.assembly import _sum_round

        with pytest.raises(ValueError):
            _sum_round([identity((3, 4)), identity((3, 5))], Accuracy(1e-3))


class TestOrthogonalize:
    def test_values_preserved(self, rng):
        t = TTTensor.random((3, 4, 3, 2), [1, 3, 4, 2, 1], rng)
        X = full(t)
        for q in (tt_round(t, Accuracy(0.0)), orthogonalize_right(t)):
            assert np.linalg.norm(full(q) - X) <= 1e-12 * np.linalg.norm(X)

    def test_right_gram_identity(self, rng):
        t = TTTensor.random((3, 4, 3, 2), [1, 3, 4, 2, 1], rng)
        q = orthogonalize_right(t)
        for k in range(1, t.d):
            b = q.blocks[k]
            mat = b.reshape(b.shape[0], -1)
            assert np.allclose(mat @ mat.T, np.eye(b.shape[0]), atol=1e-12)

    def test_left_norm_identity(self, rng):
        t = TTTensor.random((3, 3, 3), [1, 2, 2, 1], rng)
        q = tt_round(t, Accuracy(0.0))
        assert np.isclose(np.linalg.norm(q.blocks[-1]), tt_norm(t))


class TestLapackKernels:
    @staticmethod
    def _matrix(rng, shape):
        if shape == "deficient":
            # rank 2 with a zero column, so R has an exact zero on its diagonal
            a = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 5))
            a[:, 1] = 0.0
            return a
        return rng.standard_normal(shape)

    @pytest.mark.parametrize("shape", [(9, 4), (3, 8), (5, 5), "deficient"],
                             ids=["tall", "wide", "square", "deficient"])
    def test_qr(self, rng, shape):
        a = self._matrix(rng, shape)
        k = min(a.shape)
        q, r = tt._qr(a)
        assert q.shape == (a.shape[0], k) and r.shape == (k, a.shape[1])
        assert np.allclose(q.T @ q, np.eye(k), rtol=0, atol=1e-13)
        assert np.all(r[np.tril_indices(k, -1, a.shape[1])] == 0.0)
        assert np.abs(q @ r - a).max() <= 1e-13 * max(np.abs(a).max(), 1.0)
        assert np.array_equal(tt._qr(a, "q"), q)
        assert np.array_equal(tt._qr(a, "r"), r)

    def test_qr_does_not_change_its_input(self, rng):
        a = rng.standard_normal((6, 3))
        before = a.copy()
        tt._qr(a.T)
        tt._qr(a)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("shape", [(9, 4), (3, 8), "deficient"],
                             ids=["tall", "wide", "deficient"])
    def test_svd_matches_numpy(self, rng, shape):
        a = self._matrix(rng, shape)
        u, s, vt = tt._svd(a)
        assert np.allclose(s, np.linalg.svd(a, compute_uv=False), rtol=0, atol=1e-13 * s[0])
        assert np.abs((u * s) @ vt - a).max() <= 1e-13 * s[0]

    def test_svd_retries_the_transpose(self, rng, monkeypatch):
        a = rng.standard_normal((7, 3))
        seen = []
        dgesdd = tt._dgesdd

        def fails_once(mat, **kwargs):
            seen.append(mat.shape)
            u, s, vt, info = dgesdd(mat, **kwargs)
            return u, s, vt, info if len(seen) > 1 else 1

        monkeypatch.setattr(tt, "_dgesdd", fails_once)
        u, s, vt = tt._svd(a)
        assert seen == [(7, 3), (3, 7)]
        assert u.shape == (7, 3) and vt.shape == (3, 3)
        assert np.allclose(u.T @ u, np.eye(3), atol=1e-13)
        assert np.abs((u * s) @ vt - a).max() <= 1e-13 * s[0]

    def test_svd_failure_raises(self, rng, monkeypatch):
        monkeypatch.setattr(tt, "_dgesdd", lambda mat, **kwargs: (None, None, None, 1))
        with pytest.raises(np.linalg.LinAlgError, match="dgesdd"):
            tt._svd(rng.standard_normal((4, 3)))


class TestChainBuilders:
    """tt_add, flag_chain and quadratic_to_tt apply one block rule at every
    position, d = 1 included, against the dense oracles."""

    @staticmethod
    def _chains(rng, d, op):
        """Two random tensors of modes 3, or operators of modes (2, 3)."""
        ranks = [1] + [2] * (d - 1) + [1]
        ts = [TTTensor.random((6 if op else 3,) * d, ranks, rng) for _ in range(2)]
        return [unfuse(t, (2,) * d, (3,) * d) for t in ts] if op else ts

    @pytest.mark.parametrize("op", [False, True], ids=["tensor", "operator"])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_add(self, rng, d, op):
        a, b = self._chains(rng, d, op)
        s = tt_add(a, b)
        assert type(s) is type(a) and s.ranks == (1,) + (4,) * (d - 1) + (1,)
        assert np.allclose(full(s), full(a) + full(b), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("op", [False, True], ids=["tensor", "operator"])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_flag_chain(self, rng, d, op):
        (g, h), kind = self._chains(rng, d, op), TTMatrix if op else TTTensor
        chain = kind(flag_chain(g.blocks, h.blocks))
        assert chain.ranks == (1,) + (4,) * (d - 1) + (1,)
        want = sum(full(kind(g.blocks[:k] + h.blocks[k:k + 1] + g.blocks[k + 1:]))
                   for k in range(d))
        assert np.allclose(full(chain), want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_quadratic(self, rng, d):
        P = rng.standard_normal((d, d))
        P = 0.5 * (P + P.T)
        grids = [np.linspace(-1.0, 1.0, 3 + k) for k in range(d)]
        x = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1)
        want = np.einsum("...i,ij,...j->...", x, P, x)
        assert np.allclose(full(quadratic_to_tt(P, grids)), want, rtol=1e-12, atol=1e-12)


class TestQuadraticToTT:
    @staticmethod
    def grids(d, pts=3):
        return [np.linspace(-1.0, 1.0, pts)] * d

    def test_identity_matrix_rank(self):
        t = quadratic_to_tt(np.eye(5), self.grids(5))
        assert all(r <= 2 for r in t.ranks[1:-1])

    def test_rank_one_matrix(self):
        t = quadratic_to_tt(np.ones((6, 6)), self.grids(6))
        assert all(r <= 3 for r in t.ranks[1:-1])

    def test_random_matrix_values_and_ranks(self, rng):
        d = 6
        P = rng.standard_normal((d, d))
        P = 0.5 * (P + P.T)
        grids = self.grids(d)
        t = quadratic_to_tt(P, grids)
        for k, r in enumerate(t.ranks[1:-1], start=1):
            assert r <= min(k, d - k) + 2
        idx = rng.integers(0, 3, size=(50, d))
        pts = np.stack([grids[k][idx[:, k]] for k in range(d)], axis=1)
        want = np.einsum("ni,ij,nj->n", pts, P, pts)
        assert np.allclose(t.eval(idx), want, atol=1e-10)

    def test_rank_bound_up_to_d10(self, rng):
        for d in range(2, 11):
            P = rng.standard_normal((d, d))
            P = 0.5 * (P + P.T)
            t = quadratic_to_tt(P, self.grids(d))
            for k, r in enumerate(t.ranks[1:-1], start=1):
                assert r <= min(k, d - k) + 2


class TestLinearToTT:
    def test_values(self, rng):
        d = 5
        c = rng.standard_normal(d)
        grids = [np.linspace(-2, 2, 4)] * d
        t = linear_to_tt(c, grids)
        idx = rng.integers(0, 4, size=(40, d))
        pts = np.stack([grids[k][idx[:, k]] for k in range(d)], axis=1)
        assert np.allclose(t.eval(idx), pts @ c, atol=1e-12)


class TestSerialization:
    def test_roundtrip(self, rng, tmp_path):
        t = TTTensor.random((3, 5, 2, 4), [1, 2, 4, 3, 1], rng)
        path = tmp_path / "t.tt"
        save_tt(t, path)
        s = load_tt(path)
        assert s.dims == t.dims and s.ranks == t.ranks
        for a, b in zip(s.blocks, t.blocks):
            assert np.array_equal(a, b)

    def test_truncated_file_raises_value_error(self, rng, tmp_path):
        # a cut anywhere, in the header or in a block, is a ValueError, which
        # the CLI's cache reads as a miss
        path = tmp_path / "t.tt"
        save_tt(TTTensor.random((3, 5, 2), [1, 2, 4, 1], rng), path)
        data = path.read_bytes()
        for cut in (6, 10, 14, 30, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                load_tt(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.tt"
        path.write_bytes(b"not a tensor")
        with pytest.raises(ValueError):
            load_tt(path)


class TestValidation:
    def test_boundary_ranks(self):
        with pytest.raises(ValueError):
            TTTensor([np.zeros((2, 3, 1))])

    def test_rank_chain(self):
        with pytest.raises(ValueError):
            TTTensor([np.zeros((1, 3, 2)), np.zeros((3, 3, 1))])

    @pytest.mark.parametrize("max_rank", [2.5, True, 0, "3"])
    def test_max_rank_must_be_an_integer(self, max_rank):
        with pytest.raises(ValueError, match="max_rank"):
            Accuracy(1e-3, max_rank=max_rank)

    def test_numpy_integer_max_rank(self):
        assert Accuracy(1e-3, max_rank=np.int64(3)).max_rank == 3

    def test_immutability(self, rng):
        t = TTTensor.random((3, 3), [1, 2, 1], rng)
        with pytest.raises(AttributeError):
            t.blocks = ()
