import logging
import math

import numpy as np
import pytest
import scipy.sparse.linalg

from tthjb import amen, tt
from tthjb.amen import (
    _advance_op,
    _advance_vec,
    _apply_local,
    _block_jacobi,
    _gmres,
    _local_matrix,
    _project,
    _right_interfaces,
    _solve_local,
    amen_solve_shifted,
)
from tthjb.basis import build_basis
from tthjb.cross import tt_cross
from tthjb.models import lq
from tthjb.policy import SolverConfig, _build_system, policy_iterate
from tthjb.tt import (
    Accuracy,
    TTMatrix,
    TTTensor,
    orthogonalize_right,
    tt_dot,
    tt_matvec,
    tt_norm,
    tt_round,
    tt_scale,
)

from dense_oracle import from_full, full, identity, unfuse


def random_tt_matrix(rng, dims, ranks):
    return TTMatrix(
        [rng.standard_normal((ranks[k], n, n, ranks[k + 1]))
         for k, n in enumerate(dims)]
    )


class TestResidualFit:
    """The enrichment residual sum_i c_i t_i - A v, sketched by tt._sketch
    from the terms' blocks as amen_solve_shifted does."""

    @staticmethod
    def _case(rng, dims, shifted):
        ranks, mu = [1] + [2] * (len(dims) - 1) + [1], 0.7
        A = random_tt_matrix(rng, dims, ranks)
        v, b, v_prev = (TTTensor.random(dims, ranks, rng) for _ in range(3))
        terms = [(1.0, b)]
        if shifted:
            terms += [(mu, v_prev), (-mu, v)]
        sketch_terms = ([tt._tt_term(tt_scale(t, c)) for c, t in terms]
                        + [tt._product_term(tt_scale(v, -1.0),
                                            [blk.transpose(0, 2, 1, 3) for blk in A.blocks],
                                            [np.ones((n, 1)) for n in dims])])
        want = sum(c * full(t).reshape(-1) for c, t in terms)
        return sketch_terms, want - full(A) @ full(v).reshape(-1)

    @pytest.mark.parametrize("shifted", [False, True], ids=["one_term", "three_terms"])
    def test_matches_dense_residual(self, rng, shifted):
        # sketch ranks at the mode products of a (3, 4, 3) tensor span the
        # whole range: the sketch is exact, so it must reproduce the dense
        # residual, shift terms included
        terms, want = self._case(rng, (3, 4, 3), shifted)
        res = tt._sketch(terms, TTTensor.zeros((3, 4, 3)), [1, 3, 3, 1], rng)
        got = full(res).reshape(-1)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_solver_sketches_its_own_residual(self, rng, monkeypatch):
        # the residual that amen_solve_shifted sketches in its first sweep is
        # b - A v_prev, of a non-symmetric A: at the enrichment ranks of a
        # (3, 4, 3) tensor the sketch is exact
        sketches = []
        monkeypatch.setattr(amen, "_sketch",
                            lambda *args: sketches.append(tt._sketch(*args)) or sketches[-1])
        dims, ranks = (3, 4, 3), [1, 2, 2, 1]
        A = random_tt_matrix(rng, dims, ranks)
        b, v_prev = (TTTensor.random(dims, ranks, rng) for _ in range(2))
        amen_solve_shifted(A, b, v_prev, 0.7, Accuracy(1e-10))
        want = full(b).reshape(-1) - full(A) @ full(v_prev).reshape(-1)
        got = full(sketches[0]).reshape(-1)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("dims", [(3, 4, 3), (5, 6, 5)])
    def test_blocks_left_orthonormal(self, rng, dims):
        # at the enrichment ranks min(4, mode products), below the range of
        # (5, 6, 5), every block but the last is left-orthonormal: the
        # enrichment meets only those blocks
        terms, _ = self._case(rng, dims, True)
        ell = [min(amen._RHO, math.prod(dims[:k]), math.prod(dims[k:]))
               for k in range(len(dims) + 1)]
        res = tt._sketch(terms, TTTensor.zeros(dims), ell, rng)
        assert res.ranks == tuple(ell)
        for blk in res.blocks[:-1]:
            mat = blk.reshape(-1, blk.shape[2])
            assert np.allclose(mat.T @ mat, np.eye(mat.shape[1]), atol=1e-12)


def local_parts(rng, r0, n, r1, R0=3, R1=2, diagonal_right=False, scale=1.0):
    """Random interfaces (LA, Ab, RA) of a local system with r0 n r1 unknowns;
    with diagonal_right, RA[b, B, d] vanishes for b != d."""
    LA = scale * rng.standard_normal((r0, R0, r0))
    Ab = scale * rng.standard_normal((R0, n, n, R1))
    RA = scale * rng.standard_normal((r1, R1, r1))
    if diagonal_right:
        RA = np.einsum("bB,bd->bBd", RA[:, :, 0], np.eye(r1))
    return LA, Ab, RA


def solve_counts():
    return {"gmres_fallbacks": 0, "gmres_unconverged": 0}


class TestKernels:
    """Each contraction kernel against np.einsum, at pairwise distinct sizes
    so that a swapped axis changes the result or fails on shape."""

    # frame ranks a, c on the left and b, d on the right; operator ranks
    # A, B; vector ranks p, q; modes n (rows) and m (columns)
    a, c, b, d, A, B, p, q, n, m = 2, 3, 4, 5, 6, 7, 8, 9, 10, 11

    def test_advance_op(self, rng):
        L = rng.standard_normal((self.a, self.A, self.c))
        vb = rng.standard_normal((self.a, self.n, self.b))
        Ab = rng.standard_normal((self.A, self.n, self.m, self.B))
        wb = rng.standard_normal((self.c, self.m, self.d))
        want = np.einsum("aAc,aib,AijB,cjd->bBd", L, vb, Ab, wb)
        assert np.allclose(_advance_op(L, vb, Ab, wb), want, rtol=1e-12, atol=1e-12)

    def test_advance_vec(self, rng):
        L = rng.standard_normal((self.a, self.p))
        vb = rng.standard_normal((self.a, self.n, self.b))
        bb = rng.standard_normal((self.p, self.n, self.q))
        want = np.einsum("ap,aib,piq->bq", L, vb, bb)
        assert np.allclose(_advance_vec(L, vb, bb), want, rtol=1e-12, atol=1e-12)

    def test_right_interfaces(self, rng):
        # the advance kernels on blocks with reversed rank axes; x, A and
        # the vector have different ranks
        dims = (2, 3, 4, 5)
        x = TTTensor.random(dims, [1, 2, 3, 4, 1], rng)
        A = random_tt_matrix(rng, dims, [1, 5, 6, 7, 1])
        t = TTTensor.random(dims, [1, 6, 5, 3, 1], rng)
        RA, (Rt,) = _right_interfaces(x, A, [t])
        want_A, want_t = np.ones((1, 1, 1)), np.ones((1, 1))
        for j in range(x.d - 1, 0, -1):
            want_A = np.einsum("aib,AijB,cjd,bBd->aAc", x.blocks[j], A.blocks[j],
                               x.blocks[j], want_A)
            want_t = np.einsum("aib,piq,bq->ap", x.blocks[j], t.blocks[j], want_t)
            assert np.allclose(RA[j], want_A, rtol=1e-12, atol=1e-12)
            assert np.allclose(Rt[j], want_t, rtol=1e-12, atol=1e-12)

    def test_local_matrix_and_apply(self, rng):
        LA = rng.standard_normal((self.a, self.A, self.a))
        Ab = rng.standard_normal((self.A, self.n, self.n, self.B))
        RA = rng.standard_normal((self.b, self.B, self.b))
        H = _local_matrix(LA, Ab, RA)
        want = np.einsum("aAc,AijB,bBd->aibcjd", LA, Ab, RA)
        assert np.allclose(H, want.reshape(H.shape), rtol=1e-12, atol=1e-12)
        x = rng.standard_normal((self.a, self.n, self.b))
        got = _apply_local(LA, Ab, RA, x).reshape(-1)
        assert np.allclose(got, H @ x.reshape(-1), rtol=1e-12, atol=1e-12)

    def test_block_jacobi_is_the_block_diagonal(self, rng):
        # with a general right interface the preconditioner inverts exactly
        # the blocks of H + shift I whose right frame indices agree
        LA = rng.standard_normal((self.a, self.A, self.a))
        Ab = rng.standard_normal((self.A, self.n, self.n, self.B))
        RA = rng.standard_normal((self.b, self.B, self.b))
        shift = 0.7
        size = self.a * self.n
        H = _local_matrix(LA, Ab, RA).reshape(size, self.b, size, self.b)
        x = rng.standard_normal((size, self.b))
        y = np.einsum("ibjb,jb->ib", H, x) + shift * x
        solve_M = _block_jacobi(LA, Ab, RA, shift)
        assert np.allclose(solve_M(y.reshape(-1)), x.reshape(-1), rtol=1e-10, atol=1e-10)

    def test_project(self, rng):
        blocks = [rng.standard_normal((self.p, self.n, self.q)),
                  rng.standard_normal((self.c, self.n, self.d))]
        t1 = TTTensor([rng.standard_normal((1, 2, self.p)), blocks[0],
                       rng.standard_normal((self.q, 3, 1))])
        t2 = TTTensor([rng.standard_normal((1, 2, self.c)), blocks[1],
                       rng.standard_normal((self.d, 3, 1))])
        Ls = [rng.standard_normal((self.a, self.p)), rng.standard_normal((self.a, self.c))]
        Rs = [[None, None, rng.standard_normal((self.b, self.q))],
              [None, None, rng.standard_normal((self.b, self.d))]]
        got = _project([(0.5, t1), (-2.0, t2)], Ls, Rs, 1)
        want = sum(coef * np.einsum("ap,piq,bq->aib", L, blk, R[2])
                   for coef, L, blk, R in zip((0.5, -2.0), Ls, blocks, Rs))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


class TestLocalSolve:
    @pytest.mark.parametrize("r1", [1, 3])
    def test_block_jacobi_exact_for_diagonal_right_interface(self, rng, r1):
        # RA diagonal in its frame indices makes H + shift I block diagonal
        # in b, so the preconditioner is the exact inverse; a wrong index
        # order would only cost GMRES iterations in the solves
        LA, Ab, RA = local_parts(rng, 4, 3, r1, diagonal_right=True)
        shift = 0.7
        H = _local_matrix(LA, Ab, RA) + shift * np.eye(4 * 3 * r1)
        solve_M = _block_jacobi(LA, Ab, RA, shift)
        x = rng.standard_normal((4 * 3, r1))
        y = np.einsum("ibjb,jb->ib", H.reshape(4 * 3, r1, 4 * 3, r1), x)
        assert np.allclose(y.reshape(-1), H @ x.reshape(-1), rtol=1e-12, atol=1e-12)
        assert np.allclose(solve_M(H @ x.reshape(-1)), x.reshape(-1), rtol=1e-10, atol=1e-10)

    def test_gmres_above_crossover_matches_dense(self, rng, monkeypatch):
        # a well-conditioned system of 8 * 5 * 10 = 400 > crossover unknowns,
        # solved without ever forming the local matrix
        r0, n, r1 = 8, 5, 10
        assert r0 * n * r1 > amen._GMRES_CROSSOVER
        LA, Ab, RA = local_parts(rng, r0, n, r1, scale=0.3)
        shift, delta = 2.0, 1e-3
        H = _local_matrix(LA, Ab, RA) + shift * np.eye(r0 * n * r1)
        g = rng.standard_normal(H.shape[0])
        monkeypatch.setattr(amen, "_local_matrix", None)
        counts = solve_counts()
        x, res = _solve_local((LA, Ab, RA), g, shift,
                              np.zeros((r0, n, r1)), delta, counts)
        assert counts == solve_counts()
        tol = min(1e-8, 1e-2 * delta)
        want = np.linalg.solve(H, g)
        assert np.linalg.norm(x - want) <= 10 * tol * np.linalg.norm(want)
        assert res == pytest.approx(np.linalg.norm(H @ x - g), rel=1e-6)
        assert res <= tol * np.linalg.norm(g)
        # warm-started at the answer, GMRES stops at its first residual
        # check and returns that residual: one product
        products = []
        apply_local = amen._apply_local
        monkeypatch.setattr(amen, "_apply_local",
                            lambda *args: products.append(1) or apply_local(*args))
        _solve_local((LA, Ab, RA), g, shift, want.reshape(r0, n, r1), delta,
                     solve_counts())
        assert len(products) == 1

    @pytest.mark.parametrize("dense_limit", [2000, 0], ids=["dense", "above_limit"])
    def test_unconverged_gmres_falls_back_to_dense(self, rng, monkeypatch, caplog,
                                                   dense_limit):
        # unstructured random interfaces: the spectrum surrounds the origin and
        # the block Jacobi misses most of H, so one cycle of 60 iterations
        # stops short; within _DENSE_LIMIT dense LU takes over, above it the
        # GMRES iterate comes back with a warning and its true residual; the
        # counts tell the two apart
        r0, n, r1 = 8, 5, 10
        LA, Ab, RA = local_parts(rng, r0, n, r1)
        shift, delta = 0.0, 1e-3
        H = _local_matrix(LA, Ab, RA)
        g = rng.standard_normal(H.shape[0])
        residuals = []

        def recording_gmres(*args, **kwargs):
            out = _gmres(*args, **kwargs)
            residuals.append(out[1])
            return out

        monkeypatch.setattr(amen, "_gmres", recording_gmres)
        monkeypatch.setattr(amen, "_DENSE_LIMIT", dense_limit)
        counts = solve_counts()
        with caplog.at_level(logging.WARNING, logger="tthjb.amen"):
            x, res = _solve_local((LA, Ab, RA), g, shift,
                                  np.zeros((r0, n, r1)), delta, counts)
        tol = min(1e-8, 1e-2 * delta)
        assert len(residuals) == 1 and residuals[0] > tol * np.linalg.norm(g)
        assert res == pytest.approx(np.linalg.norm(H @ x - g), rel=1e-6)
        if dense_limit:
            assert np.allclose(x, np.linalg.solve(H, g), rtol=1e-8, atol=1e-10)
            assert not caplog.records
            assert counts == {"gmres_fallbacks": 1, "gmres_unconverged": 0}
        else:
            assert res > 1e-8 * np.linalg.norm(g)
            assert "maxiter" in caplog.text
            assert counts == {"gmres_fallbacks": 0, "gmres_unconverged": 1}

    def test_singular_dense_system_takes_least_squares(self, monkeypatch):
        # H + shift I = diag(1, 2, 0) has an exact zero pivot, so dgesv
        # reports it and the solve returns the least-squares answer
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kwargs: calls.append(1) or lstsq(*args, **kwargs))
        one = np.ones((1, 1, 1))
        Ab = np.diag([1.0, 2.0, 0.0]).reshape(1, 3, 3, 1)
        x, res = _solve_local((one, Ab, one), np.array([1.0, 2.0, 3.0]), 0.0,
                              np.zeros((1, 3, 1)), 1e-10, solve_counts())
        assert calls == [1]
        assert np.allclose(x, [1.0, 1.0, 0.0], rtol=0, atol=1e-14)
        assert res == pytest.approx(3.0)


class TestGmres:
    """One cycle of amen._gmres on explicit nonsymmetric systems."""

    @staticmethod
    def _system(rng, n=40):
        # rows scaled over three decades: the eigenvalues of diag(d) B lie
        # near those of B, about 3 within a disc of radius 1, but its columns
        # are far from orthogonal
        d = np.logspace(0, 3, n)
        B = rng.standard_normal((n, n)) / np.sqrt(n) + 3.0 * np.eye(n)
        return d[:, None] * B, rng.standard_normal(n), d

    @staticmethod
    def _counting(A, products):
        return lambda x: products.append(1) or A @ x

    @pytest.mark.parametrize("precond", ["identity", "row_scale"])
    def test_matches_dense_solve(self, rng, precond):
        # right preconditioning by the row scale d solves with diag(d) B
        # diag(1/d), which is similar to B; the answer must not depend on it
        A, g, d = self._system(rng)
        psolve = (lambda v: v) if precond == "identity" else (lambda v: v / d)
        x, res = _gmres(lambda v: A @ v, psolve, g, rng.standard_normal(g.size), 1e-12)
        want = np.linalg.solve(A, g)
        assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)
        assert res <= 1e-12 * np.linalg.norm(g)

    def test_returns_true_residual(self, rng):
        A, g, d = self._system(rng)
        x, res = _gmres(lambda v: A @ v, lambda v: v / d, g, rng.standard_normal(g.size),
                        1e-6)
        assert res == np.linalg.norm(g - A @ x)

    def test_start_at_answer_costs_one_product(self, rng):
        A, g, d = self._system(rng)
        x0 = np.linalg.solve(A, g)
        products = []
        x, res = _gmres(self._counting(A, products), lambda v: v / d, g, x0, 1e-8)
        assert x is x0
        assert len(products) == 1
        assert res == np.linalg.norm(g - A @ x0)

    def test_short_restart_reports_unconverged(self, rng):
        # two steps cannot reach 1e-10 on a system of 40 unknowns: the
        # residual comes back above tol ||g||, so the caller falls back,
        # and still below the start's, since GMRES minimizes it
        A, g, _ = self._system(rng)
        x0 = np.zeros_like(g)
        products = []
        x, res = _gmres(self._counting(A, products), lambda v: v, g, x0, 1e-10,
                        restart=2)
        assert res == np.linalg.norm(g - A @ x)
        assert 1e-10 * np.linalg.norm(g) < res < np.linalg.norm(g)
        assert len(products) == 4  # start, two steps, returned residual

    def test_start_worse_than_zero_is_dropped(self, rng):
        # x0 = -10 x* leaves the residual 11 g; two steps from it end at
        # 3.2 ||g||, two steps from zero at most at ||g||.  The guard reuses
        # the start's residual, so the products stay at four
        n = 40
        A = np.diag(np.linspace(1.0, 50.0, n)) + 0.1 * rng.standard_normal((n, n))
        g = rng.standard_normal(n)
        x0 = -10.0 * np.linalg.solve(A, g)
        products = []
        x, res = _gmres(self._counting(A, products), lambda v: v, g, x0, 1e-10,
                        restart=2)
        assert res == np.linalg.norm(g - A @ x)
        assert res <= np.linalg.norm(g)
        assert len(products) == 4

    def test_breakdown_on_identity_plus_rank_one(self, rng):
        # A = I + u v^T maps g = 2u to (1 + v.u) g, so the Krylov space of g
        # is one-dimensional: the second basis vector is exactly zero, and
        # with tol 0 only the breakdown can end the cycle before its restart
        n = 30
        u = np.zeros(n)
        u[0] = 1.0
        v = rng.standard_normal(n)
        A = np.eye(n) + np.outer(u, v)
        g = 2.0 * u
        products = []
        x, res = _gmres(self._counting(A, products), lambda w: w, g, np.zeros(n), 0.0)
        assert np.all(np.isfinite(x))
        assert len(products) == 3  # start, one step, returned residual
        assert np.allclose(x, g / (1.0 + v[0]), rtol=1e-14, atol=0)
        assert res <= 1e-15 * np.linalg.norm(g)

    def test_null_direction_returns_the_start(self):
        # A maps the start's residual to zero, so the first column of the
        # Hessenberg matrix vanishes: no step can lower the residual, and the
        # start comes back with it, unconverged and without a NaN
        A = np.diag([0.0, 1.0, 2.0])
        g = np.array([1.0, 0.0, 0.0])
        x0 = np.zeros(3)
        x, res = _gmres(lambda v: A @ v, lambda v: v, g, x0, 1e-8)
        assert x is x0
        assert res == 1.0

    def test_zero_right_hand_side_gives_zero(self, rng):
        A, g, _ = self._system(rng)
        x, res = _gmres(lambda v: A @ v, lambda v: v, np.zeros_like(g), g, 1e-8)
        assert not x.any() and res == 0.0


def spd_tt_matrix(rng, dims):
    """Diagonally dominant dense SPD matrix compressed into TT form."""
    N = int(np.prod(dims))
    M = rng.standard_normal((N, N))
    M = M @ M.T / N + 3.0 * np.eye(N)
    fused = from_full(M.reshape(dims[0], dims[1], dims[2],
                                    dims[0], dims[1], dims[2])
                          .transpose(0, 3, 1, 4, 2, 5)
                          .reshape(dims[0] * dims[0],
                                   dims[1] * dims[1],
                                   dims[2] * dims[2]),
                          1e-13)
    return unfuse(fused, dims, dims)


class TestAmenSolve:
    def test_scalar_identity_system(self):
        dims = (3, 3, 3)
        A = identity(dims)
        ones = TTTensor.rank_one([np.ones(3)] * 3)
        b = 2.0 * ones
        # one call solves (A + I) v = b + v_prev: rank one, so exactly
        v = amen_solve_shifted(A, b, ones, 1.0, Accuracy(1e-12))
        assert np.allclose(full(v), 1.5, atol=1e-10)

    def test_dense_solve_oracle(self, rng):
        # calls iterated with v_prev <- v, as policy_iterate makes them,
        # reach the dense solution of A v = b: with the spectrum of A in the
        # right half plane, mu (A + mu I)^-1 is a contraction
        dims = (4, 4, 4)
        A = random_tt_matrix(rng, dims, [1, 2, 2, 1]) + 16.0 * identity(dims)
        b = TTTensor.random(dims, [1, 2, 2, 1], rng)
        v = TTTensor.random(dims, [1, 2, 2, 1], rng)
        assert np.linalg.eigvals(full(A)).real.min() > 0
        want = np.linalg.solve(full(A), full(b).reshape(-1))
        for _ in range(20):
            v = amen_solve_shifted(A, b, v, 0.5, Accuracy(1e-10))
        got = full(v).reshape(-1)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_degenerate_operator_with_shift(self, rng):
        # operator with a constant-vector nullspace, like the drift Galerkin
        # matrix: solvable only thanks to the shift
        dims = (3, 3)
        N = 9
        M = rng.standard_normal((N, N))
        ones = np.ones(N) / 3.0
        M = M - np.outer(M @ ones, ones) / (ones @ ones)  # kill e direction
        M = M.T @ M  # PSD with the same nullspace
        fused = from_full(
            M.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9),
            1e-13,
        )
        A = unfuse(fused, dims, dims)
        b = TTTensor.random(dims, [1, 2, 1], rng)
        v_prev = TTTensor.zeros(dims)
        # the enrichment fills the left frame to the full mode size 3, so
        # one call solves the last block in the whole space: exactly
        v = amen_solve_shifted(A, b, v_prev, 1.0, Accuracy(1e-10))
        want = np.linalg.solve(M + np.eye(N), full(b).reshape(-1))
        assert np.allclose(full(v).reshape(-1), want, atol=1e-7)

    def test_enrichment_follows_seed(self, rng):
        # from a rank-1 start one sweep's ranks come from the residual
        # sketch, so its draw shows in the iterate
        dims = (5, 5, 5, 5)
        A = random_tt_matrix(rng, dims, [1, 2, 2, 2, 1]) + 8.0 * identity(dims)
        b = TTTensor.random(dims, [1, 4, 4, 4, 1], rng)
        v_prev = TTTensor.rank_one([np.ones(5)] * 4)

        def solve(**kwargs):
            return full(amen_solve_shifted(A, b, v_prev, 0.5, Accuracy(1e-10), **kwargs))

        zero, three = solve(seed=0), solve(seed=3)
        assert np.array_equal(solve(), zero)
        assert np.linalg.norm(zero - three) > 0.1 * np.linalg.norm(zero)

    def test_negative_shift_rejected(self, rng):
        dims = (3, 3)
        A = identity(dims)
        b = TTTensor.random(dims, [1, 2, 1], rng)
        with pytest.raises(ValueError):
            amen_solve_shifted(A, b, b, -1.0, Accuracy(1e-10))

    @pytest.mark.parametrize("calls", [1, 3])
    def test_one_dimensional_dense_oracle(self, rng, calls):
        # d = 1 runs the general sweep: one local solve of the whole system,
        # so each call is the dense shifted step v <- (A + mu I)^-1 (b + mu v)
        n, mu = 5, 0.5
        A = random_tt_matrix(rng, (n,), [1, 1]) + 8.0 * identity((n,))
        b = TTTensor.random((n,), [1, 1], rng)
        v = TTTensor.random((n,), [1, 1], rng)
        want = full(v)
        for _ in range(calls):
            v = amen_solve_shifted(A, b, v, mu, Accuracy(1e-12))
            want = np.linalg.solve(full(A) + mu * np.eye(n), full(b) + mu * want)
        assert np.linalg.norm(full(v) - want) <= 1e-12 * np.linalg.norm(want)

    def test_monotone_residual_on_spd(self, rng):
        # on SPD A each unshifted call, from the last call's v, minimizes the
        # energy error ||v - v*||_A, i.e. the residual in the A^{-1}-norm; it
        # may rise only by the truncation at delta, and the 2-norm residual
        # carries no such guarantee
        dims = (3, 3, 3)
        A = spd_tt_matrix(rng, dims)
        b = TTTensor.random(dims, [1, 2, 2, 1], rng)
        v = TTTensor.zeros(dims)
        acc = Accuracy(1e-12)
        Ad = full(A)
        want = np.linalg.solve(Ad, full(b).reshape(-1))

        def energy(x):
            return np.sqrt(x @ Ad @ x)

        floor = acc.delta * energy(want)
        errs = []
        for _ in range(4):
            v = amen_solve_shifted(A, b, v, 0.0, acc)
            errs.append(energy(full(v).reshape(-1) - want))
        for prev, cur in zip(errs, errs[1:]):
            assert cur <= prev + floor
        assert errs[0] > floor
        assert errs[-1] <= floor

    def test_enrichment_escapes_rank_starved_start(self, rng):
        # rank-1 start for T (x) I + I (x) T with a rank-3 right-hand side, so
        # the solution has rank above 3. After one sweep the left frame is
        # the rank-1 local solution plus rho residual directions; the last
        # block is solved exactly in it. The residual directions leave an
        # energy error near 0.23; zeroed enrichment columns (completed by
        # QR with arbitrary directions) leave 0.63.
        n = 20
        M = rng.standard_normal((n, n))
        T = M @ M.T / n + 0.5 * np.eye(n)
        eye = np.eye(n)
        A = TTMatrix([np.stack([T, eye], axis=-1)[None], np.stack([eye, T])[..., None]])
        b = TTTensor.random((n, n), [1, 3, 1], rng)
        v_prev = TTTensor.random((n, n), [1, 1, 1], rng)
        Ad = full(A)
        want = np.linalg.solve(Ad, full(b).reshape(-1))

        def energy(x):
            return np.sqrt(x @ Ad @ x)

        v = amen_solve_shifted(A, b, v_prev, 0.0, Accuracy(1e-10))
        assert energy(full(v).reshape(-1) - want) <= 0.4 * energy(want)

    def test_contractive_fixed_point_map(self, rng):
        # spectral radius of mu (A + mu I)^{-1} < 1 when Re(eig A) >= 0
        N = 12
        M = rng.standard_normal((N, N))
        M = M - (np.min(np.linalg.eigvals(M).real) - 0.1) * np.eye(N)
        for mu in (0.5, 5.0, 50.0):
            G = mu * np.linalg.inv(M + mu * np.eye(N))
            assert np.max(np.abs(np.linalg.eigvals(G))) < 1.0


class TestSolveStats:
    @staticmethod
    def _system(rng, scale=1.0):
        dims = (4, 3, 5)
        A = random_tt_matrix(rng, dims, [1, 2, 3, 1]) + 8.0 * identity(dims)
        b = TTTensor.random(dims, [1, 2, 2, 1], rng)
        v_prev = TTTensor.random(dims, [1, 3, 2, 1], rng)
        return A, scale * b, scale * v_prev

    def test_dense_solves_are_exact(self, rng):
        stats = {}
        v = amen_solve_shifted(*self._system(rng), 0.5, Accuracy(1e-10), stats=stats)
        assert isinstance(v, TTTensor)
        assert stats["gmres_fallbacks"] == stats["gmres_unconverged"] == 0
        assert 0.0 <= stats["max_local_res"] <= 1e-12

    @pytest.mark.parametrize("dense_limit", [2000, 0], ids=["fallback", "unconverged"])
    def test_stalled_gmres_is_counted(self, rng, monkeypatch, dense_limit):
        # every local system goes to a GMRES that stops at once and returns
        # zero with its true residual ||g||: within _DENSE_LIMIT each is
        # redone by dense LU, above it each keeps the zero iterate, whose
        # residual is reported relative to ||g||, so it does not change when
        # the system is scaled
        def stalled(matvec, psolve, g, x0, tol, restart=60):
            x = np.zeros_like(g)
            return x, float(np.linalg.norm(g - matvec(x)))

        monkeypatch.setattr(amen, "_GMRES_CROSSOVER", 0)
        monkeypatch.setattr(amen, "_DENSE_LIMIT", dense_limit)
        monkeypatch.setattr(amen, "_gmres", stalled)
        runs = []
        for scale in (1.0, 1e6):
            stats = {}
            amen_solve_shifted(*self._system(np.random.default_rng(3), scale), 0.5,
                               Accuracy(1e-10), stats=stats)
            runs.append(stats)
        solves = 3
        for stats in runs:
            if dense_limit:
                assert stats["gmres_fallbacks"] == solves
                assert stats["gmres_unconverged"] == 0
                assert stats["max_local_res"] <= 1e-12
            else:
                assert stats["gmres_fallbacks"] == 0
                assert stats["gmres_unconverged"] == solves
                assert stats["max_local_res"] > 1e-3
        if not dense_limit:
            assert runs[1]["max_local_res"] == pytest.approx(runs[0]["max_local_res"],
                                                             rel=1e-6)


class TestNoTensordot:
    def test_sweep_and_tt_carries_make_no_tensordot_call(self, rng, monkeypatch):
        """np.tensordot's argument handling cost several times the small
        products of a sweep; the sweep kernels and the TT carries use reshape
        and matrix products instead."""
        calls = []
        tensordot = np.tensordot

        def counting(*args, **kwargs):
            calls.append(1)
            return tensordot(*args, **kwargs)

        monkeypatch.setattr(np, "tensordot", counting)
        a = np.ones((2, 2))
        np.tensordot(a, a, axes=1)
        assert len(calls) == 1  # the counter sees calls through numpy
        calls.clear()
        dims = (4, 3, 5)
        A = random_tt_matrix(rng, dims, [1, 2, 3, 1]) + 8.0 * identity(dims)
        b = TTTensor.random(dims, [1, 2, 2, 1], rng)
        for crossover in (amen._GMRES_CROSSOVER, 0):
            # dense local solves, then every local solve through GMRES; the
            # second call starts from the first's iterate
            monkeypatch.setattr(amen, "_GMRES_CROSSOVER", crossover)
            v = b
            for _ in range(2):
                v = amen_solve_shifted(A, b, v, 0.5, Accuracy(1e-10))
        tt_round(v + b, Accuracy(1e-10))
        tt_norm(v - b)
        tt_dot(v, b)
        tt_matvec(A, v)
        tt_round(A + A, Accuracy(1e-10))  # an operator's carries
        assert calls == []


class TestNoNumpyFactorizations:
    def test_solve_path_calls_lapack_directly(self, rng, monkeypatch):
        """np.linalg's qr, svd and solve cost about twice their LAPACK calls
        at the ranks of a sweep; the solve path calls LAPACK directly."""
        calls = []
        for name in ("qr", "svd", "solve"):
            def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        a = np.eye(2)
        np.linalg.qr(a)
        np.linalg.svd(a)
        np.linalg.solve(a, a)
        assert calls == ["qr", "svd", "solve"]  # the counters see calls through numpy
        calls.clear()
        dims = (4, 3, 5)
        A = random_tt_matrix(rng, dims, [1, 2, 3, 1]) + 8.0 * identity(dims)
        b = TTTensor.random(dims, [1, 2, 2, 1], rng)
        for crossover in (amen._GMRES_CROSSOVER, 0):
            # dense local solves, then every local solve through GMRES; the
            # second call starts from the first's iterate
            monkeypatch.setattr(amen, "_GMRES_CROSSOVER", crossover)
            v = b
            for _ in range(2):
                v = amen_solve_shifted(A, b, v, 0.5, Accuracy(1e-10))
        tt_round(v + b, Accuracy(1e-10))
        tt_norm(v - b)
        orthogonalize_right(v)
        system = _build_system(lq(4), build_basis(3, 1.0), SolverConfig(n=3, max_rank=1))
        # the quadratic penalty and the operator, whose middle summed rank
        # 4 + 20 is over max_rank 1 + 20, are both sketched
        sketches = []
        sketch = tt._sketch
        monkeypatch.setattr(tt, "_sketch", lambda *args: sketches.append(1) or sketch(*args))
        system.rhs(TTTensor.random((system.basis.m,) * 4, [1, 5, 5, 5, 1], rng))
        system.operator(TTTensor.random((system.basis.m,) * 4, [1, 6, 20, 6, 1], rng))
        assert len(sketches) >= 2
        t = TTTensor.random((5,) * 4, [1, 3, 3, 3, 1], rng)
        tt_cross(t, lambda s: s, Accuracy(1e-12))
        _, state = policy_iterate(lq(3), SolverConfig(delta=1e-4, n=3, max_policy_iters=2))
        assert len(state.history) == 2
        assert calls == []


class TestNoScipyGmres:
    def test_local_systems_use_the_module_gmres(self, rng, monkeypatch):
        """scipy's gmres spent about a third of its time in its own Python at
        the sizes of a sweep; every local GMRES runs amen._gmres instead."""
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.sparse.linalg.gmres called")

        monkeypatch.setattr(scipy.sparse.linalg, "gmres", refuse)
        assert "scipy" not in vars(amen)
        calls = []
        gmres = amen._gmres
        monkeypatch.setattr(amen, "_gmres",
                            lambda *args, **kwargs: calls.append(1) or gmres(*args, **kwargs))
        monkeypatch.setattr(amen, "_GMRES_CROSSOVER", 0)
        dims = (4, 3, 5)
        A = random_tt_matrix(rng, dims, [1, 2, 3, 1]) + 24.0 * identity(dims)
        b = TTTensor.random(dims, [1, 2, 2, 1], rng)
        # calls iterated with v_prev <- v reach the dense solution of A v = b
        assert np.linalg.eigvals(full(A)).real.min() > 0
        v, calls_made = b, 20
        for _ in range(calls_made):
            stats = {}
            v = amen_solve_shifted(A, b, v, 0.5, Accuracy(1e-10), stats=stats)
            assert stats["gmres_fallbacks"] == stats["gmres_unconverged"] == 0
        assert len(calls) == 3 * calls_made
        want = np.linalg.solve(full(A), full(b).reshape(-1))
        got = full(v).reshape(-1)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
