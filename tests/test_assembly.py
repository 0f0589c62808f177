import dataclasses
import itertools

import numpy as np
import pytest

from tthjb import assembly, tt
from tthjb.assembly import (
    ControlPenalty,
    GalerkinSystem,
    _coupling,
    assemble_drift,
    control_map,
    penalty_cost,
    project_to_basis,
)
from tthjb.basis import build_basis
from tthjb.cross import tt_cross
from tthjb.models import ControlledDynamics, allen_cahn_1d, fokker_planck, lq
from tthjb.tt import (Accuracy, TTMatrix, TTTensor, _product_term, _tt_term, tt_hadamard,
                      tt_matvec, tt_norm, tt_scale)

from dense_oracle import field_sum, from_full, full

ACC = Accuracy(1e-12)


def nodal_tt(func, basis, d):
    """Rank-adapted TT of a separable-in-no-way function via dense sampling."""
    grids = np.meshgrid(*([basis.nodes] * d), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    return from_full(func(pts).reshape((basis.m,) * d), ACC.delta)


def grid_points(basis, d):
    """The nodal grid as points (m^d, d), first axis slowest."""
    return np.stack([g.reshape(-1) for g in
                     np.meshgrid(*([basis.nodes] * d), indexing="ij")], axis=1)


def dense_drift_oracle(f_funcs, basis, d):
    """Brute-force quadrature of the advection form, entry by entry.

    A(i, j) = -sum_p integral f_p(x) d/dx_p Phi_j(x) Phi_i(x) dx over the
    tensor quadrature grid.
    """
    n, m = basis.n, basis.m
    N = n**d
    A = np.zeros((N, N))
    pts = grid_points(basis, d)
    wgrid = np.meshgrid(*([basis.weights] * d), indexing="ij")
    w = np.prod(np.stack([g.reshape(-1) for g in wgrid], axis=1), axis=1)
    multi = list(itertools.product(range(n), repeat=d))
    # per-dimension tables indexed by the quadrature index along that axis
    qidx = np.stack(np.meshgrid(*([np.arange(m)] * d), indexing="ij"),
                    axis=-1).reshape(-1, d)
    for jj, mj in enumerate(multi):
        for p in range(d):
            dphi_j = np.ones(len(pts))
            for q in range(d):
                table = basis.dphi if q == p else basis.phi
                dphi_j = dphi_j * table[qidx[:, q], mj[q]]
            fp = f_funcs[p](pts)
            for ii, mi in enumerate(multi):
                phi_i = np.ones(len(pts))
                for q in range(d):
                    phi_i = phi_i * basis.phi[qidx[:, q], mi[q]]
                A[ii, jj] -= np.sum(w * fp * dphi_j * phi_i)
    return A


CHANNEL_FORMS = ("constant", "affine")


def channel_model(form, d, rng):
    """A model with the channel g = B0 (constant) or g = B0 + M x (affine)."""
    return ControlledDynamics(
        name=form, a=1.0, penalty=ControlPenalty(gamma=1.0),
        lin_A=rng.standard_normal((d, d)), lin_B=rng.standard_normal((d, 1)),
        cost_matrix=np.eye(d), admissible_uncontrolled=True, cubic=1.0,
        channel_slope=None if form == "constant" else rng.standard_normal((d, d)))


def channel_funcs(model):
    return [lambda pts, p=p: model.channel_eval(pts)[:, p] for p in range(model.dim)]


class TestDriftAssembly:
    def test_d1_constant_velocity(self):
        basis = build_basis(2, 1.0)
        one = np.ones(basis.m)
        A = full(assemble_drift([([one], [one])], basis, ACC))
        want = np.array([[0.0, -np.sqrt(3.0)], [0.0, 0.0]])
        assert np.allclose(A, want, atol=1e-12)

    def test_zero_velocity(self):
        basis = build_basis(3, 1.0)
        one, zero = np.ones(basis.m), np.zeros(basis.m)
        A = assemble_drift([([one, one], [zero, zero])], basis, ACC)
        assert np.allclose(full(A), 0.0, atol=1e-14)

    def test_dense_quadrature_oracle_d3(self):
        basis = build_basis(3, 1.0)
        funcs = [lambda p: p[:, 0], lambda p: np.sin(p[:, 1]),
                 lambda p: p[:, 0] * p[:, 2]]
        x, one, zero = basis.nodes, np.ones(basis.m), np.zeros(basis.m)
        # (x_0, sin x_1, 0) and (0, 0, x_0 x_2)
        fields = [([one] * 3, [x, np.sin(x), zero]), ([x, one, one], [zero, zero, x])]
        A = full(assemble_drift(fields, basis, ACC))
        want = dense_drift_oracle(funcs, basis, 3)
        assert np.allclose(A, want, atol=1e-10)

    def test_constant_mode_annihilation(self, rng):
        basis = build_basis(4, 2.0)
        d = 3
        fields = [tuple([rng.standard_normal(basis.m) for _ in range(d)] for _ in range(2))
                  for _ in range(3)]
        A = assemble_drift(fields, basis, ACC)
        e0 = TTTensor.rank_one([np.eye(basis.n, 1).reshape(-1)] * d)
        assert tt_norm(tt_matvec(A, e0)) <= 1e-10 * tt_norm(A)

    @pytest.mark.parametrize("form", CHANNEL_FORMS)
    def test_channel_fields_dense_oracle(self, rng, form):
        basis = build_basis(3, 1.0)
        model = channel_model(form, 3, rng)
        A = full(assemble_drift(model.channel_builder([basis.nodes] * 3), basis, ACC))
        want = dense_drift_oracle(channel_funcs(model), basis, 3)
        assert np.allclose(A, want, atol=1e-10)


# name: (model, basis size n); fokker_planck(8) is d = 7, dense only at n = 2
MODELS = {"lq4": (lambda: lq(4), 3), "ac5": (lambda: allen_cahn_1d(5), 3),
          "fp8": (lambda: fokker_planck(8), 2)}


class TestFieldsChain:
    """The one chain of all the flag fields, weighted in one batch, against
    the per-field sum of rank-2 chains (dense_oracle.field_sum): lq's
    column fields, Allen-Cahn's cubic field, Fokker-Planck's affine channel."""

    @staticmethod
    def _cases(model, basis):
        grids = [basis.nodes] * model.dim
        return (("drift", model.f_tt_builder(grids), basis.wphi, -1.0,
                 assemble_drift(model.f_tt_builder(grids), basis, ACC)),
                ("bmap", model.channel_builder(grids), np.eye(basis.m), -0.5 / model.gamma,
                 control_map(model.channel_builder(grids), basis, model.gamma, ACC)))

    @pytest.mark.parametrize("name", list(MODELS))
    def test_rounded_operators_match_the_per_field_sum(self, name):
        make, n = MODELS[name]
        model = make()
        basis = build_basis(n, model.a)
        for what, fields, test, scale, got in self._cases(model, basis):
            want = tt.tt_scale(tt.tt_round(field_sum(fields, test, basis.phi, basis.dphi), ACC),
                               scale)
            assert got.ranks == want.ranks, what
            G, W = full(got), full(want)
            assert np.abs(G - W).max() <= 1e-13 * np.abs(W).max(), what

    @pytest.mark.parametrize("name", list(MODELS))
    def test_exact_chain_has_rank_twice_the_fields(self, name):
        make, n = MODELS[name]
        model = make()
        basis = build_basis(n, model.a)
        for what, fields, test, _, _ in self._cases(model, basis):
            got = assembly._fields_chain(fields, test, basis.phi, basis.dphi)
            assert got.ranks == (1,) + (2 * len(fields),) * (model.dim - 1) + (1,), what
            W = full(field_sum(fields, test, basis.phi, basis.dphi))
            assert np.abs(full(got) - W).max() <= 1e-13 * np.abs(W).max(), what


class TestRhsProjection:
    def test_zero(self):
        basis = build_basis(3, 1.0)
        z = TTTensor.zeros((basis.m, basis.m))
        assert tt_norm(project_to_basis(z, basis)) == 0.0

    def test_x_squared_analytic(self):
        basis = build_basis(3, 1.0)
        ell = TTTensor.rank_one([basis.nodes**2])
        b = full(project_to_basis(ell, basis))
        assert np.allclose(b, [np.sqrt(2.0) / 3.0, 0.0, 2.0 / 3.0 * np.sqrt(0.4)],
                           atol=1e-12)

    def test_dense_oracle_d2(self, rng):
        basis = build_basis(4, 1.5)

        def func(p):
            return np.exp(-p[:, 0] ** 2) * np.cos(p[:, 1])

        t = nodal_tt(func, basis, 2)
        got = full(project_to_basis(t, basis))
        want = np.zeros((basis.n, basis.n))
        for i in range(basis.n):
            for j in range(basis.n):
                vals = np.outer(basis.phi[:, i] * basis.weights,
                                basis.phi[:, j] * basis.weights)
                grid = func(np.stack([g.reshape(-1) for g in
                                      np.meshgrid(basis.nodes, basis.nodes,
                                                  indexing="ij")], axis=1))
                want[i, j] = np.sum(vals.reshape(-1) * grid)
        assert np.allclose(got, want, atol=1e-10)


class TestControlMap:
    def test_zero_channel(self):
        basis = build_basis(3, 1.0)
        one, zero = np.ones(basis.m), np.zeros(basis.m)
        bmap = control_map([([one, one], [zero, zero])], basis, 0.5, ACC)
        v = TTTensor.random((basis.n, basis.n), [1, 2, 1], np.random.default_rng(0))
        assert tt_norm(tt_matvec(bmap, v)) <= 1e-14

    def test_quadratic_value_gives_linear_feedback(self):
        gamma = 0.25
        basis = build_basis(4, 1.0)
        one = np.ones(basis.m)
        bmap = control_map([([one], [one])], basis, gamma, ACC)
        coeffs = basis.phi.T @ (basis.weights * basis.nodes**2)
        v = TTTensor.rank_one([coeffs])
        u = full(tt_matvec(bmap, v))
        assert np.allclose(u, -basis.nodes / gamma, atol=1e-10)

    def test_dense_oracle_d3(self, rng):
        gamma = 0.1
        basis = build_basis(3, 1.0)
        v = TTTensor.random((basis.n,) * 3, [1, 2, 2, 1], rng)
        # oracle: -(1/2 gamma) sum_p g_p(x) dV/dx_p evaluated on the nodal grid
        from tthjb.policy import ValueFunction

        pts = grid_points(basis, 3)
        grads, _ = ValueFunction(v, basis).gradient(pts)
        for form in CHANNEL_FORMS:
            model = channel_model(form, 3, rng)
            want = -(0.5 / gamma) * np.sum(model.channel_eval(pts) * grads, axis=1)
            bmap = control_map(model.channel_builder([basis.nodes] * 3), basis, gamma, ACC)
            got = full(tt_matvec(bmap, v)).reshape(-1)
            assert np.allclose(got, want, atol=1e-10), form


class TestConstraint:
    def test_zero_input(self):
        basis = build_basis(3, 1.0)
        pen = ControlPenalty(gamma=0.1, u_max=2.0)
        u = TTTensor.zeros((basis.m, basis.m))
        res = tt_cross(u, pen.saturate, Accuracy(1e-8))
        assert tt_norm(res.tensor) <= 1e-10

    def test_small_inputs_near_identity(self, rng):
        basis = build_basis(3, 1.0)
        pen = ControlPenalty(gamma=0.1, u_max=10.0)
        vals = 0.1 * rng.standard_normal(basis.m)
        u = TTTensor.rank_one([vals, np.ones(basis.m)])
        res = tt_cross(u, pen.saturate, Accuracy(1e-10))
        idx = np.array(list(itertools.product(range(basis.m), repeat=2)))
        got = res.tensor.eval(idx)
        want = u.eval(idx)
        cap = pen.clip
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
        assert np.all(rel <= (np.abs(want) / cap) ** 2 / 3 + 1e-6)

    def test_bound_and_pointwise_formula(self, rng):
        basis = build_basis(4, 1.0)
        pen = ControlPenalty(gamma=0.1, u_max=2.0)
        d = 3
        u = 10.0 * TTTensor.random((basis.m,) * d, [1, 2, 2, 1], rng)
        res = tt_cross(u, pen.saturate, Accuracy(1e-6), seed=3)
        idx = rng.integers(0, basis.m, size=(1000, d))
        got = res.tensor.eval(idx)
        cap = pen.clip
        want = cap * np.tanh(u.eval(idx) / cap)
        assert np.max(np.abs(got)) <= 2.0
        assert np.max(np.abs(got - want)) <= 1e-3


class TestPenaltyCost:
    def test_quadratic(self):
        pen = ControlPenalty(gamma=0.3)
        u = np.linspace(-2, 2, 9)
        assert np.allclose(penalty_cost(u, pen), 0.3 * u**2)

    def test_tanh_matches_quadrature_oracle(self):
        from scipy.integrate import quad

        pen = ControlPenalty(gamma=0.2, u_max=2.0)
        for u in (0.0, 0.5, -1.3, 1.9):
            want = 2.0 * pen.gamma * quad(
                lambda s: pen.u_max * np.arctanh(s / pen.u_max), 0.0, u
            )[0]
            assert np.isclose(penalty_cost(u, pen), want, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlPenalty(gamma=-1.0)
        with pytest.raises(ValueError):
            ControlPenalty(gamma=1.0, u_max=0.0)
        for bad in (np.nan, np.inf, True):
            with pytest.raises(ValueError):
                ControlPenalty(gamma=bad)
            with pytest.raises(ValueError):
                ControlPenalty(gamma=1.0, u_max=bad)


class TestCoupling:
    def test_matches_drift_of_gu(self, rng):
        # 2 gamma wphi^T diag(u) bmap against the dense quadrature of the
        # velocity g(x) u(x); gamma != 1 checks that the control map's
        # -1 / 2 gamma is undone
        basis, gamma = build_basis(3, 1.0), 0.3
        wphi = basis.weights[:, None] * basis.phi
        for d, form in itertools.product((1, 2, 3), CHANNEL_FORMS):
            model = channel_model(form, d, rng)
            u = TTTensor.random((basis.m,) * d, [1] + [2] * (d - 1) + [1], rng)
            u_vals = full(u).reshape(-1)
            want = dense_drift_oracle([lambda pts, f=f: f(pts) * u_vals
                                       for f in channel_funcs(model)], basis, d)
            bmap = control_map(model.channel_builder([basis.nodes] * d), basis, gamma, ACC)
            C = full(_coupling(bmap, tt_scale(u, 2.0 * gamma), wphi))
            assert np.allclose(C, want, atol=1e-10), (d, form)

    def test_rank_propagation(self, rng):
        # each block meets one block of u and one of the control map along
        # the nodes, so the ranks multiply, whatever u
        basis = build_basis(3, 1.0)
        u = TTTensor.random((basis.m,) * 3, [1, 3, 2, 1], rng)
        for form in CHANNEL_FORMS:
            model = channel_model(form, 3, rng)
            bmap = control_map(model.channel_builder([basis.nodes] * 3), basis, 1.0, ACC)
            C = _coupling(bmap, u, basis.phi)
            assert C.ranks == tuple(a * b for a, b in zip(u.ranks, bmap.ranks)), form

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_operator_of_state_dependent_channel(self, rng, d):
        # drift f = A x - x^3 and channel g = B0 + M x against the dense
        # quadrature of drift + sum_p W(g_p u d/dx_p)
        from tthjb.models import ControlledDynamics
        from tthjb.policy import SolverConfig, _build_system

        model = ControlledDynamics(
            name="affine", a=1.0, penalty=ControlPenalty(gamma=1.0),
            lin_A=rng.standard_normal((d, d)), lin_B=rng.standard_normal((d, 1)),
            cost_matrix=np.eye(d), admissible_uncontrolled=True, cubic=1.0,
            channel_slope=rng.standard_normal((d, d)))
        basis = build_basis(3, 1.0)
        system = _build_system(model, basis, SolverConfig(delta=1e-10, n=3))
        u = TTTensor.random((basis.m,) * d, [1] + [2] * (d - 1) + [1], rng)
        u_vals = full(u).reshape(-1)

        def velocity(p):
            return lambda pts: (model.drift(pts)[:, p]
                                + model.channel_eval(pts)[:, p] * u_vals)

        want = dense_drift_oracle([velocity(p) for p in range(d)], basis, d)
        A = full(system.operator(u))
        assert np.linalg.norm(A - want) <= 1e-10 * np.linalg.norm(want)


def channel_system(form, d, rng, acc, seed=0):
    """The system of channel_model(form, d) on three Legendre modes, with the
    operator rounded to acc."""
    from tthjb.policy import SolverConfig, _build_system

    system = _build_system(channel_model(form, d, rng), build_basis(3, 1.0), SolverConfig(n=3))
    return dataclasses.replace(system, acc=acc, seed=seed)


def sketch_ranks(monkeypatch):
    """The sketch ranks of every sketch the operator runs, in order."""
    ranks = []
    original = tt._sketch
    monkeypatch.setattr(tt, "_sketch", lambda terms, like, ell, rng: ranks.append(list(ell))
                        or original(terms, like, ell, rng))
    return ranks


def same_bits(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))


class TestProductTerm:
    """tt._product_term against _tt_term of the formed product, for its three
    uses: the penalty gamma P(u * u), the coupling of each channel form and
    A v with unequal mode sizes."""

    @staticmethod
    def _case(product, d, rng):
        """(the product term, the formed product in its rank order)."""
        ranks = [1] + [3] * (d - 1) + [1]
        if product == "matvec":
            rows, cols = (2, 3, 4)[:d], (3, 4, 2)[:d]
            A = TTMatrix([rng.standard_normal((ranks[k], rows[k], cols[k], ranks[k + 1]))
                          for k in range(d)])
            v = TTTensor.random(cols, ranks, rng)
            term = _product_term(v, [blk.transpose(0, 2, 1, 3) for blk in A.blocks],
                                 [np.ones((n, 1)) for n in cols])
            # A and v share their ranks; tt_matvec's rank index is (A's, v's),
            # the term's (v's, A's)
            return term, TTTensor([blk.reshape(r0, r0, n, r1, r1).transpose(1, 0, 2, 4, 3)
                                   .reshape(r0 * r0, n, r1 * r1) for blk, r0, n, r1
                                   in zip(tt_matvec(A, v).blocks, ranks, rows, ranks[1:])])
        if product == "square":
            basis = build_basis(2, 1.0)
            u = TTTensor.random((basis.m,) * d, ranks, rng)
            term = _product_term(tt_scale(u, 0.7), [blk[:, :, None] for blk in u.blocks],
                                 [basis.wphi] * d)
            return term, project_to_basis(tt_hadamard(tt_scale(u, 0.7), u), basis)
        system = channel_system(product.split("-")[1], d, rng, ACC)
        u = TTTensor.random((system.basis.m,) * d, ranks, rng)
        term = _product_term(u, system.bmap.blocks, [system.basis.wphi] * d)
        return term, _coupling(system.bmap, u, system.basis.wphi)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("product", ["square", "matvec",
                                         *(f"coupling-{form}" for form in CHANNEL_FORMS)])
    def test_maps_match_the_formed_product(self, rng, d, product):
        (right, left), formed = self._case(product, d, rng)
        want_right, want_left = _tt_term(formed)
        for k, blk in enumerate(formed.blocks):
            r0, r1 = blk.shape[0], blk.shape[-1]
            n = blk.size // (r0 * r1)
            w, g = rng.standard_normal((r1, 4)), rng.standard_normal((n, 4, 5))
            f = rng.standard_normal((6, r0))
            for got, want in ((right(k, w, g), want_right(k, w, g)), (left(k, f), want_left(k, f))):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (product, d, k)


class TestOperatorSketch:
    """GalerkinSystem.operator: the exact sum within the cap max_rank + 20,
    one sketch that never forms the coupling over it.

    The affine channel at d = 4 has drift and control map ranks (1, 4, 6, 4,
    1); with u of ranks 5 the summed ranks are (1, 24, 36, 24, 1), and the
    fused modes of 3 x 3 Legendre pairs cap them at (1, 9, 36, 9, 1).
    """

    D, U_RANKS = 4, [1, 5, 5, 5, 1]

    def _u(self, system, rng):
        return TTTensor.random((system.basis.m,) * self.D, self.U_RANKS, rng)

    @pytest.mark.parametrize("max_rank, ell", [(4, [1, 9, 24, 9, 1]), (15, [1, 9, 35, 9, 1])])
    def test_over_the_cap_never_forms_the_coupling(self, rng, monkeypatch, max_rank, ell):
        # the middle summed rank 36 is over max_rank + 20, so the sum is
        # sketched once at the summed ranks capped there
        system = channel_system("affine", self.D, rng, Accuracy(1e-3, max_rank))
        u = self._u(system, rng)
        sketches = sketch_ranks(monkeypatch)

        def no_coupling(*args):
            raise AssertionError("the coupling was formed over the cap")

        monkeypatch.setattr(assembly, "_coupling", no_coupling)
        A = system.operator(u)
        assert sketches == [ell]
        assert A.max_rank <= max_rank

    def test_over_the_cap_returns_c_contiguous_operator_blocks(self, rng):
        # the sketch is built in the drift's (row, col) modes and rounded
        # back to C-contiguous 4-way blocks, so later reshapes stay views
        system = channel_system("affine", self.D, rng, Accuracy(1e-3, max_rank=4))
        A = system.operator(self._u(system, rng))
        assert type(A) is TTMatrix
        assert A.row_dims == system.drift.row_dims and A.col_dims == system.drift.col_dims
        assert all(b.ndim == 4 and b.flags.c_contiguous for b in A.blocks)

    @pytest.mark.parametrize("max_rank", [None, 16])
    def test_within_the_cap_rounds_the_exact_sum(self, rng, monkeypatch, max_rank):
        # the middle summed rank 36 is at max_rank + 20, or there is no cap
        system = channel_system("affine", self.D, rng, Accuracy(1e-3, max_rank))
        u = self._u(system, rng)
        sketches = sketch_ranks(monkeypatch)
        A = system.operator(u)
        coupling = _coupling(system.bmap, tt_scale(u, 2.0 * system.penalty.gamma),
                             system.basis.wphi)
        assert sketches == []
        assert same_bits(A, tt.tt_round(tt.tt_add(system.drift, coupling), system.acc))

    def test_over_the_cap_meets_delta(self, rng, monkeypatch):
        # drift, control map and u whose rank directions decay by 0.03 each:
        # the middle summed rank 4 + 4 * 6 = 28 is over the cap max_rank 7 +
        # 20, so it is sketched at the cap and still meets delta
        basis, d, delta = build_basis(3, 1.0), self.D, 1e-3
        m, n = basis.m, basis.n
        ranks = [1] + [4] * (d - 1) + [1]

        def decaying(rows, cols):
            return TTMatrix([rng.standard_normal((ranks[k], rows, cols, ranks[k + 1]))
                             * 0.03 ** np.arange(ranks[k + 1]) for k in range(d)])

        u = TTTensor([blk * 0.03 ** np.arange(blk.shape[2]) for blk in
                      TTTensor.random((m,) * d, [1] + [6] * (d - 1) + [1], rng).blocks])
        system = GalerkinSystem(basis=basis, drift=decaying(n, n), bmap=decaying(m, n),
                                ell_proj=None, penalty=ControlPenalty(gamma=0.7),
                                acc=Accuracy(delta, max_rank=7))
        sketches = sketch_ranks(monkeypatch)
        A = system.operator(u)
        want = (full(system.drift)
                + full(_coupling(system.bmap, tt_scale(u, 1.4), basis.wphi)))
        assert sketches == [[1, 9, 27, 9, 1]]
        assert np.linalg.norm(full(A) - want) <= 1.25 * delta * np.linalg.norm(want)

    def test_bitwise_repeatable(self, rng):
        system = channel_system("affine", self.D, rng, Accuracy(1e-3, max_rank=10), seed=3)
        u = self._u(system, rng)
        assert same_bits(system.operator(u), system.operator(u))

    def test_ranks_respect_max_rank(self, rng, monkeypatch):
        system = channel_system("affine", self.D, rng, Accuracy(1e-12, max_rank=4))
        u = self._u(system, rng)
        sketches = sketch_ranks(monkeypatch)
        assert system.operator(u).max_rank <= 4
        # no sketch is wider than max_rank plus the oversampling
        assert sketches == [[1, 9, 24, 9, 1]]


class TestHadamardRhs:
    def test_matches_dense_penalty_projection(self, rng):
        # rank 4: the sketch spans the whole range of ell + gamma P(u^2), so
        # b equals it to the rounding accuracy
        from tthjb.models import lq
        from tthjb.policy import SolverConfig, _build_system

        d = 3
        basis = build_basis(3, 1.0)
        system = _build_system(lq(d), basis, SolverConfig(delta=1e-4, n=3))
        u = TTTensor.random((basis.m,) * d, [1, 4, 4, 1], rng)
        b, res = system.rhs(u)
        assert res is None
        pen = from_full(system.penalty.gamma * full(u) ** 2, ACC.delta)
        want = full(system.ell_proj) + full(project_to_basis(pen, basis))
        assert np.linalg.norm(full(b) - want) <= system.acc.delta * np.linalg.norm(want)

    def test_rank_20_never_runs_cross(self, rng, monkeypatch):
        from tthjb import assembly
        from tthjb.models import lq
        from tthjb.policy import SolverConfig, _build_system

        def no_cross(*args, **kwargs):
            raise AssertionError("cross ran on the quadratic penalty")

        monkeypatch.setattr(assembly, "tt_cross", no_cross)
        d = 4
        basis = build_basis(3, 1.0)
        system = _build_system(lq(d), basis, SolverConfig(delta=1e-4, n=3))
        u = TTTensor.random((basis.m,) * d, [1, 6, 20, 6, 1], rng)
        b, res = system.rhs(u)
        assert res is None
        pen = from_full(system.penalty.gamma * full(u) ** 2, ACC.delta)
        want = full(system.ell_proj) + full(project_to_basis(pen, basis))
        assert np.linalg.norm(full(b) - want) <= system.acc.delta * np.linalg.norm(want)


class TestCrossSamplesByInterfaces:
    def test_rhs_and_constraint_never_evaluate_points(self, rng, monkeypatch):
        from tthjb import tt
        from tthjb.models import allen_cahn_1d
        from tthjb.policy import SolverConfig, _build_system

        # the tanh penalty is the one right-hand side that runs cross
        basis = build_basis(3, 1.0)
        system = _build_system(allen_cahn_1d(4, u_max=0.5), basis,
                               SolverConfig(delta=1e-4, n=3))
        u = TTTensor.random((basis.m,) * 4, [1, 6, 13, 6, 1], rng)
        calls = []
        original = tt.TTTensor.eval
        monkeypatch.setattr(tt.TTTensor, "eval",
                            lambda self, idx: calls.append(len(idx)) or original(self, idx))
        u.eval(np.zeros((1, 4), dtype=int))
        assert calls == [1]  # the counter sees a direct call
        calls.clear()
        b, res = system.rhs(u)
        assert res is not None and res.n_evals > 0
        pen = ControlPenalty(gamma=0.1, u_max=0.5)
        res = tt_cross(u, pen.saturate, Accuracy(1e-6))
        assert res.n_evals > 0
        assert calls == []
