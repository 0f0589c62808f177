import numpy as np
import pytest

from tthjb.assembly import ControlPenalty
from tthjb.basis import build_basis
from tthjb.models import ControlledDynamics, allen_cahn_1d, fokker_planck, lq, solve_riccati
from tthjb.cross import _MAX_SWEEPS
from tthjb.policy import (
    _DIVERGENCE_WINDOW,
    _FASTEST_FALL,
    _MIN_SHIFT,
    PolicyDivergence,
    SolverConfig,
    ValueFunction,
    _control,
    _control_value,
    feedback,
    hjb_residual,
    initial_policy,
    policy_iterate,
)
from tthjb.tt import (Accuracy, TTMatrix, TTTensor, flag_chain, quadratic_to_tt, tt_add, tt_dot,
                      tt_norm, tt_round, tt_scale)

from dense_oracle import full


def scalar_unstable_model(u_max=None):
    """dy/dt = y + u with unit quadratic costs; Riccati gives K = 1 + sqrt(2)."""
    return ControlledDynamics(
        name="scalar", a=2.0,
        penalty=ControlPenalty(gamma=1.0, u_max=u_max),
        lin_A=np.array([[1.0]]), lin_B=np.array([[1.0]]), cost_matrix=np.eye(1),
        admissible_uncontrolled=False,
    )


class TestInitialPolicy:
    def test_stable_linear_model_zero_policy(self):
        model = lq(4)
        basis = build_basis(3, model.a)
        u = initial_policy(model, basis)
        assert tt_norm(u) == 0.0

    def test_scalar_unstable_lqr_warm_start(self):
        model = scalar_unstable_model()
        basis = build_basis(4, model.a)
        u = initial_policy(model, basis)
        # u(x) = -K x with K = 1 + sqrt(2)
        want = -(1.0 + np.sqrt(2.0)) * basis.nodes
        assert np.allclose(full(u), want, atol=1e-8)

    def test_unstabilizable_linearization_raises(self):
        # d = 3 actuates only the middle node, which the unstable mode
        # antisymmetric about it does not see
        model = allen_cahn_1d(3)
        with pytest.raises(ValueError, match="supply a custom initial policy"):
            initial_policy(model, build_basis(3, model.a))


class TestValueGradient:
    def test_projected_norm_squared(self):
        basis = build_basis(4, 1.0)
        grids = [basis.nodes] * 3
        from tthjb.assembly import project_to_basis

        v = project_to_basis(quadratic_to_tt(np.eye(3), grids), basis)
        V = ValueFunction(v, basis)
        rng = np.random.default_rng(1)
        X = rng.uniform(-0.8, 0.8, size=(5, 3))
        assert np.allclose(V.gradient(X)[0], 2.0 * X, atol=1e-8)

    def test_constant_value_zero_gradient(self):
        basis = build_basis(3, 1.0)
        v = TTTensor.rank_one([np.eye(3, 1).reshape(-1)] * 4)
        V = ValueFunction(v, basis)
        g, _ = V.gradient(np.array([[0.3, -0.2, 0.5, 0.0]]))
        assert np.max(np.abs(g)) <= 1e-12

    def test_matches_central_differences(self):
        basis = build_basis(5, 1.0)
        rng = np.random.default_rng(4)
        V = ValueFunction(TTTensor.random((5,) * 4, [1, 3, 3, 3, 1], rng), basis)
        X = rng.uniform(-0.9, 0.9, size=(6, 4))
        grads, flags = V.gradient(X)
        h = 1e-5
        fd = np.empty_like(grads)
        for p in range(4):
            e = np.zeros(4)
            e[p] = h
            fd[:, p] = (V.eval(X + e) - V.eval(X - e)) / (2 * h)
        assert not np.any(flags)
        assert np.max(np.abs(grads - fd)) <= 1e-6 * np.max(np.abs(grads))

    @pytest.mark.parametrize("npts", [1, 7])
    def test_eval_and_gradient_match_dense_sum(self, npts):
        # ranks above and below n, so no block is square
        basis = build_basis(4, 1.5)
        rng = np.random.default_rng(6)
        v = TTTensor.random((4,) * 3, [1, 2, 6, 1], rng)
        V = ValueFunction(v, basis)
        X = rng.uniform(-1.4, 1.4, size=(npts, 3))
        dense = full(v)
        # numpy's Legendre series: P_k' from legder, (degree n-2, n) coefficients
        leg = np.polynomial.legendre
        dcoef = leg.legder(np.eye(basis.n))
        for x, val, grad in zip(X, V.eval(X), V.gradient(X)[0]):
            phi = leg.legvander(x / basis.a, basis.n - 1) * basis.scale()
            dphi = leg.legvander(x / basis.a, basis.n - 2) @ dcoef * (basis.scale() / basis.a)
            want = np.einsum("ijk,i,j,k->", dense, *phi)
            want_grad = [np.einsum("ijk,i,j,k->", dense,
                                   *[dphi[q] if q == p else phi[q] for q in range(3)])
                         for p in range(3)]
            assert abs(val - want) <= 1e-13 * np.abs(dense).sum()
            assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.abs(dense).sum()

    def test_extrapolation_flagged(self):
        basis = build_basis(3, 1.0)
        v = TTTensor.rank_one([np.ones(3)] * 2)
        V = ValueFunction(v, basis)
        _, flags = V.gradient(np.array([[0.0, 1.5]]))
        assert flags[0]


class TestFeedback:
    def test_scalar_analytic(self):
        model = scalar_unstable_model()
        basis = build_basis(4, model.a)
        pi = 1.0 + np.sqrt(2.0)
        coeffs = basis.phi.T @ (basis.weights * (pi * basis.nodes**2))
        V = ValueFunction(TTTensor.rank_one([coeffs]), basis)
        for x in (-1.0, 0.25, 1.5):
            assert np.isclose(feedback(V, model)(np.array([x])), -pi * x,
                              atol=1e-8)

    def test_batch_matches_points(self):
        model = lq(4)
        basis = build_basis(4, model.a)
        rng = np.random.default_rng(2)
        V = ValueFunction(TTTensor.random((4,) * 4, [1, 3, 3, 3, 1], rng), basis)
        X = rng.uniform(-0.5 * model.a, 0.5 * model.a, size=(20, 4))
        law = feedback(V, model)
        batch = law(X)
        points = np.array([law(x) for x in X])
        assert batch.shape == (20,)
        assert np.max(np.abs(batch - points)) <= 1e-14 * np.max(np.abs(points))

    def test_zero_gradient_zero_control(self):
        model = scalar_unstable_model()
        basis = build_basis(3, model.a)
        V = ValueFunction(TTTensor.rank_one([np.eye(3, 1).reshape(-1)]), basis)
        assert feedback(V, model)(np.array([0.7])) == 0.0

    def test_constrained_range(self):
        model = scalar_unstable_model(u_max=2.0)
        basis = build_basis(4, model.a)
        coeffs = basis.phi.T @ (basis.weights * (50.0 * basis.nodes**2))
        V = ValueFunction(TTTensor.rank_one([coeffs]), basis)
        u = feedback(V, model)(np.array([1.5]))
        assert -2.0 < u < 2.0
        assert abs(u) > 1.9  # large gradient saturates


def gradient_controls(V, model, X):
    """The controls of one gradient pass, as feedback computed them before
    the constant-channel law."""
    return _control(model, X, V.gradient(X)[0])


def assert_matches_gradient(law, V, model, X, rtol=1e-12):
    want = gradient_controls(V, model, X)
    got = law(X)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestControlLaw:
    """A constant channel's law is one TT in V's basis; it must give the
    controls of the gradient pass."""

    def test_random_lq_value(self):
        model = lq(4)
        basis = build_basis(4, model.a)
        rng = np.random.default_rng(11)
        V = ValueFunction(TTTensor.random((4,) * 4, [1, 3, 3, 3, 1], rng), basis)
        X = rng.uniform(-model.a, model.a, size=(50, 4))
        assert_matches_gradient(feedback(V, model), V, model, X)

    def test_allen_cahn_value(self):
        # a small second term that a loose rounding of the law would drop
        model = allen_cahn_1d(5)
        basis = build_basis(5, model.a)
        rng = np.random.default_rng(12)
        big, small = (TTTensor.random((5,) * 5, [1, 2, 3, 3, 2, 1], rng) for _ in range(2))
        V = ValueFunction(tt_add(big, tt_scale(small, 1e-8)), basis)
        X = rng.uniform(-model.a, model.a, size=(50, 5))
        assert_matches_gradient(feedback(V, model), V, model, X)

    def test_tanh_bounded_scalar(self):
        model = scalar_unstable_model(u_max=2.0)
        basis = build_basis(5, model.a)
        rng = np.random.default_rng(13)
        V = ValueFunction(TTTensor.rank_one([5.0 * rng.standard_normal(5)]), basis)
        X = np.linspace(-model.a, model.a, 41)[:, None]
        law = feedback(V, model)
        assert np.max(np.abs(law(X))) > 1.0  # the cap is active
        assert_matches_gradient(law, V, model, X)

    def test_states_beyond_domain(self):
        model = lq(3)
        basis = build_basis(4, model.a)
        rng = np.random.default_rng(14)
        V = ValueFunction(TTTensor.random((4,) * 3, [1, 3, 3, 1], rng), basis)
        X = rng.uniform(-1.2 * model.a, 1.2 * model.a, size=(200, 3))
        assert np.any(V.gradient(X)[1])
        assert_matches_gradient(feedback(V, model), V, model, X)

    def test_single_state_gives_float(self):
        model = lq(3)
        basis = build_basis(4, model.a)
        rng = np.random.default_rng(15)
        V = ValueFunction(TTTensor.random((4,) * 3, [1, 3, 3, 1], rng), basis)
        x = rng.uniform(-model.a, model.a, size=3)
        u = feedback(V, model)(x)
        want = gradient_controls(V, model, x[None])[0]
        assert isinstance(u, float)
        assert abs(u - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("make", [lambda: lq(4), lambda: allen_cahn_1d(5)])
    def test_rank_at_most_twice_value_rank(self, make):
        model = make()
        basis = build_basis(4, model.a)
        rng = np.random.default_rng(16)
        d = model.dim
        V = ValueFunction(TTTensor.random((4,) * d, [1] + [3] * (d - 1) + [1], rng), basis)
        assert _control_value(V, model).v.max_rank <= 2 * V.v.max_rank

    def test_state_dependent_channel_is_gradient_path(self):
        model = fokker_planck(D=8)
        basis = build_basis(3, model.a)
        rng = np.random.default_rng(17)
        d = model.dim
        V = ValueFunction(TTTensor.random((3,) * d, [1] + [2] * (d - 1) + [1], rng), basis)
        X = rng.uniform(-0.5 * model.a, 0.5 * model.a, size=(20, d))
        assert np.array_equal(feedback(V, model)(X), gradient_controls(V, model, X))

    def test_rollout_makes_no_gradient_calls(self, monkeypatch):
        from tthjb.assembly import project_to_basis
        from tthjb.rollout import rollout

        model = lq(4)
        basis = build_basis(3, model.a)
        sol = solve_riccati(model.lin_A, model.lin_B, model.cost_matrix, model.gamma)
        v = project_to_basis(quadratic_to_tt(sol.Pi, [basis.nodes] * 4), basis)
        V = ValueFunction(v, basis)
        calls = []
        original = ValueFunction.gradient

        def counting(self, X):
            calls.append(len(X))
            return original(self, X)

        monkeypatch.setattr(ValueFunction, "gradient", counting)
        traj = rollout(model, feedback(V, model), model.x0_default, 2.0)
        assert calls == []
        ref = rollout(model, lambda X: gradient_controls(V, model, X), model.x0_default, 2.0)
        assert calls  # the reference does take gradients
        assert abs(traj.total_cost - ref.total_cost) <= 1e-10 * abs(ref.total_cost)


def assert_one_state_matches_batch(law, X, rtol=1e-13):
    """Each state alone, as (d,) and as (1, d), gives its control in the batch."""
    batch = law(X)
    tol = rtol * np.max(np.abs(batch))
    for x, want in zip(X, batch):
        row = law(x[None])
        assert row.shape == (1,)
        assert abs(row[0] - want) <= tol and abs(law(x) - want) <= tol


class TestOneStateLaw:
    """A constant channel's law at one state (what a rollout asks for) skips
    the batch evaluation; it must give the batch's controls."""

    @pytest.fixture(scope="class", params=["lq6", "allen_cahn8"])
    def solved(self, request):
        model = lq(6) if request.param == "lq6" else allen_cahn_1d(8)
        V, state = policy_iterate(model, SolverConfig(delta=1e-3, n=4, mu0=50.0))
        assert state.converged
        return model, V

    def test_inside_and_outside_domain(self, solved):
        model, V = solved
        # the law's ranks are not all equal, so the padded stack is exercised
        assert len(set(_control_value(V, model).v.ranks[1:-1])) > 1
        rng = np.random.default_rng(18)
        X = rng.uniform(-1.3 * model.a, 1.3 * model.a, size=(40, model.dim))
        assert np.any(np.abs(X) > model.a) and np.any(np.all(np.abs(X) < model.a, axis=1))
        assert_one_state_matches_batch(feedback(V, model), X)

    def test_scalar_state(self):
        model = scalar_unstable_model()
        basis = build_basis(5, model.a)
        V = ValueFunction(TTTensor.rank_one([np.random.default_rng(19).standard_normal(5)]), basis)
        X = np.linspace(-1.5 * model.a, 1.5 * model.a, 31)[:, None]
        assert_one_state_matches_batch(feedback(V, model), X)

    def test_bounded_law_saturates(self):
        model = scalar_unstable_model(u_max=2.0)
        basis = build_basis(4, model.a)
        coeffs = basis.phi.T @ (basis.weights * (50.0 * basis.nodes**2))
        law = feedback(ValueFunction(TTTensor.rank_one([coeffs]), basis), model)
        X = np.linspace(-model.a, model.a, 21)[:, None]
        assert_one_state_matches_batch(law, X)
        u = np.array([law(x) for x in X])
        assert np.all(np.abs(u) < 2.0) and np.max(np.abs(u)) > 1.9


class TestNoPathPlanning:
    def test_solve_and_rollout_plan_no_einsum(self, monkeypatch):
        """np.einsum(optimize=...) re-plans its path on every call, which
        dominated small solves; no solver or evaluation path may use it."""
        import inspect

        from tthjb.rollout import rollout

        calls = []
        planner = np.einsum_path

        def counting(*args, **kwargs):
            calls.append(args[0])
            return planner(*args, **kwargs)

        # np.einsum looks the planner up in its own module
        monkeypatch.setattr(inspect.getmodule(np.einsum.__wrapped__),
                            "einsum_path", counting)
        monkeypatch.setattr(np, "einsum_path", counting)
        a = np.ones((2, 2))
        np.einsum("ij,jk->ik", a, a, optimize=True)
        assert len(calls) == 1  # the counter sees planned contractions
        calls.clear()
        model = lq(3)
        V, _ = policy_iterate(model, SolverConfig(delta=1e-4, n=3,
                                                  max_policy_iters=3))
        rollout(model, feedback(V, model), model.x0_default, 1.0)
        assert calls == []


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(delta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(q=1.0)
        with pytest.raises(ValueError):
            SolverConfig(mu0=-1.0)
        with pytest.raises(ValueError, match="mu0"):
            SolverConfig(mu0=True)

    @pytest.mark.parametrize("field", ["n", "max_rank"])
    def test_zero_counts_rejected(self, field):
        # a zero basis size or rank cap has nothing to solve on
        with pytest.raises(ValueError):
            SolverConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["n", "max_rank", "max_policy_iters"])
    @pytest.mark.parametrize("value", ["5", 2.5, -1])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_zero_policy_iterations_allowed(self):
        assert SolverConfig(max_policy_iters=0).max_policy_iters == 0

    def test_value_accuracy_defaults_to_delta(self):
        c = SolverConfig(delta=1e-4, max_rank=7)
        assert c.value_accuracy.delta == 1e-4
        assert c.value_accuracy.max_rank == 7


class TestPolicyIterationLQ:
    @pytest.fixture(scope="class")
    def solved(self):
        model = lq(6)
        config = SolverConfig(delta=1e-4, n=4, mu0=50.0)
        V, state = policy_iterate(model, config)
        return model, config, V, state

    def test_matches_riccati(self, solved, rng):
        model, config, V, state = solved
        sol = solve_riccati(model.lin_A, model.lin_B, model.cost_matrix,
                            model.gamma)
        pts = rng.uniform(-0.5 * model.a, 0.5 * model.a, size=(100, 6))
        want = np.einsum("ni,ij,nj->n", pts, sol.Pi, pts)
        err = np.max(np.abs(V.eval(pts) - want) / np.abs(want))
        assert err <= 10 * config.delta

    def test_rank_bound(self, solved):
        _, _, V, _ = solved
        d = V.d
        for k, r in enumerate(V.v.ranks[1:-1], start=1):
            assert r <= min(k, d - k) + 3

    def test_stopping_and_shift_schedule(self, solved):
        # rows 0 and 1 decay by q; from row 2 on the shift follows the ratio r
        # of the last two residuals: up by r on a rise, down by r clamped to
        # [_FASTEST_FALL, q] on a fall
        _, config, _, state = solved
        assert state.converged
        last = state.history[-1]
        assert last["rel_change"] <= config.delta and last["shift"] <= config.mu0
        res = [row["residual"] for row in state.history]
        want = [config.mu0 * config.q, config.mu0 * config.q ** 2]
        for s in range(2, len(res)):
            r = res[s - 1] / res[s - 2]
            factor = r if r > 1.0 else min(max(r, _FASTEST_FALL), config.q)
            want.append(max(want[-1] * factor, _MIN_SHIFT))
        assert np.allclose([row["shift"] for row in state.history], want, rtol=1e-12)

    def test_anchored_at_origin_and_positive(self, solved, rng):
        model, config, V, _ = solved
        pts = rng.uniform(-0.5 * model.a, 0.5 * model.a, size=(50, 6))
        vals = V.eval(pts)
        assert np.all(vals > 0)
        assert abs(V.eval(np.zeros((1, 6)))[0]) <= config.delta * np.max(vals)

    def test_history_csv(self, solved, tmp_path):
        from tthjb.policy import history_to_csv

        _, _, _, state = solved
        path = tmp_path / "hist.csv"
        history_to_csv(state.history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("iteration,rel_change,max_rank,shift,residual,seconds,"
                            "feedback_s,operator_s,rhs_s,solve_s,u_rank,A_rank,b_rank,"
                            "max_local_res,gmres_fallbacks,gmres_unconverged")
        assert len(lines) == len(state.history) + 1

    def test_rows_carry_phases_and_ranks(self, solved):
        _, _, _, state = solved
        for row in state.history:
            phases = [row[key] for key in ("feedback_s", "operator_s", "rhs_s", "solve_s")]
            assert min(phases) >= 0.0 and sum(phases) <= row["seconds"]
            assert row["u_rank"] >= 1 and row["A_rank"] >= 1 and row["b_rank"] >= 1
            # dense LU is exact to round-off, and the larger local systems
            # (up to 468 unknowns, condition numbers near 2) stop GMRES at its
            # relative tolerance of 1e-8 without a fallback
            assert 0.0 <= row["max_local_res"] <= 1e-8
            assert row["gmres_fallbacks"] == row["gmres_unconverged"] == 0
        # the zero initial policy has rank 1; later feedbacks are those of v
        assert state.history[0]["u_rank"] == 1
        assert state.history[-1]["u_rank"] > 1


class TestHJBResidual:
    @staticmethod
    def _riccati_value(scale):
        """lq(4) and the value scale * x' Pi x, exact in the degree-2 basis."""
        from tthjb.assembly import project_to_basis

        model = lq(4)
        basis = build_basis(3, model.a)
        sol = solve_riccati(model.lin_A, model.lin_B, model.cost_matrix, model.gamma)
        v = project_to_basis(quadratic_to_tt(scale * sol.Pi, [basis.nodes] * model.dim), basis)
        return ValueFunction(v, basis), model

    def test_riccati_value_has_zero_residual(self):
        assert hjb_residual(*self._riccati_value(1.0)) <= 1e-8

    def test_perturbed_value_has_residual(self):
        assert hjb_residual(*self._riccati_value(1.1)) >= 1e-2


class TestCrossHistory:
    """Every history row reports the right-hand-side cross of its iteration."""

    @staticmethod
    def _solve():
        # the tanh penalty is the one right-hand side that runs cross; this
        # actuator reaches every mode of the d=3 chain
        config = SolverConfig(delta=1e-4, n=3, mu0=20.0, max_policy_iters=3)
        return policy_iterate(allen_cahn_1d(3, u_max=1.0, omega=(-0.8, 0.1)), config)

    def test_rows_carry_cross_outcome(self, tmp_path):
        from tthjb.policy import history_to_csv

        _, state = self._solve()
        for row in state.history:
            assert row["cross_evals"] > 0
            assert 1 <= row["cross_sweeps"] <= _MAX_SWEEPS
            assert row["cross_converged"] is True
        path = tmp_path / "hist.csv"
        history_to_csv(state.history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].endswith(",cross_evals,cross_sweeps,cross_converged")
        assert len(lines) == len(state.history) + 1

    def test_unconverged_cross_flagged(self, monkeypatch, caplog):
        from tthjb import cross

        monkeypatch.setattr(cross, "_MAX_SWEEPS", 1)
        with caplog.at_level("WARNING", logger="tthjb.cross"):
            _, state = self._solve()
        assert [row["cross_converged"] for row in state.history] == [False] * 3
        assert all(row["cross_sweeps"] == 1 for row in state.history)
        assert caplog.text.count("unconverged") >= 3

    def test_hadamard_rows_leave_cross_empty(self):
        config = SolverConfig(delta=1e-4, n=3, mu0=20.0, max_policy_iters=2)
        _, state = policy_iterate(lq(3), config)
        for row in state.history:
            assert row["cross_evals"] is None and row["cross_converged"] is None
            assert row["constraint_evals"] is None

    def test_rows_carry_constraint_cross(self, tmp_path):
        # every row saturates its feedback through the constraint cross, the
        # initial policy of row 0 included
        from tthjb.policy import history_to_csv

        _, state = self._solve()
        for row in state.history:
            assert row["constraint_evals"] > 0
            assert 1 <= row["constraint_sweeps"] <= _MAX_SWEEPS
            assert row["constraint_converged"] is True
        path = tmp_path / "hist.csv"
        history_to_csv(state.history, path)
        header, *lines = path.read_text().splitlines()
        assert ",constraint_evals,constraint_sweeps,constraint_converged,cross_evals," in header
        assert len(lines) == len(state.history)
        assert not any(",," in line or line.endswith(",") for line in lines)


class TestDivergence:
    """The triggers of PolicyDivergence, with the solver replaced by a stub
    returning coef(s, shift) * w at iteration s; w has no constant mode, so
    the gauge fix leaves it alone, and |w| = sqrt(3)."""

    MU0 = 50.0

    def _solve(self, monkeypatch, coef):
        """The shifts of the rows run before PolicyDivergence."""
        from tthjb import policy

        n, d = 3, 2
        w = TTTensor.rank_one([np.eye(n)[1], np.ones(n)])
        shifts = []

        def stub(A, b, v_prev, shift, acc, **kwargs):
            shifts.append(shift)
            return tt_scale(w, coef(len(shifts) - 1, shift))

        monkeypatch.setattr(policy, "amen_solve_shifted", stub)
        config = SolverConfig(delta=1e-4, mu0=self.MU0, n=n, max_policy_iters=30)
        with pytest.raises(PolicyDivergence):
            policy_iterate(lq(d), config)
        return shifts

    def test_norm_blow_up(self, monkeypatch):
        # growth factors 4.0, 3.9, 3.8, ...: the relative change 1 - 1/factor
        # falls every iteration, only the norm shows the blow-up; iteration 0
        # grows from the random start and does not count
        shifts = self._solve(monkeypatch, lambda s, mu: np.prod(4.0 - 0.1 * np.arange(s)))
        assert len(shifts) == _DIVERGENCE_WINDOW + 1

    def test_growing_step(self, monkeypatch):
        # after row 0 each step is 1.01^s / shift, so the residual
        # shift * step * sqrt(3) rises by 1% a row from row 2 on; the norm
        # grows by 2% a row and the shift stays below mu0, so only the
        # residual shows the growth
        coefs = [1.0]

        def coef(s, mu):
            if s:
                coefs.append(coefs[-1] + 1.01 ** s / mu)
            return coefs[-1]

        shifts = self._solve(monkeypatch, coef)
        assert max(shifts) <= self.MU0
        assert len(shifts) == _DIVERGENCE_WINDOW + 2

    def test_shift_above_mu0_never_converges(self, monkeypatch):
        # a kick of 10 at row 1, then steps halving: the residual ratio drives
        # the shift far above mu0, and the relative change would meet delta
        # from row 14 on; every row above mu0 counts as growing instead
        shifts = self._solve(monkeypatch, lambda s, mu: 1.0 + 20.0 * (1.0 - 0.5 ** s))
        assert shifts[1] <= self.MU0 < min(shifts[2:])
        assert len(shifts) == _DIVERGENCE_WINDOW + 1


class TestRankCapWarning:
    def test_capped_rows_warn(self, caplog):
        config = SolverConfig(delta=1e-4, n=3, max_rank=2, max_policy_iters=3)
        with caplog.at_level("WARNING", logger="tthjb.policy"):
            _, state = policy_iterate(lq(3), config)
        messages = [rec.getMessage() for rec in caplog.records if "rank cap" in rec.getMessage()]
        capped = [(row["iteration"], [name for name in ("A", "b") if row[f"{name}_rank"] == 2])
                  for row in state.history]
        capped = [(s, names) for s, names in capped if names]
        assert capped and len(messages) == len(capped)
        for (s, names), msg in zip(capped, messages):
            assert msg.startswith(f"policy iter {s}: {' and '.join(names)} reached the rank cap 2")

    def test_uncapped_rows_are_silent(self, caplog):
        with caplog.at_level("WARNING", logger="tthjb.policy"):
            _, state = policy_iterate(lq(3), SolverConfig(delta=1e-4, n=3, max_policy_iters=3))
        assert max(row["A_rank"] for row in state.history) < 60
        assert "rank cap" not in caplog.text


class TestStateDependentChannel:
    def test_error_and_rank_against_sequential_rounding(self, monkeypatch):
        # two iterations of fokker_planck(D=8) at the paper-fokker-planck-d10
        # solver settings; g = B0 + M x, so the operator is the drift and the
        # coupling of rank r_u r_bmap, over the cap and rounded by one sketch
        from dataclasses import replace

        from tthjb import assembly

        model = fokker_planck(D=8)
        delta = 1e-3
        calls = []
        original = assembly.GalerkinSystem.operator

        def recorded(system, u):
            calls.append((system, u, original(system, u)))
            return calls[-1][2]

        monkeypatch.setattr(assembly.GalerkinSystem, "operator", recorded)
        policy_iterate(model, SolverConfig(delta=delta, mu0=50.0, n=5, max_policy_iters=2))
        system, u, A = calls[1]
        # the terms of the exact sum, whose ranks add, and the running sum
        # rounded after every chain, from one flag chain at u per channel
        # field: -< (component p of the field) u d/dx_p phi_j, phi_i >
        basis = system.basis
        chains = [-1.0 * TTMatrix(flag_chain(
            [assembly._weighted_block(b * gk[:, None], basis.wphi, basis.phi)
             for b, gk in zip(u.blocks, g)],
            [assembly._weighted_block(b * hk[:, None], basis.wphi, basis.dphi)
             for b, hk in zip(u.blocks, h)]))
            for g, h in model.channel_builder([basis.nodes] * model.dim)]
        terms = [system.drift, *chains]
        seq = terms[0]
        for term in terms[1:]:
            seq = tt_round(tt_add(seq, term), system.acc)
        # the exact sum (rank 455) is never formed: the errors come from the
        # inner products of the terms, which cost no QR at the summed rank
        # and agree with the norms of the differences to eight digits
        norm = np.sqrt(sum(tt_dot(s, t) for s in terms for t in terms))

        def error(op):
            gap = tt_dot(op, op) - 2.0 * sum(tt_dot(op, t) for t in terms) + norm**2
            return np.sqrt(gap) / norm

        assert abs(A.max_rank - seq.max_rank) <= 2
        # A reaches the rank cap of 60 here, where no rounding of the sum
        # meets delta (measured: 3.47 delta, sequential 3.27 delta); without
        # the cap the exact sum of the drift and the coupling (ranks up to
        # 203) is rounded, unsketched (measured: rank 90, 0.86 delta)
        assert A.max_rank == system.acc.max_rank
        assert error(A) <= 1.25 * max(delta, error(seq))
        uncapped = replace(system, acc=Accuracy(delta)).operator(u)
        assert error(uncapped) <= 1.25 * delta
