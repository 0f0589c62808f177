"""Nonlinear acceptance: converged Allen-Cahn solves, unbounded and with a
tanh-bounded control, and a diverging one, at the solver settings of the
paper-allen-cahn-d14 preset, with bounds fixed from measured runs."""
import numpy as np
import pytest

from tthjb import amen
from tthjb.models import allen_cahn_1d
from tthjb.policy import PolicyDivergence, SolverConfig, feedback, hjb_residual, policy_iterate

CONFIG = SolverConfig(delta=1e-3, mu0=50.0, n=5)


def value_at_x0(V, model) -> float:
    return float(V.eval(np.asarray(model.x0_default).reshape(1, -1))[0])


@pytest.fixture(scope="module")
def solved():
    model = allen_cahn_1d(5)
    V, state = policy_iterate(model, CONFIG)
    return model, V, state


class TestAllenCahnD5:
    def test_converges_with_small_hjb_residual(self, solved):
        # measured: 29 iterations, rank 8, residual 0.43; the bound 0.5 is
        # the one the ac-d8 benchmark workload is gated by
        model, V, state = solved
        assert state.converged
        assert 25 <= state.iteration <= 35
        assert V.v.max_rank <= 10
        assert hjb_residual(V, model, seed=0) <= 0.5
        assert value_at_x0(V, model) > 0.0

    def test_all_local_systems_through_gmres(self, solved, monkeypatch):
        # with the crossover at 0 every local system goes through the
        # preconditioned GMRES; it solves to 1e-8, far below delta, so the
        # iteration must not change
        model, V, state = solved
        monkeypatch.setattr(amen, "_GMRES_CROSSOVER", 0)
        V_it, state_it = policy_iterate(model, CONFIG)
        assert state_it.iteration == state.iteration
        assert ([row["max_rank"] for row in state_it.history]
                == [row["max_rank"] for row in state.history])
        assert V_it.v.ranks == V.v.ranks
        assert value_at_x0(V_it, model) == pytest.approx(value_at_x0(V, model), rel=1e-6)


@pytest.fixture(scope="module")
def solved_bounded():
    model = allen_cahn_1d(5, u_max=1.0, omega=(-0.8, 0.1))
    V, state = policy_iterate(model, CONFIG)
    return model, V, state


class TestBoundedAllenCahnD5:
    def test_converges_with_small_hjb_residual(self, solved_bounded):
        # measured: 26 iterations, rank 8, residual 0.456
        model, V, state = solved_bounded
        assert state.converged
        assert 22 <= state.iteration <= 32
        assert V.v.max_rank <= 10
        assert hjb_residual(V, model, seed=0) <= 0.5

    def test_every_row_runs_on_the_capped_control(self, solved_bounded):
        # the constraint cross caps the feedback of every row, the initial
        # LQR policy of row 0 included; by the last row both crosses converge
        _, _, state = solved_bounded
        assert all((row["constraint_evals"] or 0) > 0 for row in state.history)
        assert all((row["cross_evals"] or 0) > 0 for row in state.history)
        last = state.history[-1]
        assert last["constraint_converged"] is True and last["cross_converged"] is True

    def test_feedback_within_the_clip(self, solved_bounded):
        model, V, _ = solved_bounded
        a = V.basis.a
        X = np.random.default_rng(0).uniform(-0.5 * a, 0.5 * a, size=(200, model.dim))
        assert np.max(np.abs(feedback(V, model)(X))) <= model.penalty.clip


class TestAllenCahnShiftGuards:
    def test_d10_converges(self):
        # measured: 41 iterations, rank 14, residual 0.224; the relative
        # change rises from 0.10 to 0.146 over ten rows while the residual
        # falls, so only residual growth may count as divergence
        model = allen_cahn_1d(10)
        V, state = policy_iterate(model, CONFIG)
        assert state.converged
        assert 35 <= state.iteration <= 50
        assert hjb_residual(V, model, seed=0) <= 0.3

    def test_d12_diverges(self):
        # the blow-up drives the shift far above mu0, which shrinks the step
        # and the relative change: with no row above mu0 barred from
        # converging, this solve stopped as converged at row 4, at shift
        # 1.1e14 and HJB residual 0.998
        with pytest.raises(PolicyDivergence):
            policy_iterate(allen_cahn_1d(12), CONFIG)
