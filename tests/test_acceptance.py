"""Nonlinear acceptance: a converged Allen-Cahn solve at the solver settings
of the paper-allen-cahn-d14 preset, with bounds fixed from measured runs."""
import numpy as np
import pytest

from tthjb import amen
from tthjb.models import allen_cahn_1d
from tthjb.policy import SolverConfig, hjb_residual, policy_iterate

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
        # measured: 58 iterations, rank 8, residual 0.43; the bound 0.5 is
        # the one the ac-d8 benchmark workload is gated by
        model, V, state = solved
        assert state.converged
        assert 50 <= state.iteration <= 70
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
