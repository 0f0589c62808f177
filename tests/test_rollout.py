import csv
import json

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from tthjb.assembly import ControlPenalty
from tthjb.models import ControlledDynamics, allen_cahn_1d, solve_riccati
from tthjb.rollout import (
    Trajectory,
    compare,
    comparison_to_json,
    rollout,
    trajectory_to_csv,
)


def linear_model(A, a=10.0):
    """dx/dt = A x + e_1 u with unit quadratic costs."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    return ControlledDynamics(
        name="lin", a=a, penalty=ControlPenalty(gamma=1.0),
        lin_A=A, lin_B=np.eye(d, 1), cost_matrix=np.eye(d),
        admissible_uncontrolled=True,
    )


class TestRollout:
    def test_matches_matrix_exponential(self, rng):
        A = np.array([[-1.0, 0.5], [0.0, -2.0]])
        model = linear_model(A)
        x0 = rng.standard_normal(2)
        T = 2.0
        traj = rollout(model, None, x0, T, tol=1e-10)
        want = scipy.linalg.expm(A * T) @ x0
        assert not traj.failed
        assert np.allclose(traj.states[-1], want, atol=1e-8)

    def test_cost_additivity(self, rng):
        model = linear_model(np.array([[-0.5, 0.2], [-0.2, -0.8]]))
        x0 = np.array([1.0, -2.0])
        tol = 1e-10
        full = rollout(model, None, x0, 3.0, tol=tol)
        first = rollout(model, None, x0, 1.2, tol=tol)
        second = rollout(model, None, first.states[-1], 1.8, tol=tol)
        assert np.isclose(full.total_cost, first.total_cost + second.total_cost,
                          atol=10 * 1e-6)

    def test_failure_flag_on_finite_escape(self):
        # x' = x^3 from x = 1 escapes at t = 1/2
        model = ControlledDynamics(
            name="blowup", a=100.0, penalty=ControlPenalty(gamma=1.0),
            lin_A=np.zeros((1, 1)), lin_B=np.zeros((1, 1)),
            cost_matrix=np.eye(1), admissible_uncontrolled=True, cubic=-1.0,
        )
        traj = rollout(model, None, np.array([1.0]), 5.0)
        assert traj.failed

    def test_domain_warning(self):
        model = linear_model(-np.eye(2), a=1.0)
        with pytest.warns(UserWarning):
            rollout(model, None, np.array([3.0, 0.0]), 0.1)

    def test_dimension_check(self):
        model = linear_model(-np.eye(2))
        with pytest.raises(ValueError):
            rollout(model, None, np.zeros(3), 1.0)

    def test_controller_calls_bounded_by_rhs_evaluations(self):
        # one call per right-hand side evaluation plus one batched call that
        # records the controls on the output grid
        A = np.array([[-1.0, 0.5], [0.0, -2.0]])
        model = linear_model(A)
        drift = model.drift
        rhs_evals = []
        shapes = []

        def counting_drift(X):
            rhs_evals.append(1)
            return drift(X)

        def ctrl(X):
            shapes.append(X.shape)
            return -0.3 * X[:, 0]

        model.drift = counting_drift
        traj = rollout(model, ctrl, np.array([1.0, -1.0]), 2.0)
        assert not traj.failed
        assert traj.rhs_evals == len(rhs_evals)
        assert len(shapes) <= len(rhs_evals) + 1
        assert shapes[-1] == traj.states.shape
        assert np.allclose(traj.controls, -0.3 * traj.states[:, 0])

    def test_stiff_allen_cahn_under_lqr(self):
        # the d=14 Allen-Cahn chain is stiff: RK45 takes 1,358 right-hand
        # sides here and LSODA, switching to BDF, about 1,030
        model = allen_cahn_1d(14)
        ctrl = solve_riccati(model.lin_A, model.lin_B, model.cost_matrix, model.gamma).feedback
        traj = rollout(model, ctrl, model.x0_default, model.horizon, tol=1e-8)
        assert not traj.failed
        assert traj.rhs_evals <= 1200

        def rhs(t, x):
            x = x[None]
            return model.drift(x)[0] + model.channel_eval(x)[0] * ctrl(x)[0]

        ref = solve_ivp(rhs, (0.0, model.horizon), model.x0_default, method="DOP853",
                        rtol=1e-12, atol=1e-14).y[:, -1]
        assert np.linalg.norm(traj.states[-1] - ref) <= 1e-7 * np.linalg.norm(ref)

    def test_column_controls_rejected(self):
        # (N, 1) controls broadcast silently inside the dynamics; the
        # recorded controls must be (N,)
        model = linear_model(-np.eye(2))
        with pytest.raises(ValueError, match="must map"):
            rollout(model, lambda X: -(X @ np.ones((2, 1))),
                    np.array([1.0, 0.0]), 0.5)

    def test_uncontrolled_allen_cahn_cost_plateaus(self):
        # the free system settles at the all-ones state, whose running cost
        # is its squared L2 norm, 2
        model = allen_cahn_1d(10)
        traj = rollout(model, None, model.x0_default, 10.0, tol=1e-8)
        assert not traj.failed
        assert np.isclose(traj.running_cost[-1], 2.0, rtol=0.05)


class TestArtifacts:
    @pytest.fixture
    def traj(self):
        model = linear_model(-np.eye(2))
        return rollout(model, lambda X: 0.1 * X[:, 0], np.array([1.0, 1.0]), 1.0)

    def test_csv_without_states(self, traj, tmp_path):
        path = tmp_path / "t.csv"
        trajectory_to_csv(traj, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,u,running_cost"

    def test_csv_with_states(self, traj, tmp_path):
        path = tmp_path / "t.csv"
        trajectory_to_csv(traj, path, include_states=True)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_1,x_2,u,running_cost"
        assert len(lines) == traj.times.size + 1

    @pytest.mark.parametrize("include_states", [False, True])
    def test_csv_bytes_match_row_by_row_writer(self, include_states, tmp_path):
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.1, 1e-300])
        traj = Trajectory(times=np.linspace(0.0, 1.0, 6),
                          states=np.stack([special, special[::-1]], axis=1),
                          controls=special[[3, 0, 1, 2, 5, 4]],
                          running_cost=-special, total_cost=float("nan"))
        path = tmp_path / "t.csv"
        trajectory_to_csv(traj, path, include_states=include_states)
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + (["x_1", "x_2"] if include_states else [])
                            + ["u", "running_cost"])
            for i in range(traj.times.size):
                row = [traj.times[i]]
                if include_states:
                    row.extend(traj.states[i])
                row.extend([traj.controls[i], traj.running_cost[i]])
                writer.writerow(row)
        assert path.read_bytes() == want.read_bytes()

    def test_comparison_json(self, tmp_path):
        report = {"a": {"total_cost": 1.0, "decay_rate": float("nan"),
                        "steps": 10, "failed": False}}
        path = tmp_path / "r.json"
        comparison_to_json(report, path)
        data = json.loads(path.read_text())
        assert data["a"]["total_cost"] == 1.0
        assert data["a"]["decay_rate"] is None


class TestCompare:
    def test_deterministic_and_isolated(self):
        model = linear_model(np.array([[-1.0, 0.0], [0.0, -0.5]]))
        ctrl = {"zero": None, "weak": lambda X: -0.1 * X[:, 0],
                "broken": lambda X: np.full(len(X), np.nan)}
        x0 = np.array([1.0, 2.0])
        a = compare(model, ctrl, x0, 2.0)
        b = compare(model, ctrl, x0, 2.0)
        assert a == b or (a.keys() == b.keys()
                          and all(a[k] == b[k] or (np.isnan(a[k]["total_cost"])
                                                   and np.isnan(b[k]["total_cost"]))
                                  for k in a))
        assert a["broken"]["failed"]
        assert a["broken"]["rhs_evals"] == 0
        assert not a["zero"]["failed"]
        assert a["zero"]["rhs_evals"] > 0

    def test_decay_rate_of_pure_exponential(self):
        model = linear_model(np.array([[-0.7]]))
        report = compare(model, {"zero": None}, np.array([2.0]), 6.0)
        # running cost x(t)^2 decays at rate 2 * lambda
        assert np.isclose(report["zero"]["decay_rate"], -1.4, atol=1e-3)


class TestTrajectoryInvariant:
    def test_total_cost_is_trapezoid_of_running_cost(self):
        model = linear_model(-np.eye(2))
        traj = rollout(model, None, np.array([1.0, -1.0]), 2.0)
        assert np.isclose(traj.total_cost,
                          np.trapezoid(traj.running_cost, traj.times))
