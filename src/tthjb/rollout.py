"""Closed-loop trajectory rollouts, cost accounting, and controller comparison."""
from __future__ import annotations

import json
import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ODEintWarning, odeint

from .assembly import penalty_cost
from .models import ControlledDynamics

__all__ = [
    "Trajectory",
    "rollout",
    "score",
    "compare",
    "trajectory_to_csv",
    "comparison_to_json",
]

log = logging.getLogger(__name__)

# times at which a rollout records its controls and running cost
_RECORD_POINTS = 2001


class _NonFiniteDynamics(RuntimeError):
    pass


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (steps, d)
    controls: np.ndarray
    running_cost: np.ndarray
    total_cost: float
    failed: bool = False
    message: str = ""
    rhs_evals: int = 0          # right-hand-side evaluations by the integrator


def rollout(model: ControlledDynamics, controller, x0, T: float,
            tol: float = 1e-8) -> Trajectory:
    """Integrate dx/dt = f(x) + g(x) u(x) under a feedback law with LSODA.

    ODEPACK's own loop (scipy's odeint) steps LSODA, which switches between
    Adams (non-stiff) and BDF (stiff) steps by itself, and interpolates the
    state onto a uniform grid of _RECORD_POINTS times; tol is its relative
    tolerance, and its absolute tolerance is 1e-2 tol.  controller is a
    batch map from states (N, d) to controls (N,), or None for the
    uncontrolled system.  The integrator calls it with one state at a time
    (N = 1); the controls and running costs are then recorded on the grid
    in a single call, and the total cost is their trapezoid quadrature.

    Each interval of the grid has a budget of 500 steps, so a finite-time
    escape stops soon after it starts.  A failure (that budget spent, a
    step size underflow, non-finite dynamics) returns x0 alone with
    failed=True and the reason: ODEPACK leaves the grid rows after a
    failure unset, so no partial trajectory is kept.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != model.dim:
        raise ValueError(f"x0 has size {x0.size}, model dimension is {model.dim}")
    if np.max(np.abs(x0)) > model.a:
        warnings.warn("initial state lies outside the value-function domain",
                      stacklevel=2)
    ctrl = (lambda X: np.zeros(len(X))) if controller is None else controller
    last_t = 0.0

    def rhs(t, x):
        nonlocal last_t
        last_t = t
        x = x[None]
        dx = model.drift(x)[0] + model.channel_eval(x)[0] * ctrl(x)[0]
        # NaN poisons the integrator's step-size control (NaN error norm ->
        # NaN step -> infinite loop), so fail hard instead
        if not np.isfinite(dx).all():
            raise _NonFiniteDynamics(f"non-finite dynamics at t={t:.3g}")
        return dx

    ts = np.linspace(0.0, T, _RECORD_POINTS)
    try:
        # odeint also warns on failure; the failure is logged below instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ODEintWarning)
            X, info = odeint(rhs, x0, ts, rtol=tol, atol=tol * 1e-2,
                             full_output=True, tfirst=True)
        failure = None if info["message"] == "Integration successful." else \
            f"{info['message']} Last right-hand side at t={last_t:.3g}."
    except _NonFiniteDynamics as exc:
        failure = str(exc)
    if failure is not None:
        log.warning("rollout aborted: %s", failure)
        return Trajectory(times=np.zeros(1), states=x0.reshape(1, -1),
                          controls=np.full(1, np.nan),
                          running_cost=np.full(1, np.nan),
                          total_cost=float("nan"), failed=True, message=failure)
    us = np.asarray(ctrl(X), dtype=float)
    if us.shape != ts.shape:
        raise ValueError(f"controller returned shape {us.shape} for "
                         f"{len(ts)} states; it must map (N, d) to (N,)")
    cost = model.state_cost(X) + penalty_cost(us, model.penalty)
    return Trajectory(times=ts, states=X, controls=us, running_cost=cost,
                      total_cost=float(np.trapezoid(cost, ts)),
                      rhs_evals=int(info["nfe"][-1]))


def _decay_rate(traj: Trajectory) -> float:
    """Least-squares slope of log running cost over the last 60% of the run."""
    t0 = traj.times[-1] * 0.4
    sel = (traj.times >= t0) & (traj.running_cost > 0)
    if np.count_nonzero(sel) < 2:
        return np.nan
    t = traj.times[sel]
    y = np.log(traj.running_cost[sel])
    slope = np.polyfit(t, y, 1)[0]
    return float(slope)


def score(traj: Trajectory) -> dict:
    """Comparison entry of one trajectory: cost, decay rate, recorded
    samples, right-hand-side evaluations, failure."""
    return {
        "total_cost": traj.total_cost,
        "decay_rate": _decay_rate(traj),
        "steps": int(traj.times.size),
        "rhs_evals": traj.rhs_evals,
        "failed": traj.failed,
    }


def compare(model: ControlledDynamics, controllers: dict, x0, T: float,
            tol: float = 1e-8) -> dict:
    """Roll out and score each named controller; failures are isolated."""
    report = {}
    for name, ctrl in controllers.items():
        try:
            report[name] = score(rollout(model, ctrl, x0, T, tol=tol))
        except Exception as exc:  # noqa: BLE001 - isolate per controller
            log.warning("controller %s failed: %s", name, exc)
            report[name] = {"total_cost": np.nan, "decay_rate": np.nan,
                            "steps": 0, "rhs_evals": 0, "failed": True}
    return report


def trajectory_to_csv(traj: Trajectory, path, include_states: bool = False) -> None:
    d = traj.states.shape[1]
    cols = ["t"] + ([f"x_{k + 1}" for k in range(d)] if include_states else []) \
        + ["u", "running_cost"]
    columns = [traj.times[:, None]] + ([traj.states] if include_states else []) \
        + [traj.controls[:, None], traj.running_cost[:, None]]
    # csv.writer's bytes (repr of each float, commas, CRLF), without its
    # per-field quoting checks: no header name or float needs quoting
    lines = [",".join(cols)] + [",".join(map(repr, row))
                                for row in np.hstack(columns).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def comparison_to_json(report: dict, path) -> None:
    def clean(x):
        return None if isinstance(x, float) and not np.isfinite(x) else x

    out = {name: {k: clean(v) for k, v in entry.items()}
           for name, entry in report.items()}
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
