"""Dump the outputs of four solves, and compare two dumps item by item.

    python tests/output_dump.py dump OUT.pkl
    python tests/output_dump.py compare A.pkl B.pkl

The solves are lq(6) at the lq preset's solver settings, allen_cahn_1d(8)
at paper-allen-cahn-d14's, allen_cahn_1d(5, u_max=1.0, omega=(-0.8, 0.1))
at paper-allen-cahn-d14's for 3 rows (ac5b: the bounded path, where the
cap and the penalty run through cross on every row) and fokker_planck(11)
at paper-fokker-planck-d10's for 2 rows.  Each keeps the value tensor's
blocks, the blocks of the rounded drift and control map the solve starts
from, every history value but the timings (the *_s and seconds columns),
the feedback at 50 seeded states and hjb_residual.  lq6 and ac8 also keep
the closed-loop total cost of each controller cli.run builds there, from
the model's x0_default over its horizon: hjb, lqr, and uncontrolled when
the model is admissible, rolled out at tolerance 1e-8.  compare prints one
equal/unequal line per item and exits 1 on any difference.  The costs are
compared to relative COST_RTOL (1e-8, the rollout tolerance), since they
depend on the integrator; every other item must be bitwise equal.  An
unequal array item is printed with its largest relative difference: the
largest entrywise difference over the largest entry for an array or a
number, and for a TT chain (the value, drift and bmap blocks) the norm of
the difference of the chains over the norm of the first, which two gauges
of one tensor do not move.  Histories are compared on the columns both
dumps share; a column only one dump has is named, not counted as a
difference, and so is an item only one dump has.

The solves import tthjb from the src/ next to this file and run on one BLAS
thread, so a dump of one tree compares bitwise with a dump of another.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pickle  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from tthjb.cli import PRESETS  # noqa: E402
from tthjb.models import allen_cahn_1d, fokker_planck, lq, solve_riccati  # noqa: E402
from tthjb.policy import (SolverConfig, _build_system, feedback, hjb_residual,  # noqa: E402
                          policy_iterate, solver_basis)
from tthjb.rollout import rollout  # noqa: E402
from tthjb.tt import TTMatrix, TTTensor, tt_add, tt_norm, tt_scale  # noqa: E402

COST_RTOL = 1e-8
ROLLOUT_TOL = 1e-8

# name: (model, solver settings, whether to roll the controllers out)
WORKLOADS = {
    "lq6": (lambda: lq(6), dict(PRESETS["lq"]["solver"]), True),
    "ac8": (lambda: allen_cahn_1d(8), dict(PRESETS["paper-allen-cahn-d14"]["solver"]), True),
    "ac5b": (lambda: allen_cahn_1d(5, u_max=1.0, omega=(-0.8, 0.1)),
             dict(PRESETS["paper-allen-cahn-d14"]["solver"], max_policy_iters=3), False),
    "fp11": (lambda: fokker_planck(11),
             dict(PRESETS["paper-fokker-planck-d10"]["solver"], max_policy_iters=2), False),
}


def _costs(V, model) -> dict:
    """The closed-loop total cost of each controller cli.run builds, from
    the model's x0_default over its horizon."""
    controllers = {"hjb": feedback(V, model),
                   "lqr": solve_riccati(model.lin_A, model.lin_B, model.cost_matrix,
                                        model.gamma).feedback}
    if model.admissible_uncontrolled:
        controllers["uncontrolled"] = None
    return {f"cost {name}": rollout(model, ctrl, model.x0_default, model.horizon,
                                    tol=ROLLOUT_TOL).total_cost
            for name, ctrl in controllers.items()}


def _outputs(model, config: SolverConfig, rolls: bool) -> dict:
    V, state = policy_iterate(model, config)
    a = V.basis.a
    X = np.random.default_rng(0).uniform(-0.5 * a, 0.5 * a, size=(50, V.d))
    history = [{k: v for k, v in row.items() if not (k.endswith("_s") or k == "seconds")}
               for row in state.history]
    system = _build_system(model, solver_basis(model, config), config)
    out = {"V blocks": [np.ascontiguousarray(blk) for blk in V.v.blocks],
           "drift": list(system.drift.blocks), "bmap": list(system.bmap.blocks),
           "history": history, "feedback@50": feedback(V, model)(X),
           "hjb_residual": hjb_residual(V, model)}
    if rolls:
        out.update(_costs(V, model))
    return out


def dump(path) -> None:
    out = {name: _outputs(make(), SolverConfig(**settings), rolls)
           for name, (make, settings, rolls) in WORKLOADS.items()}
    with open(path, "wb") as fh:
        pickle.dump(out, fh)


def _shared_history(va, vb):
    """Histories va and vb cut to the columns both share, and a note naming
    the columns only one has."""
    cols_a, cols_b = set().union(*va), set().union(*vb)
    shared = sorted(cols_a & cols_b)
    note = "".join(f"; only in {side}: {', '.join(sorted(cols))}"
                   for side, cols in (("A", cols_a - cols_b), ("B", cols_b - cols_a)) if cols)
    return ([{k: row.get(k) for k in shared} for row in va],
            [{k: row.get(k) for k in shared} for row in vb], note)


def _difference(va, vb) -> str:
    """The largest relative difference of two unequal array items (see the
    module docstring), with a chain's ranks; empty for other items and
    mismatched shapes."""
    if isinstance(va, list) and isinstance(vb, list) and all(
            isinstance(x, np.ndarray) for x in va + vb):
        kind = TTMatrix if va[0].ndim == 4 else TTTensor
        a, b = kind(va), kind(vb)
        try:
            rel = tt_norm(tt_add(a, tt_scale(b, -1.0))) / tt_norm(a)
        except ValueError:
            return ""
        ranks = "ranks equal" if a.ranks == b.ranks else f"ranks {a.ranks} vs {b.ranks}"
        return f" ({ranks}, largest relative difference {rel:.1e})"
    if isinstance(va, (np.ndarray, float)) and isinstance(vb, (np.ndarray, float)):
        a, b = np.asarray(va), np.asarray(vb)
        if a.shape != b.shape:
            return ""
        return f" (largest relative difference {np.max(np.abs(a - b)) / np.max(np.abs(a)):.1e})"
    return ""


def compare(path_a, path_b) -> int:
    with open(path_a, "rb") as fh:
        a = pickle.load(fh)
    with open(path_b, "rb") as fh:
        b = pickle.load(fh)
    unequal = 0
    for name in sorted(set(a) | set(b)):
        for item in sorted(set(a.get(name, {})) | set(b.get(name, {}))):
            va, vb = a.get(name, {}).get(item), b.get(name, {}).get(item)
            if va is None or vb is None:
                print(f"{name} {item}: only in {'A' if vb is None else 'B'}")
                continue
            detail = f" ({va!r} vs {vb!r})" if item == "hjb_residual" else ""
            if item == "history":
                va, vb, note = _shared_history(va, vb)
                detail = f" ({len(va)} vs {len(vb)} rows{note})"
            if item.startswith("cost "):
                same = abs(va - vb) <= COST_RTOL * abs(va)
                detail = f" ({va!r} vs {vb!r}, relative {abs(va - vb) / abs(va):.1e})"
            else:
                same = pickle.dumps(va) == pickle.dumps(vb)
                if not same:
                    detail += _difference(va, vb)
            unequal += not same
            print(f"{name} {item}: {'equal' if same else 'UNEQUAL'}{detail}")
    return 1 if unequal else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
