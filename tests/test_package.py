import dataclasses
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tthjb
from tthjb.policy import SolverConfig, policy_iterate

MODULES = ["tthjb"] + [f"tthjb.{info.name}" for info in pkgutil.iter_modules(tthjb.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_exports_resolve(module_name):
    # a stale name in __all__ breaks `from tthjb.x import *` only when used
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def _load_tracing():
    # the benchmark's tracer, loaded by path (it imports only the stdlib)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    # the benchmark wraps these by name; one deleted here would break only
    # a traced benchmark run, so pin them
    tracing = _load_tracing()
    names = [(module, attr) for module, attr, _, _ in tracing.TRACED]
    names += [("tthjb.policy", "initial_policy"), ("tthjb.policy", "policy_iterate")]
    for module, attr in names:
        importlib.import_module(module)
        assert callable(tracing._resolve(module, attr)[2]), (module, attr)
    # a traced run installs a wrapper at every name and puts the originals back
    before = [tracing._resolve(module, attr)[2] for module, attr in names]
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert all(tracing._resolve(module, attr)[2] is obj
               for (module, attr), obj in zip(names, before))


# run in a fresh interpreter: tthjb.cli is the one import the tracer makes
# before it resolves names, so every traced module must load through it
_HOOKS = """
import importlib.util, json, sys
import tthjb.cli
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
names = [(module, attr) for module, attr, _, _ in tracing.TRACED]
names += [("tthjb.policy", "initial_policy"), ("tthjb.policy", "policy_iterate")]
missing = []
for module, attr in names:
    try:
        found = callable(tracing._resolve(module, attr)[2])
    except (KeyError, AttributeError):
        found = False
    if not found:
        missing.append(f"{module}.{attr}")
small = json.loads(sys.argv[2])
factories = [attr for _, attr, _, kind in tracing.TRACED if kind == "model"]
for attr in factories:
    model = tracing._resolve("tthjb.models", attr)[2](**small[attr])
    missing += [f"{attr}().{builder}" for builder in ("f_tt_builder", "channel_builder")
                if not callable(getattr(model, builder, None))]
print(json.dumps({"missing": missing, "factories": factories}))
"""


def test_benchmark_hooks_resolve_after_importing_cli():
    # perfbench/tracing.py wraps these names, and Tracer._wrap_model the two
    # TT builders of every model a traced factory returns; a name deleted
    # here would break only a traced benchmark run
    from conftest import SMALL_MODEL_ARGS

    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _HOOKS, str(root / "perfbench" / "tracing.py"),
         json.dumps(SMALL_MODEL_ARGS)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["missing"] == []
    assert sorted(out["factories"]) == sorted(SMALL_MODEL_ARGS)


def test_model_contract_of_the_benchmark(small_model):
    # the attributes perfbench/worker.py reads, with the shapes it assumes
    m = small_model
    d = m.dim
    X = np.random.default_rng(0).uniform(-0.5, 0.5, size=(5, d))
    assert isinstance(d, int)
    assert m.drift(X).shape == (5, d)
    assert m.channel_eval(X).shape == (5, d)
    assert m.state_cost(X).shape == (5,)
    assert m.lin_A.shape == (d, d) and m.cost_matrix.shape == (d, d)
    assert m.lin_B.shape == (d, 1)
    assert m.gamma > 0
    assert m.penalty.clip is None or m.penalty.clip > 0
    assert np.shape(m.x0_default) == (d,)


def test_wrapped_builders_called_once_per_solve(small_model):
    # the tracer replaces the two TT builders on the instance; a setup-only
    # solve must go through each wrapper exactly once. The solve starts from
    # the zero policy, so the count does not depend on the LQR warm start;
    # no small_model's warm start raises (allen_cahn_1d and fokker_planck
    # take one, lq and fokker_planck_unshifted need none).
    model = dataclasses.replace(small_model, admissible_uncontrolled=True)
    tracer = _load_tracing().Tracer()
    tracer._wrap_model(model)
    policy_iterate(model, SolverConfig(max_policy_iters=0, n=2))
    names = [span[2] for span in tracer.spans]
    assert names.count("models.f_tt_builder") == 1
    assert names.count("models.channel_builder") == 1


def test_operator_sums_two_terms(small_model, monkeypatch):
    # constant and affine channels alike: the operator is the drift plus one
    # coupling term, whatever the number of channel fields
    from tthjb import assembly
    from tthjb.policy import _build_system, initial_policy, solver_basis

    counts = []
    original = assembly.tt_add
    monkeypatch.setattr(assembly, "tt_add",
                        lambda *ops: counts.append(len(ops)) or original(*ops))
    config = SolverConfig(n=2)
    basis = solver_basis(small_model, config)
    system = _build_system(small_model, basis, config)
    counts.clear()
    system.operator(initial_policy(small_model, basis))
    assert counts == [2]


def test_one_sketch_for_every_unformed_sum(monkeypatch):
    # the penalty right-hand side, the operator over its rank cap and AMEn's
    # enrichment residual are each sketched by the one routine tt._sketch,
    # and each meets its product (gamma P(u^2), the coupling, A v) as one
    # tt._product_term; the penalty and the operator are rounded by the one
    # loop tt._sketch_round. A sketch is already left-orthonormal, so it is
    # rounded without the QR sweep of tt_round (orthogonalize_right), which
    # AMEn runs once per call on its start
    from dense_oracle import identity
    from tthjb import amen, assembly, tt
    from tthjb.basis import build_basis
    from tthjb.models import lq
    from tthjb.policy import _build_system
    from tthjb.tt import Accuracy, TTTensor

    modules = {"_sketch": (tt, amen), "_product_term": (tt, amen, assembly),
               "orthogonalize_right": (tt, amen), "_sketch_round": (tt, assembly)}
    calls = dict.fromkeys(modules, 0)
    for name in calls:
        assert all(getattr(module, name) is getattr(tt, name) for module in modules[name])

        def wrapper(*args, name=name, original=getattr(tt, name)):
            calls[name] += 1
            return original(*args)

        for module in modules[name]:
            monkeypatch.setattr(module, name, wrapper)

    def take():
        counts = tuple(calls.values())
        calls.update(dict.fromkeys(calls, 0))
        return counts

    rng = np.random.default_rng(0)
    system = _build_system(lq(4), build_basis(3, 1.0), SolverConfig(n=3, max_rank=1))
    take()
    system.rhs(TTTensor.random((system.basis.m,) * 4, [1, 3, 3, 3, 1], rng))
    sketches, products, sweeps, loops = take()
    # one square, however many sketch ranks, one loop and no QR sweep
    assert sketches >= 1 and products == 1 and sweeps == 0 and loops == 1
    # the operator's middle summed rank 4 + 20 is over the cap max_rank 1 + 20
    system.operator(TTTensor.random((system.basis.m,) * 4, [1, 6, 20, 6, 1], rng))
    assert take() == (1, 1, 0, 1)
    dims = (4, 3, 5)
    A = identity(dims) * 2.0
    b = TTTensor.random(dims, [1, 2, 2, 1], rng)
    amen.amen_solve_shifted(A, b, b, 0.5, Accuracy(1e-10))
    assert take() == (1, 1, 1, 0)  # one residual and one QR sweep per call


def test_option_surface():
    # every settable value doubles the configurations to cover; the ones no
    # preset or workload varies are module constants, and a library mode
    # that no caller runs (AMEn's sweep count) is no parameter
    import inspect

    from tthjb.amen import amen_solve_shifted
    from tthjb.assembly import ControlPenalty

    assert {f.name for f in dataclasses.fields(SolverConfig)} == {
        "delta", "mu0", "q", "max_policy_iters", "n", "max_rank", "seed"}
    assert {f.name for f in dataclasses.fields(ControlPenalty)} == {"gamma", "u_max"}
    assert list(inspect.signature(amen_solve_shifted).parameters) == [
        "A", "b", "v_prev", "shift", "acc", "stats", "seed"]
