"""Outside-in timing of tthjb: phase boundaries and per-layer spans.

Nothing here edits the library. Functions are replaced by timing wrappers
in every ``tthjb`` namespace that holds them, because ``from .x import y``
binds a second name that the call sites look up (``tthjb.policy.
amen_solve_shifted``, ``tthjb.assembly.tt_cross``, ``tthjb.cli.rollout`` ...).
``uninstall`` puts every original object back.

Module lookups go through ``sys.modules``: ``tthjb.rollout`` as an attribute
is the re-exported *function*, not the module.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute path, span name, attribute extractor or None).
# The span name's prefix before the first dot is the layer.
TRACED = [
    ("tthjb.tt", "tt_round", "tt.tt_round", None),
    ("tthjb.tt", "tt_matvec", "tt.tt_matvec", None),
    ("tthjb.tt", "tt_hadamard", "tt.tt_hadamard", None),
    ("tthjb.tt", "TTTensor.eval", "tt.TTTensor.eval", "eval"),
    ("tthjb.tt", "save_tt", "cli.save_tt", None),
    ("tthjb.tt", "load_tt", "cli.load_tt", None),
    ("tthjb.cross", "tt_cross", "cross.tt_cross", "cross"),
    ("tthjb.amen", "amen_solve_shifted", "amen.amen_solve_shifted", "rank"),
    ("tthjb.assembly", "GalerkinSystem.operator", "assembly.operator", "rank"),
    ("tthjb.assembly", "GalerkinSystem.rhs", "assembly.rhs", "rhs"),
    ("tthjb.assembly", "GalerkinSystem.feedback", "policy.feedback", "rank"),
    ("tthjb.assembly", "assemble_drift", "assembly.assemble_drift", None),
    ("tthjb.assembly", "control_map", "assembly.control_map", None),
    ("tthjb.assembly", "project_to_basis", "assembly.project_to_basis", None),
    ("tthjb.basis", "build_basis", "basis.build_basis", None),
    ("tthjb.models", "ControlledDynamics.ell_tt", "models.ell_tt", None),
    ("tthjb.models", "allen_cahn_1d", "models.allen_cahn_1d", "model"),
    ("tthjb.models", "fokker_planck", "models.fokker_planck", "model"),
    ("tthjb.models", "fokker_planck_unshifted", "models.fokker_planck_unshifted", None),
    ("tthjb.models", "lq", "models.lq", "model"),
    ("tthjb.policy", "policy_iterate", "policy.policy_iterate", None),
    ("tthjb.policy", "ValueFunction.gradient", "policy.gradient", "gradient"),
    ("tthjb.rollout", "rollout", "rollout.rollout", "rollout"),
    ("tthjb.rollout", "compare", "rollout.compare", None),
    ("tthjb.rollout", "trajectory_to_csv", "cli.trajectory_to_csv", None),
    ("tthjb.rollout", "comparison_to_json", "cli.comparison_to_json", None),
    ("tthjb.cli", "run", "cli.run", None),
]

ARTIFACT_SPANS = ("cli.save_tt", "cli.trajectory_to_csv", "cli.comparison_to_json")


def _resolve(module_name: str, path: str):
    """(owner, attribute name, object) for a dotted path inside a module."""
    owner = sys.modules[module_name]
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


def _rebind_sites(original):
    """Every (namespace, key) in the loaded tthjb modules that holds original."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tthjb" or mod_name.startswith("tthjb.")):
            continue
        for key, val in vars(mod).items():
            if val is original:
                sites.append((mod, key))
            elif isinstance(val, dict):
                # registries such as models.MODELS hold the factories too
                sites.extend((val, k) for k, v in val.items() if v is original)
    return sites


def _set(site, value):
    owner, key = site
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Patcher:
    """Replaces objects at their call sites and restores them on uninstall."""

    def __init__(self):
        self._undo = []

    def replace(self, module_name: str, path: str, make_wrapper) -> None:
        # every namespace must exist before patching: a module imported
        # later would bind the wrapper and keep it after uninstall
        importlib.import_module("tthjb.cli")
        owner, name, original = _resolve(module_name, path)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            sites = [(owner, name)]
        else:
            sites = _rebind_sites(original)
        for site in sites:
            self._undo.append((site, original))
            _set(site, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            site, original = self._undo.pop()
            _set(site, original)


class PhaseClock:
    """Phase boundaries of one solve, timed from outside the library.

    Setup ends when policy iteration asks for its initial policy (after the
    model, basis and Galerkin system are built); the solve ends when
    ``policy_iterate`` returns; its model and result are kept for the checks.
    """

    def __init__(self):
        self.solve_start = None
        self.solve_end = None
        self.solve_calls = 0
        self.model = None
        self.result = None
        self._patcher = Patcher()

    def install(self) -> None:
        def on_initial_policy(fn):
            def wrapper(*args, **kwargs):
                if self.solve_start is None:
                    self.solve_start = time.perf_counter()
                return fn(*args, **kwargs)
            return wrapper

        def on_policy_iterate(fn):
            def wrapper(*args, **kwargs):
                self.solve_calls += 1
                out = fn(*args, **kwargs)
                self.solve_end = time.perf_counter()
                self.model, self.result = args[0], out
                return out
            return wrapper

        self._patcher.replace("tthjb.policy", "initial_policy", on_initial_policy)
        self._patcher.replace("tthjb.policy", "policy_iterate", on_policy_iterate)

    def uninstall(self) -> None:
        self._patcher.uninstall()


class Tracer:
    """In-memory spans ``[id, parent, name, start, end, attrs]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patcher = Patcher()

    def wrap(self, name: str, fn, extract=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, clock(), None, None]
            spans.append(span)
            stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if extract is not None:
                span[5] = extract(self, args, out)
            return out

        return wrapper

    def install(self) -> None:
        for module_name, path, name, kind in TRACED:
            extract = _EXTRACT.get(kind)
            if kind == "rollout":
                self._patcher.replace(module_name, path,
                                      lambda fn, n=name: self._wrap_rollout(n, fn))
            else:
                self._patcher.replace(module_name, path,
                                      lambda fn, n=name, e=extract: self.wrap(n, fn, e))

    def uninstall(self) -> None:
        self._patcher.uninstall()

    def _wrap_rollout(self, name, fn):
        # controllers are closures built inside cli.run; wrap them per call
        def with_traced_controller(model, controller, *args, **kwargs):
            if controller is not None:
                controller = self.wrap("rollout.controller", controller)
            return fn(model, controller, *args, **kwargs)

        return self.wrap(name, with_traced_controller)

    def _wrap_model(self, model):
        for attr in ("f_tt_builder", "channel_builder"):
            builder = getattr(model, attr)
            if builder is not None:
                setattr(model, attr, self.wrap(f"models.{attr}", builder))


def _points(x) -> int:
    shape = getattr(x, "shape", None)
    return 1 if not shape or len(shape) == 1 else int(shape[0])


_EXTRACT = {
    "eval": lambda tr, args, out: {"points": _points(args[1])},
    "gradient": lambda tr, args, out: {"points": _points(args[1])},
    "rank": lambda tr, args, out: {"rank": out.max_rank},
    "rhs": lambda tr, args, out: {"rank": out[0].max_rank},
    "cross": lambda tr, args, out: {
        "evals": out.n_evals, "sweeps": out.sweeps,
        "converged": bool(out.converged), "rank": out.tensor.max_rank},
    # a model's TT builders are per-instance closures, wrapped as it is made
    "model": lambda tr, args, out: tr._wrap_model(out),
}


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap and
    their durations add up; clipping to the parent guards clock ties.
    """
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [max((end - start) - child_time[sid], 0.0)
            for sid, _, _, start, end, _ in spans]


def layer_metrics(spans, solve_start=None) -> dict:
    """Per-layer metrics from a finished trace (see perfbench/README.md)."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span, own in zip(spans, selfs):
        by_name[span[2]].append((span, own))
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span[2])

    def total(name):
        return sum(s[4] - s[3] for s, _ in by_name[name])

    def count(name):
        return len(by_name[name])

    def attr_sum(name, key):
        return sum((s[5] or {}).get(key, 0) for s, _ in by_name[name])

    def attr_max(name, key):
        return max(((s[5] or {}).get(key, 0) for s, _ in by_name[name]), default=0)

    cross_calls = count("cross.tt_cross")
    rhs_calls = count("assembly.rhs")
    rhs_with_cross = sum(1 for s, _ in by_name["assembly.rhs"]
                         if "cross.tt_cross" in children[s[0]])
    grad_calls = count("policy.gradient")
    # Galerkin build: assembly spans that start before the first iteration
    setup_end = float("inf") if solve_start is None else solve_start
    assembly_setup = sum(
        s[4] - s[3] for s in spans
        if s[2].startswith("assembly.") and s[3] < setup_end
        and (s[1] is None or not spans[s[1]][2].startswith("assembly."))
    )
    out = {
        "cross.calls": cross_calls,
        "cross.s": total("cross.tt_cross"),
        "cross.evals": attr_sum("cross.tt_cross", "evals"),
        "cross.sweeps": attr_sum("cross.tt_cross", "sweeps"),
        "cross.converged_frac": (attr_sum("cross.tt_cross", "converged") / cross_calls
                                 if cross_calls else 0.0),
        "cross.rank_max": attr_max("cross.tt_cross", "rank"),
        "tt.eval_points": attr_sum("tt.TTTensor.eval", "points"),
        "tt.eval_s": total("tt.TTTensor.eval"),
        "tt.round_calls": count("tt.tt_round"),
        "tt.round_s": total("tt.tt_round"),
        "tt.matvec_s": total("tt.tt_matvec"),
        "tt.hadamard_s": total("tt.tt_hadamard"),
        "amen.calls": count("amen.amen_solve_shifted"),
        "amen.s": total("amen.amen_solve_shifted"),
        "amen.rank_max": attr_max("amen.amen_solve_shifted", "rank"),
        "assembly.operator_s": total("assembly.operator"),
        "assembly.operator_rank_max": attr_max("assembly.operator", "rank"),
        "assembly.rhs_calls": rhs_calls,
        "assembly.rhs_s": total("assembly.rhs"),
        "assembly.rhs_self_s": sum(own for _, own in by_name["assembly.rhs"]),
        "assembly.rhs_rank_max": attr_max("assembly.rhs", "rank"),
        "assembly.rhs_cross_frac": rhs_with_cross / rhs_calls if rhs_calls else 0.0,
        "assembly.setup_s": assembly_setup,
        "policy.feedback_s": total("policy.feedback"),
        "policy.gradient_calls": grad_calls,
        "policy.gradient_points_per_call": (attr_sum("policy.gradient", "points") / grad_calls
                                            if grad_calls else 0.0),
        "policy.gradient_s": total("policy.gradient"),
        "rollout.calls": count("rollout.rollout"),
        "rollout.s": total("rollout.rollout"),
        "rollout.controller_calls": count("rollout.controller"),
        "rollout.controller_s": total("rollout.controller"),
        "models.build_s": sum(total(n) for n in by_name if n.startswith("models.")),
        "basis.build_s": total("basis.build_basis"),
        "cli.artifacts_s": sum(total(n) for n in ARTIFACT_SPANS),
        "cli.cache_hits": count("cli.load_tt"),
    }
    for layer in ("tt", "cross", "amen", "assembly", "policy", "rollout",
                  "models", "basis", "cli"):
        out[f"{layer}.self_s"] = sum(own for s, own in zip(spans, selfs)
                                     if s[2].split(".", 1)[0] == layer)
    out["trace.spans"] = len(spans)
    return out
