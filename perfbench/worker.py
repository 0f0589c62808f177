"""One repetition of one workload, in its own process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR --out FILE [--setup-samples K]

Runs the workload through tthjb's public entry points, checks the solution
from outside (HJB residual, Riccati gap, value at x0) and writes one JSON
record to FILE. ``run.py`` pins the BLAS thread count in the environment it
starts this process with: OpenBLAS reads it once, when numpy is imported.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracing import PhaseClock, Tracer, layer_metrics  # noqa: E402

# Why each workload is here: perfbench/README.md.
WORKLOADS = {
    "lq-d6": {
        "entry": "cli", "preset": "lq", "overrides": {},
        "converges": True, "riccati_max": 1e-3, "residual_max": 1e-3,
    },
    "ac-d8": {
        "entry": "cli", "preset": "paper-allen-cahn-d14",
        "overrides": {"model": {"d": 8}},
        "converges": True, "riccati_max": None, "residual_max": 0.5,
    },
    "fp-d10-2it": {
        # the preset's own sections: resolve_config would merge the default
        # model's "d" into fokker_planck's arguments
        "entry": "api", "preset": "paper-fokker-planck-d10",
        "overrides": {"solver": {"max_policy_iters": 2}},
        "converges": False, "riccati_max": None, "residual_max": 1.0,
    },
}

RESIDUAL_POINTS = 1000
RICCATI_POINTS = 100
API_EVAL_REPEATS = 100
# The seed picks the states that check V; the solver's random start stays
# fixed. With SolverConfig.seed following it, the unconverged cross of
# fp-d10-2it did 12.1-17.7 s of work over five seeds: the draw, not the code.
SOLVER_SEED = 0


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def resolve(spec: dict, seed: int) -> dict:
    """Config dict for the workload, seeded; same layout as tthjb.cli's."""
    from tthjb import cli

    seeds = {"seed": seed, "solver": {"seed": SOLVER_SEED}}
    if spec["entry"] == "cli":
        return cli.resolve_config(spec["preset"], overrides=_merge(spec["overrides"], seeds))
    return _merge(_merge(cli.PRESETS[spec["preset"]], spec["overrides"]), seeds)


def build(cfg: dict):
    """(model, SolverConfig) from a resolved config, through public names."""
    from tthjb import MODELS, SolverConfig

    params = dict(cfg["model"])
    model = MODELS[params.pop("name")](**params)
    config = SolverConfig(**cfg["solver"])
    return model, config


def hjb_residual(V, model, X) -> float:
    """RMS of grad V.(f + g u*) + l + W(u*) over the RMS of l + W(u*)."""
    import numpy as np
    from tthjb.assembly import penalty_cost

    grads, _ = V.gradient(X)
    g = model.channel_eval(X)
    u = -(0.5 / model.gamma) * np.sum(g * grads, axis=1)
    cap = model.penalty.clip
    if cap is not None:
        u = cap * np.tanh(u / cap)
    running = model.state_cost(X) + penalty_cost(u, model.penalty)
    res = np.sum(grads * (model.drift(X) + g * u[:, None]), axis=1) + running
    return float(np.sqrt(np.mean(res**2)) / np.sqrt(np.mean(running**2)))


def riccati_gap(V, model, seed: int) -> float:
    """max |V - x'Pi x| / |x'Pi x| on the Riccati solution of the model's
    linearization; the same sample as tthjb.cli's riccati_match_error."""
    import numpy as np
    from tthjb import solve_riccati

    sol = solve_riccati(model.lin_A, model.lin_B, model.cost_matrix, model.gamma)
    a = V.basis.a
    pts = np.random.default_rng(seed).uniform(-0.5 * a, 0.5 * a,
                                              size=(RICCATI_POINTS, model.dim))
    exact = np.einsum("ni,ij,nj->n", pts, sol.Pi, pts)
    return float(np.max(np.abs(V.eval(pts) - exact) / np.abs(exact)))


def evaluate(V, model, seed: int) -> dict:
    """Checks on a solved value function; none of this is traced."""
    import numpy as np

    a = V.basis.a
    X = np.random.default_rng([seed, 1]).uniform(-0.5 * a, 0.5 * a,
                                                 size=(RESIDUAL_POINTS, model.dim))
    return {
        "hjb_residual": hjb_residual(V, model, X),
        "riccati_err": riccati_gap(V, model, seed),
        "value_x0": float(V.eval(np.asarray(model.x0_default).reshape(1, -1))[0]),
    }


def setup_time(cfg: dict) -> float:
    """Model, basis and Galerkin build up to the first policy iteration."""
    from dataclasses import replace

    import tthjb

    clock = PhaseClock()
    clock.install()
    try:
        t0 = time.perf_counter()
        model, config = build(cfg)
        tthjb.policy_iterate(model, replace(config, max_policy_iters=0))
    finally:
        clock.uninstall()
    return clock.solve_start - t0


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": threads, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": sys.version.split()[0]}


def run_rep(spec: dict, seed: int, workdir, trace: bool = False,
            setup_samples: int = 0) -> dict:
    """Run one repetition; returns the raw record that run.py gates."""
    import tthjb
    from tthjb import cli

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = resolve(spec, seed)
    clock = PhaseClock()
    clock.install()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    rec = {"trace": bool(trace), "exit_code": 0}
    try:
        t0 = time.perf_counter()
        if spec["entry"] == "cli":
            rec["exit_code"] = cli.run(cfg, workdir / "out")
        else:
            model, config = build(cfg)
            tthjb.policy_iterate(model, config)
        t_run = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.uninstall()
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec["cache_hit"] = clock.solve_calls == 0
    if tracer is not None:
        rec["layers"] = layer_metrics(tracer.spans, clock.solve_start)
        rec["spans"] = tracer.spans
    if rec["cache_hit"]:
        return rec

    V, state = clock.result
    model = clock.model
    checks = evaluate(V, model, seed)
    rec.update(policy_iters=state.iteration, final_rank=V.v.max_rank,
               converged=bool(state.converged),
               hjb_residual=checks["hjb_residual"], riccati_err=checks["riccati_err"],
               setup_s=clock.solve_start - t0, solve_s=clock.solve_end - clock.solve_start)
    if spec["entry"] == "cli":
        with open(workdir / "out" / "summary.json") as fh:
            summary = json.load(fh)
        rec["cost_hjb"] = summary["total_costs"]["hjb"]
        rec["eval_s"] = t_run - clock.solve_end
    else:
        # no closed loop here: the cost is the one the solve predicts from
        # x0, and evaluation is the post-solve check of V
        rec["cost_hjb"] = checks["value_x0"]
        times = []
        for _ in range(API_EVAL_REPEATS):
            t1 = time.perf_counter()
            evaluate(V, model, seed)
            times.append(time.perf_counter() - t1)
        rec["eval_s"] = statistics.median(times)
    rec["wall_s"] = rec["setup_s"] + rec["solve_s"] + rec["eval_s"]
    rec["setup_samples"] = [rec["setup_s"]] + [setup_time(cfg) for _ in range(setup_samples)]
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-samples", type=int, default=0)
    args = ap.parse_args(argv)
    try:
        rec = run_rep(WORKLOADS[args.workload], args.seed, args.workdir,
                      trace=bool(args.trace), setup_samples=args.setup_samples)
        rec["env"] = environment()
        spans = rec.pop("spans", None)
        if spans is not None:
            with open(Path(args.out).with_suffix(".spans.json"), "w") as fh:
                json.dump({"fields": ["id", "parent", "name", "start", "end", "attrs"],
                           "spans": spans}, fh)
        code = 0
    except Exception:  # noqa: BLE001 - the parent records the failure
        rec = {"error": traceback.format_exc()}
        code = 1
    with open(args.out, "w") as fh:
        json.dump(rec, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
