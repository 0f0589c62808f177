"""Experiment runner: config parsing, solves, rollouts, artifact emission."""
from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import itertools
import json
import logging
import numbers
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import __version__
from .models import MODELS, fokker_planck_unshifted, solve_riccati
from .policy import (
    NotStabilizable,
    PolicyDivergence,
    SolverConfig,
    ValueFunction,
    feedback,
    hjb_residual,
    history_to_csv,
    policy_iterate,
    solver_basis,
)
from .rollout import (
    comparison_to_json,
    rollout,
    score,
    trajectory_to_csv,
)
from .tt import load_tt, save_tt

__all__ = ["main", "run", "sweep", "resolve_config", "PRESETS"]

log = logging.getLogger(__name__)

EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_ROLLOUT = 4

_SOLVER_FIELDS = {f.name for f in dataclass_fields(SolverConfig)}

# the sources whose bytes key the value-function cache
_PACKAGE_DIR = Path(__file__).resolve().parent

DEFAULT_CONFIG = {
    "model": {"name": "allen_cahn_1d", "d": 10},
    "solver": {},
    "rollout": {"x0": "default", "horizon": None, "tolerance": 1e-8},
    "outputs": {"store_states": False},
    "seed": 0,
}

PRESETS = {
    "paper-allen-cahn-d14": {
        "model": {"name": "allen_cahn_1d", "d": 14},
        "solver": {"delta": 1e-3, "mu0": 50.0, "n": 5},
    },
    "paper-fokker-planck-d10": {
        "model": {"name": "fokker_planck", "D": 11},
        "solver": {"delta": 1e-3, "mu0": 50.0, "n": 5},
    },
    "lq": {
        "model": {"name": "lq", "d": 6},
        "solver": {"delta": 1e-4, "n": 4},
    },
}


class ConfigError(ValueError):
    pass


def _deep_merge(base: dict, override: dict) -> dict:
    """override laid over base, section by section.  A section that names
    another model than the one it lands on replaces it: one model's
    parameters never reach another's constructor."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = out.get(key)
        if isinstance(val, dict) and isinstance(here, dict) and (
                val.get("name", here.get("name")) == here.get("name")):
            out[key] = _deep_merge(here, val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def resolve_config(preset: str | None = None, config_path=None,
                   overrides: dict | None = None) -> dict:
    """Layer defaults <- preset <- config file <- CLI overrides.  The layers
    under the overrides are checked first: an override would replace a
    malformed section or seed."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        cfg = _deep_merge(cfg, PRESETS[preset])
    if config_path is not None:
        try:
            with open(config_path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must contain a JSON object")
        cfg = _deep_merge(cfg, user)
    if overrides:
        _check_shape(cfg)
        _seed(cfg)
        cfg = _deep_merge(cfg, overrides)
    return cfg


def _check_shape(cfg: dict) -> None:
    """Every section a JSON object of known keys and store_states a bool;
    the model's keys are its constructor's to judge."""
    unknown = set(cfg) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for section in ("model", "solver", "rollout", "outputs"):
        if not isinstance(cfg[section], dict):
            raise ConfigError(f"{section} must be a JSON object, got {cfg[section]!r}")
    for section, known in (("solver", _SOLVER_FIELDS), ("rollout", DEFAULT_CONFIG["rollout"]),
                           ("outputs", DEFAULT_CONFIG["outputs"])):
        unknown = set(cfg[section]) - set(known)
        if unknown:
            raise ConfigError(f"unknown {section} fields: {sorted(unknown)}")
    store_states = cfg["outputs"].get("store_states", False)
    if not isinstance(store_states, bool):
        raise ConfigError(f"outputs store_states must be true or false, got {store_states!r}")


def _build_model(cfg: dict):
    model_cfg = dict(cfg["model"])
    name = model_cfg.pop("name", None)
    if name not in MODELS:
        raise ConfigError(f"unknown model {name!r}; available: {sorted(MODELS)}")
    try:
        return MODELS[name](**model_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameters for model {name!r}: {exc}") from exc


def _seed(cfg: dict) -> int:
    """The run's seed: the solver's unless it sets its own, the residual's
    and the Riccati check's."""
    seed = cfg.get("seed", 0)
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def _build_solver_config(cfg: dict, seed: int) -> SolverConfig:
    solver_cfg = dict(cfg["solver"])
    solver_cfg.setdefault("seed", seed)
    try:
        return SolverConfig(**solver_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver configuration: {exc}") from exc


def _resolve_x0(cfg: dict, model) -> np.ndarray:
    """The rollouts' initial state: "default", the model's own, or a list of
    model.dim finite numbers."""
    spec = cfg["rollout"].get("x0", "default")
    if spec == "default":
        if model.x0_default is None:
            raise ConfigError(f"model {model.name!r} has no default initial state")
        return np.asarray(model.x0_default, dtype=float)
    if not (isinstance(spec, (list, tuple)) and all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) for x in spec)):
        raise ConfigError(f'x0 must be "default" or a list of numbers, got {spec!r}')
    x0 = np.asarray(spec, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ConfigError(f"x0 entries must be finite, got {spec!r}")
    if x0.size != model.dim:
        raise ConfigError(f"x0 has {x0.size} entries, model dimension is {model.dim}")
    return x0


def _positive(value, name: str) -> float:
    """A rollout setting as a finite number > 0."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Real) and np.isfinite(value) and value > 0):
        raise ConfigError(f"rollout {name} must be a finite number > 0, got {value!r}")
    return float(value)


def _cache_key(cfg: dict) -> str:
    """Digest of the solve's config and of the package sources.

    Any change to the solver changes its round-off, so a value function
    cached by other code is never served.
    """
    h = hashlib.sha256(json.dumps(
        {"model": cfg["model"], "solver": cfg["solver"],
         "seed": cfg.get("seed", 0), "version": __version__},
        sort_keys=True,
    ).encode())
    for path in sorted(_PACKAGE_DIR.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:24]


def _json_default(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.integer, np.floating)):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _write_whole(path: Path, write) -> None:
    """write(tmp) to a temporary name beside path, then renamed over it, so
    that no reader sees a half-written file."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    write(tmp)
    os.replace(tmp, path)


def run(cfg: dict, out_dir, cache_dir=None) -> int:
    """Execute one configured experiment; returns a process exit code."""
    t_start = time.perf_counter()
    try:
        _check_shape(cfg)
        model = _build_model(cfg)
        seed = _seed(cfg)
        config = _build_solver_config(cfg, seed)
        x0 = _resolve_x0(cfg, model)
        horizon = cfg["rollout"].get("horizon")     # null: the evaluated model's own
        if horizon is not None:
            horizon = _positive(horizon, "horizon")
        tol = _positive(cfg["rollout"].get("tolerance", 1e-8), "tolerance")
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG

    out = Path(out_dir)
    cache = Path(cache_dir) if cache_dir is not None else out / "cache"
    key = _cache_key(cfg)
    tt_path = cache / f"{key}.tt"
    meta_path = cache / f"{key}.json"

    cached = None
    if tt_path.exists() and meta_path.exists():
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
            cached = load_tt(tt_path), meta["history"], meta["iterations"], meta["converged"]
        except (OSError, ValueError, KeyError) as exc:
            log.warning("unreadable value-function cache entry %s, solving again: %s", key, exc)
    if cached is not None:
        log.info("value-function cache hit: %s", key)
        v, history, iterations, converged = cached
        V = ValueFunction(v, solver_basis(model, config))
    else:
        try:
            V, state = policy_iterate(model, config)
        except NotStabilizable as exc:
            log.error("configuration error: %s", exc)
            return EXIT_CONFIG
        except PolicyDivergence as exc:
            log.error("solver diverged: %s", exc)
            return EXIT_DIVERGENCE
        history = state.history
        iterations, converged = state.iteration, state.converged
        cache.mkdir(parents=True, exist_ok=True)
        # each file written whole, the .json last: a sweep's workers share the cache
        _write_whole(tt_path, lambda path: save_tt(V.v, path))
        _write_whole(meta_path, lambda path: path.write_text(json.dumps(
            {"history": history, "iterations": iterations, "converged": converged})))

    out.mkdir(parents=True, exist_ok=True)
    save_tt(V.v, out / "value_function.tt")
    history_to_csv(history, out / "history.csv")

    # a model solved with a destabilizing shift is judged on the physical
    # dynamics
    eval_model = model if model.unshifted_A is None else fokker_planck_unshifted(model)
    horizon = horizon or eval_model.horizon
    controllers = {"hjb": feedback(V, model)}
    if eval_model.admissible_uncontrolled:
        controllers["uncontrolled"] = None
    try:
        lqr = solve_riccati(eval_model.lin_A, eval_model.lin_B,
                            eval_model.cost_matrix, eval_model.gamma)
        controllers["lqr"] = lqr.feedback
    except ValueError:
        lqr = None
        log.info("no LQR baseline (linearization not stabilizable)")

    store_states = cfg["outputs"].get("store_states", False)
    trajectories = {}
    for name, ctrl in controllers.items():
        traj = rollout(eval_model, ctrl, x0, horizon, tol=tol)
        trajectories[name] = traj
        trajectory_to_csv(traj, out / f"trajectory_{name}.csv",
                          include_states=store_states)
    report = {name: score(traj) for name, traj in trajectories.items()}
    comparison_to_json(report, out / "comparison.json")

    summary = {
        "total_costs": {name: entry["total_cost"] for name, entry in report.items()},
        "policy_iterations": iterations,
        "converged": converged,
        "max_tt_rank": V.v.max_rank,
        "hjb_residual": hjb_residual(V, model, seed=seed),
        "wall_seconds": time.perf_counter() - t_start,
        "config": cfg,
        "code_version": __version__,
        "seed": seed,
    }
    # lq is its own eval_model, so lqr solved the same Riccati equation
    if model.name == "lq" and lqr is not None:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.5 * model.a, 0.5 * model.a, size=(100, model.dim))
        exact = lqr.value(pts)
        approx = V.eval(pts)
        summary["riccati_match_error"] = float(
            np.max(np.abs(approx - exact) / np.abs(exact))
        )
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)

    if trajectories["hjb"].failed:
        log.error("closed-loop rollout failed: %s", trajectories["hjb"].message)
        return EXIT_ROLLOUT
    log.info("run complete: J_hjb=%.6g, %d iterations, rank %d",
             report["hjb"]["total_cost"], iterations, V.v.max_rank)
    return 0


def _parse_sweep_arg(arg: str):
    if "=" not in arg:
        raise ConfigError(f"sweep spec {arg!r} must look like KEY=V1,V2,...")
    key, _, raw = arg.partition("=")
    values = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            values.append(int(tok))
        except ValueError:
            try:
                values.append(float(tok))
            except ValueError:
                values.append(tok)
    if not key.strip() or not values:
        raise ConfigError(f"sweep spec {arg!r} needs a key and at least one value")
    return key.strip(), values


def _apply_sweep_value(cfg: dict, key: str, value) -> dict:
    if "." in key:
        section, _, name = key.partition(".")
        if section not in ("model", "solver", "rollout"):
            raise ConfigError(f"unknown sweep section {section!r}")
    else:
        section = "solver" if key in _SOLVER_FIELDS else "model"
        name = key
    return _deep_merge(cfg, {section: {name: value}})


def _sweep_worker(args):
    cfg, out_dir, cache_dir = args
    t0 = time.perf_counter()
    try:
        code = run(cfg, out_dir, cache_dir=cache_dir)
    except Exception as exc:  # noqa: BLE001 - sweep rows isolate failures
        log.warning("sweep run failed: %s", exc)
        return None, np.nan, time.perf_counter() - t0, True
    seconds = time.perf_counter() - t0
    if code != 0:
        return None, np.nan, seconds, True
    with open(Path(out_dir) / "summary.json") as fh:
        summary = json.load(fh)
    return summary, summary["total_costs"]["hjb"], seconds, False


def sweep(cfg: dict, grids: list, out_dir, jobs: int = 1) -> Path:
    """Run a one- or two-parameter grid; one CSV row per run."""
    if len(grids) > 2:
        raise ConfigError("at most two sweep parameters are supported")
    _check_shape(cfg)
    keys = [k for k, _ in grids]
    out = Path(out_dir)
    cache_dir = out / "cache"
    combos = list(itertools.product(*[vals for _, vals in grids]))
    tasks = []
    for i, combo in enumerate(combos):
        run_cfg = cfg
        for key, val in zip(keys, combo):
            run_cfg = _apply_sweep_value(run_cfg, key, val)
        _check_shape(run_cfg)                    # a sweep key may name no field
        tag = "_".join(f"{k.split('.')[-1]}{v}" for k, v in zip(keys, combo))
        tasks.append((run_cfg, out / f"run_{i:03d}_{tag}", cache_dir))

    out.mkdir(parents=True, exist_ok=True)
    if jobs > 1 and len(tasks) > 1:
        # a fork pool starts all its workers up front
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(t) for t in tasks]

    csv_path = out / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys + ["total_cost", "iterations", "max_rank",
                                "seconds", "failed"])
        for combo, (summary, cost, seconds, failed) in zip(combos, results):
            iters = summary["policy_iterations"] if summary else ""
            rank = summary["max_tt_rank"] if summary else ""
            writer.writerow(list(combo)
                            + [cost if np.isfinite(cost) else "", iters, rank,
                               f"{seconds:.3f}", failed])
    return csv_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tthjb",
        description="Solve a stationary HJB equation in tensor-train form and "
                    "evaluate the resulting feedback in closed loop.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--preset", metavar="NAME",
                        help=f"named preset: {', '.join(sorted(PRESETS))}")
    parser.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: ./out)")
    parser.add_argument("--sweep", metavar="KEY=V1,V2,...", action="append",
                        default=[], help="parameter grid; repeat for a 2D grid")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweeps")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--store-states", action="store_true",
                        help="include state columns in trajectory CSVs")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=os.environ.get("TTHJB_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.store_states:
        overrides["outputs"] = {"store_states": True}
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = resolve_config(args.preset, args.config, overrides)
        if args.sweep:
            grids = [_parse_sweep_arg(s) for s in args.sweep]
            sweep(cfg, grids, args.out, jobs=args.jobs)
            return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
