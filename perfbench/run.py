"""The tthjb benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload lq-d6 --seed 0 --seconds 10 --trace 0

Runs repetitions of the workload, each in a fresh ``worker.py`` process with
BLAS pinned to one thread, until ``--seconds`` have passed and at least two
have run. Each repetition is gated (see ``rep_failures``). With ``--trace 0``
only phase boundaries are timed and the end-to-end metrics are printed; with
``--trace 1`` one untraced repetition is followed by one traced repetition
and the per-layer metrics are printed, with the tracing overhead. The last line of standard output is the JSON
result; the full record goes to ``.perfbench_runs/`` in the checkout.
Workloads, metrics and gates are described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
PROGRAM = ROOT / "src" / "tthjb" / "__init__.py"

MIN_REPS = 2
SETUP_SAMPLES = 9          # extra set-ups per untraced repetition
RUN_BUDGET_S = 170.0       # the whole command must end within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "solve_s": "s", "eval_s": "s",
    "policy_iters": "count", "final_rank": "count", "cost_hjb": "cost",
    "riccati_err": "ratio", "hjb_residual": "ratio", "peak_rss_mb": "MB",
}
# quantities that must repeat exactly for one seed and one BLAS setting
REPEATED = ("policy_iters", "final_rank", "cost_hjb")


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("rank_max"):
        return "rank"
    if name.endswith("points_per_call"):
        return "points"
    return "count"


def rep_failures(spec: dict, rec: dict | None) -> list:
    """Reasons one repetition counts as failed; empty when it passed."""
    if rec is None:
        return ["worker produced no record"]
    if "error" in rec:
        return ["worker raised: " + rec["error"].strip().splitlines()[-1]]
    out = []
    if rec.get("exit_code", 0) != 0:
        out.append(f"tthjb exit code {rec['exit_code']}")
    if rec.get("cache_hit") or rec.get("layers", {}).get("cli.cache_hits", 0):
        out.append("value-function cache hit")
    if rec.get("cache_hit"):
        return out
    if not math.isfinite(rec["cost_hjb"]):
        out.append(f"non-finite cost {rec['cost_hjb']}")
    if spec["converges"] and not rec["converged"]:
        out.append("policy iteration did not converge")
    if spec["riccati_max"] is not None and not rec["riccati_err"] <= spec["riccati_max"]:
        out.append(f"riccati_err {rec['riccati_err']:.3e} above {spec['riccati_max']:.0e}")
    if not math.isfinite(rec["hjb_residual"]) or (
            spec["residual_max"] is not None and rec["hjb_residual"] > spec["residual_max"]):
        out.append(f"hjb_residual {rec['hjb_residual']:.3e} above {spec['residual_max']}")
    return out


def repeat_failures(recs: list) -> list:
    """Per repetition, the REPEATED values that differ from the first one's."""
    return [[f"{k} {rec[k]!r} != {recs[0][k]!r}" for k in REPEATED if rec[k] != recs[0][k]]
            for rec in recs]


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def run_worker(workload, seed, trace, rep_dir: Path, deadline: float) -> dict | None:
    rep_dir.mkdir(parents=True, exist_ok=True)
    out = rep_dir / "record.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--workdir", str(rep_dir),
           "--out", str(out), "--setup-samples", str(0 if trace else SETUP_SAMPLES)]
    try:
        subprocess.run(cmd, env=dict(os.environ, **BLAS_ENV), cwd=ROOT,
                       timeout=max(deadline - time.monotonic(), 1.0), check=False,
                       stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return {"error": "repetition exceeded the run budget"}
    finally:
        # cli artifacts and the value-function cache are never reused
        shutil.rmtree(rep_dir / "out", ignore_errors=True)
    if not out.is_file():
        return None
    with open(out) as fh:
        return json.load(fh)


def end_to_end(recs: list) -> dict:
    metrics = {k: statistics.median(r[k] for r in recs)
               for k in END_TO_END if k != "setup_s"}
    metrics["setup_s"] = statistics.median(s for r in recs for s in r["setup_samples"])
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tthjb benchmark (perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not PROGRAM.is_file():
        print(f"error: the tthjb sources are missing ({PROGRAM.relative_to(ROOT)})",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    recs = []
    while True:
        traced = bool(args.trace) and len(recs) == 1
        recs.append(run_worker(args.workload, args.seed, traced,
                               run_dir / f"rep{len(recs)}", deadline))
        if args.trace and len(recs) == 2:
            break
        if len(recs) >= MIN_REPS and time.monotonic() - started >= args.seconds:
            break

    failures = [rep_failures(spec, r) for r in recs]
    passed = [i for i, f in enumerate(failures) if not f]
    for i, extra in zip(passed, repeat_failures([recs[i] for i in passed])):
        failures[i].extend(extra)
    good = [r for r, f in zip(recs, failures) if not f]

    metrics = None
    if args.trace and len(good) == 2:
        metrics = per_layer(good[0], good[1])
    elif not args.trace and good:
        metrics = end_to_end(good)
    failed = sum(1 for f in failures if f)
    result = {"correct": failed == 0 and metrics is not None,
              "attempted": len(recs), "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": git_commit(), "nproc": os.cpu_count(),
        "blas_env": BLAS_ENV, "failed_frac": failed / len(recs),
        "failures": failures, "reps": recs, "result": result,
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for i, f in enumerate(failures):
        for reason in f:
            print(f"FAILED rep{i}: {reason}", file=sys.stderr)
    if metrics is None:
        print("error: no repetition passed its gates", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.8g} {m['unit']}")
    print(f"{'failed_frac':34s} {failed / len(recs):>16.8g} ratio ({failed}/{len(recs)})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
