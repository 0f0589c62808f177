"""Fast checks of the benchmark itself, on a tiny LQ problem (d=3).

    python3 -m pytest perfbench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

TINY = {
    "entry": "cli", "preset": "lq",
    "overrides": {"model": {"d": 3}, "solver": {"n": 3, "delta": 1e-3},
                  "rollout": {"horizon": 2.0}},
    "converges": True, "riccati_max": 1e-2, "residual_max": 1e-2,
}


def _call_sites():
    """Name -> object at each call site the tracer must reach."""
    import tthjb
    import tthjb.cli  # noqa: F401 - holds its own bindings
    from tthjb.models import MODELS
    from tthjb.policy import ValueFunction
    from tthjb.tt import TTTensor

    mods = sys.modules
    return {
        "policy.amen_solve_shifted": mods["tthjb.policy"].amen_solve_shifted,
        "assembly.tt_cross": mods["tthjb.assembly"].tt_cross,
        "cli.rollout": mods["tthjb.cli"].rollout,
        "rollout.rollout": mods["tthjb.rollout"].rollout,
        "tthjb.rollout": tthjb.rollout,
        "cli.policy_iterate": mods["tthjb.cli"].policy_iterate,
        "MODELS.lq": MODELS["lq"],
        "TTTensor.eval": TTTensor.__dict__["eval"],
        "ValueFunction.gradient": ValueFunction.__dict__["gradient"],
    }


def test_wrappers_install_at_call_sites_and_uninstall():
    before = _call_sites()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _call_sites()
        for name, obj in during.items():
            assert obj is not before[name], name
        # one wrapper per function, whichever name the caller uses
        assert during["cli.rollout"] is during["rollout.rollout"] is during["tthjb.rollout"]
    finally:
        tracer.uninstall()
    after = _call_sites()
    for name, obj in after.items():
        assert obj is before[name], name


def test_phase_clock_and_tracer_nest_and_unwind():
    before = _call_sites()
    clock = tracing.PhaseClock()
    clock.install()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert _call_sites()["cli.policy_iterate"] is not before["cli.policy_iterate"]
    clock.uninstall()
    assert _call_sites() == before


def test_self_time_subtracts_direct_children_only():
    spans = [
        [0, None, "cli.run", 0.0, 10.0, None],
        [1, 0, "assembly.rhs", 1.0, 3.0, None],
        [2, 1, "cross.tt_cross", 1.5, 2.5, None],
        [3, 0, "assembly.rhs", 4.0, 8.0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 1.0, 4.0])
    m = tracing.layer_metrics(spans)
    assert m["assembly.rhs_calls"] == 2
    assert m["assembly.rhs_s"] == pytest.approx(6.0)
    assert m["assembly.rhs_self_s"] == pytest.approx(5.0)
    assert m["assembly.rhs_cross_frac"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(4.0)


def test_traced_tiny_run_reaches_every_layer(tmp_path):
    rec = worker.run_rep(TINY, seed=0, workdir=tmp_path, trace=True)
    assert bench.rep_failures(TINY, rec) == []
    layers = rec["layers"]
    assert layers["amen.calls"] == rec["policy_iters"]
    assert layers["assembly.rhs_calls"] == rec["policy_iters"]
    assert layers["cross.calls"] == 0
    assert layers["rollout.calls"] == 6
    assert layers["rollout.controller_calls"] > 0
    assert layers["policy.gradient_calls"] > 0
    assert layers["cli.cache_hits"] == 0
    assert layers["models.build_s"] > 0 and layers["basis.build_s"] > 0
    assert layers["assembly.setup_s"] > 0
    assert all(s[4] >= s[3] for s in rec["spans"])


def test_untraced_run_records_phases_and_setups(tmp_path):
    rec = worker.run_rep(TINY, seed=0, workdir=tmp_path, setup_samples=2)
    assert bench.rep_failures(TINY, rec) == []
    assert "layers" not in rec
    assert len(rec["setup_samples"]) == 3
    assert rec["wall_s"] == pytest.approx(rec["setup_s"] + rec["solve_s"] + rec["eval_s"])
    assert 0 < rec["setup_s"] < rec["solve_s"]


def test_cache_hit_trips_gate(tmp_path):
    worker.run_rep(TINY, seed=0, workdir=tmp_path)
    rec = worker.run_rep(TINY, seed=0, workdir=tmp_path)
    assert rec["cache_hit"]
    assert any("cache hit" in r for r in bench.rep_failures(TINY, rec))


GOOD = {"exit_code": 0, "cache_hit": False, "cost_hjb": 1.5, "converged": True,
        "riccati_err": 1e-4, "hjb_residual": 1e-4, "policy_iters": 7, "final_rank": 3}


@pytest.mark.parametrize("bad, reason", [
    ({"cost_hjb": math.nan}, "non-finite cost"),
    ({"cost_hjb": math.inf}, "non-finite cost"),
    ({"riccati_err": 0.5}, "riccati_err"),
    ({"hjb_residual": 0.5}, "hjb_residual"),
    ({"hjb_residual": math.nan}, "hjb_residual"),
    ({"converged": False}, "did not converge"),
    ({"exit_code": 4}, "exit code"),
    ({"cache_hit": True}, "cache hit"),
    ({"layers": {"cli.cache_hits": 1}}, "cache hit"),
])
def test_gates_trip_on_bad_records(bad, reason):
    assert bench.rep_failures(TINY, GOOD) == []
    assert any(reason in r for r in bench.rep_failures(TINY, {**GOOD, **bad}))


def test_gates_trip_on_worker_failure():
    assert bench.rep_failures(TINY, None)
    assert bench.rep_failures(TINY, {"error": "Traceback ...\nValueError: boom\n"}) == [
        "worker raised: ValueError: boom"]


def test_repeats_must_agree_exactly():
    wrong = {**GOOD, "cost_hjb": GOOD["cost_hjb"] * (1 + 1e-15)}
    assert bench.repeat_failures([GOOD, dict(GOOD)]) == [[], []]
    out = bench.repeat_failures([GOOD, wrong, {**GOOD, "final_rank": 4}])
    assert out[0] == [] and "cost_hjb" in out[1][0] and "final_rank" in out[2][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lq-d6", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not (tmp_path / ".perfbench_runs").exists()


def test_end_to_end_metrics_are_medians():
    rec = {**GOOD, "wall_s": 1.0, "setup_s": 0.1, "solve_s": 0.5, "eval_s": 0.4,
           "peak_rss_mb": 90.0, "setup_samples": [0.1, 0.2, 0.3]}
    metrics = bench.end_to_end([rec, {**rec, "wall_s": 3.0}])
    assert set(metrics) == set(bench.END_TO_END)
    assert metrics["wall_s"]["value"] == 2.0
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)
    json.dumps(metrics)


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    layer_names = set(tracing.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert all(m["unit"] == bench.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
