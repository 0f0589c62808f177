import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tthjb
from tthjb import cli
from tthjb.cli import (
    EXIT_CONFIG,
    PRESETS,
    ConfigError,
    _build_model,
    _cache_key,
    _parse_sweep_arg,
    main,
    resolve_config,
    run,
    sweep,
)

FAST_LQ = {
    "model": {"name": "lq", "d": 4},
    "solver": {"delta": 1e-4, "n": 3, "mu0": 20.0},
    "rollout": {"horizon": 5.0},
}


class TestConfigResolution:
    def test_defaults_materialized(self):
        cfg = resolve_config()
        assert cfg["model"]["name"] == "allen_cahn_1d"
        assert cfg["rollout"]["tolerance"] == 1e-8
        assert cfg["seed"] == 0

    def test_preset_overlays_defaults(self):
        cfg = resolve_config(preset="paper-allen-cahn-d14")
        assert cfg["model"]["d"] == 14
        assert cfg["solver"]["mu0"] == 50.0
        assert cfg["rollout"]["tolerance"] == 1e-8  # default survives

    def test_file_overrides_preset(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"solver": {"n": 4}}))
        cfg = resolve_config(preset="paper-allen-cahn-d14", config_path=path)
        assert cfg["solver"]["n"] == 4
        assert cfg["model"]["d"] == 14

    @staticmethod
    def _layered(tmp_path, layer, model):
        """The default config with the model section laid over it by one layer."""
        if layer == "file":
            path = tmp_path / "c.json"
            path.write_text(json.dumps({"model": model}))
            return resolve_config(config_path=path)
        if layer == "overrides":
            return resolve_config(overrides={"model": model})
        cfg = resolve_config()
        for key, value in model.items():
            cfg = cli._apply_sweep_value(cfg, f"model.{key}", value)
        return cfg

    @pytest.mark.parametrize("layer", ["file", "overrides", "sweep"])
    @pytest.mark.parametrize("model, dim", [({"name": "fokker_planck", "D": 8}, 7),
                                            ({"name": "lq"}, 6)], ids=["fokker_planck", "lq"])
    def test_layer_naming_another_model_replaces_the_section(self, tmp_path, layer, model, dim):
        # every layer merges by one rule: a model section that names another
        # model than the one it lands on replaces it, so the default
        # allen_cahn_1d's d = 10 reaches neither fokker_planck (which takes
        # no d) nor lq (whose own d is 6)
        cfg = self._layered(tmp_path, layer, model)
        assert cfg["model"] == model
        assert _build_model(cfg).dim == dim

    @pytest.mark.parametrize("layer", ["file", "overrides", "sweep"])
    def test_layer_naming_the_same_model_merges(self, tmp_path, layer):
        cfg = self._layered(tmp_path, layer, {"name": "allen_cahn_1d", "sigma": 0.3})
        assert cfg["model"] == {"name": "allen_cahn_1d", "d": 10, "sigma": 0.3}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            resolve_config(preset="nope")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError):
            resolve_config(config_path=path)

    def test_all_presets_resolve(self):
        for name in PRESETS:
            cfg = resolve_config(preset=name)
            assert cfg["model"]["name"]
            assert _build_model(cfg).name == cfg["model"]["name"]

    def test_cache_key_follows_package_sources(self, tmp_path, monkeypatch):
        src = Path(cli.__file__).parent
        for path in src.glob("*.py"):
            shutil.copy(path, tmp_path / path.name)
        monkeypatch.setattr(cli, "_PACKAGE_DIR", tmp_path)
        cfg = resolve_config(overrides=FAST_LQ)
        key = _cache_key(cfg)
        assert _cache_key(cfg) == key
        with open(tmp_path / "tt.py", "a") as fh:
            fh.write("\n# changed\n")
        assert _cache_key(cfg) != key


class TestRun:
    @pytest.fixture(scope="class")
    def lq_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("lqrun")
        cfg = resolve_config(overrides=FAST_LQ)
        code = run(cfg, out)
        return code, out, cfg

    def test_exit_zero_and_artifacts(self, lq_run):
        code, out, _ = lq_run
        assert code == 0
        for name in ("summary.json", "history.csv", "comparison.json",
                     "value_function.tt", "trajectory_hjb.csv",
                     "trajectory_lqr.csv", "trajectory_uncontrolled.csv"):
            assert (out / name).exists()

    def test_summary_contents(self, lq_run):
        _, out, cfg = lq_run
        summary = json.loads((out / "summary.json").read_text())
        assert summary["riccati_match_error"] <= 1e-3
        # measured 1.5e-4; the lq benchmark workload is gated at 1e-3
        assert 0.0 < summary["hjb_residual"] <= 1e-3
        assert summary["config"] == json.loads(json.dumps(cfg))
        assert summary["total_costs"]["hjb"] <= summary["total_costs"]["uncontrolled"]
        assert summary["policy_iterations"] > 0
        assert summary["seed"] == 0

    def test_value_function_roundtrip(self, lq_run):
        from tthjb.tt import load_tt

        _, out, _ = lq_run
        t = load_tt(out / "value_function.tt")
        assert t.d == 4

    def test_reproducible_and_cached(self, lq_run, tmp_path):
        _, out, cfg = lq_run
        out2 = tmp_path / "again"
        code = run(cfg, out2, cache_dir=out / "cache")
        assert code == 0
        a = json.loads((out / "summary.json").read_text())
        b = json.loads((out2 / "summary.json").read_text())
        a.pop("wall_seconds")
        b.pop("wall_seconds")
        assert a == b

    @pytest.mark.parametrize("suffix", [".json", ".tt"])
    def test_truncated_cache_entry_is_a_miss(self, lq_run, tmp_path, monkeypatch, suffix):
        # an entry cut short (a killed writer, a full disk) is solved again
        # and written whole, never a crash of every later run
        _, out, cfg = lq_run
        cache = tmp_path / "cache"
        shutil.copytree(out / "cache", cache)
        whole = {p.suffix: p.read_bytes() for p in cache.iterdir()}
        victim = next(cache.glob(f"*{suffix}"))
        victim.write_bytes(whole[suffix][: len(whole[suffix]) // 2])
        solves = []
        original = cli.policy_iterate
        monkeypatch.setattr(cli, "policy_iterate", lambda *a: solves.append(1) or original(*a))
        assert run(cfg, tmp_path / "o", cache_dir=cache) == 0
        assert solves == [1]
        # the entry is whole again (the rerun repeats V bit for bit; the
        # history's timings differ) and no temporary file is left
        assert sorted(p.suffix for p in cache.iterdir()) == sorted(whole)
        meta = json.loads(next(cache.glob("*.json")).read_text())
        assert meta["iterations"] == json.loads(whole[".json"])["iterations"]
        assert next(cache.glob("*.tt")).read_bytes() == whole[".tt"]

    def test_one_rollout_per_controller(self, lq_run, tmp_path, monkeypatch):
        _, out, cfg = lq_run
        seen = []
        original = cli.rollout

        def counting(model, controller, *args, **kwargs):
            seen.append(controller)
            return original(model, controller, *args, **kwargs)

        # compare() looks rollout up in its own module
        for namespace in (cli, sys.modules["tthjb.rollout"]):
            monkeypatch.setattr(namespace, "rollout", counting)
        assert run(cfg, tmp_path / "o", cache_dir=out / "cache") == 0
        report = json.loads((tmp_path / "o" / "comparison.json").read_text())
        assert len(seen) == len(report) == 3
        assert len({id(c) for c in seen}) == 3

    def test_config_error_exit_and_no_artifacts(self, tmp_path):
        out = tmp_path / "bad"
        cfg = resolve_config(overrides={"model": {"name": "no_such_model"}})
        assert run(cfg, out) == EXIT_CONFIG
        assert not out.exists()

    def test_bad_x0_length(self, tmp_path):
        cfg = resolve_config(overrides=dict(FAST_LQ))
        cfg["rollout"]["x0"] = [1.0, 2.0]
        assert run(cfg, tmp_path / "o") == EXIT_CONFIG

    @pytest.mark.parametrize("model, x0", [
        ({"name": "lq", "d": 4}, "cos-bump"),
        ({"name": "lq", "d": 4}, "right-sided"),
        ({"name": "allen_cahn_1d", "d": 3}, "right-sided"),
        ({"name": "fokker_planck", "D": 8}, "cos-bump"),
        ({"name": "allen_cahn_1d", "d": 3}, "cos-bump"),
        ({"name": "fokker_planck", "D": 8}, "right-sided"),
        ({"name": "fokker_planck", "D": 8}, "uniform"),
    ])
    def test_x0_preset_of_another_model(self, tmp_path, caplog, model, x0):
        # the named initial states are gone: each was an alias of its own
        # model's default (uniform a Fokker-Planck state no preset used),
        # and on any model, its own included, it is a config error; any
        # other state is passed as a list
        cfg = resolve_config(overrides={"rollout": {"x0": x0}})
        cfg["model"] = model
        out = tmp_path / "o"
        with caplog.at_level("ERROR", logger="tthjb.cli"):
            assert run(cfg, out) == EXIT_CONFIG
        assert f'x0 must be "default" or a list of numbers, got {x0!r}' in caplog.text
        assert not out.exists()

    def test_x0_preset_of_own_model(self):
        # every preset rolls out from its model's default state, over the
        # model's own horizon (lq's is 10)
        for preset in PRESETS:
            cfg = resolve_config(preset=preset)
            model = _build_model(cfg)
            assert cfg["rollout"]["x0"] == "default"
            assert cfg["rollout"]["horizon"] is None
            assert np.array_equal(cli._resolve_x0(cfg, model), model.x0_default)
        assert _build_model(resolve_config(preset="lq")).horizon == 10.0

    @pytest.mark.parametrize("preset, rollout", [
        ("paper-allen-cahn-d14", {"x0": "cos-bump"}),
        ("paper-fokker-planck-d10", {"x0": "right-sided"}),
        ("lq", {"x0": "default", "horizon": 10.0}),
    ])
    def test_preset_cache_key_ignores_the_dropped_rollout(self, preset, rollout):
        # the rollout entries the presets dropped never reached the cache
        # key, which covers the model, solver, seed and version
        cfg = resolve_config(preset=preset)
        old = resolve_config(preset=preset, overrides={"rollout": rollout})
        assert {k: cfg[k] for k in ("model", "solver", "seed")} == \
            {k: old[k] for k in ("model", "solver", "seed")}
        assert _cache_key(cfg) == _cache_key(old)

    def test_shifted_model_is_judged_unshifted(self, tmp_path, monkeypatch):
        # cli.run picks the evaluation model by the model's unshifted drift,
        # not by its name: a Fokker-Planck model registered under another
        # name is judged on its unshifted drift too
        seen = []
        original = cli.rollout

        def recording(model, *args, **kwargs):
            seen.append(model)
            return original(model, *args, **kwargs)

        monkeypatch.setattr(cli, "rollout", recording)
        monkeypatch.setitem(cli.MODELS, "renamed_fp", lambda **kw: dataclasses.replace(
            cli.MODELS["fokker_planck"](**kw), name="renamed_fp"))
        cfg = resolve_config(overrides={
            "model": {"name": "renamed_fp", "D": 8},
            "solver": {"delta": 1e-3, "n": 3, "mu0": 50.0, "max_policy_iters": 2},
            "rollout": {"horizon": 0.5},
        })
        assert run(cfg, tmp_path / "o") == 0
        shifted = _build_model(cfg)
        assert seen and all(np.array_equal(m.lin_A, shifted.unshifted_A) for m in seen)
        assert all(m.unshifted_A is None and m.admissible_uncontrolled for m in seen)


class TestBoundedControlRun:
    """cli.run on a tanh-bounded control: both crosses run and the
    closed-loop control stays inside the bound."""

    U_MAX = 1.0

    @pytest.fixture(scope="class")
    def bounded_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bounded")
        cfg = resolve_config(overrides={
            "model": {"d": 3, "u_max": self.U_MAX, "omega": [-0.8, 0.1]},
            "solver": {"delta": 1e-4, "n": 3, "mu0": 20.0},
        })
        return run(cfg, out), out

    def test_converges_with_cross_columns(self, bounded_run):
        code, out = bounded_run
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["converged"] is True
        with open(out / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 1
        for prefix in ("constraint", "cross"):
            for key in ("evals", "sweeps", "converged"):
                assert f"{prefix}_{key}" in rows[0]
        # the constraint cross soft-clips the feedback of every row, row 0's
        # initial policy included
        for row in rows:
            assert int(row["constraint_evals"]) > 0 and int(row["constraint_sweeps"]) >= 1
            assert int(row["cross_evals"]) > 0 and int(row["cross_sweeps"]) >= 1

    def test_controls_within_bound(self, bounded_run):
        _, out = bounded_run
        traj = np.genfromtxt(out / "trajectory_hjb.csv", delimiter=",", names=True)
        assert traj.size > 1
        # measured 0.9797 u_max; the soft clip sits at 0.99 u_max
        assert np.max(np.abs(traj["u"])) <= 0.99 * self.U_MAX


class TestMain:
    def test_malformed_config_exit_2(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text("not json")
        out = tmp_path / "out"
        assert main(["--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("field", ["n", "max_rank"])
    def test_zero_sweep_count_exit_2(self, tmp_path, field):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({**FAST_LQ, "solver": {**FAST_LQ["solver"], field: 0}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("section, value", [
        ("rollout", {"x0": {"a": 1}}),
        ("rollout", {"x0": [1, 2, "x", 4]}),
        ("rollout", {"x0": [[1, 2], [3, 4]]}),
        ("solver", {"n": "5"}),
        ("solver", {"n": 2.5}),
        ("solver", {"n": True}),
        ("solver", {"max_rank": True}),
        ("solver", {"max_policy_iters": False}),
    ])
    def test_invalid_value_exit_2(self, tmp_path, section, value):
        # an x0 that is neither a name nor a list of numbers, and a count
        # that is not an integer, are config errors; json's true and false
        # are bools, which python counts as integers
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({**FAST_LQ, section: {**FAST_LQ[section], **value}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("section, value", [
        ("solver", {"mu0": float("nan")}),
        ("model", {"gamma": float("nan")}),
        ("model", {"a": float("inf")}),
        ("rollout", {"x0": [float("nan"), 0.0, 0.0, 0.0]}),
        ("rollout", {"horizon": float("nan")}),
        ("rollout", {"horizon": -1}),
        ("rollout", {"tolerance": -1}),
        ("rollout", {"tolerance": "x"}),
        ("solver", {"mu0": True}),
        ("model", {"gamma": True}),
        ("model", {"name": "allen_cahn_1d", "u_max": True}),
        ("model", {"a": True}),
        ("rollout", {"x0": [True, False, True, False]}),
        ("rollout", {"horizon": True}),
        ("rollout", {"tolerance": True}),
    ], ids=["mu0-nan", "gamma-nan", "a-inf", "x0-nan", "horizon-nan", "horizon-negative",
            "tolerance-negative", "tolerance-text", "mu0-bool", "gamma-bool", "u_max-bool",
            "a-bool", "x0-bool", "horizon-bool", "tolerance-bool"])
    def test_out_of_range_value_exit_2_before_the_solve(self, tmp_path, section, value):
        # json reads NaN and Infinity; each such value, a json true or false
        # where a number is expected (python counts bools as 1 and 0), and a
        # horizon or tolerance that is not a number > 0, is a config error
        # caught before the solve writes anything
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({**FAST_LQ, section: {**FAST_LQ[section], **value}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()                  # so no history.csv either

    @pytest.mark.parametrize("override, says", [
        ({"seed": float("nan")}, "seed must be"),
        ({"seed": True}, "seed must be"),
        ({"solver": {**FAST_LQ["solver"], "seed": -1}}, "seed must be"),
        ({"solver": {**FAST_LQ["solver"], "seed": True}}, "seed must be"),
        ({"model": {"name": "allen_cahn_1d", "d": 4, "sigma": float("nan")}}, "non-finite"),
        ({"model": {"name": "allen_cahn_1d", "d": 4, "omega": [float("nan"), 0.2]}}, "omega"),
        ({"model": {"name": "allen_cahn_1d", "d": 4, "omega": [2.0, 2.5]}}, "omega"),
        ({"model": {"name": "allen_cahn_1d", "d": 5.0}}, "d must be an integer"),
        ({"model": {"name": "allen_cahn_1d", "d": True}}, "d must be an integer"),
        ({"model": {"name": "fokker_planck", "D": 8.0}}, "D must be an integer"),
        ({"model": {"name": "lq", "d": 4.0}}, "d must be an integer"),
        ({"model": {"name": "allen_cahn_1d", "d": 4, "sigma": True}}, "sigma must be a number"),
        ({"model": {"name": "allen_cahn_1d", "d": 4, "omega": [True, 0.2]}},
         "omega_lo must be a number"),
        ({"model": {"name": "fokker_planck", "D": 8, "nu": True}}, "nu must be a number"),
        ({"model": {"name": "fokker_planck", "D": 8, "sigma_shift": True}},
         "sigma_shift must be a number"),
    ], ids=["seed-nan", "seed-bool", "solver-seed-negative", "solver-seed-bool", "sigma-nan",
            "omega-nan", "omega-unactuated", "d-float", "d-bool", "D-float", "lq-d-float",
            "sigma-bool", "omega-bool", "nu-bool", "sigma_shift-bool"])
    def test_seed_and_model_value_exit_2(self, tmp_path, caplog, override, says):
        # a seed that is not an integer >= 0, a model whose matrices are not
        # finite, an actuated interval that is malformed or holds no node, a
        # model size that is not an integer and a json true or false where a
        # number is expected are config errors, not crashes in numpy or in
        # the Riccati warm start
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({**FAST_LQ, **override}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "configuration error:" in caplog.text and says in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("field", ["a", "m", "mu_min", "divergence_window"])
    def test_basis_solver_field_exit_2(self, tmp_path, field, caplog):
        # the basis is the model's [-a, a] with 2n nodes; the solver sets only
        # n, and the shift floor and the divergence window are constants
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({**FAST_LQ, "solver": {**FAST_LQ["solver"], field: 3}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "unknown solver fields" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("override, says", [
        ({"model": 5}, "model must be a JSON object, got 5"),
        ({"solver": 5}, "solver must be a JSON object, got 5"),
        ({"rollout": 5}, "rollout must be a JSON object, got 5"),
        ({"outputs": 5}, "outputs must be a JSON object, got 5"),
        ({"solvr": {"delta": 0.5}}, "unknown config keys: ['solvr']"),
        ({"rollout": {"horizn": 5.0}}, "unknown rollout fields: ['horizn']"),
        ({"outputs": {"store": True}}, "unknown outputs fields: ['store']"),
        ({"outputs": {"store_states": "no"}}, "store_states must be true or false, got 'no'"),
    ], ids=["model-number", "solver-number", "rollout-number", "outputs-number",
            "unknown-section", "unknown-rollout-key", "unknown-outputs-key",
            "store_states-text"])
    @pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
    def test_config_shape_exit_2(self, tmp_path, caplog, capsys, override, says, sweep):
        # a section that is not an object, a key no section knows and a
        # store_states that is not a bool are named before anything runs,
        # for one run and for each run of a sweep
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({**FAST_LQ, **override}))
        out = tmp_path / "out"
        argv = ["--config", str(cfg_path), "--out", str(out)]
        with caplog.at_level("ERROR", logger="tthjb.cli"):
            assert main(argv + (["--sweep", "seed=0,1"] if sweep else [])) == EXIT_CONFIG
        assert says in caplog.text + capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, says", [
        ({"outputs": 5}, "outputs must be a JSON object, got 5"),
        ({"outputs": {"store_states": "no"}}, "store_states must be true or false, got 'no'"),
        ({"seed": "x"}, "seed must be an integer >= 0, got 'x'"),
    ], ids=["outputs-number", "store_states-text", "seed-text"])
    @pytest.mark.parametrize("flag", [["--store-states"], ["--seed", "3"]],
                             ids=["store-states", "seed"])
    def test_config_shape_exit_2_under_flags(self, tmp_path, capsys, override, says, flag):
        # the file is checked before --store-states and --seed are laid over
        # it, so a flag never replaces a malformed section or seed
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({**FAST_LQ, **override}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), *flag]) == EXIT_CONFIG
        assert says in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", [
        {"name": "allen_cahn_1d", "d": 4, "sigma": 0.0},
        {"name": "fokker_planck", "D": 8, "sigma_shift": 50},
        {"name": "fokker_planck", "D": 8, "nu": -1},
    ], ids=["ac-unactuated", "fp-shift-50", "fp-nu-negative"])
    def test_unstabilizable_model_exit_2(self, tmp_path, caplog, model):
        # the LQR warm start of these linearizations fails inside the solve;
        # that failure alone is a config error, found before anything is written
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({**FAST_LQ, "model": model}))
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="tthjb.cli"):
            assert main(["--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "configuration error:" in caplog.text and "not stabilizable" in caplog.text
        assert not out.exists()

    def test_other_solver_errors_propagate(self, tmp_path, monkeypatch):
        # NotStabilizable is a ValueError, so API callers catching ValueError
        # still see it; any other ValueError from the solve is not a config error
        assert issubclass(tthjb.NotStabilizable, ValueError)

        def fail(model, config):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "policy_iterate", fail)
        with pytest.raises(ValueError, match="boom"):
            run(resolve_config(overrides=FAST_LQ), tmp_path / "o")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        out = tmp_path / "o"
        assert main(["--sweep", "d=3,4", "--jobs", jobs, "--out", str(out)]) == EXIT_CONFIG
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset_exit_2(self, tmp_path):
        assert main(["--preset", "bogus", "--out", str(tmp_path / "o")]) \
            == EXIT_CONFIG

    def test_full_run_via_main(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(FAST_LQ))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     "--store-states"]) == 0
        header = (out / "trajectory_hjb.csv").read_text().splitlines()[0]
        assert header.startswith("t,x_1,x_2,x_3,x_4,u")


class TestModuleEntryPoint:
    def test_python_m_help(self):
        env = dict(os.environ)
        src = str(Path(tthjb.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "tthjb", "--help"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: tthjb")


class TestSweep:
    def test_parse(self):
        key, vals = _parse_sweep_arg("d=10,14,20")
        assert key == "d" and vals == [10, 14, 20]
        key, vals = _parse_sweep_arg("delta=1e-3,1e-4")
        assert key == "delta" and vals == [1e-3, 1e-4]
        with pytest.raises(ConfigError):
            _parse_sweep_arg("nonsense")

    @pytest.mark.parametrize("spec", ["d=", "d=,,", "=1,2", " =1"])
    def test_spec_without_key_or_values(self, spec):
        with pytest.raises(ConfigError):
            _parse_sweep_arg(spec)

    @pytest.mark.parametrize("spec", ["d=", "=1,2"])
    def test_spec_without_key_or_values_exit_2(self, tmp_path, spec):
        assert main(["--sweep", spec, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_empty_grid_header_only(self, tmp_path):
        cfg = resolve_config(overrides=FAST_LQ)
        path = sweep(cfg, [("d", [])], tmp_path / "sw")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0] == "d,total_cost,iterations,max_rank,seconds,failed"

    def test_small_sweep_with_failure_row(self, tmp_path):
        cfg = resolve_config(overrides=FAST_LQ)
        # d=1 is invalid for the lq quadrature domain? use a failing model name
        # instead: sweep over d where one value breaks construction
        path = sweep(cfg, [("d", [4, -2])], tmp_path / "sw")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        ok = lines[1].split(",")
        bad = lines[2].split(",")
        assert ok[0] == "4" and ok[-1] == "False"
        assert bad[0] == "-2" and bad[-1] == "True"

    def test_pool_never_exceeds_the_runs(self, tmp_path, monkeypatch):
        # a fork pool starts all max_workers processes up front: the sweep
        # asks for no more than it has runs (the fake maps serially, and no
        # process is started)
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli, "_sweep_worker", lambda task: (None, np.nan, 0.0, True))
        cfg = resolve_config(overrides=FAST_LQ)
        path = sweep(cfg, [("d", [3, 4])], tmp_path / "sw", jobs=5000)
        assert started == [2]
        assert len(path.read_text().strip().splitlines()) == 3

    def test_sweep_key_of_no_field_exit_2(self, tmp_path):
        out = tmp_path / "o"
        assert main(["--sweep", "rollout.horizn=1,2", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_too_many_parameters(self, tmp_path):
        cfg = resolve_config(overrides=FAST_LQ)
        with pytest.raises(ConfigError):
            sweep(cfg, [("d", [4]), ("n", [3]), ("delta", [1e-3])],
                  tmp_path / "sw")
