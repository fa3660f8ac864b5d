"""Command-line interface: subcommands, manifests, exit codes."""
import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from manifold_diffusion import (__version__, cli, collapse_time_glm,
                                collapse_time_linear_rmt, f_star, model_hash)
from manifold_diffusion import diffusion
from manifold_diffusion import model as model_mod
from manifold_diffusion.activations import make_activation
from manifold_diffusion.diffusion import EmpiricalScore
from manifold_diffusion.experiments import ExperimentRecord
from manifold_diffusion.model import SampleStream, TheoryParams, model_from_config


TANH = make_activation("tanh")


def run(tmp_path, *argv):
    return cli.main([*argv, "--output-dir", str(tmp_path)])


# coarser GLM settings for speed, patched over the constants the commands read
_FAST_THEORY = {"n_outer": 10, "n_inner": 96, "grid_points": 48, "t_tol": 1e-6}
_FAST_SWEEP = {"n_outer": 6, "n_inner": 48, "grid_points": 16, "t_tol": 1e-4}


def _timings(tmp_path, name):
    """The phase timings of ``<name>.manifest.json``, each checked >= 0."""
    manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
    assert all(v >= 0 for v in manifest["timings"].values())
    return manifest["timings"]


def test_exit_code_constants():
    assert (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_SOLVER,
            cli.EXIT_VALIDATION) == (0, 2, 3, 4)


def test_speciation_command(tmp_path, capsys):
    code = run(tmp_path, "speciation", "--d", "16", "--p", "8", "--m", "1.5",
               "--potential-csv")
    assert code == 0
    result = json.loads((tmp_path / "speciation.json").read_text())
    assert result["t_S_finite"] == pytest.approx(result["t_S_asymptotic"],
                                                 abs=1e-10)
    assert (tmp_path / "potential.csv").exists()
    printed = json.loads(capsys.readouterr().out)
    assert printed["t_S_finite"] == result["t_S_finite"]
    assert set(_timings(tmp_path, "speciation")) == {"model", "theory",
                                                     "potential"}


def test_speciation_command_gaussian_ensemble(tmp_path):
    # gaussian rows have unit power, not beta: the asymptotic time must
    # follow the ensemble instead of sitting log(1/beta)/2 below t_S_finite
    assert run(tmp_path, "speciation", "--d", "512", "--p", "256",
               "--ensemble", "gaussian_iid") == 0
    result = json.loads((tmp_path / "speciation.json").read_text())
    assert result["t_S_asymptotic"] == pytest.approx(result["t_S_finite"],
                                                     rel=0.05)


def test_collapse_command_dispatches_on_model(tmp_path):
    assert run(tmp_path, "collapse", "--d", "16", "--p", "8",
               "--alpha", "0.5") == 0
    out = json.loads((tmp_path / "collapse.json").read_text())
    assert out["method"] == "linear_isometry_closed_form"
    assert out["theory_ensemble"] == "deterministic_isometry"
    assert (out["f_star_solves"], out["psi_evaluations"],
            out["brent_iterations"], out["residual"]) == (0, 0, 0, 0.0)

    assert run(tmp_path, "collapse", "--d", "16", "--p", "8", "--alpha", "0.5",
               "--ensemble", "gaussian_iid") == 0
    out = json.loads((tmp_path / "collapse.json").read_text())
    assert out["method"] == "linear_rmt"
    assert out["theory_ensemble"] == "gaussian_iid"
    # the RMT route runs the root-finder, but solves no f_star
    assert (out["f_star_solves"], out["psi_evaluations"]) == (0, 0)
    assert out["brent_iterations"] > 0

    assert run(tmp_path, "collapse", "--d", "16", "--p", "8", "--alpha", "0.5",
               "--method", "linear_rmt") == 0
    out = json.loads((tmp_path / "collapse.json").read_text())
    assert out["method"] == "linear_rmt"


def test_collapse_command_glm_for_nonlinear(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.C, "THEORY_SOLVER", _FAST_THEORY)
    psi_calls = []
    psi_big = cli.C.psi_big
    monkeypatch.setattr(cli.C, "psi_big",
                        lambda q, t, *a: psi_calls.append((t, q)) or psi_big(q, t, *a))
    assert run(tmp_path, "collapse", "--d", "16", "--p", "8", "--alpha", "0.5",
               "--activation", "tanh") == 0
    cli_calls = list(psi_calls)
    out = json.loads((tmp_path / "collapse.json").read_text())
    assert out["method"] == "glm_general"
    # the data are isometric, the GLM theory is derived for gaussian F, and
    # the output says which one the time belongs to
    assert json.loads(capsys.readouterr().out)["theory_ensemble"] == "gaussian_iid"
    assert 0.0 < out["t_C"] < 0.2
    model = model_from_config({"d": 16, "p": 8, "alpha": 0.5,
                               "activation": "tanh"})
    res = collapse_time_glm(model.theory_params, 0.5, **_FAST_THEORY)
    assert (out["f_star_solves"], out["psi_evaluations"],
            out["brent_iterations"], out["residual"]) == (
        res.f_star_solves, res.psi_evaluations, res.brent_iterations,
        res.residual)
    # every Psi call is counted; each solve (one per t) evaluates its
    # grid_points grid q's, each once, in order, then its minimizer's q's
    # off the grid
    assert out["psi_evaluations"] == len(cli_calls)
    params, n = model.theory_params, _FAST_THEORY["grid_points"]
    grid = np.linspace(0.0, (params.m ** 2 + params.rho) * (1.0 - 1e-9), n)
    solves = {t for t, _ in cli_calls}
    assert len(solves) == out["f_star_solves"]
    for t in solves:
        qs = [q for s, q in cli_calls if s == t]
        assert qs[:n] == list(grid)
        assert len(qs) > n and not set(qs[n:]) & set(grid)
    assert out["brent_iterations"] > 0
    manifest = json.loads((tmp_path / "collapse.manifest.json").read_text())
    # the settings are read when the command runs, and recorded as read
    assert manifest["glm_solver"] == _FAST_THEORY
    assert set(manifest["timings"]) == {"theory"}
    assert manifest["timings"]["theory"] >= 0


def test_collapse_command_glm_defaults_to_linear(tmp_path):
    # with no --activation the GLM route solves the model's default linear
    # activation, so it lands on the gaussian-F RMT time
    assert run(tmp_path, "collapse", "--d", "40", "--p", "20", "--alpha", "0.5",
               "--method", "glm_general") == 0
    out = json.loads((tmp_path / "collapse.json").read_text())
    rmt = collapse_time_linear_rmt(0.5, 0.5).t_c
    assert out["t_C"] == pytest.approx(rmt, abs=1e-6)
    manifest = json.loads((tmp_path / "collapse.manifest.json").read_text())
    assert manifest["resolved_config"]["activation"] == "linear"


def test_collapse_rejects_unknown_ensemble(tmp_path, capsys):
    assert run(tmp_path, "collapse", "--d", "16", "--p", "8", "--alpha", "0.5",
               "--ensemble", "bogus") == cli.EXIT_CONFIG
    assert "ensemble" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "collapse.json").exists()


def test_collapse_rejects_linear_method_for_nonlinear_activation(tmp_path,
                                                                 capsys):
    assert run(tmp_path, "collapse", "--d", "16", "--p", "8", "--alpha", "0.5",
               "--activation", "tanh", "--method", "linear_rmt") == cli.EXIT_CONFIG
    assert "linear activation" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "collapse.json").exists()


def test_collapse_and_free_energy_take_m_from_config_mu(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.C, "THEORY_SOLVER", _FAST_THEORY)
    spec = {"d": 16, "p": 8, "mu": [2.0] * 8, "activation": "tanh"}
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(spec))
    params = model_from_config(spec).theory_params
    assert run(tmp_path, "collapse", "--config", str(cfg), "--alpha", "0.5") == 0
    out = json.loads((tmp_path / "collapse.json").read_text())
    assert out["t_C"] == collapse_time_glm(params, 0.5, **_FAST_THEORY).t_c

    assert run(tmp_path, "free-energy", "--config", str(cfg), "--t-min", "0.5",
               "--t-max", "0.5", "--t-points", "1") == 0
    with open(tmp_path / "free_energy.csv") as fh:
        [row] = list(csv.DictReader(fh))
    assert float(row["f_star [per latent dim]"]) == f_star(
        0.5, params, n_outer=10, n_inner=96, grid_points=48).f_star
    # f_star reads no t_tol, and records the tolerance of its sup instead
    manifest = json.loads((tmp_path / "free_energy.manifest.json").read_text())
    assert manifest["glm_solver"] == {"n_outer": 10, "n_inner": 96,
                                      "grid_points": 48, "q_xatol": 1e-9}


def test_collapse_and_free_energy_draw_no_embedding(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("embedding drawn")

    monkeypatch.setattr(model_mod, "build_embedding", refuse)
    monkeypatch.setattr(cli.C, "THEORY_SOLVER", _FAST_THEORY)
    with pytest.raises(AssertionError):
        model_from_config({"d": 4, "p": 2})
    for route in ("linear_isometry_closed_form", "linear_rmt", "glm_general"):
        assert run(tmp_path, "collapse", "--d", "2000", "--p", "1000",
                   "--alpha", "0.5", "--method", route) == 0
    assert run(tmp_path, "free-energy", "--d", "16", "--p", "8",
               "--activation", "tanh", "--t-points", "2") == 0
    # without a model the config is still validated
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"d": 16, "p": 8, "mu": [1.0] * 4}))
    for argv in (["collapse", "--config", str(cfg)],
                 ["free-energy", "--config", str(cfg)],
                 ["free-energy", "--d", "16", "--p", "8", "--rho", "-1"]):
        assert run(tmp_path, *argv) == cli.EXIT_CONFIG


def test_collapse_sweep_honours_config_rho_and_m(tmp_path):
    def sweep(sub, *extra):
        out = tmp_path / sub
        assert cli.main(["collapse-sweep", "--beta-min", "0.5", "--beta-max",
                         "0.5", "--beta-points", "1", "--activations", "tanh",
                         *extra, "--output-dir", str(out)]) == 0
        with open(out / "collapse_sweep.csv") as fh:
            rows = {r["method_or_activation"]: r["t_C [backward time]"]
                    for r in csv.DictReader(fh)}
        return rows, json.loads((out / "collapse_sweep.manifest.json").read_text())

    default, _ = sweep("default")
    flags, manifest = sweep("flags", "--rho", "2", "--m", "0.5")
    assert (manifest["resolved_config"]["rho"],
            manifest["resolved_config"]["m"]) == (2.0, 0.5)
    assert flags["tanh"] != default["tanh"]
    # the linear routes take the covariance scale rho; the center m is a
    # rank-one shift of the data and leaves them unchanged
    m_only, _ = sweep("m_only", "--m", "0.5")
    for method in ("linear_isometry_closed_form", "linear_rmt"):
        assert flags[method] != default[method]
        assert m_only[method] == default[method]
    assert float(flags["linear_rmt"]) == collapse_time_linear_rmt(
        0.5, 0.5, rho=2.0).t_c

    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"rho": 2.0, "m": 0.5}))
    assert sweep("config", "--config", str(cfg))[0] == flags

    # --seed is taken, and has no effect: the sweep draws no model
    assert sweep("seed", "--seed", "3")[0] == default

    # the keys of a model it does not draw are refused, as flags or in the
    # file, before any output
    refused = tmp_path / "refused"
    for flag, value in (("--d", "5"), ("--p", "9"), ("--activation", "relu"),
                        ("--ensemble", "gaussian_iid")):
        with pytest.raises(SystemExit) as exc:
            run(refused, "collapse-sweep", flag, value)
        assert exc.value.code == cli.EXIT_CONFIG
    for key, value in (("d", 5), ("p", 9), ("activation", "relu"),
                       ("ensemble", "gaussian_iid"), ("mu", [2.0] * 8),
                       ("mu_file", "mu.txt")):
        cfg.write_text(json.dumps({key: value}))
        assert run(refused, "collapse-sweep", "--config", str(cfg)) == cli.EXIT_CONFIG
    assert not refused.exists()


# (command, key) pairs whose value changed no output byte: the distribution
# takes no alpha, collapse draws no F, and free-energy's GLM theory assumes
# gaussian F whatever the data's ensemble
_UNREAD_KEYS = [("speciation", "alpha"), ("collapse", "seed"),
                ("free-energy", "alpha"), ("free-energy", "seed"),
                ("free-energy", "ensemble"), ("exp-speciation", "alpha"),
                ("exp-free-energy", "alpha"), ("exp-rem", "alpha")]
_KEY_VALUES = {"alpha": 0.2, "seed": 7, "ensemble": "gaussian_iid"}


@pytest.mark.parametrize("command, key", _UNREAD_KEYS)
def test_commands_refuse_config_keys_they_do_not_read(tmp_path, capsys,
                                                      command, key):
    out = tmp_path / "out"
    value = _KEY_VALUES[key]
    with pytest.raises(SystemExit) as exc:
        run(out, command, "--d", "16", "--p", "8", f"--{key}", str(value))
    assert exc.value.code == cli.EXIT_CONFIG
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"d": 16, "p": 8, key: value}))
    capsys.readouterr()
    assert run(out, command, "--config", str(cfg)) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and key in err["message"]
    assert not out.exists()


def test_collapse_sweep_writes_all_methods(tmp_path):
    assert run(tmp_path, "collapse-sweep", "--beta-min", "0.2",
               "--beta-max", "0.8", "--beta-points", "2",
               "--activations", "tanh") == 0
    with open(tmp_path / "collapse_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    methods = {r["method_or_activation"] for r in rows}
    assert methods == {"linear_isometry_closed_form", "linear_rmt", "tanh"}
    assert len(rows) == 2 * 3

    # the manifest says how each GLM row was solved
    manifest = json.loads((tmp_path / "collapse_sweep.manifest.json").read_text())
    assert manifest["glm_solver"] == {
        "n_outer": 10, "n_inner": 48, "grid_points": 13, "t_tol": 1e-4}
    glm = [r for r in rows if r["method_or_activation"] == "tanh"]
    assert len(manifest["glm_rows"]) == len(glm)
    for entry, row in zip(manifest["glm_rows"], glm):
        assert (entry["beta"], entry["activation"]) == (float(row["beta"]), "tanh")
        assert entry["t_C"] == float(row["t_C [backward time]"])
        assert entry["theory_ensemble"] == "gaussian_iid"
        assert 0.0 <= entry["residual"] < 1e-3
        # each row is the direct solve at the sweep's setting, in t_C and
        # in every work counter
        res = collapse_time_glm(TheoryParams(1.0, 1.0, entry["beta"], TANH),
                                0.5, **cli.C.SWEEP_SOLVER)
        direct = {"t_C": res.t_c, **cli._solve_record(res)}
        assert {k: entry[k] for k in direct} == direct
        # one f_star at the lower bracket end and one per Brent iteration;
        # the upper end is a bound, not a solve
        assert entry["f_star_solves"] == 1 + entry["brent_iterations"]
        assert entry["solve_s"] >= 0


def test_free_energy_command(tmp_path):
    assert run(tmp_path, "free-energy", "--d", "16", "--p", "8",
               "--t-min", "0.2", "--t-max", "1.0", "--t-points", "3") == 0
    with open(tmp_path / "free_energy.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    fs = [float(r["f_star [per latent dim]"]) for r in rows]
    assert fs[0] > fs[-1]
    manifest = json.loads((tmp_path / "free_energy.manifest.json").read_text())
    assert set(manifest["timings"]) == {"theory"}
    assert manifest["timings"]["theory"] >= 0


def test_exp_rem_command(tmp_path):
    assert run(tmp_path, "exp-rem", "--d", "16", "--p", "8",
               "--n-rep", "20000") == 0
    out = json.loads((tmp_path / "exp_rem.json").read_text())
    assert out["minus_g_prime_at_1"] == pytest.approx(0.5, abs=0.02)
    assert set(_timings(tmp_path, "exp_rem")) == {"model", "experiment"}


def test_exp_free_energy_command(tmp_path):
    assert run(tmp_path, "exp-free-energy", "--d", "16", "--p", "8",
               "--n-x", "10", "--n-latent", "10000") == 0
    out = json.loads((tmp_path / "exp_free_energy.json").read_text())
    assert out["stderr"] > 0
    assert "logmeanexp_downward_bias" in out["flags"]
    assert set(_timings(tmp_path, "exp_free_energy")) == {"model", "experiment"}


def test_exp_collapse_command(tmp_path):
    assert run(tmp_path, "exp-collapse", "--d", "20", "--p", "10",
               "--alpha", "0.25", "--n-data", "148", "--n-noise", "40",
               "--t-min", "0.05", "--t-max", "1.2", "--t-points", "6") == 0
    out = json.loads((tmp_path / "exp_collapse.json").read_text())
    assert out["method"] == "linear_isometry_closed_form"
    assert isinstance(out["t_C_empirical"], float)
    assert out["t_C_empirical_status"] == "interpolated"
    manifest = json.loads((tmp_path / "exp_collapse.manifest.json").read_text())
    # the training set is drawn inside the experiment's one pass, not stored
    assert set(manifest["timings"]) == {"experiment", "theory"}
    assert all(v >= 0 for v in manifest["timings"].values())
    # the linear closed form solves no f_star, runs no root-finder and
    # reads no GLM setting
    assert (manifest["f_star_solves"], manifest["psi_evaluations"],
            manifest["brent_iterations"], manifest["residual"]) == (0, 0, 0, 0.0)
    assert "glm_solver" not in manifest


def test_exp_collapse_manifest_records_theory_work(tmp_path):
    assert run(tmp_path, "exp-collapse", "--d", "20", "--p", "10",
               "--activation", "tanh", "--alpha", "0.25", "--n-noise", "10",
               "--t-min", "0.05", "--t-max", "1.2", "--t-points", "3") == 0
    manifest = json.loads((tmp_path / "exp_collapse.manifest.json").read_text())
    assert manifest["theory_ensemble"] == "gaussian_iid"
    assert manifest["glm_solver"] == {"n_outer": 12, "n_inner": 48,
                                      "grid_points": 13, "t_tol": 1e-4}
    assert manifest["f_star_solves"] > 0
    assert manifest["psi_evaluations"] > manifest["f_star_solves"]
    assert manifest["brent_iterations"] > 0
    assert manifest["residual"] < 1e-3
    assert manifest["timings"]["theory"] > 0


def test_exp_collapse_derives_n_data_from_alpha(tmp_path, monkeypatch):
    sampled = []

    def recording_stream(model, n, seed):
        sampled.append(n)
        return SampleStream(model, n, seed)

    monkeypatch.setattr(cli, "SampleStream", recording_stream)
    # e^(0.25 * 20) = 148.4: the sample count follows alpha, not 22026
    assert run(tmp_path, "exp-collapse", "--d", "20", "--p", "10",
               "--alpha", "0.25", "--n-noise", "10", "--t-min", "0.05",
               "--t-max", "1.2", "--t-points", "3") == 0
    manifest = tmp_path / "exp_collapse.manifest.json"
    cfg = json.loads(manifest.read_text())["resolved_config"]
    assert (cfg["n_data"], cfg["alpha"]) == (148, 0.25)
    # without alpha the default stays 22026 and alpha is read off n
    assert run(tmp_path, "exp-collapse", "--d", "20", "--p", "10",
               "--n-noise", "2", "--t-points", "2") == 0
    assert sampled == [148, 22026]
    cfg = json.loads(manifest.read_text())["resolved_config"]
    assert cfg["n_data"] == 22026
    assert cfg["alpha"] == pytest.approx(math.log(22026) / 20, rel=1e-15)


def test_exp_collapse_rejects_n_data_disagreeing_with_alpha(tmp_path, capsys):
    assert run(tmp_path, "exp-collapse", "--d", "20", "--p", "10",
               "--alpha", "0.25", "--n-data", "150", "--n-noise", "10",
               "--t-points", "3") == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "150" in err["message"] and "148" in err["message"]
    assert not (tmp_path / "exp_collapse.csv").exists()


def test_exp_collapse_solves_the_theory_before_the_data(tmp_path, capsys, monkeypatch):
    # a model with no collapse time in range fails before any data are
    # drawn, and leaves no output directory behind
    sampled = []
    monkeypatch.setattr(cli, "SampleStream",
                        lambda *a: sampled.append(a) or SampleStream(*a))
    out = tmp_path / "out"
    assert cli.main(["exp-collapse", "--d", "12", "--p", "6", "--activation",
                     "sigmoid", "--m", "-800", "--n-data", "2000", "--n-noise",
                     "10", "--output-dir", str(out)]) == cli.EXIT_SOLVER
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "solver" and "no collapse time" in err["message"]
    assert sampled == []
    assert not out.exists()


def test_exp_speciation_command(tmp_path, monkeypatch):
    # count the kernel evaluations the sampler really makes
    calls = []
    draw = EmpiricalScore.draw_indices

    def counted(self, x, t, *rest):
        calls.append(t)
        return draw(self, x, t, *rest)

    monkeypatch.setattr(EmpiricalScore, "draw_indices", counted)
    assert run(tmp_path, "exp-speciation", "--d", "8", "--p", "4",
               "--n-data", "64", "--n-traj", "3", "--n-clones", "4",
               "--t-min", "0.3", "--t-max", "1.5", "--t-points", "2") == 0
    with open(tmp_path / "exp_speciation.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    summary = json.loads((tmp_path / "exp_speciation.json").read_text())
    assert "t_S_theory" in summary
    assert isinstance(summary["t_S_empirical"], float)
    assert summary["t_S_empirical_status"] == "interpolated"
    manifest = json.loads((tmp_path / "exp_speciation.manifest.json").read_text())
    assert set(manifest["timings"]) == {"dataset", "experiment", "theory"}
    assert all(v >= 0 for v in manifest["timings"].values())
    # one evaluation at t_start and one per grid time
    assert manifest["kernel_evaluations"] == len(calls) == 3
    assert manifest["sampler"] == "exact_bridge"


# grids that miss the crossing, below it (the first two) and above it
_CENSORED = [
    (["exp-collapse", "--d", "16", "--p", "8", "--n-data", "500", "--t-max", "2",
      "--t-min", "1", "--t-points", "3"], "exp_collapse", "t_C", "censored_below"),
    (["exp-speciation", "--d", "16", "--p", "8", "--n-data", "256", "--t-max", "3",
      "--t-min", "2.5", "--t-points", "2"], "exp_speciation", "t_S", "censored_below"),
    (["exp-collapse", "--d", "16", "--p", "8", "--n-data", "500", "--t-max", "0.03",
      "--t-min", "0.02", "--t-points", "2"], "exp_collapse", "t_C", "censored_above"),
    (["exp-speciation", "--d", "16", "--p", "8", "--n-data", "256", "--t-max", "0.5",
      "--t-min", "0.2", "--t-points", "2"], "exp_speciation", "t_S", "censored_above"),
]


@pytest.mark.parametrize("argv,name,key,status", _CENSORED,
                         ids=[f"{c[1]}-{c[3]}" for c in _CENSORED])
def test_censored_crossing_is_null_with_its_status(tmp_path, argv, name, key, status):
    assert run(tmp_path, *argv) == cli.EXIT_OK
    summary = json.loads((tmp_path / f"{name}.json").read_text())
    assert summary[f"{key}_empirical"] is None
    assert summary[f"{key}_empirical_status"] == status
    # every other field but the method name is a finite number
    for field, value in summary.items():
        if field not in (f"{key}_empirical", f"{key}_empirical_status", "method"):
            assert isinstance(value, float) and math.isfinite(value), field


def test_manifest_records_output_hashes(tmp_path):
    run(tmp_path, "collapse", "--d", "16", "--p", "8", "--alpha", "0.5")
    manifest = json.loads((tmp_path / "collapse.manifest.json").read_text())
    assert manifest["command"] == "collapse"
    assert manifest["resolved_config"]["d"] == 16
    [(path, digest)] = manifest["outputs"].items()
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_manifest_records_versions_and_thread_env(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    run(tmp_path, "speciation", "--d", "16", "--p", "8")
    manifest = json.loads((tmp_path / "speciation.manifest.json").read_text())
    assert manifest["versions"] == {"manifold_diffusion": __version__,
                                    "numpy": np.__version__,
                                    "scipy": scipy.__version__}
    assert manifest["thread_env"] == {"OMP_NUM_THREADS": None,
                                      "OPENBLAS_NUM_THREADS": "1"}


def test_manifest_records_the_kernels_workers(tmp_path, monkeypatch):
    # the worker count of the kernel's tiles, as they ran in this process;
    # writing it starts no worker and looks up no core count
    looked_up = []
    monkeypatch.setattr(diffusion, "_tile_workers", lambda: looked_up.append(1) or (1, None))
    monkeypatch.setattr(diffusion, "_workers_used", 1)
    run(tmp_path, "speciation", "--d", "16", "--p", "8")
    manifest = json.loads((tmp_path / "speciation.manifest.json").read_text())
    assert manifest["kernel_workers"] == 1 and looked_up == []
    monkeypatch.setattr(diffusion, "_workers_used", 2)
    run(tmp_path, "speciation", "--d", "16", "--p", "8")
    manifest = json.loads((tmp_path / "speciation.manifest.json").read_text())
    assert manifest["kernel_workers"] == 2


@pytest.mark.parametrize("argv", [
    ["exp-collapse", "--d", "40", "--p", "20"],
    ["exp-speciation", "--d", "16", "--p", "8"]])
def test_experiments_refuse_n_data_past_the_cap(tmp_path, capsys, monkeypatch, argv):
    # --n-data is held to the sample cap as alpha is, before any sample is
    # drawn (stream 0) or allocated
    real = model_mod._rng

    def embedding_only(seed, stream=0):
        assert stream == 1, "drew samples"
        return real(seed, stream)

    monkeypatch.setattr(model_mod, "_rng", embedding_only)
    out = tmp_path / "out"
    assert cli.main([*argv, "--n-data", str(model_mod.MAX_SAMPLES + 1),
                     "--output-dir", str(out)]) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "exceeds the 10000000 cap" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("n", [0, -5, 1, 20_000_000])
def test_exp_collapse_checks_n_data_before_reading_it(tmp_path, capsys, monkeypatch, n):
    # without --alpha, alpha = log(n) / d: n is held to [2, the cap] before
    # the log is taken and before the theory is solved
    solves = []
    monkeypatch.setattr(cli.C, "collapse_time", lambda *a, **k: solves.append(a))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["exp-collapse", "--d", "40", "--p", "20", "--activation", "tanh",
                         "--n-data", str(n), "--output-dir", str(out)])
    assert code == cli.EXIT_CONFIG and solves == [] and not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"d": 16, "p": 8, "rho": 0.3, "m": 2.0}))
    assert run(tmp_path, "speciation", "--config", str(cfg), "--m", "1.0") == 0
    manifest = json.loads((tmp_path / "speciation.manifest.json").read_text())
    assert manifest["resolved_config"]["m"] == 1.0
    assert manifest["resolved_config"]["rho"] == 0.3


def test_invalid_config_exits_2(tmp_path, capsys):
    assert run(tmp_path, "speciation", "--d", "4", "--p", "8") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "d/p" in err["message"]

    assert run(tmp_path, "speciation", "--d", "8", "--p", "4",
               "--activation", "swish") == 2
    assert run(tmp_path, "speciation", "--config",
               str(tmp_path / "missing.json")) == 2
    # a file that is not one JSON object of fields
    cfg = tmp_path / "model.json"
    for text in ("[]", "[1, 2]", "3"):
        cfg.write_text(text)
        assert run(tmp_path, "speciation", "--d", "8", "--p", "4",
                   "--config", str(cfg)) == 2


def test_config_file_rejects_unknown_fields(tmp_path, capsys):
    # misspelt keys would leave the linear, rho 1 defaults in place
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"d": 16, "p": 8, "activaton": "tanh", "rhoo": 3.0}))
    assert run(tmp_path, "speciation", "--config", str(cfg)) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "activaton" in err["message"] and "rhoo" in err["message"]
    assert not (tmp_path / "speciation.json").exists()
    # the model keys and a center are accepted
    cfg.write_text(json.dumps({"d": 16, "p": 8, "activation": "tanh",
                               "rho": 3.0, "mu": [1.0] * 8}))
    assert run(tmp_path, "speciation", "--config", str(cfg)) == 0


# config files that would otherwise run on a value other than the one
# recorded, print NaN, or end in a TypeError or OverflowError: a field of the
# wrong JSON type, a non-integral or bool d, p or seed, an integer beyond the
# float range, a non-finite rho, alpha or m, and a center too large to square
_MISREAD_CONFIGS = {
    "rho_null": ("speciation", {"rho": None}),
    "activation_list": ("speciation", {"activation": ["tanh"]}),
    "d_fractional": ("speciation", {"d": 16.7}),
    "d_beyond_float": ("speciation", {"d": 10 ** 400}),
    "alpha_beyond_float": ("collapse", {"alpha": 10 ** 400}),
    "d_and_p_bool": ("speciation", {"d": True, "p": True}),
    "p_string": ("speciation", {"p": "8"}),
    "seed_fractional": ("exp-rem", {"seed": 1.5}),
    "m_string": ("collapse", {"m": "1"}),
    "rho_nan": ("speciation", {"rho": math.nan}),
    "rho_inf": ("collapse", {"rho": math.inf}),
    "alpha_inf": ("collapse", {"alpha": math.inf}),
    "alpha_nan": ("exp-collapse", {"alpha": math.nan}),
    "m_inf": ("collapse", {"m": -math.inf}),
    "mu_nan": ("speciation", {"mu": [1.0] * 7 + [math.nan]}),
    "mu_object": ("speciation", {"mu": {"a": 1.0}}),
    "mu_beyond_square": ("free-energy", {"mu": [1e160] + [1.0] * 7}),
    "mu_and_mu_file": ("speciation", {"mu": [1.0] * 8, "mu_file": "mu.txt"}),
}


@pytest.mark.parametrize("command, fields", _MISREAD_CONFIGS.values(),
                         ids=list(_MISREAD_CONFIGS))
def test_misread_config_fields_exit_2(tmp_path, capsys, command, fields):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"d": 16, "p": 8, **fields}))
    out = tmp_path / "out"
    assert run(out, command, "--config", str(cfg)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"] == "config"
    assert not out.exists()


def test_resolved_config_records_the_values_that_ran(tmp_path):
    # an integral float is an int field's value; a float field takes an int
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"d": 16.0, "p": 8, "rho": 2, "m": 1,
                               "seed": 3.0}))
    assert run(tmp_path, "exp-rem", "--config", str(cfg), "--n-rep", "100") == 0
    resolved = json.loads(
        (tmp_path / "exp_rem.manifest.json").read_text())["resolved_config"]
    assert resolved == {"d": 16, "p": 8, "rho": 2.0, "m": 1.0,
                        "seed": 3, "activation": "linear",
                        "ensemble": "deterministic_isometry"}
    assert [type(resolved[k]) for k in ("d", "seed", "rho")] == [int, int, float]


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the run was checked")


@pytest.mark.parametrize("argv", [
    ["collapse", "--d", "16", "--p", "8"],
    ["free-energy", "--d", "16", "--p", "8", "--t-points", "2"],
    ["speciation", "--d", "16", "--p", "8", "--activation", "tanh"],
    ["exp-rem", "--d", "16", "--p", "8", "--n-rep", "100"]])
def test_commands_read_the_mu_file_once(tmp_path, monkeypatch, argv):
    # the file is read when the config is resolved, and its values are the
    # center that ran, as recorded; so /dev/stdin through a pipe works too
    monkeypatch.setattr(cli.C, "THEORY_SOLVER", _FAST_THEORY)
    mu = [0.5, 1.0, 1.5, 2.0, -0.5, -1.0, -1.5, -2.0]
    mu_path = tmp_path / "mu.txt"
    np.savetxt(mu_path, mu)
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"mu_file": str(mu_path)}))
    loads = []
    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: loads.append(a) or real(*a, **k))
    assert run(tmp_path, *argv, "--config", str(cfg)) == 0
    assert len(loads) == 1
    command = argv[0].replace("-", "_")
    resolved = json.loads(
        (tmp_path / f"{command}.manifest.json").read_text())["resolved_config"]
    assert resolved["mu"] == mu and "mu_file" not in resolved


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_a_center_piped_through_stdin_runs(tmp_path):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"d": 4, "p": 2, "mu_file": "/dev/stdin"}))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "manifold_diffusion.cli", "collapse", "--config", str(cfg),
         "--output-dir", str(tmp_path / "out")], input="1.5\n-0.5\n", text=True,
        capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])})
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "out" / "collapse.manifest.json").read_text())
    assert manifest["resolved_config"]["mu"] == [1.5, -0.5]


@pytest.mark.parametrize("argv", [
    ["exp-collapse", "--d", "16", "--p", "8", "--n-data", "64"],
    ["exp-speciation", "--d", "16", "--p", "8", "--activation", "tanh",
     "--n-data", "64"]])
def test_experiments_check_the_seed_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # seed + 1 draws the noise, so 2^64 - 1 is refused with the config,
    # before the theory is solved or the training set drawn
    monkeypatch.setattr(cli.C, "collapse_time", _no_work)
    monkeypatch.setattr(cli, "sample_dataset", _no_work)
    monkeypatch.setattr(cli, "SampleStream", _no_work)
    out = tmp_path / "out"
    seed = str((1 << 64) - 1)
    assert cli.main([*argv, "--seed", seed, "--output-dir", str(out)]) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and seed in err["message"]
    assert str(1 << 64) not in err["message"] and not out.exists()


def test_exp_collapse_refuses_an_alpha_past_the_cap_without_a_warning(
        tmp_path, capsys, monkeypatch):
    # e^(alpha d) = e^40000 is not taken: the count is refused in logs
    monkeypatch.setattr(cli, "sample_dataset", _no_work)
    monkeypatch.setattr(cli, "SampleStream", _no_work)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["exp-collapse", "--d", "40", "--p", "20", "--alpha", "1000",
                         "--output-dir", str(out)])
    assert code == cli.EXIT_CONFIG and not out.exists()
    assert "exceeds the 10000000 cap" in json.loads(capsys.readouterr().err)["message"]


def test_exp_speciation_rejects_non_odd_activation_before_any_work(
        tmp_path, monkeypatch):
    # the training set is not sampled for a run that is then rejected
    monkeypatch.setattr(cli, "sample_dataset", _no_work)
    monkeypatch.setattr(cli, "SampleStream", _no_work)
    out = tmp_path / "out"
    assert cli.main(["exp-speciation", "--activation", "relu", "--d", "16",
                     "--p", "8", "--n-data", "512",
                     "--output-dir", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_speciation_rejects_non_odd_activation_before_the_quadrature(
        tmp_path, monkeypatch):
    # relu's Gamma quadrature would double to 2048 nodes before rejection
    monkeypatch.setattr(cli.S, "std_normal_nodes", _no_work)
    out = tmp_path / "out"
    assert cli.main(["speciation", "--activation", "relu", "--d", "16",
                     "--p", "8", "--output-dir", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", ["speciation", "exp-speciation"])
def test_speciation_commands_form_the_direction_once(tmp_path, monkeypatch,
                                                     command):
    # one Gamma quadrature and one evaluation of Gamma0 at the lambda_j
    # per run: t_S, S and the clone classifier all read that one vector
    argv = ["--d", "16", "--p", "8", "--activation", "tanh", "--seed", "3"]
    lam = cli.S.lambdas(model_from_config(
        {"d": 16, "p": 8, "activation": "tanh", "seed": 3}))
    builds, at_lambda = [], []
    init, gamma0 = cli.S.GammaFunctions.__init__, cli.S.GammaFunctions.gamma0

    def counted_init(self, *args):
        builds.append(args)
        init(self, *args)

    def counted_gamma0(self, y):
        if np.shape(y) == lam.shape and np.array_equal(y, lam):
            at_lambda.append(y)
        return gamma0(self, y)

    monkeypatch.setattr(cli.S.GammaFunctions, "__init__", counted_init)
    monkeypatch.setattr(cli.S.GammaFunctions, "gamma0", counted_gamma0)
    if command == "exp-speciation":
        argv += ["--n-data", "64", "--n-traj", "3", "--n-clones", "3",
                 "--t-points", "2"]
    assert run(tmp_path, command, *argv) == 0
    assert (len(builds), len(at_lambda)) == (1, 1)


@pytest.mark.parametrize("command", ["speciation", "exp-speciation"])
def test_no_signal_is_rejected_before_any_output(tmp_path, monkeypatch,
                                                 capsys, command):
    # at m = 0 the Gamma0 rows are roundoff, not exactly zero: the run is
    # rejected before the training set is drawn or a file written
    monkeypatch.setattr(cli, "sample_dataset", _no_work)
    monkeypatch.setattr(cli, "SampleStream", _no_work)
    out = tmp_path / "out"
    assert cli.main([command, "--d", "16", "--p", "8", "--m", "0",
                     "--output-dir", str(out)]) == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert "no speciation signal" in err["message"]
    assert not out.exists()


# grids a command rejects before it writes anything or samples any data:
# betas outside (0, 1], times t <= 0, empty grids, a single clone, and
# sweep activation lists with a linear or an empty name
_BAD_GRIDS = {
    "sweep-beta-min-0": ["collapse-sweep", "--beta-min", "0"],
    "sweep-beta-max-1.5": ["collapse-sweep", "--beta-max", "1.5"],
    "sweep-beta-points-0": ["collapse-sweep", "--beta-points", "0"],
    "free-energy-t-min-0": ["free-energy", "--d", "16", "--p", "8", "--t-min", "0"],
    "free-energy-tanh-t-min-neg": ["free-energy", "--d", "16", "--p", "8",
                                   "--activation", "tanh", "--t-min", "-1"],
    "free-energy-t-points-0": ["free-energy", "--d", "16", "--p", "8",
                               "--t-points", "0"],
    "exp-collapse-t-points-0": ["exp-collapse", "--d", "10", "--p", "5",
                                "--alpha", "0.3", "--t-points", "0"],
    "exp-collapse-t-min-0": ["exp-collapse", "--d", "10", "--p", "5",
                             "--alpha", "0.3", "--t-min", "0"],
    "exp-speciation-t-min-0": ["exp-speciation", "--d", "16", "--p", "8",
                               "--t-min", "0"],
    "exp-speciation-n-clones-1": ["exp-speciation", "--d", "16", "--p", "8",
                                  "--n-clones", "1"],
    "exp-speciation-n-traj-0": ["exp-speciation", "--d", "16", "--p", "8",
                                "--n-traj", "0"],
    "exp-collapse-n-noise-0": ["exp-collapse", "--d", "10", "--p", "5",
                               "--alpha", "0.3", "--n-noise", "0"],
    "exp-free-energy-n-x-0": ["exp-free-energy", "--d", "16", "--p", "8",
                              "--n-x", "0"],
    "exp-rem-n-rep-0": ["exp-rem", "--d", "16", "--p", "8", "--n-rep", "0"],
    "sweep-activations-linear": ["collapse-sweep", "--activations", "linear"],
    "sweep-activations-empty": ["collapse-sweep", "--activations", ""],
    "sweep-activations-with-linear": ["collapse-sweep", "--activations", "relu,linear"],
    "sweep-activations-trailing-comma": ["collapse-sweep", "--activations", "tanh,"],
    # a non-finite grid end is refused before np.linspace can warn on it,
    # and a bad single time before any draw
    "exp-speciation-t-max-inf": ["exp-speciation", "--d", "16", "--p", "8",
                                 "--t-max", "inf"],
    "free-energy-t-max-inf": ["free-energy", "--d", "8", "--p", "4",
                              "--t-max", "inf", "--t-points", "2"],
    "sweep-beta-max-inf": ["collapse-sweep", "--beta-max", "inf", "--beta-points", "2",
                           "--activations", "tanh"],
    "sweep-beta-span-overflows": ["collapse-sweep", "--beta-min=-1e308", "--beta-max=1e308",
                                  "--beta-points", "3", "--activations", "tanh"],
    "exp-collapse-t-max-inf": ["exp-collapse", "--d", "8", "--p", "4", "--n-data", "500",
                               "--t-max", "inf", "--n-noise", "5"],
    "exp-collapse-t-max-nan": ["exp-collapse", "--d", "8", "--p", "4", "--n-data", "500",
                               "--t-max", "nan", "--n-noise", "5"],
    "exp-free-energy-t-0": ["exp-free-energy", "--d", "8", "--p", "4", "--t", "0",
                            "--n-x", "2"],
    "exp-free-energy-t-nan": ["exp-free-energy", "--d", "8", "--p", "4", "--t", "nan",
                              "--n-x", "2"],
    "exp-rem-t-0": ["exp-rem", "--d", "8", "--p", "4", "--t", "0", "--n-rep", "10"],
    "exp-rem-t-nan": ["exp-rem", "--d", "8", "--p", "4", "--t", "nan", "--n-rep", "10"],
}


@pytest.mark.parametrize("argv", _BAD_GRIDS.values(), ids=_BAD_GRIDS.keys())
def test_bad_grids_exit_2_before_any_output(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "sample_dataset", _no_work)
    monkeypatch.setattr(cli, "SampleStream", _no_work)
    monkeypatch.setattr(cli.E, "_rng", _no_work)
    out = tmp_path / "out"
    assert cli.main([*argv, "--output-dir", str(out)]) == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    assert not out.exists()


def test_an_overflowing_stderr_is_a_malformed_record_without_a_warning(tmp_path, capsys):
    # at t = 1e-300 every per-draw value is about -1e297, so the standard
    # error's squares overflow: the record refuses it, with no warning on
    # the way (pyproject turns one into an error)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["exp-free-energy", "--d", "8", "--p", "4", "--t", "1e-300",
                         "--n-x", "2", "--output-dir", str(out)])
    assert code == cli.EXIT_CONFIG and not out.exists() and caught == []
    assert json.loads(capsys.readouterr().err)["message"] == "malformed experiment record"


def test_a_negative_time_in_exponent_form_is_read_with_an_equals_sign(tmp_path, capsys):
    # argparse takes -1e-3 for a flag; written --t-min=-1e-3 it is read and
    # reaches the time check, and the help says so
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "free-energy", "--d", "8", "--p", "4", "--t-min", "-1e-3")
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err
    assert run(tmp_path, "free-energy", "--d", "8", "--p", "4",
               "--t-min=-1e-3") == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "0 < t < inf, got -0.001" in err["message"]
    for argv in (["--help"], ["free-energy", "--help"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert "--t-min=-1e-3" in capsys.readouterr().out


def test_collapse_sweep_names_the_rows_that_cover_linear_data(tmp_path, capsys):
    assert run(tmp_path, "collapse-sweep", "--activations", "linear") == cli.EXIT_CONFIG
    message = json.loads(capsys.readouterr().err)["message"]
    assert "linear_isometry_closed_form" in message and "linear_rmt" in message


def test_exp_collapse_with_sigmoid_far_below_zero_exits_3(tmp_path, capsys):
    # every pre-activation sits where exp(-y) overflows, which warns no
    # more (pyproject turns a RuntimeWarning into an error); the data carry
    # no signal, so the theory has no root and the run ends on one line
    assert run(tmp_path, "exp-collapse", "--d", "12", "--p", "6",
               "--activation", "sigmoid", "--m", "-800", "--n-data", "500",
               "--n-noise", "10") == cli.EXIT_SOLVER
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "solver"


# each benchmark workload's command, at a small size
_BENCHMARK_COMMANDS = [
    ["exp-speciation", "--d", "16", "--p", "8", "--n-data", "256",
     "--n-traj", "4", "--n-clones", "4", "--t-points", "2"],
    ["collapse-sweep", "--beta-min", "0.5", "--beta-max", "0.5",
     "--beta-points", "1", "--activations", "tanh"],
    ["exp-collapse", "--d", "10", "--p", "5", "--alpha", "0.3",
     "--n-noise", "8", "--t-points", "3"],
]


# the other six commands at the small sizes of their tests above, and the
# linear routes of collapse and free-energy, by test id
_COMMANDS = {argv[0]: argv for argv in _BENCHMARK_COMMANDS} | {
    "speciation": ["speciation", "--d", "16", "--p", "8", "--m", "1.5",
                   "--potential-csv"],
    "collapse": ["collapse", "--d", "16", "--p", "8", "--alpha", "0.5",
                 "--activation", "tanh"],
    "collapse-closed-form": ["collapse", "--d", "16", "--p", "8", "--alpha", "0.5"],
    "collapse-rmt": ["collapse", "--d", "16", "--p", "8", "--alpha", "0.5",
                     "--ensemble", "gaussian_iid"],
    "collapse-glm-linear": ["collapse", "--d", "16", "--p", "8", "--alpha", "0.5",
                            "--method", "glm_general"],
    "free-energy": ["free-energy", "--d", "16", "--p", "8", "--t-min", "0.2",
                    "--t-max", "1.0", "--t-points", "3"],
    "free-energy-tanh": ["free-energy", "--d", "16", "--p", "8", "--activation",
                         "tanh", "--t-min", "0.2", "--t-max", "1.0", "--t-points", "3"],
    "exp-free-energy": ["exp-free-energy", "--d", "16", "--p", "8", "--n-x", "10",
                        "--n-latent", "10000"],
    "exp-rem": ["exp-rem", "--d", "16", "--p", "8", "--n-rep", "20000"],
    "validate": ["validate"],
}

# the top-level keys of a command's manifest beyond those every manifest has
_MANIFEST_EXTRAS = {
    "exp_speciation": {"sampler", "kernel_evaluations"},
    "collapse": {"glm_solver"},
    "collapse_sweep": {"glm_solver", "glm_rows"},
    "free_energy": {"glm_solver"},
    "exp_collapse": {"glm_solver", "theory_ensemble", "residual",
                     "f_star_solves", "psi_evaluations", "brent_iterations"},
    "validate": {"checks"},
}
# the GLM settings each case's solve read, with `_FAST_THEORY` and
# `_FAST_SWEEP` patched in: none off the GLM route (exp-collapse runs the
# linear closed form here), no quadrature sizes where Psi is the linear
# closed form, and no t_tol but the sup's q_xatol in free-energy
_GLM_SOLVERS = {
    "collapse-sweep": _FAST_SWEEP,
    "collapse": _FAST_THEORY,
    "collapse-glm-linear": {"grid_points": 48, "t_tol": 1e-6},
    "free-energy": {"grid_points": 48, "q_xatol": 1e-9},
    "free-energy-tanh": {"n_outer": 10, "n_inner": 96, "grid_points": 48,
                         "q_xatol": 1e-9},
}


@pytest.mark.parametrize("case", _COMMANDS)
def test_every_command_writes_one_kind_of_manifest(tmp_path, monkeypatch, case):
    monkeypatch.setattr(cli.C, "THEORY_SOLVER", _FAST_THEORY)
    monkeypatch.setattr(cli.C, "SWEEP_SOLVER", _FAST_SWEEP)
    argv = _COMMANDS[case]
    assert run(tmp_path, *argv) == 0
    name = argv[0].replace("-", "_")
    manifest_path = tmp_path / f"{name}.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert set(manifest) - _MANIFEST_EXTRAS.get(name, set()) == {
        "command", "resolved_config", "arguments", "outputs", "timestamp",
        "versions", "thread_env", "kernel_workers", "timings"}
    assert manifest["command"] == name
    assert manifest.get("glm_solver") == _GLM_SOLVERS.get(case)
    # every other flag given, and each default, is recorded as it ran; the
    # config keys are in resolved_config only, and no quadrature is settable
    arguments = manifest["arguments"]
    assert not set(arguments) & {*model_mod.CONFIG_KEYS, "config", "output_dir",
                                 "nodes", "grid_points"}
    for i, flag in enumerate(argv):
        key = flag[2:].replace("-", "_")
        if flag.startswith("--") and key not in model_mod.CONFIG_KEYS:
            value = argv[i + 1:i + 2]
            given = value[0] if value and not value[0].startswith("--") else "True"
            assert str(arguments[key]) == given
    defaults = {"collapse": {"method": None}, "exp-collapse": {"t_max": 0.6},
                "exp-rem": {"t": 0.5}}
    assert defaults.get(case, {}).items() <= arguments.items()
    for path, digest in manifest["outputs"].items():
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest
    assert set(tmp_path.iterdir()) == {manifest_path,
                                       *map(Path, manifest["outputs"])}


@pytest.mark.parametrize("argv", [
    ["collapse", "--d", "16", "--p", "8", "--nodes", "8"],
    ["collapse-sweep", "--grid-points", "16"],
    ["free-energy", "--d", "16", "--p", "8", "--nodes", "8"],
], ids=lambda argv: argv[0])
def test_quadrature_flags_are_gone(tmp_path, argv):
    # the GLM settings are module constants in `collapse`, not flags
    with pytest.raises(SystemExit) as exc:
        run(tmp_path / "out", *argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_abbreviated_flags_are_rejected(tmp_path):
    # --pot is not read as --potential-csv, nor --activation as the
    # sweep's --activations
    for argv in (["speciation", "--d", "16", "--p", "8", "--pot"],
                 ["collapse-sweep", "--activation", "tanh"]):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path / "out", *argv)
        assert exc.value.code == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def _benchmark_workloads():
    """``perfbench/workloads.py``, loaded by path: it is no package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["speciation_clones", "collapse_sweep",
                                      "memorization_crossing"])
def test_benchmark_argv_still_parses(tmp_path, workload):
    # the benchmark passes these flags as they are: a CLI change must keep them
    argv = _benchmark_workloads().argv(workload, 1, tmp_path)
    assert cli.build_parser().parse_args(argv).command == argv[0]


def test_benchmark_models_take_alpha_and_ignore_it():
    # the benchmark's reference model config holds alpha; the model keeps
    # none, so F and the model hash are those of the config without it
    workloads = _benchmark_workloads()
    for spec in (workloads.SPECIATION, workloads.CROSSING):
        got = workloads._model(spec, 1)
        want = model_from_config({"d": spec["d"], "p": spec["p"],
                                  "activation": spec["activation"], "seed": 1})
        assert np.array_equal(got.embedding.entries, want.embedding.entries)
        assert model_hash(got) == model_hash(want)


def test_cli_runs_without_scipy_subpackages(tmp_path):
    # a fresh interpreter: the test process itself has imported scipy's
    # subpackages for the reference values
    script = (
        "import contextlib, io, json, sys\n"
        "from manifold_diffusion import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv + ['--output-dir', sys.argv[1]])\n"
        "             for argv in json.loads(sys.argv[2])]\n"
        "print(json.dumps({'codes': codes, 'loaded': sorted(\n"
        "    m for m in sys.modules if m.split('.')[:2] in\n"
        "    (['scipy', 'optimize'], ['scipy', 'special'], ['scipy', 'linalg']))}))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path),
                           json.dumps(_BENCHMARK_COMMANDS)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0], "loaded": []}


def test_solver_failure_exits_3(tmp_path, capsys):
    assert run(tmp_path, "collapse", "--d", "16", "--p", "8", "--alpha", "50",
               "--method", "linear_rmt") == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "solver"
    # at rho 1e15 linear data carry 2.1e-3 nats per dimension even at
    # t = 20, more than alpha = 1e-3, so neither route has a root in range
    for method in ("linear_rmt", "glm_general"):
        out = tmp_path / method
        assert cli.main(["collapse", "--d", "16", "--p", "8", "--rho", "1e15",
                         "--alpha", "0.001", "--method", method,
                         "--output-dir", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "solver" and "no collapse time" in err["message"]
        assert not out.exists()
    # the closed form on the default isometric route is held to the same
    # range: it gives t_C = 20.03 at alpha 1e-3 and 6.9e-73 at alpha 50
    for alpha in ("0.001", "50"):
        out = tmp_path / f"closed-form-{alpha}"
        assert cli.main(["collapse", "--d", "40", "--p", "20", "--rho", "1e15",
                         "--alpha", alpha, "--output-dir", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "solver"
        assert err["message"].startswith("no collapse time in range (1e-06, 20)")
        assert not out.exists()
    # past 2 alpha / beta = 709.78 the closed form reaches its limit 0
    # without a RuntimeWarning
    out = tmp_path / "closed-form-200"
    assert cli.main(["collapse", "--d", "40", "--p", "20", "--alpha", "200",
                     "--output-dir", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == ("no collapse time in range (1e-06, 20): "
                              "the closed form gives t_C = 0")
    assert not out.exists()


def test_the_largest_accepted_rho_runs_free_energy(tmp_path):
    # at m = 1, rho (1 + rho) is finite up to about sqrt(max float) = 1.34e154
    rho = math.sqrt(sys.float_info.max)
    while not math.isfinite(rho * (1.0 + rho)):
        rho = math.nextafter(rho, 0.0)
    argv = ["free-energy", "--d", "4", "--p", "2", "--activation", "tanh",
            "--t-points", "2"]
    assert run(tmp_path / "max", *argv, "--rho", repr(rho)) in (cli.EXIT_OK, cli.EXIT_SOLVER)
    over = tmp_path / "over"
    assert run(over, *argv, "--rho", repr(math.nextafter(rho, math.inf))) == cli.EXIT_CONFIG
    assert not over.exists()


@pytest.mark.parametrize("rho", ["1e12", "1e15", "1e16"])
def test_rmt_collapse_time_at_large_rho_matches_the_spectrum(tmp_path, rho):
    # the root-finder's lower end t = 1e-6 puts mp_logdet at eta = 5e5 rho,
    # where its log1p arguments once cancelled to NaN (rho 1e12 and 1e16);
    # the finite-d log-determinant of F^T F / p at d = 800 pins t_C to 1e-3
    from scipy.optimize import brentq

    assert run(tmp_path, "collapse", "--d", "40", "--p", "20",
               "--ensemble", "gaussian_iid", "--rho", rho) == 0
    t_c = json.loads((tmp_path / "collapse.json").read_text())["t_C"]
    d, p, alpha, rho = 800, 400, 1.0, float(rho)
    F = model_mod.build_embedding(d, p, "gaussian_iid", seed=0).entries
    lam = np.linalg.eigvalsh(F.T @ F / p)

    def residual(t):
        eta = math.exp(-2.0 * t) / -math.expm1(-2.0 * t)
        return alpha - np.log1p(rho * eta * lam).sum() / (2.0 * d)

    assert t_c == pytest.approx(brentq(residual, 10.0, 20.0, xtol=1e-9), rel=1e-3)


# runs that fail: (argv, exit code, start of the message).  At alpha 5 the
# sweep's closed form at beta 0.1 is 1.9e-44, below the range, and the sweep
# fails after its checks while its table is being built; S.potential is
# patched to raise while the potential CSV is built.  A centre of norm
# 1e160 is too large to square, which every command that reads it rejects
# up front, without a RuntimeWarning, and so is a rho for which rho (m^2 +
# rho) is not finite.
_FAILURES = {
    "sweep-alpha-5": (["collapse-sweep", "--alpha", "5", "--beta-points", "2",
                       "--activations", "tanh"],
                      cli.EXIT_SOLVER, "no collapse time in range (1e-06, 20)"),
    "sweep-m-1e160": (["collapse-sweep", "--m", "1e160", "--beta-points", "2",
                       "--activations", "tanh"],
                      cli.EXIT_CONFIG, "config field m = 1e+160 is too large"),
    "free-energy-m-1e160": (["free-energy", "--d", "4", "--p", "2", "--m", "1e160",
                             "--activation", "tanh", "--t-points", "3"],
                            cli.EXIT_CONFIG, "config field m = 1e+160 is too large"),
    "collapse-m-1e160": (["collapse", "--d", "4", "--p", "2", "--m", "1e160",
                          "--activation", "tanh"],
                         cli.EXIT_CONFIG, "config field m = 1e+160 is too large"),
    "exp-collapse-m-1e160": (["exp-collapse", "--d", "4", "--p", "2", "--m", "1e160",
                              "--activation", "tanh"],
                             cli.EXIT_CONFIG, "config field m = 1e+160 is too large"),
    "free-energy-rho-1e300": (["free-energy", "--d", "4", "--p", "2", "--rho", "1e300",
                               "--activation", "tanh", "--t-points", "2"],
                              cli.EXIT_CONFIG, "config field rho = 1e+300 is too large"),
    "collapse-rho-1e160": (["collapse", "--d", "40", "--p", "20", "--rho", "1e160",
                            "--activation", "tanh"],
                           cli.EXIT_CONFIG, "config field rho = 1e+160 is too large"),
    "speciation-potential": (["speciation", "--d", "16", "--p", "8",
                              "--potential-csv"],
                             cli.EXIT_SOLVER, "potential failed"),
}


@pytest.mark.parametrize("case", _FAILURES)
def test_a_failed_run_writes_nothing(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(cli.C, "THEORY_SOLVER", _FAST_THEORY)
    monkeypatch.setattr(cli.C, "SWEEP_SOLVER", _FAST_SWEEP)

    def potential(*args):
        raise RuntimeError("potential failed")

    monkeypatch.setattr(cli.S, "potential", potential)
    argv, code, message = _FAILURES[case]
    out = tmp_path / "out"
    assert cli.main([*argv, "--output-dir", str(out)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["message"].startswith(message)
    assert not out.exists()


def test_record_table(tmp_path):
    # the CSV layout of the experiments' records, as `_Run.finish` writes it
    recs = [ExperimentRecord("x", 1.0, 0.5, 0.0, 1, "abc", 0),
            ExperimentRecord("x", 0.5, 0.9, 0.0, 1, "abc", 0, flags=("a", "b"))]
    run = cli._Run(cli.build_parser().parse_args(
        ["exp-rem", "--output-dir", str(tmp_path)]))
    run.table("records.csv", *cli._record_table(recs))
    run.finish({})
    path = tmp_path / "records.csv"
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("kind,t,value")
    assert lines[2].endswith("a;b")


def test_validate_command_passes(tmp_path, capsys):
    assert cli.main(["validate", "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 4
    assert all(l.startswith("PASS") for l in lines)
    assert all(" gap " in l for l in lines)
    assert set(_timings(tmp_path, "validate")) == {
        "collapse_routes", "eigen_logdet", "psi_checks"}
    manifest = json.loads((tmp_path / "validate.manifest.json").read_text())
    assert [c["pass"] for c in manifest["checks"]] == [True] * 4
