"""Command-line front end.

Subcommands mirror the theory and experiment entry points; every run echoes
a manifest JSON with the fully resolved configuration and content hashes of
the files it wrote.  Exit codes: 0 success, 2 config error, 3 solver
failure, 4 validation failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import collapse as C
from . import experiments as E
from . import speciation as S
from .activations import make_activation
from .diffusion import EmpiricalScore
from .model import (ENSEMBLES, TheoryParams, model_from_config, sample_count,
                    sample_dataset)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4

_MODEL_KEYS = ("d", "p", "alpha", "rho", "m", "activation", "ensemble", "seed")
# every model default, applied once; alpha has none, since each command
# treats a missing alpha in its own way
_DEFAULTS = {"rho": 1.0, "m": 1.0, "activation": "linear",
             "ensemble": "deterministic_isometry", "seed": 0}
_KNOWN = {"activation": ("linear", "tanh", "relu", "sigmoid"),
          "ensemble": ENSEMBLES}
# the thread counts BLAS and OpenMP read at start-up; unset means the
# library picks one per core
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _out_dir(args) -> Path:
    base = args.output_dir or os.environ.get("MANIFOLD_DIFFUSION_OUTDIR", ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_config(args, model: bool = True, **defaults) -> dict:
    """The run's one resolved and validated config.

    Flags override the ``--config`` file, which overrides the command's
    ``defaults`` and then `_DEFAULTS`.  The file may hold the model keys
    and a center, ``mu`` or ``mu_file``; any other key is rejected, since a
    misspelt one would otherwise leave its default in place.  ``model``
    says the command reads a d x p model (drawn, or as its `TheoryParams`),
    so d and p are required.
    """
    cfg = {**_DEFAULTS, **defaults}
    if args.config:
        given = json.loads(Path(args.config).read_text())
        unknown = sorted(set(given).difference(_MODEL_KEYS, ("mu", "mu_file")))
        if unknown:
            raise ValueError(f"config file has unknown fields: {unknown}")
        cfg.update(given)
    cfg.update((k, getattr(args, k)) for k in _MODEL_KEYS
               if getattr(args, k) is not None)
    if model:
        d, p = int(cfg.get("d", 0)), int(cfg.get("p", 0))
        if d < 1 or p < 1 or p > d:
            raise ValueError(
                f"config field d/p invalid: need d >= p >= 1, got d={d}, p={p}")
    if float(cfg["rho"]) <= 0:
        raise ValueError("config field rho must be positive")
    if float(cfg.get("alpha", 1.0)) <= 0:
        raise ValueError("config field alpha must be positive")
    for key, known in _KNOWN.items():
        if cfg[key] not in known:
            raise ValueError(f"config field {key} unknown: {cfg[key]!r}")
    return cfg


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: Path, name: str, cfg: dict, outputs: list[Path],
                    **extra) -> None:
    """Write ``<name>.manifest.json``; ``extra`` adds top-level entries."""
    manifest = {
        "command": name,
        "resolved_config": cfg,
        "outputs": {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "versions": {"manifold_diffusion": __version__,
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
        **extra,
    }
    _write_json(out_dir / f"{name}.manifest.json", manifest)


def _report(out_dir: Path, name: str, cfg: dict, summary: dict,
            outputs=(), **extra) -> int:
    """Write ``<name>.json``, the manifest over it and ``outputs``, and echo it.

    ``extra`` adds top-level manifest entries, as in `_write_manifest`.
    """
    path = out_dir / f"{name}.json"
    _write_json(path, summary)
    _write_manifest(out_dir, name, cfg, [*outputs, path], **extra)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _solver_work(result: C.CollapseResult) -> dict:
    """The work counters of a collapse solve, as written to its outputs."""
    return {"f_star_solves": result.f_star_solves,
            "psi_evaluations": result.psi_evaluations,
            "bracket_expansions": result.bracket_expansions,
            "brent_iterations": result.brent_iterations}


@contextmanager
def _phase(timings: dict, name: str):
    """Record the wall time of the ``with`` body as ``timings[name]``, in seconds."""
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start


# ---------------------------------------------------------------------------
# subcommands

def cmd_speciation(args) -> int:
    cfg = _run_config(args)
    timings = {}
    with _phase(timings, "model"):
        model = model_from_config(cfg)
    S.require_odd(model.activation)
    with _phase(timings, "theory"):
        gf = S.GammaFunctions(model.activation, model.rho)
        gep = S.gep_constants(gf)
        s = S.gamma0_sq_sum(model, gf)
        result = {
            "t_S_finite": S.speciation_time_finite(model, gf),
            "t_S_asymptotic": S.speciation_time_asymptotic(
                model.beta, model.d, model.mu_tilde_norm_sq, gep,
                ensemble=model.embedding.ensemble),
            "rho1": gep.rho1,
            "rho_star_sq": gep.rho_star_sq,
            "gamma0_sq_sum": s,
        }
    out = _out_dir(args)
    outputs = []
    if args.potential_csv:
        t_s = result["t_S_finite"]
        path = out / "potential.csv"
        with _phase(timings, "potential"), open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["q", "t", "V(q,t) [reduced units]"])
            for t in (0.5 * t_s, t_s, 1.5 * t_s):
                qmax = 4.0 * np.sqrt(max(s, 1.0))
                for q in np.linspace(-qmax, qmax, 201):
                    writer.writerow([q, t, S.potential(q, t, s)])
        outputs.append(path)
    return _report(out, "speciation", cfg, result, outputs, timings=timings)


def cmd_collapse(args) -> int:
    cfg = _run_config(args, alpha=1.0)
    timings = {}
    with _phase(timings, "theory"):
        result = C.collapse_time(args.method, float(cfg["alpha"]),
                                 TheoryParams.from_config(cfg),
                                 n_outer=args.nodes, grid_points=args.grid_points)
    payload = {"t_C": result.t_c, "method": result.method,
               "residual": result.residual, **_solver_work(result)}
    return _report(_out_dir(args), "collapse", cfg, payload, timings=timings)


def cmd_collapse_sweep(args) -> int:
    cfg = _run_config(args, model=False, alpha=0.5)
    if "mu" in cfg or "mu_file" in cfg:
        raise ValueError("collapse-sweep takes the center scale m, not mu")
    alpha, m, rho = float(cfg["alpha"]), float(cfg["m"]), float(cfg["rho"])
    lin = make_activation("linear")
    names = [a.strip() for a in args.activations.split(",")]
    acts = [make_activation(a) for a in names if a and a != "linear"]
    betas = np.linspace(args.beta_min, args.beta_max, args.beta_points)
    # the GLM rows' solver settings; a t_C at or below t_tol is only
    # resolved to the time bracket
    solver = {"n_outer": args.nodes, "n_inner": 48,
              "grid_points": args.grid_points, "t_tol": 1e-4}
    glm_rows = []
    out = _out_dir(args)
    path = out / "collapse_sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "t_C [backward time]", "method_or_activation"])
        for beta in betas:
            for method in ("linear_isometry_closed_form", "linear_rmt"):
                res = C.collapse_time(method, alpha,
                                      TheoryParams(m, rho, beta, lin))
                writer.writerow([beta, res.t_c, method])
            for act in acts:
                timings = {}
                with _phase(timings, "solve"):
                    res = C.collapse_time("glm_general", alpha,
                                          TheoryParams(m, rho, float(beta), act),
                                          **solver)
                writer.writerow([beta, res.t_c, act.kind])
                glm_rows.append({
                    "beta": float(beta), "activation": act.kind,
                    "t_C": res.t_c,
                    "resolution_limited": res.t_c <= solver["t_tol"],
                    **_solver_work(res), "solve_s": timings["solve"]})
    _write_manifest(out, "collapse_sweep",
                    {**cfg, "betas": betas.tolist(),
                     "activations": args.activations, "glm_solver": solver},
                    [path], glm_rows=glm_rows)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_free_energy(args) -> int:
    cfg = _run_config(args)
    params = TheoryParams.from_config(cfg)
    ts = np.linspace(args.t_min, args.t_max, args.t_points)
    out = _out_dir(args)
    path = out / "free_energy.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t [backward time]", "q_star", "r_star",
                         "f_star [per latent dim]"])
        timings = {}
        with _phase(timings, "theory"):
            for t in ts:
                res = C.f_star(float(t), params, n_outer=args.nodes)
                writer.writerow([t, res.q_star, res.r_star, res.f_star])
    _write_manifest(out, "free_energy", cfg, [path], timings=timings)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_exp_speciation(args) -> int:
    cfg = _run_config(args)
    model = model_from_config(cfg)
    S.require_odd(model.activation)
    t_grid = np.linspace(args.t_max, args.t_min, args.t_points)
    timings = {}
    with _phase(timings, "dataset"):
        dataset = sample_dataset(model, args.n_data, int(cfg["seed"]))
    with _phase(timings, "experiment"):
        score = EmpiricalScore(dataset)
        records = E.speciation_experiment(model, args.n_data, t_grid,
                                          args.n_traj, args.n_clones,
                                          int(cfg["seed"]),
                                          dataset=dataset, score=score)
    out = _out_dir(args)
    csv_path = out / "exp_speciation.csv"
    E.records_to_csv(records, csv_path)
    with _phase(timings, "theory"):
        gf = S.GammaFunctions(model.activation, model.rho)
        t_s_theory = S.speciation_time_finite(model, gf)
    summary = {
        "t_S_empirical": _try(lambda: E.threshold_crossing(records)),
        "t_S_theory": t_s_theory,
        # the first grid time is already at the level: t_S_empirical is a
        # lower bound on the crossing, not an estimate of it
        "t_S_empirical_censored": bool(records[0].value >= 0.95),
    }
    # the exact backward sampler evaluates the kernel once at t_start and
    # once per grid time
    return _report(out, "exp_speciation", cfg, summary, [csv_path],
                   timings=timings, score_rank=score.rank,
                   sampler="exact_bridge", kernel_evaluations=len(t_grid) + 1)


def _crossing_sample(cfg: dict, n_data: int | None) -> tuple[int, float]:
    """Sample count and alpha of exp-collapse, tied by n = e^{alpha d}.

    Without alpha, n defaults to 22026 (about e^10) and alpha is read off
    n.  A given ``n_data`` that disagrees with a resolved alpha is
    rejected, since the data and the theory would then be at two alphas.
    """
    d = int(cfg["d"])
    if "alpha" not in cfg:
        n = 22026 if n_data is None else n_data
        return n, float(np.log(n) / d)
    n_alpha = sample_count(float(cfg["alpha"]), d)
    if n_data is not None and n_data != n_alpha:
        raise ValueError(
            f"--n-data {n_data} disagrees with alpha = {cfg['alpha']}: "
            f"e^(alpha d) at d = {d} is {n_alpha}")
    return n_alpha, float(cfg["alpha"])


def cmd_exp_collapse(args) -> int:
    cfg = _run_config(args)
    cfg["n_data"], cfg["alpha"] = _crossing_sample(cfg, args.n_data)
    model = model_from_config(cfg)
    t_grid = np.linspace(args.t_max, args.t_min, args.t_points)
    timings = {}
    with _phase(timings, "dataset"):
        dataset = sample_dataset(model, cfg["n_data"], int(cfg["seed"]))
    with _phase(timings, "experiment"):
        score = EmpiricalScore(dataset)
        records = E.collapse_crossing_experiment(model, dataset, t_grid,
                                                 args.n_noise, int(cfg["seed"]) + 1,
                                                 score=score)
    out = _out_dir(args)
    csv_path = out / "exp_collapse.csv"
    E.records_to_csv(records, csv_path)
    with _phase(timings, "theory"):
        theory = C.collapse_time(None, model.alpha, model.theory_params,
                                 n_outer=12, n_inner=48, t_tol=1e-4)
    summary = {"t_C_empirical": _try(lambda: E.sign_change_time(records)),
               "t_C_theory": theory.t_c, "method": theory.method}
    return _report(out, "exp_collapse", cfg, summary, [csv_path],
                   timings=timings, score_rank=score.rank,
                   **_solver_work(theory))


def cmd_exp_free_energy(args) -> int:
    cfg = _run_config(args)
    timings = {}
    with _phase(timings, "model"):
        model = model_from_config(cfg)
    with _phase(timings, "experiment"):
        rec = E.free_energy_mc(model, args.t, args.n_x, args.n_latent,
                               int(cfg["seed"]))
    out = _out_dir(args)
    csv_path = out / "exp_free_energy.csv"
    E.records_to_csv([rec], csv_path)
    summary = {"value": rec.value, "stderr": rec.stderr,
               "flags": list(rec.flags)}
    return _report(out, "exp_free_energy", cfg, summary, [csv_path],
                   timings=timings)


def cmd_exp_rem(args) -> int:
    cfg = _run_config(args)
    timings = {}
    with _phase(timings, "model"):
        model = model_from_config(cfg)
    with _phase(timings, "experiment"):
        rec = E.rem_derivative_check(model, args.t, args.n_rep,
                                     int(cfg["seed"]))
    out = _out_dir(args)
    csv_path = out / "exp_rem.csv"
    E.records_to_csv([rec], csv_path)
    summary = {"minus_g_prime_at_1": rec.value, "stderr": rec.stderr,
               "expected": 0.5}
    return _report(out, "exp_rem", cfg, summary, [csv_path], timings=timings)


def _try(fn):
    try:
        return fn()
    except ValueError as exc:
        return f"unavailable: {exc}"


def cmd_validate(args) -> int:
    lin = make_activation("linear")
    timings = {}
    with _phase(timings, "collapse_routes"):
        glm = C.collapse_time_glm(TheoryParams(1.0, 1.0, 0.5, lin), 0.5).t_c
        rmt = C.collapse_time_linear_rmt(0.5, 0.5).t_c

    with _phase(timings, "eigen_logdet"):
        rng = np.random.default_rng(0)
        d, beta, eta = 600, 0.5, 1.0
        F = rng.standard_normal((d, int(beta * d)))
        _, ld = np.linalg.slogdet(eta * F @ F.T / int(beta * d) + np.eye(d))

    # (name, measured gap, tolerance); np.max keeps a NaN gap, which fails
    with _phase(timings, "psi_checks"):
        checks = [
            ("glm_vs_rmt_linear", abs(glm - rmt), 1e-3),
            ("rmt_vs_eigen", abs(ld / d - C.mp_logdet(eta, beta)), 2e-2),
            ("psi_integral_vs_closed_form",
             np.max([abs(C.psi_quadrature_check(r, m, rho) - C.psi(r, m, rho))
                     for r, m, rho in [(1.0, 0.0, 1.0), (2.0, 1.0, 0.5)]]),
             1e-8),
            ("psi_big_linear_closed_form",
             np.max([abs(C.psi_big(q, t, 1.0, 1.0, lin)
                         - C.psi_big_linear(q, t, 1.0, 1.0))
                     for q, t in [(0.5, 0.5), (1.5, 1.0)]]), 1e-6),
        ]
    for name, gap, tol in checks:
        verdict = "PASS" if gap < tol else "FAIL"
        print(f"{verdict}  {name}  gap {gap:.2e} (tol {tol:.0e})")
    passed = all(gap < tol for _, gap, tol in checks)
    _write_manifest(_out_dir(args), "validate", {}, [], timings=timings,
                    checks=[{"name": name, "gap": float(gap), "tol": tol,
                             "pass": bool(gap < tol)}
                            for name, gap, tol in checks])
    return EXIT_OK if passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON model config file")
    p.add_argument("--d", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--activation")
    p.add_argument("--ensemble")
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manifold-diffusion",
        description="speciation/collapse times of empirical-score diffusion "
                    "on manifold mixture data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("speciation", help="theory speciation time")
    _add_model_flags(p)
    p.add_argument("--potential-csv", action="store_true")
    p.set_defaults(fn=cmd_speciation)

    p = sub.add_parser("collapse", help="theory collapse time")
    _add_model_flags(p)
    p.add_argument("--method", choices=["glm_general",
                                        "linear_isometry_closed_form",
                                        "linear_rmt"])
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--grid-points", type=int, default=64)
    p.set_defaults(fn=cmd_collapse)

    p = sub.add_parser("collapse-sweep", help="t_C(beta) tables")
    _add_model_flags(p)
    p.add_argument("--beta-min", type=float, default=0.1)
    p.add_argument("--beta-max", type=float, default=1.0)
    p.add_argument("--beta-points", type=int, default=10)
    p.add_argument("--activations", default="relu,tanh,sigmoid")
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--grid-points", type=int, default=48)
    p.set_defaults(fn=cmd_collapse_sweep)

    p = sub.add_parser("free-energy", help="f_star(t) table")
    _add_model_flags(p)
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--t-points", type=int, default=20)
    p.add_argument("--nodes", type=int, default=16)
    p.set_defaults(fn=cmd_free_energy)

    p = sub.add_parser("exp-speciation", help="clone-agreement experiment")
    _add_model_flags(p)
    p.add_argument("--n-data", type=int, default=4096)
    p.add_argument("--n-traj", type=int, default=40)
    p.add_argument("--n-clones", type=int, default=25)
    p.add_argument("--t-min", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=3.2)
    p.add_argument("--t-points", type=int, default=6)
    p.set_defaults(fn=cmd_exp_speciation)

    p = sub.add_parser("exp-collapse", help="log Z1/Z2 crossing experiment")
    _add_model_flags(p)
    p.add_argument("--n-data", type=int,
                   help="default e^(alpha d) when alpha is given, else 22026")
    p.add_argument("--n-noise", type=int, default=200)
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=0.6)
    p.add_argument("--t-points", type=int, default=12)
    p.set_defaults(fn=cmd_exp_collapse)

    p = sub.add_parser("exp-free-energy", help="Monte-Carlo free energy")
    _add_model_flags(p)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--n-x", type=int, default=50)
    p.add_argument("--n-latent", type=int, default=100_000)
    p.set_defaults(fn=cmd_exp_free_energy)

    p = sub.add_parser("exp-rem", help="tilted-partition derivative identity")
    _add_model_flags(p)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--n-rep", type=int, default=100_000)
    p.set_defaults(fn=cmd_exp_rem)

    p = sub.add_parser("validate", help="run the oracle cross-check suite")
    p.add_argument("--output-dir")
    p.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError, FloatingPointError) as exc:
        print(json.dumps({"error": "solver", "message": str(exc)}), file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
