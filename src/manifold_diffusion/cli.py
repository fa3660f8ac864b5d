"""Command-line front end.

Subcommands mirror the theory and experiment entry points.  A run writes
only when it finishes: its tables, a summary JSON if it has one and a
manifest JSON with the fully resolved configuration and content hashes of
the files it wrote; it then echoes the summary or the paths it wrote.  Exit
codes: 0 success, 2 config error, 3 solver failure, 4 validation failure.
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
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import collapse as C
from . import experiments as E
from . import speciation as S
from .activations import make_activation
from .diffusion import EmpiricalScore, check_time, kernel_workers
from .model import (CONFIG_KEYS, CONFIG_TYPES, SampleStream, TheoryParams,
                    check_sample_count, model_from_config, resolve_config, sample_count,
                    sample_dataset)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4

# The config keys each command reads; any other exits 2 before any output.
# alpha sizes a training set, collapse draws no F, free-energy's theory
# assumes gaussian F, and collapse-sweep draws no model (--seed does nothing).
_MODEL_KEYS = ("d", "p", "rho", "m", "activation", "ensemble", "seed", "mu", "mu_file")
_COLLAPSE_KEYS = ("d", "p", "alpha", "rho", "m", "activation", "ensemble", "mu", "mu_file")
_FREE_ENERGY_KEYS = ("d", "p", "rho", "m", "activation", "mu", "mu_file")
_SWEEP_KEYS = ("alpha", "rho", "m", "seed")
# the parsed values that are not the run's own arguments
_NOT_ARGUMENTS = {*CONFIG_KEYS, "config", "output_dir", "command", "fn", "keys"}
# the thread counts BLAS and OpenMP read at start-up; unset means the
# library picks one per core
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _config(args, **defaults) -> dict:
    """The ``--config`` file, the flags set over it, resolved to ``args.keys``."""
    cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    cfg.update((k, getattr(args, k)) for k in args.keys
               if getattr(args, k, None) is not None)
    return resolve_config({**defaults, **cfg}, args.keys)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class _Run:
    """The outputs of one command: phase timings, tables, summary, manifest.

    Tables are held in memory and `finish` writes everything, so a run that
    fails before it finishes (exit 2 or 3) leaves no directory or file.
    """

    def __init__(self, args: argparse.Namespace):
        self.command = args.command.replace("-", "_")
        self.dir = Path(args.output_dir
                        or os.environ.get("MANIFOLD_DIFFUSION_OUTDIR", "."))
        self.arguments = {k: v for k, v in vars(args).items()
                          if k not in _NOT_ARGUMENTS}
        self.timings = {}
        self.tables = {}

    @contextmanager
    def phase(self, name: str):
        """Record the wall time of the ``with`` body as ``timings[name]``, in seconds."""
        start = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - start

    def table(self, name: str, header: list, rows: list) -> None:
        """Hold the CSV file ``name`` (a header and rows) for `finish`."""
        self.tables[name] = (header, rows)

    def finish(self, cfg: dict, summary: dict | None = None, **extra) -> int:
        """Make the directory and write the tables, ``<command>.json`` (the
        summary, when given) and ``<command>.manifest.json``, in that order.

        The summary is echoed when given; otherwise the path of each table
        is echoed.  ``extra`` adds top-level manifest entries.
        """
        self.dir.mkdir(parents=True, exist_ok=True)
        outputs = [self.dir / name for name in self.tables]
        for path, (header, rows) in zip(outputs, self.tables.values()):
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([header, *rows])
        if summary is not None:
            outputs.append(self.dir / f"{self.command}.json")
            _write_json(outputs[-1], summary)
        _write_json(self.dir / f"{self.command}.manifest.json", {
            "command": self.command,
            "resolved_config": cfg,
            "arguments": self.arguments,
            "outputs": {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in outputs},
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "versions": {"manifold_diffusion": __version__,
                         "numpy": np.__version__, "scipy": scipy.__version__},
            "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
            "kernel_workers": kernel_workers(),
            "timings": self.timings,
            **extra,
        })
        if summary is not None:
            print(json.dumps(summary, indent=2))
        else:
            for path in outputs:
                print(f"wrote {path}")
        return EXIT_OK


def _grid(start: float, stop: float, points: int) -> np.ndarray:
    """``np.linspace(start, stop, points)``, with a non-finite end or span
    refused first: linspace warns on either before any check can run.  The
    span is a Python float difference, which warns on nothing."""
    if not np.isfinite(stop - start):  # NaN or inf for a non-finite end
        raise ValueError(f"need finite grid ends a finite span apart, got {start} "
                         f"and {stop}")
    return np.linspace(start, stop, points)


def _record_table(records: list[E.ExperimentRecord]) -> tuple[list, list]:
    """A records CSV: a column per field, the last (flags) joined by ";"."""
    return ([f.name for f in fields(E.ExperimentRecord)],
            [[*astuple(r)[:-1], ";".join(r.flags)] for r in records])


def _solve_record(result: C.CollapseResult) -> dict:
    """How a collapse time was obtained, as written to its outputs: the
    ensemble its route assumes, the residual at t_C and the solve's work
    counters."""
    return {"theory_ensemble": C.THEORY_ENSEMBLE[result.method],
            "residual": result.residual,
            "f_star_solves": result.f_star_solves,
            "psi_evaluations": result.psi_evaluations,
            "brent_iterations": result.brent_iterations}


def _glm_solver(solver: dict, params: TheoryParams, method: str = C.GLM) -> dict:
    """The manifest entry of the GLM settings a solve read: none off the GLM
    route, and no quadrature sizes where Psi is the linear closed form."""
    skip = ("n_outer", "n_inner") if params.activation.kind == "linear" else ()
    read = {k: v for k, v in solver.items() if k not in skip}
    return {"glm_solver": {"grid_points": C.Q_GRID_POINTS, **read}} if method == C.GLM else {}


# ---------------------------------------------------------------------------
# subcommands

def cmd_speciation(args, run: _Run) -> int:
    cfg = _config(args)
    with run.phase("model"):
        model = model_from_config(cfg)
    with run.phase("theory"):
        gf = S.GammaFunctions(model.activation, model.rho)
        rows = S.gamma0_rows(model, gf)
        s = float(rows @ rows)
        gep = S.gep_constants(gf)
        result = {
            "t_S_finite": S.speciation_time_finite(s),
            "t_S_asymptotic": S.speciation_time_asymptotic(
                model.beta, model.d, model.mu_tilde_norm_sq, gep,
                ensemble=model.embedding.ensemble),
            "rho1": gep.rho1,
            "rho_star_sq": gep.rho_star_sq,
            "gamma0_sq_sum": s,
        }
    if args.potential_csv:
        t_s, qmax = result["t_S_finite"], 4.0 * np.sqrt(max(s, 1.0))
        with run.phase("potential"):
            run.table("potential.csv", ["q", "t", "V(q,t) [reduced units]"],
                      [[q, t, S.potential(q, t, s)]
                       for t in (0.5 * t_s, t_s, 1.5 * t_s)
                       for q in np.linspace(-qmax, qmax, 201)])
    return run.finish(cfg, result)


def cmd_collapse(args, run: _Run) -> int:
    cfg = _config(args, alpha=1.0)
    params, solver = TheoryParams.from_config(cfg), C.THEORY_SOLVER
    with run.phase("theory"):
        result = C.collapse_time(args.method, cfg["alpha"], params, **solver)
    return run.finish(cfg, {"t_C": result.t_c, "method": result.method,
                            **_solve_record(result)},
                      **_glm_solver(solver, params, result.method))


def cmd_collapse_sweep(args, run: _Run) -> int:
    cfg = _config(args, alpha=0.5)
    lin = make_activation("linear")
    names = [a.strip() for a in args.activations.split(",")]
    if "" in names or "linear" in names:
        raise ValueError(f"--activations takes non-linear activation names, got "
                         f"{args.activations!r}: linear data is covered by the "
                         f"{C.CLOSED_FORM} and {C.RMT} rows")
    acts = [make_activation(a) for a in names]
    betas = _grid(args.beta_min, args.beta_max, args.beta_points)
    if not betas.size:
        raise ValueError("--beta-points must be at least 1")
    # one linear record per beta, so each beta is checked before any solve
    linear = [TheoryParams(cfg["m"], cfg["rho"], float(beta), lin) for beta in betas]
    solver, rows, glm_rows = C.SWEEP_SOLVER, [], []
    with run.phase("theory"):
        for beta, params in zip(betas, linear):
            for method in (C.CLOSED_FORM, C.RMT):
                res = C.collapse_time(method, cfg["alpha"], params)
                rows.append([beta, res.t_c, method])
            for act in acts:
                start = time.perf_counter()
                res = C.collapse_time(C.GLM, cfg["alpha"],
                                      replace(params, activation=act), **solver)
                solve_s = time.perf_counter() - start
                rows.append([beta, res.t_c, act.kind])
                glm_rows.append({
                    "beta": params.beta, "activation": act.kind,
                    "t_C": res.t_c, **_solve_record(res), "solve_s": solve_s})
    run.table("collapse_sweep.csv",
              ["beta", "t_C [backward time]", "method_or_activation"], rows)
    return run.finish({**cfg, "betas": betas.tolist()}, glm_rows=glm_rows,
                      glm_solver={"grid_points": C.Q_GRID_POINTS, **solver})


def cmd_free_energy(args, run: _Run) -> int:
    cfg = _config(args)
    params = TheoryParams.from_config(cfg)
    ts = _grid(args.t_min, args.t_max, args.t_points)
    check_time(ts.min() if ts.size else ts)  # it ascends, and may repeat one time
    # the sup over q reads no t_tol
    solver = {k: v for k, v in C.THEORY_SOLVER.items() if k != "t_tol"}
    with run.phase("theory"):
        results = [C.f_star(float(t), params, **solver) for t in ts]
    run.table("free_energy.csv",
              ["t [backward time]", "q_star", "r_star", "f_star [per latent dim]"],
              [[t, r.q_star, r.r_star, r.f_star] for t, r in zip(ts, results)])
    # q_star and r_star are converged only to the sup's tolerance in q
    return run.finish(cfg, **_glm_solver({**solver, "q_xatol": C.Q_XATOL}, params))


def cmd_exp_speciation(args, run: _Run) -> int:
    cfg = _config(args)
    model = model_from_config(cfg)
    t_grid = _grid(args.t_max, args.t_min, args.t_points)
    # before the data, so that a run that cannot finish does no work
    E.check_speciation(t_grid, args.n_traj, args.n_clones)
    with run.phase("theory"):
        direction = S.gamma0_rows(model, S.GammaFunctions(model.activation, model.rho))
        t_s_theory = S.speciation_time_finite(float(direction @ direction))
    with run.phase("dataset"):
        dataset = sample_dataset(model, args.n_data, cfg["seed"])
    with run.phase("experiment"):
        score = EmpiricalScore(dataset)
        records = E.speciation_experiment(model, score, direction, t_grid,
                                          args.n_traj, args.n_clones, cfg["seed"])
    run.table("exp_speciation.csv", *_record_table(records))
    t_s, status = E.threshold_crossing(records, E.AGREEMENT_LEVEL)
    summary = {"t_S_empirical": t_s, "t_S_empirical_status": status,
               "t_S_theory": t_s_theory}
    # the exact backward sampler runs the kernel at t_start and each grid time
    return run.finish(cfg, summary, sampler="exact_bridge",
                      kernel_evaluations=len(t_grid) + 1)


def _crossing_sample(d: int, alpha, n_data: int | None) -> tuple[int, float]:
    """Sample count and alpha of exp-collapse, tied by n = e^{alpha d}.

    Without a given alpha, n defaults to 22026 (about e^10) and alpha is
    read off n, which must lie in [2, MAX_SAMPLES].  A given ``n_data``
    that disagrees with a given alpha is rejected, since the data and the
    theory would then be at two alphas.
    """
    if alpha is None:
        n = 22026 if n_data is None else n_data
        check_sample_count(n, 2)
        return n, float(np.log(n) / d)
    n_alpha = sample_count(alpha, d)
    if n_data is not None and n_data != n_alpha:
        raise ValueError(
            f"--n-data {n_data} disagrees with alpha = {alpha}: "
            f"e^(alpha d) at d = {d} is {n_alpha}")
    return n_alpha, alpha


def cmd_exp_collapse(args, run: _Run) -> int:
    cfg = _config(args)
    model = model_from_config(cfg)
    cfg["n_data"], cfg["alpha"] = _crossing_sample(cfg["d"], cfg.get("alpha"), args.n_data)
    t_grid = _grid(args.t_max, args.t_min, args.t_points)
    E.check_crossing(t_grid, cfg["n_data"], args.n_noise)
    # the theory first: a model with no collapse time in range fails before
    # the data are drawn and before any output is written
    solver, params = C.CROSSING_SOLVER, model.theory_params
    with run.phase("theory"):
        theory = C.collapse_time(None, cfg["alpha"], params, **solver)
    # the training set is drawn block by block inside the one pass and never
    # stored, so its draw is timed as part of the experiment
    with run.phase("experiment"):
        records = E.collapse_crossing_experiment(
            model, SampleStream(model, cfg["n_data"], cfg["seed"]), t_grid,
            args.n_noise, cfg["seed"] + 1)
    run.table("exp_collapse.csv", *_record_table(records))
    t_c, status = E.threshold_crossing(records, 0.0)
    summary = {"t_C_empirical": t_c, "t_C_empirical_status": status,
               "t_C_theory": theory.t_c, "method": theory.method}
    return run.finish(cfg, summary, **_solve_record(theory),
                      **_glm_solver(solver, params, theory.method))


def cmd_exp_free_energy(args, run: _Run) -> int:
    cfg = _config(args)
    with run.phase("model"):
        model = model_from_config(cfg)
    with run.phase("experiment"):
        rec = E.free_energy_mc(model, args.t, args.n_x, args.n_latent, cfg["seed"])
    run.table("exp_free_energy.csv", *_record_table([rec]))
    return run.finish(cfg, {"value": rec.value, "stderr": rec.stderr,
                            "flags": list(rec.flags)})


def cmd_exp_rem(args, run: _Run) -> int:
    cfg = _config(args)
    with run.phase("model"):
        model = model_from_config(cfg)
    with run.phase("experiment"):
        rec = E.rem_derivative_check(model, args.t, args.n_rep, cfg["seed"])
    run.table("exp_rem.csv", *_record_table([rec]))
    return run.finish(cfg, {"minus_g_prime_at_1": rec.value,
                            "stderr": rec.stderr, "expected": 0.5})


def cmd_validate(args, run: _Run) -> int:
    lin = make_activation("linear")
    with run.phase("collapse_routes"):
        glm = C.collapse_time_glm(TheoryParams(1.0, 1.0, 0.5, lin), 0.5).t_c
        rmt = C.collapse_time_linear_rmt(0.5, 0.5).t_c

    with run.phase("eigen_logdet"):
        rng = np.random.default_rng(0)
        d, beta, eta = 600, 0.5, 1.0
        F = rng.standard_normal((d, int(beta * d)))
        _, ld = np.linalg.slogdet(eta * F @ F.T / int(beta * d) + np.eye(d))

    # (name, measured gap, tolerance); np.max keeps a NaN gap, which fails
    with run.phase("psi_checks"):
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
        print(f"{'PASS' if gap < tol else 'FAIL'}  {name}  gap {gap:.2e} (tol {tol:.0e})")
    passed = all(gap < tol for _, gap, tol in checks)
    run.finish({}, checks=[{"name": name, "gap": float(gap), "tol": tol,
                            "pass": bool(gap < tol)}
                           for name, gap, tol in checks])
    return EXIT_OK if passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------

# argparse reads only -N and -N.N as negative numbers, and -1e-3 as a flag
_EPILOG = ("Give a negative number in exponent form with an equals sign, "
           "--t-min=-1e-3: --t-min -1e-3 is read as a missing value.")


def build_parser() -> argparse.ArgumentParser:
    # abbreviated flags are rejected: an abbreviation such as --pot would
    # otherwise run silently as the flag it happens to prefix
    parser = argparse.ArgumentParser(
        prog="manifold-diffusion", allow_abbrev=False, epilog=_EPILOG,
        description="speciation/collapse times of empirical-score diffusion "
                    "on manifold mixture data")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, keys):
        """A subcommand that reads the config keys ``keys``: a flag for each
        typed one, and a ``--config`` file that may hold only those."""
        p = sub.add_parser(name, help=help, allow_abbrev=False, epilog=_EPILOG)
        if keys:
            p.add_argument("--config", help="JSON config file")
        for key in keys:
            if key in CONFIG_TYPES:
                p.add_argument(f"--{key}", type=CONFIG_TYPES[key])
        p.add_argument("--output-dir")
        p.set_defaults(fn=fn, keys=keys)
        return p

    p = command("speciation", cmd_speciation, "theory speciation time", _MODEL_KEYS)
    p.add_argument("--potential-csv", action="store_true")

    p = command("collapse", cmd_collapse, "theory collapse time", _COLLAPSE_KEYS)
    p.add_argument("--method", choices=C.ROUTES)

    p = command("collapse-sweep", cmd_collapse_sweep, "t_C(beta) tables",
                _SWEEP_KEYS)
    p.add_argument("--beta-min", type=float, default=0.1)
    p.add_argument("--beta-max", type=float, default=1.0)
    p.add_argument("--beta-points", type=int, default=10)
    p.add_argument("--activations", default="relu,tanh,sigmoid")

    p = command("free-energy", cmd_free_energy, "f_star(t) table", _FREE_ENERGY_KEYS)
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--t-points", type=int, default=20)

    p = command("exp-speciation", cmd_exp_speciation,
                "clone-agreement experiment", _MODEL_KEYS)
    p.add_argument("--n-data", type=int, default=4096)
    p.add_argument("--n-traj", type=int, default=40)
    p.add_argument("--n-clones", type=int, default=25)
    p.add_argument("--t-min", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=3.2)
    p.add_argument("--t-points", type=int, default=6)

    p = command("exp-collapse", cmd_exp_collapse,
                "log Z1/Z2 crossing experiment", CONFIG_KEYS)
    p.add_argument("--n-data", type=int,
                   help="default e^(alpha d) when alpha is given, else 22026")
    p.add_argument("--n-noise", type=int, default=200)
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=0.6)
    p.add_argument("--t-points", type=int, default=12)

    p = command("exp-free-energy", cmd_exp_free_energy,
                "Monte-Carlo free energy", _MODEL_KEYS)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--n-x", type=int, default=50)
    p.add_argument("--n-latent", type=int, default=100_000)

    p = command("exp-rem", cmd_exp_rem, "-g'(1), the mean of chi^2_d/(2d)", _MODEL_KEYS)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--n-rep", type=int, default=100_000)

    command("validate", cmd_validate, "run the oracle cross-check suite", ())
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = _Run(args)
    try:
        return args.fn(args, run)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError, FloatingPointError) as exc:
        print(json.dumps({"error": "solver", "message": str(exc)}), file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
