"""Benchmark of the manifold-diffusion CLI: three workloads, end to end and
per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Every measured process is a fresh `python3 perfbench/child.py`
with BLAS/OpenMP threads pinned to the usable core count.

A run first starts SETUP_REPS processes that only import the package
(`setup_s` is the median of process start to package ready over these and
the workload processes).  It then runs the workload in a new process each
time until S seconds have passed (at least once) and reports the median
`wall_s` (time inside `cli.main`) and `peak_rss_mb` (that process's own
peak RSS).  With `--trace 1` it then runs the workload once more with spans
patched around each layer and prints the per-layer metrics instead.

Every output row is one operation; it fails on an exception, a non-zero
exit code, an "unavailable:" value, the all_one_sign_widen_grid flag or a
correctness miss.  Stdout ends with two JSON lines: a summary (every
iteration's times, failures, fail_ratio, versions, BLAS, commit) and the
result.  The exit code is 1 when any operation failed, and 2 without a
result when the checkout has no package or a benchmark process fails.

Workloads (see workloads.py):
  speciation_clones      exp-speciation, 1000 clones driven by the empirical
                         score: the `diffusion` score kernel dominates.
  collapse_sweep         collapse-sweep over 3 betas x 3 activations: GLM
                         free-energy solves, `collapse`/`quadrature` only.
                         Deterministic: the seed has no effect.
  memorization_crossing  exp-collapse at n = e^{0.3 * 40} = 162,755: log
                         weights of few points against many samples, bound
                         by memory, plus one GLM solve.

Kernel counts are computed from array shapes, not measured: flops are
2 B n d per log_weights and 4 B n d per score call, matrix bytes B n 8.
Operations per byte are given without a roofline ratio: a bandwidth
measurement would need an array of at least 4 x L3 (about 1.2 GB against a
300 MiB L3), which this benchmark does not allocate.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("speciation_clones", "collapse_sweep", "memorization_crossing")
SETUP_REPS = 7
RUN_LIMIT_S = 170.0  # a whole run must end within 180 s


class RunError(Exception):
    pass


def _env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run child.py in a fresh process; return its payload and set-up time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("run time limit reached")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD)] + args, env=_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"child timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    return payload, payload["ready"] - started


def _ops_failed(res: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure notes) for one workload process.

    A run that produced fewer rows than expected fails the missing ones."""
    n = res["expected_ops"]
    if res["rc"] != 0 or res["ops"] is None:
        return n, n, [f"rc={res['rc']} {res['error'] or ''}".strip()]
    notes = [f"{name}: {detail}" for name, ok, detail in res["ops"] if not ok]
    failed = len(notes)
    missing = max(0, n - len(res["ops"]))
    if missing:
        notes.append(f"{missing} output rows missing")
    return len(res["ops"]) + missing, failed + missing, notes


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _layer_metrics(res: dict, untraced_wall: float) -> dict:
    tr = res["trace"]
    spans = tr["spans"]
    counters = tr["counters"]

    def span(name):
        return spans.get(name, {"calls": 0, "self_s": 0.0, "durations": [],
                                "errors": {}})

    def p50_ms(name):
        return 1e3 * _median(span(name)["durations"])

    solves = span("collapse.collapse_time_glm")["calls"]
    per_solve = (lambda n: n / solves) if solves else (lambda n: 0.0)
    # an error inside a solve propagates out of collapse_time_glm: count it there once
    solver_errors = sum(span("collapse.collapse_time_glm")["errors"].values())
    nonfinite = sum(span(n)["errors"].get(e, 0)
                    for n in ("experiments.speciation_experiment",
                              "experiments.collapse_crossing_experiment")
                    for e in ("FloatingPointError", "ValueError"))
    lw_flops = counters.get("diffusion.log_weights.flops", 0.0)
    lw_bytes = counters.get("diffusion.log_weights.matrix_bytes", 0.0)
    m = {
        "diffusion.score.calls": (span("diffusion.score")["calls"], "count"),
        "diffusion.score.self_s": (span("diffusion.score")["self_s"], "s"),
        "diffusion.score.ms_p50": (p50_ms("diffusion.score"), "ms"),
        "diffusion.score.gflops_computed":
            (counters.get("diffusion.score.flops", 0.0) / 1e9, "GFLOP"),
        "diffusion.log_weights.calls": (span("diffusion.log_weights")["calls"], "count"),
        "diffusion.log_weights.self_s": (span("diffusion.log_weights")["self_s"], "s"),
        "diffusion.log_weights.gflops_computed": (lw_flops / 1e9, "GFLOP"),
        "diffusion.log_weights.matrix_mb_computed": (lw_bytes / 2**20, "MiB"),
        "diffusion.log_weights.flops_per_byte_computed":
            (lw_flops / lw_bytes if lw_bytes else 0.0, "flop/B"),
        "experiments.speciation_experiment.self_s":
            (span("experiments.speciation_experiment")["self_s"], "s"),
        "experiments.collapse_crossing_experiment.self_s":
            (span("experiments.collapse_crossing_experiment")["self_s"], "s"),
        "collapse.collapse_time_glm.calls": (solves, "count"),
        "collapse.collapse_time_glm.self_s":
            (span("collapse.collapse_time_glm")["self_s"], "s"),
        "collapse.psi_big.calls": (span("collapse.psi_big")["calls"], "count"),
        "collapse.psi_big.calls_per_solve":
            (per_solve(span("collapse.psi_big")["calls"]), "count"),
        "collapse.psi_big.self_s": (span("collapse.psi_big")["self_s"], "s"),
        "collapse.psi_big.ms_p50": (p50_ms("collapse.psi_big"), "ms"),
        "collapse.f_star.calls_per_solve":
            (per_solve(span("collapse.f_star")["calls"]), "count"),
        "collapse.f_star.self_s": (span("collapse.f_star")["self_s"], "s"),
        "quadrature.std_normal_grid.calls":
            (span("quadrature.std_normal_grid")["calls"], "count"),
        "quadrature.std_normal_grid.self_s":
            (span("quadrature.std_normal_grid")["self_s"], "s"),
        "collapse.solver_errors": (solver_errors, "count"),
        "experiments.nonfinite_errors": (nonfinite, "count"),
        "model.sample_dataset.self_s": (span("model.sample_dataset")["self_s"], "s"),
        "model.sample_dataset.rows": (counters.get("model.sample_dataset.rows", 0), "count"),
        "speciation.GammaFunctions.self_s":
            (span("speciation.GammaFunctions")["self_s"], "s"),
        "cli.main.self_s": (span("cli.main")["self_s"], "s"),
        "cli.output_bytes": (tr["output_bytes"], "B"),
        "trace.wall_s": (res["wall_s"], "s"),
        "trace.overhead_s": (res["wall_s"] - untraced_wall, "s"),
        "trace.span_coverage": (tr["coverage"], "ratio"),
        "machine.cores": (res["context"]["cores"], "count"),
        "machine.blas_threads": (int(res["context"]["blas_threads"]), "count"),
        "machine.gemm_gflops": (res["gemm_gflops"], "GFLOP/s"),
    }
    return m


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{workload}-{seed}-{os.getpid()}"
    setups, results = [], []
    try:
        for _ in range(SETUP_REPS):
            setups.append(_spawn(["setup"], deadline)[1])

        def one(traced: bool) -> dict:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            args = ["run", workload, str(seed), str(work)] + (["--trace"] if traced else [])
            res, setup = _spawn(args, deadline)
            setups.append(setup)
            results.append(res)
            return res

        measure_end = time.monotonic() + seconds
        walls = [one(False)["wall_s"]]
        while time.monotonic() < measure_end:
            walls.append(one(False)["wall_s"])
        traced = one(True) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    attempted = failed = 0
    notes: list[str] = []
    for res in results:
        a, f, why = _ops_failed(res)
        attempted, failed = attempted + a, failed + f
        notes.extend(why)
    untraced = results[:len(walls)]
    if traced is not None:
        metrics = _layer_metrics(traced, _median(walls))
    else:
        metrics = {
            "wall_s": (_median(walls), "s"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (_median([r["peak_rss_mb"] for r in untraced]), "MiB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    summary = {"workload": workload, "seed": seed, "iterations": len(walls),
               "wall_s_all": walls, "setup_s_all": setups,
               "fail_ratio": failed / attempted, "failures": notes[:20],
               "seed_has_effect": workload != "collapse_sweep",
               "context": results[0]["context"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return summary, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "manifold_diffusion" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
