"""Regenerate perfbench/collapse_sweep_reference.json.

The table holds t_C for every row of the `collapse_sweep` workload, solved
at higher accuracy than the CLI sweep uses (n_outer 24, n_inner 96,
t_tol 1e-7 instead of 10, 48, 1e-4).  It also runs the sweep itself
through the CLI and records each row's gap to the reference; the benchmark's
per-row tolerance is set from that measured gap (see workloads.check_sweep).

Run from the repository root (about seven minutes on one core):

    PYTHONPATH=src python3 perfbench/make_reference.py
"""
from __future__ import annotations

import csv
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    from manifold_diffusion import cli
    from manifold_diffusion import collapse as C
    from manifold_diffusion.activations import make_activation

    spec = workloads.SWEEP
    rows = []
    for beta in spec["betas"]:
        rows.append({"beta": beta, "kind": "linear_isometry_closed_form",
                     "t_C": C.collapse_time_linear_isometry(spec["alpha"], beta)})
        rows.append({"beta": beta, "kind": "linear_rmt",
                     "t_C": C.collapse_time_linear_rmt(spec["alpha"], beta,
                                                       t_tol=1e-10).t_c})
        for act in spec["activations"]:
            t0 = time.perf_counter()
            res = C.collapse_time_glm((1.0, 1.0, beta, make_activation(act)),
                                      spec["alpha"], n_outer=24, n_inner=96,
                                      grid_points=48, t_tol=1e-7)
            rows.append({"beta": beta, "kind": act, "t_C": res.t_c})
            print(f"beta={beta} {act}: t_C={res.t_c:.9g} "
                  f"({time.perf_counter() - t0:.0f} s)", flush=True)
    work = HERE.parent / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if cli.main(workloads.argv("collapse_sweep", 0, work)) != 0:
            raise RuntimeError("collapse-sweep failed")
        with open(work / "collapse_sweep.csv", newline="") as fh:
            sweep = {(round(float(r["beta"]), 9), r["method_or_activation"]):
                     float(r["t_C [backward time]"]) for r in csv.DictReader(fh)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for row in rows:
        row["sweep_t_C"] = sweep[(round(row["beta"], 9), row["kind"])]
        row["gap"] = abs(row["sweep_t_C"] - row["t_C"])
    table = {"alpha": spec["alpha"], "n_outer": 24, "n_inner": 96,
             "grid_points": 48, "t_tol": 1e-7, "rows": rows}
    (HERE / "collapse_sweep_reference.json").write_text(
        json.dumps(table, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
