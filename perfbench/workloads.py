"""The three benchmark workloads: CLI arguments and correctness checks.

Each workload is one `manifold_diffusion.cli.main` call.  Its outputs are
split into operations, one per output row (a grid-time record, a
(beta, method) row, or the theory solve); `check` returns one
(name, ok, detail) triple per operation.  The references are computed
here, independently of the code paths being timed.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# exp-speciation: the criterion-07 model (d=64, beta=1/2, linear), default
# 40 x 25 clones and dt, on a two-point grid that brackets the 0.95 level.
SPECIATION = {"d": 64, "p": 32, "activation": "linear", "n_data": 4096,
              "t_max": 1.6, "t_min": 0.6, "t_points": 2}

# collapse-sweep at the CLI defaults (nodes 10, n_inner 48, t_tol 1e-4).
SWEEP = {"alpha": 0.5, "betas": [0.1, 0.5, 0.9],
         "activations": ["relu", "tanh", "sigmoid"]}

# exp-collapse at n = e^{alpha d}; n is derived from alpha so the sampled
# data and the theory agree on alpha.
CROSSING = {"d": 40, "p": 20, "activation": "tanh", "alpha": 0.3,
            "n_noise": 200, "t_points": 12}

SCORE_RTOL = 1e-10
GAP_ATOL = 1e-10
# Per-row sweep tolerance: twice the row's gap to the reference, measured
# when the table was made, plus the sweep's own root tolerance (t_tol).
SWEEP_TOL_FACTOR = 2.0
SWEEP_T_TOL = 1e-4


def crossing_n_data() -> int:
    from manifold_diffusion.model import sample_count
    return sample_count(CROSSING["alpha"], CROSSING["d"])


def expected_ops(workload: str) -> int:
    """Operations a run produces: one per output row plus the theory solve."""
    return {"speciation_clones": SPECIATION["t_points"] + 1,
            "collapse_sweep": len(SWEEP["betas"]) * (2 + len(SWEEP["activations"])),
            "memorization_crossing": CROSSING["t_points"] + 1}[workload]


def argv(workload: str, seed: int, out_dir: Path) -> list[str]:
    out = ["--seed", str(seed), "--output-dir", str(out_dir)]
    if workload == "speciation_clones":
        s = SPECIATION
        return ["exp-speciation", "--d", str(s["d"]), "--p", str(s["p"]),
                "--activation", s["activation"], "--n-data", str(s["n_data"]),
                "--t-max", str(s["t_max"]), "--t-min", str(s["t_min"]),
                "--t-points", str(s["t_points"])] + out
    if workload == "collapse_sweep":
        s = SWEEP
        # collapse-sweep ignores --seed unless a model is given: the
        # workload is deterministic and the seed has no effect.
        return ["collapse-sweep", "--alpha", str(s["alpha"]),
                "--beta-min", str(s["betas"][0]), "--beta-max", str(s["betas"][-1]),
                "--beta-points", str(len(s["betas"])),
                "--activations", ",".join(s["activations"])] + out
    if workload == "memorization_crossing":
        s = CROSSING
        return ["exp-collapse", "--d", str(s["d"]), "--p", str(s["p"]),
                "--activation", s["activation"], "--alpha", str(s["alpha"]),
                "--n-noise", str(s["n_noise"]), "--t-points", str(s["t_points"]),
                "--n-data", str(crossing_n_data())] + out
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# helpers

def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _model(spec: dict, seed: int):
    from manifold_diffusion.model import model_from_config
    return model_from_config({"d": spec["d"], "p": spec["p"], "alpha": spec.get("alpha", 1.0),
                              "activation": spec["activation"], "seed": seed})


def _record_ops(rows: list[dict]) -> list[tuple[str, bool, str]]:
    ops = []
    for r in rows:
        value = float(r["value"])
        flags = [f for f in r["flags"].split(";") if f]
        ok = math.isfinite(value) and "all_one_sign_widen_grid" not in flags
        ops.append((f"t={float(r['t']):.4g}", ok, f"value={value!r} flags={flags}"))
    return ops


def _fail_all(ops, detail: str):
    return [(name, False, f"{d}; {detail}") for name, _, d in ops]


# ---------------------------------------------------------------------------
# speciation_clones

def _direct_score(samples: np.ndarray, x: np.ndarray, t: float):
    """Score and log-normalizer from explicit differences x - a x_i."""
    from scipy.special import logsumexp
    a, h = math.exp(-t), -math.expm1(-2.0 * t)
    diff = x[None, :] - a * samples
    lw = -np.einsum("ij,ij->i", diff, diff) / (2.0 * h)
    logz = logsumexp(lw)
    w = np.exp(lw - logz)
    return (a * (w @ samples) - x) / h, float(logz)


def check_speciation(out_dir: Path, seed: int) -> list[tuple[str, bool, str]]:
    from manifold_diffusion.diffusion import EmpiricalScore
    from manifold_diffusion.model import sample_dataset

    ops = []
    for r in _read_rows(out_dir / "exp_speciation.csv"):
        v = float(r["value"])
        ops.append((f"t={float(r['t']):.4g}", 0.0 <= v <= 1.0,
                    f"agreement={v!r}"))
    summary = json.loads((out_dir / "exp_speciation.json").read_text())
    ok = _is_number(summary.get("t_S_empirical")) and _is_number(summary.get("t_S_theory"))
    ops.append(("theory_and_crossing", ok, f"summary={summary}"))

    # the score kernel the clones were driven by, at sampled (x, t) pairs
    spec = SPECIATION
    model = _model(spec, seed)
    ds = sample_dataset(model, spec["n_data"], seed)
    score = EmpiricalScore(ds)
    rng = np.random.default_rng([seed, 7])
    worst = 0.0
    for t in (spec["t_max"], spec["t_min"], 0.1, 0.011):
        a, h = math.exp(-t), -math.expm1(-2.0 * t)
        idx = rng.integers(0, ds.n, size=4)
        xs = a * ds.ambient[idx] + math.sqrt(h) * rng.standard_normal((4, spec["d"]))
        got_s, got_z = score(xs, t)
        for x, gs, gz in zip(xs, got_s, got_z):
            ref_s, ref_z = _direct_score(ds.ambient, x, t)
            err = max(np.linalg.norm(gs - ref_s) / np.linalg.norm(ref_s),
                      abs(gz - ref_z) / max(1.0, abs(ref_z)))
            worst = max(worst, err)
    if not worst <= SCORE_RTOL:
        ops = _fail_all(ops, f"score kernel rel err {worst:.3g} > {SCORE_RTOL}")
    return ops


# ---------------------------------------------------------------------------
# collapse_sweep

def load_sweep_reference() -> dict:
    return json.loads((HERE / "collapse_sweep_reference.json").read_text())


def check_sweep(out_dir: Path, seed: int) -> list[tuple[str, bool, str]]:
    want = {(round(r["beta"], 9), r["kind"]): r for r in load_sweep_reference()["rows"]}
    ops = []
    seen = set()
    for r in _read_rows(out_dir / "collapse_sweep.csv"):
        key = (round(float(r["beta"]), 9), r["method_or_activation"])
        t_c = float(r["t_C [backward time]"])
        ref = want.get(key)
        if ref is None:
            ops.append((f"beta={key[0]}:{key[1]}", False, "row not in reference"))
            continue
        tol = SWEEP_TOL_FACTOR * ref["gap"] + SWEEP_T_TOL
        ok = math.isfinite(t_c) and abs(t_c - ref["t_C"]) <= tol
        ops.append((f"beta={key[0]}:{key[1]}", ok,
                    f"t_C={t_c!r} ref={ref['t_C']!r} tol={tol:.3g}"))
        seen.add(key)
    for key in want.keys() - seen:
        ops.append((f"beta={key[0]}:{key[1]}", False, "row missing"))
    return ops


# ---------------------------------------------------------------------------
# memorization_crossing

def _direct_gap(samples: np.ndarray, t: float, xs: np.ndarray, planted: int = 0) -> float:
    """Mean (log Z1 - log Z2) / d over noise rows, via scipy logsumexp."""
    from scipy.special import logsumexp
    a, h = math.exp(-t), -math.expm1(-2.0 * t)
    mask = np.ones(samples.shape[0])
    mask[planted] = 0.0
    sq_s = np.einsum("ij,ij->i", samples, samples)
    gaps = []
    for chunk in np.array_split(xs, max(1, len(xs) // 25)):
        sq = (np.einsum("bj,bj->b", chunk, chunk)[:, None]
              - 2.0 * a * chunk @ samples.T + a * a * sq_s[None, :])
        lw = -sq / (2.0 * h)
        log_z2 = logsumexp(lw, axis=1, b=mask[None, :])
        gaps.append((lw[:, planted] - log_z2) / samples.shape[1])
    return float(np.concatenate(gaps).mean())


def check_crossing(out_dir: Path, seed: int) -> list[tuple[str, bool, str]]:
    from manifold_diffusion.model import sample_dataset

    rows = _read_rows(out_dir / "exp_collapse.csv")
    ops = _record_ops(rows)
    summary = json.loads((out_dir / "exp_collapse.json").read_text())
    ok = _is_number(summary.get("t_C_empirical")) and _is_number(summary.get("t_C_theory"))
    ops.append(("theory_and_sign_change", ok, f"summary={summary}"))

    # recompute sampled records: same data and noise stream as the CLI
    spec = CROSSING
    model = _model(spec, seed)
    ds = sample_dataset(model, crossing_n_data(), seed)
    noise = np.random.Generator(np.random.Philox(key=seed + 1))
    x1 = ds.ambient[0]
    picks = set(np.random.default_rng([seed, 11]).choice(len(rows), 3, replace=False))
    for k, r in enumerate(rows):
        t = float(r["t"])
        a, h = math.exp(-t), -math.expm1(-2.0 * t)
        xs = a * x1[None, :] + math.sqrt(h) * noise.standard_normal((spec["n_noise"], spec["d"]))
        if k not in picks:
            continue
        ref = _direct_gap(ds.ambient, t, xs)
        got = float(r["value"])
        if not abs(got - ref) <= GAP_ATOL:
            name, _, detail = ops[k]
            ops[k] = (name, False, f"{detail}; gap {got!r} vs direct {ref!r}")
    return ops


CHECKS = {"speciation_clones": check_speciation,
          "collapse_sweep": check_sweep,
          "memorization_crossing": check_crossing}
