"""One benchmark process: import the package, run one workload, check it.

    python3 perfbench/child.py setup
    python3 perfbench/child.py run WORKLOAD SEED OUT_DIR [--trace]

Prints one JSON object.  `ready` is CLOCK_MONOTONIC when the package was
imported, so the parent can time process start to ready.  `run` times one
`manifold_diffusion.cli.main` call, reads this process's peak RSS right
after it, and then checks the outputs (outside the timed region and with
tracing removed).
"""
from __future__ import annotations

import time
import sys


def _emit(payload: dict) -> None:
    import json
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _context() -> dict:
    import os
    import platform
    from pathlib import Path

    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    root = Path(__file__).resolve().parent.parent
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "commit": commit,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "cores": len(os.sched_getaffinity(0))}


def _gemm_gflops(reps: int = 7) -> float:
    """Same-run GEMM rate at the clone kernel's shape (1000 x 64 x 4096)."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1000, 64))
    b = rng.standard_normal((64, 4096))
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        dt = time.perf_counter() - t0
        rates.append(2.0 * a.shape[0] * a.shape[1] * b.shape[1] / dt / 1e9)
    return sorted(rates)[reps // 2]


def run(workload: str, seed: int, out_dir: str, traced: bool) -> dict:
    import contextlib
    import io
    import resource
    import traceback
    from pathlib import Path

    from manifold_diffusion import cli

    import workloads

    out = Path(out_dir)
    argv = workloads.argv(workload, seed, out)
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    stdout = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
    except Exception:
        rc, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    ops = None
    if rc == 0:
        try:
            ops = workloads.CHECKS[workload](out, seed)
        except Exception:
            error = traceback.format_exc()
    result = {"rc": rc, "error": error, "wall_s": wall, "peak_rss_mb": peak_rss_mb,
              "ops": ops, "expected_ops": workloads.expected_ops(workload)}
    if tracer is not None:
        written = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        result["trace"] = {"spans": tracer.summary(), "counters": dict(tracer.counters),
                           "coverage": tracer.coverage(),
                           "output_bytes": written + len(stdout.getvalue().encode())}
        result["gemm_gflops"] = _gemm_gflops()
    result["context"] = _context()
    return result


def main(argv: list[str]) -> int:
    import manifold_diffusion.cli  # noqa: F401  (set-up ends here)
    ready = time.monotonic()
    payload = {"ready": ready}
    if argv[0] == "run":
        payload.update(run(argv[1], int(argv[2]), argv[3], "--trace" in argv[4:]))
    _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
