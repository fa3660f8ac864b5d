"""In-memory span tracer patched around the package's layer entry points.

Spans are recorded from outside the package: each traced function is
replaced, in every `manifold_diffusion` module that binds it, by a wrapper
that records (name, start, end, parent, error).  A layer's self time is its
span time minus the time of its child spans.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _kernel_shape(args):
    """(B, n, d) of an EmpiricalScore call: B points against n samples."""
    score, x = args[0], args[1]
    n, d = score.samples.shape
    b = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
    return b, n, d


def _on_score(tracer, args, kwargs):
    b, n, d = _kernel_shape(args)
    tracer.counters["diffusion.score.flops"] += 4.0 * b * n * d


def _on_log_weights(tracer, args, kwargs):
    b, n, d = _kernel_shape(args)
    tracer.counters["diffusion.log_weights.flops"] += 2.0 * b * n * d
    tracer.counters["diffusion.log_weights.matrix_bytes"] += 8.0 * b * n


def _on_sample_dataset(tracer, args, kwargs):
    n = kwargs["n"] if "n" in kwargs else args[1]
    tracer.counters["model.sample_dataset.rows"] += int(n)


# (span name, module, attribute, class or None, per-call counter hook)
TARGETS = [
    ("cli.main", "manifold_diffusion.cli", "main", None, None),
    ("experiments.speciation_experiment", "manifold_diffusion.experiments",
     "speciation_experiment", None, None),
    ("experiments.collapse_crossing_experiment", "manifold_diffusion.experiments",
     "collapse_crossing_experiment", None, None),
    ("diffusion.score", "manifold_diffusion.diffusion", "__call__", "EmpiricalScore",
     _on_score),
    ("diffusion.log_weights", "manifold_diffusion.diffusion", "log_weights",
     "EmpiricalScore", _on_log_weights),
    ("collapse.collapse_time_glm", "manifold_diffusion.collapse", "collapse_time_glm",
     None, None),
    ("collapse.f_star", "manifold_diffusion.collapse", "f_star", None, None),
    ("collapse.psi_big", "manifold_diffusion.collapse", "psi_big", None, None),
    ("quadrature.std_normal_grid", "manifold_diffusion.quadrature", "std_normal_grid",
     None, None),
    ("model.sample_dataset", "manifold_diffusion.model", "sample_dataset", None,
     _on_sample_dataset),
    ("speciation.GammaFunctions", "manifold_diffusion.speciation", "__init__",
     "GammaFunctions", None),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, error type or None]
        self.counters = defaultdict(float)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            if hook is not None:
                hook(self, args, kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx][4] = type(exc).__name__
                raise
            finally:
                spans[idx][1], spans[idx][2] = t0, time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every binding of each target in the loaded package modules."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "manifold_diffusion"
                                         or k.startswith("manifold_diffusion."))]
        for name, mod_name, attr, cls_name, hook in TARGETS:
            owner = sys.modules[mod_name]
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, original, hook))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, durations, errors."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {}
        for (name, t0, t1, parent, err), kids in zip(self.spans, child_time):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "durations": [], "errors": {}})
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - kids
            s["durations"].append(t1 - t0)
            if err is not None:
                s["errors"][err] = s["errors"].get(err, 0) + 1
        return out

    def coverage(self) -> float:
        """Share of the cli.main span covered by its direct child spans."""
        roots = [i for i, s in enumerate(self.spans) if s[0] == "cli.main"]
        total = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        covered = sum(s[2] - s[1] for s in self.spans if s[3] in roots)
        return covered / total if total > 0 else 0.0
