"""Collapse-time curves t_C(beta) for several data manifolds.

Three routes to the memorization onset are compared at fixed sample-count
exponent alpha: the closed form for a linear isometric embedding, the
Marchenko-Pastur shortcut for a random Gaussian embedding, and the full
variational (sup-inf) solve for nonlinear activations.

Run:  python3 demos/collapse_sweep_demo.py
"""
import numpy as np

from manifold_diffusion import (TheoryParams, collapse_time_glm,
                                collapse_time_linear_isometry,
                                collapse_time_linear_rmt, make_activation)
from manifold_diffusion.collapse import SWEEP_SOLVER

alpha = 0.5
betas = np.linspace(0.1, 0.9, 5)
acts = {name: make_activation(name) for name in ("relu", "tanh", "sigmoid")}

print(f"collapse time t_C versus beta = p/d at alpha = {alpha}")
print(f"{'beta':>6} {'isometry':>10} {'gaussian F':>11} "
      + "".join(f"{n:>10}" for n in acts))
for beta in betas:
    iso = collapse_time_linear_isometry(alpha, beta)
    rmt = collapse_time_linear_rmt(alpha, beta).t_c
    row = [f"{beta:6.2f}", f"{iso:10.5f}", f"{rmt:11.5f}"]
    for act in acts.values():
        params = TheoryParams(1.0, 1.0, float(beta), act)
        # the quadrature and tolerance of `manifold-diffusion collapse-sweep`
        t_c = collapse_time_glm(params, alpha, **SWEEP_SOLVER).t_c
        row.append(f"{t_c:10.5f}")
    print(" ".join(row))

print("\nreadings: t_C grows with beta (higher-dimensional manifolds "
      "memorize earlier in the backward clock); the two linear ensembles "
      "agree closely at small beta where t_C itself is tiny; saturating "
      "activations compress the data and push the collapse later still.")
