"""Speciation walkthrough: when do backward trajectories pick a class?

The two-cluster structure becomes visible to the reverse dynamics at the
moment the reduced potential V(q, t) stops being convex at the origin.
This script prints that story in three acts: the theory times, the shape
of the potential, and a reduced-SDE ensemble committing to the two wells.

Run:  python3 demos/speciation_demo.py
"""
import numpy as np

from manifold_diffusion import (GammaFunctions, gamma0_rows, gep_constants,
                                make_model, potential,
                                potential_curvature_at_zero,
                                reduced_sde_simulate, speciation_time_asymptotic,
                                speciation_time_finite)

model = make_model(d=64, p=32, m=1.0, activation="linear")
gf = GammaFunctions(model.activation, model.rho)
gep = gep_constants(gf)

rows = gamma0_rows(model, gf)
s = float(rows @ rows)
t_s = speciation_time_finite(s)
t_s_asy = speciation_time_asymptotic(model.beta, model.d,
                                     model.mu_tilde_norm_sq, gep,
                                     ensemble=model.embedding.ensemble)
print(f"model: d={model.d}, p={model.p}, m={model.m}, linear activation")
print(f"signal strength S = sum_j Gamma0(lambda_j)^2 = {s:.3f}")
print(f"speciation time (finite-d formula):  t_S = {t_s:.4f}")
print(f"speciation time (asymptotic formula): t_S = {t_s_asy:.4f}")

print("\npotential curvature at the origin, 1 - 2 e^{-2t} S:")
for t in (t_s + 0.5, t_s, t_s - 0.5):
    curv = potential_curvature_at_zero(t, s)
    shape = ("flat" if abs(curv) < 1e-9
             else "single well" if curv > 0 else "double well")
    print(f"  t = {t:5.2f}: curvature {curv:+8.3f}  ({shape})")

print("\npotential values V(q, t) on a coarse q grid:")
qs = np.array([0.0, 2.0, 4.0, 8.0, 12.0])
header = "  t \\ q " + "".join(f"{q:>9.1f}" for q in qs)
print(header)
for t in (t_s + 0.5, t_s, t_s - 0.5):
    row = "".join(f"{potential(q, t, s):9.2f}" for q in qs)
    print(f"  {t:5.2f} {row}")

print("\nreduced-SDE ensemble (400 trajectories from q = 0):")
times, paths = reduced_sde_simulate(t_s + 1.0, 0.3, 0.01, s,
                                    n_traj=400, seed=7)
for target in (t_s + 0.5, t_s, t_s - 0.5, t_s - 1.0, 0.3):
    k = int(np.argmin(np.abs(times - target)))
    q = paths[k]
    frac = ((q > 0).mean())
    print(f"  t = {times[k]:5.2f}: mean |q| = {np.abs(q).mean():7.2f}, "
          f"fraction in + well = {frac:.2f}")
print("\nthe ensemble stays near the origin above t_S and splits evenly "
      "into the two wells below it; commitment completes roughly one unit "
      "of time after the curvature flips, because the instability needs "
      "time to amplify.")
