"""Memorization onset: planted term versus bulk of the kernel partition sum.

Noise x around the forward trajectory of training sample x_1 is scored
against the whole training set, which is drawn block by block in one pass
and never stored.  Above the collapse time the other samples
collectively dominate the partition sum (generalization); below it the
planted sample wins (memorization).  The measured sign change of
(log Z_1 - log Z_2)/d is compared with the closed-form prediction.

Run:  python3 demos/memorization_demo.py   (a few seconds)
"""
import numpy as np

from manifold_diffusion import (SampleStream, collapse_crossing_experiment,
                                collapse_time_linear_isometry, make_model,
                                sample_count, threshold_crossing)

d, p, alpha = 40, 20, 0.25
model = make_model(d=d, p=p)
n = sample_count(alpha, d)
training_set = SampleStream(model, n, seed=0)
print(f"model: d={d}, p={p}, alpha={alpha}  ->  n = e^(alpha d) = {n} samples")

t_grid = np.linspace(0.6, 0.05, 12)
records = collapse_crossing_experiment(model, training_set, t_grid, n_noise=200, seed=1)
print(f"\n{'t':>6} {'(log Z1 - log Z2)/d':>21} {'stderr':>9}")
for r in records:
    print(f"{r.t:6.3f} {r.value:21.4f} {r.stderr:9.4f}")

t_emp, status = threshold_crossing(records, 0.0)
t_theory = collapse_time_linear_isometry(alpha, model.beta)
if t_emp is None:
    print(f"\nno sign change on the grid ({status}): widen the grid")
else:
    print(f"\nempirical sign change: t = {t_emp:.4f}")
print(f"closed-form collapse time: t_C = {t_theory:.4f}")
print("below the crossing, a trajectory started near x_1 falls back onto "
      "x_1 itself instead of generating a fresh sample.")
