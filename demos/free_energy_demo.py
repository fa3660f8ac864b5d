"""Free-energy landscape of the noisy-manifold observation channel.

The collapse condition balances the sample-count exponent alpha against
the Bayes-optimal free energy f*(t) of observing x = a_t phi(F xi/sqrt(p))
+ sqrt(h_t) z.  This script tabulates the sup-inf solution (overlap q*,
conjugate r*, value f*) along t, then cross-checks one point against a
direct Monte-Carlo estimate of the log-density expectation.

Run:  python3 demos/free_energy_demo.py
"""
import numpy as np

from manifold_diffusion import (TheoryParams, f_star, free_energy_mc,
                                make_activation, make_model)

params = TheoryParams(m=1.0, rho=1.0, beta=0.5,
                      activation=make_activation("linear"))
print("sup-inf free energy along the backward clock (linear channel):")
print(f"{'t':>6} {'q*':>8} {'r*':>10} {'f*':>10}")
for t in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0):
    res = f_star(t, params)
    print(f"{t:6.2f} {res.q_star:8.4f} {res.r_star:10.4f} {res.f_star:10.4f}")
print("the optimal overlap q* decays with t: the noisier the channel, the "
      "less the observation reveals about the latent point.")

model = make_model(d=16, p=8, ensemble="gaussian_iid", seed=4)
t = 0.5
rec = free_energy_mc(model, t, n_x=60, n_latent=100_000, seed=12)
mis = free_energy_mc(model, t, n_x=60, n_latent=100_000, seed=12,
                     mismatched=True)

# for a linear activation the ambient law is Gaussian with known covariance
from manifold_diffusion import schedule
sch = schedule(t)
F = model.embedding.entries
sigma = sch.a**2 * F @ F.T / model.p + sch.h * np.eye(model.d)
exact = -0.5 * np.log(2 * np.pi) - np.linalg.slogdet(sigma)[1] / (2 * model.d) - 0.5

print(f"\nMonte-Carlo cross-check at t = {t} (d=16, p=8, gaussian F):")
print(f"  exact Gaussian value: {exact:.4f}")
print(f"  matched prior:        {rec.value:.4f} +- {rec.stderr:.4f}")
print(f"  mismatched prior:     {mis.value:.4f} +- {mis.stderr:.4f}")
print("the matched estimate brackets the exact value; flipping the cluster "
      "prior costs a Kullback-Leibler gap, visible as the lower mismatched "
      "value.")
