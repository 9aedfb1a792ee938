"""The simplex QP behind the nonparametric predictive vector.

At one time step, the estimated conditional density is projected onto the
mixture of per-state emission densities: a quadratic program over the
probability simplex.  This script builds that QP from real data with the
package's public pieces, solves it by KKT active-set enumeration (its 2^M - 1
active sets are why the nonparametric filter takes at most
``simplex_qp.MAX_STATES`` states), checks the KKT optimality conditions and
compares the solution with the filter's own, run on the observations alone.
(Acceptance criterion 3 compares the solver with a lattice brute-force scan.)
"""
import numpy as np

from hmmar import (conditional_weights, embed, example_config, is_positive_definite,
                   product_integral, run_filters, simulate, solve_kkt, ucv_bandwidth)
from hmmar.kde import embedding_heads

config = example_config()
model, tau, l = config.model, config.tau, config.l
traj = simulate(model, n=600, burn_in=100, rng_seed=0)
h = ucv_bandwidth(embed(traj.x, d=tau + 1, l=l))

n = 550
p = model.ar_order
means = model.ar_means(traj.x[n - 1 - p:n - 1][::-1]).tolist()  # AR mean of x_n per state
b2 = model.b2.tolist()
M = model.M
beta = conditional_weights(traj.x, n, tau, l, h)  # kernel weights of the delay vectors
heads = embedding_heads(traj.x, n, tau, l)        # their last coordinates
print("C[i, j] = integral of f_i f_j = N(mean_i; mean_j, b_i^2 + b_j^2)")
print("c[m]    = sum_k beta_k N(head_k; mean_m, h^2 + b_m^2)")
C = np.array([[product_integral(means[i], b2[i], means[j], b2[j]) for j in range(M)]
              for i in range(M)])
c = np.array([sum(w * product_integral(y, h * h, means[m], b2[m])
                  for w, y in zip(beta.tolist(), heads.tolist())) for m in range(M)])
print(f"\nQP at step n={n} (h = {h:.4f}, {len(heads)} delay vectors):")
print("C =")
print(np.round(C, 4))
print("c =", np.round(c, 4))
print("C positive definite:", is_positive_definite(C))

sol = solve_kkt(C, c)
print("\nKKT solution u      =", np.round(sol.u, 6))
print("multipliers (lam)   =", np.round(sol.lam, 6))
print("objective u'Cu-2c'u =", f"{sol.u @ C @ sol.u - 2.0 * c @ sol.u:.8f}")
print("true state at n     =", traj.s[n - 1])

# KKT certificate: stationarity, complementary slackness, dual feasibility
stat = C @ sol.u - sol.lam[:-1] + sol.lam[-1] - c
print("\nstationarity residual    ", f"{np.max(np.abs(stat)):.2e}")
print("complementary slackness  ", f"{np.max(np.abs(sol.lam[:-1] * sol.u)):.2e}")
print("dual feasibility min lam ", f"{sol.lam[:-1].min():.2e}")

run = run_filters([traj.x], model, tau, l, eval_start=n, h=h, mode="nonparametric")[0]
gap = np.max(np.abs(run.nonparametric_predictive[0] - sol.u))
print(f"\nrun_filters' predictive at n: max |difference| = {gap:.1e}")
