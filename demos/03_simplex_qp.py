"""The simplex QP behind the nonparametric predictive vector.

At one time step, the estimated conditional density is projected onto the
mixture of per-state emission densities: a quadratic program over the
probability simplex.  This script builds that QP from real data, solves it
by KKT active-set enumeration, and checks the KKT optimality conditions.
(Acceptance criterion 3 compares the solver with a lattice brute-force scan.)
"""
import numpy as np

from hmmar import (example_config, is_positive_definite, simulate, solve_kkt,
                   ucv_bandwidth, embed)
from hmmar.filters import emission_mixture_problem

config = example_config()
traj = simulate(config.model, n=600, burn_in=100, rng_seed=0)
h = ucv_bandwidth(embed(traj.x, d=config.tau + 1, l=config.l)).h

n = 550
C, c = emission_mixture_problem(traj.x, n, config.model, tau=config.tau, l=config.l, h=h)
print(f"QP at step n={n}:")
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
