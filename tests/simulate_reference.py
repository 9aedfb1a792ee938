"""Reference form of ``hmmar.model.simulate``: numpy indexing at every step.

``simulate`` must reproduce :func:`reference_simulate` bit for bit; it reads the
per-state parameters, the uniforms and the noise as Python floats and draws the
scaled noise in one product, which must not move a byte of any trajectory.  Both
sum the AR terms one scalar operation at a time in lag order, which rounds the
same on every BLAS kernel and CPU dispatch path.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from hmmar.model import SwitchingArModel, Trajectory


def reference_simulate(model: SwitchingArModel, n: int, burn_in: int = 100,
                       rng_seed: int = 0) -> Trajectory:
    """Trajectory of ``n`` pairs from the same two seed sub-streams as ``simulate``."""
    chain_seq, noise_seq = np.random.SeedSequence(rng_seed).spawn(2)
    rng_chain = np.random.default_rng(chain_seq)
    rng_noise = np.random.default_rng(noise_seq)

    p = model.ar_order
    total = burn_in + n
    cum_rows = np.cumsum(model.transition.p, axis=1)
    cum_rows[:, -1] = np.maximum(cum_rows[:, -1], 1.0)
    cum_init = np.cumsum(model.stationary)
    cum_init[-1] = max(cum_init[-1], 1.0)
    rows = cum_rows.tolist()
    u = rng_chain.random(total)
    state = bisect_right(cum_init.tolist(), u[0])
    chain = [state]
    for u_k in u[1:]:
        state = bisect_right(rows[state], u_k)
        chain.append(state)
    s = np.array(chain)

    mu, a, b = model.mu, model.a, model.b
    xi = rng_noise.standard_normal(total)

    x = np.empty(p + total)
    x[:p] = mu[s[0]]
    for k in range(total):
        m, dot = s[k], 0.0
        for i in range(p):  # a_i (x[n-1-i] - mu), lag x[n-1] first
            dot += a[m, i] * (x[p + k - 1 - i] - mu[m])
        x[p + k] = mu[m] + dot + b[m] * xi[k]

    return Trajectory(s=s[burn_in:] + 1, x=x[p + burn_in:])
