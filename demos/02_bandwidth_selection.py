"""Bandwidth selection for the kernel conditional-density estimate.

Delay-embeds an observed series in dimension tau + 1, sweeps the unbiased
cross-validation score over a bandwidth grid, and compares the minimizer
found by the bracketed Brent search with the oversmoothed upper bound
h_plus.
"""
import numpy as np

from hmmar import (embed, example_config, oversmoothed_bandwidth, simulate,
                   ucv_bandwidth, ucv_objective)

config = example_config()
traj = simulate(config.model, n=600, burn_in=100, rng_seed=0)

tau = config.tau
sample = embed(traj.x, d=tau + 1, l=config.l)
print(f"embedded {len(traj)} observations into N={sample.N} vectors of dimension {sample.d}")

h_plus = oversmoothed_bandwidth(sample)
h_ucv = ucv_bandwidth(sample)
print(f"oversmoothed bound h+  = {h_plus:.5f}")
print(f"UCV-selected bandwidth = {h_ucv:.5f}")

print("\nUCV score along a log grid")
print("(the score blows up as h -> 0, which is why the search is bracketed):")
grid = np.geomspace(0.02 * h_plus, h_plus, 16)
scores = [ucv_objective(sample, h) for h in grid]
closest = int(np.argmin(np.abs(np.log(grid) - np.log(h_ucv))))
for i, (h, s) in enumerate(zip(grid, scores)):
    mark = "  <-- selected" if i == closest else ""
    print(f"  h={h:8.5f}  UCV={s:+10.4f}{mark}")
