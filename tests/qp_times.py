"""Time ``solve_kkt`` per QP for M = 1 .. MAX_STATES states, one line per M.

    PYTHONPATH=src python tests/qp_times.py [QPS] [PASSES]

For each M it draws QPS problems (default 200) of each of two families from a fixed
seed: C = A A' + 0.1 I with A standard normal, and c such that the optimum is interior
(c = C u0 + lambda_eq, u0 drawn from a flat Dirichlet law) or a vertex (c = C e_j - lambda
+ lambda_eq, lambda_j = 0 and the other lambda_i in [0.01, 1]).  It times ``solve_kkt``
over each family PASSES times (default 3), serially in this process, and prints the least
mean microseconds per QP of each family and the number of fallbacks (0 on these families).
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

import numpy as np

from hmmar.simplex_qp import MAX_STATES, solve_kkt


def families(M: int, qps: int) -> dict[str, list]:
    """``{family: [(C, c), ...]}`` with ``qps`` problems each, drawn from seed M."""
    rng = np.random.default_rng(M)
    out = {"interior": [], "vertex": []}
    for _ in range(qps):
        A = rng.normal(size=(M, M))
        C = A @ A.T + 0.1 * np.eye(M)
        out["interior"].append((C, C @ rng.dirichlet(np.ones(M)) + rng.normal()))
        j = int(rng.integers(M))
        lam = rng.uniform(0.01, 1.0, size=M)
        lam[j] = 0.0
        out["vertex"].append((C, C[:, j] - lam + rng.normal()))
    return out


def time_family(problems: list, passes: int) -> tuple[float, int]:
    """Least mean microseconds per QP over ``passes`` passes, and the fallbacks of one."""
    best, fallbacks = float("inf"), 0
    for _ in range(passes):
        start = perf_counter()
        sols = [solve_kkt(C, c) for C, c in problems]
        best = min(best, (perf_counter() - start) / len(problems) * 1e6)
        fallbacks = sum(sol.fallback for sol in sols)
    return best, fallbacks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("qps", nargs="?", type=int, default=200,
                        help="problems per family and M (default 200)")
    parser.add_argument("passes", nargs="?", type=int, default=3, help="passes (default 3)")
    args = parser.parse_args(argv)
    if args.qps < 1 or args.passes < 1:
        parser.error(f"qps and passes must be >= 1, got {args.qps} and {args.passes}")
    print(f"{'M':>3}{'interior_us':>13}{'vertex_us':>11}{'fallbacks':>11}"
          f"   {args.qps} QPs per family, least of {args.passes} passes")
    for M in range(1, MAX_STATES + 1):
        (inner, f1), (vertex, f2) = (time_family(problems, args.passes)
                                     for problems in families(M, args.qps).values())
        print(f"{M:>3}{inner:>13.1f}{vertex:>11.1f}{f1 + f2:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
