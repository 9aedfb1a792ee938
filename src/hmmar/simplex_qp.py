"""Quadratic minimization over the probability simplex.

Solves  min_u  u' C u - 2 c' u  subject to  u >= 0, sum(u) = 1  by
enumerating the assignments of which member of each pair (u_i, lambda_i)
vanishes, solving the reduced (M+1) x (M+1) stationarity systems of all of
them in one stacked solve, and taking the first feasible one.  For convex
objectives (C positive definite) any feasible KKT point is the global
minimum, so the first feasible one is the answer.  A projected-gradient
fallback covers degenerate C.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

_SYM_TOL = 1e-12
_U_FEAS_TOL = 1e-9
_LAMBDA_TOL = 1e-10
_PG_MAX_ITER = 10_000
_PG_TOL = 1e-10
#: Most states solve_kkt takes: each state doubles its table of 2^M - 1 systems, time and memory.
MAX_STATES = 12


@dataclass(eq=False)
class SimplexPoint:
    """A point of the probability simplex, with optional KKT certificate.

    ``lam`` holds (lambda_1, ..., lambda_M, lambda_eq) when the point came
    out of the KKT enumeration; ``fallback`` marks results produced by the
    projected-gradient safety net instead.
    """

    u: np.ndarray
    lam: Optional[np.ndarray] = None
    fallback: bool = False

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim != 1 or not self.u.size:
            raise ValueError(f"u must be a non-empty vector, got shape {self.u.shape}")
        if not self.u.min() >= -1e-12:
            raise ValueError(f"u has negative or NaN entries: min = {self.u.min():.3e}")
        total = self.u.sum()
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"u must sum to 1 within 1e-10, got {total!r}")


def is_positive_definite(C: np.ndarray) -> bool:
    """True iff the symmetric matrix C has a Cholesky factor with every squared pivot above
    1e-12 max(1, max_i C[i, i]), a floor that scales with C as rounding's leftovers do."""
    C = np.asarray(C, dtype=float)
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        return False
    floor = 1e-12 * max(1.0, *C.diagonal().tolist())
    return all(d * d > floor for d in L.diagonal().tolist())


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.shape[0] + 1)
    rho = np.nonzero(u + (1.0 - css) / j > 0.0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def _projected_gradient(C: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Projected-gradient descent from the uniform point.

    Step 1 / (2 ||C||_inf); stops when the gradient-mapping norm drops
    below ``_PG_TOL`` or after ``_PG_MAX_ITER`` steps.
    """
    M = c.shape[0]
    norm = float(np.abs(C).sum(axis=1).max())
    step = 1.0 / (2.0 * norm) if norm > 0.0 else 1.0
    u = np.full(M, 1.0 / M)
    for _ in range(_PG_MAX_ITER):
        grad = 2.0 * (C @ u - c)
        nxt = _project_simplex(u - step * grad)
        if np.linalg.norm(u - nxt) / step < _PG_TOL:
            u = nxt
            break
        u = nxt
    return u


@functools.cache
def _active_set_table(M: int) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """Per-M constants of the reduced KKT systems, one row k per active set.

    ``active[k][i]`` holds u_i = 0 (lambda_i is the unknown).  Rows follow
    the order sets are tried: popcount, then bitmask value.  The all-active
    set is left out; its sum(u) = 1 row is zero.  ``takes_c[k, 0, i]`` is
    ``not active[k][i]``: the columns of system k that hold C[:, i].
    ``floor[k, i, 0]`` is the lowest feasible value of unknown i (-inf for
    lambda_eq, which has no sign).  ``base[k]`` is system k less C: column i
    is (-e_i, 0) if active, else (0, 1) with C[:, i] filled in; the last
    column (lambda_eq) is (1, ..., 1, 0).
    """
    masks = sorted(range((1 << M) - 1), key=lambda m: (m.bit_count(), m))
    active = (np.array(masks)[:, None] >> np.arange(M)) & 1 == 1
    takes_c = ~active[:, None, :]
    floor = np.where(active, -_LAMBDA_TOL, -_U_FEAS_TOL)
    floor = np.concatenate([floor, np.full((len(masks), 1), -np.inf)], axis=1)[:, :, None]
    base = np.zeros((len(masks), M + 1, M + 1))
    base[:, :M, :M] = np.where(active[:, None, :], -np.eye(M), 0.0)
    base[:, M, :M] = ~active
    base[:, :M, M] = 1.0
    for table in (takes_c, floor, base):
        table.setflags(write=False)
    return active.tolist(), takes_c, floor, base


def solve_kkt(C: np.ndarray, c: np.ndarray) -> SimplexPoint:
    """Global minimizer of u' C u - 2 c' u over the simplex by KKT enumeration.

    ``C`` must be a finite symmetric M x M matrix (1 <= M <= :data:`MAX_STATES`) and ``c``
    a finite length-M vector.  Each active set (see :func:`_active_set_table`) fixes
    u_i = 0 for its flagged coordinates and lambda_i = 0 for the rest; the
    first whose solution has (numerically) nonnegative u and lambda is returned
    (for M = 1 the one system, [[C00, 1], [1, 0]], gives u = [1]).  If C fails the
    positive-definiteness test, no active set is feasible, or a reduced system
    is exactly singular, the projected-gradient fallback is used and flagged.
    """
    C = np.asarray(C, dtype=float)
    c = np.asarray(c, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"C must be square, got shape {C.shape}")
    M = C.shape[0]
    if c.shape != (M,):
        raise ValueError(f"c must have length {M}, got shape {c.shape}")
    if M < 1:
        raise ValueError(f"need at least 1 state, got M = {M}")
    if M > MAX_STATES:
        raise ValueError(f"need at most {MAX_STATES} states, got M = {M}")
    rows, c_list = C.tolist(), c.tolist()
    flat = [*c_list, *chain.from_iterable(rows)]
    if not all(map(math.isfinite, flat)):
        raise ValueError("C and c must be finite")
    asym = max((abs(rows[i][j] - rows[j][i]) for i in range(M) for j in range(i)), default=0.0)
    if asym > _SYM_TOL:
        raise ValueError(f"C must be symmetric within {_SYM_TOL:g}; max asymmetry {asym:.3e}")

    if is_positive_definite(C):
        sol = _enumerate_kkt(C, c_list, max(1.0, *map(abs, flat)))
        if sol is not None:
            return sol
    u = _projected_gradient(C, c)
    return SimplexPoint(u=u / u.sum(), lam=None, fallback=True)


def _enumerate_kkt(C: np.ndarray, c: list, scale: float) -> Optional[SimplexPoint]:
    M = len(c)
    active, takes_c, floor, base = _active_set_table(M)
    A = base.copy()
    np.copyto(A[:, :M, :M], C, where=takes_c)
    rhs = np.array([*c, 1.0])
    try:
        x = np.linalg.solve(A, rhs[:, None])
    except np.linalg.LinAlgError:
        return None
    # NaN fails every comparison; a row holding +-inf is skipped before the residual
    for k in (x >= floor).all(axis=(1, 2)).nonzero()[0].tolist():
        r = x[k, :, 0].tolist()
        # a large residual marks a nearly singular system solved to garbage
        if all(map(math.isfinite, r)) and np.abs(
                np.add.reduce(A[k] * x[k, :, 0], axis=-1) - rhs).max() <= 1e-8 * scale:
            # v > 0.0 clips -0.0 to 0.0, as np.maximum(v, 0.0) does; max(v, 0.0) would not
            u = np.array([v if v > 0.0 and not a else 0.0 for a, v in zip(active[k], r)])
            lam = np.array([v if a else 0.0 for a, v in zip(active[k], r)] + [r[M]])
            return SimplexPoint(u=u / u.sum(), lam=lam, fallback=False)
    return None
