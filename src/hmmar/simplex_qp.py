"""Quadratic minimization over the probability simplex.

Solves  min_u  u' C u - 2 c' u  subject to  u >= 0, sum(u) = 1  by a primal
active-set method (Nocedal & Wright, *Numerical Optimization*, 2nd ed.,
Alg. 16.3) in Python floats.  A face fixes u_i = 0 for its active coordinates
and lambda_i = 0 for the free ones; its equality-constrained QP is solved from
one Cholesky factor of C on the free coordinates.  From the uniform point the
method steps to the first bound that the face's minimizer lies beyond, or frees
the bound with the most negative multiplier, until a face's solution has
(numerically) nonnegative u and lambda.  For convex objectives (C positive
definite) that point is the global minimum.  Where a bound is weakly active
(u_i and lambda_i both near 0) more than one face passes; the first in the
order popcount, then bitmask, is returned, so the face is the one an
enumeration of all 2^M - 1 faces in that order would accept first.  A
projected-gradient fallback covers degenerate C; outside it no BLAS or LAPACK
routine runs, so the solve has the same bits on every CPU.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from math import fsum
from operator import getitem, mul
from typing import Optional

import numpy as np

_SYM_TOL = 1e-12
_U_FEAS_TOL = 1e-9
_LAMBDA_TOL = 1e-10
#: A bound is weakly active when u_i and lambda_i / scale both lie within this of 0.
_WEAK_TOL = 1e-6
_PG_MAX_ITER = 10_000
_PG_TOL = 1e-10
#: Most states solve_kkt takes, a rule of the config: at M = 12 a QP takes about 0.11 ms
#: (interior optimum) to 0.30 ms (vertex) on a 2-vCPU host; tests/qp_times.py prints each M.
MAX_STATES = 12


@dataclass(eq=False)
class SimplexPoint:
    """A point of the probability simplex, with optional KKT certificate.

    ``lam`` holds (lambda_1, ..., lambda_M, lambda_eq) when the point came
    out of the active-set solve; ``fallback`` marks results produced by the
    projected-gradient safety net instead.
    """

    u: np.ndarray
    lam: Optional[np.ndarray] = None
    fallback: bool = False

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim != 1 or not self.u.size:
            raise ValueError(f"u must be a non-empty vector, got shape {self.u.shape}")
        values = self.u.tolist()
        if not all(v >= -1e-12 for v in values):
            raise ValueError(f"u has negative or NaN entries: min = {self.u.min():.3e}")
        total = sum(values)
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"u must sum to 1 within 1e-10, got {total!r}")


def _factor(rows: list, c: list, free: list, floor: float, L: list, y1: list,
            y2: list) -> bool:
    """Extend ``L``, the lower Cholesky factor of C on the coordinates ``free`` (row k holds
    k + 1 Python floats), ``y1`` = L^-1 c_F and ``y2`` = L^-1 1 from row len(L) on; False
    once a squared pivot is not above ``floor``.  Row k reads only free[:k + 1], so faces
    whose first k free coordinates agree share k rows."""
    for i in free[len(L):]:
        row, Li = rows[i], []
        for j, Lj in zip(free, L):
            Li.append((row[j] - fsum(map(mul, Li, Lj))) / Lj[-1])
        d = row[i] - fsum(map(mul, Li, Li))
        if not d > floor:
            return False
        d = math.sqrt(d)
        y1.append((c[i] - fsum(map(mul, Li, y1))) / d)
        y2.append((1.0 - fsum(map(mul, Li, y2))) / d)
        Li.append(d)
        L.append(Li)
    return True


def _factor_all(rows: list, c: list, L: list, y1: list, y2: list) -> bool:
    """:func:`_factor` of all of C with every squared pivot above 1e-12 max(1, max_i C[i, i]),
    a floor that scales with C as rounding's leftovers do: the definiteness test."""
    floor = 1e-12 * max(1.0, *map(getitem, rows, range(len(rows))))
    return _factor(rows, c, list(range(len(rows))), floor, L, y1, y2)


def is_positive_definite(C: np.ndarray) -> bool:
    """True iff the symmetric matrix C passes :func:`solve_kkt`'s definiteness test: a
    Cholesky factor with every squared pivot above 1e-12 max(1, max_i C[i, i])."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        return False
    return _factor_all(C.tolist(), [0.0] * C.shape[0], [], [], [])


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
def _table_order(bits: int) -> tuple:
    """The subsets of the bitmask ``bits`` in the order faces are ranked: popcount, then
    value.  Bit i set means u_i = 0; for ``bits`` = 2^M - 1 this is every face of M states."""
    subsets = [s for s in range(bits + 1) if not s & ~bits]
    return tuple(sorted(subsets, key=lambda s: (s.bit_count(), s)))


def solve_kkt(C: np.ndarray, c: np.ndarray) -> SimplexPoint:
    """Global minimizer of u' C u - 2 c' u over the simplex by a primal active-set method.

    ``C`` must be a finite symmetric M x M matrix (1 <= M <= :data:`MAX_STATES`) and ``c``
    a finite length-M vector.  The returned face (the coordinates with u_i = 0 and a
    multiplier lambda_i) is the first, in :func:`_table_order`, whose solution has
    (numerically) nonnegative u and lambda (for M = 1 the one face gives u = [1]).  If C
    fails the positive-definiteness test, a face's factor has a non-positive pivot, a
    face's residual is above 1e-8 times the scale of C and c, or the method does not
    stop within ``4 M + 4`` faces, the projected-gradient fallback is used and flagged.
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

    L, y1, y2 = [], [], []
    if _factor_all(rows, c_list, L, y1, y2):
        face = _active_set(rows, c_list, max(1.0, max(flat), -min(flat)), L, y1, y2)
        if face is not None:
            # v > 0.0 clips -0.0 to 0.0, as np.maximum(v, 0.0) does; max(v, 0.0) would not
            u = [v if v > 0.0 else 0.0 for v in face[0]]
            total = fsum(u)
            return SimplexPoint(u=[v / total for v in u], lam=np.array(face[1]), fallback=False)
    u = _projected_gradient(C, c)
    return SimplexPoint(u=u / u.sum(), lam=None, fallback=True)


def _face_point(L: list, y1: list, y2: list) -> tuple:
    """``(u_F, lambda_eq)`` of a face, from :func:`_factor`'s ``L``, ``y1`` and ``y2`` for
    its free coordinates; u_F is in the order of those coordinates.

    lambda_eq = (y1.y2 - 1) / y2.y2 is (sum z1 - 1) / sum z2 for z1 = C_FF^-1 c_F and
    z2 = C_FF^-1 1, and u_F = L'^-1 (y1 - lambda_eq y2) is z1 - lambda_eq z2.
    """
    lam_eq = (fsum(map(mul, y1, y2)) - 1.0) / fsum(map(mul, y2, y2))
    w = [a - lam_eq * b for a, b in zip(y1, y2)]
    for k in range(len(w) - 1, -1, -1):  # row k of L is column k of L'
        Lk = L[k]
        wk = w[k] = w[k] / Lk[k]
        for j in range(k):
            w[j] -= Lk[j] * wk
    return w, lam_eq


def _certificate(rows: list, c: list, free: list, u_free: list, lam_eq: float) -> tuple:
    """``(u, lam, residual)`` of a face's point: u full length, 0.0 on the active
    coordinates; lam holds lambda_i = (C u)_i + lambda_eq - c_i on the active ones, 0.0 on
    the free ones, then lambda_eq; the residual is the largest of |sum(u) - 1| and the free
    rows' |(C u)_i + lambda_eq - c_i|."""
    u = [0.0] * len(c)
    for i, v in zip(free, u_free):
        u[i] = v
    lam = [fsum(map(mul, row, u)) + lam_eq - ci for row, ci in zip(rows, c)]
    residual = max(abs(fsum(u_free) - 1.0), *[abs(lam[i]) for i in free])
    for i in free:
        lam[i] = 0.0
    lam.append(lam_eq)
    return u, lam, residual


def _active_set(rows: list, c: list, scale: float, L: list, y1: list,
                y2: list) -> Optional[tuple]:
    """``(u, lam)`` of the first face in :func:`_table_order` whose point passes the sign
    tests, found by the primal active-set method from the uniform point; None for the
    fallback.  ``L``, ``y1`` and ``y2`` are :func:`_factor`'s lists for all of C."""
    M = len(c)
    free, x = list(range(M)), [1.0 / M] * M  # x: the method's point on the free coordinates
    for _ in range(4 * M + 4):
        u_free, lam_eq = _face_point(L, y1, y2)
        if min(u_free) < -_U_FEAS_TOL:
            # step from x towards u up to the first bound it would cross; that bound joins
            alpha, k = min((a / (a - v), k) for k, (a, v) in enumerate(zip(x, u_free)) if v < 0.0)
            x = [max(a + alpha * (v - a), 0.0) for a, v in zip(x, u_free)]
            del free[k], x[k], L[k:], y1[k:], y2[k:]
        else:
            u, lam, residual = _certificate(rows, c, free, u_free, lam_eq)
            if not residual <= 1e-8 * scale:  # NaN fails it too
                return None
            worst, j = min(zip(lam, range(M)))
            if worst >= -_LAMBDA_TOL:
                return _first_in_table_order(rows, c, scale, free, u, lam)
            # x is this face's minimizer: free the bound with the most negative multiplier
            k = sum(i < j for i in free)
            x = [max(v, 0.0) for v in u_free]
            free.insert(k, j)
            x.insert(k, 0.0)
            del L[k:], y1[k:], y2[k:]
        if not _factor(rows, c, free, 0.0, L, y1, y2):
            return None
    return None


def _first_in_table_order(rows: list, c: list, scale: float, free: list, u: list,
                          lam: list) -> tuple:
    """The first face in :func:`_table_order` that passes, among those that differ from the
    passing face only in its weakly active bounds: a free u_i or an active lambda_i / scale
    within _WEAK_TOL of 0.  Where several faces pass, the table decides, as in an
    enumeration of every face; a face is the bitmask of its active coordinates."""
    # u_i is 0.0 where bound i is active and lambda_i is 0.0 where it is free
    weak = [i for i, (v, m) in enumerate(zip(u, lam)) if v <= _WEAK_TOL and m <= _WEAK_TOL * scale]
    if not weak:
        return u, lam
    M = len(c)
    active = (1 << M) - 1 - sum(1 << i for i in free)
    weak = sum(1 << i for i in weak)
    for sub in _table_order(weak):
        face = active & ~weak | sub
        if face == active:
            break
        free, L, y1, y2 = [i for i in range(M) if not face >> i & 1], [], [], []
        if free and _factor(rows, c, free, 0.0, L, y1, y2):
            u_free, lam_eq = _face_point(L, y1, y2)
            if min(u_free) >= -_U_FEAS_TOL:
                other, other_lam, residual = _certificate(rows, c, free, u_free, lam_eq)
                if residual <= 1e-8 * scale and min(other_lam[:-1]) >= -_LAMBDA_TOL:
                    return other, other_lam
    return u, lam
