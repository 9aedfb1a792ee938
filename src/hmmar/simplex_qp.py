"""Quadratic minimization over the probability simplex.

Solves  min_u  u' C u - 2 c' u  subject to  u >= 0, sum(u) = 1  by
enumerating the 2^M assignments of which member of each pair (u_i, lambda_i)
vanishes, solving the reduced (M+1) x (M+1) stationarity system for each,
and stopping at the first feasible one.  For convex objectives (C positive
definite) any feasible KKT point is the global minimum, so early exit is
sound.  A projected-gradient fallback covers degenerate C.

A lattice brute-force solver is included as an independent test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

_SYM_TOL = 1e-12
_U_FEAS_TOL = 1e-9
_LAMBDA_TOL = 1e-10


@dataclass(eq=False)
class QpProblem:
    """Symmetric coefficient matrix C and linear vector c of the objective."""

    C: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        if self.C.ndim != 2 or self.C.shape[0] != self.C.shape[1]:
            raise ValueError(f"C must be square, got shape {self.C.shape}")
        if self.c.shape != (self.C.shape[0],):
            raise ValueError(f"c must have length {self.C.shape[0]}, got shape {self.c.shape}")
        asym = np.max(np.abs(self.C - self.C.T)) if self.C.size else 0.0
        if asym > _SYM_TOL:
            raise ValueError(f"C must be symmetric within {_SYM_TOL:g}; max asymmetry {asym:.3e}")

    @property
    def M(self) -> int:
        return self.c.shape[0]


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
        if self.u.ndim != 1:
            raise ValueError("u must be a vector")
        if not self.u.min() >= -1e-12:
            raise ValueError(f"u has negative or NaN entries: min = {self.u.min():.3e}")
        total = self.u.sum()
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"u must sum to 1 within 1e-10, got {total!r}")


def objective(p: QpProblem, u: np.ndarray) -> float:
    """Objective value u' C u - 2 c' u."""
    u = np.asarray(u, dtype=float)
    return float(u @ p.C @ u - 2.0 * p.c @ u)


def is_positive_definite(C: np.ndarray) -> bool:
    """True iff the symmetric matrix C factors with pivots above 1e-12."""
    C = np.asarray(C, dtype=float)
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.diag(L) ** 2 > 1e-12))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.shape[0] + 1)
    rho = np.nonzero(u + (1.0 - css) / j > 0.0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def _projected_gradient(C: np.ndarray, c: np.ndarray, max_iter: int = 10_000,
                        tol: float = 1e-10) -> np.ndarray:
    """Projected-gradient descent from the uniform point.

    Step 1 / (2 ||C||_inf); stops when the gradient-mapping norm drops
    below ``tol``.
    """
    M = c.shape[0]
    norm = float(np.abs(C).sum(axis=1).max())
    step = 1.0 / (2.0 * norm) if norm > 0.0 else 1.0
    u = np.full(M, 1.0 / M)
    for _ in range(max_iter):
        grad = 2.0 * (C @ u - c)
        nxt = _project_simplex(u - step * grad)
        if np.linalg.norm(u - nxt) / step < tol:
            u = nxt
            break
        u = nxt
    return u


def _mask_order(M: int):
    """All 2^M active-set bitmasks: all-inactive first, then by popcount."""
    masks = list(range(1 << M))
    masks.sort(key=lambda m: (bin(m).count("1"), m))
    return masks


def solve_kkt(p: QpProblem) -> SimplexPoint:
    """Global minimizer of the simplex QP via exhaustive KKT enumeration.

    Bit i of the active-set mask set means u_i = 0 (its multiplier is kept
    as an unknown); cleared means lambda_i = 0.  For each mask the reduced
    linear system is solved and the first candidate whose u and lambda
    entries are (numerically) nonnegative is returned.  If C fails the
    positive-definiteness test, or no mask yields a feasible solution, the
    projected-gradient fallback is used and flagged.
    """
    M = p.M
    if M < 2:
        raise ValueError(f"need at least 2 states, got M = {M}")
    C, c = p.C, p.c

    if is_positive_definite(C):
        sol = _enumerate_kkt(C, c)
        if sol is not None:
            return sol
    u = _projected_gradient(C, c)
    u = np.maximum(u, 0.0)
    return SimplexPoint(u=u / u.sum(), lam=None, fallback=True)


def _enumerate_kkt(C: np.ndarray, c: np.ndarray) -> Optional[SimplexPoint]:
    M = c.shape[0]
    # Full stationarity block: columns are (u_1..u_M, lambda_1..lambda_M, lambda_eq).
    A = np.zeros((M + 1, 2 * M + 1))
    A[:M, :M] = C
    A[:M, M:2 * M] = -np.eye(M)
    A[:M, 2 * M] = 1.0
    A[M, :M] = 1.0
    rhs = np.concatenate([c, [1.0]])
    scale = max(1.0, float(np.abs(rhs).max()), float(np.abs(C).max()))

    for mask in _mask_order(M):
        cols = [(M + i) if mask >> i & 1 else i for i in range(M)]
        cols.append(2 * M)
        Ar = A[:, cols]
        try:
            rho = np.linalg.solve(Ar, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(rho)):
            continue
        if np.max(np.abs(Ar @ rho - rhs)) > 1e-8 * scale:
            continue  # nearly singular system solved to garbage
        u = np.zeros(M)
        lam = np.zeros(M + 1)
        feasible = True
        for i in range(M):
            if mask >> i & 1:
                lam[i] = rho[i]
                if lam[i] < -_LAMBDA_TOL:
                    feasible = False
                    break
            else:
                u[i] = rho[i]
                if u[i] < -_U_FEAS_TOL:
                    feasible = False
                    break
        if not feasible:
            continue
        lam[M] = rho[M]
        u = np.maximum(u, 0.0)
        return SimplexPoint(u=u / u.sum(), lam=lam, fallback=False)
    return None


# --- lattice brute force (test oracle) -------------------------------------

_COMP_TABLE_CACHE: dict = {}


def _composition_table(k: int, parts: int) -> list:
    """table[s] = all ``parts``-tuples of nonnegative ints summing to s, lex order.

    Cached per ``parts`` (tables for a larger k serve any smaller k); only
    parts <= 3 are retained, larger ones would hold tens of millions of rows.
    """
    cached = _COMP_TABLE_CACHE.get(parts)
    if cached is not None and len(cached) >= k + 1:
        return cached
    if parts == 1:
        table = [np.array([[s]], dtype=np.int64) for s in range(k + 1)]
    else:
        prev = _composition_table(k, parts - 1)
        table = []
        for s in range(k + 1):
            blocks = [
                np.hstack([np.full((prev[s - i].shape[0], 1), i, dtype=np.int64), prev[s - i]])
                for i in range(s + 1)
            ]
            table.append(np.vstack(blocks))
    if parts <= 3:
        _COMP_TABLE_CACHE[parts] = table
    return table


def _prefixes(budget: int, length: int):
    """Lex-ordered nonnegative integer vectors of given length with sum <= budget."""
    if length == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _prefixes(budget - first, length - 1):
            yield (first,) + rest


def brute_force_solve(p: QpProblem, step: float) -> SimplexPoint:
    """Exhaustive minimization over the simplex lattice with spacing ``step``.

    Ties are broken toward the lexicographically smallest point.  Intended
    as a test oracle; cost grows like (1/step)^(M-1).

    Works on the integer grid g (u = g / k, k = 1/step), scoring
    k^2 F(u) = g' C g - 2 k c' g.  For M >= 4 the last three coordinates are
    scored in bulk straight off the cached composition tables, with the
    leading M-3 coordinates enumerated on top; this avoids materializing the
    full lattice.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError(f"step must lie in (0, 0.5], got {step}")
    k = round(1.0 / step)
    M, C, c = p.M, p.C, p.c

    if M <= 3:
        G = _composition_table(k, M)[k] if M > 1 else np.array([[k]], dtype=np.int64)
        Gf = G.astype(float)
        vals = np.einsum("ij,jk,ik->i", Gf, C, Gf) - 2.0 * k * (Gf @ c)
        j = int(np.argmin(vals))
        return SimplexPoint(u=G[j] / k)

    # tail = last 3 coordinates; per tail-sum s, precompute the tail-only
    # score and the cross terms against each prefix coordinate
    table = _composition_table(k, 3)
    C_tt = C[M - 3:, M - 3:]
    c_t = c[M - 3:]
    tail_score = []
    cross = []  # cross[s][q] = W_s @ C[q, tail]
    for s in range(k + 1):
        W = table[s].astype(float)
        tail_score.append(np.einsum("ij,jk,ik->i", W, C_tt, W) - 2.0 * k * (W @ c_t))
        cross.append([W @ C[q, M - 3:] for q in range(M - 3)])

    C_pp = C[:M - 3, :M - 3]
    c_p = c[:M - 3]
    best_val = np.inf
    best_g = None
    for prefix in _prefixes(k, M - 3):
        a = np.array(prefix, dtype=float)
        s = k - int(a.sum())
        vals = tail_score[s] + float(a @ C_pp @ a - 2.0 * k * (c_p @ a))
        for q in range(M - 3):
            if prefix[q]:
                vals = vals + 2.0 * prefix[q] * cross[s][q]
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_g = np.concatenate([np.array(prefix, dtype=np.int64), table[s][j]])
    return SimplexPoint(u=best_g / k)
