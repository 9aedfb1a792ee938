"""Independent oracles for the simplex QP  min_u u' C u - 2 c' u  over the simplex.

* :func:`brute_force_solve` scans the simplex lattice with a given spacing.
* :func:`reference_enumerate_kkt` tries the 2^M KKT active sets one at a
  time, in the order :func:`reference_mask_order` gives, and returns the
  first feasible one, each by its own LAPACK solve; ``hmmar.simplex_qp.solve_kkt``
  must return its face and fallback flag, and its u and lambda within rounding.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from hmmar.simplex_qp import _LAMBDA_TOL, _U_FEAS_TOL, SimplexPoint


def objective(C: np.ndarray, c: np.ndarray, u: np.ndarray) -> float:
    """Objective value u' C u - 2 c' u."""
    u = np.asarray(u, dtype=float)
    return float(u @ C @ u - 2.0 * c @ u)


# --- KKT enumeration, one active set at a time -------------------------------

def reference_mask_order(M: int):
    """All 2^M active-set bitmasks: all-inactive first, then by popcount."""
    masks = list(range(1 << M))
    masks.sort(key=lambda m: (bin(m).count("1"), m))
    return masks


def reference_enumerate_kkt(C: np.ndarray, c: np.ndarray) -> Optional[SimplexPoint]:
    """First feasible KKT point over :func:`reference_mask_order`, or None.

    Bit i of a mask set means u_i = 0 (its multiplier is kept as an
    unknown); cleared means lambda_i = 0.  Singular, non-finite or
    inaccurate reduced systems are skipped.
    """
    M = c.shape[0]
    # Full stationarity block: columns are (u_1..u_M, lambda_1..lambda_M, lambda_eq).
    A = np.zeros((M + 1, 2 * M + 1))
    A[:M, :M] = C
    A[:M, M:2 * M] = -np.eye(M)
    A[:M, 2 * M] = 1.0
    A[M, :M] = 1.0
    rhs = np.concatenate([c, [1.0]])
    scale = max(1.0, float(np.abs(rhs).max()), float(np.abs(C).max()))

    for mask in reference_mask_order(M):
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


# --- lattice brute force ------------------------------------------------------

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


def brute_force_solve(C: np.ndarray, c: np.ndarray, step: float) -> SimplexPoint:
    """Exhaustive minimization over the simplex lattice with spacing ``step``.

    Ties are broken toward the lexicographically smallest point.  Cost grows
    like (1/step)^(M-1).

    Works on the integer grid g (u = g / k, k = 1/step), scoring
    k^2 F(u) = g' C g - 2 k c' g.  For M >= 4 the last three coordinates are
    scored in bulk straight off the cached composition tables, with the
    leading M-3 coordinates enumerated on top; this avoids materializing the
    full lattice.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError(f"step must lie in (0, 0.5], got {step}")
    k = round(1.0 / step)
    C = np.asarray(C, dtype=float)
    c = np.asarray(c, dtype=float)
    M = c.shape[0]

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
