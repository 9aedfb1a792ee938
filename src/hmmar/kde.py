"""Delay embedding, product-normal KDE, and UCV bandwidth selection.

A scalar series x_1, ..., x_n is mapped to N = 1 + floor((n - d) / l) vectors

    Y_i = (x_{(i-1)l + 1}, ..., x_{(i-1)l + d}),      i = 1, ..., N

(1-based indices).  A normal kernel with covariance h^2 I_d sits on each Y_i; h minimizes
the unbiased cross-validation score over (0, h_plus], h_plus the oversmoothed bound, scored
on a fixed log lattice of the pairs' squared distances, as binned kernel estimators are (Scott
& Sheather 1985; Wand 1994).  The lattice, built once per sample from blocks of pairs, costs
a score one exp per occupied point, and a fit's memory does not grow with the N^2 / 2 pairs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # 1 - 1/phi
#: Points of the log-spaced grid that brackets the UCV minimum.
_GRID_POINTS = 32
_GRID_BOTTOM = 1e-6  # lowest h of that grid, as a fraction of h_plus
#: Cap on the score evaluations of the Brent refinement.
_MAX_ITER = 200
_SHIFT = 52 - 6  # low mantissa bits that a lattice point clears: 2^6 points per octave
_PAIR_BLOCK = 1 << 14  # pairs per block of squared distances, a few rows against all later


@dataclass(eq=False)
class EmbeddedSample:
    """Delay-embedded sample: ``vectors`` has shape (N, d)."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 1:
            raise ValueError(f"vectors must have shape (N, d >= 1), got {self.vectors.shape}")
        if not np.isfinite(self.vectors).all():
            raise ValueError("vectors must be finite")

    @property
    def N(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


def _check_bandwidth(h: float | np.ndarray) -> None:
    """A ValueError unless 0 < h < inf, a number but no bool: a scalar, or a block's (R, 1) h."""
    if (a := np.asarray(h)).dtype.kind not in "iuf" or not ((0 < a) & (a < math.inf)).all():
        raise ValueError(f"h must be positive and finite, got {h}")


def _delay_columns(x: np.ndarray, n_obs: int, d: int, l: int, cols) -> list[np.ndarray]:
    """Coordinates j in ``cols`` of the N = 1 + (n_obs - d) // l delay vectors of dimension d,
    stride l, in x_1^{n_obs}: the strided views ``x[..., j:j + span:l]``, span = (N - 1) l + 1."""
    if not (x.ndim in (1, 2) and l >= 1 and 1 <= d <= n_obs <= x.shape[-1]):
        raise ValueError(f"need x of shape (n,) or (R, n), l >= 1 and 1 <= d <= n_obs <= n, "
                         f"got x of shape {x.shape}, l = {l}, d = {d}, n_obs = {n_obs}")
    span = (n_obs - d) // l * l + 1
    return [x[..., j:j + span:l] for j in cols]


def embed(x: np.ndarray, d: int, l: int = 1) -> EmbeddedSample:
    """Delay-embed a scalar series into N vectors of dimension d, stride l."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a 1-D series")
    return EmbeddedSample(vectors=np.stack(_delay_columns(x, x.shape[0], d, l, range(d)), axis=1))


def _sq_dist_blocks(vectors: np.ndarray):
    """New arrays of the positive squared distances of the pairs i < j, in ``pdist``'s order
    and blocks of about ``_PAIR_BLOCK`` pairs, summed one coordinate at a time as its sqeuclidean
    metric does, so each has its bits.  Each pair at distance 0 adds 1 to both UCV sums."""
    N, d = vectors.shape
    a = 0
    while a < N - 1:
        b = min(a + max(1, _PAIR_BLOCK // (N - 1 - a)), N - 1)  # rows a..b-1, columns a+1..N-1
        s = np.square(vectors[a:b, 0, None] - vectors[a + 1:, 0])
        for j in range(1, d):
            s += np.square(vectors[a:b, j, None] - vectors[a + 1:, j])
        # row a + r keeps its pairs with the rows after it; rebinding s frees the full block
        s = s[(np.arange(s.shape[1]) >= np.arange(b - a)[:, None]) & (s > 0.0)]
        yield s
        a = b


def _ucv_score(N: int, d: int, h: float, first: float, second: float) -> float:
    """UCV score of h from the sums of exp(-s / 4h^2) and exp(-s / 2h^2) over the pairs' s."""
    # Each unordered pair appears twice in the double sum.
    pair_sum = 2.0 * (2.0 ** (-d / 2.0) * first - 2.0 * second)
    lead = pair_sum / (N * (N - 1) * (2.0 * math.pi) ** (d / 2.0) * h ** d)
    return lead + 1.0 / (N * (4.0 * math.pi) ** (d / 2.0) * h ** d)


def ucv_objective(sample: EmbeddedSample, h: float) -> float:
    """Unbiased cross-validation score of the scalar bandwidth h, exact: one exp per pair."""
    if sample.N < 2:
        raise ValueError("UCV needs at least two embedded vectors")
    if np.ndim(h) > 0:
        raise ValueError(f"h must be a scalar, got shape {np.shape(h)}")
    _check_bandwidth(h)
    N, d, (lo, hi) = sample.N, sample.d, _ucv_range(sample.N, sample.d)
    if not lo <= h <= hi:
        raise ValueError(f"h {h:.3g} is outside [{lo:.3g}, {hi:.3g}], UCV's float range")
    four_h2, zeros, first, second = 4.0 * h * h, N * (N - 1) // 2, 0.0, 0.0
    for s in _sq_dist_blocks(sample.vectors):
        zeros -= s.size
        e = np.exp(np.divide(s, -four_h2, out=s), out=s)
        first += float(e.sum())
        second += float(np.square(e, out=e).sum())  # exp(-s/2h^2) = exp(-s/4h^2)^2
    return _ucv_score(N, d, h, zeros + first, zeros + second)


def _pair_lattice(sample: EmbeddedSample) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of the pairs' squared distances on the log lattice: 0.0 and the floats
    whose low ``_SHIFT`` bits are 0, those with a weight.  A pair at distance 0 weighs 1 on 0.0;
    a squared distance s > 0 lies between the point with the bits of s above ``_SHIFT`` and the
    next, a fraction t of the way, weighs 1 - t on the first and t on the second.  t holds the
    low bits of s, so it is exact, and scaling s by 4^k scales its points and leaves t."""
    lo, counts, fracs = 0, np.zeros(0, np.int64), np.zeros(0)
    for s in _sq_dist_blocks(sample.vectors):
        if not s.size:
            continue
        bits = s.view(np.int64)
        idx = bits >> _SHIFT  # increasing with s, as the bits of positive floats are
        a, b = int(idx.min()), int(idx.max()) + 2  # the span [a, b) holds each bin's next point
        lo = lo if counts.size else a
        if a < lo or b > lo + counts.size:  # widen the span
            pad = (max(lo - a, 0), max(b - lo - counts.size, 0))
            counts, fracs, lo = np.pad(counts, pad), np.pad(fracs, pad), lo - pad[0]
        idx -= a
        n = np.bincount(idx)
        counts[a - lo:a - lo + n.size] += n
        # 1 + t / 2^6 has the bits of 1.0 with the low bits of s, so t comes out exact, in place
        np.bitwise_or(np.bitwise_and(bits, (1 << _SHIFT) - 1, out=bits), 0x3FF << 52, out=bits)
        t = np.multiply(np.subtract(s, 1.0, out=s), 1 << (52 - _SHIFT), out=s)
        f = np.bincount(idx, weights=t)
        fracs[a - lo:a - lo + f.size] += f
    weights = np.concatenate(([sample.N * (sample.N - 1) // 2 - counts.sum()], counts - fracs))
    weights[2:] += fracs[:-1]
    points = np.concatenate(([0.0], (np.arange(lo, lo + counts.size) << _SHIFT).view(np.float64)))
    return points[weights != 0.0], weights[weights != 0.0]


def _lattice_score(points: np.ndarray, weights: np.ndarray, N: int, d: int, h: float) -> float:
    """UCV score of h over the lattice of :func:`_pair_lattice`: one exp per point."""
    e = np.exp(np.divide(points, -4.0 * h * h))
    return _ucv_score(N, d, h, float((weights * e).sum()), float((weights * e * e).sum()))


def _ucv_range(N: int, d: int) -> tuple[float, float]:
    """The h where UCV's score stays in float range, as :func:`oversmoothed_bandwidth` sets out."""
    fmax = sys.float_info.max
    return (sys.float_info.min ** (1.0 / max(d, 2)),
            min(math.sqrt(fmax / 2984.0), (fmax / N**2) ** (1.0 / d) / math.sqrt(4.0 * math.pi)))


def oversmoothed_bandwidth(sample: EmbeddedSample) -> float:
    """Oversmoothed bandwidth h_plus = c max_k sigma_k, c = (4 / (N (d+2)))^(1/(d+4)), holding UCV's
    float range: a ValueError if the sample has no spread, if h_plus is below the floor where h^d
    underflows from the grid bottom 1e-6 h_plus (d = 1 takes d = 2's floor: its squared distances
    go subnormal first), or above the ceiling where a squared distance (<= 2 d (N-1) sigma_max^2),
    2984 h^2 (the kernel's 4h^2, with room) or a denominator (<= N^2 (4 pi)^(d/2) h^d) overflows."""
    N, d, fmax = sample.N, sample.d, sys.float_info.max
    if N < 2:
        raise ValueError("need at least two embedded vectors")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN sigma fails the ceiling
        sig_max = float(sample.vectors.std(axis=0, ddof=1).max())
    if sig_max == 0.0 and (sample.vectors == sample.vectors[0]).all():  # not an underflowed sigma
        raise ValueError("degenerate sample: all coordinates are constant")
    c, (lo, hi), p = (4.0 / (N * (d + 2))) ** (1.0 / (d + 4)), _ucv_range(N, d), max(d, 2)
    h_plus, lo, hi = c * sig_max, lo / _GRID_BOTTOM, min(c * math.sqrt(fmax / (2 * d * N)), hi)
    if not h_plus <= hi:
        raise ValueError(f"h_plus {h_plus:.3g} is above {hi:.3g}, where UCV's arithmetic overflows")
    if not h_plus >= lo:
        raise ValueError(f"h_plus {h_plus:.3g} is below {lo:.3g}, where UCV's 1/h^{p} overflows")
    return h_plus


def _brent(f, a: float, b: float, tol: float) -> float:
    """Minimize f on [a, b] by Brent's method; returns the best point evaluated.

    Golden-section steps, or a parabola through the three best points when it
    lands inside the bracket and shrinks the step (Brent 1973, ch. 5).  Stops
    once the bracket lies within 2 tol / 3 (plus 1.5e-8 |x|) of the best point
    x, or after ``_MAX_ITER`` evaluations.
    """
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    step = prev = 0.0  # the last step and the one before it
    for _ in range(_MAX_ITER - 1):
        mid = 0.5 * (a + b)
        tol1 = 1.5e-8 * abs(x) + tol / 3.0
        if abs(x - mid) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        p = q = 0.0
        if abs(prev) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
        if abs(p) < abs(0.5 * q * prev) and q * (a - x) < p < q * (b - x):
            prev, step = step, p / q
            if (x + step) - a < 2.0 * tol1 or b - (x + step) < 2.0 * tol1:
                step = tol1 if x <= mid else -tol1
        else:
            prev = (b if x < mid else a) - x
            step = _GOLDEN * prev
        u = x + (step if abs(step) >= tol1 else math.copysign(tol1, step))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def ucv_bandwidth(sample: EmbeddedSample) -> float:
    """Bandwidth h minimizing the UCV score on (0, h_plus]; h_plus must lie in UCV's float range.

    The score can carry spurious local minima near h = 0, so the search bracket is
    [1e-6 h_plus, h_plus]; a 32-point log-spaced grid locates the best basin, then Brent's
    method refines the cell [grid[k - 1], grid[k + 1]] around its first best point k to
    1e-4 h_plus.  Both score h on the lattice of :func:`_pair_lattice`, built once.
    """
    h_plus = oversmoothed_bandwidth(sample)
    score = partial(_lattice_score, *_pair_lattice(sample), sample.N, sample.d)
    grid = np.geomspace(_GRID_BOTTOM * h_plus, h_plus, _GRID_POINTS)
    k = int(np.argmin([score(h) for h in grid]))
    h = _brent(score, grid[max(k - 1, 0)], grid[min(k + 1, _GRID_POINTS - 1)], tol=1e-4 * h_plus)
    return float(min(h, h_plus))


def conditional_weights(x: np.ndarray, n: int, tau: int, l: int,
                        h: float | np.ndarray) -> np.ndarray:
    """Mixture weights of the estimated conditional density of x_n.

    Candidate i contributes weight proportional to the kernel similarity
    between the last tau observations (x_{n-tau}, ..., x_{n-1}) and the first
    tau coordinates of the embedded vector Y_i.  Only the prefix x_1^{n-1} of
    ``x`` is used.  Exponents are normalized by their maximum before
    exponentiation, so arbitrarily large distances cannot produce NaN/Inf.

    Returns the length-N probability vector beta (N = 1 + floor((n-1-d)/l)
    with d = tau + 1), or a block's (R, N) rows, each bit-equal to its own
    call, when ``x`` and ``h`` (R, 1) carry a leading repeat axis.
    """
    x = np.asarray(x, dtype=float, order="C")
    if np.ndim(h) and np.shape(h) != x.shape[:-1] + (1,):
        raise ValueError(f"h has shape {np.shape(h)}, x needs a float or {x.shape[:-1] + (1,)}")
    _check_bandwidth(h)
    windows = _candidate_columns(x, n, tau, l, range(tau))
    # Squared distance of each window to the query (x_{n-tau}, ..., x_{n-1}),
    # summed one coordinate at a time, then turned into the weights in place.
    w = np.square(windows[0] - x[..., n - 1 - tau, None])
    for j in range(1, tau):
        w += np.square(windows[j] - x[..., n - 1 - tau + j, None])
    np.divide(w, -2.0 * h * h, out=w)  # the bits of -s / (2 h^2)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    return np.divide(w, w.sum(axis=-1, keepdims=True), out=w)


def embedding_heads(x: np.ndarray, n: int, tau: int, l: int) -> np.ndarray:
    """Final coordinates x_{(i-1)l + tau + 1} of the candidate vectors.

    These are the kernel centers paired with :func:`conditional_weights`;
    same N, ordering and leading repeat axis.
    """
    return _candidate_columns(np.asarray(x, dtype=float), n, tau, l, [tau])[0]


def _candidate_columns(x: np.ndarray, n: int, tau: int, l: int, cols) -> list[np.ndarray]:
    """Coordinates ``cols`` of x_n's candidates: the delay vectors of dimension tau + 1 in
    x_1^{n-1}, whose first tau coordinates meet the query and whose last is a kernel center."""
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    return _delay_columns(x, n - 1, tau + 1, l, cols)
