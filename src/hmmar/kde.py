"""Delay embedding, product-normal KDE, and UCV bandwidth selection.

A scalar series x_1, ..., x_n is mapped to N = 1 + floor((n - d) / l) vectors

    Y_i = (x_{(i-1)l + 1}, ..., x_{(i-1)l + d}),      i = 1, ..., N

(1-based indices).  A normal kernel with covariance h^2 I_d sits on each Y_i;
h minimizes the unbiased cross-validation score over (0, h_plus], h_plus the
oversmoothed bound.  The score runs over pairwise distances sorted once, skips
pairs whose kernel is exactly 0.0 and takes one exp per remaining pair.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # 1 - 1/phi
#: Points of the log-spaced grid that brackets the UCV minimum.
_GRID_POINTS = 32
_GRID_BOTTOM = 1e-6  # lowest h of that grid, as a fraction of h_plus
#: Cap on the score evaluations of the Brent refinement.
_MAX_ITER = 200
#: Rows per block of EmbeddedSample.sorted_sq_dists.
_DIST_BLOCK = 16
#: Largest leaf of the UCV score's sums, the length of its one buffer.
_LEAF = 1 << 16


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

    @cached_property
    def sorted_sq_dists(self) -> np.ndarray:
        """Ascending condensed pairwise squared distances (i < j), computed once.

        Summed one coordinate at a time, as scipy's sqeuclidean ``pdist`` does,
        so every distance has its bits; blocks of rows bound the temporaries.
        """
        v, N = self.vectors, self.N
        out, k = np.empty(N * (N - 1) // 2), 0
        for a in range(0, N - 1, _DIST_BLOCK):
            block = np.square(v[a:a + _DIST_BLOCK, 0, None] - v[a + 1:, 0])
            for j in range(1, self.d):
                block += np.square(v[a:a + _DIST_BLOCK, j, None] - v[a + 1:, j])
            for r, row in enumerate(block):  # row a + r keeps its pairs with rows > a + r
                out[k:k + row.size - r] = row[r:]
                k += row.size - r
        out.sort()
        return out


@dataclass(frozen=True)
class Bandwidth:
    """Scalar bandwidth h; the kernel covariance matrix is h^2 I_d."""

    h: float

    def __post_init__(self):
        _check_bandwidth(self.h)


def _check_bandwidth(h: float | np.ndarray) -> None:
    """A ValueError unless 0 < h < inf: a scalar, or every entry of a block's (R, 1) h."""
    if not np.logical_and(0.0 < h, h < math.inf).all():
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


def _exp_sums(sq: np.ndarray, four_h2: float, buf: np.ndarray) -> tuple[float, float]:
    """Sums of e = exp(-sq / 4h^2) and of e^2 through leaves in ``buf``, bit-equal
    to numpy's ``sum`` of the whole arrays, whose pairwise splits they follow."""
    n = sq.size
    if n <= _LEAF:
        e = np.divide(sq, -four_h2, out=buf[:n])
        first = float(np.exp(e, out=e).sum())
        return first, float(np.square(e, out=e).sum())
    half = n // 2 - n // 2 % 8
    a1, a2 = _exp_sums(sq[:half], four_h2, buf)
    b1, b2 = _exp_sums(sq[half:], four_h2, buf)
    return a1 + b1, a2 + b2


def ucv_objective(sample: EmbeddedSample, h: float) -> float:
    """Unbiased cross-validation score of the scalar bandwidth h."""
    if sample.N < 2:
        raise ValueError("UCV needs at least two embedded vectors")
    _check_bandwidth(h)
    N, d, (lo, hi) = sample.N, sample.d, _ucv_range(sample.N, sample.d)
    if not lo <= h <= hi:
        raise ValueError(f"h {h:.3g} is outside [{lo:.3g}, {hi:.3g}], UCV's float range")
    sq_dists = sample.sorted_sq_dists
    four_h2 = 4.0 * h * h
    # exp(-t) == 0.0 exactly for t >= 746, so only the prefix s < 746 * 4h^2 counts.
    live = sq_dists[:np.searchsorted(sq_dists, 746.0 * four_h2)]
    first, second = _exp_sums(live, four_h2, np.empty(min(live.size, _LEAF)))
    # exp(-s/2h^2) = exp(-s/4h^2)^2; each unordered pair appears twice in the double sum.
    pair_sum = 2.0 * (2.0 ** (-d / 2.0) * first - 2.0 * second)
    lead = pair_sum / (N * (N - 1) * (2.0 * math.pi) ** (d / 2.0) * h ** d)
    return lead + 1.0 / (N * (4.0 * math.pi) ** (d / 2.0) * h ** d)


def _ucv_range(N: int, d: int) -> tuple[float, float]:
    """The h where UCV's score stays in float range, as :func:`oversmoothed_bandwidth` sets out."""
    fmax = sys.float_info.max
    return (sys.float_info.min ** (1.0 / max(d, 2)),
            min(math.sqrt(fmax / 2984.0), (fmax / N**2) ** (1.0 / d) / math.sqrt(4.0 * math.pi)))


def oversmoothed_bandwidth(sample: EmbeddedSample) -> float:
    """Oversmoothed bandwidth h_plus = c max_k sigma_k, c = (4 / (N (d+2)))^(1/(d+4)), holding UCV's
    float range: a ValueError if the sample has no spread, if h_plus is below the floor where h^d
    underflows from the grid bottom 1e-6 h_plus (d = 1 takes d = 2's floor: its squared distances go
    subnormal first), or above the ceiling where a pairwise squared distance (<= 2 d (N-1)
    sigma_max^2), the cutoff 746 * 4 h^2 or a denominator (<= N^2 (4 pi)^(d/2) h^d) overflows."""
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


def ucv_bandwidth(sample: EmbeddedSample) -> Bandwidth:
    """Bandwidth minimizing the UCV score on (0, h_plus]; h_plus must lie in UCV's float range.

    The score can carry spurious local minima near h = 0, so the search
    bracket is [1e-6 h_plus, h_plus]; a 32-point log-spaced grid locates the
    best basin, then Brent's method refines the cell [grid[k - 1], grid[k + 1]]
    around its best point k to 1e-4 h_plus.  Each score evaluation reuses the
    once-sorted distances and skips the exact-zero pairs.
    """
    h_plus = oversmoothed_bandwidth(sample)
    score = partial(ucv_objective, sample)
    grid = np.geomspace(_GRID_BOTTOM * h_plus, h_plus, _GRID_POINTS)
    k = int(np.argmin([score(h) for h in grid]))
    h = _brent(score, grid[max(k - 1, 0)], grid[min(k + 1, _GRID_POINTS - 1)], tol=1e-4 * h_plus)
    return Bandwidth(h=min(h, h_plus))


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
    _check_bandwidth(h)
    x = np.asarray(x, dtype=float)
    windows = _candidate_columns(x, n, tau, l, range(tau))
    # Squared distance of each window to the query (x_{n-tau}, ..., x_{n-1}),
    # summed one coordinate at a time.
    sq_dist = np.square(windows[0] - x[..., n - 1 - tau, None])
    for j in range(1, tau):
        sq_dist += np.square(windows[j] - x[..., n - 1 - tau + j, None])
    log_w = -sq_dist / (2.0 * h * h)
    log_w -= log_w.max(axis=-1, keepdims=True)
    w = np.exp(log_w)
    return w / w.sum(axis=-1, keepdims=True)


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
