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
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.spatial.distance import pdist

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
#: Points of the log-spaced grid that brackets the UCV minimum.
_GRID_POINTS = 32
#: Iteration cap of the golden-section refinement.
_MAX_ITER = 200


@dataclass(eq=False)
class EmbeddedSample:
    """Delay-embedded sample: ``vectors`` has shape (N, d), stride ``l``."""

    vectors: np.ndarray
    d: int
    l: int

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.d:
            raise ValueError(f"vectors must have shape (N, {self.d})")
        if not np.isfinite(self.vectors).all():
            raise ValueError("vectors must be finite")
        if self.l < 1:
            raise ValueError(f"stride l must be >= 1, got {self.l}")

    @property
    def N(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def sorted_sq_dists(self) -> np.ndarray:
        """Ascending condensed pairwise squared distances (i < j), computed once."""
        return np.sort(pdist(self.vectors, "sqeuclidean"))


@dataclass(frozen=True)
class Bandwidth:
    """Scalar bandwidth h; the kernel covariance matrix is h^2 I_d."""

    h: float

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")


def embed(x: np.ndarray, d: int, l: int = 1) -> EmbeddedSample:
    """Delay-embed a scalar series into N vectors of dimension d, stride l."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a 1-D series")
    if d < 1:
        raise ValueError(f"embedding dimension must be >= 1, got {d}")
    if l < 1:
        raise ValueError(f"stride l must be >= 1, got {l}")
    n_source = x.shape[0]
    if n_source < d:
        raise ValueError(f"series of length {n_source} is too short to embed in dimension {d}")
    N = 1 + (n_source - d) // l
    idx = l * np.arange(N)[:, None] + np.arange(d)[None, :]
    return EmbeddedSample(vectors=x[idx], d=d, l=l)


def kde_eval(sample: EmbeddedSample, bw: Bandwidth, y) -> float:
    """Kernel density estimate at the point y (shape (d,), scalar for d=1)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (sample.d,):
        raise ValueError(f"y must have shape ({sample.d},), got {y.shape}")
    h = bw.h
    sq = np.sum((sample.vectors - y) ** 2, axis=1)
    norm = sample.N * (2.0 * math.pi) ** (sample.d / 2.0) * h ** sample.d
    return float(np.exp(-sq / (2.0 * h * h)).sum() / norm)


def _ucv_from_sorted_sq_dists(sq_dists: np.ndarray, N: int, d: int, h: float) -> float:
    """UCV score from the ascending condensed pairwise squared distances (i < j)."""
    four_h2 = 4.0 * h * h
    # exp(-t) == 0.0 exactly for t >= 746, so only the prefix s < 746 * 4h^2 counts.
    e = np.divide(sq_dists[:np.searchsorted(sq_dists, 746.0 * four_h2)], -four_h2)
    first = float(np.exp(e, out=e).sum())
    # exp(-s/2h^2) = exp(-s/4h^2)^2; each unordered pair appears twice in the double sum.
    pair_sum = 2.0 * (2.0 ** (-d / 2.0) * first - 2.0 * float(np.square(e, out=e).sum()))
    lead = pair_sum / (N * (N - 1) * (2.0 * math.pi) ** (d / 2.0) * h ** d)
    return lead + 1.0 / (N * (4.0 * math.pi) ** (d / 2.0) * h ** d)


def ucv_objective(sample: EmbeddedSample, h: float) -> float:
    """Unbiased cross-validation score of the scalar bandwidth h."""
    if sample.N < 2:
        raise ValueError("UCV needs at least two embedded vectors")
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    return _ucv_from_sorted_sq_dists(sample.sorted_sq_dists, sample.N, sample.d, h)


def oversmoothed_bandwidth(sample: EmbeddedSample) -> float:
    """Oversmoothed bandwidth h_plus = (4 / (N (d+2)))^(1/(d+4)) * max_k sigma_k."""
    if sample.N < 2:
        raise ValueError("need at least two embedded vectors")
    sigma = sample.vectors.std(axis=0, ddof=1)
    sig_max = float(sigma.max())
    if not sig_max > 0.0:
        raise ValueError("degenerate sample: all coordinates are constant")
    return (4.0 / (sample.N * (sample.d + 2))) ** (1.0 / (sample.d + 4)) * sig_max


def _golden_section(f, a: float, b: float, tol: float) -> float:
    """Minimize f on [a, b]; returns the midpoint of the final bracket."""
    c = b - _GOLDEN * (b - a)
    d_ = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d_)
    for _ in range(_MAX_ITER):
        if b - a <= tol:
            break
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + _GOLDEN * (b - a)
            fd = f(d_)
    return 0.5 * (a + b)


def ucv_bandwidth(sample: EmbeddedSample) -> Bandwidth:
    """Bandwidth minimizing the UCV score on (0, h_plus].

    The score can carry spurious local minima near h = 0, so the search
    bracket is [1e-6 h_plus, h_plus]; a coarse log-spaced grid locates the best
    basin, then golden-section search refines it to 1e-4 h_plus.  Each score
    evaluation reuses the once-sorted distances and skips the exact-zero pairs.
    """
    if sample.N < 2:
        raise ValueError("bandwidth selection needs at least two embedded vectors")
    h_plus = oversmoothed_bandwidth(sample)
    score = partial(ucv_objective, sample)
    grid = np.geomspace(1e-6 * h_plus, h_plus, _GRID_POINTS)
    values = np.array([score(h) for h in grid])
    k = int(np.argmin(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, _GRID_POINTS - 1)]
    h = _golden_section(score, lo, hi, tol=1e-4 * h_plus)
    return Bandwidth(h=min(h, h_plus))


def conditional_weights(x: np.ndarray, n: int, tau: int, l: int, h: float) -> np.ndarray:
    """Mixture weights of the estimated conditional density of x_n.

    Candidate i contributes weight proportional to the kernel similarity
    between the last tau observations (x_{n-tau}, ..., x_{n-1}) and the first
    tau coordinates of the embedded vector Y_i.  Only the prefix x_1^{n-1} of
    ``x`` is used.  Exponents are normalized by their maximum before
    exponentiation, so arbitrarily large distances cannot produce NaN/Inf.

    Returns the length-N probability vector beta (N = 1 + floor((n-1-d)/l)
    with d = tau + 1).
    """
    if tau < 1 or l < 1:
        raise ValueError("tau and l must be >= 1")
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    d = tau + 1
    if n - 1 < d:
        raise ValueError(f"need n - 1 >= tau + 1 = {d} observations before index n = {n}")
    x = np.asarray(x, dtype=float)
    if x.shape[0] < n - 1:
        raise ValueError(f"series has {x.shape[0]} values; index n = {n} needs at least {n - 1}")
    xs = x[:n - 1]
    N = 1 + (xs.shape[0] - d) // l

    # Squared distance of window i (x_{il+1}, ..., x_{il+tau}) to the query,
    # summed one coordinate at a time over strided slices of xs.
    span = (N - 1) * l + 1
    query = xs[n - 1 - tau:n - 1]
    sq_dist = np.square(xs[:span:l] - query[0])
    for j in range(1, tau):
        sq_dist += np.square(xs[j:j + span:l] - query[j])
    log_w = -sq_dist / (2.0 * h * h)
    log_w -= log_w.max()
    w = np.exp(log_w)
    return w / w.sum()


def embedding_heads(x: np.ndarray, n: int, tau: int, l: int) -> np.ndarray:
    """Final coordinates x_{(i-1)l + tau + 1} of the candidate vectors.

    These are the kernel centers paired with :func:`conditional_weights`;
    same N and ordering.
    """
    d = tau + 1
    if n - 1 < d:
        raise ValueError(f"need n - 1 >= tau + 1 = {d} observations before index n = {n}")
    x = np.asarray(x, dtype=float)
    xs = x[:n - 1]
    N = 1 + (xs.shape[0] - d) // l
    return xs[tau:tau + (N - 1) * l + 1:l]
