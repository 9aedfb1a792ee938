import itertools
import math
import re
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial.distance import pdist
from scipy.stats import multivariate_normal

import hmmar.kde as kde
from hmmar.filters import MODES, run_filters
from hmmar.harness import example_config
from hmmar.kde import (_GRID_POINTS, _MAX_ITER, EmbeddedSample, _brent, _lattice_score,
                       _pair_lattice, _sq_dist_blocks, conditional_weights, embed,
                       embedding_heads, oversmoothed_bandwidth, ucv_bandwidth, ucv_objective)
from hmmar.model import simulate

from kde_reference import kde_eval


def generic_ucv(vectors: np.ndarray, H: np.ndarray) -> float:
    """UCV for an arbitrary bandwidth matrix with the normal kernel.

    Independent of the implementation under test: builds on the convolution
    identity (normal * normal = normal with summed covariances) and
    R(kernel) = (4 pi)^(-d/2) for the standard d-variate normal.
    """
    N, d = vectors.shape
    conv = multivariate_normal(mean=np.zeros(d), cov=2.0 * H)
    kern = multivariate_normal(mean=np.zeros(d), cov=H)
    total = 0.0
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            delta = vectors[i] - vectors[j]
            total += conv.pdf(delta) - 2.0 * kern.pdf(delta)
    total /= N * (N - 1)
    return total + (4.0 * math.pi) ** (-d / 2.0) / (N * math.sqrt(np.linalg.det(H)))


def reference_ucv_score(sq_dists: np.ndarray, N: int, d: int, h: float) -> float:
    """UCV score from the condensed pairwise squared distances (i < j).

    The straightforward form: two ``exp`` per pair, over every pair, in any
    order, through one buffer.  Reference for the kernel behind ``ucv_objective``.
    """
    e = np.divide(sq_dists, -4.0 * h * h)
    first = float(np.exp(e, out=e).sum())
    second = float(np.exp(np.divide(sq_dists, -2.0 * h * h, out=e), out=e).sum())
    # Each unordered pair appears twice in the ordered double sum.
    pair_sum = 2.0 * (2.0 ** (-d / 2.0) * first - 2.0 * second)
    lead = pair_sum / (N * (N - 1) * (2.0 * math.pi) ** (d / 2.0) * h ** d)
    return lead + 1.0 / (N * (4.0 * math.pi) ** (d / 2.0) * h ** d)


def ucv_size(sq_dists: np.ndarray, N: int, d: int, h: float) -> float:
    """The sum of the sizes of the UCV score's terms: the score with its negative pair term added,
    from the condensed pairwise squared distances (i < j)."""
    e = np.exp(sq_dists / (-4.0 * h * h))
    pair_sum = 2.0 * float(np.sum(2.0 ** (-d / 2.0) * e + 2.0 * e * e))
    lead = pair_sum / (N * (N - 1) * (2.0 * math.pi) ** (d / 2.0) * h ** d)
    return lead + 1.0 / (N * (4.0 * math.pi) ** (d / 2.0) * h ** d)


def ucv_grid(sample: EmbeddedSample) -> tuple[np.ndarray, int]:
    """The bracketing grid of ``ucv_bandwidth`` and the index of its best point."""
    h_plus = oversmoothed_bandwidth(sample)
    grid = np.geomspace(1e-6 * h_plus, h_plus, _GRID_POINTS)
    return grid, int(np.argmin([ucv_objective(sample, h) for h in grid]))


def example_sample(seed: int) -> EmbeddedSample:
    """The sample the nonparametric filter embeds for one example-model repeat."""
    cfg = example_config()
    traj = simulate(cfg.model, cfg.n_total, cfg.burn_in, seed)
    return embed(traj.x[:cfg.eval_window[1]], d=cfg.tau + 1, l=cfg.l)


class TestEmbed:
    def test_four_points_dim2(self):
        emb = embed(np.array([1.0, 2.0, 3.0, 4.0]), d=2, l=1)
        np.testing.assert_array_equal(emb.vectors, [[1, 2], [2, 3], [3, 4]])
        assert emb.N == 3

    def test_stride_two(self):
        emb = embed(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), d=2, l=2)
        np.testing.assert_array_equal(emb.vectors, [[1, 2], [3, 4]])
        assert emb.N == 2

    def test_count_formula(self):
        emb = embed(np.zeros(600), d=3, l=1)
        assert emb.N == 598

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            embed(np.array([1.0, 2.0]), d=3, l=1)

    def test_non_finite_series_rejected(self):
        # the UCV kernel would drop NaN distances instead of propagating them
        with pytest.raises(ValueError, match="finite"):
            embed(np.array([1.0, np.nan, 2.0, 3.0]), d=2, l=1)

    def test_two_dimensional_series_rejected(self):
        with pytest.raises(ValueError, match="^x must be a 1-D series$"):
            embed(np.ones((2, 10)), d=2, l=1)

    def test_vectors_without_coordinates_rejected(self):
        # the distance loop reads coordinate 0; a d = 0 sample has no kernel
        with pytest.raises(ValueError, match="d >= 1"):
            EmbeddedSample(np.ones((3, 0)))


class TestKdeEval:
    def test_single_kernel_at_center(self):
        sample = EmbeddedSample(vectors=np.array([[0.0]]))
        got = kde_eval(sample, 1.0, 0.0)
        assert got == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_symmetry_under_negation(self):
        sample = EmbeddedSample(vectors=np.array([[-1.3], [1.3]]))
        flipped = EmbeddedSample(vectors=-sample.vectors)
        h = 0.8
        assert kde_eval(sample, h, 0.0) == pytest.approx(kde_eval(flipped, h, 0.0), rel=1e-14)
        assert kde_eval(sample, h, 0.4) == pytest.approx(kde_eval(flipped, h, -0.4), rel=1e-14)

    def test_recovers_standard_normal(self):
        rng = np.random.default_rng(0)
        emb = embed(rng.standard_normal(1000), d=1, l=1)
        h = ucv_bandwidth(emb)
        ys = np.linspace(-3.0, 3.0, 61)
        errs = [abs(kde_eval(emb, h, y) - math.exp(-y * y / 2) / math.sqrt(2 * math.pi))
                for y in ys]
        assert max(errs) < 0.05

    def test_integrates_to_one_1d(self):
        sample = EmbeddedSample(vectors=np.array([[-0.7], [0.2], [2.5]]))
        total, _ = quad(lambda t: kde_eval(sample, 0.6, t), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_integrates_to_one_2d(self):
        rng = np.random.default_rng(3)
        sample = EmbeddedSample(vectors=rng.normal(size=(5, 2)))
        h = 0.7
        pts = sample.vectors
        nodes = 160
        total = 0.0
        # tensor Gauss-Legendre over a box padded by 8h around the data
        gx, gwx = np.polynomial.legendre.leggauss(nodes)
        lo = pts.min(axis=0) - 8 * h
        hi = pts.max(axis=0) + 8 * h
        xs = 0.5 * (hi[0] - lo[0]) * gx + 0.5 * (hi[0] + lo[0])
        ys = 0.5 * (hi[1] - lo[1]) * gx + 0.5 * (hi[1] + lo[1])
        wx = 0.5 * (hi[0] - lo[0]) * gwx
        wy = 0.5 * (hi[1] - lo[1]) * gwx
        for x, w1 in zip(xs, wx):
            row = sum(w2 * kde_eval(sample, h, (x, y)) for y, w2 in zip(ys, wy))
            total += w1 * row
        assert total == pytest.approx(1.0, abs=1e-6)


def lattice_from_pdist(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of ``kde._pair_lattice``, split pair by pair from scipy's ``pdist``.

    Pairs at distance 0 weigh on the point 0.0; a squared distance s > 0 between the lattice
    points p and q (the floats with the bits of s above ``kde._SHIFT``, and the next) puts
    (q - s) / (q - p) on p and (s - p) / (q - p) on q; points of no weight are left out.
    """
    s = pdist(vectors, "sqeuclidean")
    zeros, s = np.count_nonzero(s == 0.0), s[s > 0.0]
    idx = s.view(np.int64) >> kde._SHIFT
    lo = int(idx.min()) if s.size else 0
    p, q = (idx << kde._SHIFT).view(np.float64), ((idx + 1) << kde._SHIFT).view(np.float64)
    span = int(idx.max()) + 2 - lo if s.size else 0
    weights = (np.bincount(idx - lo, (q - s) / (q - p), minlength=span)
               + np.bincount(idx - lo + 1, (s - p) / (q - p), minlength=span))
    points = np.concatenate(([0.0], (np.arange(lo, lo + span) << kde._SHIFT).view(np.float64)))
    weights = np.concatenate(([zeros], weights))
    return points[weights != 0.0], weights[weights != 0.0]


class TestSortedSqDists:
    """The pairs' squared distances have the bits of scipy's ``pdist``, in its order, and their
    lattice is the pair-by-pair split of those distances; the class keeps the name of the sorted
    array of distances that the lattice replaced."""

    @staticmethod
    def assert_matches_pdist(vectors):
        N, want = vectors.shape[0], pdist(vectors, "sqeuclidean")
        blocks = list(_sq_dist_blocks(vectors))
        assert np.array_equal(np.concatenate([np.zeros(0), *blocks]), want[want > 0.0])
        points, weights = _pair_lattice(EmbeddedSample(vectors))
        want_points, want_weights = lattice_from_pdist(vectors)
        assert weights.sum() == pytest.approx(N * (N - 1) / 2, rel=1e-12, abs=0.0)
        assert np.array_equal(points, want_points)
        np.testing.assert_allclose(weights, want_weights, rtol=1e-12, atol=0.0)
        for k in (-200, -1, 3, 200):  # 2^k x: the same weights on the points times 4^k
            scaled_points, scaled_weights = _pair_lattice(EmbeddedSample(np.ldexp(vectors, k)))
            assert np.array_equal(scaled_weights, weights), k
            assert np.array_equal(scaled_points, np.ldexp(points, 2 * k)), k

    @pytest.mark.parametrize("d", range(1, 10))
    @pytest.mark.parametrize("N", [1, 2, 63, 64, 65, 129, 300])
    def test_normal_data(self, N, d):
        self.assert_matches_pdist(np.random.default_rng(1000 * N + d).standard_normal((N, d)))

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_delay_embeddings(self, d, l):
        x = np.random.default_rng(10 * d + l).standard_normal(400)
        self.assert_matches_pdist(embed(x, d=d, l=l).vectors)

    @pytest.mark.parametrize("d", [1, 2, 8, 9])
    def test_heavy_tailed_data_across_scales(self, d):
        rng = np.random.default_rng(d)
        scales = 10.0 ** rng.integers(-6, 6, size=(130, 1))
        self.assert_matches_pdist(rng.standard_cauchy((130, d)) * scales)

    def test_blocks_whose_pairs_are_all_tied(self, monkeypatch):
        # a constant tail gives blocks of pairs that are all at distance 0, so no distance
        monkeypatch.setattr(kde, "_PAIR_BLOCK", 64)
        x = np.concatenate([np.random.default_rng(5).standard_normal(40), np.full(60, 0.25)])
        vectors = embed(x, d=2).vectors
        assert any(block.size == 0 for block in _sq_dist_blocks(vectors))
        self.assert_matches_pdist(vectors)

    @pytest.mark.parametrize("N,d", [(2, 1), (17, 3), (63, 2), (64, 1), (65, 4), (200, 3),
                                     (598, 3)])
    def test_block_size_leaves_bits_unchanged(self, N, d, monkeypatch):
        # the distances keep their bits and order under any block size; only the lattice's
        # weights, summed block by block, may round differently
        vectors = np.random.default_rng(N + d).standard_normal((N, d))
        distances = np.concatenate([np.zeros(0), *_sq_dist_blocks(vectors)])
        points, weights = _pair_lattice(EmbeddedSample(vectors))
        monkeypatch.setattr(kde, "_PAIR_BLOCK", 64)
        assert np.array_equal(np.concatenate([np.zeros(0), *_sq_dist_blocks(vectors)]), distances)
        small_points, small_weights = _pair_lattice(EmbeddedSample(vectors))
        assert np.array_equal(small_points, points)
        np.testing.assert_allclose(small_weights, weights, rtol=1e-12, atol=0.0)


class TestUcvObjective:
    def test_two_point_case_matches_generic_form(self):
        for c in (0.5, 1.0, 2.3):
            sample = EmbeddedSample(vectors=np.array([[0.0], [c]]))
            got = ucv_objective(sample, 1.0)
            want = generic_ucv(sample.vectors, np.eye(1))
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_generic_form_on_random_samples(self, d):
        rng = np.random.default_rng(17 + d)
        for _ in range(7):
            N = rng.integers(4, 12)
            vectors = rng.normal(size=(N, d))
            h = rng.uniform(0.3, 1.5)
            sample = EmbeddedSample(vectors=vectors)
            got = ucv_objective(sample, h)
            want = generic_ucv(vectors, h * h * np.eye(d))
            assert got == pytest.approx(want, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        sample = embed(rng.standard_normal(80), d=2, l=1)
        shifted = EmbeddedSample(vectors=sample.vectors + 37.5)
        for h in (0.2, 0.7):
            assert ucv_objective(sample, h) == pytest.approx(
                ucv_objective(shifted, h), rel=1e-9)

    def test_interior_minimum_for_normal_data(self):
        rng = np.random.default_rng(4)
        sample = embed(rng.standard_normal(200), d=1, l=1)
        h_plus = oversmoothed_bandwidth(sample)
        grid = np.geomspace(1e-4 * h_plus, h_plus, 400)
        vals = [ucv_objective(sample, h) for h in grid]
        k = int(np.argmin(vals))
        assert 0 < k < len(grid) - 1

    def test_requires_two_vectors(self):
        sample = EmbeddedSample(vectors=np.array([[0.0]]))
        with pytest.raises(ValueError):
            ucv_objective(sample, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h", [1e160, 1e-120, 3e100, 2e-103])
    def test_h_outside_float_range_rejected(self, h):
        # 1e160 raised OverflowError from h ** 3 and 1e-120 ZeroDivisionError from h ** 3 = 0;
        # the range is oversmoothed_bandwidth's floor (h^3 stays normal) and its ceilings
        # (here N^2 (4 pi)^(3/2) h^3 stays finite), N = 598
        sample = embed(np.random.default_rng(0).standard_normal(600), d=3, l=1)
        lo = sys.float_info.min ** (1 / 3)
        hi = (sys.float_info.max / 598**2) ** (1 / 3) / math.sqrt(4 * math.pi)
        assert (lo, hi) == pytest.approx((2.81e-103, 2.24e100), rel=1e-2)
        message = rf" is outside \[2\.81e-103, 2\.24e\+100\], UCV's float range$"
        with pytest.raises(ValueError, match="^h " + re.escape(f"{h:.3g}") + message):
            ucv_objective(sample, h)
        for edge in (lo, hi):  # the range's own edges score as finite numbers
            assert math.isfinite(ucv_objective(sample, edge))

    def test_matches_two_exp_reference(self):
        sample = example_sample(0)
        sq = pdist(sample.vectors, "sqeuclidean")
        h_plus = oversmoothed_bandwidth(sample)
        for h in np.geomspace(1e-6 * h_plus, h_plus, 64):
            want = reference_ucv_score(sq, sample.N, sample.d, h)
            assert ucv_objective(sample, h) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lattice_score_stays_near_exact_score(self, seed):
        # from no overlap between kernels up to every pair overlapping (4 h_plus): the lattice
        # score stays within 1e-4 of the size of the exact score's terms (2.6e-5 seen at most)
        sample = example_sample(seed)
        N, d, sq = sample.N, sample.d, pdist(sample.vectors, "sqeuclidean")
        points, weights = _pair_lattice(sample)
        h_plus = oversmoothed_bandwidth(sample)
        for h in np.geomspace(1e-6 * h_plus, 4.0 * h_plus, 97):
            gap = _lattice_score(points, weights, N, d, h) - ucv_objective(sample, h)
            assert abs(gap) <= 1e-4 * ucv_size(sq, N, d, h), h


class TestOversmoothedBandwidth:
    def test_reference_value_1d(self):
        # 100 points, sample std exactly 1 -> (4/300)^(1/5)
        pts = np.tile([1.0, -1.0], 50) * math.sqrt(0.99)
        sample = EmbeddedSample(vectors=pts[:, None])
        assert oversmoothed_bandwidth(sample) == pytest.approx(0.42168460634274996, rel=1e-12)

    def test_reference_value_2d(self):
        # 50 points with per-coordinate sample stds (1, 2) -> (4/200)^(1/6) * 2
        base = np.tile([1.0, -1.0], 25) * math.sqrt(0.98)
        vectors = np.column_stack([base, 2.0 * base])
        sample = EmbeddedSample(vectors=vectors)
        assert oversmoothed_bandwidth(sample) == pytest.approx(1.0420014619173827, rel=1e-12)

    def test_scales_homogeneously(self):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(40, 2))
        sample = EmbeddedSample(vectors=vectors)
        scaled = EmbeddedSample(vectors=3.5 * vectors)
        assert oversmoothed_bandwidth(scaled) == pytest.approx(
            3.5 * oversmoothed_bandwidth(sample), rel=1e-12)

    def test_single_vector_rejected(self):
        with pytest.raises(ValueError, match="^need at least two embedded vectors$"):
            oversmoothed_bandwidth(EmbeddedSample(np.zeros((1, 3))))

    def test_constant_sample_rejected(self):
        sample = EmbeddedSample(vectors=np.full((10, 1), 2.0))
        with pytest.raises(ValueError):
            oversmoothed_bandwidth(sample)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_too_narrow_sample_rejected(self):
        # h_plus = 4.39e-111: from the grid bottom 1e-6 h_plus, UCV's h^3 would underflow
        sample = embed(1e-110 * np.random.default_rng(0).standard_normal(300), d=3, l=1)
        message = r"^h_plus 4\.39e-111 is below 2\.81e-97, where UCV's 1/h\^3 overflows$"
        with pytest.raises(ValueError, match=message):
            oversmoothed_bandwidth(sample)


    @pytest.mark.parametrize("d, scale", [(3, 1e104), (3, 1e110), (1, 1e155), (1, 1e160)])
    def test_too_wide_series_rejected(self, d, scale):
        # 1e104 with d = 3 gave h/s = 0.0045 for 0.388 after overflow warnings; 1e110 and the
        # d = 1 scales ended in "h must be positive and finite, got inf"
        x = scale * np.random.default_rng(0).standard_normal(600)
        with pytest.raises(ValueError, match="^h_plus .* is above .*, where UCV's arithmetic"):
            ucv_bandwidth(embed(x, d=d, l=1))

    def test_underflowed_spread_is_below_the_floor_not_constant(self):
        # every squared deviation of 2^-600 x underflows to 0, so sigma is 0.0
        x = np.ldexp(np.random.default_rng(0).standard_normal(600), -600)
        with pytest.raises(ValueError, match=r"^h_plus 0 is below .*, where UCV's 1/h\^2"):
            oversmoothed_bandwidth(embed(x, d=1, l=1))
        with pytest.raises(ValueError, match="^degenerate sample"):
            oversmoothed_bandwidth(embed(np.full(600, np.ldexp(1.0, -600)), d=1, l=1))


def outlier_series(n: int) -> np.ndarray:
    """Standard normals, about one in twenty of them scaled by 1e3."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    x[rng.random(n) < 0.05] *= 1e3
    return x


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n, d", [(600, 1), (4, 2), (300, 2), (600, 3), (40, 8)])
def test_bandwidth_scales_by_every_power_of_two_or_refuses(n, d):
    # Scaling x by 2^k is exact, so h must scale with it until oversmoothed_bandwidth
    # refuses h_plus.  Unchecked, d = 3 moved by 1.5e-2 h_plus for k in [334, 497], d = 8
    # for k in [117, 500] and d = 1 for k <= -521, after overflow or underflow warnings.
    x = outlier_series(n)
    sample = embed(x, d=d, l=1)
    h0, h_plus0 = ucv_bandwidth(sample), oversmoothed_bandwidth(sample)
    with np.errstate(over="ignore"):
        exact = [k for k in range(-1100, 1100) if np.isfinite(y := np.ldexp(x, k)).all()
                 and np.array_equal(np.ldexp(y, -k), x)]
    outcomes = set()
    for k in exact:
        try:
            h = ucv_bandwidth(embed(np.ldexp(x, k), d=d, l=1))
        except ValueError as exc:
            assert str(exc).startswith("h_plus "), (k, exc)
            outcomes.add("refused")
            continue
        assert abs(math.ldexp(h, -k) - h0) <= 1e-12 * h_plus0, k
        outcomes.add("scaled")
    assert outcomes == {"refused", "scaled"}


class TestUcvBandwidth:
    def test_clustered_data_prefers_smaller_h(self):
        rng = np.random.default_rng(21)
        x = np.concatenate([rng.normal(-8.0, 0.5, 150), rng.normal(8.0, 0.5, 150)])
        sample = embed(rng.permutation(x), d=1, l=1)
        assert ucv_bandwidth(sample) < oversmoothed_bandwidth(sample)

    def test_matches_dense_grid_scan(self):
        rng = np.random.default_rng(6)
        sample = embed(rng.standard_normal(150), d=1, l=1)
        h_ucv = ucv_bandwidth(sample)
        h_plus = oversmoothed_bandwidth(sample)
        score = partial(reference_ucv_score, pdist(sample.vectors, "sqeuclidean"), sample.N, 1)
        grid = np.geomspace(1e-6 * h_plus, h_plus, 10_000)
        assert score(h_ucv) <= min(map(score, grid)) + 1e-6

    @staticmethod
    def series(kind: str, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 300))
        if kind == "tied":
            return np.round(2.0 * rng.standard_normal(n))
        if kind == "two modes":
            return rng.permutation(np.concatenate([rng.normal(-1e3, 1.0, n // 2),
                                                   rng.normal(1e3, 1.0, n - n // 2)]))
        if kind == "heavy tails":
            return rng.standard_cauchy(n)
        if kind == "scaled":
            return np.ldexp(rng.standard_normal(n), int(rng.integers(-200, 201)))
        return rng.standard_normal(n)

    @pytest.mark.parametrize("kind", ["normal", "tied", "two modes", "heavy tails", "scaled"])
    def test_lattice_search_stays_within_brent_tolerance_of_exact_search(self, kind):
        # on the grid the lattice score stays within 1e-4 of the size of the exact score's terms
        # (2.6e-5 seen at most), and h within Brent's tolerance 1e-4 h_plus of the same search
        # on the exact score (4.8e-6 h_plus seen at most)
        for seed, d in itertools.product(range(6), range(1, 5)):
            sample = embed(self.series(kind, seed), d=d, l=1)
            N, sq = sample.N, pdist(sample.vectors, "sqeuclidean")
            h_plus = oversmoothed_bandwidth(sample)
            grid = np.geomspace(1e-6 * h_plus, h_plus, _GRID_POINTS)
            scores = [ucv_objective(sample, h) for h in grid]
            lattice = partial(_lattice_score, *_pair_lattice(sample), N, d)
            for h, score in zip(grid, scores):
                assert abs(lattice(h) - score) <= 1e-4 * ucv_size(sq, N, d, h), (seed, d, h)
            k = int(np.argmin(scores))
            cell = grid[max(k - 1, 0)], grid[min(k + 1, _GRID_POINTS - 1)]
            h = min(_brent(partial(ucv_objective, sample), *cell, tol=1e-4 * h_plus), h_plus)
            assert abs(ucv_bandwidth(sample) - h) <= 1e-4 * h_plus, (seed, d)

    @pytest.mark.parametrize("steps, mib", [(600, 1.87), (4800, 2.0)])
    def test_fit_memory_peak_does_not_grow_with_the_pairs(self, steps, mib):
        # the lattice is built in blocks of pairs, so a fit's tracemalloc peak stays about
        # 0.65 MiB where the sorted distances of the N (N - 1) / 2 pairs took 1.87 MiB at 600
        # steps and would take 88 MiB at 4,800
        cfg = example_config()
        sample = embed(simulate(cfg.model, steps, cfg.burn_in, 4).x, d=cfg.tau + 1, l=cfg.l)
        tracemalloc.start()
        try:
            ucv_bandwidth(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_no_gap_to_dense_grid_over_bracket_cell(self, seed):
        sample = example_sample(seed)
        assert sample.d == 3
        grid, k = ucv_grid(sample)
        cell = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, _GRID_POINTS - 1)], 2000)
        score = partial(reference_ucv_score, pdist(sample.vectors, "sqeuclidean"), sample.N, 3)
        assert score(ucv_bandwidth(sample)) <= min(map(score, cell)) + 1e-6

    @pytest.mark.parametrize("x, k", [
        (np.round(2.0 * np.random.default_rng(0).standard_normal(200)), 0),  # tied values
        (np.random.default_rng(0).standard_normal(30), _GRID_POINTS - 1),
        (np.random.default_rng(1).uniform(size=100), _GRID_POINTS - 1),
    ])
    def test_grid_minimum_on_edge_stays_in_edge_cell(self, x, k):
        sample = embed(x, d=1, l=1)
        grid, k_got = ucv_grid(sample)
        assert k_got == k
        h = ucv_bandwidth(sample)
        assert grid[max(k - 1, 0)] <= h <= grid[min(k + 1, _GRID_POINTS - 1)]
        assert h <= oversmoothed_bandwidth(sample)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_too_narrow_series_rejected_and_wider_one_scales(self):
        # unchecked, 1e-110 gives h/s = 5.3e-7 with only overflow warnings; 1e-90 clears the floor
        x = np.random.default_rng(0).standard_normal(300)
        with pytest.raises(ValueError, match="^h_plus .* is below"):
            ucv_bandwidth(embed(1e-110 * x, d=3, l=1))
        h = ucv_bandwidth(embed(1e-90 * x, d=3, l=1))
        assert h / 1e-90 == pytest.approx(0.43903354446495685, rel=1e-12)

    def test_translation_leaves_selection_unchanged(self):
        rng = np.random.default_rng(13)
        sample = embed(rng.standard_normal(120), d=2, l=1)
        shifted = EmbeddedSample(vectors=sample.vectors + 11.0)
        h1 = ucv_bandwidth(sample)
        h2 = ucv_bandwidth(shifted)
        assert h1 == pytest.approx(h2, rel=1e-9)


class TestBrent:
    """Edge cases of the 1-D minimiser behind ``ucv_bandwidth``."""

    CASES = [
        # f, a, b, the set of minimisers as [lo, hi]
        (lambda x: (x - 0.3) ** 2, -1.0, 2.0, (0.3, 0.3)),
        (lambda x: 2.0 + (x - 1.7) ** 2, 1.0, 5.0, (1.7, 1.7)),
        (lambda x: (x - 0.25) ** 4, 0.0, 1.0, (0.25, 0.25)),
        (lambda x: max(abs(x - 0.5) - 0.2, 0.0), 0.0, 1.0, (0.3, 0.7)),  # flat bottom
        (lambda x: abs(x - 0.61), 0.0, 1.0, (0.61, 0.61)),
        (lambda x: x, 0.2, 0.9, (0.2, 0.2)),  # one-sided: minimum on an end
        (lambda x: -math.exp(x), -1.0, 3.0, (3.0, 3.0)),
        (lambda x: math.log(x), 1e-6, 1e-5, (1e-6, 1e-6)),
    ]

    @staticmethod
    def recorded(f):
        seen = []

        def g(x):
            seen.append((x, f(x)))
            return seen[-1][1]

        return g, seen

    @pytest.mark.parametrize("tol_frac", [1e-4, 1e-2])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_finds_minimum_inside_bracket(self, case, tol_frac):
        f, a, b, (lo, hi) = self.CASES[case]
        tol = tol_frac * (b - a)
        g, seen = self.recorded(f)
        x = _brent(g, a, b, tol)
        assert lo - tol <= x <= hi + tol
        assert all(a <= u <= b for u, _ in seen)
        assert len(seen) <= _MAX_ITER
        assert f(x) == min(v for _, v in seen)  # the best point evaluated

    @staticmethod
    def noise(seed):
        rng, values = np.random.default_rng(seed), {}
        return lambda x: values.setdefault(x, rng.standard_normal())

    @pytest.mark.parametrize("cap", [1, 2, 7])
    def test_evaluation_cap(self, cap, monkeypatch):
        # white noise needs 17-39 evaluations to shrink [0, 1] to tol = 0
        monkeypatch.setattr(kde, "_MAX_ITER", cap)
        g, seen = self.recorded(self.noise(cap))
        x = _brent(g, 0.0, 1.0, tol=0.0)
        assert len(seen) == cap
        assert all(0.0 <= u <= 1.0 for u, _ in seen)
        assert x == min(seen, key=lambda p: p[1])[0]


class TestConditionalWeights:
    def test_uniform_when_candidates_identical(self):
        x = np.full(30, 1.5)
        beta = conditional_weights(x, n=30, tau=1, l=1, h=0.5)
        N = 1 + (29 - 2) // 1
        np.testing.assert_allclose(beta, np.full(N, 1.0 / N), atol=1e-14)

    def test_concentrates_on_exact_match_as_h_vanishes(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=40)
        x[20:22] = x[37:39]  # candidate window 21 replays the query window
        beta = conditional_weights(x, n=40, tau=2, l=1, h=1e-3)
        assert np.argmax(beta) == 20
        assert beta[20] > 0.999

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=60)
        n, tau, l, h = 60, 2, 1, 0.5
        beta = conditional_weights(x, n, tau, l, h)
        xs = x[:n - 1]
        N = 1 + (len(xs) - (tau + 1)) // l
        raw = np.empty(N)
        for i in range(1, N + 1):  # 1-based candidate index
            sq = 0.0
            for j in range(-tau, 0):
                sq += (xs[(n + j) - 1] - xs[(i - 1) * l + j + tau + 1 - 1]) ** 2
            raw[i - 1] = math.exp(-sq / (2 * h * h))
        np.testing.assert_allclose(beta, raw / raw.sum(), atol=1e-12)

    def test_stride_matches_naive_formula(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=61)
        n, tau, l, h = 61, 3, 2, 0.8
        beta = conditional_weights(x, n, tau, l, h)
        xs = x[:n - 1]
        N = 1 + (len(xs) - (tau + 1)) // l
        assert beta.shape == (N,)
        raw = np.empty(N)
        for i in range(1, N + 1):
            sq = sum((xs[(n + j) - 1] - xs[(i - 1) * l + j + tau]) ** 2
                     for j in range(-tau, 0))
            raw[i - 1] = math.exp(-sq / (2 * h * h))
        np.testing.assert_allclose(beta, raw / raw.sum(), atol=1e-12)

    def test_window_view_is_bit_identical_to_fancy_index(self):
        # the windows were once gathered by a fancy index; beta must not move a bit
        # (tau < 8: numpy's row sum is sequential there, as the strided slices are)
        x = np.random.default_rng(17).normal(size=200)
        grid = [(n, tau, l) for tau in range(1, 6) for l in range(1, 4)
                for n in range(tau + 3, 201, 13)]
        for n, tau, l in grid + [(5, 1, 1), (6, 2, 3), (40, 2, 1), (41, 3, 2), (120, 1, 4),
                                 (200, 2, 1), (200, 5, 3), (199, 4, 7)]:
            xs = x[:n - 1]
            N = 1 + (xs.shape[0] - (tau + 1)) // l
            windows = xs[l * np.arange(N)[:, None] + np.arange(tau)[None, :]]
            log_w = -np.sum((windows - xs[n - 1 - tau:n - 1]) ** 2, axis=1) / (2.0 * 0.3 * 0.3)
            log_w -= log_w.max()
            w = np.exp(log_w)
            assert np.array_equal(conditional_weights(x, n, tau, l, 0.3), w / w.sum())

    def test_huge_distances_stay_finite(self):
        x = np.concatenate([np.zeros(20), [1e4], np.zeros(9)])
        beta = conditional_weights(x, n=30, tau=2, l=1, h=0.1)
        assert np.all(np.isfinite(beta))
        assert np.all(beta >= 0.0) and np.all(beta <= 1.0)
        assert beta.sum() == pytest.approx(1.0, abs=1e-12)

    def test_requires_enough_history(self):
        with pytest.raises(ValueError):
            conditional_weights(np.zeros(10), n=3, tau=2, l=1, h=0.5)

    @pytest.mark.parametrize("x", [np.float64(1.0), np.zeros((1, 1, 50))], ids=["0-d", "3-d"])
    def test_x_of_rank_0_or_3_rejected(self, x):
        # a 0-d x raised an IndexError; a (1, 1, 50) x returned (1, 1, 7) weights
        message = r"^need x of shape \(n,\) or \(R, n\).*got x of shape " + re.escape(str(x.shape))
        with pytest.raises(ValueError, match=message):
            conditional_weights(x, 6, 2, 1, 0.5)
        with pytest.raises(ValueError, match=message):
            embedding_heads(x, 6, 2, 1)


def test_embedding_heads_align_with_weights():
    rng = np.random.default_rng(19)
    x = rng.normal(size=50)
    for l in (1, 2, 3):
        n, tau = 50, 2
        heads = embedding_heads(x, n, tau, l)
        beta = conditional_weights(x, n, tau, l, h=0.5)
        assert heads.shape == beta.shape
        xs = x[:n - 1]
        want = [xs[(i - 1) * l + tau] for i in range(1, len(beta) + 1)]
        np.testing.assert_array_equal(heads, want)


@pytest.mark.parametrize("length", [30, 50])
def test_embedding_heads_raise_where_weights_raise(length):
    # heads once read past the series' end (48 heads for n = 100 of 50 values), returned
    # 0 heads for l = -1 and 39 for tau = 0, and divided by zero for l = 0
    x = np.random.default_rng(22).standard_normal(length)
    outcomes = set()
    for tau, l in itertools.product(range(6), range(-1, 4)):
        for n in range(tau + 2, length + 4):
            try:
                N = conditional_weights(x, n, tau, l, 0.5).shape[0]
            except ValueError:
                with pytest.raises(ValueError):
                    embedding_heads(x, n, tau, l)
                outcomes.add("raised")
                continue
            assert embedding_heads(x, n, tau, l).shape == (N,), (n, tau, l)
            outcomes.add("returned")
    assert outcomes == {"raised", "returned"}


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0, True, "0.5", [0.5],
                                 np.array([0.5])])
def test_weights_and_ucv_reject_bandwidth_outside_its_domain(bad):
    # an infinite h once gave 37 equal weights and a UCV score of 0.0, with no error;
    # a run pinned to it would return near-uniform predictive rows.  h = True once ran as
    # 1.0, and h = "0.5" raised a TypeError from comparing a float with a str
    x = np.random.default_rng(23).standard_normal(50)
    if np.ndim(bad) > 0:  # a block's h elsewhere; UCV scores one h, where [0.5] once raised
        # a TypeError and np.array([0.5]) returned a one-element array
        with pytest.raises(ValueError, match=r"^h must be a scalar, got shape \(1,\)$"):
            ucv_objective(embed(x, 3), bad)
        return
    message = "^h must be positive and finite"
    for mode in MODES:  # refused even where no filter reads h
        with pytest.raises(ValueError, match=message):
            run_filters([x], example_config().model, eval_start=40, h=bad, mode=mode)
    with pytest.raises(ValueError, match=message):
        conditional_weights(x, 40, 2, 1, bad)
    if bad is not True:  # numpy reads [[0.5], [True]] as the floats [[0.5], [1.0]]
        with pytest.raises(ValueError, match=message):  # one bad entry of a block's (R, 1) h
            conditional_weights(np.vstack([x, x]), 40, 2, 1, np.array([[0.5], [bad]]))
    with pytest.raises(ValueError, match=message):
        ucv_objective(embed(x, 3), bad)
