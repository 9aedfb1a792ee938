import hashlib
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from hmmar.model import (ArStateParams, SwitchingArModel, Trajectory,
                         TransitionMatrix, model_from_dict, simulate,
                         stationary_distribution)
from example_model import EXAMPLE_P, example_model
from simulate_reference import reference_simulate

# solved by hand from pi P = pi, sum(pi) = 1
EXAMPLE_PI = np.array([5.0, 8.0, 6.0]) / 19.0


class TestTransitionMatrix:
    def test_valid(self):
        t = TransitionMatrix(EXAMPLE_P)
        assert t.M == 3

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            TransitionMatrix([[0.5, 0.5]])

    def test_rejects_no_states(self):
        with pytest.raises(ValueError, match="^transition matrix must have at least one state$"):
            TransitionMatrix(np.zeros((0, 0)))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            TransitionMatrix([[0.6, 0.40001], [0.5, 0.5]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            TransitionMatrix([[1.2, -0.2], [0.5, 0.5]])


class TestArStateParams:
    def test_order(self):
        assert ArStateParams(0.0, [0.1, 0.2], 1.0).p == 2

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            ArStateParams(0.0, [0.1], 0.0)

    def test_rejects_noise_scale_with_underflowing_square(self):
        with pytest.raises(ValueError, match="^b must have a nonzero square"):
            ArStateParams(0.0, [0.1], 1e-200)
        assert ArStateParams(0.0, [0.1], 1e-160).b == 1e-160

    def test_rejects_noise_scale_with_overflowing_square(self):
        # b = 1e160 is finite, but b^2 overflows to an infinite emission variance
        with pytest.raises(ValueError, match=r"^b must have a nonzero square that is finite.*1e\+160"):
            ArStateParams(0.0, [0.1], 1e160)
        assert ArStateParams(0.0, [0.1], 1e150).b == 1e150

    @pytest.mark.parametrize("field,mu,a,b", [
        ("mu", np.nan, [0.1], 1.0),
        ("mu", np.inf, [0.1], 1.0),
        ("a", 0.0, [np.inf, 0.1], 1.0),
        ("a", 0.0, [0.1, np.nan], 1.0),
        ("b", 0.0, [0.1], np.inf),
        ("b", 0.0, [0.1], np.nan),
    ])
    def test_rejects_non_finite(self, field, mu, a, b):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ArStateParams(mu, a, b)


class TestSwitchingArModel:
    def test_state_count_must_match(self):
        with pytest.raises(ValueError):
            SwitchingArModel(TransitionMatrix(EXAMPLE_P),
                             [ArStateParams(0.0, [0.1], 1.0)] * 2)

    def test_orders_must_agree(self):
        with pytest.raises(ValueError):
            SwitchingArModel(TransitionMatrix([[0.5, 0.5], [0.5, 0.5]]),
                             [ArStateParams(0.0, [0.1], 1.0),
                              ArStateParams(0.0, [0.1, 0.2], 1.0)])


@pytest.mark.parametrize("name,build", [
    ("mu", lambda: ArStateParams("0.5", [0.1], 0.1)),
    ("b", lambda: ArStateParams(0.5, [0.1], True)),
    ("a", lambda: ArStateParams(0.5, ["0.1"], 0.1)),
    ("a", lambda: ArStateParams(0.5, [True, 0.1], 0.1)),
    ("transition", lambda: TransitionMatrix([["0.5", "0.5"], ["0.5", "0.5"]])),
    ("transition", lambda: TransitionMatrix([[True, False], [False, True]])),
], ids=["mu-text", "b-bool", "a-text", "a-bool", "transition-text", "transition-bool"])
def test_constructors_reject_non_numbers(name, build):
    """The library types hold the document's number rule: no strings, no bools."""
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build()


class TestStationaryDistribution:
    def test_uniform_rows(self):
        t = TransitionMatrix(np.full((4, 4), 0.25))
        np.testing.assert_allclose(stationary_distribution(t), np.full(4, 0.25), atol=1e-12)

    def test_example_matrix(self):
        pi = stationary_distribution(TransitionMatrix(EXAMPLE_P))
        np.testing.assert_allclose(pi, EXAMPLE_PI, atol=1e-10)
        np.testing.assert_allclose(pi @ EXAMPLE_P, pi, atol=1e-10)

    def test_reducible_chain_rejected(self):
        # the second has the unique stationary distribution (0, 1, 0), but state 2
        # reaches neither other state: the rule is reachability, not uniqueness
        for p in ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0, 0.0]] * 3):
            with pytest.raises(ValueError, match="^chain is reducible: some state cannot "
                                                 "reach another$"):
                stationary_distribution(TransitionMatrix(p))

    def test_periodic_chain_converges(self):
        # period-2 chain still has a unique stationary distribution
        pi = stationary_distribution(TransitionMatrix([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-10)

    def test_sticky_chain(self):
        # 10,000 power-iteration steps did not reach a 1e-13 step on this chain
        pi = stationary_distribution(TransitionMatrix([[0.999, 0.001], [0.002, 0.998]]))
        np.testing.assert_allclose(pi, [2.0 / 3.0, 1.0 / 3.0], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("eps", [1e-13, 1e-15, 1e-17])
    def test_switching_below_the_resolution_of_the_diagonal(self, eps):
        # 1 - p[i, i] keeps at most a few digits of eps (none at 1e-17, where p[i, i] == 1.0);
        # the off-diagonal entries keep all of them, and no pivot may be taken from the diagonal
        for P, expected in (([[1.0 - eps, eps], [eps, 1.0 - eps]], [0.5, 0.5]),
                            ([[1.0 - eps, eps], [2.0 * eps, 1.0 - 2.0 * eps]], [2 / 3, 1 / 3])):
            pi = stationary_distribution(TransitionMatrix(P))
            np.testing.assert_allclose(pi, expected, rtol=1e-14, atol=0.0)

    @staticmethod
    def balance_solve(P):
        """Stationary distribution by one LAPACK solve of the balance equations pi (P - I) = 0,
        the last replaced by sum(pi) = 1 (they sum to zero); the diagonal of P - I is minus
        each row's off-diagonal sum, as 1 - p[i, i] would cancel digits on sticky chains."""
        M = len(P)
        off = np.where(np.eye(M, dtype=bool), 0.0, P)
        A = off.T - np.diag(off.sum(axis=1))
        A[-1] = 1.0
        return np.linalg.solve(A, np.eye(M)[-1])

    def test_balance_solve_oracle_solves_the_example(self):
        np.testing.assert_allclose(self.balance_solve(EXAMPLE_P), EXAMPLE_PI, rtol=1e-14)

    def test_random_sticky_chains_satisfy_balance_equations(self):
        """1,500 irreducible chains, M 2-8, each row switching with probability between
        s/2 and s for s log-uniform on [2e-9, 0.5]: from 0.5 down to 1e-9."""
        rng = np.random.default_rng(14)
        for _ in range(1500):
            M = int(rng.integers(2, 9))
            support = rng.random((M, M)) < rng.uniform(0.2, 1.0)
            support[np.arange(M), (np.arange(M) + 1) % M] = True  # a cycle through every state
            np.fill_diagonal(support, False)
            w = np.where(support, rng.uniform(0.5, 1.0, (M, M)), 0.0)
            s = 10.0 ** rng.uniform(np.log10(2e-9), np.log10(0.5))
            switch = s * rng.uniform(0.5, 1.0, (M, 1))
            P = switch * w / w.sum(axis=1, keepdims=True)
            P[np.arange(M), np.arange(M)] = 1.0 - P.sum(axis=1)
            pi = stationary_distribution(TransitionMatrix(P))
            assert pi.min() >= 0.0
            assert abs(pi.sum() - 1.0) <= 1e-15
            assert np.abs(pi @ P - pi).sum() <= 1e-14
            np.testing.assert_allclose(pi, self.balance_solve(P), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("P,expected", [
        # dividing by these exits instead of into them overflowed: pi came out [0, 0, nan]
        ([[0.5, 0.5, 0.0], [1e-160, 0.5, 0.5], [0.0, 1e-160, 1.0]], [4e-320, 2e-160, 1.0]),
        ([[0.5, 0.5], [1e-309, 1.0]], [2e-309, 1.0]),
        # censoring state 3 rounds state 2's way to state 1 (1e-200 * 1e-200) to 0: a zero pivot
        ([[0.5, 0.5, 0.0], [0.0, 1.0, 1e-200], [1e-200, 1.0, 0.0]], [0.0, 1.0, 1e-200]),
    ], ids=["1e-160", "1e-309", "zero-pivot"])
    def test_exits_below_the_float_range(self, P, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pi = stationary_distribution(TransitionMatrix(P))
        np.testing.assert_allclose(pi, expected, rtol=1e-14, atol=1e-322)

    def test_chain_split_by_rounding_rejected(self):
        # states 1 and 2 reach each other only through 5e-324 * 0.5, which rounds to 0
        P = [[1.0, 0.0, 5e-324], [0.0, 1.0, 5e-324], [0.5, 0.5, 0.0]]
        with pytest.raises(ValueError, match="reducible in float arithmetic at state 2"):
            stationary_distribution(TransitionMatrix(P))

    def test_random_chains_spanning_the_float_range(self):
        """2,000 irreducible chains, M 2-6, off-diagonal entries log-uniform down to 1e-5,
        1e-50, 1e-150, 1e-300 or 1e-320: no warning, and each state's inflow matches its
        outflow to 1e-13 of the total flow."""
        rng = np.random.default_rng(141)
        for _ in range(2000):
            M = int(rng.integers(2, 7))
            lowest = rng.choice([-5.0, -50.0, -150.0, -300.0, -320.0])
            off = 10.0 ** rng.uniform(lowest, 0.0, (M, M)) * (rng.random((M, M)) < 0.6)
            off[np.arange(M), (np.arange(M) + 1) % M] = 10.0 ** rng.uniform(lowest, 0.0, M)
            np.fill_diagonal(off, 0.0)
            off *= 0.5 / np.maximum(off.sum(axis=1, keepdims=True), 0.5)
            P = off + np.diag(1.0 - off.sum(axis=1))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pi = stationary_distribution(TransitionMatrix(P))
            assert pi.min() >= 0.0 and abs(pi.sum() - 1.0) <= 1e-15
            outflow = pi * off.sum(axis=1)
            assert np.abs(pi @ off - outflow).sum() <= 1e-13 * outflow.sum()

    def test_model_caches_same_bits_read_only(self):
        model = example_model()
        pi = model.stationary
        assert pi is model.stationary
        assert np.array_equal(pi, stationary_distribution(model.transition))
        assert not pi.flags.writeable

    def test_reducible_chain_rejected_through_model(self):
        # refused when built, not later in simulate: every model that exists can be started
        same = ArStateParams(0.0, [0.1], 1.0)
        with pytest.raises(ValueError, match="^transition: chain is reducible: some state "
                                             "cannot reach another$"):
            SwitchingArModel(TransitionMatrix(np.eye(2)), [same, same])

    @staticmethod
    def support_patterns(M):
        """Every M x M support with nonempty rows for M <= 3, else 400 seeded random ones."""
        if M <= 3:
            for bits in itertools.product([False, True], repeat=M * M):
                support = np.array(bits).reshape(M, M)
                if support.any(axis=1).all():
                    yield support
            return
        rng = np.random.default_rng(M)
        for density in np.linspace(0.05, 0.6, 400):
            support = rng.random((M, M)) < density
            support[np.arange(M), rng.integers(0, M, size=M)] = True
            yield support

    @pytest.mark.parametrize("M", range(1, 9))
    def test_reducible_exactly_when_scipy_finds_several_components(self, M):
        verdicts = []
        for support in self.support_patterns(M):
            P = support / support.sum(axis=1, keepdims=True)
            n_comp, _ = connected_components(csr_matrix(support), directed=True,
                                             connection="strong")
            if n_comp > 1:
                with pytest.raises(ValueError, match="reducible"):
                    stationary_distribution(TransitionMatrix(P))
            else:
                pi = stationary_distribution(TransitionMatrix(P))
                np.testing.assert_allclose(pi @ P, pi, atol=1e-10)
            verdicts.append(n_comp > 1)
        assert len(verdicts) == ((2 ** M - 1) ** M if M <= 3 else 400)
        assert set(verdicts) == ({False} if M == 1 else {False, True})


# The models whose trajectory bytes are pinned below.
PINNED_MODELS = {
    "example": example_model,
    "two_state_p1": lambda: SwitchingArModel(
        TransitionMatrix([[0.9, 0.1], [0.2, 0.8]]),
        [ArStateParams(0.0, [0.5], 0.3), ArStateParams(1.0, [-0.3], 0.5)]),
    "four_state_p3": lambda: SwitchingArModel(
        TransitionMatrix([[0.7, 0.1, 0.1, 0.1], [0.0, 0.5, 0.5, 0.0],
                          [0.25, 0.25, 0.25, 0.25], [0.3, 0.0, 0.0, 0.7]]),
        [ArStateParams(0.0, [0.1, 0.2, 0.3], 0.1), ArStateParams(0.5, [0.2, 0.3, -0.1], 0.2),
         ArStateParams(1.0, [0.1, 0.4, 0.0], 0.1), ArStateParams(-1.0, [0.0, 0.0, 0.5], 0.4)]),
}
# (name, n, burn_in, seed, s_sha256, x_sha256): digests of s (little-endian int64) and x
# (little-endian float64) of simulate(PINNED_MODELS[name](), n, burn_in, seed)
PINNED_RUNS = [
    ("example", 5000, 100, 3,
     "e83a6c9476c4bf5ccb442deb490113204c4c81b2251abacf97add3509069af99",
     "4dbf3df468540a99d8bb38ea8c167d8d510d8ffbfad2b09f149b34b97eff11bb"),
    ("two_state_p1", 3000, 0, 91,
     "4072258a26acb5b4e436bc0819bcf45dfc8cf4e3dc634a4d07f27d6dd71dfb71",
     "3a10a95d2ab7008500bbaab348d9cee84b4a8f4fd34b39ef8423a7ac8cef2547"),
    ("four_state_p3", 4000, 20, 12345,
     "8a99af5bd6ebd471baccbdd81d3da5a5209a573e6d690885802393b5710c0604",
     "db43a653c4e94208d25bdb5dbb9ed773efc81cd8be97ebfce1f3fe43ad0a387a"),
]

# Hashes simulate's (s, x) bytes for each pickled (model, n, burn_in, seed) read from stdin.
_HASH_CHILD = """
import hashlib, pickle, sys
from hmmar.model import simulate
for model, n, burn_in, seed in pickle.load(sys.stdin.buffer):
    traj = simulate(model, n, burn_in, seed)
    print(hashlib.sha256(traj.s.astype("<i8").tobytes() + traj.x.astype("<f8").tobytes()).hexdigest())
"""


class TestSimulate:
    def test_deterministic_given_seed(self):
        model = example_model()
        t1 = simulate(model, 500, burn_in=100, rng_seed=42)
        t2 = simulate(model, 500, burn_in=100, rng_seed=42)
        assert np.array_equal(t1.s, t2.s)
        assert np.array_equal(t1.x, t2.x)
        t3 = simulate(model, 500, burn_in=100, rng_seed=43)
        assert not np.array_equal(t1.x, t3.x)

    def test_noise_free_limit_tracks_state(self):
        # a = 0 and b ~ 0 makes the observation equal the state label
        model = SwitchingArModel(
            TransitionMatrix([[0.7, 0.3], [0.4, 0.6]]),
            [ArStateParams(1.0, [0.0, 0.0], 1e-12),
             ArStateParams(2.0, [0.0, 0.0], 1e-12)],
        )
        traj = simulate(model, 2000, burn_in=10, rng_seed=1)
        assert np.max(np.abs(traj.x - traj.s)) < 1e-6

    def test_single_state_mean_obeys_lln(self):
        model = SwitchingArModel(
            TransitionMatrix([[1.0]]),
            [ArStateParams(0.0, [0.0], 1.0)],
        )
        n = 100_000
        traj = simulate(model, n, burn_in=0, rng_seed=3)
        assert abs(traj.x.mean()) < 3.0 / np.sqrt(n)

    def test_first_state_follows_the_stationary_law(self):
        # the chain's only start: S_1 over 4,000 seeds, within 4 binomial sds of each pi_m
        model, seeds = example_model(), 4000
        first = [simulate(model, 1, burn_in=0, rng_seed=s).s[0] for s in range(seeds)]
        freq = np.bincount(first, minlength=4)[1:] / seeds
        sd = np.sqrt(EXAMPLE_PI * (1.0 - EXAMPLE_PI) / seeds)
        assert np.all(np.abs(freq - EXAMPLE_PI) <= 4.0 * sd), (freq, EXAMPLE_PI)

    def test_example_state_occupancy_near_stationary(self):
        traj = simulate(example_model(), 100_000, burn_in=100, rng_seed=7)
        freq = np.bincount(traj.s, minlength=4)[1:] / len(traj)
        np.testing.assert_allclose(freq, EXAMPLE_PI, atol=0.02)

    def test_residuals_standard_normal_for_forced_state(self):
        # a one-state chain sits in the example's state 2 forever
        model = SwitchingArModel(TransitionMatrix([[1.0]]), states=[example_model().states[1]])
        traj = simulate(model, 100_000, burn_in=100, rng_seed=11)
        assert np.all(traj.s == 1)
        mu, a, b = 0.5, np.array([0.2, 0.3]), 0.2
        x = traj.x
        pred = mu + a[0] * (x[1:-1] - mu) + a[1] * (x[:-2] - mu)
        resid = (x[2:] - pred) / b
        assert abs(resid.mean()) < 0.02
        assert abs(resid.var() - 1.0) < 0.05

    @pytest.mark.parametrize("seed", range(20))
    def test_shorter_series_is_a_prefix(self, seed):
        """A run may simulate only the steps it filters: n changes no earlier step."""
        model = example_model()
        for n, longer, burn_in in ((600, 900, 100), (37, 5000, 0)):
            short, long_ = simulate(model, n, burn_in, seed), simulate(model, longer, burn_in, seed)
            np.testing.assert_array_equal(short.s, long_.s[:n])
            np.testing.assert_array_equal(short.x, long_.x[:n])

    def test_matches_reference_loop_bit_for_bit(self):
        # 240 random models: M 1-5, p 1-4, burn-in 0 and 100, each started from its
        # stationary law
        rng = np.random.default_rng(2026)
        for case in range(240):
            M, p = case % 5 + 1, case // 5 % 4 + 1
            states = [ArStateParams(float(rng.normal()), (rng.uniform(-0.5, 0.5, p) / p).tolist(),
                                    float(rng.uniform(0.05, 1.0))) for _ in range(M)]
            model = SwitchingArModel(TransitionMatrix(rng.dirichlet(np.ones(M), size=M).tolist()),
                                     states)
            burn_in = 100 * (case // 40 % 2)
            got = simulate(model, 150, burn_in, case)
            want = reference_simulate(model, 150, burn_in, case)
            assert np.array_equal(got.s, want.s) and np.array_equal(got.x, want.x), case

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            simulate(example_model(), 0)
        with pytest.raises(ValueError):
            simulate(example_model(), 10, burn_in=-1)

    @pytest.mark.parametrize("name,lowest", [("n", 1), ("burn_in", 0)])
    @pytest.mark.parametrize("value", [True, 2.0, "2"], ids=["bool", "float", "text"])
    def test_rejects_sizes_that_are_not_integers(self, name, lowest, value):
        # n = True drew a one-step trajectory, and a float met numpy's TypeError
        sizes = {"n": 10, "burn_in": 5, name: value}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= {lowest}, "
                                                       f"got {value!r}")):
            simulate(example_model(), **sizes)

    @pytest.mark.parametrize("seed", [True, 2.5, "3", -1], ids=["bool", "float", "text", "negative"])
    def test_rejects_a_seed_that_is_no_integer_from_zero(self, seed):
        # True ran as seed 1; 2.5 and "3" met numpy's TypeError, -1 an error naming no argument
        with pytest.raises(ValueError, match=re.escape(f"rng_seed must be an integer >= 0, "
                                                       f"got {seed!r}")):
            simulate(example_model(), 10, rng_seed=seed)

    @pytest.mark.parametrize("name,n,burn_in,seed,s_sha256,x_sha256",
                             [pytest.param(*run, id=run[0]) for run in PINNED_RUNS])
    def test_trajectory_bytes_are_pinned(self, name, n, burn_in, seed, s_sha256, x_sha256):
        # any change to the chain sampler, the seeding or the AR recursion shows here
        traj = simulate(PINNED_MODELS[name](), n, burn_in, seed)
        assert hashlib.sha256(traj.s.astype("<i8").tobytes()).hexdigest() == s_sha256
        assert hashlib.sha256(traj.x.astype("<f8").tobytes()).hexdigest() == x_sha256

    def test_trajectory_bytes_do_not_depend_on_the_kernel(self):
        # the AR step sums in Python floats, so OpenBLAS's AVX2 kernel and numpy without
        # its AVX-512 dispatch give the bytes of the defaults; each setting in its own child
        runs = pickle.dumps([(PINNED_MODELS[name](), n, burn_in, seed)
                             for name, n, burn_in, seed, *_ in PINNED_RUNS])
        base = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        base["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        settings = [{}, {"OPENBLAS_CORETYPE": "Haswell"}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
                    {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4"}]
        children = [subprocess.Popen([sys.executable, "-c", _HASH_CHILD], env=dict(base, **setting),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
                    for setting in settings]
        digests = []
        for setting, child in zip(settings, children):
            out, err = child.communicate(runs, timeout=120)
            assert child.returncode == 0, (setting, err.decode()[-2000:])
            digests.append(out.decode().split())
        for name, per_model in zip((run[0] for run in PINNED_RUNS), zip(*digests)):
            assert len(set(per_model)) == 1, (name, per_model)

    def test_memory_peak_holds_no_float_list_of_the_series(self):
        # x, the scaled noise and the uniforms are arrays read through memoryviews: a
        # 499 KiB peak here, where a Python float list as long as the series reached 954 KiB
        model = example_model()
        simulate(model, 10_000, burn_in=100)  # warm-up: stationary, caches
        tracemalloc.start()
        try:
            simulate(model, 10_000, burn_in=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 550 * 2**10


class TestTrajectory:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(s=[1, 2], x=[0.1])

    def test_len(self):
        assert len(Trajectory(s=[1, 2, 1], x=[0.0, 1.0, 0.5])) == 3

    @pytest.mark.parametrize("s", [[1.5, 2.7], [1.0, math.nan], [1.0, math.inf],
                                   ["1", "2"], [True, False], [1, None]])
    def test_states_that_are_not_whole_numbers_rejected(self, s):
        # int conversion once truncated [1.5, 2.7] to [1, 2], and the harness scored those
        with pytest.raises(ValueError, match="^s must hold whole numbers"):
            Trajectory(s=s, x=[0.0, 1.0])

    def test_whole_float_and_integer_states_kept(self):
        for s in ([1.0, 3.0], np.array([1, 3], dtype=np.int32), np.array([1, 3], dtype=np.uint8)):
            traj = Trajectory(s=s, x=[0.0, 1.0])
            assert traj.s.dtype == int and traj.s.tolist() == [1, 3]


class TestModelFromDict:
    def doc(self):
        return {
            "transition": EXAMPLE_P,
            "states": [{"mu": 0.0, "a": [0.3, 0.2], "b": 0.1},
                       {"mu": 0.5, "a": [0.2, 0.3], "b": 0.2},
                       {"mu": 1.0, "a": [0.1, 0.4], "b": 0.1}],
        }

    def test_parses(self):
        model = model_from_dict(self.doc())
        assert model.M == 3
        assert model.ar_order == 2

    def test_unknown_top_level_key_rejected(self):
        doc = self.doc()
        doc["extra"] = 1
        with pytest.raises(ValueError, match="extra"):
            model_from_dict(doc)

    def test_unknown_state_key_rejected(self):
        doc = self.doc()
        doc["states"][1]["sigma"] = 0.1
        with pytest.raises(ValueError, match="sigma"):
            model_from_dict(doc)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(order=2), "unknown model keys: ['order']"),
        (lambda doc: doc.pop("states"), "model is missing 'states'"),
        (lambda doc: doc["states"][1].update(sigma=0.1), "unknown states[1] keys: ['sigma']"),
        (lambda doc: doc["states"][2].pop("mu"), "states[2] is missing 'mu'"),
        (lambda doc: doc["states"].append([0.1]), "states[3] must be a JSON object"),
    ], ids=["model-unknown", "model-missing", "state-unknown", "state-missing", "state-not-object"])
    def test_key_messages_name_the_object(self, edit, message):
        doc = self.doc()
        edit(doc)
        with pytest.raises(ValueError) as exc:
            model_from_dict(doc)
        assert str(exc.value) == message

    def test_missing_keys_rejected(self):
        doc = self.doc()
        del doc["transition"]
        with pytest.raises(ValueError, match="transition"):
            model_from_dict(doc)
        doc = self.doc()
        del doc["states"][0]["b"]
        with pytest.raises(ValueError, match="b"):
            model_from_dict(doc)
