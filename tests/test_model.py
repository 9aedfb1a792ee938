import hashlib

import numpy as np
import pytest

from hmmar.model import (ArStateParams, SwitchingArModel, Trajectory,
                         TransitionMatrix, model_from_dict, simulate,
                         stationary_distribution)

EXAMPLE_P = [[0.8, 0.1, 0.1], [0.05, 0.9, 0.05], [0.1, 0.05, 0.85]]
# solved by hand from pi P = pi, sum(pi) = 1
EXAMPLE_PI = np.array([5.0, 8.0, 6.0]) / 19.0


def example_model(initial_dist=None):
    return SwitchingArModel(
        transition=TransitionMatrix(EXAMPLE_P),
        states=[ArStateParams(0.0, [0.3, 0.2], 0.1),
                ArStateParams(0.5, [0.2, 0.3], 0.2),
                ArStateParams(1.0, [0.1, 0.4], 0.1)],
        initial_dist=initial_dist,
    )


class TestTransitionMatrix:
    def test_valid(self):
        t = TransitionMatrix(EXAMPLE_P)
        assert t.M == 3

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            TransitionMatrix([[0.5, 0.5]])

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

    def test_initial_dist_checked(self):
        with pytest.raises(ValueError):
            example_model(initial_dist=[0.5, 0.5, 0.1])

    @pytest.mark.parametrize("q", [[np.nan] * 3, [np.nan, 0.5, 0.5]])
    def test_initial_dist_rejects_nan(self, q):
        with pytest.raises(ValueError, match="initial_dist"):
            example_model(initial_dist=q)


class TestStationaryDistribution:
    def test_uniform_rows(self):
        t = TransitionMatrix(np.full((4, 4), 0.25))
        np.testing.assert_allclose(stationary_distribution(t), np.full(4, 0.25), atol=1e-12)

    def test_example_matrix(self):
        pi = stationary_distribution(TransitionMatrix(EXAMPLE_P))
        np.testing.assert_allclose(pi, EXAMPLE_PI, atol=1e-10)
        np.testing.assert_allclose(pi @ EXAMPLE_P, pi, atol=1e-10)

    def test_reducible_chain_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            stationary_distribution(TransitionMatrix([[1.0, 0.0], [0.0, 1.0]]))

    def test_periodic_chain_converges(self):
        # period-2 chain still has a unique stationary distribution
        pi = stationary_distribution(TransitionMatrix([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-10)


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
            initial_dist=[1.0],
        )
        n = 100_000
        traj = simulate(model, n, burn_in=0, rng_seed=3)
        assert abs(traj.x.mean()) < 3.0 / np.sqrt(n)

    def test_example_state_occupancy_near_stationary(self):
        traj = simulate(example_model(), 100_000, burn_in=100, rng_seed=7)
        freq = np.bincount(traj.s, minlength=4)[1:] / len(traj)
        np.testing.assert_allclose(freq, EXAMPLE_PI, atol=0.02)

    def test_residuals_standard_normal_for_forced_state(self):
        # rows of e_m force the chain to sit in state m = 2 forever
        force = [[0.0, 1.0, 0.0]] * 3
        model = SwitchingArModel(
            TransitionMatrix(force),
            states=example_model().states,
            initial_dist=[0.0, 1.0, 0.0],
        )
        traj = simulate(model, 100_000, burn_in=100, rng_seed=11)
        assert np.all(traj.s == 2)
        mu, a, b = 0.5, np.array([0.2, 0.3]), 0.2
        x = traj.x
        pred = mu + a[0] * (x[1:-1] - mu) + a[1] * (x[:-2] - mu)
        resid = (x[2:] - pred) / b
        assert abs(resid.mean()) < 0.02
        assert abs(resid.var() - 1.0) < 0.05

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            simulate(example_model(), 0)
        with pytest.raises(ValueError):
            simulate(example_model(), 10, burn_in=-1)

    @pytest.mark.parametrize("name,n,burn_in,seed,s_sha256,x_sha256", [
        ("example", 5000, 100, 3,
         "e83a6c9476c4bf5ccb442deb490113204c4c81b2251abacf97add3509069af99",
         "a5e19593a0fb8b870a17e60e15b42638b4176dc4901b3561863a403d7901db32"),
        ("two_state_p1", 3000, 0, 91,
         "4072258a26acb5b4e436bc0819bcf45dfc8cf4e3dc634a4d07f27d6dd71dfb71",
         "3a10a95d2ab7008500bbaab348d9cee84b4a8f4fd34b39ef8423a7ac8cef2547"),
        ("four_state_initial", 4000, 20, 12345,
         "8a99af5bd6ebd471baccbdd81d3da5a5209a573e6d690885802393b5710c0604",
         "87be80c9d9ace3069e9c2b82c932a90b2f58f1071518f3f108446cc0241cf5c3"),
    ])
    def test_trajectory_bytes_are_pinned(self, name, n, burn_in, seed, s_sha256, x_sha256):
        # digests of s (little-endian int64) and x (little-endian float64) fixed
        # when the test was written: any change to the chain sampler, the
        # seeding or the AR recursion shows here
        models = {
            "example": example_model,
            "two_state_p1": lambda: SwitchingArModel(
                TransitionMatrix([[0.9, 0.1], [0.2, 0.8]]),
                [ArStateParams(0.0, [0.5], 0.3), ArStateParams(1.0, [-0.3], 0.5)]),
            "four_state_initial": lambda: SwitchingArModel(
                TransitionMatrix([[0.7, 0.1, 0.1, 0.1], [0.0, 0.5, 0.5, 0.0],
                                  [0.25, 0.25, 0.25, 0.25], [0.3, 0.0, 0.0, 0.7]]),
                [ArStateParams(0.0, [0.1, 0.2, 0.3], 0.1), ArStateParams(0.5, [0.2, 0.3, -0.1], 0.2),
                 ArStateParams(1.0, [0.1, 0.4, 0.0], 0.1), ArStateParams(-1.0, [0.0, 0.0, 0.5], 0.4)],
                initial_dist=[0.0, 0.0, 1.0, 0.0]),
        }
        traj = simulate(models[name](), n, burn_in, seed)
        assert hashlib.sha256(traj.s.astype("<i8").tobytes()).hexdigest() == s_sha256
        assert hashlib.sha256(traj.x.astype("<f8").tobytes()).hexdigest() == x_sha256


class TestTrajectory:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(s=[1, 2], x=[0.1])

    def test_len(self):
        assert len(Trajectory(s=[1, 2, 1], x=[0.0, 1.0, 0.5])) == 3


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
        assert model.initial_dist is None

    def test_optional_initial_dist(self):
        doc = self.doc()
        doc["initial_dist"] = [0.2, 0.3, 0.5]
        model = model_from_dict(doc)
        np.testing.assert_allclose(model.initial_dist, [0.2, 0.3, 0.5])

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

    def test_missing_keys_rejected(self):
        doc = self.doc()
        del doc["transition"]
        with pytest.raises(ValueError, match="transition"):
            model_from_dict(doc)
        doc = self.doc()
        del doc["states"][0]["b"]
        with pytest.raises(ValueError, match="b"):
            model_from_dict(doc)
