import math

import numpy as np
import pytest

from hmmar.filters import (EstimatorOutput, FilterState, log_emissions,
                           nonparametric_step, optimal_step, posterior_update,
                           run_filters, warmup_threshold)
from hmmar.gaussian import emission_density
from hmmar.kde import Bandwidth
from hmmar.model import (ArStateParams, SwitchingArModel, Trajectory,
                         TransitionMatrix, simulate)

EXAMPLE_P = [[0.8, 0.1, 0.1], [0.05, 0.9, 0.05], [0.1, 0.05, 0.85]]


def example_model():
    return SwitchingArModel(
        transition=TransitionMatrix(EXAMPLE_P),
        states=[ArStateParams(0.0, [0.3, 0.2], 0.1),
                ArStateParams(0.5, [0.2, 0.3], 0.2),
                ArStateParams(1.0, [0.1, 0.4], 0.1)],
    )


def separated_model(spread=50.0):
    return SwitchingArModel(
        transition=TransitionMatrix([[0.9, 0.1], [0.1, 0.9]]),
        states=[ArStateParams(0.0, [0.0], 1.0),
                ArStateParams(spread, [0.0], 1.0)],
    )


def test_log_emissions_match_linear_density():
    states = example_model().states
    hist = np.array([0.4, -0.2])
    for x in (-0.5, 0.3, 1.2):
        logs = log_emissions(x, hist, states)
        for m, st in enumerate(states):
            assert logs[m] == pytest.approx(math.log(emission_density(x, hist, st)), rel=1e-12)


def test_identical_states_make_posterior_equal_predictive():
    same = ArStateParams(0.2, [0.1, 0.1], 0.5)
    model = SwitchingArModel(TransitionMatrix(EXAMPLE_P), [same, same, same])
    state = FilterState(predictive=np.full(3, 1/3), posterior=np.array([0.5, 0.3, 0.2]), n=2)
    rng = np.random.default_rng(1)
    for _ in range(20):
        state = optimal_step(state, rng.normal(), rng.normal(size=2), model)
        np.testing.assert_allclose(state.posterior, state.predictive, atol=1e-14)


def test_equal_transition_rows_pin_the_predictive():
    q = np.array([0.2, 0.5, 0.3])
    model = SwitchingArModel(TransitionMatrix(np.tile(q, (3, 1))), example_model().states)
    state = FilterState(predictive=np.full(3, 1/3), posterior=np.array([0.9, 0.05, 0.05]), n=2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        state = optimal_step(state, rng.normal(), rng.normal(size=2), model)
        np.testing.assert_allclose(state.predictive, q, atol=1e-14)


def test_two_state_posterior_ratio_hand_computed():
    # uniform rows make the predictive uniform; then with mu = -10/ +10,
    # b = 1, x = 10: posterior(1)/posterior(2) = exp(-200) exactly
    model = SwitchingArModel(
        TransitionMatrix([[0.5, 0.5], [0.5, 0.5]]),
        [ArStateParams(-10.0, [0.0], 1.0), ArStateParams(10.0, [0.0], 1.0)],
    )
    state = FilterState(predictive=np.array([0.5, 0.5]), posterior=np.array([0.5, 0.5]), n=1)
    out = optimal_step(state, 10.0, np.array([0.0]), model)
    expected_low = math.exp(-200.0) / (1.0 + math.exp(-200.0))
    assert out.posterior[0] == pytest.approx(expected_low, rel=1e-9)
    assert out.posterior[1] == pytest.approx(1.0 - expected_low, rel=1e-12)


def test_posterior_update_matches_naive_formula():
    states = example_model().states
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.dirichlet(np.ones(3))
        hist = rng.normal(size=2)
        x = rng.normal()
        post = posterior_update(u, x, hist, states)
        dens = np.array([emission_density(x, hist, st) for st in states])
        naive = dens * u / (dens * u).sum()
        np.testing.assert_allclose(post, naive, atol=1e-12)


def test_true_predictive_in_nonparametric_update_equals_optimal_posterior():
    # feeding the transition-matrix predictive through the shared Bayes
    # update must land exactly on the optimal filter's posterior
    model = example_model()
    traj = simulate(model, 300, burn_in=100, rng_seed=5)
    x, p = traj.x, model.ar_order
    from hmmar.model import stationary_distribution
    pi = stationary_distribution(model.transition)
    state = FilterState(predictive=pi, posterior=pi, n=p)
    for n in range(p + 1, len(traj) + 1):
        true_predictive = state.posterior @ model.transition.p
        true_predictive /= true_predictive.sum()
        hist = x[n - 1 - p:n - 1][::-1]
        substituted = posterior_update(true_predictive, x[n - 1], hist, model.states)
        state = optimal_step(state, x[n - 1], hist, model)
        np.testing.assert_allclose(substituted, state.posterior, atol=1e-12)


class TestNonparametricStep:
    def test_single_state_is_trivial(self):
        model = SwitchingArModel(TransitionMatrix([[1.0]]),
                                 [ArStateParams(0.0, [0.2], 1.0)],
                                 initial_dist=[1.0])
        traj = simulate(model, 100, burn_in=10, rng_seed=7)
        fs = nonparametric_step(traj.x, n=80, states=model.states, tau=2, l=1, h=0.5)
        np.testing.assert_array_equal(fs.predictive, [1.0])
        np.testing.assert_array_equal(fs.posterior, [1.0])

    def test_identical_emission_states_tie_symmetrically(self):
        same = ArStateParams(0.3, [0.1], 0.4)
        rng = np.random.default_rng(11)
        x = rng.normal(size=80)
        fs = nonparametric_step(x, n=70, states=[same, same], tau=2, l=1, h=0.4)
        assert fs.qp_fallback
        assert fs.posterior[0] == pytest.approx(fs.posterior[1], abs=1e-9)

    def test_warmup_steps_use_uniform_predictive(self):
        model = example_model()
        traj = simulate(model, 100, burn_in=50, rng_seed=13)
        thresh = warmup_threshold(model.ar_order, 2)
        fs = nonparametric_step(traj.x, n=thresh, states=model.states, tau=2, l=1, h=0.2)
        np.testing.assert_allclose(fs.predictive, np.full(3, 1/3), atol=1e-14)
        fs2 = nonparametric_step(traj.x, n=thresh + 1, states=model.states, tau=2, l=1, h=0.2)
        assert np.max(np.abs(fs2.predictive - 1/3)) > 1e-6

    def test_prediction_is_blind_to_x_n(self):
        model = example_model()
        traj = simulate(model, 120, burn_in=50, rng_seed=17)
        n = 100
        fs = nonparametric_step(traj.x, n, model.states, tau=2, l=1, h=0.15)
        mutated = traj.x.copy()
        mutated[n - 1] += 5.0
        fs2 = nonparametric_step(mutated, n, model.states, tau=2, l=1, h=0.15)
        np.testing.assert_array_equal(fs.predictive, fs2.predictive)
        assert np.max(np.abs(fs.posterior - fs2.posterior)) > 1e-6

    def test_requires_history(self):
        with pytest.raises(ValueError):
            nonparametric_step(np.zeros(50), n=3, states=example_model().states,
                               tau=2, l=1, h=0.5)


class TestRunFilters:
    def test_empty_window(self):
        model = example_model()
        traj = simulate(model, 60, burn_in=10, rng_seed=19)
        recs = run_filters(traj, model, tau=2, l=1, eval_start=61)
        assert recs == []

    def test_eval_start_must_clear_warmup(self):
        model = example_model()
        traj = simulate(model, 60, burn_in=10, rng_seed=19)
        with pytest.raises(ValueError):
            run_filters(traj, model, tau=2, l=1, eval_start=10)

    def test_well_separated_states_filter_nearly_perfectly(self):
        model = separated_model()
        traj = simulate(model, 10_000, burn_in=100, rng_seed=23)
        recs = run_filters(traj, model, eval_start=2, compute_nonparametric=False)
        wrong = sum(r.optimal_output.filtered_state != traj.s[r.n - 1] for r in recs)
        assert wrong / len(recs) < 0.01

    def test_causality_of_decisions(self):
        # with the bandwidth pinned, truncating the series cannot change
        # any decision already made
        model = example_model()
        traj = simulate(model, 120, burn_in=50, rng_seed=29)
        bw = Bandwidth(0.15)
        full = run_filters(traj, model, tau=2, l=1, eval_start=90, bandwidth=bw)
        cut = Trajectory(s=traj.s[:100], x=traj.x[:100])
        part = run_filters(cut, model, tau=2, l=1, eval_start=90, bandwidth=bw)
        for rec_f, rec_p in zip(full, part):
            assert rec_f.n == rec_p.n
            assert rec_f.optimal_output == rec_p.optimal_output
            assert rec_f.nonparam_output == rec_p.nonparam_output
            np.testing.assert_array_equal(rec_f.nonparam.predictive, rec_p.nonparam.predictive)

    def test_vectors_stay_on_simplex(self):
        model = example_model()
        traj = simulate(model, 150, burn_in=50, rng_seed=31)
        recs = run_filters(traj, model, tau=2, l=1, eval_start=60)
        for rec in recs:
            for fs in (rec.optimal, rec.nonparam):
                for v in (fs.predictive, fs.posterior):
                    assert np.all(np.isfinite(v))
                    assert np.all(v >= 0.0)
                    assert abs(v.sum() - 1.0) < 1e-10

    def test_method_selection(self):
        model = example_model()
        traj = simulate(model, 120, burn_in=50, rng_seed=37)
        recs = run_filters(traj, model, eval_start=100, compute_nonparametric=False)
        assert all(r.nonparam is None and r.optimal is not None for r in recs)
        recs = run_filters(traj, model, eval_start=100, compute_optimal=False)
        assert all(r.optimal is None and r.nonparam is not None for r in recs)


@pytest.mark.parametrize("field", ["predictive", "posterior"])
@pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.nan, 1.0]])
def test_filter_state_rejects_nan(field, bad):
    vectors = {"predictive": np.array([0.5, 0.5]), "posterior": np.array([0.5, 0.5])}
    vectors[field] = np.array(bad)
    with pytest.raises(ValueError, match=field):
        FilterState(n=3, **vectors)


def test_estimator_output_tie_breaks_to_smaller_index():
    fs = FilterState(predictive=np.array([0.5, 0.5]), posterior=np.array([0.5, 0.5]), n=3)
    out = EstimatorOutput.from_state(fs)
    assert out.filtered_state == 1
    assert out.predicted_state == 1
