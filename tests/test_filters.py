import math

import numpy as np
import pytest

from scipy.stats import norm

from hmmar.filters import (FilterRun, log_emissions, nonparametric_step, optimal_step,
                           posterior_update, run_filters, warmup_threshold)
from hmmar.harness import emit_trace
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


def ar_mean(history, st):
    """Inline AR conditional mean, the oracle for the model's per-state means."""
    return st.mu + sum(a_i * (h_i - st.mu) for a_i, h_i in zip(st.a, history))


def emission_density(x, history, st):
    return norm.pdf(x, loc=ar_mean(history, st), scale=st.b)


def test_log_emissions_match_linear_density():
    model = example_model()
    hist = np.array([0.4, -0.2])
    for x in (-0.5, 0.3, 1.2):
        logs = log_emissions(x, hist, model)
        for m, st in enumerate(model.states):
            assert logs[m] == pytest.approx(math.log(emission_density(x, hist, st)), rel=1e-12)


def test_ar_means_match_inline_mean_exactly():
    # the one kernel of the AR mean keeps the expression mu + a @ h - a.sum() * mu
    model = example_model()
    rng = np.random.default_rng(41)
    for _ in range(200):
        hist = rng.normal(scale=2.0, size=2)
        mu = np.array([st.mu for st in model.states])
        a = np.stack([st.a for st in model.states])
        np.testing.assert_array_equal(model.ar_means(hist), mu + a @ hist - a.sum(axis=1) * mu)
        np.testing.assert_allclose(model.ar_means(hist),
                                   [ar_mean(hist, st) for st in model.states], atol=1e-14)


def test_identical_states_make_posterior_equal_predictive():
    same = ArStateParams(0.2, [0.1, 0.1], 0.5)
    model = SwitchingArModel(TransitionMatrix(EXAMPLE_P), [same, same, same])
    posterior = np.array([0.5, 0.3, 0.2])
    rng = np.random.default_rng(1)
    for _ in range(20):
        predictive, posterior = optimal_step(posterior, rng.normal(), rng.normal(size=2), model)
        np.testing.assert_allclose(posterior, predictive, atol=1e-14)


def test_equal_transition_rows_pin_the_predictive():
    q = np.array([0.2, 0.5, 0.3])
    model = SwitchingArModel(TransitionMatrix(np.tile(q, (3, 1))), example_model().states)
    posterior = np.array([0.9, 0.05, 0.05])
    rng = np.random.default_rng(2)
    for _ in range(10):
        predictive, posterior = optimal_step(posterior, rng.normal(), rng.normal(size=2), model)
        np.testing.assert_allclose(predictive, q, atol=1e-14)


def test_two_state_posterior_ratio_hand_computed():
    # uniform rows make the predictive uniform; then with mu = -10/ +10,
    # b = 1, x = 10: posterior(1)/posterior(2) = exp(-200) exactly
    model = SwitchingArModel(
        TransitionMatrix([[0.5, 0.5], [0.5, 0.5]]),
        [ArStateParams(-10.0, [0.0], 1.0), ArStateParams(10.0, [0.0], 1.0)],
    )
    _, posterior = optimal_step(np.array([0.5, 0.5]), 10.0, np.array([0.0]), model)
    expected_low = math.exp(-200.0) / (1.0 + math.exp(-200.0))
    assert posterior[0] == pytest.approx(expected_low, rel=1e-9)
    assert posterior[1] == pytest.approx(1.0 - expected_low, rel=1e-12)


def test_posterior_update_matches_naive_formula():
    model = example_model()
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.dirichlet(np.ones(3))
        hist = rng.normal(size=2)
        x = rng.normal()
        post = posterior_update(u, x, hist, model)
        dens = np.array([emission_density(x, hist, st) for st in model.states])
        naive = dens * u / (dens * u).sum()
        np.testing.assert_allclose(post, naive, atol=1e-12)


def test_true_predictive_in_nonparametric_update_equals_optimal_posterior():
    # feeding the transition-matrix predictive through the shared Bayes
    # update must land exactly on the optimal filter's posterior
    model = example_model()
    traj = simulate(model, 300, burn_in=100, rng_seed=5)
    x, p = traj.x, model.ar_order
    from hmmar.model import stationary_distribution
    posterior = stationary_distribution(model.transition)
    for n in range(p + 1, len(traj) + 1):
        true_predictive = posterior @ model.transition.p
        true_predictive /= true_predictive.sum()
        hist = x[n - 1 - p:n - 1][::-1]
        substituted = posterior_update(true_predictive, x[n - 1], hist, model)
        _, posterior = optimal_step(posterior, x[n - 1], hist, model)
        np.testing.assert_allclose(substituted, posterior, atol=1e-12)


class TestNonparametricStep:
    def test_single_state_is_trivial(self):
        model = SwitchingArModel(TransitionMatrix([[1.0]]),
                                 [ArStateParams(0.0, [0.2], 1.0)],
                                 initial_dist=[1.0])
        traj = simulate(model, 100, burn_in=10, rng_seed=7)
        predictive, posterior, _ = nonparametric_step(traj.x, n=80, model=model, tau=2, l=1,
                                                      h=0.5)
        np.testing.assert_array_equal(predictive, [1.0])
        np.testing.assert_array_equal(posterior, [1.0])

    def test_identical_emission_states_tie_symmetrically(self):
        same = ArStateParams(0.3, [0.1], 0.4)
        rng = np.random.default_rng(11)
        x = rng.normal(size=80)
        model = SwitchingArModel(TransitionMatrix([[0.5, 0.5], [0.5, 0.5]]), [same, same])
        _, posterior, fallback = nonparametric_step(x, n=70, model=model, tau=2, l=1, h=0.4)
        assert fallback
        assert posterior[0] == pytest.approx(posterior[1], abs=1e-9)

    def test_warmup_steps_use_uniform_predictive(self):
        model = example_model()
        traj = simulate(model, 100, burn_in=50, rng_seed=13)
        thresh = warmup_threshold(model.ar_order, 2)
        predictive, _, _ = nonparametric_step(traj.x, n=thresh, model=model, tau=2, l=1, h=0.2)
        np.testing.assert_allclose(predictive, np.full(3, 1/3), atol=1e-14)
        predictive, _, _ = nonparametric_step(traj.x, n=thresh + 1, model=model, tau=2, l=1,
                                              h=0.2)
        assert np.max(np.abs(predictive - 1/3)) > 1e-6

    def test_prediction_is_blind_to_x_n(self):
        model = example_model()
        traj = simulate(model, 120, burn_in=50, rng_seed=17)
        n = 100
        pred, post, _ = nonparametric_step(traj.x, n, model, tau=2, l=1, h=0.15)
        mutated = traj.x.copy()
        mutated[n - 1] += 5.0
        pred2, post2, _ = nonparametric_step(mutated, n, model, tau=2, l=1, h=0.15)
        np.testing.assert_array_equal(pred, pred2)
        assert np.max(np.abs(post - post2)) > 1e-6

    def test_requires_history(self):
        with pytest.raises(ValueError):
            nonparametric_step(np.zeros(50), n=3, model=example_model(), tau=2, l=1, h=0.5)


class TestRunFilters:
    def test_empty_window(self):
        model = example_model()
        traj = simulate(model, 60, burn_in=10, rng_seed=19)
        run = run_filters(traj, model, tau=2, l=1, eval_start=61)
        assert run.qp_fallback.shape == (0,)
        for v in (run.optimal_posterior, run.nonparametric_predictive):
            assert v.shape == (0, 3)

    def test_eval_start_must_clear_warmup(self):
        model = example_model()
        traj = simulate(model, 60, burn_in=10, rng_seed=19)
        with pytest.raises(ValueError):
            run_filters(traj, model, tau=2, l=1, eval_start=10)

    def test_well_separated_states_filter_nearly_perfectly(self):
        model = separated_model()
        traj = simulate(model, 10_000, burn_in=100, rng_seed=23)
        run = run_filters(traj, model, eval_start=2, compute_nonparametric=False)
        wrong = run.optimal_posterior.argmax(axis=1) + 1 != traj.s[1:]
        assert wrong.mean() < 0.01

    def test_causality_of_decisions(self):
        # with the bandwidth pinned, truncating the series cannot change
        # any decision already made
        model = example_model()
        traj = simulate(model, 120, burn_in=50, rng_seed=29)
        bw = Bandwidth(0.15)
        full = run_filters(traj, model, tau=2, l=1, eval_start=90, bandwidth=bw)
        cut = Trajectory(s=traj.s[:100], x=traj.x[:100])
        part = run_filters(cut, model, tau=2, l=1, eval_start=90, bandwidth=bw)
        assert full.eval_start == part.eval_start
        for name in ("optimal_posterior", "optimal_predictive", "nonparametric_posterior"):
            np.testing.assert_array_equal(getattr(full, name).argmax(axis=1)[:11],
                                          getattr(part, name).argmax(axis=1))
        np.testing.assert_array_equal(full.nonparametric_predictive[:11],
                                      part.nonparametric_predictive)

    def test_vectors_stay_on_simplex(self):
        model = example_model()
        traj = simulate(model, 150, burn_in=50, rng_seed=31)
        run = run_filters(traj, model, tau=2, l=1, eval_start=60)
        for v in (run.optimal_predictive, run.optimal_posterior,
                  run.nonparametric_predictive, run.nonparametric_posterior):
            assert v.shape == (91, 3)
            assert np.all(np.isfinite(v))
            assert np.all(v >= 0.0)
            assert np.all(np.abs(v.sum(axis=1) - 1.0) < 1e-10)

    def test_method_selection(self):
        model = example_model()
        traj = simulate(model, 120, burn_in=50, rng_seed=37)
        run = run_filters(traj, model, eval_start=100, compute_nonparametric=False)
        assert run.nonparametric_posterior is None and run.nonparametric_predictive is None
        assert run.optimal_posterior.shape == run.optimal_predictive.shape == (21, 3)
        assert not run.qp_fallback.any()
        run = run_filters(traj, model, eval_start=100, compute_optimal=False)
        assert run.optimal_posterior is None and run.optimal_predictive is None
        assert run.nonparametric_posterior.shape == run.nonparametric_predictive.shape == (21, 3)


@pytest.mark.parametrize("field", ["predictive", "posterior"])
@pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.nan, 1.0]])
def test_filter_state_rejects_nan(field, bad, monkeypatch):
    # a NaN in the last row of either filter's output makes run_filters raise
    import hmmar.filters as filters
    model = example_model()
    traj = simulate(model, 120, burn_in=50, rng_seed=43)
    for method, last in (("optimal", traj.x[-1]), ("nonparametric", len(traj))):
        step = getattr(filters, f"{method}_step")

        def poisoned(*args, step=step, last=last):
            out = list(step(*args))
            if args[1] == last:  # x_n (optimal) or n (nonparametric) of the last step
                out[field == "posterior"] = np.array(bad + [0.0])
            return tuple(out)

        monkeypatch.setattr(filters, f"{method}_step", poisoned)
        with pytest.raises(ValueError, match=f"{method}_{field} at step n = 120"):
            run_filters(traj, model, tau=2, l=1, eval_start=100, bandwidth=Bandwidth(0.15))
        monkeypatch.undo()


def test_estimator_output_tie_breaks_to_smaller_index(tmp_path):
    ties = np.full((2, 2), 0.5)
    run = FilterRun(eval_start=1, qp_fallback=np.zeros(2, dtype=bool), optimal_predictive=ties,
                    optimal_posterior=ties, nonparametric_predictive=ties,
                    nonparametric_posterior=ties)
    traj = Trajectory(s=[2, 2], x=[0.0, 1.0])
    emit_trace(traj, run, tmp_path / "trace.csv")
    for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]:
        assert line.split(",")[3:7] == ["1", "1", "1", "1"]
