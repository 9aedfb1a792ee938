import math
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from scipy.stats import norm

from hmmar.filters import (MODES, FilterRun, SeriesError, emission_mixture_problem,
                           log_emissions, nonparametric_step, optimal_step, posterior_update,
                           run_filters, warmup_threshold)
from hmmar.harness import emit_trace, example_config
from hmmar.kde import Bandwidth, embed, ucv_bandwidth
from hmmar.model import (ArStateParams, SwitchingArModel, Trajectory,
                         TransitionMatrix, simulate, stationary_distribution)
from hmmar.simplex_qp import solve_kkt

import nonparametric_reference

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
        logs = log_emissions(x, model.ar_means(hist), model)
        for m, st in enumerate(model.states):
            assert logs[m] == pytest.approx(math.log(emission_density(x, hist, st)), rel=1e-12)


def test_log_emissions_in_place_keep_the_bits():
    # run_filters turns its AR-means buffer into the log-emissions in place; every
    # form gives the bits of the expression -0.5 log(2 pi b^2) - (x - m)^2 / (2 b^2)
    model = example_model()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 4))
    means = model.ar_means(rng.normal(size=(160, 2))).reshape(40, 4, 3)
    b2 = model.b2
    expected = -0.5 * np.log(2.0 * np.pi * b2) - (x[..., None] - means) ** 2 / (2.0 * b2)
    buf = means.copy()
    got = log_emissions(x, buf, model, out=buf)
    assert got is buf
    assert np.array_equal(got, expected)
    assert np.array_equal(log_emissions(x, means, model), expected)
    out = np.empty_like(means)
    assert log_emissions(x, means, model, out=out) is out and np.array_equal(out, expected)
    assert np.array_equal(log_emissions(x[0, 0], means[0, 0], model), expected[0, 0])


@pytest.mark.parametrize("zero", [False, True])
def test_bayes_update_into_its_log_emissions_keeps_the_bits(zero):
    # the optimal recursion writes each posterior row over its log-emission row
    from hmmar.filters import _bayes_update
    rng = np.random.default_rng(7)
    log_f = rng.normal(scale=30.0, size=(50, 3, 4))
    predictive = rng.dirichlet(np.ones(4), size=(50, 3))
    if zero:  # a zero u_m takes log 0 = -inf
        predictive[:, :, 1] = 0.0
        predictive /= predictive.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        apart = _bayes_update(log_f, predictive, np.empty_like(log_f))
        aliased = log_f.copy()
        assert _bayes_update(aliased, predictive, aliased) is aliased
    assert np.array_equal(aliased, apart)
    assert np.array_equal(np.signbit(aliased), np.signbit(apart))
    assert np.all(apart >= 0.0) and np.all(np.abs(apart.sum(axis=-1) - 1.0) <= 1e-12)
    assert np.all((apart[:, :, 1] == 0.0) == zero)


def test_optimal_block_memory_peak():
    # an optimal-only block holds x, the predictive array and one (steps, R, M)
    # buffer for means, log-emissions and posteriors: a 2.35 MiB peak here, where
    # separate means, log-emission and posterior arrays peaked at 4.18 MiB
    import tracemalloc
    model = example_model()
    trajs = [simulate(model, 10_000, burn_in=100, rng_seed=r) for r in range(4)]
    tracemalloc.start()
    try:
        run_filters(trajs, model, eval_start=101, mode="optimal")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * 2**20


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


def random_model(M, p, rng, zeros=False):
    """Stable M-state AR(p) model.

    With ``zeros``, a cyclic chain (rows hold zeros for M > 2) over states 25
    apart, so posteriors underflow to exact zeros.
    """
    if zeros:
        trans = 0.9 * np.eye(M) + 0.1 * np.roll(np.eye(M), 1, axis=1)
        mu = 25.0 * np.arange(M)
    else:
        trans = rng.dirichlet(np.full(M, 2.0), size=M) + 2.0 * np.eye(M)
        trans /= trans.sum(axis=1, keepdims=True)
        mu = rng.normal(scale=3.0, size=M)
    states = [ArStateParams(mu[m], rng.uniform(-0.8, 0.8, size=p) / p, rng.uniform(0.05, 0.5))
              for m in range(M)]
    return SwitchingArModel(TransitionMatrix(trans), states)


@pytest.mark.parametrize("M,p", [(2, 1), (3, 2), (4, 2), (2, 5), (5, 3), (3, 8)])
def test_batched_ar_means_equal_per_history_calls(M, p):
    model = random_model(M, p, np.random.default_rng(100 * M + p))
    lags = np.random.default_rng(p).normal(scale=2.0, size=(500, p))
    means = model.ar_means(lags)
    assert means.shape == (500, M)
    assert np.array_equal(means, np.array([model.ar_means(h) for h in lags]))
    reversed_view = lags[::-1, ::-1]  # strided, as run_filters' lag matrix is
    assert np.array_equal(model.ar_means(reversed_view),
                          np.array([model.ar_means(h) for h in reversed_view]))


def reference_optimal_filter(x, model, eval_start):
    """Per-step optimal recursion with the arithmetic written out, one step at a time."""
    mu = np.array([st.mu for st in model.states])
    a = np.stack([st.a for st in model.states])
    b2 = np.array([st.b for st in model.states]) ** 2
    p = model.ar_order
    posterior = stationary_distribution(model.transition)
    pred, post = [], []
    for n in range(p + 1, len(x) + 1):
        predictive = posterior @ model.transition.p
        predictive = np.maximum(predictive, 0.0)
        predictive /= predictive.sum()
        hist = x[n - 1 - p:n - 1][::-1]
        log_f = -0.5 * np.log(2.0 * np.pi * b2) \
            - (x[n - 1] - (mu + a @ hist - a.sum(axis=1) * mu)) ** 2 / (2.0 * b2)
        with np.errstate(divide="ignore"):
            log_post = log_f + np.log(predictive)
        log_post -= log_post.max()
        posterior = np.exp(log_post)
        posterior = posterior / posterior.sum()
        if n >= eval_start:
            pred.append(predictive)
            post.append(posterior)
    return np.array(pred).reshape(-1, model.M), np.array(post).reshape(-1, model.M)


@pytest.mark.parametrize("M", [2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, 5])
@pytest.mark.parametrize("zeros", [False, True])
def test_optimal_filter_matches_per_step_reference_exactly(M, p, zeros):
    # the loop over the per-trajectory log-emission matrix keeps every bit
    # of the per-step recursion, optimal_step's included; the cyclic chains
    # drive posteriors to exact zeros and so the predictive through log(0)
    rng = np.random.default_rng(10 * M + p + 1000 * zeros)
    model = random_model(M, p, rng, zeros)
    traj = simulate(model, 300, burn_in=20, rng_seed=M + p)
    x = traj.x
    for eval_start in (p + 1, 50, 300, 301):
        run = run_filters([traj], model, eval_start=eval_start, mode="optimal")[0]
        pred, post = reference_optimal_filter(x, model, eval_start)
        assert run.optimal_predictive.shape == (301 - eval_start, M)
        assert np.array_equal(run.optimal_predictive, pred)
        assert np.array_equal(run.optimal_posterior, post)
    pred_all, post_all = reference_optimal_filter(x, model, p + 1)
    posterior = stationary_distribution(model.transition)
    for k, n in enumerate(range(p + 1, len(x) + 1)):
        predictive, posterior = optimal_step(posterior, x[n - 1], x[n - 1 - p:n - 1][::-1], model)
        assert np.array_equal(predictive, pred_all[k]) and np.array_equal(posterior, post_all[k])
    if zeros:
        assert (post_all == 0.0).any()


def assert_nonparametric_matches_steps(traj, model, tau, l, bandwidth):
    eval_start = warmup_threshold(model.ar_order, tau) + 1
    run = run_filters([traj], model, tau=tau, l=l, eval_start=eval_start,
                      bandwidth=bandwidth, mode="nonparametric")[0]
    h = (bandwidth or ucv_bandwidth(embed(traj.x, d=tau + 1, l=l))).h
    pred, post, fallback = map(np.array, zip(*(
        nonparametric_step(traj.x, n, model, tau, l, h)
        for n in range(eval_start, len(traj) + 1))))
    assert np.array_equal(run.nonparametric_predictive, pred)
    assert np.array_equal(run.nonparametric_posterior, post)
    assert np.array_equal(run.qp_fallback, fallback)
    return run


@pytest.mark.parametrize("M", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, 5])
def test_nonparametric_filter_matches_per_step_reference_exactly(M, p):
    # run_filters' loop over the per-trajectory AR means and log-emission
    # rows keeps every bit of a nonparametric_step loop, with h pinned and
    # with h from UCV; tau stays below 8, where conditional_weights' row
    # sums are sequential
    model = random_model(M, p, np.random.default_rng(7 * M + p))
    traj = simulate(model, 50, burn_in=20, rng_seed=10 * M + p)
    for tau in range(1, 6):
        for l in (1, 2, 3):
            for bandwidth in (Bandwidth(0.3), None):
                assert_nonparametric_matches_steps(traj, model, tau, l, bandwidth)
    if M > 1:
        # a repeated state makes C singular, so every step falls back
        twin = SwitchingArModel(model.transition, [*model.states[:-1], model.states[0]])
        assert assert_nonparametric_matches_steps(traj, twin, 2, 1, None).qp_fallback.all()


@pytest.mark.parametrize("seed", range(12))
def test_nonparametric_arithmetic_matches_quadrature_oracle(seed):
    # C and c from their integrals and the conditional KDE as a ratio of
    # joint and marginal kernel sums, sharing no code with hmmar.filters or
    # hmmar.kde; the QP on the oracle's (C, c) and its Bayes update give
    # run_filters' rows (agreement seen on such models: about 1e-13)
    rng = np.random.default_rng(9000 + seed)
    M, p, tau, l = (int(rng.integers(lo, hi + 1)) for lo, hi in ((2, 4), (1, 2), (1, 3), (1, 2)))
    model = random_model(M, p, rng)
    eval_start = warmup_threshold(p, tau) + 1
    traj = simulate(model, eval_start + 30, burn_in=20, rng_seed=seed)
    h = ucv_bandwidth(embed(traj.x, d=tau + 1, l=l)).h
    run = run_filters([traj], model, tau, l, eval_start=eval_start, bandwidth=Bandwidth(h),
                      mode="nonparametric")[0]
    for k in (0, 15, 30):
        n = eval_start + k
        C_ref, c_ref = nonparametric_reference.mixture_problem(traj.x, n, model, tau, l, h)
        C, c = emission_mixture_problem(traj.x, n, model, tau, l, h)
        np.testing.assert_allclose(C, C_ref, rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(c, c_ref, rtol=1e-8, atol=0.0)
        sol = solve_kkt(C_ref, c_ref)
        assert sol.fallback == run.qp_fallback[k]
        np.testing.assert_allclose(run.nonparametric_predictive[k], sol.u, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(run.nonparametric_posterior[k],
                                   nonparametric_reference.posterior(sol.u, traj.x, n, model),
                                   rtol=0.0, atol=1e-8)


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

    def test_requires_x_n(self):
        x = simulate(example_model(), 150, burn_in=50, rng_seed=13).x
        with pytest.raises(ValueError, match=r"^series has 150 values, step n = 151 needs x_n$"):
            nonparametric_step(x, n=151, model=example_model(), tau=2, l=1, h=0.2)


class TestRunFilters:
    def test_empty_window(self):
        model = example_model()
        traj = simulate(model, 60, burn_in=10, rng_seed=19)
        run = run_filters([traj], model, tau=2, l=1, eval_start=61)[0]
        assert run.qp_fallback.shape == (0,)
        for v in (run.optimal_posterior, run.nonparametric_predictive):
            assert v.shape == (0, 3)

    @pytest.mark.parametrize("p", [1, 3])
    def test_series_no_longer_than_p_gives_empty_arrays(self, p):
        # the shared pass builds a (0, p) lag view and (0, M) emission rows
        model = random_model(3, p, np.random.default_rng(p))
        eval_start = warmup_threshold(p, 2) + 1
        for n_len in range(p + 1):
            traj = Trajectory(s=np.ones(n_len, dtype=int), x=np.linspace(0.0, 1.0, n_len))
            for mode in ("optimal", "nonparametric", "both"):
                run = run_filters([traj], model, tau=2, l=1, eval_start=eval_start, mode=mode)[0]
                assert run.qp_fallback.shape == (0,)
                for method in ("optimal", "nonparametric"):
                    if mode in (method, "both"):
                        assert getattr(run, f"{method}_predictive").shape == (0, 3)
                        assert getattr(run, f"{method}_posterior").shape == (0, 3)

    def test_eval_start_must_clear_warmup(self):
        model = example_model()
        traj = simulate(model, 60, burn_in=10, rng_seed=19)
        with pytest.raises(ValueError):
            run_filters([traj], model, tau=2, l=1, eval_start=10)

    def test_eval_start_must_clear_the_ar_order(self):
        # the optimal filter alone has no warm-up; its first step needs p lags
        model = example_model()
        traj = simulate(model, 60, burn_in=10, rng_seed=19)
        with pytest.raises(ValueError, match="^eval_start must exceed the AR order 2$"):
            run_filters([traj], model, eval_start=2, mode="optimal")
        run = run_filters([traj], model, eval_start=3, mode="optimal")[0]
        assert run.optimal_posterior.shape == (58, 3)

    def test_well_separated_states_filter_nearly_perfectly(self):
        model = separated_model()
        traj = simulate(model, 10_000, burn_in=100, rng_seed=23)
        run = run_filters([traj], model, eval_start=2, mode="optimal")[0]
        wrong = run.optimal_posterior.argmax(axis=1) + 1 != traj.s[1:]
        assert wrong.mean() < 0.01

    def test_causality_of_decisions(self):
        # with the bandwidth pinned, truncating the series cannot change
        # any decision already made
        model = example_model()
        traj = simulate(model, 120, burn_in=50, rng_seed=29)
        bw = Bandwidth(0.15)
        full = run_filters([traj], model, tau=2, l=1, eval_start=90, bandwidth=bw)[0]
        cut = Trajectory(s=traj.s[:100], x=traj.x[:100])
        part = run_filters([cut], model, tau=2, l=1, eval_start=90, bandwidth=bw)[0]
        assert full.eval_start == part.eval_start
        for name in ("optimal_posterior", "optimal_predictive", "nonparametric_posterior"):
            np.testing.assert_array_equal(getattr(full, name).argmax(axis=1)[:11],
                                          getattr(part, name).argmax(axis=1))
        np.testing.assert_array_equal(full.nonparametric_predictive[:11],
                                      part.nonparametric_predictive)

    def test_vectors_stay_on_simplex(self):
        model = example_model()
        traj = simulate(model, 150, burn_in=50, rng_seed=31)
        run = run_filters([traj], model, tau=2, l=1, eval_start=60)[0]
        for v in (run.optimal_predictive, run.optimal_posterior,
                  run.nonparametric_predictive, run.nonparametric_posterior):
            assert v.shape == (91, 3)
            assert np.all(np.isfinite(v))
            assert np.all(v >= 0.0)
            assert np.all(np.abs(v.sum(axis=1) - 1.0) < 1e-10)

    def test_method_selection(self):
        model = example_model()
        traj = simulate(model, 120, burn_in=50, rng_seed=37)
        run = run_filters([traj], model, eval_start=100, mode="optimal")[0]
        assert run.nonparametric_posterior is None and run.nonparametric_predictive is None
        assert run.optimal_posterior.shape == run.optimal_predictive.shape == (21, 3)
        assert not run.qp_fallback.any()
        run = run_filters([traj], model, eval_start=100, mode="nonparametric")[0]
        assert run.optimal_posterior is None and run.optimal_predictive is None
        assert run.nonparametric_posterior.shape == run.nonparametric_predictive.shape == (21, 3)
        with pytest.raises(ValueError, match="mode"):
            run_filters([traj], model, eval_start=100, mode="nope")


@pytest.mark.parametrize("field", ["predictive", "posterior"])
@pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.nan, 1.0]])
def test_filter_state_rejects_nan(field, bad, monkeypatch):
    # a NaN in the last row of either filter's output makes run_filters raise
    import hmmar.filters as filters
    model = example_model()
    traj = simulate(model, 120, burn_in=50, rng_seed=43)
    run = partial(run_filters, [traj], model, tau=2, l=1, eval_start=100,
                  bandwidth=Bandwidth(0.15))

    # both filters write every step through _bayes_update: the optimal loop
    # one step's (1, M) rows at a time, the nonparametric filter all its
    # (T, 1, M) rows at once; step 120's is the last row, with x_120's emissions.
    # The optimal loop writes each posterior over its log_f row, so log_f is
    # read before the real update runs.
    last_log_f = log_emissions(traj.x[-1], model.ar_means(traj.x[-3:-1][::-1]), model)
    update = filters._bayes_update

    def poisoned_update(log_f, predictive, out):
        last = np.array_equal(log_f[-1].reshape(-1), last_log_f)
        update(log_f, predictive, out)
        if last:
            (predictive, out)[field == "posterior"][-1] = bad + [0.0]
        return out

    monkeypatch.setattr(filters, "_bayes_update", poisoned_update)
    with pytest.raises(ValueError, match=f"optimal_{field} at step n = 120"):
        run(mode="optimal")
    with pytest.raises(ValueError, match=f"nonparametric_{field} at step n = 120"):
        run(mode="nonparametric")


def test_estimator_output_tie_breaks_to_smaller_index(tmp_path):
    ties = np.full((2, 2), 0.5)
    run = FilterRun(eval_start=1, qp_fallback=np.zeros(2, dtype=bool), optimal_predictive=ties,
                    optimal_posterior=ties, nonparametric_predictive=ties,
                    nonparametric_posterior=ties)
    traj = Trajectory(s=[2, 2], x=[0.0, 1.0])
    emit_trace(traj, run, tmp_path / "trace.csv")
    for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]:
        assert line.split(",")[3:7] == ["1", "1", "1", "1"]


def test_filter_run_needs_a_method():
    with pytest.raises(ValueError, match="at least one method"):
        FilterRun(3, np.zeros(0, dtype=bool))


@pytest.mark.parametrize("field", ["optimal_predictive", "optimal_posterior",
                                   "nonparametric_predictive", "nonparametric_posterior"])
@pytest.mark.parametrize("bad_row", [[np.nan, 0.5, 0.5], [-1e-3, 0.5, 0.501],
                                     [0.25, 0.25, 0.5 + 1e-9]], ids=["nan", "negative", "sum"])
def test_filter_run_rejects_a_row_that_is_no_probability_vector(field, bad_row):
    arrays = {name: np.full((4, 3), 1.0 / 3.0) for name in (
        "optimal_predictive", "optimal_posterior", "nonparametric_predictive",
        "nonparametric_posterior")}
    arrays[field][2] = bad_row
    with pytest.raises(ValueError, match=rf"^{field} at step n = 9 is not a probability vector"):
        FilterRun(7, np.zeros(4, dtype=bool), **arrays)


def test_wrong_history_length_raises_through_per_step_functions():
    model = example_model()
    for history in (np.array([0.1]), np.array([0.1, 0.2, 0.3])):
        with pytest.raises(ValueError, match="history must hold"):
            posterior_update(np.full(3, 1 / 3), 0.5, history, model)
        with pytest.raises(ValueError, match="history must hold"):
            optimal_step(model.stationary, 0.5, history, model)


def per_step_rows(x, model, tau, l, eval_start, h):
    """``{FilterRun field: (T, M) rows}`` and the (T,) fallback flags of the
    ``optimal_step`` / ``nonparametric_step`` loops over one series (h None: UCV)."""
    p = model.ar_order
    posterior = model.stationary
    steps = {"optimal_predictive": [], "optimal_posterior": [],
             "nonparametric_predictive": [], "nonparametric_posterior": []}
    for n in range(p + 1, len(x) + 1):
        predictive, posterior = optimal_step(posterior, x[n - 1], x[n - 1 - p:n - 1][::-1], model)
        if n >= eval_start:
            steps["optimal_predictive"].append(predictive)
            steps["optimal_posterior"].append(posterior)
    fallback = []
    if h is None:
        h = ucv_bandwidth(embed(x, d=tau + 1, l=l)).h
    for n in range(eval_start, len(x) + 1):
        predictive, posterior, qp_fallback = nonparametric_step(x, n, model, tau, l, h)
        steps["nonparametric_predictive"].append(predictive)
        steps["nonparametric_posterior"].append(posterior)
        fallback.append(qp_fallback)
    rows = {name: np.array(v).reshape(-1, model.M) for name, v in steps.items()}
    return rows, np.array(fallback, dtype=bool)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(M=hst.integers(1, 4), p=hst.integers(1, 3), tau=hst.integers(1, 5), l=hst.integers(1, 3),
       seed=hst.integers(0, 2**32 - 1), extra=hst.integers(-2, 25),
       h=hst.none() | hst.floats(0.05, 1.0))
def test_shared_emission_pass_matches_single_modes_and_per_step_loops(M, p, tau, l, seed,
                                                                      extra, h):
    # tau stays below 8, where conditional_weights' row sums are sequential
    model = random_model(M, p, np.random.default_rng(seed))
    eval_start = warmup_threshold(p, tau) + 1
    traj = simulate(model, eval_start + extra, burn_in=20, rng_seed=seed)
    x = traj.x
    bandwidth = None if h is None else Bandwidth(h)
    run = partial(run_filters, [traj], model, tau=tau, l=l, eval_start=eval_start,
                  bandwidth=bandwidth)
    both, optimal, nonparametric = (run(mode=mode)[0]
                                    for mode in ("both", "optimal", "nonparametric"))
    steps, fallback = per_step_rows(x, model, tau, l, eval_start, h)

    assert np.array_equal(both.qp_fallback, nonparametric.qp_fallback)
    assert np.array_equal(both.qp_fallback, fallback)
    for name, rows in steps.items():
        got = getattr(both, name)
        single = optimal if name.startswith("optimal") else nonparametric
        assert np.array_equal(got, getattr(single, name))
        assert np.array_equal(got, rows)
        assert got.shape == (max(len(x) + 1 - eval_start, 0), M)
        assert np.all(got >= 0.0) and np.all(np.abs(got.sum(axis=1) - 1.0) <= 1e-10)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(k=hst.sampled_from([1, 2, 3, 7]), mode=hst.sampled_from(MODES), M=hst.integers(1, 4),
       p=hst.integers(1, 3), tau=hst.integers(1, 5), l=hst.integers(1, 3),
       seed=hst.integers(0, 2**32 - 1), extra=hst.integers(-2, 25),
       h=hst.none() | hst.floats(0.05, 1.0))
def test_block_matches_single_trajectory_runs_and_per_step_loops(k, mode, M, p, tau, l, seed,
                                                                 extra, h):
    # a block of k series in lockstep gives each series' own run, bit for bit;
    # tau stays below 8, where conditional_weights' row sums are sequential
    model = random_model(M, p, np.random.default_rng(seed))
    eval_start = warmup_threshold(p, tau) + 1
    trajs = [simulate(model, eval_start + extra, burn_in=20, rng_seed=seed + r)
             for r in range(k)]
    run = partial(run_filters, model=model, tau=tau, l=l, eval_start=eval_start,
                  bandwidth=None if h is None else Bandwidth(h), mode=mode)
    block = run(trajs)
    assert len(block) == k
    for traj, got in zip(trajs, block):
        single = run([traj])[0]
        steps, fallback = per_step_rows(traj.x, model, tau, l, eval_start, h)
        assert np.array_equal(got.qp_fallback, single.qp_fallback)
        if mode != "optimal":
            assert np.array_equal(got.qp_fallback, fallback)
        for name, rows in steps.items():
            if mode not in ("both", name.split("_")[0]):
                assert getattr(got, name) is None
                continue
            assert np.array_equal(getattr(got, name), getattr(single, name))
            assert np.array_equal(getattr(got, name), rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_default_bandwidth_rejects_too_narrow_series():
    # UCV's 1/h^3 would overflow on this series; oversmoothed_bandwidth rejects it first
    x = 1e-110 * np.random.default_rng(0).standard_normal(300)
    traj = Trajectory(s=np.ones(300, dtype=int), x=x)
    with pytest.raises(ValueError, match="^series 0: h_plus .* is below"):
        run_filters([traj], example_model(), eval_start=201, mode="nonparametric")


def example_series(n: int = 600, seed: int = 0, factor: float = 1.0) -> Trajectory:
    """The example config's series of ``seed``, its observations times ``factor``."""
    cfg = example_config()
    traj = simulate(cfg.model, n, cfg.burn_in, seed)
    return Trajectory(s=traj.s, x=factor * traj.x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_series_past_the_float_range_fails_before_any_arithmetic():
    # unchecked, this series warns twice and then fails at n = 501 as no probability
    # vector; the range check names it before the block's arrays exist
    with pytest.raises(SeriesError, match=r"^series 0 reaches 1\.3e\+160, past 1\.37e\+152, "
                                          r"where the filters' arithmetic overflows$") as info:
        run_filters([example_series(factor=1e160)], example_config().model, eval_start=501,
                    mode="optimal")
    assert info.value.index == 0
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("bandwidth", [None, Bandwidth(0.2)])
def test_first_series_out_of_range_gives_its_place_in_the_block(bandwidth):
    block = [example_series(200, 0), example_series(200, 1), example_series(200, 2, 1e200)]
    with pytest.raises(SeriesError, match="^series 2 reaches ") as info:
        run_filters(block, example_config().model, eval_start=101, bandwidth=bandwidth)
    assert info.value.index == 2
    assert info.value.tail.startswith(" reaches ")


def test_ucv_failure_gives_its_place_in_the_block():
    # the range check passes a tiny series; UCV's own floor then refuses it
    block = [example_series(200, 0), example_series(200, 1, 1e-130), example_series(200, 2)]
    with pytest.raises(SeriesError, match=r"^series 1: h_plus .* is below .*, where UCV's 1/h\^3"):
        run_filters(block, example_config().model, eval_start=101)
    # a pinned bandwidth runs no UCV, and the series is in the filters' float range
    runs = run_filters(block, example_config().model, eval_start=101, bandwidth=Bandwidth(0.2))
    assert len(runs) == 3


def test_series_error_survives_pickling():
    with pytest.raises(SeriesError) as info:
        run_filters([example_series(200, 0), example_series(200, 1, 1e200)],
                    example_config().model, eval_start=101, mode="optimal")
    err = info.value
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is SeriesError
    assert (back.index, back.tail, str(back)) == (1, err.tail, str(err))
    assert back.args == (1, err.tail)
    assert str(back) == f"series 1{err.tail}"
