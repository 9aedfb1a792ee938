"""Normal densities of the filters: the closed-form product integral and the
per-state emission density (``log_emissions``), checked against
``scipy.stats.norm`` and an inline AR mean."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from hmmar.filters import log_emissions
from hmmar.gaussian import product_integral
from hmmar.model import ArStateParams, SwitchingArModel, TransitionMatrix

INV_SQRT_2PI = 0.3989422804014327


def one_state(mu, a, b):
    return SwitchingArModel(TransitionMatrix([[1.0]]), [ArStateParams(mu, a, b)])


def emission_density(x, history, model):
    """Linear-scale emission density of a one-state model."""
    return math.exp(log_emissions(x, model.ar_means(np.asarray(history, dtype=float)), model)[0])


def test_standard_normal_mode():
    assert emission_density(0.0, [5.0], one_state(0.0, [0.0], 1.0)) == pytest.approx(
        INV_SQRT_2PI, abs=1e-15)


@pytest.mark.parametrize("mu", [-3.0, 0.0, 1.7])
@pytest.mark.parametrize("sigma", [0.1, 1.0, 4.0])
def test_mode_value(mu, sigma):
    got = emission_density(mu, [0.0], one_state(mu, [0.0], sigma))
    assert got == pytest.approx(1.0 / (math.sqrt(2.0 * math.pi) * sigma), rel=1e-14)


@pytest.mark.parametrize("mu", [-2.0, 0.0, 0.5])
@pytest.mark.parametrize("var", [0.25, 1.0, 4.0])
def test_density_integrates_to_one(mu, var):
    model = one_state(mu, [0.0], math.sqrt(var))
    total, _ = quad(lambda t: emission_density(t, [1.0], model), -np.inf, np.inf)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_log_pdf_matches_pdf_and_survives_tails():
    model = one_state(0.3, [0.0], 0.2)
    got = log_emissions(1.0, model.ar_means(np.array([0.0])), model)[0]
    assert got == pytest.approx(norm.logpdf(1.0, loc=0.3, scale=0.2), rel=1e-13)
    # far tail: linear-scale pdf underflows, the log form stays finite
    assert np.isfinite(log_emissions(500.0, model.ar_means(np.array([0.0])), model)[0])
    assert norm.pdf(500.0, loc=0.3, scale=0.2) == 0.0


def test_product_integral_standard_pair():
    got = product_integral(0.0, 1.0, 0.0, 1.0)
    assert got == pytest.approx(0.28209479177387814, abs=1e-15)


@pytest.mark.parametrize("mean,var", [(0.0, 1.0), (2.5, 0.3), (-1.0, 5.0)])
def test_product_integral_equal_arguments(mean, var):
    got = product_integral(mean, var, mean, var)
    assert got == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi * var)), rel=1e-14)


def test_product_integral_matches_quadrature():
    oracle, _ = quad(lambda t: norm.pdf(t, 1.0, 0.5) * norm.pdf(t, -1.0, math.sqrt(0.75)),
                     -np.inf, np.inf)
    assert product_integral(1.0, 0.25, -1.0, 0.75) == pytest.approx(oracle, abs=1e-9)


def test_product_integral_symmetric_exactly():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m1, v1 = rng.normal(), rng.uniform(0.05, 3.0)
        m2, v2 = rng.normal(), rng.uniform(0.05, 3.0)
        assert product_integral(m1, v1, m2, v2) == product_integral(m2, v2, m1, v1)


def test_emission_reduces_to_standard_normal():
    model = one_state(0.0, [0.0, 0.0], 1.0)
    for x in (-1.5, 0.0, 2.0):
        got = emission_density(x, [3.0, -7.0], model)
        assert got == pytest.approx(norm.pdf(x), rel=1e-14)


def test_emission_level_only_model():
    got = emission_density(1.0, [9.0, 9.0, 9.0], one_state(2.0, [0.0, 0.0, 0.0], 0.5))
    assert got == pytest.approx(norm.pdf(1.0, loc=2.0, scale=0.5), rel=1e-14)


def test_emission_ar2_example_state():
    # mu=0, a=(0.3, 0.2), b=0.1 with history (1, 2) centers the density at 0.7
    model = one_state(0.0, [0.3, 0.2], 0.1)
    assert model.ar_means(np.array([1.0, 2.0]))[0] == pytest.approx(0.7, abs=1e-15)
    for x in (0.6, 0.7, 0.75):
        got = emission_density(x, [1.0, 2.0], model)
        assert got == pytest.approx(norm.pdf(x, loc=0.7, scale=0.1), rel=1e-14)


def test_emission_rejects_wrong_history_length():
    model = one_state(0.0, [0.1, 0.2], 1.0)
    with pytest.raises(ValueError, match="history must hold"):
        log_emissions(0.0, model.ar_means(np.array([1.0])), model)
    with pytest.raises(ValueError, match="history must hold"):
        log_emissions(0.0, model.ar_means(np.array([1.0, 2.0, 3.0])), model)


def test_emission_strictly_positive():
    model = one_state(0.5, [0.2], 0.3)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(scale=3.0)
        hist = rng.normal(scale=3.0, size=1)
        assert emission_density(x, hist, model) > 0.0
