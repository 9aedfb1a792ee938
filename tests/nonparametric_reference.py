"""The nonparametric filter's QP and posterior from their definitions, by quadrature.

An oracle for checks of ``hmmar.filters``; it shares no code with it or with
``hmmar.kde``.  At step n the delay vectors of x_1^{n-1} (dimension
d = tau + 1, stride l) carry a product normal kernel of scale h, and the
conditional density of x_n given q = (x_{n-tau}, ..., x_{n-1}) is the ratio

    f^(y | q) = f^(q, y) / f^(q)

of their joint kernel density and its marginal over the first tau
coordinates.  c[m] is the integral of f^(y | q) f_m(y) and C[i, j] that of
f_i(y) f_j(y), f_m the normal emission density of state m; ``scipy``'s
``quad`` computes both.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

#: Half-width of each integration window, in standard deviations of the
#: emission density that bounds the integrand (exp(-40^2 / 2) underflows).
_WINDOW_SDS = 40.0


def normal_pdf(y, mean: float, var: float):
    """Density of N(mean, var) at y (a float or an array)."""
    return np.exp(-(y - mean) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def emission_means(model, x: np.ndarray, n: int) -> list[float]:
    """mu_m + sum_i a_{m,i} (x_{n-i} - mu_m) of each state m (1-based n)."""
    return [st.mu + sum(a_i * (x[n - 1 - i] - st.mu) for i, a_i in enumerate(st.a, start=1))
            for st in model.states]


def delay_vectors(x: np.ndarray, n: int, tau: int, l: int) -> np.ndarray:
    """Y_i = (x_{(i-1)l+1}, ..., x_{(i-1)l+tau+1}) for every Y_i inside x_1^{n-1}."""
    d = tau + 1
    N = 1 + (n - 1 - d) // l
    return np.array([x[i * l:i * l + d] for i in range(N)])


def conditional_density(x: np.ndarray, n: int, tau: int, l: int, h: float):
    """f^(. | x_{n-tau}^{n-1}) as a function of y, the ratio of joint and marginal KDEs."""
    Y = delay_vectors(x, n, tau, l)
    q = x[n - 1 - tau:n - 1]
    # the joint product kernel at (q, y) is this part in q times a kernel in y
    kernel_q = np.prod([normal_pdf(q[j], Y[:, j], h * h) for j in range(tau)], axis=0)
    marginal = kernel_q.sum() / len(Y)
    if not marginal > 0.0:
        raise ValueError(f"marginal density at step n = {n} underflows; raise h")

    def density(y: float) -> float:
        joint = (kernel_q * normal_pdf(y, Y[:, tau], h * h)).sum() / len(Y)
        return joint / marginal

    return density


def _integral(f, center: float, sd: float, points=()) -> float:
    """Integral of f, negligible beyond center -+ _WINDOW_SDS sd, to 1e-12 relative."""
    lo, hi = center - _WINDOW_SDS * sd, center + _WINDOW_SDS * sd
    inner = sorted(p for p in points if lo < p < hi)
    value, _ = quad(f, lo, hi, points=inner or None, epsabs=0.0, epsrel=1e-12, limit=500)
    return value


def mixture_problem(x: np.ndarray, n: int, model, tau: int, l: int,
                    h: float) -> tuple[np.ndarray, np.ndarray]:
    """``(C, c)`` of the L2 projection at step n, each entry one quadrature."""
    x = np.asarray(x, dtype=float)
    means = emission_means(model, x, n)
    var = [st.b * st.b for st in model.states]
    M = len(means)
    C = np.empty((M, M))
    for i in range(M):
        for j in range(i, M):
            # f_j is bounded, so f_i's window bounds the product
            C[i, j] = C[j, i] = _integral(
                lambda y: normal_pdf(y, means[i], var[i]) * normal_pdf(y, means[j], var[j]),
                means[i], math.sqrt(var[i]), [means[j]])
    f_hat = conditional_density(x, n, tau, l, h)
    c = np.array([_integral(lambda y: f_hat(y) * normal_pdf(y, means[m], var[m]),
                            means[m], math.sqrt(var[m]))
                  for m in range(M)])
    return C, c


def posterior(predictive: np.ndarray, x: np.ndarray, n: int, model) -> np.ndarray:
    """Bayes update u_m f_m(x_n) / sum_k u_k f_k(x_n), in plain densities."""
    x = np.asarray(x, dtype=float)
    weights = np.array([u * normal_pdf(x[n - 1], mean, st.b * st.b)
                        for u, mean, st in zip(predictive, emission_means(model, x, n),
                                               model.states)])
    return weights / weights.sum()
