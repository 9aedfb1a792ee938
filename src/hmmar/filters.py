"""State filtering and one-step prediction for the switching AR model.

Two estimators of the hidden state are provided:

* the optimal Bayes filter, which propagates the posterior through the known
  transition matrix, and
* the nonparametric filter, which never touches the transition matrix: at
  each step the predictive vector is recovered by L2-projecting a kernel
  estimate of the conditional observation density onto the mixture of the
  per-state emission densities, a quadratic program over the simplex.

Both produce the predictive vector P(S_n = . | x_1^{n-1}) first and the
posterior P(S_n = . | x_1^n) second, so prediction never sees x_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gaussian import product_integral
from .kde import Bandwidth, conditional_weights, embed, embedding_heads, ucv_bandwidth
from .model import SwitchingArModel, Trajectory, stationary_distribution
from .simplex_qp import solve_kkt

_SIMPLEX_TOL = 1e-10

#: Extra steps granted to the nonparametric path before its output counts.
WARMUP_MARGIN = 20


def warmup_threshold(p: int, tau: int) -> int:
    """Steps n at or below this use a uniform predictive (too little history)."""
    return max(p, tau + 1) + WARMUP_MARGIN


def log_emissions(x_n: float, history: np.ndarray, model: SwitchingArModel) -> np.ndarray:
    """log f_m(x_n) for every state m, given the last p observations."""
    history = np.asarray(history, dtype=float)
    p = model.ar_order
    if history.shape != (p,):
        raise ValueError(f"history must hold {p} values (most recent first)")
    b2 = model.b2
    return -0.5 * np.log(2.0 * np.pi * b2) - (x_n - model.ar_means(history)) ** 2 / (2.0 * b2)


def posterior_update(predictive: np.ndarray, x_n: float, history: np.ndarray,
                     model: SwitchingArModel) -> np.ndarray:
    """Posterior from the predictive vector and the new observation.

    Implements the Bayes update posterior_m = f_m(x_n) u_m / sum_j f_j(x_n) u_j
    in log space, then renormalizes, so extreme observations cannot underflow
    the whole vector.
    """
    predictive = np.asarray(predictive, dtype=float)
    log_f = log_emissions(x_n, history, model)
    with np.errstate(divide="ignore"):
        log_post = log_f + np.log(predictive)
    log_post -= log_post.max()
    post = np.exp(log_post)
    return post / post.sum()


def optimal_step(posterior: np.ndarray, x_n: float, history: np.ndarray,
                 model: SwitchingArModel) -> tuple[np.ndarray, np.ndarray]:
    """One recursion of the optimal filter (transition matrix known).

    Takes the previous step's posterior; returns ``(predictive, posterior)``
    of this step.
    """
    predictive = posterior @ model.transition.p
    predictive = np.maximum(predictive, 0.0)
    predictive /= predictive.sum()
    return predictive, posterior_update(predictive, x_n, history, model)


def emission_mixture_problem(x: np.ndarray, n: int, model: SwitchingArModel,
                             tau: int, l: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(C, c)`` of the L2-projection objective at step n.

    C[i, j] is the integral of the product of the emission densities of
    states i and j (a closed-form normal evaluation); c[m] integrates the
    kernel-mixture estimate of f(. | x_{n-tau}^{n-1}) against the emission
    density of state m.  Only x_1^{n-1} enters.
    """
    x = np.asarray(x, dtype=float)
    p = model.ar_order
    means = model.ar_means(x[n - 1 - p:n - 1][::-1])
    b2 = model.b2

    M = model.M
    C = np.empty((M, M))
    for i in range(M):
        for j in range(i, M):
            C[i, j] = C[j, i] = product_integral(means[i], b2[i], means[j], b2[j])

    beta = conditional_weights(x, n, tau, l, h)
    heads = embedding_heads(x, n, tau, l)
    var = h * h + b2  # kernel variance + emission variance, per state
    kernels = np.exp(-(heads[:, None] - means[None, :]) ** 2 / (2.0 * var)) \
        / np.sqrt(2.0 * np.pi * var)
    c = beta @ kernels
    return C, c


def nonparametric_step(x: np.ndarray, n: int, model: SwitchingArModel,
                       tau: int, l: int, h: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Filter step without the transition matrix; returns ``(predictive, posterior, fallback)``.

    The predictive vector is the simplex-QP solution built from x_1^{n-1};
    the posterior applies the usual Bayes update with x_n.  ``model`` supplies
    only the per-state emission parameters.  For n <= :func:`warmup_threshold`
    the predictive falls back to uniform, since the kernel estimate has too
    few vectors to mean anything; such steps should be excluded from error
    metrics.  ``fallback`` marks a QP solved by the projected-gradient safety
    net.
    """
    x = np.asarray(x, dtype=float)
    M = model.M
    p = model.ar_order
    if n <= max(p, tau + 1):
        raise ValueError(f"step index n = {n} needs more history (p = {p}, tau = {tau})")
    if x.shape[0] < n:
        raise ValueError(f"series has {x.shape[0]} values, step n = {n} needs x_n")

    fallback = False
    if M == 1 or n <= warmup_threshold(p, tau):
        predictive = np.full(M, 1.0 / M)
    else:
        sol = solve_kkt(*emission_mixture_problem(x, n, model, tau, l, h))
        predictive = sol.u
        fallback = sol.fallback

    history = x[n - 1 - p:n - 1][::-1]
    return predictive, posterior_update(predictive, x[n - 1], history, model), fallback


@dataclass(eq=False)
class FilterRun:
    """Output of :func:`run_filters`; row k of every array is step n = eval_start + k.

    Each method has a (T, M) predictive array, rows P(S_n = . | x_1^{n-1}),
    and a posterior array, rows P(S_n = . | x_1^n); both are None for a
    method that did not run.  ``qp_fallback`` (T,) marks nonparametric steps
    whose QP fell back to projected gradient.  The decision of a row is its
    ``argmax + 1`` (1-based; ties go to the smaller index).
    """

    eval_start: int
    qp_fallback: np.ndarray
    optimal_predictive: Optional[np.ndarray] = None
    optimal_posterior: Optional[np.ndarray] = None
    nonparametric_predictive: Optional[np.ndarray] = None
    nonparametric_posterior: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("optimal_predictive", "optimal_posterior",
                     "nonparametric_predictive", "nonparametric_posterior"):
            v = getattr(self, name)
            if v is None:
                continue
            bad = ~((v >= 0.0).all(axis=1) & (np.abs(v.sum(axis=1) - 1.0) <= _SIMPLEX_TOL))
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"{name} at step n = {self.eval_start + k} "
                                 f"is not a probability vector: {v[k]!r}")


def run_filters(trajectory: Trajectory, model: SwitchingArModel, tau: int = 2,
                l: int = 1, eval_start: int = 1,
                bandwidth: Optional[Bandwidth] = None,
                compute_optimal: bool = True,
                compute_nonparametric: bool = True) -> FilterRun:
    """Run the selected filters over a trajectory, recording n >= eval_start.

    The optimal filter starts from the stationary distribution at the first
    step with a full AR history and recurses to the end.  The nonparametric
    filter is evaluated independently at each recorded step (it carries no
    state across n).  If ``bandwidth`` is None it is selected once by UCV on
    the delay embedding (dimension tau + 1) of the whole series; pass an
    explicit value to pin it, e.g. when checking causality.  Every row is
    checked to be a probability vector before the run is returned.
    """
    x = trajectory.x
    n_len = x.shape[0]
    p = model.ar_order
    thresh = warmup_threshold(p, tau)
    if compute_nonparametric and eval_start <= thresh:
        raise ValueError(f"eval_start must exceed the warm-up threshold {thresh}")
    if not compute_nonparametric and eval_start <= p:
        raise ValueError(f"eval_start must exceed the AR order {p}")
    T = max(n_len + 1 - eval_start, 0)
    M = model.M
    opt_pred = opt_post = npar_pred = npar_post = None
    fallback = np.zeros(T, dtype=bool)

    if compute_optimal:
        opt_pred, opt_post = np.empty((T, M)), np.empty((T, M))
        posterior = stationary_distribution(model.transition)
        for n in range(p + 1, n_len + 1):
            predictive, posterior = optimal_step(posterior, x[n - 1], x[n - 1 - p:n - 1][::-1],
                                                 model)
            if n >= eval_start:
                opt_pred[n - eval_start], opt_post[n - eval_start] = predictive, posterior

    if compute_nonparametric:
        npar_pred, npar_post = np.empty((T, M)), np.empty((T, M))
        if bandwidth is None and T:
            bandwidth = ucv_bandwidth(embed(x, d=tau + 1, l=l))
        for k in range(T):
            npar_pred[k], npar_post[k], fallback[k] = nonparametric_step(
                x, eval_start + k, model, tau, l, bandwidth.h)

    return FilterRun(eval_start, fallback, opt_pred, opt_post, npar_pred, npar_post)
