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

from .gaussian import Gaussian1, product_integral
from .kde import Bandwidth, conditional_weights, embed, embedding_heads, ucv_bandwidth
from .model import ArStateParams, SwitchingArModel, Trajectory, stationary_distribution
from .simplex_qp import QpProblem, solve_kkt

_SIMPLEX_TOL = 1e-10

#: Extra steps granted to the nonparametric path before its output counts.
WARMUP_MARGIN = 20


def warmup_threshold(p: int, tau: int) -> int:
    """Steps n at or below this use a uniform predictive (too little history)."""
    return max(p, tau + 1) + WARMUP_MARGIN


@dataclass(eq=False)
class FilterState:
    """Predictive and posterior state distributions at time index n."""

    predictive: np.ndarray
    posterior: np.ndarray
    n: int
    qp_fallback: bool = False

    def __post_init__(self):
        self.predictive = np.asarray(self.predictive, dtype=float)
        self.posterior = np.asarray(self.posterior, dtype=float)
        for name, v in (("predictive", self.predictive), ("posterior", self.posterior)):
            if not (v.min() >= 0.0 and abs(v.sum() - 1.0) <= _SIMPLEX_TOL):
                raise ValueError(f"{name} is not a probability vector: {v!r}")


@dataclass(frozen=True)
class EstimatorOutput:
    """Argmax decisions (1-based state indices; ties go to the smaller index)."""

    filtered_state: int
    predicted_state: int

    @classmethod
    def from_state(cls, state: FilterState) -> "EstimatorOutput":
        return cls(filtered_state=int(np.argmax(state.posterior)) + 1,
                   predicted_state=int(np.argmax(state.predictive)) + 1)


def log_emissions(x_n: float, history: np.ndarray, states: list[ArStateParams]) -> np.ndarray:
    """log f_m(x_n) for every state m, given the last p observations."""
    history = np.asarray(history, dtype=float)
    p = states[0].p
    if history.shape != (p,):
        raise ValueError(f"history must hold {p} values (most recent first)")
    mu = np.array([st.mu for st in states])
    b2 = np.array([st.b for st in states]) ** 2
    a = np.stack([st.a for st in states])
    means = mu + a @ history - a.sum(axis=1) * mu
    return -0.5 * np.log(2.0 * np.pi * b2) - (x_n - means) ** 2 / (2.0 * b2)


def posterior_update(predictive: np.ndarray, x_n: float, history: np.ndarray,
                     states: list[ArStateParams]) -> np.ndarray:
    """Posterior from the predictive vector and the new observation.

    Implements the Bayes update posterior_m = f_m(x_n) u_m / sum_j f_j(x_n) u_j
    in log space, then renormalizes, so extreme observations cannot underflow
    the whole vector.
    """
    predictive = np.asarray(predictive, dtype=float)
    log_f = log_emissions(x_n, history, states)
    with np.errstate(divide="ignore"):
        log_post = log_f + np.log(predictive)
    log_post -= log_post.max()
    post = np.exp(log_post)
    return post / post.sum()


def optimal_step(state: FilterState, x_n: float, history: np.ndarray,
                 model: SwitchingArModel) -> FilterState:
    """One recursion of the optimal filter (transition matrix known)."""
    predictive = state.posterior @ model.transition.p
    predictive = np.maximum(predictive, 0.0)
    predictive /= predictive.sum()
    posterior = posterior_update(predictive, x_n, history, model.states)
    return FilterState(predictive=predictive, posterior=posterior, n=state.n + 1)


def emission_mixture_problem(x: np.ndarray, n: int, states: list[ArStateParams],
                             tau: int, l: int, h: float) -> QpProblem:
    """Coefficients of the L2-projection objective at step n.

    C[i, j] is the integral of the product of the emission densities of
    states i and j (a closed-form normal evaluation); c[m] integrates the
    kernel-mixture estimate of f(. | x_{n-tau}^{n-1}) against the emission
    density of state m.  Only x_1^{n-1} enters.
    """
    x = np.asarray(x, dtype=float)
    p = states[0].p
    history = x[n - 1 - p:n - 1][::-1]
    mu = np.array([st.mu for st in states])
    b2 = np.array([st.b for st in states]) ** 2
    a = np.stack([st.a for st in states])
    means = mu + a @ history - a.sum(axis=1) * mu

    M = len(states)
    C = np.empty((M, M))
    for i in range(M):
        C[i, i] = product_integral(Gaussian1(means[i], b2[i]), Gaussian1(means[i], b2[i]))
        for j in range(i + 1, M):
            C[i, j] = C[j, i] = product_integral(Gaussian1(means[i], b2[i]),
                                                 Gaussian1(means[j], b2[j]))

    beta = conditional_weights(x, n, tau, l, h)
    heads = embedding_heads(x, n, tau, l)
    var = h * h + b2  # kernel variance + emission variance, per state
    kernels = np.exp(-(heads[:, None] - means[None, :]) ** 2 / (2.0 * var)) \
        / np.sqrt(2.0 * np.pi * var)
    c = beta @ kernels
    return QpProblem(C=C, c=c)


def nonparametric_step(x: np.ndarray, n: int, states: list[ArStateParams],
                       tau: int, l: int, h: float,
                       min_step: Optional[int] = None) -> FilterState:
    """Filter step without the transition matrix.

    The predictive vector is the simplex-QP solution built from x_1^{n-1};
    the posterior applies the usual Bayes update with x_n.  For
    n <= min_step (default :func:`warmup_threshold`) the predictive falls
    back to uniform, since the kernel estimate has too few vectors to mean
    anything; such steps should be excluded from error metrics.
    """
    x = np.asarray(x, dtype=float)
    M = len(states)
    p = states[0].p
    if n <= max(p, tau + 1):
        raise ValueError(f"step index n = {n} needs more history (p = {p}, tau = {tau})")
    if x.shape[0] < n:
        raise ValueError(f"series has {x.shape[0]} values, step n = {n} needs x_n")
    if min_step is None:
        min_step = warmup_threshold(p, tau)

    fallback = False
    if M == 1:
        predictive = np.ones(1)
    elif n <= min_step:
        predictive = np.full(M, 1.0 / M)
    else:
        sol = solve_kkt(emission_mixture_problem(x, n, states, tau, l, h))
        predictive = sol.u
        fallback = sol.fallback

    history = x[n - 1 - p:n - 1][::-1]
    posterior = posterior_update(predictive, x[n - 1], history, states)
    return FilterState(predictive=predictive, posterior=posterior, n=n,
                       qp_fallback=fallback)


@dataclass(eq=False)
class StepRecord:
    """Per-step output of :func:`run_filters` for one time index."""

    n: int
    optimal: Optional[FilterState] = None
    optimal_output: Optional[EstimatorOutput] = None
    nonparam: Optional[FilterState] = None
    nonparam_output: Optional[EstimatorOutput] = None


def run_filters(trajectory: Trajectory, model: SwitchingArModel, tau: int = 2,
                l: int = 1, eval_start: int = 1,
                bandwidth: Optional[Bandwidth] = None,
                compute_optimal: bool = True,
                compute_nonparametric: bool = True) -> list[StepRecord]:
    """Run the selected filters over a trajectory, recording n >= eval_start.

    The optimal filter starts from the stationary distribution at the first
    step with a full AR history and recurses to the end.  The nonparametric
    filter is evaluated independently at each recorded step (it carries no
    state across n).  If ``bandwidth`` is None it is selected once by UCV on
    the delay embedding (dimension tau + 1) of the whole series; pass an
    explicit value to pin it, e.g. when checking causality.
    """
    x = trajectory.x
    n_len = x.shape[0]
    p = model.ar_order
    thresh = warmup_threshold(p, tau)
    if compute_nonparametric and eval_start <= thresh:
        raise ValueError(f"eval_start must exceed the warm-up threshold {thresh}")
    if not compute_nonparametric and eval_start <= p:
        raise ValueError(f"eval_start must exceed the AR order {p}")
    records = [StepRecord(n=n) for n in range(eval_start, n_len + 1)]
    if not records:
        return records

    if compute_optimal:
        pi = stationary_distribution(model.transition)
        state = FilterState(predictive=pi, posterior=pi, n=p)
        for n in range(p + 1, n_len + 1):
            state = optimal_step(state, x[n - 1], x[n - 1 - p:n - 1][::-1], model)
            if n >= eval_start:
                rec = records[n - eval_start]
                rec.optimal = state
                rec.optimal_output = EstimatorOutput.from_state(state)

    if compute_nonparametric:
        if bandwidth is None:
            bandwidth = ucv_bandwidth(embed(x, d=tau + 1, l=l))
        for rec in records:
            fs = nonparametric_step(x, rec.n, model.states, tau, l, bandwidth.h)
            rec.nonparam = fs
            rec.nonparam_output = EstimatorOutput.from_state(fs)

    return records
