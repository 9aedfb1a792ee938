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
from itertools import combinations_with_replacement
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gaussian import product_integral
from .kde import Bandwidth, conditional_weights, embed, embedding_heads, ucv_bandwidth
from .model import SwitchingArModel, Trajectory
from .simplex_qp import solve_kkt

_SIMPLEX_TOL = 1e-10

#: Values of ``run_filters``' ``mode``: which filters run.
MODES = ("optimal", "nonparametric", "both")

#: Extra steps granted to the nonparametric path before its output counts.
WARMUP_MARGIN = 20


def warmup_threshold(p: int, tau: int) -> int:
    """Steps n at or below this use a uniform predictive (too little history)."""
    return max(p, tau + 1) + WARMUP_MARGIN


def log_emissions(x_n: float | np.ndarray, means: np.ndarray,
                  model: SwitchingArModel) -> np.ndarray:
    """log f_m(x_n) for every state m, given the (M,) AR means of x_n's history.

    ``means`` comes from :meth:`SwitchingArModel.ar_means`.  With a (k,) array
    of observations and their (k, M) means the result is the (k, M) matrix.
    """
    b2 = model.b2
    x_n = np.asarray(x_n, dtype=float)[..., None]
    return -0.5 * np.log(2.0 * np.pi * b2) - (x_n - means) ** 2 / (2.0 * b2)


def _predict(posterior: np.ndarray, trans: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Predictive vector posterior @ trans, renormalized, into ``out``.

    Rows of a leading repeat axis are stacked (1, M) @ (M, M) products, which
    round like the 1-D one; a 2-D (R, M) @ (M, M) would not.
    """
    np.matmul(posterior[..., None, :], trans, out=out[..., None, :])
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def _bayes_update(log_f: np.ndarray, predictive: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The update of :func:`posterior_update` from the log emission row, into ``out``.

    Rows of leading (time or repeat) axes are updated independently.  A zero u_m
    takes log 0 = -inf; callers silence that divide warning.
    """
    np.log(predictive, out=out)
    out += log_f
    out -= np.maximum.reduce(out, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def posterior_update(predictive: np.ndarray, x_n: float, history: np.ndarray,
                     model: SwitchingArModel) -> np.ndarray:
    """Posterior from the predictive vector and the new observation.

    Implements the Bayes update posterior_m = f_m(x_n) u_m / sum_j f_j(x_n) u_j
    in log space, then renormalizes, so extreme observations cannot underflow
    the whole vector.
    """
    log_f = log_emissions(x_n, model.ar_means(history), model)
    with np.errstate(divide="ignore"):
        return _bayes_update(log_f, predictive, np.empty_like(log_f))


def optimal_step(posterior: np.ndarray, x_n: float, history: np.ndarray,
                 model: SwitchingArModel) -> tuple[np.ndarray, np.ndarray]:
    """One recursion of the optimal filter (transition matrix known).

    Takes the previous step's posterior; returns ``(predictive, posterior)``
    of this step.
    """
    predictive = _predict(posterior, model.transition.p, np.empty(model.M))
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
    return (_emission_overlaps(means.tolist(), model.b2.tolist()),
            _kernel_column(x, n, means, model, tau, l, h))


def _emission_overlaps(m: list, v: list) -> np.ndarray:
    """C of :func:`emission_mixture_problem` from the states' AR means and variances."""
    M = len(m)
    C = [0.0] * (M * M)
    for i, j in combinations_with_replacement(range(M), 2):
        C[i * M + j] = C[j * M + i] = product_integral(m[i], v[i], m[j], v[j])
    return np.array(C).reshape(M, M)


def _kernel_column(x: np.ndarray, n: int, means: np.ndarray, model: SwitchingArModel,
                   tau: int, l: int, h: float | np.ndarray) -> np.ndarray:
    """c of :func:`emission_mixture_problem` from step n's (M,) AR means.

    A leading repeat axis on ``x``, ``means`` and ``h`` (R, 1) runs a block.
    """
    beta = conditional_weights(x, n, tau, l, h)
    heads = embedding_heads(x, n, tau, l)
    var = (h * h + model.b2)[..., None, :]  # kernel variance + emission variance, per state
    # (..., N, M) kernels built in place; beta @ reads each C-contiguous (N, M) block.
    kernels = np.subtract(heads[..., None], means[..., None, :])
    kernels **= 2
    kernels /= -2.0 * var
    np.exp(kernels, out=kernels)
    kernels /= np.sqrt(2.0 * np.pi * var)
    return np.matmul(beta[..., None, :], kernels)[..., 0, :]


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
    M, p = model.M, model.ar_order
    if n <= max(p, tau + 1):
        raise ValueError(f"step index n = {n} needs more history (p = {p}, tau = {tau})")
    if x.shape[0] < n:
        raise ValueError(f"series has {x.shape[0]} values, step n = {n} needs x_n")

    if M == 1 or n <= warmup_threshold(p, tau):
        predictive, fallback = np.full(M, 1.0 / M), False
    else:
        sol = solve_kkt(*emission_mixture_problem(x, n, model, tau, l, h))
        predictive, fallback = sol.u, sol.fallback

    history = x[n - 1 - p:n - 1][::-1]
    return predictive, posterior_update(predictive, x[n - 1], history, model), fallback


@dataclass(eq=False)
class FilterRun:
    """Output of :func:`run_filters`; row k of every array is step n = eval_start + k.

    Each method has a (T, M) predictive array, rows P(S_n = . | x_1^{n-1}),
    and a posterior array, rows P(S_n = . | x_1^n); both are None for a
    method that did not run, and at least one method must have run.
    ``qp_fallback`` (T,) marks nonparametric steps whose QP fell back to
    projected gradient.  The decision of a row is its ``argmax + 1``
    (1-based; ties go to the smaller index).
    """

    eval_start: int
    qp_fallback: np.ndarray
    optimal_predictive: Optional[np.ndarray] = None
    optimal_posterior: Optional[np.ndarray] = None
    nonparametric_predictive: Optional[np.ndarray] = None
    nonparametric_posterior: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.optimal_posterior is None and self.nonparametric_posterior is None:
            raise ValueError("a FilterRun must hold the arrays of at least one method")
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


def run_filters(trajectories: Sequence[Trajectory], model: SwitchingArModel, tau: int = 2,
                l: int = 1, *, eval_start: int, bandwidth: Optional[Bandwidth] = None,
                mode: str = "both") -> list[FilterRun]:
    """Run the filters ``mode`` selects (one of :data:`MODES`) on a block of trajectories.

    Returns one :class:`FilterRun` per trajectory, recording n >= eval_start;
    a filter that did not run leaves its arrays None.  The trajectories share
    one length and run in lockstep: each step is one set of numpy calls on
    the block's (R, M) rows, bit for bit as R blocks of one.  Both filters
    read one emission pass over steps n = p + 1 .. len(x): each series' AR
    means from its lag view, and the (steps, R, M) log-emission array.  The
    optimal filter starts from the stationary distribution at n = p + 1 and
    recurses over every row.  The nonparametric filter carries no state: a
    prediction pass solves each step's QPs as :func:`nonparametric_step` does,
    then one Bayes update brings in every x_n.  If ``bandwidth`` is None it is
    selected per trajectory by UCV on the delay embedding (dimension tau + 1)
    of its whole series; pass one to pin it, e.g. when checking causality.
    ``eval_start`` must exceed :func:`warmup_threshold` if the nonparametric
    filter runs, else the AR order.  Every row is checked to be a probability vector.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    lengths = sorted({len(t) for t in trajectories})
    if len(lengths) != 1:
        raise ValueError(f"need one or more trajectories of one length, got lengths {lengths}")
    p = model.ar_order
    thresh = warmup_threshold(p, tau)
    if mode != "optimal" and eval_start <= thresh:
        raise ValueError(f"eval_start must exceed the warm-up threshold {thresh}")
    if eval_start <= p:
        raise ValueError(f"eval_start must exceed the AR order {p}")
    R, n_len, M = len(trajectories), lengths[0], model.M
    T = max(n_len + 1 - eval_start, 0)
    h = None if bandwidth is None else bandwidth.h
    if mode != "optimal" and T and h is None:
        # before the block's arrays exist, so the two memory peaks do not add
        h = np.array([[ucv_bandwidth(embed(t.x, d=tau + 1, l=l)).h] for t in trajectories])
    x = np.stack([t.x for t in trajectories])
    opt_pred = opt_post = npar_pred = npar_post = None
    fallback = np.zeros((R, T), dtype=bool)
    # Row i of a lag view holds the history x[p + i - 1], ..., x[i] of step
    # n = p + 1 + i; ar_means gets each series' own strided view.
    means = np.stack([model.ar_means(sliding_window_view(t.x[:-1], p)[:, ::-1] if n_len > p
                                     else np.empty((0, p))) for t in trajectories], axis=1)
    log_f = log_emissions(x[:, p:].T, means, model)  # (steps, R, M), time-major
    k0 = eval_start - p - 1  # row of step n = eval_start

    if mode != "nonparametric":
        opt_pred, opt_post = np.empty_like(log_f), np.empty_like(log_f)
        trans = model.transition.p
        posterior = np.broadcast_to(model.stationary, (R, M))
        with np.errstate(divide="ignore"):
            for log_f_n, pred_n, post_n in zip(log_f, opt_pred, opt_post):
                posterior = _bayes_update(log_f_n, _predict(posterior, trans, pred_n), post_n)
        opt_pred, opt_post = opt_pred[k0:], opt_post[k0:]

    if mode != "optimal":
        # The predictive stays uniform for M = 1, as in nonparametric_step.
        npar_pred = np.full((T, R, M), 1.0 / M)
        b2 = model.b2.tolist()
        for k in range(T if M > 1 else 0):
            means_n = means[k0 + k]
            c = _kernel_column(x, eval_start + k, means_n, model, tau, l, h)
            for r in range(R):
                sol = solve_kkt(_emission_overlaps(means_n[r].tolist(), b2), c[r])
                npar_pred[k, r], fallback[r, k] = sol.u, sol.fallback
        with np.errstate(divide="ignore"):
            npar_post = _bayes_update(log_f[k0:], npar_pred, np.empty_like(npar_pred))

    arrays = (opt_pred, opt_post, npar_pred, npar_post)
    return [FilterRun(eval_start, fallback[r], *(None if v is None else v[:, r] for v in arrays))
            for r in range(R)]
